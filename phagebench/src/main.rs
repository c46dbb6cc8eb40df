//! The repository benchmark: time from a scenario's start to its validated
//! patch, and sweep throughput, over three seeded workloads that each stress
//! one layer of the pipeline.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --quiet --manifest-path phagebench/Cargo.toml -- \
//!     --workload fig8-sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through
//! `cp_corpus::pipeline::run_scenario`.  `--trace 1` first measures the
//! untraced median for a third of the time, then replays the pipeline
//! through each layer's public entry points with a span around every call
//! and prints the per-layer table.  `--self-check` replaces the timed run by
//! the steadiness check.  The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod oracle;
mod stats;
mod traced;
mod workloads;

use cp_core::ArenaEpoch;
use cp_corpus::pipeline::{run_scenario, ScenarioOutcome, ScenarioStatus};
use oracle::Produced;
use stats::{median, quantile, ratio, tail};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use workloads::{Kind, Workload};

/// Set-up repetitions; `setup_s` is their median.  A set-up lasts 4-80 ms
/// and single ones vary by a third on a shared host, so the median needs
/// more than a handful.
const SETUP_REPEATS: usize = 11;
/// Share of a traced run spent measuring the untraced median first.
const UNTRACED_SHARE: f64 = 1.0 / 3.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kind: Kind::Fig8Sweep,
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_check: false,
    };
    let mut workload = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--self-check" {
            args.self_check = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    args.kind = Kind::from_name(&name).ok_or_else(|| {
        let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown workload {name}; expected one of {names:?}")
    })?;
    Ok(args)
}

/// One scenario run by a client thread.
struct Sample {
    latency_ns: u64,
    verdict: Result<(), String>,
}

/// The first validated row of each scenario, for the size and run-time
/// metrics of the generated patches.
struct Row {
    simplified_ops: usize,
    patched_source: String,
}

/// What one closed-loop phase measured.
struct Phase<S> {
    samples: Vec<Sample>,
    wall: Duration,
    states: Vec<S>,
}

impl<S> Phase<S> {
    fn failures(&self) -> Vec<&str> {
        self.samples
            .iter()
            .filter_map(|s| s.verdict.as_ref().err().map(String::as_str))
            .collect()
    }

    /// Scenarios completed per second of the phase's wall time.  The host's
    /// speed drifts over tens of seconds, so the whole phase is averaged
    /// rather than a median taken over windows of it.
    fn throughput(&self) -> f64 {
        ratio(self.samples.len() as f64, self.wall.as_secs_f64())
    }

    fn sorted_ms(&self) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect();
        ms.sort_by(f64::total_cmp);
        ms
    }
}

/// Runs a closed loop: each of the workload's client threads takes the next
/// scenario only after its previous one completed, until `seconds` pass.
fn drive<S: Send>(
    workload: &Workload,
    seconds: f64,
    init: impl Fn() -> S + Sync,
    step: impl Fn(&mut S, usize) -> Sample + Sync,
) -> Phase<S> {
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let per_thread: Vec<(S, Vec<Sample>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..workload.kind.threads())
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut samples = Vec::new();
                    while Instant::now() < deadline {
                        let index =
                            cursor.fetch_add(1, Ordering::Relaxed) % workload.scenarios.len();
                        samples.push(step(&mut state, index));
                    }
                    (state, samples)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("client threads catch scenario panics"))
            .collect()
    });
    let wall = started.elapsed();
    let mut phase = Phase {
        samples: Vec::new(),
        wall,
        states: Vec::new(),
    };
    for (state, samples) in per_thread {
        phase.states.push(state);
        phase.samples.extend(samples);
    }
    phase
}

fn judge(workload: &Workload, index: usize, outcome: &ScenarioOutcome) -> Result<(), String> {
    let transfer = outcome.result.as_ref().map_err(Clone::clone)?;
    if !transfer.report.verdict.is_validated() {
        return Err(format!("verdict {}", transfer.report.verdict));
    }
    let produced = Produced {
        degraded: matches!(outcome.status, ScenarioStatus::Degraded { .. }),
        site: transfer.site.to_string(),
        patch: &transfer.patch,
        error_input: &outcome.error_input,
        benign_after: transfer.report.benign.iter().map(|b| &b.after).collect(),
        benign_identical: transfer.report.benign.iter().all(|b| b.identical()),
    };
    oracle::check(
        &workload.expected[index],
        &workload.scenarios[index],
        &produced,
        workload.kind.degraded_fails(),
    )
}

/// Runs scenario `index` through `run_scenario` inside its own arena epoch,
/// timed from its start to its validated patch, then checks it against the
/// oracle.
fn run_one(workload: &Workload, index: usize, rows: &[OnceLock<Row>]) -> Sample {
    let scenario = &workload.scenarios[index];
    if workload.kind.resets_memo() {
        cp_solver::reset_solver_memo();
    }
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _epoch = ArenaEpoch::begin();
        run_scenario(scenario)
    }));
    let latency_ns = started.elapsed().as_nanos() as u64;
    let verdict = match &outcome {
        Err(_) => Err("panicked".to_string()),
        Ok(outcome) => judge(workload, index, outcome),
    };
    // Size and run time of the generated code are measured on every validated
    // patch, whether or not the oracle accepts its row.
    if let Ok(ScenarioOutcome {
        result: Ok(transfer),
        simplified_ops,
        ..
    }) = &outcome
    {
        rows[index].get_or_init(|| Row {
            simplified_ops: simplified_ops.unwrap_or(0),
            patched_source: transfer.report.patched_source.clone().unwrap_or_default(),
        });
    }
    Sample {
        latency_ns,
        verdict,
    }
}

fn untraced(workload: &Workload, seconds: f64) -> (Phase<()>, Vec<OnceLock<Row>>) {
    let rows: Vec<OnceLock<Row>> = workload.scenarios.iter().map(|_| OnceLock::new()).collect();
    let phase = drive(
        workload,
        seconds,
        || (),
        |_, index| run_one(workload, index, &rows),
    );
    (phase, rows)
}

/// VM steps of the patched recipients over the unpatched ones on their
/// benign corpora, in percent, counted with `cp_vm::run`.
fn patch_overhead_steps_pct(workload: &Workload, rows: &[OnceLock<Row>]) -> Result<f64, String> {
    let build = |source: &str| {
        cp_lang::frontend(source)
            .map_err(|e| e.to_string())
            .and_then(|analyzed| cp_bytecode::compile(&analyzed).map_err(|e| e.to_string()))
    };
    let config = cp_vm::RunConfig::default();
    let (mut patched, mut unpatched) = (0u64, 0u64);
    for (scenario, row) in workload.scenarios.iter().zip(rows) {
        let Some(row) = row.get() else { continue };
        let _epoch = ArenaEpoch::begin();
        let before = build(scenario.source)?;
        let after = build(&row.patched_source)?;
        for input in scenario.benign_corpus {
            unpatched += cp_vm::run(&before, input, &config).steps;
            patched += cp_vm::run(&after, input, &config).steps;
        }
    }
    Ok(100.0 * ratio(patched as f64, unpatched as f64))
}

/// Peak resident memory of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The end-to-end metrics, measured with tracing off.
fn end_to_end(
    workload: &Workload,
    seconds: f64,
    setup_s: f64,
) -> Result<(Phase<()>, Metrics), String> {
    let (phase, rows) = untraced(workload, seconds);
    let rss = peak_rss_mb();
    let sorted = phase.sorted_ms();
    let (tail_pct, tail_ms) = tail(&sorted, workload.kind.tail_percentile());
    let n = phase.samples.len();
    let failed = phase.failures().len();
    let ops: Vec<f64> = rows
        .iter()
        .filter_map(|r| r.get())
        .map(|r| r.simplified_ops as f64)
        .collect();
    let overhead = patch_overhead_steps_pct(workload, &rows)?;
    println!(
        "{}: {n} scenarios in {:.2} s on {} client thread(s), {} distinct validated; \
         patch p50 {:.4} ms, tail p{tail_pct} {tail_ms:.4} ms ({} samples beyond)",
        workload.kind.name(),
        phase.wall.as_secs_f64(),
        workload.kind.threads(),
        ops.len(),
        quantile(&sorted, 0.5),
        n - ((tail_pct / 100.0 * n as f64).ceil() as usize).min(n),
    );
    let metrics = vec![
        ("setup_s", setup_s, "s"),
        ("patch_p50_ms", quantile(&sorted, 0.5), "ms"),
        ("patch_tail_ms", tail_ms, "ms"),
        ("scenarios_per_s", phase.throughput(), "1/s"),
        (
            "validated_ratio",
            1.0 - ratio(failed as f64, n as f64),
            "ratio",
        ),
        (
            "guard_ops_mean",
            ratio(ops.iter().sum(), ops.len() as f64),
            "ops",
        ),
        ("patch_overhead_steps_pct", overhead, "%"),
        ("peak_rss_mb", rss, "MB"),
    ];
    Ok((phase, metrics))
}

/// One client thread's traced-run state.
struct TraceState {
    collector: cp_obs::Collector,
    layers: traced::Layers,
    counts: traced::Counts,
    memo: [u64; 2],
    cross_check_failures: Vec<String>,
}

fn memo_counters() -> [u64; 2] {
    use cp_obs::metrics::counter;
    [
        counter("solver.memo.hit").get(),
        counter("solver.memo.miss").get(),
    ]
}

fn incremental_counters() -> [u64; 2] {
    use cp_obs::metrics::counter;
    [
        counter("solver.incremental.queries").get(),
        counter("solver.incremental.reuse").get(),
    ]
}

/// Replays scenario `index` with spans on, cross-checks its split
/// validation once per scenario, and checks it against the oracle.
fn trace_one(
    workload: &Workload,
    index: usize,
    state: &mut TraceState,
    checked: &[AtomicBool],
) -> Sample {
    let scenario = &workload.scenarios[index];
    if workload.kind.resets_memo() {
        cp_solver::reset_solver_memo();
    }
    let epoch = ArenaEpoch::begin();
    let subscription = state.collector.subscribe();
    let started = Instant::now();
    let replayed = catch_unwind(AssertUnwindSafe(|| {
        traced::replay(scenario, &mut state.counts)
    }));
    let latency_ns = started.elapsed().as_nanos() as u64;
    if workload.kind.resets_memo() {
        for (sum, n) in state.memo.iter_mut().zip(memo_counters()) {
            *sum += n;
        }
    }
    let verdict = match replayed {
        Err(_) => Err("panicked".to_string()),
        Ok(Err(error)) => Err(error),
        Ok(Ok(replayed)) => {
            if !checked[index].swap(true, Ordering::Relaxed) {
                if let Err(error) = traced::cross_check(&replayed, scenario) {
                    state.cross_check_failures.push(error);
                }
            }
            replayed.result.and_then(|accepted| {
                let produced = Produced {
                    degraded: replayed.degraded,
                    site: accepted.site.clone(),
                    patch: &accepted.patch,
                    error_input: &replayed.error_input,
                    benign_after: accepted.benign_after.iter().collect(),
                    benign_identical: accepted.benign_after.len() == scenario.benign_corpus.len(),
                };
                oracle::check(
                    &workload.expected[index],
                    scenario,
                    &produced,
                    workload.kind.degraded_fails(),
                )
            })
        }
    };
    drop(subscription);
    let drained = Instant::now();
    state
        .layers
        .absorb(state.collector.take(), &mut state.counts);
    state.counts.obs_ns += drained.elapsed().as_nanos() as u64;
    drop(epoch);
    Sample {
        latency_ns,
        verdict,
    }
}

/// The traced run: an untraced phase for the overhead ratio, then the
/// replay phase for the per-layer metrics.
fn per_layer(workload: &Workload, seconds: f64) -> (usize, Vec<String>, Metrics) {
    let (plain, _) = untraced(workload, seconds * UNTRACED_SHARE);
    let plain_p50 = quantile(&plain.sorted_ms(), 0.5);

    let checked: Vec<AtomicBool> = workload
        .scenarios
        .iter()
        .map(|_| AtomicBool::new(false))
        .collect();
    let memo_before = memo_counters();
    let incremental_before = incremental_counters();
    let phase = drive(
        workload,
        seconds * (1.0 - UNTRACED_SHARE),
        || TraceState {
            collector: cp_obs::Collector::new(),
            layers: traced::Layers::default(),
            counts: traced::Counts::default(),
            memo: [0; 2],
            cross_check_failures: Vec::new(),
        },
        |state, index| trace_one(workload, index, state, &checked),
    );
    let incremental = incremental_counters();
    let [queries, reuse] = [0, 1].map(|i| incremental[i] - incremental_before[i]);
    let mut layers = traced::Layers::default();
    let mut counts = traced::Counts::default();
    let mut memo = [0u64; 2];
    let mut failures: Vec<String> = Vec::new();
    for state in &phase.states {
        layers.merge(&state.layers);
        counts.merge(&state.counts);
        for (sum, n) in memo.iter_mut().zip(state.memo) {
            *sum += n;
        }
        failures.extend(state.cross_check_failures.iter().cloned());
    }
    if !workload.kind.resets_memo() {
        let now = memo_counters();
        memo = [0, 1].map(|i| now[i] - memo_before[i]);
    }
    failures.extend(plain.failures().into_iter().map(String::from));
    failures.extend(phase.failures().into_iter().map(String::from));

    let traced_p50 = quantile(&phase.sorted_ms(), 0.5);
    let predicted = layers.self_share(workload.kind.predicted_dominant());
    println!("{}", layers.table());
    let shares: Vec<String> = layers
        .layer_shares()
        .iter()
        .map(|(layer, share)| format!("{layer} {:.1}%", share * 100.0))
        .collect();
    println!("layer self-time shares: {}", shares.join(", "));
    let translate_share = layers.self_share(&["translate"]);
    let met = predicted > 0.5 && (workload.kind != Kind::Fig8Sweep || translate_share < 0.10);
    println!(
        "predicted dominant spans {:?}: {:.1}% of scenario time{} -> {}",
        workload.kind.predicted_dominant(),
        predicted * 100.0,
        if workload.kind == Kind::Fig8Sweep {
            format!(
                ", solver {:.1}% (predicted under 10%)",
                translate_share * 100.0
            )
        } else {
            String::new()
        },
        if met {
            "as predicted"
        } else {
            "FLAG: not the predicted dominant layer"
        },
    );

    let n = layers.scenarios().max(1) as f64;
    let mut metrics = layers.metrics(&counts);
    metrics.extend([
        ("solver.memo_hits", memo[0] as f64 / n, "count"),
        ("solver.memo_misses", memo[1] as f64 / n, "count"),
        (
            "solver.memo_hit_rate",
            ratio(memo[0] as f64, (memo[0] + memo[1]) as f64),
            "ratio",
        ),
        (
            "solver.incremental.reuse_rate",
            ratio(reuse as f64, queries as f64),
            "ratio",
        ),
        (
            "trace.overhead_ratio",
            ratio(traced_p50, plain_p50),
            "ratio",
        ),
        ("trace.predicted_share", predicted, "ratio"),
    ]);
    (plain.samples.len() + phase.samples.len(), failures, metrics)
}

/// A deterministic fingerprint of one untimed pass over every scenario:
/// each row's patch, attempts and solver effort, plus the work counters of
/// the registry.
fn fingerprint(kind: Kind, seed: u64) -> Result<Vec<String>, String> {
    use cp_obs::metrics::counter;
    let workload = workloads::setup(kind, seed)?;
    let names = [
        "vm.steps",
        "solver.translate.pairs",
        "solver.translate.solver_calls",
        "solver.incremental.queries",
    ];
    let before: Vec<u64> = names.iter().map(|n| counter(n).get()).collect();
    let mut lines = Vec::new();
    for (index, scenario) in workload.scenarios.iter().enumerate() {
        if kind.resets_memo() {
            cp_solver::reset_solver_memo();
        }
        let _epoch = ArenaEpoch::begin();
        let outcome = run_scenario(scenario);
        judge(&workload, index, &outcome)
            .map_err(|e| format!("seed {seed}, {}: {e}", scenario.name))?;
        let transfer = outcome.result.as_ref().map_err(Clone::clone)?;
        lines.push(format!(
            "{} {} {} {} attempts={} stats={:?} discovery={:?} input={:?}",
            scenario.name,
            outcome.status.label(),
            transfer.site,
            transfer.patch.render(),
            transfer.attempts,
            transfer.stats,
            outcome
                .discovery
                .as_ref()
                .map(|d| (d.generations, d.executions, d.solver_queries)),
            outcome.error_input,
        ));
    }
    let deltas: Vec<String> = names
        .iter()
        .zip(before)
        .map(|(name, before)| format!("{name}={}", counter(name).get() - before))
        .collect();
    lines.push(deltas.join(" "));
    Ok(lines)
}

/// Two passes with the same seed must agree exactly, and a second seed must
/// validate every scenario too.
fn self_check(kind: Kind, seed: u64) -> Result<usize, String> {
    let first = fingerprint(kind, seed)?;
    let second = fingerprint(kind, seed)?;
    if let Some((a, b)) = first.iter().zip(&second).find(|(a, b)| a != b) {
        return Err(format!("same seed, different runs:\n  {a}\n  {b}"));
    }
    println!(
        "seed {seed}: two passes identical ({})",
        first.last().map_or("", String::as_str)
    );
    let other = fingerprint(kind, seed + 1)?;
    println!(
        "seed {}: all {} scenarios validated",
        seed + 1,
        other.len() - 1
    );
    Ok(first.len() + other.len() - 2)
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("phagebench: {error}");
            eprintln!("usage: phagebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--self-check]");
            return ExitCode::from(2);
        }
    };
    if args.self_check {
        return match self_check(args.kind, args.seed) {
            Ok(checked) => {
                print_result(true, checked, 0, &Vec::new());
                ExitCode::SUCCESS
            }
            Err(error) => {
                eprintln!("phagebench: steadiness check failed: {error}");
                ExitCode::FAILURE
            }
        };
    }

    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        match workloads::setup(args.kind, args.seed) {
            Ok(generated) => workload = Some(generated),
            Err(error) => {
                eprintln!("phagebench: set-up failed: {error}");
                return ExitCode::FAILURE;
            }
        }
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let workload = workload.expect("set-up ran at least once");
    println!(
        "{}: seed {}, {} scenarios, set-up median {:.4} s of {SETUP_REPEATS}",
        args.kind.name(),
        args.seed,
        workload.scenarios.len(),
        median(&setup_times)
    );

    let (attempted, failures, metrics) = if args.trace {
        per_layer(&workload, args.seconds)
    } else {
        match end_to_end(&workload, args.seconds, median(&setup_times)) {
            Ok((phase, metrics)) => {
                let failures = phase.failures().into_iter().map(String::from).collect();
                (phase.samples.len(), failures, metrics)
            }
            Err(error) => {
                eprintln!("phagebench: {error}");
                return ExitCode::FAILURE;
            }
        }
    };
    for failure in failures.iter().take(5) {
        println!("failed: {failure}");
    }
    print_result(failures.is_empty(), attempted, failures.len(), &metrics);
    ExitCode::SUCCESS
}
