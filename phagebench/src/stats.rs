//! Seeded randomness and order statistics.

/// splitmix64: a small, fast, seedable generator.  The workloads depend only
/// on its output sequence, so the same seed always generates the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005E_ED0F_C0DE_9A6E)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn byte(&mut self) -> u8 {
        self.next_u64() as u8
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Nearest-rank `p`-quantile (`p` in `[0, 1]`) of an ascending-sorted slice.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The tail percentiles a timing may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`], at most `highest`, with at
/// least ten samples beyond it, and its nearest-rank value.
pub fn tail(sorted: &[f64], highest: f64) -> (f64, f64) {
    let n = sorted.len();
    for pct in TAIL_LADDER.into_iter().filter(|&pct| pct <= highest) {
        let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
        if n >= rank + 10 {
            return (pct, quantile(sorted, pct / 100.0));
        }
    }
    (50.0, quantile(sorted, 0.5))
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}
