//! Compiled programs and functions.

use crate::instr::Instr;
use cp_lang::DebugInfo;
use cp_symexpr::Width;

/// Description of one parameter slot of a compiled function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSlot {
    /// Byte offset of the parameter within the frame.
    pub offset: usize,
    /// Width of the parameter value.
    pub width: Width,
}

/// A compiled function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledFunction {
    /// Function name; `None` once the program has been stripped.
    pub name: Option<String>,
    /// Frame size in bytes (parameters plus locals).
    pub frame_size: usize,
    /// Parameter slots in declaration order.
    pub params: Vec<ParamSlot>,
    /// Whether the function returns a value.
    pub returns_value: bool,
    /// The instruction stream.
    pub code: Vec<Instr>,
    /// For each instruction, the source statement (program point) it belongs
    /// to.  `None` entries appear in stripped programs.
    pub stmt_map: Vec<Option<usize>>,
}

impl CompiledFunction {
    /// The display name used in reports: the symbol name if present, otherwise
    /// `fn#<index>` supplied by the caller.
    pub fn display_name(&self, index: usize) -> String {
        match &self.name {
            Some(name) => name.clone(),
            None => format!("fn#{index}"),
        }
    }
}

/// A compiled Phage-C program — the "binary" Code Phage analyses and patches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledProgram {
    /// All functions; indices are call targets.
    pub functions: Vec<CompiledFunction>,
    /// Index of `main`.
    pub main: usize,
    /// Total size of the global data segment.
    pub globals_size: usize,
    /// Initial values of globals: `(offset, width, value)`.
    pub global_inits: Vec<(usize, Width, u64)>,
    /// Source-level debug information (struct layouts, frame layouts, global
    /// names).  Present for recipients, absent for stripped donors.
    pub debug: Option<DebugInfo>,
}

impl CompiledProgram {
    /// Looks up a function index by name (requires symbols).
    pub fn function_index(&self, name: &str) -> Option<usize> {
        self.functions
            .iter()
            .position(|f| f.name.as_deref() == Some(name))
    }

    /// Returns a stripped copy of the program: no symbol names, no statement
    /// maps, no debug information.
    ///
    /// This models the paper's "proprietary donors" scenario: "the CP donor
    /// analysis operates directly on stripped binaries with no need for source
    /// code or symbolic information of any kind".
    pub fn strip(&self) -> CompiledProgram {
        CompiledProgram {
            functions: self
                .functions
                .iter()
                .map(|f| CompiledFunction {
                    name: None,
                    frame_size: f.frame_size,
                    params: f.params.clone(),
                    returns_value: f.returns_value,
                    code: f.code.clone(),
                    stmt_map: vec![None; f.stmt_map.len()],
                })
                .collect(),
            main: self.main,
            globals_size: self.globals_size,
            global_inits: self.global_inits.clone(),
            debug: None,
        }
    }

    /// Total number of instructions across all functions.
    pub fn instruction_count(&self) -> usize {
        self.functions.iter().map(|f| f.code.len()).sum()
    }

    /// Number of conditional-branch sites across all functions.
    pub fn branch_site_count(&self) -> usize {
        self.functions
            .iter()
            .map(|f| f.code.iter().filter(|i| i.is_conditional_branch()).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_name_falls_back_to_index() {
        let f = CompiledFunction {
            name: None,
            frame_size: 0,
            params: vec![],
            returns_value: false,
            code: vec![],
            stmt_map: vec![],
        };
        assert_eq!(f.display_name(7), "fn#7");
        let named = CompiledFunction {
            name: Some("decode".into()),
            ..f
        };
        assert_eq!(named.display_name(7), "decode");
    }
}
