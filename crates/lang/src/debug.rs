//! Debug information for Phage-C programs.
//!
//! Code Phage's recipient-side analysis is driven by debug information: the
//! paper (Section 3.3) uses it to find the local and global variables in scope
//! at a candidate insertion point and the type signatures required to traverse
//! the recipient's data structures (Figure 6).  Donors do **not** need this
//! information — the donor analysis works on the stripped binary — which is
//! why the bytecode compiler can discard it for donor builds.

use crate::types::Type;
use std::collections::BTreeMap;

/// Layout of one struct field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldLayout {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// Byte offset from the start of the struct.
    pub offset: usize,
}

/// Layout of a struct type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructLayout {
    /// Struct name.
    pub name: String,
    /// Total size in bytes.
    pub size: usize,
    /// Field layouts in declaration order.
    pub fields: Vec<FieldLayout>,
}

impl StructLayout {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldLayout> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// Debug record for one local variable or parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDebug {
    /// Variable name.
    pub name: String,
    /// Variable type.
    pub ty: Type,
    /// Byte offset of the variable within the function's frame.
    pub frame_offset: usize,
    /// Program point (statement id) at which the variable is declared, or
    /// `None` for parameters (which are in scope from function entry).
    pub decl_stmt: Option<usize>,
}

/// Debug record for one function.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FunctionDebug {
    /// Function name.
    pub name: String,
    /// Total frame size in bytes (parameters plus locals).
    pub frame_size: usize,
    /// Parameters followed by locals, in declaration order.
    pub vars: Vec<VarDebug>,
    /// Number of leading entries in [`FunctionDebug::vars`] that are
    /// parameters.
    pub num_params: usize,
    /// Total number of statements (program points) in the function.
    pub num_statements: usize,
}

impl FunctionDebug {
    /// The variables visible after the statement with id `stmt_id` has
    /// executed: all parameters plus every local declared at or before that
    /// statement.
    pub fn vars_in_scope_after(&self, stmt_id: usize) -> Vec<&VarDebug> {
        self.vars
            .iter()
            .filter(|v| match v.decl_stmt {
                None => true,
                Some(decl) => decl <= stmt_id,
            })
            .collect()
    }

    /// Looks up a variable by name.
    pub fn var(&self, name: &str) -> Option<&VarDebug> {
        self.vars.iter().find(|v| v.name == name)
    }
}

/// Debug record for one global variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalDebug {
    /// Global name.
    pub name: String,
    /// Global type.
    pub ty: Type,
    /// Byte offset of the global within the global data segment.
    pub offset: usize,
    /// Constant initial value.
    pub init: u64,
}

/// Debug information for a whole program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DebugInfo {
    /// Struct layouts by name.
    pub structs: BTreeMap<String, StructLayout>,
    /// Function debug records by name.
    pub functions: BTreeMap<String, FunctionDebug>,
    /// Global variables in declaration order.
    pub globals: Vec<GlobalDebug>,
    /// Total size of the global data segment in bytes.
    pub globals_size: usize,
}

impl DebugInfo {
    /// Size in bytes of a type under these struct layouts.
    ///
    /// # Panics
    ///
    /// Panics if the type refers to an unknown struct; semantic analysis
    /// guarantees this cannot happen for analyzed programs.
    pub fn size_of(&self, ty: &Type) -> usize {
        match ty {
            Type::U8 | Type::I8 => 1,
            Type::U16 | Type::I16 => 2,
            Type::U32 | Type::I32 => 4,
            Type::U64 | Type::I64 | Type::Ptr(_) => 8,
            Type::Struct(name) => {
                self.structs
                    .get(name)
                    .unwrap_or_else(|| panic!("unknown struct `{name}`"))
                    .size
            }
        }
    }

    /// Looks up a global by name.
    pub fn global(&self, name: &str) -> Option<&GlobalDebug> {
        self.globals.iter().find(|g| g.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_debug() -> DebugInfo {
        let mut debug = DebugInfo::default();
        debug.structs.insert(
            "Header".into(),
            StructLayout {
                name: "Header".into(),
                size: 4,
                fields: vec![
                    FieldLayout {
                        name: "width".into(),
                        ty: Type::U16,
                        offset: 0,
                    },
                    FieldLayout {
                        name: "height".into(),
                        ty: Type::U16,
                        offset: 2,
                    },
                ],
            },
        );
        debug.functions.insert(
            "main".into(),
            FunctionDebug {
                name: "main".into(),
                frame_size: 12,
                vars: vec![
                    VarDebug {
                        name: "arg".into(),
                        ty: Type::U64,
                        frame_offset: 0,
                        decl_stmt: None,
                    },
                    VarDebug {
                        name: "h".into(),
                        ty: Type::Struct("Header".into()),
                        frame_offset: 8,
                        decl_stmt: Some(3),
                    },
                ],
                num_params: 1,
                num_statements: 6,
            },
        );
        debug
    }

    #[test]
    fn size_of_resolves_struct_sizes() {
        let debug = sample_debug();
        assert_eq!(debug.size_of(&Type::U16), 2);
        assert_eq!(debug.size_of(&Type::Ptr(Box::new(Type::U8))), 8);
        assert_eq!(debug.size_of(&Type::Struct("Header".into())), 4);
    }

    #[test]
    fn scope_respects_declaration_points() {
        let debug = sample_debug();
        let f = &debug.functions["main"];
        let before = f.vars_in_scope_after(1);
        assert_eq!(before.len(), 1);
        let after = f.vars_in_scope_after(3);
        assert_eq!(after.len(), 2);
    }

    #[test]
    fn field_lookup() {
        let debug = sample_debug();
        let layout = &debug.structs["Header"];
        assert_eq!(layout.field("height").unwrap().offset, 2);
        assert!(layout.field("missing").is_none());
    }
}
