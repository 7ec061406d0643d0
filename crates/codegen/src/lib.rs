//! # dhpf-codegen — loop-nest synthesis from integer sets
//!
//! The multiple-mappings code-generation substrate of the dHPF reproduction
//! (Kelly, Pugh & Rosser's `Codegen(S1..Sv | Known)` interface from the
//! paper's Appendix B, without its `Known` argument): given one iteration space per statement, produce a
//! single loop nest that enumerates all tuples in lexicographic order, with
//! identical tuples of different statements ordered by statement index.
//!
//! The generated [`Code`] can be pretty-printed as pseudo-Fortran with
//! [`emit_fortran`], or lowered onto numbered integer slots with
//! [`Code::lower`] and run as a [`SlotCode`] (the SPMD simulator runs every
//! generated nest and communication map that way). [`Code::execute`] is
//! lowering plus a run, for callers that bind variables by name.
//!
//! ```
//! use dhpf_codegen::{codegen_set, CodegenOptions, StmtId};
//! use dhpf_omega::Set;
//!
//! let space: Set = "{[i,j] : 1 <= i <= N && i <= j <= N}".parse().unwrap();
//! let code = codegen_set(&space, StmtId(0), &["i", "j"], &CodegenOptions::default()).unwrap();
//! let mut tuples = Vec::new();
//! let mut env = [("N".to_string(), 3i64)].into_iter().collect();
//! code.execute(&mut env, &mut |_, e| tuples.push((e["i"], e["j"]))).unwrap();
//! assert_eq!(tuples, vec![(1,1), (1,2), (1,3), (2,2), (2,3), (3,3)]);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod build;
pub mod emit;
pub mod expr;
pub mod slots;

pub use ast::{Code, StmtId};
pub use build::{codegen, codegen_cover, codegen_set, CodegenError, CodegenOptions, Mapping};
pub use emit::emit_fortran;
pub use expr::{Cond, Env, Expr, UnboundVar};
pub use slots::{Halt, Slot, SlotCode, Slots, Stride};
