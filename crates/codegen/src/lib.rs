//! # dhpf-codegen — loop-nest synthesis from integer sets
//!
//! The multiple-mappings code-generation substrate of the dHPF reproduction
//! (Kelly, Pugh & Rosser's `Codegen(S1..Sv | Known)` interface from the
//! paper's Appendix B, without its `Known` argument): given one iteration space per statement, produce a
//! single loop nest that enumerates all tuples in lexicographic order, with
//! identical tuples of different statements ordered by statement index.
//!
//! The generated [`Code`] can be pretty-printed as pseudo-Fortran with
//! [`emit_fortran`]; what a statement *does* is the client's business (the
//! SPMD simulator compiles every generated nest and communication map into
//! closures of its own).
//!
//! ```
//! use dhpf_codegen::{codegen_set, emit_fortran, CodegenOptions, StmtId};
//! use dhpf_omega::Set;
//!
//! let space: Set = "{[i,j] : 1 <= i <= N && i <= j <= N}".parse().unwrap();
//! let code = codegen_set(&space, StmtId(0), &["i", "j"], &CodegenOptions::default()).unwrap();
//! let text = emit_fortran(&code, &|s| format!("{s}(i, j)"));
//! assert!(text.contains("do j = i, N"));
//! // The tuples the nest visits, in the order it visits them.
//! let tuples = space.enumerate(&[("N", 3)]).unwrap();
//! assert_eq!(tuples, [[1, 1], [1, 2], [1, 3], [2, 2], [2, 3], [3, 3]].map(Vec::from));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod build;
pub mod emit;
pub mod expr;

pub use ast::{Code, StmtId};
pub use build::{codegen, codegen_cover, codegen_set, CodegenError, CodegenOptions, Mapping};
pub use emit::emit_fortran;
pub use expr::{Cond, Env, Expr, UnboundVar};
