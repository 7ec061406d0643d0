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
//! generated nest and communication map that way).
//!
//! ```
//! use dhpf_codegen::{codegen_set, CodegenOptions, StmtId};
//! use dhpf_omega::Set;
//!
//! let space: Set = "{[i,j] : 1 <= i <= N && i <= j <= N}".parse().unwrap();
//! let code = codegen_set(&space, StmtId(0), &["i", "j"], &CodegenOptions::default()).unwrap();
//! // Slots 0, 1, 2 hold i, j, N.
//! let names = ["i", "j", "N"];
//! let code = code.lower(&mut |n| names.iter().position(|m| *m == n).unwrap(), &|_| None);
//! let mut slots = vec![None, None, Some(3)];
//! let mut tuples = Vec::new();
//! code.run(&mut slots, &mut |_, s: &mut Vec<Option<i64>>| {
//!     tuples.push((s[0].unwrap(), s[1].unwrap()));
//!     Ok::<(), ()>(())
//! })
//! .unwrap();
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
