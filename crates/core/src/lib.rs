//! # dhpf-core — the dHPF compiler analyses and optimizations
//!
//! The paper's primary contribution, reproduced: computation partitioning
//! with the general ON_HOME model, integer-set communication analysis
//! (Figure 3), loop splitting (Figure 4), in-place communication
//! recognition (§3.3), the optimized virtual-processor model for symbolic
//! distribution parameters (§4, Figure 5), and SPMD program synthesis.
//!
//! ## API layers
//!
//! The crate root re-exports the **stable compile surface** — request and
//! response types, the compile entry points, and the error/report types a
//! serving tier needs (everything `dhpf-serve` depends on). Analysis
//! internals (communication sets, computation partitionings, loop
//! splitting, the SPMD item tree) remain available through their modules
//! ([`comm`], [`cp`], [`split`], [`spmd`], …) for the simulator, the
//! benches, and tests, but are *not* part of the stable surface. Glob the
//! common subset with [`prelude`]:
//!
//! ```
//! use dhpf_core::prelude::*;
//!
//! let resp = process_request(
//!     &dhpf_omega::Context::new(),
//!     &CompileRequest::new("program p\nreal a(8)\na(1) = 0.0\nend\n"),
//! );
//! assert!(resp.error.is_none());
//! ```

#![warn(missing_docs)]

pub mod comm;
pub mod cp;
pub mod dependence;
pub mod driver;
pub mod inplace;
pub mod ir;
pub mod layout;
mod parallel;
pub mod phases;
pub mod render;
pub mod split;
pub mod spmd;
pub mod vp;

pub use comm::{comm_sets, conservative_comm_sets, CommRef, CommSets};
pub use cp::{cp_map, cp_map_at_level, myid_set};
pub use dependence::{carried_level, placement_level};
pub use driver::{
    compile, compile_request, process_request, Artifacts, CompileOptions, CompileReport,
    CompileRequest, CompileResponse, Compiled, WireError,
};
pub use inplace::{contiguity, Contiguity};
pub use ir::{collect_statements, ArrayRef, LoopContext, ReduceOp, Reduction, StmtInfo};
pub use layout::{build_layouts, Layout, ProcCoord};
pub use phases::{PhaseRow, PhaseTimers};
pub use render::render_program;
pub use split::{split_sets, SplitSets};
// The stable slice of `spmd`: the error type, the degradation record, and
// the compiled-program value callers hold. Synthesis internals (the item
// tree, nest ops) live behind `dhpf_core::spmd::` — they are
// interpreter/test surface, not serving surface.
pub use spmd::{CompileError, Degradation, SpmdOptions, SpmdProgram, SpmdStats};
pub use vp::{active_vp_sets, ActiveVpSets};

/// The curated stable surface in one import: everything a caller needs to
/// submit compilations and consume results, and nothing that reaches into
/// synthesis internals.
///
/// ```
/// use dhpf_core::prelude::*;
/// let opts = CompileOptions::new().threads(2);
/// let compiled = compile("program p\nreal a(8)\na(1) = 0.0\nend\n", &opts);
/// assert!(compiled.is_ok());
/// ```
pub mod prelude {
    pub use crate::driver::{
        compile, compile_request, process_request, Artifacts, CompileOptions, CompileReport,
        CompileRequest, CompileResponse, Compiled, WireError,
    };
    pub use crate::render::render_program;
    pub use crate::spmd::{CompileError, Degradation, SpmdProgram, SpmdStats};
    pub use dhpf_omega::{Budget, Context, ErrorCode, GovernorStats};
}
