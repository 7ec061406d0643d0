//! # dhpf-bench — harnesses that regenerate the paper's tables and figures
//!
//! - [`table1`]: the compile-time breakdown of Table 1 (SP-4, SP-sym,
//!   TOMCATV-sym).
//! - [`figure7`]: the speedup curves of Figure 7 (TOMCATV, ERLEBACHER,
//!   JACOBI) on the simulated message-passing machine.
//!
//! Run them as binaries: `cargo run --release -p dhpf-bench --bin table1`
//! and `cargo run --release -p dhpf-bench --bin figure7`.

#![warn(missing_docs)]

pub mod args;
pub mod figure7;
pub mod table1;
pub mod traceopt;

/// The benchmark HPF sources, embedded so the harness runs anywhere.
pub mod sources {
    /// JACOBI: 4-point stencil, (BLOCK, BLOCK) on a 2 x (P/2) grid.
    pub const JACOBI: &str = include_str!("../../../benchmarks/jacobi.hpf");
    /// TOMCATV-like mesh generation, (BLOCK, *).
    pub const TOMCATV: &str = include_str!("../../../benchmarks/tomcatv.hpf");
    /// ERLEBACHER-like 3-D compact differencing, (*, *, BLOCK).
    pub const ERLEBACHER: &str = include_str!("../../../benchmarks/erlebacher.hpf");
    /// SP-like ADI solver, (*, BLOCK, BLOCK).
    pub const SP: &str = include_str!("../../../benchmarks/sp.hpf");

    /// The SP source with a symbolic processor count (SP-sym).
    pub fn sp_symbolic() -> String {
        SP.replace(
            "!HPF$ processors p(2, 2)",
            "!HPF$ processors p(2, number_of_processors())",
        )
    }
}
