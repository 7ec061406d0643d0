//! Table 1: breakdown of dHPF compilation time.
//!
//! Compiles SP-4 (fixed 2x2 processors), SP-sym (symbolic count), and
//! TOMCATV-sym (symbolic count), and prints the same rows the paper
//! reports: total wall-clock time and the percentage of time in each
//! analysis/code-generation phase, including the share spent in
//! multiple-mappings code generation (the integer-set framework's cost).

use dhpf_core::{compile, CompileOptions, Compiled};

/// One column of Table 1: the rows are `compiled.report.timers`.
#[derive(Debug)]
pub struct Column {
    /// Application variant name (e.g. "SP-4").
    pub name: String,
    /// The compiled artifact (phase rows and stats).
    pub compiled: Compiled,
}

/// Compiles one variant and captures its phase breakdown.
///
/// Untraced, the variant is compiled twice and the faster trial is
/// reported: each compilation builds its own `Context`, so trials are
/// independent (no warm cache crosses trials) and the minimum suppresses
/// scheduler noise. With a trace collector in `opts` it is compiled once,
/// so the exported trace reconciles 1:1 with the printed rows (a discarded
/// trial would leave orphan spans).
///
/// # Panics
///
/// Panics if the variant fails to compile (the harness inputs are fixed).
pub fn column_opts(name: &str, src: &str, opts: &CompileOptions) -> Column {
    let trial = || compile(src, opts).unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
    let mut compiled = trial();
    if opts.trace.is_none() {
        let second = trial();
        if second.report.timers.total() < compiled.report.timers.total() {
            compiled = second;
        }
    }
    Column {
        name: name.to_string(),
        compiled,
    }
}

/// The phase rows printed, mirroring the paper's table.
pub const PHASES: &[&str] = &[
    "interprocedural analysis",
    "module compilation",
    "partitioning computation",
    "loop splitting",
    "loop bounds reduction",
    "communication generation",
    "loops over comm partners",
    "check if msg is contiguous",
    "opt of generated code",
    "mult mappings code generation",
];

/// Runs Table 1 under `opts` — threads (`--threads N`), a compile
/// deadline (`--deadline-ms`, whose trip shows up as degradations in the
/// rendered stats instead of a crash), a trace collector — and renders it
/// as text.
pub fn run_opts(opts: &CompileOptions) -> String {
    let sp4 = column_opts("SP-4", crate::sources::SP, opts);
    let spsym_src = crate::sources::sp_symbolic();
    let spsym = column_opts("SP-sym", &spsym_src, opts);
    let tsym = column_opts("T-sym", crate::sources::TOMCATV, opts);
    render(&[sp4, spsym, tsym])
}

/// Renders columns into the paper's table shape.
pub fn render(cols: &[Column]) -> String {
    let mut out = String::new();
    out.push_str("Table 1: Breakdown of dHPF compilation time\n");
    out.push_str(&format!("{:<34}", "application"));
    for c in cols {
        out.push_str(&format!("{:>12}", c.name));
    }
    out.push('\n');
    out.push_str(&format!("{:<34}", "total compilation wall-clock time"));
    for c in cols {
        let total = c.compiled.report.timers.total();
        out.push_str(&format!("{:>11.2}s", total.as_secs_f64()));
    }
    out.push('\n');
    for phase in PHASES {
        // Child phases (nonzero nesting depth in any column) render
        // indented, mirroring the paper's sub-rows of "module compilation".
        let depth = cols
            .iter()
            .flat_map(|c| c.compiled.report.timers.rows_nested())
            .filter(|r| r.name == *phase)
            .map(|r| r.depth)
            .max()
            .unwrap_or(0);
        let label = format!("{}{}", "  ".repeat(depth), phase);
        out.push_str(&format!("{label:<34}"));
        for c in cols {
            let rows = c.compiled.report.timers.rows_nested();
            let pct = rows
                .iter()
                .find(|r| r.name == *phase)
                .map_or(0.0, |r| r.percent);
            out.push_str(&format!("{:>11.1}%", pct));
        }
        out.push('\n');
    }
    out.push('\n');
    out.push_str("synthesis statistics:\n");
    for c in cols {
        let s = &c.compiled.report.stats;
        out.push_str(&format!(
            "  {:<8} comm events {:>3}, vectorized {:>3}, coalesced groups {:>2}, contiguous {:>3}, split nests {:>2}\n",
            c.name, s.comm_events, s.fully_vectorized, s.coalesced_groups, s.contiguous_events, s.split_nests
        ));
    }
    for c in cols {
        out.push_str(&format!(
            "  {:<8} reads dropped as local {:>3}\n",
            c.name, c.compiled.report.stats.local_reads
        ));
    }
    out.push('\n');
    out.push_str("omega context cache:\n");
    for c in cols {
        let cache = &c.compiled.report.cache;
        out.push_str(&format!(
            "  {:<8} hits {:>6}, misses {:>6}, hit rate {:>5.1}%, evictions {:>2}, interned {:>5} conjuncts\n",
            c.name,
            cache.total_hits(),
            cache.total_misses(),
            100.0 * cache.hit_rate(),
            cache.total_evictions(),
            cache.interned_conjuncts,
        ));
        for (op, counts) in cache.rows() {
            if counts.hits + counts.misses > 0 {
                let total = (counts.hits + counts.misses) as f64;
                out.push_str(&format!(
                    "    {:<14} hits {:>6}, misses {:>6}, hit rate {:>5.1}%, evictions {:>2}\n",
                    op,
                    counts.hits,
                    counts.misses,
                    100.0 * counts.hits as f64 / total,
                    counts.evictions,
                ));
            }
        }
    }
    // Graceful degradations (only under a --deadline-ms style budget or
    // fault injection; an exact compile prints nothing here).
    if cols
        .iter()
        .any(|c| !c.compiled.report.degradations().is_empty())
    {
        out.push('\n');
        out.push_str("graceful degradations:\n");
        for c in cols {
            let ds = c.compiled.report.degradations();
            if ds.is_empty() {
                continue;
            }
            let tripped = c.compiled.report.governor.tripped.unwrap_or("none");
            out.push_str(&format!(
                "  {:<8} {:>3} degradations (budget trip: {tripped})\n",
                c.name,
                ds.len()
            ));
            for d in ds {
                out.push_str(&format!("    {d}\n"));
            }
        }
    }
    out
}
