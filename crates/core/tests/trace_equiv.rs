//! Tracing must observe the compilation, never perturb it.
//!
//! Mirrors `cache_equiv.rs` one layer up: `compile()` with a trace
//! collector attached must produce an identical `SpmdProgram` to the
//! untraced run, the recorded span tree must reconcile with the Table-1
//! timer rows it feeds, and set-operation samples must land on the
//! analysis phases that issued them.

use dhpf_core::{compile, CompileOptions};
use dhpf_obs::Collector;

const STENCIL: &str = "
program stencil
real a(64,64), b(64,64)
integer iter
!HPF$ processors p(4)
!HPF$ template t(64,64)
!HPF$ align a(i,j) with t(i,j)
!HPF$ align b(i,j) with t(i,j)
!HPF$ distribute t(block,*) onto p
do iter = 1, 3
  do i = 2, 63
    do j = 2, 63
      a(i,j) = 0.25 * (b(i-1,j) + b(i+1,j) + b(i,j-1) + b(i,j+1))
    enddo
  enddo
  do i = 2, 63
    do j = 2, 63
      b(i,j) = a(i,j)
    enddo
  enddo
enddo
end
";

/// The compiled program is bit-identical with tracing on and off.
#[test]
fn traced_compile_is_equivalent() {
    let plain = compile(STENCIL, &CompileOptions::new()).unwrap();
    let collector = Collector::new();
    let traced = compile(STENCIL, &CompileOptions::new().trace(collector.clone())).unwrap();
    assert_eq!(
        format!("{:?}", plain.program),
        format!("{:?}", traced.program),
        "tracing changed the compiled program"
    );
    assert_eq!(plain.report.stats, traced.report.stats);
    assert!(!collector.is_empty(), "collector captured no spans");
}

/// The span tree reconciles with the PhaseTimers rows it instrumented:
/// one compile root, one span subtree per phase, with cumulative span
/// times close to the timer totals (same thread, same intervals).
#[test]
fn trace_reconciles_with_table1_rows() {
    let collector = Collector::new();
    let compiled = compile(STENCIL, &CompileOptions::new().trace(collector.clone())).unwrap();
    let trace = collector.trace();
    assert!(trace.nodes.iter().all(|n| !n.open), "dangling open span");

    let roots = trace.roots();
    assert_eq!(roots.len(), 1, "exactly one compile root");
    let root = roots[0];
    assert_eq!(trace.nodes[root].name, "compile");
    assert_eq!(trace.nodes[root].counters.get("units"), Some(&1));

    // Root span duration vs overall timer: same interval, same thread —
    // generous 25% bound only to absorb scheduler noise on loaded CI.
    let total_s = compiled.report.timers.total().as_secs_f64();
    let root_s = trace.nodes[root].dur_ns as f64 / 1e9;
    assert!(
        (root_s - total_s).abs() / total_s.max(1e-9) < 0.25,
        "compile span {root_s}s vs timer total {total_s}s"
    );

    // Every Table-1 phase row has a matching span set whose summed
    // duration equals the row's cumulative time within 5% — plus a small
    // absolute slack per span, since the timers and the collector take
    // separate clock readings and sub-microsecond phases are dominated by
    // the collector's own begin/end bookkeeping.
    for row in compiled.report.timers.rows_nested() {
        let spans: Vec<&dhpf_obs::SpanNode> =
            trace.nodes.iter().filter(|n| n.name == row.name).collect();
        assert!(!spans.is_empty(), "phase {} has no span", row.name);
        let span_ns: u64 = spans.iter().map(|n| n.dur_ns).sum();
        let row_ns = row.cumulative.as_nanos() as f64;
        let diff = (span_ns as f64 - row_ns).abs();
        let slack = 20_000.0 * spans.len() as f64; // 20us per span
        assert!(
            diff / row_ns.max(1.0) < 0.05 || diff < slack,
            "phase {}: spans {}ns vs rows {}ns (diff {}ns over {} spans)",
            row.name,
            span_ns,
            row_ns,
            diff,
            spans.len()
        );
    }
}

/// Omega set-operation samples are attributed to the analysis phases that
/// issued them, not to the root.
#[test]
fn set_ops_attributed_to_phases() {
    let collector = Collector::new();
    let _ = compile(STENCIL, &CompileOptions::new().trace(collector.clone())).unwrap();
    let trace = collector.trace();

    let totals = trace.total_ops();
    let sat = totals.get("satisfiability").map_or(0, |o| o.calls);
    assert!(sat > 0, "no satisfiability samples recorded");
    assert!(
        totals.get("fme projection").map_or(0, |o| o.calls) > 0,
        "no projection samples recorded"
    );

    // The bulk of the work happens inside analysis phases (spans with
    // cat "phase"), not on the compile root.
    let phase_sat: u64 = trace
        .nodes
        .iter()
        .filter(|n| n.cat == "phase")
        .filter_map(|n| n.ops.get("satisfiability"))
        .map(|o| o.calls)
        .sum();
    assert!(
        phase_sat * 10 >= sat * 9,
        "only {phase_sat}/{sat} sat calls landed on phase spans"
    );
    let comm = trace
        .find("communication generation")
        .expect("communication generation span");
    let subtree_ops = {
        // Ops on the span or any descendant.
        let mut total = 0u64;
        let mut stack = vec![comm];
        while let Some(i) = stack.pop() {
            total += trace.nodes[i].ops.values().map(|o| o.calls).sum::<u64>();
            stack.extend(trace.nodes[i].children.iter().copied());
        }
        total
    };
    assert!(
        subtree_ops > 0,
        "communication generation recorded no set ops"
    );
}
