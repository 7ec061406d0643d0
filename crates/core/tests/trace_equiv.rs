//! Tracing must observe the compilation, never perturb it.
//!
//! Mirrors `cache_equiv.rs` one layer up: `compile()` with a trace
//! collector attached must produce an identical `SpmdProgram` to the
//! untraced run, the Table-1 rows must be exactly the recorded span tree
//! (one clock), and set-operation samples must land on the analysis
//! phases of the request that issued them — also on a `Context` that
//! other requests are using at the same time.

use dhpf_core::{compile, compile_request, CompileOptions, CompileRequest};
use dhpf_obs::{Collector, Trace};
use dhpf_omega::{Context, Request, Set};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const JACOBI: &str = include_str!("../../../benchmarks/jacobi.hpf");
const SP: &str = include_str!("../../../benchmarks/sp.hpf");

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

/// Table 1 is read off the span tree, so the two agree exactly: one
/// compile root whose duration is the total, and every row's cumulative
/// time is the sum of the spans of that name.
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

    assert_eq!(
        compiled.report.timers.total().as_nanos(),
        u128::from(trace.nodes[root].dur_ns),
        "Table-1 total is not the compile span"
    );
    for row in compiled.report.timers.rows_nested() {
        let spans: Vec<&dhpf_obs::SpanNode> =
            trace.nodes.iter().filter(|n| n.name == row.name).collect();
        assert!(!spans.is_empty(), "phase {} has no span", row.name);
        let span_ns: u64 = spans.iter().map(|n| n.dur_ns).sum();
        assert_eq!(
            row.cumulative.as_nanos(),
            u128::from(span_ns),
            "phase {}: row and its {} spans differ",
            row.name,
            spans.len()
        );
    }
}

/// A subroutine with one nest, appended to [`STENCIL`] (two nests).
const SUB: &str = "
subroutine fill
real c(32)
!HPF$ processors p(4)
!HPF$ template t(32)
!HPF$ align c(i) with t(i)
!HPF$ distribute t(block) onto p
do i = 1, 32
  c(i) = 1.0
enddo
end
";

/// Module compilation records one `"nest u.n"` task span per planned nest
/// and one `"unit u assembly"` span per unit, directly under its phase
/// span, and their `task` counters number them `0..n` once each (nests
/// first): Table 1 and the profile read these spans.
#[test]
fn module_compilation_has_one_task_span_per_nest_and_unit() {
    let src = format!("{STENCIL}{SUB}");
    let want = [
        "nest 0.0",
        "nest 0.1",
        "nest 1.0",
        "unit 0 assembly",
        "unit 1 assembly",
    ];
    for threads in [1, 4] {
        let collector = Collector::new();
        let opts = CompileOptions::new().threads(threads);
        compile(&src, &opts.trace(collector.clone())).unwrap();
        let trace = collector.trace();
        let module = trace.find("module compilation").expect("module phase span");
        let mut tasks: Vec<(i64, &str)> = trace.nodes[module]
            .children
            .iter()
            .map(|&c| &trace.nodes[c])
            .filter(|n| n.cat == "task")
            .map(|n| (n.counters["task"], n.name.as_str()))
            .collect();
        tasks.sort();
        let ids: Vec<i64> = tasks.iter().map(|&(id, _)| id).collect();
        let names: Vec<&str> = tasks.iter().map(|&(_, name)| name).collect();
        assert_eq!(
            ids,
            (0..want.len() as i64).collect::<Vec<_>>(),
            "threads {threads}"
        );
        assert_eq!(names, want, "threads {threads}");
    }
}

/// Omega set-operation samples are attributed to the analysis phases that
/// issued them, not to the root — on worker threads too, which re-arm the
/// request's collector.
#[test]
fn set_ops_attributed_to_phases() {
    for threads in [1, 4] {
        let collector = Collector::new();
        let opts = CompileOptions::new().threads(threads);
        let _ = compile(STENCIL, &opts.trace(collector.clone())).unwrap();
        let trace = collector.trace();

        let totals = trace.total_ops();
        let sat = totals.get("satisfiability").map_or(0, |o| o.calls);
        assert!(sat > 0, "no satisfiability samples recorded");
        assert!(
            totals.get("fme projection").map_or(0, |o| o.calls) > 0,
            "no projection samples recorded"
        );

        // The bulk of the work happens inside analysis phases and the nest
        // tasks that run them (spans with cat "phase" or "task"), not on
        // the compile root.
        let phase_sat: u64 = trace
            .nodes
            .iter()
            .filter(|n| n.cat == "phase" || n.cat == "task")
            .filter_map(|n| n.ops.get("satisfiability"))
            .map(|o| o.calls)
            .sum();
        assert!(
            phase_sat * 10 >= sat * 9,
            "threads {threads}: only {phase_sat}/{sat} sat calls landed on phase spans"
        );
        assert!(
            sat_under(&trace, "communication generation") > 0,
            "threads {threads}: communication generation recorded no set ops"
        );
    }
}

/// Every set operation is sampled, the §3.3 contiguity tests included:
/// their hole and pair sets are built afresh from the communication set,
/// and their operations land on the contiguity spans like any other.
#[test]
fn contiguity_tests_are_sampled() {
    const CONTIGUITY: &str = "check if msg is contiguous";
    let collector = Collector::new();
    compile(SP, &CompileOptions::new().trace(collector.clone())).unwrap();
    assert!(
        sat_under(&collector.trace(), CONTIGUITY) > 0,
        "SP-4's contiguity spans recorded no satisfiability samples"
    );

    // The same on a set parsed outside any compile.
    let collector = Collector::new();
    let _armed = Request::new(&Context::new(), None, Some(&collector)).arm();
    let span = collector.begin(CONTIGUITY, "phase");
    let column: Set = "{[i] : 3 <= i <= 7}".parse().unwrap();
    assert!(column.is_convex_1d().unwrap());
    assert!(!column.is_singleton_1d().unwrap());
    collector.end(span);
    let trace = collector.trace();
    let ops = &trace.nodes[trace.find(CONTIGUITY).unwrap()].ops;
    for op in ["negation", "satisfiability"] {
        assert!(ops.get(op).is_some_and(|o| o.calls > 0), "no {op} samples");
    }
}

/// Satisfiability samples in the subtrees of every span named `name`.
fn sat_under(trace: &Trace, name: &str) -> u64 {
    let mut total = 0;
    let mut stack: Vec<usize> = (0..trace.nodes.len())
        .filter(|&i| trace.nodes[i].name == name)
        .collect();
    while let Some(i) = stack.pop() {
        let n = &trace.nodes[i];
        total += n.ops.get("satisfiability").map_or(0, |o| o.calls);
        stack.extend(n.children.iter().copied());
    }
    total
}

/// Every span carrying op samples descends from a `"compile"` root.
fn ops_under_own_compile_roots(trace: &Trace) -> Result<(), String> {
    for (i, n) in trace.nodes.iter().enumerate() {
        if n.ops.is_empty() {
            continue;
        }
        let mut top = i;
        while let Some(p) = trace.nodes[top].parent {
            top = p;
        }
        let root = &trace.nodes[top];
        if (root.name.as_str(), root.cat) != ("compile", "compile") {
            return Err(format!(
                "ops on {:?} sit under root {:?}",
                n.name, root.name
            ));
        }
    }
    Ok(())
}

/// Op samples follow the request, not the shared `Context`: while thread
/// A compiles SP traced, thread B compiles JACOBI on the same context,
/// alternating untraced compiles and traced ones into its own collector.
/// Neither may detach or capture the other's samples.
#[test]
fn concurrent_requests_on_one_context_keep_their_own_samples() {
    let ctx = Context::new();
    let (a, b) = (Collector::new(), Collector::new());
    let started = Barrier::new(2);
    let a_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut round = 0;
            while round < 2 || !a_done.load(Ordering::SeqCst) {
                let mut opts = CompileOptions::new();
                if round % 2 == 1 {
                    opts = opts.trace(b.clone());
                }
                let req = CompileRequest::new(JACOBI).options(opts);
                compile_request(&ctx, &req).unwrap();
                if round == 0 {
                    started.wait();
                }
                round += 1;
            }
        });
        started.wait();
        let req = CompileRequest::new(SP).options(CompileOptions::new().trace(a.clone()));
        compile_request(&ctx, &req).unwrap();
        a_done.store(true, Ordering::SeqCst);
    });
    let (ta, tb) = (a.trace(), b.trace());
    assert!(
        sat_under(&ta, "communication generation") > 0,
        "A's communication generation spans lost their satisfiability samples"
    );
    for (who, t) in [("A", &ta), ("B", &tb)] {
        assert!(
            t.find("(unattributed)").is_none(),
            "{who}: unattributed ops"
        );
        ops_under_own_compile_roots(t).unwrap_or_else(|e| panic!("{who}: {e}"));
    }
    assert!(
        sat_under(&tb, "compile") > 0,
        "B's traced compiles recorded nothing"
    );
}
