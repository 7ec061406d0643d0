//! CI gate for the observability pipeline. Two modes:
//!
//! - **Trace** (default): compiles an HPF source with tracing enabled,
//!   writes the trace in the format the extension implies, re-reads the
//!   file, and validates it against the schema; then compiles it again at
//!   `threads = 4` into a second collector and validates that stitched
//!   parallel trace's Chrome export too.
//! - **Access log** (`--access-log FILE`): validates a JSON-lines access
//!   log written by `dhpf-serve --access-log`, including any embedded
//!   span trees.
//!
//! Usage: `trace_lint [<file.hpf>] [--trace-out <path>] [--access-log <file>]`
//!
//! Defaults to `benchmarks/jacobi.hpf` (falling back to the embedded copy
//! when run outside the repo) and a `trace_lint.json` file in the system
//! temp directory. Exits nonzero on any schema violation, on a trace with
//! no satisfiability samples, on a trace that is not one tree under its
//! `compile` root, or when a Table-1 row differs from the spans it is
//! read from — by as much as a nanosecond, at either thread count.

use dhpf_bench::traceopt::TraceOut;
use dhpf_core::{compile, CompileOptions, Compiled};
use dhpf_obs::export::{
    to_chrome_trace, validate_access_log, validate_chrome_trace, validate_json_lines,
};
use dhpf_obs::{Collector, Trace};
use dhpf_omega::ErrorCode;

fn fail(msg: &str) -> ! {
    eprintln!("trace_lint: FAIL: {msg}");
    std::process::exit(1);
}

/// `--flag VALUE` lookup.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The `--access-log` mode.
fn lint_access_log(path: &str) -> ! {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let sum = validate_access_log(&text).unwrap_or_else(|e| fail(&format!("access log: {e}")));
    if sum.lines == 0 {
        fail("access log is empty");
    }
    for outcome in sum.by_outcome.keys() {
        if outcome != "ok" && ErrorCode::parse(outcome).is_none() {
            fail(&format!("unknown outcome code {outcome:?}"));
        }
    }
    println!(
        "trace_lint: OK: access log valid ({} records, {} ops, {} embedded traces)",
        sum.lines,
        sum.by_op.len(),
        sum.traces
    );
    std::process::exit(0);
}

/// Checks one compile's trace against its Table-1 rows, which are read
/// off the span tree, so they agree exactly: the trace is one tree under
/// its `compile` root, whose duration is the total, and each row's
/// cumulative time is the sum of the spans of its name.
fn reconcile(what: &str, trace: &Trace, compiled: &Compiled) {
    let ops = trace.total_ops();
    if ops.get("satisfiability").is_none_or(|o| o.calls == 0) {
        fail(&format!("{what}: no satisfiability calls recorded"));
    }
    if !matches!(trace.roots()[..], [r] if trace.nodes[r].name == "compile") {
        fail(&format!("{what}: not one tree under a compile root"));
    }
    let timers = &compiled.report.timers;
    let rows = timers.rows().into_iter().map(|(name, d, _)| (name, d));
    for (name, d) in std::iter::once(("compile".to_string(), timers.total())).chain(rows) {
        let spans = trace.nodes.iter().filter(|n| n.name == name);
        let ns: u64 = spans.map(|n| n.dur_ns).sum();
        if u128::from(ns) != d.as_nanos() {
            fail(&format!(
                "{what}: Table 1 has {name:?} at {} ns, its spans at {ns} ns",
                d.as_nanos()
            ));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = flag_value(&args, "--access-log") {
        lint_access_log(&path);
    }
    let src_path = args.get(1).filter(|a| !a.starts_with("--")).cloned();
    let src = match &src_path {
        Some(p) => {
            std::fs::read_to_string(p).unwrap_or_else(|e| fail(&format!("cannot read {p}: {e}")))
        }
        None => dhpf_bench::sources::JACOBI.to_string(),
    };
    let out = dhpf_bench::traceopt::from_args_env(&args).unwrap_or_else(|| TraceOut {
        path: std::env::temp_dir().join("trace_lint.json"),
        collector: dhpf_obs::Collector::new(),
    });

    let opts = CompileOptions::new().trace(out.collector.clone());
    let compiled = compile(&src, &opts).unwrap_or_else(|e| fail(&format!("compile: {e}")));

    out.write()
        .unwrap_or_else(|e| fail(&format!("write {}: {e}", out.path.display())));
    let text = std::fs::read_to_string(&out.path)
        .unwrap_or_else(|e| fail(&format!("re-read {}: {e}", out.path.display())));

    let summary = if out.path.extension().is_some_and(|e| e == "jsonl") {
        validate_json_lines(&text)
    } else {
        validate_chrome_trace(&text)
    }
    .unwrap_or_else(|e| fail(&format!("schema: {e}")));

    if summary.events == 0 {
        fail("trace has no events");
    }
    if summary.op_calls == 0 {
        fail("trace has no set-operation samples (satisfiability etc.)");
    }
    reconcile("threads 1", &out.collector.trace(), &compiled);

    // The same source on four workers: nest tasks are spans stitched
    // under `module compilation` from worker threads, assembly tasks from
    // the calling thread.
    let par = Collector::new();
    let compiled = compile(&src, &CompileOptions::new().threads(4).trace(par.clone()))
        .unwrap_or_else(|e| fail(&format!("compile at threads 4: {e}")));
    let par_trace = par.trace();
    let par_summary = validate_chrome_trace(&to_chrome_trace(&par_trace))
        .unwrap_or_else(|e| fail(&format!("threads 4 schema: {e}")));
    reconcile("threads 4", &par_trace, &compiled);

    println!(
        "trace_lint: OK: {} events, {} op samples ({}); {} events at threads 4; \
         Table-1 rows equal their spans at both",
        summary.events,
        summary.op_calls,
        out.path.display(),
        par_summary.events,
    );
}
