//! Chaos campaign and governor-overhead measurement.
//!
//! Two experiments, one snapshot:
//!
//! 1. **Injected campaign** — compiles JACOBI under deterministic fault
//!    injection (every action, several densities) at `--threads 1..=8`,
//!    classifying every run into the trichotomy: exact, degraded, or
//!    typed error. Any hang or unwound panic aborts the campaign.
//! 2. **Governor overhead** — compiles the Table 1 workloads (SP-4,
//!    SP-sym, TOMCATV-sym) unarmed and armed with a generous budget
//!    (nothing trips), and reports the wall-clock overhead of the
//!    governor's fast-path checks. The budget gate is a relaxed atomic
//!    load per memoized operation, so this should be noise (< 2%).
//!
//! ```text
//! chaos [--trials N] [--threads-list 1,2,...,8] [--threads N]
//!       [--deadline-ms N] [--trace-out PATH] [--json-out PATH]
//! ```
//!
//! Accepts the shared harness flags (see `dhpf_bench::args`): `--threads N`
//! is shorthand for a single-point `--threads-list N`, `--deadline-ms`
//! adds a wall-clock budget to every campaign compilation (composing with
//! the injected faults), and `--trace-out` records the campaign's compile
//! spans. `--json-out PATH` writes a machine-readable snapshot.

use dhpf_bench::args::{self, value as flag_value};
use dhpf_core::{compile, CompileOptions};
use dhpf_omega::{Budget, FaultAction, InjectPlan};
use std::time::Instant;

/// Minimum wall-clock seconds over `trials` compilations.
fn min_secs(src: &str, opts: &CompileOptions, trials: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..trials.max(1) {
        let t0 = Instant::now();
        match compile(src, opts) {
            Ok(_) => {}
            Err(e) => panic!("overhead workload failed to compile: {e}"),
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let common = args::common(&argv);
    let trials: usize = args::u64_value(&argv, "--trials").map_or(3, |n| n as usize);
    // `--threads N` (the shared spelling) pins a single campaign point;
    // `--threads-list` sweeps several.
    let threads_list: Vec<usize> = flag_value(&argv, "--threads-list")
        .map(|v| {
            v.split(',')
                .map(|x| x.parse().expect("thread count"))
                .collect()
        })
        .unwrap_or_else(|| {
            if common.threads > 1 {
                vec![common.threads]
            } else {
                (1..=8).collect()
            }
        });
    let json_out = flag_value(&argv, "--json-out");

    // ---- Experiment 1: injected campaign across thread counts --------
    let campaign_src =
        dhpf_bench::sources::JACOBI.replace("parameter (n = 128)", "parameter (n = 16)");
    let actions = [
        ("error", FaultAction::Error),
        ("panic", FaultAction::Panic),
        ("exhaust-budget", FaultAction::ExhaustBudget),
    ];
    println!("chaos campaign: JACOBI (16x16), injected faults, trichotomy counts\n");
    let mut campaign_rows = Vec::new();
    for &threads in &threads_list {
        let (mut exact, mut degraded, mut error) = (0u64, 0u64, 0u64);
        for (ai, &(_, action)) in actions.iter().enumerate() {
            for (pi, &period) in [1u64, 5, 97].iter().enumerate() {
                let seed = 0xC4A0_5000 + (threads as u64) * 64 + (ai as u64) * 8 + pi as u64;
                let plan = InjectPlan::new(seed, period, action);
                // Shared deadline/trace flags compose with the injected
                // faults; the campaign's own thread sweep wins over
                // `--threads`.
                let opts = common
                    .apply(CompileOptions::new())
                    .threads(threads)
                    .inject(plan);
                match compile(&campaign_src, &opts) {
                    Ok(c) if c.report.degradations().is_empty() => exact += 1,
                    Ok(_) => degraded += 1,
                    Err(e) => {
                        assert!(!e.to_string().is_empty());
                        error += 1;
                    }
                }
            }
        }
        println!("threads {threads}: exact {exact}  degraded {degraded}  typed-error {error}");
        campaign_rows.push(format!(
            "    {{\"threads\": {threads}, \"exact\": {exact}, \"degraded\": {degraded}, \
             \"typed_error\": {error}}}"
        ));
    }

    // ---- Experiment 2: governor overhead on Table 1 workloads --------
    // The armed run uses a budget generous enough that nothing ever
    // trips: it measures the pure cost of the per-operation budget gate.
    let generous = Budget::new().deadline_ms(3_600_000).op_fuel(u64::MAX / 2);
    let spsym = dhpf_bench::sources::sp_symbolic();
    let workloads: [(&str, &str); 3] = [
        ("SP-4", dhpf_bench::sources::SP),
        ("SP-sym", &spsym),
        ("T-sym", dhpf_bench::sources::TOMCATV),
    ];
    println!("\ngovernor overhead ({trials} trials per point, min reported)\n");
    let mut overhead_rows = Vec::new();
    let mut worst = 0.0f64;
    for (name, src) in workloads {
        let unarmed = min_secs(src, &CompileOptions::new(), trials);
        let armed = min_secs(src, &CompileOptions::new().budget(generous.clone()), trials);
        let overhead = (armed / unarmed - 1.0) * 100.0;
        worst = worst.max(overhead);
        println!(
            "{name:<8} unarmed {unarmed:>7.3}s  armed {armed:>7.3}s  overhead {overhead:>+6.2}%"
        );
        overhead_rows.push(format!(
            "    {{\"workload\": \"{name}\", \"secs_unarmed\": {unarmed:.4}, \
             \"secs_armed\": {armed:.4}, \"overhead_pct\": {overhead:.3}}}"
        ));
    }
    println!("\nworst-case governor overhead: {worst:+.2}% (budget: <= 2%)");

    if let Some(path) = json_out {
        let json = format!(
            "{{\n  \"benchmark\": \"chaos-campaign-and-governor-overhead\",\n  \
             \"campaign_source\": \"JACOBI 16x16, 9 injection plans per thread count\",\n  \
             \"trials\": {trials},\n  \"campaign\": [\n{}\n  ],\n  \
             \"governor_overhead\": [\n{}\n  ],\n  \
             \"worst_overhead_pct\": {worst:.3}\n}}\n",
            campaign_rows.join(",\n"),
            overhead_rows.join(",\n"),
        );
        std::fs::write(&path, json).expect("write snapshot");
        println!("snapshot written to {path}");
    }
    common.finish_trace(false);
}
