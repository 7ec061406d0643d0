//! Degraded compilation is still *correct* compilation.
//!
//! For each benchmark, compiles once exactly and once under forced fault
//! injection (a degradable error at every arrival of a named site), runs
//! both programs on the simulated message-passing machine, and asserts the
//! numeric results — every scalar and every distributed array on every
//! rank — are identical. Graceful degradation may change *how much* is
//! communicated (conservative full exchanges, replicated nests), never
//! *what* is computed.
//!
//! Also pins the reporting contract: `degradations()` is non-empty exactly
//! when a fault fired, a clean compile reports neither, and a degraded
//! compile's phase rows and span tree are as well-formed as an exact one's.

use dhpf_core::{compile, CompileOptions, Compiled};
use dhpf_obs::Collector;
use dhpf_omega::{FaultAction, InjectPlan};
use dhpf_sim::{simulate, MachineModel, SimResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const JACOBI: &str = include_str!("../../../benchmarks/jacobi.hpf");
const TOMCATV: &str = include_str!("../../../benchmarks/tomcatv.hpf");
const ERLEBACHER: &str = include_str!("../../../benchmarks/erlebacher.hpf");

/// A scaled-down benchmark configuration: source rewrite, runtime inputs,
/// and the processor grid to simulate.
struct Config {
    name: &'static str,
    src: &'static str,
    resize: Option<(&'static str, &'static str)>,
    inputs: &'static [(&'static str, i64)],
    grid: &'static [i64],
}

const CONFIGS: &[Config] = &[
    Config {
        name: "JACOBI",
        src: JACOBI,
        resize: Some(("parameter (n = 128)", "parameter (n = 24)")),
        inputs: &[("niter", 2)],
        grid: &[2, 2],
    },
    Config {
        name: "TOMCATV",
        src: TOMCATV,
        resize: Some(("parameter (n = 257)", "parameter (n = 33)")),
        inputs: &[("niter", 2)],
        grid: &[4],
    },
    Config {
        name: "ERLEBACHER",
        src: ERLEBACHER,
        resize: Some(("parameter (n = 32, nz = 32)", "parameter (n = 12, nz = 12)")),
        inputs: &[],
        grid: &[4],
    },
];

fn run(cfg: &Config, compiled: &Compiled) -> SimResult {
    let inputs: HashMap<String, i64> = cfg
        .inputs
        .iter()
        .map(|&(k, v)| (k.to_string(), v))
        .collect();
    let grid: Vec<i64> = cfg.grid.to_vec();
    simulate(compiled, &grid, &inputs, &MachineModel::sp2())
        .unwrap_or_else(|e| panic!("{}: simulation failed: {e}", cfg.name))
}

/// Asserts two simulated runs computed identical numbers. Message and
/// byte counts are deliberately *not* compared: degraded programs move
/// more data. All reductions in these benchmarks are max-reductions, so
/// exact float equality is the right bar (max is order-insensitive).
fn assert_same_numbers(name: &str, what: &str, exact: &SimResult, degraded: &SimResult) {
    assert_eq!(
        exact.ints, degraded.ints,
        "{name} [{what}]: integer scalars diverged"
    );
    let keys = |m: &HashMap<String, f64>| {
        let mut k: Vec<&String> = m.keys().collect();
        k.sort();
        k.into_iter().cloned().collect::<Vec<_>>()
    };
    assert_eq!(
        keys(&exact.floats),
        keys(&degraded.floats),
        "{name} [{what}]: float scalar sets diverged"
    );
    for (k, v) in &exact.floats {
        let d = degraded.floats[k];
        assert!(
            v.to_bits() == d.to_bits() || (v - d).abs() <= 1e-12 * v.abs().max(1.0),
            "{name} [{what}]: scalar {k} diverged: exact {v:e} vs degraded {d:e}"
        );
    }
    let mut names: Vec<&String> = exact.arrays.keys().collect();
    names.sort();
    assert_eq!(
        names.len(),
        degraded.arrays.len(),
        "{name} [{what}]: array sets diverged"
    );
    for arr in names {
        let a = &exact.arrays[arr];
        let b = degraded
            .arrays
            .get(arr)
            .unwrap_or_else(|| panic!("{name} [{what}]: array {arr} missing in degraded run"));
        assert_eq!(a.dims, b.dims, "{name} [{what}]: {arr} shape diverged");
        for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{name} [{what}]: {arr}[linear {i}] diverged: exact {x:e} vs degraded {y:e}"
            );
        }
    }
}

#[test]
fn clean_compiles_report_no_degradations() {
    for cfg in CONFIGS {
        let src = match cfg.resize {
            Some((from, to)) => cfg.src.replace(from, to),
            None => cfg.src.to_string(),
        };
        let c = compile(&src, &CompileOptions::new()).expect(cfg.name);
        assert!(
            c.report.degradations().is_empty(),
            "{}: clean compile degraded: {:?}",
            cfg.name,
            c.report.degradations()
        );
        assert_eq!(c.report.injected_faults, 0, "{}: no plan armed", cfg.name);
        assert!(c.report.governor.tripped.is_none(), "{}", cfg.name);
    }
}

#[test]
fn forced_degradation_preserves_numerics() {
    // Fire a degradable error on *every* arrival at the site: "comm_sets"
    // exercises rung 1 (conservative full exchange) with rung-2 fallback
    // for non-degradable positions; "nest" forces rung 2 (replicated
    // nest with conservative refresh) for every nest in the program.
    for cfg in CONFIGS {
        let src = match cfg.resize {
            Some((from, to)) => cfg.src.replace(from, to),
            None => cfg.src.to_string(),
        };
        let exact = compile(&src, &CompileOptions::new()).expect(cfg.name);
        assert!(exact.report.degradations().is_empty());
        let baseline = run(cfg, &exact);

        for site in ["comm_sets", "nest"] {
            let plan = InjectPlan::new(0xD15A57E5, 1, FaultAction::Error).at_site(site);
            let opts = CompileOptions::new().inject(plan);
            let degraded = compile(&src, &opts)
                .unwrap_or_else(|e| panic!("{} [{site}]: injected compile failed: {e}", cfg.name));
            assert!(
                degraded.report.injected_faults > 0,
                "{} [{site}]: period-1 plan never fired",
                cfg.name
            );
            assert!(
                !degraded.report.degradations().is_empty(),
                "{} [{site}]: faults fired but nothing degraded",
                cfg.name
            );
            for d in degraded.report.degradations() {
                assert!(
                    !d.action.is_empty() && !d.site.is_empty(),
                    "{}: malformed degradation record {d:?}",
                    cfg.name
                );
            }
            let out = run(cfg, &degraded);
            assert_same_numbers(cfg.name, site, &baseline, &out);
        }
    }
}

#[test]
fn degradations_fire_exactly_when_faults_do() {
    // A sparse plan on a benchmark: whenever the report says a fault
    // fired, degradations must be non-empty, and vice versa — no silent
    // fallbacks, no phantom reports.
    let src = JACOBI.replace("parameter (n = 128)", "parameter (n = 24)");
    for seed in 0..6u64 {
        let plan = InjectPlan::new(seed, 7, FaultAction::Error).at_site("comm_sets");
        let opts = CompileOptions::new().inject(plan);
        match compile(&src, &opts) {
            Ok(c) => assert_eq!(
                c.report.injected_faults > 0,
                !c.report.degradations().is_empty(),
                "seed {seed}: fired={} degradations={:?}",
                c.report.injected_faults,
                c.report.degradations()
            ),
            Err(e) => panic!("seed {seed}: comm_sets faults must degrade, got {e}"),
        }
    }
}

/// Counts panics raised anywhere in the process while it lives (the hook
/// is process-global: worker threads included), chaining to the hook it
/// replaced and putting that one back on drop.
struct PanicCounter {
    count: Arc<AtomicUsize>,
    previous: Arc<PanicHook>,
}

type PanicHook = dyn Fn(&std::panic::PanicHookInfo<'_>) + Send + Sync;

impl PanicCounter {
    fn install() -> Self {
        let count = Arc::new(AtomicUsize::new(0));
        let previous: Arc<PanicHook> = Arc::from(std::panic::take_hook());
        let (n, chained) = (count.clone(), previous.clone());
        std::panic::set_hook(Box::new(move |info| {
            n.fetch_add(1, Ordering::SeqCst);
            chained(info);
        }));
        PanicCounter { count, previous }
    }

    fn seen(&self) -> usize {
        self.count.load(Ordering::SeqCst)
    }
}

impl Drop for PanicCounter {
    fn drop(&mut self) {
        // `set_hook` itself panics on a panicking thread; a failed
        // assertion below leaves the counting hook in place instead.
        if !std::thread::panicking() {
            let previous = self.previous.clone();
            std::panic::set_hook(Box::new(move |info| previous(info)));
        }
    }
}

/// A budget trip is an `Err` the nest ladder matches on, never a panic:
/// across the sweep nothing reaches the panic hook, every compile degrades
/// and succeeds, and the report of a degraded compile has the shape of an
/// exact one — `module compilation` and `opt of generated code` at the top
/// level, nest phases beneath the former and within its time, one
/// `compile` root, no span left open.
///
/// The fuel sweep is derived from what an exact compile spends: every
/// memo miss is a charged operation, so half the misses is too little
/// fuel however fast the compiler gets, and each smaller rung trips
/// earlier in the pipeline.
#[test]
fn degraded_compiles_do_not_panic_and_report_like_exact_ones() {
    let exact = compile(JACOBI, &CompileOptions::new()).expect("exact JACOBI");
    let misses = exact.report.cache.total_misses();
    assert!(misses >= 1 << 8, "too few ops to sweep: {misses}");
    let panics = PanicCounter::install();
    for fuel in [1, 3, 5, 7].map(|halvings| misses >> halvings) {
        for threads in [1u32, 2] {
            let what = format!("op_fuel {fuel}, threads {threads}");
            let collector = Collector::new();
            let opts = CompileOptions::new()
                .op_fuel(fuel)
                .threads(threads as usize)
                .trace(collector.clone());
            let c = compile(JACOBI, &opts).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(
                !c.report.degradations().is_empty(),
                "{what}: the budget was meant to trip"
            );

            let rows = c.report.timers.rows_nested();
            let row = |name: &str| {
                rows.iter()
                    .find(|r| r.name == name)
                    .unwrap_or_else(|| panic!("{what}: no {name:?} row in {rows:?}"))
            };
            let module = row("module compilation");
            assert_eq!(module.depth, 0, "{what}: {rows:?}");
            assert!(!module.cumulative.is_zero(), "{what}: {rows:?}");
            assert_eq!(row("opt of generated code").depth, 0, "{what}: {rows:?}");
            // Nest rows are busy time summed over the workers, so the
            // enclosing wall-clock phase bounds them times the thread count.
            for r in rows.iter().filter(|r| r.depth == 1) {
                assert!(
                    module.cumulative * threads >= r.cumulative,
                    "{what}: {} exceeds module compilation: {rows:?}",
                    r.name
                );
            }

            let trace = collector.trace();
            let open: Vec<&str> = trace
                .nodes
                .iter()
                .filter(|n| n.open)
                .map(|n| n.name.as_str())
                .collect();
            assert!(open.is_empty(), "{what}: spans left open: {open:?}");
            let roots: Vec<&str> = trace
                .roots()
                .iter()
                .map(|&r| trace.nodes[r].name.as_str())
                .collect();
            assert_eq!(roots, ["compile"], "{what}: one compile root");
        }
    }
    assert_eq!(panics.seen(), 0, "a budget refusal must travel as `Err`");
}
