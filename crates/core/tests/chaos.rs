//! Chaos suite: the compile pipeline under deterministic fault injection.
//!
//! Every run in the matrix — programs x thread counts x fault actions x
//! injection densities — must land in exactly one arm of the trichotomy:
//!
//! 1. **exact**: `Ok` with no degradations (the plan happened not to fire
//!    on anything load-bearing),
//! 2. **degraded but correct**: `Ok` with degradations recorded, and the
//!    program still computes the exact numbers on the simulator,
//! 3. **typed error**: a `CompileError` variant naming what went wrong.
//!
//! Never a hang (the test harness would time out), never an unwound panic
//! (the `compile` call would abort the test process), never a poisoned
//! lock wedging sibling threads. The injection decision is a pure function
//! of `(seed, site, arrival count)`, so failures replay from their seed.

mod common;

use common::{comm_plans, RankPlan};
use dhpf_core::{compile, compile_request, CompileError, CompileOptions, CompileRequest, Compiled};
use dhpf_omega::{Budget, Context, FaultAction, InjectPlan};
use dhpf_sim::{simulate, MachineModel, SimResult};
use std::collections::HashMap;

const JACOBI: &str = include_str!("../../../benchmarks/jacobi.hpf");
const ERLEBACHER: &str = include_str!("../../../benchmarks/erlebacher.hpf");

fn jacobi_small() -> String {
    JACOBI.replace("parameter (n = 128)", "parameter (n = 16)")
}

fn erlebacher_small() -> String {
    ERLEBACHER.replace("parameter (n = 32, nz = 32)", "parameter (n = 8, nz = 8)")
}

fn simulate_small(name: &str, c: &Compiled) -> SimResult {
    let (grid, inputs): (Vec<i64>, Vec<(&str, i64)>) = match name {
        "JACOBI" => (vec![2, 2], vec![("niter", 1)]),
        _ => (vec![4], vec![]),
    };
    let inputs: HashMap<String, i64> = inputs.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    simulate(c, &grid, &inputs, &MachineModel::sp2())
        .unwrap_or_else(|e| panic!("{name}: degraded program failed to simulate: {e}"))
}

fn same_numbers(name: &str, tag: &str, a: &SimResult, b: &SimResult) {
    assert_eq!(a.ints, b.ints, "{name} [{tag}]: integer scalars diverged");
    for (k, v) in &a.floats {
        let d = b.floats.get(k).copied().unwrap_or(f64::NAN);
        assert!(
            v.to_bits() == d.to_bits(),
            "{name} [{tag}]: scalar {k}: {v:e} vs {d:e}"
        );
    }
    for (arr, x) in &a.arrays {
        let y = &b.arrays[arr];
        assert_eq!(x.dims, y.dims, "{name} [{tag}]: {arr} shape");
        assert!(
            x.data
                .iter()
                .zip(&y.data)
                .all(|(p, q)| p.to_bits() == q.to_bits()),
            "{name} [{tag}]: array {arr} diverged"
        );
    }
}

/// One chaos run. Returns which trichotomy arm it landed in (for the
/// coverage assertion) after validating that arm's invariants.
#[allow(clippy::too_many_arguments)]
fn run_one(
    name: &str,
    src: &str,
    baseline: &SimResult,
    threads: usize,
    action: FaultAction,
    seed: u64,
    period: u64,
    site: Option<&'static str>,
) -> &'static str {
    let mut plan = InjectPlan::new(seed, period, action);
    if let Some(site) = site {
        plan = plan.at_site(site);
    }
    let opts = CompileOptions::new().threads(threads).inject(plan);
    let tag =
        format!("{name} threads={threads} {action:?} seed={seed} period={period} site={site:?}");
    match compile(src, &opts) {
        Ok(c) => {
            if c.report.degradations().is_empty() {
                // Exact result: the program is byte-identical in behavior,
                // so the simulator must reproduce the baseline.
                same_numbers(
                    name,
                    &format!("{tag} exact"),
                    baseline,
                    &simulate_small(name, &c),
                );
                "exact"
            } else {
                assert!(
                    c.report.injected_faults > 0 || c.report.governor.tripped.is_some(),
                    "{tag}: degraded with no recorded cause"
                );
                same_numbers(
                    name,
                    &format!("{tag} degraded"),
                    baseline,
                    &simulate_small(name, &c),
                );
                "degraded"
            }
        }
        Err(e) => {
            // Every error is a typed variant with a Display message.
            assert!(!e.to_string().is_empty(), "{tag}: empty error message");
            "error"
        }
    }
}

/// Each tuple list in array-index order — the payload order the simulator
/// packs and unpacks in, whatever shape the map's code has — or a
/// description of the first list that holds a tuple twice (that element
/// would travel twice).
fn in_payload_order(plans: &[RankPlan]) -> Result<Vec<RankPlan>, String> {
    plans
        .iter()
        .enumerate()
        .map(|(rank, plan)| {
            plan.iter()
                .map(|(&key, tuples)| {
                    let mut sorted = tuples.clone();
                    sorted.sort_unstable();
                    match sorted.windows(2).find(|w| w[0] == w[1]) {
                        Some(w) => Err(format!(
                            "rank {rank} (event, is_send, partner) = {key:?}: tuple {:?} enumerated twice",
                            w[0]
                        )),
                        None => Ok((key, sorted)),
                    }
                })
                .collect()
        })
        .collect()
}

/// Asserts the send/recv duality the simulator's pairing depends on: for
/// every (event, src rank A, dst rank B), A's send tuples to B must equal
/// B's recv tuples from A, each exactly once, compared in payload order.
/// Returns a description of the first violation instead of panicking so
/// callers can attach context.
fn pairing_violation(plans: &[RankPlan], events: usize) -> Option<String> {
    let plans = match in_payload_order(plans) {
        Ok(p) => p,
        Err(v) => return Some(v),
    };
    let nranks = plans.len();
    for ev in 0..events {
        for a in 0..nranks {
            for b in 0..nranks {
                if a == b {
                    continue;
                }
                let empty: Vec<Vec<i64>> = Vec::new();
                let send = plans[a].get(&(ev, true, b)).unwrap_or(&empty);
                let recv = plans[b].get(&(ev, false, a)).unwrap_or(&empty);
                if send != recv {
                    return Some(format!(
                        "event {ev}: rank {a} sends {} tuples to rank {b}, \
                         rank {b} expects {} from rank {a}\n  send: {send:?}\n  recv: {recv:?}",
                        send.len(),
                        recv.len()
                    ));
                }
            }
        }
    }
    None
}

/// Regression test for a silent-corruption bug the chaos harness found:
/// injected per-operation faults left communication maps unsimplified
/// (overlapping conjuncts), and code generation's disjoint-form pass
/// trusted set-difference pieces to be pairwise disjoint when the
/// complement construction actually returned overlapping pieces. The
/// generated send code then enumerated boundary tuples twice while the
/// receiver expected them once — a message-length mismatch that deadlocked
/// the simulator, with zero degradations recorded. Racy thread
/// interleavings reassign which operation each fault arrival hits, so the
/// loop resamples the same plan many times to cover many interleavings.
#[test]
fn injected_faults_never_corrupt_comm_pairing() {
    let src = jacobi_small();
    let inputs: HashMap<String, i64> = [("niter".to_string(), 1)].into();
    let clean = compile(&src, &CompileOptions::new()).expect("clean");
    let clean_plans = comm_plans(&clean, &[2, 2], &inputs).plans;
    assert!(
        pairing_violation(&clean_plans, clean.program.events.len()).is_none(),
        "clean program violates pairing"
    );
    let clean_order = in_payload_order(&clean_plans).expect("checked by the pairing");
    for round in 0..40 {
        let plan = InjectPlan::new(202, 251, FaultAction::Error);
        let opts = CompileOptions::new().threads(2).inject(plan);
        let c = match compile(&src, &opts) {
            Ok(c) => c,
            Err(_) => continue,
        };
        let degr = c.report.degradations();
        let plans = comm_plans(&c, &[2, 2], &inputs).plans;
        if let Some(v) = pairing_violation(&plans, c.program.events.len()) {
            panic!("round {round} (degradations = {degr:?}): pairing violation:\n{v}");
        }
        // An exact compile must also communicate identically to the clean
        // one: same partners, same tuples, each once.
        assert!(
            !degr.is_empty() || in_payload_order(&plans).as_ref() == Ok(&clean_order),
            "round {round}: exact compile with a comm plan that differs from the clean compile"
        );
    }
}

#[test]
fn trichotomy_matrix() {
    let programs = [
        ("JACOBI", jacobi_small()),
        ("ERLEBACHER", erlebacher_small()),
    ];
    let actions = [
        FaultAction::Error,
        FaultAction::Panic,
        FaultAction::ExhaustBudget,
    ];
    for (name, src) in &programs {
        let exact = compile(src, &CompileOptions::new()).expect(name);
        let baseline = simulate_small(name, &exact);
        let mut arms: Vec<&str> = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            // Unrestricted plans across densities: period 3 saturates
            // (analysis sites fail -> typed errors), period 251 is
            // scattershot, and a ~2^40 period essentially never fires
            // (the exact arm). Sites in analysis have no fallback, so
            // dense unrestricted plans are expected to error.
            for (ai, &action) in actions.iter().enumerate() {
                for (pi, &period) in [3u64, 251, 1 << 40].iter().enumerate() {
                    let seed = 1 + (threads as u64) * 100 + (ai as u64) * 10 + pi as u64;
                    arms.push(run_one(
                        name, src, &baseline, threads, action, seed, period, None,
                    ));
                }
            }
            // Site-restricted probes at synthesis sites, where the
            // degradation ladder guarantees a conservative fallback.
            for site in ["comm_sets", "nest"] {
                arms.push(run_one(
                    name,
                    src,
                    &baseline,
                    threads,
                    FaultAction::Error,
                    threads as u64,
                    1,
                    Some(site),
                ));
            }
        }
        // The matrix is dense enough that sparse plans leave some runs
        // exact while dense ones force the other arms; all three arms of
        // the trichotomy must actually be exercised, or the suite is
        // vacuous.
        for arm in ["exact", "degraded", "error"] {
            assert!(
                arms.contains(&arm),
                "{name}: no run landed in the {arm:?} arm: {arms:?}"
            );
        }
    }
}

#[test]
fn saturation_sweep_threads_1_through_8() {
    // Period-1 plans fire on every arrival: the worst case. At every
    // thread count the pipeline must still terminate in a typed state.
    let src = jacobi_small();
    let exact = compile(&src, &CompileOptions::new()).expect("JACOBI");
    let baseline = simulate_small("JACOBI", &exact);
    for threads in 1..=8usize {
        for action in [
            FaultAction::Error,
            FaultAction::Panic,
            FaultAction::ExhaustBudget,
        ] {
            run_one(
                "JACOBI",
                &src,
                &baseline,
                threads,
                action,
                0xC4A05 + threads as u64,
                1,
                None,
            );
        }
    }
}

#[test]
fn injection_is_deterministic_per_seed() {
    // Same seed, same plan, different thread counts: the set of faults a
    // site sees is a pure function of arrival counts, so the *serial*
    // outcome replays exactly, and every outcome is simulatable.
    let src = jacobi_small();
    let plan = InjectPlan::new(42, 5, FaultAction::Error);
    let opts = CompileOptions::new().inject(plan);
    let a = compile(&src, &opts);
    let b = compile(&src, &opts);
    match (&a, &b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.report.injected_faults, y.report.injected_faults);
            assert_eq!(x.report.degradations(), y.report.degradations());
            assert_eq!(format!("{:?}", x.program), format!("{:?}", y.program));
        }
        (Err(x), Err(y)) => assert_eq!(x.to_string(), y.to_string()),
        _ => panic!("same seed diverged: {a:?} vs {b:?}"),
    }
}

#[test]
fn a_panicking_nest_reports_its_own_message() {
    // Every arrival at the "nest" site panics: the first nest in source
    // order fails, and its panic message — not a placeholder — is the
    // compile's error at every thread count.
    let src = jacobi_small();
    for threads in [1, 2, 4] {
        let plan = InjectPlan::new(7, 1, FaultAction::Panic).at_site("nest");
        let opts = CompileOptions::new().threads(threads).inject(plan);
        match compile(&src, &opts) {
            Err(CompileError::Internal(msg)) => {
                assert_eq!(msg, "injected panic at site nest", "threads={threads}")
            }
            other => panic!("threads={threads}: expected Internal, got {other:?}"),
        }
    }
}

#[test]
fn zero_deadline_terminates_with_typed_outcome() {
    // An already-expired deadline: the compile may degrade everything or
    // give up with a Budget error, but it must return promptly — the
    // first governed operation trips, and nothing retries in a loop.
    let src = jacobi_small();
    for threads in [1usize, 4] {
        let opts = CompileOptions::new().threads(threads).deadline_ms(0);
        match compile(&src, &opts) {
            Ok(c) => {
                assert!(
                    !c.report.degradations().is_empty(),
                    "threads={threads}: a zero deadline cannot compile exactly"
                );
                assert_eq!(c.report.governor.tripped, Some("deadline"));
            }
            Err(e) => assert!(
                matches!(e, CompileError::Budget(_) | CompileError::SetAlgebra(_)),
                "threads={threads}: unexpected error {e}"
            ),
        }
    }
}

#[test]
fn a_fault_plan_fires_only_in_its_own_request() {
    // Two requests compile side by side on one shared context: A under a
    // plan that fires at every site, B under none. B must compile exactly,
    // as if A did not exist, in every round. Each thread only records its
    // outcomes, so a failure cannot strand the other at the barrier.
    let src = jacobi_small();
    let ctx = Context::new();
    let barrier = std::sync::Barrier::new(2);
    let (a, b) = std::thread::scope(|sc| {
        let a = sc.spawn(|| {
            (0..20)
                .map(|round| {
                    let plan = InjectPlan::new(round, 1, FaultAction::Error);
                    let opts = CompileOptions::new().inject(plan);
                    let req = CompileRequest::new(src.as_str()).options(opts);
                    barrier.wait();
                    compile_request(&ctx, &req).map(|c| c.report.injected_faults)
                })
                .collect::<Vec<_>>()
        });
        let b = sc.spawn(|| {
            (0..20)
                .map(|_| {
                    let req = CompileRequest::new(src.as_str());
                    barrier.wait();
                    compile_request(&ctx, &req).map(|c| c.report)
                })
                .collect::<Vec<_>>()
        });
        (a.join().unwrap(), b.join().unwrap())
    });
    for (round, (a, b)) in a.into_iter().zip(b).enumerate() {
        if let Ok(fired) = a {
            assert!(fired > 0, "round {round}: A's plan never fired");
        }
        let b = b.unwrap_or_else(|e| panic!("round {round}: B failed: {e}"));
        assert!(
            b.degradations().is_empty(),
            "round {round}: B degraded: {:?}",
            b.degradations()
        );
        assert_eq!(b.injected_faults, 0, "round {round}: B saw A's faults");
    }
}

#[test]
fn op_fuel_starvation_degrades_or_errors_soundly() {
    let src = erlebacher_small();
    let exact = compile(&src, &CompileOptions::new()).expect("ERLEBACHER");
    let baseline = simulate_small("ERLEBACHER", &exact);
    // Sweep fuel from starvation to plenty; low fuel must degrade or
    // error, generous fuel must reproduce the exact program.
    for fuel in [0u64, 1, 10, 100, 1_000_000] {
        let opts = CompileOptions::new().budget(Budget::new().op_fuel(fuel));
        match compile(&src, &opts) {
            Ok(c) => {
                if c.report.governor.tripped.is_some() {
                    assert!(!c.report.degradations().is_empty(), "fuel={fuel}");
                } else {
                    assert!(c.report.degradations().is_empty(), "fuel={fuel}");
                }
                same_numbers(
                    "ERLEBACHER",
                    &format!("fuel={fuel}"),
                    &baseline,
                    &simulate_small("ERLEBACHER", &c),
                );
            }
            Err(e) => assert!(
                matches!(e, CompileError::Budget(_) | CompileError::SetAlgebra(_)),
                "fuel={fuel}: unexpected error {e}"
            ),
        }
    }
}
