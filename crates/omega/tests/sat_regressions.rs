//! Hand-made cases for each branch of the satisfiability decision
//! procedure (dark shadow first, real shadow second, splinters on demand,
//! one-sided variables dropped in place), for the sole-bound quick test and
//! the per-component tests of `remove_redundant`, for the block-pair rule
//! of exact projection, and for the rule that a verdict reached after a
//! governor refusal is never memoized.
//!
//! Verdicts are checked against brute-force enumeration; the branch taken
//! is pinned through the context's counters, where a shadow step shows as
//! one `eliminate` miss and each shadow's sub-question as one `sat` lookup.

use dhpf_omega::{
    negate_conjunct, Budget, Conjunct, Context, LinExpr, Request, RequestGovernor, RequestGuard,
    Set, Var,
};

/// `ctx` armed alone on the calling thread.
fn arm(ctx: &Context) -> RequestGuard {
    Request::new(ctx, None, None).arm()
}

/// `ctx` armed under a governor that lets `fuel` operations through.
fn arm_with_fuel(ctx: &Context, fuel: u64) -> RequestGuard {
    let governor = RequestGovernor::new(&Budget::new().op_fuel(fuel), None);
    Request::new(ctx, Some(&governor), None).arm()
}

const X: Var = Var::In(0);
const Y: Var = Var::In(1);

fn e(terms: &[(Var, i64)], c: i64) -> LinExpr {
    LinExpr::from_terms(terms.iter().copied(), c)
}

fn conjunct(eqs: &[LinExpr], geqs: &[LinExpr]) -> Conjunct {
    let mut c = Conjunct::new();
    for q in eqs {
        c.add_eq(q.clone());
    }
    for g in geqs {
        c.add_geq(g.clone());
    }
    c
}

/// Whether some `(x, y)` in `[-12, 12]²` is a member of `c`.
fn brute_force(c: &Conjunct) -> bool {
    (-12..=12i64).any(|x| {
        (-12..=12i64).any(|y| {
            c.contains(|v| match v {
                Var::In(0) => Some(x),
                Var::In(1) => Some(y),
                _ => None,
            })
        })
    })
}

/// Asserts the verdict three ways — brute force, the thread's context, a
/// fresh context — and returns the fresh context's `(sat lookups,
/// eliminate misses)`.
fn decide(c: &Conjunct, expect: bool) -> (u64, u64) {
    assert_eq!(brute_force(c), expect, "brute force on {c:?}");
    assert_eq!(c.is_satisfiable(), expect, "thread's context on {c:?}");
    let ctx = Context::new();
    let _armed = arm(&ctx);
    assert_eq!(c.is_satisfiable(), expect, "fresh context on {c:?}");
    let stats = ctx.stats();
    assert_eq!(c.try_is_satisfiable(), Ok(expect));
    (stats.sat.hits + stats.sat.misses, stats.eliminate.misses)
}

/// `2y+4 <= 5x <= 2y+6` with `y` in `[0, 1]`, 25 apart in `x`.
fn slab(lo: i64, hi: i64) -> Conjunct {
    conjunct(
        &[],
        &[
            e(&[(X, 5), (Y, -2)], -lo), // 5x >= 2y + lo
            e(&[(X, -5), (Y, 2)], hi),  // 5x <= 2y + hi
            e(&[(Y, 1)], 0),            // y >= 0
            e(&[(Y, -1)], 1),           // y <= 1
        ],
    )
}

#[test]
fn dark_shadow_empty_but_a_splinter_is_satisfiable() {
    // Eliminating x: the real shadow is `10 >= 0`, the dark shadow
    // `10 >= 16`. The point (1, 0) lies on the splinter `5x = 2y + 4 + 1`.
    // The shadow step and the real shadow's projection of y are the only
    // counted projections: the splinters' pins are substituted away.
    assert_eq!(decide(&slab(4, 6), true), (3, 2));
}

#[test]
fn real_shadow_satisfiable_with_no_integer_point() {
    // 5x in [2y+1, 2y+2]: [1, 2] for y = 0 and [3, 4] for y = 1. The real
    // shadow (`5 >= 0`) holds for both, no multiple of 5 is in either.
    assert_eq!(decide(&slab(1, 2), false), (3, 2));
}

#[test]
fn real_shadow_empty_stops_the_branch() {
    // 2y+3 <= 5x <= 3y+1 needs y >= 2; y is in [0, 1]. Both shadows are
    // empty (the same canonical false, so the second is a memo hit), and
    // the decision is the shadow step and its two sub-questions.
    let c = conjunct(
        &[],
        &[
            e(&[(X, 5), (Y, -2)], -3),
            e(&[(X, -5), (Y, 3)], 1),
            e(&[(Y, 1)], 0),
            e(&[(Y, -1)], 1),
        ],
    );
    assert_eq!(decide(&c, false), (3, 1));
}

#[test]
fn an_exact_step_asks_no_sub_question() {
    // Unit coefficients on x: one memoized projection, then y one-sided.
    let c = conjunct(
        &[],
        &[
            e(&[(X, 1), (Y, -2)], 0),
            e(&[(X, -1), (Y, 3)], 4),
            e(&[(Y, 1)], 0),
        ],
    );
    assert_eq!(decide(&c, true), (1, 1));
}

/// Projects the 2-D set `src` onto its second dimension, checks the
/// enumerated result against membership of the source over
/// `[-20, 20] × [-10, 45]`, and returns the exact elimination of the first
/// dimension from its one conjunct.
fn project_partner(src: &str) -> (Set, Vec<Conjunct>) {
    let s: Set = src.parse().unwrap();
    let [c] = s.as_relation().conjuncts() else {
        panic!("{src} is one conjunct")
    };
    let pieces = c.eliminate_exact(X).unwrap();
    let proj = s.project_onto(&[1]).unwrap();
    let expect: Vec<Vec<i64>> = (-10..=45i64)
        .filter(|&a| (-20..=20i64).any(|p| s.contains(&[p, a], &[])))
        .map(|a| vec![a])
        .collect();
    let mut got = proj.enumerate(&[]).unwrap();
    got.sort();
    assert_eq!(got, expect, "projection of {src}");
    (proj, pieces)
}

#[test]
fn a_block_pair_whose_dark_shadow_is_its_real_shadow_does_not_splinter() {
    // 17p+1 <= a <= 17p+17: 17p lies in a window of 17 consecutive
    // integers, one of them a multiple of 17. The pair combines to the
    // constant 272 >= 16*16, so the dark shadow is exact on its own.
    let (proj, pieces) = project_partner("{[p,a] : 17p+1 <= a <= 17p+17 && 1 <= a <= 34}");
    assert_eq!(pieces.len(), 1, "{pieces:?}");
    assert_eq!(pieces[0].n_exist(), 0, "{pieces:?}");
    let [c] = proj.as_relation().conjuncts() else {
        panic!("{proj} is one conjunct")
    };
    assert_eq!(c.n_exist(), 0, "{proj}");
}

#[test]
fn a_block_pair_with_gaps_still_splinters() {
    // 3p <= a <= 3p+1 misses every a = 2 (mod 3): the pair combines to
    // 3 < 2*2, the dark shadow is empty, and the two splinters keep the
    // residues 0 and 1.
    let (proj, pieces) = project_partner("{[p,a] : 3p <= a <= 3p+1 && 0 <= a <= 20}");
    assert_eq!(pieces.len(), 2, "{pieces:?}");
    assert!(proj.contains(&[19], &[]) && !proj.contains(&[17], &[]));
}

#[test]
fn one_sided_sweep_respects_stride_existentials() {
    // x >= 5 bounds x on one side only, but x also occurs in the stride
    // equality: it must be substituted, not dropped.
    let mut odd_and_even = conjunct(&[], &[e(&[(X, 1)], -5)]);
    odd_and_even.add_stride(LinExpr::var(X), 2);
    odd_and_even.add_stride(e(&[(X, 1)], -1), 2);
    assert_eq!(decide(&odd_and_even, false), (1, 0));

    let mut one_mod_three = conjunct(&[], &[e(&[(X, 1)], -5)]);
    one_mod_three.add_stride(e(&[(X, 1)], -1), 3);
    // After the substitution only the witness is left, one-sided: dropped
    // without a counted operation.
    assert_eq!(decide(&one_mod_three, true), (1, 0));

    // 2x = 3y + 1 with x >= 0 and y <= -1: each variable is one-sided in
    // the inequalities, yet the equality forces x <= -1.
    let tied = conjunct(
        &[e(&[(X, 2), (Y, -3)], -1)],
        &[e(&[(X, 1)], 0), e(&[(Y, -1)], -1)],
    );
    decide(&tied, false);
}

#[test]
fn sole_bound_in_an_equality_still_gets_its_decision() {
    // x >= 0 is the only lower bound on x, but x = y and y >= 3 imply it.
    let mut tied = conjunct(
        &[e(&[(X, 1), (Y, -1)], 0)],
        &[e(&[(X, 1)], 0), e(&[(Y, 1)], -3)],
    );
    tied.remove_redundant();
    assert_eq!(tied.geqs(), &[e(&[(Y, 1)], -3)]);

    // Without the equality both are sole bounds, and no decision runs.
    let mut free = conjunct(&[], &[e(&[(X, 1)], 0), e(&[(Y, 1)], -3)]);
    let ctx = Context::new();
    let _armed = arm(&ctx);
    free.remove_redundant();
    assert_eq!(free.geqs().len(), 2);
    assert_eq!(ctx.stats().sat.misses + ctx.stats().sat.hits, 0);
}

#[test]
fn redundancy_tests_are_shared_across_unrelated_components() {
    // The same bounds on x, each with a second lower and upper bound so
    // that none is a sole bound; the y parts share no variable with them.
    let x_part = [
        e(&[(X, 1)], -1),
        e(&[(X, 1)], -3),
        e(&[(X, -1)], 10),
        e(&[(X, -1)], 12),
    ];
    let with_y = |lo: i64, hi: i64| {
        let mut geqs = x_part.to_vec();
        geqs.extend([e(&[(Y, 1)], -lo), e(&[(Y, -1)], hi)]);
        conjunct(&[], &geqs)
    };
    let ctx = Context::new();
    let _armed = arm(&ctx);
    let mut first = with_y(0, 5);
    first.remove_redundant();
    let before = ctx.stats();
    let mut second = with_y(7, 9);
    second.remove_redundant();
    let after = ctx.stats();
    let kept = [e(&[(X, 1)], -3), e(&[(X, -1)], 10)];
    assert_eq!(first.geqs()[..2], kept);
    assert_eq!(
        second.geqs(),
        [&kept[..], &[e(&[(Y, 1)], -7), e(&[(Y, -1)], 9)]].concat()
    );
    // Three x bounds are tested per conjunct (x >= 3 is the sole lower
    // bound once x >= 1 is gone); the second conjunct's tests are the
    // first's, answered from the memo table.
    assert_eq!(after.sat.misses, before.sat.misses);
    assert_eq!(after.eliminate.misses, before.eliminate.misses);
    assert_eq!(after.sat.hits - before.sat.hits, 3);
}

/// The textbook `remove_redundant`: one full decision per inequality
/// against every other constraint; no quick test, no components.
fn remove_redundant_reference(c: &Conjunct) -> Vec<LinExpr> {
    let mut geqs = c.geqs().to_vec();
    let mut i = 0;
    while i < geqs.len() {
        let mut rest = geqs.clone();
        let mut neg = rest.remove(i).negated();
        neg.add_constant(-1);
        rest.push(neg);
        if conjunct(c.eqs(), &rest).is_satisfiable() {
            i += 1;
        } else {
            geqs.remove(i);
        }
    }
    geqs
}

#[test]
fn remove_redundant_matches_the_parent_constraint_for_constraint() {
    // The satisfiable conjuncts of `normalize_regressions.rs`, plus two
    // shapes the compiler produces (a block distribution with a loose
    // bound, a triangular nest with an implied one).
    let p = Var::Exist(0);
    let mut corpus = vec![
        conjunct(
            &[e(&[(X, 3), (Y, -3)], 0)],
            &[e(&[(X, 2)], -10), e(&[(X, -4)], 28)],
        ),
        conjunct(
            &[e(&[(X, 1), (Y, -1)], 0)],
            &[e(&[(X, 1)], -5), e(&[(X, -1)], 7)],
        ),
        conjunct(&[], &[e(&[(X, -1)], 9), e(&[(X, 1)], -1), e(&[(X, 1)], -1)]),
        conjunct(&[e(&[(X, -5), (Y, 10)], 0)], &[e(&[(X, 6), (Y, -4)], 3)]),
        conjunct(&[], &[e(&[(X, 2)], -5), e(&[(X, -2)], 11)]),
        conjunct(&[e(&[(X, 4), (Y, 6)], 2)], &[e(&[(Y, 3)], 7)]),
        conjunct(&[], &[e(&[(X, 1)], -5), e(&[(X, -1)], 5)]),
        conjunct(&[], &[e(&[(X, 2)], -4), e(&[(X, -2)], 5)]),
        conjunct(&[], &[e(&[(X, 1)], 0), e(&[(X, 1)], -5), e(&[(X, 1)], -2)]),
        conjunct(&[], &[e(&[(X, -1)], 9), e(&[(X, -1)], 4)]),
        conjunct(&[], &[e(&[(X, 3)], -6), e(&[(X, -3)], 30)]),
        conjunct(
            &[],
            &[
                e(&[(X, 1), (p, -25)], 0),
                e(&[(X, -1), (p, 25)], 24),
                e(&[(p, 1)], 0),
                e(&[(p, -1)], 3),
                e(&[(X, 1)], 10),
                e(&[(X, -1)], 99),
            ],
        ),
        conjunct(
            &[],
            &[
                e(&[(X, 1)], -1),
                e(&[(Y, 1), (X, -1)], 0),
                e(&[(Y, -1), (Var::Param(0), 1)], 0),
                e(&[(X, -1), (Var::Param(0), 1)], 0),
                e(&[(Y, 1)], 0),
            ],
        ),
    ];
    let mut with_stride = conjunct(&[], &[e(&[(X, 1)], 4), e(&[(X, -1)], 17)]);
    with_stride.add_stride(e(&[(X, 1)], -1), 3);
    corpus.push(with_stride);

    let mut dropped = 0;
    for (i, case) in corpus.iter().enumerate() {
        assert!(case.is_satisfiable(), "case {i} must be satisfiable");
        for normalized in [false, true] {
            let mut c = case.clone();
            if normalized {
                c.normalize();
            }
            let expect = remove_redundant_reference(&c);
            dropped += c.geqs().len() - expect.len();
            let mut fresh = c.clone();
            {
                let _armed = arm(&Context::new());
                fresh.remove_redundant();
            }
            c.remove_redundant();
            assert_eq!(c.geqs(), expect, "case {i}, normalized {normalized}");
            assert_eq!(fresh.geqs(), expect, "case {i} on a fresh context");
        }
    }
    assert!(dropped >= 6, "the corpus must exercise removal: {dropped}");
}

/// Beside `budget_errors_are_never_memoized` in `context.rs`: a budget
/// that trips *inside* a satisfiability decision used to leave the
/// conservative "satisfiable" in the memo table for good.
#[test]
fn governor_refusal_inside_a_decision_never_poisons_the_sat_memo() {
    for fuel in [0, 1, 2] {
        let ctx = Context::new();
        let _cx = arm(&ctx);
        let s: Set = "{[i,j,k] : i+j+k >= 10 && 0 <= i <= 3 && 0 <= j <= 3 && 0 <= k <= 3}"
            .parse()
            .unwrap();
        let gov = RequestGovernor::new(&Budget::new().op_fuel(fuel), None);
        let armed = Request::new(&ctx, Some(&gov), None).arm();
        assert!(
            !s.is_empty(),
            "fuel {fuel}: a refusal degrades to non-empty"
        );
        assert!(gov.tripped(), "fuel {fuel} must run out mid-decision");
        let c = &s.as_relation().conjuncts()[0];
        assert!(c.try_is_satisfiable().is_err());
        drop(armed);
        assert!(
            s.is_empty(),
            "fuel {fuel}: the exact verdict after re-arming"
        );
        assert_eq!(c.try_is_satisfiable(), Ok(false));
    }
}

/// The same rule for the two tables that memoize errors: a refusal raised
/// by an operation nested inside `compute` — the splinter eliminations of
/// an inexact projection, the stride-form eliminations of a negation — is
/// not a result of the outer key, and must be gone once the governor is.
#[test]
fn governor_refusal_inside_compute_never_poisons_eliminate_or_negate() {
    // exists a : 2a <= x <= 3a - 1, 0 <= a <= 4: both bounds on `a` have a
    // non-unit coefficient, so projecting it splinters.
    let a = Var::Exist(0);
    let c = conjunct(
        &[],
        &[
            e(&[(X, 1), (a, -2)], 0),
            e(&[(a, 3), (X, -1)], -1),
            e(&[(a, 1)], 0),
            e(&[(a, -1)], 4),
        ],
    );
    let (eliminated, negated) = {
        let _fresh = arm(&Context::new());
        (c.eliminate_exact(a).unwrap(), negate_conjunct(&c).unwrap())
    };
    let (mut inside_eliminate, mut inside_negate) = (0, 0);
    for fuel in 0..12 {
        let ctx = Context::new();
        let _cx = arm(&ctx);
        let armed = arm_with_fuel(&ctx, fuel);
        let refused = c.eliminate_exact(a).is_err();
        // Fuel 0 refuses the outer charge; anything later is nested.
        inside_eliminate += u32::from(refused && fuel > 0);
        drop(armed);
        assert_eq!(
            c.eliminate_exact(a).as_ref(),
            Ok(&eliminated),
            "eliminate after a refusal at fuel {fuel}"
        );

        let ctx = Context::new();
        let _cx = arm(&ctx);
        let armed = arm_with_fuel(&ctx, fuel);
        let refused = negate_conjunct(&c).is_err();
        inside_negate += u32::from(refused && fuel > 0);
        drop(armed);
        assert_eq!(
            negate_conjunct(&c).as_ref(),
            Ok(&negated),
            "negate after a refusal at fuel {fuel}"
        );
    }
    assert!(
        inside_eliminate > 0,
        "no fuel value tripped inside eliminate"
    );
    assert!(inside_negate > 0, "no fuel value tripped inside negate");
}
