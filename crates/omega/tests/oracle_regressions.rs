//! Minimized regressions from the differential oracle (`oracle_fuzz`).
//!
//! Each test replays a counterexample found by the fuzz harness and
//! minimized by its shrinker, stated as a printable Omega-syntax set plus
//! the law it violated. Keep each case minimal and annotated with the law
//! name so future refactors cannot silently reintroduce the bug.

use dhpf_omega::{OmegaError, Set};

/// Law `enumerate-ref` / `dim-bounds`, found at oracle seed 5 (shrunk).
///
/// `dim_bounds` folded per-conjunct bounds with `Option` maps that let a
/// later *bounded* conjunct overwrite an earlier conjunct's `None`
/// (= unbounded side). On `{[x] : x >= 0 || 0 <= x <= 3}` the first
/// conjunct has no upper bound, but the second conjunct's `3` was reported
/// as the union's upper bound, so `enumerate` silently dropped every
/// `x > 3` instead of reporting `Unbounded`.
#[test]
fn dim_bounds_keeps_unbounded_upper_side_of_union() {
    let s: Set = "{[x0] : x0 >= 0 || 0 <= x0 <= 3}".parse().unwrap();
    assert_eq!(s.dim_bounds(0, &[]).unwrap(), (Some(0), None));
    assert!(matches!(s.enumerate(&[]), Err(OmegaError::Unbounded)));
}

/// Mirror of the case above on the lower side.
#[test]
fn dim_bounds_keeps_unbounded_lower_side_of_union() {
    let s: Set = "{[x0] : x0 <= 5 || 0 <= x0 <= 3}".parse().unwrap();
    assert_eq!(s.dim_bounds(0, &[]).unwrap(), (None, Some(5)));
    assert!(matches!(s.enumerate(&[]), Err(OmegaError::Unbounded)));
}

/// The bounded-union case must keep working after the fix: both conjuncts
/// bounded, outer hull reported, enumeration exact.
#[test]
fn dim_bounds_union_of_bounded_conjuncts_is_hull() {
    let s: Set = "{[x0] : 0 <= x0 <= 9 || 2 <= x0 <= 3}".parse().unwrap();
    assert_eq!(s.dim_bounds(0, &[]).unwrap(), (Some(0), Some(9)));
    let pts = s.enumerate(&[]).unwrap();
    assert_eq!(pts, (0..=9).map(|v| vec![v]).collect::<Vec<_>>());
}

/// Law `convex-1d`: `is_convex_1d` on a non-1-D set used to panic inside
/// set algebra with an opaque message; the fallible API reports a typed
/// arity error instead (and `dhpf-core`'s contiguity analysis relies on
/// getting an `Err` it can turn into a runtime check).
#[test]
fn convex_1d_on_wrong_arity_is_typed_error() {
    let s: Set = "{[x0,x1] : 0 <= x0 <= 1 && 0 <= x1 <= 1}".parse().unwrap();
    assert!(matches!(s.is_convex_1d(), Err(OmegaError::Arity(_))));
    assert!(matches!(s.is_singleton_1d(), Err(OmegaError::Arity(_))));
}

/// Law `subtract` (overflow burn-down): Fourier–Motzkin elimination forms
/// the products `a·U + b·L` and the dark-shadow constant `(a-1)(b-1)`;
/// with ~4·10⁹ coefficients these exceed `i64` and previously wrapped in
/// release builds (UB-adjacent silent corruption) or aborted in debug.
/// The checked path must surface `OmegaError::Overflow`.
#[test]
fn fme_coefficient_overflow_surfaces_as_error() {
    let s: Set =
        "{[x0] : exists(e0 : 4000000000e0 <= x0 && x0 <= 4000000000e0 + 1 && 0 <= e0 <= 4000000000)}"
            .parse()
            .unwrap();
    let u = Set::universe(1);
    assert!(matches!(u.subtract(&s), Err(OmegaError::Overflow(_))));
}

/// Same overflow class reached through satisfiability: the emptiness test
/// must stay *conservative* on overflow (answer "maybe satisfiable", never
/// a wrong "empty") rather than panicking mid-query.
#[test]
fn sat_is_conservative_under_overflow() {
    let s: Set =
        "{[x0] : exists(e0 : 4000000000e0 <= x0 && x0 <= 4000000000e0 + 1 && 0 <= e0 <= 4000000000)}"
            .parse()
            .unwrap();
    // x0 = 0 (witness e0 = 0) really is in the set, so emptiness must say
    // "not empty" even though exact elimination overflows.
    assert!(!s.is_empty());
    assert!(s.contains(&[0], &[]));
}

/// Law `display-roundtrip`, found at oracle seed 5 (case seed
/// 9312763031162338807, shrunk): simplifying `{[x0] : x0 = 4 || 0 <= 0}`
/// reduces the tautological conjunct to the empty conjunct, which `Display`
/// prints as `TRUE` — and the parser rejected its own printer's output.
/// `TRUE`/`FALSE` must parse back to the empty conjunct / empty union.
#[test]
fn display_roundtrip_accepts_true_and_false() {
    let t: Set = "{[x0] : x0 = 4 || TRUE}".parse().unwrap();
    assert!(t.contains(&[-7], &[]) && t.contains(&[4], &[]));

    let f: Set = "{[x0] : FALSE}".parse().unwrap();
    assert!(f.is_empty());

    // Root cause was wider than the printer: the parser normalized each
    // conjunct and discarded the verdict, so *any* contradictory constant
    // constraint silently parsed as the universe.
    let f2: Set = "{[x0] : 1 = 0}".parse().unwrap();
    assert!(f2.is_empty());
    let f3: Set = "{[x0] : 0 >= 2}".parse().unwrap();
    assert!(f3.is_empty());

    // The original counterexample: print then re-parse must succeed and
    // denote the same set.
    let s: Set = "{[x0] : 4 <= x0 <= 4 || 0 <= 0}".parse().unwrap();
    let back: Set = s.to_string().parse().unwrap();
    for x in -3..=8i64 {
        assert_eq!(s.contains(&[x], &[]), back.contains(&[x], &[]));
    }
}

/// Law `rel-compose` termination, found at oracle seed 5 (case seed
/// 412626756059678056): composing stride + symbolic-parameter relations
/// produced conjuncts whose exact negation cross-product explodes
/// (10 stride pieces × ~17 atoms ⇒ up to 17^10 conjuncts, tens of GB).
/// `negate_uncached` now carries a piece budget and reports
/// `InexactNegation` instead, and `semantic_subsume` skips oversized
/// negations — so this compose must terminate quickly.
#[test]
fn compose_of_stride_param_relations_terminates() {
    use dhpf_omega::Relation;
    let a: Relation = "{[x0] -> [y0] : -1 <= x0 <= 5 && 0 <= y0 <= 6 && -x0 - N + 3 >= 0 && \
         exists(s0 : -x0 + y0 + N - 2 = 4s0) || \
         0 <= x0 <= 4 && -1 <= y0 <= 6 && x0 - N + 2 >= 0}"
        .parse()
        .unwrap();
    let b: Relation = "{[x0] -> [y0] : -1 <= x0 <= 5 && -2 <= y0 <= 6 && 2x0 + N >= 0 && \
         exists(s0 : -y0 + 5 = 4s0) || -1 <= x0 <= 4 && 0 <= y0 <= 6}"
        .parse()
        .unwrap();
    let c = a.then(&b).unwrap();
    // Spot-check one chain: N = 3 pins a's first disjunct to x0 = 0 and the
    // composition must relate x0 = 0 to some y0 through a mid value.
    let n = [("N", 3)];
    let mut any = false;
    for y in -2..=6i64 {
        any |= c.contains_pair(&[0], &[y], &n);
    }
    assert!(any, "compose lost all successors of x0 = 0 under N = 3");
}

/// Law `gist` soundness on a stride case: `gist(S, C) ∩ C ≡ S ∩ C` where
/// the stride constraint survives the gist. Kept from the initial
/// campaign as a semantic anchor for the congruence path.
#[test]
fn gist_stride_against_interval_context() {
    let s: Set = "{[x0] : 0 <= x0 <= 9 && exists(e0 : x0 = 2e0)}"
        .parse()
        .unwrap();
    let c: Set = "{[x0] : 2 <= x0 <= 5}".parse().unwrap();
    let g = s.as_relation().gist(c.as_relation());
    let rhs = s.intersection(&c);
    for x in -2..=12i64 {
        if !c.contains(&[x], &[]) {
            continue; // gist is only constrained within the context
        }
        assert_eq!(
            g.contains_pair(&[x], &[], &[]),
            rhs.contains(&[x], &[]),
            "gist law broken at x = {x}"
        );
    }
}
