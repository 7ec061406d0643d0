//! Regressions for the normalize-once conjunct discipline.
//!
//! Historically `Conjunct::canonical()` (used by the hash-consing arena)
//! and `Conjunct::normalize()` (used by the solvers) applied *different*
//! rewrites, so two semantically identical conjuncts could intern to two
//! distinct arena ids and miss each other's memo-cache entries. These
//! tests pin the unified discipline: `canonical` is exactly a normalized
//! copy, normalization is idempotent, and every trivially-false conjunct
//! takes one structural shape.

use dhpf_omega::{Conjunct, Context, LinExpr, Normalized, Request, Var};

fn iv(n: u32) -> Var {
    Var::In(n)
}

fn e(terms: &[(Var, i64)], c: i64) -> LinExpr {
    LinExpr::from_terms(terms.iter().copied(), c)
}

/// The original bug: a conjunct built from *scaled* constraints and the
/// same conjunct built from reduced constraints described the same set,
/// but the arena saw two identities (and the sat/negate/eliminate memo
/// tables kept two disjoint entries). One discipline now means one id.
#[test]
fn scaled_and_reduced_forms_intern_to_one_id() {
    let ctx = Context::new();

    let mut scaled = Conjunct::new();
    scaled.add_geq(e(&[(iv(0), 2)], -10)); // 2x >= 10
    scaled.add_geq(e(&[(iv(0), -4)], 28)); // 4x <= 28
    scaled.add_eq(e(&[(iv(0), 3), (iv(1), -3)], 0)); // 3x = 3y

    let mut reduced = Conjunct::new();
    reduced.add_geq(e(&[(iv(0), 1)], -5)); // x >= 5
    reduced.add_geq(e(&[(iv(0), -1)], 7)); // x <= 7
    reduced.add_eq(e(&[(iv(0), 1), (iv(1), -1)], 0)); // x = y

    assert_eq!(scaled.canonical(), reduced.canonical());
    assert_eq!(ctx.intern_conjunct(&scaled), ctx.intern_conjunct(&reduced));
}

/// Constraint order and repetition do not change identity either — this
/// half already held before the unification, and must keep holding.
#[test]
fn permuted_and_duplicated_forms_intern_to_one_id() {
    let ctx = Context::new();

    let mut a = Conjunct::new();
    a.add_geq(e(&[(iv(0), 1)], -1));
    a.add_geq(e(&[(iv(0), -1)], 9));

    let mut b = Conjunct::new();
    b.add_geq(e(&[(iv(0), -1)], 9));
    b.add_geq(e(&[(iv(0), 1)], -1));
    b.add_geq(e(&[(iv(0), 1)], -1)); // duplicate

    assert_eq!(ctx.intern_conjunct(&a), ctx.intern_conjunct(&b));
}

/// `canonical()` must be *exactly* "clone + normalize": a normalized
/// conjunct is its own canonical form, bit for bit.
#[test]
fn canonical_agrees_with_normalize() {
    let mut c = Conjunct::new();
    c.add_geq(e(&[(iv(0), 6), (iv(1), -4)], 3));
    c.add_eq(e(&[(iv(0), -5), (iv(1), 10)], 0));
    c.add_stride(LinExpr::var(iv(1)), 4);

    let canon = c.canonical();
    c.normalize();
    assert_eq!(c, canon);
    assert!(c.is_normalized());
    assert_eq!(c.canonical(), c, "normalized form is a fixed point");
}

/// Normalization is idempotent: a second pass (with the once-flag
/// defeated by a no-op rebuild) reproduces the same structure.
#[test]
fn normalize_is_idempotent() {
    let cases: Vec<Conjunct> = vec![
        {
            let mut c = Conjunct::new();
            c.add_geq(e(&[(iv(0), 2)], -5));
            c.add_geq(e(&[(iv(0), -2)], 11));
            c
        },
        {
            let mut c = Conjunct::new();
            c.add_eq(e(&[(iv(0), 4), (iv(1), 6)], 2));
            c.add_geq(e(&[(iv(1), 3)], 7));
            c
        },
        {
            let mut c = Conjunct::new();
            c.add_stride(e(&[(iv(0), 1)], -1), 3);
            c.add_bounds(iv(0), -4, 17);
            c
        },
    ];
    for (i, case) in cases.into_iter().enumerate() {
        let mut once = case.clone();
        once.normalize();
        // Rebuild from the normalized constraints so the once-flag is
        // clear, forcing `normalize` to actually re-derive.
        let mut twice = Conjunct::new();
        for q in once.eqs() {
            twice.add_eq(q.clone());
        }
        for q in once.geqs() {
            twice.add_geq(q.clone());
        }
        assert!(!twice.is_normalized());
        twice.normalize();
        assert_eq!(twice, once, "case {i}: normalize is not idempotent");
    }
}

/// Oracle-minimized: opposing inequalities promote to an equality whose
/// sign must not depend on insertion order. With the old code
/// `{x >= 5, x <= 5}` produced `x - 5 = 0` or `-x + 5 = 0` depending on
/// which inequality was added first — two arena ids for one point.
#[test]
fn promoted_equality_sign_is_insertion_order_independent() {
    let mut ab = Conjunct::new();
    ab.add_geq(e(&[(iv(0), 1)], -5)); // x >= 5 first
    ab.add_geq(e(&[(iv(0), -1)], 5)); // x <= 5 second

    let mut ba = Conjunct::new();
    ba.add_geq(e(&[(iv(0), -1)], 5)); // x <= 5 first
    ba.add_geq(e(&[(iv(0), 1)], -5)); // x >= 5 second

    assert_eq!(ab.normalize(), Normalized::Consistent);
    assert_eq!(ba.normalize(), Normalized::Consistent);
    assert_eq!(ab, ba);
    assert_eq!(ab.eqs().len(), 1);
    assert!(
        matches!(ab.eqs()[0].terms().next(), Some((_, c)) if c > 0),
        "promoted equality must carry the canonical (positive-leading) sign"
    );
}

/// Oracle-minimized boundary case: GCD tightening runs *before* the
/// opposing-inequality scan, so `2x >= 5 ∧ 2x <= 5` (real solution
/// x = 2.5, no integer solution) tightens to `x >= 3 ∧ x <= 2` and must
/// normalize to false — not promote to a phantom equality.
#[test]
fn opposing_promotion_respects_integer_tightening() {
    let mut hole = Conjunct::new();
    hole.add_geq(e(&[(iv(0), 2)], -5)); // 2x >= 5
    hole.add_geq(e(&[(iv(0), -2)], 5)); // 2x <= 5
    assert_eq!(hole.normalize(), Normalized::False);
    assert!(hole.is_false());

    // Same shape, but the boundary lands on an integer: promote.
    let mut point = Conjunct::new();
    point.add_geq(e(&[(iv(0), 2)], -4)); // 2x >= 4
    point.add_geq(e(&[(iv(0), -2)], 5)); // 2x <= 5  (i.e. x <= 2)
    assert_eq!(point.normalize(), Normalized::Consistent);
    assert_eq!(point.eqs(), &[e(&[(iv(0), 1)], -2)]); // x = 2
    assert!(point.geqs().is_empty());
}

/// The parallel-inequality dedup must keep the *tighter* bound. The
/// sorted order puts the smaller constant first, and `dedup_by` hands
/// the closure the later (looser) element to drop — a mixed-up argument
/// order here would silently keep the loose bound.
#[test]
fn parallel_dedup_keeps_tighter_bound() {
    let mut c = Conjunct::new();
    c.add_geq(e(&[(iv(0), 1)], 0)); // x >= 0 (loose)
    c.add_geq(e(&[(iv(0), 1)], -5)); // x >= 5 (tight)
    c.add_geq(e(&[(iv(0), 1)], -2)); // x >= 2 (loose)
    c.normalize();
    assert_eq!(c.geqs(), &[e(&[(iv(0), 1)], -5)]);

    let mut u = Conjunct::new();
    u.add_geq(e(&[(iv(0), -1)], 9)); // x <= 9 (loose)
    u.add_geq(e(&[(iv(0), -1)], 4)); // x <= 4 (tight)
    u.normalize();
    assert_eq!(u.geqs(), &[e(&[(iv(0), -1)], 4)]);
}

/// Every trivially-contradictory conjunct rewrites to the one canonical
/// false shape and interns to a single arena id, regardless of which
/// contradiction produced it or which variables it once mentioned.
#[test]
fn all_trivially_false_conjuncts_share_one_identity() {
    let mut constant_eq = Conjunct::new();
    constant_eq.add_eq(LinExpr::constant(1)); // 1 = 0

    let mut constant_geq = Conjunct::new();
    constant_geq.add_geq(LinExpr::constant(-3)); // -3 >= 0

    let mut parity = Conjunct::new();
    parity.add_eq(e(&[(iv(0), 2)], 1)); // 2x + 1 = 0

    let mut gap = Conjunct::new();
    gap.add_geq(e(&[(iv(1), 1)], -7)); // y >= 7
    gap.add_geq(e(&[(iv(1), -1)], 3)); // y <= 3

    let ctx = Context::new();
    let ids: Vec<u32> = [&constant_eq, &constant_geq, &parity, &gap]
        .into_iter()
        .map(|c| {
            let canon = c.canonical();
            assert!(canon.is_false());
            assert_eq!(canon.n_exist(), 0);
            ctx.intern_conjunct(c)
        })
        .collect();
    assert!(
        ids.windows(2).all(|w| w[0] == w[1]),
        "ids diverged: {ids:?}"
    );
}

/// Unused trailing existential slots are dead weight that used to split
/// identities: `fresh_exist` with no constraint must not change the
/// canonical form.
#[test]
fn trailing_unused_existentials_are_trimmed() {
    let mut a = Conjunct::new();
    a.add_bounds(iv(0), 0, 7);

    let mut b = Conjunct::new();
    b.add_bounds(iv(0), 0, 7);
    let _dead = b.fresh_exist();
    let _dead2 = b.fresh_exist();

    assert_eq!(b.canonical().n_exist(), 0);
    assert_eq!(a.canonical(), b.canonical());

    let ctx = Context::new();
    assert_eq!(ctx.intern_conjunct(&a), ctx.intern_conjunct(&b));
}

/// Memo coherence end to end: warm a context with one spelling of a
/// conjunct, then query a different spelling of the same set — the
/// cached answers must be the ones the fresh computation would give.
#[test]
fn memo_hits_across_spellings_stay_correct() {
    let _armed = Request::new(&Context::new(), None, None).arm();

    let mut scaled = Conjunct::new();
    scaled.add_geq(e(&[(iv(0), 3)], -6)); // 3x >= 6
    scaled.add_geq(e(&[(iv(0), -3)], 30)); // 3x <= 30
    assert!(scaled.is_satisfiable());

    let mut reduced = Conjunct::new();
    reduced.add_geq(e(&[(iv(0), 1)], -2)); // x >= 2
    reduced.add_geq(e(&[(iv(0), -1)], 10)); // x <= 10
    assert!(reduced.is_satisfiable());

    // Negation through the shared cache: both spellings must agree on
    // membership of every probe point.
    let neg_s = dhpf_omega::negate_conjunct(&scaled).unwrap();
    let neg_r = dhpf_omega::negate_conjunct(&reduced).unwrap();
    for x in -3..=14i64 {
        let in_s = neg_s
            .iter()
            .any(|c| c.contains(|v| if v == iv(0) { Some(x) } else { None }));
        let in_r = neg_r
            .iter()
            .any(|c| c.contains(|v| if v == iv(0) { Some(x) } else { None }));
        assert_eq!(in_s, in_r, "x = {x}");
        assert_eq!(in_s, !(2..=10).contains(&x), "x = {x}");
    }
}
