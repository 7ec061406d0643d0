//! Focused tests of relation operations beyond the inline unit tests:
//! parameter unification, restriction properties, gist laws, and the
//! specific set shapes produced by HPF distributions.

use dhpf_omega::{Budget, Context, OmegaError, Relation, Request, RequestGovernor, Set};

fn rel(s: &str) -> Relation {
    s.parse().unwrap()
}

fn set(s: &str) -> Set {
    s.parse().unwrap()
}

#[test]
fn unify_params_merges_sorted() {
    let a = rel("{[i] -> [] : i <= N}");
    let b = rel("{[i] -> [] : i >= K && i <= M}");
    let (a2, b2) = Relation::unify_params(a, b);
    assert_eq!(a2.params(), b2.params());
    assert_eq!(
        a2.params(),
        &["K".to_string(), "M".to_string(), "N".to_string()]
    );
    // Meaning preserved after remapping.
    assert!(a2.contains_pair(&[3], &[], &[("K", 0), ("M", 0), ("N", 5)]));
    assert!(!a2.contains_pair(&[6], &[], &[("K", 0), ("M", 0), ("N", 5)]));
    assert!(b2.contains_pair(&[3], &[], &[("K", 2), ("M", 4), ("N", 0)]));
}

#[test]
fn restrict_domain_and_range_agree_with_membership() {
    let r = rel("{[i] -> [j] : j = i + 10 && 0 <= i <= 20}");
    let dom = set("{[i] : 5 <= i <= 7}");
    let rng = set("{[j] : 16 <= j <= 30}");
    let rd = r.restrict_domain(&dom);
    let rr = r.restrict_range(&rng);
    for i in 0..=20i64 {
        let j = i + 10;
        assert_eq!(rd.contains_pair(&[i], &[j], &[]), (5..=7).contains(&i));
        assert_eq!(rr.contains_pair(&[i], &[j], &[]), (16..=30).contains(&j));
    }
}

#[test]
fn gist_identity_law() {
    // (gist A given B) ∧ B == A ∧ B
    let a = rel("{[i] -> [] : 2 <= i <= 8 && i <= N}");
    let b = rel("{[i] -> [] : 1 <= i <= 8}");
    let g = a.gist(&b);
    let left = g.intersection(&b);
    let right = a.intersection(&b);
    assert!(left.equal(&right).unwrap());
}

#[test]
fn inverse_is_involutive() {
    let r = rel("{[i,j] -> [k] : k = i + j && 1 <= i <= 3 && 1 <= j <= 3}");
    assert!(r.inverse().inverse().equal(&r).unwrap());
}

#[test]
fn then_associativity_on_samples() {
    let f = rel("{[i] -> [j] : j = i + 1}");
    let g = rel("{[i] -> [j] : j = 2i}");
    let h = rel("{[i] -> [j] : j = i - 3}");
    let ab_c = f.then(&g).unwrap().then(&h).unwrap();
    let a_bc = f.then(&g.then(&h).unwrap()).unwrap();
    for x in -5..=5i64 {
        let y = 2 * (x + 1) - 3;
        assert!(ab_c.contains_pair(&[x], &[y], &[]));
        assert!(a_bc.contains_pair(&[x], &[y], &[]));
        assert!(!ab_c.contains_pair(&[x], &[y + 1], &[]));
        assert!(!a_bc.contains_pair(&[x], &[y + 1], &[]));
    }
}

#[test]
fn domain_range_of_composition() {
    let f = rel("{[i] -> [j] : j = i + 1 && 1 <= i <= 5}");
    let g = rel("{[i] -> [j] : j = 3i && 2 <= i <= 4}");
    let fg = f.then(&g).unwrap(); // domain: i with i+1 in [2,4] => i in [1,3]
    let dom = fg.domain().unwrap();
    for i in 0..=6i64 {
        assert_eq!(dom.contains(&[i], &[]), (1..=3).contains(&i), "i={i}");
    }
    let rng = fg.range().unwrap(); // 3*(i+1) for i in [1,3]: {6, 9, 12}
    for j in 0..=15i64 {
        assert_eq!(rng.contains(&[j], &[]), [6, 9, 12].contains(&j), "j={j}");
    }
}

#[test]
fn cyclic_distribution_set_algebra() {
    // Ownership of a CYCLIC(3) distribution on 2 processors, and its
    // complement, partition the template exactly.
    let p0 = set("{[t] : 1 <= t <= 18 && exists(a : t - 1 = 6a) || 1 <= t <= 18 && exists(a : t - 2 = 6a) || 1 <= t <= 18 && exists(a : t - 3 = 6a)}");
    let all = set("{[t] : 1 <= t <= 18}");
    let p1 = all.subtract(&p0).unwrap();
    for t in 1..=18i64 {
        let blk = (t - 1) / 3;
        let mine = blk % 2 == 0;
        assert_eq!(p0.contains(&[t], &[]), mine, "t={t}");
        assert_eq!(p1.contains(&[t], &[]), !mine, "t={t}");
    }
    assert!(p0.union(&p1).equal(&all).unwrap());
    assert!(p0.intersection(&p1).as_relation().is_empty());
}

#[test]
fn specialize_param_then_enumerate() {
    let s = set("{[i] : 1 <= i <= N && exists(a : i = 2a)}");
    let even_to_10 = s.as_relation().specialize_param("N", 10);
    let fixed = Set::from_relation(even_to_10);
    let pts = fixed.enumerate(&[]).unwrap();
    assert_eq!(pts, vec![vec![2], vec![4], vec![6], vec![8], vec![10]]);
}

#[test]
fn block_overlap_regions() {
    // Two adjacent BLOCK(25) owners share no elements; shifting one by a
    // halo of 1 overlaps in exactly one element.
    let own1 = set("{[a] : 26 <= a <= 50}");
    let own0_halo = set("{[a] : 1 <= a <= 26}");
    let overlap = own1.intersection(&own0_halo);
    let pts = overlap.enumerate(&[]).unwrap();
    assert_eq!(pts, vec![vec![26]]);
}

#[test]
fn empty_relation_ops_are_safe() {
    let e = Relation::empty(1, 1);
    assert!(e.is_empty());
    assert!(e.domain().unwrap().is_empty());
    assert!(e.range().unwrap().is_empty());
    let u = Relation::universe(1, 1);
    assert!(e.union(&u).equal(&u).unwrap());
    assert!(e.intersection(&u).is_empty());
    assert!(u.subtract(&e).unwrap().equal(&u).unwrap());
}

#[test]
fn symbolic_subset_depends_on_all_params() {
    // {i : 1 <= i <= N} ⊆ {i : 1 <= i <= M} does NOT hold for all N, M.
    let a = set("{[i] : 1 <= i <= N}");
    let b = set("{[i] : 1 <= i <= M}");
    assert!(!a.is_subset_of(&b).unwrap());
    // But it does hold with the constraint N <= M folded in.
    let a2 = set("{[i] : 1 <= i <= N && N <= M}");
    assert!(a2.is_subset_of(&b).unwrap());
}

/// The refusal rule: while the thread's governor refuses — its op fuel
/// already spent — every operation that reaches a
/// projection or a negation returns the refusal as `Err`, and every
/// operation with a sound fallback absorbs it into its conservative answer.
#[test]
fn a_refused_operation_is_an_err_or_a_conservative_answer() {
    let r = rel("{[i] -> [j] : 2j <= i <= 2j + 1 && 0 <= i <= N}");
    let s = set("{[i] : 3 <= i <= 9}");
    let t = set("{[i] : 5 <= i <= N}");
    let pairs = set("{[i,j] : 0 <= i <= j && j <= 5}");
    type Op<'a> = (&'a str, Box<dyn Fn() -> Result<(), OmegaError> + 'a>);
    let fallible: Vec<Op> = vec![
        ("then", Box::new(|| r.then(&r.inverse()).map(drop))),
        ("domain", Box::new(|| r.domain().map(drop))),
        ("range", Box::new(|| r.range().map(drop))),
        ("apply", Box::new(|| r.apply(&s).map(drop))),
        ("apply_inverse", Box::new(|| r.apply_inverse(&s).map(drop))),
        (
            "project_onto",
            Box::new(|| pairs.project_onto(&[1]).map(drop)),
        ),
        ("subtract", Box::new(|| s.subtract(&t).map(drop))),
        ("equal", Box::new(|| s.equal(&t).map(drop))),
        ("is_subset_of", Box::new(|| s.is_subset_of(&t).map(drop))),
        ("is_convex_1d", Box::new(|| s.is_convex_1d().map(drop))),
        (
            "is_singleton_1d",
            Box::new(|| s.is_singleton_1d().map(drop)),
        ),
    ];
    // Operands for the absorbing operations, each with an exact answer the
    // conservative one visibly differs from.
    let even_and_odd = set("{[i] : exists(a : i = 2a) && exists(b : i = 2b + 1)}");
    let nested = set("{[i] : 1 <= i <= 10 || 2 <= i <= 5}");
    let bounded = set("{[i] : 1 <= i <= 10 && i <= N}");
    let known = set("{[i] : 1 <= i <= 10}");
    let constraints = |rel: &Relation| -> usize {
        let count = |c: &dhpf_omega::Conjunct| c.eqs().len() + c.geqs().len();
        rel.conjuncts().iter().map(count).sum()
    };
    let simplified = |set: &Set| {
        let mut set = set.clone();
        set.simplify();
        set.as_relation().conjuncts().len()
    };
    let gist = |a: &Set, b: &Set| constraints(&a.as_relation().gist(b.as_relation()));
    assert!(even_and_odd.is_empty());
    assert_eq!(simplified(&nested), 1);
    assert_eq!(gist(&bounded, &known), 1);

    let governor = RequestGovernor::new(&Budget::new().op_fuel(0), None);
    let _armed = Request::new(&Context::new(), Some(&governor), None).arm();
    for (name, op) in &fallible {
        let err = op().expect_err(name);
        assert!(
            matches!(err, OmegaError::BudgetExceeded(_)),
            "{name}: {err}"
        );
    }
    assert!(!even_and_odd.is_empty(), "emptiness degrades to maybe");
    assert_eq!(simplified(&nested), 2, "simplify degrades to identity");
    assert_eq!(
        gist(&bounded, &known),
        constraints(bounded.as_relation()),
        "gist degrades to identity"
    );
}
