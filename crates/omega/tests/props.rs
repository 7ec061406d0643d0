//! Property-based tests: every set operation is checked against a
//! brute-force membership oracle on randomly generated small sets.
//!
//! Uses the in-tree deterministic generator ([`dhpf_omega::testing::Rng`])
//! so the suite runs fully offline; every assertion message carries the
//! seed, and re-running with that seed replays the case exactly.

use dhpf_omega::testing::Rng;
use dhpf_omega::{Conjunct, LinExpr, Relation, Set, Var};

const LO: i64 = -6;
const HI: i64 = 10;
const CASES: u64 = 48;

/// A randomly generated constraint for a conjunct of the given arity.
#[derive(Clone, Debug)]
enum Cons {
    /// `lo <= dim <= hi`
    Bounds(usize, i64, i64),
    /// `c0*d0 + c1*d1 + k >= 0`
    Geq(Vec<i64>, i64),
    /// `dim ≡ r (mod m)`
    Stride(usize, i64, i64),
    /// `c0*d0 + c1*d1 + k = 0`
    Eq(Vec<i64>, i64),
}

fn random_cons(rng: &mut Rng, arity: usize) -> Cons {
    match rng.index(4) {
        0 => {
            let d = rng.index(arity);
            let a = rng.range(-3, 5);
            let b = rng.range(-3, 5);
            Cons::Bounds(d, a.min(b), a.max(b))
        }
        1 => {
            let cs = (0..arity).map(|_| rng.range(-2, 2)).collect();
            Cons::Geq(cs, rng.range(-5, 7))
        }
        2 => {
            let d = rng.index(arity);
            let m = rng.range(2, 4);
            let r = rng.range(0, 3) % m;
            Cons::Stride(d, r, m)
        }
        _ => {
            let cs = (0..arity).map(|_| rng.range(-2, 2)).collect();
            Cons::Eq(cs, rng.range(-4, 4))
        }
    }
}

fn build_conjunct(arity: usize, cons: &[Cons]) -> Conjunct {
    let mut c = Conjunct::new();
    // Always bound the box so enumeration oracles stay finite.
    for d in 0..arity {
        c.add_bounds(Var::In(d as u32), LO, HI);
    }
    for k in cons {
        match k {
            Cons::Bounds(d, lo, hi) => c.add_bounds(Var::In(*d as u32), *lo, *hi),
            Cons::Geq(cs, k) => {
                let e = LinExpr::from_terms(
                    cs.iter()
                        .enumerate()
                        .map(|(d, &co)| (Var::In(d as u32), co)),
                    *k,
                );
                c.add_geq(e);
            }
            Cons::Stride(d, r, m) => {
                let mut e = LinExpr::var(Var::In(*d as u32));
                e.add_constant(-r);
                c.add_stride(e, *m);
            }
            Cons::Eq(cs, k) => {
                let e = LinExpr::from_terms(
                    cs.iter()
                        .enumerate()
                        .map(|(d, &co)| (Var::In(d as u32), co)),
                    *k,
                );
                c.add_eq(e);
            }
        }
    }
    c
}

fn random_set(rng: &mut Rng, arity: usize) -> Set {
    let n_conj = rng.range(1, 2) as usize;
    let mut r = Set::empty(arity as u32).into_relation();
    for _ in 0..n_conj {
        let n_cons = rng.range(0, 2) as usize;
        let cons: Vec<Cons> = (0..n_cons).map(|_| random_cons(rng, arity)).collect();
        r.add_conjunct(build_conjunct(arity, &cons));
    }
    Set::from_relation(r)
}

fn points(arity: usize) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    if arity == 1 {
        for x in LO - 2..=HI + 2 {
            out.push(vec![x]);
        }
    } else {
        for x in LO - 1..=HI + 1 {
            for y in LO - 1..=HI + 1 {
                out.push(vec![x, y]);
            }
        }
    }
    out
}

#[test]
fn union_matches_oracle() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let a = random_set(&mut rng, 2);
        let b = random_set(&mut rng, 2);
        let u = a.union(&b);
        for p in points(2) {
            assert_eq!(
                u.contains(&p, &[]),
                a.contains(&p, &[]) || b.contains(&p, &[]),
                "seed {seed} point {p:?}"
            );
        }
    }
}

#[test]
fn intersection_matches_oracle() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let a = random_set(&mut rng, 2);
        let b = random_set(&mut rng, 2);
        let n = a.intersection(&b);
        for p in points(2) {
            assert_eq!(
                n.contains(&p, &[]),
                a.contains(&p, &[]) && b.contains(&p, &[]),
                "seed {seed} point {p:?}"
            );
        }
    }
}

#[test]
fn subtract_matches_oracle() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let a = random_set(&mut rng, 1);
        let b = random_set(&mut rng, 1);
        let d = a.subtract(&b).unwrap();
        for p in points(1) {
            assert_eq!(
                d.contains(&p, &[]),
                a.contains(&p, &[]) && !b.contains(&p, &[]),
                "seed {seed} point {p:?}"
            );
        }
    }
}

#[test]
fn subtract_2d_matches_oracle() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let a = random_set(&mut rng, 2);
        let b = random_set(&mut rng, 2);
        let d = a.subtract(&b).unwrap();
        for p in points(2) {
            assert_eq!(
                d.contains(&p, &[]),
                a.contains(&p, &[]) && !b.contains(&p, &[]),
                "seed {seed} point {p:?}"
            );
        }
    }
}

#[test]
fn emptiness_matches_oracle() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let a = random_set(&mut rng, 2);
        let any = points(2).iter().any(|p| a.contains(p, &[]));
        assert_eq!(a.is_empty(), !any, "seed {seed}");
    }
}

#[test]
fn subset_matches_oracle() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let a = random_set(&mut rng, 1);
        let b = random_set(&mut rng, 1);
        let want = points(1)
            .iter()
            .all(|p| !a.contains(p, &[]) || b.contains(p, &[]));
        assert_eq!(a.is_subset_of(&b).unwrap(), want, "seed {seed}");
    }
}

#[test]
fn projection_matches_oracle() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let a = random_set(&mut rng, 2);
        let pj = a.project_onto(&[0]).unwrap();
        for x in LO - 1..=HI + 1 {
            let want = (LO - 1..=HI + 1).any(|y| a.contains(&[x, y], &[]));
            assert_eq!(pj.contains(&[x], &[]), want, "seed {seed} x = {x}");
        }
    }
}

#[test]
fn enumerate_matches_contains() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let a = random_set(&mut rng, 2);
        let listed = a.enumerate(&[]).unwrap();
        for p in points(2) {
            let want = a.contains(&p, &[]);
            assert_eq!(listed.contains(&p), want, "seed {seed} point {p:?}");
        }
    }
}

#[test]
fn convexity_matches_oracle() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let a = random_set(&mut rng, 1);
        let members: Vec<i64> = (LO..=HI).filter(|&x| a.contains(&[x], &[])).collect();
        let mut has_hole = false;
        if members.len() >= 2 {
            let lo = members[0];
            let hi = *members.last().unwrap();
            has_hole = (lo..=hi).any(|x| !members.contains(&x));
        }
        assert_eq!(
            a.is_convex_1d().unwrap(),
            !has_hole,
            "seed {seed} members {members:?}"
        );
    }
}

#[test]
fn singleton_matches_oracle() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let a = random_set(&mut rng, 1);
        let count = (LO..=HI).filter(|&x| a.contains(&[x], &[])).count();
        assert_eq!(a.is_singleton_1d().unwrap(), count <= 1, "seed {seed}");
    }
}

#[test]
fn apply_matches_oracle() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let a = random_set(&mut rng, 1);
        // R = {[i] -> [j] : j = 2i - 1}
        let r: Relation = "{[i] -> [j] : j = 2i - 1}".parse().unwrap();
        let img = r.apply(&a).unwrap();
        for y in 2 * LO - 3..=2 * HI + 1 {
            let want = (LO..=HI).any(|x| a.contains(&[x], &[]) && y == 2 * x - 1);
            assert_eq!(img.contains(&[y], &[]), want, "seed {seed} y = {y}");
        }
    }
}

#[test]
fn compose_matches_oracle() {
    let f: Relation = "{[i] -> [j] : j = i + 3}".parse().unwrap();
    let g: Relation = "{[i] -> [j] : j = 2i}".parse().unwrap();
    let fg = f.then(&g).unwrap(); // j = 2(i + 3)
    for p in points(1) {
        let x = p[0];
        assert!(fg.contains_pair(&[x], &[2 * (x + 3)], &[]));
        assert!(!fg.contains_pair(&[x], &[2 * (x + 3) + 1], &[]));
    }
}
