//! Cold and warm memo tables must be indistinguishable.
//!
//! Randomized pipelines of union / intersect / subtract / project / gist
//! are run twice — once with a fresh [`Context`] armed around every set
//! operation, so nothing is ever answered from a memo table filled by an
//! earlier operation, and once on a shared context — and both are compared
//! point by point with a brute-force evaluation of the same pipeline in
//! plain integer arithmetic. The second test reuses one context across all
//! pipelines, so memo hits from earlier cases feed later ones, which is
//! exactly the sharing pattern the compiler driver relies on.

use dhpf_omega::num::gcd;
use dhpf_omega::testing::Rng;
use dhpf_omega::{Conjunct, Context, LinExpr, Request, Set, Var};

const LO: i64 = -4;
const HI: i64 = 8;
const CASES: u64 = 40;

fn random_conjunct(rng: &mut Rng, arity: usize) -> Conjunct {
    let mut c = Conjunct::new();
    for d in 0..arity {
        c.add_bounds(Var::In(d as u32), LO, HI);
    }
    let n = rng.range(0, 2);
    for _ in 0..n {
        match rng.index(4) {
            0 => {
                let d = rng.index(arity) as u32;
                let a = rng.range(-3, 5);
                let b = rng.range(-3, 5);
                c.add_bounds(Var::In(d), a.min(b), a.max(b));
            }
            1 => {
                let coeffs: Vec<i64> = (0..arity).map(|_| rng.range(-2, 2)).collect();
                let e = LinExpr::from_terms(
                    coeffs
                        .iter()
                        .enumerate()
                        .map(|(d, &co)| (Var::In(d as u32), co)),
                    rng.range(-4, 6),
                );
                c.add_geq(e);
            }
            2 => {
                let d = rng.index(arity) as u32;
                let m = rng.range(2, 4);
                let r = rng.range(0, m - 1);
                let mut e = LinExpr::var(Var::In(d));
                e.add_constant(-r);
                c.add_stride(e, m);
            }
            _ => {
                let coeffs: Vec<i64> = (0..arity).map(|_| rng.range(-1, 1)).collect();
                let e = LinExpr::from_terms(
                    coeffs
                        .iter()
                        .enumerate()
                        .map(|(d, &co)| (Var::In(d as u32), co)),
                    rng.range(-3, 3),
                );
                c.add_eq(e);
            }
        }
    }
    c
}

/// Membership in a [`random_conjunct`] by plain arithmetic: every
/// existential is the witness of exactly one stride equality, which holds
/// iff the rest of the equality is divisible by the witness coefficients.
fn brute_force(c: &Conjunct, point: &[i64]) -> bool {
    let eval = |e: &LinExpr| {
        let (mut value, mut modulus) = (e.constant_term(), 0);
        for (v, k) in e.terms() {
            match v {
                Var::In(d) => value += k * point[d as usize],
                _ => modulus = gcd(modulus, k),
            }
        }
        (value, modulus)
    };
    c.eqs().iter().all(|e| match eval(e) {
        (value, 0) => value == 0,
        (value, m) => value % m == 0,
    }) && c.geqs().iter().all(|e| eval(e).0 >= 0)
}

/// The grid every set is compared on: the bounding box plus a margin.
fn grid() -> Vec<[i64; 2]> {
    let axis = LO - 1..=HI + 1;
    axis.clone()
        .flat_map(|x| axis.clone().map(move |y| [x, y]))
        .collect()
}

/// A random set and its brute-force membership bitmap over [`grid`].
fn random_set(rng: &mut Rng) -> (Set, Vec<bool>) {
    let conjuncts: Vec<Conjunct> = (0..rng.range(1, 2))
        .map(|_| random_conjunct(rng, 2))
        .collect();
    let bits = grid()
        .iter()
        .map(|p| conjuncts.iter().any(|c| brute_force(c, p)))
        .collect();
    let mut r = Set::empty(2).into_relation();
    for c in conjuncts {
        r.add_conjunct(c);
    }
    (Set::from_relation(r), bits)
}

/// Where a pipeline's set operations run.
#[derive(Clone, Copy)]
enum Memo<'a> {
    /// A fresh context armed around each operation.
    Cold,
    /// One context armed around every operation.
    Shared(&'a Context),
}

impl Memo<'_> {
    fn run<T>(self, op: impl FnOnce() -> T) -> T {
        let fresh;
        let ctx = match self {
            Memo::Cold => {
                fresh = Context::new();
                &fresh
            }
            Memo::Shared(ctx) => ctx,
        };
        let _armed = Request::new(ctx, None, None).arm();
        op()
    }

    fn membership(self, s: &Set) -> Vec<bool> {
        grid()
            .iter()
            .map(|p| self.run(|| s.contains(p, &[])))
            .collect()
    }
}

/// Runs one random pipeline with `memo`, asserting after every step that
/// the set agrees with the brute-force pipeline on every grid point, and
/// finally that its projection onto dimension 0 does. Returns the
/// membership bitmaps it observed, for comparison across `memo`s.
fn run_pipeline(seed: u64, memo: Memo) -> Vec<Vec<bool>> {
    let mut rng = Rng::new(seed);
    let (mut acc, mut acc_bits) = random_set(&mut rng);
    let mut maps = Vec::new();
    for step in 0..rng.range(2, 4) {
        let (other, other_bits) = random_set(&mut rng);
        let both = |f: fn(bool, bool) -> bool| -> Vec<bool> {
            acc_bits
                .iter()
                .zip(&other_bits)
                .map(|(&a, &b)| f(a, b))
                .collect()
        };
        let (next, expect) = match rng.index(4) {
            0 => (memo.run(|| acc.union(&other)), both(|a, b| a || b)),
            1 => (memo.run(|| acc.intersection(&other)), both(|a, b| a && b)),
            2 => (
                memo.run(|| acc.subtract(&other).unwrap()),
                both(|a, b| a && !b),
            ),
            _ => {
                // gist only preserves membership within its context set, so
                // the pipeline continues with `gist ∧ other` (= `acc ∧ other`).
                let g =
                    memo.run(|| Set::from_relation(acc.as_relation().gist(other.as_relation())));
                (memo.run(|| g.intersection(&other)), both(|a, b| a && b))
            }
        };
        let got = memo.membership(&next);
        assert_eq!(got, expect, "seed {seed}, step {step}");
        maps.push(got);
        (acc, acc_bits) = (next, expect);
    }
    let pj = memo.run(|| acc.project_onto(&[0]).unwrap());
    let proj: Vec<bool> = (LO - 1..=HI + 1)
        .map(|x| memo.run(|| pj.contains(&[x], &[])))
        .collect();
    let expect: Vec<bool> = (LO - 1..=HI + 1)
        .map(|x| grid().iter().zip(&acc_bits).any(|(p, &b)| b && p[0] == x))
        .collect();
    assert_eq!(proj, expect, "seed {seed}, projection");
    maps.push(proj);
    maps
}

#[test]
fn cached_pipelines_match_uncached() {
    for seed in 0..CASES {
        let ctx = Context::new();
        let warm = run_pipeline(seed, Memo::Shared(&ctx));
        let cold = run_pipeline(seed, Memo::Cold);
        assert_eq!(warm, cold, "seed {seed}");
    }
}

#[test]
fn shared_context_across_pipelines_matches_uncached() {
    // One context for every pipeline: later cases hit entries memoized by
    // earlier ones, so cache hits (not just cold misses) are exercised.
    let ctx = Context::new();
    for seed in 0..CASES {
        let warm = run_pipeline(seed, Memo::Shared(&ctx));
        let cold = run_pipeline(seed, Memo::Cold);
        assert_eq!(warm, cold, "seed {seed}");
    }
    let stats = ctx.stats();
    assert!(
        stats.total_hits() > 0,
        "shared context never hit its caches: {stats:?}"
    );
}
