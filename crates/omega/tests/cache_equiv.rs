//! Cached and uncached evaluation must be indistinguishable.
//!
//! Randomized pipelines of union / intersect / subtract / project / gist
//! are run twice — once with every operand attached to a shared
//! [`Context`] (hash-consing + memoized simplification) and once without
//! any context — and the results are compared point-by-point against a
//! brute-force enumeration oracle. A third pass reuses one context across
//! all pipelines so memo hits from earlier cases feed later ones, which is
//! exactly the sharing pattern the compiler driver relies on.

use dhpf_omega::testing::Rng;
use dhpf_omega::{Conjunct, Context, LinExpr, Set, Var};

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

fn random_set(rng: &mut Rng, arity: usize, ctx: Option<&Context>) -> Set {
    let mut r = Set::empty(arity as u32).into_relation();
    for _ in 0..rng.range(1, 2) {
        r.add_conjunct(random_conjunct(rng, arity));
    }
    let mut s = Set::from_relation(r);
    s.set_context(ctx);
    s
}

/// One random pipeline step applied to the accumulator.
fn step(rng: &mut Rng, acc: Set, other: &Set) -> Set {
    match rng.index(4) {
        0 => acc.union(other),
        1 => acc.intersection(other),
        2 => acc.subtract(other).unwrap(),
        _ => {
            // gist: simplify `acc` under the assumption `other`; the result
            // must agree with `acc` on every point of `other`.
            let g = acc.into_relation().gist(other.as_relation());
            Set::from_relation(g)
        }
    }
}

fn membership(s: &Set) -> Vec<bool> {
    let mut out = Vec::new();
    for x in LO - 1..=HI + 1 {
        for y in LO - 1..=HI + 1 {
            out.push(s.contains(&[x, y], &[]));
        }
    }
    out
}

/// Runs one random pipeline; `ctx` chooses cached vs uncached evaluation.
/// Returns the membership bitmaps observed after every step, plus the
/// 1-D projection of the final set.
fn run_pipeline(seed: u64, ctx: Option<&Context>) -> (Vec<Vec<bool>>, Vec<bool>) {
    let mut rng = Rng::new(seed);
    let mut acc = random_set(&mut rng, 2, ctx);
    let mut maps = Vec::new();
    let n_steps = rng.range(2, 4);
    for _ in 0..n_steps {
        let other = random_set(&mut rng, 2, ctx);
        let is_gist = {
            // Peek which op `step` will draw without consuming the stream
            // twice: clone the generator state.
            let mut peek = rng.clone();
            peek.index(4) == 3
        };
        let next = step(&mut rng, acc.clone(), &other);
        if is_gist {
            // gist only preserves membership within the context set.
            let mut m = Vec::new();
            for x in LO - 1..=HI + 1 {
                for y in LO - 1..=HI + 1 {
                    let p = [x, y];
                    let within = other.contains(&p, &[]);
                    m.push(within && next.contains(&p, &[]));
                }
            }
            maps.push(m);
            // Keep the pipeline deterministic and oracle-comparable by
            // restricting to the gist context.
            acc = next.intersection(&other);
        } else {
            maps.push(membership(&next));
            acc = next;
        }
    }
    let pj = acc.project_onto(&[0]).unwrap();
    let proj: Vec<bool> = (LO - 1..=HI + 1).map(|x| pj.contains(&[x], &[])).collect();
    (maps, proj)
}

#[test]
fn cached_pipelines_match_uncached() {
    for seed in 0..CASES {
        let ctx = Context::new();
        let cached = run_pipeline(seed, Some(&ctx));
        let uncached = run_pipeline(seed, None);
        assert_eq!(cached, uncached, "seed {seed}");
    }
}

#[test]
fn shared_context_across_pipelines_matches_uncached() {
    // One context for every pipeline: later cases hit entries memoized by
    // earlier ones, so cache hits (not just cold misses) are exercised.
    let ctx = Context::new();
    for seed in 0..CASES {
        let cached = run_pipeline(seed, Some(&ctx));
        let uncached = run_pipeline(seed, None);
        assert_eq!(cached, uncached, "seed {seed}");
    }
    let stats = ctx.stats();
    assert!(
        stats.total_hits() > 0,
        "shared context never hit its caches: {stats:?}"
    );
}
