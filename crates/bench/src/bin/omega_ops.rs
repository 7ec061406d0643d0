//! Set-operation-layer microbenchmarks.
//!
//! Measures the substrate operations the oracle campaign identified as
//! hot: conjunct negation, `semantic_subsume` via `Relation::simplify`,
//! exact FME elimination, gist, and satisfiability on a cold and on a warm
//! context. Every pass but the warm one runs on a freshly armed context,
//! so it measures the computation rather than memo hits. The workload is a
//! deterministic corpus of oracle-generated forms so numbers are
//! comparable run over run.
//!
//! Flags:
//! - `--iters N`    passes over the corpus per benchmark (default 120)
//! - `--corpus N`   generated forms (default 48)
//! - `--seed S`     corpus PRNG seed (default 3735928559)
//! - `--json-out P` also write the results to a snapshot at `P`
//! - `--smoke`      reduced iteration count for CI

use dhpf_bench::args;
use dhpf_obs::json::{Arr, Obj};
use dhpf_omega::oracle::{gen_set, OracleConfig};
use dhpf_omega::testing::Rng;
use dhpf_omega::{ops, Conjunct, Context, Relation, Request, Var};
use std::hint::black_box;
use std::time::Instant;

/// One measured benchmark: median and mean wall time per pass.
struct Sample {
    name: &'static str,
    median_ns: u128,
    mean_ns: u128,
    iters: usize,
}

/// Times `f` for `iters` passes (after 3 warmup passes) and records the
/// per-pass median/mean.
fn measure<R>(name: &'static str, iters: usize, mut f: impl FnMut() -> R) -> Sample {
    for _ in 0..3.min(iters) {
        black_box(f());
    }
    let mut times: Vec<u128> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(f());
        times.push(t0.elapsed().as_nanos());
    }
    times.sort_unstable();
    let median = times[times.len() / 2];
    let mean = times.iter().sum::<u128>() / times.len() as u128;
    println!("{name:<28} median {median:>12} ns   mean {mean:>12} ns   ({iters} iters)");
    Sample {
        name,
        median_ns: median,
        mean_ns: mean,
        iters,
    }
}

/// Deterministic corpus: conjuncts and multi-conjunct relations drawn
/// from the oracle generator, so the mix (strides, unions, projections)
/// matches what the differential campaign actually stresses.
fn build_corpus(seed: u64, n_forms: usize) -> (Vec<Conjunct>, Vec<Relation>) {
    let cfg = OracleConfig::default();
    let mut rng = Rng::new(seed);
    let mut conjuncts = Vec::new();
    let mut relations = Vec::new();
    while relations.len() < n_forms {
        let arity = 1 + rng.index(3) as u32;
        let form = gen_set(&mut rng, &cfg, arity);
        let Ok(set) = form.to_set() else { continue };
        let rel = set.into_relation();
        if rel.conjuncts().is_empty() {
            continue;
        }
        conjuncts.extend(rel.conjuncts().iter().cloned());
        relations.push(rel);
    }
    (conjuncts, relations)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let smoke = args::present(&argv, "--smoke");
    let iters = args::u64_value(&argv, "--iters").unwrap_or(if smoke { 10 } else { 120 }) as usize;
    let n_forms =
        args::u64_value(&argv, "--corpus").unwrap_or(if smoke { 16 } else { 48 }) as usize;
    let seed = args::u64_value(&argv, "--seed").unwrap_or(0xDEAD_BEEF);
    let json_out = args::value(&argv, "--json-out");

    let (conjuncts, relations) = build_corpus(seed, n_forms);
    println!(
        "omega_ops: corpus seed {seed}: {} conjuncts, {} relations, {iters} iters\n",
        conjuncts.len(),
        relations.len()
    );

    // Pairs for subsume/gist: consecutive same-arity relations unioned.
    let unions: Vec<Relation> = relations
        .windows(2)
        .filter(|w| w[0].n_in() == w[1].n_in())
        .map(|w| w[0].union(&w[1]))
        .collect();

    let mut samples = Vec::new();

    samples.push(measure("negate", iters, || {
        let _cold = Request::new(&Context::new(), None, None).arm();
        let mut n = 0usize;
        for c in &conjuncts {
            if let Ok(pieces) = ops::negate_conjunct(c) {
                n += pieces.len();
            }
        }
        n
    }));

    samples.push(measure("fme_eliminate", iters, || {
        let _cold = Request::new(&Context::new(), None, None).arm();
        let mut n = 0usize;
        for c in &conjuncts {
            if c.mentions(Var::In(0)) {
                n += c
                    .eliminate_exact(Var::In(0))
                    .expect("bench conjuncts project without overflow")
                    .len();
            }
        }
        n
    }));

    samples.push(measure("gist", iters, || {
        let _cold = Request::new(&Context::new(), None, None).arm();
        let mut n = 0usize;
        for pair in conjuncts.chunks_exact(2) {
            let g = pair[0].gist_given(&pair[1]);
            n += g.eqs().len() + g.geqs().len();
        }
        n
    }));

    samples.push(measure("semantic_subsume", iters, || {
        let _cold = Request::new(&Context::new(), None, None).arm();
        let mut n = 0usize;
        for u in &unions {
            let mut r = u.clone();
            r.simplify();
            n += r.conjuncts().len();
        }
        n
    }));

    samples.push(measure("simplify_cheap", iters, || {
        let mut n = 0usize;
        for u in &unions {
            let mut r = u.clone();
            r.simplify_cheap();
            n += r.conjuncts().len();
        }
        n
    }));

    // Satisfiability: cold pays canonicalize+intern+compute per conjunct,
    // warm pays canonicalize+lookup only.
    samples.push(measure("sat_cached_cold", iters, || {
        let _cold = Request::new(&Context::new(), None, None).arm();
        conjuncts.iter().filter(|c| c.is_satisfiable()).count()
    }));

    let _warm = Request::new(&Context::new(), None, None).arm();
    for c in &conjuncts {
        c.is_satisfiable();
    }
    samples.push(measure("sat_cached_warm", iters, || {
        conjuncts.iter().filter(|c| c.is_satisfiable()).count()
    }));

    let Some(json_out) = json_out else {
        return;
    };
    let mut arr = Arr::new();
    for s in &samples {
        arr = arr.obj(
            Obj::new()
                .str("name", s.name)
                .u64("median_ns", s.median_ns as u64)
                .u64("mean_ns", s.mean_ns as u64)
                .u64("iters", s.iters as u64),
        );
    }
    let json = Obj::new()
        .str("schema", "dhpf-bench-omega-ops-v1")
        .u64("seed", seed)
        .u64("corpus_conjuncts", conjuncts.len() as u64)
        .u64("corpus_relations", relations.len() as u64)
        .arr("benches", arr)
        .finish();
    std::fs::write(&json_out, format!("{json}\n")).expect("write snapshot");
    println!("\nsnapshot written to {json_out}");
}
