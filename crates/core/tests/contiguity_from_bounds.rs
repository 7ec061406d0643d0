//! §3.3 decided from one conjunct's bounds agrees with the equations.
//!
//! `contiguity` reads three facts off a 1-D projection that is one
//! conjunct with no existentials (convex; a singleton when an equality
//! pins it; not spanning a constant extent of two or more indices when it
//! is such a singleton) and runs the general set tests on everything else.
//! This suite keeps the equation-only test as the reference and compares
//! verdicts:
//!
//! - on the receive set of every event a statement reference forms, alone
//!   or with the statement's other references to the same array, at level
//!   0 and at every level the statement's CP map can be taken at, of the
//!   five shipped programs;
//! - on 600 seeded oracle sets of arity 1–3 against a box `local`.
//!
//! The verdicts agree on `Contiguous` versus not. Where the reference is
//! `NotContiguous`, or `Runtime` because it proved a fact (a hole or a
//! second element that depends on parameters, several conjuncts, or a set
//! that is not the product of its projections), the new verdict is the
//! same variant.
//!
//! The simulator's run-time test — consecutive column-major offsets — is
//! in turn the oracle for both: on 1,000 parameter-free oracle sets
//! clipped to a constant box, `Contiguous` must scan consecutive and
//! `NotContiguous` must not.

use dhpf_core::cp::slice_context;
use dhpf_core::{
    build_layouts, collect_statements, comm_sets, contiguity, cp_map_at_level, CommRef, Contiguity,
};
use dhpf_hpf::{analyze, parse, Analysis};
use dhpf_omega::oracle::{gen_set, OracleConfig};
use dhpf_omega::testing::Rng;
use dhpf_omega::{Relation, Set};
use std::collections::{BTreeMap, HashSet};

const JACOBI: &str = include_str!("../../../benchmarks/jacobi.hpf");
const TOMCATV: &str = include_str!("../../../benchmarks/tomcatv.hpf");
const ERLEBACHER: &str = include_str!("../../../benchmarks/erlebacher.hpf");
const SP: &str = include_str!("../../../benchmarks/sp.hpf");

/// `comm` equals the product of its 1-D projections, by the equations:
/// the product minus `comm` is empty. Returns the verdict on a set whose
/// projections passed the per-dimension tests.
fn equation_product(comm: &Set) -> Contiguity {
    let n = comm.arity();
    let names: Vec<String> = (0..n).map(|e| format!("x{e}")).collect();
    let mut product = Set::universe(n);
    for d in 0..n {
        let cd = comm.project_onto(&[d]).unwrap();
        let lift: Relation = format!("{{[{}] -> [y] : y = x{d}}}", names.join(","))
            .parse()
            .unwrap();
        product = product.intersection(&lift.apply_inverse(&cd).unwrap());
    }
    match product.subtract(comm) {
        Ok(rest) if rest.is_empty() => Contiguity::Contiguous,
        Ok(_) => Contiguity::Runtime("not the product of its projections".to_string()),
        Err(e) => Contiguity::Runtime(format!("product test inexact: {e}")),
    }
}

/// The §3.3 test by the equations alone: `equal` for each span,
/// `is_convex_1d` and `is_singleton_1d` for the rest, and the set must be
/// the product of its projections.
fn equation_contiguity(comm: &Set, local: &Set) -> Contiguity {
    assert_eq!(comm.arity(), local.arity(), "contiguity: arity mismatch");
    let n = comm.arity();
    if comm.is_empty() {
        return Contiguity::Contiguous;
    }
    if comm.as_relation().conjuncts().len() > 1 {
        return Contiguity::Runtime("multi-conjunct communication set".to_string());
    }
    let mut k = n;
    for d in 0..n {
        let spans_dim = comm
            .project_onto(&[d])
            .and_then(|cd| cd.equal(&local.project_onto(&[d])?));
        match spans_dim {
            Ok(true) => {}
            Ok(false) => {
                k = d;
                break;
            }
            Err(e) => {
                return Contiguity::Runtime(format!("dimension {d} span comparison inexact: {e}"))
            }
        }
    }
    if k == n {
        return equation_product(comm);
    }
    match comm.project_onto(&[k]).and_then(|ck| ck.is_convex_1d()) {
        Ok(true) => {}
        Ok(false) => {
            if comm.as_relation().params().is_empty() {
                return Contiguity::NotContiguous;
            }
            return Contiguity::Runtime(format!("dimension {k} convexity depends on parameters"));
        }
        Err(e) => {
            return Contiguity::Runtime(format!(
                "dimension {k} convexity undecidable at compile time: {e}"
            ));
        }
    }
    for d in (k + 1)..n {
        match comm.project_onto(&[d]).and_then(|cd| cd.is_singleton_1d()) {
            Ok(true) => {}
            Ok(false) => {
                if comm.as_relation().params().is_empty() {
                    return Contiguity::NotContiguous;
                }
                return Contiguity::Runtime(format!(
                    "dimension {d} singleton test depends on parameters"
                ));
            }
            Err(e) => {
                return Contiguity::Runtime(format!(
                    "dimension {d} singleton test undecidable at compile time: {e}"
                ));
            }
        }
    }
    equation_product(comm)
}

/// True for a reference verdict that a set operation failed to reach.
fn undecided(v: &Contiguity) -> bool {
    matches!(v, Contiguity::Runtime(why) if why.contains("inexact") || why.contains("undecidable"))
}

/// True for a reference verdict that proves a hole or a second element,
/// for all parameter values or for some.
fn proven_not(v: &Contiguity) -> bool {
    match v {
        Contiguity::NotContiguous => true,
        Contiguity::Runtime(why) => why.contains("depends on parameters"),
        Contiguity::Contiguous => false,
    }
}

/// Compares the two verdicts on `comm`; returns the reference verdict.
fn check(what: &str, comm: &Set, local: &Set) -> Contiguity {
    let want = equation_contiguity(comm, local);
    let got = contiguity(comm, local);
    let contiguous = |v: &Contiguity| *v == Contiguity::Contiguous;
    assert_eq!(
        contiguous(&got),
        contiguous(&want),
        "{what}: {got:?} vs the equations' {want:?} on {comm} in {local}"
    );
    if !undecided(&want) {
        assert_eq!(
            std::mem::discriminant(&got),
            std::mem::discriminant(&want),
            "{what}: {got:?} vs the equations' {want:?} on {comm} in {local}"
        );
    }
    want
}

/// An array's declared index set: the `local` the compiler tests against.
/// The shipped programs declare every extent with constants.
fn array_box(a: &Analysis, array: &str) -> Set {
    let info = &a.arrays[array];
    let dims: Vec<String> = (0..info.dims.len()).map(|d| format!("x{d}")).collect();
    let bounds: Vec<String> = info
        .dims
        .iter()
        .zip(&dims)
        .map(|((lo, hi), x)| {
            assert!(
                lo.terms.is_empty() && hi.terms.is_empty(),
                "{array}: symbolic extent"
            );
            format!("{} <= {x} <= {}", lo.constant, hi.constant)
        })
        .collect();
    format!("{{[{}] : {}}}", dims.join(","), bounds.join(" && "))
        .parse()
        .unwrap_or_else(|e| panic!("{array}: {e}"))
}

/// Compares verdicts on every receive set `src`'s statements form; returns
/// how many of them the equations prove contiguous and how many they
/// prove not to be.
fn check_program(name: &str, src: &str) -> (usize, usize) {
    let ast = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let a = analyze(&ast.units[0]).unwrap_or_else(|e| panic!("{name}: {e}"));
    let layouts = build_layouts(&a);
    let stmts = collect_statements(&a);
    let mut seen = HashSet::new();
    let (mut contiguous, mut not) = (0usize, 0usize);
    let mut event = |what: &str, array: &str, reads: &[CommRef], writes: &[CommRef]| {
        let sets = comm_sets(reads, writes, &layouts[array]).unwrap();
        let recv = sets.recv_map.range().unwrap();
        if !seen.insert(format!("{array} {recv}")) {
            return;
        }
        let want = check(what, &recv, &array_box(&a, array));
        contiguous += usize::from(want == Contiguity::Contiguous);
        not += usize::from(proven_not(&want));
    };
    for (k, s) in stmts.iter().enumerate() {
        for level in 0..=s.ctx.depth() {
            let Ok((cp_map, _)) = cp_map_at_level(s, &layouts, level) else {
                continue;
            };
            let inner = slice_context(&s.ctx, level);
            let mut by_array: BTreeMap<&str, Vec<CommRef>> = BTreeMap::new();
            for r in s.reads.iter().filter(|r| !layouts[&r.array].replicated) {
                let cr = CommRef {
                    cp_map: cp_map.clone(),
                    ref_map: r.ref_map(&inner),
                };
                let what = format!(
                    "{name}: statement {k}, read {}({:?}) at level {level}",
                    r.array, r.subs
                );
                event(&what, &r.array, std::slice::from_ref(&cr), &[]);
                by_array.entry(&r.array).or_default().push(cr);
            }
            for (array, refs) in &by_array {
                let what = format!("{name}: statement {k}, reads of {array} at level {level}");
                event(&what, array, refs, &[]);
            }
            if level > 0 {
                continue;
            }
            for l in s.lhs.iter().filter(|l| !layouts[&l.array].replicated) {
                let cr = CommRef {
                    cp_map: cp_map.clone(),
                    ref_map: l.ref_map(&s.ctx),
                };
                let what = format!("{name}: statement {k}, write {}({:?})", l.array, l.subs);
                event(&what, &l.array, &[], &[cr]);
            }
        }
    }
    (contiguous, not)
}

#[test]
fn shipped_programs_agree_with_the_equations() {
    let sp_sym = SP.replace(
        "!HPF$ processors p(2, 2)",
        "!HPF$ processors p(2, number_of_processors())",
    );
    let programs = [
        ("JACOBI", JACOBI),
        ("TOMCATV", TOMCATV),
        ("ERLEBACHER", ERLEBACHER),
        ("SP-4", SP),
        ("SP-sym", &sp_sym),
    ];
    let (mut contiguous, mut not) = (0, 0);
    for (name, src) in programs {
        let (c, n) = check_program(name, src);
        contiguous += c;
        not += n;
    }
    // Non-vacuity: both kinds of proven verdict occur.
    assert!(contiguous > 0, "no receive set is contiguous");
    assert!(not > 0, "no receive set is proven non-contiguous");
}

/// A random box over `arity` dimensions inside the oracle's window; one
/// in four is symbolic in its last dimension, so the general span test
/// also runs.
fn random_box(rng: &mut Rng, arity: u32) -> Set {
    let mut bounds = Vec::new();
    for d in 0..arity {
        let lo = rng.range(-2, 4);
        let hi = lo + rng.range(0, 4);
        if d + 1 == arity && rng.chance(1, 4) {
            bounds.push(format!("{lo} <= x{d} <= N"));
        } else {
            bounds.push(format!("{lo} <= x{d} <= {hi}"));
        }
    }
    let dims: Vec<String> = (0..arity).map(|d| format!("x{d}")).collect();
    format!("{{[{}] : {}}}", dims.join(","), bounds.join(" && "))
        .parse()
        .unwrap()
}

#[test]
fn oracle_sets_agree_with_the_equations() {
    let mut rng = Rng::new(0x33_c0);
    // Mostly single-conjunct sets: a multi-conjunct one is a runtime
    // verdict before any fact is read.
    let single = OracleConfig {
        max_conjuncts: 1,
        ..OracleConfig::default()
    };
    let mixed = OracleConfig::default();
    let (mut contiguous, mut not) = (0usize, 0usize);
    for case in 0..600 {
        let arity = 1 + (case % 3) as u32;
        let cfg = if case % 5 == 4 { &mixed } else { &single };
        let form = gen_set(&mut rng, cfg, arity);
        let comm = form.to_set().unwrap();
        let local = random_box(&mut rng, arity);
        let want = check(&format!("case {case}"), &comm, &local);
        contiguous += usize::from(want == Contiguity::Contiguous);
        not += usize::from(proven_not(&want));
    }
    assert!(
        contiguous > 100 && not > 100,
        "{contiguous} contiguous and {not} proven not of 600 oracle cases"
    );
}

/// The box's points in column-major order: the first dimension varies
/// fastest, so a point's index in this list is its memory offset.
fn column_major_points(bounds: &[(i64, i64)]) -> Vec<Vec<i64>> {
    let mut points = vec![Vec::new()];
    for &(lo, hi) in bounds {
        points = (lo..=hi)
            .flat_map(|x| {
                points.iter().map(move |p| {
                    let mut q = p.clone();
                    q.push(x);
                    q
                })
            })
            .collect();
    }
    points
}

/// The run-time test is the oracle for the compile-time one: on every
/// parameter-free oracle set, clipped to a constant box as a message is to
/// its array, `Contiguous` must give consecutive column-major offsets and
/// `NotContiguous` on a non-empty set must not. The points are enumerated
/// by the oracle's own evaluator, with no Omega machinery.
#[test]
fn oracle_sets_scan_like_their_verdicts() {
    let mut rng = Rng::new(0x33_c1);
    let single = OracleConfig {
        max_conjuncts: 1,
        max_params: 0,
        ..OracleConfig::default()
    };
    let (mut contiguous, mut not) = (0usize, 0usize);
    for case in 0..1000 {
        let arity = 1 + (case % 3) as u32;
        let form = gen_set(&mut rng, &single, arity);
        let bounds: Vec<(i64, i64)> = (0..arity)
            .map(|_| {
                let lo = rng.range(-2, 4);
                (lo, lo + rng.range(0, 4))
            })
            .collect();
        let dims: Vec<String> = (0..arity).map(|d| format!("x{d}")).collect();
        let cons: Vec<String> = bounds
            .iter()
            .zip(&dims)
            .map(|((lo, hi), x)| format!("{lo} <= {x} <= {hi}"))
            .collect();
        let local: Set = format!("{{[{}] : {}}}", dims.join(","), cons.join(" && "))
            .parse()
            .unwrap();
        let message = form.to_set().unwrap().intersection(&local);
        let offsets: Vec<usize> = column_major_points(&bounds)
            .iter()
            .enumerate()
            .filter(|(_, p)| form.eval(p))
            .map(|(off, _)| off)
            .collect();
        let consecutive = offsets
            .first()
            .zip(offsets.last())
            .is_none_or(|(first, last)| last - first + 1 == offsets.len());
        let what = format!("case {case}: {message} in {local}, offsets {offsets:?}");
        match contiguity(&message, &local) {
            Contiguity::Contiguous => {
                assert!(consecutive, "{what}: proven contiguous");
                contiguous += usize::from(!offsets.is_empty());
            }
            Contiguity::NotContiguous if !offsets.is_empty() => {
                assert!(!consecutive, "{what}: proven not contiguous");
                not += 1;
            }
            _ => {}
        }
    }
    assert!(
        contiguous >= 50 && not >= 50,
        "{contiguous} contiguous and {not} proven not of 1000 oracle sets"
    );
}
