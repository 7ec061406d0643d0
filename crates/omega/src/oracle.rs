//! Differential correctness oracle for the integer-set substrate.
//!
//! Every equation of the paper (Figs. 3–5) assumes the primitives in this
//! crate — FME with dark shadow and splinters, exact negation, gist, the
//! §3.3 `IsConvex`/`IsSingleton` tests — are *exact* over the integers.
//! This module checks that assumption differentially: a seeded generator
//! (built on [`crate::testing::Rng`]) produces small bounded sets and
//! relations in a miniature constraint language with its own independent
//! reference semantics (plain `i64` arithmetic, no Omega machinery), and a
//! family of algebraic laws compares every library operation against that
//! ground truth over an exhaustive window of integer points, plus
//! [`Set::enumerate`] as a second, library-level ground truth.
//!
//! Failures are minimized by a greedy [`shrink`] pass and reported as
//! [`Counterexample`]s whose inputs are printable Omega-syntax strings,
//! ready to paste into a regression test (see
//! `crates/omega/tests/oracle_regressions.rs`).
//!
//! The `oracle_fuzz` binary in `crates/bench` drives [`fuzz`] from the
//! command line (`--seed/--iters/--time-budget`); CI runs a fixed-seed
//! smoke iteration count on every push.

use crate::conjunct::Conjunct;
use crate::linexpr::LinExpr;
use crate::ops::negate_conjunct;
use crate::relation::Relation;
use crate::set::Set;
use crate::testing::Rng;
use crate::var::Var;
use crate::{Budget, Context, OmegaError, Request, RequestGovernor};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::{Duration, Instant};

/// Tunables for the generator and the point-membership window.
///
/// The defaults keep one law check in the low-millisecond range while still
/// covering coefficients large enough to exercise dark-shadow/splinter FME
/// and stride negation.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Maximum total tuple dimensions (input + output) of a generated form.
    pub max_dims: u32,
    /// Maximum number of disjuncts per generated form.
    pub max_conjuncts: usize,
    /// Maximum extra constraints per conjunct (besides the bounding box).
    pub max_atoms: usize,
    /// Coefficient magnitudes are drawn from `-coeff_max..=coeff_max`.
    pub coeff_max: i64,
    /// Constant terms are drawn from `-const_max..=const_max`.
    pub const_max: i64,
    /// Lower edge of the bounding box baked into generated conjuncts.
    pub box_lo: i64,
    /// Upper edge of the bounding box baked into generated conjuncts.
    pub box_hi: i64,
    /// The membership window extends the box by this much on each side, so
    /// off-by-one errors at the box edges are observable.
    pub window_pad: i64,
    /// Maximum number of symbolic parameters per case.
    pub max_params: usize,
    /// One-in-N chance of dropping one side of a box bound (probing the
    /// unbounded-set paths); `0` disables dropping. Laws that need the form
    /// to stay enumerable force full bounds regardless.
    pub drop_bound_in: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            max_dims: 3,
            max_conjuncts: 3,
            max_atoms: 3,
            coeff_max: 3,
            const_max: 6,
            box_lo: -2,
            box_hi: 6,
            window_pad: 2,
            max_params: 1,
            drop_bound_in: 10,
        }
    }
}

// ---------------------------------------------------------------------
// The miniature constraint language and its reference semantics
// ---------------------------------------------------------------------

/// One generated constraint over the tuple dimensions and parameters.
#[derive(Clone, Debug)]
enum GenAtom {
    /// `Σ c_d·x_d + Σ p_k·param_k + k  (= | >=)  0`.
    Cmp {
        eq: bool,
        coeffs: Vec<i64>,
        pcoeffs: Vec<i64>,
        k: i64,
    },
    /// `Σ c_d·x_d + Σ p_k·param_k + k ≡ 0 (mod m)`, `m >= 2`.
    Stride {
        coeffs: Vec<i64>,
        pcoeffs: Vec<i64>,
        k: i64,
        m: i64,
    },
}

impl GenAtom {
    fn value(&self, point: &[i64], params: &[(String, i64)]) -> i64 {
        let (coeffs, pcoeffs, k) = match self {
            GenAtom::Cmp {
                coeffs, pcoeffs, k, ..
            }
            | GenAtom::Stride {
                coeffs, pcoeffs, k, ..
            } => (coeffs, pcoeffs, k),
        };
        let mut acc = *k;
        for (c, x) in coeffs.iter().zip(point) {
            acc += c * x;
        }
        for (c, (_, v)) in pcoeffs.iter().zip(params) {
            acc += c * v;
        }
        acc
    }

    fn holds(&self, point: &[i64], params: &[(String, i64)]) -> bool {
        let v = self.value(point, params);
        match self {
            GenAtom::Cmp { eq: true, .. } => v == 0,
            GenAtom::Cmp { eq: false, .. } => v >= 0,
            GenAtom::Stride { m, .. } => v.rem_euclid(*m) == 0,
        }
    }
}

/// One generated disjunct: per-dimension box bounds plus extra atoms.
#[derive(Clone, Debug)]
struct GenConj {
    lo: Vec<Option<i64>>,
    hi: Vec<Option<i64>>,
    atoms: Vec<GenAtom>,
}

impl GenConj {
    fn eval(&self, point: &[i64], params: &[(String, i64)]) -> bool {
        for (d, x) in point.iter().enumerate() {
            if let Some(l) = self.lo[d] {
                if *x < l {
                    return false;
                }
            }
            if let Some(h) = self.hi[d] {
                if *x > h {
                    return false;
                }
            }
        }
        self.atoms.iter().all(|a| a.holds(point, params))
    }
}

/// A generated set or relation: the oracle's own AST, with an independent
/// reference evaluator ([`GenForm::eval`]) and a printable Omega-syntax
/// rendering ([`GenForm::source`]) that the library parses back.
#[derive(Clone, Debug)]
pub struct GenForm {
    n_in: u32,
    n_out: u32,
    params: Vec<(String, i64)>,
    conjs: Vec<GenConj>,
}

impl GenForm {
    /// Total tuple dimensions (input + output).
    pub fn dims(&self) -> usize {
        (self.n_in + self.n_out) as usize
    }

    /// Reference membership: pure `i64` arithmetic over the oracle AST —
    /// no Omega machinery involved.
    pub fn eval(&self, point: &[i64]) -> bool {
        debug_assert_eq!(point.len(), self.dims());
        self.conjs.iter().any(|c| c.eval(point, &self.params))
    }

    /// The parameter bindings this form was generated with.
    pub fn bindings(&self) -> Vec<(&str, i64)> {
        self.params.iter().map(|(n, v)| (n.as_str(), *v)).collect()
    }

    fn dim_name(&self, d: usize) -> String {
        if (d as u32) < self.n_in {
            format!("x{d}")
        } else {
            format!("y{}", d as u32 - self.n_in)
        }
    }

    /// Renders the form in Omega syntax, parseable as a [`Set`] or a
    /// [`Relation`].
    pub fn source(&self) -> String {
        let mut s = String::from("{[");
        for i in 0..self.n_in {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("x{i}"));
        }
        s.push(']');
        if self.n_out > 0 {
            s.push_str(" -> [");
            for j in 0..self.n_out {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("y{j}"));
            }
            s.push(']');
        }
        s.push_str(" : ");
        let mut first_conj = true;
        for c in &self.conjs {
            if !first_conj {
                s.push_str(" || ");
            }
            first_conj = false;
            s.push_str(&self.render_conj(c));
        }
        if self.conjs.is_empty() {
            s.push_str("0 = 1");
        }
        s.push('}');
        s
    }

    fn render_conj(&self, c: &GenConj) -> String {
        let mut parts: Vec<String> = Vec::new();
        for d in 0..self.dims() {
            let name = self.dim_name(d);
            match (c.lo[d], c.hi[d]) {
                (Some(l), Some(h)) => parts.push(format!("{l} <= {name} <= {h}")),
                (Some(l), None) => parts.push(format!("{name} >= {l}")),
                (None, Some(h)) => parts.push(format!("{name} <= {h}")),
                (None, None) => {}
            }
        }
        let mut witness = 0usize;
        for a in &c.atoms {
            match a {
                GenAtom::Cmp {
                    eq,
                    coeffs,
                    pcoeffs,
                    k,
                } => {
                    let expr = self.render_expr(coeffs, pcoeffs, *k);
                    parts.push(format!("{expr} {} 0", if *eq { "=" } else { ">=" }));
                }
                GenAtom::Stride {
                    coeffs,
                    pcoeffs,
                    k,
                    m,
                } => {
                    let expr = self.render_expr(coeffs, pcoeffs, *k);
                    parts.push(format!("exists(s{witness} : {expr} = {m}s{witness})"));
                    witness += 1;
                }
            }
        }
        if parts.is_empty() {
            parts.push("0 <= 0".to_string());
        }
        parts.join(" && ")
    }

    fn render_expr(&self, coeffs: &[i64], pcoeffs: &[i64], k: i64) -> String {
        let mut s = String::new();
        let push_term = |s: &mut String, c: i64, name: &str| {
            if c == 0 {
                return;
            }
            if s.is_empty() {
                if c == 1 {
                    s.push_str(name);
                } else if c == -1 {
                    s.push_str(&format!("-{name}"));
                } else {
                    s.push_str(&format!("{c}{name}"));
                }
            } else if c > 0 {
                if c == 1 {
                    s.push_str(&format!(" + {name}"));
                } else {
                    s.push_str(&format!(" + {c}{name}"));
                }
            } else if c == -1 {
                s.push_str(&format!(" - {name}"));
            } else {
                s.push_str(&format!(" - {}{name}", -c));
            }
        };
        for (d, &c) in coeffs.iter().enumerate() {
            let name = self.dim_name(d);
            push_term(&mut s, c, &name);
        }
        for (&c, (name, _)) in pcoeffs.iter().zip(&self.params) {
            push_term(&mut s, c, name);
        }
        if s.is_empty() {
            s.push_str(&k.to_string());
        } else if k > 0 {
            s.push_str(&format!(" + {k}"));
        } else if k < 0 {
            s.push_str(&format!(" - {}", -k));
        }
        s
    }

    /// Parses the rendered source as a [`Set`] (requires `n_out == 0`).
    pub fn to_set(&self) -> Result<Set, String> {
        debug_assert_eq!(self.n_out, 0);
        self.source().parse::<Set>().map_err(|e| {
            format!(
                "oracle-generated set failed to parse: {e}: {}",
                self.source()
            )
        })
    }

    /// Parses the rendered source as a [`Relation`].
    pub fn to_relation(&self) -> Result<Relation, String> {
        self.source().parse::<Relation>().map_err(|e| {
            format!(
                "oracle-generated relation failed to parse: {e}: {}",
                self.source()
            )
        })
    }
}

// ---------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------

fn gen_coeff(rng: &mut Rng, cfg: &OracleConfig) -> i64 {
    // Bias toward small magnitudes: 0 and ±1 dominate real constraint
    // systems; larger coefficients exercise the dark-shadow paths.
    match rng.index(6) {
        0 | 1 => 0,
        2 => 1,
        3 => -1,
        _ => rng.range(-cfg.coeff_max, cfg.coeff_max),
    }
}

/// One atom shape: a single constraint, or a BLOCK pair of two.
fn gen_atom(rng: &mut Rng, cfg: &OracleConfig, dims: usize, n_params: usize) -> Vec<GenAtom> {
    if dims >= 2 && rng.chance(1, 5) {
        return gen_block_pair(rng, cfg, dims, n_params);
    }
    loop {
        let coeffs: Vec<i64> = (0..dims).map(|_| gen_coeff(rng, cfg)).collect();
        let pcoeffs: Vec<i64> = (0..n_params).map(|_| gen_coeff(rng, cfg)).collect();
        if coeffs.iter().all(|&c| c == 0) {
            continue; // a pure parameter/constant constraint is uninteresting
        }
        let k = rng.range(-cfg.const_max, cfg.const_max);
        return vec![if rng.chance(1, 4) {
            GenAtom::Stride {
                coeffs,
                pcoeffs,
                k,
                m: rng.range(2, 4),
            }
        } else {
            GenAtom::Cmp {
                eq: rng.chance(1, 4),
                coeffs,
                pcoeffs,
                k,
            }
        }];
    }
}

/// `c·v + k <= x <= c·v + k + w`, the shape BLOCK ownership gives a
/// partner variable `v`. `v` is the last dimension, the one the `project`
/// law eliminates. That elimination is exact without splinters when
/// `w >= c-1` (every window of `c` consecutive integers holds a multiple
/// of `c`); `w = c-2` leaves residue holes.
fn gen_block_pair(rng: &mut Rng, cfg: &OracleConfig, dims: usize, n_params: usize) -> Vec<GenAtom> {
    let v = dims - 1;
    let x = rng.index(dims - 1);
    let c = rng.range(2, 5);
    let w = c - rng.range(0, 2);
    let k = rng.range(-cfg.const_max, cfg.const_max);
    let side = |sign: i64, k: i64| {
        let mut coeffs = vec![0; dims];
        coeffs[x] = sign;
        coeffs[v] = -sign * c;
        GenAtom::Cmp {
            eq: false,
            coeffs,
            pcoeffs: vec![0; n_params],
            k,
        }
    };
    // x - c·v - k >= 0  and  c·v + k + w - x >= 0
    vec![side(1, -k), side(-1, k + w)]
}

fn gen_conj(
    rng: &mut Rng,
    cfg: &OracleConfig,
    dims: usize,
    n_params: usize,
    force_bounds: bool,
) -> GenConj {
    let mut lo = Vec::with_capacity(dims);
    let mut hi = Vec::with_capacity(dims);
    for _ in 0..dims {
        let l = rng.range(cfg.box_lo, cfg.box_lo + 2);
        let h = rng.range(cfg.box_hi - 2, cfg.box_hi);
        let drop_l = !force_bounds && cfg.drop_bound_in > 0 && rng.chance(1, cfg.drop_bound_in);
        let drop_h = !force_bounds && cfg.drop_bound_in > 0 && rng.chance(1, cfg.drop_bound_in);
        lo.push(if drop_l { None } else { Some(l) });
        hi.push(if drop_h { None } else { Some(h) });
    }
    let n_atoms = rng.index(cfg.max_atoms + 1);
    let atoms = (0..n_atoms)
        .flat_map(|_| gen_atom(rng, cfg, dims, n_params))
        .collect();
    GenConj { lo, hi, atoms }
}

/// Shared parameter list for one case: names plus concrete test bindings.
fn gen_params(rng: &mut Rng, cfg: &OracleConfig) -> Vec<(String, i64)> {
    let names = ["N", "K"];
    let n = rng.index(cfg.max_params + 1);
    (0..n)
        .map(|i| (names[i % names.len()].to_string(), rng.range(-3, 6)))
        .collect()
}

fn gen_form(
    rng: &mut Rng,
    cfg: &OracleConfig,
    n_in: u32,
    n_out: u32,
    params: &[(String, i64)],
    force_bounds: bool,
) -> GenForm {
    let dims = (n_in + n_out) as usize;
    let n_conjs = 1 + rng.index(cfg.max_conjuncts);
    let conjs = (0..n_conjs)
        .map(|_| gen_conj(rng, cfg, dims, params.len(), force_bounds))
        .collect();
    GenForm {
        n_in,
        n_out,
        params: params.to_vec(),
        conjs,
    }
}

/// Generates a random bounded set of the given arity (public so the bench
/// binary and external harnesses can build custom campaigns).
pub fn gen_set(rng: &mut Rng, cfg: &OracleConfig, arity: u32) -> GenForm {
    let params = gen_params(rng, cfg);
    gen_form(rng, cfg, arity, 0, &params, false)
}

/// Generates a random bounded relation of the given arities.
pub fn gen_relation(rng: &mut Rng, cfg: &OracleConfig, n_in: u32, n_out: u32) -> GenForm {
    let params = gen_params(rng, cfg);
    gen_form(rng, cfg, n_in, n_out, &params, false)
}

/// Picks a (weighted) random arity: small tuples dominate, as in real
/// loop nests, and keep the membership window affordable.
fn gen_arity(rng: &mut Rng, cfg: &OracleConfig) -> u32 {
    let max = cfg.max_dims.max(1);
    match rng.index(10) {
        0..=3 => 1,
        4..=7 => 2.min(max),
        _ => 3.min(max),
    }
}

// ---------------------------------------------------------------------
// Cases, laws, verdicts
// ---------------------------------------------------------------------

/// The algebraic laws the oracle checks, by name.
pub const LAWS: &[&str] = &[
    "enumerate-ref",
    "union",
    "intersect",
    "subtract",
    "negate",
    "project",
    "gist",
    "convex-1d",
    "singleton-1d",
    "rel-inverse",
    "rel-compose",
    "rel-apply",
    "cached-equiv",
    "simplify-preserves",
    "dim-bounds",
    "display-roundtrip",
    "normalize-idempotent",
    "canonical-agree",
    "sat-agrees-with-projection",
    "refusal-leaves-no-trace",
];

/// One generated test case: a law plus the generated inputs it ran on.
#[derive(Clone, Debug)]
pub struct Case {
    /// The law name (one of [`LAWS`]).
    pub law: &'static str,
    /// The generated inputs, in law-specific order.
    pub inputs: Vec<GenForm>,
}

/// Outcome of checking one case.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// The law held on this case.
    Pass,
    /// The case hit a documented exactness limit (e.g. inexact negation)
    /// and the law does not apply; the payload names the reason.
    Skip(&'static str),
    /// The law was violated; the payload describes the first discrepancy.
    Fail(String),
}

/// A minimized failing case, printable and replayable.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The violated law.
    pub law: &'static str,
    /// The per-case generator seed (replay with [`run_seed`]).
    pub seed: u64,
    /// Minimized inputs as Omega-syntax strings.
    pub inputs: Vec<String>,
    /// Parameter bindings the failure was observed under.
    pub bindings: Vec<(String, i64)>,
    /// Description of the discrepancy.
    pub detail: String,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "law `{}` violated (case seed {}):", self.law, self.seed)?;
        for (i, s) in self.inputs.iter().enumerate() {
            writeln!(f, "  input[{i}]: {s}")?;
        }
        if !self.bindings.is_empty() {
            let b: Vec<String> = self
                .bindings
                .iter()
                .map(|(n, v)| format!("{n} = {v}"))
                .collect();
            writeln!(f, "  bindings: {}", b.join(", "))?;
        }
        write!(f, "  {}", self.detail)
    }
}

/// Generates a random case (law + inputs) from the rng stream.
pub fn gen_case(rng: &mut Rng, cfg: &OracleConfig) -> Case {
    let law = LAWS[rng.index(LAWS.len())];
    // Subtraction negates every conjunct of the subtrahend and distributes
    // the cross product, so its cost is exponential in conjunct/atom counts.
    // Composition/application eliminate the shared middle dimension, and
    // mixed stride moduli there trigger recursive splinter blowup. Keep all
    // of these laws on deliberately small forms.
    let small = OracleConfig {
        max_dims: cfg.max_dims.min(2),
        max_conjuncts: cfg.max_conjuncts.min(2),
        max_atoms: cfg.max_atoms.min(2),
        ..cfg.clone()
    };
    let cfg = if matches!(
        law,
        "subtract" | "cached-equiv" | "refusal-leaves-no-trace" | "rel-compose" | "rel-apply"
    ) {
        &small
    } else {
        cfg
    };
    let params = gen_params(rng, cfg);
    let inputs = match law {
        "union"
        | "intersect"
        | "subtract"
        | "gist"
        | "cached-equiv"
        | "refusal-leaves-no-trace" => {
            let arity = gen_arity(rng, cfg);
            vec![
                gen_form(rng, cfg, arity, 0, &params, false),
                gen_form(rng, cfg, arity, 0, &params, false),
            ]
        }
        "project" => {
            let arity = 2 + rng.index((cfg.max_dims.max(2) - 1) as usize) as u32;
            vec![gen_form(
                rng,
                cfg,
                arity.min(cfg.max_dims),
                0,
                &params,
                true,
            )]
        }
        "convex-1d" | "singleton-1d" => {
            vec![gen_form(rng, cfg, 1, 0, &[], true)]
        }
        "rel-inverse" => {
            vec![gen_form(rng, cfg, 1, 1, &params, false)]
        }
        "rel-compose" => {
            vec![
                gen_form(rng, cfg, 1, 1, &params, true),
                gen_form(rng, cfg, 1, 1, &params, true),
            ]
        }
        "rel-apply" => {
            vec![
                gen_form(rng, cfg, 1, 1, &params, true),
                gen_form(rng, cfg, 1, 0, &params, true),
            ]
        }
        _ => {
            let arity = gen_arity(rng, cfg);
            vec![gen_form(rng, cfg, arity, 0, &params, false)]
        }
    };
    Case { law, inputs }
}

/// All integer points of `[wlo, whi]^dims`, in lexicographic order.
fn window_points(wlo: i64, whi: i64, dims: usize) -> Vec<Vec<i64>> {
    let mut out = vec![Vec::new()];
    for _ in 0..dims {
        let mut next = Vec::with_capacity(out.len() * (whi - wlo + 1) as usize);
        for p in &out {
            for x in wlo..=whi {
                let mut q = p.clone();
                q.push(x);
                next.push(q);
            }
        }
        out = next;
    }
    out
}

fn window(cfg: &OracleConfig) -> (i64, i64) {
    (cfg.box_lo - cfg.window_pad, cfg.box_hi + cfg.window_pad)
}

/// Membership of a single conjunct, evaluated through a one-conjunct
/// relation that shares `rel`'s parameter table.
fn conjunct_member(rel: &Relation, c: &Conjunct, point: &[i64], params: &[(&str, i64)]) -> bool {
    let mut r = Relation::empty(rel.n_in(), rel.n_out());
    for p in rel.params() {
        r.ensure_param(p);
    }
    r.add_conjunct(c.clone());
    let (inp, outp) = point.split_at(rel.n_in() as usize);
    r.contains_pair(inp, outp, params)
}

/// Checks one case against the reference semantics.
///
/// This is deliberately a big dispatch on the law name so regression tests
/// and the shrinker can re-run exactly the same decision procedure.
pub fn check(case: &Case, cfg: &OracleConfig) -> Verdict {
    // A panic inside the decision procedure (or the operations under test)
    // is a violation like any other: catch it, turn it into a `Fail`, and
    // let the shrinker minimize the case exactly as it would a wrong
    // answer. Without this, one panicking seed aborts a whole campaign
    // with no minimized reproducer.
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check_inner(case, cfg)));
    match r {
        Ok(Ok(v)) => v,
        Ok(Err(msg)) => Verdict::Fail(msg),
        Err(payload) => Verdict::Fail(format!("panicked: {}", panic_message(&payload))),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn check_inner(case: &Case, cfg: &OracleConfig) -> Result<Verdict, String> {
    let (wlo, whi) = window(cfg);
    let inputs = &case.inputs;
    match case.law {
        "enumerate-ref" => {
            let a = &inputs[0];
            let sa = a.to_set()?;
            let binds = a.bindings();
            match sa.enumerate(&binds) {
                Err(OmegaError::Unbounded) => Ok(Verdict::Skip("unbounded")),
                Err(e) => Err(format!("enumerate failed: {e}")),
                Ok(pts) => {
                    let have: std::collections::BTreeSet<Vec<i64>> = pts.iter().cloned().collect();
                    for p in &pts {
                        if !a.eval(p) {
                            return Err(format!(
                                "enumerate produced non-member {p:?} of {}",
                                a.source()
                            ));
                        }
                    }
                    for w in window_points(wlo, whi, a.dims()) {
                        if a.eval(&w) && !have.contains(&w) {
                            return Err(format!("enumerate missed member {w:?} of {}", a.source()));
                        }
                    }
                    Ok(Verdict::Pass)
                }
            }
        }
        "union" | "intersect" => {
            let (a, b) = (&inputs[0], &inputs[1]);
            let (sa, sb) = (a.to_set()?, b.to_set()?);
            let binds = a.bindings();
            let r = if case.law == "union" {
                sa.union(&sb)
            } else {
                sa.intersection(&sb)
            };
            for w in window_points(wlo, whi, a.dims()) {
                let expect = if case.law == "union" {
                    a.eval(&w) || b.eval(&w)
                } else {
                    a.eval(&w) && b.eval(&w)
                };
                let got = r.contains(&w, &binds);
                if got != expect {
                    return Err(format!(
                        "{}: at {w:?} expected {expect}, got {got}",
                        case.law
                    ));
                }
            }
            Ok(Verdict::Pass)
        }
        "subtract" => {
            let (a, b) = (&inputs[0], &inputs[1]);
            let (sa, sb) = (a.to_set()?, b.to_set()?);
            let binds = a.bindings();
            let d = match sa.subtract(&sb) {
                Err(OmegaError::InexactNegation) => return Ok(Verdict::Skip("inexact negation")),
                Err(e) => return Err(format!("subtract failed: {e}")),
                Ok(d) => d,
            };
            for w in window_points(wlo, whi, a.dims()) {
                let expect = a.eval(&w) && !b.eval(&w);
                let got = d.contains(&w, &binds);
                if got != expect {
                    return Err(format!("subtract: at {w:?} expected {expect}, got {got}"));
                }
            }
            // Consistency: (A - B) ∪ (A ∩ B) == A. The symbolic equality
            // itself subtracts, so only attempt it when the operands are
            // small enough that the conjunct cross product stays tractable.
            let rebuilt = d.union(&sa.intersection(&sb));
            if rebuilt.as_relation().conjuncts().len() > 8 || sa.as_relation().conjuncts().len() > 8
            {
                return Ok(Verdict::Pass);
            }
            match rebuilt.equal(&sa) {
                Err(OmegaError::InexactNegation) => Ok(Verdict::Skip("inexact negation")),
                Err(e) => Err(format!("equality test failed: {e}")),
                Ok(true) => Ok(Verdict::Pass),
                Ok(false) => Err("(A - B) ∪ (A ∩ B) != A".to_string()),
            }
        }
        "negate" => {
            let a = &inputs[0];
            let sa = a.to_set()?;
            let rel = sa.as_relation();
            let binds = a.bindings();
            for c in rel.conjuncts() {
                let negs = match negate_conjunct(c) {
                    Err(OmegaError::InexactNegation) => {
                        return Ok(Verdict::Skip("inexact negation"))
                    }
                    Err(e) => return Err(format!("negate failed: {e}")),
                    Ok(n) => n,
                };
                for w in window_points(wlo, whi, a.dims()) {
                    let inside = conjunct_member(rel, c, &w, &binds);
                    let in_neg = negs.iter().any(|n| conjunct_member(rel, n, &w, &binds));
                    if inside == in_neg {
                        return Err(format!(
                            "negate: point {w:?} is in {} of conjunct and complement",
                            if inside { "both" } else { "neither" }
                        ));
                    }
                }
            }
            Ok(Verdict::Pass)
        }
        "project" => {
            let a = &inputs[0];
            let sa = a.to_set()?;
            let binds = a.bindings();
            // Deterministic interesting choice: keep all dims but the last,
            // in reverse order (exercises both elimination and reordering).
            let dims: Vec<u32> = (0..a.dims() as u32 - 1).rev().collect();
            let proj = sa.project_onto(&dims).map_err(|e| e.to_string())?;
            let full = window_points(wlo, whi, a.dims());
            for w in window_points(wlo, whi, dims.len()) {
                let expect = full.iter().any(|f| {
                    a.eval(f) && dims.iter().enumerate().all(|(i, &d)| f[d as usize] == w[i])
                });
                let got = proj.contains(&w, &binds);
                if got != expect {
                    return Err(format!(
                        "project onto {dims:?}: at {w:?} expected {expect}, got {got}"
                    ));
                }
            }
            Ok(Verdict::Pass)
        }
        "gist" => {
            let (s, c) = (&inputs[0], &inputs[1]);
            let (ss, sc) = (s.to_set()?, c.to_set()?);
            let binds = s.bindings();
            let g = ss.as_relation().gist(sc.as_relation());
            for w in window_points(wlo, whi, s.dims()) {
                if !c.eval(&w) {
                    continue; // gist is only constrained within the context
                }
                let expect = s.eval(&w);
                let got = g.contains_pair(&w, &[], &binds);
                if got != expect {
                    return Err(format!(
                        "gist: inside context at {w:?} expected {expect}, got {got}"
                    ));
                }
            }
            Ok(Verdict::Pass)
        }
        "convex-1d" => {
            let a = &inputs[0];
            let sa = a.to_set()?;
            let claim = match sa.is_convex_1d() {
                Err(OmegaError::InexactNegation) => return Ok(Verdict::Skip("inexact negation")),
                Err(e) => return Err(format!("is_convex_1d failed: {e}")),
                Ok(v) => v,
            };
            let members: Vec<i64> = (wlo..=whi).filter(|&x| a.eval(&[x])).collect();
            let has_hole = members.windows(2).any(|p| p[1] - p[0] > 1);
            // Parameter-free and fully boxed: the test is exact.
            if claim == has_hole {
                return Err(format!(
                    "convex-1d: is_convex_1d = {claim} but members {members:?}"
                ));
            }
            Ok(Verdict::Pass)
        }
        "singleton-1d" => {
            let a = &inputs[0];
            let sa = a.to_set()?;
            let claim = sa.is_singleton_1d().map_err(|e| e.to_string())?;
            let count = (wlo..=whi).filter(|&x| a.eval(&[x])).count();
            if claim != (count <= 1) {
                return Err(format!(
                    "singleton-1d: is_singleton_1d = {claim} but member count = {count}"
                ));
            }
            Ok(Verdict::Pass)
        }
        "rel-inverse" => {
            let r = &inputs[0];
            let rr = r.to_relation()?;
            let inv = rr.inverse();
            let binds = r.bindings();
            for w in window_points(wlo, whi, r.dims()) {
                let (i, o) = w.split_at(r.n_in as usize);
                let expect = r.eval(&w);
                let got = inv.contains_pair(o, i, &binds);
                if got != expect {
                    return Err(format!(
                        "rel-inverse: at {i:?}->{o:?} expected {expect}, got {got}"
                    ));
                }
            }
            Ok(Verdict::Pass)
        }
        "rel-compose" => {
            let (r, s) = (&inputs[0], &inputs[1]);
            let (rr, rs) = (r.to_relation()?, s.to_relation()?);
            let t = rr.then(&rs).map_err(|e| e.to_string())?;
            let binds = r.bindings();
            for i in wlo..=whi {
                for k in wlo..=whi {
                    let expect = (wlo..=whi).any(|j| r.eval(&[i, j]) && s.eval(&[j, k]));
                    let got = t.contains_pair(&[i], &[k], &binds);
                    if got != expect {
                        return Err(format!(
                            "rel-compose: at [{i}]->[{k}] expected {expect}, got {got}"
                        ));
                    }
                }
            }
            Ok(Verdict::Pass)
        }
        "rel-apply" => {
            let (r, x) = (&inputs[0], &inputs[1]);
            let rr = r.to_relation()?;
            let sx = x.to_set()?;
            let binds = r.bindings();
            let img = rr.apply(&sx).map_err(|e| e.to_string())?;
            for j in wlo..=whi {
                let expect = (wlo..=whi).any(|i| x.eval(&[i]) && r.eval(&[i, j]));
                let got = img.contains(&[j], &binds);
                if got != expect {
                    return Err(format!(
                        "rel-apply: image at [{j}] expected {expect}, got {got}"
                    ));
                }
            }
            let dom = rr.domain().map_err(|e| e.to_string())?;
            let rng_set = rr.range().map_err(|e| e.to_string())?;
            for i in wlo..=whi {
                let expect_d = (wlo..=whi).any(|j| r.eval(&[i, j]));
                if dom.contains(&[i], &binds) != expect_d {
                    return Err(format!("rel-apply: domain at [{i}] expected {expect_d}"));
                }
                let expect_r = (wlo..=whi).any(|j| r.eval(&[j, i]));
                if rng_set.contains(&[i], &binds) != expect_r {
                    return Err(format!("rel-apply: range at [{i}] expected {expect_r}"));
                }
            }
            Ok(Verdict::Pass)
        }
        "cached-equiv" => {
            let (a, b) = (&inputs[0], &inputs[1]);
            let binds = a.bindings();
            let (sa, sb) = (a.to_set()?, b.to_set()?);
            // Symmetric difference, once with a fresh context armed around
            // each set operation, once in the thread's context (warm from
            // every law checked on this thread before); both must agree
            // with the reference.
            let per_op = || -> Result<Set, OmegaError> {
                let ab = cold(|| sa.subtract(&sb))?;
                Ok(ab.union(&cold(|| sb.subtract(&sa))?))
            };
            let mut answers = Vec::new();
            for d in [per_op(), symmetric_difference(&sa, &sb)] {
                match d {
                    Err(OmegaError::InexactNegation) => {
                        return Ok(Verdict::Skip("inexact negation"))
                    }
                    Err(e) => return Err(format!("symmetric difference failed: {e}")),
                    Ok(d) => answers.push(d),
                }
            }
            for w in window_points(wlo, whi, a.dims()) {
                let expect = a.eval(&w) != b.eval(&w);
                let c = cold(|| answers[0].contains(&w, &binds));
                let h = answers[1].contains(&w, &binds);
                if c != expect || h != expect {
                    return Err(format!(
                        "cached-equiv: at {w:?} expected {expect}, fresh contexts {c}, warm {h}"
                    ));
                }
            }
            Ok(Verdict::Pass)
        }
        "simplify-preserves" => {
            let a = &inputs[0];
            let sa = a.to_set()?;
            let binds = a.bindings();
            let mut sb = sa.clone();
            sb.simplify();
            for w in window_points(wlo, whi, a.dims()) {
                let expect = a.eval(&w);
                let got = sb.contains(&w, &binds);
                if got != expect {
                    return Err(format!(
                        "simplify-preserves: at {w:?} expected {expect}, got {got}"
                    ));
                }
            }
            Ok(Verdict::Pass)
        }
        "dim-bounds" => {
            let a = &inputs[0];
            let sa = a.to_set()?;
            let binds = a.bindings();
            for d in 0..a.dims() {
                let (lo, hi) = sa.dim_bounds(d as u32, &binds).map_err(|e| e.to_string())?;
                for w in window_points(wlo, whi, a.dims()) {
                    if !a.eval(&w) {
                        continue;
                    }
                    if let Some(l) = lo {
                        if w[d] < l {
                            return Err(format!(
                                "dim-bounds: dim {d} reported lo {l} but member {w:?} is below"
                            ));
                        }
                    }
                    if let Some(h) = hi {
                        if w[d] > h {
                            return Err(format!(
                                "dim-bounds: dim {d} reported hi {h} but member {w:?} is above"
                            ));
                        }
                    }
                }
            }
            Ok(Verdict::Pass)
        }
        "display-roundtrip" => {
            let a = &inputs[0];
            let sa = a.to_set()?;
            let binds = a.bindings();
            let printed = sa.to_string();
            let back: Set = printed
                .parse()
                .map_err(|e| format!("display output failed to re-parse: {e}: {printed}"))?;
            for w in window_points(wlo, whi, a.dims()) {
                let expect = sa.contains(&w, &binds);
                let got = back.contains(&w, &binds);
                if got != expect {
                    return Err(format!(
                        "display-roundtrip: at {w:?} original {expect}, reparsed {got}: {printed}"
                    ));
                }
            }
            Ok(Verdict::Pass)
        }
        "normalize-idempotent" => {
            let a = &inputs[0];
            let sa = a.to_set()?;
            for c in sa.as_relation().conjuncts() {
                let mut once = c.clone();
                once.normalize();
                // Rebuild from the normalized constraints so the once-flag
                // is clear and `normalize` actually re-derives.
                let mut twice = Conjunct::new();
                for e in once.eqs() {
                    twice.add_eq(e.clone());
                }
                for e in once.geqs() {
                    twice.add_geq(e.clone());
                }
                twice.normalize();
                if twice != once {
                    return Err(format!(
                        "normalize is not idempotent: {once:?} re-normalized to {twice:?}"
                    ));
                }
            }
            Ok(Verdict::Pass)
        }
        "canonical-agree" => {
            let a = &inputs[0];
            let sa = a.to_set()?;
            let ctx = Context::new();
            for c in sa.as_relation().conjuncts() {
                let canon = c.canonical();
                let mut n = c.clone();
                n.normalize();
                if n != canon {
                    return Err(format!("canonical() disagrees with normalize() on {c:?}"));
                }
                if canon.canonical() != canon {
                    return Err(format!("canonical form is not a fixed point: {canon:?}"));
                }
                // A deliberately messy respelling — scaled constraints in
                // reversed order plus one duplicate — must reach the same
                // canonical form and the same interned identity.
                let mut messy = Conjunct::new();
                for e in c.geqs().iter().rev() {
                    messy.add_geq(e.scaled(2));
                }
                for e in c.eqs().iter().rev() {
                    messy.add_eq(e.scaled(3));
                }
                if let Some(e) = c.geqs().first() {
                    messy.add_geq(e.clone());
                }
                if messy.canonical() != canon {
                    return Err(format!(
                        "respelled conjunct canonicalized differently: {messy:?} vs {canon:?}"
                    ));
                }
                if ctx.intern_conjunct(&messy) != ctx.intern_conjunct(c) {
                    return Err(format!("respelling interned to a distinct id: {c:?}"));
                }
            }
            Ok(Verdict::Pass)
        }
        "sat-agrees-with-projection" => {
            // The decision procedure (shadows first, splinters on demand)
            // against the exact projection path it no longer runs through.
            let sa = inputs[0].to_set()?;
            let conjs = sa.as_relation().conjuncts();
            let mut subjects = conjs.to_vec();
            for (i, a) in conjs.iter().enumerate() {
                for b in &conjs[i + 1..] {
                    let mut both = a.clone();
                    both.merge(b);
                    subjects.push(both);
                }
            }
            // Thin slabs `0 <= e <= 1` around non-unit inequalities: where
            // the real shadow has points and the integers may have none.
            for c in conjs {
                for e in c.geqs() {
                    if e.terms().any(|(_, k)| k.abs() > 1) {
                        let mut slab = c.clone();
                        slab.add_geq(LinExpr::constant(1) - e.clone());
                        subjects.push(slab);
                    }
                }
            }
            let mut decided = false;
            for c in &subjects {
                let expect = match nonempty_by_projection(c) {
                    Ok(Some(nonempty)) => nonempty,
                    Ok(None) | Err(OmegaError::Overflow(_)) => continue,
                    Err(e) => return Err(format!("projection failed: {e}")),
                };
                decided = true;
                for (how, got) in [
                    ("on a fresh context", cold(|| c.is_satisfiable())),
                    ("on a warm context", c.is_satisfiable()),
                ] {
                    if got != expect {
                        return Err(format!(
                            "{how} is_satisfiable says {got}, exact projection says {expect}: {c:?}"
                        ));
                    }
                }
            }
            Ok(if decided {
                Verdict::Pass
            } else {
                Verdict::Skip("projection left a congruence residue")
            })
        }
        "refusal-leaves-no-trace" => {
            // No verdict reached after a governor refusal is observable
            // later. The pipeline — symmetric difference, then the last
            // dimension projected out of every piece — runs on a context
            // under a governor that lets `fuel` operations through, the
            // governor goes away, and the same context must then answer
            // the same pipeline exactly as a context that never saw a
            // budget. Sweeping `fuel` walks the refusal through every
            // operation, the ones nested inside another's computation
            // included.
            let (a, b) = (&inputs[0], &inputs[1]);
            let binds = a.bindings();
            let last = Var::In(a.dims() as u32 - 1);
            let (sa, sb) = (a.to_set()?, b.to_set()?);
            let pipeline = |ctx: &Context, governor: Option<&RequestGovernor>| {
                let _armed = Request::new(ctx, governor, None).arm();
                symmetric_difference(&sa, &sb).and_then(|d| {
                    let mut projected = Vec::new();
                    for c in d.as_relation().conjuncts() {
                        projected.extend(c.eliminate_exact(last)?);
                    }
                    Ok((d, projected))
                })
            };
            let member = |ctx: &Context, d: &Set, w: &[i64]| {
                let _armed = Request::new(ctx, None, None).arm();
                d.contains(w, &binds)
            };
            let counted = RequestGovernor::new(&Budget::new(), None);
            let fresh_ctx = Context::new();
            let fresh = pipeline(&fresh_ctx, Some(&counted));
            let (fresh, fresh_projected) = match fresh {
                Err(OmegaError::InexactNegation) => return Ok(Verdict::Skip("inexact negation")),
                Err(OmegaError::Overflow(_)) => return Ok(Verdict::Skip("overflow")),
                Err(e) => return Err(format!("ungoverned pipeline failed: {e}")),
                Ok(r) => r,
            };
            let ops = counted.stats().ops_charged;
            for fuel in (0..ops).step_by((ops / 16).max(1) as usize) {
                let ctx = Context::new();
                let governor = RequestGovernor::new(&Budget::new().op_fuel(fuel), None);
                // Refused or degraded: either way it is not compared.
                let _ = pipeline(&ctx, Some(&governor));
                let (after, after_projected) = pipeline(&ctx, None)
                    .map_err(|e| format!("fuel {fuel}: the rerun after the refusal failed: {e}"))?;
                if after_projected != fresh_projected {
                    return Err(format!(
                        "fuel {fuel}: projection after a refusal {after_projected:?}, \
                         on a fresh context {fresh_projected:?}"
                    ));
                }
                for w in window_points(wlo, whi, a.dims()) {
                    let expect = a.eval(&w) != b.eval(&w);
                    let f = member(&fresh_ctx, &fresh, &w);
                    let r = member(&ctx, &after, &w);
                    if f != expect || r != expect {
                        return Err(format!(
                            "fuel {fuel}: at {w:?} expected {expect}, fresh {f}, after a refusal {r}"
                        ));
                    }
                }
            }
            Ok(Verdict::Pass)
        }
        other => Err(format!("unknown law `{other}`")),
    }
}

/// Non-emptiness of `c` by projection alone: exactly eliminates every
/// variable with [`Conjunct::eliminate_exact`] until only constant
/// constraints are left (which normalization decides). `None` when a piece
/// keeps variables that elimination cannot remove — an equality all of
/// whose variables have non-unit coefficients stays behind as its own
/// congruence witness.
fn nonempty_by_projection(c: &Conjunct) -> Result<Option<bool>, OmegaError> {
    let mut pieces = vec![c.clone()];
    for _round in 0..4 {
        let vars: BTreeSet<Var> = pieces.iter().flat_map(Conjunct::all_vars).collect();
        if vars.is_empty() {
            break;
        }
        for v in vars {
            let mut next = Vec::new();
            for p in &pieces {
                next.extend(p.eliminate_exact(v)?);
            }
            pieces = next;
        }
    }
    // A variable-free piece normalizes to the universe (a false one was
    // dropped along the way); anything else still carries a residue.
    Ok(if pieces.iter().any(Conjunct::is_universe) {
        Some(true)
    } else if pieces.is_empty() {
        Some(false)
    } else {
        None
    })
}

/// `(A - B) ∪ (B - A)` through the fallible subtraction path.
/// Runs `f` with a fresh context armed on the thread: what an operation
/// computes with no memo entry to draw on.
fn cold<T>(f: impl FnOnce() -> T) -> T {
    let _armed = Request::new(&Context::new(), None, None).arm();
    f()
}

fn symmetric_difference(a: &Set, b: &Set) -> Result<Set, OmegaError> {
    Ok(a.subtract(b)?.union(&b.subtract(a)?))
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// Greedy counterexample minimization: repeatedly applies the first
/// structural simplification (drop a conjunct, drop an atom, zero or halve
/// a coefficient, drop a parameter, narrow a box bound) that keeps the law
/// failing, until none helps.
pub fn shrink(case: &Case, cfg: &OracleConfig) -> Case {
    let mut cur = case.clone();
    let mut budget = 2000usize;
    loop {
        let mut improved = false;
        for cand in candidates(&cur) {
            if budget == 0 {
                return cur;
            }
            budget -= 1;
            if matches!(check(&cand, cfg), Verdict::Fail(_)) {
                cur = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return cur;
        }
    }
}

fn candidates(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    for (fi, form) in case.inputs.iter().enumerate() {
        let mut push = |f: GenForm| {
            let mut c = case.clone();
            c.inputs[fi] = f;
            out.push(c);
        };
        // Drop a conjunct.
        if form.conjs.len() > 1 {
            for ci in 0..form.conjs.len() {
                let mut f = form.clone();
                f.conjs.remove(ci);
                push(f);
            }
        }
        for (ci, conj) in form.conjs.iter().enumerate() {
            // Drop an atom.
            for ai in 0..conj.atoms.len() {
                let mut f = form.clone();
                f.conjs[ci].atoms.remove(ai);
                push(f);
            }
            // Shrink coefficients and constants toward zero.
            for (ai, atom) in conj.atoms.iter().enumerate() {
                let (coeffs, pcoeffs, k) = match atom {
                    GenAtom::Cmp {
                        coeffs, pcoeffs, k, ..
                    }
                    | GenAtom::Stride {
                        coeffs, pcoeffs, k, ..
                    } => (coeffs, pcoeffs, *k),
                };
                for (d, &c) in coeffs.iter().enumerate() {
                    if c != 0 {
                        for nv in [0, c / 2] {
                            if nv == c {
                                continue;
                            }
                            let mut f = form.clone();
                            match &mut f.conjs[ci].atoms[ai] {
                                GenAtom::Cmp { coeffs, .. } | GenAtom::Stride { coeffs, .. } => {
                                    coeffs[d] = nv;
                                }
                            }
                            push(f);
                        }
                    }
                }
                for (d, &c) in pcoeffs.iter().enumerate() {
                    if c != 0 {
                        let mut f = form.clone();
                        match &mut f.conjs[ci].atoms[ai] {
                            GenAtom::Cmp { pcoeffs, .. } | GenAtom::Stride { pcoeffs, .. } => {
                                pcoeffs[d] = 0;
                            }
                        }
                        push(f);
                    }
                }
                if k != 0 {
                    for nv in [0, k / 2] {
                        if nv == k {
                            continue;
                        }
                        let mut f = form.clone();
                        match &mut f.conjs[ci].atoms[ai] {
                            GenAtom::Cmp { k, .. } | GenAtom::Stride { k, .. } => *k = nv,
                        }
                        push(f);
                    }
                }
            }
            // Narrow box bounds.
            for d in 0..form.dims() {
                if let (Some(l), Some(h)) = (conj.lo[d], conj.hi[d]) {
                    if l < h {
                        let mut f = form.clone();
                        f.conjs[ci].lo[d] = Some(l + 1);
                        push(f);
                        let mut f = form.clone();
                        f.conjs[ci].hi[d] = Some(h - 1);
                        push(f);
                    }
                }
            }
        }
        // Drop a parameter (and its coefficient column everywhere).
        for pi in 0..form.params.len() {
            let mut f = form.clone();
            f.params.remove(pi);
            for conj in &mut f.conjs {
                for atom in &mut conj.atoms {
                    match atom {
                        GenAtom::Cmp { pcoeffs, .. } | GenAtom::Stride { pcoeffs, .. } => {
                            if pi < pcoeffs.len() {
                                pcoeffs.remove(pi);
                            }
                        }
                    }
                }
            }
            push(f);
        }
    }
    out
}

// ---------------------------------------------------------------------
// The fuzz driver
// ---------------------------------------------------------------------

/// Per-law tallies of a fuzz run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LawTally {
    /// Cases generated for this law.
    pub runs: u64,
    /// Cases skipped at a documented exactness limit.
    pub skips: u64,
    /// Cases that violated the law.
    pub fails: u64,
}

/// Summary of a [`fuzz`] campaign.
#[derive(Clone, Debug, Default)]
pub struct FuzzOutcome {
    /// Iterations actually executed (may be under the request when the
    /// time budget or failure cap is hit).
    pub iterations: u64,
    /// Total skipped cases.
    pub skips: u64,
    /// Minimized failures, in discovery order.
    pub failures: Vec<Counterexample>,
    /// Per-law tallies.
    pub per_law: BTreeMap<&'static str, LawTally>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl FuzzOutcome {
    /// True if no law was violated.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

fn stop_early(t0: Instant, budget: Option<Duration>) -> bool {
    budget.is_some_and(|b| t0.elapsed() >= b)
}

/// Runs the case derived from one per-case seed, returning its law and
/// verdict (the replay entry point: a failure report's seed goes here).
pub fn run_seed(case_seed: u64, cfg: &OracleConfig) -> (Case, Verdict) {
    let mut rng = Rng::new(case_seed);
    let case = gen_case(&mut rng, cfg);
    let verdict = check(&case, cfg);
    (case, verdict)
}

/// Runs a fuzz campaign: `iters` random cases from the master `seed`,
/// stopping early when `time_budget` elapses or `max_failures` minimized
/// counterexamples have been collected.
pub fn fuzz(
    seed: u64,
    iters: u64,
    time_budget: Option<Duration>,
    cfg: &OracleConfig,
    max_failures: usize,
) -> FuzzOutcome {
    fuzz_threads(seed, iters, time_budget, cfg, max_failures, 1)
}

/// [`fuzz`] sharded over `threads` worker threads.
///
/// The per-case seeds are derived from the master `seed` up front, so the
/// case at index `i` is identical to the one the serial campaign would run
/// — each failure's replay seed stays valid. Verdicts are merged back in
/// seed order, so a full run (no budget/failure-cap early exit) reports
/// the same counterexamples as `threads = 1`. Under an early exit the
/// parallel run may have checked a few cases past the cutoff; those extra
/// verdicts are discarded during the in-order merge.
pub fn fuzz_threads(
    seed: u64,
    iters: u64,
    time_budget: Option<Duration>,
    cfg: &OracleConfig,
    max_failures: usize,
    threads: usize,
) -> FuzzOutcome {
    let t0 = Instant::now();
    let mut master = Rng::new(seed);
    let seeds: Vec<u64> = (0..iters).map(|_| master.next_u64()).collect();
    let verdicts = if threads <= 1 || seeds.len() <= 1 {
        seeds
            .iter()
            .map(|&s| {
                if stop_early(t0, time_budget) {
                    None
                } else {
                    Some(run_seed(s, cfg))
                }
            })
            .collect::<Vec<_>>()
    } else {
        use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
        use std::sync::Mutex;
        let next = AtomicUsize::new(0);
        let fails = AtomicU64::new(0);
        let slots: Vec<Mutex<Option<(Case, Verdict)>>> =
            seeds.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= seeds.len()
                        || stop_early(t0, time_budget)
                        || fails.load(Ordering::Relaxed) >= max_failures as u64
                    {
                        break;
                    }
                    let (case, verdict) = run_seed(seeds[i], cfg);
                    if matches!(verdict, Verdict::Fail(_)) {
                        fails.fetch_add(1, Ordering::Relaxed);
                    }
                    *slots[i].lock().expect("oracle slot") = Some((case, verdict));
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("oracle slot"))
            .collect()
    };

    let mut out = FuzzOutcome::default();
    for (case_seed, result) in seeds.into_iter().zip(verdicts) {
        let Some((case, verdict)) = result else { break };
        out.iterations += 1;
        let tally = out.per_law.entry(case.law).or_default();
        tally.runs += 1;
        match verdict {
            Verdict::Pass => {}
            Verdict::Skip(_) => {
                tally.skips += 1;
                out.skips += 1;
            }
            Verdict::Fail(_) => {
                tally.fails += 1;
                let small = shrink(&case, cfg);
                let detail = match check(&small, cfg) {
                    Verdict::Fail(d) => d,
                    // Shrinking is re-checked on acceptance, so this arm is
                    // unreachable; keep the original case if it ever fires.
                    _ => String::from("(shrunk case no longer fails; reporting unshrunk)"),
                };
                out.failures.push(Counterexample {
                    law: small.law,
                    seed: case_seed,
                    inputs: small.inputs.iter().map(GenForm::source).collect(),
                    bindings: small
                        .inputs
                        .first()
                        .map(|f| f.params.clone())
                        .unwrap_or_default(),
                    detail,
                });
                if out.failures.len() >= max_failures {
                    break;
                }
            }
        }
    }
    out.elapsed = t0.elapsed();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_sources_parse() {
        let cfg = OracleConfig::default();
        let mut rng = Rng::new(42);
        for _ in 0..50 {
            let arity = gen_arity(&mut rng, &cfg);
            let f = gen_set(&mut rng, &cfg, arity);
            f.to_set().expect("generated set parses");
            let r = gen_relation(&mut rng, &cfg, 1, 1);
            r.to_relation().expect("generated relation parses");
        }
    }

    #[test]
    fn reference_eval_matches_omega_on_simple_case() {
        let cfg = OracleConfig::default();
        let mut rng = Rng::new(7);
        let f = gen_set(&mut rng, &cfg, 1);
        let s = f.to_set().unwrap();
        let binds = f.bindings();
        for x in -6..=10i64 {
            assert_eq!(
                s.contains(&[x], &binds),
                f.eval(&[x]),
                "x = {x} of {}",
                f.source()
            );
        }
    }

    #[test]
    fn panicking_case_is_a_shrinkable_failure() {
        // Mismatched arities make the union law panic inside the library
        // ("union: arity mismatch"). check() must catch the unwind and
        // report a Fail like any other violation, and shrink() must be
        // able to re-check candidates without aborting the campaign.
        let form = |arity: u32| GenForm {
            n_in: arity,
            n_out: 0,
            params: vec![],
            conjs: vec![GenConj {
                lo: vec![Some(0); arity as usize],
                hi: vec![Some(3); arity as usize],
                atoms: vec![],
            }],
        };
        let case = Case {
            law: "union",
            inputs: vec![form(1), form(2)],
        };
        let cfg = OracleConfig::default();
        let v = check(&case, &cfg);
        match &v {
            Verdict::Fail(msg) => assert!(msg.contains("panicked"), "got: {msg}"),
            other => panic!("expected Fail, got {other:?}"),
        }
        let small = shrink(&case, &cfg);
        assert!(matches!(check(&small, &cfg), Verdict::Fail(_)));
    }

    #[test]
    fn smoke_fuzz_runs_clean() {
        // A tiny deterministic campaign; the full corpus runs in CI via the
        // oracle_fuzz binary.
        let cfg = OracleConfig::default();
        let out = fuzz(1, 60, None, &cfg, 3);
        assert_eq!(out.iterations, 60);
        for f in &out.failures {
            eprintln!("{f}");
        }
        assert!(out.ok(), "laws violated: {}", out.failures.len());
    }
}
