//! Loop-nest synthesis from integer sets (the Kelly–Pugh–Rosser
//! multiple-mappings code generation interface of the paper's Appendix B).
//!
//! `codegen(S1..Sv)` produces code that enumerates the tuples of the
//! given iteration spaces in lexicographic order, with the same tuple of
//! different statements ordered by statement index. Each statement's space
//! is first made *disjoint* (so no instance executes twice), reduced to
//! stride form (congruence-only existentials), and then a single shared
//! loop nest per level is emitted whose bounds are the union hull; piece
//! membership is enforced by guards, which a lifting pass hoists out of
//! loops they do not depend on.
//!
//! `codegen_cover` is the cheaper contract for consumers that treat the
//! visited tuples as a set (communication maps): one nest per stride-form
//! piece of an already-simplified set, with no disjointness pass, so a
//! tuple may be visited more than once.

use crate::ast::{Code, StmtId};
use crate::expr::{Cond, Expr};
use dhpf_omega::{to_stride_form, Conjunct, LinExpr, Set, Var};
use std::fmt;

/// One statement and its iteration space.
#[derive(Clone, Debug)]
pub struct Mapping {
    /// The statement to execute for each tuple.
    pub stmt: StmtId,
    /// Its iteration space.
    pub space: Set,
}

/// How many loop levels guards may be hoisted out of (the paper lifts one).
const LIFT_LEVELS: u32 = 1;

/// Options controlling code generation.
#[derive(Clone, Debug, Default)]
pub struct CodegenOptions {
    /// Emit one independent loop nest per disjoint piece instead of a
    /// single shared nest with membership guards. Tuples are then visited
    /// piece-by-piece, *not* in global lexicographic order — only valid
    /// when the caller knows iterations may be reordered (the
    /// loop-splitting sections of Figure 4). Per-iteration guard cost
    /// drops from O(pieces) to O(1).
    pub sequential_pieces: bool,
}

/// Errors reported by loop synthesis.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodegenError {
    /// A loop level has no constant or symbolic lower/upper bound.
    Unbounded {
        /// The 0-based loop level without a bound.
        level: u32,
    },
    /// A conjunct's existential system could not be reduced to strides.
    Inexact,
    /// The mappings disagree on arity.
    ArityMismatch,
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Unbounded { level } => {
                write!(f, "loop level {level} has no finite bound")
            }
            CodegenError::Inexact => write!(f, "existential system not reducible to strides"),
            CodegenError::ArityMismatch => write!(f, "iteration spaces have different arities"),
        }
    }
}

impl std::error::Error for CodegenError {}

/// Generates a loop nest enumerating `space`, executing `stmt` per tuple.
///
/// # Errors
///
/// See [`codegen`].
pub fn codegen_set(
    space: &Set,
    stmt: StmtId,
    names: &[&str],
    opts: &CodegenOptions,
) -> Result<Code, CodegenError> {
    codegen(
        &[Mapping {
            stmt,
            space: space.clone(),
        }],
        names,
        opts,
    )
}

/// Generates code enumerating every mapping's space in lexicographic order
/// (the paper's `Codegen(S1...Sv | Known)`, without the `Known` argument).
///
/// `names[d]` is the loop variable name for level `d`; parameter names come
/// from the sets themselves.
///
/// # Errors
///
/// - [`CodegenError::ArityMismatch`] if spaces disagree on arity or `names`
///   is shorter than the arity.
/// - [`CodegenError::Unbounded`] if some loop level has no bound.
/// - [`CodegenError::Inexact`] if stride-form reduction fails.
pub fn codegen(
    mappings: &[Mapping],
    names: &[&str],
    opts: &CodegenOptions,
) -> Result<Code, CodegenError> {
    if mappings.is_empty() {
        return Ok(Code::empty());
    }
    let arity = mappings[0].space.arity();
    if mappings.iter().any(|m| m.space.arity() != arity) || names.len() < arity as usize {
        return Err(CodegenError::ArityMismatch);
    }
    let mut pieces: Vec<Piece> = Vec::new();
    for (seq, m) in mappings.iter().enumerate() {
        let mut space = m.space.clone();
        space.simplify();
        // Disjoint disjunctive form. Every multi-piece producer in the set
        // algebra may return *overlapping* pieces — the conjuncts of the
        // input set itself, stride-form splitting, and the dark-shadow ∨
        // splinters of exact elimination — so each candidate stride-form
        // piece is subtracted against the union of everything emitted
        // before it. Subtracting a single conjunct yields pairwise-disjoint
        // pieces (the complement is built prefix-disjoint), which makes the
        // accumulated list disjoint by induction: the property the shared
        // loop nest needs to enumerate every tuple exactly once.
        let rel = space.as_relation();
        let params = rel.params().to_vec();
        let conjs = rel.conjuncts().to_vec();
        let mut emitted = Set::empty(arity).into_relation();
        for name in &params {
            emitted.ensure_param(name);
        }
        for c in conjs {
            for sf in to_stride_form(c).map_err(|_| CodegenError::Inexact)? {
                let mut cur = Set::empty(arity).into_relation();
                for name in &params {
                    cur.ensure_param(name);
                }
                cur.add_conjunct(sf.clone());
                let diff = Set::from_relation(cur)
                    .subtract(&Set::from_relation(emitted.clone()))
                    .map_err(|_| CodegenError::Inexact)?;
                for conj in diff.as_relation().conjuncts() {
                    pieces.push(Piece::new(m.stmt, seq, conj.clone(), &params, names));
                }
                emitted.add_conjunct(sf);
            }
        }
    }
    let code = if opts.sequential_pieces {
        one_nest_per_piece(pieces, arity, names)?
    } else {
        gen_level(&mut pieces, 0, arity, names)?
    };
    Ok(code.simplified().lift_guards(LIFT_LEVELS + arity))
}

/// Generates code that visits every tuple of `space` *at least* once,
/// executing `stmt` per visit: one loop nest per stride-form piece of each
/// of `space`'s conjuncts, run one after another.
///
/// Unlike [`codegen_set`] this runs no `simplify` and no subtraction, so
/// a tuple that lies in two overlapping conjuncts is visited twice, and
/// tuples are not visited in lexicographic order. The caller must pass a
/// simplified set (a raw conjunct may lack a loop bound and fail with
/// [`CodegenError::Unbounded`]) and must treat the visits as a set.
///
/// # Errors
///
/// As [`codegen`].
pub fn codegen_cover(space: &Set, stmt: StmtId, names: &[&str]) -> Result<Code, CodegenError> {
    let arity = space.arity();
    if names.len() < arity as usize {
        return Err(CodegenError::ArityMismatch);
    }
    let rel = space.as_relation();
    let params = rel.params();
    let mut pieces = Vec::new();
    for c in rel.conjuncts() {
        for sf in to_stride_form(c.clone()).map_err(|_| CodegenError::Inexact)? {
            pieces.push(Piece::new(stmt, 0, sf, params, names));
        }
    }
    let code = one_nest_per_piece(pieces, arity, names)?;
    Ok(code.simplified().lift_guards(LIFT_LEVELS + arity))
}

/// One independent loop nest per piece, in piece order.
fn one_nest_per_piece(
    pieces: Vec<Piece>,
    arity: u32,
    names: &[&str],
) -> Result<Code, CodegenError> {
    let mut seq = Vec::with_capacity(pieces.len());
    for p in pieces {
        seq.push(gen_level(&mut vec![p], 0, arity, names)?);
    }
    Ok(Code::Seq(seq))
}

/// A statement piece: one stride-form conjunct (disjoint from the other
/// pieces, except under [`codegen_cover`]) plus accumulated guards that
/// will be emitted at its leaf.
#[derive(Clone, Debug)]
struct Piece {
    stmt: StmtId,
    seq: usize,
    conj: Conjunct,
    params: Vec<String>,
    pending: Vec<Cond>,
}

impl Piece {
    /// A piece whose parameter-only constraints are already pending
    /// guards: they constrain no loop level, so they are tested at the
    /// leaf (and hoisted from there by `lift_guards`).
    fn new(stmt: StmtId, seq: usize, conj: Conjunct, params: &[String], names: &[&str]) -> Piece {
        let namer = Namer { names, params };
        let mut pending = Vec::new();
        for e in conj.eqs() {
            if deepest_level(e).is_some() {
                continue;
            }
            if !has_exist(e) {
                pending.push(Cond::Eq(namer.expr(e, 1), Expr::Const(0)));
            } else if let Some((g, f)) = congruence_parts(e) {
                if g > 1 {
                    pending.push(Cond::Stride {
                        expr: namer.expr(&f, 1),
                        modulus: g,
                        residue: 0,
                    });
                }
            }
        }
        for e in conj.geqs() {
            if deepest_level(e).is_none() {
                pending.push(Cond::Geq(namer.expr(e, 1), Expr::Const(0)));
            }
        }
        Piece {
            stmt,
            seq,
            conj,
            params: params.to_vec(),
            pending,
        }
    }
}

/// Deepest input-variable level mentioned by the expression, if any.
fn deepest_level(e: &LinExpr) -> Option<u32> {
    e.vars()
        .filter_map(|v| match v {
            Var::In(i) => Some(i),
            _ => None,
        })
        .max()
}

fn has_exist(e: &LinExpr) -> bool {
    e.vars().any(|v| v.is_exist())
}

/// For an equality with existential witnesses `Σ k_j·α_j + f = 0`, returns
/// `(g, f)` with `g = gcd(k_j)`: the constraint is `f ≡ 0 (mod g)`.
fn congruence_parts(e: &LinExpr) -> Option<(i64, LinExpr)> {
    let mut g: i64 = 0;
    let mut f = LinExpr::constant(e.constant_term());
    let mut any = false;
    for (v, c) in e.terms() {
        if v.is_exist() {
            any = true;
            g = dhpf_omega::num::gcd(g, c);
        } else {
            f.add_term(v, c);
        }
    }
    if any {
        Some((g.abs(), f))
    } else {
        None
    }
}

struct Namer<'a> {
    names: &'a [&'a str],
    params: &'a [String],
}

impl Namer<'_> {
    /// Translates `scale * e` into an [`Expr`] over loop/parameter names.
    ///
    /// # Panics
    ///
    /// Panics on output or existential variables (never present here).
    fn expr(&self, e: &LinExpr, scale: i64) -> Expr {
        let mut terms = Vec::new();
        for (v, c) in e.terms() {
            let name = match v {
                Var::In(i) => self.names[i as usize].to_string(),
                Var::Param(i) => self.params[i as usize].clone(),
                other => panic!("cannot name variable {other:?} in generated code"),
            };
            let k = c * scale;
            if k == 1 {
                terms.push(Expr::Var(name));
            } else {
                terms.push(Expr::Mul(k, Box::new(Expr::Var(name))));
            }
        }
        let konst = e.constant_term() * scale;
        if konst != 0 || terms.is_empty() {
            terms.push(Expr::Const(konst));
        }
        if terms.len() == 1 {
            terms.pop().unwrap()
        } else {
            Expr::Add(terms)
        }
    }
}

/// Bounds information for one piece at one loop level.
struct LevelInfo {
    lowers: Vec<Expr>,
    uppers: Vec<Expr>,
    /// Congruences on this level's variable: `(a*v + f) ≡ 0 (mod g)` kept as
    /// `(residue_expr, modulus)` when solvable for `v`, else raw guard.
    stride: Option<(Expr, i64)>,
    guards: Vec<Cond>,
}

/// Recovers hull bounds for level `d` by exactly projecting away the deeper
/// dimensions. Needed when redundancy elimination removed a direct bound
/// (e.g. `i <= N` implied by `i <= j && j <= N`); an over-approximate hull
/// bound is sound here because the deeper loops become empty outside the
/// true range.
fn recovered_bounds(
    piece: &Piece,
    d: u32,
    arity: u32,
    names: &[&str],
) -> (Option<Expr>, Option<Expr>) {
    let namer = Namer {
        names,
        params: &piece.params,
    };
    let mut work = vec![piece.conj.clone()];
    for deeper in (d + 1)..arity {
        let mut next = Vec::new();
        for c in work {
            // A failed projection (overflow, budget) means no bound can
            // be recovered; the caller turns that into `Unbounded`, which
            // the driver's degradation ladder handles.
            match c.eliminate_exact(Var::In(deeper)) {
                Ok(parts) => next.extend(parts),
                Err(_) => return (None, None),
            }
        }
        work = next;
    }
    // Normalize pieces to stride form so inequalities are witness-free,
    // and drop unsatisfiable residue (dark-shadow/splinter artifacts):
    // either would otherwise veto bound recovery.
    let mut normalized = Vec::new();
    for c in work {
        match to_stride_form(c) {
            Ok(parts) => normalized.extend(parts),
            Err(_) => return (None, None),
        }
    }
    let work = normalized;
    // Pruning must be exact: a conservatively-retained empty piece would
    // widen the recovered hull bounds into iterations the exact set never
    // contains (emitted bound code has no inner guard to mask them), and
    // a conservatively-dropped piece would lose real iterations.
    let mut pruned = Vec::with_capacity(work.len());
    for c in work {
        match c.try_is_satisfiable() {
            Ok(true) => pruned.push(c),
            Ok(false) => {}
            Err(_) => return (None, None),
        }
    }
    let work = pruned;
    let v = Var::In(d);
    let mut los: Vec<Expr> = Vec::new();
    let mut his: Vec<Expr> = Vec::new();
    for c in &work {
        let mut clo: Vec<Expr> = Vec::new();
        let mut chi: Vec<Expr> = Vec::new();
        for e in c.geqs() {
            let a = e.coeff(v);
            if a == 0 || e.vars().any(|w| matches!(w, Var::In(i) if i != d)) {
                continue;
            }
            if has_exist(e) {
                continue;
            }
            let mut rest = e.clone();
            rest.remove_term(v);
            if a > 0 {
                let b = namer.expr(&rest, -1);
                clo.push(if a == 1 {
                    b
                } else {
                    Expr::CeilDiv(Box::new(b), a)
                });
            } else {
                let b = namer.expr(&rest, 1);
                chi.push(if a == -1 {
                    b
                } else {
                    Expr::FloorDiv(Box::new(b), -a)
                });
            }
        }
        for e in c.eqs() {
            let a = e.coeff(v);
            if a == 0 || has_exist(e) {
                continue;
            }
            if e.vars().any(|w| matches!(w, Var::In(i) if i != d)) {
                continue;
            }
            let mut rest = e.clone();
            rest.remove_term(v);
            if a.abs() == 1 {
                let val = namer.expr(&rest, -a);
                clo.push(val.clone());
                chi.push(val);
            } else {
                // a*v = -rest: v is between ceil and floor of the exact
                // quotient; divisibility is enforced by the residual
                // constraint at its own level.
                let sign = if a > 0 { -1 } else { 1 };
                let q = namer.expr(&rest, sign);
                clo.push(Expr::CeilDiv(Box::new(q.clone()), a.abs()));
                chi.push(Expr::FloorDiv(Box::new(q), a.abs()));
            }
        }
        if !clo.is_empty() {
            los.push(Expr::Max(clo).simplified());
        }
        if !chi.is_empty() {
            his.push(Expr::Min(chi).simplified());
        }
    }
    let lo = if los.len() == work.len() && !los.is_empty() {
        Some(Expr::Min(los).simplified())
    } else {
        None
    };
    let hi = if his.len() == work.len() && !his.is_empty() {
        Some(Expr::Max(his).simplified())
    } else {
        None
    };
    (lo, hi)
}

/// Extracts bounds/strides/guards of `conj` for level `d`.
fn analyze_level(piece: &Piece, d: u32, names: &[&str]) -> LevelInfo {
    let namer = Namer {
        names,
        params: &piece.params,
    };
    let v = Var::In(d);
    let mut info = LevelInfo {
        lowers: Vec::new(),
        uppers: Vec::new(),
        stride: None,
        guards: Vec::new(),
    };
    for e in piece.conj.geqs() {
        if deepest_level(e) != Some(d) {
            continue;
        }
        let a = e.coeff(v);
        let mut rest = e.clone();
        rest.remove_term(v);
        if a > 0 {
            // a*v + rest >= 0  =>  v >= ceil(-rest / a)
            let bound = namer.expr(&rest, -1);
            info.lowers.push(if a == 1 {
                bound
            } else {
                Expr::CeilDiv(Box::new(bound), a)
            });
        } else if a < 0 {
            // -b*v + rest >= 0  =>  v <= floor(rest / b)
            let b = -a;
            let bound = namer.expr(&rest, 1);
            info.uppers.push(if b == 1 {
                bound
            } else {
                Expr::FloorDiv(Box::new(bound), b)
            });
        } else {
            unreachable!("deepest_level said {d} but coeff is zero");
        }
    }
    for e in piece.conj.eqs() {
        if deepest_level(e) != Some(d) {
            continue;
        }
        let a = e.coeff(v);
        debug_assert_ne!(a, 0);
        match congruence_parts(e) {
            None => {
                // a*v + rest = 0.
                let mut rest = e.clone();
                rest.remove_term(v);
                if a.abs() == 1 {
                    let val = namer.expr(&rest, -a); // v = -rest/a
                    info.lowers.push(val.clone());
                    info.uppers.push(val);
                } else {
                    // v = -rest/a with divisibility guard.
                    let sign = if a > 0 { -1 } else { 1 };
                    let val = Expr::FloorDiv(Box::new(namer.expr(&rest, sign)), a.abs());
                    info.guards.push(Cond::Stride {
                        expr: namer.expr(&rest, 1),
                        modulus: a.abs(),
                        residue: 0,
                    });
                    info.lowers.push(val.clone());
                    info.uppers.push(val);
                }
            }
            Some((g, f)) => {
                // (a*v + f_rest) ≡ 0 (mod g) where f = a*v + f_rest.
                if g <= 1 {
                    continue;
                }
                let a = f.coeff(v);
                let mut rest = f.clone();
                rest.remove_term(v);
                if a.abs() == 1 && info.stride.is_none() {
                    // v ≡ -a*rest (mod g): usable as a loop step.
                    let residue = Expr::Mod(Box::new(namer.expr(&rest, -a)), g);
                    info.stride = Some((residue, g));
                } else {
                    info.guards.push(Cond::Stride {
                        expr: namer.expr(&f, 1),
                        modulus: g,
                        residue: 0,
                    });
                }
            }
        }
    }
    info
}

fn gen_level(
    pieces: &mut Vec<Piece>,
    d: u32,
    arity: u32,
    names: &[&str],
) -> Result<Code, CodegenError> {
    if pieces.is_empty() {
        return Ok(Code::empty());
    }
    if d == arity {
        // Leaf: emit statements in source order, wrapped in their guards.
        let mut order: Vec<usize> = (0..pieces.len()).collect();
        order.sort_by_key(|&i| (pieces[i].seq, i));
        let mut out = Vec::new();
        for i in order {
            let p = &pieces[i];
            let cond = Cond::And(p.pending.clone()).simplified();
            let stmt = Code::Stmt(p.stmt);
            out.push(match cond {
                Cond::Bool(true) => stmt,
                c => Code::If {
                    cond: c,
                    body: Box::new(stmt),
                },
            });
        }
        return Ok(Code::Seq(out));
    }
    let mut infos: Vec<LevelInfo> = pieces.iter().map(|p| analyze_level(p, d, names)).collect();
    // Every piece needs both bounds at a loop level; recover missing ones by
    // projecting away the deeper dimensions.
    for (info, piece) in infos.iter_mut().zip(pieces.iter()) {
        if info.lowers.is_empty() || info.uppers.is_empty() {
            let (lo, hi) = recovered_bounds(piece, d, arity, names);
            if info.lowers.is_empty() {
                match lo {
                    Some(e) => info.lowers.push(e),
                    None => return Err(CodegenError::Unbounded { level: d }),
                }
            }
            if info.uppers.is_empty() {
                match hi {
                    Some(e) => info.uppers.push(e),
                    None => return Err(CodegenError::Unbounded { level: d }),
                }
            }
        }
    }
    let piece_lo: Vec<Expr> = infos
        .iter()
        .map(|i| Expr::Max(i.lowers.clone()).simplified())
        .collect();
    let piece_hi: Vec<Expr> = infos
        .iter()
        .map(|i| Expr::Min(i.uppers.clone()).simplified())
        .collect();
    let shared_lo = piece_lo.iter().all(|e| *e == piece_lo[0]);
    let shared_hi = piece_hi.iter().all(|e| *e == piece_hi[0]);
    let mut lo = if shared_lo {
        piece_lo[0].clone()
    } else {
        Expr::Min(piece_lo.clone()).simplified()
    };
    let hi = if shared_hi {
        piece_hi[0].clone()
    } else {
        Expr::Max(piece_hi.clone()).simplified()
    };
    // Stride: use a stepped loop only when every piece shares one stride.
    let mut step = 1i64;
    let strides: Vec<&Option<(Expr, i64)>> = infos.iter().map(|i| &i.stride).collect();
    if let Some((r0, m0)) = strides[0] {
        if strides
            .iter()
            .all(|s| matches!(s, Some((r, m)) if r == r0 && m == m0))
        {
            step = *m0;
            // Align the lower bound upward to the residue class:
            // lo' = lo + mod(r - lo, m).
            lo = Expr::Add(vec![
                lo.clone(),
                Expr::Mod(
                    Box::new(Expr::Add(vec![r0.clone(), Expr::Mul(-1, Box::new(lo))])),
                    *m0,
                ),
            ])
            .simplified();
        }
    }
    let var = names[d as usize].to_string();
    let vexpr = Expr::Var(var.clone());
    // Attach per-piece guards for this level.
    for (i, p) in pieces.iter_mut().enumerate() {
        if !shared_lo {
            p.pending
                .push(Cond::Geq(vexpr.clone(), piece_lo[i].clone()));
        }
        if !shared_hi {
            p.pending
                .push(Cond::Geq(piece_hi[i].clone(), vexpr.clone()));
        }
        if step == 1 {
            if let Some((r, m)) = &infos[i].stride {
                p.pending.push(Cond::Stride {
                    expr: Expr::Add(vec![vexpr.clone(), Expr::Mul(-1, Box::new(r.clone()))]),
                    modulus: *m,
                    residue: 0,
                });
            }
        }
        p.pending.extend(infos[i].guards.clone());
    }
    let body = gen_level(pieces, d + 1, arity, names)?;
    Ok(Code::Loop {
        var,
        lo,
        hi,
        step,
        body: Box::new(body),
    })
}
