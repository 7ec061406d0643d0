//! Conjunctions of affine equality/inequality constraints with existentials.
//!
//! A [`Conjunct`] is the convex-with-congruences building block of a
//! [`Relation`](crate::Relation): a conjunction of `e = 0` and `e >= 0`
//! constraints over parameters, tuple variables, and existentially
//! quantified variables. Non-convex sets are unions of conjuncts.
//!
//! The key algorithms here are exact *integer* variable elimination:
//! equality elimination via Pugh's symmetric-modulus substitution, and
//! inequality elimination via Fourier–Motzkin with the Omega test's dark
//! shadow and splinter sets, so that projections remain exact over Z.

use crate::context::{self, with_request, Request};
use crate::linexpr::LinExpr;
use crate::num::{floor_div, modulo, try_mul, try_sub};
use crate::var::Var;
use crate::OmegaError;
use std::collections::BTreeSet;

/// A conjunction of constraints: all `eqs` are `= 0`, all `geqs` are `>= 0`.
///
/// Existential variables `Var::Exist(0..n_exist)` are local to the conjunct.
///
/// # Examples
///
/// ```
/// use dhpf_omega::{Conjunct, LinExpr, Var};
/// // { [i] : 1 <= i <= 10 }
/// let mut c = Conjunct::new();
/// c.add_geq(LinExpr::var(Var::In(0)) - LinExpr::constant(1));
/// c.add_geq(LinExpr::constant(10) - LinExpr::var(Var::In(0)));
/// assert!(c.is_satisfiable());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Conjunct {
    n_exist: u32,
    eqs: Vec<LinExpr>,
    geqs: Vec<LinExpr>,
    /// Normalized-form flag: `true` iff the conjunct is known to be a
    /// fixed point of [`normalize`](Self::normalize). Maintained by the
    /// mutators, read by `normalize`/`canonical` to skip re-derivation,
    /// and excluded from `Eq`/`Ord`/`Hash` (it is a cache, not content).
    norm: bool,
}

impl PartialEq for Conjunct {
    fn eq(&self, other: &Self) -> bool {
        self.n_exist == other.n_exist && self.eqs == other.eqs && self.geqs == other.geqs
    }
}

impl Eq for Conjunct {}

impl std::hash::Hash for Conjunct {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.n_exist.hash(state);
        self.eqs.hash(state);
        self.geqs.hash(state);
    }
}

impl PartialOrd for Conjunct {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Conjunct {
    /// Deterministic structural order (constraints first, then the
    /// existential count), used to sort a relation's conjuncts into a
    /// canonical sequence without formatting them to strings.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.eqs
            .cmp(&other.eqs)
            .then_with(|| self.geqs.cmp(&other.geqs))
            .then_with(|| self.n_exist.cmp(&other.n_exist))
    }
}

/// Result of normalizing a conjunct: either still possibly satisfiable, or
/// proven empty by a trivial contradiction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Normalized {
    /// No trivial contradiction was found.
    Consistent,
    /// The conjunct is provably empty.
    False,
}

impl Conjunct {
    /// Creates the unconstrained (universe) conjunct.
    pub fn new() -> Self {
        Conjunct::default()
    }

    /// Number of existential variables in use.
    pub fn n_exist(&self) -> u32 {
        self.n_exist
    }

    /// The equality constraints (`expr = 0`).
    pub fn eqs(&self) -> &[LinExpr] {
        &self.eqs
    }

    /// The inequality constraints (`expr >= 0`).
    pub fn geqs(&self) -> &[LinExpr] {
        &self.geqs
    }

    /// A canonical copy for hash-consing, by way of
    /// [`normalize`](Self::normalize): conjuncts that differ only in
    /// constraint order, repetition, scaling, slack constants, or
    /// trailing unused existentials share one interned identity (and one
    /// memo-cache entry). Conjuncts `normalize` proves empty all map to
    /// the single canonical false form ([`is_false`](Self::is_false)).
    ///
    /// There is exactly one canonicalization discipline: this is the
    /// same transformation `normalize` applies in place, so the parser,
    /// the ops-layer producers, and the arena all agree on identity.
    pub fn canonical(&self) -> Conjunct {
        let mut c = self.clone();
        c.normalize();
        c
    }

    /// Whether this conjunct is already a fixed point of
    /// [`normalize`](Self::normalize) (and therefore of
    /// [`canonical`](Self::canonical)).
    pub fn is_normalized(&self) -> bool {
        self.norm
    }

    /// Whether this is the canonical false conjunct (`-1 >= 0`) that
    /// every trivially-contradictory conjunct normalizes to.
    pub fn is_false(&self) -> bool {
        self.eqs.is_empty()
            && self.geqs.len() == 1
            && self.geqs[0].is_constant()
            && self.geqs[0].constant_term() == -1
    }

    /// Rewrites the conjunct into the canonical false form: no
    /// equalities, the single inequality `-1 >= 0`, no existentials.
    /// Every conjunct [`normalize`](Self::normalize) proves empty takes
    /// this one shape, so all of them intern to one arena id.
    fn set_false(&mut self) {
        self.eqs.clear();
        self.geqs.clear();
        self.geqs.push(LinExpr::constant(-1));
        self.n_exist = 0;
        self.norm = true;
    }

    /// Adds the constraint `e = 0`.
    pub fn add_eq(&mut self, e: LinExpr) {
        self.norm = false;
        self.note_exists(&e);
        self.eqs.push(e);
    }

    /// Adds the constraint `e >= 0`.
    pub fn add_geq(&mut self, e: LinExpr) {
        self.norm = false;
        self.note_exists(&e);
        self.geqs.push(e);
    }

    /// Adds the pair `lo <= v <= hi` for convenience.
    pub fn add_bounds(&mut self, v: Var, lo: i64, hi: i64) {
        self.add_geq(LinExpr::var(v) - LinExpr::constant(lo));
        self.add_geq(LinExpr::constant(hi) - LinExpr::var(v));
    }

    /// Allocates a fresh existential variable.
    pub fn fresh_exist(&mut self) -> Var {
        self.norm = false;
        let v = Var::Exist(self.n_exist);
        self.n_exist += 1;
        v
    }

    /// Adds the congruence `e ≡ 0 (mod k)` via a fresh existential.
    ///
    /// # Panics
    ///
    /// Panics if `k <= 0`.
    pub fn add_stride(&mut self, e: LinExpr, k: i64) {
        assert!(k > 0, "stride modulus must be positive, got {k}");
        if k == 1 {
            return;
        }
        let alpha = self.fresh_exist();
        let mut c = e;
        c.add_term(alpha, -k);
        self.add_eq(c);
    }

    fn note_exists(&mut self, e: &LinExpr) {
        if let Some(m) = e.max_exist() {
            self.n_exist = self.n_exist.max(m + 1);
        }
    }

    /// All variables (including existentials) mentioned by the constraints.
    pub fn all_vars(&self) -> BTreeSet<Var> {
        let mut s = BTreeSet::new();
        for e in self.eqs.iter().chain(&self.geqs) {
            s.extend(e.vars());
        }
        s
    }

    /// Returns `true` if `v` occurs in any constraint.
    pub fn mentions(&self, v: Var) -> bool {
        self.eqs.iter().chain(&self.geqs).any(|e| e.coeff(v) != 0)
    }

    /// Renames all variables through `f` (must be injective).
    pub fn rename<F: Fn(Var) -> Var>(&self, f: F) -> Conjunct {
        let mut c = Conjunct::new();
        for e in &self.eqs {
            c.add_eq(e.rename(&f));
        }
        for e in &self.geqs {
            c.add_geq(e.rename(&f));
        }
        c.n_exist = c.n_exist.max(self.n_exist);
        c
    }

    /// Conjoins `other` into `self`, renumbering `other`'s existentials so
    /// they do not collide.
    pub fn merge(&mut self, other: &Conjunct) {
        self.norm = false;
        let off = self.n_exist;
        if off == 0 || other.n_exist == 0 {
            // No renumbering needed: either we have no existentials to
            // collide with, or `other` has none to shift.
            self.eqs.extend_from_slice(&other.eqs);
            self.geqs.extend_from_slice(&other.geqs);
            self.n_exist = off.max(other.n_exist);
            return;
        }
        let remap = |v: Var| match v {
            Var::Exist(i) => Var::Exist(i + off),
            v => v,
        };
        for e in &other.eqs {
            self.eqs.push(e.rename(remap));
        }
        for e in &other.geqs {
            self.geqs.push(e.rename(remap));
        }
        self.n_exist = off + other.n_exist;
    }

    /// Conjoins `other`'s constraints verbatim — no existential
    /// renumbering. The caller guarantees the two sides' existential
    /// indices are already disjoint (or deliberately shared); taking
    /// `other` by value lets the expressions move without cloning.
    pub fn conjoin_raw(&mut self, other: Conjunct) {
        self.norm = false;
        self.eqs.extend(other.eqs);
        self.geqs.extend(other.geqs);
        self.n_exist = self.n_exist.max(other.n_exist);
    }

    /// Substitutes `v := repl` in every constraint.
    pub fn substitute(&mut self, v: Var, repl: &LinExpr) {
        self.norm = false;
        self.note_exists(repl);
        for e in self.eqs.iter_mut().chain(self.geqs.iter_mut()) {
            e.substitute(v, repl);
        }
    }

    /// Binds several variables to constants (partial evaluation).
    pub fn bind<F: Fn(Var) -> Option<i64>>(&self, lookup: F) -> Conjunct {
        let mut c = Conjunct::new();
        for e in &self.eqs {
            c.add_eq(e.partial_eval(&lookup));
        }
        for e in &self.geqs {
            c.add_geq(e.partial_eval(&lookup));
        }
        c.n_exist = self.n_exist;
        c
    }

    /// Normalizes constraints in place into the canonical form used for
    /// hash-consing: divides by coefficient GCDs (tightening inequalities
    /// over Z), canonicalizes equality signs, drops tautologies, promotes
    /// opposing inequalities to equalities, sorts and deduplicates, keeps
    /// only the tightest of parallel inequalities, trims trailing unused
    /// existentials, and detects trivial contradictions (rewriting the
    /// conjunct to the canonical false form, so all trivially-empty
    /// conjuncts are structurally identical).
    ///
    /// Normalization happens exactly once: the result is flagged
    /// ([`is_normalized`](Self::is_normalized)) and re-normalizing is a
    /// constant-time no-op until the conjunct is mutated again.
    pub fn normalize(&mut self) -> Normalized {
        if self.norm {
            return if self.is_false() {
                Normalized::False
            } else {
                Normalized::Consistent
            };
        }
        let mut ok = true;
        self.eqs.retain_mut(|e| {
            let g = e.coeff_gcd();
            if g == 0 {
                if e.constant_term() != 0 {
                    ok = false;
                }
                return false; // constant eq: tautology or contradiction
            }
            if e.constant_term() % g != 0 {
                ok = false; // e.g. 2x + 1 = 0 has no integer solution
                return true;
            }
            if g > 1 {
                e.div_exact_coeffs(g);
            }
            // Canonical sign: leading coefficient positive.
            if matches!(e.terms().next(), Some((_, c)) if c < 0) {
                e.negate_in_place();
            }
            true
        });
        if !ok {
            self.set_false();
            return Normalized::False;
        }
        self.geqs.retain_mut(|e| {
            let g = e.coeff_gcd();
            if g == 0 {
                if e.constant_term() < 0 {
                    ok = false;
                }
                return false;
            }
            if g > 1 {
                // g*f + c >= 0  <=>  f + floor(c/g) >= 0 over the integers.
                e.tighten_by_gcd(g);
            }
            true
        });
        if !ok {
            self.set_false();
            return Normalized::False;
        }
        // Opposing inequalities e >= 0 and -e >= 0 become the equality e = 0;
        // e >= 0 and -e - k >= 0 (k > 0) is a contradiction. (On overflow,
        // `opposing_sum` returns `None` and the pair is conservatively kept
        // as two inequalities.)
        let mut i = 0;
        while i < self.geqs.len() {
            let mut j = i + 1;
            let mut promoted = false;
            while j < self.geqs.len() {
                if let Some(c) = self.geqs[i].opposing_sum(&self.geqs[j]) {
                    if c < 0 {
                        self.set_false();
                        return Normalized::False;
                    }
                    if c == 0 {
                        self.geqs.remove(j);
                        let mut e = self.geqs.remove(i);
                        // The equality-sign pass above already ran, so give
                        // the promoted equality its canonical sign here:
                        // without this, {x >= 5, x <= 5} yields `x - 5 = 0`
                        // or `-x + 5 = 0` depending on insertion order.
                        if matches!(e.terms().next(), Some((_, c)) if c < 0) {
                            e.negate_in_place();
                        }
                        self.eqs.push(e);
                        promoted = true;
                        break;
                    }
                }
                j += 1;
            }
            if !promoted {
                i += 1;
            }
        }
        self.eqs.sort();
        self.eqs.dedup();
        self.geqs.sort();
        self.geqs.dedup();
        // Keep only the tightest of parallel inequalities (same coefficients,
        // different constants). `dedup_by` hands the closure the *later*
        // element first and the retained earlier one second; after the sort,
        // the earlier one has the smaller constant — the tighter bound —
        // so a non-negative delta means the later one is implied.
        self.geqs
            .dedup_by(|b, a| b.constant_delta(a).is_some_and(|d| d >= 0));
        // Trim trailing unused existentials so conjuncts that differ only
        // in dead quantifier slots are structurally identical. (Indices of
        // *used* existentials are never renumbered: callers hold `Var`s.)
        self.n_exist = self
            .eqs
            .iter()
            .chain(&self.geqs)
            .filter_map(LinExpr::max_exist)
            .max()
            .map_or(0, |m| m + 1);
        self.norm = true;
        Normalized::Consistent
    }

    /// Returns `true` if the conjunct has no constraints at all.
    pub fn is_universe(&self) -> bool {
        self.eqs.is_empty() && self.geqs.is_empty()
    }

    /// Decides satisfiability exactly over the integers, treating *all*
    /// variables (parameters included) as unknowns.
    ///
    /// This is the Omega test: equality elimination with coefficient
    /// reduction, then Fourier–Motzkin with dark shadow and splinters. The
    /// result is memoized per distinct conjunct structure in the context
    /// armed on the calling thread (see [`Request`]), and the eliminations
    /// performed along the way
    /// share its projection cache.
    ///
    /// This is the form for *analysis* callers, where "satisfiable" is the
    /// sound conservative answer: once the governor refuses an operation
    /// the degraded `true` never lets the compiler skip communication or
    /// drop a piece. Code generation must use
    /// [`try_is_satisfiable`](Self::try_is_satisfiable) instead.
    pub fn is_satisfiable(&self) -> bool {
        self.try_is_satisfiable().unwrap_or(true)
    }

    /// Exact-or-fail form of [`is_satisfiable`](Self::is_satisfiable):
    /// where the governed variant degrades to a conservative `true` after
    /// a budget trip, this one surfaces the trip as an error. Use it
    /// wherever a spurious "satisfiable" is *unsound* — e.g. pruning
    /// pieces before loop-bound emission in code generation, where a
    /// retained empty piece widens hull bounds into phantom iterations.
    ///
    /// # Errors
    ///
    /// Returns the governor's refusal (a spent budget or an injected fault)
    /// when the thread's governor refuses the operation or any operation
    /// inside the decision.
    pub fn try_is_satisfiable(&self) -> Result<bool, OmegaError> {
        context::cached_sat_strict(self, || self.sat_uncached())
    }

    /// The Omega test as a *decision*: equalities are substituted away,
    /// variables bounded on one side only are dropped, exact
    /// Fourier–Motzkin steps project, and an inexact step asks its dark
    /// and real shadows first and splinters only when they disagree.
    ///
    /// `Err` is a governor refusal (spent budget or injected fault)
    /// somewhere inside the decision: no verdict was reached, and the
    /// caller must not memoize one. Coefficient overflow and the fuel cap
    /// are properties of the conjunct and answer a conservative
    /// `Ok(true)` (sound for emptiness tests, which only trust `false`).
    fn sat_uncached(&self) -> Result<bool, OmegaError> {
        match with_request(|cx| self.decide_sat(cx)) {
            Err(OmegaError::Overflow(_)) => Ok(true),
            verdict => verdict,
        }
    }

    /// The work-list loop behind [`sat_uncached`](Self::sat_uncached);
    /// every error, overflow included, propagates.
    fn decide_sat(&self, cx: &Request) -> Result<bool, OmegaError> {
        let mut work = vec![self.clone()];
        let mut fuel: u64 = 200_000;
        while let Some(mut c) = work.pop() {
            if fuel == 0 {
                // Fuel exhaustion is conservative: report satisfiable.
                return Ok(true);
            }
            fuel = fuel.saturating_sub(1);
            if c.normalize() == Normalized::False {
                continue;
            }
            match c.pick_sat_step() {
                SatStep::Done => {
                    // No variables left; normalize() already validated the
                    // constant constraints.
                    return Ok(true);
                }
                SatStep::SubstituteUnit(idx, v) => {
                    if c.substitute_from_eq(idx, v) {
                        work.push(c);
                    }
                }
                SatStep::ModhatReduce(idx, v) => {
                    c.modhat_reduce(idx, v);
                    work.push(c);
                }
                SatStep::DropOneSided(v) => {
                    c.drop_one_sided(v, cx)?;
                    work.push(c);
                }
                SatStep::Project(v) => work.extend(c.eliminate_exact(v)?),
                SatStep::Shadows(v) => {
                    let (bounds, real, dark) = c.shadows_on(v, cx)?;
                    // A point of the dark shadow extends to an integer
                    // `v`; no point of the real shadow extends to any.
                    // Only between the two do the splinters decide, and
                    // they keep their pin equality: the equality steps
                    // above dispose of it without a projection.
                    if dark.try_is_satisfiable()? {
                        return Ok(true);
                    }
                    if real.try_is_satisfiable()? {
                        work.extend(bounds.splinters()?);
                    }
                }
            }
        }
        Ok(false)
    }

    /// Chooses the next satisfiability-preserving reduction step.
    fn pick_sat_step(&self) -> SatStep {
        // Prefer a variable with a unit coefficient in an equality.
        for (i, e) in self.eqs.iter().enumerate() {
            for (v, c) in e.terms() {
                if c.abs() == 1 {
                    return SatStep::SubstituteUnit(i, v);
                }
            }
        }
        // Then reduce any equality with variables (Pugh's symmetric-modulus
        // step; coefficients shrink until a unit appears).
        for (i, e) in self.eqs.iter().enumerate() {
            if let Some(v) = e.terms().min_by_key(|&(_, c)| c.abs()).map(|(v, _)| v) {
                return SatStep::ModhatReduce(i, v);
            }
        }
        // Then the inequality variable with the cheapest FME cost.
        let cost = |v: Var| {
            let lowers = self.geqs.iter().filter(|e| e.coeff(v) > 0).count();
            let uppers = self.geqs.iter().filter(|e| e.coeff(v) < 0).count();
            lowers * uppers
        };
        let Some(v) = self.all_vars().into_iter().min_by_key(|&v| cost(v)) else {
            return SatStep::Done;
        };
        if cost(v) == 0 {
            SatStep::DropOneSided(v)
        } else if self.geqs.iter().any(|e| e.coeff(v) > 1)
            && self.geqs.iter().any(|e| e.coeff(v) < -1)
        {
            SatStep::Shadows(v)
        } else {
            SatStep::Project(v)
        }
    }

    /// Drops `v`, which no equality mentions and which is bounded on one
    /// side only: projecting it away deletes its inequalities and forms no
    /// combination, so nothing is interned or memoized — the step is only
    /// charged and sampled.
    fn drop_one_sided(&mut self, v: Var, cx: &Request) -> Result<(), OmegaError> {
        let _op = cx.one_sided_drop(self)?;
        self.norm = false; // removal can orphan the trailing-exist trim
        self.geqs.retain(|e| e.coeff(v) == 0);
        Ok(())
    }

    /// The inexact Fourier–Motzkin step of the satisfiability loop: the
    /// bounds on `v` with their real and dark shadows, counted by the
    /// context as one projection.
    fn shadows_on(
        self,
        v: Var,
        cx: &Request,
    ) -> Result<(BoundsOn, Conjunct, Conjunct), OmegaError> {
        let _op = cx.shadow_step(&self)?;
        let bounds = self.split_bounds(v);
        let real = bounds.shadow(false)?;
        let dark = bounds.shadow(true)?;
        Ok((bounds, real, dark))
    }

    /// Substitutes `v` away using equality `eqs[idx]` where `v` has a unit
    /// coefficient. Returns `false` if normalization finds a contradiction.
    fn substitute_from_eq(&mut self, idx: usize, v: Var) -> bool {
        let eq = self.eqs.remove(idx);
        let a = eq.coeff(v);
        debug_assert_eq!(a.abs(), 1);
        let mut rest = eq;
        rest.remove_term(v);
        let repl = rest.scaled(-a);
        self.substitute(v, &repl);
        self.normalize() != Normalized::False
    }

    /// One step of Pugh's symmetric-modulus equality reduction on
    /// `eqs[idx]`, whose minimum-coefficient variable is `v` (|coeff| > 1).
    /// Introduces a fresh existential and substitutes `v` away; the reduced
    /// equality's coefficients shrink, guaranteeing overall termination.
    fn modhat_reduce(&mut self, idx: usize, v: Var) {
        let eq = self.eqs[idx].clone();
        let a = eq.coeff(v);
        debug_assert!(a.abs() > 1);
        let m = a.abs() + 1;
        let sigma = self.fresh_exist();
        let mut neweq = LinExpr::term(sigma, -m);
        for (w, cw) in eq.terms() {
            neweq.add_term(w, modhat(cw, m));
        }
        neweq.add_constant(modhat(eq.constant_term(), m));
        let cv = neweq.coeff(v);
        debug_assert_eq!(cv.abs(), 1, "modhat must give v a unit coefficient");
        let mut rest = neweq;
        rest.remove_term(v);
        let repl = rest.scaled(-cv);
        self.substitute(v, &repl);
    }

    /// Exactly eliminates `v`, returning a disjunction of conjuncts whose
    /// integer solutions project precisely onto the solutions of `self`
    /// with `v` removed. Tuple/parameter variables eliminated through
    /// congruences are replaced by fresh existentials. The projection is
    /// memoized per `(conjunct, var)` pair in the armed context.
    ///
    /// # Errors
    ///
    /// Returns [`OmegaError::Overflow`] if a Fourier–Motzkin combination,
    /// dark-shadow gap, or splinter bound overflows `i64` (memoized like a
    /// success, so a retried elimination stays cheap), and the governor's
    /// refusal when the thread's governor refuses the operation: a
    /// projection has no conservative answer to fall back on.
    pub fn eliminate_exact(&self, v: Var) -> Result<Vec<Conjunct>, OmegaError> {
        context::cached_eliminate(self, v, || self.eliminate_uncached(v))
    }

    fn eliminate_uncached(&self, v: Var) -> Result<Vec<Conjunct>, OmegaError> {
        let mut c = self.clone();
        if c.normalize() == Normalized::False {
            return Ok(Vec::new());
        }
        if !c.mentions(v) {
            return Ok(vec![c]);
        }
        // Equality path.
        if let Some(idx) = c.best_eq_for(v) {
            return c.eliminate_via_eq(idx, v);
        }
        c.eliminate_via_fme(v)
    }

    /// Index of the equality in which `v` has the smallest nonzero |coeff|.
    fn best_eq_for(&self, v: Var) -> Option<usize> {
        self.eqs
            .iter()
            .enumerate()
            .filter(|(_, e)| e.coeff(v) != 0)
            .min_by_key(|(_, e)| e.coeff(v).abs())
            .map(|(i, _)| i)
    }

    /// Eliminates `v` using equality `eqs[idx]`.
    fn eliminate_via_eq(mut self, idx: usize, v: Var) -> Result<Vec<Conjunct>, OmegaError> {
        self.norm = false; // constraints are edited in place below
        let eq = self.eqs[idx].clone();
        let a = eq.coeff(v);
        debug_assert_ne!(a, 0);
        if a.abs() == 1 {
            // v = -a * (eq - a*v)  since a*v + rest = 0 => v = -rest/a.
            let mut rest = eq.clone();
            rest.remove_term(v);
            let repl = rest.try_scaled(-a)?; // a in {1,-1}: -rest/a == -a*rest
            self.eqs.remove(idx);
            self.substitute(v, &repl);
            let mut out = self;
            if out.normalize() == Normalized::False {
                return Ok(Vec::new());
            }
            return Ok(vec![out]);
        }
        // |a| > 1: multiply-through elimination. Remove v from every *other*
        // constraint by exact linear combination with the defining equality
        // (a*v = -e); the defining equality itself then holds v as a pure
        // congruence witness (`exists v : a*v + e = 0`  <=>  `e ≡ 0 mod a`).
        let mut e_rest = eq.clone();
        e_rest.remove_term(v); // eq is a*v + e_rest = 0
        for (k, f) in self.eqs.iter_mut().enumerate() {
            if k == idx {
                continue;
            }
            let av = f.remove_term(v);
            if av == 0 {
                continue;
            }
            // a*f - av*(a*v + e_rest) = a*(f - av*v) - av*e_rest = 0
            let mut nf = f.try_scaled(a)?;
            nf.try_add_scaled(&e_rest, try_sub(0, av)?)?;
            *f = nf;
        }
        for h in self.geqs.iter_mut() {
            let av = h.remove_term(v);
            if av == 0 {
                continue;
            }
            // |a|*(av*v + h') >= 0 with a*v = -e_rest:
            //   a > 0:  -av*e_rest + a*h' >= 0
            //   a < 0:   av*e_rest - a*h' >= 0
            let mut nh = h.try_scaled(a.abs())?;
            nh.try_add_scaled(&e_rest, if a > 0 { try_sub(0, av)? } else { av })?;
            *h = nh;
        }
        // Re-home the witness: if v was a tuple or parameter variable, the
        // congruence must quantify a fresh existential instead.
        if !v.is_exist() {
            let alpha = self.fresh_exist();
            let i = self
                .eqs
                .iter()
                .position(|e| e.coeff(v) != 0)
                .expect("defining equality present");
            let c = self.eqs[i].remove_term(v);
            self.eqs[i].add_term(alpha, c);
        }
        if self.normalize() == Normalized::False {
            return Ok(Vec::new());
        }
        Ok(vec![self])
    }

    /// Eliminates `v` (appearing only in inequalities) exactly:
    /// dark shadow plus splinters.
    fn eliminate_via_fme(self, v: Var) -> Result<Vec<Conjunct>, OmegaError> {
        let bounds = self.split_bounds(v);
        if bounds.lowers.is_empty() || bounds.uppers.is_empty() {
            // v is unbounded on one side: projection drops its constraints.
            let mut out = bounds.base;
            if out.normalize() == Normalized::False {
                return Ok(Vec::new());
            }
            return Ok(vec![out]);
        }
        let mut results = Vec::new();
        let mut dark = bounds.shadow(true)?;
        if dark.normalize() != Normalized::False {
            results.push(dark);
        }
        if !bounds.is_exact() {
            for s in bounds.splinters()? {
                // Recurse: the pinned equality eliminates v exactly.
                results.extend(s.eliminate_exact(v)?);
            }
        }
        Ok(results)
    }

    /// Splits the inequalities on `v`, which no equality mentions, into
    /// its lower bounds, its upper bounds and the rest.
    fn split_bounds(mut self, v: Var) -> BoundsOn {
        let mut lowers = Vec::new();
        let mut uppers = Vec::new();
        let mut others = Vec::new();
        for e in self.geqs.drain(..) {
            let cv = e.coeff(v);
            let mut rest = e;
            rest.remove_term(v);
            if cv > 0 {
                lowers.push((cv, rest));
            } else if cv < 0 {
                uppers.push((-cv, rest));
            } else {
                others.push(rest);
            }
        }
        self.geqs = others;
        self.norm = false;
        BoundsOn {
            v,
            lowers,
            uppers,
            base: self,
        }
    }

    /// Removes constraints that are implied by `context` (the *gist*
    /// operation): the result, conjoined with `context`, equals
    /// `self ∧ context`. Memoized per `(self, context)` pair in the armed
    /// context.
    pub fn gist_given(&self, context: &Conjunct) -> Conjunct {
        context::cached_gist(self, context, || self.gist_uncached(context))
    }

    fn gist_uncached(&self, context: &Conjunct) -> Conjunct {
        let mut out = Conjunct::new();
        out.n_exist = self.n_exist;
        for e in &self.eqs {
            // e = 0 implied iff both e >= 0 and -e >= 0 are implied.
            if implied_by(context, e, true) {
                continue;
            }
            out.eqs.push(e.clone());
        }
        for e in &self.geqs {
            if implied_by(context, e, false) {
                continue;
            }
            out.geqs.push(e.clone());
        }
        out
    }

    /// Removes inequalities implied by the *other* constraints of this
    /// conjunct (redundancy elimination).
    ///
    /// The conjunct is taken to be satisfiable, as every conjunct
    /// [`Relation::simplify`](crate::Relation::simplify) keeps is. That is
    /// what lets a sole bound skip its test, and what lets each test see
    /// only the constraints connected to the inequality through shared
    /// variables: the remaining ones are satisfiable and share no variable
    /// with the test, so they cannot change its verdict, and two conjuncts
    /// that agree on that component ask the memo tables the same question.
    /// (On an empty conjunct the result is still equivalent; it may only
    /// keep more constraints.)
    pub fn remove_redundant(&mut self) {
        self.norm = false; // removal can orphan the trailing-exist trim
        let mut i = 0;
        while i < self.geqs.len() {
            if self.is_sole_bound(i) {
                i += 1;
                continue;
            }
            // geqs[i] is redundant iff (component ∧ geqs[i] <= -1) is unsat.
            let mut test = self.component(i);
            let mut neg = self.geqs[i].negated();
            neg.add_constant(-1);
            test.add_geq(neg);
            if !test.is_satisfiable() {
                self.geqs.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// The constraints other than `geqs[i]` that are connected to it,
    /// transitively, through shared variables (existentials and
    /// parameters included).
    fn component(&self, i: usize) -> Conjunct {
        let mut vars: BTreeSet<Var> = self.geqs[i].vars().collect();
        let mut in_eqs = vec![false; self.eqs.len()];
        let mut in_geqs = vec![false; self.geqs.len()];
        in_geqs[i] = true;
        let mut grew = true;
        while grew {
            grew = false;
            let all = (self.eqs.iter().zip(&mut in_eqs)).chain(self.geqs.iter().zip(&mut in_geqs));
            for (e, taken) in all {
                if !*taken && e.vars().any(|v| vars.contains(&v)) {
                    *taken = true;
                    vars.extend(e.vars());
                    grew = true;
                }
            }
        }
        let mut out = Conjunct::new();
        for (e, _) in self.eqs.iter().zip(&in_eqs).filter(|(_, &t)| t) {
            out.add_eq(e.clone());
        }
        for (k, e) in self.geqs.iter().enumerate() {
            if in_geqs[k] && k != i {
                out.add_geq(e.clone());
            }
        }
        out
    }

    /// Whether `geqs[i]` is the only bound, in its direction, on some
    /// variable that no equality mentions. Negating it leaves that variable
    /// bounded on one side only, so `rest ∧ ¬geqs[i]` is as satisfiable as
    /// the constraints that do not mention the variable — all of which the
    /// (satisfiable) conjunct itself implies. Such a bound is never
    /// redundant and needs no decision.
    fn is_sole_bound(&self, i: usize) -> bool {
        self.geqs[i].terms().any(|(v, c)| {
            !self.eqs.iter().any(|e| e.coeff(v) != 0)
                && !self
                    .geqs
                    .iter()
                    .enumerate()
                    .any(|(j, g)| j != i && g.coeff(v).signum() == c.signum())
        })
    }

    /// Evaluates membership of a full assignment of the *free* variables:
    /// substitutes and decides the remaining existential system exactly.
    pub fn contains<F: Fn(Var) -> Option<i64>>(&self, lookup: F) -> bool {
        let bound = self.bind(|v| if v.is_exist() { None } else { lookup(v) });
        bound.is_satisfiable()
    }
}

/// The inequalities of a conjunct split on one variable that occurs in no
/// equality: what Fourier–Motzkin combines, and what it leaves alone.
struct BoundsOn {
    v: Var,
    /// `(a, L)` for each `a*v + L >= 0` with `a > 0`.
    lowers: Vec<(i64, LinExpr)>,
    /// `(b, U)` for each `-b*v + U >= 0` with `b > 0`.
    uppers: Vec<(i64, LinExpr)>,
    /// Every constraint that does not mention `v`.
    base: Conjunct,
}

impl BoundsOn {
    /// Whether the dark shadow is already the exact projection: every pair
    /// of bounds either has a unit coefficient, or combines to a constant
    /// `a*U + b*L >= (a-1)(b-1)`, so its dark row holds wherever its real
    /// row does (`17p+1 <= x <= 17p+17` pins `17p` to a window of 17
    /// consecutive integers, one of which is a multiple of 17). Overflow
    /// counts as inexact.
    fn is_exact(&self) -> bool {
        let pair_exact = |a: i64, l: &LinExpr, b: i64, u: &LinExpr| -> Result<bool, OmegaError> {
            if a == 1 || b == 1 {
                return Ok(true);
            }
            let mut comb = u.try_scaled(a)?;
            comb.try_add_scaled(l, b)?;
            Ok(comb.is_constant() && comb.constant_term() >= try_mul(a - 1, b - 1)?)
        };
        self.lowers.iter().all(|(a, l)| {
            self.uppers
                .iter()
                .all(|(b, u)| pair_exact(*a, l, *b, u).unwrap_or(false))
        })
    }

    /// `base` plus one combination per pair of bounds: `a*U + b*L >= 0`
    /// for the real shadow, `a*U + b*L >= (a-1)(b-1)` for the dark one
    /// (the two agree on every pair with a unit coefficient).
    fn shadow(&self, dark: bool) -> Result<Conjunct, OmegaError> {
        let mut out = self.base.clone();
        for (a, l) in &self.lowers {
            for (b, u) in &self.uppers {
                // a*v >= -L and b*v <= U  =>  a*U + b*L >= 0
                let mut comb = u.try_scaled(*a)?;
                comb.try_add_scaled(l, *b)?;
                if dark && *a > 1 && *b > 1 {
                    comb.try_add_constant(try_sub(0, try_mul(*a - 1, *b - 1)?)?)?;
                }
                out.add_geq(comb);
            }
        }
        Ok(out)
    }

    /// The splinters, un-eliminated: any solution outside the dark shadow
    /// satisfies `a*v = -L + i` for some lower bound `(a, L)` with `a > 1`
    /// and `0 <= i <= (a*bmax - a - bmax) / bmax`, so each splinter is the
    /// original conjunct with one such equality pinned.
    fn splinters(&self) -> Result<Vec<Conjunct>, OmegaError> {
        let v = self.v;
        let mut whole = self.base.clone();
        for (a, l) in &self.lowers {
            let mut e = l.clone();
            e.add_term(v, *a);
            whole.add_geq(e);
        }
        for (b, u) in &self.uppers {
            let mut e = u.clone();
            e.add_term(v, -*b);
            whole.add_geq(e);
        }
        let bmax = self
            .uppers
            .iter()
            .map(|&(b, _)| b)
            .max()
            .expect("an inexact step has an upper bound");
        let mut out = Vec::new();
        for (a, l) in &self.lowers {
            if *a <= 1 {
                continue;
            }
            let imax = floor_div(try_sub(try_sub(try_mul(*a, bmax)?, *a)?, bmax)?, bmax);
            for i in 0..=imax {
                let mut s = whole.clone();
                let mut pin = l.clone();
                pin.add_term(v, *a);
                pin.try_add_constant(try_sub(0, i)?)?;
                s.add_eq(pin);
                out.push(s);
            }
        }
        Ok(out)
    }
}

/// `true` if constraint `e` (eq if `as_eq`) is implied by `context` within
/// the world of `subject`'s remaining constraints.
fn implied_by(context: &Conjunct, e: &LinExpr, as_eq: bool) -> bool {
    // e >= 0 implied by context  iff  context ∧ (e <= -1) unsat.
    let implied_geq = |expr: &LinExpr| {
        let mut test = context.clone();
        let mut neg = expr.negated();
        neg.add_constant(-1);
        test.add_geq(neg);
        !test.is_satisfiable()
    };
    if as_eq {
        implied_geq(e) && implied_geq(&e.negated())
    } else {
        implied_geq(e)
    }
}

/// One step of the satisfiability decision procedure.
#[derive(Clone, Copy, Debug)]
enum SatStep {
    /// All variables eliminated; the conjunct is satisfiable.
    Done,
    /// Substitute the unit-coefficient variable of the given equality.
    SubstituteUnit(usize, Var),
    /// Reduce the given equality's coefficients with a symmetric-modulus
    /// substitution of the given variable.
    ModhatReduce(usize, Var),
    /// Delete the inequalities of the given inequality-only variable,
    /// which is bounded on one side only.
    DropOneSided(Var),
    /// Project the given inequality-only variable away: every pair of its
    /// bounds has a unit coefficient, so the real shadow is exact.
    Project(Var),
    /// Decide by the real and dark shadows of the given inequality-only
    /// variable, and by its splinters when they disagree.
    Shadows(Var),
}

/// Symmetric modulus: `modhat(a, m) ≡ a (mod m)` with result in
/// `(-m/2, m/2]`.
fn modhat(a: i64, m: i64) -> i64 {
    let r = modulo(a, m);
    if 2 * r > m {
        r - m
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(n: u32) -> Var {
        Var::In(n)
    }

    fn e(terms: &[(Var, i64)], c: i64) -> LinExpr {
        LinExpr::from_terms(terms.iter().copied(), c)
    }

    #[test]
    fn modhat_properties() {
        for m in 2..8i64 {
            for a in -20..20i64 {
                let r = modhat(a, m);
                assert_eq!(modulo(a - r, m), 0, "a={a} m={m}");
                assert!(2 * r <= m && 2 * r > -m, "a={a} m={m} r={r}");
            }
        }
        // Key property used by equality elimination.
        assert_eq!(modhat(4, 5), -1);
        assert_eq!(modhat(-4, 5), 1);
    }

    #[test]
    fn normalize_tightens_inequalities() {
        // 2x - 3 >= 0  =>  x - 2 >= 0 (x >= ceil(3/2) = 2)
        let mut c = Conjunct::new();
        c.add_geq(e(&[(iv(0), 2)], -3));
        assert_eq!(c.normalize(), Normalized::Consistent);
        assert_eq!(c.geqs()[0], e(&[(iv(0), 1)], -2));
    }

    #[test]
    fn normalize_detects_integer_infeasible_equality() {
        // 2x + 1 = 0 has no integer solution.
        let mut c = Conjunct::new();
        c.add_eq(e(&[(iv(0), 2)], 1));
        assert_eq!(c.normalize(), Normalized::False);
    }

    #[test]
    fn normalize_promotes_opposing_inequalities() {
        let mut c = Conjunct::new();
        c.add_geq(e(&[(iv(0), 1)], -5)); // x >= 5
        c.add_geq(e(&[(iv(0), -1)], 5)); // x <= 5
        assert_eq!(c.normalize(), Normalized::Consistent);
        assert_eq!(c.eqs().len(), 1);
        assert!(c.geqs().is_empty());
    }

    #[test]
    fn satisfiable_simple_box() {
        let mut c = Conjunct::new();
        c.add_bounds(iv(0), 1, 10);
        c.add_bounds(iv(1), 5, 5);
        assert!(c.is_satisfiable());
    }

    #[test]
    fn unsatisfiable_empty_interval() {
        let mut c = Conjunct::new();
        c.add_bounds(iv(0), 10, 1);
        assert!(!c.is_satisfiable());
    }

    #[test]
    fn omega_test_catches_integer_holes() {
        // 2x = y, 3x = z, y = 1, z = 1 -> no integer solution
        let mut c = Conjunct::new();
        c.add_eq(e(&[(iv(0), 2), (iv(1), -1)], 0));
        c.add_eq(e(&[(iv(1), 1)], -1));
        assert!(!c.is_satisfiable());
    }

    #[test]
    fn dark_shadow_inexact_case() {
        // Classic: 0 <= 3x - 2 and 3x <= 4 -> x in [2/3, 4/3] -> x = 1. Sat.
        let mut c = Conjunct::new();
        c.add_geq(e(&[(iv(0), 3)], -2));
        c.add_geq(e(&[(iv(0), -3)], 4));
        assert!(c.is_satisfiable());
        // 3 <= 3x - ... : 3x in [4, 5] -> no integer x. Unsat.
        let mut c2 = Conjunct::new();
        c2.add_geq(e(&[(iv(0), 3)], -4)); // 3x >= 4
        c2.add_geq(e(&[(iv(0), -3)], 5)); // 3x <= 5
        assert!(!c2.is_satisfiable());
    }

    #[test]
    fn stride_constraints() {
        // { x : 0 <= x <= 10, x ≡ 0 mod 4, x ≡ 0 mod 3 } -> x in {0, 12...}
        // within bounds only x = 0; adding x >= 1 makes it unsat.
        let mut c = Conjunct::new();
        c.add_bounds(iv(0), 1, 10);
        c.add_stride(LinExpr::var(iv(0)), 4);
        c.add_stride(LinExpr::var(iv(0)), 3);
        assert!(!c.is_satisfiable());
        let mut c2 = Conjunct::new();
        c2.add_bounds(iv(0), 0, 12);
        c2.add_stride(LinExpr::var(iv(0)), 4);
        c2.add_stride(LinExpr::var(iv(0)), 3);
        assert!(c2.is_satisfiable());
    }

    #[test]
    fn eliminate_exact_projection_block_distribution() {
        // { a : exists p : 25p <= a <= 25p + 24, 0 <= p <= 3 } == [0, 99]
        // when a ranges over, say, [-10, 110].
        let p = Var::Exist(0);
        let a = iv(0);
        let mut c = Conjunct::new();
        c.n_exist = 1;
        c.add_geq(e(&[(a, 1), (p, -25)], 0)); // a - 25p >= 0
        c.add_geq(e(&[(a, -1), (p, 25)], 24)); // 25p + 24 - a >= 0
        c.add_bounds(p, 0, 3);
        let pieces = c.eliminate_exact(p).unwrap();
        assert!(!pieces.is_empty());
        for aval in -10..=110i64 {
            let member = pieces
                .iter()
                .any(|pc| pc.contains(|v| if v == a { Some(aval) } else { None }));
            assert_eq!(member, (0..=99).contains(&aval), "a = {aval}");
        }
    }

    #[test]
    fn contains_respects_existentials() {
        // { x : exists a : x = 2a } = even numbers
        let mut c = Conjunct::new();
        c.add_stride(LinExpr::var(iv(0)), 2);
        assert!(c.contains(|v| if v == iv(0) { Some(4) } else { None }));
        assert!(!c.contains(|v| if v == iv(0) { Some(5) } else { None }));
    }

    #[test]
    fn gist_removes_implied_constraints() {
        // gist (1 <= x <= 5) given (x >= 1) = (x <= 5)
        let mut g = Conjunct::new();
        g.add_bounds(iv(0), 1, 5);
        let mut ctx = Conjunct::new();
        ctx.add_geq(e(&[(iv(0), 1)], -1));
        let r = g.gist_given(&ctx);
        assert_eq!(r.geqs().len(), 1);
        assert_eq!(r.geqs()[0], e(&[(iv(0), -1)], 5));
    }

    #[test]
    fn remove_redundant_drops_loose_bound() {
        let mut c = Conjunct::new();
        c.add_geq(e(&[(iv(0), 1)], -5)); // x >= 5
        c.add_geq(e(&[(iv(0), 1)], 0)); // x >= 0 (redundant)
        c.remove_redundant();
        assert_eq!(c.geqs().len(), 1);
        assert_eq!(c.geqs()[0], e(&[(iv(0), 1)], -5));
    }

    #[test]
    fn merge_renumbers_existentials() {
        let mut a = Conjunct::new();
        a.add_stride(LinExpr::var(iv(0)), 2); // uses Exist(0)
        let mut b = Conjunct::new();
        b.add_stride(LinExpr::var(iv(0)), 3); // also Exist(0)
        a.merge(&b);
        assert_eq!(a.n_exist(), 2);
        // x must be divisible by 6 now.
        assert!(a.contains(|v| if v == iv(0) { Some(6) } else { None }));
        assert!(!a.contains(|v| if v == iv(0) { Some(4) } else { None }));
        assert!(!a.contains(|v| if v == iv(0) { Some(3) } else { None }));
    }

    #[test]
    fn equality_with_large_coeff_eliminated_exactly() {
        // 7x - 3y = 1, 1 <= x <= 10, 1 <= y <= 20: solutions (x,y) = (1,2), (4,9), (7,16)
        let mut c = Conjunct::new();
        c.add_eq(e(&[(iv(0), 7), (iv(1), -3)], -1));
        c.add_bounds(iv(0), 1, 10);
        c.add_bounds(iv(1), 1, 20);
        assert!(c.is_satisfiable());
        let mut sols = Vec::new();
        for x in 1..=10i64 {
            for y in 1..=20i64 {
                if c.contains(|v| match v {
                    Var::In(0) => Some(x),
                    Var::In(1) => Some(y),
                    _ => None,
                }) {
                    sols.push((x, y));
                }
            }
        }
        assert_eq!(sols, vec![(1, 2), (4, 9), (7, 16)]);
    }
}
