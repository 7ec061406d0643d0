//! Sets of integer tuples — relations with no output tuple.

use crate::conjunct::Conjunct;
use crate::num::{ceil_div, floor_div};
use crate::relation::Relation;
use crate::var::Var;
use crate::OmegaError;

/// A symbolic set of integer `k`-tuples `{ [i..] : formula }`.
///
/// Thin, typed wrapper over a [`Relation`] with output arity zero; the set's
/// dimensions are the relation's input variables.
///
/// # Examples
///
/// ```
/// use dhpf_omega::Set;
/// let s: Set = "{[i, j] : 1 <= i <= N && 2 <= j <= i + 1}".parse()?;
/// assert!(s.contains(&[3, 4], &[("N", 10)]));
/// assert!(!s.contains(&[3, 5], &[("N", 10)]));
/// # Ok::<(), dhpf_omega::ParseError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Set {
    rel: Relation,
}

impl Set {
    /// The universe set of the given arity.
    pub fn universe(arity: u32) -> Self {
        Set {
            rel: Relation::universe(arity, 0),
        }
    }

    /// The empty set of the given arity.
    pub fn empty(arity: u32) -> Self {
        Set {
            rel: Relation::empty(arity, 0),
        }
    }

    /// Wraps a relation with no outputs as a set.
    ///
    /// # Panics
    ///
    /// Panics if `rel.n_out() != 0`.
    pub fn from_relation(rel: Relation) -> Self {
        assert_eq!(rel.n_out(), 0, "Set::from_relation: relation has outputs");
        Set { rel }
    }

    /// Views the set as a relation.
    pub fn as_relation(&self) -> &Relation {
        &self.rel
    }

    /// Unwraps into the underlying relation.
    pub fn into_relation(self) -> Relation {
        self.rel
    }

    /// Number of tuple dimensions.
    pub fn arity(&self) -> u32 {
        self.rel.n_in()
    }

    /// Set union.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    pub fn union(&self, other: &Set) -> Set {
        Set {
            rel: self.rel.union(&other.rel),
        }
    }

    /// Set intersection.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    pub fn intersection(&self, other: &Set) -> Set {
        Set {
            rel: self.rel.intersection(&other.rel),
        }
    }

    /// Set difference (exact).
    ///
    /// # Errors
    ///
    /// See [`Relation::subtract`].
    pub fn subtract(&self, other: &Set) -> Result<Set, OmegaError> {
        Ok(Set {
            rel: self.rel.subtract(&other.rel)?,
        })
    }

    /// True if the set has no members for any parameter values.
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }

    /// True if `self ⊆ other` for all parameter values.
    ///
    /// # Errors
    ///
    /// See [`Relation::is_subset_of`].
    pub fn is_subset_of(&self, other: &Set) -> Result<bool, OmegaError> {
        self.rel.is_subset_of(&other.rel)
    }

    /// True if the sets are equal for all parameter values.
    ///
    /// # Errors
    ///
    /// See [`Relation::equal`].
    pub fn equal(&self, other: &Set) -> Result<bool, OmegaError> {
        self.rel.equal(&other.rel)
    }

    /// Simplifies the representation in place (see [`Relation::simplify`]).
    pub fn simplify(&mut self) {
        self.rel.simplify();
    }

    /// Exact membership test under parameter bindings.
    ///
    /// # Panics
    ///
    /// Panics if the tuple length differs from the arity or a needed
    /// parameter is unbound.
    pub fn contains(&self, point: &[i64], params: &[(&str, i64)]) -> bool {
        self.rel.contains_pair(point, &[], params)
    }

    /// Projects the set onto the given dimensions (in the given order).
    ///
    /// # Errors
    ///
    /// Eliminates the dropped dimensions; fails as [`Relation::then`] does.
    ///
    /// # Panics
    ///
    /// Panics if a dimension index is out of range.
    pub fn project_onto(&self, dims: &[u32]) -> Result<Set, OmegaError> {
        let arity = self.arity();
        for &d in dims {
            assert!(d < arity, "project_onto: dim {d} out of range");
        }
        let mut rel = self.rel.clone();
        // Move the kept dims to Out positions, eliminate remaining Ins.
        let pos_of = |d: u32| dims.iter().position(|&x| x == d);
        let conjs: Vec<Conjunct> = rel
            .conjuncts()
            .iter()
            .map(|c| {
                c.rename(|v| match v {
                    Var::In(i) => match pos_of(i) {
                        Some(p) => Var::Out(p as u32),
                        None => Var::In(i),
                    },
                    v => v,
                })
            })
            .collect();
        *rel.conjuncts_mut() = conjs;
        let tmp = Relation::universe(arity, dims.len() as u32);
        let (mut a, _) = Relation::unify_params(rel, tmp);
        for i in 0..arity {
            if pos_of(i).is_none() {
                let mut out = Vec::new();
                for c in a.conjuncts() {
                    out.extend(c.eliminate_exact(Var::In(i))?);
                }
                *a.conjuncts_mut() = out;
            }
        }
        // Re-base: Out(p) -> In(p).
        let conjs: Vec<Conjunct> = a
            .conjuncts()
            .iter()
            .map(|c| {
                c.rename(|v| match v {
                    Var::Out(p) => Var::In(p),
                    v => v,
                })
            })
            .collect();
        let mut tmp = Relation::universe(dims.len() as u32, 0);
        for p in a.params() {
            tmp.ensure_param(p);
        }
        *tmp.conjuncts_mut() = conjs;
        tmp.simplify();
        Ok(Set { rel: tmp })
    }

    /// Constant bounds `[lo, hi]` of dimension `dim` after binding the given
    /// parameters, or `None` on the unbounded side(s).
    ///
    /// # Errors
    ///
    /// See [`Set::project_onto`].
    pub fn dim_bounds(
        &self,
        dim: u32,
        params: &[(&str, i64)],
    ) -> Result<(Option<i64>, Option<i64>), OmegaError> {
        let mut rel = self.rel.clone();
        for &(name, val) in params {
            rel = rel.specialize_param(name, val);
        }
        let proj = Set { rel }.project_onto(&[dim])?;
        let mut lo: Option<i64> = None;
        let mut hi: Option<i64> = None;
        let mut any = false;
        // Stride-form first: congruence-only existentials keep inequalities
        // witness-free, so every bound is directly readable.
        let mut conjs = Vec::new();
        for c in proj.rel.conjuncts() {
            match crate::ops::to_stride_form(c.clone()) {
                Ok(parts) => conjs.extend(parts),
                Err(_) => conjs.push(c.clone()),
            }
        }
        // An unbounded conjunct makes the whole union unbounded on that
        // side, permanently: the flags keep a later bounded conjunct from
        // resurrecting a finite bound (which would make `enumerate` silently
        // miss members of the unbounded disjunct).
        let mut lo_unbounded = false;
        let mut hi_unbounded = false;
        for c in &conjs {
            if !c.is_satisfiable() {
                continue;
            }
            any = true;
            let (clo, chi) = conjunct_1d_bounds(c);
            match clo {
                None => lo_unbounded = true,
                Some(b) => lo = Some(lo.map_or(b, |a: i64| a.min(b))),
            }
            match chi {
                None => hi_unbounded = true,
                Some(b) => hi = Some(hi.map_or(b, |a: i64| a.max(b))),
            }
        }
        if lo_unbounded {
            lo = None;
        }
        if hi_unbounded {
            hi = None;
        }
        if !any {
            // Empty set: report an empty interval.
            return Ok((Some(0), Some(-1)));
        }
        Ok((lo, hi))
    }

    /// Enumerates all members under the given parameter bindings.
    ///
    /// # Errors
    ///
    /// Returns [`OmegaError::Unbounded`] if some dimension has no constant
    /// lower or upper bound after binding the parameters, and the errors of
    /// [`Set::dim_bounds`].
    pub fn enumerate(&self, params: &[(&str, i64)]) -> Result<Vec<Vec<i64>>, OmegaError> {
        let arity = self.arity() as usize;
        if arity == 0 {
            let mut rel = self.rel.clone();
            for &(name, val) in params {
                rel = rel.specialize_param(name, val);
            }
            return Ok(if rel.is_satisfiable() {
                vec![Vec::new()]
            } else {
                Vec::new()
            });
        }
        let mut boxes = Vec::with_capacity(arity);
        for d in 0..arity {
            match self.dim_bounds(d as u32, params)? {
                (Some(lo), Some(hi)) => boxes.push(lo..=hi),
                _ => return Err(OmegaError::Unbounded),
            }
        }
        let mut out = Vec::new();
        let mut point = vec![0i64; arity];
        enumerate_rec(self, params, &boxes, &mut point, 0, &mut out);
        Ok(out)
    }

    /// True for a 1-D set that provably has no "holes" for any parameter
    /// values: there are no `x < y < z` with `x, z` members and `y` not.
    ///
    /// This is the compile-time `IsConvex` test of the paper's §3.3.
    ///
    /// # Errors
    ///
    /// Returns [`OmegaError::Arity`] if the arity is not 1, the errors of
    /// [`Set::subtract`] if the complement needed by the hole test cannot
    /// be formed, and the governor's refusal of the final emptiness test;
    /// callers (e.g. the in-place communication analysis) fall back to the
    /// paper's §3.3 runtime check.
    pub fn is_convex_1d(&self) -> Result<bool, OmegaError> {
        if self.arity() != 1 {
            return Err(OmegaError::Arity("is_convex_1d"));
        }
        // holes = { [x,y,z] : x in S, z in S, y not in S, x < y < z }
        let sx = self.embed(3, 0);
        let sz = self.embed(3, 2);
        let sy = self.embed(3, 1);
        let not_y = Set::universe(3).subtract(&sy)?;
        let order: Set = "{[x,y,z] : x <= y - 1 && y <= z - 1}".parse().unwrap();
        let holes = sx
            .intersection(&sz)
            .intersection(&not_y)
            .intersection(&order);
        proven_empty(&holes)
    }

    /// True for a 1-D set that provably contains at most one element for any
    /// parameter values (the paper's `IsSingleton`).
    ///
    /// # Errors
    ///
    /// Returns [`OmegaError::Arity`] if the arity is not 1, and the
    /// governor's refusal when the thread's governor refuses the emptiness
    /// test: a refused test proves nothing either way.
    pub fn is_singleton_1d(&self) -> Result<bool, OmegaError> {
        if self.arity() != 1 {
            return Err(OmegaError::Arity("is_singleton_1d"));
        }
        let sx = self.embed(2, 0);
        let sy = self.embed(2, 1);
        let order: Set = "{[x,y] : x <= y - 1}".parse().unwrap();
        proven_empty(&sx.intersection(&sy).intersection(&order))
    }

    /// Embeds a 1-D set into dimension `dim` of an `arity`-dimensional
    /// universe (all other dimensions unconstrained).
    fn embed(&self, arity: u32, dim: u32) -> Set {
        debug_assert_eq!(self.arity(), 1);
        let mut rel = Relation::universe(arity, 0);
        for p in self.rel.params() {
            rel.ensure_param(p);
        }
        let (src, _) = Relation::unify_params(self.rel.clone(), rel.clone());
        let conjs: Vec<Conjunct> = src
            .conjuncts()
            .iter()
            .map(|c| {
                c.rename(|v| match v {
                    Var::In(0) => Var::In(dim),
                    v => v,
                })
            })
            .collect();
        *rel.conjuncts_mut() = conjs;
        Set { rel }
    }
}

/// Exact emptiness for the §3.3 tests: a refused satisfiability test is an
/// `Err`, not the conservative "non-empty" of [`Set::is_empty`].
fn proven_empty(s: &Set) -> Result<bool, OmegaError> {
    for c in s.rel.conjuncts() {
        if c.try_is_satisfiable()? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Constant bounds of the single dimension of a 1-D conjunct, ignoring
/// stride existentials (safe: strides only remove points).
fn conjunct_1d_bounds(c: &Conjunct) -> (Option<i64>, Option<i64>) {
    let v = Var::In(0);
    let mut lo: Option<i64> = None;
    let mut hi: Option<i64> = None;
    let mut bump_lo = |x: i64| lo = Some(lo.map_or(x, |l: i64| l.max(x)));
    let mut bump_hi = |x: i64| hi = Some(hi.map_or(x, |h: i64| h.min(x)));
    for e in c.eqs() {
        let a = e.coeff(v);
        if a != 0 && e.terms().filter(|&(w, _)| !w.is_exist()).count() == 1 {
            // a*v + k*alpha.. + c = 0; over-approximate with rational solve
            // only when no existentials share the equality.
            if e.terms().all(|(w, _)| w == v) {
                let x = -e.constant_term() / a;
                bump_lo(x);
                bump_hi(x);
            }
        }
    }
    for e in c.geqs() {
        let a = e.coeff(v);
        if a == 0 {
            continue;
        }
        if e.terms().any(|(w, _)| w != v) {
            // Bound involves another (existential) variable: not constant.
            continue;
        }
        let k = e.constant_term();
        if a > 0 {
            bump_lo(ceil_div(-k, a));
        } else {
            bump_hi(floor_div(k, -a));
        }
    }
    (lo, hi)
}

fn enumerate_rec(
    set: &Set,
    params: &[(&str, i64)],
    boxes: &[std::ops::RangeInclusive<i64>],
    point: &mut Vec<i64>,
    d: usize,
    out: &mut Vec<Vec<i64>>,
) {
    if d == boxes.len() {
        if set.contains(point, params) {
            out.push(point.clone());
        }
        return;
    }
    for x in boxes[d].clone() {
        point[d] = x;
        enumerate_rec(set, params, boxes, point, d + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(s: &str) -> Set {
        s.parse().unwrap()
    }

    #[test]
    fn enumerate_box() {
        let s = set("{[i,j] : 1 <= i <= 2 && i <= j <= 3}");
        let pts = s.enumerate(&[]).unwrap();
        assert_eq!(
            pts,
            vec![vec![1, 1], vec![1, 2], vec![1, 3], vec![2, 2], vec![2, 3]]
        );
    }

    #[test]
    fn enumerate_with_params_and_strides() {
        let s = set("{[i] : 0 <= i <= N && exists(a : i = 3a)}");
        let pts = s.enumerate(&[("N", 10)]).unwrap();
        assert_eq!(pts, vec![vec![0], vec![3], vec![6], vec![9]]);
    }

    #[test]
    fn enumerate_unbounded_errors() {
        let s = set("{[i] : i >= 0}");
        assert!(matches!(s.enumerate(&[]), Err(OmegaError::Unbounded)));
    }

    #[test]
    fn project_onto_swaps_and_drops() {
        let s = set("{[i,j] : 1 <= i <= 3 && j = i + 10}");
        let pj = s.project_onto(&[1]).unwrap();
        let pts = pj.enumerate(&[]).unwrap();
        assert_eq!(pts, vec![vec![11], vec![12], vec![13]]);
        let swapped = s.project_onto(&[1, 0]).unwrap();
        assert!(swapped.contains(&[12, 2], &[]));
        assert!(!swapped.contains(&[2, 12], &[]));
    }

    #[test]
    fn dim_bounds_union() {
        let a = set("{[i] : 1 <= i <= 3}");
        let b = set("{[i] : 7 <= i <= 9}");
        let u = a.union(&b);
        assert_eq!(u.dim_bounds(0, &[]).unwrap(), (Some(1), Some(9)));
    }

    #[test]
    fn dim_bounds_empty_set() {
        let s = Set::empty(1);
        let (lo, hi) = s.dim_bounds(0, &[]).unwrap();
        assert!(lo.unwrap() > hi.unwrap());
    }

    #[test]
    fn convexity_tests() {
        assert!(set("{[i] : 2 <= i <= 9}").is_convex_1d().unwrap());
        let gap = set("{[i] : 1 <= i <= 3}").union(&set("{[i] : 5 <= i <= 8}"));
        assert!(!gap.is_convex_1d().unwrap());
        // Adjacent intervals are convex even as a union.
        let touch = set("{[i] : 1 <= i <= 4}").union(&set("{[i] : 5 <= i <= 8}"));
        assert!(touch.is_convex_1d().unwrap());
        // A stride set with a gap is not convex.
        assert!(!set("{[i] : 0 <= i <= 6 && exists(a : i = 2a)}")
            .is_convex_1d()
            .unwrap());
    }

    #[test]
    fn convexity_symbolic() {
        // {i : 1 <= i <= N} is convex for every N.
        assert!(set("{[i] : 1 <= i <= N}").is_convex_1d().unwrap());
        // {i : 1 <= i <= N || 2N + 2 <= i <= 3N} has a hole for N >= 1.
        let u = set("{[i] : 1 <= i <= N}").union(&set("{[i] : 2N + 2 <= i <= 3N}"));
        assert!(!u.is_convex_1d().unwrap());
    }

    #[test]
    fn singleton_tests() {
        assert!(set("{[i] : i = 5}").is_singleton_1d().unwrap());
        assert!(set("{[i] : 5 <= i <= 5}").is_singleton_1d().unwrap());
        assert!(!set("{[i] : 5 <= i <= 6}").is_singleton_1d().unwrap());
        assert!(Set::empty(1).is_singleton_1d().unwrap());
        // Symbolic: {i : i = N} is a singleton for every N.
        assert!(set("{[i] : i = N}").is_singleton_1d().unwrap());
        // {i : N <= i <= N+1} never is.
        assert!(!set("{[i] : N <= i <= N + 1}").is_singleton_1d().unwrap());
    }
}
