//! Relations: unions of [`Conjunct`]s mapping input tuples to output tuples.

use crate::conjunct::{Conjunct, Normalized};
use crate::context;
use crate::linexpr::LinExpr;
use crate::ops::negate_conjunct;
use crate::var::Var;
use crate::OmegaError;

/// A symbolic integer tuple relation `{ [i..] -> [j..] : formula }`.
///
/// A relation is a finite union of [`Conjunct`]s over shared named
/// parameters. A [`Set`](crate::Set) is a relation with no output tuple.
///
/// # Examples
///
/// ```
/// use dhpf_omega::Relation;
/// let r: Relation = "{[i] -> [j] : j = i + 1 && 1 <= i <= N}".parse()?;
/// assert_eq!(r.n_in(), 1);
/// assert_eq!(r.n_out(), 1);
/// assert_eq!(r.params(), &["N".to_string()]);
/// # Ok::<(), dhpf_omega::ParseError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Relation {
    params: Vec<String>,
    n_in: u32,
    n_out: u32,
    pub(crate) in_names: Vec<String>,
    pub(crate) out_names: Vec<String>,
    conjuncts: Vec<Conjunct>,
}

impl Relation {
    /// The universe relation (no constraints) of the given arities.
    pub fn universe(n_in: u32, n_out: u32) -> Self {
        Relation {
            params: Vec::new(),
            n_in,
            n_out,
            in_names: Vec::new(),
            out_names: Vec::new(),
            conjuncts: vec![Conjunct::new()],
        }
    }

    /// The empty relation of the given arities.
    pub fn empty(n_in: u32, n_out: u32) -> Self {
        Relation {
            params: Vec::new(),
            n_in,
            n_out,
            in_names: Vec::new(),
            out_names: Vec::new(),
            conjuncts: Vec::new(),
        }
    }

    /// Number of input tuple variables.
    pub fn n_in(&self) -> u32 {
        self.n_in
    }

    /// Number of output tuple variables.
    pub fn n_out(&self) -> u32 {
        self.n_out
    }

    /// The sorted parameter names of this relation.
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// The disjuncts of this relation.
    pub fn conjuncts(&self) -> &[Conjunct] {
        &self.conjuncts
    }

    /// Mutable access to the disjuncts (for in-place construction).
    pub fn conjuncts_mut(&mut self) -> &mut Vec<Conjunct> {
        &mut self.conjuncts
    }

    /// Adds a disjunct.
    pub fn add_conjunct(&mut self, c: Conjunct) {
        self.conjuncts.push(c);
    }

    /// Sets display names for the input tuple variables.
    pub fn with_in_names<I: IntoIterator<Item = S>, S: Into<String>>(mut self, names: I) -> Self {
        self.in_names = names.into_iter().map(Into::into).collect();
        self
    }

    /// Sets display names for the output tuple variables.
    pub fn with_out_names<I: IntoIterator<Item = S>, S: Into<String>>(mut self, names: I) -> Self {
        self.out_names = names.into_iter().map(Into::into).collect();
        self
    }

    /// Index of parameter `name`, registering it (keeping the list sorted
    /// and remapping existing constraints) if it is new.
    pub fn ensure_param(&mut self, name: &str) -> u32 {
        if let Ok(i) = self.params.binary_search_by(|p| p.as_str().cmp(name)) {
            return i as u32;
        }
        let pos = self
            .params
            .binary_search_by(|p| p.as_str().cmp(name))
            .unwrap_err();
        self.params.insert(pos, name.to_string());
        let remap = |v: Var| match v {
            Var::Param(i) if i as usize >= pos => Var::Param(i + 1),
            v => v,
        };
        for c in &mut self.conjuncts {
            *c = c.rename(remap);
        }
        pos as u32
    }

    /// Index of parameter `name`, if present.
    pub fn param_index(&self, name: &str) -> Option<u32> {
        self.params
            .binary_search_by(|p| p.as_str().cmp(name))
            .ok()
            .map(|i| i as u32)
    }

    /// Remaps both relations onto the union of their parameter lists.
    pub fn unify_params(mut a: Relation, mut b: Relation) -> (Relation, Relation) {
        if a.params == b.params {
            return (a, b);
        }
        let mut merged: Vec<String> = a.params.iter().chain(&b.params).cloned().collect();
        merged.sort();
        merged.dedup();
        let remap_into = |r: &mut Relation, merged: &[String]| {
            let map: Vec<u32> = r
                .params
                .iter()
                .map(|p| merged.iter().position(|m| m == p).unwrap() as u32)
                .collect();
            let f = |v: Var| match v {
                Var::Param(i) => Var::Param(map[i as usize]),
                v => v,
            };
            for c in &mut r.conjuncts {
                *c = c.rename(f);
            }
            r.params = merged.to_vec();
        };
        remap_into(&mut a, &merged);
        remap_into(&mut b, &merged);
        (a, b)
    }

    fn check_same_arity(&self, other: &Relation, op: &str) {
        assert_eq!(
            (self.n_in, self.n_out),
            (other.n_in, other.n_out),
            "{op}: arity mismatch ({}->{} vs {}->{})",
            self.n_in,
            self.n_out,
            other.n_in,
            other.n_out
        );
    }

    /// Union of two relations of identical arity.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    pub fn union(&self, other: &Relation) -> Relation {
        self.check_same_arity(other, "union");
        let (mut a, b) = Relation::unify_params(self.clone(), other.clone());
        a.conjuncts.extend(b.conjuncts);
        if a.in_names.is_empty() {
            a.in_names = b.in_names;
        }
        if a.out_names.is_empty() {
            a.out_names = b.out_names;
        }
        a
    }

    /// Intersection of two relations of identical arity.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    pub fn intersection(&self, other: &Relation) -> Relation {
        self.check_same_arity(other, "intersection");
        let (a, b) = Relation::unify_params(self.clone(), other.clone());
        let mut out = Relation {
            params: a.params.clone(),
            n_in: a.n_in,
            n_out: a.n_out,
            in_names: if a.in_names.is_empty() {
                b.in_names.clone()
            } else {
                a.in_names.clone()
            },
            out_names: if a.out_names.is_empty() {
                b.out_names.clone()
            } else {
                a.out_names.clone()
            },
            conjuncts: Vec::new(),
        };
        for ca in &a.conjuncts {
            for cb in &b.conjuncts {
                let mut c = ca.clone();
                c.merge(cb);
                if c.normalize() != Normalized::False {
                    out.conjuncts.push(c);
                }
            }
        }
        out
    }

    /// Set difference `self - other` (exact).
    ///
    /// # Errors
    ///
    /// Returns [`OmegaError::InexactNegation`] when a conjunct of `other`
    /// has an existential that cannot be eliminated or expressed as a
    /// stride (see [`negate_conjunct`]; the constraint classes produced
    /// by the dHPF analyses never trigger this), and the governor's
    /// refusal when the thread's governor refuses a negation.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    pub fn subtract(&self, other: &Relation) -> Result<Relation, OmegaError> {
        self.check_same_arity(other, "subtract");
        let (a, b) = Relation::unify_params(self.clone(), other.clone());
        let mut pieces: Vec<Conjunct> = a.conjuncts.clone();
        for cb in &b.conjuncts {
            let negs = negate_conjunct(cb)?;
            let mut next = Vec::new();
            for p in &pieces {
                for n in &negs {
                    let mut c = p.clone();
                    c.merge(n);
                    if c.normalize() != Normalized::False && c.is_satisfiable() {
                        next.push(c);
                    }
                }
            }
            pieces = next;
            if pieces.is_empty() {
                break;
            }
        }
        let mut out = Relation {
            params: a.params.clone(),
            n_in: a.n_in,
            n_out: a.n_out,
            in_names: a.in_names.clone(),
            out_names: a.out_names.clone(),
            conjuncts: pieces,
        };
        out.simplify();
        Ok(out)
    }

    /// Applies `self` then `other`: for `self: A -> B` and `other: B -> C`,
    /// the result is `{ a -> c : exists b : (a,b) in self && (b,c) in other }`.
    ///
    /// This is the paper's `other ∘ self` (Appendix A).
    ///
    /// # Errors
    ///
    /// Eliminating the mid tuple is a projection, which has no conservative
    /// answer: returns what [`Conjunct::eliminate_exact`] returns — a
    /// governor refusal (spent budget or injected fault) or a coefficient
    /// overflow.
    ///
    /// # Panics
    ///
    /// Panics if `self.n_out() != other.n_in()`.
    pub fn then(&self, other: &Relation) -> Result<Relation, OmegaError> {
        assert_eq!(
            self.n_out, other.n_in,
            "then: mid arity mismatch ({} vs {})",
            self.n_out, other.n_in
        );
        let (a, b) = Relation::unify_params(self.clone(), other.clone());
        let mid = a.n_out;
        let mut out = Relation {
            params: a.params.clone(),
            n_in: a.n_in,
            n_out: b.n_out,
            in_names: a.in_names.clone(),
            out_names: b.out_names.clone(),
            conjuncts: Vec::new(),
        };
        for ca in &a.conjuncts {
            for cb in &b.conjuncts {
                // Mid variables become existentials Exist(0..mid); the two
                // conjuncts' own existentials are shifted above them.
                let ea = ca.n_exist();
                let ra = ca.rename(|v| match v {
                    Var::Out(j) => Var::Exist(j),
                    Var::Exist(i) => Var::Exist(mid + i),
                    v => v,
                });
                let rb = cb.rename(|v| match v {
                    Var::In(j) => Var::Exist(j),
                    Var::Exist(i) => Var::Exist(mid + ea + i),
                    v => v,
                });
                // The renames above already placed the existential index
                // ranges disjointly, so the two halves conjoin verbatim.
                let mut merged = ra;
                merged.conjoin_raw(rb);
                // Eliminate the mid existentials exactly for compact output.
                let mut work = vec![merged];
                for j in 0..mid {
                    let mut next = Vec::new();
                    for c in work {
                        next.extend(c.eliminate_exact(Var::Exist(j))?);
                    }
                    work = next;
                }
                out.conjuncts.extend(work);
            }
        }
        out.simplify();
        Ok(out)
    }

    /// Mathematical composition `self ∘ other`: apply `other` first.
    ///
    /// # Errors
    ///
    /// See [`Relation::then`].
    ///
    /// # Panics
    ///
    /// Panics if `other.n_out() != self.n_in()`.
    pub fn compose(&self, other: &Relation) -> Result<Relation, OmegaError> {
        other.then(self)
    }

    /// The inverse relation (inputs and outputs swapped).
    pub fn inverse(&self) -> Relation {
        let f = |v: Var| match v {
            Var::In(i) => Var::Out(i),
            Var::Out(i) => Var::In(i),
            v => v,
        };
        Relation {
            params: self.params.clone(),
            n_in: self.n_out,
            n_out: self.n_in,
            in_names: self.out_names.clone(),
            out_names: self.in_names.clone(),
            conjuncts: self.conjuncts.iter().map(|c| c.rename(f)).collect(),
        }
    }

    /// Eliminates a tuple variable exactly from every conjunct, keeping the
    /// arity bookkeeping to the caller. Internal building block.
    fn eliminate_var(&mut self, v: Var) -> Result<(), OmegaError> {
        let mut out = Vec::new();
        for c in &self.conjuncts {
            out.extend(c.eliminate_exact(v)?);
        }
        self.conjuncts = out;
        Ok(())
    }

    /// The domain of the relation, as a set over the input tuple.
    ///
    /// # Errors
    ///
    /// Projects the output tuple away; fails as [`Relation::then`] does.
    pub fn domain(&self) -> Result<crate::Set, OmegaError> {
        let mut r = self.clone();
        for j in 0..self.n_out {
            r.eliminate_var(Var::Out(j))?;
        }
        r.n_out = 0;
        r.out_names.clear();
        r.simplify();
        Ok(crate::Set::from_relation(r))
    }

    /// The range of the relation, as a set over the output tuple.
    ///
    /// # Errors
    ///
    /// Projects the input tuple away; fails as [`Relation::then`] does.
    pub fn range(&self) -> Result<crate::Set, OmegaError> {
        self.inverse().domain()
    }

    /// Restricts the domain to `set` (the paper's `∩ domain`).
    ///
    /// # Panics
    ///
    /// Panics if `set.arity() != self.n_in()`.
    pub fn restrict_domain(&self, set: &crate::Set) -> Relation {
        assert_eq!(
            set.arity(),
            self.n_in,
            "restrict_domain: arity mismatch ({} vs {})",
            set.arity(),
            self.n_in
        );
        let mut lifted = set.as_relation().clone();
        lifted.n_out = self.n_out;
        lifted.out_names = self.out_names.clone();
        self.intersection(&lifted)
    }

    /// Restricts the range to `set` (the paper's `∩range`).
    ///
    /// # Panics
    ///
    /// Panics if `set.arity() != self.n_out()`.
    pub fn restrict_range(&self, set: &crate::Set) -> Relation {
        assert_eq!(
            set.arity(),
            self.n_out,
            "restrict_range: arity mismatch ({} vs {})",
            set.arity(),
            self.n_out
        );
        let f = |v: Var| match v {
            Var::In(i) => Var::Out(i),
            v => v,
        };
        let mut lifted = Relation {
            params: set.as_relation().params.clone(),
            n_in: self.n_in,
            n_out: self.n_out,
            in_names: self.in_names.clone(),
            out_names: set.as_relation().in_names.clone(),
            conjuncts: set
                .as_relation()
                .conjuncts
                .iter()
                .map(|c| c.rename(f))
                .collect(),
        };
        if lifted.out_names.is_empty() {
            lifted.out_names = self.out_names.clone();
        }
        self.intersection(&lifted)
    }

    /// Applies the relation to a set: `R(S) = { j : exists i in S, (i,j) in R }`.
    ///
    /// # Errors
    ///
    /// See [`Relation::range`].
    ///
    /// # Panics
    ///
    /// Panics if `set.arity() != self.n_in()`.
    pub fn apply(&self, set: &crate::Set) -> Result<crate::Set, OmegaError> {
        self.restrict_domain(set).range()
    }

    /// Applies the inverse relation to a set.
    ///
    /// # Errors
    ///
    /// See [`Relation::domain`].
    pub fn apply_inverse(&self, set: &crate::Set) -> Result<crate::Set, OmegaError> {
        self.restrict_range(set).domain()
    }

    /// Substitutes a constant value for parameter `name`, removing it.
    ///
    /// Unknown parameters are ignored (the relation does not change).
    pub fn specialize_param(&self, name: &str, value: i64) -> Relation {
        let Some(idx) = self.param_index(name) else {
            return self.clone();
        };
        let mut out = self.clone();
        out.params.remove(idx as usize);
        out.conjuncts = self
            .conjuncts
            .iter()
            .map(|c| {
                let b = c.bind(|v| match v {
                    Var::Param(i) if i == idx => Some(value),
                    _ => None,
                });
                b.rename(|v| match v {
                    Var::Param(i) if i > idx => Var::Param(i - 1),
                    v => v,
                })
            })
            .collect();
        out.simplify_cheap();
        out
    }

    /// True if the relation has no integer solutions for any parameter
    /// values.
    pub fn is_empty(&self) -> bool {
        !self.conjuncts.iter().any(Conjunct::is_satisfiable)
    }

    /// True if some tuple satisfies the relation for some parameter values.
    pub fn is_satisfiable(&self) -> bool {
        !self.is_empty()
    }

    /// True if `self ⊆ other` for all parameter values.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Relation::subtract`].
    pub fn is_subset_of(&self, other: &Relation) -> Result<bool, OmegaError> {
        Ok(self.subtract(other)?.is_empty())
    }

    /// True if the relations contain exactly the same tuples for all
    /// parameter values.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Relation::subtract`].
    pub fn equal(&self, other: &Relation) -> Result<bool, OmegaError> {
        Ok(self.is_subset_of(other)? && other.is_subset_of(self)?)
    }

    /// Cheap cleanup: normalize conjuncts, drop trivially-false ones.
    pub fn simplify_cheap(&mut self) {
        self.conjuncts
            .retain_mut(|c| c.normalize() != Normalized::False);
        // Conjuncts are normalized (sorted, deduplicated constraints), so
        // their structural `Ord` gives a canonical sequence directly — no
        // more formatting every conjunct to a `Debug` string per sort key.
        self.conjuncts.sort_unstable();
        self.conjuncts.dedup();
    }

    /// Full cleanup: normalizes, drops unsatisfiable conjuncts (Omega
    /// test), removes syntactically and semantically subsumed conjuncts,
    /// and eliminates redundant constraints within each conjunct.
    ///
    /// All passes run on every call. Measured on the Table-1 workloads:
    /// deferring either redundancy elimination or semantic subsumption to
    /// a "deep-only" variant for code generation made overall compilation
    /// ~3x slower — smaller intermediate sets pay for the per-operation
    /// cost everywhere.
    pub fn simplify(&mut self) {
        self.conjuncts = context::cached_simplify(&self.conjuncts, || {
            let mut scratch = self.clone();
            scratch.simplify_uncached();
            scratch.conjuncts
        });
    }

    fn simplify_uncached(&mut self) {
        self.simplify_cheap();
        self.conjuncts.retain(Conjunct::is_satisfiable);
        self.syntactic_subsume();
        for c in &mut self.conjuncts {
            c.remove_redundant();
        }
        self.simplify_cheap();
        self.semantic_subsume();
    }

    /// Removes conjuncts subsumed by another conjunct (exact test via
    /// negation when possible; skipped silently when negation is inexact).
    /// Keeps conjunct counts from compounding across chained operations.
    fn semantic_subsume(&mut self) {
        if self.conjuncts.len() < 2 {
            return;
        }
        let mut keep = vec![true; self.conjuncts.len()];
        // Subsumption is only an optimization: when the negation
        // shatters into too many pieces (stride-heavy conjuncts can
        // produce thousands), checking them all costs far more than
        // keeping the extra conjunct. Skip those pairs.
        const MAX_NEG_PIECES: usize = 64;
        for i in 0..self.conjuncts.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..self.conjuncts.len() {
                if i == j || !keep[j] {
                    continue;
                }
                if let Ok(negs) = negate_conjunct(&self.conjuncts[j]) {
                    if negs.len() > MAX_NEG_PIECES {
                        continue;
                    }
                    let ci = &self.conjuncts[i];
                    let sub = negs.iter().all(|n| {
                        let mut t = ci.clone();
                        t.merge(n);
                        t.normalize() == Normalized::False || !t.is_satisfiable()
                    });
                    if sub {
                        keep[i] = false;
                        break;
                    }
                }
            }
        }
        let mut it = keep.iter();
        self.conjuncts.retain(|_| *it.next().unwrap());
    }

    /// Drops conjuncts whose solutions are contained in another conjunct by
    /// a purely syntactic argument: if (existential-free) `c_j`'s
    /// constraints are a subset of `c_i`'s, then `c_i ⊆ c_j`.
    fn syntactic_subsume(&mut self) {
        let n = self.conjuncts.len();
        if n < 2 {
            return;
        }
        let mut keep = vec![true; n];
        for i in 0..n {
            if !keep[i] {
                continue;
            }
            if self.conjuncts[i].n_exist() > 0 {
                continue;
            }
            for j in 0..n {
                if i == j || !keep[j] || self.conjuncts[j].n_exist() > 0 {
                    continue;
                }
                let (ci, cj) = (&self.conjuncts[i], &self.conjuncts[j]);
                // Normalized conjuncts keep their constraints sorted, so
                // the subset tests can binary-search instead of scanning.
                let sub = cj.eqs().iter().all(|e| ci.eqs().binary_search(e).is_ok())
                    && cj.geqs().iter().all(|e| ci.geqs().binary_search(e).is_ok())
                    && (cj.eqs().len() < ci.eqs().len()
                        || cj.geqs().len() < ci.geqs().len()
                        || j < i);
                if sub {
                    keep[i] = false;
                    break;
                }
            }
        }
        let mut it = keep.iter();
        self.conjuncts.retain(|_| *it.next().unwrap());
    }

    /// The gist of `self` given `context`: constraints of `self` that are
    /// not implied by `context`. Both must have identical arities.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    pub fn gist(&self, context: &Relation) -> Relation {
        self.check_same_arity(context, "gist");
        let (a, b) = Relation::unify_params(self.clone(), context.clone());
        let mut out = a.clone();
        if b.conjuncts.len() == 1 {
            out.conjuncts = a
                .conjuncts
                .iter()
                .map(|c| c.gist_given(&b.conjuncts[0]))
                .collect();
        }
        out.simplify_cheap();
        out
    }

    /// Membership test for fully instantiated input/output tuples under the
    /// given parameter bindings. Exact (existentials are decided by the
    /// Omega test).
    ///
    /// # Panics
    ///
    /// Panics if the tuple lengths do not match the arities or a parameter
    /// binding is missing.
    pub fn contains_pair(&self, input: &[i64], output: &[i64], params: &[(&str, i64)]) -> bool {
        assert_eq!(input.len(), self.n_in as usize, "input arity mismatch");
        assert_eq!(output.len(), self.n_out as usize, "output arity mismatch");
        let lookup = |v: Var| match v {
            Var::In(i) => Some(input[i as usize]),
            Var::Out(i) => Some(output[i as usize]),
            Var::Param(i) => {
                let name = &self.params[i as usize];
                let val = params
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| panic!("missing binding for parameter {name}"));
                Some(val)
            }
            Var::Exist(_) => None,
        };
        self.conjuncts.iter().any(|c| c.contains(lookup))
    }

    /// A [`LinExpr`] naming parameter `name` (registering it if needed).
    pub fn param_var(&mut self, name: &str) -> LinExpr {
        LinExpr::var(Var::Param(self.ensure_param(name)))
    }
}

#[cfg(test)]
mod tests {
    use crate::{Relation, Set};

    fn rel(s: &str) -> Relation {
        s.parse().unwrap()
    }

    fn set(s: &str) -> Set {
        s.parse().unwrap()
    }

    #[test]
    fn union_and_intersection() {
        let a = set("{[i] : 1 <= i <= 10}");
        let b = set("{[i] : 5 <= i <= 20}");
        let u = a.union(&b);
        let n = a.intersection(&b);
        for i in -5..=30i64 {
            assert_eq!(u.contains(&[i], &[]), (1..=20).contains(&i), "u {i}");
            assert_eq!(n.contains(&[i], &[]), (5..=10).contains(&i), "n {i}");
        }
    }

    #[test]
    fn subtract_creates_union() {
        let a = set("{[i] : 1 <= i <= 10}");
        let b = set("{[i] : 4 <= i <= 6}");
        let d = a.subtract(&b).unwrap();
        for i in 0..=12i64 {
            let want = (1..=3).contains(&i) || (7..=10).contains(&i);
            assert_eq!(d.contains(&[i], &[]), want, "i = {i}");
        }
    }

    #[test]
    fn compose_then() {
        let shift = rel("{[i] -> [j] : j = i + 1}");
        let double = rel("{[i] -> [j] : j = 2i}");
        // then: first shift, then double: j = 2(i+1)
        let t = shift.then(&double).unwrap();
        assert!(t.contains_pair(&[3], &[8], &[]));
        assert!(!t.contains_pair(&[3], &[7], &[]));
        // compose: double ∘ shift is the same thing
        let c = double.compose(&shift).unwrap();
        assert!(c.contains_pair(&[3], &[8], &[]));
    }

    #[test]
    fn domain_range_inverse() {
        let r = rel("{[i] -> [j] : j = i + 1 && 1 <= i <= 5}");
        let d = r.domain().unwrap();
        let g = r.range().unwrap();
        for i in -2..=8i64 {
            assert_eq!(d.contains(&[i], &[]), (1..=5).contains(&i));
            assert_eq!(g.contains(&[i], &[]), (2..=6).contains(&i));
        }
        let inv = r.inverse();
        assert!(inv.contains_pair(&[4], &[3], &[]));
    }

    #[test]
    fn apply_and_restrict() {
        let r = rel("{[i] -> [j] : j = i + 2}");
        let s = set("{[i] : 1 <= i <= 3}");
        let img = r.apply(&s).unwrap();
        for j in 0..=8i64 {
            assert_eq!(img.contains(&[j], &[]), (3..=5).contains(&j));
        }
        let rr = r.restrict_range(&set("{[j] : j = 4}"));
        assert!(rr.contains_pair(&[2], &[4], &[]));
        assert!(!rr.contains_pair(&[3], &[5], &[]));
    }

    #[test]
    fn symbolic_params_flow_through_operations() {
        let a = set("{[i] : 1 <= i <= N}");
        let b = set("{[i] : i >= K}");
        let n = a.intersection(&b);
        assert!(n.contains(&[5], &[("N", 10), ("K", 3)]));
        assert!(!n.contains(&[2], &[("N", 10), ("K", 3)]));
        assert_eq!(
            n.as_relation().params(),
            &["K".to_string(), "N".to_string()]
        );
    }

    #[test]
    fn specialize_param() {
        let a = set("{[i] : 1 <= i <= N}");
        let f = a.as_relation().specialize_param("N", 4);
        assert!(f.contains_pair(&[4], &[], &[]));
        assert!(!f.contains_pair(&[5], &[], &[]));
        assert!(f.params().is_empty());
    }

    #[test]
    fn subset_and_equality() {
        let a = set("{[i] : 2 <= i <= 5}");
        let b = set("{[i] : 1 <= i <= 10}");
        assert!(a.as_relation().is_subset_of(b.as_relation()).unwrap());
        assert!(!b.as_relation().is_subset_of(a.as_relation()).unwrap());
        let c = set("{[i] : 1 <= i <= 10 && 1 <= i}");
        assert!(b.as_relation().equal(c.as_relation()).unwrap());
    }

    #[test]
    fn emptiness_with_strides() {
        // even ∩ odd = empty
        let even = set("{[i] : exists(a : i = 2a)}");
        let odd = set("{[i] : exists(a : i = 2a + 1)}");
        assert!(even.intersection(&odd).as_relation().is_empty());
        assert!(!even.as_relation().is_empty());
    }

    #[test]
    fn gist_drops_known_constraints() {
        let a = rel("{[i] -> [] : 1 <= i <= 10 && i <= N}");
        let ctx = rel("{[i] -> [] : 1 <= i <= 10}");
        let g = a.gist(&ctx);
        // Only the i <= N constraint should remain.
        let total: usize = g
            .conjuncts()
            .iter()
            .map(|c| c.eqs().len() + c.geqs().len())
            .sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn block_layout_roundtrip() {
        // Layout for block(25) over 4 procs: {[p] -> [a] : 25p <= a <= 25p+24, 0<=p<=3}
        let layout = rel("{[p] -> [a] : 25p <= a <= 25p + 24 && 0 <= p <= 3}");
        let owned = layout.apply(&set("{[p] : p = 2}")).unwrap();
        for a in 0..=120i64 {
            assert_eq!(owned.contains(&[a], &[]), (50..=74).contains(&a));
        }
        // Domain covers every processor that owns something in [0,99].
        let who = layout
            .restrict_range(&set("{[a] : 0 <= a <= 99}"))
            .domain()
            .unwrap();
        for p in -1..=5i64 {
            assert_eq!(who.contains(&[p], &[]), (0..=3).contains(&p));
        }
    }
}
