//! Fluent construction of sets and relations.
//!
//! The builders replace ad-hoc string parsing for *programmatic* call sites:
//! instead of formatting an Omega-syntax string and re-parsing it, analyses
//! assemble constraints directly from [`LinExpr`]s.
//!
//! ```
//! use dhpf_omega::SetBuilder;
//!
//! // {[i, j] : 1 <= i <= N && 2 <= j <= i + 1}
//! let s = SetBuilder::new(2)
//!     .names(["i", "j"])
//!     .param("N")
//!     .constrain(|c| {
//!         c.geq(c.dim(0).minus(&c.constant(1)));        // i - 1 >= 0
//!         c.geq(c.param("N").minus(&c.dim(0)));         // N - i >= 0
//!         c.geq(c.dim(1).minus(&c.constant(2)));        // j - 2 >= 0
//!         c.geq(c.dim(0).plus(&c.constant(1)).minus(&c.dim(1))); // i + 1 - j >= 0
//!     })
//!     .build();
//! assert!(s.contains(&[3, 4], &[("N", 10)]));
//! assert!(!s.contains(&[3, 5], &[("N", 10)]));
//! ```

use crate::conjunct::Conjunct;
use crate::linexpr::LinExpr;
use crate::relation::Relation;
use crate::set::Set;
use crate::var::Var;

/// Fluent builder for a [`Relation`].
///
/// Declare parameters with [`param`](Self::param) *before* recording
/// constraints that mention them; each [`constrain`](Self::constrain) call
/// contributes one disjunct. A builder with no `constrain` call yields the
/// universe relation.
#[derive(Clone, Debug)]
pub struct RelationBuilder {
    rel: Relation,
    any_disjunct: bool,
}

impl RelationBuilder {
    /// Starts a builder for a relation of the given arities.
    pub fn new(n_in: u32, n_out: u32) -> Self {
        RelationBuilder {
            rel: Relation::empty(n_in, n_out),
            any_disjunct: false,
        }
    }

    /// Sets display names for the input tuple variables.
    #[must_use]
    pub fn in_names<I: IntoIterator<Item = S>, S: Into<String>>(mut self, names: I) -> Self {
        self.rel = self.rel.with_in_names(names);
        self
    }

    /// Sets display names for the output tuple variables.
    #[must_use]
    pub fn out_names<I: IntoIterator<Item = S>, S: Into<String>>(mut self, names: I) -> Self {
        self.rel = self.rel.with_out_names(names);
        self
    }

    /// Declares a symbolic parameter, making it available to
    /// [`ConjunctBuilder::param`].
    #[must_use]
    pub fn param(mut self, name: &str) -> Self {
        self.rel.ensure_param(name);
        self
    }

    /// Records one disjunct: the closure receives a [`ConjunctBuilder`] and
    /// adds constraints to it. Calling `constrain` several times builds a
    /// union of conjuncts.
    #[must_use]
    pub fn constrain<F: FnOnce(&mut ConjunctBuilder)>(mut self, f: F) -> Self {
        let mut cb = ConjunctBuilder {
            params: self.rel.params().to_vec(),
            conjunct: Conjunct::new(),
        };
        f(&mut cb);
        self.rel.add_conjunct(cb.conjunct);
        self.any_disjunct = true;
        self
    }

    /// Finishes construction. With no recorded disjunct the result is the
    /// universe relation of the declared arities.
    pub fn build(self) -> Relation {
        if self.any_disjunct {
            self.rel
        } else {
            let mut u = Relation::universe(self.rel.n_in(), self.rel.n_out())
                .with_in_names(self.rel.in_names.clone())
                .with_out_names(self.rel.out_names.clone());
            for p in self.rel.params() {
                u.ensure_param(p);
            }
            u
        }
    }
}

/// Fluent builder for a [`Set`]: a thin wrapper over [`RelationBuilder`]
/// with output arity zero.
#[derive(Clone, Debug)]
pub struct SetBuilder {
    inner: RelationBuilder,
}

impl SetBuilder {
    /// Starts a builder for a set of the given arity.
    pub fn new(arity: u32) -> Self {
        SetBuilder {
            inner: RelationBuilder::new(arity, 0),
        }
    }

    /// Sets display names for the tuple variables.
    #[must_use]
    pub fn names<I: IntoIterator<Item = S>, S: Into<String>>(mut self, names: I) -> Self {
        self.inner = self.inner.in_names(names);
        self
    }

    /// Declares a symbolic parameter, making it available to
    /// [`ConjunctBuilder::param`].
    #[must_use]
    pub fn param(mut self, name: &str) -> Self {
        self.inner = self.inner.param(name);
        self
    }

    /// Records one disjunct (see [`RelationBuilder::constrain`]).
    #[must_use]
    pub fn constrain<F: FnOnce(&mut ConjunctBuilder)>(mut self, f: F) -> Self {
        self.inner = self.inner.constrain(f);
        self
    }

    /// Finishes construction. With no recorded disjunct the result is the
    /// universe set of the declared arity.
    pub fn build(self) -> Set {
        Set::from_relation(self.inner.build())
    }
}

/// Records the constraints of one disjunct.
///
/// Expression helpers ([`dim`](Self::dim), [`output`](Self::output),
/// [`param`](Self::param), [`constant`](Self::constant)) produce
/// [`LinExpr`]s; constraint recorders ([`eq`](Self::eq), [`geq`](Self::geq),
/// [`le`](Self::le), [`bounds`](Self::bounds), [`stride`](Self::stride))
/// add them to the conjunct under construction.
#[derive(Clone, Debug)]
pub struct ConjunctBuilder {
    params: Vec<String>,
    conjunct: Conjunct,
}

impl ConjunctBuilder {
    /// The expression naming tuple dimension `i` (an input variable).
    pub fn dim(&self, i: u32) -> LinExpr {
        LinExpr::var(Var::In(i))
    }

    /// Alias of [`dim`](Self::dim), reading naturally for relations.
    pub fn input(&self, i: u32) -> LinExpr {
        self.dim(i)
    }

    /// The expression naming output tuple variable `j`.
    pub fn output(&self, j: u32) -> LinExpr {
        LinExpr::var(Var::Out(j))
    }

    /// The expression naming a declared parameter.
    ///
    /// # Panics
    ///
    /// Panics if `name` was not declared with `.param(name)` on the builder —
    /// a programmer error, not a data error: the builder API is not an
    /// untrusted-input surface (that is parsing's job).
    pub fn param(&self, name: &str) -> LinExpr {
        let i = self
            .params
            .iter()
            .position(|p| p == name)
            .unwrap_or_else(|| panic!("parameter `{name}` not declared on the builder"));
        LinExpr::var(Var::Param(i as u32))
    }

    /// The constant expression `k`.
    pub fn constant(&self, k: i64) -> LinExpr {
        LinExpr::constant(k)
    }

    /// Records `e = 0`.
    pub fn eq(&mut self, e: LinExpr) {
        self.conjunct.add_eq(e);
    }

    /// Records `e >= 0`.
    pub fn geq(&mut self, e: LinExpr) {
        self.conjunct.add_geq(e);
    }

    /// Records `lhs <= rhs`.
    pub fn le(&mut self, lhs: &LinExpr, rhs: &LinExpr) {
        self.geq(rhs.minus(lhs));
    }

    /// Records `lo <= e <= hi` for constant bounds.
    pub fn bounds(&mut self, e: &LinExpr, lo: i64, hi: i64) {
        let mut lower = e.clone();
        lower.add_constant(-lo);
        self.geq(lower); // e - lo >= 0
        let mut upper = e.negated();
        upper.add_constant(hi);
        self.geq(upper); // hi - e >= 0
    }

    /// Records the congruence `e ≡ 0 (mod k)` via a fresh existential.
    pub fn stride(&mut self, e: LinExpr, k: i64) {
        self.conjunct.add_stride(e, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_builder_matches_parsed_set() {
        let built = SetBuilder::new(1)
            .names(["i"])
            .param("N")
            .constrain(|c| {
                c.bounds(&c.dim(0), 1, 100);
                c.le(&c.dim(0), &c.param("N"));
            })
            .build();
        let parsed: Set = "{[i] : 1 <= i <= 100 && i <= N}".parse().unwrap();
        assert!(built.as_relation().equal(parsed.as_relation()).unwrap());
    }

    #[test]
    fn relation_builder_block_layout() {
        // {[p] -> [a] : 25p <= a <= 25p + 24 && 0 <= p <= 3}
        let layout = RelationBuilder::new(1, 1)
            .in_names(["p"])
            .out_names(["a"])
            .constrain(|c| {
                c.le(&c.input(0).scaled(25), &c.output(0));
                c.le(&c.output(0), &c.input(0).scaled(25).plus(&c.constant(24)));
                c.bounds(&c.input(0), 0, 3);
            })
            .build();
        let parsed: Relation = "{[p] -> [a] : 25p <= a <= 25p + 24 && 0 <= p <= 3}"
            .parse()
            .unwrap();
        assert!(layout.equal(&parsed).unwrap());
    }

    #[test]
    fn multiple_constrain_calls_union() {
        let s = SetBuilder::new(1)
            .constrain(|c| c.bounds(&c.dim(0), 1, 3))
            .constrain(|c| c.bounds(&c.dim(0), 7, 9))
            .build();
        assert!(s.contains(&[2], &[]));
        assert!(!s.contains(&[5], &[]));
        assert!(s.contains(&[8], &[]));
    }

    #[test]
    fn empty_builder_is_universe() {
        let s = SetBuilder::new(1).build();
        assert!(s.contains(&[12345], &[]));
    }

    #[test]
    fn stride_constraint() {
        let evens = SetBuilder::new(1)
            .constrain(|c| {
                c.bounds(&c.dim(0), 0, 10);
                c.stride(c.dim(0), 2);
            })
            .build();
        assert!(evens.contains(&[4], &[]));
        assert!(!evens.contains(&[5], &[]));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_param_panics() {
        let _ = SetBuilder::new(1)
            .constrain(|c| c.le(&c.dim(0), &c.param("N")))
            .build();
    }
}
