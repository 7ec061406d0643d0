//! Exact negation of conjuncts — the engine behind set difference.

use crate::conjunct::{Conjunct, Normalized};
use crate::context;
use crate::linexpr::LinExpr;
use crate::num::gcd;
use crate::var::Var;
use crate::OmegaError;
use std::collections::BTreeMap;

/// Conjunct pieces an exact negation may produce before it is declared
/// inexact.
const MAX_NEGATION_PIECES: usize = 10_000;

/// Iterations of the stride-form rewrite inside exact negation.
const STRIDE_FUEL: u32 = 500;

/// Negates a conjunct exactly, returning the disjunction of conjuncts whose
/// union is the complement.
///
/// Existential variables are supported when each one occurs in exactly one
/// equality (a stride/congruence constraint, e.g. `exists a : i = 25a + r`);
/// the negation of `f ≡ 0 (mod g)` is `∨_{r=1}^{g-1} f ≡ r (mod g)`.
/// Other existential systems are first eliminated exactly; if elimination
/// keeps reintroducing complex existentials the function reports
/// [`OmegaError::InexactNegation`].
///
/// # Errors
///
/// Returns [`OmegaError::InexactNegation`] if the existential structure
/// cannot be reduced to congruences.
///
/// The negation is memoized per distinct conjunct structure in
/// context armed on the calling thread (see [`Request`](crate::Request)).
pub fn negate_conjunct(c: &Conjunct) -> Result<Vec<Conjunct>, OmegaError> {
    context::cached_negate(c, || negate_uncached(c))
}

fn negate_uncached(c: &Conjunct) -> Result<Vec<Conjunct>, OmegaError> {
    let mut c = c.clone();
    if c.normalize() == Normalized::False {
        // Complement of the empty conjunct is the universe. Every
        // trivially-empty conjunct interns to the one canonical false id,
        // so this arm also keeps the memoized negation independent of
        // which empty conjunct reached the cache first.
        let mut u = Conjunct::new();
        u.normalize();
        return Ok(vec![u]);
    }
    // Reduce to stride form: eliminate every existential that is not a pure
    // congruence witness. Elimination can introduce fresh existentials with
    // shrinking coefficients (the Omega test), so iterate with fuel.
    let stride_form = to_stride_form(c)?;
    // ¬(u1 ∨ u2 ∨ ...) = ¬u1 ∧ ¬u2 ∧ ...
    //
    // The cross product over stride pieces can explode combinatorially (k
    // pieces with ~17 negation atoms each yield up to 17^k conjuncts), so
    // the accumulator carries a hard budget; blowing it means the exact
    // complement is too large to represent and the negation is inexact.
    let mut acc: Vec<Conjunct> = vec![Conjunct::new()];
    for p in &stride_form {
        let negs = negate_stride_conjunct(p);
        if acc.len().saturating_mul(negs.len()) > MAX_NEGATION_PIECES {
            return Err(OmegaError::InexactNegation);
        }
        let mut next = Vec::new();
        for a in &acc {
            for n in &negs {
                let mut m = a.clone();
                m.merge(n);
                if m.normalize() != Normalized::False {
                    next.push(m);
                }
            }
        }
        acc = next;
    }
    Ok(acc)
}

/// Eliminates all non-stride existentials, returning an equivalent union of
/// conjuncts whose existentials are pure congruence witnesses (each occurs
/// in exactly one equality and in no inequality).
///
/// Code generation and negation both require this normal form: congruences
/// translate to loop strides or `mod` guards, while general existential
/// systems do not.
///
/// # Errors
///
/// Returns [`OmegaError::InexactNegation`] if the reduction does not
/// converge within its fuel budget (does not happen for the constraint
/// class produced by affine loop nests and HPF layouts).
pub fn to_stride_form(c: Conjunct) -> Result<Vec<Conjunct>, OmegaError> {
    let mut done = Vec::new();
    let mut work = vec![c];
    let mut fuel = STRIDE_FUEL;
    while let Some(mut c) = work.pop() {
        if fuel == 0 {
            return Err(OmegaError::InexactNegation);
        }
        fuel -= 1;
        if c.normalize() == Normalized::False {
            continue;
        }
        match first_complex_exist(&c) {
            None => done.push(c),
            Some(v) => work.extend(c.eliminate_exact(v)?),
        }
    }
    Ok(done)
}

/// Negates a conjunct whose existentials are all pure congruence witnesses:
/// the complement is the union of the per-constraint negations, made
/// *pairwise disjoint* by the standard prefix trick —
/// `¬(c1 ∧ c2 ∧ ...) = ¬c1 ∨ (c1 ∧ ¬c2) ∨ (c1 ∧ c2 ∧ ¬c3) ∨ ...`.
///
/// Disjointness matters downstream: code generation turns the pieces of a
/// set difference into loop nests and must enumerate every tuple exactly
/// once, so an overlapping complement would duplicate iterations (and
/// communication messages). The prefix costs extra constraints per piece
/// but never increases the piece count.
fn negate_stride_conjunct(c: &Conjunct) -> Vec<Conjunct> {
    let mut out = Vec::new();
    let mut prefix = Conjunct::new();
    for e in c.geqs() {
        // ¬(e >= 0)  =  -e - 1 >= 0, under the satisfied prefix.
        let mut n = prefix.clone();
        let mut neg = e.negated();
        neg.add_constant(-1);
        n.add_geq(neg);
        if n.normalize() != Normalized::False {
            out.push(n);
        }
        prefix.add_geq(e.clone());
    }
    for e in c.eqs() {
        let (exist_gcd, f) = split_exist_part(e);
        match exist_gcd {
            None => {
                // ¬(f = 0)  =  f >= 1  ∨  -f >= 1 (disjoint halves).
                let mut hi = prefix.clone();
                let mut a = f.clone();
                a.add_constant(-1);
                hi.add_geq(a);
                if hi.normalize() != Normalized::False {
                    out.push(hi);
                }
                let mut lo = prefix.clone();
                let mut b = f.negated();
                b.add_constant(-1);
                lo.add_geq(b);
                if lo.normalize() != Normalized::False {
                    out.push(lo);
                }
                prefix.add_eq(f.clone());
            }
            Some(g) if g <= 1 => {
                // f ≡ 0 (mod 1): tautology; contributes nothing to ¬c.
            }
            Some(g) => {
                // ¬(f ≡ 0 mod g): f ≡ r (mod g) for r = 1..g-1 (disjoint
                // residue classes).
                for r in 1..g {
                    let mut n = prefix.clone();
                    let mut expr = f.clone();
                    expr.add_constant(-r);
                    n.add_stride(expr, g);
                    if n.normalize() != Normalized::False {
                        out.push(n);
                    }
                }
                prefix.add_stride(f.clone(), g);
            }
        }
    }
    out
}

/// Finds an existential that occurs in an inequality or in more than one
/// equality (and is therefore not a plain congruence witness).
fn first_complex_exist(c: &Conjunct) -> Option<Var> {
    let mut eq_count: BTreeMap<Var, u32> = BTreeMap::new();
    for e in c.eqs() {
        for (v, _) in e.terms() {
            if v.is_exist() {
                *eq_count.entry(v).or_insert(0) += 1;
            }
        }
    }
    for e in c.geqs() {
        for (v, _) in e.terms() {
            if v.is_exist() {
                return Some(v);
            }
        }
    }
    eq_count.into_iter().find(|&(_, n)| n > 1).map(|(v, _)| v)
}

/// Splits an equality into its existential part and the free part.
///
/// For `Σ k_i·α_i + f = 0` (α_i existential, f free), the reachable values of
/// the existential part are exactly the multiples of `g = gcd(k_i)`, so the
/// constraint is `f ≡ 0 (mod g)`. Returns `(Some(g), f)`; `(None, e)` if no
/// existentials occur.
fn split_exist_part(e: &LinExpr) -> (Option<i64>, LinExpr) {
    let mut g = 0i64;
    let mut f = LinExpr::constant(e.constant_term());
    let mut any = false;
    for (v, c) in e.terms() {
        if v.is_exist() {
            any = true;
            g = gcd(g, c);
        } else {
            f.add_term(v, c);
        }
    }
    if any {
        (Some(g.abs()), f)
    } else {
        (None, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::Var;

    fn iv(n: u32) -> Var {
        Var::In(n)
    }

    fn member_of_union(pieces: &[Conjunct], x: i64) -> bool {
        pieces
            .iter()
            .any(|c| c.contains(|v| if v == iv(0) { Some(x) } else { None }))
    }

    #[test]
    fn negate_interval() {
        let mut c = Conjunct::new();
        c.add_bounds(iv(0), 3, 7);
        let neg = negate_conjunct(&c).unwrap();
        for x in -5..=15i64 {
            assert_eq!(member_of_union(&neg, x), !(3..=7).contains(&x), "x = {x}");
        }
    }

    #[test]
    fn negate_equality() {
        let mut c = Conjunct::new();
        c.add_eq(crate::LinExpr::from_terms([(iv(0), 1)], -4)); // i = 4
        let neg = negate_conjunct(&c).unwrap();
        for x in 0..=8i64 {
            assert_eq!(member_of_union(&neg, x), x != 4);
        }
    }

    #[test]
    fn negate_stride() {
        // i ≡ 0 (mod 3)
        let mut c = Conjunct::new();
        c.add_stride(crate::LinExpr::var(iv(0)), 3);
        let neg = negate_conjunct(&c).unwrap();
        for x in -9..=9i64 {
            assert_eq!(member_of_union(&neg, x), x.rem_euclid(3) != 0, "x = {x}");
        }
    }

    #[test]
    fn negate_empty_is_universe() {
        let mut c = Conjunct::new();
        c.add_geq(crate::LinExpr::constant(-1)); // false
        let neg = negate_conjunct(&c).unwrap();
        assert!(member_of_union(&neg, 42));
    }

    #[test]
    fn negate_complex_existential_via_elimination() {
        // { i : exists a : 2a <= i <= 2a + 1 && 0 <= a <= 2 } = [0, 5]
        let a = Var::Exist(0);
        let mut c = Conjunct::new();
        c.add_geq(crate::LinExpr::from_terms([(iv(0), 1), (a, -2)], 0));
        c.add_geq(crate::LinExpr::from_terms([(iv(0), -1), (a, 2)], 1));
        c.add_geq(crate::LinExpr::from_terms([(a, 1)], 0));
        c.add_geq(crate::LinExpr::from_terms([(a, -1)], 2));
        let neg = negate_conjunct(&c).unwrap();
        for x in -5..=10i64 {
            assert_eq!(member_of_union(&neg, x), !(0..=5).contains(&x), "x = {x}");
        }
    }
}
