//! Scalar integer expressions and conditions appearing in generated code.
//!
//! Generated loop bounds are `max`/`min` combinations of affine expressions
//! with exact integer division (`ceil`/`floor`); guards are conjunctions of
//! comparisons and congruence (`mod`) tests. Both evaluate against an
//! [`Env`] of named integer bindings.

use std::collections::HashMap;
use std::fmt;

/// An integer-valued expression in generated code.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer literal.
    Const(i64),
    /// Named variable: a loop index or a symbolic parameter.
    Var(String),
    /// Sum of the operands.
    Add(Vec<Expr>),
    /// `k * e`.
    Mul(i64, Box<Expr>),
    /// `floor(e / k)`, `k > 0`.
    FloorDiv(Box<Expr>, i64),
    /// `ceil(e / k)`, `k > 0`.
    CeilDiv(Box<Expr>, i64),
    /// `e mod k` (mathematical: result in `0..k`), `k > 0`.
    Mod(Box<Expr>, i64),
    /// Maximum of the operands (at least one).
    Max(Vec<Expr>),
    /// Minimum of the operands (at least one).
    Min(Vec<Expr>),
}

/// A boolean condition in generated code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Cond {
    /// `a >= b`.
    Geq(Expr, Expr),
    /// `a = b`.
    Eq(Expr, Expr),
    /// `e ≡ r (mod m)`.
    Stride {
        /// Expression whose residue is tested.
        expr: Expr,
        /// Modulus (`> 0`).
        modulus: i64,
        /// Expected residue in `0..modulus`.
        residue: i64,
    },
    /// Conjunction.
    And(Vec<Cond>),
    /// Disjunction.
    Or(Vec<Cond>),
    /// Constant truth.
    Bool(bool),
}

/// Variable bindings for evaluating generated code.
pub type Env = HashMap<String, i64>;

/// Error produced when evaluating an expression with an unbound variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnboundVar(pub String);

impl fmt::Display for UnboundVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unbound variable '{}'", self.0)
    }
}

impl std::error::Error for UnboundVar {}

pub(crate) fn floor_div(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

impl Expr {
    /// Evaluates under `env`.
    ///
    /// # Errors
    ///
    /// Returns [`UnboundVar`] if a variable is missing from `env`.
    pub fn eval(&self, env: &Env) -> Result<i64, UnboundVar> {
        Ok(match self {
            Expr::Const(c) => *c,
            Expr::Var(name) => *env.get(name).ok_or_else(|| UnboundVar(name.clone()))?,
            Expr::Add(es) => {
                let mut acc = 0i64;
                for e in es {
                    acc += e.eval(env)?;
                }
                acc
            }
            Expr::Mul(k, e) => k * e.eval(env)?,
            Expr::FloorDiv(e, k) => floor_div(e.eval(env)?, *k),
            Expr::CeilDiv(e, k) => -floor_div(-e.eval(env)?, *k),
            Expr::Mod(e, k) => e.eval(env)?.rem_euclid(*k),
            Expr::Max(es) => {
                let mut it = es.iter();
                let mut acc = it.next().expect("Max of nothing").eval(env)?;
                for e in it {
                    acc = acc.max(e.eval(env)?);
                }
                acc
            }
            Expr::Min(es) => {
                let mut it = es.iter();
                let mut acc = it.next().expect("Min of nothing").eval(env)?;
                for e in it {
                    acc = acc.min(e.eval(env)?);
                }
                acc
            }
        })
    }

    /// Structural simplification: folds constants, flattens nested
    /// `Add`/`Max`/`Min`, and removes trivial wrappers.
    pub fn simplified(&self) -> Expr {
        match self {
            Expr::Const(_) | Expr::Var(_) => self.clone(),
            Expr::Add(es) => {
                let mut flat = Vec::new();
                let mut konst = 0i64;
                for e in es {
                    match e.simplified() {
                        Expr::Const(c) => konst += c,
                        Expr::Add(inner) => {
                            for x in inner {
                                if let Expr::Const(c) = x {
                                    konst += c;
                                } else {
                                    flat.push(x);
                                }
                            }
                        }
                        x => flat.push(x),
                    }
                }
                if konst != 0 || flat.is_empty() {
                    flat.push(Expr::Const(konst));
                }
                if flat.len() == 1 {
                    flat.pop().unwrap()
                } else {
                    Expr::Add(flat)
                }
            }
            Expr::Mul(k, e) => match (k, e.simplified()) {
                (0, _) => Expr::Const(0),
                (1, x) => x,
                (k, Expr::Const(c)) => Expr::Const(k * c),
                (k, x) => Expr::Mul(*k, Box::new(x)),
            },
            Expr::FloorDiv(e, k) => match (e.simplified(), k) {
                (x, 1) => x,
                (Expr::Const(c), k) => Expr::Const(floor_div(c, *k)),
                (x, k) => Expr::FloorDiv(Box::new(x), *k),
            },
            Expr::CeilDiv(e, k) => match (e.simplified(), k) {
                (x, 1) => x,
                (Expr::Const(c), k) => Expr::Const(-floor_div(-c, *k)),
                (x, k) => Expr::CeilDiv(Box::new(x), *k),
            },
            Expr::Mod(e, k) => match (e.simplified(), k) {
                (_, 1) => Expr::Const(0),
                (Expr::Const(c), k) => Expr::Const(c.rem_euclid(*k)),
                (x, k) => Expr::Mod(Box::new(x), *k),
            },
            Expr::Max(es) | Expr::Min(es) => {
                let is_max = matches!(self, Expr::Max(_));
                let mut flat = Vec::new();
                let mut konst: Option<i64> = None;
                for e in es {
                    match e.simplified() {
                        Expr::Const(c) => {
                            konst = Some(match konst {
                                None => c,
                                Some(k) if is_max => k.max(c),
                                Some(k) => k.min(c),
                            })
                        }
                        Expr::Max(inner) if is_max => flat.extend(inner),
                        Expr::Min(inner) if !is_max => flat.extend(inner),
                        x => flat.push(x),
                    }
                }
                flat.dedup();
                if let Some(k) = konst {
                    flat.push(Expr::Const(k));
                }
                if flat.len() == 1 {
                    flat.pop().unwrap()
                } else if is_max {
                    Expr::Max(flat)
                } else {
                    Expr::Min(flat)
                }
            }
        }
    }

    /// True if the expression mentions variable `name`.
    pub fn mentions(&self, name: &str) -> bool {
        match self {
            Expr::Const(_) => false,
            Expr::Var(v) => v == name,
            Expr::Add(es) | Expr::Max(es) | Expr::Min(es) => es.iter().any(|e| e.mentions(name)),
            Expr::Mul(_, e) | Expr::FloorDiv(e, _) | Expr::CeilDiv(e, _) | Expr::Mod(e, _) => {
                e.mentions(name)
            }
        }
    }
}

impl Cond {
    /// Evaluates under `env`.
    ///
    /// # Errors
    ///
    /// Returns [`UnboundVar`] if a variable is missing from `env`.
    pub fn eval(&self, env: &Env) -> Result<bool, UnboundVar> {
        Ok(match self {
            Cond::Geq(a, b) => a.eval(env)? >= b.eval(env)?,
            Cond::Eq(a, b) => a.eval(env)? == b.eval(env)?,
            Cond::Stride {
                expr,
                modulus,
                residue,
            } => expr.eval(env)?.rem_euclid(*modulus) == *residue,
            Cond::And(cs) => {
                for c in cs {
                    if !c.eval(env)? {
                        return Ok(false);
                    }
                }
                true
            }
            Cond::Or(cs) => {
                for c in cs {
                    if c.eval(env)? {
                        return Ok(true);
                    }
                }
                false
            }
            Cond::Bool(b) => *b,
        })
    }

    /// Structural simplification of the condition.
    pub fn simplified(&self) -> Cond {
        match self {
            Cond::Geq(a, b) => {
                let (a, b) = (a.simplified(), b.simplified());
                if let (Expr::Const(x), Expr::Const(y)) = (&a, &b) {
                    return Cond::Bool(x >= y);
                }
                Cond::Geq(a, b)
            }
            Cond::Eq(a, b) => {
                let (a, b) = (a.simplified(), b.simplified());
                if let (Expr::Const(x), Expr::Const(y)) = (&a, &b) {
                    return Cond::Bool(x == y);
                }
                Cond::Eq(a, b)
            }
            Cond::Stride {
                expr,
                modulus,
                residue,
            } => {
                let e = expr.simplified();
                if let Expr::Const(c) = e {
                    return Cond::Bool(c.rem_euclid(*modulus) == *residue);
                }
                Cond::Stride {
                    expr: e,
                    modulus: *modulus,
                    residue: *residue,
                }
            }
            Cond::And(cs) => {
                let mut flat = Vec::new();
                for c in cs {
                    match c.simplified() {
                        Cond::Bool(true) => {}
                        Cond::Bool(false) => return Cond::Bool(false),
                        Cond::And(inner) => flat.extend(inner),
                        x => flat.push(x),
                    }
                }
                flat.dedup();
                match flat.len() {
                    0 => Cond::Bool(true),
                    1 => flat.pop().unwrap(),
                    _ => Cond::And(flat),
                }
            }
            Cond::Or(cs) => {
                let mut flat = Vec::new();
                for c in cs {
                    match c.simplified() {
                        Cond::Bool(false) => {}
                        Cond::Bool(true) => return Cond::Bool(true),
                        Cond::Or(inner) => flat.extend(inner),
                        x => flat.push(x),
                    }
                }
                flat.dedup();
                match flat.len() {
                    0 => Cond::Bool(false),
                    1 => flat.pop().unwrap(),
                    _ => Cond::Or(flat),
                }
            }
            Cond::Bool(b) => Cond::Bool(*b),
        }
    }

    /// True if the condition mentions variable `name`.
    pub fn mentions(&self, name: &str) -> bool {
        match self {
            Cond::Geq(a, b) | Cond::Eq(a, b) => a.mentions(name) || b.mentions(name),
            Cond::Stride { expr, .. } => expr.mentions(name),
            Cond::And(cs) | Cond::Or(cs) => cs.iter().any(|c| c.mentions(name)),
            Cond::Bool(_) => false,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Add(es) => {
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        if let Expr::Const(c) = e {
                            if *c < 0 {
                                write!(f, " - {}", -c)?;
                                continue;
                            }
                        }
                        if let Expr::Mul(k, inner) = e {
                            if *k < 0 {
                                if *k == -1 {
                                    write!(f, " - {inner}")?;
                                } else {
                                    write!(f, " - {}*{inner}", -k)?;
                                }
                                continue;
                            }
                        }
                        write!(f, " + {e}")?;
                    } else {
                        write!(f, "{e}")?;
                    }
                }
                Ok(())
            }
            Expr::Mul(k, e) => {
                if matches!(**e, Expr::Var(_) | Expr::Const(_)) {
                    write!(f, "{k}*{e}")
                } else {
                    write!(f, "{k}*({e})")
                }
            }
            Expr::FloorDiv(e, k) => write!(f, "floor({e}, {k})"),
            Expr::CeilDiv(e, k) => write!(f, "ceil({e}, {k})"),
            Expr::Mod(e, k) => write!(f, "mod({e}, {k})"),
            Expr::Max(es) => {
                write!(f, "max(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Min(es) => {
                write!(f, "min(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::Geq(a, b) => write!(f, "{a} >= {b}"),
            Cond::Eq(a, b) => write!(f, "{a} == {b}"),
            Cond::Stride {
                expr,
                modulus,
                residue,
            } => write!(f, "mod({expr}, {modulus}) == {residue}"),
            Cond::And(cs) => {
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " .and. ")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
            Cond::Or(cs) => {
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " .or. ")?;
                    }
                    write!(f, "({c})")?;
                }
                Ok(())
            }
            Cond::Bool(b) => write!(f, "{}", if *b { ".true." } else { ".false." }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&str, i64)]) -> Env {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn eval_arithmetic() {
        let e = Expr::Add(vec![
            Expr::Mul(2, Box::new(Expr::Var("i".into()))),
            Expr::Const(3),
        ]);
        assert_eq!(e.eval(&env(&[("i", 5)])).unwrap(), 13);
        assert!(e.eval(&env(&[])).is_err());
    }

    #[test]
    fn eval_divisions() {
        let e = Expr::FloorDiv(Box::new(Expr::Var("x".into())), 4);
        assert_eq!(e.eval(&env(&[("x", -1)])).unwrap(), -1);
        assert_eq!(e.eval(&env(&[("x", 7)])).unwrap(), 1);
        let c = Expr::CeilDiv(Box::new(Expr::Var("x".into())), 4);
        assert_eq!(c.eval(&env(&[("x", 7)])).unwrap(), 2);
        assert_eq!(c.eval(&env(&[("x", -1)])).unwrap(), 0);
    }

    #[test]
    fn simplify_folds_constants() {
        let e = Expr::Add(vec![
            Expr::Const(2),
            Expr::Mul(3, Box::new(Expr::Const(4))),
            Expr::Var("n".into()),
        ]);
        let s = e.simplified();
        assert_eq!(s, Expr::Add(vec![Expr::Var("n".into()), Expr::Const(14)]));
        let m = Expr::Max(vec![Expr::Const(3), Expr::Const(7)]).simplified();
        assert_eq!(m, Expr::Const(7));
    }

    #[test]
    fn simplify_conditions() {
        let c = Cond::And(vec![
            Cond::Bool(true),
            Cond::Geq(Expr::Const(3), Expr::Const(2)),
            Cond::Eq(Expr::Var("i".into()), Expr::Const(1)),
        ]);
        assert_eq!(
            c.simplified(),
            Cond::Eq(Expr::Var("i".into()), Expr::Const(1))
        );
        let f = Cond::And(vec![Cond::Bool(false), Cond::Bool(true)]);
        assert_eq!(f.simplified(), Cond::Bool(false));
    }

    #[test]
    fn stride_condition() {
        let c = Cond::Stride {
            expr: Expr::Var("i".into()),
            modulus: 3,
            residue: 2,
        };
        assert!(c.eval(&env(&[("i", 5)])).unwrap());
        assert!(!c.eval(&env(&[("i", 6)])).unwrap());
        assert!(c.eval(&env(&[("i", -1)])).unwrap());
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::Max(vec![
            Expr::Var("lb".into()),
            Expr::Add(vec![
                Expr::Mul(25, Box::new(Expr::Var("p".into()))),
                Expr::Const(1),
            ]),
        ]);
        assert_eq!(e.to_string(), "max(lb, 25*p + 1)");
    }
}
