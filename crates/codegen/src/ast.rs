//! The loop-nest AST produced by code generation.

use crate::expr::{Cond, Expr};
use std::fmt;

/// Opaque handle identifying a statement to the code-generation client.
///
/// The generator enumerates iteration tuples; what a statement *does* is the
/// client's business (printing, SPMD interpretation, packing a buffer, ...).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct StmtId(pub usize);

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Generated code: loop nests, guards, and statement instances.
#[derive(Clone, Debug, PartialEq)]
pub enum Code {
    /// Sequential composition.
    Seq(Vec<Code>),
    /// `do var = lo, hi, step { body }` (inclusive bounds; `step >= 1`).
    Loop {
        /// Loop index name, bound in the body.
        var: String,
        /// Lower bound (inclusive).
        lo: Expr,
        /// Upper bound (inclusive).
        hi: Expr,
        /// Stride (positive).
        step: i64,
        /// Loop body.
        body: Box<Code>,
    },
    /// `if cond { body }`.
    If {
        /// Guard condition.
        cond: Cond,
        /// Guarded code.
        body: Box<Code>,
    },
    /// One statement instance at the current loop indices.
    Stmt(StmtId),
    /// A comment for readable emission; no runtime effect.
    Comment(String),
}

impl Code {
    /// The empty program.
    pub fn empty() -> Code {
        Code::Seq(Vec::new())
    }

    /// True if no statement can execute.
    pub fn is_empty(&self) -> bool {
        match self {
            Code::Seq(cs) => cs.iter().all(Code::is_empty),
            Code::Loop { body, .. } | Code::If { body, .. } => body.is_empty(),
            Code::Stmt(_) => false,
            Code::Comment(_) => true,
        }
    }

    /// Simplifies bounds/conditions and drops dead branches.
    pub fn simplified(&self) -> Code {
        match self {
            Code::Seq(cs) => {
                let mut out = Vec::new();
                for c in cs {
                    match c.simplified() {
                        Code::Seq(inner) => out.extend(inner),
                        x => out.push(x),
                    }
                }
                if out.len() == 1 {
                    out.pop().unwrap()
                } else {
                    Code::Seq(out)
                }
            }
            Code::Loop {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let body = body.simplified();
                if body.is_empty() {
                    return Code::empty();
                }
                let lo = lo.simplified();
                let hi = hi.simplified();
                if let (Expr::Const(a), Expr::Const(b)) = (&lo, &hi) {
                    if a > b {
                        return Code::empty();
                    }
                }
                Code::Loop {
                    var: var.clone(),
                    lo,
                    hi,
                    step: *step,
                    body: Box::new(body),
                }
            }
            Code::If { cond, body } => {
                let body = body.simplified();
                if body.is_empty() {
                    return Code::empty();
                }
                match cond.simplified() {
                    Cond::Bool(true) => body,
                    Cond::Bool(false) => Code::empty(),
                    c => Code::If {
                        cond: c,
                        body: Box::new(body),
                    },
                }
            }
            Code::Stmt(id) => Code::Stmt(*id),
            Code::Comment(c) => Code::Comment(c.clone()),
        }
    }

    /// Hoists guards that do not mention the surrounding loop variable out
    /// of that loop, up to `levels` times (the paper's guard lifting).
    pub fn lift_guards(&self, levels: u32) -> Code {
        if levels == 0 {
            return self.clone();
        }
        let mut code = self.clone();
        for _ in 0..levels {
            code = lift_once(&code);
        }
        code.simplified()
    }

    /// Counts statement instances syntactically (not dynamically).
    pub fn count_stmts(&self) -> usize {
        match self {
            Code::Seq(cs) => cs.iter().map(Code::count_stmts).sum(),
            Code::Loop { body, .. } | Code::If { body, .. } => body.count_stmts(),
            Code::Stmt(_) => 1,
            Code::Comment(_) => 0,
        }
    }
}

/// One pass of guard hoisting.
fn lift_once(code: &Code) -> Code {
    match code {
        Code::Seq(cs) => Code::Seq(cs.iter().map(lift_once).collect()),
        Code::Loop {
            var,
            lo,
            hi,
            step,
            body,
        } => {
            let body = lift_once(body);
            // If the loop body is a single If whose condition does not
            // mention the loop variable, swap them.
            if let Code::If { cond, body: inner } = &body {
                if !cond.mentions(var) {
                    return Code::If {
                        cond: cond.clone(),
                        body: Box::new(Code::Loop {
                            var: var.clone(),
                            lo: lo.clone(),
                            hi: hi.clone(),
                            step: *step,
                            body: inner.clone(),
                        }),
                    };
                }
                // Split a conjunction into invariant and variant parts.
                if let Cond::And(cs) = cond {
                    let (inv, var_part): (Vec<_>, Vec<_>) =
                        cs.iter().cloned().partition(|c| !c.mentions(var));
                    if !inv.is_empty() && !var_part.is_empty() {
                        return Code::If {
                            cond: Cond::And(inv).simplified(),
                            body: Box::new(Code::Loop {
                                var: var.clone(),
                                lo: lo.clone(),
                                hi: hi.clone(),
                                step: *step,
                                body: Box::new(Code::If {
                                    cond: Cond::And(var_part).simplified(),
                                    body: inner.clone(),
                                }),
                            }),
                        };
                    }
                }
            }
            Code::Loop {
                var: var.clone(),
                lo: lo.clone(),
                hi: hi.clone(),
                step: *step,
                body: Box::new(body),
            }
        }
        Code::If { cond, body } => Code::If {
            cond: cond.clone(),
            body: Box::new(lift_once(body)),
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Cond, Expr};

    fn v(name: &str) -> Expr {
        Expr::Var(name.into())
    }

    /// Each executed statement instance with the values of the named
    /// variables.
    type Visits = Vec<(StmtId, Vec<i64>)>;

    /// Lowers `code` with `names` numbered first, runs it with `params`
    /// bound, and records each statement instance with the values of
    /// `names`. Also returns the frame as the run left it.
    fn run(code: &Code, names: &[&str], params: &[(&str, i64)]) -> (Visits, Vec<Option<i64>>) {
        let mut all: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        let lowered = code.lower(
            &mut |n| match all.iter().position(|m| m == n) {
                Some(s) => s,
                None => {
                    all.push(n.to_string());
                    all.len() - 1
                }
            },
            &|_| None,
        );
        let mut frame: Vec<Option<i64>> = all
            .iter()
            .map(|n| params.iter().find(|p| p.0 == n).map(|p| p.1))
            .collect();
        let mut got = Vec::new();
        lowered
            .run(&mut frame, &mut |id, f: &mut Vec<Option<i64>>| {
                got.push((id, f[..names.len()].iter().flatten().copied().collect()));
                Ok::<(), ()>(())
            })
            .unwrap();
        (got, frame)
    }

    #[test]
    fn execute_collects_tuples() {
        // do i = 1,3 { do j = i,3 { S0 } }
        let code = Code::Loop {
            var: "i".into(),
            lo: Expr::Const(1),
            hi: Expr::Const(3),
            step: 1,
            body: Box::new(Code::Loop {
                var: "j".into(),
                lo: v("i"),
                hi: Expr::Const(3),
                step: 1,
                body: Box::new(Code::Stmt(StmtId(0))),
            }),
        };
        let (got, frame) = run(&code, &["i", "j"], &[]);
        let got: Vec<Vec<i64>> = got.into_iter().map(|(_, t)| t).collect();
        assert_eq!(
            got,
            [[1, 1], [1, 2], [1, 3], [2, 2], [2, 3], [3, 3]].map(Vec::from)
        );
        assert!(
            frame.iter().all(Option::is_none),
            "loop vars must be unbound after the loop"
        );
    }

    #[test]
    fn execute_respects_step_and_guard() {
        let code = Code::Loop {
            var: "i".into(),
            lo: Expr::Const(0),
            hi: Expr::Const(10),
            step: 3,
            body: Box::new(Code::If {
                cond: Cond::Geq(v("i"), Expr::Const(4)),
                body: Box::new(Code::Stmt(StmtId(7))),
            }),
        };
        let (got, _) = run(&code, &["i"], &[]);
        assert_eq!(got, vec![(StmtId(7), vec![6]), (StmtId(7), vec![9])]);
    }

    #[test]
    fn simplify_drops_empty_loop() {
        let code = Code::Loop {
            var: "i".into(),
            lo: Expr::Const(5),
            hi: Expr::Const(1),
            step: 1,
            body: Box::new(Code::Stmt(StmtId(0))),
        };
        assert!(code.simplified().is_empty());
    }

    #[test]
    fn lift_guard_out_of_loop() {
        // do i { if (n >= 1 && i >= 2) S } => if (n >= 1) do i { if (i >= 2) S }
        let code = Code::Loop {
            var: "i".into(),
            lo: Expr::Const(1),
            hi: v("n"),
            step: 1,
            body: Box::new(Code::If {
                cond: Cond::And(vec![
                    Cond::Geq(v("n"), Expr::Const(1)),
                    Cond::Geq(v("i"), Expr::Const(2)),
                ]),
                body: Box::new(Code::Stmt(StmtId(0))),
            }),
        };
        let lifted = code.lift_guards(1);
        match &lifted {
            Code::If { cond, body } => {
                assert!(!cond.mentions("i"));
                assert!(matches!(**body, Code::Loop { .. }));
            }
            other => panic!("expected hoisted guard, got {other:?}"),
        }
        // Semantics preserved.
        let (a, _) = run(&code, &["i"], &[("n", 5)]);
        let (b, _) = run(&lifted, &["i"], &[("n", 5)]);
        assert_eq!(a.len(), 4);
        assert_eq!(a, b);
    }
}
