//! The loop-nest AST produced by code generation.

use crate::expr::{Cond, Env, Expr, UnboundVar};
use crate::slots::{Halt, Slot};
use std::collections::HashMap;
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

    /// Runs the code by name: lowers it (see [`Code::lower`]) and invokes
    /// `on_stmt` for every executed statement instance with `env` holding
    /// the parameters and the enclosing loop indices. Loop indices are
    /// unbound (or restored) again when the run returns.
    ///
    /// # Errors
    ///
    /// Returns [`UnboundVar`] if a bound or guard mentions a variable that is
    /// neither a parameter in `env` nor an enclosing loop index.
    pub fn execute<F: FnMut(StmtId, &Env)>(
        &self,
        env: &mut Env,
        on_stmt: &mut F,
    ) -> Result<(), UnboundVar> {
        let mut names: Vec<String> = Vec::new();
        let mut index: HashMap<String, Slot> = HashMap::new();
        let code = self.lower(
            &mut |name| {
                *index.entry(name.to_string()).or_insert_with(|| {
                    names.push(name.to_string());
                    names.len() - 1
                })
            },
            &|_| None,
        );
        let mut slots: Vec<Option<i64>> = names.iter().map(|n| env.get(n).copied()).collect();
        // Mirrors the slots into `env`, where the callback reads them.
        let sync = |env: &mut Env, slots: &[Option<i64>]| {
            for (name, v) in names.iter().zip(slots) {
                match v {
                    Some(v) => {
                        env.insert(name.clone(), *v);
                    }
                    None => {
                        env.remove(name);
                    }
                }
            }
        };
        let out = code.run(&mut slots, &mut |id, slots: &mut Vec<Option<i64>>| {
            sync(env, slots);
            on_stmt(id, env);
            Ok::<(), std::convert::Infallible>(())
        });
        sync(env, &slots);
        out.map_err(|h| match h {
            Halt::Unbound(s) => UnboundVar(names[s].clone()),
            Halt::Stmt(never) => match never {},
        })
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
        let mut env = Env::new();
        let mut got = Vec::new();
        code.execute(&mut env, &mut |_, e| {
            got.push((e["i"], e["j"]));
        })
        .unwrap();
        assert_eq!(got, vec![(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]);
        assert!(env.is_empty(), "loop vars must be unbound after the loop");
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
        let mut got = Vec::new();
        code.execute(&mut Env::new(), &mut |id, e| got.push((id, e["i"])))
            .unwrap();
        assert_eq!(got, vec![(StmtId(7), 6), (StmtId(7), 9)]);
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
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut env: Env = [("n".to_string(), 5i64)].into_iter().collect();
        code.execute(&mut env.clone(), &mut |_, e| a.push(e["i"]))
            .unwrap();
        lifted
            .execute(&mut env, &mut |_, e| b.push(e["i"]))
            .unwrap();
        assert_eq!(a, b);
    }
}
