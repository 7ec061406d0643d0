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
        }
    }

    /// The paper's guard lifting, to a fixed point: merges adjacent guards
    /// with equal conditions and hoists each guard, or the conjuncts of it
    /// that do not mention a loop's variable, out of that loop.
    ///
    /// Exact only if no statement assigns a variable a guard reads: a
    /// merged or hoisted guard is evaluated once for statements it used to
    /// be re-evaluated between. Clients that assign scalars check this with
    /// [`Code::mentions`].
    pub fn lift_guards(&self) -> Code {
        let mut code = self.simplified();
        loop {
            let next = lift_once(&code).simplified();
            if next == code {
                return code;
            }
            code = next;
        }
    }

    /// True if a loop variable, bound or guard mentions variable `name`.
    pub fn mentions(&self, name: &str) -> bool {
        match self {
            Code::Seq(cs) => cs.iter().any(|c| c.mentions(name)),
            Code::Loop {
                var, lo, hi, body, ..
            } => var == name || lo.mentions(name) || hi.mentions(name) || body.mentions(name),
            Code::If { cond, body } => cond.mentions(name) || body.mentions(name),
            Code::Stmt(_) => false,
        }
    }
}

/// One pass of guard merging and hoisting.
fn lift_once(code: &Code) -> Code {
    match code {
        Code::Seq(cs) => {
            // `if (c) x; if (c) y` is `if (c) { x; y }`.
            let mut out: Vec<Code> = Vec::with_capacity(cs.len());
            for c in cs.iter().map(lift_once) {
                match (out.pop(), c) {
                    (Some(Code::If { cond: a, body: x }), Code::If { cond: b, body: y })
                        if a == b =>
                    {
                        let body = Box::new(Code::Seq(vec![*x, *y]));
                        out.push(Code::If { cond: a, body });
                    }
                    (prev, c) => out.extend(prev.into_iter().chain(Some(c))),
                }
            }
            Code::Seq(out)
        }
        Code::Loop {
            var,
            lo,
            hi,
            step,
            body,
        } => {
            let body = lift_once(body);
            let around = |body| Code::Loop {
                var: var.clone(),
                lo: lo.clone(),
                hi: hi.clone(),
                step: *step,
                body: Box::new(body),
            };
            // A guarded body: the conjuncts that do not mention the loop
            // variable move out of the loop, the others stay inside.
            if let Code::If { cond, body: inner } = &body {
                let conjuncts = match cond {
                    Cond::And(cs) => cs.clone(),
                    c => vec![c.clone()],
                };
                let (inv, var_part): (Vec<_>, Vec<_>) =
                    conjuncts.into_iter().partition(|c| !c.mentions(var));
                if !inv.is_empty() {
                    let inner = if var_part.is_empty() {
                        (**inner).clone()
                    } else {
                        Code::If {
                            cond: Cond::And(var_part).simplified(),
                            body: inner.clone(),
                        }
                    };
                    return Code::If {
                        cond: Cond::And(inv).simplified(),
                        body: Box::new(around(inner)),
                    };
                }
            }
            around(body)
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
    use crate::expr::{Cond, Env, Expr};

    fn v(name: &str) -> Expr {
        Expr::Var(name.into())
    }

    /// Each executed statement instance with the values of the named
    /// variables.
    type Visits = Vec<(StmtId, Vec<i64>)>;

    /// Runs `code` by name with `params` bound, and records each statement
    /// instance with the bound values of `names`. Also returns the
    /// bindings as the run left them.
    fn run(code: &Code, names: &[&str], params: &[(&str, i64)]) -> (Visits, Env) {
        fn walk(code: &Code, env: &mut Env, names: &[&str], got: &mut Visits) {
            match code {
                Code::Seq(cs) => cs.iter().for_each(|c| walk(c, env, names, got)),
                Code::Loop {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    let (lo, hi) = (lo.eval(env).unwrap(), hi.eval(env).unwrap());
                    for x in (lo..=hi).step_by(*step as usize) {
                        env.insert(var.clone(), x);
                        walk(body, env, names, got);
                    }
                    env.remove(var);
                }
                Code::If { cond, body } => {
                    if cond.eval(env).unwrap() {
                        walk(body, env, names, got);
                    }
                }
                Code::Stmt(id) => {
                    let values = names.iter().filter_map(|n| env.get(*n).copied());
                    got.push((*id, values.collect()));
                }
            }
        }
        let mut env: Env = params.iter().map(|&(n, v)| (n.to_string(), v)).collect();
        let mut got = Vec::new();
        walk(code, &mut env, names, &mut got);
        (got, env)
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
        let (got, env) = run(&code, &["i", "j"], &[]);
        let got: Vec<Vec<i64>> = got.into_iter().map(|(_, t)| t).collect();
        assert_eq!(
            got,
            [[1, 1], [1, 2], [1, 3], [2, 2], [2, 3], [3, 3]].map(Vec::from)
        );
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
        let lifted = code.lift_guards();
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

    #[test]
    fn equal_guards_merge_and_lift_out_of_every_loop() {
        let m = || Cond::Geq(v("m"), Expr::Const(1));
        let guard = |cond: Cond, body: Code| Code::If {
            cond,
            body: Box::new(body),
        };
        let s = |id| Code::Stmt(StmtId(id));
        let both = || Code::Seq(vec![s(0), s(1)]);
        let loop_over = |var: &str, hi: Expr, body: Code| Code::Loop {
            var: var.into(),
            lo: Expr::Const(1),
            hi,
            step: 1,
            body: Box::new(body),
        };
        let nest = |body| loop_over("i", Expr::Const(3), loop_over("j", v("n"), body));
        // Equal guards merge; a guard on `j` stays apart, inside the loop.
        let j2 = guard(Cond::Geq(v("j"), Expr::Const(2)), s(2));
        let body = Code::Seq(vec![guard(m(), s(0)), guard(m(), s(1)), j2.clone()]);
        let lifted = nest(body.clone()).lift_guards();
        assert_eq!(lifted, nest(Code::Seq(vec![guard(m(), both()), j2])));
        // Alone in the loop body, the merged guard leaves both loops.
        let alone = nest(Code::Seq(vec![guard(m(), s(0)), guard(m(), s(1))]));
        assert_eq!(alone.lift_guards(), guard(m(), nest(both())));
        for (code, lifted) in [(nest(body), lifted), (alone.clone(), alone.lift_guards())] {
            for (m, n) in [(0, 3), (1, 3), (1, 0)] {
                let params = [("m", m), ("n", n)];
                let want = run(&code, &["i", "j"], &params).0;
                assert_eq!(
                    run(&lifted, &["i", "j"], &params).0,
                    want,
                    "m = {m}, n = {n}"
                );
            }
        }
    }
}
