//! Generated code lowered onto numbered integer slots.
//!
//! [`Code`] names its variables; running it by name means a hash lookup per
//! variable read and a `String` clone per loop iteration. [`Code::lower`]
//! resolves every name to a [`Slot`] once, drops comments, and fixes each
//! loop's stride, so [`SlotCode::run`] touches nothing but a slice of
//! `Option<i64>`.
//!
//! A caller may impose a [`Stride`] on unit-step loops at lowering time. The
//! SPMD simulator uses it for the paper's §4.2/Figure 6 runtime rewrite of
//! partner loops over virtual-processor dimensions: the loop visits only the
//! real VPs `v = B*c + 1` instead of every virtual index, with the block
//! size `B` read from its slot when the loop starts.

use crate::ast::{Code, StmtId};
use crate::expr::{floor_div, Cond, Expr};

/// Index of an integer variable in a slot frame.
pub type Slot = usize;

/// A frame of integer slots a [`SlotCode`] reads its parameters from and
/// binds its loop indices in. `None` is an unbound variable.
pub trait Slots {
    /// The slot values.
    fn slots(&self) -> &[Option<i64>];
    /// The slot values, for binding loop indices.
    fn slots_mut(&mut self) -> &mut [Option<i64>];
}

impl Slots for Vec<Option<i64>> {
    fn slots(&self) -> &[Option<i64>] {
        self
    }

    fn slots_mut(&mut self) -> &mut [Option<i64>] {
        self
    }
}

/// A stride imposed on a unit-step loop. When the loop starts and the slot
/// `step` holds some `b > 1`, the loop visits only the values
/// `≡ residue (mod b)`, from the first one at or above its lower bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stride {
    /// Slot holding the distance between visited values.
    pub step: Slot,
    /// Residue class of the visited values.
    pub residue: i64,
}

/// Why a [`SlotCode::run`] stopped early.
#[derive(Clone, Debug, PartialEq)]
pub enum Halt<E> {
    /// A bound or guard read this unbound slot.
    Unbound(Slot),
    /// The statement callback failed.
    Stmt(E),
}

#[derive(Clone, Debug)]
enum SExpr {
    Const(i64),
    Var(Slot),
    Add(Box<[SExpr]>),
    Mul(i64, Box<SExpr>),
    FloorDiv(Box<SExpr>, i64),
    CeilDiv(Box<SExpr>, i64),
    Mod(Box<SExpr>, i64),
    Max(Box<[SExpr]>),
    Min(Box<[SExpr]>),
}

#[derive(Clone, Debug)]
enum SCond {
    Geq(SExpr, SExpr),
    Eq(SExpr, SExpr),
    Stride {
        expr: SExpr,
        modulus: i64,
        residue: i64,
    },
    And(Box<[SCond]>),
    Or(Box<[SCond]>),
    Bool(bool),
}

#[derive(Clone, Debug)]
enum Node {
    Seq(Box<[Node]>),
    Loop {
        var: Slot,
        lo: SExpr,
        hi: SExpr,
        step: i64,
        stride: Option<Stride>,
        body: Box<Node>,
    },
    If {
        cond: SCond,
        body: Box<Node>,
    },
    Stmt(StmtId),
}

/// [`Code`] with every variable resolved to a [`Slot`].
#[derive(Clone, Debug)]
pub struct SlotCode {
    root: Node,
}

impl Code {
    /// Lowers the code onto slots: `slot_of` numbers each variable name
    /// (called once per occurrence, so it should intern), and `stride`
    /// imposes a [`Stride`] on the unit-step loops over the variables it
    /// names.
    pub fn lower(
        &self,
        slot_of: &mut dyn FnMut(&str) -> Slot,
        stride: &dyn Fn(&str) -> Option<Stride>,
    ) -> SlotCode {
        SlotCode {
            root: lower_code(self, slot_of, stride),
        }
    }
}

fn lower_code(
    code: &Code,
    slot_of: &mut dyn FnMut(&str) -> Slot,
    stride: &dyn Fn(&str) -> Option<Stride>,
) -> Node {
    match code {
        Code::Seq(cs) => {
            let mut nodes: Vec<Node> = cs
                .iter()
                .filter(|c| !matches!(c, Code::Comment(_)))
                .map(|c| lower_code(c, slot_of, stride))
                .collect();
            if nodes.len() == 1 {
                nodes.pop().expect("one node")
            } else {
                Node::Seq(nodes.into_boxed_slice())
            }
        }
        Code::Loop {
            var,
            lo,
            hi,
            step,
            body,
        } => Node::Loop {
            var: slot_of(var),
            lo: lower_expr(lo, slot_of),
            hi: lower_expr(hi, slot_of),
            step: *step,
            stride: stride(var).filter(|_| *step == 1),
            body: Box::new(lower_code(body, slot_of, stride)),
        },
        Code::If { cond, body } => Node::If {
            cond: lower_cond(cond, slot_of),
            body: Box::new(lower_code(body, slot_of, stride)),
        },
        Code::Stmt(id) => Node::Stmt(*id),
        Code::Comment(_) => Node::Seq(Box::new([])),
    }
}

fn lower_exprs(es: &[Expr], slot_of: &mut dyn FnMut(&str) -> Slot) -> Box<[SExpr]> {
    es.iter().map(|e| lower_expr(e, slot_of)).collect()
}

fn lower_expr(e: &Expr, slot_of: &mut dyn FnMut(&str) -> Slot) -> SExpr {
    match e {
        Expr::Const(c) => SExpr::Const(*c),
        Expr::Var(name) => SExpr::Var(slot_of(name)),
        Expr::Add(es) => SExpr::Add(lower_exprs(es, slot_of)),
        Expr::Mul(k, e) => SExpr::Mul(*k, Box::new(lower_expr(e, slot_of))),
        Expr::FloorDiv(e, k) => SExpr::FloorDiv(Box::new(lower_expr(e, slot_of)), *k),
        Expr::CeilDiv(e, k) => SExpr::CeilDiv(Box::new(lower_expr(e, slot_of)), *k),
        Expr::Mod(e, k) => SExpr::Mod(Box::new(lower_expr(e, slot_of)), *k),
        Expr::Max(es) => SExpr::Max(lower_exprs(es, slot_of)),
        Expr::Min(es) => SExpr::Min(lower_exprs(es, slot_of)),
    }
}

fn lower_cond(c: &Cond, slot_of: &mut dyn FnMut(&str) -> Slot) -> SCond {
    let all = |cs: &[Cond], slot_of: &mut dyn FnMut(&str) -> Slot| -> Box<[SCond]> {
        cs.iter().map(|c| lower_cond(c, slot_of)).collect()
    };
    match c {
        Cond::Geq(a, b) => SCond::Geq(lower_expr(a, slot_of), lower_expr(b, slot_of)),
        Cond::Eq(a, b) => SCond::Eq(lower_expr(a, slot_of), lower_expr(b, slot_of)),
        Cond::Stride {
            expr,
            modulus,
            residue,
        } => SCond::Stride {
            expr: lower_expr(expr, slot_of),
            modulus: *modulus,
            residue: *residue,
        },
        Cond::And(cs) => SCond::And(all(cs, slot_of)),
        Cond::Or(cs) => SCond::Or(all(cs, slot_of)),
        Cond::Bool(b) => SCond::Bool(*b),
    }
}

impl SExpr {
    fn eval(&self, s: &[Option<i64>]) -> Result<i64, Slot> {
        Ok(match self {
            SExpr::Const(c) => *c,
            SExpr::Var(v) => s[*v].ok_or(*v)?,
            SExpr::Add(es) => {
                let mut acc = 0i64;
                for e in es.iter() {
                    acc += e.eval(s)?;
                }
                acc
            }
            SExpr::Mul(k, e) => k * e.eval(s)?,
            SExpr::FloorDiv(e, k) => floor_div(e.eval(s)?, *k),
            SExpr::CeilDiv(e, k) => -floor_div(-e.eval(s)?, *k),
            SExpr::Mod(e, k) => e.eval(s)?.rem_euclid(*k),
            SExpr::Max(es) => {
                let mut acc = es[0].eval(s)?;
                for e in &es[1..] {
                    acc = acc.max(e.eval(s)?);
                }
                acc
            }
            SExpr::Min(es) => {
                let mut acc = es[0].eval(s)?;
                for e in &es[1..] {
                    acc = acc.min(e.eval(s)?);
                }
                acc
            }
        })
    }
}

impl SCond {
    fn eval(&self, s: &[Option<i64>]) -> Result<bool, Slot> {
        Ok(match self {
            SCond::Geq(a, b) => a.eval(s)? >= b.eval(s)?,
            SCond::Eq(a, b) => a.eval(s)? == b.eval(s)?,
            SCond::Stride {
                expr,
                modulus,
                residue,
            } => expr.eval(s)?.rem_euclid(*modulus) == *residue,
            SCond::And(cs) => {
                for c in cs.iter() {
                    if !c.eval(s)? {
                        return Ok(false);
                    }
                }
                true
            }
            SCond::Or(cs) => {
                for c in cs.iter() {
                    if c.eval(s)? {
                        return Ok(true);
                    }
                }
                false
            }
            SCond::Bool(b) => *b,
        })
    }
}

impl SlotCode {
    /// Runs the code against `frame`, calling `on_stmt` for every executed
    /// statement instance with the loop indices bound. Each loop restores
    /// its index slot when it finishes, so a run that succeeds leaves
    /// `frame` as it came in apart from what `on_stmt` writes.
    ///
    /// # Errors
    ///
    /// [`Halt::Unbound`] if a bound or guard reads an unbound slot;
    /// [`Halt::Stmt`] with the first error `on_stmt` returns.
    pub fn run<F: Slots + ?Sized, E>(
        &self,
        frame: &mut F,
        on_stmt: &mut impl FnMut(StmtId, &mut F) -> Result<(), E>,
    ) -> Result<(), Halt<E>> {
        run_node(&self.root, frame, on_stmt)
    }
}

fn run_node<F: Slots + ?Sized, E>(
    node: &Node,
    frame: &mut F,
    on_stmt: &mut impl FnMut(StmtId, &mut F) -> Result<(), E>,
) -> Result<(), Halt<E>> {
    match node {
        Node::Seq(ns) => {
            for n in ns.iter() {
                run_node(n, frame, on_stmt)?;
            }
        }
        Node::Loop {
            var,
            lo,
            hi,
            step,
            stride,
            body,
        } => {
            let mut x = lo.eval(frame.slots()).map_err(Halt::Unbound)?;
            let hi = hi.eval(frame.slots()).map_err(Halt::Unbound)?;
            let mut step = *step;
            if let Some(s) = stride {
                let b = frame.slots()[s.step].ok_or(Halt::Unbound(s.step))?;
                if b > 1 {
                    x += (s.residue - x).rem_euclid(b);
                    step = b;
                }
            }
            let saved = frame.slots()[*var];
            while x <= hi {
                frame.slots_mut()[*var] = Some(x);
                run_node(body, frame, on_stmt)?;
                x += step;
            }
            frame.slots_mut()[*var] = saved;
        }
        Node::If { cond, body } => {
            if cond.eval(frame.slots()).map_err(Halt::Unbound)? {
                run_node(body, frame, on_stmt)?;
            }
        }
        Node::Stmt(id) => on_stmt(*id, frame).map_err(Halt::Stmt)?,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lowered(code: &Code, names: &[&str], stride: &dyn Fn(&str) -> Option<Stride>) -> SlotCode {
        code.lower(
            &mut |n| names.iter().position(|m| *m == n).expect("known name"),
            stride,
        )
    }

    fn q_loop(step: i64) -> Code {
        Code::Loop {
            var: "q".into(),
            lo: Expr::Const(0),
            hi: Expr::Var("n".into()),
            step,
            body: Box::new(Code::Stmt(StmtId(0))),
        }
    }

    fn visits(code: &SlotCode, slots: &mut Vec<Option<i64>>) -> Vec<i64> {
        let mut got = Vec::new();
        code.run(slots, &mut |_, s: &mut Vec<Option<i64>>| {
            got.push(s[0].expect("bound"));
            Ok::<(), ()>(())
        })
        .unwrap();
        got
    }

    #[test]
    fn imposed_stride_aligns_unit_step_loops_only() {
        let names = ["q", "n", "b"];
        let vp = |v: &str| {
            (v == "q").then_some(Stride {
                step: 2,
                residue: 1,
            })
        };
        let mut slots = vec![None, Some(10), Some(4)];
        let unit = lowered(&q_loop(1), &names, &vp);
        assert_eq!(visits(&unit, &mut slots), [1, 5, 9]);
        assert_eq!(
            slots,
            [None, Some(10), Some(4)],
            "the index is unbound again"
        );
        // A block of one visits every index.
        slots[2] = Some(1);
        assert_eq!(visits(&unit, &mut slots), (0..=10).collect::<Vec<_>>());
        // A loop that already strides keeps its own step.
        slots[2] = Some(4);
        assert_eq!(
            visits(&lowered(&q_loop(3), &names, &vp), &mut slots),
            [0, 3, 6, 9]
        );
    }

    #[test]
    fn unbound_parameter_halts_with_its_slot() {
        let code = lowered(&q_loop(1), &["q", "n"], &|_| None);
        let out = code.run(&mut vec![None, None], &mut |_, _: &mut Vec<Option<i64>>| {
            Ok::<(), ()>(())
        });
        assert_eq!(out, Err(Halt::Unbound(1)));
    }
}
