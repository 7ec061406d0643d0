//! Lowering of source expressions and statements onto numbered slots.
//!
//! Both executors run the same lowered form: every scalar name becomes a
//! [`Slot`] (shared with the generated code's integer variables), every
//! array reference a handle into the frame's array table, and every
//! intrinsic call a resolved [`Intrinsic`]. Lowering decides nothing that
//! depends on run-time values, so an unbound name, an unknown intrinsic or
//! a bad subscript still fails only when it is executed.

use dhpf_codegen::Slot;
use dhpf_hpf::{Analysis, BinOp, Expr, Stmt, StmtKind, UnOp};
use std::collections::HashMap;

use crate::store::Store;

/// Index of an array in a frame's array table.
pub(crate) type ArrayId = usize;

/// The names behind slots and array handles.
#[derive(Debug, Default)]
pub(crate) struct Symbols {
    /// Scalar name of each slot.
    pub scalars: Vec<String>,
    slot_of: HashMap<String, Slot>,
    /// Array name of each handle, in the analysis' (sorted) order.
    pub arrays: Vec<String>,
    array_of: HashMap<String, ArrayId>,
}

impl Symbols {
    /// A table holding the unit's arrays and declared scalars.
    pub fn new(analysis: &Analysis) -> Symbols {
        let mut syms = Symbols::default();
        for name in analysis.arrays.keys() {
            syms.array_of.insert(name.clone(), syms.arrays.len());
            syms.arrays.push(name.clone());
        }
        for name in analysis.scalars.keys() {
            syms.slot(name);
        }
        syms
    }

    /// The slot of `name`, numbering it on first use.
    pub fn slot(&mut self, name: &str) -> Slot {
        if let Some(&s) = self.slot_of.get(name) {
            return s;
        }
        self.scalars.push(name.to_string());
        self.slot_of
            .insert(name.to_string(), self.scalars.len() - 1);
        self.scalars.len() - 1
    }

    /// The slot of `name`, if it has one.
    pub fn lookup(&self, name: &str) -> Option<Slot> {
        self.slot_of.get(name).copied()
    }

    /// The handle of array `name`, if it is one.
    pub fn array(&self, name: &str) -> Option<ArrayId> {
        self.array_of.get(name).copied()
    }
}

/// A resolved intrinsic function.
#[derive(Clone, Debug)]
pub(crate) enum Intrinsic {
    Abs,
    Sqrt,
    Exp,
    Log,
    Max,
    Min,
    Mod,
    Sign,
    /// `float`, `dble`, `real`: the value itself.
    Same,
    Int,
    /// `number_of_processors()`, read from its integer slot.
    NumProcs(Slot),
    /// Anything else: evaluates its arguments, then fails.
    Unknown(String),
}

/// An `f64`-valued expression.
#[derive(Clone, Debug)]
pub(crate) enum FExpr {
    Const(f64),
    Var(Slot),
    Elem(ArrayId, Box<[IExpr]>),
    Bin(BinOp, Box<FExpr>, Box<FExpr>),
    Neg(Box<FExpr>),
    Not(Box<FExpr>),
    Call(Intrinsic, Box<[FExpr]>),
}

/// An `i64`-valued expression (subscripts and loop bounds).
#[derive(Clone, Debug)]
pub(crate) enum IExpr {
    Const(i64),
    /// `var + c`: a scalar (`c = 0`) or the common subscript shape, one
    /// node instead of three.
    Offset(Slot, i64),
    Add(Box<IExpr>, Box<IExpr>),
    Sub(Box<IExpr>, Box<IExpr>),
    Mul(Box<IExpr>, Box<IExpr>),
    Div(Box<IExpr>, Box<IExpr>),
    Neg(Box<IExpr>),
    /// Evaluated in `f64`, then truncated.
    Real(Box<FExpr>),
}

/// Where an assignment stores.
#[derive(Clone, Debug)]
pub(crate) enum Target {
    Elem(ArrayId, Box<[IExpr]>),
    /// A scalar: integer if it already is one, or if it is unbound and
    /// its name is implicitly integer; `f64` otherwise.
    Scalar {
        slot: Slot,
        implicit_int: bool,
    },
}

/// One assignment and the flops it costs.
#[derive(Clone, Debug)]
pub(crate) struct Assign {
    pub target: Target,
    pub rhs: FExpr,
    pub cost: u64,
}

/// A lowered source statement.
#[derive(Clone, Debug)]
pub(crate) enum LStmt {
    Assign(Assign),
    Do {
        var: Slot,
        lo: IExpr,
        hi: IExpr,
        step: Option<IExpr>,
        body: Vec<LStmt>,
    },
    If {
        cond: FExpr,
        then_body: Vec<LStmt>,
        else_body: Vec<LStmt>,
    },
    /// `read`: each slot must already be bound (a runtime input).
    Read(Vec<Slot>),
    Print,
    Call(String),
}

fn boxed<T, U>(xs: &[T], f: impl FnMut(&T) -> U) -> Box<[U]> {
    xs.iter().map(f).collect()
}

/// Lowers `e` for evaluation in `f64`.
pub(crate) fn lower_f64(e: &Expr, syms: &mut Symbols) -> FExpr {
    match e {
        Expr::Int(v) => FExpr::Const(*v as f64),
        Expr::Real(v) => FExpr::Const(*v),
        Expr::Var(name) => FExpr::Var(syms.slot(name)),
        Expr::Ref(name, args) => match syms.array(name) {
            Some(h) => FExpr::Elem(h, boxed(args, |a| lower_int(a, syms))),
            None => {
                let f = intrinsic(name, args.len(), syms);
                FExpr::Call(f, boxed(args, |a| lower_f64(a, syms)))
            }
        },
        Expr::Bin(op, a, b) => FExpr::Bin(
            *op,
            Box::new(lower_f64(a, syms)),
            Box::new(lower_f64(b, syms)),
        ),
        Expr::Un(UnOp::Neg, a) => FExpr::Neg(Box::new(lower_f64(a, syms))),
        Expr::Un(UnOp::Not, a) => FExpr::Not(Box::new(lower_f64(a, syms))),
    }
}

fn intrinsic(name: &str, arity: usize, syms: &mut Symbols) -> Intrinsic {
    match (name, arity) {
        ("abs", 1) => Intrinsic::Abs,
        ("sqrt", 1) => Intrinsic::Sqrt,
        ("exp", 1) => Intrinsic::Exp,
        ("log", 1) => Intrinsic::Log,
        ("max", n) if n > 0 => Intrinsic::Max,
        ("min", n) if n > 0 => Intrinsic::Min,
        ("mod", 2) => Intrinsic::Mod,
        ("sign", 2) => Intrinsic::Sign,
        ("float" | "dble" | "real", 1) => Intrinsic::Same,
        ("int", 1) => Intrinsic::Int,
        ("number_of_processors", 0) => Intrinsic::NumProcs(syms.slot(name)),
        _ => Intrinsic::Unknown(name.to_string()),
    }
}

/// Lowers `e` for evaluation in `i64`: `+ - * /` and negation stay in
/// integers, anything else is evaluated in `f64` and truncated.
pub(crate) fn lower_int(e: &Expr, syms: &mut Symbols) -> IExpr {
    let pair = |a: &Expr, b: &Expr, syms: &mut Symbols| {
        (Box::new(lower_int(a, syms)), Box::new(lower_int(b, syms)))
    };
    match e {
        Expr::Int(v) => IExpr::Const(*v),
        Expr::Real(v) => IExpr::Const(*v as i64),
        Expr::Var(name) => IExpr::Offset(syms.slot(name), 0),
        Expr::Bin(BinOp::Add, a, b) => match (&**a, &**b) {
            (Expr::Var(v), Expr::Int(c)) => IExpr::Offset(syms.slot(v), *c),
            _ => {
                let (a, b) = pair(a, b, syms);
                IExpr::Add(a, b)
            }
        },
        Expr::Bin(BinOp::Sub, a, b) => match (&**a, &**b) {
            (Expr::Var(v), Expr::Int(c)) => IExpr::Offset(syms.slot(v), -c),
            _ => {
                let (a, b) = pair(a, b, syms);
                IExpr::Sub(a, b)
            }
        },
        Expr::Bin(BinOp::Mul, a, b) => {
            let (a, b) = pair(a, b, syms);
            IExpr::Mul(a, b)
        }
        Expr::Bin(BinOp::Div, a, b) => {
            let (a, b) = pair(a, b, syms);
            IExpr::Div(a, b)
        }
        Expr::Un(UnOp::Neg, a) => IExpr::Neg(Box::new(lower_int(a, syms))),
        _ => IExpr::Real(Box::new(lower_f64(e, syms))),
    }
}

/// Lowers the assignment `name(subs) = rhs` costing `cost` flops.
pub(crate) fn lower_assign(
    name: &str,
    subs: &[Expr],
    rhs: &Expr,
    cost: u64,
    syms: &mut Symbols,
) -> Assign {
    let target = match syms.array(name) {
        Some(h) => Target::Elem(h, boxed(subs, |s| lower_int(s, syms))),
        None => Target::Scalar {
            slot: syms.slot(name),
            implicit_int: Store::implicitly_integer(name),
        },
    };
    Assign {
        target,
        rhs: lower_f64(rhs, syms),
        cost,
    }
}

/// Lowers a block of source statements.
pub(crate) fn lower_block(body: &[Stmt], syms: &mut Symbols) -> Vec<LStmt> {
    body.iter().map(|s| lower_stmt(s, syms)).collect()
}

/// Lowers one source statement.
pub(crate) fn lower_stmt(s: &Stmt, syms: &mut Symbols) -> LStmt {
    match &s.kind {
        StmtKind::Assign {
            name, subs, rhs, ..
        } => LStmt::Assign(lower_assign(name, subs, rhs, cost_of(rhs), syms)),
        StmtKind::Do {
            var,
            lo,
            hi,
            step,
            body,
        } => LStmt::Do {
            var: syms.slot(var),
            lo: lower_int(lo, syms),
            hi: lower_int(hi, syms),
            step: step.as_ref().map(|e| lower_int(e, syms)),
            body: lower_block(body, syms),
        },
        StmtKind::If {
            cond,
            then_body,
            else_body,
        } => LStmt::If {
            cond: lower_f64(cond, syms),
            then_body: lower_block(then_body, syms),
            else_body: lower_block(else_body, syms),
        },
        StmtKind::Read { vars } => LStmt::Read(vars.iter().map(|v| syms.slot(v)).collect()),
        StmtKind::Print { .. } => LStmt::Print,
        StmtKind::Call { name, .. } => LStmt::Call(name.clone()),
    }
}

/// Floating-point operation count of an expression (the cost model).
pub fn cost_of(e: &Expr) -> u64 {
    match e {
        Expr::Bin(_, a, b) => 1 + cost_of(a) + cost_of(b),
        Expr::Un(_, a) => cost_of(a),
        Expr::Ref(_, args) => args.iter().map(cost_of).sum::<u64>() + 1,
        _ => 0,
    }
}
