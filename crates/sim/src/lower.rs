//! Compilation of source statements and generated code into closures.
//!
//! Both executors run the same compiled form. A [`Lower`] numbers every
//! scalar name as a [`Slot`] (shared with the generated code's integer
//! variables) and every array as a handle into the frame's array table,
//! resolves every intrinsic, and builds one closure per expression node and
//! statement, with its operator chosen at build time. It knows every
//! array's bounds before anything runs, so an array reference whose
//! subscripts are constants or `var ± c` becomes one offset computation:
//! the extents, lower bounds, column-major strides and constant shifts are
//! folded into a base offset and a range check per subscript.
//!
//! Generated [`Code`] compiles the same way ([`Lower::code`]): its bounds
//! and guards become integer and boolean closures, its loops, guards and
//! sequences statement closures, and each `Stmt(id)` leaf is whatever
//! closure the caller compiles for that statement.
//!
//! Compiling decides nothing that depends on run-time values: an unbound
//! name, an unknown intrinsic or a bad subscript still fails only when it
//! is executed, as the same [`SimError`] with the same payload.

use crate::interp::{do_range, start_int, Fault, Frame, SimError};
use crate::store::Store;
use dhpf_codegen::{Code, StmtId};
use dhpf_hpf::{Analysis, BinOp, Expr, Stmt, StmtKind, UnOp};
use std::collections::HashMap;

/// Index of a scalar in a frame's slot tables.
pub(crate) type Slot = usize;

/// Index of an array in a frame's array table.
pub(crate) type ArrayId = usize;

/// A compiled `f64`-valued expression. A scalar reads its `f64` slot
/// first, then its integer slot.
pub(crate) type FFn = Box<dyn Fn(&Frame) -> Result<f64, Fault> + Send + Sync>;

/// A compiled `i64`-valued expression (subscripts and loop bounds). A
/// source scalar reads its integer slot first, then its `f64` slot
/// (truncated); a generated-code variable reads its integer slot only.
pub(crate) type IFn = Box<dyn Fn(&Frame) -> Result<i64, Fault> + Send + Sync>;

/// A compiled generated-code condition.
type BFn = Box<dyn Fn(&Frame) -> Result<bool, Fault> + Send + Sync>;

/// A compiled statement: runs against a frame and the state `X` its leaves
/// update besides the frame. A source statement's `X` is the flop counter,
/// to which it adds the flops of the assignments it executes.
pub(crate) type Exec<X = u64> = Box<dyn Fn(&mut Frame, &mut X) -> Result<(), Fault> + Send + Sync>;

/// Runs `stmts` in order, as one statement.
fn seq<X: 'static>(mut stmts: Vec<Exec<X>>) -> Exec<X> {
    if stmts.len() == 1 {
        return stmts.pop().expect("one statement");
    }
    let stmts = stmts.into_boxed_slice();
    Box::new(move |f, x| {
        for s in stmts.iter() {
            s(f, x)?;
        }
        Ok(())
    })
}

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
    fn new(analysis: &Analysis) -> Symbols {
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

/// The column-major offset of one array reference, with the array's
/// bounds resolved when it was built.
pub(crate) struct At {
    pub array: ArrayId,
    /// `Σ stride·(c − lb)` over the subscripts: the constant part of the
    /// offset, with constant subscripts and the `c` of `var ± c` folded in.
    base: i64,
    /// The non-constant subscripts, in order.
    terms: Box<[Term]>,
    /// False when a constant subscript is out of bounds or the subscript
    /// count is not the array's rank: every evaluation takes the general
    /// path, which fails.
    fast: bool,
    /// Every subscript as a general expression.
    subs: Box<[IFn]>,
    dims: Box<[(i64, i64)]>,
}

/// One non-constant subscript: what it reads, the range the read value
/// must lie in, and its stride.
struct Term {
    read: Read,
    lo: i64,
    hi: i64,
    stride: i64,
}

enum Read {
    /// The integer slot of `var ± c`; the shift is in `lo`, `hi` and the
    /// base offset.
    Slot(Slot),
    /// Subscript `k` of [`At::subs`].
    Sub(usize),
}

impl At {
    /// The offset of the element the subscripts name.
    ///
    /// # Errors
    ///
    /// What [`At::general`] returns when a read slot is unbound or holds
    /// only an `f64`, or a subscript is out of bounds.
    #[inline]
    pub fn offset(&self, f: &Frame) -> Result<usize, Fault> {
        if !self.fast {
            return self.general(f);
        }
        let mut off = self.base;
        for t in self.terms.iter() {
            let x = match t.read {
                Read::Slot(s) => match f.ints[s] {
                    Some(x) => x,
                    None => return self.general(f),
                },
                Read::Sub(k) => self.subs[k](f)?,
            };
            if x < t.lo || x > t.hi {
                return self.general(f);
            }
            off += x * t.stride;
        }
        Ok(off as usize)
    }

    /// Evaluates every subscript in order, then locates the element: the
    /// path a float-valued subscript slot takes, and the one that builds
    /// the error for an unbound name or an out-of-bounds element.
    #[cold]
    fn general(&self, f: &Frame) -> Result<usize, Fault> {
        let index = self
            .subs
            .iter()
            .map(|e| e(f))
            .collect::<Result<Vec<i64>, Fault>>()?;
        let (mut off, mut stride) = (0usize, 1usize);
        let inside = index.len() == self.dims.len()
            && index.iter().zip(self.dims.iter()).all(|(&x, &(lb, ub))| {
                let inside = (lb..=ub).contains(&x);
                if inside {
                    off += (x - lb) as usize * stride;
                    stride *= (ub - lb + 1) as usize;
                }
                inside
            });
        if inside {
            Ok(off)
        } else {
            Err(f.out_of_bounds(self.array, index))
        }
    }
}

/// `var`, `var + c` or `var - c`, as `(var, c)`.
fn shifted_var(e: &Expr) -> Option<(&str, i64)> {
    match e {
        Expr::Var(v) => Some((v, 0)),
        Expr::Bin(BinOp::Add, a, b) => match (&**a, &**b) {
            (Expr::Var(v), Expr::Int(c)) => Some((v, *c)),
            _ => None,
        },
        Expr::Bin(BinOp::Sub, a, b) => match (&**a, &**b) {
            (Expr::Var(v), Expr::Int(c)) => Some((v, -c)),
            _ => None,
        },
        _ => None,
    }
}

fn bool_val(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// A loop's compiled bounds.
pub(crate) struct Range {
    lo: IFn,
    hi: IFn,
    step: Option<IFn>,
}

impl Range {
    /// The values the loop visits, its bounds evaluated `lo`, `hi`, `step`.
    #[inline]
    pub fn eval(&self, f: &Frame) -> Result<impl Iterator<Item = i64>, Fault> {
        let lo = (self.lo)(f)?;
        let hi = (self.hi)(f)?;
        let step = match &self.step {
            Some(e) => e(f)?,
            None => 1,
        };
        Ok(do_range(lo, hi, step))
    }
}

/// The compiler of one program instance's code: its symbols, and the
/// bounds of its arrays by handle.
pub(crate) struct Lower {
    pub syms: Symbols,
    pub dims: Vec<Vec<(i64, i64)>>,
}

impl Lower {
    /// A compiler over the unit's arrays and declared scalars and the
    /// runtime inputs, with every array's declared bounds evaluated over
    /// the integer values a frame starts with.
    ///
    /// # Errors
    ///
    /// [`SimError::Unbound`] if a bound names a scalar without a value.
    pub fn new(analysis: &Analysis, inputs: &HashMap<String, i64>) -> Result<Lower, SimError> {
        let mut syms = Symbols::new(analysis);
        for k in inputs.keys() {
            syms.slot(k);
        }
        let value = |a: &dhpf_hpf::Affine| {
            a.terms.iter().try_fold(a.constant, |acc, (name, c)| {
                let v = start_int(analysis, inputs, name)
                    .ok_or_else(|| SimError::Unbound(name.clone()))?;
                Ok(acc + c * v)
            })
        };
        let dims = syms
            .arrays
            .iter()
            .map(|name| {
                analysis.arrays[name]
                    .dims
                    .iter()
                    .map(|(lo, hi)| Ok((value(lo)?, value(hi)?)))
                    .collect()
            })
            .collect::<Result<_, SimError>>()?;
        Ok(Lower { syms, dims })
    }

    /// Compiles `e` for evaluation in `f64`.
    pub fn f64(&mut self, e: &Expr) -> FFn {
        match e {
            Expr::Int(v) => {
                let v = *v as f64;
                Box::new(move |_| Ok(v))
            }
            Expr::Real(v) => {
                let v = *v;
                Box::new(move |_| Ok(v))
            }
            Expr::Var(name) => {
                let s = self.syms.slot(name);
                Box::new(move |f| f.float(s))
            }
            Expr::Ref(name, args) => match self.syms.array(name) {
                Some(h) => {
                    let at = self.at(h, args);
                    Box::new(move |f| Ok(f.arrays[h].data[at.offset(f)?]))
                }
                None => self.call(name, args),
            },
            Expr::Bin(op, a, b) => self.bin(*op, a, b),
            Expr::Un(UnOp::Neg, a) => {
                let a = self.f64(a);
                Box::new(move |f| Ok(-a(f)?))
            }
            Expr::Un(UnOp::Not, a) => {
                let a = self.f64(a);
                Box::new(move |f| Ok(bool_val(a(f)? == 0.0)))
            }
        }
    }

    /// `a op b` in `f64`; both operands are evaluated, `a` first.
    fn bin(&mut self, op: BinOp, a: &Expr, b: &Expr) -> FFn {
        let (a, b) = (self.f64(a), self.f64(b));
        macro_rules! op {
            (|$x:ident, $y:ident| $v:expr) => {
                Box::new(move |f: &Frame| {
                    let $x = a(f)?;
                    let $y = b(f)?;
                    Ok($v)
                })
            };
        }
        match op {
            BinOp::Add => op!(|x, y| x + y),
            BinOp::Sub => op!(|x, y| x - y),
            BinOp::Mul => op!(|x, y| x * y),
            BinOp::Div => op!(|x, y| x / y),
            BinOp::Pow => op!(|x, y| x.powf(y)),
            BinOp::Lt => op!(|x, y| bool_val(x < y)),
            BinOp::Le => op!(|x, y| bool_val(x <= y)),
            BinOp::Gt => op!(|x, y| bool_val(x > y)),
            BinOp::Ge => op!(|x, y| bool_val(x >= y)),
            BinOp::Eq => op!(|x, y| bool_val(x == y)),
            BinOp::Ne => op!(|x, y| bool_val(x != y)),
            BinOp::And => op!(|x, y| bool_val(x != 0.0 && y != 0.0)),
            BinOp::Or => op!(|x, y| bool_val(x != 0.0 || y != 0.0)),
        }
    }

    /// An intrinsic call; its arguments are evaluated in order.
    fn call(&mut self, name: &str, args: &[Expr]) -> FFn {
        let mut fs: Vec<FFn> = args.iter().map(|a| self.f64(a)).collect();
        macro_rules! unary {
            (|$x:ident| $v:expr) => {{
                let a = fs.pop().expect("one argument");
                Box::new(move |f: &Frame| {
                    let $x = a(f)?;
                    Ok($v)
                })
            }};
        }
        macro_rules! binary {
            (|$x:ident, $y:ident| $v:expr) => {{
                let b = fs.pop().expect("two arguments");
                let a = fs.pop().expect("two arguments");
                Box::new(move |f: &Frame| {
                    let $x = a(f)?;
                    let $y = b(f)?;
                    Ok($v)
                })
            }};
        }
        match (name, args.len()) {
            ("abs", 1) => unary!(|x| x.abs()),
            ("sqrt", 1) => unary!(|x| x.sqrt()),
            ("exp", 1) => unary!(|x| x.exp()),
            ("log", 1) => unary!(|x| x.ln()),
            ("float" | "dble" | "real", 1) => fs.pop().expect("one argument"),
            ("int", 1) => unary!(|x| x.trunc()),
            ("mod", 2) => binary!(|x, y| x - (x / y).floor() * y),
            ("sign", 2) => binary!(|x, y| x.abs() * y.signum()),
            ("max", n) if n > 0 => {
                let fs = fs.into_boxed_slice();
                Box::new(move |f| {
                    let mut acc = f64::NEG_INFINITY;
                    for a in fs.iter() {
                        acc = acc.max(a(f)?);
                    }
                    Ok(acc)
                })
            }
            ("min", n) if n > 0 => {
                let fs = fs.into_boxed_slice();
                Box::new(move |f| {
                    let mut acc = f64::INFINITY;
                    for a in fs.iter() {
                        acc = acc.min(a(f)?);
                    }
                    Ok(acc)
                })
            }
            ("number_of_processors", 0) => {
                let s = self.syms.slot(name);
                Box::new(move |f| match f.ints[s] {
                    Some(v) => Ok(v as f64),
                    None => Err(Box::new(SimError::Unbound("number_of_processors".into()))),
                })
            }
            _ => {
                let fs = fs.into_boxed_slice();
                let msg = format!("intrinsic '{name}' with {} arguments", args.len());
                Box::new(move |f| {
                    for a in fs.iter() {
                        a(f)?;
                    }
                    Err(Box::new(SimError::Unsupported(msg.clone())))
                })
            }
        }
    }

    /// Compiles `e` for evaluation in `i64`: `+ - * /` and negation stay in
    /// integers, anything else is evaluated in `f64` and truncated.
    pub fn int(&mut self, e: &Expr) -> IFn {
        if let Some((v, c)) = shifted_var(e) {
            let s = self.syms.slot(v);
            return Box::new(move |f| Ok(f.int(s)? + c));
        }
        macro_rules! op {
            ($a:expr, $b:expr, |$x:ident, $y:ident| $v:expr) => {{
                let (a, b) = ($a, $b);
                Box::new(move |f: &Frame| {
                    let $x = a(f)?;
                    let $y = b(f)?;
                    $v
                })
            }};
        }
        match e {
            Expr::Int(v) => {
                let v = *v;
                Box::new(move |_| Ok(v))
            }
            Expr::Real(v) => {
                let v = *v as i64;
                Box::new(move |_| Ok(v))
            }
            Expr::Bin(BinOp::Add, a, b) => op!(self.int(a), self.int(b), |x, y| Ok(x + y)),
            Expr::Bin(BinOp::Sub, a, b) => op!(self.int(a), self.int(b), |x, y| Ok(x - y)),
            Expr::Bin(BinOp::Mul, a, b) => op!(self.int(a), self.int(b), |x, y| Ok(x * y)),
            Expr::Bin(BinOp::Div, a, b) => op!(self.int(a), self.int(b), |x, y| if y == 0 {
                Err(Box::new(SimError::Unsupported("division by zero".into())))
            } else {
                Ok(x / y)
            }),
            Expr::Un(UnOp::Neg, a) => {
                let a = self.int(a);
                Box::new(move |f| Ok(-a(f)?))
            }
            _ => {
                let e = self.f64(e);
                Box::new(move |f| Ok(e(f)? as i64))
            }
        }
    }

    /// The offset computation of `array(subs)`.
    fn at(&mut self, array: ArrayId, subs: &[Expr]) -> At {
        let dims: Box<[(i64, i64)]> = self.dims[array].clone().into();
        let mut at = At {
            array,
            base: 0,
            terms: Box::new([]),
            fast: subs.len() == dims.len(),
            subs: subs.iter().map(|s| self.int(s)).collect(),
            dims,
        };
        let mut terms = Vec::new();
        let mut stride = 1i64;
        for (k, (sub, &(lb, ub))) in subs.iter().zip(at.dims.iter()).enumerate() {
            let c = match (sub, shifted_var(sub)) {
                (Expr::Int(c), _) => {
                    at.fast &= (lb..=ub).contains(c);
                    *c
                }
                (_, Some((v, c))) => {
                    let read = Read::Slot(self.syms.slot(v));
                    terms.push(Term {
                        read,
                        lo: lb - c,
                        hi: ub - c,
                        stride,
                    });
                    c
                }
                _ => {
                    terms.push(Term {
                        read: Read::Sub(k),
                        lo: lb,
                        hi: ub,
                        stride,
                    });
                    0
                }
            };
            at.base += (c - lb) * stride;
            stride *= ub - lb + 1;
        }
        at.terms = terms.into_boxed_slice();
        at
    }

    /// The reference `array(d1, …, dk)`: the element the generated code's
    /// `d<k>` slots name.
    pub fn slot_element(&mut self, array: ArrayId, rank: u32) -> At {
        let subs: Vec<Expr> = (1..=rank).map(|d| Expr::Var(format!("d{d}"))).collect();
        self.at(array, &subs)
    }

    /// Compiles the assignment `name(subs) = rhs` costing `cost` flops:
    /// `rhs` is evaluated before the target's subscripts.
    pub fn assign(&mut self, name: &str, subs: &[Expr], rhs: &Expr, cost: u64) -> Exec {
        let rhs = self.f64(rhs);
        match self.syms.array(name) {
            Some(h) => {
                let at = self.at(h, subs);
                Box::new(move |f, flops| {
                    let v = rhs(f)?;
                    let off = at.offset(f)?;
                    f.arrays[h].data[off] = v;
                    *flops += cost;
                    Ok(())
                })
            }
            None => {
                // Integer if it already is one, or if it is unbound and its
                // name is implicitly integer; `f64` otherwise.
                let slot = self.syms.slot(name);
                let implicit_int = Store::implicitly_integer(name);
                Box::new(move |f, flops| {
                    let v = rhs(f)?;
                    if f.ints[slot].is_some() || (f.floats[slot].is_none() && implicit_int) {
                        f.ints[slot] = Some(v as i64);
                    } else {
                        f.floats[slot] = Some(v);
                    }
                    *flops += cost;
                    Ok(())
                })
            }
        }
    }

    /// Compiles an assignment that runs only where every guard is nonzero;
    /// the guards are evaluated in order and stop at the first zero.
    pub fn guarded(&mut self, guards: &[Expr], assign: Exec) -> Exec {
        if guards.is_empty() {
            return assign;
        }
        let guards: Box<[FFn]> = guards.iter().map(|g| self.f64(g)).collect();
        Box::new(move |f, flops| {
            for g in guards.iter() {
                if g(f)? == 0.0 {
                    return Ok(());
                }
            }
            assign(f, flops)
        })
    }

    /// Compiles a loop's bounds.
    pub fn range(&mut self, lo: &Expr, hi: &Expr, step: Option<&Expr>) -> Range {
        Range {
            lo: self.int(lo),
            hi: self.int(hi),
            step: step.map(|e| self.int(e)),
        }
    }

    /// Compiles a block of source statements.
    pub fn block(&mut self, body: &[Stmt]) -> Exec {
        seq(body.iter().map(|s| self.stmt(s)).collect())
    }

    /// Compiles one source statement.
    pub fn stmt(&mut self, s: &Stmt) -> Exec {
        match &s.kind {
            StmtKind::Assign {
                name, subs, rhs, ..
            } => self.assign(name, subs, rhs, cost_of(rhs)),
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let var = self.syms.slot(var);
                let range = self.range(lo, hi, step.as_ref());
                let body = self.block(body);
                Box::new(move |f, flops| {
                    for x in range.eval(f)? {
                        f.ints[var] = Some(x);
                        body(f, flops)?;
                    }
                    Ok(())
                })
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let cond = self.f64(cond);
                let then_body = self.block(then_body);
                let else_body = self.block(else_body);
                Box::new(move |f, flops| {
                    if cond(f)? != 0.0 {
                        then_body(f, flops)
                    } else {
                        else_body(f, flops)
                    }
                })
            }
            StmtKind::Read { vars } => {
                // Each slot must already be bound (a runtime input).
                let slots: Box<[Slot]> = vars.iter().map(|v| self.syms.slot(v)).collect();
                Box::new(move |f, _| {
                    for &s in slots.iter() {
                        if f.ints[s].is_none() && f.floats[s].is_none() {
                            return Err(Box::new(SimError::Unbound(format!(
                                "runtime input '{}'",
                                f.syms.scalars[s]
                            ))));
                        }
                    }
                    Ok(())
                })
            }
            StmtKind::Print { .. } => Box::new(|_, _| Ok(())),
            StmtKind::Call { name, .. } => {
                let msg = format!("call '{name}'");
                Box::new(move |_, _| Err(Box::new(SimError::Unsupported(msg.clone()))))
            }
        }
    }
}

/// Compilation of generated code. Its bounds and guards read integer slots
/// only: a variable with no integer value is [`SimError::Unbound`], even if
/// it holds an `f64`.
impl Lower {
    /// Compiles a generated-code expression.
    fn bound(&mut self, e: &dhpf_codegen::Expr) -> IFn {
        use dhpf_codegen::Expr as E;
        macro_rules! unary {
            ($e:expr, $k:expr, |$x:ident, $y:ident| $v:expr) => {{
                let (e, $y) = (self.bound($e), *$k);
                Box::new(move |f: &Frame| {
                    let $x = e(f)?;
                    Ok($v)
                })
            }};
        }
        macro_rules! fold {
            ($es:expr, |$a:ident, $b:ident| $v:expr) => {{
                let es: Box<[IFn]> = $es.iter().map(|e| self.bound(e)).collect();
                Box::new(move |f: &Frame| {
                    let mut $a = es[0](f)?;
                    for e in &es[1..] {
                        let $b = e(f)?;
                        $a = $v;
                    }
                    Ok($a)
                })
            }};
        }
        match e {
            &E::Const(c) => Box::new(move |_| Ok(c)),
            E::Var(name) => {
                let s = self.syms.slot(name);
                Box::new(move |f| f.ints[s].ok_or_else(|| f.unbound(s)))
            }
            E::Add(es) => fold!(es, |acc, x| acc + x),
            E::Mul(k, e) => unary!(e, k, |x, k| k * x),
            E::FloorDiv(e, k) => unary!(e, k, |x, k| x.div_euclid(k)),
            E::CeilDiv(e, k) => unary!(e, k, |x, k| -(-x).div_euclid(k)),
            E::Mod(e, k) => unary!(e, k, |x, k| x.rem_euclid(k)),
            E::Max(es) => fold!(es, |acc, x| acc.max(x)),
            E::Min(es) => fold!(es, |acc, x| acc.min(x)),
        }
    }

    /// Compiles a generated-code condition; `And` and `Or` stop at the
    /// first operand that decides them.
    fn cond(&mut self, c: &dhpf_codegen::Cond) -> BFn {
        use dhpf_codegen::Cond as C;
        match c {
            C::Geq(a, b) | C::Eq(a, b) => {
                let (a, b) = (self.bound(a), self.bound(b));
                if matches!(c, C::Geq(..)) {
                    Box::new(move |f| Ok(a(f)? >= b(f)?))
                } else {
                    Box::new(move |f| Ok(a(f)? == b(f)?))
                }
            }
            C::Stride {
                expr,
                modulus,
                residue,
            } => {
                let (e, m, r) = (self.bound(expr), *modulus, *residue);
                Box::new(move |f| Ok(e(f)?.rem_euclid(m) == r))
            }
            C::And(cs) | C::Or(cs) => {
                let any = matches!(c, C::Or(_));
                let cs: Box<[BFn]> = cs.iter().map(|c| self.cond(c)).collect();
                Box::new(move |f| {
                    for c in cs.iter() {
                        if c(f)? == any {
                            return Ok(any);
                        }
                    }
                    Ok(!any)
                })
            }
            &C::Bool(b) => Box::new(move |_| Ok(b)),
        }
    }

    /// Compiles generated code, with `leaf` compiling each statement
    /// instance (once per occurrence). Each loop restores its index slot
    /// when it finishes.
    ///
    /// `vp` names the block-size slot of a loop variable that runs over a
    /// virtual-processor dimension. A unit-step loop over such a variable
    /// is the §4.2/Figure 6 partner loop: when it starts and the block
    /// size `B` is above one, it visits only the real VPs `v ≡ 1 (mod B)`,
    /// from the first one at or above its lower bound.
    pub fn code<X: 'static>(
        &mut self,
        code: &Code,
        vp: &dyn Fn(&str) -> Option<Slot>,
        leaf: &mut dyn FnMut(&mut Lower, StmtId) -> Exec<X>,
    ) -> Exec<X> {
        match code {
            Code::Seq(cs) => seq(cs.iter().map(|c| self.code(c, vp, leaf)).collect()),
            Code::Loop {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let block = vp(var).filter(|_| *step == 1);
                let (var, step) = (self.syms.slot(var), *step);
                let (lo, hi) = (self.bound(lo), self.bound(hi));
                let body = self.code(body, vp, leaf);
                Box::new(move |f, x| {
                    let mut i = lo(f)?;
                    let hi = hi(f)?;
                    let mut step = step;
                    if let Some(b) = block {
                        let b = f.ints[b].ok_or_else(|| f.unbound(b))?;
                        if b > 1 {
                            i += (1 - i).rem_euclid(b);
                            step = b;
                        }
                    }
                    let saved = f.ints[var];
                    while i <= hi {
                        f.ints[var] = Some(i);
                        body(f, x)?;
                        i += step;
                    }
                    f.ints[var] = saved;
                    Ok(())
                })
            }
            Code::If { cond, body } => {
                let (cond, body) = (self.cond(cond), self.code(body, vp, leaf));
                Box::new(move |f, x| if cond(f)? { body(f, x) } else { Ok(()) })
            }
            Code::Stmt(id) => leaf(self, *id),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use dhpf_codegen::Expr as E;
    use std::sync::Arc;

    /// Compiles `do q = 0, n, step { leaf }`, with `q` a loop over a VP
    /// dimension whose block size is `b`, and runs it with `ints` and
    /// `floats` bound. Returns the values of `q` the leaf saw, or the
    /// error, and whether `q` is unbound again after the run.
    fn run(
        step: i64,
        ints: &[(&str, i64)],
        floats: &[(&str, f64)],
    ) -> (Result<Vec<i64>, SimError>, bool) {
        let code = Code::Loop {
            var: "q".into(),
            lo: E::Const(0),
            hi: E::Var("n".into()),
            step,
            body: Box::new(Code::Stmt(StmtId(0))),
        };
        let mut lower = Lower {
            syms: Symbols::default(),
            dims: Vec::new(),
        };
        let (b, q) = (lower.syms.slot("b"), lower.syms.slot("q"));
        let exec = lower.code(&code, &|v| (v == "q").then_some(b), &mut |_, _| {
            Box::new(move |f, seen: &mut Vec<i64>| {
                seen.push(f.ints[q].expect("q is bound"));
                Ok(())
            })
        });
        let n = lower.syms.scalars.len();
        let syms = Arc::new(lower.syms);
        let slot = |name| syms.lookup(name).expect("a slot");
        let (mut ints_of, mut floats_of) = (vec![None; n], vec![None; n]);
        ints.iter()
            .for_each(|&(name, v)| ints_of[slot(name)] = Some(v));
        floats
            .iter()
            .for_each(|&(name, v)| floats_of[slot(name)] = Some(v));
        let mut frame = Frame {
            syms: Arc::clone(&syms),
            ints: ints_of,
            floats: floats_of,
            arrays: Vec::new(),
        };
        let mut seen = Vec::new();
        let out = exec(&mut frame, &mut seen).map(|()| seen);
        (out.map_err(|e| *e), frame.ints[q].is_none())
    }

    #[test]
    fn vp_stride_aligns_unit_step_loops_only() {
        let (seen, unbound_after) = run(1, &[("n", 10), ("b", 4)], &[]);
        assert_eq!(seen.unwrap(), [1, 5, 9], "the real VPs v ≡ 1 (mod 4)");
        assert!(unbound_after, "the index is unbound again");
        // A block of one visits every index.
        let every: Vec<i64> = (0..=10).collect();
        assert_eq!(run(1, &[("n", 10), ("b", 1)], &[]).0.unwrap(), every);
        // A loop that already strides keeps its own step.
        assert_eq!(run(3, &[("n", 10), ("b", 4)], &[]).0.unwrap(), [0, 3, 6, 9]);
    }

    #[test]
    fn unbound_bound_fails_with_its_name() {
        let unbound = |(out, _): (Result<Vec<i64>, SimError>, bool)| match out {
            Err(SimError::Unbound(name)) => name,
            other => panic!("want Unbound, got {other:?}"),
        };
        assert_eq!(unbound(run(1, &[("b", 4)], &[])), "n");
        assert_eq!(unbound(run(1, &[("n", 10)], &[])), "b");
        // Generated code reads integer slots only: an `f64` is no value.
        assert_eq!(unbound(run(1, &[("b", 4)], &[("n", 10.0)])), "n");
    }
}
