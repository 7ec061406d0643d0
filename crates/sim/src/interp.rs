//! The slot interpreter both executors share, and the serial reference.
//!
//! A [`Frame`] holds one program instance's state by number: integer and
//! `f64` scalar slots and the array table. The lowered expressions and
//! statements of [`crate::lower`] evaluate against it. [`run_serial`]
//! executes the original (unpartitioned) program on one frame; the SPMD
//! executor's results are validated against it in the integration tests.

use crate::lower::{lower_block, ArrayId, Assign, FExpr, IExpr, Intrinsic, LStmt, Symbols, Target};
use crate::store::{Array, Store};
use dhpf_codegen::{Halt, Slot, Slots};
use dhpf_hpf::{Analysis, BinOp, ScalarKind, TypeName};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Runtime errors of the interpreters.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum SimError {
    /// An unbound scalar or missing runtime input.
    Unbound(String),
    /// An unsupported construct or intrinsic reached execution.
    Unsupported(String),
    /// Communication mismatch between ranks (an internal invariant).
    CommMismatch(String),
    /// A subscript outside an array's bounds, or of the wrong rank.
    OutOfBounds {
        /// The array.
        array: String,
        /// The subscripts, one per subscript expression.
        index: Vec<i64>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Unbound(n) => write!(f, "unbound variable '{n}'"),
            SimError::Unsupported(m) => write!(f, "unsupported at runtime: {m}"),
            SimError::CommMismatch(m) => write!(f, "communication mismatch: {m}"),
            SimError::OutOfBounds { array, index } => {
                write!(f, "index {index:?} out of bounds of array '{array}'")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A [`SimError`] on the evaluator's hot path, boxed so that evaluation
/// results stay two words wide.
pub(crate) type Fault = Box<SimError>;

/// One program instance's state, by slot and handle.
#[derive(Clone, Debug)]
pub(crate) struct Frame {
    pub syms: Arc<Symbols>,
    /// Integer scalars, including generated-code variables.
    pub ints: Vec<Option<i64>>,
    /// `f64` scalars.
    pub floats: Vec<Option<f64>>,
    /// Arrays by handle.
    pub arrays: Vec<Array>,
}

impl Slots for Frame {
    fn slots(&self) -> &[Option<i64>] {
        &self.ints
    }

    fn slots_mut(&mut self) -> &mut [Option<i64>] {
        &mut self.ints
    }
}

fn bool_val(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

impl Frame {
    /// A frame with the unit's declared scalars bound and no arrays yet:
    /// runtime inputs and `parameter` constants as integers (constants
    /// win), declared locals as zero. Runtime inputs missing from `inputs`
    /// stay unbound, so a missing input is a loud error at its first use.
    pub fn new(syms: Arc<Symbols>, analysis: &Analysis, inputs: &HashMap<String, i64>) -> Frame {
        let n = syms.scalars.len();
        let mut f = Frame {
            syms,
            ints: vec![None; n],
            floats: vec![None; n],
            arrays: Vec::new(),
        };
        for (k, v) in inputs {
            let s = f.syms.lookup(k).expect("inputs are interned");
            f.ints[s] = Some(*v);
        }
        for (name, info) in &analysis.scalars {
            let s = f.syms.lookup(name).expect("scalars are interned");
            match info.kind {
                ScalarKind::Constant(v) => f.ints[s] = Some(v),
                ScalarKind::Symbolic => {}
                ScalarKind::Local => match info.ty {
                    TypeName::Integer => {
                        f.ints[s].get_or_insert(0);
                    }
                    TypeName::Real => {
                        f.floats[s].get_or_insert(0.0);
                    }
                },
            }
        }
        f
    }

    /// The declared bounds of every array, by handle, evaluated over the
    /// integer slots.
    pub fn array_dims(&self, analysis: &Analysis) -> Result<Vec<Vec<(i64, i64)>>, SimError> {
        self.syms
            .arrays
            .iter()
            .map(|name| {
                analysis.arrays[name]
                    .dims
                    .iter()
                    .map(|(lo, hi)| Ok((self.affine(lo)?, self.affine(hi)?)))
                    .collect()
            })
            .collect()
    }

    /// Evaluates a frontend affine expression over the integer slots.
    pub fn affine(&self, a: &dhpf_hpf::Affine) -> Result<i64, SimError> {
        let mut acc = a.constant;
        for (name, c) in &a.terms {
            let v = self
                .syms
                .lookup(name)
                .and_then(|s| self.ints[s])
                .ok_or_else(|| SimError::Unbound(name.clone()))?;
            acc += c * v;
        }
        Ok(acc)
    }

    /// The bound scalars as `(f64s, integers)` by name.
    pub fn scalars(&self) -> (HashMap<String, f64>, HashMap<String, i64>) {
        let named = |s: Slot| self.syms.scalars[s].clone();
        let floats = (0..self.floats.len())
            .filter_map(|s| self.floats[s].map(|v| (named(s), v)))
            .collect();
        let ints = (0..self.ints.len())
            .filter_map(|s| self.ints[s].map(|v| (named(s), v)))
            .collect();
        (floats, ints)
    }

    /// The frame as a name-keyed [`Store`].
    pub fn into_store(self) -> Store {
        let (floats, ints) = self.scalars();
        Store {
            arrays: self.syms.arrays.iter().cloned().zip(self.arrays).collect(),
            ints,
            floats,
        }
    }

    /// The error for reading the unbound slot `s`.
    pub fn unbound(&self, s: Slot) -> Fault {
        Box::new(SimError::Unbound(self.syms.scalars[s].clone()))
    }

    /// Maps a stopped [`dhpf_codegen::SlotCode`] run to its error.
    pub fn halted(&self, h: Halt<Fault>) -> Fault {
        match h {
            Halt::Unbound(s) => self.unbound(s),
            Halt::Stmt(e) => e,
        }
    }

    fn out_of_bounds(&self, h: ArrayId, index: Vec<i64>) -> Fault {
        Box::new(SimError::OutOfBounds {
            array: self.syms.arrays[h].clone(),
            index,
        })
    }

    /// Column-major offset and row-major key of the element of array `h`
    /// at subscripts `xs`, every one of which is evaluated first; `None`
    /// when one is out of bounds or their count is not the array's rank.
    /// Keys order in-bounds elements lexicographically by subscript.
    fn locate(
        &self,
        h: ArrayId,
        xs: impl ExactSizeIterator<Item = Result<i64, Fault>>,
    ) -> Result<Option<(usize, usize)>, Fault> {
        let dims = &self.arrays[h].dims;
        let (mut off, mut stride, mut key) = (0usize, 1usize, 0usize);
        let mut inside = xs.len() == dims.len();
        for (d, x) in xs.enumerate() {
            let x = x?;
            match dims.get(d) {
                Some(&(lb, ub)) if (lb..=ub).contains(&x) => {
                    let extent = (ub - lb + 1) as usize;
                    off += (x - lb) as usize * stride;
                    stride *= extent;
                    key = key * extent + (x - lb) as usize;
                }
                _ => inside = false,
            }
        }
        Ok(inside.then_some((off, key)))
    }

    /// Column-major offset of the element `subs` names in array `h`.
    fn offset(&self, h: ArrayId, subs: &[IExpr]) -> Result<usize, Fault> {
        match self.locate(h, subs.iter().map(|e| e.eval(self)))? {
            Some((off, _)) => Ok(off),
            None => {
                let index = subs
                    .iter()
                    .map(|e| e.eval(self))
                    .collect::<Result<_, _>>()?;
                Err(self.out_of_bounds(h, index))
            }
        }
    }

    /// [`Frame::locate`] of the element whose subscripts are the values of
    /// the integer slots `subs`.
    pub fn slot_offset(&self, h: ArrayId, subs: &[Slot]) -> Result<(usize, usize), Fault> {
        let xs = subs
            .iter()
            .map(|&s| self.ints[s].ok_or_else(|| self.unbound(s)));
        self.locate(h, xs)?.ok_or_else(|| {
            self.out_of_bounds(h, subs.iter().filter_map(|&s| self.ints[s]).collect())
        })
    }

    /// Stores `v` into `target`.
    pub fn store(&mut self, target: &Target, v: f64) -> Result<(), Fault> {
        match target {
            Target::Elem(h, subs) => {
                let off = self.offset(*h, subs)?;
                self.arrays[*h].data[off] = v;
            }
            &Target::Scalar { slot, implicit_int } => {
                if self.ints[slot].is_some() || (self.floats[slot].is_none() && implicit_int) {
                    self.ints[slot] = Some(v as i64);
                } else {
                    self.floats[slot] = Some(v);
                }
            }
        }
        Ok(())
    }

    /// Executes one assignment.
    pub fn assign(&mut self, a: &Assign) -> Result<(), Fault> {
        let v = a.rhs.eval(self)?;
        self.store(&a.target, v)
    }

    /// Executes a block of statements, counting the flops of the
    /// assignments it runs.
    pub fn exec(&mut self, body: &[LStmt], flops: &mut u64) -> Result<(), Fault> {
        for s in body {
            match s {
                LStmt::Assign(a) => {
                    self.assign(a)?;
                    *flops += a.cost;
                }
                LStmt::Do {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    let lo = lo.eval(self)?;
                    let hi = hi.eval(self)?;
                    let step = match step {
                        Some(e) => e.eval(self)?,
                        None => 1,
                    };
                    for x in do_range(lo, hi, step) {
                        self.ints[*var] = Some(x);
                        self.exec(body, flops)?;
                    }
                }
                LStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    if cond.eval(self)? != 0.0 {
                        self.exec(then_body, flops)?;
                    } else {
                        self.exec(else_body, flops)?;
                    }
                }
                LStmt::Read(slots) => {
                    for &s in slots {
                        if self.ints[s].is_none() && self.floats[s].is_none() {
                            return Err(Box::new(SimError::Unbound(format!(
                                "runtime input '{}'",
                                self.syms.scalars[s]
                            ))));
                        }
                    }
                }
                LStmt::Print => {}
                LStmt::Call(name) => {
                    return Err(Box::new(SimError::Unsupported(format!("call '{name}'"))));
                }
            }
        }
        Ok(())
    }
}

/// The values a Fortran `do x = lo, hi, step` visits: none for a zero
/// step, counting down for a negative one.
pub(crate) fn do_range(lo: i64, hi: i64, step: i64) -> impl Iterator<Item = i64> {
    std::iter::successors(Some(lo), move |x| Some(x + step))
        .take_while(move |&x| (step > 0 && x <= hi) || (step < 0 && x >= hi))
}

impl FExpr {
    /// Evaluates in `f64`. A scalar reads its `f64` slot first, then its
    /// integer slot.
    pub(crate) fn eval(&self, f: &Frame) -> Result<f64, Fault> {
        Ok(match self {
            FExpr::Const(v) => *v,
            FExpr::Var(s) => match (f.floats[*s], f.ints[*s]) {
                (Some(v), _) => v,
                (None, Some(v)) => v as f64,
                (None, None) => return Err(f.unbound(*s)),
            },
            FExpr::Elem(h, subs) => f.arrays[*h].data[f.offset(*h, subs)?],
            FExpr::Bin(op, a, b) => {
                let (x, y) = (a.eval(f)?, b.eval(f)?);
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Pow => x.powf(y),
                    BinOp::Lt => bool_val(x < y),
                    BinOp::Le => bool_val(x <= y),
                    BinOp::Gt => bool_val(x > y),
                    BinOp::Ge => bool_val(x >= y),
                    BinOp::Eq => bool_val(x == y),
                    BinOp::Ne => bool_val(x != y),
                    BinOp::And => bool_val(x != 0.0 && y != 0.0),
                    BinOp::Or => bool_val(x != 0.0 || y != 0.0),
                }
            }
            FExpr::Neg(a) => -a.eval(f)?,
            FExpr::Not(a) => bool_val(a.eval(f)? == 0.0),
            FExpr::Call(i, args) => call(i, args, f)?,
        })
    }
}

fn call(i: &Intrinsic, args: &[FExpr], f: &Frame) -> Result<f64, Fault> {
    let arg = |k: usize| args[k].eval(f);
    Ok(match i {
        Intrinsic::Abs => arg(0)?.abs(),
        Intrinsic::Sqrt => arg(0)?.sqrt(),
        Intrinsic::Exp => arg(0)?.exp(),
        Intrinsic::Log => arg(0)?.ln(),
        Intrinsic::Max => {
            let mut acc = f64::NEG_INFINITY;
            for a in args {
                acc = acc.max(a.eval(f)?);
            }
            acc
        }
        Intrinsic::Min => {
            let mut acc = f64::INFINITY;
            for a in args {
                acc = acc.min(a.eval(f)?);
            }
            acc
        }
        Intrinsic::Mod => {
            let (x, y) = (arg(0)?, arg(1)?);
            x - (x / y).floor() * y
        }
        Intrinsic::Sign => {
            let (x, y) = (arg(0)?, arg(1)?);
            x.abs() * y.signum()
        }
        Intrinsic::Same => arg(0)?,
        Intrinsic::Int => arg(0)?.trunc(),
        Intrinsic::NumProcs(s) => {
            f.ints[*s].ok_or_else(|| SimError::Unbound("number_of_processors".into()))? as f64
        }
        Intrinsic::Unknown(name) => {
            for a in args {
                a.eval(f)?;
            }
            return Err(Box::new(SimError::Unsupported(format!(
                "intrinsic '{name}' with {} arguments",
                args.len()
            ))));
        }
    })
}

impl IExpr {
    /// Evaluates in `i64`. A scalar reads its integer slot first, then its
    /// `f64` slot (truncated).
    pub(crate) fn eval(&self, f: &Frame) -> Result<i64, Fault> {
        Ok(match self {
            IExpr::Const(v) => *v,
            IExpr::Offset(s, c) => match (f.ints[*s], f.floats[*s]) {
                (Some(v), _) => v + c,
                (None, Some(v)) => v as i64 + c,
                (None, None) => return Err(f.unbound(*s)),
            },
            IExpr::Add(a, b) => a.eval(f)? + b.eval(f)?,
            IExpr::Sub(a, b) => a.eval(f)? - b.eval(f)?,
            IExpr::Mul(a, b) => a.eval(f)? * b.eval(f)?,
            IExpr::Div(a, b) => {
                let (x, y) = (a.eval(f)?, b.eval(f)?);
                if y == 0 {
                    return Err(Box::new(SimError::Unsupported("division by zero".into())));
                }
                x / y
            }
            IExpr::Neg(a) => -a.eval(f)?,
            IExpr::Real(e) => e.eval(f)? as i64,
        })
    }
}

/// Runs the original program serially (the validation oracle), returning
/// the final store and the executed floating-point operation count.
///
/// # Errors
///
/// Returns [`SimError`] for unbound inputs, out-of-bounds subscripts or
/// unsupported constructs.
pub fn run_serial(
    analysis: &Analysis,
    inputs: &HashMap<String, i64>,
) -> Result<(Store, u64), SimError> {
    let mut syms = Symbols::new(analysis);
    for k in inputs.keys() {
        syms.slot(k);
    }
    let body = lower_block(&analysis.unit.body, &mut syms);
    let mut frame = Frame::new(Arc::new(syms), analysis, inputs);
    frame.arrays = frame
        .array_dims(analysis)?
        .into_iter()
        .map(Array::new)
        .collect();
    let mut flops = 0u64;
    frame.exec(&body, &mut flops).map_err(|e| *e)?;
    Ok((frame.into_store(), flops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhpf_hpf::{analyze, parse};

    #[test]
    fn serial_jacobi_smoke() {
        let src = "
program j
real a(8,8), b(8,8)
do i = 1, 8
  do j = 1, 8
    b(i,j) = i + 10*j
  enddo
enddo
do i = 2, 7
  do j = 2, 7
    a(i,j) = 0.25 * (b(i-1,j) + b(i+1,j) + b(i,j-1) + b(i,j+1))
  enddo
enddo
end
";
        let prog = parse(src).unwrap();
        let analysis = analyze(&prog.units[0]).unwrap();
        let (store, flops) = run_serial(&analysis, &HashMap::new()).unwrap();
        let a = &store.arrays["a"];
        let b = |i: i64, j: i64| (i + 10 * j) as f64;
        let want = 0.25 * (b(2, 4) + b(4, 4) + b(3, 3) + b(3, 5));
        assert!((a.get(&[3, 4]) - want).abs() < 1e-12);
        assert!(flops > 0);
    }

    #[test]
    fn reductions_and_ifs() {
        let src = "
program r
real a(10)
real s, mx
do i = 1, 10
  a(i) = i * 1.0
enddo
s = 0.0
mx = -1.0e30
do i = 1, 10
  s = s + a(i)
  mx = max(mx, a(i))
enddo
if (s > 50.0) then
  s = s + 1000.0
endif
end
";
        let prog = parse(src).unwrap();
        let analysis = analyze(&prog.units[0]).unwrap();
        let (store, _) = run_serial(&analysis, &HashMap::new()).unwrap();
        assert_eq!(store.floats["s"], 1055.0);
        assert_eq!(store.floats["mx"], 10.0);
    }

    #[test]
    fn runtime_inputs() {
        let src = "
program r
integer n
real a(100)
read *, n
do i = 1, n
  a(i) = 2.0
enddo
end
";
        let prog = parse(src).unwrap();
        let analysis = analyze(&prog.units[0]).unwrap();
        let inputs: HashMap<String, i64> = [("n".to_string(), 7i64)].into_iter().collect();
        let (store, _) = run_serial(&analysis, &inputs).unwrap();
        assert_eq!(store.arrays["a"].get(&[7]), 2.0);
        assert_eq!(store.arrays["a"].get(&[8]), 0.0);
        // Missing input is a positioned runtime error.
        assert!(run_serial(&analysis, &HashMap::new()).is_err());
    }

    #[test]
    fn do_range_counts_both_ways() {
        assert_eq!(do_range(1, 10, 3).collect::<Vec<_>>(), [1, 4, 7, 10]);
        assert_eq!(do_range(4, 1, -1).collect::<Vec<_>>(), [4, 3, 2, 1]);
        assert_eq!(do_range(1, 3, 0).count(), 0);
        assert_eq!(do_range(3, 1, 1).count(), 0);
    }
}
