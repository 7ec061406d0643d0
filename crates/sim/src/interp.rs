//! The frame both executors run on, and the serial reference.
//!
//! A [`Frame`] holds one program instance's state by number: integer and
//! `f64` scalar slots and the array table. The closures [`crate::lower`]
//! compiles run against it. [`run_serial`] executes the original
//! (unpartitioned) program on one frame; the SPMD executor's results are
//! validated against it in the integration tests.

use crate::lower::{ArrayId, Lower, Symbols};
use crate::store::{Array, Store};
use dhpf_codegen::{Halt, Slot, Slots};
use dhpf_hpf::{Analysis, ScalarKind, TypeName};
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

/// The integer value scalar `name` starts with: a `parameter` constant,
/// else its runtime input, else zero for a declared integer local.
pub(crate) fn start_int(
    analysis: &Analysis,
    inputs: &HashMap<String, i64>,
    name: &str,
) -> Option<i64> {
    let info = analysis.scalars.get(name);
    match info.map(|i| (&i.kind, i.ty)) {
        Some((ScalarKind::Constant(v), _)) => Some(*v),
        kind => inputs.get(name).copied().or(match kind {
            Some((ScalarKind::Local, TypeName::Integer)) => Some(0),
            _ => None,
        }),
    }
}

impl Frame {
    /// A frame with the unit's declared scalars bound and no arrays yet:
    /// runtime inputs and `parameter` constants as integers (constants
    /// win), declared locals as zero. Runtime inputs missing from `inputs`
    /// stay unbound, so a missing input is a loud error at its first use.
    pub fn new(syms: Arc<Symbols>, analysis: &Analysis, inputs: &HashMap<String, i64>) -> Frame {
        let ints = syms
            .scalars
            .iter()
            .map(|name| start_int(analysis, inputs, name))
            .collect();
        let floats = syms
            .scalars
            .iter()
            .map(|name| match analysis.scalars.get(name) {
                Some(info)
                    if matches!((&info.kind, info.ty), (ScalarKind::Local, TypeName::Real)) =>
                {
                    Some(0.0)
                }
                _ => None,
            })
            .collect();
        Frame {
            syms,
            ints,
            floats,
            arrays: Vec::new(),
        }
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

    /// The error for the element of array `h` at `index`.
    pub fn out_of_bounds(&self, h: ArrayId, index: Vec<i64>) -> Fault {
        Box::new(SimError::OutOfBounds {
            array: self.syms.arrays[h].clone(),
            index,
        })
    }

    /// Scalar slot `s` in `f64`: its `f64` value, else its integer one.
    #[inline]
    pub fn float(&self, s: Slot) -> Result<f64, Fault> {
        match (self.floats[s], self.ints[s]) {
            (Some(v), _) => Ok(v),
            (None, Some(v)) => Ok(v as f64),
            (None, None) => Err(self.unbound(s)),
        }
    }

    /// Scalar slot `s` in `i64`: its integer value, else its `f64` one
    /// truncated.
    #[inline]
    pub fn int(&self, s: Slot) -> Result<i64, Fault> {
        match (self.ints[s], self.floats[s]) {
            (Some(v), _) => Ok(v),
            (None, Some(v)) => Ok(v as i64),
            (None, None) => Err(self.unbound(s)),
        }
    }
}

/// The values a Fortran `do x = lo, hi, step` visits: none for a zero
/// step, counting down for a negative one.
pub(crate) fn do_range(lo: i64, hi: i64, step: i64) -> impl Iterator<Item = i64> {
    std::iter::successors(Some(lo), move |x| Some(x + step))
        .take_while(move |&x| (step > 0 && x <= hi) || (step < 0 && x >= hi))
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
    let mut lower = Lower::new(analysis, inputs)?;
    let body = lower.block(&analysis.unit.body);
    let Lower { syms, dims } = lower;
    let mut frame = Frame::new(Arc::new(syms), analysis, inputs);
    frame.arrays = dims.into_iter().map(Array::new).collect();
    let mut flops = 0u64;
    body(&mut frame, &mut flops).map_err(|e| *e)?;
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

    /// Runs `body` after declarations of `a(0:4, 2)` and `x`, returning the
    /// error or `a(2, 2)`.
    fn run_subscripts(body: &str) -> Result<f64, SimError> {
        let src = format!("program s\nreal a(0:4, 2)\nreal x\n{body}\nend\n");
        let prog = parse(&src).unwrap();
        let analysis = analyze(&prog.units[0]).unwrap();
        let (store, _) = run_serial(&analysis, &HashMap::new())?;
        Ok(store.arrays["a"].get(&[2, 2]))
    }

    #[test]
    fn compiled_subscripts_fail_with_the_element_or_the_name() {
        // `var ± c` and general subscripts, in and out of bounds.
        let ok = run_subscripts("do i = 0, 3\n  a(i+1, 2) = i\n  a(4-i, 1) = i\nenddo");
        assert_eq!(ok.unwrap(), 1.0);
        let oob = |body| match run_subscripts(body) {
            Err(SimError::OutOfBounds { array, index }) => (array, index),
            other => panic!("{body}: {other:?}"),
        };
        assert_eq!(
            oob("do i = 0, 4\n  a(i+1, 2) = i\nenddo"),
            ("a".into(), vec![5, 2])
        );
        assert_eq!(
            oob("do i = 0, 4\n  a(2*i, 1) = i\nenddo"),
            ("a".into(), vec![6, 1])
        );
        assert_eq!(
            oob("do i = 1, 2\n  a(1, i+1) = i\nenddo"),
            ("a".into(), vec![1, 3])
        );
        assert_eq!(oob("x = a(1, 3)"), ("a".into(), vec![1, 3]));
        assert_eq!(oob("x = a(1)"), ("a".into(), vec![1]));
        // A later subscript's error wins over an earlier one out of bounds.
        match run_subscripts("x = a(9, k)") {
            Err(SimError::Unbound(name)) => assert_eq!(name, "k"),
            other => panic!("{other:?}"),
        }
        // A subscript slot holding only an `f64` is read truncated.
        assert_eq!(run_subscripts("x = 2.5\na(x, 2) = 7.0").unwrap(), 7.0);
    }

    #[test]
    fn do_range_counts_both_ways() {
        assert_eq!(do_range(1, 10, 3).collect::<Vec<_>>(), [1, 4, 7, 10]);
        assert_eq!(do_range(4, 1, -1).collect::<Vec<_>>(), [4, 3, 2, 1]);
        assert_eq!(do_range(1, 3, 0).count(), 0);
        assert_eq!(do_range(3, 1, 1).count(), 0);
    }
}
