//! Run-time errors are typed, and both executors agree on them: the serial
//! reference and the simulator return the same [`SimError`] variant, with
//! the same payload (name, message, or array and index), for each way a
//! program can go wrong while it runs, and neither panics.

use dhpf::core::spmd::SpmdItem;
use dhpf::core::{compile, CompileOptions};
use dhpf::sim::{run_serial, simulate, MachineModel, SimError};
use std::collections::HashMap;

/// A 1-D BLOCK program around `body`, with a replicated array `r`.
fn program(body: &str) -> String {
    format!(
        "
program errs
integer n
real a(16), b(16), r(10)
real s
!HPF$ processors p(2)
!HPF$ template t(16)
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i)
!HPF$ distribute t(block) onto p
read *, n
do i = 1, 16
  b(i) = 1.0
enddo
{body}
end
"
    )
}

/// The variant of `e` and its payload: the name or message, or an
/// out-of-bounds element as `array[index]`.
fn kind(e: &SimError) -> (&'static str, String) {
    match e {
        SimError::Unbound(n) => ("Unbound", n.clone()),
        SimError::Unsupported(m) => ("Unsupported", m.clone()),
        SimError::CommMismatch(m) => ("CommMismatch", m.clone()),
        SimError::OutOfBounds { array, index } => ("OutOfBounds", format!("{array}{index:?}")),
        _ => ("other", e.to_string()),
    }
}

/// Runs `body` on both executors with `inputs` and checks each fails with
/// the `want` variant and payload.
fn expect(what: &str, body: &str, inputs: &[(&str, i64)], want: (&str, &str)) {
    let inputs: HashMap<String, i64> = inputs.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    let src = program(body);
    let compiled = compile(&src, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("{what}: compile failed: {e}"));
    let serial = run_serial(&compiled.analysis, &inputs).map(|_| ());
    let sim = simulate(&compiled, &[2], &inputs, &MachineModel::sp2()).map(|_| ());
    for (executor, out) in [("run_serial", serial), ("simulate", sim)] {
        match out {
            Err(e) => {
                let (variant, payload) = kind(&e);
                assert_eq!((variant, payload.as_str()), want, "{what}: {executor}");
            }
            Ok(()) => panic!("{what}: {executor} succeeded, want {want:?}"),
        }
    }
}

#[test]
fn missing_runtime_input() {
    expect(
        "missing input",
        "do i = 1, n\n  a(i) = b(i)\nenddo",
        &[],
        ("Unbound", "runtime input 'n'"),
    );
}

#[test]
fn unbound_scalar() {
    expect(
        "unbound scalar",
        "do i = 1, 16\n  a(i) = b(i) + y\nenddo",
        &[("n", 1)],
        ("Unbound", "y"),
    );
}

#[test]
fn integer_division_by_zero_in_a_subscript() {
    expect(
        "division by zero",
        "k = 0\ns = r(6 / k)",
        &[("n", 1)],
        ("Unsupported", "division by zero"),
    );
}

#[test]
fn unknown_intrinsic() {
    expect(
        "unknown intrinsic",
        "s = frobnicate(1.0, 2.0)",
        &[("n", 1)],
        ("Unsupported", "intrinsic 'frobnicate' with 2 arguments"),
    );
}

#[test]
fn out_of_bounds_read() {
    expect(
        "out-of-bounds read",
        "a(3) = b(17)",
        &[("n", 1)],
        ("OutOfBounds", "b[17]"),
    );
}

#[test]
fn out_of_bounds_write() {
    expect(
        "out-of-bounds write",
        "r(11) = 1.0",
        &[("n", 1)],
        ("OutOfBounds", "r[11]"),
    );
}

/// The compiler refuses `call` before SPMD synthesis, so the simulator is
/// handed the statement as a replicated item of an otherwise compiled
/// program.
#[test]
fn call_statement() {
    let inputs: HashMap<String, i64> = [("n".to_string(), 1)].into_iter().collect();
    let with_call = dhpf::hpf::parse(&program("call helper(1)")).expect("parse");
    let analysis = dhpf::hpf::analyze(&with_call.units[0]).expect("analyze");
    let serial = run_serial(&analysis, &inputs).map(|_| ());
    let call = analysis.unit.body.last().expect("the call").clone();
    let mut compiled = compile(&program(""), &CompileOptions::default()).expect("compile");
    compiled.program.items.push(SpmdItem::Serial(call));
    let sim = simulate(&compiled, &[2], &inputs, &MachineModel::sp2()).map(|_| ());
    for (executor, out) in [("run_serial", serial), ("simulate", sim)] {
        match out {
            Err(e) => {
                let (variant, payload) = kind(&e);
                assert_eq!(
                    (variant, payload.as_str()),
                    ("Unsupported", "call 'helper'")
                );
            }
            Ok(()) => panic!("{executor} ran a call"),
        }
    }
}
