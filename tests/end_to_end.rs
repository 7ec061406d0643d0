//! End-to-end correctness: programs compiled to SPMD and executed on the
//! simulator must produce bit-identical arrays and reduction scalars to the
//! serial reference interpreter, for every processor count.

use dhpf::core::{compile, CompileOptions};
use dhpf::sim::{run_serial, simulate, MachineModel, Store};
use std::collections::HashMap;

fn check(src: &str, grids: &[&[i64]], inputs: &[(&str, i64)]) -> Store {
    let inputs: HashMap<String, i64> = inputs.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    let compiled = compile(src, &CompileOptions::default()).unwrap_or_else(|e| {
        panic!("compile failed: {e}");
    });
    let (serial, _) = run_serial(&compiled.analysis, &inputs).unwrap();
    for grid in grids {
        let result = simulate(&compiled, grid, &inputs, &MachineModel::sp2())
            .unwrap_or_else(|e| panic!("simulate {grid:?} failed: {e}"));
        for (name, want) in &serial.arrays {
            let got = &result.arrays[name];
            assert_eq!(got.dims, want.dims, "{name} dims, grid {grid:?}");
            for (k, (g, w)) in got.data.iter().zip(&want.data).enumerate() {
                assert!(
                    (g - w).abs() < 1e-9,
                    "array {name}[linear {k}] differs on grid {grid:?}: got {g}, want {w}"
                );
            }
        }
        for (name, want) in &serial.floats {
            let got = result.floats.get(name).copied().unwrap_or(f64::NAN);
            assert!(
                (got - want).abs() < 1e-9 * want.abs().max(1.0),
                "scalar {name} differs on grid {grid:?}: got {got}, want {want}"
            );
        }
    }
    serial
}

/// 1-D shift with BLOCK distribution and a fixed processor count.
#[test]
fn shift_block_fixed() {
    check(
        "
program shift
real a(100), b(100)
!HPF$ processors p(4)
!HPF$ template t(100)
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i)
!HPF$ distribute t(block) onto p
do i = 1, 100
  b(i) = i * 1.0
enddo
do i = 1, 99
  a(i) = b(i+1) + 0.5
enddo
end
",
        &[&[4]],
        &[],
    );
}

/// Same shift with a *symbolic* processor count (virtual-processor model).
#[test]
fn shift_block_symbolic() {
    check(
        "
program shiftsym
real a(100), b(100)
!HPF$ processors p(number_of_processors())
!HPF$ template t(100)
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i)
!HPF$ distribute t(block) onto p
do i = 1, 100
  b(i) = i * 1.0
enddo
do i = 1, 99
  a(i) = b(i+1)
enddo
end
",
        &[&[1], &[2], &[4], &[8]],
        &[],
    );
}

/// 2-D Jacobi stencil over a (BLOCK, *) distribution with a time loop.
#[test]
fn jacobi_block_star() {
    check(
        "
program jacobi
real a(32,32), b(32,32)
integer iter
!HPF$ processors p(number_of_processors())
!HPF$ template t(32,32)
!HPF$ align a(i,j) with t(i,j)
!HPF$ align b(i,j) with t(i,j)
!HPF$ distribute t(block,*) onto p
do i = 1, 32
  do j = 1, 32
    b(i,j) = i + 100*j
    a(i,j) = 0.0
  enddo
enddo
do iter = 1, 3
  do i = 2, 31
    do j = 2, 31
      a(i,j) = 0.25 * (b(i-1,j) + b(i+1,j) + b(i,j-1) + b(i,j+1))
    enddo
  enddo
  do i = 2, 31
    do j = 2, 31
      b(i,j) = a(i,j)
    enddo
  enddo
enddo
end
",
        &[&[1], &[2], &[4]],
        &[],
    );
}

/// Reductions (sum and max) over a distributed array.
#[test]
fn reductions_match_serial() {
    check(
        "
program red
real a(64)
real s, mx
!HPF$ processors p(number_of_processors())
!HPF$ template t(64)
!HPF$ align a(i) with t(i)
!HPF$ distribute t(block) onto p
do i = 1, 64
  a(i) = i * 0.5
enddo
s = 0.0
mx = -1.0e30
do i = 1, 64
  s = s + a(i)
  mx = max(mx, a(i))
enddo
end
",
        &[&[1], &[2], &[4]],
        &[],
    );
}

/// Pipelined recurrence: loop-carried dependence forces communication
/// inside the outer loop (ERLEBACHER-style).
#[test]
fn pipeline_recurrence() {
    check(
        "
program pipe
real a(24,24)
!HPF$ processors p(number_of_processors())
!HPF$ template t(24,24)
!HPF$ align a(i,j) with t(i,j)
!HPF$ distribute t(block,*) onto p
do i = 1, 24
  do j = 1, 24
    a(i,j) = i + 0.1 * j
  enddo
enddo
do i = 2, 24
  do j = 1, 24
    a(i,j) = a(i,j) + 0.5 * a(i-1,j)
  enddo
enddo
end
",
        &[&[1], &[2], &[4]],
        &[],
    );
}

/// Runtime problem size via `read`.
#[test]
fn runtime_sizes() {
    check(
        "
program rt
integer n
real a(100), b(100)
!HPF$ processors p(number_of_processors())
!HPF$ template t(100)
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i)
!HPF$ distribute t(block) onto p
read *, n
do i = 1, n
  b(i) = i * 2.0
enddo
do i = 2, n
  a(i) = b(i-1) + b(i)
enddo
end
",
        &[&[1], &[3], &[4]],
        &[("n", 60)],
    );
}

/// ON_HOME with non-owner computes and non-local writes.
#[test]
fn non_owner_computes_write() {
    check(
        "
program nl
real a(40), b(40)
!HPF$ processors p(4)
!HPF$ template t(40)
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i)
!HPF$ distribute t(block) onto p
do i = 1, 40
  b(i) = i * 1.0
enddo
do i = 1, 39
!HPF$ on_home b(i)
  a(i+1) = b(i) * 3.0
enddo
end
",
        &[&[4]],
        &[],
    );
}

/// A non-local write beside a vectorized non-local read: the nest must
/// keep its post-nest write exchange (the Figure-4(b) split schedule has
/// no place for one, so such a nest is not split).
#[test]
fn non_owner_write_with_nonlocal_read() {
    check(
        "
program wsplit
real a(32), b(32), c(32)
!HPF$ processors p(4)
!HPF$ template t(32)
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i)
!HPF$ align c(i) with t(i)
!HPF$ distribute t(block) onto p
do i = 1, 32
  b(i) = 0.5 * i
  c(i) = 0.25 * i
  a(i) = 0.0
enddo
do i = 2, 31
!HPF$ on_home c(i+1)
  a(i) = b(i-1) + c(i+1)
enddo
end
",
        &[&[4]],
        &[],
    );
}

/// Guarded (IF) statements inside a parallel nest.
#[test]
fn guarded_statements() {
    check(
        "
program g
real a(50), b(50)
!HPF$ processors p(number_of_processors())
!HPF$ template t(50)
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i)
!HPF$ distribute t(block) onto p
do i = 1, 50
  b(i) = i * 1.0
enddo
do i = 1, 50
  if (b(i) > 25.0) then
    a(i) = b(i) * 2.0
  else
    a(i) = b(i)
  endif
enddo
end
",
        &[&[1], &[2], &[5]],
        &[],
    );
}

/// 2-D block-block distribution.
#[test]
fn block_block_2d() {
    check(
        "
program bb
real a(16,16), b(16,16)
!HPF$ processors p(2,2)
!HPF$ template t(16,16)
!HPF$ align a(i,j) with t(i,j)
!HPF$ align b(i,j) with t(i,j)
!HPF$ distribute t(block,block) onto p
do i = 1, 16
  do j = 1, 16
    b(i,j) = i * 100 + j
  enddo
enddo
do i = 2, 15
  do j = 2, 15
    a(i,j) = b(i-1,j) + b(i+1,j) + b(i,j-1) + b(i,j+1)
  enddo
enddo
end
",
        &[&[2, 2]],
        &[],
    );
}

/// A vector aligned with `*` in the second template dimension: each
/// element of `b` has two owners, one per processor column. `body` is the
/// second nest.
fn star_aligned(body: &str) -> String {
    format!(
        "
program star
real a(16,16), b(16)
!HPF$ processors p(2,2)
!HPF$ template t(16,16)
!HPF$ align a(i,j) with t(i,j)
!HPF$ align b(i) with t(i,*)
!HPF$ distribute t(block,block) onto p
do i = 1, 16
  b(i) = i * 1.0
  do j = 1, 16
    a(i,j) = i * 100 + j
  enddo
enddo
{body}
end
"
    )
}

/// Reading a multi-owner element off-processor: each reader receives it
/// from the partners it names, and exactly those partners send it. A send
/// map built apart from the receive map also sends elements the partner
/// already owns, and the unmatched message fails the simulation.
#[test]
fn star_aligned_read() {
    check(
        &star_aligned(
            "do i = 1, 15
  do j = 1, 16
    a(i,j) = b(i+1) + j
  enddo
enddo",
        ),
        &[&[2, 2]],
        &[],
    );
}

/// Writing multi-owner elements from an off-processor value.
#[test]
fn star_aligned_write() {
    check(
        &star_aligned(
            "do i = 1, 15
  b(i+1) = a(i,1)
enddo",
        ),
        &[&[2, 2]],
        &[],
    );
}

/// Cyclic distribution with a fixed processor count.
#[test]
fn cyclic_fixed() {
    check(
        "
program cyc
real a(32), b(32)
!HPF$ processors p(4)
!HPF$ template t(32)
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i)
!HPF$ distribute t(cyclic) onto p
do i = 1, 32
  b(i) = i * 1.0
enddo
do i = 1, 31
  a(i) = b(i+1)
enddo
end
",
        &[&[4]],
        &[],
    );
}

/// A replicated time loop over `header` around a BLOCK-distributed update.
fn stepped_time_loop(header: &str) -> String {
    format!(
        "
program steps
real a(16), b(16)
!HPF$ processors p(2)
!HPF$ template t(16)
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i)
!HPF$ distribute t(block) onto p
{header}
  do i = 1, 16
    b(i) = 1.0
  enddo
  do i = 1, 16
    a(i) = a(i) + b(i)
  enddo
enddo
end
"
    )
}

/// A time loop with a step visits `lo, lo + step, ...`, not `lo..=hi`.
#[test]
fn serial_loop_with_positive_step() {
    let serial = check(&stepped_time_loop("do iter = 1, 10, 3"), &[&[2]], &[]);
    assert_eq!(serial.arrays["a"].get(&[6]), 4.0);
}

/// A negative step counts down; the loop still runs.
#[test]
fn serial_loop_with_negative_step() {
    let serial = check(&stepped_time_loop("do iter = 4, 1, -1"), &[&[2]], &[]);
    assert_eq!(serial.arrays["a"].get(&[6]), 4.0);
}
