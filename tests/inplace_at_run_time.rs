//! §3.3's run-time fallback: the compiler proves no message of the shipped
//! programs contiguous, so the simulator tests each message's offsets when
//! it is sent and received. ERLEBACHER's whole `rhs(:,:,k)` planes and
//! JACOBI's column exchanges are consecutive in column-major memory and go
//! in place; JACOBI's row exchanges are strided and stay buffered. Both
//! sides test the same element set, so every in-place send meets an
//! in-place receive, and moving a message as one slice leaves the arrays
//! equal to the serial reference.

use dhpf::core::{compile, CompileOptions};
use dhpf::sim::{run_serial, simulate, MachineModel, RankComm, SimResult};
use std::collections::HashMap;

const JACOBI: &str = include_str!("../benchmarks/jacobi.hpf");
const ERLEBACHER: &str = include_str!("../benchmarks/erlebacher.hpf");

/// Compiles and simulates `src`, checks the arrays against `run_serial`,
/// and returns the simulated run.
fn run(name: &str, src: &str, grid: &[i64], inputs: &[(&str, i64)]) -> SimResult {
    let inputs: HashMap<String, i64> = inputs.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    let compiled = compile(src, &CompileOptions::default()).expect("compile");
    assert!(
        compiled.program.events.iter().all(|ev| !ev.contiguous),
        "{name}: an event is proven contiguous; the run-time test is then not the only one"
    );
    let (serial, _) = run_serial(&compiled.analysis, &inputs).expect("run_serial");
    let sim = simulate(&compiled, grid, &inputs, &MachineModel::sp2()).expect("simulate");
    for (array, want) in &serial.arrays {
        assert_eq!(sim.arrays.get(array), Some(want), "{name}: array {array}");
    }
    sim
}

/// Sums one counter over all ranks.
fn total(sim: &SimResult, field: fn(&RankComm) -> u64) -> u64 {
    sim.comm.iter().map(field).sum()
}

/// Asserts the in-place and buffered send counts, and that receives pair
/// with sends of the same kind: in total, and on each rank, since both
/// programs' exchanges are symmetric (a rank receives from each partner a
/// message of the shape it sends there).
fn assert_mix(name: &str, sim: &SimResult, inplace: u64, buffered: u64) {
    for (rank, c) in sim.comm.iter().enumerate() {
        assert_eq!(
            (c.inplace_sends, c.buffered_sends),
            (c.inplace_recvs, c.buffered_recvs),
            "{name}: rank {rank} (in-place, buffered) sends vs receives"
        );
    }
    let sends = (
        total(sim, |c| c.inplace_sends),
        total(sim, |c| c.buffered_sends),
    );
    let recvs = (
        total(sim, |c| c.inplace_recvs),
        total(sim, |c| c.buffered_recvs),
    );
    assert_eq!(
        sends,
        (inplace, buffered),
        "{name}: (in-place, buffered) sends"
    );
    assert_eq!(recvs, sends, "{name}: receives do not pair with sends");
    assert_eq!(sim.messages, inplace + buffered, "{name}: messages");
}

#[test]
fn erlebacher_planes_go_in_place() {
    let sim = run("ERLEBACHER", ERLEBACHER, &[2], &[]);
    assert_mix("ERLEBACHER", &sim, 2, 2);
    // Two ranks: each one's only partner is the other.
    let (a, b) = (&sim.comm[0], &sim.comm[1]);
    assert_eq!(a.inplace_sends, b.inplace_recvs, "rank 0 -> rank 1");
    assert_eq!(b.inplace_sends, a.inplace_recvs, "rank 1 -> rank 0");
}

#[test]
fn jacobi_columns_go_in_place_and_rows_stay_buffered() {
    let sim = run("JACOBI", JACOBI, &[2, 8], &[("niter", 3)]);
    assert_mix("JACOBI", &sim, 84, 48);
}
