//! A comm map's code is a cover: it may visit an element more than once,
//! and the executor sends the sorted, deduplicated *set* of elements. So
//! running every event's send and receive code twice over must change
//! nothing the simulator reports: not the clocks, not the traffic, not the
//! arrays.

use dhpf::codegen::Code;
use dhpf::core::{compile, CompileOptions};
use dhpf::sim::{simulate, MachineModel, SimResult};
use std::collections::HashMap;

const JACOBI: &str = include_str!("../benchmarks/jacobi.hpf");
const SP: &str = include_str!("../benchmarks/sp.hpf");

fn twice(c: &Code) -> Code {
    Code::Seq(vec![c.clone(), c.clone()])
}

fn assert_same(name: &str, got: &SimResult, want: &SimResult) {
    assert_eq!(got.messages, want.messages, "{name}: messages");
    assert_eq!(got.bytes, want.bytes, "{name}: bytes");
    assert_eq!(got.comm, want.comm, "{name}: per-rank comm");
    assert_eq!(got.time.to_bits(), want.time.to_bits(), "{name}: time");
    let bits = |r: &SimResult| r.rank_times.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{name}: rank times");
    assert_eq!(got.arrays, want.arrays, "{name}: arrays");
}

/// Simulates `src` as compiled and with every event's comm code doubled.
fn check(name: &str, src: &str, grid: &[i64], inputs: &[(&str, i64)]) {
    let inputs: HashMap<String, i64> = inputs.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    let machine = MachineModel::sp2();
    let mut compiled = compile(src, &CompileOptions::default()).expect("compile");
    assert!(
        !compiled.program.events.is_empty(),
        "{name}: no comm events"
    );
    let want = simulate(&compiled, grid, &inputs, &machine).expect("simulate");
    for ev in &mut compiled.program.events {
        ev.send_code = twice(&ev.send_code);
        ev.recv_code = twice(&ev.recv_code);
    }
    let got = simulate(&compiled, grid, &inputs, &machine).expect("simulate doubled");
    assert_same(name, &got, &want);
}

#[test]
fn jacobi_payload_is_a_set() {
    check("jacobi", JACOBI, &[2, 1], &[("niter", 3)]);
}

#[test]
fn sp4_payload_is_a_set() {
    check("sp4", SP, &[2, 2], &[("n", 34), ("niter", 1)]);
}
