//! Pins both executors bit for bit on the five ledger programs, at the
//! ledger's sizes, grids and inputs: the serial reference's final store and
//! flop count, and the simulated run's clocks, traffic and gathered arrays.
//!
//! The expected hashes were recorded from the name-resolving interpreters
//! that preceded the slot-lowered executor, so a change to evaluation order,
//! clock accumulation or payload order shows up here as a changed hash.
//! SP's two simulated hashes were recorded again when the compiler stopped
//! emitting SP's two dead exchanges (events whose receive map has no
//! conjuncts): the nest they split is one nest again, so each rank's clock
//! sums the same flop and message costs in another order and moves in the
//! 13th digit. The gathered arrays, the traffic and the serial hashes did
//! not move.
//! ERLEBACHER's simulated hash was recorded again when the simulator began
//! testing each message's offsets at run time (§3.3): 2 sends and 2
//! receives, whole `rhs(:,:,k)` planes, now go in place, so their in-place
//! counts and the ranks' clocks (no pack or unpack copy) moved. Its
//! messages, bytes, arrays and serial hash did not.

use dhpf::core::{compile, CompileOptions};
use dhpf::sim::{run_serial, simulate, MachineModel, SimResult, Store};
use std::collections::HashMap;

const JACOBI: &str = include_str!("../benchmarks/jacobi.hpf");
const TOMCATV: &str = include_str!("../benchmarks/tomcatv.hpf");
const ERLEBACHER: &str = include_str!("../benchmarks/erlebacher.hpf");
const SP: &str = include_str!("../benchmarks/sp.hpf");

/// FNV-1a, 64 bit: stable across toolchains, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn sorted<V>(m: &HashMap<String, V>) -> Vec<(&String, &V)> {
    let mut v: Vec<_> = m.iter().collect();
    v.sort_by(|a, b| a.0.cmp(b.0));
    v
}

fn hash_arrays(h: &mut Fnv, arrays: &HashMap<String, dhpf::sim::Array>) {
    for (name, a) in sorted(arrays) {
        h.str(name);
        for &(lo, hi) in &a.dims {
            h.i64(lo);
            h.i64(hi);
        }
        for &x in &a.data {
            h.f64(x);
        }
    }
}

fn hash_serial(store: &Store, flops: u64) -> u64 {
    let mut h = Fnv::new();
    hash_arrays(&mut h, &store.arrays);
    for (name, v) in sorted(&store.floats) {
        h.str(name);
        h.f64(*v);
    }
    for (name, v) in sorted(&store.ints) {
        h.str(name);
        h.i64(*v);
    }
    h.u64(flops);
    h.0
}

fn hash_sim(r: &SimResult) -> u64 {
    let mut h = Fnv::new();
    h.f64(r.time);
    for &t in &r.rank_times {
        h.f64(t);
    }
    h.u64(r.messages);
    h.u64(r.bytes);
    for c in &r.comm {
        for v in [
            c.sent_messages,
            c.recv_messages,
            c.sent_bytes,
            c.recv_bytes,
            c.inplace_sends,
            c.buffered_sends,
            c.inplace_recvs,
            c.buffered_recvs,
        ] {
            h.u64(v);
        }
    }
    hash_arrays(&mut h, &r.arrays);
    h.0
}

/// Compiles `src`, runs both executors, and returns `(serial, simulated)`
/// hashes.
fn hashes(src: &str, grid: &[i64], inputs: &[(&str, i64)]) -> (u64, u64) {
    let inputs: HashMap<String, i64> = inputs.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    let compiled = compile(src, &CompileOptions::default()).expect("compile");
    let (store, flops) = run_serial(&compiled.analysis, &inputs).expect("run_serial");
    let sim = simulate(&compiled, grid, &inputs, &MachineModel::sp2()).expect("simulate");
    (hash_serial(&store, flops), hash_sim(&sim))
}

fn pin(name: &str, got: (u64, u64), want: (u64, u64)) {
    assert_eq!(
        got, want,
        "{name}: (serial, simulated) hashes moved: got ({:#x}, {:#x})",
        got.0, got.1
    );
}

#[test]
fn jacobi_is_pinned() {
    pin(
        "jacobi",
        hashes(JACOBI, &[2, 1], &[("niter", 3)]),
        (0xd7bf_8ecf_ba88_75aa, 0xd0d4_0a9e_1b33_fc53),
    );
}

#[test]
fn tomcatv_is_pinned() {
    let src = TOMCATV.replace("parameter (n = 257)", "parameter (n = 129)");
    pin(
        "tomcatv",
        hashes(&src, &[2], &[("niter", 3)]),
        (0x6b6e_f366_524d_1c33, 0x535e_9b35_32d2_29e4),
    );
}

#[test]
fn erlebacher_is_pinned() {
    pin(
        "erlebacher",
        hashes(ERLEBACHER, &[2], &[]),
        (0xea41_4626_07e7_7d28, 0x989f_95a0_66ab_368c),
    );
}

#[test]
fn sp4_is_pinned() {
    pin(
        "sp4",
        hashes(SP, &[2, 2], &[("n", 34), ("niter", 1)]),
        (0xc3d7_cdf9_a6a9_f18d, 0x694e_41e6_5707_3768),
    );
}

#[test]
fn spsym_is_pinned() {
    let src = SP.replace(
        "!HPF$ processors p(2, 2)",
        "!HPF$ processors p(2, number_of_processors())",
    );
    assert_ne!(src, SP, "the SP source no longer declares p(2, 2)");
    pin(
        "spsym",
        hashes(&src, &[2, 1], &[("n", 34), ("niter", 1)]),
        (0xc3d7_cdf9_a6a9_f18d, 0xc7e0_7e19_7958_4055),
    );
}
