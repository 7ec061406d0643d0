//! §4's virtual-processor model against fixed P: each shipped program is
//! compiled once with a symbolic processor count (`number_of_processors()`)
//! and once with the grid spelled out in its `processors` directive, and
//! both are simulated on that grid. The two runs must agree bit for bit on
//! the gathered arrays, on each rank's communication (messages, bytes and
//! in-place/buffered transfers, sent and received), on the totals, and on
//! the model time: the VP model costs the same to compile (Table 1) and
//! computes the same program as the fixed-P compile.

use dhpf::core::{compile, CompileOptions};
use dhpf::sim::{simulate, MachineModel, SimResult};
use std::collections::HashMap;

const JACOBI: &str = include_str!("../benchmarks/jacobi.hpf");
const TOMCATV: &str = include_str!("../benchmarks/tomcatv.hpf");
const ERLEBACHER: &str = include_str!("../benchmarks/erlebacher.hpf");
const SP: &str = include_str!("../benchmarks/sp.hpf");

/// `src` with its one `from` replaced by `to`; panics if `from` is absent,
/// so a reworded directive cannot turn a comparison into a tautology.
fn edit(src: &str, from: &str, to: &str) -> String {
    assert!(src.contains(from), "source no longer contains {from:?}");
    src.replace(from, to)
}

fn run(src: &str, grid: &[i64], inputs: &[(&str, i64)]) -> SimResult {
    let inputs: HashMap<String, i64> = inputs.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    let compiled = compile(src, &CompileOptions::default()).expect("compile");
    simulate(&compiled, grid, &inputs, &MachineModel::sp2()).expect("simulate")
}

/// Simulates the symbolic and the fixed compile on `grid` and requires
/// them to agree exactly.
fn same(name: &str, symbolic: &str, fixed: &str, grid: &[i64], inputs: &[(&str, i64)]) {
    let (s, f) = (run(symbolic, grid, inputs), run(fixed, grid, inputs));
    let what = format!("{name} at {grid:?}");
    assert_eq!(s.comm, f.comm, "{what}: per-rank communication differs");
    assert_eq!(
        (s.messages, s.bytes),
        (f.messages, f.bytes),
        "{what}: messages, bytes"
    );
    assert_eq!(
        s.time.to_bits(),
        f.time.to_bits(),
        "{what}: model time {} vs {}",
        s.time,
        f.time
    );
    let mut names: Vec<&String> = s.arrays.keys().collect();
    names.sort();
    assert_eq!(
        names.len(),
        f.arrays.len(),
        "{what}: gathered array sets differ"
    );
    for name in names {
        let (a, b) = (&s.arrays[name], &f.arrays[name]);
        assert_eq!(a.dims, b.dims, "{what}: {name} bounds");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(bits(&a.data) == bits(&b.data), "{what}: {name} differs");
    }
}

#[test]
fn sp_symbolic_matches_fixed_grids() {
    let symbolic = edit(
        SP,
        "!HPF$ processors p(2, 2)",
        "!HPF$ processors p(2, number_of_processors())",
    );
    for q in [2, 4] {
        let fixed = edit(
            SP,
            "!HPF$ processors p(2, 2)",
            &format!("!HPF$ processors p(2, {q})"),
        );
        same("sp", &symbolic, &fixed, &[2, q], &[("n", 34), ("niter", 1)]);
    }
}

#[test]
fn jacobi_symbolic_matches_fixed_grids() {
    for q in [1, 2, 4] {
        let fixed = edit(
            JACOBI,
            "!HPF$ processors p(2, number_of_processors())",
            &format!("!HPF$ processors p(2, {q})"),
        );
        same("jacobi", JACOBI, &fixed, &[2, q], &[("niter", 3)]);
    }
}

#[test]
fn tomcatv_symbolic_matches_fixed_counts() {
    let symbolic = edit(TOMCATV, "parameter (n = 257)", "parameter (n = 129)");
    for p in [2, 4, 8] {
        let fixed = edit(
            &symbolic,
            "!HPF$ processors p(number_of_processors())",
            &format!("!HPF$ processors p({p})"),
        );
        same("tomcatv", &symbolic, &fixed, &[p], &[("niter", 3)]);
    }
}

#[test]
fn erlebacher_symbolic_matches_fixed_counts() {
    for p in [2, 4, 8] {
        let fixed = edit(
            ERLEBACHER,
            "!HPF$ processors p(number_of_processors())",
            &format!("!HPF$ processors p({p})"),
        );
        same("erlebacher", ERLEBACHER, &fixed, &[p], &[]);
    }
}
