//! What enumerating a message costs: the level-0 send/recv code of every
//! shipped program must run a bounded number of loop iterations per tuple
//! it enumerates. Comm maps are generated one loop nest per disjoint piece,
//! so the cost tracks the message size; a single hull loop per level with
//! membership guards runs tens to hundreds of iterations per tuple.
//!
//! Programs, sizes and grids are those of the perf ledger's workloads.

mod common;

use common::comm_plans;
use dhpf_core::{compile, CompileOptions};
use std::collections::HashMap;

const JACOBI: &str = include_str!("../../../benchmarks/jacobi.hpf");
const TOMCATV: &str = include_str!("../../../benchmarks/tomcatv.hpf");
const ERLEBACHER: &str = include_str!("../../../benchmarks/erlebacher.hpf");
const SP: &str = include_str!("../../../benchmarks/sp.hpf");

/// Loop iterations per enumerated tuple that level-0 comm code may spend.
const MAX_ITERATIONS_PER_TUPLE: f64 = 8.0;

/// A program as the ledger runs it: name, source, grid, `read *` inputs.
type Program<'a> = (&'a str, &'a str, &'a [i64], &'a [(&'a str, i64)]);

#[test]
fn level0_comm_code_runs_at_most_8_iterations_per_tuple() {
    let tomcatv = TOMCATV.replace("parameter (n = 257)", "parameter (n = 129)");
    let sp_sym = SP.replace(
        "!HPF$ processors p(2, 2)",
        "!HPF$ processors p(2, number_of_processors())",
    );
    let programs: [Program; 5] = [
        ("JACOBI", JACOBI, &[2, 1], &[("niter", 3)]),
        ("TOMCATV", &tomcatv, &[2], &[("niter", 3)]),
        ("ERLEBACHER", ERLEBACHER, &[2], &[]),
        ("SP-4", SP, &[2, 2], &[("n", 34), ("niter", 1)]),
        ("SP-sym", &sp_sym, &[2, 1], &[("n", 34), ("niter", 1)]),
    ];
    let mut report = Vec::new();
    for (name, src, grid, inputs) in programs {
        let c = compile(src, &CompileOptions::new()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let inputs: HashMap<String, i64> =
            inputs.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        let walk = comm_plans(&c, grid, &inputs);
        let tuples: u64 = walk
            .plans
            .iter()
            .flat_map(|p| p.values())
            .map(|t| t.len() as u64)
            .sum();
        assert!(tuples > 0, "{name}: no level-0 communication enumerated");
        let per_tuple = walk.iterations as f64 / tuples as f64;
        report.push(format!(
            "{name}: {} iterations / {tuples} tuples = {per_tuple:.2}",
            walk.iterations
        ));
        assert!(
            per_tuple <= MAX_ITERATIONS_PER_TUPLE,
            "{name}: level-0 comm code runs {per_tuple:.2} loop iterations per tuple \
             (at most {MAX_ITERATIONS_PER_TUPLE})\n{}",
            report.join("\n")
        );
    }
    println!("{}", report.join("\n"));
}
