//! Randomized end-to-end pipeline invariants (paper Figures 3 and 4).
//!
//! Generates small 1-D block-distributed HPF programs from a template,
//! runs the real analysis pipeline (layouts → CP maps → communication
//! sets → loop splitting), and checks paper-level invariants against
//! exhaustive enumeration via the probes in `common/probes.rs`:
//!
//! - CP maps partition the loop range across processors,
//! - Send/Recv communication maps are dual,
//! - the Figure 4 sections partition each processor's iterations,
//! - analyses on the thread's warm `Context` and on a fresh one agree.

#[path = "common/probes.rs"]
mod probes;

use dhpf_core::{
    build_layouts, collect_statements, comm_sets, cp_map, myid_set, split_sets, CommRef,
};
use dhpf_hpf::{analyze, parse};
use dhpf_omega::testing::Rng;
use dhpf_omega::{Context, Request};

/// One random 1-D block-distributed program: `a(i) = b(i + off)` over a
/// loop range chosen so all accesses stay in bounds.
struct Case {
    n: i64,
    p: i64,
    lo: i64,
    hi: i64,
    off: i64,
}

impl Case {
    fn gen(rng: &mut Rng) -> Case {
        let p = rng.range(2, 4);
        let n = p * rng.range(3, 8); // evenly divisible block sizes
        let off = rng.range(-2, 2);
        let lo = 1 + off.min(0).abs() + rng.range(0, 1);
        let hi = (n - off.max(0)) - rng.range(0, 1);
        Case { n, p, lo, hi, off }
    }

    fn source(&self) -> String {
        let Case { n, p, lo, hi, off } = self;
        let sub = match off.signum() {
            0 => "i".to_string(),
            1 => format!("i + {off}"),
            _ => format!("i - {}", -off),
        };
        format!(
            "
program fuzzcase
real a({n}), b({n})
!HPF$ processors pr({p})
!HPF$ template t({n})
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i)
!HPF$ distribute t(block) onto pr
do i = {lo}, {hi}
  a(i) = b({sub}) + b(i)
enddo
end
"
        )
    }
}

fn check_case(case: &Case, seed: u64) {
    let src = case.source();
    let label = || format!("seed {seed}: {src}");
    if case.lo > case.hi {
        return; // degenerate empty loop
    }
    let prog = parse(&src).unwrap_or_else(|e| panic!("parse failed ({e}) for {}", label()));
    let a = analyze(&prog.units[0]).unwrap_or_else(|e| panic!("analyze failed ({e})"));
    let layouts = build_layouts(&a);
    let stmts = collect_statements(&a);
    let stmt = &stmts[0];
    let cp = cp_map(stmt, &layouts).unwrap();

    // Invariant 1: the CP map partitions the loop range across processors.
    let iter_space = stmt.ctx.iteration_set();
    probes::cp_partition(&cp, &iter_space, case.p)
        .unwrap_or_else(|e| panic!("{e}\nin {}", label()));

    // Invariant 2: Send/Recv duality over the full array index window.
    let refs: Vec<CommRef> = stmt
        .reads
        .iter()
        .map(|r| CommRef {
            cp_map: cp.clone(),
            ref_map: r.ref_map(&stmt.ctx),
        })
        .collect();
    let sets = comm_sets(&refs, &[], &layouts["b"])
        .unwrap_or_else(|e| panic!("comm_sets failed ({e}) in {}", label()));
    let data: Vec<Vec<i64>> = (1..=case.n).map(|v| vec![v]).collect();
    probes::comm_duality(&sets, case.p, &data).unwrap_or_else(|e| panic!("{e}\nin {}", label()));

    // Invariant 3: the Figure 4 sections partition each processor's
    // iterations.
    let mine = cp.apply(&myid_set(1)).unwrap();
    let read_pairs: Vec<_> = refs.iter().map(|r| (&r.ref_map, &layouts["b"])).collect();
    let wref = CommRef {
        cp_map: cp.clone(),
        ref_map: stmt.lhs.as_ref().unwrap().ref_map(&stmt.ctx),
    };
    let write_pairs = [(&wref.ref_map, &layouts["a"])];
    let splits = split_sets(&mine, &read_pairs, &write_pairs)
        .unwrap_or_else(|e| panic!("split_sets failed ({e}) in {}", label()));
    for m in 0..case.p {
        probes::split_partition(&splits, &mine, m)
            .unwrap_or_else(|e| panic!("{e}\nin {}", label()));
    }

    // Invariant 4: the memo tables change nothing. Everything above ran on
    // the thread's context, warm from earlier cases; rerun on a fresh one.
    let _fresh = Request::new(&Context::new(), None, None).arm();
    let cp_c = cp_map(stmt, &layouts).unwrap();
    let refs_c: Vec<CommRef> = stmt
        .reads
        .iter()
        .map(|r| CommRef {
            cp_map: cp_c.clone(),
            ref_map: r.ref_map(&stmt.ctx),
        })
        .collect();
    let sets_c = comm_sets(&refs_c, &[], &layouts["b"])
        .unwrap_or_else(|e| panic!("fresh-context comm_sets failed ({e}) in {}", label()));
    probes::comm_equiv(&sets, &sets_c).unwrap_or_else(|e| panic!("{e}\nin {}", label()));
}

#[test]
fn randomized_block_pipeline_invariants() {
    let mut master = Rng::new(0xD1FF);
    for _ in 0..25 {
        let seed = master.next_u64();
        let mut rng = Rng::new(seed);
        let case = Case::gen(&mut rng);
        check_case(&case, seed);
    }
}

#[test]
fn uneven_block_sizes_hold_invariants() {
    // Non-divisible extents: the last processor's block is short.
    for (n, p, off) in [(10, 3, 1), (11, 4, -1), (13, 3, 2), (7, 2, -2)] {
        let case = Case {
            n,
            p,
            lo: 1 + (-off).max(0),
            hi: n - off.max(0),
            off,
        };
        check_case(&case, 0);
    }
}
