//! `threads` is a scheduling parameter, not a code path: one pipeline
//! (plan → build each nest → assemble) runs at every thread count, and
//! this suite checks that the schedule cannot be observed. `threads = N`
//! must produce output bit-identical to `threads = 1` (where every task
//! runs on the calling thread in source order), for single- and
//! multi-unit files in any unit order; merged reports must reconcile;
//! and the paper-level pipeline invariants (checked by
//! `common/probes.rs`) must keep holding when the analyses run on a
//! shared sharded `Context` that worker threads are exercising
//! concurrently.

#[path = "common/probes.rs"]
mod probes;

use dhpf_core::{
    build_layouts, collect_statements, comm_sets, compile, compile_request, cp_map, myid_set,
    split_sets, CommRef, CompileOptions, CompileRequest,
};
use dhpf_hpf::{analyze, parse};
use dhpf_omega::{Context, Request};

/// Several independent top-level nests plus a serial time loop with two
/// nests inside — enough parallel structure for the nest tasks to run out
/// of order if they are ever going to.
const MULTI: &str = "
program multi
real a(64,64), b(64,64), c(64,64), d(64,64)
integer iter
!HPF$ processors p(4)
!HPF$ template t(64,64)
!HPF$ align a(i,j) with t(i,j)
!HPF$ align b(i,j) with t(i,j)
!HPF$ align c(i,j) with t(i,j)
!HPF$ align d(i,j) with t(i,j)
!HPF$ distribute t(block,*) onto p
do i = 1, 64
  do j = 1, 64
    b(i,j) = 0.01 * i + 0.002 * j
  enddo
enddo
do i = 2, 63
  do j = 2, 63
    c(i,j) = 0.5 * (b(i-1,j) + b(i+1,j))
  enddo
enddo
do i = 2, 63
  do j = 2, 63
    d(i,j) = 0.25 * (c(i-1,j) + c(i+1,j) + c(i,j-1) + c(i,j+1))
  enddo
enddo
do iter = 1, 3
  do i = 2, 63
    do j = 2, 63
      a(i,j) = 0.25 * (b(i-1,j) + b(i+1,j) + b(i,j-1) + b(i,j+1))
    enddo
  enddo
  do i = 2, 63
    do j = 2, 63
      b(i,j) = a(i,j) + d(i,j)
    enddo
  enddo
enddo
end
";

/// `threads = 1..=8` all produce the same program, bit for bit (`Debug`
/// covers every field of the `SpmdProgram`, including communication event
/// ids, nest ops, and guards).
#[test]
fn threads_1_to_8_produce_bit_identical_programs() {
    let serial = compile(MULTI, &CompileOptions::new()).unwrap();
    let golden = format!("{:?}", serial.program);
    assert!(serial.report.stats.comm_events > 1, "needs real comm");
    for threads in 1..=8 {
        let par = compile(MULTI, &CompileOptions::new().threads(threads)).unwrap();
        assert_eq!(
            golden,
            format!("{:?}", par.program),
            "threads = {threads} diverged from the serial pipeline"
        );
        assert_eq!(
            serial.report.stats, par.report.stats,
            "threads = {threads} changed the synthesis statistics"
        );
    }
}

/// Reports reconcile with the serial ones: every serial phase row is
/// present, percentages stay sane, the rows have the same shape at every
/// thread count, and the merged cache counters account for real traffic.
#[test]
fn merged_reports_reconcile_with_serial() {
    let serial = compile(MULTI, &CompileOptions::new()).unwrap();
    let par = compile(MULTI, &CompileOptions::new().threads(4)).unwrap();

    let serial_names: Vec<String> = serial
        .report
        .timers
        .rows()
        .into_iter()
        .map(|(n, _, _)| n)
        .collect();
    let par_names: Vec<String> = par
        .report
        .timers
        .rows()
        .into_iter()
        .map(|(n, _, _)| n)
        .collect();
    for name in &serial_names {
        assert!(
            par_names.contains(name),
            "parallel report lost phase row {name:?}"
        );
    }
    // Merged worker rows report aggregate busy time across workers (the
    // profiler convention of user time vs real time), so a phase that ran
    // on all 4 workers concurrently may reach 4x the wall-clock total —
    // but never more.
    for (name, _, pct) in par.report.timers.rows() {
        assert!(
            (0.0..=4.0 * 100.5).contains(&pct),
            "merged phase {name} has {pct}% of total"
        );
    }
    // Nest phases sit under "module compilation" (Table 1's indented
    // sub-rows), and the rows do not depend on the schedule: the same
    // names at the same depths in the same order at every thread count.
    let shape = |threads: usize| -> Vec<(String, usize)> {
        let c = compile(MULTI, &CompileOptions::new().threads(threads)).unwrap();
        let rows = c.report.timers.rows_nested();
        rows.into_iter().map(|r| (r.name, r.depth)).collect()
    };
    let serial_shape = shape(1);
    let depth_of = |n: &str| serial_shape.iter().find(|r| r.0 == n).map(|r| r.1);
    assert_eq!(depth_of("module compilation"), Some(0));
    assert_eq!(depth_of("communication generation"), Some(1));
    for threads in [2, 4] {
        assert_eq!(
            shape(threads),
            serial_shape,
            "threads = {threads} changed the Table-1 rows"
        );
    }

    // Merged shard counters saw the compilation's set algebra.
    let cache = &par.report.cache;
    assert!(cache.total_hits() + cache.total_misses() > 0);
    assert!(cache.interned_conjuncts > 0);
}

/// Three units for the multi-unit test: the main program, a subroutine that
/// synthesizes, and one that cannot (its nest is followed by a `call`, so
/// planning rejects it). Each unit's nest asks different set questions
/// (extent, stencil shift), so work done for one is not a memo hit for
/// another. `@NEST@` is the unplannable unit's nest.
const MAIN_UNIT: &str = "
program main
real a(32), b(32)
!HPF$ processors p(4)
!HPF$ template t(32)
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i)
!HPF$ distribute t(block) onto p
do i = 2, 31
  a(i) = b(i-1) + b(i+1)
enddo
end
";
const SMOOTH_UNIT: &str = "
subroutine smooth
real c(48,48), d(48,48)
!HPF$ processors p(4)
!HPF$ template t(48,48)
!HPF$ align c(i,j) with t(i,j)
!HPF$ align d(i,j) with t(i,j)
!HPF$ distribute t(block,*) onto p
do i = 2, 47
  do j = 1, 48
    c(i,j) = 0.5 * (d(i-1,j) + d(i+1,j))
  enddo
enddo
end
";
const CALLER_UNIT: &str = "
subroutine caller
real e(40), f(40)
!HPF$ processors p(4)
!HPF$ template t(40)
!HPF$ align e(i) with t(i)
!HPF$ align f(i) with t(i)
!HPF$ distribute t(block) onto p
@NEST@
call smooth
end
";
const CALLER_NEST: &str = "do i = 4, 40
  e(i) = f(i-3)
enddo";

/// Multi-unit files go through the same tasks: nest tasks of every
/// planned unit, one assembly task per unit. Whatever the unit order and
/// thread count, the main program and its statistics are the same, and a
/// unit that cannot be planned is rejected *before* any of its set
/// algebra runs — at one thread too, where every task runs on the calling
/// thread.
#[test]
fn multi_unit_files_compile_identically_in_any_order_and_schedule() {
    let file = |units: [&str; 3], nest: &str| units.concat().replace("@NEST@", nest);
    let orders = [
        [MAIN_UNIT, SMOOTH_UNIT, CALLER_UNIT],
        [CALLER_UNIT, MAIN_UNIT, SMOOTH_UNIT],
        [SMOOTH_UNIT, CALLER_UNIT, MAIN_UNIT],
    ];
    let reference = compile(&file(orders[0], CALLER_NEST), &CompileOptions::new()).unwrap();
    let golden = format!("{:?}", reference.program);
    assert_eq!(reference.program.name, "main");
    assert!(reference.report.stats.comm_events > 0, "needs real comm");
    for order in orders {
        let src = file(order, CALLER_NEST);
        for threads in 1..=8 {
            let c = compile(&src, &CompileOptions::new().threads(threads)).unwrap();
            assert_eq!(c.report.units, 3);
            assert_eq!(
                golden,
                format!("{:?}", c.program),
                "threads = {threads} changed the main program"
            );
            assert_eq!(
                reference.report.stats, c.report.stats,
                "threads = {threads} changed the synthesis statistics"
            );
        }
        // The unplannable unit's nest costs nothing: same memo misses as
        // the file without it (declarations and the `call` kept).
        let with_nest = compile(&src, &CompileOptions::new()).unwrap();
        let without = compile(&file(order, ""), &CompileOptions::new()).unwrap();
        assert_eq!(
            with_nest.report.cache.total_misses(),
            without.report.cache.total_misses(),
            "set algebra was done for a unit that cannot be planned"
        );
    }
}

/// The paper-level invariants of Figures 3–4 hold when the analysis runs
/// against a shared `Context` whose shards were concurrently warmed by
/// parallel compilations (`compile_request` on the same context).
#[test]
fn probes_hold_on_context_shared_with_parallel_driver() {
    let ctx = Context::new();
    // Warm the sharded context from four worker threads.
    let warm = compile_request(
        &ctx,
        &CompileRequest::new(MULTI).options(CompileOptions::new().threads(4)),
    )
    .unwrap();
    assert!(warm.report.cache.total_misses() > 0);

    let (n, p, off) = (12i64, 3i64, 1i64);
    let src = format!(
        "
program probecase
real a({n}), b({n})
!HPF$ processors pr({p})
!HPF$ template t({n})
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i)
!HPF$ distribute t(block) onto pr
do i = 1, {}
  a(i) = b(i + {off}) + b(i)
enddo
end
",
        n - off
    );
    let prog = parse(&src).unwrap();
    let a = analyze(&prog.units[0]).unwrap();

    // Route one pipeline through the warmed shared context and one
    // through a fresh context; both must satisfy the probes and agree
    // with each other.
    let layouts = build_layouts(&a);
    let stmts = collect_statements(&a);
    let stmt = &stmts[0];
    let warmed = Request::new(&ctx, None, None).arm();

    let cp = cp_map(stmt, &layouts).unwrap();
    probes::cp_partition(&cp, &stmt.ctx.iteration_set(), p).unwrap();

    let refs: Vec<CommRef> = stmt
        .reads
        .iter()
        .map(|r| CommRef {
            cp_map: cp.clone(),
            ref_map: r.ref_map(&stmt.ctx),
        })
        .collect();
    let sets = comm_sets(&refs, &[], &layouts["b"]).unwrap();
    let data: Vec<Vec<i64>> = (1..=n).map(|v| vec![v]).collect();
    probes::comm_duality(&sets, p, &data).unwrap();

    let mine = cp.apply(&myid_set(1)).unwrap();
    let read_pairs: Vec<_> = refs.iter().map(|r| (&r.ref_map, &layouts["b"])).collect();
    let wref = CommRef {
        cp_map: cp.clone(),
        ref_map: stmt.lhs.as_ref().unwrap().ref_map(&stmt.ctx),
    };
    let write_pairs = [(&wref.ref_map, &layouts["a"])];
    let splits = split_sets(&mine, &read_pairs, &write_pairs).unwrap();
    for m in 0..p {
        probes::split_partition(&splits, &mine, m).unwrap();
    }
    drop(warmed);

    let _fresh = Request::new(&Context::new(), None, None).arm();
    let cp_f = cp_map(stmt, &layouts).unwrap();
    let refs_f: Vec<CommRef> = stmt
        .reads
        .iter()
        .map(|r| CommRef {
            cp_map: cp_f.clone(),
            ref_map: r.ref_map(&stmt.ctx),
        })
        .collect();
    let sets_f = comm_sets(&refs_f, &[], &layouts["b"]).unwrap();
    probes::comm_equiv(&sets, &sets_f).unwrap();
}
