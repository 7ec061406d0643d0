//! The serving-tier cache contract: a long-lived context makes repeat
//! compilations strictly cheaper, and bounding it with cost-aware
//! eviction never changes what the compiler produces.

use dhpf_core::{compile_request, process_request, CompileOptions, CompileRequest};
use dhpf_omega::Context;

const JACOBI: &str = "
program jacobi
real a(64,64), b(64,64)
integer iter
!HPF$ processors p(4)
!HPF$ template t(64,64)
!HPF$ align a(i,j) with t(i,j)
!HPF$ align b(i,j) with t(i,j)
!HPF$ distribute t(block,*) onto p
do iter = 1, 3
  do i = 2, 63
    do j = 2, 63
      a(i,j) = 0.25 * (b(i-1,j) + b(i+1,j) + b(i,j-1) + b(i,j+1))
    enddo
  enddo
enddo
end
";

#[test]
fn warm_repeat_strictly_improves_cumulative_counters() {
    let ctx = Context::new();
    let opts = CompileOptions::default();

    let cold = compile_request(&ctx, &CompileRequest::new(JACOBI).options(opts.clone())).unwrap();
    let after_cold = ctx.stats();
    let cold_hits = after_cold.total_hits();
    let cold_misses = after_cold.total_misses();

    let warm = compile_request(&ctx, &CompileRequest::new(JACOBI).options(opts.clone())).unwrap();
    let after_warm = ctx.stats();

    // Same program either way…
    assert_eq!(
        format!("{:?}", cold.program),
        format!("{:?}", warm.program),
        "warm repeat changed the compiled program"
    );
    // …but the warm pass runs on memoized set algebra: cumulative hits
    // strictly grow, and it contributes at most a handful of new misses
    // (identical keys re-resolve as hits).
    assert!(
        after_warm.total_hits() > cold_hits,
        "warm repeat gained no hits: {cold_hits} -> {}",
        after_warm.total_hits()
    );
    let warm_misses = after_warm.total_misses() - cold_misses;
    let warm_hits = after_warm.total_hits() - cold_hits;
    assert!(
        warm_hits > warm_misses,
        "warm repeat should be hit-dominated, got {warm_hits} hits / {warm_misses} misses"
    );
}

#[test]
fn warm_process_request_reports_the_delta() {
    let ctx = Context::new();
    let req = CompileRequest::new(JACOBI);

    let cold = process_request(&ctx, &req);
    assert!(cold.error.is_none(), "{:?}", cold.error);

    let warm = process_request(&ctx, &req);
    assert!(warm.error.is_none(), "{:?}", warm.error);
    assert!(
        warm.cache_hits_delta > 0,
        "warm request reported no per-request hit delta"
    );
    assert!(
        warm.cache_hits_delta <= ctx.stats().total_hits(),
        "per-request delta exceeds the cumulative counter"
    );
}

/// A context squeezed to a tiny memo capacity must evict (a lot) and still
/// compile every workload to exactly the same program as an unbounded one:
/// eviction is a performance knob, never a correctness knob.
#[test]
fn tight_capacity_eviction_preserves_output() {
    let roomy = Context::new();
    let tight = Context::with_capacity(64); // 4 entries per shard, per table
    let opts = CompileOptions::default();

    let a = compile_request(&roomy, &CompileRequest::new(JACOBI).options(opts.clone())).unwrap();
    let b = compile_request(&tight, &CompileRequest::new(JACOBI).options(opts.clone())).unwrap();
    assert_eq!(
        format!("{:?}", a.program),
        format!("{:?}", b.program),
        "bounded context compiled a different program"
    );
    assert_eq!(
        a.report.stats.degradations.len(),
        b.report.stats.degradations.len(),
        "bounded context degraded differently"
    );

    let stats = tight.stats();
    assert!(
        stats.total_evictions() > 0,
        "tight capacity never evicted (capacity knob inert?)"
    );
    // The bound actually holds: resident entries stay at/under the
    // per-table cap times the table count (5 op tables).
    assert!(
        tight.memo_entries() <= 5 * 64,
        "memo tables exceed their bound: {} entries",
        tight.memo_entries()
    );
}
