//! Warm-vs-cold serving benchmark: quantifies what `dhpf-serve`'s
//! persistent context buys over one-shot compiler invocations.
//!
//! Three experiments, one snapshot (written when `--json-out` is given):
//!
//! 1. **Warm vs cold** — each workload is compiled on a fresh context
//!    (the cold path every batch invocation pays) and on a long-lived
//!    context that already compiled it once (the daemon's steady state).
//!    Reports min wall-clock per mode, the warm/cold ratio, and the memo
//!    hits gained during the warm request.
//! 2. **Dedup under fan-in** — a real in-process daemon receives N
//!    simultaneous identical requests over TCP; reports how many
//!    coalesced onto the leader's compilation (reconciled against the
//!    daemon's own `metrics` scrape).
//! 3. **Metrics overhead** — the warm path timed with and without
//!    `ServeMetrics` recording, guarding the ≤2% observability budget.
//!
//! ```text
//! serve_bench [--trials N] [--clients N] [--threads N] [--deadline-ms N]
//!             [--json-out PATH]
//! ```

use dhpf_bench::args::{self, value as flag_value};
use dhpf_core::{process_request, CompileOptions, CompileRequest};
use dhpf_omega::Context;
use dhpf_serve::metrics::ServeMetrics;
use dhpf_serve::{send_lines, Server};
use std::fmt::Write as _;
use std::sync::{Arc, Barrier};
use std::time::Instant;

fn request(src: &str, opts: &CompileOptions) -> CompileRequest {
    CompileRequest::new(src).options(opts.clone())
}

/// Min wall-clock seconds over `trials` runs of `f`.
fn min_secs(trials: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..trials.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Per-trial wall-clock seconds of `trials` runs of `f`, in run order.
fn sample_secs(trials: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..trials.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// Exact nearest-rank quantile of an unsorted sample vector.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let common = args::common(&argv);
    let trials: usize = args::u64_value(&argv, "--trials").map_or(5, |n| n as usize);
    let clients: usize = args::u64_value(&argv, "--clients").map_or(8, |n| n as usize);
    let json_out = flag_value(&argv, "--json-out");
    common.banner();
    let opts = common.apply(CompileOptions::new());

    let spsym = dhpf_bench::sources::sp_symbolic();
    let workloads: [(&str, &str); 4] = [
        ("JACOBI", dhpf_bench::sources::JACOBI),
        ("TOMCATV", dhpf_bench::sources::TOMCATV),
        ("SP-4", dhpf_bench::sources::SP),
        ("SP-sym", &spsym),
    ];

    // ---- Experiment 1: warm vs cold ----------------------------------
    println!("warm vs cold ({trials} trials per point, min reported)\n");
    println!(
        "{:<10} {:>9} {:>9} {:>7} {:>12}",
        "workload", "cold(ms)", "warm(ms)", "ratio", "warm hits"
    );
    let mut rows = Vec::new();
    let mut worst_ratio = 0.0f64;
    for (name, src) in workloads {
        // Cold: a brand-new context per trial, exactly what a one-shot
        // compiler process pays.
        let cold = min_secs(trials, || {
            let ctx = Context::new();
            let resp = process_request(&ctx, &request(src, &opts));
            assert!(resp.error.is_none(), "{name}: {:?}", resp.error);
        });
        // Warm: the daemon's steady state — one long-lived context that
        // has already compiled this unit. Every per-request sample is
        // kept, so the snapshot reports the latency distribution a
        // serving fleet actually sees, not just the best case.
        let ctx = Context::new();
        let first = process_request(&ctx, &request(src, &opts));
        assert!(first.error.is_none(), "{name}: {:?}", first.error);
        let mut hits_delta = 0u64;
        let samples = sample_secs(trials, || {
            let resp = process_request(&ctx, &request(src, &opts));
            assert!(resp.error.is_none(), "{name}: {:?}", resp.error);
            hits_delta = hits_delta.max(resp.cache_hits_delta);
        });
        let warm = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let (p50, p95, p99) = (
            quantile(&samples, 0.50),
            quantile(&samples, 0.95),
            quantile(&samples, 0.99),
        );
        let ratio = warm / cold;
        worst_ratio = worst_ratio.max(ratio);
        println!(
            "{name:<10} {:>9.2} {:>9.2} {ratio:>7.3} {hits_delta:>12}   p50 {:.2} p95 {:.2} p99 {:.2}",
            cold * 1e3,
            warm * 1e3,
            p50 * 1e3,
            p95 * 1e3,
            p99 * 1e3,
        );
        let samples_ms: Vec<String> = samples.iter().map(|s| format!("{:.3}", s * 1e3)).collect();
        rows.push(format!(
            "    {{\"workload\": \"{name}\", \"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \
             \"warm_over_cold\": {ratio:.4}, \"warm_hits_delta\": {hits_delta}, \
             \"warm_p50_ms\": {:.3}, \"warm_p95_ms\": {:.3}, \"warm_p99_ms\": {:.3}, \
             \"warm_samples_ms\": [{}]}}",
            cold * 1e3,
            warm * 1e3,
            p50 * 1e3,
            p95 * 1e3,
            p99 * 1e3,
            samples_ms.join(", ")
        ));
    }

    // ---- Experiment 3: metrics overhead on the warm path -------------
    // The observability acceptance budget: recording every serve-path
    // metric (request counter, latency histogram, coalesce role, error
    // scan, degradation walk) must cost ≤2% of a warm compile. Measured
    // on the hottest workload (JACOBI warm) with min-of-trials on both
    // sides to squeeze out scheduler noise.
    let (plain_ms, metered_ms, overhead_frac) = {
        let src = dhpf_bench::sources::JACOBI;
        let ctx = Context::new();
        let first = process_request(&ctx, &request(src, &opts));
        assert!(first.error.is_none(), "{:?}", first.error);
        let plain = min_secs(trials, || {
            let resp = process_request(&ctx, &request(src, &opts));
            assert!(resp.error.is_none());
        });
        let metrics = ServeMetrics::new();
        let metered = min_secs(trials, || {
            let t0 = Instant::now();
            let resp = process_request(&ctx, &request(src, &opts));
            assert!(resp.error.is_none());
            metrics.record_request("compile");
            metrics.record_compile(
                &resp,
                true,
                false,
                u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX),
            );
        });
        (plain * 1e3, metered * 1e3, (metered / plain - 1.0).max(0.0))
    };
    println!(
        "\nmetrics overhead (warm JACOBI): plain {plain_ms:.3} ms, metered {metered_ms:.3} ms \
         -> {:.2}% (budget 2%)",
        overhead_frac * 1e2
    );

    // ---- Experiment 2: dedup under fan-in ----------------------------
    let server = Server::bind("127.0.0.1:0", dhpf_omega::DEFAULT_CACHE_CAP).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle().expect("handle");
    let serve_thread = std::thread::spawn(move || server.serve());
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"op\":\"compile\",\"id\":\"fanin\",\"source\":{}}}",
        dhpf_obs::json::escape(dhpf_bench::sources::TOMCATV)
    );
    let barrier = Arc::new(Barrier::new(clients));
    let t0 = Instant::now();
    let fanin: Vec<_> = (0..clients)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let line = line.clone();
            std::thread::spawn(move || {
                barrier.wait();
                send_lines(addr, &[line]).expect("send")
            })
        })
        .collect();
    let mut coalesced = 0u64;
    for t in fanin {
        let replies = t.join().expect("client");
        if replies[0].contains("\"coalesced\":true") {
            coalesced += 1;
        }
    }
    let fanin_secs = t0.elapsed().as_secs_f64();
    // Reconcile against the daemon's own registry: the follower counter
    // of the `metrics` scrape must equal the coalesced responses seen by
    // the clients.
    let scrape = send_lines(
        addr,
        &["{\"op\":\"metrics\",\"id\":\"scrape\"}".to_string()],
    )
    .expect("metrics scrape");
    let followers = dhpf_obs::json::parse(&scrape[0])
        .ok()
        .and_then(|v| {
            v.get("counters")?
                .get("dhpf_serve_coalesce_total{role=\"follower\"}")?
                .as_f64()
        })
        .map_or(0, |f| f as u64);
    assert_eq!(
        followers, coalesced,
        "daemon follower counter disagrees with client-side coalesced responses"
    );
    handle.shutdown();
    let _ = serve_thread.join();
    println!(
        "\nfan-in: {clients} simultaneous identical requests -> {coalesced} coalesced \
         ({} compilations) in {:.1} ms (daemon metrics agree: {followers} followers)",
        clients as u64 - coalesced,
        fanin_secs * 1e3
    );

    if let Some(json_out) = json_out {
        let json = format!(
            "{{\n  \"benchmark\": \"serve-warm-vs-cold\",\n  \"trials\": {trials},\n  \
             \"workloads\": [\n{}\n  ],\n  \"worst_warm_over_cold\": {worst_ratio:.4},\n  \
             \"metrics_overhead\": {{\"warm_plain_ms\": {plain_ms:.3}, \
             \"warm_metered_ms\": {metered_ms:.3}, \"overhead_frac\": {overhead_frac:.4}, \
             \"budget_frac\": 0.02}},\n  \
             \"fan_in\": {{\"clients\": {clients}, \"coalesced\": {coalesced}, \
             \"metrics_followers\": {followers}, \"wall_ms\": {:.3}}}\n}}\n",
            rows.join(",\n"),
            fanin_secs * 1e3
        );
        std::fs::write(&json_out, json).expect("write snapshot");
        println!("snapshot written to {json_out}");
    }
    common.finish_trace(false);
}
