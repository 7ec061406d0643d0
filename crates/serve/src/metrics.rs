//! Serving-tier metrics: one [`ServeMetrics`] per daemon, wrapping a
//! [`Registry`] with the fixed series vocabulary of the serve path.
//!
//! Every series is pre-registered at construction where the label space
//! is known (ops, error codes, warm/cold, leader/follower), so the first
//! scrape of an idle daemon already shows zeros for the whole vocabulary
//! — a dashboard can alert on `rate(errors_total) > 0` without waiting
//! for the first error to create the series. Label spaces discovered at
//! runtime (degradation actions, governor trip reasons) register on
//! first use.
//!
//! The hot-path handles (request duration histograms, coalesce
//! counters) are resolved once at construction; recording through them
//! is lock-free. Their cost is inside every `serve_*` number of the perf
//! ledger (`benchmarks/perf`, workload `serve_warm_mix`); it is not
//! measured apart.

use dhpf_core::CompileResponse;
use dhpf_obs::metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use dhpf_omega::{Context, ErrorCode};
use std::time::Instant;

/// The request ops the daemon counts, including the pseudo-op
/// `"invalid"` for lines that failed to parse. Kept in one place so the
/// registry pre-registration, the dispatcher, and the tests stay in sync.
pub const OPS: &[&str] = &["compile", "ping", "metrics", "shutdown", "invalid"];

/// All metric series recorded by the serve path. Construct once per
/// daemon; handles are cheap to clone and lock-free to record through.
pub struct ServeMetrics {
    registry: Registry,
    warm_us: Histogram,
    cold_us: Histogram,
    leader: Counter,
    follower: Counter,
    inflight: Gauge,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// A fresh registry with the full fixed-label vocabulary
    /// pre-registered at zero.
    pub fn new() -> Self {
        let registry = Registry::new();
        for op in OPS {
            registry.counter("dhpf_serve_requests_total", &[("op", op)]);
        }
        for &code in ErrorCode::ALL {
            registry.counter("dhpf_serve_errors_total", &[("code", code.as_str())]);
        }
        for kind in ["requested", "slow"] {
            registry.counter("dhpf_serve_traces_total", &[("kind", kind)]);
        }
        let warm_us = registry.histogram("dhpf_serve_request_duration_us", &[("kind", "warm")]);
        let cold_us = registry.histogram("dhpf_serve_request_duration_us", &[("kind", "cold")]);
        let leader = registry.counter("dhpf_serve_coalesce_total", &[("role", "leader")]);
        let follower = registry.counter("dhpf_serve_coalesce_total", &[("role", "follower")]);
        let inflight = registry.gauge("dhpf_serve_inflight", &[]);
        ServeMetrics {
            registry,
            warm_us,
            cold_us,
            leader,
            follower,
            inflight,
        }
    }

    /// Counts one arriving request under its op (or `"invalid"`).
    pub fn record_request(&self, op: &str) {
        self.registry
            .counter("dhpf_serve_requests_total", &[("op", op)])
            .inc();
    }

    /// Counts one error response by its stable code.
    pub fn record_error(&self, code: ErrorCode) {
        self.registry
            .counter("dhpf_serve_errors_total", &[("code", code.as_str())])
            .inc();
    }

    /// Counts one returned trace (`"requested"` by the client or sampled
    /// as `"slow"`).
    pub fn record_trace(&self, kind: &str) {
        self.registry
            .counter("dhpf_serve_traces_total", &[("kind", kind)])
            .inc();
    }

    /// Marks a compile entering (+1) or leaving (-1) the in-flight set.
    pub fn inflight_delta(&self, delta: i64) {
        self.inflight.add(delta);
    }

    /// Records everything one finished compile request tells us: the
    /// warm-vs-cold latency sample, the coalescing role, any error by
    /// code, each degradation by action, and a governor trip by reason.
    pub fn record_compile(
        &self,
        resp: &CompileResponse,
        warm: bool,
        coalesced: bool,
        duration_us: u64,
    ) {
        if warm {
            self.warm_us.observe(duration_us);
        } else {
            self.cold_us.observe(duration_us);
        }
        if coalesced {
            self.follower.inc();
        } else {
            self.leader.inc();
        }
        if let Some(e) = &resp.error {
            self.record_error(e.code);
        }
        for d in &resp.degradations {
            self.registry
                .counter("dhpf_serve_degradations_total", &[("action", d.action)])
                .inc();
        }
        if let Some(reason) = resp.governor.tripped {
            self.registry
                .counter("dhpf_serve_governor_trips_total", &[("reason", reason)])
                .inc();
        }
    }

    /// Refreshes the context-derived gauges: per-table memo occupancy,
    /// resident total, cumulative hits, misses and evictions, and the
    /// daemon's uptime since `started`. Called at scrape time, not per
    /// request — gauges are instantaneous reads of the context, so
    /// sampling them when someone looks is both fresher and cheaper.
    pub fn update_context_gauges(&self, ctx: &Context, started: Instant) {
        for (table, n) in ctx.memo_occupancy() {
            self.registry
                .gauge("dhpf_serve_memo_entries", &[("table", table)])
                .set(n as i64);
        }
        self.registry
            .gauge("dhpf_serve_memo_resident", &[])
            .set(ctx.memo_entries() as i64);
        let c = ctx.stats();
        for (name, v) in [
            ("dhpf_serve_memo_hits", c.total_hits()),
            ("dhpf_serve_memo_misses", c.total_misses()),
            ("dhpf_serve_memo_evictions", c.total_evictions()),
            ("dhpf_serve_uptime_ms", started.elapsed().as_millis() as u64),
        ] {
            self.registry.gauge(name, &[]).set(v as i64);
        }
    }

    /// A point-in-time snapshot of every series (see
    /// [`Registry::snapshot`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_is_preregistered_at_zero() {
        let m = ServeMetrics::new();
        let snap = m.snapshot();
        for op in OPS {
            assert_eq!(
                snap.counter(&format!("dhpf_serve_requests_total{{op=\"{op}\"}}")),
                Some(0)
            );
        }
        for &code in ErrorCode::ALL {
            assert_eq!(
                snap.counter(&format!("dhpf_serve_errors_total{{code=\"{code}\"}}")),
                Some(0)
            );
        }
        assert!(snap
            .histogram("dhpf_serve_request_duration_us{kind=\"warm\"}")
            .is_some());
    }
}
