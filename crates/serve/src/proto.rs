//! The `dhpf-serve` wire protocol: JSON lines over TCP.
//!
//! One request per line, one response line per request, in order. The
//! serializer is hand-rolled on `dhpf_obs::json` (the workspace builds
//! fully offline — no serde), and the response vocabulary is deliberately
//! flat: stable [`ErrorCode`] spellings, counters, and optional artifact
//! strings, so any language's JSON library can consume it.
//!
//! ## Requests
//!
//! ```json
//! {"op":"compile","id":"r1","source":"program p\n…\nend\n",
//!  "options":{"threads":2,"deadline_ms":5000,"op_fuel":1000000,"loop_splitting":true},
//!  "want":["code","timing","trace"]}
//! {"op":"ping","id":"p1"}
//! {"op":"metrics","id":"m1"}
//! {"op":"shutdown","id":"q1"}
//! ```
//!
//! `op` defaults to `"compile"` when a `source` field is present, so the
//! minimal netcat request is `{"source":"…"}`. Unknown fields are ignored
//! (forward compatibility); unknown `op`s and malformed JSON produce an
//! `E_PROTOCOL` error response and leave the connection open.
//!
//! ## Responses
//!
//! Success: `{"id":…,"ok":true,"units":…,"comm_events":…,"degradations":[…],
//! "cache_hits_delta":…,"warm":…,"coalesced":…,"governor":{…},
//! "compile_ms":…,"code":…,"timing":…,"trace":…}`.
//! Failure: `{"id":…,"ok":false,"error":{"code":"E_…","message":…},…}` —
//! `error.code` is the stable machine contract; `message` is for humans.
//! A compile reply says only what that request did; server-wide state
//! (request and error counts, memo occupancy, hits, misses, evictions,
//! uptime, latency histograms) has one read-out, the `metrics` op.
//!
//! `want:["trace"]` adds a `trace` field: the single-line span tree of
//! this compilation (`dhpf_obs::export::span_tree_json` schema). The
//! `metrics` op returns the daemon's metric registry as JSON (see
//! [`render_metrics_json`]).

use dhpf_core::{CompileOptions, CompileRequest, CompileResponse, WireError};
use dhpf_obs::json::{escape, parse, Arr, Obj, Value};
use dhpf_obs::metrics::MetricsSnapshot;
use dhpf_omega::{Budget, ErrorCode};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Upper bound on per-request worker threads: protects the fleet from a
/// single request claiming the whole machine.
pub const MAX_THREADS: usize = 32;

/// A parsed protocol request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Compile HPF source under per-request options.
    Compile(CompileJob),
    /// Liveness probe.
    Ping {
        /// Echoed request id.
        id: String,
    },
    /// Metrics scrape: the daemon's whole metric registry.
    Metrics {
        /// Echoed request id.
        id: String,
    },
    /// Stop accepting connections and exit the serve loop.
    Shutdown {
        /// Echoed request id.
        id: String,
    },
}

/// One compile request as it arrived on the wire.
#[derive(Clone, Debug)]
pub struct CompileJob {
    /// Client-chosen id, echoed verbatim in the response.
    pub id: String,
    /// HPF source text.
    pub source: String,
    /// Worker threads (clamped to `1..=MAX_THREADS`).
    pub threads: usize,
    /// Wall-clock deadline; `Some(0)` is rejected at admission with
    /// `E_BUDGET` (expired on arrival).
    pub deadline_ms: Option<u64>,
    /// Omega-operation fuel cap.
    pub op_fuel: Option<u64>,
    /// Figure-4 loop splitting (affects generated code, so part of the
    /// dedup key).
    pub loop_splitting: bool,
    /// Return the rendered code listing.
    pub want_code: bool,
    /// Return per-phase timing rows.
    pub want_timing: bool,
    /// Return the single-line span tree of this compilation.
    pub want_trace: bool,
}

impl CompileJob {
    /// The request-coalescing key: every field that can change the bytes
    /// of the response body. Requests that agree on this key are
    /// interchangeable, so concurrent duplicates fan out one compilation.
    pub fn dedup_key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.source.hash(&mut h);
        self.loop_splitting.hash(&mut h);
        self.deadline_ms.hash(&mut h);
        self.op_fuel.hash(&mut h);
        self.want_code.hash(&mut h);
        self.want_timing.hash(&mut h);
        self.want_trace.hash(&mut h);
        h.finish()
    }

    /// The warm-cache key: just the unit identity (source + codegen
    /// options), ignoring budgets and artifact wants — any earlier
    /// compilation of the same unit leaves the memo tables warm for this
    /// one.
    pub fn warm_key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.source.hash(&mut h);
        self.loop_splitting.hash(&mut h);
        h.finish()
    }

    /// Lowers the wire job to a typed [`CompileRequest`].
    pub fn to_request(&self) -> CompileRequest {
        let mut budget = Budget::new();
        budget.deadline_ms = self.deadline_ms;
        budget.op_fuel = self.op_fuel;
        let opts = CompileOptions::new()
            .threads(self.threads.clamp(1, MAX_THREADS))
            .loop_splitting(self.loop_splitting)
            .budget(budget);
        CompileRequest::new(self.source.clone())
            .options(opts)
            .code(self.want_code)
            .timing(self.want_timing)
            .trace(self.want_trace)
    }
}

fn proto_err(id: &str, msg: impl Into<String>) -> (String, WireError) {
    (
        id.to_string(),
        WireError {
            code: ErrorCode::Protocol,
            message: msg.into(),
        },
    )
}

/// Parses one request line. On error, returns the echoable id (empty if
/// the line was unparseable) plus a typed `E_PROTOCOL` [`WireError`].
pub fn parse_request(line: &str) -> Result<Request, (String, WireError)> {
    let v = parse(line).map_err(|e| proto_err("", format!("malformed JSON: {e}")))?;
    if v.as_obj().is_none() {
        return Err(proto_err("", "request must be a JSON object"));
    }
    let id = v
        .get("id")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string();
    let op = match v.get("op").and_then(Value::as_str) {
        Some(op) => op.to_string(),
        None if v.get("source").is_some() => "compile".to_string(),
        None => {
            return Err(proto_err(
                &id,
                "missing \"op\" (and no \"source\" to imply compile)",
            ))
        }
    };
    match op.as_str() {
        "ping" => Ok(Request::Ping { id }),
        "metrics" => Ok(Request::Metrics { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "compile" => {
            let source = v
                .get("source")
                .and_then(Value::as_str)
                .ok_or_else(|| proto_err(&id, "compile request needs a string \"source\""))?
                .to_string();
            let opts = v.get("options");
            let get_u64 = |key: &str| -> Option<u64> {
                opts.and_then(|o| o.get(key))
                    .and_then(Value::as_f64)
                    .map(|f| f.max(0.0) as u64)
            };
            let get_bool = |key: &str, default: bool| -> bool {
                match opts.and_then(|o| o.get(key)) {
                    Some(Value::Bool(b)) => *b,
                    _ => default,
                }
            };
            let mut want_code = false;
            let mut want_timing = false;
            let mut want_trace = false;
            if let Some(wants) = v.get("want").and_then(Value::as_arr) {
                for w in wants {
                    match w.as_str() {
                        Some("code") => want_code = true,
                        Some("timing") => want_timing = true,
                        Some("trace") => want_trace = true,
                        Some(other) => {
                            return Err(proto_err(&id, format!("unknown artifact {other:?}")))
                        }
                        None => return Err(proto_err(&id, "\"want\" entries must be strings")),
                    }
                }
            }
            Ok(Request::Compile(CompileJob {
                id,
                source,
                threads: get_u64("threads").unwrap_or(1) as usize,
                deadline_ms: get_u64("deadline_ms"),
                op_fuel: get_u64("op_fuel"),
                loop_splitting: get_bool("loop_splitting", true),
                want_code,
                want_timing,
                want_trace,
            }))
        }
        other => Err(proto_err(&id, format!("unknown op {other:?}"))),
    }
}

/// Serving context of one response: what the server knows about this
/// request that `dhpf_core`'s [`CompileResponse`] does not.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeMeta {
    /// This unit was compiled before on this server (memo tables warm).
    pub warm: bool,
    /// This response was fanned out from a concurrent identical request's
    /// compilation rather than compiled independently.
    pub coalesced: bool,
    /// Include the captured span tree in the response (the client sent
    /// `want:["trace"]`).
    pub trace: bool,
}

fn error_obj(code: ErrorCode, message: &str) -> Obj {
    Obj::new()
        .str("code", code.as_str())
        .str("message", message)
}

/// Serializes one response line (no trailing newline).
pub fn render_response(id: &str, resp: &CompileResponse, meta: &ServeMeta) -> String {
    let mut o = Obj::new().str("id", id);
    match &resp.error {
        None => {
            let mut degs = Arr::new();
            for d in &resp.degradations {
                degs = degs.obj(
                    Obj::new()
                        .str("site", d.site)
                        .opt_str("array", d.array.as_deref())
                        .str("reason", &d.reason)
                        .str("action", d.action),
                );
            }
            o = o
                .bool("ok", true)
                .u64("units", resp.units as u64)
                .u64("comm_events", resp.comm_events as u64)
                .arr("degradations", degs);
        }
        Some(e) => {
            o = o
                .bool("ok", false)
                .obj("error", error_obj(e.code, &e.message));
        }
    }
    o = o
        .u64("cache_hits_delta", resp.cache_hits_delta)
        .bool("warm", meta.warm)
        .bool("coalesced", meta.coalesced);
    let g = &resp.governor;
    o = o
        .obj(
            "governor",
            Obj::new()
                .u64("ops_charged", g.ops_charged)
                .u64("ops_degraded", g.ops_degraded)
                .opt_str("tripped", g.tripped),
        )
        .u64("compile_ms", resp.compile_ms);
    if let Some(code) = &resp.code {
        o = o.str("code", code);
    }
    if let Some(rows) = &resp.timing {
        let mut timing = Arr::new();
        for (name, ms) in rows {
            timing = timing.raw(&format!("[{},{ms:.3}]", escape(name)));
        }
        o = o.arr("timing", timing);
    }
    if meta.trace {
        if let Some(trace) = &resp.trace {
            o = o.raw("trace", trace);
        }
    }
    o.finish()
}

/// Serializes an error-only response line (protocol errors, admission
/// rejections) that never ran a compilation.
pub fn render_error(id: &str, err: &WireError) -> String {
    Obj::new()
        .str("id", id)
        .bool("ok", false)
        .obj("error", error_obj(err.code, &err.message))
        .finish()
}

/// Serializes the `metrics` response: counters and gauges keyed by their
/// rendered series (`name{labels}`), histograms as count/sum/mean,
/// p50/p90/p99 upper bounds in the native unit, and the cumulative
/// buckets as `[[hi, cum], …]` (`hi` an inclusive upper edge; the last
/// `cum` equals `count`).
pub fn render_metrics_json(id: &str, snap: &MetricsSnapshot) -> String {
    let mut counters = Obj::new();
    for s in &snap.counters {
        counters = counters.u64(&s.id.render(), s.value);
    }
    let mut gauges = Obj::new();
    for s in &snap.gauges {
        gauges = gauges.i64(&s.id.render(), s.value);
    }
    let mut hists = Obj::new();
    for (sid, h) in &snap.histograms {
        let mut buckets = Arr::new();
        for b in &h.buckets {
            buckets = buckets.raw(&format!("[{},{}]", b.hi, b.cum));
        }
        hists = hists.obj(
            &sid.render(),
            Obj::new()
                .u64("count", h.count)
                .u64("sum", h.sum)
                .f64("mean", h.mean(), 1)
                .u64("p50", h.quantile(0.5))
                .u64("p90", h.quantile(0.9))
                .u64("p99", h.quantile(0.99))
                .arr("buckets", buckets),
        );
    }
    Obj::new()
        .str("id", id)
        .bool("ok", true)
        .obj("counters", counters)
        .obj("gauges", gauges)
        .obj("histograms", hists)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_compile_request() {
        let r = parse_request(r#"{"source":"program p\nend\n"}"#).unwrap();
        match r {
            Request::Compile(j) => {
                assert_eq!(j.source, "program p\nend\n");
                assert_eq!(j.threads, 1);
                assert!(j.loop_splitting);
                assert!(!j.want_code);
                assert_eq!(j.deadline_ms, None);
            }
            other => panic!("expected compile, got {other:?}"),
        }
    }

    #[test]
    fn parses_full_compile_request() {
        let r = parse_request(
            r#"{"op":"compile","id":"r1","source":"x","options":{"threads":4,"deadline_ms":250,"op_fuel":1000,"loop_splitting":false},"want":["code","timing"]}"#,
        )
        .unwrap();
        match r {
            Request::Compile(j) => {
                assert_eq!(j.id, "r1");
                assert_eq!(j.threads, 4);
                assert_eq!(j.deadline_ms, Some(250));
                assert_eq!(j.op_fuel, Some(1000));
                assert!(!j.loop_splitting);
                assert!(j.want_code && j.want_timing);
            }
            other => panic!("expected compile, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_64k_source() {
        let mut source = String::new();
        let mut k = 0;
        while source.len() < 64 * 1024 {
            source.push_str(&format!("  a({k}) = \"ü\" \\ b({k}) ! λ\n"));
            k += 1;
        }
        let line = Obj::new().str("id", "big").str("source", &source).finish();
        match parse_request(&line).unwrap() {
            Request::Compile(j) => {
                assert_eq!(j.id, "big");
                assert_eq!(j.source, source);
            }
            other => panic!("expected compile, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage_with_protocol_code() {
        let (_, e) = parse_request("not json").unwrap_err();
        assert_eq!(e.code, ErrorCode::Protocol);
        let (id, e) = parse_request(r#"{"op":"explode","id":"z"}"#).unwrap_err();
        assert_eq!(id, "z");
        assert_eq!(e.code, ErrorCode::Protocol);
    }

    #[test]
    fn dedup_key_tracks_output_affecting_fields_only() {
        let j = |threads: usize, split: bool| CompileJob {
            id: "a".into(),
            source: "s".into(),
            threads,
            deadline_ms: None,
            op_fuel: None,
            loop_splitting: split,
            want_code: false,
            want_timing: false,
            want_trace: false,
        };
        // Thread count never changes output (bit-identical guarantee), so
        // it is not part of the key…
        assert_eq!(j(1, true).dedup_key(), j(8, true).dedup_key());
        // …but codegen options are.
        assert_ne!(j(1, true).dedup_key(), j(1, false).dedup_key());
    }

    #[test]
    fn error_render_is_parseable_and_typed() {
        let line = render_error(
            "q",
            &WireError {
                code: ErrorCode::Budget,
                message: "deadline expired on arrival".into(),
            },
        );
        let v = parse(&line).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        let code = v.get("error").unwrap().get("code").unwrap();
        assert_eq!(
            ErrorCode::parse(code.as_str().unwrap()),
            Some(ErrorCode::Budget)
        );
    }
}
