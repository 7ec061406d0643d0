//! End-to-end observability tests: the `metrics` op reconciles exactly
//! with a scripted warm/cold/error/coalesced request mix, `want:["trace"]`
//! returns a schema-valid span tree, and the structured access log (with
//! slow-trace sampling) validates against the exporter's schema.

use dhpf_obs::export::{validate_access_log, validate_span_tree_value};
use dhpf_obs::json::{parse, Value};
use dhpf_omega::ErrorCode;
use dhpf_serve::{metrics::OPS, send_lines, ServeConfig, Server, ShutdownHandle};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};

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

fn start_server_with(
    config: &ServeConfig,
) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind_with("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || server.serve().unwrap());
    (addr, handle, join)
}

fn compile_req(id: &str, extra: &str) -> String {
    format!(
        "{{\"op\":\"compile\",\"id\":\"{id}\",\"source\":{}{extra}}}",
        dhpf_obs::json::escape(JACOBI)
    )
}

fn get_bool(v: &Value, key: &str) -> bool {
    match v.get(key) {
        Some(Value::Bool(b)) => *b,
        other => panic!("missing bool {key:?}, got {other:?}"),
    }
}

fn counter(v: &Value, key: &str) -> u64 {
    v.get("counters")
        .and_then(|c| c.get(key))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing counter {key:?} in {v:?}")) as u64
}

fn gauge(v: &Value, key: &str) -> i64 {
    v.get("gauges")
        .and_then(|c| c.get(key))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing gauge {key:?} in {v:?}")) as i64
}

/// Splits a rendered series key `name{k="v",…}` into its name and labels.
fn series_labels(key: &str) -> (&str, Vec<(&str, &str)>) {
    let Some((name, rest)) = key.split_once('{') else {
        return (key, Vec::new());
    };
    let labels = rest
        .trim_end_matches('}')
        .split(',')
        .filter_map(|pair| pair.split_once('='))
        .map(|(k, v)| (k, v.trim_matches('"')))
        .collect();
    (name, labels)
}

/// The label vocabulary of a scrape, and the shape of its histograms:
/// every `code` label is a known error code, every request `op` label is
/// in [`OPS`], the whole error family is present (pre-registered at
/// zero), and each histogram's cumulative buckets never decrease and end
/// at its `count`.
fn check_vocabulary_and_buckets(m: &Value) {
    let counters = m.get("counters").and_then(Value::as_obj).unwrap();
    assert!(!counters.is_empty());
    for (key, _) in counters {
        let (name, labels) = series_labels(key);
        for (k, v) in labels {
            if k == "code" {
                assert!(ErrorCode::parse(v).is_some(), "{key}: unknown error code");
            }
            if name == "dhpf_serve_requests_total" && k == "op" {
                assert!(OPS.contains(&v), "{key}: unknown op");
            }
        }
    }
    for &code in ErrorCode::ALL {
        counter(m, &format!("dhpf_serve_errors_total{{code=\"{code}\"}}"));
    }
    let hists = m.get("histograms").and_then(Value::as_obj).unwrap();
    assert!(!hists.is_empty());
    for (key, h) in hists {
        let count = h.get("count").and_then(Value::as_f64).unwrap();
        let mut prev = (f64::NEG_INFINITY, 0.0);
        for b in h.get("buckets").and_then(Value::as_arr).unwrap() {
            let b = b.as_arr().unwrap();
            let (hi, cum) = (b[0].as_f64().unwrap(), b[1].as_f64().unwrap());
            assert!(hi > prev.0, "{key}: bucket edges not increasing at {hi}");
            assert!(cum >= prev.1, "{key}: cumulative count decreases at {hi}");
            prev = (hi, cum);
        }
        assert_eq!(prev.1, count, "{key}: last bucket is not the count");
    }
}

#[test]
fn metrics_reconcile_with_driven_request_mix() {
    let (addr, handle, join) = start_server_with(&ServeConfig::default());

    // Scripted mix on one connection: cold compile, warm repeat, frontend
    // error, admission rejection, ping — then scrape.
    let replies = send_lines(
        addr,
        &[
            compile_req("cold", ""),
            compile_req("warm", ""),
            "{\"op\":\"compile\",\"id\":\"bad\",\"source\":\"program p\\nsyntax? error!\\nend\\n\"}"
                .to_string(),
            compile_req("dead", ",\"options\":{\"deadline_ms\":0}"),
            "{\"op\":\"ping\",\"id\":\"p\"}".to_string(),
            "{\"op\":\"metrics\",\"id\":\"m\"}".to_string(),
        ],
    )
    .unwrap();
    assert_eq!(replies.len(), 6);

    let m = parse(&replies[5]).unwrap();
    assert!(get_bool(&m, "ok"), "{}", replies[5]);
    assert_eq!(
        counter(&m, "dhpf_serve_requests_total{op=\"compile\"}"),
        4,
        "{}",
        replies[5]
    );
    assert_eq!(counter(&m, "dhpf_serve_requests_total{op=\"ping\"}"), 1);
    assert_eq!(counter(&m, "dhpf_serve_requests_total{op=\"metrics\"}"), 1);
    // The syntax error and the deadline-0 rejection each land on their
    // typed code; no other error series moved.
    assert_eq!(
        counter(&m, "dhpf_serve_errors_total{code=\"E_FRONTEND\"}"),
        1
    );
    assert_eq!(counter(&m, "dhpf_serve_errors_total{code=\"E_BUDGET\"}"), 1);
    assert_eq!(
        counter(&m, "dhpf_serve_errors_total{code=\"E_INTERNAL\"}"),
        0
    );
    // Serial requests never coalesce: 3 compiles ran as leaders (the
    // admission reject never reached election).
    assert_eq!(counter(&m, "dhpf_serve_coalesce_total{role=\"leader\"}"), 3);
    assert_eq!(
        counter(&m, "dhpf_serve_coalesce_total{role=\"follower\"}"),
        0
    );

    // Latency histograms: one warm sample, two cold (the error compile
    // was cold too).
    let hists = m.get("histograms").expect("histograms object");
    let warm_count = hists
        .get("dhpf_serve_request_duration_us{kind=\"warm\"}")
        .and_then(|h| h.get("count"))
        .and_then(Value::as_f64)
        .unwrap() as u64;
    let cold_count = hists
        .get("dhpf_serve_request_duration_us{kind=\"cold\"}")
        .and_then(|h| h.get("count"))
        .and_then(Value::as_f64)
        .unwrap() as u64;
    assert_eq!(warm_count, 1, "{}", replies[5]);
    assert_eq!(cold_count, 2, "{}", replies[5]);

    // Context gauges were refreshed at scrape time: memo tables are
    // occupied and have been hit after two successful compiles.
    assert!(gauge(&m, "dhpf_serve_memo_resident") > 0, "{}", replies[5]);
    assert!(gauge(&m, "dhpf_serve_memo_hits") > 0, "{}", replies[5]);
    assert!(gauge(&m, "dhpf_serve_memo_misses") > 0, "{}", replies[5]);
    assert!(gauge(&m, "dhpf_serve_uptime_ms") >= 0, "{}", replies[5]);
    check_vocabulary_and_buckets(&m);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn coalesced_followers_count_in_metrics() {
    let (addr, handle, join) = start_server_with(&ServeConfig::default());
    const CLIENTS: usize = 6;

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let replies = send_lines(addr, &[compile_req(&format!("c{i}"), "")]).unwrap();
                parse(&replies[0]).unwrap()
            })
        })
        .collect();
    let coalesced_responses = workers
        .into_iter()
        .map(|w| w.join().unwrap())
        .filter(|r| get_bool(r, "coalesced"))
        .count() as u64;

    let m =
        parse(&send_lines(addr, &["{\"op\":\"metrics\",\"id\":\"m\"}".to_string()]).unwrap()[0])
            .unwrap();
    let leaders = counter(&m, "dhpf_serve_coalesce_total{role=\"leader\"}");
    let followers = counter(&m, "dhpf_serve_coalesce_total{role=\"follower\"}");
    assert_eq!(leaders + followers, CLIENTS as u64);
    assert_eq!(
        followers, coalesced_responses,
        "follower counter disagrees with coalesced responses"
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn want_trace_returns_schema_valid_span_tree() {
    let (addr, handle, join) = start_server_with(&ServeConfig::default());

    let replies = send_lines(addr, &[compile_req("t", ",\"want\":[\"trace\"]")]).unwrap();
    let r = parse(&replies[0]).unwrap();
    assert!(get_bool(&r, "ok"), "{}", replies[0]);
    let trace = r.get("trace").expect("trace field present");
    let spans = validate_span_tree_value(trace).expect("schema-valid span tree");
    assert!(spans > 0, "empty span tree");
    // The root span of the request is the compile span, and the phase
    // spans nest under it.
    let names: Vec<&str> = trace
        .get("spans")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter_map(|s| s.get("name").and_then(Value::as_str))
        .collect();
    assert!(names.contains(&"compile"), "{names:?}");
    assert!(names.contains(&"module compilation"), "{names:?}");

    // Without the want, no trace field is rendered.
    let plain = send_lines(addr, &[compile_req("t2", "")]).unwrap();
    let p = parse(&plain[0]).unwrap();
    assert!(p.get("trace").is_none(), "{}", plain[0]);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn access_log_validates_and_carries_slow_traces() {
    let dir = std::env::temp_dir().join(format!(
        "dhpf-serve-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("access.jsonl");
    let (addr, handle, join) = start_server_with(&ServeConfig {
        access_log: Some(log_path.clone()),
        trace_slow_ms: Some(0), // every compile is "slow": all get traced
        ..ServeConfig::default()
    });

    let replies = send_lines(
        addr,
        &[
            compile_req("cold", ""),
            compile_req("warm", ""),
            compile_req("dead", ",\"options\":{\"deadline_ms\":0}"),
            "{\"op\":\"ping\",\"id\":\"p\"}".to_string(),
            "not json at all".to_string(),
        ],
    )
    .unwrap();
    assert_eq!(replies.len(), 5);

    handle.shutdown();
    join.join().unwrap();

    let text = std::fs::read_to_string(&log_path).unwrap();
    let sum =
        validate_access_log(&text).unwrap_or_else(|e| panic!("invalid access log: {e}\n{text}"));
    assert_eq!(sum.lines, 5, "{text}");
    assert_eq!(sum.by_op.get("compile"), Some(&3));
    assert_eq!(sum.by_op.get("ping"), Some(&1));
    assert_eq!(sum.by_op.get("invalid"), Some(&1));
    assert_eq!(sum.by_outcome.get("ok"), Some(&3)); // 2 compiles + ping
    assert_eq!(sum.by_outcome.get("E_BUDGET"), Some(&1));
    assert_eq!(sum.by_outcome.get("E_PROTOCOL"), Some(&1));
    // trace_slow_ms = 0 embeds a span tree in both successful compiles
    // (the admission reject never compiled, so it has none).
    assert_eq!(sum.traces, 2, "{text}");

    std::fs::remove_dir_all(&dir).ok();
}
