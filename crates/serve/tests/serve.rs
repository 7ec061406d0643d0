//! End-to-end tests of the dhpf-serve daemon over real TCP: round-trips,
//! warm-cache reuse, request coalescing, and per-request budget isolation.

use dhpf_obs::json::{parse, Value};
use dhpf_serve::{send_lines, Server, ShutdownHandle};
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

fn start_server() -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", dhpf_omega::DEFAULT_CACHE_CAP).unwrap();
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

fn get_u64(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing numeric {key:?} in {v:?}")) as u64
}

fn get_bool(v: &Value, key: &str) -> bool {
    match v.get(key) {
        Some(Value::Bool(b)) => *b,
        other => panic!("missing bool {key:?}, got {other:?}"),
    }
}

#[test]
fn round_trip_and_warm_cache_reuse() {
    let (addr, handle, join) = start_server();

    let replies = send_lines(
        addr,
        &[
            "{\"op\":\"ping\",\"id\":\"p\"}".to_string(),
            compile_req("cold", ",\"want\":[\"code\",\"timing\"]"),
            compile_req("warm", ""),
            "{\"op\":\"metrics\",\"id\":\"m\"}".to_string(),
        ],
    )
    .unwrap();
    assert_eq!(replies.len(), 4);

    let pong = parse(&replies[0]).unwrap();
    assert_eq!(pong.get("pong"), Some(&Value::Bool(true)));

    let cold = parse(&replies[1]).unwrap();
    assert!(get_bool(&cold, "ok"), "{}", replies[1]);
    assert_eq!(get_u64(&cold, "units"), 1);
    assert!(get_u64(&cold, "comm_events") > 0);
    assert!(!get_bool(&cold, "warm"));
    let code = cold.get("code").and_then(Value::as_str).unwrap();
    assert!(code.contains("call comm_send(0)"), "{code}");
    assert!(cold.get("timing").and_then(Value::as_arr).is_some());
    // A reply says what this request did; server-wide counters live in
    // the `metrics` op only.
    for key in ["cache", "dedup_hits"] {
        assert!(cold.get(key).is_none(), "{key:?} in {}", replies[1]);
    }

    // The second identical request must find the memo tables warm: the
    // warm flag flips, and hits gained during the request are nonzero.
    let warm = parse(&replies[2]).unwrap();
    assert!(get_bool(&warm, "ok"), "{}", replies[2]);
    assert!(get_bool(&warm, "warm"));
    assert!(
        get_u64(&warm, "cache_hits_delta") > 0,
        "warm request gained no cache hits: {}",
        replies[2]
    );

    let m = parse(&replies[3]).unwrap();
    let counters = m.get("counters").unwrap();
    assert_eq!(
        get_u64(counters, "dhpf_serve_requests_total{op=\"compile\"}"),
        2
    );
    assert!(get_u64(m.get("gauges").unwrap(), "dhpf_serve_memo_resident") > 0);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn concurrent_duplicates_coalesce() {
    let (addr, handle, join) = start_server();
    const CLIENTS: usize = 8;

    // All clients connect first, then fire the identical request through
    // the barrier, so the duplicates arrive while the leader compiles.
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
    let replies: Vec<Value> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    let mut coalesced = 0u64;
    for r in &replies {
        assert!(get_bool(r, "ok"), "{r:?}");
        assert_eq!(get_u64(r, "units"), 1);
        if get_bool(r, "coalesced") {
            coalesced += 1;
        }
    }
    assert!(
        coalesced > 0,
        "no request coalesced across {CLIENTS} simultaneous duplicates"
    );
    let m =
        parse(&send_lines(addr, &["{\"op\":\"metrics\",\"id\":\"m\"}".to_string()]).unwrap()[0])
            .unwrap();
    assert_eq!(
        get_u64(
            m.get("counters").unwrap(),
            "dhpf_serve_coalesce_total{role=\"follower\"}"
        ),
        coalesced,
        "server follower counter disagrees with coalesced responses"
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn zero_deadline_rejected_without_harming_neighbours() {
    let (addr, handle, join) = start_server();

    // Connection A: expired-on-arrival request gets the typed budget code.
    let rejected = send_lines(
        addr,
        &[compile_req("dead", ",\"options\":{\"deadline_ms\":0}")],
    )
    .unwrap();
    let r = parse(&rejected[0]).unwrap();
    assert!(!get_bool(&r, "ok"));
    let code = r
        .get("error")
        .unwrap()
        .get("code")
        .unwrap()
        .as_str()
        .unwrap();
    assert_eq!(code, "E_BUDGET", "{}", rejected[0]);

    // Connection B: a healthy request on the same server is unaffected.
    let healthy = send_lines(addr, &[compile_req("ok", "")]).unwrap();
    let h = parse(&healthy[0]).unwrap();
    assert!(get_bool(&h, "ok"), "{}", healthy[0]);
    assert_eq!(get_u64(&h, "units"), 1);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn protocol_errors_are_typed_and_non_fatal() {
    let (addr, handle, join) = start_server();

    // One connection sends garbage, then a bad op, then a valid compile:
    // the connection must survive both errors.
    let replies = send_lines(
        addr,
        &[
            "this is not json".to_string(),
            "{\"op\":\"frobnicate\",\"id\":\"x\"}".to_string(),
            compile_req("after", ""),
        ],
    )
    .unwrap();
    assert_eq!(replies.len(), 3);
    for bad in &replies[..2] {
        let v = parse(bad).unwrap();
        assert!(!get_bool(&v, "ok"));
        let code = v
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str()
            .unwrap();
        assert_eq!(code, "E_PROTOCOL", "{bad}");
    }
    let good = parse(&replies[2]).unwrap();
    assert!(get_bool(&good, "ok"), "{}", replies[2]);

    // A frontend error is typed too.
    let failed = send_lines(
        addr,
        &["{\"op\":\"compile\",\"id\":\"bad\",\"source\":\"program p\\nsyntax? error!\\nend\\n\"}"
            .to_string()],
    )
    .unwrap();
    let f = parse(&failed[0]).unwrap();
    assert!(!get_bool(&f, "ok"));
    let code = f
        .get("error")
        .unwrap()
        .get("code")
        .unwrap()
        .as_str()
        .unwrap();
    assert!(
        dhpf_omega::ErrorCode::parse(code).is_some(),
        "unknown error code {code:?}"
    );

    handle.shutdown();
    join.join().unwrap();
}
