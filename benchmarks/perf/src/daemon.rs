//! The in-process `dhpf-serve` daemon and its two closed-loop clients.

use crate::stats::Rng;
use crate::workload::Tally;
use dhpf_obs::json::{parse, Arr, Obj, Value};
use dhpf_obs::Collector;
use dhpf_serve::Server;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connections, and so load-generating threads: the host has two cores.
pub const CLIENTS: usize = 2;

/// One `compile` request line asking for the code listing.
pub fn request_line(id: &str, source: &str) -> String {
    let mut line = Obj::new()
        .str("op", "compile")
        .str("id", id)
        .str("source", source)
        .arr("want", Arr::new().str("code"))
        .finish();
    line.push('\n');
    line
}

/// The source client `k` sends: the program plus a trailing comment, so
/// the two clients never share a dedup key and coalescing cannot make the
/// mix depend on timing.
pub fn client_variant(source: &str, k: usize) -> String {
    format!("{source}! client {k}\n")
}

/// The programs client `k` asks for under `seed`, in order: one seeded
/// stream per client, drawn block by block, each block a shuffle of all
/// the workload's programs. Every source is asked for equally often, so
/// the seed moves the order of the mix and never its proportions.
pub fn schedule(seed: u64, k: usize, programs: usize) -> impl Iterator<Item = usize> {
    let mut rng = Rng::new(seed.wrapping_mul(0x1000).wrapping_add(k as u64));
    let mut block: Vec<usize> = Vec::new();
    std::iter::repeat_with(move || {
        if block.is_empty() {
            block = (0..programs).collect();
            rng.shuffle(&mut block);
        }
        block.pop().expect("a block holds every program")
    })
}

/// What one reply said, after checking it.
pub struct Reply {
    pub warm: bool,
    pub coalesced: bool,
    pub compile_ms: f64,
    pub code: String,
}

/// Parses a reply line and checks `ok`, the echoed id and that nothing
/// was degraded. Any deviation is the error text.
pub fn check_reply(line: &str, id: &str) -> Result<Reply, String> {
    let v = parse(line.trim_end()).map_err(|e| format!("reply {id}: {e}"))?;
    if v.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("reply {id}: not ok: {line:.200}"));
    }
    if v.get("id").and_then(Value::as_str) != Some(id) {
        return Err(format!("reply {id}: wrong id {:?}", v.get("id")));
    }
    if v.get("degradations")
        .and_then(Value::as_arr)
        .map(<[Value]>::len)
        != Some(0)
    {
        return Err(format!("reply {id}: degraded"));
    }
    let flag = |key: &str| v.get(key) == Some(&Value::Bool(true));
    Ok(Reply {
        warm: flag("warm"),
        coalesced: flag("coalesced"),
        compile_ms: v.get("compile_ms").and_then(Value::as_f64).unwrap_or(0.0),
        code: v
            .get("code")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("reply {id}: no code"))?
            .to_string(),
    })
}

/// One timed request of the serve phase.
pub struct Sample {
    pub program: usize,
    pub rtt_ms: f64,
    pub compile_ms: f64,
    pub reply_bytes: usize,
}

/// What one client did in the serve phase.
struct ClientRun {
    samples: Vec<Sample>,
    drawn: Vec<usize>,
    tally: Tally,
    start: Instant,
    end: Instant,
}

/// Outcome of the serve phase.
pub struct ServeRun {
    pub samples: Vec<Sample>,
    pub wall: Duration,
    /// Requests each client drew per program, `[client][program]`.
    pub drawn: Vec<Vec<usize>>,
    /// Coalesced replies of the set-up burst (expect 1).
    pub coalesce_followers: u64,
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Sends one request line and waits for its reply line.
    fn call(&mut self, line: &str) -> std::io::Result<(String, Duration)> {
        let t0 = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        let rtt = t0.elapsed();
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok((reply, rtt))
    }

    /// Client `k`'s closed loop: draw, send, wait, check, until `budget`
    /// has passed.
    fn run(
        &mut self,
        k: usize,
        budget: Duration,
        seed: u64,
        variants: &[String],
        golden_code: &[String],
        trace: Option<&Collector>,
    ) -> ClientRun {
        let programs = variants.len();
        let start = Instant::now();
        let mut run = ClientRun {
            samples: Vec::new(),
            drawn: vec![0; programs],
            tally: Tally::default(),
            start,
            end: start,
        };
        for (n, p) in schedule(seed, k, programs).enumerate() {
            if start.elapsed() >= budget {
                break;
            }
            run.drawn[p] += 1;
            let id = format!("c{k}-{n}");
            let line = request_line(&id, &variants[p]);
            let spans = trace.map(|c| (c, c.begin("op", "bench"), c.begin("serve.rtt", "bench")));
            let checked = self
                .call(&line)
                .map_err(|e| format!("request {id}: {e}"))
                .and_then(|(reply_line, rtt)| {
                    let r = check_reply(&reply_line, &id)?;
                    if !r.warm {
                        Err(format!("reply {id}: not warm after pre-warm"))
                    } else if r.code != golden_code[p] {
                        Err(format!("reply {id}: code differs from the reference"))
                    } else {
                        Ok((r, reply_line.len(), rtt))
                    }
                });
            if let Some((c, op, rtt_span)) = spans {
                if let Ok((r, _, _)) = &checked {
                    c.counter_on(rtt_span, "compile_ms", r.compile_ms as i64);
                }
                c.end(rtt_span);
                c.end(op);
            }
            if let Some((r, reply_bytes, rtt)) = run.tally.check(checked) {
                run.samples.push(Sample {
                    program: p,
                    rtt_ms: rtt.as_secs_f64() * 1e3,
                    compile_ms: r.compile_ms,
                    reply_bytes,
                });
            }
        }
        run.end = Instant::now();
        run
    }
}

/// Runs `f` on every client at once, released together by a barrier.
fn on_every_client<T: Send>(
    clients: &mut [Client],
    f: impl Fn(usize, &mut Client) -> T + Sync,
) -> Vec<T> {
    let barrier = Barrier::new(clients.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                let (f, barrier) = (&f, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    f(k, client)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// A running daemon with its context pre-warmed and both clients connected.
pub struct Daemon {
    handle: dhpf_serve::ShutdownHandle,
    thread: JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
    /// Per client, per program: the source variant that client sends.
    variants: Vec<Vec<String>>,
    /// Code the daemon returned for each program while pre-warming.
    pub prewarm_code: Vec<String>,
    coalesce_followers: u64,
}

impl Daemon {
    /// Binds on loopback, connects the clients, compiles every client's
    /// variant of every source once (so each later request is `warm`) and
    /// fires the coalescing burst. Pre-warming is sequential: the daemon's
    /// memo tables fill in a fixed order.
    pub fn start(sources: &[String], tally: &mut Tally) -> Result<Daemon, String> {
        let io = |e: std::io::Error| format!("daemon: {e}");
        let server = Server::bind("127.0.0.1:0", dhpf_omega::DEFAULT_CACHE_CAP).map_err(io)?;
        let addr = server.local_addr().map_err(io)?;
        let handle = server.shutdown_handle().map_err(io)?;
        let thread = std::thread::spawn(move || server.serve());
        let mut daemon = Daemon {
            handle,
            thread,
            clients: Vec::new(),
            variants: (0..CLIENTS)
                .map(|k| sources.iter().map(|s| client_variant(s, k)).collect())
                .collect(),
            prewarm_code: Vec::new(),
            coalesce_followers: 0,
        };
        // From here on an error must still stop the daemon thread.
        match daemon.warm_up(addr, &sources[0], tally) {
            Ok(()) => Ok(daemon),
            Err(e) => {
                daemon.stop();
                Err(format!("daemon: {e}"))
            }
        }
    }

    fn warm_up(&mut self, addr: SocketAddr, first: &str, tally: &mut Tally) -> std::io::Result<()> {
        for _ in 0..CLIENTS {
            self.clients.push(Client::connect(addr)?);
        }
        for k in 0..CLIENTS {
            for (i, variant) in self.variants[k].iter().enumerate() {
                let id = format!("warm-{k}-{i}");
                let (line, _) = self.clients[k].call(&request_line(&id, variant))?;
                let reply = tally.check(check_reply(&line, &id));
                if k == 0 {
                    self.prewarm_code
                        .push(reply.map(|r| r.code).unwrap_or_default());
                }
            }
        }
        // Both clients send one identical, not yet seen source at once:
        // the second to arrive should latch onto the first.
        let burst = request_line("burst", &format!("{first}! burst\n"));
        for reply in on_every_client(&mut self.clients, |_, c| c.call(&burst)) {
            let (line, _) = reply?;
            if let Some(r) = tally.check(check_reply(&line, "burst")) {
                self.coalesce_followers += u64::from(r.coalesced);
            }
        }
        Ok(())
    }

    /// The serve phase: each client sends its seeded schedule, one request
    /// at a time, until `budget` has passed. Every reply must be `ok`,
    /// `warm`, echo its id and carry exactly `golden_code` for its source.
    /// With a collector, each request is an `op` root span with a
    /// client-side `serve.rtt` child carrying the reply's `compile_ms`.
    pub fn run(
        &mut self,
        budget: Duration,
        seed: u64,
        golden_code: &[String],
        trace: Option<&Collector>,
        tally: &mut Tally,
    ) -> ServeRun {
        let variants = &self.variants;
        let per_client = on_every_client(&mut self.clients, |k, c| {
            c.run(k, budget, seed, &variants[k], golden_code, trace)
        });
        let start = per_client.iter().map(|c| c.start).min().expect("clients");
        let end = per_client.iter().map(|c| c.end).max().expect("clients");
        let mut run = ServeRun {
            samples: Vec::new(),
            wall: end - start,
            drawn: Vec::new(),
            coalesce_followers: self.coalesce_followers,
        };
        for c in per_client {
            run.samples.extend(c.samples);
            run.drawn.push(c.drawn);
            tally.merge(&c.tally);
        }
        run
    }

    /// Closes both connections, stops the accept loop and waits for the
    /// daemon thread (which joins its connection handlers).
    pub fn stop(self) {
        drop(self.clients);
        self.handle.shutdown();
        let _ = self.thread.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_per_seed_and_differs_per_client() {
        let take = |seed, k| schedule(seed, k, 5).take(600).collect::<Vec<_>>();
        assert_eq!(take(1, 0), take(1, 0));
        assert_ne!(take(1, 0), take(1, 1));
        assert_ne!(take(1, 0), take(2, 0));
        let mut counts = [0usize; 5];
        for p in take(1, 0) {
            counts[p] += 1;
        }
        println!("per-source counts of client 0, seed 1, 600 requests: {counts:?}");
        assert_eq!(counts, [120; 5]);
        // Every block of five holds each source once.
        for block in take(7, 1).chunks(5) {
            let mut sorted = block.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn request_lines_parse_as_compile_jobs_with_distinct_dedup_keys() {
        use dhpf_serve::proto::{parse_request, Request};
        let job = |k| match parse_request(
            request_line("r", &client_variant("program p\nend\n", k)).trim_end(),
        ) {
            Ok(Request::Compile(j)) => j,
            other => panic!("expected a compile job, got {other:?}"),
        };
        let (a, b) = (job(0), job(1));
        assert!(a.want_code && a.id == "r" && a.threads == 1);
        assert_ne!(a.dedup_key(), b.dedup_key());
    }

    #[test]
    fn replies_are_checked() {
        let ok = r#"{"id":"x","ok":true,"degradations":[],"warm":true,"coalesced":false,"compile_ms":3,"code":"c"}"#;
        let r = check_reply(ok, "x").unwrap();
        assert!(r.warm && !r.coalesced && r.compile_ms == 3.0 && r.code == "c");
        assert!(check_reply(ok, "y").is_err());
        assert!(check_reply(&ok.replace("\"ok\":true", "\"ok\":false"), "x").is_err());
        assert!(check_reply(&ok.replace("[]", "[{}]"), "x").is_err());
        assert!(check_reply("not json", "x").is_err());
    }
}
