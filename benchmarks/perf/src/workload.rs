//! One run of one workload: set-up, the correctness gate, the three timed
//! phases, and the metrics they give.
//!
//! Every layer is measured from outside: by timing calls into public
//! functions and by reading what the public API already returns
//! (`CompileReport.timers` rows, `CacheStats`, `SpmdStats`, `SimResult`,
//! wire replies). Spans are opened here, around those calls.

use crate::daemon::{self, Daemon, ServeRun};
use crate::spec::{self, MetricSpec, ProgramSpec, Workload};
use crate::stats::{median, quantile, Rng};
use crate::trace;
use dhpf_core::prelude::*;
use dhpf_obs::Collector;
use dhpf_omega::CacheStats;
use dhpf_serve::proto::{parse_request, render_response, ServeMeta};
use dhpf_sim::{run_serial, simulate, MachineModel, SimResult, Store};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How many times set-up runs; `setup_s` is the median. The first one is
/// the one the run uses.
const SETUPS: usize = 3;
/// Timed calls behind each `*_us_p50` layer probe.
const PROBE_CALLS: usize = 200;

/// Operations attempted and failed. A failed operation is an error reply,
/// a degradation, an output that differs from its reference, or a
/// protocol error; the reason goes to standard error.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; on failure reports why and gives `None`.
    pub fn check<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(why) => {
                self.failed += 1;
                eprintln!("FAILED: {why}");
                None
            }
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A program of the workload, ready to compile and run.
struct Program {
    spec: &'static ProgramSpec,
    source: String,
    inputs: HashMap<String, i64>,
}

impl Program {
    fn new(spec: &'static ProgramSpec) -> Result<Program, String> {
        let mut source = spec.source.to_string();
        for (from, to) in spec.rewrites {
            if !source.contains(from) {
                return Err(format!("{}: nothing to rewrite for {from:?}", spec.key));
            }
            source = source.replace(from, to);
        }
        Ok(Program {
            spec,
            source,
            inputs: spec
                .inputs
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .collect(),
        })
    }

    fn ranks(&self) -> i64 {
        self.spec.grid.iter().product()
    }
}

/// The serial reference of one program: computed by the interpreter from
/// the analysed source, never by the compiler under test.
struct Reference {
    store: Store,
    flops: u64,
    wall: Duration,
    units: usize,
}

fn reference(p: &Program) -> Result<Reference, String> {
    let key = p.spec.key;
    let parsed = dhpf_hpf::parse(&p.source).map_err(|e| format!("{key}: {e}"))?;
    let main = parsed
        .units
        .iter()
        .find(|u| u.is_program)
        .ok_or_else(|| format!("{key}: no main program"))?;
    let analysis = dhpf_hpf::analyze(main).map_err(|e| format!("{key}: {e}"))?;
    let t0 = Instant::now();
    let (store, flops) = run_serial(&analysis, &p.inputs).map_err(|e| format!("{key}: {e}"))?;
    Ok(Reference {
        store,
        flops,
        wall: t0.elapsed(),
        units: parsed.units.len(),
    })
}

/// The workload's programs and their serial references.
struct Inputs {
    programs: Vec<Program>,
    references: Vec<Reference>,
}

/// Everything the timed phases need, built before the first timed op.
fn set_up(w: &Workload, tally: &mut Tally) -> Result<(Inputs, Daemon), String> {
    let programs = w
        .programs
        .iter()
        .map(Program::new)
        .collect::<Result<Vec<_>, _>>()?;
    let references = programs
        .iter()
        .map(reference)
        .collect::<Result<Vec<_>, _>>()?;
    let sources: Vec<String> = programs.iter().map(|p| p.source.clone()).collect();
    let daemon = Daemon::start(&sources, tally)?;
    Ok((
        Inputs {
            programs,
            references,
        },
        daemon,
    ))
}

/// The exact part of a simulation: what the generated program costs on
/// the machine model and what it sends.
#[derive(Clone, Debug, PartialEq)]
struct SimCounts {
    time: f64,
    messages: u64,
    bytes: u64,
    inplace_sends: u64,
    buffered_sends: u64,
}

impl SimCounts {
    fn of(r: &SimResult) -> SimCounts {
        SimCounts {
            time: r.time,
            messages: r.messages,
            bytes: r.bytes,
            inplace_sends: r.comm.iter().map(|c| c.inplace_sends).sum(),
            buffered_sends: r.comm.iter().map(|c| c.buffered_sends).sum(),
        }
    }
}

/// What every later compile and run of a program must reproduce, and the
/// context that produced it: it has compiled its program exactly once,
/// which is what a warm repeat needs.
struct Golden {
    code: String,
    cache: CacheStats,
    stats: SpmdStats,
    sim: SimCounts,
    kept: Context,
}

/// Compares a simulated run with the serial reference: every array element
/// within 1e-9, every scalar within 1e-9 relative.
fn verify(key: &str, sim: &SimResult, serial: &Store) -> Result<(), String> {
    let mut names: Vec<&String> = serial.arrays.keys().collect();
    names.sort();
    for name in names {
        let want = &serial.arrays[name];
        let got = sim
            .arrays
            .get(name)
            .ok_or_else(|| format!("{key}: array {name} missing from the simulated run"))?;
        if got.data.len() != want.data.len() {
            return Err(format!("{key}: array {name} has the wrong size"));
        }
        for (k, (g, w)) in got.data.iter().zip(&want.data).enumerate() {
            // A NaN on either side is not close, so it is a mismatch.
            let close = (g - w).abs() < 1e-9;
            if !close {
                return Err(format!("{key}: {name}[{k}] = {g}, serial reference {w}"));
            }
        }
    }
    let mut names: Vec<&String> = serial.floats.keys().collect();
    names.sort();
    for name in names {
        let want = serial.floats[name];
        let got = sim.floats.get(name).copied().unwrap_or(f64::NAN);
        let close = (got - want).abs() <= 1e-9 * want.abs().max(1.0);
        if !close {
            return Err(format!("{key}: {name} = {got}, serial reference {want}"));
        }
    }
    Ok(())
}

fn request(p: &Program, threads: usize, trace: Option<&Collector>) -> CompileRequest {
    let mut opts = CompileOptions::new().threads(threads);
    if let Some(c) = trace {
        opts = opts.trace(c.clone());
    }
    CompileRequest::new(p.source.clone()).options(opts)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` inside a span of the benchmark's own when the run is traced.
fn spanned<T>(trace: Option<&Collector>, name: &str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some(c) => c.span(name, "bench", f),
        None => f(),
    }
}

/// One compile plus render, each timed, each in its span when traced.
fn compile_and_render(
    ctx: &Context,
    req: &CompileRequest,
    trace: Option<&Collector>,
) -> (Result<(Compiled, String), String>, Duration, Duration) {
    let t0 = Instant::now();
    let compiled = spanned(trace, "core.compile_request", || compile_request(ctx, req));
    let t1 = Instant::now();
    let out = compiled.map_err(|e| format!("compile: {e}")).map(|c| {
        let code = spanned(trace, "codegen.render_program", || {
            render_program(&c.program)
        });
        (c, code)
    });
    (out, t1 - t0, t1.elapsed())
}

/// The correctness gate before timing: each program compiles twice on
/// fresh contexts to the same counters and the same code, without
/// degradation; its generated program, simulated, matches the serial
/// reference; and the daemon returned that same code while pre-warming.
fn gate(inputs: &Inputs, daemon: &Daemon, tally: &mut Tally) -> Result<Vec<Golden>, String> {
    let mut goldens = Vec::new();
    for (i, p) in inputs.programs.iter().enumerate() {
        let key = p.spec.key;
        let req = request(p, 1, None);
        let compile = || {
            let ctx = Context::new();
            let (out, _, _) = compile_and_render(&ctx, &req, None);
            out.map(|(c, code)| (c, code, ctx))
                .map_err(|e| format!("{key}: {e}"))
        };
        // Without a reference compile there is nothing to measure against.
        let (a, code_a, kept) = compile()?;
        let (b, code_b, _) = compile()?;
        let degraded = a.report.degradations().len() + b.report.degradations().len();
        tally.check(if degraded > 0 {
            Err(format!(
                "{key}: ungoverned compile reported {degraded} degradations"
            ))
        } else if a.report.cache != b.report.cache {
            Err(format!(
                "{key}: CacheStats differ between two fresh compiles"
            ))
        } else if a.report.stats != b.report.stats {
            Err(format!(
                "{key}: SpmdStats differ between two fresh compiles"
            ))
        } else if code_a != code_b {
            Err(format!("{key}: code differs between two fresh compiles"))
        } else {
            Ok(())
        });
        let sim = simulate(&a, p.spec.grid, &p.inputs, &MachineModel::sp2())
            .map_err(|e| format!("{key}: simulate: {e}"))?;
        tally.check(verify(key, &sim, &inputs.references[i].store));
        tally.check(if daemon.prewarm_code[i] == code_a {
            Ok(())
        } else {
            Err(format!(
                "{key}: daemon code differs from the in-process reference"
            ))
        });
        goldens.push(Golden {
            code: code_a,
            cache: a.report.cache.clone(),
            stats: a.report.stats.clone(),
            sim: SimCounts::of(&sim),
            kept,
        });
    }
    Ok(goldens)
}

/// The kinds of cold round. Untraced runs only make `Plain` rounds; a
/// traced run cycles through all three so they see the same machine state.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RoundKind {
    /// Serial driver, no collector: the end-to-end numbers.
    Plain,
    /// Serial driver with the benchmark's collector attached.
    Traced,
    /// Two driver threads, no collector: the `core.t2_*` probe.
    TwoThreads,
}

/// What one cold round measured, summed over the workload's programs.
#[derive(Default)]
struct Round {
    compile_ms: f64,
    render_us: f64,
    /// `report.timers.total()`: the compiler's own clock.
    timers_total_ms: f64,
    /// `report.timers.rows()` by phase name.
    rows_ms: BTreeMap<String, f64>,
    /// Wall time of the round's simulations, if it simulated.
    sim_ms: Option<f64>,
}

struct Rounds {
    plain: Vec<Round>,
    traced: Vec<Round>,
    two_threads: Vec<Round>,
}

/// Cold rounds until `budget` has passed (at least one of each kind): per
/// program, in seeded order, a fresh `Context`, compile, render, and on
/// every `sim_every`-th round simulate on the program's grid and compare
/// with the serial reference. Comparison is outside the timed part.
fn cold_rounds(
    w: &Workload,
    inputs: &Inputs,
    goldens: &[Golden],
    budget: Duration,
    rng: &mut Rng,
    trace: Option<&Collector>,
    tally: &mut Tally,
) -> Rounds {
    let kinds: &[RoundKind] = if trace.is_some() {
        &[RoundKind::Plain, RoundKind::Traced, RoundKind::TwoThreads]
    } else {
        &[RoundKind::Plain]
    };
    let mut rounds = Rounds {
        plain: Vec::new(),
        traced: Vec::new(),
        two_threads: Vec::new(),
    };
    let mut order: Vec<usize> = (0..inputs.programs.len()).collect();
    let start = Instant::now();
    let mut op_id = 0i64;
    for n in 0.. {
        if n >= kinds.len() && start.elapsed() >= budget {
            break;
        }
        let kind = kinds[n % kinds.len()];
        let collector = if kind == RoundKind::Traced {
            trace
        } else {
            None
        };
        let simulates =
            kind != RoundKind::TwoThreads && (n / kinds.len()).is_multiple_of(w.sim_every);
        rng.shuffle(&mut order);
        let mut round = Round::default();
        let mut sim_ms = 0.0;
        for &i in &order {
            let (p, golden) = (&inputs.programs[i], &goldens[i]);
            let key = p.spec.key;
            op_id += 1;
            // One root span per operation; what it causes nests under it.
            spanned(collector, "op", || {
                if let Some(c) = collector {
                    c.add_counter("op_id", op_id);
                }
                let threads = if kind == RoundKind::TwoThreads { 2 } else { 1 };
                let req = request(p, threads, collector);
                let (out, compile, render) = compile_and_render(&Context::new(), &req, collector);
                round.compile_ms += ms(compile + render);
                round.render_us += render.as_secs_f64() * 1e6;
                let compiled = tally.check(out.and_then(|(c, code)| {
                    // Counters are exact only on the serial driver.
                    let serial = kind != RoundKind::TwoThreads;
                    if !c.report.degradations().is_empty() {
                        Err(format!("{key}: degraded"))
                    } else if code != golden.code {
                        Err(format!("{key}: code differs from the reference compile"))
                    } else if serial
                        && (c.report.cache != golden.cache || c.report.stats != golden.stats)
                    {
                        Err(format!("{key}: counters differ from the reference compile"))
                    } else {
                        Ok(c)
                    }
                }));
                let Some(c) = compiled else { return };
                round.timers_total_ms += ms(c.report.timers.total());
                for (name, d, _) in c.report.timers.rows() {
                    *round.rows_ms.entry(name).or_default() += ms(d);
                }
                if !simulates {
                    return;
                }
                let t0 = Instant::now();
                let sim = spanned(collector, "sim.simulate", || {
                    simulate(&c, p.spec.grid, &p.inputs, &MachineModel::sp2())
                });
                sim_ms += ms(t0.elapsed());
                spanned(collector, "bench.verify", || {
                    tally.check(sim.map_err(|e| format!("{key}: simulate: {e}")).and_then(|r| {
                        verify(key, &r, &inputs.references[i].store)?;
                        if SimCounts::of(&r) == golden.sim {
                            Ok(())
                        } else {
                            Err(format!("{key}: simulated time or traffic differs from the reference run"))
                        }
                    }))
                });
            });
        }
        round.sim_ms = simulates.then_some(sim_ms);
        match kind {
            RoundKind::Plain => rounds.plain.push(round),
            RoundKind::Traced => rounds.traced.push(round),
            RoundKind::TwoThreads => rounds.two_threads.push(round),
        }
    }
    rounds
}

struct Warm {
    pass_ms: Vec<f64>,
    /// Memo hits and misses of the first warm pass, summed over programs.
    hits: u64,
    misses: u64,
}

/// Warm repeats until `budget` has passed: the same request again on the
/// context that compiled it once.
fn warm_passes(inputs: &Inputs, goldens: &[Golden], budget: Duration, tally: &mut Tally) -> Warm {
    let requests: Vec<CompileRequest> = inputs
        .programs
        .iter()
        .map(|p| request(p, 1, None))
        .collect();
    let mut warm = Warm {
        pass_ms: Vec::new(),
        hits: 0,
        misses: 0,
    };
    let start = Instant::now();
    while warm.pass_ms.is_empty() || start.elapsed() < budget {
        let first = warm.pass_ms.is_empty();
        let mut pass = 0.0;
        for (i, req) in requests.iter().enumerate() {
            let before = goldens[i].kept.stats();
            let (out, compile, render) = compile_and_render(&goldens[i].kept, req, None);
            pass += ms(compile + render);
            let key = inputs.programs[i].spec.key;
            tally.check(out.and_then(|(c, code)| {
                if first {
                    warm.hits += c.report.cache.total_hits() - before.total_hits();
                    warm.misses += c.report.cache.total_misses() - before.total_misses();
                }
                if !c.report.degradations().is_empty() {
                    Err(format!("{key}: warm repeat degraded"))
                } else if code != goldens[i].code {
                    Err(format!("{key}: warm repeat gave different code"))
                } else {
                    Ok(())
                }
            }));
        }
        warm.pass_ms.push(pass);
    }
    warm
}

/// Median over `calls` timed passes of `f`, in microseconds.
fn probe_us(calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric as reported: `(name, value, unit)`.
pub type Row = (String, f64, &'static str);

/// The result of one run, in three groups.
pub struct RunResult {
    pub tally: Tally,
    pub end_to_end: Vec<Row>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Row>,
    /// Rows outside the contract: per-source values and sample counts.
    pub detail: Vec<Row>,
}

/// Attaches the contract's units to `values`, which must be exactly the
/// contract's metrics in the contract's order: a run that reports anything
/// else has no result.
fn in_contract(group: &[MetricSpec], values: Vec<(String, f64)>) -> Result<Vec<Row>, String> {
    let reported: Vec<&str> = values.iter().map(|(n, _)| n.as_str()).collect();
    let contract: Vec<&str> = group.iter().map(|m| m.name).collect();
    if reported != contract {
        return Err(format!(
            "reported {reported:?}, the contract has {contract:?}"
        ));
    }
    Ok(values
        .into_iter()
        .zip(group)
        .map(|((name, v), m)| (name, v, m.unit))
        .collect())
}

fn field<'a>(rounds: &'a [Round], f: impl Fn(&Round) -> f64 + 'a) -> Vec<f64> {
    rounds.iter().map(f).collect()
}

fn row_median(rounds: &[Round], name: &str) -> f64 {
    median(&field(rounds, |r| {
        r.rows_ms.get(name).copied().unwrap_or(0.0)
    }))
}

/// Everything the timed phases measured.
struct Measured {
    goldens: Vec<Golden>,
    rounds: Rounds,
    warm: Warm,
    serve: ServeRun,
}

impl Measured {
    /// Σ compile + render of each plain cold round.
    fn cold(&self) -> Vec<f64> {
        field(&self.rounds.plain, |r| r.compile_ms)
    }

    /// Σ simulate wall time of each plain round that simulated.
    fn sim_wall(&self) -> Vec<f64> {
        self.rounds.plain.iter().filter_map(|r| r.sim_ms).collect()
    }
}

/// Runs `w` once: `seconds` of measurement after set-up and the gate.
/// With `traced`, the run also records spans, writes them out, and fills
/// the per-layer group.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let (inputs, mut daemon) = set_up(w, &mut tally)?;
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let collector = traced.then(Collector::new);
    let trace = collector.as_ref();
    let measured = measure(w, seed, seconds, &inputs, &mut daemon, trace, &mut tally);
    // The process's high-water mark, read before set-up is repeated:
    // which arena a second daemon's threads land in is a race, and that
    // race, not the program, would decide the peak.
    let rss_mb = peak_rss_mb();
    daemon.stop();
    let m = measured?;
    // Set-up again, for a median rather than one sample.
    for _ in 1..SETUPS {
        let t0 = Instant::now();
        let (_, again) = set_up(w, &mut tally)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        again.stop();
    }
    let mut detail = detail_rows(&inputs, &setup_s, &m);
    let per_layer = match trace {
        Some(c) => in_contract(&spec::PER_LAYER, layers(w, &inputs, &m, c, &mut detail)?)?,
        None => Vec::new(),
    };
    Ok(RunResult {
        tally,
        end_to_end: in_contract(&spec::END_TO_END, end_to_end_rows(&setup_s, rss_mb, &m))?,
        per_layer,
        detail,
    })
}

/// The gate, then the three timed phases.
fn measure(
    w: &Workload,
    seed: u64,
    seconds: f64,
    inputs: &Inputs,
    daemon: &mut Daemon,
    trace: Option<&Collector>,
    tally: &mut Tally,
) -> Result<Measured, String> {
    let goldens = gate(inputs, daemon, tally)?;
    let share = |s: f64| Duration::from_secs_f64(seconds * s);
    let mut rng = Rng::new(seed);
    let rounds = cold_rounds(
        w,
        inputs,
        &goldens,
        share(w.share_rounds),
        &mut rng,
        trace,
        tally,
    );
    let warm = warm_passes(inputs, &goldens, share(w.share_warm), tally);
    let golden_code: Vec<String> = goldens.iter().map(|g| g.code.clone()).collect();
    let serve = daemon.run(share(w.share_serve), seed, &golden_code, trace, tally);
    if serve.samples.is_empty() || rounds.plain.iter().all(|r| r.sim_ms.is_none()) {
        return Err("a timed phase produced no sample".to_string());
    }
    Ok(Measured {
        goldens,
        rounds,
        warm,
        serve,
    })
}

fn end_to_end_rows(setup_s: &[f64], rss_mb: f64, m: &Measured) -> Vec<(String, f64)> {
    let run_wall: Vec<f64> = m
        .rounds
        .plain
        .iter()
        .filter_map(|r| r.sim_ms.map(|s| r.compile_ms + s))
        .collect();
    let rtt: Vec<f64> = m.serve.samples.iter().map(|s| s.rtt_ms).collect();
    let sum = |f: &dyn Fn(&Golden) -> f64| m.goldens.iter().map(f).sum::<f64>();
    [
        ("setup_s", median(setup_s)),
        ("compile_cold_ms_p50", median(&m.cold())),
        ("compile_warm_ms_p50", median(&m.warm.pass_ms)),
        ("compile_set_ops", sum(&|g| g.cache.total_misses() as f64)),
        ("code_bytes", sum(&|g| g.code.len() as f64)),
        ("sim_time_ms", sum(&|g| g.sim.time * 1e3)),
        ("sim_messages", sum(&|g| g.sim.messages as f64)),
        ("sim_bytes", sum(&|g| g.sim.bytes as f64)),
        ("run_wall_ms_p50", median(&run_wall)),
        (
            "serve_rps",
            m.serve.samples.len() as f64 / m.serve.wall.as_secs_f64(),
        ),
        ("serve_rtt_ms_p50", median(&rtt)),
        ("peak_rss_mb", rss_mb),
    ]
    .into_iter()
    .map(|(name, v)| (name.to_string(), v))
    .collect()
}

/// Sample counts and the per-source round trips.
fn detail_rows(inputs: &Inputs, setup_s: &[f64], m: &Measured) -> Vec<Row> {
    let count = |name: &str, n: usize| (name.to_string(), n as f64, "count");
    let mut detail = vec![
        count("n.setups", setup_s.len()),
        count("n.cold_rounds", m.rounds.plain.len()),
        count("n.sim_rounds", m.sim_wall().len()),
        count("n.warm_passes", m.warm.pass_ms.len()),
        count("n.serve_requests", m.serve.samples.len()),
    ];
    for (i, p) in inputs.programs.iter().enumerate() {
        let of: Vec<f64> = m
            .serve
            .samples
            .iter()
            .filter(|s| s.program == i)
            .map(|s| s.rtt_ms)
            .collect();
        let key = p.spec.key;
        detail.push((format!("serve.rtt_ms_p50.{key}"), median(&of), "ms"));
        detail.push(count(
            &format!("n.serve_requests.{key}"),
            m.serve.drawn.iter().map(|d| d[i]).sum(),
        ));
    }
    detail
}

/// The per-layer group of a traced run.
fn layers(
    w: &Workload,
    inputs: &Inputs,
    m: &Measured,
    collector: &Collector,
    detail: &mut Vec<Row>,
) -> Result<Vec<(String, f64)>, String> {
    let Measured {
        goldens,
        rounds,
        warm,
        serve,
    } = m;
    let (cold, sim_wall) = (m.cold(), m.sim_wall());
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));
    let plain = &rounds.plain;

    // hpf: the frontend alone, on the workload's sources.
    let parsed: Vec<_> = inputs
        .programs
        .iter()
        .map(|p| dhpf_hpf::parse(&p.source).map_err(|e| format!("{}: {e}", p.spec.key)))
        .collect::<Result<_, _>>()?;
    put(
        "hpf.parse_us_p50",
        probe_us(PROBE_CALLS, || {
            for p in &inputs.programs {
                let _ = black_box(dhpf_hpf::parse(black_box(&p.source)));
            }
        }),
    );
    put(
        "hpf.analyze_us_p50",
        probe_us(PROBE_CALLS, || {
            for unit in parsed.iter().flat_map(|p| &p.units) {
                let _ = black_box(dhpf_hpf::analyze(black_box(unit)));
            }
        }),
    );
    put(
        "hpf.source_bytes",
        inputs
            .programs
            .iter()
            .map(|p| p.source.len())
            .sum::<usize>() as f64,
    );
    put(
        "hpf.units",
        inputs.references.iter().map(|r| r.units).sum::<usize>() as f64,
    );

    // core: the compiler's own phase rows, medians over the cold rounds.
    let comm_ms = row_median(plain, "communication generation");
    put("core.layout_ms", row_median(plain, "layout construction"));
    put("core.cp_ms", row_median(plain, "partitioning computation"));
    put("core.split_ms", row_median(plain, "loop splitting"));
    put("core.bounds_ms", row_median(plain, "loop bounds reduction"));
    put("core.comm_ms", comm_ms);
    put(
        "core.comm_partners_ms",
        row_median(plain, "loops over comm partners"),
    );
    put(
        "core.contig_ms",
        row_median(plain, "check if msg is contiguous"),
    );
    put(
        "core.comm_share",
        comm_ms / median(&field(plain, |r| r.timers_total_ms)),
    );
    let stat =
        |f: &dyn Fn(&SpmdStats) -> usize| goldens.iter().map(|g| f(&g.stats)).sum::<usize>() as f64;
    put("core.comm_events", stat(&|s| s.comm_events));
    put("core.vectorized_events", stat(&|s| s.fully_vectorized));
    put("core.coalesced_groups", stat(&|s| s.coalesced_groups));
    put("core.contiguous_events", stat(&|s| s.contiguous_events));
    put("core.split_nests", stat(&|s| s.split_nests));
    put("core.degradations", stat(&|s| s.degradations.len()));
    put(
        "core.cold_ms_iqr",
        quantile(&cold, 0.75) - quantile(&cold, 0.25),
    );
    let t2 = median(&field(&rounds.two_threads, |r| r.compile_ms));
    put("core.t2_cold_ms_p50", t2);
    put("core.t2_speedup", median(&cold) / t2);

    // omega: memo counters of one cold compile of each program, and of one
    // warm repeat; time per op class from the traced rounds.
    let cache =
        |f: &dyn Fn(&CacheStats) -> u64| goldens.iter().map(|g| f(&g.cache)).sum::<u64>() as f64;
    put("omega.sat_misses", cache(&|c| c.sat.misses));
    put("omega.fme_misses", cache(&|c| c.eliminate.misses));
    put("omega.negate_misses", cache(&|c| c.negate.misses));
    put("omega.gist_misses", cache(&|c| c.gist.misses));
    put("omega.simplify_misses", cache(&|c| c.simplify.misses));
    put("omega.sat_hits", cache(&|c| c.sat.hits));
    put("omega.fme_hits", cache(&|c| c.eliminate.hits));
    put("omega.negate_hits", cache(&|c| c.negate.hits));
    put("omega.gist_hits", cache(&|c| c.gist.hits));
    put("omega.simplify_hits", cache(&|c| c.simplify.hits));
    put("omega.interned_conjuncts", cache(&|c| c.interned_conjuncts));
    put("omega.evictions", cache(&CacheStats::total_evictions));
    let (hits, misses) = (
        cache(&CacheStats::total_hits),
        cache(&CacheStats::total_misses),
    );
    put("omega.hit_rate", hits / (hits + misses));
    put("omega.warm_hits", warm.hits as f64);
    put("omega.warm_misses", warm.misses as f64);
    let snapshot = collector.trace();
    let ops = snapshot.total_ops();
    let traced_rounds = rounds.traced.len() as f64;
    let op_ms = |name: &str| ops.get(name).map_or(0.0, |s| s.total_ns as f64 / 1e6) / traced_rounds;
    let class_ms = [
        ("omega.sat_ms", op_ms("satisfiability")),
        ("omega.fme_ms", op_ms("fme projection")),
        ("omega.negate_ms", op_ms("negation")),
        ("omega.simplify_ms", op_ms("simplify")),
    ];
    for (name, v) in class_ms {
        put(name, v);
    }
    // No program here reaches the memoized gist, so its time reads 0 on
    // every run; a metric of the contract must be measured on every
    // workload, so this one stays a detail row until something calls it.
    let gist_ms = op_ms("gist");
    detail.push(("omega.gist_ms".to_string(), gist_ms, "ms"));
    let traced_cold = median(&field(&rounds.traced, |r| r.compile_ms));
    put(
        "omega.ops_share",
        (class_ms.iter().map(|(_, v)| v).sum::<f64>() + gist_ms) / traced_cold,
    );

    // codegen
    put(
        "codegen.mm_ms",
        row_median(plain, "mult mappings code generation"),
    );
    put(
        "codegen.render_us_p50",
        median(&field(plain, |r| r.render_us)),
    );
    put(
        "codegen.code_lines",
        goldens
            .iter()
            .map(|g| g.code.lines().count())
            .sum::<usize>() as f64,
    );

    // sim: wall time of the interpreter against the serial reference.
    let simulate_ms = median(&sim_wall);
    let serial_ms: f64 = inputs.references.iter().map(|r| ms(r.wall)).sum();
    let flops = inputs.references.iter().map(|r| r.flops).sum::<u64>() as f64;
    put("sim.simulate_wall_ms_p50", simulate_ms);
    put("sim.serial_wall_ms", serial_ms);
    put("sim.slowdown_vs_serial", simulate_ms / serial_ms);
    put("sim.flops", flops);
    put("sim.wall_ns_per_flop", simulate_ms * 1e6 / flops);
    put(
        "sim.inplace_sends",
        goldens.iter().map(|g| g.sim.inplace_sends).sum::<u64>() as f64,
    );
    put(
        "sim.buffered_sends",
        goldens.iter().map(|g| g.sim.buffered_sends).sum::<u64>() as f64,
    );
    put(
        "sim.ranks",
        inputs.programs.iter().map(Program::ranks).sum::<i64>() as f64,
    );

    // serve: the wire functions alone, on the lines client 0 sends and the
    // replies they get, and what the clients saw.
    let lines: Vec<String> = inputs
        .programs
        .iter()
        .map(|p| daemon::request_line("probe", &daemon::client_variant(&p.source, 0)))
        .collect();
    put(
        "serve.parse_request_us_p50",
        probe_us(PROBE_CALLS, || {
            for line in &lines {
                let _ = black_box(parse_request(black_box(line.trim_end())));
            }
        }),
    );
    let responses: Vec<CompileResponse> = inputs
        .programs
        .iter()
        .zip(goldens)
        .map(|(p, g)| process_request(&g.kept, &request(p, 1, None).code(true)))
        .collect();
    let meta = ServeMeta {
        warm: true,
        ..ServeMeta::default()
    };
    put(
        "serve.render_response_us_p50",
        probe_us(PROBE_CALLS, || {
            for r in &responses {
                black_box(render_response("probe", black_box(r), &meta));
            }
        }),
    );
    let overhead: Vec<f64> = serve
        .samples
        .iter()
        .map(|s| s.rtt_ms - s.compile_ms)
        .collect();
    let rtt: Vec<f64> = serve.samples.iter().map(|s| s.rtt_ms).collect();
    let bytes: Vec<f64> = serve.samples.iter().map(|s| s.reply_bytes as f64).collect();
    let requests: usize = serve.drawn.iter().flatten().sum();
    put("serve.wire_overhead_ms_p50", median(&overhead));
    put("serve.wire_overhead_ms_p95", quantile(&overhead, 0.95));
    put("serve.rtt_ms_p95", quantile(&rtt, 0.95));
    put("serve.rtt_ms_p99", quantile(&rtt, 0.99));
    put("serve.response_bytes_p50", median(&bytes));
    // A reply that is not warm is a failed operation, so it is no sample.
    put(
        "serve.warm_frac",
        serve.samples.len() as f64 / requests as f64,
    );
    put("serve.errors", (requests - serve.samples.len()) as f64);
    put("serve.coalesce_followers", serve.coalesce_followers as f64);

    // obs: what the collector cost and whether its spans add up.
    let reconcile = trace::reconcile(&snapshot);
    put("obs.trace_overhead_frac", traced_cold / median(&cold) - 1.0);
    put("obs.spans", snapshot.nodes.len() as f64);
    put(
        "obs.op_samples",
        ops.values().map(|s| s.calls).sum::<u64>() as f64,
    );
    put("obs.reconcile_gap_frac", reconcile.gap_frac);
    for (name, self_ms) in &reconcile.self_ms_by_name {
        detail.push((
            format!("trace.self_ms.{}", name.replace(' ', "_")),
            *self_ms,
            "ms",
        ));
    }
    detail.push(("n.traced_rounds".to_string(), traced_rounds, "count"));
    detail.push((
        "n.t2_rounds".to_string(),
        rounds.two_threads.len() as f64,
        "count",
    ));
    trace::write(w.name, &snapshot)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhpf_sim::Array;

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        assert_eq!(t.check(Ok::<_, String>(7)), Some(7));
        assert_eq!(
            t.check(Err::<u8, _>("expected by the test".to_string())),
            None
        );
        assert_eq!((t.attempted, t.failed), (2, 1));
    }

    #[test]
    fn verify_rejects_a_wrong_element_a_nan_and_a_wrong_scalar() {
        let array = |v: f64| {
            let mut a = Array::new(vec![(1, 2)]);
            a.data = vec![1.0, v];
            a
        };
        let mut serial = Store::new();
        serial.arrays.insert("a".to_string(), array(2.0));
        serial.floats.insert("s".to_string(), 1e6);
        let sim = |v: f64, s: f64| SimResult {
            time: 0.0,
            rank_times: Vec::new(),
            messages: 0,
            bytes: 0,
            comm: Vec::new(),
            floats: [("s".to_string(), s)].into_iter().collect(),
            ints: HashMap::new(),
            arrays: [("a".to_string(), array(v))].into_iter().collect(),
        };
        assert!(verify("t", &sim(2.0, 1e6), &serial).is_ok());
        assert!(verify("t", &sim(2.0 + 1e-12, 1e6 + 1e-4), &serial).is_ok());
        assert!(verify("t", &sim(2.0 + 1e-8, 1e6), &serial).is_err());
        assert!(verify("t", &sim(f64::NAN, 1e6), &serial).is_err());
        assert!(verify("t", &sim(2.0, 1e6 + 1.0), &serial).is_err());
    }
}
