//! Figure 7: speedups for TOMCATV, ERLEBACHER, and JACOBI on the simulated
//! message-passing machine, for two problem sizes each, relative to the
//! one-processor run (T(1)/T(P)).

use dhpf_core::{compile, CompileOptions, Compiled};
use dhpf_obs::Collector;
use dhpf_sim::{run_serial, simulate_with, MachineModel, RankComm, SimResult, Store};
use std::collections::HashMap;

/// One speedup curve: a benchmark at one problem size.
#[derive(Debug)]
pub struct Curve {
    /// Benchmark name.
    pub bench: String,
    /// Problem-size label (e.g. "257x257").
    pub size: String,
    /// `(processors, simulated time seconds, speedup)` points.
    pub points: Vec<(i64, f64, f64)>,
    /// Message/byte counts at the largest P (communication profile).
    pub messages: u64,
    /// Total payload bytes at the largest P.
    pub bytes: u64,
    /// Per-rank communication activity at the largest P.
    pub comm: Vec<RankComm>,
}

/// Grid shapes per benchmark: maps total P to per-dimension counts.
fn grid_for(bench: &str, p: i64) -> Vec<i64> {
    match bench {
        // Paper: JACOBI on a 2D (2, P/2) grid; 1D otherwise. The first
        // grid dimension is fixed at 2 processors, so the smallest
        // configuration is 2 ranks.
        "JACOBI" => vec![2, (p / 2).max(1)],
        _ => vec![p],
    }
}

/// Runs one curve under the base [`CompileOptions`] (threads, deadline,
/// …). `size` rewrites the source's `parameter` line so the array extents
/// match the problem size. With a trace collector, the compilation and
/// every simulated configuration record spans (with message/byte counters)
/// on it, grouped under one `"<bench> (<size>)"` span.
///
/// Every simulated configuration is checked against the serial reference
/// run once per curve: each array element within 1e-9, each `f64` scalar
/// within 1e-9 relative.
///
/// # Panics
///
/// Panics if compilation or simulation fails (harness inputs are fixed), or
/// if a simulated run disagrees with the serial reference.
#[allow(clippy::too_many_arguments)]
pub fn curve_opts(
    bench: &str,
    src: &str,
    size_label: &str,
    size: Option<(&str, &str)>,
    inputs: &[(&str, i64)],
    procs: &[i64],
    trace: Option<&Collector>,
    base: &CompileOptions,
) -> Curve {
    let src = match size {
        Some((from, to)) => src.replace(from, to),
        None => src.to_string(),
    };
    let span = trace.map(|c| (c, c.begin(&format!("{bench} ({size_label})"), "figure7")));
    let mut opts = base.clone();
    if let Some(c) = trace {
        opts = opts.trace(c.clone());
    }
    let compiled: Compiled = compile(&src, &opts).unwrap_or_else(|e| panic!("{bench}: {e}"));
    let inputs: HashMap<String, i64> = inputs.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    let (serial, _) =
        run_serial(&compiled.analysis, &inputs).unwrap_or_else(|e| panic!("{bench}: {e}"));
    let machine = MachineModel::sp2();
    let mut points = Vec::new();
    // Speedup is p0 * T(p0) / T(p): for a 1-D grid p0 = 1 (plain speedup);
    // JACOBI's fixed 2 x (P/2) grid starts at p0 = 2, matching the paper's
    // treatment of configurations whose smallest run is parallel
    // ("speedups ... are computed relative to the 4-processor speedup").
    let mut base: Option<(i64, f64)> = None;
    let mut last = (0u64, 0u64);
    let mut comm = Vec::new();
    for &p in procs {
        let grid = grid_for(bench, p);
        let total: i64 = grid.iter().product();
        let r = simulate_with(&compiled, &grid, &inputs, &machine, trace)
            .unwrap_or_else(|e| panic!("{bench} P={p}: {e}"));
        check(&r, &serial).unwrap_or_else(|e| panic!("{bench} ({size_label}) P={p}: {e}"));
        let t = r.time;
        let (p0, t0) = *base.get_or_insert((total, t));
        if points.last().map(|&(p, _, _)| p) != Some(total) {
            points.push((total, t, p0 as f64 * t0 / t));
        }
        last = (r.messages, r.bytes);
        comm = r.comm;
    }
    if let Some((c, id)) = span {
        c.end(id);
    }
    Curve {
        bench: bench.to_string(),
        size: size_label.to_string(),
        points,
        messages: last.0,
        bytes: last.1,
        comm,
    }
}

/// Compares a simulated run with the serial reference.
fn check(r: &SimResult, serial: &Store) -> Result<(), String> {
    for (name, want) in &serial.arrays {
        let got = r
            .arrays
            .get(name)
            .ok_or_else(|| format!("array {name} missing"))?;
        if got.dims != want.dims {
            return Err(format!(
                "array {name} has bounds {:?}, want {:?}",
                got.dims, want.dims
            ));
        }
        for (k, (g, w)) in got.data.iter().zip(&want.data).enumerate() {
            if (g - w).abs() >= 1e-9 {
                return Err(format!("{name}[linear {k}] = {g}, serial reference {w}"));
            }
        }
    }
    for (name, want) in &serial.floats {
        let got = r.floats.get(name).copied().unwrap_or(f64::NAN);
        if (got - want).abs() > 1e-9 * want.abs().max(1.0) {
            return Err(format!("{name} = {got}, serial reference {want}"));
        }
    }
    Ok(())
}

/// All Figure 7 curves at harness scale, compiled under `base` — e.g. a
/// compile deadline (`--deadline-ms`), whose trips degrade the compilation
/// gracefully without changing the simulated curves' shape — with an
/// optional trace collector threaded through every compilation and
/// simulation.
///
/// Simulated sizes are scaled down from the paper's (which ran minutes on a
/// real SP-2); the *shape* of each curve is the reproduction target.
pub fn run_opts(procs: &[i64], trace: Option<&Collector>, base: &CompileOptions) -> Vec<Curve> {
    vec![
        curve_opts(
            "TOMCATV",
            crate::sources::TOMCATV,
            "129x129",
            Some(("parameter (n = 257)", "parameter (n = 129)")),
            &[("niter", 3)],
            procs,
            trace,
            base,
        ),
        curve_opts(
            "TOMCATV",
            crate::sources::TOMCATV,
            "257x257",
            None,
            &[("niter", 3)],
            procs,
            trace,
            base,
        ),
        curve_opts(
            "ERLEBACHER",
            crate::sources::ERLEBACHER,
            "32^3",
            None,
            &[],
            procs,
            trace,
            base,
        ),
        curve_opts(
            "ERLEBACHER",
            crate::sources::ERLEBACHER,
            "64^3",
            Some(("parameter (n = 32, nz = 32)", "parameter (n = 64, nz = 64)")),
            &[],
            procs,
            trace,
            base,
        ),
        curve_opts(
            "JACOBI",
            crate::sources::JACOBI,
            "128x128",
            None,
            &[("niter", 3)],
            procs,
            trace,
            base,
        ),
        curve_opts(
            "JACOBI",
            crate::sources::JACOBI,
            "256x256",
            Some(("parameter (n = 128)", "parameter (n = 256)")),
            &[("niter", 3)],
            procs,
            trace,
            base,
        ),
    ]
}

/// Renders curves as an ASCII table.
pub fn render(curves: &[Curve]) -> String {
    let mut out = String::new();
    out.push_str("Figure 7: speedups on the simulated message-passing machine\n");
    for c in curves {
        out.push_str(&format!("\n{} ({}):\n", c.bench, c.size));
        out.push_str("  P     time(s)   speedup\n");
        for (p, t, s) in &c.points {
            out.push_str(&format!("  {:<4} {:>9.4} {:>9.2}\n", p, t, s));
        }
        let inplace: u64 = c.comm.iter().map(|rc| rc.inplace_sends).sum();
        let buffered: u64 = c.comm.iter().map(|rc| rc.buffered_sends).sum();
        out.push_str(&format!(
            "  [largest P: {} messages, {} payload bytes; {} in-place / {} buffered sends]\n",
            c.messages, c.bytes, inplace, buffered
        ));
        // Per-VP activity: how evenly the communication volume spreads.
        if c.comm.len() > 1 {
            let busiest = c
                .comm
                .iter()
                .enumerate()
                .max_by_key(|(_, rc)| rc.sent_bytes)
                .map(|(k, rc)| (k, rc.sent_messages, rc.sent_bytes))
                .unwrap_or((0, 0, 0));
            let idle = c.comm.iter().filter(|rc| rc.sent_messages == 0).count();
            out.push_str(&format!(
                "  [busiest rank {}: {} msgs / {} bytes sent; {} silent rank(s)]\n",
                busiest.0, busiest.1, busiest.2, idle
            ));
        }
    }
    out
}
