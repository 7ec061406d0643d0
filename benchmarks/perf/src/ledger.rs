//! The ledger: every workload in a process of its own, the results in one
//! JSON file with the host they were taken on, and the two comparisons
//! (`--aa` of this code against itself, `--compare` of two ledgers).

use crate::digits as num;
use crate::spec::{self, Better, MetricSpec};
use crate::stats::{median, spread};
use dhpf_obs::json::{parse, Arr, Obj, Value};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    /// Untraced runs per workload, each with another seed.
    pub runs: usize,
    pub out: PathBuf,
}

/// A metric as a run reports it: `(name, value, unit)`.
type Row = (String, f64, String);

/// One child run, parsed from its last line.
struct Child {
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Row>,
    per_layer: Vec<Row>,
    detail: Vec<Row>,
}

/// Re-executes this binary for one run of one workload, so peak memory is
/// per workload and allocator state does not leak between them.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--full", "1"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    let v = parse(last)
        .map_err(|e| format!("{workload}: no result line ({e}); status {}", out.status))?;
    let count = |key: &str| v.get(key).and_then(Value::as_f64).map_or(0, |f| f as u64);
    let rows = |group: &str| -> Vec<Row> {
        let members = v.get(group).and_then(Value::as_obj).unwrap_or_default();
        members
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or_default();
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                (name.clone(), value, unit.to_string())
            })
            .collect()
    };
    Ok(Child {
        attempted: count("attempted"),
        failed: count("failed"),
        end_to_end: rows("metrics"),
        per_layer: rows("per_layer"),
        detail: rows("detail"),
    })
}

/// The results of one workload over one set of runs.
struct WorkloadResult {
    name: &'static str,
    attempted: u64,
    failed: u64,
    /// End-to-end metrics in contract order: one value per untraced run.
    end_to_end: Vec<(&'static MetricSpec, Vec<f64>)>,
    /// From the one traced run.
    per_layer: Vec<Row>,
    detail: Vec<Row>,
}

fn run_set(opts: &Options) -> Result<Vec<WorkloadResult>, String> {
    let mut set = Vec::new();
    for w in &spec::WORKLOADS {
        let mut result = WorkloadResult {
            name: w.name,
            attempted: 0,
            failed: 0,
            end_to_end: spec::END_TO_END.iter().map(|m| (m, Vec::new())).collect(),
            per_layer: Vec::new(),
            detail: Vec::new(),
        };
        // Untraced first: end-to-end numbers never come from a traced run.
        for run in 0..opts.runs {
            eprintln!("perf: {} untraced run {}/{}", w.name, run + 1, opts.runs);
            let child = run_child(w.name, opts.seed + run as u64, opts.seconds, false)?;
            result.attempted += child.attempted;
            result.failed += child.failed;
            for (m, values) in &mut result.end_to_end {
                let row = child
                    .end_to_end
                    .iter()
                    .find(|(n, _, _)| n == m.name)
                    .ok_or_else(|| format!("{}: run did not report {}", w.name, m.name))?;
                values.push(row.1);
            }
        }
        eprintln!("perf: {} traced run", w.name);
        let child = run_child(w.name, opts.seed, opts.seconds, true)?;
        result.attempted += child.attempted;
        result.failed += child.failed;
        result.per_layer = child.per_layer;
        result.detail = child.detail;
        set.push(result);
    }
    Ok(set)
}

fn command_line(program: &str, args: &[&str], dir: Option<&str>) -> String {
    let mut c = Command::new(program);
    c.args(args).stdin(Stdio::null()).stderr(Stdio::null());
    if let Some(d) = dir {
        c.current_dir(d);
    }
    c.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host the numbers were taken on.
fn host() -> Obj {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    Obj::new()
        .u64(
            "nproc",
            cpuinfo
                .lines()
                .filter(|l| l.starts_with("processor"))
                .count() as u64,
        )
        .u64(
            "available_parallelism",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .str("rustc", &command_line("rustc", &["--version"], None))
        .str(
            "git_rev",
            &command_line(
                "git",
                &["rev-parse", "HEAD"],
                Some(env!("CARGO_MANIFEST_DIR")),
            ),
        )
        .str("os", std::env::consts::OS)
        .str("arch", std::env::consts::ARCH)
}

fn named(rows: &[Row]) -> Obj {
    rows.iter().fold(Obj::new(), |o, (name, v, unit)| {
        o.obj(name, Obj::new().raw("value", &num(*v)).str("unit", unit))
    })
}

/// Relative change of `new` against `old`, signed so that positive is
/// worse. The base is `old`.
fn worsening(m: &MetricSpec, old: f64, new: f64) -> f64 {
    let change = (new - old) / old.abs();
    match m.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

fn ledger_json(opts: &Options, set: &[WorkloadResult], aa: Option<&[WorkloadResult]>) -> String {
    let mut workloads = Obj::new();
    for (i, r) in set.iter().enumerate() {
        let mut e2e = Obj::new();
        for (k, (m, values)) in r.end_to_end.iter().enumerate() {
            let mut o = Obj::new()
                .str("unit", m.unit)
                .str("better", m.better.as_str())
                .raw("bound", &num(m.bound.unwrap_or(0.0)))
                .bool("exact", m.exact)
                .raw("median", &num(median(values)))
                .raw("spread", &num(spread(values)))
                .arr(
                    "values",
                    values.iter().fold(Arr::new(), |a, v| a.raw(&num(*v))),
                );
            if let Some(second) = aa {
                let again = median(&second[i].end_to_end[k].1);
                o = o
                    .raw("aa_median", &num(again))
                    .raw("aa_worsening", &num(worsening(m, median(values), again)));
            }
            e2e = e2e.obj(m.name, o);
        }
        workloads = workloads.obj(
            r.name,
            Obj::new()
                .u64("attempted", r.attempted)
                .u64("failed", r.failed)
                .obj("end_to_end", e2e)
                .obj("per_layer", named(&r.per_layer))
                .obj("detail", named(&r.detail)),
        );
    }
    let mut text = Obj::new()
        .str("schema", "dhpf-perf-ledger-v1")
        .obj("host", host())
        .u64("seed", opts.seed)
        .raw("seconds", &num(opts.seconds))
        .u64("runs", opts.runs as u64)
        .obj("workloads", workloads)
        .finish();
    text.push('\n');
    text
}

fn print_set(set: &[WorkloadResult]) {
    for r in set {
        println!(
            "{}: {} operations attempted, {} failed",
            r.name, r.attempted, r.failed
        );
        for (m, values) in &r.end_to_end {
            println!(
                "  {:<34} {:>16} {:<9} n={} spread {:.4} bound {}",
                m.name,
                num(median(values)),
                m.unit,
                values.len(),
                spread(values),
                num(m.bound.unwrap_or(0.0)),
            );
        }
        for (name, v, unit) in r.per_layer.iter().chain(&r.detail) {
            println!("  {name:<34} {:>16} {unit}", num(*v));
        }
    }
}

fn write(opts: &Options, text: &str) -> Result<(), String> {
    if let Some(dir) = opts.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&opts.out, text).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    println!("ledger written to {}", opts.out.display());
    Ok(())
}

fn exit_for(failed_ops: u64, regressions: usize) -> ExitCode {
    if failed_ops == 0 && regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, `runs` untraced runs and one traced run each.
pub fn collect_and_write(opts: &Options) -> Result<ExitCode, String> {
    let set = run_set(opts)?;
    print_set(&set);
    write(opts, &ledger_json(opts, &set, None))?;
    Ok(exit_for(set.iter().map(|r| r.failed).sum(), 0))
}

/// The whole set twice on the same code: any end-to-end median of the
/// second set worse than the first by more than its bound is a failure of
/// the benchmark, not of the program.
pub fn aa(opts: &Options) -> Result<ExitCode, String> {
    let first = run_set(opts)?;
    let second = run_set(opts)?;
    print_set(&first);
    println!("A/A: second set against the first (base: first set)");
    let mut over = 0;
    for (a, b) in first.iter().zip(&second) {
        for ((m, va), (_, vb)) in a.end_to_end.iter().zip(&b.end_to_end) {
            let (ma, mb) = (median(va), median(vb));
            let worse = worsening(m, ma, mb);
            let bound = m.bound.unwrap_or(0.0);
            let ok = if m.exact {
                ma == mb
            } else {
                worse.abs() <= bound
            };
            over += usize::from(!ok);
            println!(
                "  {:<15} {:<22} {:>14} -> {:>14} {:<9} worse by {:+.4} bound {} {}",
                a.name,
                m.name,
                num(ma),
                num(mb),
                m.unit,
                worse,
                num(bound),
                if ok { "ok" } else { "OVER" },
            );
        }
    }
    write(opts, &ledger_json(opts, &first, Some(&second)))?;
    let failed = first.iter().chain(&second).map(|r| r.failed).sum();
    Ok(exit_for(failed, over))
}

/// The verdict on one metric of one workload between two ledgers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the medians cannot tell.
    Unresolved,
}

pub fn verdict(m: &MetricSpec, old: f64, new: f64, spread_old: f64, spread_new: f64) -> Verdict {
    if m.exact {
        return match worsening(m, old, new) {
            _ if old == new => Verdict::Same,
            w if w > 0.0 => Verdict::Worse,
            _ => Verdict::Better,
        };
    }
    let bound = m.bound.unwrap_or(0.0);
    let worse = worsening(m, old, new);
    if spread_old.max(spread_new) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn read_ledger(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if v.get("schema").and_then(Value::as_str) != Some("dhpf-perf-ledger-v1") {
        return Err(format!("{path}: not a dhpf-perf-ledger-v1 file"));
    }
    Ok(v)
}

/// One row per workload and metric: both medians, the ratio new/old, and
/// the verdict. Per-layer rows carry no bound, so they get no verdict
/// beyond `changed` for a count that repeats exactly.
pub fn compare(old_path: &str, new_path: &str) -> Result<ExitCode, String> {
    let (old, new) = (read_ledger(old_path)?, read_ledger(new_path)?);
    println!("base (old): {old_path}; new: {new_path}; ratio = new / old");
    let mut worse = 0;
    for w in &spec::WORKLOADS {
        let side = |v: &Value, group: &str, name: &str, field: &str| {
            v.get("workloads")?
                .get(w.name)?
                .get(group)?
                .get(name)?
                .get(field)?
                .as_f64()
        };
        for m in &spec::END_TO_END {
            let get = |v: &Value, field: &str| side(v, "end_to_end", m.name, field);
            let (Some(a), Some(b)) = (get(&old, "median"), get(&new, "median")) else {
                println!("  {:<15} {:<34} missing", w.name, m.name);
                continue;
            };
            let verdict = verdict(
                m,
                a,
                b,
                get(&old, "spread").unwrap_or(0.0),
                get(&new, "spread").unwrap_or(0.0),
            );
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "  {:<15} {:<34} {:>14} {:>14} {:<9} x{:.4} {}",
                w.name,
                m.name,
                num(a),
                num(b),
                m.unit,
                b / a,
                format!("{verdict:?}").to_lowercase(),
            );
        }
        for m in &spec::PER_LAYER {
            let get = |v: &Value| side(v, "per_layer", m.name, "value");
            let (Some(a), Some(b)) = (get(&old), get(&new)) else {
                continue;
            };
            let note = if m.exact && a != b { "changed" } else { "" };
            println!(
                "  {:<15} {:<34} {:>14} {:>14} {:<9} x{:.4} {note}",
                w.name,
                m.name,
                num(a),
                num(b),
                m.unit,
                b / a,
            );
        }
    }
    Ok(exit_for(0, worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let rps = spec::end_to_end("serve_rps").unwrap();
        let cold = spec::end_to_end("compile_cold_ms_p50").unwrap();
        let ops = spec::end_to_end("compile_set_ops").unwrap();
        assert_eq!(verdict(cold, 100.0, 120.0, 0.01, 0.01), Verdict::Same);
        assert_eq!(verdict(cold, 100.0, 130.0, 0.01, 0.01), Verdict::Worse);
        assert_eq!(verdict(cold, 100.0, 70.0, 0.01, 0.01), Verdict::Better);
        assert_eq!(verdict(cold, 100.0, 70.0, 0.01, 0.3), Verdict::Unresolved);
        // Higher is better for throughput.
        assert_eq!(verdict(rps, 100.0, 70.0, 0.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(rps, 100.0, 130.0, 0.0, 0.0), Verdict::Better);
        // Exact metrics compare with ==, whatever the spread says.
        assert_eq!(verdict(ops, 65031.0, 65031.0, 0.5, 0.5), Verdict::Same);
        assert_eq!(verdict(ops, 65031.0, 65032.0, 0.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(ops, 65031.0, 21000.0, 0.0, 0.0), Verdict::Better);
    }

    #[test]
    fn emitted_ledger_parses() {
        let opts = Options {
            seed: 1,
            seconds: 15.0,
            runs: 2,
            out: PathBuf::from("unused"),
        };
        let result = |shift: f64| WorkloadResult {
            name: "sp_sym_cold",
            attempted: 10,
            failed: 0,
            end_to_end: spec::END_TO_END
                .iter()
                .map(|m| (m, vec![1.5 + shift, 2.25 + shift]))
                .collect(),
            per_layer: vec![("hpf.units".to_string(), 1.0, "count".to_string())],
            detail: vec![("n.cold_rounds".to_string(), f64::NAN, "count".to_string())],
        };
        let text = ledger_json(&opts, &[result(0.0)], Some(&[result(0.125)]));
        let v = parse(&text).expect("ledger parses");
        let w = v.get("workloads").unwrap().get("sp_sym_cold").unwrap();
        let cold = w
            .get("end_to_end")
            .unwrap()
            .get("compile_cold_ms_p50")
            .unwrap();
        assert_eq!(cold.get("median").unwrap().as_f64(), Some(1.875));
        assert_eq!(cold.get("aa_median").unwrap().as_f64(), Some(2.0));
        assert_eq!(cold.get("values").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            w.get("detail")
                .unwrap()
                .get("n.cold_rounds")
                .unwrap()
                .get("value"),
            Some(&Value::Null)
        );
        assert!(v
            .get("host")
            .unwrap()
            .get("available_parallelism")
            .is_some());
    }
}
