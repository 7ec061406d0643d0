//! `perf`: the one perf ledger of the dhpf reproduction.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one run, one JSON line last
//! perf [--seed N] [--seconds S] [--runs N] [--out P]   every workload, writes a ledger
//! perf --aa [--runs N] ...                             two sets, compared against the bounds
//! perf --compare OLD.json NEW.json                     verdict per workload and metric
//! perf --contract                                      the text of BENCHMARK.json
//! ```
//!
//! See `README.md` beside this package for the workloads and the metrics.

mod daemon;
mod ledger;
mod spec;
mod stats;
mod trace;
mod workload;

use dhpf_obs::json::Obj;
use std::process::ExitCode;

/// The value following `flag`, if the flag is present.
fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == flag)?;
    args.get(at + 1).map(String::as_str)
}

fn number<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match value(args, flag) {
        None if args.iter().any(|a| a == flag) => Err(format!("{flag} needs a value")),
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")),
    }
}

/// A metric value with all its digits; counts print without a fraction.
fn digits(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_obj(rows: &[workload::Row]) -> Obj {
    rows.iter().fold(Obj::new(), |o, (name, v, unit)| {
        o.obj(name, Obj::new().raw("value", &digits(*v)).str("unit", unit))
    })
}

/// One run of one workload, as the driver asks for it.
fn single(args: &[String], name: &str) -> Result<ExitCode, String> {
    let w = spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let seed: u64 = number(args, "--seed", 1)?;
    let seconds: f64 = number(args, "--seconds", spec::RUN_SECONDS as f64)?;
    let traced = number::<u8>(args, "--trace", 0)? != 0;
    let full = number::<u8>(args, "--full", 0)? != 0;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: outside 0..=60"));
    }
    let r = workload::run(w, seed, seconds, traced)?;

    println!(
        "workload {} seed {seed} seconds {seconds} trace {}",
        w.name,
        u8::from(traced)
    );
    for (title, rows) in [
        ("end to end", &r.end_to_end),
        ("per layer", &r.per_layer),
        ("detail", &r.detail),
    ] {
        if !rows.is_empty() {
            println!("{title}:");
        }
        for (name, v, unit) in rows {
            println!("  {name:<34} {:>16} {unit}", digits(*v));
        }
    }
    println!(
        "operations: {} attempted, {} failed",
        r.tally.attempted, r.tally.failed
    );

    let mut line = Obj::new()
        .bool("correct", r.tally.failed == 0)
        .u64("attempted", r.tally.attempted)
        .u64("failed", r.tally.failed);
    line = if full {
        line.obj("metrics", metrics_obj(&r.end_to_end))
            .obj("per_layer", metrics_obj(&r.per_layer))
            .obj("detail", metrics_obj(&r.detail))
    } else if traced {
        line.obj("metrics", metrics_obj(&r.per_layer))
    } else {
        line.obj("metrics", metrics_obj(&r.end_to_end))
    };
    println!("{}", line.finish());
    Ok(if r.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    if args.iter().any(|a| a == "--contract") {
        print!("{}", spec::contract_json());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(at) = args.iter().position(|a| a == "--compare") {
        return match (args.get(at + 1), args.get(at + 2)) {
            (Some(old), Some(new)) => ledger::compare(old, new),
            _ => Err("--compare needs OLD.json NEW.json".to_string()),
        };
    }
    if let Some(name) = value(args, "--workload") {
        return single(args, name);
    }
    let opts = ledger::Options {
        seed: number(args, "--seed", 1)?,
        seconds: number(args, "--seconds", spec::RUN_SECONDS as f64)?,
        runs: number::<usize>(args, "--runs", 1)?.max(1),
        out: value(args, "--out").map_or_else(|| trace::out_dir().join("ledger.json"), Into::into),
    };
    if args.iter().any(|a| a == "--aa") {
        ledger::aa(&opts)
    } else {
        ledger::collect_and_write(&opts)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(why) => {
            // No result line: the run did not measure anything.
            eprintln!("perf: {why}");
            ExitCode::from(2)
        }
    }
}
