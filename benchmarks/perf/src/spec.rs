//! The fixed part of the ledger: workloads, metric names, units, bounds,
//! and the `BENCHMARK.json` contract generated from them.

use dhpf_obs::json::{escape, Arr, Obj};

/// How long one run measures, in seconds, unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 15;

/// One input program of a workload.
#[derive(Clone, Copy, Debug)]
pub struct ProgramSpec {
    /// Short key, used in per-source metric names and wire ids.
    pub key: &'static str,
    /// The frozen source text under `inputs/`.
    pub source: &'static str,
    /// `(from, to)` rewrites applied to the source at set-up.
    pub rewrites: &'static [(&'static str, &'static str)],
    /// Processor grid the generated program is simulated on.
    pub grid: &'static [i64],
    /// `read *` inputs of the program.
    pub inputs: &'static [(&'static str, i64)],
}

const SP_SRC: &str = include_str!("../inputs/sp.hpf");

pub const JACOBI: ProgramSpec = ProgramSpec {
    key: "jacobi",
    source: include_str!("../inputs/jacobi.hpf"),
    rewrites: &[],
    grid: &[2, 1],
    inputs: &[("niter", 3)],
};
pub const TOMCATV: ProgramSpec = ProgramSpec {
    key: "tomcatv",
    source: include_str!("../inputs/tomcatv.hpf"),
    rewrites: &[("parameter (n = 257)", "parameter (n = 129)")],
    grid: &[2],
    inputs: &[("niter", 3)],
};
pub const ERLEBACHER: ProgramSpec = ProgramSpec {
    key: "erlebacher",
    source: include_str!("../inputs/erlebacher.hpf"),
    rewrites: &[],
    grid: &[2],
    inputs: &[],
};
pub const SP4: ProgramSpec = ProgramSpec {
    key: "sp4",
    source: SP_SRC,
    rewrites: &[],
    grid: &[2, 2],
    inputs: &[("n", 34), ("niter", 1)],
};
pub const SPSYM: ProgramSpec = ProgramSpec {
    key: "spsym",
    source: SP_SRC,
    rewrites: &[(
        "!HPF$ processors p(2, 2)",
        "!HPF$ processors p(2, number_of_processors())",
    )],
    grid: &[2, 1],
    inputs: &[("n", 34), ("niter", 1)],
};

/// A workload: a program set and how the measured time is divided among
/// the three timed phases. Every workload runs every phase, so every
/// metric is defined on every workload; the shares decide which layer the
/// run leans on.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub programs: &'static [ProgramSpec],
    /// Share of the measured time spent in cold rounds (fresh `Context`
    /// per compile), warm repeats and daemon traffic; they sum to 1.
    pub share_rounds: f64,
    pub share_warm: f64,
    pub share_serve: f64,
    /// Every `sim_every`-th round also simulates and verifies what it
    /// compiled (1 = every round).
    pub sim_every: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sp_sym_cold",
        why: "SP with symbolic P: the VP model and loops over comm partners; core.comm is ~85% of a cold compile and omega runs ~65k memo-miss ops",
        programs: &[SPSYM],
        share_rounds: 0.65,
        share_warm: 0.10,
        share_serve: 0.25,
        sim_every: 3,
    },
    Workload {
        name: "sp4_cold",
        why: "SP on the shipped 2x2 grid: the same layers on constants, no VP sets; the paper claims sym ~ fixed, so a gain for one that costs the other shows here",
        programs: &[SP4],
        share_rounds: 0.65,
        share_warm: 0.10,
        share_serve: 0.25,
        sim_every: 3,
    },
    Workload {
        name: "stencil_run",
        why: "JACOBI, TOMCATV, ERLEBACHER compiled cold then run on 2 ranks (Fig. 7 path): sim is ~83% of a round, so it bypasses comm generation",
        programs: &[JACOBI, TOMCATV, ERLEBACHER],
        share_rounds: 0.80,
        share_warm: 0.05,
        share_serve: 0.15,
        sim_every: 1,
    },
    Workload {
        name: "serve_warm_mix",
        why: "daemon steady state: 2 closed-loop clients draw from five pre-warmed sources, so memo hits, lock contention, parse, render and the wire set the numbers",
        programs: &[JACOBI, TOMCATV, ERLEBACHER, SP4, SPSYM],
        share_rounds: 0.45,
        share_warm: 0.05,
        share_serve: 0.50,
        sim_every: 2,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric of the contract. `bound` is `Some` for end-to-end metrics:
/// the share of the parent's median by which it may worsen.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    /// Repeats exactly on the same code (licensed by the determinism
    /// check), so `--compare` uses `==`.
    pub exact: bool,
}

/// The bound of an exact metric: positive, as the contract's field is a
/// share, and smaller than one unit of the largest count reported, so any
/// change at all exceeds it.
const EXACT: f64 = 0.000001;

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn e2e_exact(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: Some(EXACT),
        exact: true,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: [MetricSpec; 12] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("compile_cold_ms_p50", "ms", Lower, 0.25),
    e2e("compile_warm_ms_p50", "ms", Lower, 0.25),
    e2e_exact("compile_set_ops", "count"),
    e2e_exact("code_bytes", "bytes"),
    // Time of the α/β machine model, not wall time: it repeats exactly,
    // hence its own unit.
    e2e_exact("sim_time_ms", "model_ms"),
    e2e_exact("sim_messages", "count"),
    e2e_exact("sim_bytes", "bytes"),
    e2e("run_wall_ms_p50", "ms", Lower, 0.25),
    e2e("serve_rps", "req/s", Higher, 0.25),
    e2e("serve_rtt_ms_p50", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

pub const PER_LAYER: [MetricSpec; 66] = [
    // hpf
    layer("hpf.parse_us_p50", "us", Lower),
    layer("hpf.analyze_us_p50", "us", Lower),
    count("hpf.source_bytes", "bytes", Lower),
    count("hpf.units", "count", Lower),
    // core
    layer("core.layout_ms", "ms", Lower),
    layer("core.cp_ms", "ms", Lower),
    layer("core.split_ms", "ms", Lower),
    layer("core.bounds_ms", "ms", Lower),
    layer("core.comm_ms", "ms", Lower),
    layer("core.comm_partners_ms", "ms", Lower),
    layer("core.contig_ms", "ms", Lower),
    layer("core.comm_share", "ratio", Lower),
    count("core.comm_events", "count", Lower),
    count("core.vectorized_events", "count", Higher),
    count("core.coalesced_groups", "count", Higher),
    count("core.contiguous_events", "count", Higher),
    count("core.split_nests", "count", Higher),
    count("core.degradations", "count", Lower),
    layer("core.cold_ms_iqr", "ms", Lower),
    layer("core.t2_cold_ms_p50", "ms", Lower),
    layer("core.t2_speedup", "ratio", Higher),
    // omega
    count("omega.sat_misses", "count", Lower),
    count("omega.fme_misses", "count", Lower),
    count("omega.negate_misses", "count", Lower),
    count("omega.gist_misses", "count", Lower),
    count("omega.simplify_misses", "count", Lower),
    count("omega.sat_hits", "count", Higher),
    count("omega.fme_hits", "count", Higher),
    count("omega.negate_hits", "count", Higher),
    count("omega.gist_hits", "count", Higher),
    count("omega.simplify_hits", "count", Higher),
    count("omega.interned_conjuncts", "count", Lower),
    count("omega.evictions", "count", Lower),
    layer("omega.hit_rate", "ratio", Higher),
    count("omega.warm_hits", "count", Higher),
    count("omega.warm_misses", "count", Lower),
    layer("omega.sat_ms", "ms", Lower),
    layer("omega.fme_ms", "ms", Lower),
    layer("omega.negate_ms", "ms", Lower),
    layer("omega.simplify_ms", "ms", Lower),
    layer("omega.ops_share", "ratio", Lower),
    // codegen
    layer("codegen.mm_ms", "ms", Lower),
    layer("codegen.render_us_p50", "us", Lower),
    count("codegen.code_lines", "count", Lower),
    // sim
    layer("sim.simulate_wall_ms_p50", "ms", Lower),
    layer("sim.serial_wall_ms", "ms", Lower),
    layer("sim.slowdown_vs_serial", "ratio", Lower),
    count("sim.flops", "count", Lower),
    layer("sim.wall_ns_per_flop", "ns", Lower),
    count("sim.inplace_sends", "count", Higher),
    count("sim.buffered_sends", "count", Lower),
    count("sim.ranks", "count", Lower),
    // serve
    layer("serve.parse_request_us_p50", "us", Lower),
    layer("serve.render_response_us_p50", "us", Lower),
    layer("serve.wire_overhead_ms_p50", "ms", Lower),
    layer("serve.wire_overhead_ms_p95", "ms", Lower),
    layer("serve.rtt_ms_p95", "ms", Lower),
    layer("serve.rtt_ms_p99", "ms", Lower),
    layer("serve.response_bytes_p50", "bytes", Lower),
    layer("serve.warm_frac", "ratio", Higher),
    count("serve.errors", "count", Lower),
    layer("serve.coalesce_followers", "count", Higher),
    // obs
    layer("obs.trace_overhead_frac", "ratio", Lower),
    layer("obs.spans", "count", Lower),
    layer("obs.op_samples", "count", Lower),
    layer("obs.reconcile_gap_frac", "ratio", Lower),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The text of `BENCHMARK.json`: the contract the driver reads.
pub fn contract_json() -> String {
    let command = Arr::new()
        .str("cargo")
        .str("run")
        .str("--release")
        .str("--offline")
        .str("--quiet")
        .str("--manifest-path")
        .str("benchmarks/perf/Cargo.toml")
        .str("--");
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": {},\n", command.finish()));
    out.push_str("  \"paths\": [\"benchmarks/perf\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |items: Vec<String>| items.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "    {}",
                    Obj::new().str("name", w.name).str("why", w.why).finish()
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\":{},\"unit\":{},\"better\":{},\"bound\":{}}}",
                    escape(m.name),
                    escape(m.unit),
                    escape(m.better.as_str()),
                    m.bound.expect("end-to-end metrics carry a bound")
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {}",
                    Obj::new()
                        .str("name", m.name)
                        .str("unit", m.unit)
                        .str("better", m.better.as_str())
                        .finish()
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhpf_obs::json::parse;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn contract_meets_the_stated_limits() {
        let text = contract_json();
        assert!(text.len() <= 64 * 1024);
        let v = parse(&text).expect("contract parses");
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let mut names = HashSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && names.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            let total = w.share_rounds + w.share_warm + w.share_serve;
            assert!((total - 1.0).abs() < 1e-9);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in &END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.unwrap() <= setup.bound.unwrap()));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn committed_contract_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            contract_json(),
            "regenerate with `perf --contract`"
        );
    }
}
