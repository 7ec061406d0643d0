//! Self time of the benchmark's spans and where the trace is written.

use dhpf_obs::{export, Trace};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Where traces and ledgers go: `out/` beside this package's manifest,
/// inside the checkout that built the binary.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Self time of a span: its duration minus the part of that interval its
/// children cover. Children are clipped to the parent and overlapping
/// children are counted once, so a parent never goes negative.
/// `children` are `(start, end)` pairs in any order.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(start, end), e.clamp(start, end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let from = s.max(reach);
        if e > from {
            covered += e - from;
            reach = e;
        }
    }
    (end - start) - covered
}

/// How well the span tree adds up.
pub struct Reconcile {
    /// |Σ self time − Σ root durations| / Σ root durations. Zero when no
    /// two children of a span overlap; anything else is time counted
    /// twice or spans that outlive their parent.
    pub gap_frac: f64,
    /// Self time in milliseconds summed per span name, sorted by name.
    pub self_ms_by_name: BTreeMap<String, f64>,
}

pub fn reconcile(trace: &Trace) -> Reconcile {
    let mut by_name: BTreeMap<String, f64> = BTreeMap::new();
    let (mut self_total, mut root_total) = (0u64, 0u64);
    for n in &trace.nodes {
        let children: Vec<(u64, u64)> = n
            .children
            .iter()
            .map(|&c| {
                let c = &trace.nodes[c];
                (c.start_ns, c.start_ns + c.dur_ns)
            })
            .collect();
        let own = self_time(n.start_ns, n.start_ns + n.dur_ns, &children);
        self_total += own;
        if n.parent.is_none() {
            root_total += n.dur_ns;
        }
        *by_name.entry(n.name.clone()).or_default() += own as f64 / 1e6;
    }
    Reconcile {
        gap_frac: if root_total == 0 {
            0.0
        } else {
            self_total.abs_diff(root_total) as f64 / root_total as f64
        },
        self_ms_by_name: by_name,
    }
}

/// Writes the spans, kept in memory until now, as JSON lines.
pub fn write(workload: &str, trace: &Trace) -> Result<(), String> {
    let dir = out_dir();
    let path = dir.join(format!("trace-{workload}.jsonl"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, export::to_json_lines(trace)))
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhpf_obs::Collector;

    #[test]
    fn self_time_subtracts_covered_part_once() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 30), (50, 60)]), 70);
        // Overlapping children count once; order does not matter.
        assert_eq!(self_time(0, 100, &[(40, 80), (10, 50)]), 30);
        // Children are clipped to the parent.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time(10, 20, &[(0, 100)]), 0);
        assert_eq!(self_time(10, 20, &[(30, 40), (5, 5)]), 10);
    }

    #[test]
    fn nested_spans_reconcile() {
        let c = Collector::new();
        let op = c.begin("op", "bench");
        c.span("child", "bench", || {
            c.span("grandchild", "bench", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        c.end(op);
        let r = reconcile(&c.trace());
        assert!(r.gap_frac < 1e-9, "{}", r.gap_frac);
        assert!(r.self_ms_by_name["grandchild"] >= 2.0);
        assert_eq!(r.self_ms_by_name.len(), 3);
    }
}
