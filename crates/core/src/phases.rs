//! Table 1 as a view of the compile's span tree.
//!
//! A compilation records each phase once, as a `"phase"` span under its
//! `"compile"` root; [`PhaseTimers`] is read off that subtree after the
//! root closes, so a row's cumulative time is the sum of its spans and
//! [`PhaseTimers::total`] is the root's duration.
//!
//! Rows follow the first use of each phase name in a pre-order walk.
//! Nest and assembly tasks are `"task"` spans under `module compilation`;
//! the walk visits them in task-index order (the plan order of the
//! nests, whatever the schedule) and treats them as transparent, so a
//! nest's phases are children of `module compilation`. Cumulative time
//! includes nested phases, as in the paper's Table 1 where indented rows
//! refine their parents; self time subtracts them. With several workers,
//! nest rows are busy time summed across workers.

use dhpf_obs::Trace;
use std::collections::HashMap;
use std::time::Duration;

/// One row of the nested Table-1 breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseRow {
    /// Phase name.
    pub name: String,
    /// Nesting depth (0 = top level; children of "module compilation" are
    /// depth 1, and so on — matching Table 1's indentation).
    pub depth: usize,
    /// Cumulative time: includes nested child phases.
    pub cumulative: Duration,
    /// Self time: cumulative minus the time of child phases.
    pub self_time: Duration,
    /// Cumulative time as a percentage of the overall compilation.
    pub percent: f64,
}

/// Wall-clock time per named compilation phase: the rows of Table 1.
///
/// Phase times are *cumulative* (a phase includes its children, matching
/// the paper's Table 1); the nesting and self times are available through
/// [`PhaseTimers::rows_nested`].
#[derive(Clone, Debug, Default)]
pub struct PhaseTimers {
    rows: Vec<PhaseRow>,
    total: Duration,
}

/// A span's task index, if it is a task span.
fn task_index(trace: &Trace, i: usize) -> Option<i64> {
    let n = &trace.nodes[i];
    (n.cat == "task").then(|| n.counters.get("task").copied().unwrap_or(0))
}

impl PhaseTimers {
    /// The Table-1 view of one compilation's span subtree, whose node 0
    /// is the closed `"compile"` root.
    pub(crate) fn from_trace(trace: &Trace) -> Self {
        let Some(root) = trace.nodes.first() else {
            return PhaseTimers::default();
        };
        let mut names: HashMap<&str, usize> = HashMap::new();
        let mut rows: Vec<PhaseRow> = Vec::new();
        // Per row, the summed durations of its child phases.
        let mut child: Vec<Duration> = Vec::new();
        // Pre-order walk; each entry carries the row of the nearest
        // non-transparent ancestor (None under the root).
        let mut stack: Vec<(usize, Option<usize>)> = Vec::new();
        let push_children = |stack: &mut Vec<(usize, Option<usize>)>, i: usize, row| {
            let mut kids = trace.nodes[i].children.clone();
            kids.sort_by_key(|&c| task_index(trace, c));
            stack.extend(kids.into_iter().rev().map(|c| (c, row)));
        };
        push_children(&mut stack, 0, None);
        while let Some((i, parent)) = stack.pop() {
            if task_index(trace, i).is_some() {
                push_children(&mut stack, i, parent);
                continue;
            }
            let n = &trace.nodes[i];
            let row = *names.entry(n.name.as_str()).or_insert_with(|| {
                rows.push(PhaseRow {
                    name: n.name.clone(),
                    depth: parent.map_or(0, |p: usize| rows[p].depth + 1),
                    cumulative: Duration::ZERO,
                    self_time: Duration::ZERO,
                    percent: 0.0,
                });
                child.push(Duration::ZERO);
                rows.len() - 1
            });
            let dur = Duration::from_nanos(n.dur_ns);
            rows[row].cumulative += dur;
            if let Some(p) = parent {
                child[p] += dur;
            }
            push_children(&mut stack, i, Some(row));
        }
        let total = Duration::from_nanos(root.dur_ns);
        let total_s = total.as_secs_f64().max(1e-12);
        for (r, child) in rows.iter_mut().zip(child) {
            r.self_time = r.cumulative.saturating_sub(child);
            r.percent = 100.0 * r.cumulative.as_secs_f64() / total_s;
        }
        PhaseTimers { rows, total }
    }

    /// Total compilation time: the `"compile"` root span's duration.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Cumulative time accumulated under `name` (includes child phases).
    pub fn phase(&self, name: &str) -> Duration {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map_or(Duration::ZERO, |r| r.cumulative)
    }

    /// `(phase, cumulative time, percent-of-total)` rows in first-use
    /// order — the flat view.
    pub fn rows(&self) -> Vec<(String, Duration, f64)> {
        self.rows
            .iter()
            .map(|r| (r.name.clone(), r.cumulative, r.percent))
            .collect()
    }

    /// Nested rows: first-use order with explicit depth, cumulative time,
    /// and self time — child rows are the ones with `depth > 0`, matching
    /// Table 1's indented rows.
    pub fn rows_nested(&self) -> Vec<PhaseRow> {
        self.rows.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhpf_obs::{Collector, SpanNode};

    /// The view of a closed span tree given one span per entry, in
    /// creation order, as `"{'>' per level}{name} {ms}"`: the first entry
    /// is the `"compile"` root, and `"nest N"` is the task span of task N.
    fn view(spans: &[&str]) -> PhaseTimers {
        let mut nodes: Vec<SpanNode> = Vec::new();
        let mut path: Vec<usize> = Vec::new();
        for (i, line) in spans.iter().enumerate() {
            let (name, ms) = line.trim_start_matches('>').rsplit_once(' ').unwrap();
            let task: Option<i64> = name.strip_prefix("nest ").map(|n| n.parse().unwrap());
            path.truncate(line.len() - line.trim_start_matches('>').len());
            let parent = path.last().copied();
            nodes.push(SpanNode {
                name: name.to_string(),
                cat: if task.is_some() { "task" } else { "phase" },
                parent,
                dur_ns: ms.parse::<u64>().unwrap() * 1_000_000,
                counters: task.map(|t| ("task".to_string(), t)).into_iter().collect(),
                ..SpanNode::default()
            });
            if let Some(p) = parent {
                nodes[p].children.push(i);
            }
            path.push(i);
        }
        PhaseTimers::from_trace(&Trace { nodes })
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// `(name, depth, cumulative ms, self ms)` per row.
    fn shape(t: &PhaseTimers) -> Vec<(String, usize, u64, u64)> {
        let ms = |d: Duration| d.as_millis() as u64;
        let rows = t.rows_nested().into_iter();
        rows.map(|r| (r.name, r.depth, ms(r.cumulative), ms(r.self_time)))
            .collect()
    }

    fn rows(expect: &[(&str, usize, u64, u64)]) -> Vec<(String, usize, u64, u64)> {
        expect
            .iter()
            .map(|&(n, d, c, s)| (n.to_string(), d, c, s))
            .collect()
    }

    #[test]
    fn accumulates_across_calls() {
        let t = view(&["compile 10", ">a 2", ">a 2", ">b 0"]);
        assert_eq!(t.total(), ms(10));
        assert_eq!(shape(&t), rows(&[("a", 0, 4, 4), ("b", 0, 0, 0)]));
        assert_eq!(t.rows()[0].2, 40.0);
    }

    #[test]
    fn nesting_supported() {
        let t = view(&["compile 4", ">outer 3", ">>inner 1"]);
        assert_eq!(shape(&t), rows(&[("outer", 0, 3, 2), ("inner", 1, 1, 1)]));
    }

    #[test]
    fn self_time_excludes_children() {
        let t = view(&["compile 6", ">outer 5", ">>inner 4"]);
        assert_eq!(shape(&t), rows(&[("outer", 0, 5, 1), ("inner", 1, 4, 4)]));
    }

    /// A span a producer timed itself (`Collector::record_span`) is a
    /// child of the open phase like any other.
    #[test]
    fn add_nests_under_open_phase() {
        let c = Collector::new();
        let root = c.begin("compile", "compile");
        c.span("outer", "phase", || {
            c.record_span("measured", "phase", ms(2))
        });
        c.end(root);
        let t = PhaseTimers::from_trace(&c.subtree(root));
        let rows = t.rows_nested();
        assert_eq!((rows[1].name.as_str(), rows[1].depth), ("measured", 1));
        assert_eq!(t.phase("measured"), ms(2));
    }

    #[test]
    fn repeated_nested_phase_not_double_counted_in_self() {
        let t = view(&["compile 6", ">p 5", ">>c 2", ">>c 2"]);
        assert_eq!(shape(&t), rows(&[("p", 0, 5, 1), ("c", 1, 4, 4)]));
    }

    /// Task spans are transparent: a nest's top-level phases become
    /// children of the phase the task hangs under, tasks are read in task
    /// order whatever order they ran in, and a phase repeated across
    /// nests is one row.
    #[test]
    fn merge_adopts_top_level_phases_under_anchor() {
        let t = view(&[
            "compile 20",
            ">module compilation 12",
            ">>layout construction 1",
            ">>nest 1 3",
            ">>>late 2",
            ">>nest 0 4",
            ">>>placement 3",
            ">>>>cp 2",
            ">>nest 2 4",
            ">>>placement 3",
        ]);
        let expect = [
            ("module compilation", 0, 12, 3),
            ("layout construction", 1, 1, 1),
            ("placement", 1, 6, 4),
            ("cp", 2, 2, 2),
            ("late", 1, 2, 2),
        ];
        assert_eq!(shape(&t), rows(&expect));
    }

    /// A compile's phases are spans of the caller's collector, and its
    /// rows are read from them.
    #[test]
    fn collector_receives_phase_spans() {
        let c = Collector::new();
        let src = "program p\nreal a(8)\na(1) = 0.0\nend\n";
        let compiled = crate::compile(src, &crate::CompileOptions::new().trace(c.clone())).unwrap();
        let trace = c.trace();
        for row in compiled.report.timers.rows_nested() {
            let spans = trace.nodes.iter().filter(|n| n.name == row.name);
            assert!(spans.clone().all(|n| n.cat == "phase" && !n.open));
            let ns: u64 = spans.map(|n| n.dur_ns).sum();
            assert_eq!(row.cumulative, Duration::from_nanos(ns), "{}", row.name);
        }
    }
}
