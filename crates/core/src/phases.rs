//! Compilation phase timing (the instrumentation behind Table 1).
//!
//! Phases form a tree: `time`/`open`/`close` maintain an explicit stack, so
//! every phase knows its parent and the accounting distinguishes
//! **cumulative** time (includes children — what the paper's Table 1 rows
//! report, with indented rows refining their parents) from **self** time
//! (children subtracted). The old flat map double-counted nested phases
//! with no way to tell; [`PhaseTimers::rows_nested`] now exposes the
//! linkage explicitly.
//!
//! When a [`dhpf_obs::Collector`] is attached, every phase also opens a
//! span in the shared trace, so Omega set-operation metrics recorded by the
//! `Context` during a phase are attributed to that phase's span.

use dhpf_obs::{Collector, SpanId};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

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
    /// Self time: cumulative minus the time of closed child phases.
    pub self_time: Duration,
    /// Cumulative time as a percentage of the overall compilation.
    pub percent: f64,
}

/// Accumulated wall-clock time per named compilation phase.
///
/// Phase times are *cumulative* (a phase includes its children, matching
/// the paper's Table 1); the parent/child linkage and self times are
/// available through [`PhaseTimers::rows_nested`] and
/// [`PhaseTimers::self_time`].
#[derive(Clone, Debug, Default)]
pub struct PhaseTimers {
    totals: BTreeMap<String, Duration>,
    /// Per phase: total time of its *closed children*, for self-time.
    child_time: BTreeMap<String, Duration>,
    /// First-seen parent of each phase (None = top level).
    parent: BTreeMap<String, Option<String>>,
    order: Vec<String>,
    /// Currently open phases, outermost first.
    stack: Vec<String>,
    start: Option<Instant>,
    overall: Duration,
    /// Attached trace collector and the span ids of the open phases
    /// (parallel to `stack`).
    obs: Option<Collector>,
    spans: Vec<SpanId>,
}

impl PhaseTimers {
    /// Creates an empty set of timers and starts the overall clock.
    pub fn new() -> Self {
        PhaseTimers {
            start: Some(Instant::now()),
            ..Default::default()
        }
    }

    /// Attaches a trace collector: every phase subsequently opened also
    /// opens a `"phase"` span in `c`'s tree.
    pub fn attach_collector(&mut self, c: Collector) {
        self.obs = Some(c);
    }

    /// The attached trace collector, if any.
    pub fn collector(&self) -> Option<&Collector> {
        self.obs.as_ref()
    }

    /// Opens the phase `name` (nested under the innermost open phase).
    /// Pair with [`PhaseTimers::close`]; prefer [`PhaseTimers::time`] when
    /// borrowing allows.
    pub fn open(&mut self, name: &str) {
        if !self.totals.contains_key(name) {
            self.order.push(name.to_string());
            self.totals.insert(name.to_string(), Duration::ZERO);
            self.parent
                .insert(name.to_string(), self.stack.last().cloned());
        }
        self.stack.push(name.to_string());
        if let Some(c) = &self.obs {
            self.spans.push(c.begin(name, "phase"));
        }
    }

    /// Closes the innermost open phase, attributing `dt` to it (and to its
    /// parent's child-time, for self-time accounting). `name` must match
    /// the innermost open phase; mismatches are ignored defensively.
    pub fn close(&mut self, name: &str, dt: Duration) {
        if self.stack.last().map(String::as_str) != Some(name) {
            return;
        }
        self.stack.pop();
        if let (Some(c), Some(id)) = (&self.obs, self.spans.pop()) {
            c.end(id);
        }
        *self.totals.entry(name.to_string()).or_default() += dt;
        if let Some(p) = self.stack.last() {
            *self.child_time.entry(p.clone()).or_default() += dt;
        }
    }

    /// Times `f` under the phase `name`, accumulating across calls.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.open(name);
        let t0 = Instant::now();
        let out = f(self);
        let dt = t0.elapsed();
        self.close(name, dt);
        out
    }

    /// Stops the overall clock.
    pub fn finish(&mut self) {
        if let Some(t0) = self.start.take() {
            self.overall = t0.elapsed();
        }
    }

    /// Total compilation time.
    pub fn total(&self) -> Duration {
        self.overall
    }

    /// Cumulative time accumulated under `name` (includes child phases).
    pub fn phase(&self, name: &str) -> Duration {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Self time of `name`: cumulative minus the time of its child phases
    /// (saturating, so timer jitter cannot underflow).
    pub fn self_time(&self, name: &str) -> Duration {
        self.phase(name)
            .saturating_sub(self.child_time.get(name).copied().unwrap_or_default())
    }

    /// The first-seen parent phase of `name` (None = top level or unknown).
    pub fn parent_of(&self, name: &str) -> Option<&str> {
        self.parent.get(name)?.as_deref()
    }

    /// Nesting depth of `name` (0 = top level).
    pub fn depth_of(&self, name: &str) -> usize {
        let mut d = 0;
        let mut cur = self.parent_of(name);
        while let Some(p) = cur {
            d += 1;
            cur = self.parent_of(p);
        }
        d
    }

    /// The span id of the innermost open phase in the attached collector's
    /// tree, if a collector is attached and a phase is open. The driver
    /// passes this to `Collector::begin_child_of` so each nest's spans
    /// stitch under the phase that scheduled it, on any thread.
    pub fn current_span(&self) -> Option<SpanId> {
        self.spans.last().copied()
    }

    /// Merges another timer set (a nest's own measurements) into this
    /// one, deterministically: `other`'s top-level phases are adopted as
    /// children of this timer's innermost open phase (the *anchor*, or the
    /// top level when none is open), crediting the anchor's child-time so
    /// its self time excludes them; nested parents carry over unchanged.
    /// Phase first-use order appends `other`'s new names in their own
    /// order, so merging nests in source order gives the same row order
    /// whatever order they were built in.
    pub fn merge(&mut self, other: &PhaseTimers) {
        let anchor = self.stack.last().cloned();
        for name in &other.order {
            let dt = other.totals[name];
            let parent = match other.parent.get(name).cloned().flatten() {
                Some(p) => Some(p),
                None => anchor.clone(),
            };
            if !self.totals.contains_key(name) {
                self.order.push(name.clone());
                self.totals.insert(name.clone(), Duration::ZERO);
                self.parent.insert(name.clone(), parent.clone());
            }
            *self.totals.entry(name.clone()).or_default() += dt;
            // Credit the anchor's child-time for other's *top-level* phases
            // only; nested child-time transfers directly below.
            if other.parent.get(name).cloned().flatten().is_none() {
                if let Some(a) = &anchor {
                    *self.child_time.entry(a.clone()).or_default() += dt;
                }
            }
        }
        for (name, dt) in &other.child_time {
            *self.child_time.entry(name.clone()).or_default() += *dt;
        }
    }

    /// `(phase, cumulative time, percent-of-total)` rows in first-use
    /// order — the backward-compatible flat view.
    pub fn rows(&self) -> Vec<(String, Duration, f64)> {
        let total = self.overall.as_secs_f64().max(1e-12);
        self.order
            .iter()
            .map(|name| {
                let d = self.totals[name];
                (name.clone(), d, 100.0 * d.as_secs_f64() / total)
            })
            .collect()
    }

    /// Nested rows: first-use order with explicit depth, cumulative time,
    /// and self time — child rows are the ones with `depth > 0`, matching
    /// Table 1's indented rows.
    pub fn rows_nested(&self) -> Vec<PhaseRow> {
        let total = self.overall.as_secs_f64().max(1e-12);
        self.order
            .iter()
            .map(|name| {
                let cumulative = self.totals[name];
                PhaseRow {
                    name: name.clone(),
                    depth: self.depth_of(name),
                    cumulative,
                    self_time: self.self_time(name),
                    percent: 100.0 * cumulative.as_secs_f64() / total,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_across_calls() {
        let mut t = PhaseTimers::new();
        t.time("a", |_| std::thread::sleep(Duration::from_millis(2)));
        t.time("a", |_| std::thread::sleep(Duration::from_millis(2)));
        t.time("b", |_| ());
        t.finish();
        assert!(t.phase("a") >= Duration::from_millis(4));
        assert!(t.total() >= t.phase("a"));
        let rows = t.rows();
        assert_eq!(rows[0].0, "a");
        assert_eq!(rows[1].0, "b");
        assert!(rows[0].2 > 0.0);
    }

    #[test]
    fn nesting_supported() {
        let mut t = PhaseTimers::new();
        t.time("outer", |t| {
            t.time("inner", |_| std::thread::sleep(Duration::from_millis(1)));
        });
        t.finish();
        assert!(t.phase("outer") >= t.phase("inner"));
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = PhaseTimers::new();
        t.time("outer", |t| {
            t.time("inner", |_| std::thread::sleep(Duration::from_millis(4)));
            std::thread::sleep(Duration::from_millis(1));
        });
        t.finish();
        assert_eq!(t.parent_of("inner"), Some("outer"));
        assert_eq!(t.depth_of("inner"), 1);
        assert_eq!(t.depth_of("outer"), 0);
        // Self excludes the 4ms child; cumulative includes it.
        assert!(t.self_time("outer") < t.phase("outer"));
        assert!(
            t.self_time("outer") + t.phase("inner") <= t.phase("outer") + Duration::from_micros(50)
        );
        let rows = t.rows_nested();
        assert_eq!(rows[0].depth, 0);
        assert_eq!(rows[1].depth, 1);
        assert!(rows[0].self_time <= rows[0].cumulative);
    }

    #[test]
    fn add_nests_under_open_phase() {
        let mut t = PhaseTimers::new();
        t.open("outer");
        t.open("measured");
        t.close("measured", Duration::from_millis(2));
        t.close("outer", Duration::from_millis(3));
        t.finish();
        assert_eq!(t.parent_of("measured"), Some("outer"));
        assert_eq!(t.self_time("outer"), Duration::from_millis(1));
        assert_eq!(t.phase("outer"), Duration::from_millis(3));
    }

    #[test]
    fn repeated_nested_phase_not_double_counted_in_self() {
        // The old flat map credited nested same-name time to parent AND
        // child with no linkage; the tree keeps cumulative for both but
        // self-time only once.
        let mut t = PhaseTimers::new();
        t.open("p");
        for _ in 0..2 {
            t.open("c");
            t.close("c", Duration::from_millis(2));
        }
        t.close("p", Duration::from_millis(5));
        t.finish();
        assert_eq!(t.phase("c"), Duration::from_millis(4));
        assert_eq!(t.phase("p"), Duration::from_millis(5));
        assert_eq!(t.self_time("p"), Duration::from_millis(1));
    }

    #[test]
    fn merge_adopts_top_level_phases_under_anchor() {
        let mut worker = PhaseTimers::new();
        worker.open("placement");
        worker.open("cp");
        worker.close("cp", Duration::from_millis(2));
        worker.close("placement", Duration::from_millis(3));
        worker.finish();

        let mut main = PhaseTimers::new();
        main.open("module compilation");
        main.merge(&worker);
        main.close("module compilation", Duration::from_millis(3));
        main.finish();

        assert_eq!(main.parent_of("placement"), Some("module compilation"));
        assert_eq!(main.parent_of("cp"), Some("placement"));
        assert_eq!(main.phase("placement"), Duration::from_millis(3));
        assert_eq!(main.phase("cp"), Duration::from_millis(2));
        assert_eq!(main.self_time("placement"), Duration::from_millis(1));
        assert_eq!(main.self_time("module compilation"), Duration::ZERO);
        // Merging a second worker accumulates rather than duplicates.
        main.merge(&worker);
        assert_eq!(main.phase("placement"), Duration::from_millis(6));
        assert_eq!(main.rows().iter().filter(|r| r.0 == "placement").count(), 1);
    }

    #[test]
    fn collector_receives_phase_spans() {
        let c = dhpf_obs::Collector::new();
        let mut t = PhaseTimers::new();
        t.attach_collector(c.clone());
        t.time("outer", |t| {
            t.time("inner", |_| ());
            t.open("measured");
            t.close("measured", Duration::from_micros(10));
        });
        t.finish();
        let trace = c.trace();
        let outer = trace.find("outer").unwrap();
        let inner = trace.find("inner").unwrap();
        let measured = trace.find("measured").unwrap();
        assert_eq!(trace.nodes[inner].parent, Some(outer));
        assert_eq!(trace.nodes[measured].parent, Some(outer));
        assert!(trace.nodes.iter().all(|n| !n.open));
    }
}
