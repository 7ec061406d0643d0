//! # dhpf-obs — structured tracing and metrics for the dHPF pipeline
//!
//! A zero-dependency observability layer: a hierarchical **span tree**
//! (compile → phase → set-op) with per-span **operation counters**
//! (satisfiability, FME projection, negation, gist, simplify — counts,
//! durations, and constraint-size histograms) and free-form integer
//! **counters** (simulator messages, bytes, transfer kinds).
//!
//! The entry point is a [`Collector`]: an `Arc`-shared handle that is cheap
//! to clone and thread through the pipeline next to the Omega `Context`.
//! Spans nest via [`Collector::begin`]/[`Collector::end`] (or the RAII
//! [`Collector::guard`]); everything recorded while a span is open — child
//! spans, [`Collector::record_op`] calls, [`Collector::add_counter`] —
//! is attributed to it. [`Collector::trace`] snapshots the finished tree
//! as a [`Trace`], which the [`export`] module renders as a human-readable
//! tree, JSON lines, single-line span-tree JSON (for wire responses), or
//! Chrome `trace_event` JSON (loadable in `chrome://tracing` / Perfetto).
//!
//! Alongside the per-compilation span machinery, the [`metrics`] module
//! provides the *fleet-level* substrate: a lock-free [`metrics::Registry`]
//! of counters, gauges, and log-linear latency histograms with quantile
//! extraction, read out as a [`metrics::MetricsSnapshot`] (`dhpf-serve`
//! renders it as JSON for its `metrics` op).
//!
//! Design constraints, per the reproduction's Table-1 requirements:
//!
//! - **Observation equivalence**: recording never feeds back into any
//!   computation; a compile with a collector attached must produce output
//!   bit-identical to one without.
//! - **Disabled-path cost**: producers gate on `Option<&Collector>`, so a
//!   pipeline without tracing pays one branch per candidate event. The
//!   Omega set operations are handed no collector: they sample into the
//!   one armed with their request (`dhpf_omega::Request`), and this crate
//!   keeps no thread-local state of its own.
//! - **Self-time vs cumulative time**: a span's duration includes its
//!   children (like the paper's Table 1, where indented rows refine their
//!   parents); [`Trace::self_ns`] subtracts the children explicitly so no
//!   exporter double-counts.
//!
//! ```
//! use dhpf_obs::Collector;
//! use std::time::Duration;
//!
//! let c = Collector::new();
//! let compile = c.begin("compile", "compile");
//! {
//!     let _phase = c.guard("communication generation", "phase");
//!     c.record_op("satisfiability", Duration::from_micros(3), 4);
//!     c.add_counter("comm events", 1);
//! }
//! c.end(compile);
//! let trace = c.trace();
//! assert_eq!(trace.nodes.len(), 2);
//! assert!(trace.self_ns(0) <= trace.nodes[0].dur_ns);
//! println!("{}", dhpf_obs::export::render_tree(&trace));
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod metrics;

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Number of buckets in a [`Hist`] size histogram.
pub const HIST_BUCKETS: usize = 8;

/// Upper bounds (inclusive) of the first `HIST_BUCKETS - 1` histogram
/// buckets; the last bucket is unbounded.
const HIST_BOUNDS: [u64; HIST_BUCKETS - 1] = [1, 2, 4, 8, 16, 32, 64];

/// A small power-of-two histogram of operand sizes (constraint counts of
/// the conjuncts fed to each Omega operation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Hist {
    /// Bucket counts; bucket `i` holds values `<=` [`Hist::labels`]`[i]`.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Hist {
    /// Records one observation of size `v`.
    pub fn record(&mut self, v: u64) {
        let i = HIST_BOUNDS
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(HIST_BUCKETS - 1);
        self.buckets[i] += 1;
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Accumulates another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Human-readable bucket labels, aligned with `buckets`.
    pub fn labels() -> [&'static str; HIST_BUCKETS] {
        ["<=1", "<=2", "<=4", "<=8", "<=16", "<=32", "<=64", ">64"]
    }
}

/// Aggregated statistics for one operation kind within one span.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpStat {
    /// Number of calls attributed to the span.
    pub calls: u64,
    /// Total wall-clock nanoseconds across those calls (includes time in
    /// nested cached sub-operations; see the module docs).
    pub total_ns: u64,
    /// Histogram of operand sizes (constraint counts).
    pub sizes: Hist,
}

impl OpStat {
    /// Accumulates another stat into this one.
    pub fn merge(&mut self, other: &OpStat) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.sizes.merge(&other.sizes);
    }
}

/// One node of the span tree.
#[derive(Clone, Debug, Default)]
pub struct SpanNode {
    /// Span name (phase name, benchmark label, ...).
    pub name: String,
    /// Category: `"compile"`, `"phase"`, `"bench"`, `"sim"`, ...
    pub cat: &'static str,
    /// Index of the parent node, or `None` for roots.
    pub parent: Option<usize>,
    /// Start offset from the collector's epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds (cumulative: includes children). For spans
    /// still open when the trace was snapshotted, the time elapsed so far.
    pub dur_ns: u64,
    /// Child node indices, in start order.
    pub children: Vec<usize>,
    /// Per-operation statistics attributed to this span.
    pub ops: BTreeMap<&'static str, OpStat>,
    /// Free-form integer counters attributed to this span.
    pub counters: BTreeMap<String, i64>,
    /// True if the span was still open when snapshotted.
    pub open: bool,
    /// Dense tag of the thread that opened the span (0 = first thread seen
    /// by this collector, typically the main thread). Spans nest within
    /// their own thread's stack; the parallel driver stitches worker spans
    /// under the compile tree with [`Collector::begin_child_of`].
    pub thread: u64,
}

impl SpanNode {
    /// A snapshot taken at `now` reports an open span's time so far.
    fn elapse_open(&mut self, now: u64) {
        if self.open {
            self.dur_ns = now.saturating_sub(self.start_ns);
        }
    }
}

/// A snapshot of a collector's span tree.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// All spans, in creation order; children always follow their parent.
    pub nodes: Vec<SpanNode>,
}

impl Trace {
    /// Indices of the root spans.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].parent.is_none())
            .collect()
    }

    /// Self time of a span: its duration minus its children's durations
    /// (saturating, so clock jitter can never produce underflow).
    pub fn self_ns(&self, i: usize) -> u64 {
        let n = &self.nodes[i];
        let children: u64 = n.children.iter().map(|&c| self.nodes[c].dur_ns).sum();
        n.dur_ns.saturating_sub(children)
    }

    /// Depth of a span (roots are depth 0).
    pub fn depth(&self, i: usize) -> usize {
        let mut d = 0;
        let mut cur = self.nodes[i].parent;
        while let Some(p) = cur {
            d += 1;
            cur = self.nodes[p].parent;
        }
        d
    }

    /// The first span with the given name, if any.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Operation statistics aggregated over the whole trace.
    pub fn total_ops(&self) -> BTreeMap<&'static str, OpStat> {
        let mut out: BTreeMap<&'static str, OpStat> = BTreeMap::new();
        for n in &self.nodes {
            for (&op, stat) in &n.ops {
                out.entry(op).or_default().merge(stat);
            }
        }
        out
    }
}

/// Identifier of an open span, returned by [`Collector::begin`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Default)]
struct State {
    nodes: Vec<SpanNode>,
    /// Per-thread stacks of currently open spans, outermost first. Worker
    /// threads nest their own spans without interleaving with (or
    /// corrupting) the main thread's open phases.
    stacks: HashMap<ThreadId, Vec<usize>>,
    /// Dense per-collector thread tags, in first-seen order.
    threads: HashMap<ThreadId, u64>,
}

impl State {
    /// The dense tag of `tid`, assigning the next one on first sight.
    fn thread_tag(&mut self, tid: ThreadId) -> u64 {
        let next = self.threads.len() as u64;
        *self.threads.entry(tid).or_insert(next)
    }

    /// The innermost open span of `tid`'s stack, if any.
    fn top(&self, tid: ThreadId) -> Option<usize> {
        self.stacks.get(&tid).and_then(|s| s.last().copied())
    }

    /// Appends `node` as the last child of its parent; returns its index.
    fn push(&mut self, node: SpanNode) -> usize {
        let idx = self.nodes.len();
        if let Some(p) = node.parent {
            self.nodes[p].children.push(idx);
        }
        self.nodes.push(node);
        idx
    }
}

struct Inner {
    epoch: Instant,
    state: Mutex<State>,
}

/// A shared handle to one span tree; clone freely (all clones record into
/// the same tree). See the [module documentation](self).
#[derive(Clone)]
pub struct Collector {
    inner: Arc<Inner>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.state.lock().unwrap();
        let open: usize = st.stacks.values().map(Vec::len).sum();
        f.debug_struct("Collector")
            .field("spans", &st.nodes.len())
            .field("open", &open)
            .finish()
    }
}

impl Collector {
    /// A fresh, empty collector; its epoch (time zero) is now.
    pub fn new() -> Self {
        Collector {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the calling thread's innermost open span
    /// (or as a new root). Close it with [`Collector::end`]. Each thread
    /// keeps its own open-span stack, so concurrent producers nest
    /// independently; a worker's first span is a thread-local root unless
    /// opened with [`Collector::begin_child_of`].
    pub fn begin(&self, name: &str, cat: &'static str) -> SpanId {
        self.begin_impl(name, cat, None)
    }

    /// Opens a span under an explicit `parent` instead of the calling
    /// thread's innermost open span. The parallel driver uses this to
    /// stitch worker-thread span trees under the main thread's open
    /// `"compile"`/phase spans so traced parallel compilations still form
    /// one tree. The span goes onto the *calling* thread's stack: spans
    /// the worker opens next nest under it as usual.
    pub fn begin_child_of(&self, parent: SpanId, name: &str, cat: &'static str) -> SpanId {
        self.begin_impl(name, cat, Some(parent))
    }

    fn begin_impl(&self, name: &str, cat: &'static str, parent_override: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        let tid = std::thread::current().id();
        let mut st = self.inner.state.lock().unwrap();
        let thread = st.thread_tag(tid);
        let parent = match parent_override {
            Some(p) => st.nodes.get(p.0).map(|_| p.0),
            None => st.top(tid),
        };
        let idx = st.push(SpanNode {
            name: name.to_string(),
            cat,
            parent,
            start_ns: now,
            open: true,
            thread,
            ..SpanNode::default()
        });
        st.stacks.entry(tid).or_default().push(idx);
        SpanId(idx)
    }

    /// Closes a span opened with [`Collector::begin`]. Any spans opened
    /// after it *on the same thread* that are still open are closed too
    /// (defensive: a missing `end` on an inner span cannot corrupt the
    /// tree). A span may be closed from a different thread than the one
    /// that opened it (e.g. a guard moved into a worker).
    pub fn end(&self, id: SpanId) {
        let now = self.now_ns();
        let tid = std::thread::current().id();
        let mut st = self.inner.state.lock().unwrap();
        // The overwhelmingly common case: the span is on the caller's own
        // stack. Otherwise scan the other threads' stacks (guard moved).
        let owner = if st.stacks.get(&tid).is_some_and(|s| s.contains(&id.0)) {
            tid
        } else {
            match st.stacks.iter().find(|(_, s)| s.contains(&id.0)) {
                Some((&t, _)) => t,
                None => return, // already closed (or foreign id): ignore
            }
        };
        let closed = {
            let stack = st.stacks.get_mut(&owner).expect("owner stack exists");
            let pos = stack
                .iter()
                .rposition(|&i| i == id.0)
                .expect("span on owner stack");
            stack.split_off(pos)
        };
        for i in closed {
            let n = &mut st.nodes[i];
            n.dur_ns = now.saturating_sub(n.start_ns);
            n.open = false;
        }
    }

    /// Opens a span and returns an RAII guard that closes it on drop.
    pub fn guard(&self, name: &str, cat: &'static str) -> SpanGuard {
        SpanGuard {
            collector: self.clone(),
            id: self.begin(name, cat),
        }
    }

    /// [`Collector::begin_child_of`] as an RAII guard.
    pub fn guard_child_of(&self, parent: SpanId, name: &str, cat: &'static str) -> SpanGuard {
        SpanGuard {
            collector: self.clone(),
            id: self.begin_child_of(parent, name, cat),
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &str, cat: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.guard(name, cat);
        f()
    }

    /// Records an already-measured interval as a *closed* child of the
    /// calling thread's innermost open span, ending now. For producers
    /// that time work themselves.
    pub fn record_span(&self, name: &str, cat: &'static str, dur: Duration) -> SpanId {
        let now = self.now_ns();
        let dur_ns = dur.as_nanos() as u64;
        let tid = std::thread::current().id();
        let mut st = self.inner.state.lock().unwrap();
        let thread = st.thread_tag(tid);
        let parent = st.top(tid);
        SpanId(st.push(SpanNode {
            name: name.to_string(),
            cat,
            parent,
            start_ns: now.saturating_sub(dur_ns),
            dur_ns,
            thread,
            ..SpanNode::default()
        }))
    }

    /// Records one call of operation `op` (duration `dur`, operand size
    /// `size`), attributed to the innermost open span. With no open span
    /// the call is attributed to an implicit `"(unattributed)"` root.
    pub fn record_op(&self, op: &'static str, dur: Duration, size: u64) {
        let tid = std::thread::current().id();
        let mut st = self.inner.state.lock().unwrap();
        let idx = Self::attribution_target(&mut st, tid);
        let stat = st.nodes[idx].ops.entry(op).or_default();
        stat.calls += 1;
        stat.total_ns += dur.as_nanos() as u64;
        stat.sizes.record(size);
    }

    /// Adds `delta` to the named counter of the innermost open span (with
    /// the same `"(unattributed)"` fallback as [`Collector::record_op`]).
    pub fn add_counter(&self, name: &str, delta: i64) {
        let tid = std::thread::current().id();
        let mut st = self.inner.state.lock().unwrap();
        let idx = Self::attribution_target(&mut st, tid);
        *st.nodes[idx].counters.entry(name.to_string()).or_default() += delta;
    }

    /// Adds `delta` to a counter of a specific (possibly closed) span.
    pub fn counter_on(&self, id: SpanId, name: &str, delta: i64) {
        let mut st = self.inner.state.lock().unwrap();
        if let Some(n) = st.nodes.get_mut(id.0) {
            *n.counters.entry(name.to_string()).or_default() += delta;
        }
    }

    fn attribution_target(st: &mut State, tid: ThreadId) -> usize {
        if let Some(top) = st.top(tid) {
            return top;
        }
        // No open span on this thread: attribute to a shared implicit root.
        if let Some(i) = st
            .nodes
            .iter()
            .position(|n| n.parent.is_none() && n.name == "(unattributed)")
        {
            return i;
        }
        let thread = st.thread_tag(tid);
        st.push(SpanNode {
            name: "(unattributed)".to_string(),
            cat: "misc",
            thread,
            ..SpanNode::default()
        })
    }

    /// Snapshots the tree. Spans still open report the time elapsed so far
    /// as their duration (and `open = true`).
    pub fn trace(&self) -> Trace {
        let now = self.now_ns();
        let st = self.inner.state.lock().unwrap();
        let mut nodes = st.nodes.clone();
        for n in &mut nodes {
            n.elapse_open(now);
        }
        Trace { nodes }
    }

    /// Snapshots the subtree rooted at `root`: that span and its
    /// descendants, renumbered from 0 in creation order, so the root is
    /// node 0 and has no parent. Only the subtree is copied, so a
    /// long-lived collector holding many compilations is never cloned
    /// whole. Empty for an id this collector did not hand out.
    pub fn subtree(&self, root: SpanId) -> Trace {
        let now = self.now_ns();
        let st = self.inner.state.lock().unwrap();
        let mut keep: Vec<usize> = st.nodes.get(root.0).map(|_| root.0).into_iter().collect();
        let mut i = 0;
        while let Some(&k) = keep.get(i) {
            keep.extend_from_slice(&st.nodes[k].children);
            i += 1;
        }
        // Index order is creation order; a kept index's rank is its number.
        keep.sort_unstable();
        let renumber = |old: usize| keep.binary_search(&old).ok();
        let nodes = keep
            .iter()
            .map(|&old| {
                let n = &st.nodes[old];
                let mut copy = SpanNode {
                    parent: n.parent.and_then(renumber),
                    children: n.children.iter().filter_map(|&c| renumber(c)).collect(),
                    ..n.clone()
                };
                copy.elapse_open(now);
                copy
            })
            .collect();
        Trace { nodes }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner.state.lock().unwrap().nodes.len()
    }

    /// True if no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// RAII guard returned by [`Collector::guard`]; closes its span on drop.
pub struct SpanGuard {
    collector: Collector,
    id: SpanId,
}

impl SpanGuard {
    /// The guarded span's id.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.collector.end(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let c = Collector::new();
        let a = c.begin("a", "phase");
        let b = c.begin("b", "phase");
        c.end(b);
        c.end(a);
        let t = c.trace();
        assert_eq!(t.roots(), vec![0]);
        assert_eq!(t.nodes[1].parent, Some(0));
        assert_eq!(t.nodes[0].children, vec![1]);
        assert!(t.nodes[0].dur_ns >= t.nodes[1].dur_ns);
        assert!(!t.nodes[0].open && !t.nodes[1].open);
    }

    #[test]
    fn end_closes_dangling_children() {
        let c = Collector::new();
        let a = c.begin("a", "phase");
        let _leaked = c.begin("b", "phase");
        c.end(a); // must also close b
        let t = c.trace();
        assert!(t.nodes.iter().all(|n| !n.open));
    }

    #[test]
    fn ops_attach_to_innermost_span() {
        let c = Collector::new();
        let a = c.begin("a", "phase");
        c.record_op("satisfiability", Duration::from_micros(1), 3);
        let b = c.begin("b", "phase");
        c.record_op("satisfiability", Duration::from_micros(1), 70);
        c.end(b);
        c.end(a);
        let t = c.trace();
        assert_eq!(t.nodes[0].ops["satisfiability"].calls, 1);
        assert_eq!(t.nodes[1].ops["satisfiability"].calls, 1);
        assert_eq!(
            t.nodes[1].ops["satisfiability"].sizes.buckets[HIST_BUCKETS - 1],
            1
        );
        assert_eq!(t.total_ops()["satisfiability"].calls, 2);
    }

    #[test]
    fn orphan_events_get_an_implicit_root() {
        let c = Collector::new();
        c.record_op("gist", Duration::from_nanos(10), 1);
        c.add_counter("messages", 2);
        c.add_counter("messages", 3);
        let t = c.trace();
        let i = t.find("(unattributed)").unwrap();
        assert_eq!(t.nodes[i].ops["gist"].calls, 1);
        assert_eq!(t.nodes[i].counters["messages"], 5);
    }

    #[test]
    fn worker_threads_get_independent_stacks() {
        let c = Collector::new();
        let a = c.begin("main-root", "phase");
        std::thread::scope(|s| {
            s.spawn(|| {
                let w = c.begin("worker-root", "phase");
                c.record_op("gist", Duration::from_nanos(5), 1);
                c.end(w);
            });
        });
        c.end(a);
        let t = c.trace();
        let w = t.find("worker-root").unwrap();
        // A plain begin() on a worker thread is a thread-local root, not a
        // child of whatever the main thread happens to have open.
        assert_eq!(t.nodes[w].parent, None);
        assert_eq!(t.nodes[w].ops["gist"].calls, 1);
        assert_ne!(t.nodes[w].thread, t.nodes[0].thread);
        assert!(t.nodes.iter().all(|n| !n.open));
    }

    #[test]
    fn begin_child_of_stitches_worker_spans() {
        let c = Collector::new();
        let root = c.begin("compile", "compile");
        std::thread::scope(|s| {
            s.spawn(|| {
                let w = c.begin_child_of(root, "nest 0", "phase");
                let inner = c.begin("placement", "phase");
                c.end(inner);
                c.end(w);
            });
        });
        c.end(root);
        let t = c.trace();
        let w = t.find("nest 0").unwrap();
        let inner = t.find("placement").unwrap();
        assert_eq!(t.nodes[w].parent, Some(0));
        assert_eq!(t.nodes[inner].parent, Some(w));
        assert_eq!(t.nodes[w].thread, t.nodes[inner].thread);
        assert_ne!(t.nodes[w].thread, t.nodes[0].thread);
    }

    #[test]
    fn hist_buckets() {
        let mut h = Hist::default();
        for v in [0, 1, 2, 5, 64, 65, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.buckets[0], 2); // 0, 1
        assert_eq!(h.buckets[1], 1); // 2
        assert_eq!(h.buckets[3], 1); // 5
        assert_eq!(h.buckets[6], 1); // 64
        assert_eq!(h.buckets[7], 2); // 65, 1000
    }
}
