//! Span-tree invariants: nesting, self-time accounting, and attribution.

use dhpf_obs::Collector;
use std::time::Duration;

/// Sum of children durations never exceeds the parent's cumulative
/// duration (self time is the non-negative remainder).
#[test]
fn children_sum_bounded_by_parent() {
    let c = Collector::new();
    let outer = c.begin("outer", "phase");
    for k in 0..4 {
        let inner = c.begin(&format!("inner{k}"), "phase");
        std::hint::black_box((0..1000).sum::<u64>());
        c.end(inner);
    }
    c.end(outer);
    let t = c.trace();
    let o = t.find("outer").unwrap();
    let children: u64 = t.nodes[o].children.iter().map(|&i| t.nodes[i].dur_ns).sum();
    assert!(
        children <= t.nodes[o].dur_ns,
        "children {children} > parent {}",
        t.nodes[o].dur_ns
    );
    assert_eq!(t.self_ns(o), t.nodes[o].dur_ns - children);
}

/// Cumulative time includes children; self time excludes them.
#[test]
fn self_time_excludes_children() {
    let c = Collector::new();
    let outer = c.begin("outer", "phase");
    let inner = c.begin("inner", "phase");
    std::thread::sleep(Duration::from_millis(3));
    c.end(inner);
    c.end(outer);
    let t = c.trace();
    let o = t.find("outer").unwrap();
    let i = t.find("inner").unwrap();
    assert!(t.nodes[o].dur_ns >= t.nodes[i].dur_ns);
    assert!(t.self_ns(o) <= t.nodes[o].dur_ns - t.nodes[i].dur_ns);
    assert_eq!(t.self_ns(i), t.nodes[i].dur_ns, "leaf self == cumulative");
}

/// Sibling spans of one parent are recorded in start order and depth is
/// derived from the parent chain.
#[test]
fn depth_and_order() {
    let c = Collector::new();
    let a = c.begin("a", "compile");
    let b = c.begin("b", "phase");
    c.end(b);
    let d = c.begin("d", "phase");
    let e = c.begin("e", "setop");
    c.end(e);
    c.end(d);
    c.end(a);
    let t = c.trace();
    assert_eq!(t.depth(t.find("a").unwrap()), 0);
    assert_eq!(t.depth(t.find("b").unwrap()), 1);
    assert_eq!(t.depth(t.find("e").unwrap()), 2);
    assert_eq!(t.nodes[t.find("a").unwrap()].children.len(), 2);
}

/// record_span attaches an already-measured closed child to the innermost
/// open span, and its duration participates in self-time accounting.
#[test]
fn record_span_is_a_closed_child() {
    let c = Collector::new();
    let outer = c.begin("outer", "phase");
    c.record_span("measured", "phase", Duration::from_micros(500));
    c.end(outer);
    let t = c.trace();
    let m = t.find("measured").unwrap();
    assert!(!t.nodes[m].open);
    assert_eq!(t.nodes[m].parent, t.find("outer"));
    assert_eq!(t.nodes[m].dur_ns, 500_000);
}

/// Snapshotting with open spans reports elapsed-so-far durations and does
/// not disturb the live tree.
#[test]
fn snapshot_of_open_spans() {
    let c = Collector::new();
    let _a = c.begin("a", "phase");
    let t1 = c.trace();
    assert!(t1.nodes[0].open);
    assert!(t1.nodes[0].dur_ns > 0);
    std::thread::sleep(Duration::from_millis(1));
    let t2 = c.trace();
    assert!(t2.nodes[0].dur_ns >= t1.nodes[0].dur_ns);
}

/// Multiple roots (e.g. two compilations under one collector) coexist.
#[test]
fn multiple_roots() {
    let c = Collector::new();
    let a = c.begin("compile", "compile");
    c.end(a);
    let b = c.begin("compile", "compile");
    c.end(b);
    let t = c.trace();
    assert_eq!(t.roots().len(), 2);
}

/// `subtree` copies one branch, renumbered from its root, with open spans
/// reporting their time so far.
#[test]
fn subtree_renumbers_one_branch() {
    let c = Collector::new();
    c.span("before", "phase", || {});
    let root = c.begin("compile", "compile");
    c.span("a", "phase", || {
        c.record_op("gist", Duration::from_nanos(5), 1);
    });
    let open = c.begin("b", "phase");
    let t = c.subtree(root);
    assert_eq!(t.roots(), vec![0]);
    assert_eq!(t.nodes.len(), 3);
    assert_eq!(
        (t.nodes[1].name.as_str(), t.nodes[1].parent),
        ("a", Some(0))
    );
    assert_eq!(t.nodes[0].children, vec![1, 2]);
    assert_eq!(t.nodes[1].ops["gist"].calls, 1);
    assert!(t.nodes[2].open);
    c.end(open);
    c.end(root);
}

/// A collector armed with a request samples only its own thread's
/// operations, and nested arming restores the previous one.
#[test]
fn armed_collector_is_per_thread_and_nests() {
    use dhpf_omega::{Context, Request, Set};
    let sampled = |c: &Collector| {
        c.trace()
            .total_ops()
            .get("satisfiability")
            .map_or(0, |o| o.calls)
    };
    let s: Set = "{[i] : 1 <= i <= 10}".parse().unwrap();
    let (a, b) = (Collector::new(), Collector::new());
    let ctx = Context::new();
    let outer = Request::new(&ctx, None, Some(&a)).arm();
    {
        let _inner = Request::new(&ctx, None, Some(&b)).arm();
        assert!(!s.is_empty());
        assert_eq!((sampled(&a), sampled(&b)), (0, 1));
        std::thread::scope(|sc| {
            sc.spawn(|| assert!(!s.is_empty()));
        });
        assert_eq!((sampled(&a), sampled(&b)), (0, 1));
    }
    assert!(!s.is_empty());
    assert_eq!((sampled(&a), sampled(&b)), (1, 1));
    drop(outer);
    assert!(!s.is_empty());
    assert_eq!((sampled(&a), sampled(&b)), (1, 1));
}
