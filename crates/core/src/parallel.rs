//! Minimal scoped-thread execution primitives for the driver.
//!
//! Zero dependencies: a work-stealing-free ordered parallel map (atomic
//! work index over a fixed task list) and a dependency-DAG executor
//! (indegree counting with a mutex-guarded ready queue). Both run on
//! `std::thread::scope`, so tasks may borrow from the caller's stack, and
//! both preserve *determinism of results*: outputs land in slots indexed
//! by task id, independent of which worker ran what when. With one thread
//! (or one task) both run on the calling thread, in task order, with no
//! spawn: the thread count is a scheduling parameter, not a code path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Runs `f(0..n)` on `threads` scoped workers, returning the results in
/// task order. `threads <= 1` degenerates to a plain serial loop on the
/// calling thread (no spawn, byte-identical scheduling to serial code).
pub fn ordered_map<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                // Locked only to move the value in; `f` ran outside it.
                *slots[i]
                    .lock()
                    .expect("slot mutex is never held across a panic") = Some(out);
            });
        }
    });
    // The scope joined every worker (re-raising any panic of `f`), and
    // the shared index hands each of `0..n` to exactly one of them.
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot mutex is never held across a panic")
                .expect("worker filled its slot")
        })
        .collect()
}

/// Shared scheduler state of [`run_dag`].
struct DagState {
    ready: Vec<usize>,
    indegree: Vec<usize>,
    remaining: usize,
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Executes a dependency DAG of `n` tasks on `threads` scoped workers,
/// returning per-task panic messages (`None` = the task body completed).
///
/// `deps[i]` lists the tasks that must complete before task `i` starts.
/// Ready tasks are dispatched in ascending task id (the queue is kept
/// sorted), so a single-threaded run visits tasks in topological id order
/// — the same order a serial loop over a topologically-sorted list would.
/// With one thread or one task the worker loop runs on the calling thread
/// (no spawn), with the same dispatch order and per-task isolation.
/// Tasks only signal completion; results should be written into
/// caller-owned per-task slots (e.g. a `Vec<Mutex<Option<T>>>`).
///
/// Task bodies are isolated with `catch_unwind`: a panicking task still
/// signals completion and releases its dependents (whose result slots
/// then simply stay empty), so one bad nest can never wedge sibling tasks
/// on the condvar or abort the process. The caller inspects the returned
/// messages and turns empty slots into typed errors.
pub fn run_dag<F>(threads: usize, deps: &[Vec<usize>], f: F) -> Vec<Option<String>>
where
    F: Fn(usize) + Sync,
{
    let n = deps.len();
    if n == 0 {
        return Vec::new();
    }
    let mut indegree = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ds) in deps.iter().enumerate() {
        indegree[i] = ds.len();
        for &d in ds {
            assert!(d < n, "dependency on unknown task");
            dependents[d].push(i);
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    assert!(!ready.is_empty(), "dependency cycle: no root task");
    ready.sort_unstable_by(|a, b| b.cmp(a)); // pop() yields the lowest id
    let state = Mutex::new(DagState {
        ready,
        indegree,
        remaining: n,
    });
    let wake = Condvar::new();
    let panics: Vec<Mutex<Option<String>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Task bodies run under `catch_unwind` and outside every lock, so no
    // mutex here is ever held across a panic: the `lock()`s cannot observe
    // poison.
    const LOCK: &str = "scheduler mutex is never held across a panic";
    let worker = || loop {
        let task = {
            let mut st = state.lock().expect(LOCK);
            loop {
                if st.remaining == 0 {
                    return;
                }
                if let Some(t) = st.ready.pop() {
                    break t;
                }
                st = wake.wait(st).expect(LOCK);
            }
        };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(task)));
        if let Err(payload) = r {
            *panics[task].lock().expect(LOCK) = Some(panic_message(payload));
        }
        let mut st = state.lock().expect(LOCK);
        st.remaining -= 1;
        for &d in &dependents[task] {
            st.indegree[d] -= 1;
            if st.indegree[d] == 0 {
                st.ready.push(d);
                st.ready.sort_unstable_by(|a, b| b.cmp(a));
            }
        }
        drop(st);
        wake.notify_all();
    };
    let workers = threads.clamp(1, n);
    if workers == 1 {
        worker();
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(worker);
            }
        });
    }
    let st = state.into_inner().expect(LOCK);
    assert_eq!(st.remaining, 0, "dependency cycle: tasks left unrunnable");
    panics
        .into_iter()
        .map(|m| m.into_inner().expect(LOCK))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn ordered_map_preserves_order() {
        for threads in [1, 2, 4, 8] {
            let out = ordered_map(threads, 17, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn ordered_map_empty_and_single() {
        assert_eq!(ordered_map(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(ordered_map(4, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn dag_respects_dependencies() {
        // Diamond per unit: 0 -> {1,2} -> 3, plus an independent chain.
        let deps: Vec<Vec<usize>> = vec![vec![], vec![0], vec![0], vec![1, 2], vec![], vec![4]];
        for threads in [1, 2, 4] {
            let stamp = AtomicU64::new(0);
            let finished: Vec<AtomicU64> = (0..deps.len()).map(|_| AtomicU64::new(0)).collect();
            let panics = run_dag(threads, &deps, |i| {
                let t = stamp.fetch_add(1, Ordering::SeqCst) + 1;
                finished[i].store(t, Ordering::SeqCst);
            });
            assert!(panics.iter().all(Option::is_none));
            let at = |i: usize| finished[i].load(Ordering::SeqCst);
            assert!((0..deps.len()).all(|i| at(i) > 0));
            assert!(at(0) < at(1) && at(0) < at(2));
            assert!(at(1) < at(3) && at(2) < at(3));
            assert!(at(4) < at(5));
        }
    }

    #[test]
    fn dag_isolates_panicking_tasks() {
        // Task 1 panics; its dependent 3 must still run (with task 1's
        // result slot empty), siblings must be unaffected, and the panic
        // message must be reported — at every thread count, with no hang.
        let deps: Vec<Vec<usize>> = vec![vec![], vec![0], vec![0], vec![1, 2], vec![], vec![4]];
        for threads in [1, 2, 4, 8] {
            let ran: Vec<AtomicU64> = (0..deps.len()).map(|_| AtomicU64::new(0)).collect();
            let panics = run_dag(threads, &deps, |i| {
                ran[i].store(1, Ordering::SeqCst);
                if i == 1 {
                    panic!("nest 1 exploded");
                }
            });
            for (i, p) in panics.iter().enumerate() {
                if i == 1 {
                    assert_eq!(p.as_deref(), Some("nest 1 exploded"));
                } else {
                    assert!(p.is_none(), "task {i} reported {p:?}");
                }
            }
            assert!(
                (0..deps.len()).all(|i| ran[i].load(Ordering::SeqCst) == 1),
                "every task ran (threads = {threads})"
            );
        }
    }

    #[test]
    fn dag_survives_every_task_panicking() {
        let deps: Vec<Vec<usize>> = (0..8)
            .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
            .collect();
        for threads in [1, 4] {
            let panics = run_dag(threads, &deps, |i| panic!("boom {i}"));
            assert!(panics.iter().all(Option::is_some));
        }
    }
}
