//! Minimal scoped-thread execution primitive for the driver.
//!
//! Zero dependencies: an ordered parallel map (an atomic work index over a
//! fixed task list) on `std::thread::scope`, so tasks may borrow from the
//! caller's stack. Results land in slots indexed by task id, independent
//! of which worker ran what when. With one thread (or one task) it runs on
//! the calling thread, in task order, with no spawn: the thread count is a
//! scheduling parameter, not a code path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
