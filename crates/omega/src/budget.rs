//! Resource governance: compile budgets and cooperative cancellation.
//!
//! A [`Budget`] bounds what one compilation may spend inside the Omega
//! substrate — wall-clock time, a fuel count of memoized set operations,
//! and the piece/fuel limits that keep exact negation and FME from
//! exploding combinatorially. A [`RequestGovernor`] carries it, together
//! with an optional [`CancelToken`], and is armed on the threads working
//! for one request; every memoized operation of every
//! [`Context`](crate::Context) those threads touch then checks it at
//! entry. It is the only budget, cancellation and limits carrier: a
//! context holds none of this state. A [`CancelToken`] is the sharper
//! tool: tripping it makes the next fallible operation return
//! [`OmegaError::Cancelled`](crate::OmegaError::Cancelled) so the whole
//! compilation aborts with a typed error.
//!
//! The distinction matters downstream: budget exhaustion means "stop
//! spending, a conservative answer is fine" (the driver degrades to
//! conservative communication), while cancellation means "the caller no
//! longer wants any answer" (the driver aborts).

use crate::OmegaError;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Resource limits for one compilation. All fields default to the
/// historical hard-coded behaviour: no deadline, no fuel cap, and the
/// negation/FME limits that previously lived as constants in `ops.rs`.
///
/// Construct fluently:
///
/// ```
/// use dhpf_omega::Budget;
/// let b = Budget::new().deadline_ms(5_000).op_fuel(2_000_000);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline in milliseconds, measured from the moment a
    /// [`RequestGovernor`] is built from the budget. `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// Total memoized Omega operations (sat, FME, negation, gist,
    /// simplify) the compilation may charge. `None` = unlimited.
    pub op_fuel: Option<u64>,
    /// Hard cap on the conjunct pieces an exact negation may produce
    /// before it is declared inexact (default 10 000 — the PR-5 value).
    pub max_negation_pieces: usize,
    /// Negation-piece cap above which semantic subsumption skips a pair
    /// (purely an optimization limit; default 64).
    pub subsume_negation_pieces: usize,
    /// Iteration fuel for the stride-form rewrite inside exact negation
    /// (default 500).
    pub stride_fuel: u32,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            deadline_ms: None,
            op_fuel: None,
            max_negation_pieces: 10_000,
            subsume_negation_pieces: 64,
            stride_fuel: 500,
        }
    }
}

impl Budget {
    /// An unlimited budget with the default exactness limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the wall-clock deadline in milliseconds.
    #[must_use]
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the total Omega-operation fuel.
    #[must_use]
    pub fn op_fuel(mut self, fuel: u64) -> Self {
        self.op_fuel = Some(fuel);
        self
    }

    /// Sets the exact-negation piece cap.
    #[must_use]
    pub fn max_negation_pieces(mut self, n: usize) -> Self {
        self.max_negation_pieces = n;
        self
    }

    /// Sets the subsumption-check piece cap.
    #[must_use]
    pub fn subsume_negation_pieces(mut self, n: usize) -> Self {
        self.subsume_negation_pieces = n;
        self
    }

    /// Sets the stride-form rewrite fuel.
    #[must_use]
    pub fn stride_fuel(mut self, fuel: u32) -> Self {
        self.stride_fuel = fuel;
        self
    }
}

/// A shared cancellation flag. Clones observe the same flag, so the token
/// can be handed to another thread (or a request handler) and tripped
/// while a compilation is in flight; the compilation aborts at its next
/// cancellation point with a typed error.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[derive(Debug)]
struct GovernorInner {
    /// Remaining op fuel; `u64::MAX` = unlimited. Shared atomically so the
    /// parallel driver's worker threads spend from one pool.
    fuel: AtomicU64,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    /// Why the budget tripped, once it has. Sticky: the first tripper wins
    /// the reason.
    tripped: OnceLock<&'static str>,
    charged: AtomicU64,
    degraded: AtomicU64,
    /// The request's [`Budget`], read for its exactness limits.
    budget: Budget,
}

/// The governor: deadline, op fuel, cancellation and exactness limits for
/// one request, scoped to the requesting thread (and any worker threads
/// that re-arm it) rather than to a context.
///
/// This is what lets a long-lived serving context compile many concurrent
/// requests, each under its *own* budget: a budget held by the context
/// would let one slow client's deadline trip every in-flight compilation.
/// The governor is `Arc`-shared — clone it into worker tasks and call
/// [`arm_on_thread`](Self::arm_on_thread) there so every thread working on
/// the request spends from one fuel pool and observes one deadline.
///
/// The `dhpf-core` driver arms one whenever `CompileOptions` carries a
/// budget, a cancel token or a fault-injection plan.
#[derive(Clone, Debug)]
pub struct RequestGovernor {
    inner: Arc<GovernorInner>,
}

thread_local! {
    /// The request governor armed on the current thread, if any. A fast
    /// boolean gate keeps the unarmed `charge` path to one thread-local
    /// read.
    static REQ_GOV: RefCell<Option<RequestGovernor>> = const { RefCell::new(None) };
    static REQ_GOV_ARMED: Cell<bool> = const { Cell::new(false) };
}

/// True if a request governor is armed on the current thread.
pub(crate) fn request_governor_armed() -> bool {
    REQ_GOV_ARMED.with(Cell::get)
}

impl RequestGovernor {
    /// A governor enforcing `budget` (deadline measured from now) and, if
    /// given, `cancel`.
    pub fn new(budget: &Budget, cancel: Option<CancelToken>) -> Self {
        let deadline = budget
            .deadline_ms
            .and_then(|ms| Instant::now().checked_add(Duration::from_millis(ms)));
        RequestGovernor {
            inner: Arc::new(GovernorInner {
                fuel: AtomicU64::new(budget.op_fuel.unwrap_or(u64::MAX)),
                deadline,
                cancel,
                tripped: OnceLock::new(),
                charged: AtomicU64::new(0),
                degraded: AtomicU64::new(0),
                budget: budget.clone(),
            }),
        }
    }

    /// The governor armed on the calling thread, if any. A worker pool
    /// captures this on the submitting thread and re-arms it (via
    /// [`arm_on_thread`](Self::arm_on_thread)) on each pool thread, so
    /// every task of a request runs under that request's budget.
    pub fn current() -> Option<RequestGovernor> {
        if !request_governor_armed() {
            return None;
        }
        REQ_GOV.with(|g| g.borrow().clone())
    }

    /// Arms this governor on the current thread until the guard drops.
    /// Nested arming restores the previous governor on drop, so scopes
    /// compose; the same governor may be armed on many threads at once
    /// (they share fuel, deadline, and counters).
    #[must_use = "enforcement stops when the guard drops"]
    pub fn arm_on_thread(&self) -> RequestGovernorGuard {
        let prev = REQ_GOV.with(|g| g.borrow_mut().replace(self.clone()));
        REQ_GOV_ARMED.with(|a| a.set(true));
        RequestGovernorGuard { prev }
    }

    /// Charges one governed operation: spends fuel and checks the
    /// deadline, and once tripped refuses every further charge with the
    /// trip reason. The caller has already handled cancellation and the
    /// grace scope (see [`governor_grace`](crate::governor_grace)).
    pub(crate) fn charge(&self) -> Result<(), OmegaError> {
        let i = &self.inner;
        i.charged.fetch_add(1, Ordering::Relaxed);
        if !self.tripped() {
            let fuel = i.fuel.load(Ordering::Relaxed);
            if fuel != u64::MAX {
                let spent = i
                    .fuel
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| f.checked_sub(1));
                if spent.is_err() {
                    self.trip("op fuel");
                }
            }
            if i.deadline.is_some_and(|d| Instant::now() > d) {
                self.trip("deadline");
            }
        }
        if self.tripped() {
            return Err(self.refuse());
        }
        Ok(())
    }

    /// Trips the budget on behalf of an injected `ExhaustBudget` fault and
    /// returns the refusal for the operation that hit it.
    pub(crate) fn exhaust_injected(&self) -> OmegaError {
        self.trip("injected");
        self.refuse()
    }

    fn trip(&self, reason: &'static str) {
        let _ = self.inner.tripped.set(reason);
    }

    /// Counts one refused operation and names the trip reason.
    fn refuse(&self) -> OmegaError {
        self.inner.degraded.fetch_add(1, Ordering::Relaxed);
        OmegaError::BudgetExceeded(self.inner.tripped.get().copied().unwrap_or("budget"))
    }

    /// `Err(Cancelled)` once the armed token, if any, has been tripped.
    pub(crate) fn check_cancelled(&self) -> Result<(), OmegaError> {
        match &self.inner.cancel {
            Some(t) if t.is_cancelled() => Err(OmegaError::Cancelled),
            _ => Ok(()),
        }
    }

    /// True once the deadline passed, the fuel ran out, or an injected
    /// exhaustion fired.
    pub fn tripped(&self) -> bool {
        self.inner.tripped.get().is_some()
    }

    /// This governor's counters and trip reason.
    pub fn stats(&self) -> GovernorStats {
        GovernorStats {
            ops_charged: self.inner.charged.load(Ordering::Relaxed),
            ops_degraded: self.inner.degraded.load(Ordering::Relaxed),
            tripped: self.inner.tripped.get().copied(),
        }
    }

    /// The budget this governor enforces (read for its exactness limits).
    pub(crate) fn budget(&self) -> &Budget {
        &self.inner.budget
    }

    /// True when the exactness limits differ from [`Budget::default`]:
    /// memoized results then bypass the shared cache entirely, because an
    /// entry computed under tighter (or looser) limits is not
    /// interchangeable with one computed under the defaults.
    pub(crate) fn non_default_limits(&self) -> bool {
        let (b, d) = (&self.inner.budget, Budget::default());
        b.max_negation_pieces != d.max_negation_pieces
            || b.subsume_negation_pieces != d.subsume_negation_pieces
            || b.stride_fuel != d.stride_fuel
    }
}

/// RAII scope of [`RequestGovernor::arm_on_thread`]: restores the
/// previously armed governor (or none) on drop.
pub struct RequestGovernorGuard {
    prev: Option<RequestGovernor>,
}

impl Drop for RequestGovernorGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        REQ_GOV_ARMED.with(|a| a.set(prev.is_some()));
        REQ_GOV.with(|g| *g.borrow_mut() = prev);
    }
}

/// Counters reported by [`Context::governor_stats`](crate::Context::governor_stats):
/// how much work the governor saw and whether it tripped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GovernorStats {
    /// Memoized operations charged against the budget.
    pub ops_charged: u64,
    /// Operations answered conservatively (or refused) after the budget
    /// tripped.
    pub ops_degraded: u64,
    /// Why the budget tripped, if it did (`"deadline"` or `"op fuel"`,
    /// or `"injected"` under fault injection).
    pub tripped: Option<&'static str>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_builder_round_trips() {
        let b = Budget::new()
            .deadline_ms(100)
            .op_fuel(42)
            .max_negation_pieces(9)
            .subsume_negation_pieces(3)
            .stride_fuel(7);
        assert_eq!(b.deadline_ms, Some(100));
        assert_eq!(b.op_fuel, Some(42));
        assert_eq!(b.max_negation_pieces, 9);
        assert_eq!(b.subsume_negation_pieces, 3);
        assert_eq!(b.stride_fuel, 7);
    }

    #[test]
    fn cancel_token_is_shared() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
    }
}
