//! Resource governance: compile budgets and request-scoped fault plans.
//!
//! A [`Budget`] bounds what one compilation may spend inside the Omega
//! substrate: wall-clock time and a fuel count of memoized set operations.
//! A [`RequestGovernor`] carries it, together with an optional
//! [`InjectPlan`]. It is armed as part of a [`Request`](crate::Request),
//! in the one slot of each thread working for that request; every
//! memoized operation those threads run then charges it at entry. A
//! context holds no budget or plan, so one request's never reaches
//! another request sharing the context.
//!
//! Every refusal is degradable: a spent budget or an injected fault means
//! "stop spending, a conservative answer is fine", and the driver degrades
//! to conservative communication. The exactness limits of negation and
//! subsumption are constants at their one use each (`ops.rs` and
//! `Relation::semantic_subsume`), not request state.

use crate::inject::{FaultAction, InjectPlan};
use crate::OmegaError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Resource limits for one compilation: no deadline and no fuel cap by
/// default.
///
/// Construct fluently:
///
/// ```
/// use dhpf_omega::Budget;
/// let b = Budget::new().deadline_ms(5_000).op_fuel(2_000_000);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline in milliseconds, measured from the moment a
    /// [`RequestGovernor`] is built from the budget. `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// Total memoized Omega operations (sat, FME, negation, gist,
    /// simplify) the compilation may charge. `None` = unlimited.
    pub op_fuel: Option<u64>,
}

impl Budget {
    /// An unlimited budget.
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
}

/// A request's fault plan and its bookkeeping. Per-site hit counters make
/// decisions a pure function of `(seed, site, count)` regardless of thread
/// interleaving *per site*.
#[derive(Debug)]
struct Injection {
    plan: InjectPlan,
    counts: Mutex<HashMap<&'static str, u64>>,
    fired: AtomicU64,
}

#[derive(Debug)]
struct GovernorInner {
    /// Remaining op fuel; `u64::MAX` = unlimited. Shared atomically so the
    /// parallel driver's worker threads spend from one pool.
    fuel: AtomicU64,
    deadline: Option<Instant>,
    /// Why the budget tripped, once it has. Sticky: the first tripper wins
    /// the reason.
    tripped: OnceLock<&'static str>,
    charged: AtomicU64,
    degraded: AtomicU64,
    inject: Option<Injection>,
}

/// The governor: deadline, op fuel and fault plan for one request, armed
/// with the request (see [`Request`](crate::Request)) rather than held by
/// a context.
///
/// This is what lets a long-lived serving context compile many concurrent
/// requests, each under its *own* budget and plan: state held by the
/// context would let one client's deadline or injected fault reach every
/// in-flight compilation. The governor is `Arc`-shared: every thread that
/// arms the request spends from one fuel pool, observes one deadline and
/// advances one set of injection counters.
///
/// The `dhpf-core` driver builds one whenever `CompileOptions` carries a
/// budget or a fault-injection plan, and reads its [`stats`](Self::stats)
/// and [`injected_faults`](Self::injected_faults) into the report.
#[derive(Clone, Debug)]
pub struct RequestGovernor {
    inner: Arc<GovernorInner>,
}

impl RequestGovernor {
    /// A governor enforcing `budget` (deadline measured from now) and, if
    /// given, firing the faults of `inject`, with per-site counters that
    /// start at zero.
    pub fn new(budget: &Budget, inject: Option<InjectPlan>) -> Self {
        let deadline = budget
            .deadline_ms
            .and_then(|ms| Instant::now().checked_add(Duration::from_millis(ms)));
        RequestGovernor {
            inner: Arc::new(GovernorInner {
                fuel: AtomicU64::new(budget.op_fuel.unwrap_or(u64::MAX)),
                deadline,
                tripped: OnceLock::new(),
                charged: AtomicU64::new(0),
                degraded: AtomicU64::new(0),
                inject: inject.map(|plan| Injection {
                    plan,
                    counts: Mutex::new(HashMap::new()),
                    fired: AtomicU64::new(0),
                }),
            }),
        }
    }

    /// Charges one governed operation: spends fuel and checks the
    /// deadline, and once tripped refuses every further charge with the
    /// trip reason. The caller has already handled the grace scope (see
    /// [`governor_grace`](crate::governor_grace)).
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

    /// Fault-injection checkpoint for a named site: counts the arrival and
    /// applies the plan's action if it fires there. No lock is held when an
    /// injected panic unwinds. An `ExhaustBudget` fault trips this
    /// governor, so the exhaustion is sticky for the request exactly like
    /// a spent budget.
    pub(crate) fn inject_check(&self, site: &'static str) -> Result<(), OmegaError> {
        let Some(inj) = &self.inner.inject else {
            return Ok(());
        };
        let n = {
            let mut counts = inj
                .counts
                .lock()
                .expect("no panic is raised while the injection counters are locked");
            let count = counts.entry(site).or_insert(0);
            *count += 1;
            *count - 1
        };
        if !inj.plan.should_fire(site, n) {
            return Ok(());
        }
        inj.fired.fetch_add(1, Ordering::Relaxed);
        match inj.plan.action {
            FaultAction::Error => Err(OmegaError::InexactNegation),
            FaultAction::Panic => panic!("injected panic at site {site}"),
            FaultAction::ExhaustBudget => {
                self.trip("injected");
                Err(self.refuse())
            }
        }
    }

    fn trip(&self, reason: &'static str) {
        let _ = self.inner.tripped.set(reason);
    }

    /// Counts one refused operation and names the trip reason.
    fn refuse(&self) -> OmegaError {
        self.inner.degraded.fetch_add(1, Ordering::Relaxed);
        OmegaError::BudgetExceeded(self.inner.tripped.get().copied().unwrap_or("budget"))
    }

    /// True once the deadline passed, the fuel ran out, or an injected
    /// exhaustion fired.
    pub fn tripped(&self) -> bool {
        self.inner.tripped.get().is_some()
    }

    /// How many times this governor's fault plan has fired (0 without a
    /// plan).
    pub fn injected_faults(&self) -> u64 {
        self.inner
            .inject
            .as_ref()
            .map_or(0, |i| i.fired.load(Ordering::Relaxed))
    }

    /// This governor's counters and trip reason.
    pub fn stats(&self) -> GovernorStats {
        GovernorStats {
            ops_charged: self.inner.charged.load(Ordering::Relaxed),
            ops_degraded: self.inner.degraded.load(Ordering::Relaxed),
            tripped: self.inner.tripped.get().copied(),
        }
    }
}

/// Counters reported by [`RequestGovernor::stats`]: how much work the
/// governor saw and whether it tripped.
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
        let b = Budget::new().deadline_ms(100).op_fuel(42);
        assert_eq!(b.deadline_ms, Some(100));
        assert_eq!(b.op_fuel, Some(42));
    }
}
