//! Deterministic, seeded fault injection for chaos testing.
//!
//! An [`InjectPlan`] belongs to one request: it rides on that request's
//! [`RequestGovernor`](crate::RequestGovernor) (see
//! [`RequestGovernor::new`](crate::RequestGovernor::new)), so it fires
//! only on the threads that armed that request, never in another request
//! that shares the [`Context`](crate::Context). It fires a configured
//! [`FaultAction`] at named sites: the five memoized Omega operations
//! (`"sat"`, `"eliminate"`, `"negate"`, `"gist"`, `"simplify"`) plus any
//! site the host compiler registers through
//! [`inject_check`](crate::inject_check) (the dHPF
//! driver registers `"comm_sets"` and `"nest"`).
//!
//! Decisions are a pure function of `(seed, site, per-site hit count)`, so
//! a run is reproducible from its seed regardless of thread interleaving:
//! the k-th arrival at a given site always gets the same verdict, even
//! when a different worker thread gets there first.

/// What to do when an injection point fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Surface a degradable `OmegaError` (inexactness-shaped) from the
    /// site, exercising the driver's fallback paths.
    Error,
    /// Panic at the site, exercising `catch_unwind` isolation.
    Panic,
    /// Trip the governor as if the budget were exhausted; subsequent
    /// governed operations degrade or fail with `BudgetExceeded`.
    ExhaustBudget,
}

/// A deterministic fault-injection campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InjectPlan {
    /// Seed mixed into every decision.
    pub seed: u64,
    /// Fire on average once per `period` arrivals at a site (1 = always).
    pub period: u64,
    /// The action taken when a site fires.
    pub action: FaultAction,
    /// If set, only this site may fire; other sites are left alone.
    pub site: Option<&'static str>,
}

impl InjectPlan {
    /// A plan firing `action` once every `period` arrivals, at any site.
    pub fn new(seed: u64, period: u64, action: FaultAction) -> Self {
        InjectPlan {
            seed,
            period: period.max(1),
            action,
            site: None,
        }
    }

    /// Restricts the plan to one named site.
    #[must_use]
    pub fn at_site(mut self, site: &'static str) -> Self {
        self.site = Some(site);
        self
    }

    /// Pure decision function: should the `count`-th arrival at `site`
    /// fire? (`count` is 0-based and tracked per site by the governor.)
    pub fn should_fire(&self, site: &str, count: u64) -> bool {
        if let Some(only) = self.site {
            if only != site {
                return false;
            }
        }
        mix(self.seed, site, count).is_multiple_of(self.period)
    }
}

/// SplitMix64-style mixing of the seed, the site name, and the hit count
/// into a well-distributed u64.
fn mix(seed: u64, site: &str, count: u64) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for &b in site.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h ^= count;
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_site_filtered() {
        let p = InjectPlan::new(7, 3, FaultAction::Error);
        let a: Vec<bool> = (0..32).map(|i| p.should_fire("negate", i)).collect();
        let b: Vec<bool> = (0..32).map(|i| p.should_fire("negate", i)).collect();
        assert_eq!(a, b);
        assert!(
            a.iter().any(|&x| x),
            "period-3 plan should fire within 32 hits"
        );

        let only = InjectPlan::new(7, 1, FaultAction::Panic).at_site("sat");
        assert!(only.should_fire("sat", 0));
        assert!(!only.should_fire("negate", 0));
    }

    #[test]
    fn period_one_always_fires() {
        let p = InjectPlan::new(123, 1, FaultAction::ExhaustBudget);
        assert!((0..16).all(|i| p.should_fire("gist", i)));
    }

    #[test]
    fn different_seeds_differ() {
        let a = InjectPlan::new(1, 4, FaultAction::Error);
        let b = InjectPlan::new(2, 4, FaultAction::Error);
        let va: Vec<bool> = (0..64).map(|i| a.should_fire("simplify", i)).collect();
        let vb: Vec<bool> = (0..64).map(|i| b.should_fire("simplify", i)).collect();
        assert_ne!(va, vb);
    }
}
