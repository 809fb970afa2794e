//! [`SchedulerRegistry`]: string-keyed scheduler resolution.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::plan::error::CampaignError;
use crate::sched::{
    GreedyScheduler, OptimalScheduler, ParallelOptimalScheduler, PortfolioScheduler, Scheduler,
    SerialScheduler, SmartScheduler,
};

/// A string-keyed table of [`Scheduler`] implementations.
///
/// Requests select their algorithm by name, so a campaign file can sweep
/// schedulers the same way it sweeps power budgets. The default table
/// serves the six built-in planners (`serial`, `greedy`, `smart`,
/// `optimal`, the work-stealing `optimal-par` and the racing
/// `portfolio`); users register their own implementations under new
/// names — the planning pipeline treats them identically.
///
/// ```
/// use noctest_core::plan::SchedulerRegistry;
/// use noctest_core::{CancelToken, PlanError, Schedule, Scheduler, SearchTuning, SystemUnderTest};
/// use std::sync::Arc;
///
/// #[derive(Debug)]
/// struct ReversePriority;
/// impl Scheduler for ReversePriority {
///     fn schedule_tuned(
///         &self,
///         sys: &SystemUnderTest,
///         _tuning: &SearchTuning,
///         _cancel: Option<&CancelToken>,
///     ) -> Result<Schedule, PlanError> {
///         noctest_core::SerialScheduler.schedule(sys)
///     }
/// }
///
/// let mut registry = SchedulerRegistry::with_defaults();
/// registry.register("reverse", Arc::new(ReversePriority));
/// assert!(registry.get("reverse").is_ok());
/// assert_eq!(registry.names().len(), 7);
/// ```
#[derive(Clone)]
pub struct SchedulerRegistry {
    entries: BTreeMap<String, Arc<dyn Scheduler>>,
}

impl std::fmt::Debug for SchedulerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl SchedulerRegistry {
    /// An empty registry (no names resolve).
    #[must_use]
    pub fn empty() -> Self {
        SchedulerRegistry {
            entries: BTreeMap::new(),
        }
    }

    /// The default registry: `serial`, `greedy`, `smart`, `optimal`,
    /// `optimal-par` and `portfolio`.
    #[must_use]
    pub fn with_defaults() -> Self {
        let mut r = SchedulerRegistry::empty();
        r.register("serial", Arc::new(SerialScheduler));
        r.register("greedy", Arc::new(GreedyScheduler));
        r.register("smart", Arc::new(SmartScheduler));
        r.register("optimal", Arc::new(OptimalScheduler::new()));
        r.register("optimal-par", Arc::new(ParallelOptimalScheduler::new()));
        r.register("portfolio", Arc::new(PortfolioScheduler::new()));
        r
    }

    /// Registers (or replaces) a scheduler under `name`.
    pub fn register(&mut self, name: impl Into<String>, scheduler: Arc<dyn Scheduler>) {
        self.entries.insert(name.into(), scheduler);
    }

    /// Removes a scheduler; returns it if it was registered.
    pub fn unregister(&mut self, name: &str) -> Option<Arc<dyn Scheduler>> {
        self.entries.remove(name)
    }

    /// Resolves a scheduler by name.
    ///
    /// # Errors
    ///
    /// [`CampaignError::UnknownScheduler`] listing every registered name
    /// in sorted order — the message is stable (asserted by tests)
    /// because it surfaces verbatim through the `plan-serve` daemon's
    /// NDJSON `failed` events.
    pub fn get(&self, name: &str) -> Result<Arc<dyn Scheduler>, CampaignError> {
        self.entries
            .get(name)
            .cloned()
            .ok_or_else(|| CampaignError::UnknownScheduler {
                requested: name.to_owned(),
                available: self.names(),
            })
    }

    /// All registered names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Number of registered schedulers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for SchedulerRegistry {
    fn default() -> Self {
        SchedulerRegistry::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_serve_the_six_planners() {
        let r = SchedulerRegistry::with_defaults();
        assert_eq!(
            r.names(),
            vec![
                "greedy",
                "optimal",
                "optimal-par",
                "portfolio",
                "serial",
                "smart"
            ]
        );
        for (name, ty) in [
            ("greedy", "GreedyScheduler"),
            ("optimal", "OptimalScheduler {"),
            ("optimal-par", "ParallelOptimalScheduler {"),
            ("portfolio", "PortfolioScheduler {"),
            ("serial", "SerialScheduler"),
            ("smart", "SmartScheduler"),
        ] {
            let debug = format!("{:?}", r.get(name).unwrap());
            assert!(debug.starts_with(ty), "`{name}` serves {debug}");
        }
    }

    #[test]
    fn unknown_name_reports_alternatives() {
        let r = SchedulerRegistry::with_defaults();
        match r.get("annealing") {
            Err(CampaignError::UnknownScheduler {
                requested,
                available,
            }) => {
                assert_eq!(requested, "annealing");
                assert_eq!(available.len(), 6);
            }
            other => panic!("expected UnknownScheduler, got {other:?}"),
        }
    }

    #[test]
    fn unknown_scheduler_message_is_stable_and_sorted() {
        // The exact message is daemon wire format (plan-serve NDJSON
        // `failed` events carry it verbatim): names sorted, comma-
        // separated. Registration order must not leak into it.
        let mut r = SchedulerRegistry::empty();
        r.register("smart", Arc::new(SmartScheduler));
        r.register("greedy", Arc::new(GreedyScheduler));
        r.register("serial", Arc::new(SerialScheduler));
        r.register("optimal", Arc::new(OptimalScheduler::new()));
        assert_eq!(
            r.get("annealing").unwrap_err().to_string(),
            "unknown scheduler `annealing` (registered: greedy, optimal, serial, smart)"
        );
        assert_eq!(
            SchedulerRegistry::empty()
                .get("any")
                .unwrap_err()
                .to_string(),
            "unknown scheduler `any` (no schedulers registered)"
        );
    }

    #[test]
    fn registration_replaces_and_removes() {
        let mut r = SchedulerRegistry::empty();
        assert!(r.is_empty());
        r.register("mine", Arc::new(SerialScheduler));
        assert_eq!(r.len(), 1);
        assert_eq!(format!("{:?}", r.get("mine").unwrap()), "SerialScheduler");
        r.register("mine", Arc::new(GreedyScheduler));
        assert_eq!(format!("{:?}", r.get("mine").unwrap()), "GreedyScheduler");
        assert!(r.unregister("mine").is_some());
        assert!(r.unregister("mine").is_none());
        assert!(r.is_empty());
    }
}
