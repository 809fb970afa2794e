//! The paper's greedy scheduler.
//!
//! "The greedy behavior of the presented algorithm forces it to select the
//! first test interface available. This can increase the test time because
//! we assume the processor takes 10 clock cycles to generate a test
//! pattern, while the external tester takes zero clock cycles. Thus, if a
//! processor is available in a given instant and an external tester is
//! available a few instants later, the resource used will be the processor,
//! since it was available before. However, the external tester should be
//! used because it is faster than the processor."
//!
//! [`GreedyScheduler`] reproduces exactly that behaviour: at every decision
//! instant, each waiting core (in the distance-based priority order) takes
//! the **lowest-numbered interface that is available right now** — the
//! external tester if it happens to be free, otherwise whatever processor
//! is free — with no lookahead whatsoever. The irregular p22810 curve in
//! Figure 1 is a direct consequence; the [`super::SmartScheduler`]
//! ablation removes it.

use crate::cut::CutId;
use crate::error::PlanError;
use crate::interface::InterfaceId;
use crate::sched::engine::{run_engine, EngineState, InterfacePolicy};
use crate::sched::{CancelToken, Schedule, Scheduler, SearchTuning};
use crate::system::SystemUnderTest;

/// The paper's first-available-interface policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyScheduler;

impl GreedyScheduler {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        GreedyScheduler
    }
}

struct FirstAvailable;

impl InterfacePolicy for FirstAvailable {
    fn next_start(
        &self,
        state: &EngineState<'_>,
        waiting: &[CutId],
    ) -> Option<(CutId, InterfaceId)> {
        for &cut in waiting {
            if let Some(iface) = state
                .sys
                .interface_ids()
                .find(|&iface| state.running.feasible_now(state.sys, iface, cut))
            {
                return Some((cut, iface));
            }
        }
        None
    }
}

impl Scheduler for GreedyScheduler {
    fn schedule_tuned(
        &self,
        sys: &SystemUnderTest,
        _tuning: &SearchTuning,
        _cancel: Option<&CancelToken>,
    ) -> Result<Schedule, PlanError> {
        run_engine(sys, &FirstAvailable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{BudgetSpec, SystemBuilder};
    use noctest_cpu::ProcessorProfile;
    use noctest_itc02::data;

    fn d695(reused: usize, budget: BudgetSpec) -> SystemUnderTest {
        SystemBuilder::from_benchmark(&data::d695(), 4, 4)
            .processors(&ProcessorProfile::leon(), 6, reused)
            .budget(budget)
            .build()
            .unwrap()
    }

    #[test]
    fn noproc_schedule_is_serial_and_valid() {
        let sys = d695(0, BudgetSpec::Unlimited);
        let schedule = GreedyScheduler.schedule(&sys).unwrap();
        schedule.validate(&sys).unwrap();
        // One interface: sessions back to back, makespan = serial sum.
        assert_eq!(schedule.peak_concurrency(), 1);
        assert_eq!(schedule.makespan(), sys.serial_external_cycles());
    }

    #[test]
    fn processors_increase_parallelism_and_cut_test_time() {
        let sys0 = d695(0, BudgetSpec::Unlimited);
        let sys6 = d695(6, BudgetSpec::Unlimited);
        let t0 = GreedyScheduler.schedule(&sys0).unwrap().makespan();
        let s6 = GreedyScheduler.schedule(&sys6).unwrap();
        s6.validate(&sys6).unwrap();
        assert!(s6.peak_concurrency() > 1);
        assert!(
            s6.makespan() < t0,
            "6 processors ({}) must beat noproc ({t0})",
            s6.makespan()
        );
    }

    #[test]
    fn power_limit_never_violated() {
        let sys = d695(6, BudgetSpec::Fraction(0.5));
        let schedule = GreedyScheduler.schedule(&sys).unwrap();
        schedule.validate(&sys).unwrap();
        assert!(schedule.peak_power(&sys) <= sys.budget().cap().unwrap() + 1e-9);
    }

    #[test]
    fn power_limit_can_stretch_the_schedule() {
        let relaxed = d695(6, BudgetSpec::Unlimited);
        let tight = d695(6, BudgetSpec::Fraction(0.25));
        let t_relaxed = GreedyScheduler.schedule(&relaxed).unwrap().makespan();
        let t_tight = GreedyScheduler.schedule(&tight).unwrap().makespan();
        assert!(
            t_tight >= t_relaxed,
            "tight budget {t_tight} must not beat relaxed {t_relaxed}"
        );
    }

    #[test]
    fn all_benchmarks_schedule_cleanly() {
        for (soc, w, h, procs) in [
            (data::d695(), 4u16, 4u16, 6usize),
            (data::p22810(), 5, 6, 8),
            (data::p93791(), 5, 5, 8),
        ] {
            let sys = SystemBuilder::from_benchmark(&soc, w, h)
                .processors(&ProcessorProfile::plasma(), procs, procs)
                .budget(BudgetSpec::Fraction(0.5))
                .build()
                .unwrap();
            let schedule = GreedyScheduler.schedule(&sys).unwrap();
            schedule.validate(&sys).unwrap();
        }
    }
}
