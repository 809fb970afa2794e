//! The external-only serial baseline (the paper's "noproc" reference,
//! as an explicit reference implementation).

use crate::error::PlanError;
use crate::interface::InterfaceId;
use crate::sched::{CancelToken, Schedule, ScheduledTest, Scheduler, SearchTuning};
use crate::system::SystemUnderTest;

/// Tests every core back-to-back on the external tester, in priority
/// order. Ignores processors entirely, giving the curve's left-most point
/// regardless of how many processors the system declares reusable.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialScheduler;

impl SerialScheduler {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        SerialScheduler
    }
}

impl Scheduler for SerialScheduler {
    fn schedule_tuned(
        &self,
        sys: &SystemUnderTest,
        _tuning: &SearchTuning,
        _cancel: Option<&CancelToken>,
    ) -> Result<Schedule, PlanError> {
        if sys.interfaces().is_empty() {
            return Err(PlanError::NoInterfaces);
        }
        let ext = InterfaceId(0);
        debug_assert!(sys.interface(ext).is_external());
        let mut t = 0u64;
        let mut entries = Vec::with_capacity(sys.cuts().len());
        for cut in sys.priority_order() {
            if !sys.reachable(ext, cut) {
                // Serial refuses to reroute through processors: the whole
                // point of the baseline is the external tester alone.
                return Err(PlanError::InterfaceUnreachable {
                    interface: ext,
                    cut,
                });
            }
            let draw = sys.session_power(ext, cut);
            if !sys.budget().allows(draw) {
                return Err(PlanError::InfeasiblePower {
                    cut,
                    draw,
                    budget: sys.budget().cap().unwrap_or(f64::MAX),
                });
            }
            let dur = sys.session_cycles(ext, cut);
            entries.push(ScheduledTest {
                cut,
                interface: ext,
                start: t,
                end: t + dur,
            });
            t += dur;
        }
        Ok(Schedule::new(entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::GreedyScheduler;
    use crate::system::SystemBuilder;
    use noctest_cpu::ProcessorProfile;
    use noctest_itc02::data;

    #[test]
    fn serial_matches_greedy_noproc() {
        let sys = SystemBuilder::from_benchmark(&data::d695(), 4, 4)
            .processors(&ProcessorProfile::leon(), 6, 0)
            .build()
            .unwrap();
        let serial = SerialScheduler.schedule(&sys).unwrap();
        serial.validate(&sys).unwrap();
        let greedy = GreedyScheduler.schedule(&sys).unwrap();
        assert_eq!(serial.makespan(), greedy.makespan());
        assert_eq!(serial.peak_concurrency(), 1);
    }

    #[test]
    fn serial_ignores_reusable_processors() {
        let sys = SystemBuilder::from_benchmark(&data::d695(), 4, 4)
            .processors(&ProcessorProfile::leon(), 6, 6)
            .build()
            .unwrap();
        let schedule = SerialScheduler.schedule(&sys).unwrap();
        assert!(schedule
            .entries()
            .iter()
            .all(|e| e.interface == InterfaceId(0)));
        // Not `validate`-able: processor self-tests ARE scheduled (they are
        // cores), but no processor interface is ever used, which is fine.
        schedule.validate(&sys).unwrap();
    }
}
