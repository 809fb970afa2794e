//! The lookahead ("smart") interface-selection ablation.
//!
//! The paper's final remarks point at the greedy anomaly — taking a free
//! processor even when the (faster) external tester frees up moments later
//! — as the cause of p22810's irregular results. This scheduler is the
//! obvious remedy the discussion implies: for each core, estimate the
//! *completion* time on every interface (earliest availability + session
//! length) and only start the core now if the interface that minimises
//! completion is available now. Otherwise the core waits for the better
//! interface while other cores are still offered their own choices.

use crate::cut::CutId;
use crate::error::PlanError;
use crate::interface::InterfaceId;
use crate::sched::engine::{run_engine, EngineState, InterfacePolicy};
use crate::sched::{CancelToken, Schedule, Scheduler, SearchTuning};
use crate::system::SystemUnderTest;

/// Minimum-estimated-completion interface selection.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmartScheduler;

impl SmartScheduler {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        SmartScheduler
    }
}

struct MinCompletion {
    /// The waiting core currently holding a claim on the external tester,
    /// if any. A persistent claim is what makes holding out sound: without
    /// it, another core grabs the tester the moment it frees and the
    /// holder waits forever while its estimate silently rots.
    claim: std::cell::RefCell<Option<CutId>>,
}

impl InterfacePolicy for MinCompletion {
    fn next_start(
        &self,
        state: &EngineState<'_>,
        waiting: &[CutId],
    ) -> Option<(CutId, InterfaceId)> {
        let ext = InterfaceId(0);
        let now = state.running.now;
        let mut claim = self.claim.borrow_mut();

        // Serve or re-evaluate an outstanding claim first.
        if let Some(holder) = *claim {
            if !waiting.contains(&holder) {
                *claim = None; // holder already started elsewhere
            } else if state.running.feasible_now(state.sys, ext, holder) {
                *claim = None;
                return Some((holder, ext));
            } else if state.iface_busy_until[ext.0] <= now {
                // The tester is free but the holder's path is blocked by a
                // running session's links: the wait was for the tester, and
                // the tester arrived. Release it to the other cores.
                *claim = None;
            } else if !state.sys.reachable(ext, holder) {
                // A claim can only be placed on a reachable tester, so
                // this is defensive; release rather than estimate a
                // severed route.
                *claim = None;
            } else {
                // Abandon the claim if waiting no longer pays: some free
                // interface now completes the holder sooner than the
                // (re-estimated) external tester would.
                let ext_completion =
                    state.iface_busy_until[ext.0].max(now) + state.sys.session_cycles(ext, holder);
                let best_free = state
                    .sys
                    .interface_ids()
                    .filter(|&i| i != ext && state.running.feasible_now(state.sys, i, holder))
                    .map(|i| now + state.sys.session_cycles(i, holder))
                    .min();
                if best_free.is_some_and(|free_c| free_c <= ext_completion) {
                    *claim = None;
                }
            }
        }

        for &cut in waiting {
            if *claim == Some(cut) {
                continue; // the holder waits for the external tester
            }
            // Best completion among interfaces startable *right now*; the
            // external tester is off the menu while someone holds a claim
            // (ties break towards lower interface ids).
            let best_now: Option<(u64, InterfaceId)> = state
                .sys
                .interface_ids()
                .filter(|&iface| claim.is_none() || iface != ext)
                .filter(|&iface| state.running.feasible_now(state.sys, iface, cut))
                .map(|iface| (now + state.sys.session_cycles(iface, cut), iface))
                .min();
            let Some((now_completion, now_iface)) = best_now else {
                continue;
            };

            // The paper's anomaly case: a processor is free now but the
            // (faster) external tester frees "a few instants later".
            // Hold out only when waiting is a clear win: the external
            // completion estimate beats the processor's and the wait is
            // short relative to the session being scheduled.
            if claim.is_none() && now_iface != ext && state.sys.reachable(ext, cut) {
                let ext_busy_until = state.iface_busy_until[ext.0];
                if ext_busy_until > now {
                    let wait = ext_busy_until - now;
                    let ext_completion = ext_busy_until + state.sys.session_cycles(ext, cut);
                    if ext_completion < now_completion && 4 * wait <= now_completion - now {
                        *claim = Some(cut);
                        continue;
                    }
                }
            }
            return Some((cut, now_iface));
        }
        None
    }
}

impl Scheduler for SmartScheduler {
    fn schedule_tuned(
        &self,
        sys: &SystemUnderTest,
        _tuning: &SearchTuning,
        _cancel: Option<&CancelToken>,
    ) -> Result<Schedule, PlanError> {
        run_engine(
            sys,
            &MinCompletion {
                claim: std::cell::RefCell::new(None),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::GreedyScheduler;
    use crate::system::{BudgetSpec, SystemBuilder};
    use noctest_cpu::ProcessorProfile;
    use noctest_itc02::data;

    #[test]
    fn smart_schedules_are_valid() {
        for reused in [0usize, 2, 4, 6] {
            let sys = SystemBuilder::from_benchmark(&data::d695(), 4, 4)
                .processors(&ProcessorProfile::leon(), 6, reused)
                .budget(BudgetSpec::Fraction(0.5))
                .build()
                .unwrap();
            let schedule = SmartScheduler.schedule(&sys).unwrap();
            schedule.validate(&sys).unwrap();
        }
    }

    #[test]
    fn smart_repairs_the_worst_greedy_anomalies() {
        // The greedy anomaly bites hardest at low processor counts: with
        // few (slow) processors, greedy gives big cores to whichever
        // processor is free instead of waiting a moment for the external
        // tester. Smart must win clearly there, and must stay within a
        // modest factor of greedy everywhere (its completion estimates are
        // congestion-blind, so it may lose a little at high counts).
        let profile = ProcessorProfile::leon().calibrated().unwrap();
        let mut log_ratio_sum = 0.0f64;
        let mut points = 0usize;
        let mut best_ratio = f64::MAX;
        for (soc, w, h, total) in [
            (data::p22810(), 5u16, 6u16, 8usize),
            (data::p93791(), 5, 5, 8),
        ] {
            for reused in [2usize, 4, 6, 8] {
                let sys = SystemBuilder::from_benchmark(&soc, w, h)
                    .processors(&profile, total, reused)
                    .build()
                    .unwrap();
                let greedy = GreedyScheduler.schedule(&sys).unwrap().makespan();
                let smart_schedule = SmartScheduler.schedule(&sys).unwrap();
                smart_schedule.validate(&sys).unwrap();
                let smart = smart_schedule.makespan();
                let ratio = smart as f64 / greedy as f64;
                log_ratio_sum += ratio.ln();
                points += 1;
                best_ratio = best_ratio.min(ratio);
                assert!(
                    ratio < 2.0,
                    "smart collapsed at {reused} processors: {ratio}"
                );
            }
        }
        let geo_mean = (log_ratio_sum / points as f64).exp();
        assert!(geo_mean < 1.15, "smart geo-mean ratio {geo_mean} too high");
        assert!(
            best_ratio < 0.9,
            "smart should clearly repair at least one anomaly (best ratio {best_ratio})"
        );
    }

    #[test]
    fn smart_equals_greedy_with_single_interface() {
        let sys = SystemBuilder::from_benchmark(&data::d695(), 4, 4)
            .processors(&ProcessorProfile::leon(), 6, 0)
            .build()
            .unwrap();
        let greedy = GreedyScheduler.schedule(&sys).unwrap();
        let smart = SmartScheduler.schedule(&sys).unwrap();
        assert_eq!(greedy.makespan(), smart.makespan());
    }
}
