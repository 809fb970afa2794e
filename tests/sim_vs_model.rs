//! Integration test: the planner's analytic transport model must track the
//! cycle-level wormhole simulator — for single stimulus streams across
//! systems, cores and interfaces, and for **whole schedules** replayed
//! under real contention on one shared mesh.

use noctest::core::{
    replay_schedule, BudgetSpec, CutId, GreedyScheduler, InterfaceId, Schedule, ScheduledTest,
    Scheduler, SessionReplay, SystemUnderTest,
};
use noctest_bench::{build_system, SystemId};

/// One session's stimulus stream replayed alone from cycle 0: the replay
/// of a one-entry schedule.
fn replay_session(
    sys: &SystemUnderTest,
    iface: InterfaceId,
    cut: CutId,
    patterns_cap: u32,
) -> SessionReplay {
    let entry = ScheduledTest {
        cut,
        interface: iface,
        start: 0,
        end: sys.session_cycles(iface, cut),
    };
    let mut replay =
        replay_schedule(sys, &Schedule::new(vec![entry]), patterns_cap).expect("replay completes");
    replay.sessions.remove(0)
}

#[test]
fn analytic_model_tracks_simulation_across_systems() {
    let mut checked = 0;
    for id in SystemId::ALL {
        let sys = build_system(id, "leon", 2, BudgetSpec::Unlimited).expect("system builds");
        let mut cuts: Vec<_> = sys.cuts().iter().collect();
        cuts.sort_by_key(|c| c.volume_bits());
        // Smallest, median, largest core; external tester and processor 0.
        for cut in [cuts[0], cuts[cuts.len() / 2], cuts[cuts.len() - 1]] {
            for iface in [InterfaceId(0), InterfaceId(1)] {
                let replay = replay_session(&sys, iface, cut.id, 12);
                assert!(
                    replay.relative_error() < 0.25,
                    "{}/{}/iface{}: analytic {} vs simulated {} ({:.1}% error)",
                    id.name(),
                    cut.name,
                    iface.0,
                    replay.analytic_cycles,
                    replay.simulated_cycles,
                    replay.relative_error() * 100.0
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 18);
}

#[test]
fn whole_schedules_replay_within_model_error_across_systems() {
    // The schedule-level counterpart: every session of the greedy plan is
    // injected at its planned start on one shared mesh; the planner's
    // link-disjointness invariant means contention must not push any
    // session's transport past the analytic error budget.
    for id in SystemId::ALL {
        let sys = build_system(id, "leon", 2, BudgetSpec::Unlimited).expect("system builds");
        let schedule = GreedyScheduler::new().schedule(&sys).expect("plans");
        let replay = replay_schedule(&sys, &schedule, 8).expect("replay completes");
        assert_eq!(replay.sessions.len(), schedule.entries().len());
        assert!(replay.simulated_makespan > 0);
        assert!(
            replay.worst_relative_error() < 0.25,
            "{}: worst error {:.1}%",
            id.name(),
            replay.worst_relative_error() * 100.0
        );
    }
}

#[test]
fn longer_streams_simulate_proportionally() {
    let sys =
        build_system(SystemId::D695, "leon", 0, BudgetSpec::Unlimited).expect("system builds");
    let big = sys
        .cuts()
        .iter()
        .max_by_key(|c| c.volume_bits())
        .expect("cores exist")
        .id;
    let r5 = replay_session(&sys, InterfaceId(0), big, 5);
    let r10 = replay_session(&sys, InterfaceId(0), big, 10);
    let ratio = r10.simulated_cycles as f64 / r5.simulated_cycles as f64;
    assert!(
        (1.7..2.3).contains(&ratio),
        "stream cost must scale near-linearly, got {ratio}"
    );
}
