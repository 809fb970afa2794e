//! The session-replay wall. [`ReplayMemo`] replays each distinct session
//! once, alone, and composes whole-schedule replays from those results
//! behind a link-disjointness certificate. Whatever it does, its answer
//! must equal [`replay_schedule`] (`==`, f64 included; errors by their
//! debug form):
//!
//! * every planned scenario of the smoke and degraded smoke corpora at
//!   seeds 2005 and 9173, composed without a single fallback;
//! * hand-built, unvalidated schedules whose overlapping sessions share
//!   a cardinal link, only a source injection port, or only a CUT
//!   ejection port. There the whole replay differs from composing solo
//!   replays, so the certificate must fail and the whole schedule
//!   replay;
//! * back-to-back sessions on one interface, the second released the
//!   cycle the first's last tail ejects, where the first's pacing still
//!   delays the second;
//! * a schedule with a session whose solo replay fails (a dead source
//!   router), which returns exactly [`replay_schedule`]'s error, and one
//!   released past its makespan, whose whole replay times out.
//!
//! A session's replay does not depend on its start cycle either, which
//! is what lets the memo key it without one.
//!
//! The exact searches of the smoke corpus run under a 10k-expansion
//! budget (same registry names) so the wall stays quick in debug builds;
//! the replay sees their schedules as it sees any other.

use std::sync::Arc;

use noctest::core::interface::InterfaceId;
use noctest::core::{
    replay_schedule, CutId, FaultSet, OptimalScheduler, ParallelOptimalScheduler,
    PortfolioScheduler, ReplayCounts, ReplayMemo, Schedule, ScheduleReplay, ScheduledTest,
    SchedulerRegistry, SystemBuilder, SystemUnderTest,
};
use noctest::cpu::ProcessorProfile;
use noctest::gen::CorpusSpec;
use noctest::itc02::data;
use noctest::noc::{Direction, LinkId, NocError};
use noctest::Campaign;

const CAP: u32 = 2;

fn bounded_campaign() -> Campaign {
    let budget = Some(10_000);
    let mut registry = SchedulerRegistry::with_defaults();
    registry.register(
        "optimal",
        Arc::new(OptimalScheduler::new().with_max_expansions(budget)),
    );
    registry.register(
        "optimal-par",
        Arc::new(
            ParallelOptimalScheduler::new()
                .with_threads(2)
                .with_max_expansions(budget),
        ),
    );
    registry.register(
        "portfolio",
        Arc::new(PortfolioScheduler::new().with_max_expansions(budget)),
    );
    Campaign::with_registry(registry)
}

fn assert_identical(
    got: &Result<ScheduleReplay, NocError>,
    want: &Result<ScheduleReplay, NocError>,
    context: &str,
) {
    match (got, want) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{context}"),
        (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{context}"),
        (a, b) => panic!("{context}: outcome kind diverged ({a:?} vs {b:?})"),
    }
}

fn corpus_composes_every_replay(spec: &CorpusSpec, campaign: &Campaign) {
    let cap = spec.fidelity_patterns_cap.expect("smoke corpora replay");
    let memo = ReplayMemo::default();
    let mut replayed = 0u64;
    for request in spec.requests() {
        let Ok(sys) = request.build_system() else {
            continue;
        };
        let scheduler = campaign
            .registry()
            .get(&request.scheduler)
            .expect("registered scheduler");
        let Ok(schedule) = scheduler.schedule_tuned(&sys, &request.search, None) else {
            continue;
        };
        if schedule.validate(&sys).is_err() {
            continue;
        }
        let (composed, _) = memo.replay(&sys, &schedule, cap);
        let whole = replay_schedule(&sys, &schedule, cap);
        assert_identical(&composed, &whole, &request.name);
        replayed += 1;
    }
    assert!(replayed > 0, "seed {}: nothing replayed", spec.seed);
    let counts = memo.counts();
    assert_eq!(
        counts.fallbacks, 0,
        "seed {}: a planned schedule failed the certificate",
        spec.seed
    );
    assert!(counts.shared > 0, "seed {}: no session shared", spec.seed);
}

#[test]
fn composed_replays_equal_whole_replays_on_the_smoke_corpora() {
    let campaign = bounded_campaign();
    for seed in [2005, 9173] {
        corpus_composes_every_replay(&CorpusSpec::smoke(seed), &campaign);
        corpus_composes_every_replay(&CorpusSpec::degraded_smoke(seed), &campaign);
    }
}

/// d695 with six Leon processors, `reused` of them reused as interfaces.
fn system(width: u16, height: u16, reused: usize) -> SystemUnderTest {
    SystemBuilder::from_benchmark(&data::d695(), width, height)
        .processors(&ProcessorProfile::leon(), 6, reused)
        .build()
        .expect("d695 builds")
}

fn session(sys: &SystemUnderTest, iface: InterfaceId, cut: CutId, start: u64) -> ScheduledTest {
    ScheduledTest {
        cut,
        interface: iface,
        start,
        end: start + sys.session_cycles(iface, cut),
    }
}

/// Each session's `simulated_cycles` when it is replayed alone at its
/// own start: what composing without a certificate would report.
fn naive_cycles(sys: &SystemUnderTest, schedule: &Schedule) -> Vec<u64> {
    schedule
        .entries()
        .iter()
        .map(|entry| {
            let solo = replay_schedule(sys, &Schedule::new(vec![*entry]), CAP)
                .expect("a solo session drains");
            solo.sessions[0].simulated_cycles
        })
        .collect()
}

fn whole_cycles(replay: &ScheduleReplay) -> Vec<u64> {
    replay.sessions.iter().map(|s| s.simulated_cycles).collect()
}

/// The links two sessions' footprints share. The system's overlap test
/// must agree that there are some exactly when the list is not empty.
fn shared_links(sys: &SystemUnderTest, a: &ScheduledTest, b: &ScheduledTest) -> Vec<LinkId> {
    let fa = sys.path(a.interface, a.cut).links();
    let fb = sys.path(b.interface, b.cut).links();
    let shared: Vec<LinkId> = fa
        .iter()
        .filter(|l| fb.iter().any(|m| m == *l))
        .copied()
        .collect();
    assert_eq!(
        sys.footprints_overlap((a.interface, a.cut), (b.interface, b.cut)),
        !shared.is_empty(),
        "{a:?} and {b:?}"
    );
    shared
}

/// The first pair of sessions, both released at cycle 0, that satisfies
/// `shares` and whose whole replay differs from composing their solo
/// replays.
fn contending_pair(
    sys: &SystemUnderTest,
    shares: impl Fn(&ScheduledTest, &ScheduledTest, &[LinkId]) -> bool,
) -> Schedule {
    let sessions: Vec<ScheduledTest> = sys
        .interface_ids()
        .flat_map(|iface| sys.cuts().iter().map(move |cut| (iface, cut.id)))
        .filter(|&(iface, cut)| sys.reachable(iface, cut))
        .map(|(iface, cut)| session(sys, iface, cut, 0))
        .collect();
    for (i, a) in sessions.iter().enumerate() {
        for b in &sessions[i + 1..] {
            if a.cut == b.cut || !shares(a, b, &shared_links(sys, a, b)) {
                continue;
            }
            let schedule = Schedule::new(vec![*a, *b]);
            let whole = replay_schedule(sys, &schedule, CAP).expect("the pair drains");
            if whole_cycles(&whole) != naive_cycles(sys, &schedule) {
                return schedule;
            }
        }
    }
    panic!("no contending pair shares what the case needs");
}

/// The memo must fall back on `schedule` and return exactly
/// [`replay_schedule`]'s answer, which differs from a naive composition.
fn assert_falls_back(sys: &SystemUnderTest, schedule: &Schedule, case: &str) {
    let whole = replay_schedule(sys, schedule, CAP);
    assert_ne!(
        whole_cycles(whole.as_ref().unwrap()),
        naive_cycles(sys, schedule),
        "{case}: the sessions do not contend"
    );
    let memo = ReplayMemo::default();
    let (got, simulated) = memo.replay(sys, schedule, CAP);
    assert!(simulated, "{case}");
    assert_identical(&got, &whole, case);
    assert_eq!(memo.counts().fallbacks, 1, "{case}: the certificate held");
}

fn is_local(link: &LinkId) -> bool {
    link.dir == Direction::Local
}

#[test]
fn sessions_sharing_a_cardinal_link_replay_whole() {
    let sys = system(4, 4, 2);
    let schedule = contending_pair(&sys, |_, _, shared| {
        !shared.is_empty() && !shared.iter().any(is_local)
    });
    assert_falls_back(&sys, &schedule, "shared cardinal link");
}

#[test]
fn sessions_sharing_only_a_source_injection_port_replay_whole() {
    let sys = system(3, 3, 4);
    let schedule = contending_pair(&sys, |a, b, shared| {
        let src = sys.interface(a.interface).source_node();
        a.interface == b.interface
            && sys.cut(a.cut).node != sys.cut(b.cut).node
            && shared.contains(&LinkId::injection(src))
            && shared.iter().all(is_local)
    });
    assert_falls_back(&sys, &schedule, "shared source injection port");
}

#[test]
fn sessions_sharing_only_a_cut_ejection_port_replay_whole() {
    let sys = system(3, 3, 4);
    let schedule = contending_pair(&sys, |a, b, shared| {
        let node = sys.cut(a.cut).node;
        sys.interface(a.interface).source_node() != sys.interface(b.interface).source_node()
            && sys.cut(b.cut).node == node
            && shared.contains(&LinkId::ejection(node))
            && shared.iter().all(is_local)
    });
    assert_falls_back(&sys, &schedule, "shared CUT ejection port");
}

#[test]
fn a_session_released_as_its_predecessor_drains_replays_whole() {
    // The external tester drives a core on its own router (a zero-hop
    // stream), then another core, released the very cycle the first
    // stream's last tail ejects. The first stream's injection pacing
    // still holds the port, so the second runs late.
    let sys = system(4, 4, 2);
    let ext = InterfaceId(0);
    let src = sys.interface(ext).source_node();
    let local = sys
        .cuts()
        .iter()
        .find(|cut| cut.node == src)
        .expect("a core sits on the tester's router")
        .id;
    let first = session(&sys, ext, local, 0);
    let drained = naive_cycles(&sys, &Schedule::new(vec![first]))[0];
    let schedule = sys
        .cuts()
        .iter()
        .filter(|cut| cut.id != local)
        .map(|cut| Schedule::new(vec![first, session(&sys, ext, cut.id, drained)]))
        .find(|schedule| {
            let whole = replay_schedule(&sys, schedule, CAP).expect("drains");
            whole_cycles(&whole) != naive_cycles(&sys, schedule)
        })
        .expect("some back-to-back pair feels the pacing");
    assert_falls_back(&sys, &schedule, "back-to-back on one interface");
}

#[test]
fn a_failing_solo_replay_returns_the_whole_replays_error() {
    // A chain whose southward links are dead carries traffic north only.
    // The external tester (south end in, north end out) reaches every
    // core and the processor in the middle, so the system builds; the
    // processor reaches no core south of it, but an unvalidated schedule
    // may still drive one from it.
    let mut faults = FaultSet::none();
    for node in 1..5 {
        faults.add_link(LinkId::cardinal(
            noctest::noc::NodeId::new(node),
            Direction::South,
        ));
    }
    let sys = SystemBuilder::new("northbound", 1, 5)
        .core("a", 16, 16, 4, 10.0)
        .core("b", 16, 16, 4, 10.0)
        .processors(&ProcessorProfile::leon(), 1, 1)
        .faults(faults)
        .build()
        .expect("the external tester reaches every core");
    let ext = InterfaceId(0);
    let leon = InterfaceId(1);
    let healthy = sys.cuts()[1].id;
    let dead = sys.cuts()[2].id;
    assert!(sys.reachable(ext, healthy) && sys.reachable(ext, dead));
    assert!(!sys.reachable(leon, dead), "the processor sits north of b");
    let schedule = Schedule::new(vec![
        session(&sys, ext, healthy, 0),
        // No path, so no modelled session length either.
        ScheduledTest {
            cut: dead,
            interface: leon,
            start: 100,
            end: 200,
        },
    ]);
    let whole = replay_schedule(&sys, &schedule, CAP);
    assert!(
        matches!(whole, Err(NocError::Unroutable { .. })),
        "{whole:?}"
    );
    let memo = ReplayMemo::default();
    for call in 0..2 {
        let (got, _) = memo.replay(&sys, &schedule, CAP);
        assert_identical(&got, &whole, &format!("call {call}"));
    }
    // Both calls fall back: the first simulates both sessions solo, the
    // second takes both (the failure included) from the memo.
    assert_eq!(
        memo.counts(),
        ReplayCounts {
            simulated: 2,
            shared: 2,
            fallbacks: 2,
        }
    );
}

#[test]
fn a_session_released_past_the_makespan_times_out_as_a_whole_replay() {
    // An unvalidated entry may start after its own end. The whole
    // replay's drain budget counts from the makespan, so it runs out
    // before the stream is released; the solo replay drains all the same.
    let sys = system(4, 4, 2);
    let schedule = Schedule::new(vec![ScheduledTest {
        cut: sys.cuts()[0].id,
        interface: InterfaceId(0),
        start: 1_000_000_000,
        end: 10,
    }]);
    let whole = replay_schedule(&sys, &schedule, CAP);
    assert!(matches!(whole, Err(NocError::Timeout { .. })), "{whole:?}");
    let memo = ReplayMemo::default();
    let (got, _) = memo.replay(&sys, &schedule, CAP);
    assert_identical(&got, &whole, "released past the makespan");
    assert_eq!(memo.counts().fallbacks, 1);
}

#[test]
fn a_sessions_replay_does_not_depend_on_its_start_cycle() {
    let sys = system(4, 4, 2);
    let memo = ReplayMemo::default();
    for cut in sys.cuts() {
        let Some(iface) = sys.interface_ids().find(|&i| sys.reachable(i, cut.id)) else {
            continue;
        };
        let mut cycles = Vec::new();
        for start in [0, 1, 7, 1_234_567] {
            let schedule = Schedule::new(vec![session(&sys, iface, cut.id, start)]);
            let whole = replay_schedule(&sys, &schedule, CAP).expect("a solo session drains");
            let (composed, _) = memo.replay(&sys, &schedule, CAP);
            assert_eq!(composed.as_ref().ok(), Some(&whole), "cut {}", cut.id.0);
            cycles.push(whole.sessions[0].simulated_cycles);
        }
        assert!(
            cycles.windows(2).all(|w| w[0] == w[1]),
            "cut {}: {cycles:?}",
            cut.id.0
        );
    }
    // Only the first start of each session simulated.
    let counts = memo.counts();
    assert_eq!(counts.shared, 3 * counts.simulated);
    assert_eq!(counts.fallbacks, 0);
}
