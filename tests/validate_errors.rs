//! Error-path coverage for `Schedule::validate` — every invariant the
//! planner promises is actually enforced — plus the scheduler-registry
//! parity checks on d695.

use noctest::core::plan::{Campaign, PlanRequest};
use noctest::core::{
    BudgetSpec, CutId, FaultSet, GreedyScheduler, InterfaceId, PlanError, Schedule, ScheduledTest,
    Scheduler, SystemBuilder, SystemUnderTest,
};
use noctest::cpu::ProcessorProfile;
use noctest::noc::{Direction, LinkId, NodeId};

/// d695 with six Leon processors, `reused` of them reusable.
fn d695(reused: usize, budget: BudgetSpec) -> SystemUnderTest {
    PlanRequest::benchmark("d695", 4, 4)
        .with_processors("leon", 6, reused)
        .with_budget(budget)
        .build_system()
        .expect("system builds")
}

/// A valid serialized schedule: every core on the external tester, in
/// declaration order, back to back.
fn serial_entries(sys: &SystemUnderTest) -> Vec<ScheduledTest> {
    let ext = InterfaceId(0);
    let mut clock = 0;
    sys.cuts()
        .iter()
        .map(|cut| {
            let cycles = sys.session_cycles(ext, cut.id);
            let entry = ScheduledTest {
                cut: cut.id,
                interface: ext,
                start: clock,
                end: clock + cycles,
            };
            clock += cycles;
            entry
        })
        .collect()
}

fn assert_invalid_with(sys: &SystemUnderTest, entries: Vec<ScheduledTest>, needle: &str) {
    match Schedule::new(entries).validate(sys) {
        Err(PlanError::InvalidSchedule(msg)) => {
            assert!(
                msg.contains(needle),
                "expected violation mentioning `{needle}`, got `{msg}`"
            );
        }
        other => panic!("expected InvalidSchedule({needle}), got {other:?}"),
    }
}

#[test]
fn serial_reference_schedule_is_valid() {
    let sys = d695(2, BudgetSpec::Unlimited);
    Schedule::new(serial_entries(&sys)).validate(&sys).unwrap();
}

#[test]
fn duplicate_cut_is_rejected() {
    let sys = d695(2, BudgetSpec::Unlimited);
    let mut entries = serial_entries(&sys);
    // Test the first core a second time, after everything else.
    let mut again = entries[0];
    let duration = again.duration();
    let makespan = entries.last().unwrap().end;
    again.start = makespan;
    again.end = makespan + duration;
    entries.push(again);
    assert_invalid_with(&sys, entries, "tested 2 times");
}

#[test]
fn missing_cut_is_rejected() {
    let sys = d695(2, BudgetSpec::Unlimited);
    let mut entries = serial_entries(&sys);
    let dropped = entries.pop().unwrap();
    assert_invalid_with(&sys, entries, &format!("{} never tested", dropped.cut));
}

#[test]
fn wrong_session_length_is_rejected() {
    let sys = d695(2, BudgetSpec::Unlimited);
    let mut entries = serial_entries(&sys);
    entries[3].end -= 1;
    assert_invalid_with(&sys, entries, "model says");
}

#[test]
fn interface_double_booking_is_rejected() {
    let sys = d695(2, BudgetSpec::Unlimited);
    let mut entries = serial_entries(&sys);
    // Pull the second session back so it overlaps the first on the same
    // (external) interface, keeping its model-correct duration.
    let duration = entries[1].duration();
    entries[1].start = entries[0].start;
    entries[1].end = entries[0].start + duration;
    assert_invalid_with(&sys, entries, "concurrently");
}

#[test]
fn link_conflict_is_rejected() {
    let sys = d695(4, BudgetSpec::Unlimited);
    // Find two cores on two *different* interfaces whose test paths share
    // a NoC link.
    let mut found = None;
    'search: for a in sys.cuts() {
        for b in sys.cuts() {
            if a.id == b.id {
                continue;
            }
            for ia in sys.interface_ids() {
                for ib in sys.interface_ids() {
                    if ia == ib {
                        continue;
                    }
                    if sys.footprints_overlap((ia, a.id), (ib, b.id)) {
                        found = Some((a.id, ia, b.id, ib));
                        break 'search;
                    }
                }
            }
        }
    }
    let (a, ia, b, ib) = found.expect("d695 has conflicting path pairs");

    // Serialize everything except `a` and `b`, then run those two
    // concurrently at the end on their conflicting interfaces.
    let mut entries: Vec<ScheduledTest> = serial_entries(&sys)
        .into_iter()
        .filter(|e| e.cut != a && e.cut != b)
        .collect();
    let tail = entries.last().unwrap().end;
    entries.push(ScheduledTest {
        cut: a,
        interface: ia,
        start: tail,
        end: tail + sys.session_cycles(ia, a),
    });
    entries.push(ScheduledTest {
        cut: b,
        interface: ib,
        start: tail,
        end: tail + sys.session_cycles(ib, b),
    });
    assert_invalid_with(&sys, entries, "share NoC links");
}

#[test]
fn severed_pair_is_rejected_not_a_panic() {
    // Both links into router 0 are dead, so only the external tester,
    // whose input sits there, reaches the core seated there; the
    // processor on router 3 does not.
    let into = |from, dir| LinkId::cardinal(NodeId::new(from), dir);
    let mut b = SystemBuilder::new("grid", 4, 4);
    for i in 0..14 {
        b = b.core(format!("c{i}"), 100, 100, 10, 50.0);
    }
    let sys = b
        .processors(&ProcessorProfile::plasma(), 2, 2)
        .faults(
            FaultSet::none()
                .with_link(into(1, Direction::West))
                .with_link(into(4, Direction::South)),
        )
        .build()
        .expect("the external tester reaches every core");
    let proc = sys
        .interface_ids()
        .find(|&i| sys.interface(i).source_node() == NodeId::new(3))
        .expect("a processor sits on router 3");
    let victim = sys
        .cuts()
        .iter()
        .find(|c| !sys.reachable(proc, c.id))
        .expect("router 3's processor is cut off from router 0")
        .id;
    let entry = ScheduledTest {
        cut: victim,
        interface: proc,
        start: 0,
        end: 1,
    };
    assert_invalid_with(&sys, vec![entry], "no surviving route");
}

/// A greedy d695 schedule with `edit` applied to entry `index`.
fn edited_greedy(
    sys: &SystemUnderTest,
    index: usize,
    edit: impl Fn(&mut ScheduledTest),
) -> Vec<ScheduledTest> {
    let mut entries = GreedyScheduler.schedule(sys).unwrap().entries().to_vec();
    edit(&mut entries[index]);
    entries
}

#[test]
fn unknown_interface_is_rejected_not_a_panic() {
    // Slots are `cut × interfaces + interface`: an interface one past the
    // end would read the next core's slot, or past the table's end.
    let sys = d695(2, BudgetSpec::Unlimited);
    let unknown = InterfaceId(sys.interfaces().len());
    for index in 0..sys.cuts().len() {
        let entries = edited_greedy(&sys, index, |e| e.interface = unknown);
        assert_eq!(
            Schedule::new(entries).validate(&sys),
            Err(PlanError::InvalidSchedule("unknown interface i3".into())),
            "entry {index}"
        );
    }
}

#[test]
fn unknown_cut_is_rejected_not_a_panic() {
    let sys = d695(2, BudgetSpec::Unlimited);
    let unknown = CutId(sys.cuts().len() as u32 + 3);
    let entries = edited_greedy(&sys, 0, |e| e.cut = unknown);
    assert_eq!(
        Schedule::new(entries).validate(&sys),
        Err(PlanError::InvalidSchedule("unknown core c19".into()))
    );
}

#[test]
fn budget_violation_is_rejected() {
    // A 20% budget admits every single session but not every pair.
    let sys = d695(4, BudgetSpec::Fraction(0.2));
    let cap = sys.budget().cap().unwrap();
    // Find two cores on different interfaces with non-conflicting paths
    // whose combined draw bursts the cap.
    let mut found = None;
    'search: for a in sys.cuts() {
        for b in sys.cuts() {
            if a.id == b.id {
                continue;
            }
            for ia in sys.interface_ids() {
                for ib in sys.interface_ids() {
                    if ia == ib {
                        continue;
                    }
                    if !sys.footprints_overlap((ia, a.id), (ib, b.id))
                        && sys.session_power(ia, a.id) + sys.session_power(ib, b.id) > cap
                    {
                        found = Some((a.id, ia, b.id, ib));
                        break 'search;
                    }
                }
            }
        }
    }
    let (a, ia, b, ib) = found.expect("a power-bursting disjoint pair exists");

    let mut entries: Vec<ScheduledTest> = serial_entries(&sys)
        .into_iter()
        .filter(|e| e.cut != a && e.cut != b)
        .collect();
    let tail = entries.last().unwrap().end;
    entries.push(ScheduledTest {
        cut: a,
        interface: ia,
        start: tail,
        end: tail + sys.session_cycles(ia, a),
    });
    entries.push(ScheduledTest {
        cut: b,
        interface: ib,
        start: tail,
        end: tail + sys.session_cycles(ib, b),
    });
    assert_invalid_with(&sys, entries, "exceeds budget");
}

#[test]
fn processor_testing_itself_is_rejected() {
    let sys = d695(2, BudgetSpec::Unlimited);
    // Find the cut and interface of reused processor 0.
    let proc_iface = sys
        .interface_ids()
        .find(|&i| sys.interface(i).processor_index() == Some(0))
        .expect("processor interface exists");
    let proc_cut = sys
        .cuts()
        .iter()
        .find(|c| c.kind == noctest::core::CutKind::Processor(0))
        .expect("processor cut exists")
        .id;

    // Keep the serial schedule but drive the processor's own self-test
    // from its own interface (still sequential, durations correct).
    let entries: Vec<ScheduledTest> = serial_entries(&sys)
        .iter()
        .scan(0u64, |clock, e| {
            let (cut, iface) = if e.cut == proc_cut {
                (e.cut, proc_iface)
            } else {
                (e.cut, e.interface)
            };
            let cycles = sys.session_cycles(iface, cut);
            let entry = ScheduledTest {
                cut,
                interface: iface,
                start: *clock,
                end: *clock + cycles,
            };
            *clock += cycles;
            Some(entry)
        })
        .collect();
    assert_invalid_with(&sys, entries, "its own self-test on itself");
}

#[test]
fn reuse_before_self_test_is_rejected() {
    let sys = d695(2, BudgetSpec::Unlimited);
    let proc_iface = sys
        .interface_ids()
        .find(|&i| sys.interface(i).processor_index() == Some(0))
        .expect("processor interface exists");
    let proc_cut = sys
        .cuts()
        .iter()
        .find(|c| c.kind == noctest::core::CutKind::Processor(0))
        .expect("processor cut exists")
        .id;
    // Pick a plain core to drive from the processor *before* the
    // processor's own self-test has run (sequential order: victim first).
    let victim = sys
        .cuts()
        .iter()
        .find(|c| c.id != proc_cut && !c.is_processor())
        .expect("a plain core exists")
        .id;

    let mut clock = 0u64;
    let mut entries = Vec::new();
    // Victim first, on the processor interface.
    let cycles = sys.session_cycles(proc_iface, victim);
    entries.push(ScheduledTest {
        cut: victim,
        interface: proc_iface,
        start: clock,
        end: clock + cycles,
    });
    clock += cycles;
    // Then everything else (including the self-test) serially on ext.
    for cut in sys.cuts() {
        if cut.id == victim {
            continue;
        }
        let cycles = sys.session_cycles(InterfaceId(0), cut.id);
        entries.push(ScheduledTest {
            cut: cut.id,
            interface: InterfaceId(0),
            start: clock,
            end: clock + cycles,
        });
        clock += cycles;
    }
    assert_invalid_with(&sys, entries, "before its self-test ends");
}

#[test]
fn empty_schedule_reports_first_missing_cut() {
    let sys = d695(0, BudgetSpec::Unlimited);
    assert_invalid_with(&sys, Vec::new(), "never tested");
}

// ---------------------------------------------------------------------
// Registry parity on d695.
// ---------------------------------------------------------------------

/// All registered heuristics produce valid d695 schedules (validation is
/// on in the request) with the expected quality ordering
/// `serial ≥ greedy ≥ smart`; the exact scheduler lower-bounds everything
/// on a system inside its size guard.
#[test]
fn registry_parity_on_d695() {
    let campaign = Campaign::new();
    let base = PlanRequest::benchmark("d695", 4, 4)
        .with_processors("leon", 6, 4)
        .with_budget(BudgetSpec::Fraction(0.5));

    let mut makespans = std::collections::HashMap::new();
    for name in ["serial", "greedy", "smart"] {
        let outcome = campaign
            .run(&base.clone().with_scheduler(name))
            .unwrap_or_else(|e| panic!("{name} fails on d695: {e}"));
        assert_eq!(outcome.sessions.len(), 16, "{name} covers all cores");
        makespans.insert(name, outcome.makespan);
    }
    assert!(
        makespans["serial"] >= makespans["greedy"],
        "serial {} must not beat greedy {}",
        makespans["serial"],
        makespans["greedy"]
    );
    assert!(
        makespans["greedy"] >= makespans["smart"],
        "greedy {} must not beat smart {} on d695",
        makespans["greedy"],
        makespans["smart"]
    );

    // `optimal` guards against exponential blow-up on the full system...
    let err = campaign
        .run(&base.clone().with_scheduler("optimal"))
        .unwrap_err();
    assert!(err.to_string().contains("exponential"));

    // ...and is ground truth on a d695 subset inside the guard: the five
    // smallest cores plus two reusable processors.
    let soc = noctest::itc02::data::d695();
    let mut cores: Vec<_> = soc.cores().collect();
    cores.sort_by_key(|m| m.test_volume_bits());
    let mini = PlanRequest::benchmark("d695-mini", 3, 3)
        .with_processors("leon", 2, 2)
        .with_budget(BudgetSpec::Fraction(0.5));
    let mut mini = mini;
    mini.soc = noctest::core::plan::SocSource::Cores {
        name: "d695-mini".to_owned(),
        cores: cores
            .iter()
            .take(5)
            .map(|m| noctest::core::plan::CoreRequest {
                name: format!("d695.m{}", m.id().0),
                bits_in: m.pattern_bits_in(),
                bits_out: m.pattern_bits_out(),
                patterns: m.total_patterns(),
                power: m.power().unwrap_or(100.0),
            })
            .collect(),
    };
    let optimal = campaign
        .run(&mini.clone().with_scheduler("optimal"))
        .expect("optimal plans the mini system");
    for name in ["serial", "greedy", "smart"] {
        let heuristic = campaign
            .run(&mini.clone().with_scheduler(name))
            .unwrap_or_else(|e| panic!("{name} fails on mini d695: {e}"));
        assert!(
            optimal.makespan <= heuristic.makespan,
            "optimal {} beaten by {name} {}",
            optimal.makespan,
            heuristic.makespan
        );
    }
}

#[test]
fn schedule_peak_power_agrees_with_validate() {
    // The shared instantaneous-power scan: `peak_power` and the validation
    // budget check must see the same draws. A schedule whose peak is below
    // the cap validates; the same schedule against a cap below its peak
    // fails the budget invariant.
    let sys = d695(4, BudgetSpec::Fraction(0.5));
    let outcome = Campaign::new()
        .run(
            &PlanRequest::benchmark("d695", 4, 4)
                .with_processors("leon", 6, 4)
                .with_budget(BudgetSpec::Fraction(0.5)),
        )
        .expect("plans");
    assert!(outcome.peak_power <= sys.budget().cap().unwrap() + 1e-9);

    // Rebuild the same schedule and check it against a tighter system:
    // every session still fits alone, but the plan's concurrency must now
    // burst the budget check that shares peak_power's scan.
    let entries: Vec<ScheduledTest> = outcome
        .sessions
        .iter()
        .map(|s| {
            let cut = CutId(s.cut);
            let iface = sys
                .interface_ids()
                .find(|&i| sys.interface(i).label() == s.interface)
                .expect("interface label resolves");
            ScheduledTest {
                cut,
                interface: iface,
                start: s.start,
                end: s.end,
            }
        })
        .collect();
    let schedule = Schedule::new(entries.clone());
    schedule
        .validate(&sys)
        .expect("round-tripped plan is valid");
    assert!((schedule.peak_power(&sys) - outcome.peak_power).abs() < 1e-9);

    let fraction = (outcome.peak_power - 1.0) / sys.total_core_power();
    let tighter = d695(4, BudgetSpec::Fraction(fraction));
    assert_invalid_with(&tighter, entries, "exceeds budget");
}
