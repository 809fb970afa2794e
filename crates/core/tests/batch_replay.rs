//! The batch-replay differential wall: 48 seeded (system, schedule)
//! cases — healthy and degraded meshes, mixed schedulers and pattern
//! caps — replayed through [`ReplayBatch`] must be **bit-identical** to
//! the sequential [`replay_schedule`] path and to
//! [`replay_schedule_reference`], which drives the full-scan executable
//! specification, per-session fields included.

use noctest_core::{
    replay_schedule, replay_schedule_reference, FaultRecipe, GreedyScheduler, ReplayBatch,
    Schedule, ScheduleReplay, Scheduler, SerialScheduler, SystemBuilder, SystemUnderTest,
};
use noctest_cpu::ProcessorProfile;
use noctest_itc02::data;
use noctest_noc::{Mesh, NocError};
use noctest_testkit::Rng;

struct Case {
    sys: SystemUnderTest,
    schedule: Schedule,
    cap: u32,
}

/// Builds one seeded case. Half the seeds draw a fault recipe; a
/// degraded build or plan that fails (a cluster can swallow the tester
/// interface, a cut can sever the mesh) falls back to the healthy
/// system, so every seed yields a replayable case deterministically.
fn build_case(seed: u64) -> Case {
    let mut rng = Rng::new(seed);
    let (width, height) = *rng.pick(&[(3u16, 3u16), (4, 3), (4, 4)]);
    let (total, reused) = *rng.pick(&[(6usize, 2usize), (4, 4), (2, 2)]);
    let profile = if rng.below(2) == 0 {
        ProcessorProfile::leon()
    } else {
        ProcessorProfile::plasma()
    };
    let faults = if rng.below(2) == 0 {
        let recipe = *rng.pick(&[
            FaultRecipe::UniformLinks { percent: 5 },
            FaultRecipe::UniformLinks { percent: 10 },
            FaultRecipe::RouterCluster { routers: 2 },
        ]);
        let mesh = Mesh::new(width, height).unwrap();
        Some(recipe.generate(&mesh, seed))
    } else {
        None
    };
    let build = |faulted: bool| {
        let mut builder = SystemBuilder::from_benchmark(&data::d695(), width, height)
            .processors(&profile, total, reused);
        if faulted {
            if let Some(faults) = faults.clone() {
                builder = builder.faults(faults);
            }
        }
        builder.build()
    };
    let serial = rng.below(2) == 0;
    let plan = |sys: &SystemUnderTest| {
        if serial {
            SerialScheduler::new().schedule(sys)
        } else {
            GreedyScheduler::new().schedule(sys)
        }
    };
    let (sys, schedule) = match build(true) {
        Ok(sys) => match plan(&sys) {
            Ok(schedule) => (sys, schedule),
            Err(_) => {
                let sys = build(false).expect("healthy build succeeds");
                let schedule = plan(&sys).expect("healthy plan succeeds");
                (sys, schedule)
            }
        },
        Err(_) => {
            let sys = build(false).expect("healthy build succeeds");
            let schedule = plan(&sys).expect("healthy plan succeeds");
            (sys, schedule)
        }
    };
    // A schedule prefix is a valid replay input; truncating keeps the
    // 48-case wall fast without losing arbitration coverage.
    let entries: Vec<_> = schedule.entries().iter().take(4).cloned().collect();
    Case {
        sys,
        schedule: Schedule::new(entries),
        cap: rng.range_u32(1, 2),
    }
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

#[test]
fn batched_replay_is_bit_identical() {
    let cases: Vec<Case> = noctest_testkit::seeds(48).map(build_case).collect();
    let sequential: Vec<_> = cases
        .iter()
        .map(|c| replay_schedule(&c.sys, &c.schedule, c.cap))
        .collect();
    // The live sequential path and the executable specification must
    // agree before either anchors the batch comparison.
    for (i, case) in cases.iter().enumerate() {
        let reference = replay_schedule_reference(&case.sys, &case.schedule, case.cap);
        assert_identical(&reference, &sequential[i], &format!("reference, case {i}"));
    }
    let mut batch = ReplayBatch::new();
    for case in &cases {
        batch.push(&case.sys, &case.schedule, case.cap);
    }
    // A duplicate push exercises the memoized twin path: its result is
    // cloned from the first occurrence, never re-simulated.
    let first = &cases[0];
    batch.push(&first.sys, &first.schedule, first.cap);
    let results = batch.run();
    assert_eq!(results.len(), cases.len() + 1);
    for (i, result) in results[..cases.len()].iter().enumerate() {
        assert_identical(result, &sequential[i], &format!("case {i}"));
    }
    assert_identical(&results[cases.len()], &sequential[0], "memoized duplicate");
}
