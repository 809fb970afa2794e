//! The executor's build memo shares each parsed SoC and each built system
//! among the jobs that describe them. Sharing must change nothing but the
//! work done:
//!
//! * every outcome of the smoke corpus, planned on two workers with
//!   replays shared, equals `Campaign::run` of the same request in every
//!   member but the wall-clock stage timing;
//! * on one worker the memo builds each corpus group's system exactly
//!   once and parses each SoC exactly once.
//!
//! The exact searches run under a 10k-expansion budget (same registry
//! names) so the wall stays quick in debug builds; the search budget
//! never reaches the build.

use std::sync::Arc;

use noctest::core::plan::exec::{Executor, JobResult};
use noctest::core::plan::{BuildCounts, Campaign, PlanOutcome, StageTiming};
use noctest::core::{
    OptimalScheduler, ParallelOptimalScheduler, PortfolioScheduler, SchedulerRegistry,
};
use noctest::gen::{CorpusSpec, StreamOptions};

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
        Arc::new(
            PortfolioScheduler::new()
                .with_threads(2)
                .with_max_expansions(budget),
        ),
    );
    Campaign::with_registry(registry)
}

fn without_timing(outcome: &PlanOutcome) -> PlanOutcome {
    PlanOutcome {
        timing: StageTiming::default(),
        ..outcome.clone()
    }
}

#[test]
fn shared_builds_match_campaign_run_on_the_smoke_corpus() {
    let requests = CorpusSpec::smoke(2005).requests();
    assert_eq!(requests.len(), 240);
    let campaign = bounded_campaign();
    let executor = Executor::builder()
        .campaign(campaign.clone())
        .threads(2)
        .unwrap()
        .share_replays(true)
        .build();
    let handles: Vec<_> = requests
        .iter()
        .map(|r| executor.submit(r.clone()))
        .collect();
    for (request, handle) in requests.iter().zip(&handles) {
        let direct = campaign.run(request);
        match (handle.wait(), direct) {
            (JobResult::Completed(shared), Ok(direct)) => {
                assert!(direct.fidelity.is_some(), "{}", request.name);
                assert_eq!(
                    without_timing(&shared),
                    without_timing(&direct),
                    "{}",
                    request.name
                );
            }
            (shared, direct) => panic!("{}: {shared:?} vs {direct:?}", request.name),
        }
    }
    assert_eq!(executor.build_counts().systems.0, 40);
}

#[test]
fn one_worker_builds_each_group_once_and_parses_each_soc_once() {
    let spec = CorpusSpec::smoke(2005);
    let campaign = bounded_campaign().with_threads(1).unwrap();
    let run = spec.run_streaming(&campaign, StreamOptions::default(), |_, _, _| {});
    assert!(run.report.all_valid());
    assert_eq!(spec.group_count(), 40);
    assert_eq!(spec.soc_count(), 20);
    assert_eq!(
        run.builds,
        BuildCounts {
            systems: (40, 200),
            socs: (20, 20),
        }
    );
}
