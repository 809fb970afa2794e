//! [`Campaign`]: the runner turning [`PlanRequest`]s into [`PlanOutcome`]s.

use std::sync::Arc;
use std::time::Instant;

use crate::error::PlanError;
use crate::plan::build_memo::BuildMemo;
use crate::plan::error::CampaignError;
use crate::plan::exec::{Executor, JobResult};
use crate::plan::outcome::{PlanOutcome, Stage, StageTiming};
use crate::plan::registry::SchedulerRegistry;
use crate::plan::request::PlanRequest;
use crate::replay::{replay_schedule, ReplayMemo};
use crate::sched::CancelToken;

/// Validates a worker-thread count: zero workers cannot make progress, so
/// it is rejected outright rather than silently clamped.
///
/// # Errors
///
/// [`CampaignError::Invalid`] when `threads` is 0.
pub(crate) fn validate_thread_count(threads: usize) -> Result<usize, CampaignError> {
    if threads == 0 {
        return Err(CampaignError::Invalid(
            "worker thread count must be at least 1 (got 0)".to_owned(),
        ));
    }
    Ok(threads)
}

/// The staged planning pipeline shared by [`Campaign::run`] and the
/// executor of [`crate::plan::exec`]: resolve the scheduler, build the
/// system, schedule, validate, replay. `on_stage` observes each stage
/// that actually ran (with its wall-clock microseconds — the same value
/// recorded in the outcome's [`StageTiming`]); `cancel`, when present,
/// is polled between stages and threaded into
/// [`crate::sched::Scheduler::schedule_cancellable`].
///
/// With `cancel`, `builds` and `replays` all `None` this is byte-for-byte the
/// behaviour [`Campaign::run`] always had.
///
/// With a [`BuildMemo`], the system comes from it: the request that
/// builds it and a request that reuses it both record the time they spent
/// getting it as the build stage. The system is identical either way.
///
/// With a [`ReplayMemo`], a fidelity-opted request replays through it:
/// the request that simulates records its wall time as the replay stage,
/// and a twin that clones an earlier result records no replay stage and
/// `replay_micros = 0`. The fidelity section is identical either way.
pub(crate) fn run_pipeline(
    registry: &SchedulerRegistry,
    request: &PlanRequest,
    cancel: Option<&CancelToken>,
    on_stage: &mut dyn FnMut(Stage, u64),
    builds: Option<&BuildMemo>,
    replays: Option<&ReplayMemo>,
) -> Result<PlanOutcome, CampaignError> {
    fn check(cancel: Option<&CancelToken>) -> Result<(), CampaignError> {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            Err(CampaignError::Plan(PlanError::Cancelled))
        } else {
            Ok(())
        }
    }

    // Resolve the scheduler first: a typo'd name must fail fast, before
    // system construction pays for ISS calibration.
    let scheduler = registry.get(&request.scheduler)?;

    check(cancel)?;
    let build_start = Instant::now();
    let sys = match builds {
        Some(memo) => memo.system(request)?,
        None => Arc::new(request.build_system()?),
    };
    let build_micros = build_start.elapsed().as_micros() as u64;
    on_stage(Stage::Build, build_micros);

    check(cancel)?;
    let schedule_start = Instant::now();
    // `schedule_tuned` honours the request's search knobs on schedulers
    // that have tunable machinery and falls back to the plain
    // schedule/schedule_cancellable entry points everywhere else.
    let schedule = scheduler.schedule_tuned(&sys, &request.search, cancel)?;
    let schedule_micros = schedule_start.elapsed().as_micros() as u64;
    on_stage(Stage::Schedule, schedule_micros);

    let validate_micros = if request.validate {
        check(cancel)?;
        let validate_start = Instant::now();
        schedule.validate(&sys)?;
        let micros = validate_start.elapsed().as_micros() as u64;
        on_stage(Stage::Validate, micros);
        micros
    } else {
        0
    };

    let (fidelity, replay_micros) = match &request.fidelity {
        Some(spec) => {
            check(cancel)?;
            let replay_start = Instant::now();
            let (replay, simulated) = match replays {
                Some(memo) => memo.replay(&sys, &schedule, spec.patterns_cap),
                None => (replay_schedule(&sys, &schedule, spec.patterns_cap), true),
            };
            let replay = replay?;
            let micros = if simulated {
                let micros = replay_start.elapsed().as_micros() as u64;
                on_stage(Stage::Replay, micros);
                micros
            } else {
                0
            };
            (Some(replay), micros)
        }
        None => (None, 0),
    };

    let mut outcome = PlanOutcome::from_schedule(
        &request.name,
        // Report the registry key the request selected, not the
        // implementation's self-reported name: two keys may map to
        // the same algorithm, and sweep results join on the key.
        &request.scheduler,
        &sys,
        &schedule,
        StageTiming {
            build_micros,
            schedule_micros,
            validate_micros,
            replay_micros,
        },
    );
    outcome.fidelity = fidelity;
    Ok(outcome)
}

/// Executes planning requests against a [`SchedulerRegistry`].
///
/// One `Campaign` owns the registry and runs any number of requests —
/// singly with [`Campaign::run`] or as a batch with [`Campaign::run_all`],
/// which spreads the matrix over worker threads (every scheduler is
/// `Send + Sync`, and ISS calibration is memoised process-wide, so batch
/// throughput scales with cores).
///
/// ```
/// use noctest_core::plan::{Campaign, PlanRequest};
/// use noctest_core::BudgetSpec;
///
/// let campaign = Campaign::new();
/// let request = PlanRequest::benchmark("d695", 4, 4)
///     .with_processors("leon", 6, 4)
///     .with_budget(BudgetSpec::Fraction(0.5));
/// let outcome = campaign.run(&request)?;
/// assert!(outcome.makespan > 0);
/// assert!(outcome.reduction_percent > 0.0);
/// # Ok::<(), noctest_core::CampaignError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    registry: SchedulerRegistry,
    threads: Option<usize>,
}

impl Campaign {
    /// A campaign over the default registry (`serial`, `greedy`, `smart`,
    /// `optimal`).
    #[must_use]
    pub fn new() -> Self {
        Campaign {
            registry: SchedulerRegistry::with_defaults(),
            threads: None,
        }
    }

    /// A campaign over a custom registry.
    #[must_use]
    pub fn with_registry(registry: SchedulerRegistry) -> Self {
        Campaign {
            registry,
            threads: None,
        }
    }

    /// Pins the batch worker count (default: available parallelism).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Invalid`] when `threads` is 0 — zero workers can
    /// never make progress, and silently clamping would hide the bug in
    /// the caller's arithmetic. The executor builder
    /// ([`crate::plan::exec::ExecutorBuilder::threads`]) applies the same
    /// validation.
    pub fn with_threads(mut self, threads: usize) -> Result<Self, CampaignError> {
        self.threads = Some(validate_thread_count(threads)?);
        Ok(self)
    }

    /// The pinned batch worker count, if any.
    #[must_use]
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The worker count batches will actually use: the pinned count, or
    /// the machine's available parallelism.
    pub(crate) fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    }

    /// The registry (for name listing).
    #[must_use]
    pub fn registry(&self) -> &SchedulerRegistry {
        &self.registry
    }

    /// Mutable registry access (for registering user schedulers).
    pub fn registry_mut(&mut self) -> &mut SchedulerRegistry {
        &mut self.registry
    }

    /// Runs one request end to end: resolve the SoC and processor profile,
    /// place the system, schedule it with the named algorithm, re-validate
    /// every invariant (unless the request opted out), replay the whole
    /// schedule on the cycle-level simulator (when the request opted in
    /// via [`PlanRequest::fidelity`]) and assemble the outcome.
    ///
    /// # Errors
    ///
    /// Any [`CampaignError`] from resolution, construction, scheduling,
    /// validation or the fidelity replay.
    pub fn run(&self, request: &PlanRequest) -> Result<PlanOutcome, CampaignError> {
        run_pipeline(&self.registry, request, None, &mut |_, _| {}, None, None)
    }

    /// Runs a request matrix, parallelised over worker threads. Results
    /// come back in request order; each request fails or succeeds
    /// independently.
    ///
    /// This is a compatibility wrapper over the job executor of
    /// [`crate::plan::exec`], at any worker count: every request is
    /// submitted as one job and the handles are awaited in request order,
    /// which reproduces the historical blocking-batch behaviour exactly
    /// (same outcomes, same ordering, independent failures). Requests
    /// that differ only in scheduler, name, search tuning, validation or
    /// fidelity share one built system through the executor's build memo.
    /// Callers that want results *as they complete*, priorities or
    /// cancellation use the [`Executor`] directly.
    ///
    /// A user-registered scheduler that *panics* fails its own request
    /// with [`CampaignError::Invalid`] instead of propagating the panic
    /// to the caller (the executor contains panics so one bad job cannot
    /// hang the pool).
    #[must_use]
    pub fn run_all(&self, requests: &[PlanRequest]) -> Vec<Result<PlanOutcome, CampaignError>> {
        if requests.is_empty() {
            return Vec::new();
        }
        let workers = self.effective_threads().min(requests.len());
        let executor = Executor::builder()
            .campaign(self.clone())
            .threads(workers)
            .expect("worker count is nonzero")
            .build();
        let handles: Vec<_> = requests
            .iter()
            .map(|r| executor.submit(r.clone()))
            .collect();
        handles
            .iter()
            .map(|handle| match handle.wait() {
                JobResult::Completed(outcome) => Ok(*outcome),
                JobResult::Failed(error) => Err(error),
                JobResult::Cancelled => unreachable!("run_all never cancels jobs"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::request::SocSource;
    use crate::system::BudgetSpec;

    fn d695_request(scheduler: &str) -> PlanRequest {
        PlanRequest::benchmark("d695", 4, 4)
            .with_processors("leon", 6, 4)
            .with_budget(BudgetSpec::Fraction(0.5))
            .with_scheduler(scheduler)
    }

    #[test]
    fn run_produces_a_full_outcome() {
        let outcome = Campaign::new().run(&d695_request("greedy")).unwrap();
        assert_eq!(outcome.system, "d695");
        assert_eq!(outcome.scheduler, "greedy");
        assert_eq!(outcome.sessions.len(), 16);
        assert!(outcome.makespan > 0);
        assert!(outcome.peak_concurrency >= 1);
        assert!(outcome.peak_power <= outcome.budget_cap.unwrap() + 1e-9);
        assert!(outcome.reduction_percent > 0.0);
        assert!(outcome.timing.schedule_micros > 0 || outcome.timing.build_micros > 0);
    }

    #[test]
    fn unknown_scheduler_fails_before_building() {
        let err = Campaign::new().run(&d695_request("annealing")).unwrap_err();
        assert!(matches!(err, CampaignError::UnknownScheduler { .. }));
    }

    #[test]
    fn run_all_preserves_order_and_isolates_failures() {
        let requests = vec![
            d695_request("greedy"),
            d695_request("nope"),
            d695_request("serial").with_name("baseline"),
        ];
        let results = Campaign::new().with_threads(2).unwrap().run_all(&requests);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(CampaignError::UnknownScheduler { .. })
        ));
        let serial = results[2].as_ref().unwrap();
        assert_eq!(serial.request_name, "baseline");
        assert_eq!(serial.scheduler, "serial");
        // Serial runs one session at a time.
        assert_eq!(serial.peak_concurrency, 1);
    }

    #[test]
    fn run_all_matches_run() {
        let requests: Vec<PlanRequest> = ["serial", "greedy", "smart"]
            .iter()
            .map(|s| d695_request(s))
            .collect();
        let campaign = Campaign::new();
        let batch = campaign.run_all(&requests);
        for (request, batched) in requests.iter().zip(&batch) {
            let single = campaign.run(request).unwrap();
            let batched = batched.as_ref().unwrap();
            // Wall-clock timings differ; the planning result must not.
            assert_eq!(single.makespan, batched.makespan);
            assert_eq!(single.sessions, batched.sessions);
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(Campaign::new().run_all(&[]).is_empty());
    }

    #[test]
    fn zero_threads_are_rejected_not_clamped() {
        let err = Campaign::new().with_threads(0).unwrap_err();
        assert!(matches!(err, CampaignError::Invalid(_)));
        assert!(err.to_string().contains("at least 1"), "{err}");
        // Valid counts still chain builder-style.
        let campaign = Campaign::new().with_threads(3).unwrap();
        assert_eq!(campaign.threads(), Some(3));
    }

    #[test]
    fn fidelity_opt_in_attaches_a_replay_section() {
        let request = d695_request("greedy").with_fidelity(4);
        let outcome = Campaign::new().run(&request).unwrap();
        let fidelity = outcome.fidelity.as_ref().expect("fidelity requested");
        assert_eq!(fidelity.patterns_cap, 4);
        assert_eq!(fidelity.sessions.len(), outcome.sessions.len());
        assert!(fidelity.simulated_makespan > 0);
        assert!(
            fidelity.worst_relative_error() < 0.25,
            "worst error {:.1}%",
            fidelity.worst_relative_error() * 100.0
        );
        // The section round-trips with the rest of the outcome.
        let back = crate::plan::PlanOutcome::from_json_str(&outcome.to_json_string()).unwrap();
        assert_eq!(back, outcome);
        // Default: no fidelity section, no replay time.
        let plain = Campaign::new().run(&d695_request("greedy")).unwrap();
        assert!(plain.fidelity.is_none());
        assert_eq!(plain.timing.replay_micros, 0);
    }

    #[test]
    fn validate_opt_out_skips_the_stage() {
        let mut request = d695_request("greedy");
        request.validate = false;
        let outcome = Campaign::new().run(&request).unwrap();
        assert_eq!(outcome.timing.validate_micros, 0);
    }

    #[test]
    fn inline_soc_text_plans_end_to_end() {
        let soc_text = noctest_itc02::write_soc(&noctest_itc02::data::d695());
        let mut request = d695_request("greedy");
        request.soc = SocSource::SocText(soc_text);
        let outcome = Campaign::new().run(&request).unwrap();
        assert_eq!(outcome.system, "d695");
        assert_eq!(outcome.sessions.len(), 16);
    }
}
