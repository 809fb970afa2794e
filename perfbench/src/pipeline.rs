//! The planning pipeline re-driven stage by stage through each layer's
//! public functions, so the traced run can time every layer from the
//! benchmark's own code: SoC parse, processor profile, system build,
//! scheduler, validation and replay.
//!
//! The stages, their order and their errors mirror
//! `noctest_core::plan::Campaign::run`; outcomes match it byte for byte
//! except for the wall-clock stage timings, which plan digests ignore.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use noctest_core::plan::{CampaignError, PlanOutcome, PlanRequest, SocSource, StageTiming};
use noctest_core::replay::{replay_schedule, ReplayBatch, ScheduleReplay};
use noctest_core::{
    OptimalScheduler, ParallelOptimalScheduler, Schedule, SchedulerRegistry, SearchStats,
    SystemBuilder, SystemUnderTest,
};

use crate::trace::Tracer;
use crate::util::Fnv;

/// Work counts gathered while re-driving; every count is a pure function
/// of the inputs.
#[derive(Debug, Default)]
pub struct Counters {
    pub parse_calls: u64,
    pub distinct_socs: BTreeSet<u64>,
    pub build_calls: u64,
    pub distinct_builds: BTreeSet<u64>,
    pub searches: u64,
    pub exhausted: u64,
    pub expansions: u64,
    pub serial_expansions: u64,
    pub parallel_expansions: u64,
    pub replay_pushed: u64,
    pub replay_unique: u64,
    pub replay_batch_wait_s: f64,
    pub simulated_kcycles: f64,
    pub encoded_bytes: u64,
}

/// Where a fidelity-opted request replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replay {
    /// `replay_schedule` right after validation, as the daemon does.
    Inline,
    /// Handed back for one lane-batched `ReplayBatch`, as the corpus does.
    Deferred,
}

/// Replay work put aside by [`Replay::Deferred`].
#[derive(Debug)]
pub struct DeferredReplay {
    pub sys: SystemUnderTest,
    pub schedule: Schedule,
    pub patterns_cap: u32,
    pub ready: Instant,
}

/// The schedulers a run plans with. The exact searches are held as
/// concrete types so the re-drive can read their [`SearchStats`].
#[derive(Debug, Clone)]
pub struct Planner {
    pub registry: SchedulerRegistry,
    optimal: OptimalScheduler,
    parallel: ParallelOptimalScheduler,
}

impl Planner {
    /// The default registry, with both exact searches limited to
    /// `budget` expansions when given.
    pub fn new(budget: Option<u64>) -> Self {
        let mut optimal = OptimalScheduler::new();
        let mut parallel = ParallelOptimalScheduler::new();
        let mut registry = SchedulerRegistry::with_defaults();
        if let Some(budget) = budget {
            optimal = optimal.with_max_expansions(Some(budget));
            parallel = parallel.with_max_expansions(Some(budget));
            registry.register("optimal", Arc::new(optimal));
            registry.register("optimal-par", Arc::new(parallel));
        }
        Planner {
            registry,
            optimal,
            parallel,
        }
    }

    /// Plans one request stage by stage, with one span per layer call.
    pub fn plan(
        &self,
        tracer: &mut Tracer,
        counters: &mut Counters,
        rid: u64,
        request: &PlanRequest,
        replay: Replay,
    ) -> Result<(PlanOutcome, Option<DeferredReplay>), CampaignError> {
        let scheduler = self.registry.get(&request.scheduler)?;

        let soc = tracer.span("itc02.parse", rid, || request.resolve_soc())?;
        if let SocSource::SocText(text) = &request.soc {
            counters.parse_calls += 1;
            counters.distinct_socs.insert(Fnv::default().str(text).0);
        }
        let profile = tracer.span("cpu.profile", rid, || request.resolve_profile())?;
        let sys = tracer.span("core.build", rid, || {
            let mesh = request.mesh;
            let mut builder = match (&request.soc, &soc) {
                (_, Some(soc)) => SystemBuilder::from_benchmark(soc, mesh.width, mesh.height),
                (SocSource::Cores { name, cores }, None) => {
                    let name = if name.is_empty() { "custom" } else { name };
                    cores
                        .iter()
                        .fold(SystemBuilder::new(name, mesh.width, mesh.height), |b, c| {
                            b.core(c.name.clone(), c.bits_in, c.bits_out, c.patterns, c.power)
                        })
                }
                _ => unreachable!("resolve_soc returns Some for benchmark and text sources"),
            };
            builder = builder
                .routing(mesh.routing)
                .budget(request.budget)
                .priority(request.priority)
                .faults(request.faults.clone())
                .timing(request.timing.resolve());
            if let (Some(spec), Some(profile)) = (&request.processors, &profile) {
                builder = builder.processors(profile, spec.total, spec.reused);
            }
            builder.build()
        })?;
        counters.build_calls += 1;
        counters.distinct_builds.insert(build_key(request));

        let schedule = match request.scheduler.as_str() {
            "optimal" => {
                let (schedule, stats) = tracer.span("sched.search", rid, || {
                    self.optimal
                        .schedule_with_stats(&sys, &request.search, None)
                })?;
                counters.search(stats, false);
                schedule
            }
            "optimal-par" => {
                let (schedule, stats) = tracer.span("sched.search", rid, || {
                    self.parallel
                        .schedule_with_stats(&sys, &request.search, None)
                })?;
                counters.search(stats, true);
                schedule
            }
            _ => tracer.span("sched.heuristic", rid, || {
                scheduler.schedule_tuned(&sys, &request.search, None)
            })?,
        };

        if request.validate {
            tracer.span("core.validate", rid, || schedule.validate(&sys))?;
        }

        let mut outcome = tracer.span("core.outcome", rid, || {
            PlanOutcome::from_schedule(
                &request.name,
                &request.scheduler,
                &sys,
                &schedule,
                StageTiming::default(),
            )
        });
        let mut deferred = None;
        if let Some(spec) = request.fidelity {
            match replay {
                Replay::Inline => {
                    let replayed = tracer.span("replay.inline", rid, || {
                        replay_schedule(&sys, &schedule, spec.patterns_cap)
                    })?;
                    counters.simulated_kcycles += replayed.simulated_makespan as f64 / 1e3;
                    outcome.fidelity = Some(replayed);
                }
                Replay::Deferred => {
                    deferred = Some(DeferredReplay {
                        sys,
                        schedule,
                        patterns_cap: spec.patterns_cap,
                        ready: Instant::now(),
                    });
                }
            }
        }
        Ok((outcome, deferred))
    }
}

impl Counters {
    fn search(&mut self, stats: SearchStats, parallel: bool) {
        self.searches += 1;
        self.expansions += stats.expansions;
        if stats.exhausted {
            self.exhausted += 1;
        }
        if parallel {
            self.parallel_expansions += stats.expansions;
        } else {
            self.serial_expansions += stats.expansions;
        }
    }
}

/// Identity of everything `SystemBuilder` reads: two requests with the
/// same key build the same system whatever their scheduler or name.
fn build_key(request: &PlanRequest) -> u64 {
    let soc = match &request.soc {
        SocSource::SocText(text) => Fnv::default().str(text).0,
        other => Fnv::default().str(&format!("{other:?}")).0,
    };
    Fnv::default()
        .u64(soc)
        .str(&format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            request.mesh,
            request.processors,
            request.budget,
            request.priority,
            request.faults,
            request.timing
        ))
        .0
}

/// Replays deferred work through one lane-batched [`ReplayBatch`], as
/// the corpus does once planning completes. Results come back in input
/// order.
pub fn replay_deferred(
    tracer: &mut Tracer,
    counters: &mut Counters,
    work: &[DeferredReplay],
) -> Vec<Result<ScheduleReplay, CampaignError>> {
    let started = Instant::now();
    let results = tracer.span("replay.batch", 0, || {
        let mut batch = ReplayBatch::new();
        for item in work {
            batch.push(&item.sys, &item.schedule, item.patterns_cap);
        }
        let unique = batch.unique_replays();
        (unique, batch.run())
    });
    let (unique, results) = results;
    counters.replay_pushed += work.len() as u64;
    counters.replay_unique += unique as u64;
    counters.replay_batch_wait_s += work
        .iter()
        .map(|item| started.saturating_duration_since(item.ready).as_secs_f64())
        .sum::<f64>()
        / work.len().max(1) as f64;
    for replay in results.iter().flatten() {
        counters.simulated_kcycles += replay.simulated_makespan as f64 / 1e3;
    }
    results
        .into_iter()
        .map(|r| r.map_err(CampaignError::from))
        .collect()
}
