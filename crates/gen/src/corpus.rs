//! [`CorpusSpec`]: crossing generated SoC populations with planning axes.
//!
//! A corpus is the cartesian product
//! `SoCs × meshes × processor complements × budgets × schedulers`,
//! expressed as one [`RequestMatrix`] batch and streamed through the job
//! executor of [`noctest_core::plan::exec`] (worker count from the
//! campaign's pinned thread count or available parallelism; the
//! process-wide profile cache is shared as ever). Scenarios sharing
//! everything but the scheduler form a *group*; per-group makespan
//! comparison is what win rates are computed from.
//! [`CorpusSpec::run`] blocks for the whole batch;
//! [`CorpusSpec::run_streaming`] observes scenarios as they complete and
//! can abort-and-cancel on the first failure.
//!
//! Fidelity-enabled corpora replay each schedule on the worker that
//! planned it, as soon as it is planned, through one
//! [`noctest_core::ReplayMemo`] per run. The memo replays each distinct
//! session once, alone, and composes whole-schedule replays from those
//! results behind a link-disjointness certificate; a schedule that fails
//! the certificate replays whole. The fidelity sections are
//! byte-identical to the inline path of [`Campaign::run`], and replay
//! overlaps planning on every worker.

use std::sync::{mpsc, Arc};
use std::time::Instant;

use noctest_core::plan::exec::{EventSink, Executor, JobId, JobResult, PlanEvent};
use noctest_core::plan::{
    profile_cache_stats, ApplicationSpec, BuildCounts, Campaign, CampaignError, FidelitySpec,
    MeshSpec, PlanOutcome, PlanRequest, ProcessorSpec, RequestMatrix, SocSource, TimingSpec,
};
use noctest_core::{BudgetSpec, PriorityPolicy, ReplayCounts};
use noctest_faults::{FaultRecipe, FaultSet};
use noctest_noc::rng::SplitMix64;
use noctest_noc::{Mesh, RoutingKind};

use crate::recipe::{RecipeFamily, SocRecipe};
use crate::report::{
    CorpusFailure, CorpusMeasurement, CorpusReport, DistributionSummary, FaultAxisSummary,
    FaultSchedulerSummary, SchedulerSummary,
};

/// A processor complement axis value.
#[derive(Clone, PartialEq, Eq)]
pub struct ProcessorAxis {
    /// Profile family (`"leon"` / `"plasma"`).
    pub family: String,
    /// Processors placed on the mesh.
    pub total: usize,
    /// Processors reused as test interfaces.
    pub reused: usize,
}

impl std::fmt::Debug for ProcessorAxis {
    // The Debug form doubles as the request-name tag (see
    // `RequestMatrix::vary_with`), so keep it short and token-friendly.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}r{}", self.family, self.total, self.reused)
    }
}

/// A mesh axis value; `Debug` renders as the request-name tag.
#[derive(Clone, Copy, PartialEq, Eq)]
struct MeshAxis(u16, u16);

impl std::fmt::Debug for MeshAxis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mesh={}x{}", self.0, self.1)
    }
}

/// A processor axis wrapper so `None` tags as `noproc`.
#[derive(Clone, PartialEq, Eq)]
struct ProcAxisTag(Option<ProcessorAxis>);

impl std::fmt::Debug for ProcAxisTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "noproc"),
            Some(p) => write!(f, "{p:?}"),
        }
    }
}

/// A fault-axis wrapper so `None` tags as `flt=none`.
#[derive(Clone, PartialEq, Eq)]
struct FaultAxisTag(Option<FaultRecipe>);

impl std::fmt::Debug for FaultAxisTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "flt=none"),
            Some(recipe) => write!(f, "flt={}", recipe.label()),
        }
    }
}

/// The full description of a corpus run: which SoC population to
/// generate and which planning axes to cross it with.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    /// Master seed; per-SoC seeds derive from it deterministically.
    pub seed: u64,
    /// The recipe population.
    pub recipes: Vec<SocRecipe>,
    /// SoCs generated per recipe.
    pub socs_per_recipe: usize,
    /// Mesh geometry axis.
    pub meshes: Vec<(u16, u16)>,
    /// Processor complement axis (`None` plans with the external tester
    /// only).
    pub processors: Vec<Option<ProcessorAxis>>,
    /// Degraded-mesh fault axis, crossed into groups like every other
    /// axis (`None` plans on the healthy mesh). **Empty means "no fault
    /// axis"**: the expansion — request names included — is then
    /// byte-identical to releases that predate faults. Fault sets derive
    /// deterministically from the recipe, the scenario's mesh and the
    /// corpus master seed.
    pub faults: Vec<Option<FaultRecipe>>,
    /// Power budget axis.
    pub budgets: Vec<BudgetSpec>,
    /// Scheduler axis (registry names); the innermost axis, so scenarios
    /// group by everything else.
    pub schedulers: Vec<String>,
    /// Enable the schedule-level fidelity replay with this per-session
    /// pattern cap.
    pub fidelity_patterns_cap: Option<u32>,
}

impl CorpusSpec {
    /// The CI smoke corpus: 20 small SoCs (all five families, sized so
    /// even the exponential `optimal` scheduler stays inside its guard)
    /// crossed with two budgets under **every** default-registry
    /// scheduler — 240 scenarios, seconds in release mode.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        CorpusSpec {
            seed,
            recipes: RecipeFamily::ALL.iter().map(|f| f.recipe(8)).collect(),
            socs_per_recipe: 4,
            meshes: vec![(3, 3)],
            processors: vec![Some(ProcessorAxis {
                family: "plasma".to_owned(),
                total: 2,
                reused: 2,
            })],
            faults: Vec::new(),
            budgets: vec![BudgetSpec::Unlimited, BudgetSpec::Fraction(0.8)],
            schedulers: Campaign::new().registry().names(),
            fidelity_patterns_cap: Some(2),
        }
    }

    /// The degraded-mesh CI smoke: 10 small SoCs on a 3x3 mesh crossed
    /// with a five-point fault axis — healthy, two uniform link-failure
    /// rates, a dead-router cluster, and the column cut that severs the
    /// mesh outright (every scenario there must fail with a *typed*
    /// unreachable-core error, never a panic). 150 scenarios, with the
    /// per-scheduler makespan-inflation-vs-fault-rate section in the
    /// report's deterministic (byte-checked) half.
    #[must_use]
    pub fn degraded_smoke(seed: u64) -> Self {
        CorpusSpec {
            seed,
            recipes: RecipeFamily::ALL.iter().map(|f| f.recipe(8)).collect(),
            socs_per_recipe: 2,
            meshes: vec![(3, 3)],
            processors: vec![Some(ProcessorAxis {
                family: "plasma".to_owned(),
                total: 2,
                reused: 2,
            })],
            faults: vec![
                None,
                Some(FaultRecipe::UniformLinks { percent: 5 }),
                Some(FaultRecipe::UniformLinks { percent: 10 }),
                Some(FaultRecipe::RouterCluster { routers: 2 }),
                Some(FaultRecipe::ColumnCut),
            ],
            budgets: vec![BudgetSpec::Unlimited],
            schedulers: vec!["serial".to_owned(), "greedy".to_owned(), "smart".to_owned()],
            fidelity_patterns_cap: Some(2),
        }
    }

    /// The paper-style sweep: 40 mid-size SoCs crossed with two meshes,
    /// three processor complements and three budgets under the scalable
    /// schedulers (`optimal` is excluded — these systems exceed its
    /// exponential-search guard) — 2160 scenarios.
    #[must_use]
    pub fn full(seed: u64) -> Self {
        CorpusSpec {
            seed,
            recipes: RecipeFamily::ALL.iter().map(|f| f.recipe(28)).collect(),
            socs_per_recipe: 8,
            meshes: vec![(4, 4), (5, 5)],
            processors: vec![
                None,
                Some(ProcessorAxis {
                    family: "leon".to_owned(),
                    total: 4,
                    reused: 4,
                }),
                Some(ProcessorAxis {
                    family: "plasma".to_owned(),
                    total: 4,
                    reused: 4,
                }),
            ],
            faults: Vec::new(),
            budgets: vec![
                BudgetSpec::Unlimited,
                BudgetSpec::Fraction(0.5),
                BudgetSpec::Fraction(0.35),
            ],
            schedulers: vec!["serial".to_owned(), "greedy".to_owned(), "smart".to_owned()],
            // Fidelity is on by default: each distinct replay is simulated
            // once, on the worker that first needs it (2160 scenarios share
            // 794 simulations at seed 2005), so even the full sweep can
            // afford a per-session cross-check.
            fidelity_patterns_cap: Some(2),
        }
    }

    /// Generated SoCs in the corpus.
    #[must_use]
    pub fn soc_count(&self) -> usize {
        self.recipes.len() * self.socs_per_recipe
    }

    /// Scenarios the corpus expands to.
    #[must_use]
    pub fn scenario_count(&self) -> usize {
        self.group_count() * self.schedulers.len()
    }

    /// Scenario groups (scenarios sharing everything but the scheduler).
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.soc_count()
            * self.meshes.len()
            * self.processors.len()
            * self.faults.len().max(1)
            * self.budgets.len()
    }

    /// Expands the corpus to its full request batch: every generated SoC
    /// crossed with every axis, scheduler innermost, names guaranteed
    /// unique. Fully deterministic in `self` (including the seed).
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty or a recipe is degenerate.
    #[must_use]
    pub fn requests(&self) -> Vec<PlanRequest> {
        assert!(
            !self.recipes.is_empty()
                && self.socs_per_recipe > 0
                && !self.meshes.is_empty()
                && !self.processors.is_empty()
                && !self.budgets.is_empty()
                && !self.schedulers.is_empty(),
            "corpus axes must be non-empty"
        );
        let mesh_axes: Vec<MeshAxis> = self.meshes.iter().map(|&(w, h)| MeshAxis(w, h)).collect();
        let proc_axes: Vec<ProcAxisTag> = self
            .processors
            .iter()
            .map(|p| ProcAxisTag(p.clone()))
            .collect();
        let fault_axes: Vec<FaultAxisTag> = self.faults.iter().map(|f| FaultAxisTag(*f)).collect();
        let scheduler_names: Vec<&str> = self.schedulers.iter().map(String::as_str).collect();

        // Per-SoC seeds come from one deterministic side stream, so
        // adding a recipe changes which SoCs later recipes generate but
        // never introduces wall-clock or iteration-order dependence.
        let mut seeder = SplitMix64::new(self.seed);
        let mut all = Vec::with_capacity(self.scenario_count());
        for recipe in &self.recipes {
            for _ in 0..self.socs_per_recipe {
                let soc_seed = seeder.next_u64();
                let base = PlanRequest {
                    name: recipe.soc_name(soc_seed),
                    soc: SocSource::SocText(recipe.generate_text(soc_seed)),
                    // Placeholder; every scenario overwrites it via the
                    // mesh axis below.
                    mesh: MeshSpec {
                        width: 1,
                        height: 1,
                        routing: RoutingKind::Xy,
                    },
                    processors: None,
                    budget: BudgetSpec::Unlimited,
                    scheduler: String::new(),
                    priority: PriorityPolicy::Distance,
                    faults: FaultSet::none(),
                    timing: TimingSpec::default(),
                    search: noctest_core::SearchTuning::default(),
                    validate: true,
                    fidelity: self
                        .fidelity_patterns_cap
                        .map(|patterns_cap| FidelitySpec { patterns_cap }),
                };
                let mut matrix = RequestMatrix::new(base)
                    .vary_with(&mesh_axes, |r, &MeshAxis(w, h)| {
                        r.mesh.width = w;
                        r.mesh.height = h;
                    })
                    .vary_with(&proc_axes, |r, tag| {
                        r.processors = tag.0.as_ref().map(|p| ProcessorSpec {
                            family: p.family.clone(),
                            total: p.total,
                            reused: p.reused,
                            calibrate: true,
                            application: ApplicationSpec::Bist,
                        });
                    });
                // An empty fault axis is skipped entirely (not varied over
                // a singleton) so fault-free corpora expand to exactly the
                // request names of releases that predate faults.
                if !fault_axes.is_empty() {
                    let fault_seed = self.seed;
                    matrix = matrix.vary_with(&fault_axes, move |r, tag| {
                        r.faults = tag.0.as_ref().map_or_else(FaultSet::none, |recipe| {
                            let mesh = Mesh::new(r.mesh.width, r.mesh.height)
                                .expect("corpus mesh axes are valid meshes");
                            recipe.generate(&mesh, fault_seed)
                        });
                    });
                }
                all.extend(
                    matrix
                        .vary_budget(&self.budgets)
                        .vary_scheduler(&scheduler_names)
                        .build(),
                );
            }
        }
        // Generated SoC names are unique by construction; this guards the
        // batch against silent result-keying collisions anyway (recipes
        // relabelled by hand, repeated axis values, ...).
        RequestMatrix::from_requests(all)
            .ensure_unique_names()
            .build()
    }

    /// Splits results along the fault axis and pairs every degraded
    /// scenario with its healthy twin (same SoC, mesh, processors and
    /// budget under the **first** axis value) to measure how much each
    /// scheduler's makespan inflates as the mesh degrades.
    fn fault_axis_summaries(
        &self,
        results: &[Option<Result<PlanOutcome, CampaignError>>],
    ) -> Vec<FaultAxisSummary> {
        if self.faults.is_empty() {
            return Vec::new();
        }
        let scheds = self.schedulers.len();
        let budgets = self.budgets.len();
        let faults_len = self.faults.len();
        let makespan = |scenario: usize| -> Option<u64> {
            results[scenario]
                .as_ref()
                .and_then(|r| r.as_ref().ok())
                .map(|o| o.makespan)
        };
        self.faults
            .iter()
            .enumerate()
            .map(|(fi, fault)| FaultAxisSummary {
                label: fault
                    .as_ref()
                    .map_or_else(|| "none".to_owned(), FaultRecipe::label),
                schedulers: (0..scheds)
                    .map(|j| {
                        let mut failures = 0usize;
                        let mut runs = 0usize;
                        let mut makespans = Vec::new();
                        let mut inflation_sum = 0.0f64;
                        let mut paired = 0usize;
                        for group in 0..results.len() / scheds {
                            if (group / budgets) % faults_len != fi {
                                continue;
                            }
                            let scenario = group * scheds + j;
                            match &results[scenario] {
                                Some(Ok(outcome)) => {
                                    runs += 1;
                                    makespans.push(outcome.makespan);
                                    // The healthy twin sits `fi` fault-axis
                                    // steps earlier at the same budget slot.
                                    let baseline = (group - fi * budgets) * scheds + j;
                                    if let Some(healthy) = makespan(baseline) {
                                        inflation_sum += (outcome.makespan as f64 / healthy as f64
                                            - 1.0)
                                            * 100.0;
                                        paired += 1;
                                    }
                                }
                                Some(Err(_)) => {
                                    runs += 1;
                                    failures += 1;
                                }
                                None => {}
                            }
                        }
                        FaultSchedulerSummary {
                            name: self.schedulers[j].clone(),
                            runs,
                            failures,
                            makespan: DistributionSummary::of(&makespans),
                            mean_inflation_percent: if paired == 0 {
                                0.0
                            } else {
                                inflation_sum / paired as f64
                            },
                            paired,
                        }
                    })
                    .collect(),
            })
            .collect()
    }

    /// Runs the corpus through `campaign` and aggregates the report.
    /// The deterministic section of the report depends only on the spec;
    /// the measured section captures wall-clock throughput and the
    /// profile-cache delta attributable to this run.
    ///
    /// Equivalent to [`CorpusSpec::run_streaming`] with default options
    /// and no progress observer.
    #[must_use]
    pub fn run(&self, campaign: &Campaign) -> CorpusReport {
        self.run_streaming(campaign, StreamOptions::default(), |_, _, _| {})
            .report
    }

    /// Runs the corpus through the job executor of
    /// [`noctest_core::plan::exec`], observing every scenario as it
    /// completes instead of blocking on the whole batch.
    ///
    /// `progress` is called once per terminal scenario, in completion
    /// order, with `(job, completed_so_far, total)` — live progress for
    /// long sweeps.
    /// With [`StreamOptions::abort_on_failure`] the first failed scenario
    /// cancels every scenario still queued or running (the executor's
    /// cooperative cancellation reaches even mid-search branch-and-bound
    /// jobs); cancelled scenarios are excluded from the aggregates and
    /// counted in [`CorpusRun::cancelled`]. Event sinks in
    /// [`StreamOptions::sinks`] receive the full per-job lifecycle stream
    /// (NDJSON event logs, progress UIs).
    ///
    /// Fidelity-enabled corpora share replays across the run (see
    /// [`noctest_core::plan::ExecutorBuilder::share_replays`]): each
    /// distinct session is replayed solo once, by the first worker that
    /// needs it, and every schedule holding it takes that result. A
    /// schedule whose sessions could interfere replays whole instead.
    /// [`CorpusRun::replays`] counts all three. A scenario whose replay
    /// fails fails with the same [`CampaignError`] as on the inline path,
    /// and counts toward [`StreamOptions::abort_on_failure`].
    #[must_use]
    pub fn run_streaming(
        &self,
        campaign: &Campaign,
        options: StreamOptions,
        mut progress: impl FnMut(&CompletedJob, usize, usize),
    ) -> CorpusRun {
        let requests = self.requests();
        let cache_before = profile_cache_stats();
        let started = Instant::now();

        let mut builder = Executor::builder()
            .campaign(campaign.clone())
            .share_replays(self.fidelity_patterns_cap.is_some());
        for sink in options.sinks {
            builder = builder.sink(sink);
        }
        // Registered last, so every caller sink has seen a terminal event
        // before `progress` hears of it.
        let (terminal_tx, terminal_rx) = mpsc::channel();
        let executor = builder.sink(Arc::new(TerminalIds(terminal_tx))).build();
        let handles: Vec<_> = requests
            .iter()
            .map(|r| executor.submit(r.clone()))
            .collect();
        // Job ids are assigned in submission order, so the offset of the
        // first handle maps any completion back to its request index.
        let first_id = handles.first().map_or(1, |h| h.id().0);
        let total = handles.len();
        let mut results: Vec<Option<Result<PlanOutcome, CampaignError>>> =
            (0..total).map(|_| None).collect();
        let mut aborted = false;
        for done in 1..=total {
            let job = terminal_rx
                .recv()
                .expect("the executor holds the sender until every job is terminal");
            let index = (job.0 - first_id) as usize;
            let handle = &handles[index];
            let completed = CompletedJob {
                job,
                request: handle.request_name().to_owned(),
                result: handle.wait(),
            };
            progress(&completed, done, total);
            let failed = matches!(completed.result, JobResult::Failed(_));
            results[index] = completed.result.into_result();
            if failed && options.abort_on_failure && !aborted {
                aborted = true;
                for handle in &handles {
                    handle.cancel();
                }
            }
        }
        let elapsed_micros = started.elapsed().as_micros() as u64;
        let cache = profile_cache_stats().since(cache_before);
        let cancelled = results.iter().filter(|r| r.is_none()).count();
        let report = self.aggregate(&requests, &results, elapsed_micros, cache);
        CorpusRun {
            report,
            cancelled,
            aborted,
            replays: executor.replay_counts(),
            builds: executor.build_counts(),
        }
    }

    /// Folds per-scenario results (in request order; `None` = cancelled)
    /// into the report.
    fn aggregate(
        &self,
        requests: &[PlanRequest],
        results: &[Option<Result<PlanOutcome, CampaignError>>],
        elapsed_micros: u64,
        cache: noctest_core::plan::CacheStats,
    ) -> CorpusReport {
        let mut failures = Vec::new();
        let scheduler_count = self.schedulers.len();
        let mut per_scheduler: Vec<Accumulator> = self
            .schedulers
            .iter()
            .map(|name| Accumulator::new(name.clone()))
            .collect();

        for (group, chunk) in results.chunks(scheduler_count).enumerate() {
            let winning = chunk
                .iter()
                .filter_map(|r| r.as_ref().and_then(|r| r.as_ref().ok()))
                .map(|o| o.makespan)
                .min();
            for (j, (acc, result)) in per_scheduler.iter_mut().zip(chunk).enumerate() {
                match result {
                    Some(Ok(outcome)) => acc.observe(outcome, winning),
                    Some(Err(error)) => {
                        acc.failure_count += 1;
                        // Groups outer, schedulers inner: this collection
                        // order IS request order.
                        failures.push(CorpusFailure {
                            request: requests[group * scheduler_count + j].name.clone(),
                            error: error.to_string(),
                        });
                    }
                    // Cancelled scenarios never planned anything: they are
                    // neither runs nor failures.
                    None => {}
                }
            }
        }

        let group_count = results.len() / scheduler_count;
        let scenario_count = results.len();
        CorpusReport {
            seed: self.seed,
            soc_count: self.soc_count(),
            scenario_count,
            group_count,
            schedulers: per_scheduler
                .into_iter()
                .map(|acc| acc.finish(group_count))
                .collect(),
            fault_axis: self.fault_axis_summaries(results),
            failures,
            measured: CorpusMeasurement {
                elapsed_micros,
                scenarios_per_second: if elapsed_micros == 0 {
                    0.0
                } else {
                    scenario_count as f64 * 1e6 / elapsed_micros as f64
                },
                cache,
            },
        }
    }
}

/// One terminal scenario, as [`CorpusSpec::run_streaming`] hands it to
/// its `progress` callback.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedJob {
    /// The scenario's job.
    pub job: JobId,
    /// The scenario's request name.
    pub request: String,
    /// Its terminal result.
    pub result: JobResult,
}

/// Sends the id of every terminal job to the thread running the corpus.
struct TerminalIds(mpsc::Sender<JobId>);

impl EventSink for TerminalIds {
    fn emit(&self, event: &PlanEvent) {
        if event.is_terminal() {
            // The receiver outlives the executor, so the send cannot fail.
            let _ = self.0.send(event.job());
        }
    }
}

/// Options for [`CorpusSpec::run_streaming`].
#[derive(Default)]
pub struct StreamOptions {
    /// Cancel every remaining scenario as soon as one fails (planning
    /// error or validation failure).
    pub abort_on_failure: bool,
    /// Event sinks receiving the full per-job lifecycle stream.
    pub sinks: Vec<Arc<dyn EventSink>>,
}

impl std::fmt::Debug for StreamOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamOptions")
            .field("abort_on_failure", &self.abort_on_failure)
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

/// What a streamed corpus run produced: the report over the scenarios
/// that actually ran, plus how many were cancelled by an early abort.
#[derive(Debug)]
pub struct CorpusRun {
    /// The aggregated report (cancelled scenarios excluded from every
    /// accumulator).
    pub report: CorpusReport,
    /// Scenarios cancelled before producing a result.
    pub cancelled: usize,
    /// `true` if [`StreamOptions::abort_on_failure`] tripped.
    pub aborted: bool,
    /// Fidelity replay work: sessions replayed solo, sessions taken from
    /// an earlier solo replay, and schedules that replayed whole.
    pub replays: ReplayCounts,
    /// Systems and SoCs the run built and shared: each distinct system is
    /// built once, by the first scenario that needs it, and each SoC is
    /// parsed once while its systems stay in the executor's build memo.
    pub builds: BuildCounts,
}

/// Per-scheduler aggregation state.
struct Accumulator {
    name: String,
    runs: usize,
    failure_count: usize,
    wins: usize,
    makespans: Vec<u64>,
    mean_concurrency_sum: f64,
    peak_concurrency: usize,
    reduction_sum: f64,
    worst_fidelity_error: Option<f64>,
}

impl Accumulator {
    fn new(name: String) -> Self {
        Accumulator {
            name,
            runs: 0,
            failure_count: 0,
            wins: 0,
            makespans: Vec::new(),
            mean_concurrency_sum: 0.0,
            peak_concurrency: 0,
            reduction_sum: 0.0,
            worst_fidelity_error: None,
        }
    }

    fn observe(&mut self, outcome: &PlanOutcome, group_minimum: Option<u64>) {
        self.runs += 1;
        if Some(outcome.makespan) == group_minimum {
            self.wins += 1;
        }
        self.makespans.push(outcome.makespan);
        self.mean_concurrency_sum += outcome.mean_concurrency;
        self.peak_concurrency = self.peak_concurrency.max(outcome.peak_concurrency);
        self.reduction_sum += outcome.reduction_percent;
        if let Some(fidelity) = &outcome.fidelity {
            let error = fidelity.worst_relative_error();
            self.worst_fidelity_error =
                Some(self.worst_fidelity_error.map_or(error, |w| w.max(error)));
        }
    }

    fn finish(self, group_count: usize) -> SchedulerSummary {
        let runs = self.runs;
        SchedulerSummary {
            name: self.name,
            runs: runs + self.failure_count,
            failures: self.failure_count,
            wins: self.wins,
            win_rate: if group_count == 0 {
                0.0
            } else {
                self.wins as f64 / group_count as f64
            },
            makespan: DistributionSummary::of(&self.makespans),
            mean_concurrency: if runs == 0 {
                0.0
            } else {
                self.mean_concurrency_sum / runs as f64
            },
            peak_concurrency: self.peak_concurrency,
            mean_reduction_percent: if runs == 0 {
                0.0
            } else {
                self.reduction_sum / runs as f64
            },
            worst_fidelity_error: self.worst_fidelity_error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn tiny_spec() -> CorpusSpec {
        CorpusSpec {
            seed: 11,
            recipes: vec![SocRecipe::wide_shallow(5), SocRecipe::d695_like(5)],
            socs_per_recipe: 2,
            meshes: vec![(3, 3)],
            processors: vec![None],
            faults: Vec::new(),
            budgets: vec![BudgetSpec::Unlimited],
            schedulers: vec!["serial".to_owned(), "greedy".to_owned()],
            fidelity_patterns_cap: None,
        }
    }

    #[test]
    fn counts_multiply_across_axes() {
        let spec = tiny_spec();
        assert_eq!(spec.soc_count(), 4);
        assert_eq!(spec.group_count(), 4);
        assert_eq!(spec.scenario_count(), 8);
        let requests = spec.requests();
        assert_eq!(requests.len(), 8);
        // Scheduler is the innermost axis: groups are adjacent chunks.
        assert_eq!(requests[0].scheduler, "serial");
        assert_eq!(requests[1].scheduler, "greedy");
        assert_eq!(
            requests[0].name.trim_end_matches(" serial"),
            requests[1].name.trim_end_matches(" greedy")
        );
    }

    #[test]
    fn request_names_are_unique_and_deterministic() {
        let spec = tiny_spec();
        let a: Vec<String> = spec.requests().into_iter().map(|r| r.name).collect();
        let b: Vec<String> = spec.requests().into_iter().map(|r| r.name).collect();
        assert_eq!(a, b, "request expansion is deterministic");
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "no silent name collisions");
    }

    #[test]
    fn identical_recipes_still_get_unique_request_names() {
        // Two hand-relabelled copies of the same recipe would collide on
        // every (soc, axes) name pair if the SoC seed were reused; the
        // side stream hands each SoC its own seed, and the uniqueness
        // pass guards whatever remains.
        let mut spec = tiny_spec();
        spec.recipes = vec![
            SocRecipe::wide_shallow(5).with_name("twin"),
            SocRecipe::wide_shallow(5).with_name("twin"),
        ];
        let names: Vec<String> = spec.requests().into_iter().map(|r| r.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
    }

    #[test]
    fn run_aggregates_wins_and_failures() {
        let mut spec = tiny_spec();
        // An unknown scheduler fails every scenario it appears in,
        // exercising the failure path deterministically.
        spec.schedulers.push("nope".to_owned());
        let report = spec.run(&Campaign::new());
        assert_eq!(report.scenario_count, 12);
        assert_eq!(report.group_count, 4);
        assert_eq!(report.schedulers.len(), 3);
        let nope = &report.schedulers[2];
        assert_eq!(nope.name, "nope");
        assert_eq!(nope.failures, 4);
        assert_eq!(nope.runs, 4);
        assert_eq!(nope.makespan, DistributionSummary::default());
        assert_eq!(report.failures.len(), 4);
        assert!(report.failures.iter().all(|f| f.request.contains("nope")));
        // Serial can never beat greedy; greedy wins every group (ties
        // included), so its win rate is 1.
        let greedy = &report.schedulers[1];
        assert_eq!(greedy.name, "greedy");
        assert_eq!(greedy.failures, 0);
        assert!((greedy.win_rate - 1.0).abs() < 1e-12);
        assert!(greedy.makespan.min > 0);
        assert!(!report.all_valid());
    }

    /// Delegates to the serial scheduler after a nap — long enough that
    /// an abort raised while it sleeps always lands before its validate
    /// stage, making early-abort scenario counts deterministic.
    #[derive(Debug)]
    struct Sleepy;

    impl noctest_core::Scheduler for Sleepy {
        fn schedule_tuned(
            &self,
            sys: &noctest_core::SystemUnderTest,
            _tuning: &noctest_core::SearchTuning,
            _cancel: Option<&noctest_core::CancelToken>,
        ) -> Result<noctest_core::Schedule, noctest_core::PlanError> {
            std::thread::sleep(std::time::Duration::from_millis(50));
            noctest_core::SerialScheduler.schedule(sys)
        }
    }

    #[test]
    fn streaming_run_aborts_on_first_failure_and_cancels_the_rest() {
        let mut spec = tiny_spec();
        spec.schedulers = vec!["sleepy".to_owned(), "nope".to_owned()];
        let mut campaign = Campaign::new().with_threads(1).unwrap();
        campaign.registry_mut().register("sleepy", Arc::new(Sleepy));
        let mut observed = 0usize;
        let run = spec.run_streaming(
            &campaign,
            StreamOptions {
                abort_on_failure: true,
                sinks: Vec::new(),
            },
            |_, done, total| {
                observed = done;
                assert_eq!(total, 8);
            },
        );
        // Single worker: job 1 (sleepy) completes, job 2 (nope) fails and
        // trips the abort while job 3 is still asleep — everything from
        // job 3 on is cancelled at a stage boundary or before starting.
        assert_eq!(observed, 8, "every scenario reaches a terminal state");
        assert!(run.aborted);
        assert_eq!(run.report.failures.len(), 1);
        assert!(run.report.failures[0].request.contains("nope"));
        assert_eq!(run.cancelled, 6);
        let sleepy = &run.report.schedulers[0];
        assert_eq!((sleepy.runs, sleepy.failures), (1, 0));
        // Cancelled scenarios stay out of the accumulators entirely.
        assert_eq!(sleepy.makespan.count, 1);
    }

    #[test]
    fn shared_replay_fidelity_matches_inline_replay() {
        // The corpus path shares replays across its workers; every
        // scenario's fidelity section must equal replaying it inline
        // through `Campaign::run` (f64 equality, not tolerance). The run
        // must do exactly the replay work of one sequential memo over the
        // same schedules: every session simulated or shared, none of
        // them falling back.
        let campaign = Campaign::new();
        let mut smoke = CorpusSpec::smoke(1);
        // The exact searches take seconds per scenario in a debug build
        // and hand the replay path schedules just as the heuristics do,
        // so this test plans the smoke corpus under the degraded smoke's
        // three schedulers.
        smoke.schedulers = CorpusSpec::degraded_smoke(3).schedulers;
        for spec in [smoke, CorpusSpec::degraded_smoke(3)] {
            let collector = Arc::new(noctest_core::plan::EventCollector::new());
            let run = spec.run_streaming(
                &campaign,
                StreamOptions {
                    abort_on_failure: false,
                    sinks: vec![Arc::clone(&collector) as Arc<dyn EventSink>],
                },
                |_, _, _| {},
            );
            let mut shared: HashMap<String, PlanOutcome> = HashMap::new();
            for event in collector.take() {
                if let PlanEvent::Completed {
                    request, outcome, ..
                } = event
                {
                    shared.insert(request, *outcome);
                }
            }

            let requests = spec.requests();
            let built: Vec<_> = requests
                .iter()
                .filter_map(|request| {
                    let sys = request.build_system().ok()?;
                    let schedule = campaign
                        .registry()
                        .get(&request.scheduler)
                        .ok()?
                        .schedule_tuned(&sys, &request.search, None)
                        .ok()?;
                    schedule.validate(&sys).ok()?;
                    Some((sys, schedule))
                })
                .collect();
            let memo = noctest_core::ReplayMemo::default();
            for (sys, schedule) in &built {
                let _ = memo.replay(sys, schedule, spec.fidelity_patterns_cap.unwrap());
            }
            let sessions: usize = built.iter().map(|(_, s)| s.entries().len()).sum();
            assert_eq!(run.replays, memo.counts());
            assert_eq!(run.replays.simulated + run.replays.shared, sessions as u64);
            assert_eq!(run.replays.fallbacks, 0);
            assert!(run.replays.shared > 0, "the corpus shares no session");

            for request in &requests {
                match campaign.run(request) {
                    Ok(inline) => {
                        let outcome = &shared[&request.name];
                        assert_eq!(outcome.fidelity, inline.fidelity, "{}", request.name);
                        assert!(inline.fidelity.is_some(), "{}", request.name);
                    }
                    Err(_) => assert!(!shared.contains_key(&request.name), "{}", request.name),
                }
            }
            assert_eq!(
                shared.len(),
                spec.scenario_count() - run.report.failures.len()
            );
        }
    }

    #[test]
    fn fault_axis_crosses_into_groups_and_reports_inflation() {
        let mut spec = tiny_spec();
        spec.schedulers = vec!["greedy".to_owned()];
        spec.faults = vec![None, Some(FaultRecipe::UniformLinks { percent: 10 })];
        assert_eq!(spec.group_count(), 8);
        let requests = spec.requests();
        assert_eq!(requests.len(), 8);
        // Fault axis outside budget/scheduler: healthy and degraded twins
        // are adjacent, and only the degraded one carries a fault set.
        assert!(requests[0].name.contains("flt=none"));
        assert!(requests[0].faults.is_empty());
        assert!(requests[1].name.contains("flt=links10"));
        assert!(!requests[1].faults.is_empty());

        let report = spec.run(&Campaign::new());
        assert_eq!(report.fault_axis.len(), 2);
        let healthy = &report.fault_axis[0];
        let degraded = &report.fault_axis[1];
        assert_eq!(
            (healthy.label.as_str(), degraded.label.as_str()),
            ("none", "links10")
        );
        // The baseline pairs with itself: zero inflation by construction.
        assert_eq!(healthy.schedulers[0].mean_inflation_percent, 0.0);
        assert_eq!(healthy.schedulers[0].paired, healthy.schedulers[0].runs);
        // Detours never shorten paths, so inflation is non-negative; with
        // a 10% link kill on a 3x3 external-only plan it must show up.
        let s = &degraded.schedulers[0];
        assert!(s.runs == 4, "{s:?}");
        assert!(s.mean_inflation_percent >= 0.0, "{s:?}");
        // The whole section is deterministic (CI byte-checks it).
        let again = spec.run(&Campaign::new());
        assert_eq!(report.deterministic_json(), again.deterministic_json());
    }

    #[test]
    fn fault_free_specs_expand_byte_identically_to_before_the_axis() {
        let spec = tiny_spec();
        for request in spec.requests() {
            assert!(request.faults.is_empty());
            assert!(!request.name.contains("flt="), "{}", request.name);
            assert!(!request.to_json_string().contains("faults"));
        }
    }

    #[test]
    fn degraded_smoke_exercises_the_severed_mesh_gracefully() {
        let spec = CorpusSpec::degraded_smoke(3);
        assert_eq!(spec.scenario_count(), 150);
        let report = spec.run(&Campaign::new());
        assert_eq!(report.fault_axis.len(), 5);
        // The column cut severs the 3x3 mesh: every scenario under it must
        // fail with the *typed* unreachable-core error — reaching the
        // report at all proves nothing panicked.
        let colcut = report
            .fault_axis
            .iter()
            .find(|f| f.label == "colcut")
            .unwrap();
        for s in &colcut.schedulers {
            assert_eq!(s.failures, s.runs, "{s:?}");
        }
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.error.contains("unreachable")),
            "severed meshes surface as typed unreachable errors"
        );
        // The healthy baseline plans everything.
        let none = report
            .fault_axis
            .iter()
            .find(|f| f.label == "none")
            .unwrap();
        assert!(none.schedulers.iter().all(|s| s.failures == 0));
    }

    #[test]
    fn smoke_spec_meets_the_scale_contract() {
        let spec = CorpusSpec::smoke(1);
        assert!(spec.soc_count() >= 20, "{}", spec.soc_count());
        assert!(spec.scenario_count() >= 100, "{}", spec.scenario_count());
        // Every default-registry scheduler participates.
        assert_eq!(
            spec.schedulers,
            vec![
                "greedy",
                "optimal",
                "optimal-par",
                "portfolio",
                "serial",
                "smart"
            ]
        );
        // Small enough for optimal's exponential-search guard: cores
        // plus processors stay within 10 cuts.
        for recipe in &spec.recipes {
            assert!(recipe.cores.1 + 2 <= 10, "{recipe:?}");
        }
    }
}
