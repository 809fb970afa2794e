//! `corpus-sweep`: the batch path. `CorpusSpec::full(seed).run_streaming`
//! on a two-worker campaign — 2160 scenarios of generated SoCs under
//! serial, greedy and smart, with the deferred lane-batched fidelity
//! replay. No exact search, no JSON, no admission.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use noctest_core::plan::exec::{EventSink, PlanEvent};
use noctest_core::plan::{profile_cache_stats, Campaign};
use noctest_gen::{CorpusSpec, StreamOptions};

use crate::layers::{self, Extras};
use crate::pipeline::{replay_deferred, Counters, Planner, Replay};
use crate::trace::{Tracer, REQUEST};
use crate::util::{
    cpu_seconds, digest_all, failure_digest, is_typed_unreachable, mean, median, metric,
    peak_rss_mb, plan_digest, Failure, Fnv, Latency, Planned,
};
use crate::{Args, RunOutcome, WORKERS};

pub struct Setup {
    spec: CorpusSpec,
    campaign: Campaign,
}

/// Expands the corpus and plans one untimed request per processor
/// family, so ISS calibration is paid here.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let spec = CorpusSpec::full(seed);
    let campaign = Campaign::new()
        .with_threads(WORKERS)
        .map_err(|e| e.to_string())?;
    let requests = spec.requests();
    for family in ["leon", "plasma"] {
        let warm_up = requests
            .iter()
            .find(|r| r.processors.as_ref().is_some_and(|p| p.family == family))
            .ok_or_else(|| format!("the corpus has no {family} scenario to warm up with"))?;
        campaign
            .run(warm_up)
            .map_err(|e| format!("warm-up failed: {e}"))?;
    }
    Ok(Setup { spec, campaign })
}

#[derive(Debug, Default)]
struct Job {
    started: Option<Instant>,
    finished: Option<Instant>,
    digest: u64,
    outcome: Option<(u64, f64)>,
}

/// Observes each scenario's lifecycle: service latency (started →
/// terminal) and what was planned.
#[derive(Debug, Default)]
struct RoundSink {
    jobs: Mutex<HashMap<u64, Job>>,
}

impl EventSink for RoundSink {
    fn emit(&self, event: &PlanEvent) {
        let now = Instant::now();
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        let job = jobs.entry(event.job().0).or_default();
        match event {
            PlanEvent::Started { .. } => job.started = Some(now),
            PlanEvent::Completed { outcome, .. } => {
                job.finished = Some(now);
                job.digest = plan_digest(outcome, false);
                job.outcome = Some((outcome.makespan, outcome.reduction_percent));
            }
            PlanEvent::Failed { request, error, .. } => {
                job.finished = Some(now);
                job.digest = failure_digest(request, &error.to_string());
            }
            _ => {}
        }
    }
}

/// One untraced sweep.
struct Round {
    wall_s: f64,
    attempted: u64,
    completed: u64,
    typed: u64,
    unexpected: u64,
    latencies_ms: Vec<f64>,
    /// Plans without their replay sections (the executor's events carry
    /// outcomes before the deferred batch attaches fidelity).
    digest: u64,
    report: String,
    worst_fidelity: BTreeMap<String, Option<f64>>,
    makespans: Vec<f64>,
    reductions: Vec<f64>,
}

fn round(setup: &Setup) -> Result<Round, String> {
    let sink = Arc::new(RoundSink::default());
    let started = Instant::now();
    let run = setup.spec.run_streaming(
        &setup.campaign,
        StreamOptions {
            abort_on_failure: false,
            sinks: vec![Arc::clone(&sink) as Arc<dyn EventSink>],
        },
        |_, _, _| {},
    );
    let wall_s = started.elapsed().as_secs_f64();
    let report = run.report;
    let jobs = std::mem::take(&mut *sink.jobs.lock().unwrap_or_else(PoisonError::into_inner));
    let mut ids: Vec<u64> = jobs.keys().copied().collect();
    ids.sort_unstable();
    let mut digest = Fnv::default();
    let mut latencies_ms = Vec::with_capacity(ids.len());
    let (mut makespans, mut reductions) = (Vec::new(), Vec::new());
    for id in &ids {
        let job = &jobs[id];
        digest.u64(job.digest);
        if let (Some(start), Some(end)) = (job.started, job.finished) {
            latencies_ms.push(end.duration_since(start).as_secs_f64() * 1e3);
        }
        if let Some((makespan, reduction)) = job.outcome {
            makespans.push(makespan as f64);
            reductions.push(reduction);
        }
    }
    let typed = report
        .failures
        .iter()
        .filter(|f| is_typed_unreachable(&f.error))
        .count() as u64;
    let unexpected = report.failures.len() as u64 - typed;
    for failure in report.failures.iter().take(3) {
        eprintln!("perfbench: {}: {}", failure.request, failure.error);
    }
    Ok(Round {
        wall_s,
        attempted: report.scenario_count as u64,
        completed: report.scenario_count as u64 - report.failures.len() as u64,
        typed,
        unexpected,
        latencies_ms,
        digest: digest.0,
        report: report.deterministic_json(),
        worst_fidelity: report
            .schedulers
            .iter()
            .map(|s| (s.name.clone(), s.worst_fidelity_error))
            .collect(),
        makespans,
        reductions,
    })
}

/// The sweep re-driven stage by stage on one thread: expand, then per
/// scenario parse → profile → build → heuristic → validate, then one
/// lane-batched replay of everything deferred.
fn redrive(
    spec: &CorpusSpec,
    planner: &Planner,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> (Vec<Planned>, Duration) {
    let started = Instant::now();
    let requests = tracer.span("gen.expand", 0, || spec.requests());
    let mut results = Vec::with_capacity(requests.len());
    let (mut deferred_at, mut work) = (Vec::new(), Vec::new());
    for (index, request) in requests.iter().enumerate() {
        let rid = index as u64 + 1;
        let root = tracer.begin(REQUEST, rid);
        match planner.plan(tracer, counters, rid, request, Replay::Deferred) {
            Ok((outcome, item)) => {
                if let Some(item) = item {
                    deferred_at.push(index);
                    work.push(item);
                }
                results.push(Ok(outcome));
            }
            Err(error) => results.push(Err(Failure {
                request: request.name.clone(),
                error: error.to_string(),
            })),
        }
        tracer.end(root);
    }
    let replays = replay_deferred(tracer, counters, &work);
    for (index, replay) in deferred_at.into_iter().zip(replays) {
        match replay {
            Ok(fidelity) => {
                if let Ok(outcome) = &mut results[index] {
                    outcome.fidelity = Some(fidelity);
                }
            }
            Err(error) => {
                results[index] = Err(Failure {
                    request: requests[index].name.clone(),
                    error: error.to_string(),
                });
            }
        }
    }
    (results, started.elapsed())
}

pub fn run(args: &Args) -> Result<RunOutcome, String> {
    let before = profile_cache_stats();
    let setup = setup(args.seed)?;
    let profile_misses = profile_cache_stats().since(before).misses;
    let mut outcome = RunOutcome {
        config: vec![
            ("executor_threads", WORKERS.to_string()),
            ("scenarios", setup.spec.scenario_count().to_string()),
        ],
        ..RunOutcome::default()
    };

    let deadline = Duration::from_secs_f64(args.seconds);
    let (started, cpu_before) = (Instant::now(), cpu_seconds(None));
    let mut rounds = vec![round(&setup)?];
    while !args.trace && started.elapsed() < deadline {
        rounds.push(round(&setup)?);
    }
    let cpu_s = cpu_seconds(None) - cpu_before;
    let first = &rounds[0];
    let reproducible = rounds
        .iter()
        .all(|r| r.digest == first.digest && r.report == first.report);
    if !reproducible {
        eprintln!("perfbench: two sweeps of one seed planned differently");
    }
    outcome.digest = first.digest;
    outcome.attempted = rounds.iter().map(|r| r.attempted).sum();
    outcome.failed = rounds.iter().map(|r| r.unexpected).sum();
    outcome.correct = reproducible && outcome.failed == 0;
    outcome.config.push(("rounds", rounds.len().to_string()));
    let latency = Latency::of(rounds.iter().flat_map(|r| r.latencies_ms.clone()).collect());
    outcome.config.extend(latency.config());

    if !args.trace {
        let rates: Vec<f64> = rounds
            .iter()
            .map(|r| r.completed as f64 / r.wall_s)
            .collect();
        let completed: u64 = rounds.iter().map(|r| r.completed).sum();
        outcome.end_to_end = vec![
            metric("plans_per_s", median(&rates), "1/s"),
            metric("cpu_ms_per_plan", 1e3 * cpu_s / completed as f64, "ms"),
            metric("peak_rss_mb", peak_rss_mb(None), "MiB"),
            metric("reduction_pct", mean(&first.reductions), "%"),
            metric("makespan_kcycles", mean(&first.makespans) / 1e3, "kcycles"),
        ];
        return Ok(outcome);
    }

    // Traced run: the same sweep re-driven stage by stage.
    let planner = Planner::new(None);
    let mut tracer = Tracer::new(true);
    let runs = layers::bracket(&mut tracer, |tracer, counters| {
        Ok(redrive(&setup.spec, &planner, tracer, counters))
    })?;

    let mut worst: BTreeMap<String, Option<f64>> = BTreeMap::new();
    let mut errors = Vec::new();
    for plan in runs.traced.iter().filter_map(|r| r.as_ref().ok()) {
        let error = plan.fidelity.as_ref().map(|f| f.worst_relative_error());
        let slot = worst.entry(plan.scheduler.clone()).or_insert(None);
        if let Some(error) = error {
            *slot = Some(slot.map_or(error, |w: f64| w.max(error)));
        }
        errors.push(100.0 * error.unwrap_or(0.0));
    }
    let same_plans = digest_all(&runs.traced, false) == first.digest
        && digest_all(&runs.traced, true) == digest_all(&runs.untraced, true)
        && worst == first.worst_fidelity;
    if !same_plans {
        eprintln!("perfbench: the traced re-drive planned differently from the untraced sweep");
    }
    outcome.correct &= same_plans;
    let extras = Extras {
        profile_misses,
        fidelity_err_pct: mean(&errors),
        failed_pct: 100.0 * (first.typed + first.unexpected) as f64 / first.attempted as f64,
        unreachable: first.typed,
        latency,
        ..Extras::default()
    };
    outcome.layers = layers::finish(args, &tracer, &runs, &extras)?;
    Ok(outcome)
}
