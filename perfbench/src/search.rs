//! `exact-search`: the branch-and-bound path. A fixed population of
//! generated 8-core SoCs with two reused plasma processors (up to 10
//! cuts, the exact searches' guard), each planned by `optimal` and by
//! `optimal-par` at two search threads under one expansion budget, one
//! request at a time through `Campaign::run`. Search is nearly all the
//! work; build, replay and JSON are close to zero.

use std::time::{Duration, Instant};

use noctest_core::plan::{profile_cache_stats, Campaign, PlanRequest, SocSource};
use noctest_gen::RecipeFamily;
use noctest_noc::rng::SplitMix64;

use crate::layers::{self, Extras};
use crate::pipeline::{Counters, Planner, Replay};
use crate::trace::{Tracer, REQUEST};
use crate::util::{
    cpu_seconds, digest_all, is_typed_unreachable, mean, median, metric, peak_rss_mb, Failure,
    Latency, Planned,
};
use crate::{Args, RunOutcome, WORKERS};

/// The population: SoCs the search mostly proves optimal in a few
/// hundred expansions (up to 5 cores + 2 processors), and SoCs that run
/// the expansion budget out (up to 8 cores + 2 processors = 10 cuts, the
/// guard). The two groups take about equal shares of the wall time, and
/// budget-exhausted plans are about a fifth of all plans, so the p50
/// latency sits among the proved plans and the p90 among the exhausted.
const PROVED: (u32, usize) = (5, 200);
const EXHAUSTED: (u32, usize) = (8, 40);

/// Expansion budget of both searches.
const BUDGET: u64 = 20_000;

pub struct Setup {
    requests: Vec<PlanRequest>,
    campaign: Campaign,
    planner: Planner,
}

/// The population, in planning order: each SoC under `optimal`, then
/// under `optimal-par` with [`WORKERS`] search threads.
fn population(seed: u64) -> Vec<PlanRequest> {
    let mut seeder = SplitMix64::new(seed ^ 0x0e8a_c75e);
    let sizes = std::iter::repeat_n(EXHAUSTED.0, EXHAUSTED.1)
        .chain(std::iter::repeat_n(PROVED.0, PROVED.1));
    sizes
        .enumerate()
        .flat_map(|(index, cores)| {
            let family = RecipeFamily::ALL[index % RecipeFamily::ALL.len()];
            let soc_seed = seeder.next_u64();
            let name = format!("{}-{cores}c-{index:03}", family.slug());
            let base = PlanRequest {
                soc: SocSource::SocText(family.recipe(cores).generate_text(soc_seed)),
                ..PlanRequest::benchmark(&name, 4, 4)
            }
            .with_processors("plasma", 2, 2);
            [
                base.clone()
                    .with_name(format!("{name} optimal"))
                    .with_scheduler("optimal"),
                base.with_name(format!("{name} optimal-par"))
                    .with_scheduler("optimal-par")
                    .with_search_threads(WORKERS),
            ]
        })
        .collect()
}

/// Generates the population and plans one untimed heuristic request, so
/// the plasma ISS calibration is paid here.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let requests = population(seed);
    let planner = Planner::new(Some(BUDGET));
    let campaign = Campaign::with_registry(planner.registry.clone());
    let warm_up = requests[0].clone().with_scheduler("greedy");
    campaign
        .run(&warm_up)
        .map_err(|e| format!("warm-up failed: {e}"))?;
    Ok(Setup {
        requests,
        campaign,
        planner,
    })
}

struct Round {
    wall_s: f64,
    latencies_ms: Vec<f64>,
    results: Vec<Planned>,
}

fn round(setup: &Setup) -> Round {
    let started = Instant::now();
    let mut latencies_ms = Vec::with_capacity(setup.requests.len());
    let mut results = Vec::with_capacity(setup.requests.len());
    for request in &setup.requests {
        let t0 = Instant::now();
        let result = setup.campaign.run(request);
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        results.push(result.map_err(|e| Failure {
            request: request.name.clone(),
            error: e.to_string(),
        }));
    }
    Round {
        wall_s: started.elapsed().as_secs_f64(),
        latencies_ms,
        results,
    }
}

/// The population re-driven stage by stage on one thread.
fn redrive(
    seed: u64,
    planner: &Planner,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> (Vec<Planned>, Duration) {
    let started = Instant::now();
    let requests = tracer.span("gen.expand", 0, || population(seed));
    let results = requests
        .iter()
        .enumerate()
        .map(|(index, request)| {
            let rid = index as u64 + 1;
            let root = tracer.begin(REQUEST, rid);
            let result = planner
                .plan(tracer, counters, rid, request, Replay::Inline)
                .map(|(outcome, _)| outcome)
                .map_err(|e| Failure {
                    request: request.name.clone(),
                    error: e.to_string(),
                });
            tracer.end(root);
            result
        })
        .collect();
    (results, started.elapsed())
}

pub fn run(args: &Args) -> Result<RunOutcome, String> {
    let before = profile_cache_stats();
    let setup = setup(args.seed)?;
    let profile_misses = profile_cache_stats().since(before).misses;
    let mut outcome = RunOutcome {
        config: vec![
            ("search_threads", WORKERS.to_string()),
            ("population", (PROVED.1 + EXHAUSTED.1).to_string()),
            ("expansion_budget", BUDGET.to_string()),
        ],
        ..RunOutcome::default()
    };

    // Later rounds keep only their digest and timings, so memory does
    // not grow with the number of rounds a run fits in.
    let (started, cpu_before) = (Instant::now(), cpu_seconds(None));
    let first = round(&setup);
    let digest = digest_all(&first.results, true);
    let (mut reproducible, mut attempted) = (true, 0u64);
    let (mut rates, mut latencies) = (Vec::new(), Vec::new());
    let mut observe = |round: &Round| {
        reproducible &= digest_all(&round.results, true) == digest;
        attempted += round.results.len() as u64;
        let completed = round.results.iter().filter(|r| r.is_ok()).count();
        rates.push(completed as f64 / round.wall_s);
        latencies.extend_from_slice(&round.latencies_ms);
    };
    observe(&first);
    let deadline = Duration::from_secs_f64(args.seconds);
    while !args.trace && started.elapsed() < deadline {
        observe(&round(&setup));
    }
    let cpu_s = cpu_seconds(None) - cpu_before;
    if !reproducible {
        eprintln!("perfbench: two passes over one population planned differently");
    }
    let failures: Vec<&Failure> = first
        .results
        .iter()
        .filter_map(|r| r.as_ref().err())
        .collect();
    let typed = failures
        .iter()
        .filter(|f| is_typed_unreachable(&f.error))
        .count() as u64;
    for failure in failures.iter().take(3) {
        eprintln!("perfbench: {}: {}", failure.request, failure.error);
    }
    let rounds = rates.len() as u64;
    outcome.digest = digest;
    outcome.attempted = attempted;
    outcome.failed = (failures.len() as u64 - typed) * rounds;
    outcome.correct = reproducible && outcome.failed == 0;
    outcome.config.push(("rounds", rounds.to_string()));
    let latency = Latency::of(latencies);
    outcome.config.extend(latency.config());

    let plans: Vec<_> = first
        .results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .collect();
    if !args.trace {
        let completed = plans.len() as u64 * rounds;
        let reductions: Vec<f64> = plans.iter().map(|p| p.reduction_percent).collect();
        let makespans: Vec<f64> = plans.iter().map(|p| p.makespan as f64 / 1e3).collect();
        outcome.end_to_end = vec![
            metric("plans_per_s", median(&rates), "1/s"),
            metric("cpu_ms_per_plan", 1e3 * cpu_s / completed as f64, "ms"),
            metric("peak_rss_mb", peak_rss_mb(None), "MiB"),
            metric("reduction_pct", mean(&reductions), "%"),
            metric("makespan_kcycles", mean(&makespans), "kcycles"),
        ];
        return Ok(outcome);
    }

    let mut tracer = Tracer::new(true);
    let runs = layers::bracket(&mut tracer, |tracer, counters| {
        Ok(redrive(args.seed, &setup.planner, tracer, counters))
    })?;
    let same_plans =
        digest_all(&runs.traced, true) == digest && digest_all(&runs.untraced, true) == digest;
    if !same_plans {
        eprintln!("perfbench: the traced re-drive planned differently from Campaign::run");
    }
    outcome.correct &= same_plans;
    let extras = Extras {
        profile_misses,
        failed_pct: 100.0 * failures.len() as f64 / first.results.len() as f64,
        unreachable: typed,
        latency,
        ..Extras::default()
    };
    outcome.layers = layers::finish(args, &tracer, &runs, &extras)?;
    Ok(outcome)
}
