//! `plan-delta` — the incremental re-planning benchmark.
//!
//! Measures what `noctest-replan` saves on *re-planning sessions*: the
//! daemon traffic pattern where one SoC is planned, edited
//! ([`noctest_gen::DeltaSpec`]: revise one core / nudge the budget /
//! resize the mesh) and both configurations are then resubmitted over
//! several rounds under fresh labels — A/B comparisons, nightly CI
//! re-runs of a planning matrix, parameter toggles. Per pair the session
//! is:
//!
//! 1. the base request is planned cold once (both pipelines pay this —
//!    it is the initial plan, not a replan, and is excluded from the
//!    replan totals);
//! 2. `ROUNDS` rounds of replan traffic, each submitting the base *and*
//!    the edited near-duplicate under fresh names.
//!
//! The **cold pipeline** (no reuse) runs the full exact search for every
//! submission. The **incremental pipeline** serves content hits from the
//! [`noctest_replan::PlanCache`] with zero expansions and warm-starts
//! the one genuinely new search from the nearest cached donor
//! ([`noctest_replan::DeltaAnalyzer`]). Both the exact-hit service and
//! the warm-started search are byte-identity-gated against cold results,
//! so the reduction is pure reuse, never a quality trade.
//!
//! `BENCH_delta.json` is written through the shared [`BenchArtifact`]:
//! `config` (mode, seed, cores, pairs, rounds, budget) plus two sections:
//!
//! * `deterministic` — per-pair edit kinds, content hashes, donors, edit
//!   distances, seed provenance, expansion counts and FNV-1a schedule
//!   digests, plus the session totals. Everything here is a pure
//!   function of the seed: the artifact runs the whole sweep twice
//!   in-process, each from an empty [`noctest_replan::PlanCache`], and
//!   byte-compares the two sections; `ci/bench_smoke.sh` repeats the
//!   check across processes on the stdout copy.
//! * `measured` — wall-clock micros per pipeline and pair, and the plan
//!   cache counters. Machine-dependent, never part of the smoke gate.
//!
//! Internal gates (exit 1):
//!
//! * a cache hit whose served outcome is not byte-identical to the
//!   stored one (up to the request label);
//! * a warm-started search that proves optimality with a schedule that
//!   is not byte-identical to the cold search's, or that expands more
//!   nodes than cold;
//! * fewer than half the pairs warm-starting or proving optimality;
//! * an aggregate session reduction below the committed 5× floor;
//! * two in-process runs disagreeing in the deterministic section.
//!
//! Usage errors exit 2.
//!
//! ```text
//! cargo run --release -p noctest-bench --bin plan-delta -- --smoke
//! cargo run --release -p noctest-bench --bin plan-delta             # full sweep
//! ```

use std::process::ExitCode;
use std::time::Instant;

use noctest_bench::artifact::{BenchArgs, BenchArtifact, BenchRun};
use noctest_bench::schedule_digest;
use noctest_core::json::Json;
use noctest_core::plan::{Campaign, PlanRequest};
use noctest_core::{ContentHash, OptimalScheduler, Schedule, SearchStats, SearchTuning};
use noctest_gen::DeltaSpec;
use noctest_replan::{DeltaAnalyzer, PlanCache};

/// Aggregate expansion-reduction floor (cold session / incremental
/// session, totals): the committed claim of `BENCH_delta.json`.
const REDUCTION_FLOOR: f64 = 5.0;

/// Replan rounds per session. Each round resubmits both configurations
/// under fresh labels, so the cold pipeline pays `2 × ROUNDS` full
/// searches per pair while the incremental pipeline pays one warm search.
const ROUNDS: u64 = 3;

/// Expansion budget per search — generous: the point of these instances
/// is that the searches finish and the digests are comparable.
const BUDGET: u64 = 500_000;

struct Run {
    schedule: Schedule,
    stats: SearchStats,
    wall_micros: u64,
}

fn run_search(request: &PlanRequest, tuning: &SearchTuning) -> Run {
    let sys = request.build_system().expect("generated system builds");
    let started = Instant::now();
    let (schedule, stats) = OptimalScheduler::new()
        .with_max_expansions(Some(BUDGET))
        .schedule_with_stats(&sys, tuning, None)
        .expect("exact search succeeds");
    Run {
        schedule,
        stats,
        wall_micros: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
    }
}

fn run_json(run: &Run) -> Json {
    Json::obj(vec![
        ("makespan", Json::int(run.schedule.makespan())),
        ("expansions", Json::int(run.stats.expansions)),
        ("exact", Json::Bool(run.stats.proved_optimal())),
        ("seed", Json::str(run.stats.seed.label())),
        ("digest", Json::str(schedule_digest(&run.schedule))),
    ])
}

fn main() -> ExitCode {
    BenchArtifact {
        name: "plan-delta",
        out: "BENCH_delta.json",
        about: "benchmarks incremental re-planning sessions (content-addressed\n\
                cache + warm-started search) against cold planning and writes\n\
                BENCH_delta.json (deterministic digests + wall-clock numbers)",
        threads: false,
    }
    .main(workload)
}

/// One re-planning session sweep, from a fresh campaign and an empty
/// plan cache.
fn workload(args: &BenchArgs) -> BenchRun {
    let pair_count = if args.smoke { 12 } else { 24 };
    let spec = DeltaSpec::new(args.seed);
    let pairs = spec.pairs(pair_count);

    let campaign = Campaign::new();
    let cache = PlanCache::new(2 * pairs.len() + 1);
    let analyzer = DeltaAnalyzer::default();

    let mut failures = 0u32;
    let mut det_pairs = Vec::new();
    let mut measured = Vec::new();
    let mut warm_started = 0usize;
    let mut exact_pairs = 0usize;
    let mut total_cold = 0u64;
    let mut total_incremental = 0u64;
    let mut total_hits = 0u64;

    for (index, pair) in pairs.iter().enumerate() {
        let name = format!("{}-{index}", pair.edit.slug());

        // Initial plan (shared by both pipelines, excluded from the
        // replan totals): plan the base for real and seed the cache.
        let base_outcome = campaign.run(&pair.base).expect("base request plans");
        cache.insert(&pair.base, &base_outcome);

        // --- Cold pipeline: every resubmission is a full search. The
        // searches are deterministic, so the repeats must agree with the
        // first round byte for byte (asserted, then reported once).
        let cold_base = run_search(&pair.base, &SearchTuning::default());
        let cold_edited = run_search(&pair.edited, &SearchTuning::default());
        let mut cold_wall = cold_base.wall_micros + cold_edited.wall_micros;
        for _ in 1..ROUNDS {
            let b = run_search(&pair.base, &SearchTuning::default());
            let e = run_search(&pair.edited, &SearchTuning::default());
            assert_eq!(
                schedule_digest(&b.schedule),
                schedule_digest(&cold_base.schedule),
                "cold search is deterministic"
            );
            assert_eq!(
                schedule_digest(&e.schedule),
                schedule_digest(&cold_edited.schedule),
                "cold search is deterministic"
            );
            cold_wall += b.wall_micros + e.wall_micros;
        }
        let cold_session = ROUNDS * (cold_base.stats.expansions + cold_edited.stats.expansions);

        // --- Incremental pipeline: the one new content warm-starts from
        // the cached donor; everything else is served from the cache.
        let warm_start = analyzer.analyze(&cache, &pair.edited);
        let (warm, donor, distance) = match &warm_start {
            Some(warm_start) => {
                warm_started += 1;
                (
                    run_search(&pair.edited, &warm_start.tuning(&pair.edited)),
                    warm_start.from.to_hex(),
                    warm_start.distance,
                )
            }
            // No viable donor (e.g. the edit tightened the budget past
            // the donor schedule's feasibility): the replan is cold.
            None => (
                run_search(&pair.edited, &SearchTuning::default()),
                String::new(),
                0,
            ),
        };
        let mut incremental_wall = warm.wall_micros;
        // The daemon inserts the planned outcome on completion; mirror it
        // so the edited content is hit-servable for the later rounds.
        let edited_outcome = campaign.run(&pair.edited).expect("edited request plans");
        cache.insert(&pair.edited, &edited_outcome);
        let mut hits = 0u64;
        for round in 0..ROUNDS {
            for (request, planned) in [(&pair.base, &base_outcome), (&pair.edited, &edited_outcome)]
            {
                // Round 0 of the edited content was the warm search above.
                if round == 0 && std::ptr::eq(request, &pair.edited) {
                    continue;
                }
                let relabelled = request.clone().with_name(format!("{name}-r{round}"));
                let started = Instant::now();
                match cache.lookup(&relabelled) {
                    Some(served) => {
                        hits += 1;
                        let mut expected = planned.clone();
                        expected.request_name = relabelled.name.clone();
                        if served.to_json().compact() != expected.to_json().compact() {
                            eprintln!("plan-delta: {name}: cache hit is not byte-identical");
                            failures += 1;
                        }
                    }
                    None => {
                        eprintln!("plan-delta: {name}: exact revisit missed the cache");
                        failures += 1;
                    }
                }
                incremental_wall +=
                    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            }
        }
        let incremental_session = warm.stats.expansions;

        // Differential wall: within budget, the warm-started search must
        // reproduce the cold schedule byte for byte — and reuse never
        // costs expansions.
        let identical = schedule_digest(&cold_edited.schedule) == schedule_digest(&warm.schedule);
        if cold_edited.stats.proved_optimal() && warm.stats.proved_optimal() {
            exact_pairs += 1;
            if !identical {
                eprintln!(
                    "plan-delta: {name}: warm-started schedule differs from cold within budget"
                );
                failures += 1;
            }
        }
        if warm_start.is_some() && warm.stats.expansions > cold_edited.stats.expansions {
            eprintln!(
                "plan-delta: {name}: warm start expanded more nodes than cold ({} > {})",
                warm.stats.expansions, cold_edited.stats.expansions
            );
            failures += 1;
        }

        total_cold += cold_session;
        total_incremental += incremental_session;
        total_hits += hits;
        det_pairs.push(Json::obj(vec![
            ("name", Json::str(name.clone())),
            ("edit", Json::str(pair.edit.slug())),
            ("content", Json::str(ContentHash::of(&pair.edited).to_hex())),
            ("donor", Json::str(donor)),
            ("distance", Json::int(u64::from(distance))),
            ("cold_base", run_json(&cold_base)),
            ("cold_edited", run_json(&cold_edited)),
            ("warm", run_json(&warm)),
            ("identical", Json::Bool(identical)),
            ("hits", Json::int(hits)),
            ("cold_session_expansions", Json::int(cold_session)),
            (
                "incremental_session_expansions",
                Json::int(incremental_session),
            ),
        ]));
        let speedup = cold_wall as f64 / incremental_wall.max(1) as f64;
        measured.push(Json::obj(vec![
            ("name", Json::str(name)),
            ("cold_session_micros", Json::int(cold_wall)),
            ("incremental_session_micros", Json::int(incremental_wall)),
            ("speedup", Json::Num(speedup)),
        ]));
    }

    // The reuse machinery must actually be exercised, and the committed
    // session-reduction claim must hold in aggregate.
    if warm_started < pairs.len() / 2 {
        eprintln!(
            "plan-delta: only {warm_started}/{} pairs warm-started — the differential gate \
             is starved",
            pairs.len()
        );
        failures += 1;
    }
    if exact_pairs < pairs.len() / 2 {
        eprintln!(
            "plan-delta: only {exact_pairs}/{} pairs proved optimal within budget — the \
             byte-identity gate is starved",
            pairs.len()
        );
        failures += 1;
    }
    let reduction = total_cold as f64 / total_incremental.max(1) as f64;
    if reduction < REDUCTION_FLOOR {
        eprintln!(
            "plan-delta: aggregate session reduction {reduction:.2}x misses the \
             {REDUCTION_FLOOR:.0}x floor ({total_cold} cold vs {total_incremental} incremental)"
        );
        failures += 1;
    }

    let stats = cache.stats();
    BenchRun {
        config: vec![
            ("pairs", Json::int(pair_count)),
            ("rounds", Json::int(ROUNDS)),
            ("budget", Json::int(BUDGET)),
        ],
        deterministic: Json::obj(vec![
            ("seed", Json::int(args.seed)),
            ("rounds", Json::int(ROUNDS)),
            ("pairs", Json::Arr(det_pairs)),
            (
                "totals",
                Json::obj(vec![
                    ("cold_expansions", Json::int(total_cold)),
                    ("incremental_expansions", Json::int(total_incremental)),
                    ("reduction", Json::Num(reduction)),
                    ("warm_started", Json::int(warm_started as u64)),
                    ("cache_hits", Json::int(total_hits)),
                ]),
            ),
        ]),
        measured: Json::obj(vec![
            ("pairs", Json::Arr(measured)),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::int(stats.hits)),
                    ("misses", Json::int(stats.misses)),
                    ("evictions", Json::int(stats.evictions)),
                ]),
            ),
        ]),
        failures,
        summary: format!(
            "{} pairs x {ROUNDS} rounds, {warm_started} warm-started, \
             {total_hits} cache hits, session reduction {reduction:.1}x",
            pairs.len()
        ),
    }
}
