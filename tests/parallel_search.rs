//! Differential acceptance suite for the parallel branch-and-bound and
//! the portfolio racer.
//!
//! 48 generated SoCs (all five recipe families, plasma processors):
//! the work-stealing `optimal-par` search must return byte-identical
//! Schedule JSON to the serial `optimal` search at 1, 2, 4 and N
//! (machine) threads whenever the search completes within budget, and
//! budget-exhausted runs must return a valid incumbent that is
//! deterministic at every fixed thread count and the same at 2, 3 and 4
//! threads. Under a finite budget `optimal-par` runs the budget's first
//! round unsplit: a tree that round finishes must be `optimal`'s answer
//! down to the expansion count at 2, 3 and 4 threads, and a tree it
//! leaves open must be split into an answer no worse than the round's.
//! The portfolio tests prove losers observe cancellation — both when the
//! exact entrant wins the race and when the parent job is cancelled
//! through the Executor — and that racing never writes to the profile
//! cache.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use noctest::core::plan::exec::{Executor, JobResult};
use noctest::core::plan::{profile_cache_stats, Campaign, CoreRequest, PlanRequest, SocSource};
use noctest::core::{
    CancelToken, GreedyScheduler, OptimalScheduler, ParallelOptimalScheduler, PlanError,
    PortfolioScheduler, Schedule, Scheduler, SearchStats, SearchTuning, SmartScheduler,
    SystemUnderTest,
};
use noctest::gen::RecipeFamily;

const SEEDS: u64 = 48;

/// The profile-cache counters are process-wide, and building a system
/// with processors performs cache lookups — so the cache-delta test must
/// not overlap the differential sweeps. Every test takes this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialised() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One small generated SoC per seed: all five families, 5-6 cores plus
/// two plasma processors — at most 8 cuts, comfortably inside the
/// exponential-size guard so exact searches can complete.
fn system_for_seed(seed: u64) -> SystemUnderTest {
    let family = RecipeFamily::ALL[(seed as usize) % RecipeFamily::ALL.len()];
    let recipe = family.recipe(5 + (seed % 2) as u32);
    let request = PlanRequest {
        soc: SocSource::SocText(recipe.generate_text(seed.wrapping_mul(7919).wrapping_add(13))),
        ..PlanRequest::benchmark("diff", 3, 3)
    }
    .with_processors("plasma", 2, 2);
    request.build_system().expect("generated system builds")
}

/// Thread counts under test: 1, 2, 4 and the machine's parallelism.
fn thread_counts() -> Vec<usize> {
    let n = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut counts = vec![1, 2, 4, n];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// A canonical JSON encoding of a schedule, so "byte-identical" means
/// exactly that.
fn schedule_json(schedule: &Schedule) -> String {
    let mut out = String::from("[");
    for (i, e) in schedule.entries().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            r#"{{"cut":{},"interface":{},"start":{},"end":{}}}"#,
            e.cut.0, e.interface.0, e.start, e.end
        ));
    }
    out.push(']');
    out
}

fn heuristic_seed_makespan(sys: &SystemUnderTest) -> u64 {
    let greedy = GreedyScheduler.schedule(sys).unwrap().makespan();
    let smart = SmartScheduler.schedule(sys).unwrap().makespan();
    greedy.min(smart)
}

#[test]
fn within_budget_parallel_is_byte_identical_to_serial_across_48_seeds() {
    let _guard = serialised();
    const BUDGET: Option<u64> = Some(150_000);
    let mut exact_instances = 0usize;
    for seed in 0..SEEDS {
        let sys = system_for_seed(seed);
        let (serial_schedule, serial_stats) = OptimalScheduler::new()
            .with_max_expansions(BUDGET)
            .schedule_with_stats(&sys, &SearchTuning::default(), None)
            .unwrap();
        let serial_json = schedule_json(&serial_schedule);
        let mut all_exact = serial_stats.proved_optimal();
        for threads in thread_counts() {
            let (par_schedule, par_stats) = ParallelOptimalScheduler::new()
                .with_threads(threads)
                .with_max_expansions(BUDGET)
                .schedule_with_stats(&sys, &SearchTuning::default(), None)
                .unwrap();
            par_schedule.validate(&sys).unwrap();
            assert!(par_schedule.makespan() <= heuristic_seed_makespan(&sys));
            if serial_stats.proved_optimal() && par_stats.proved_optimal() {
                // Within budget the parallel search must reproduce the
                // serial schedule byte for byte, at every thread count.
                assert_eq!(
                    schedule_json(&par_schedule),
                    serial_json,
                    "seed {seed}, {threads} threads"
                );
            } else {
                all_exact = false;
                // A budget-limited incumbent can differ but never loses
                // to the proved optimum.
                assert!(
                    par_schedule.makespan() >= serial_schedule.makespan()
                        || !serial_stats.proved_optimal(),
                    "seed {seed}, {threads} threads: beat the proved optimum"
                );
            }
        }
        if all_exact {
            exact_instances += 1;
        }
    }
    // The suite must actually exercise the byte-identity path on a
    // majority of instances, not vacuously skip it.
    assert!(
        exact_instances >= 24,
        "only {exact_instances}/48 instances completed within budget at every thread count"
    );
}

#[test]
fn budget_exhausted_runs_are_deterministic_at_fixed_thread_count() {
    let _guard = serialised();
    const BUDGET: Option<u64> = Some(1_000);
    let mut exhausted_instances = 0usize;
    for seed in 0..SEEDS {
        let sys = system_for_seed(seed);
        let seed_bound = heuristic_seed_makespan(&sys);
        for threads in [2usize, 4] {
            let starved = ParallelOptimalScheduler::new()
                .with_threads(threads)
                .with_max_expansions(BUDGET);
            let (a, stats) = starved
                .schedule_with_stats(&sys, &SearchTuning::default(), None)
                .unwrap();
            // A starved run still returns a valid incumbent never worse
            // than the heuristic seed...
            a.validate(&sys).unwrap();
            assert!(a.makespan() <= seed_bound, "seed {seed}, {threads} threads");
            // ...and re-running at the same thread count reproduces it
            // byte for byte, work stealing notwithstanding.
            let (b, _) = starved
                .schedule_with_stats(&sys, &SearchTuning::default(), None)
                .unwrap();
            assert_eq!(
                schedule_json(&a),
                schedule_json(&b),
                "seed {seed}, {threads} threads"
            );
            if stats.exhausted {
                exhausted_instances += 1;
            }
        }
    }
    // The tiny budget must actually starve most instances, or this test
    // proves nothing.
    assert!(
        exhausted_instances >= 48,
        "only {exhausted_instances}/96 starved runs actually exhausted the budget"
    );
}

/// The expansion budget of the first-round tests (the exact-search
/// benchmark's).
const ROUND_BUDGET: u64 = 20_000;

/// The first of the eight rounds a finite budget is spent in:
/// `optimal-par` searches it unsplit on the caller's thread, as
/// `optimal` does, before it splits anything.
fn first_round(budget: u64) -> u64 {
    budget / 8
}

fn optimal(sys: &SystemUnderTest, budget: u64) -> (Schedule, SearchStats) {
    OptimalScheduler::new()
        .with_max_expansions(Some(budget))
        .schedule_with_stats(sys, &SearchTuning::default(), None)
        .unwrap()
}

fn parallel(sys: &SystemUnderTest, threads: usize, budget: u64) -> (Schedule, SearchStats) {
    ParallelOptimalScheduler::new()
        .with_threads(threads)
        .with_max_expansions(Some(budget))
        .schedule_with_stats(sys, &SearchTuning::default(), None)
        .unwrap()
}

#[test]
fn a_tree_the_first_round_finishes_is_the_one_thread_search() {
    let _guard = serialised();
    let mut finished = 0usize;
    for seed in 0..SEEDS {
        let sys = system_for_seed(seed);
        if optimal(&sys, first_round(ROUND_BUDGET)).1.exhausted {
            continue;
        }
        finished += 1;
        let (serial, serial_stats) = optimal(&sys, ROUND_BUDGET);
        for threads in [2usize, 3, 4] {
            let (par, stats) = parallel(&sys, threads, ROUND_BUDGET);
            assert_eq!(
                schedule_json(&par),
                schedule_json(&serial),
                "seed {seed}, {threads} threads"
            );
            assert_eq!(
                (stats.expansions, stats.exhausted, stats.tasks),
                (serial_stats.expansions, serial_stats.exhausted, 1),
                "seed {seed}, {threads} threads"
            );
        }
    }
    assert!(
        finished >= 24,
        "the first round finished only {finished}/48 trees"
    );
}

#[test]
fn budgets_below_the_round_count_return_the_seed_or_better() {
    let _guard = serialised();
    for seed in 0..SEEDS {
        let sys = system_for_seed(seed);
        for budget in [0, 1, 7] {
            let (schedule, stats) = parallel(&sys, 2, budget);
            schedule.validate(&sys).unwrap();
            assert!(
                schedule.makespan() <= heuristic_seed_makespan(&sys),
                "seed {seed}, budget {budget}"
            );
            assert!(stats.expansions <= budget, "seed {seed}, budget {budget}");
        }
    }
}

/// The split of an open first round keeps that round's incumbent, so it
/// never answers worse.
#[test]
fn a_tree_the_first_round_leaves_open_keeps_its_incumbent_and_repeats() {
    let _guard = serialised();
    for budget in [1_000, ROUND_BUDGET] {
        let mut open = 0usize;
        for seed in 0..SEEDS {
            let sys = system_for_seed(seed);
            let (round, round_stats) = optimal(&sys, first_round(budget));
            if !round_stats.exhausted {
                continue;
            }
            open += 1;
            let (first, stats) = parallel(&sys, 2, budget);
            first.validate(&sys).unwrap();
            assert!(
                first.makespan() <= round.makespan(),
                "seed {seed}, budget {budget}: {} is worse than the first round's {}",
                first.makespan(),
                round.makespan()
            );
            assert!(stats.tasks > 1, "seed {seed}, budget {budget}: not split");
            for run in 1..20 {
                let (again, again_stats) = parallel(&sys, 2, budget);
                assert_eq!(
                    (schedule_json(&again), again_stats),
                    (schedule_json(&first), stats),
                    "seed {seed}, budget {budget}, run {run}"
                );
            }
        }
        assert!(
            open > 0,
            "budget {budget}: the first round finished every tree"
        );
    }
}

/// The split is the paused first round, whatever the crew, so a
/// budget-exhausted search answers the same at every thread count of two
/// or more, down to its statistics.
#[test]
fn budget_exhausted_answers_do_not_depend_on_the_thread_count() {
    let _guard = serialised();
    for budget in [1_000, ROUND_BUDGET] {
        let mut exhausted = 0usize;
        for seed in 0..SEEDS {
            let sys = system_for_seed(seed);
            let (two, two_stats) = parallel(&sys, 2, budget);
            if !two_stats.exhausted {
                continue;
            }
            exhausted += 1;
            for threads in [3usize, 4] {
                let (more, stats) = parallel(&sys, threads, budget);
                let same = SearchStats {
                    threads,
                    ..two_stats
                };
                assert_eq!(
                    (schedule_json(&more), stats),
                    (schedule_json(&two), same),
                    "seed {seed}, budget {budget}, {threads} threads"
                );
            }
        }
        assert!(
            exhausted > 0,
            "budget {budget}: no search exhausted its budget"
        );
    }
}

/// A deliberately slow entrant: blocks until its token fires, recording
/// that it observed the cancellation.
#[derive(Debug)]
struct Blocker {
    started: Arc<AtomicBool>,
    observed_cancel: Arc<AtomicBool>,
}

impl Scheduler for Blocker {
    fn schedule_tuned(
        &self,
        _sys: &SystemUnderTest,
        _tuning: &SearchTuning,
        cancel: Option<&CancelToken>,
    ) -> Result<Schedule, PlanError> {
        let cancel = cancel.expect("the portfolio hands every entrant a token");
        self.started.store(true, Ordering::SeqCst);
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_secs(60) {
            if cancel.is_cancelled() {
                self.observed_cancel.store(true, Ordering::SeqCst);
                return Err(PlanError::Cancelled);
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("blocker was never cancelled");
    }
}

#[test]
fn portfolio_kills_losers_on_proof_and_never_touches_the_profile_cache() {
    let _guard = serialised();
    // Small instance: the exact entrant proves optimality fast, so the
    // race must kill the blocking loser rather than wait out its 60s.
    let sys = system_for_seed(3);
    let optimal = OptimalScheduler::new().schedule(&sys).unwrap();
    let started = Arc::new(AtomicBool::new(false));
    let observed = Arc::new(AtomicBool::new(false));
    let portfolio = PortfolioScheduler::new()
        .with_threads(2)
        .with_entrant(Arc::new(Blocker {
            started: Arc::clone(&started),
            observed_cancel: Arc::clone(&observed),
        }));
    // Scheduling never resolves processor profiles: the system is built
    // before the race starts, so losers (cancelled or not) must leave
    // the profile cache untouched.
    let before = profile_cache_stats();
    let schedule = portfolio.schedule(&sys).unwrap();
    let delta = profile_cache_stats().since(before);
    assert_eq!(delta.lookups(), 0, "the race touched the profile cache");
    schedule.validate(&sys).unwrap();
    assert_eq!(schedule.makespan(), optimal.makespan());
    assert!(started.load(Ordering::SeqCst), "blocker never started");
    assert!(
        observed.load(Ordering::SeqCst),
        "the losing entrant never observed cancellation"
    );
}

#[test]
fn cancelling_a_portfolio_job_reaches_the_losers_through_the_executor() {
    let _guard = serialised();
    // A race that cannot end on its own: eight identical cores (plus two
    // processors, ten cuts — just inside the exponential guard) give the
    // exact entrant a symmetric search space it cannot exhaust under an
    // effectively unlimited budget, and the blocker spins until told to
    // stop. The only way out is the job cancellation propagating through
    // the executor's parent token to every entrant.
    let started = Arc::new(AtomicBool::new(false));
    let observed = Arc::new(AtomicBool::new(false));
    let mut campaign = Campaign::new();
    campaign.registry_mut().register(
        "portfolio",
        Arc::new(
            PortfolioScheduler::new()
                .with_threads(2)
                .with_max_expansions(Some(u64::MAX / 2))
                .with_entrant(Arc::new(Blocker {
                    started: Arc::clone(&started),
                    observed_cancel: Arc::clone(&observed),
                })),
        ),
    );
    let executor = Executor::builder()
        .campaign(campaign)
        .threads(1)
        .expect("nonzero")
        .build();
    let mut request = PlanRequest::benchmark("hard", 4, 4)
        .with_processors("plasma", 2, 2)
        .with_scheduler("portfolio");
    request.soc = SocSource::Cores {
        name: "hard".to_owned(),
        cores: (0..8)
            .map(|i| CoreRequest {
                name: format!("c{i}"),
                bits_in: 1600,
                bits_out: 1600,
                patterns: 40,
                power: 50.0,
            })
            .collect(),
    };
    let job = executor.submit(request);
    let start = std::time::Instant::now();
    while !started.load(Ordering::SeqCst) {
        assert!(
            start.elapsed() < std::time::Duration::from_secs(60),
            "race never started (status {:?})",
            job.status()
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    job.cancel();
    assert!(matches!(job.wait(), JobResult::Cancelled));
    assert!(
        observed.load(Ordering::SeqCst),
        "job cancellation never reached the losing entrant"
    );
    executor.join();
}
