//! Exact (branch-and-bound) test scheduling for small systems.
//!
//! The paper's greedy heuristic is fast but — as its own p22810 results
//! show — not optimal. For systems small enough to enumerate, this module
//! finds the *provably minimal* makespan under exactly the same rules the
//! heuristics play by (interface exclusivity, link-disjoint paths, power
//! budget, processor-before-reuse precedence). The `ablations` binary uses
//! it to measure the greedy/smart optimality gap; tests use it as ground
//! truth on randomly generated small systems.
//!
//! The search branches, at every event instant, on which feasible
//! (core, interface) session to start next (in canonical order, so
//! permutations of simultaneous starts are explored once) or on advancing
//! time to the next completion. Pruning: a lower bound combining the
//! longest remaining single session and per-interface remaining work
//! against the incumbent.
//!
//! The pure search ingredients — feasibility, the lower bound, canonical
//! candidate enumeration — live in the crate-private `SearchCore`. The
//! search that drives them is the explicit-stack engine of
//! [`crate::sched::parallel`]: `optimal` runs it on the caller's thread
//! as one task over the unsplit root. `optimal-par` runs that same
//! search for its first budget round, and only when the round leaves
//! the tree open splits its paused stack over worker threads; both
//! explore the same tree.
//!
//! `SearchCore` reads the system's session table
//! ([`crate::system`]), built once when the system is built and shared
//! with every search, heuristic and check that plans on it. Each slot,
//! `cut × interfaces + interface`, holds the pair's reachability, its
//! session cycles and power (the values [`SystemUnderTest::session_cycles`]
//! and [`SystemUnderTest::session_power`] return) and a bitmask of the
//! links its path occupies, on which
//! [`SystemUnderTest::footprints_overlap`] is one word-wise AND.
//! `SearchCore` adds only what the search alone needs: each cut's
//! shortest usable session, for the lower bound. Its start rule is the
//! heuristics' own, `Running::feasible_now`. The search sums powers in
//! one fixed order (added as sessions start; subtracted, when time
//! advances, as one sum over the finished sessions in running order), so
//! every feasibility test, expansion count and schedule is a pure
//! function of the table. A running session carries its slot, never a
//! copy of its footprint; a severed pair fails the reachability test
//! before anything else is read.

use crate::cut::{CutId, CutKind};
use crate::error::PlanError;
use crate::interface::InterfaceId;
use crate::sched::engine::Running;
use crate::sched::parallel::{branch_and_bound, SearchStats, SeedKind};
use crate::sched::{CancelToken, Schedule, Scheduler, SearchTuning};
use crate::system::SystemUnderTest;

/// Exact scheduler with a size guard (exponential search).
///
/// The search is *anytime*: it starts from the heuristic incumbent and only
/// improves it, so a node-expansion budget ([`max_expansions`]) bounds the
/// worst case deterministically — generated corpora contain instances
/// whose exact search runs for hours, and an expansion count (unlike a
/// wall-clock timeout) cuts them reproducibly. Within budget the result
/// is provably minimal; when the budget trips, it is the best schedule
/// found so far (always valid, never worse than the heuristics).
///
/// [`max_expansions`]: OptimalScheduler::max_expansions
#[derive(Debug, Clone, Copy)]
pub struct OptimalScheduler {
    /// Refuse systems with more cores than this (default 10).
    pub max_cores: usize,
    /// Node-expansion budget; `None` searches exhaustively (default two
    /// million nodes, a few seconds of search).
    pub max_expansions: Option<u64>,
}

impl Default for OptimalScheduler {
    fn default() -> Self {
        OptimalScheduler {
            max_cores: 10,
            max_expansions: Some(2_000_000),
        }
    }
}

impl OptimalScheduler {
    /// Creates the scheduler with the default size guard and expansion
    /// budget.
    #[must_use]
    pub fn new() -> Self {
        OptimalScheduler::default()
    }

    /// Replaces the node-expansion budget (`None` = exhaustive).
    #[must_use]
    pub fn with_max_expansions(mut self, max_expansions: Option<u64>) -> Self {
        self.max_expansions = max_expansions;
        self
    }
}

/// Rejects systems the exponential search must not attempt.
pub(crate) fn check_guards(sys: &SystemUnderTest, max_cores: usize) -> Result<(), PlanError> {
    if sys.interfaces().is_empty() {
        return Err(PlanError::NoInterfaces);
    }
    if sys.cuts().len() > max_cores {
        return Err(PlanError::InvalidSchedule(format!(
            "optimal scheduler is exponential; {} cores exceed the {}-core guard",
            sys.cuts().len(),
            max_cores
        )));
    }
    Ok(())
}

/// Seed incumbent of the search at every thread count: the best of
/// the greedy *and* smart heuristics (greedy wins ties, preserving the
/// historical seed wherever the two agree), tagged with its provenance.
/// Starting from the better of the two means no search — and no parallel
/// shard — ever opens with a worse bound than the cheap heuristics can
/// provide.
pub(crate) fn seed_schedule(sys: &SystemUnderTest) -> Result<(Schedule, SeedKind), PlanError> {
    let greedy = crate::sched::GreedyScheduler.schedule(sys)?;
    let smart = crate::sched::SmartScheduler.schedule(sys)?;
    Ok(if smart.makespan() < greedy.makespan() {
        (smart, SeedKind::Smart)
    } else {
        (greedy, SeedKind::Greedy)
    })
}

/// The opening incumbent of a search: the heuristic seed, possibly
/// tightened by a warm-start schedule from [`SearchTuning::warm`].
///
/// A valid warm schedule of makespan `W` proves `W ≥ optimum`, so opening
/// with entries = warm and bound = `W + 1` (note the `+ 1`) prunes harder
/// than the heuristic seed whenever `W` beats it — while still letting
/// the search reach and record the *same* first-in-DFS-order optimum a
/// cold run finds: every prefix of an optimum-achieving path has lower
/// bound ≤ optimum < `W + 1`, so no such prefix is ever pruned, and the
/// strict-improvement recording rule makes the final incumbent the
/// DFS-first achiever under either opening bound. An invalid warm
/// schedule (the system changed too much) is silently ignored.
pub(crate) fn opening_incumbent(
    sys: &SystemUnderTest,
    tuning: &SearchTuning,
) -> Result<(Schedule, u64, SeedKind), PlanError> {
    let (seed, kind) = seed_schedule(sys)?;
    let bound = seed.makespan();
    if let Some(warm) = tuning.warm.as_ref() {
        if warm.makespan() < bound && warm.validate(sys).is_ok() {
            return Ok((warm.clone(), warm.makespan() + 1, SeedKind::Warm));
        }
    }
    Ok((seed, bound, kind))
}

/// The pure, state-free search ingredients: the admissible lower bound
/// and canonical candidate enumeration under the shared start rule, all
/// read from the system's session table. Every task of the
/// explicit-stack search reads it, at any thread count, so all explore
/// the *same* tree in the *same* order.
pub(crate) struct SearchCore<'a> {
    pub(crate) sys: &'a SystemUnderTest,
    /// Minimal session duration per cut over all usable interfaces.
    min_dur: Vec<u64>,
}

impl<'a> SearchCore<'a> {
    pub(crate) fn new(sys: &'a SystemUnderTest) -> Self {
        let min_dur = sys
            .cuts()
            .iter()
            .map(|cut| {
                sys.interface_ids()
                    .filter(|&iface| {
                        !sys.interface(iface)
                            .processor_index()
                            .is_some_and(|idx| cut.kind == CutKind::Processor(idx))
                    })
                    .filter_map(|iface| {
                        let session = sys.session(sys.slot(iface, cut.id));
                        session.path.as_ref().map(|_| session.cycles)
                    })
                    .min()
                    .unwrap_or(u64::MAX)
            })
            .collect();
        SearchCore { sys, min_dur }
    }

    /// A makespan lower bound for the current partial schedule.
    pub(crate) fn lower_bound(&self, running: &Running, remaining: &[CutId]) -> u64 {
        let now = running.now;
        let active_bound = running.active.iter().map(|a| a.end).max().unwrap_or(now);
        let longest_remaining = remaining
            .iter()
            .map(|&c| now + self.min_dur[c.0 as usize])
            .max()
            .unwrap_or(0);
        // Work bound: all remaining sessions spread perfectly over all
        // interfaces cannot finish earlier than total/interfaces.
        let total_work: u64 = remaining.iter().map(|&c| self.min_dur[c.0 as usize]).sum();
        let spread = now + total_work / self.sys.interfaces().len() as u64;
        active_bound.max(longest_remaining).max(spread)
    }

    /// Appends the canonical start candidates at this node to `out`:
    /// every feasible (cut, interface) pair past `min_start`, in
    /// (cut, interface) order — the one enumeration order that keeps
    /// results byte-identical across thread counts.
    pub(crate) fn candidates(
        &self,
        running: &Running,
        remaining: &[CutId],
        min_start: Option<(CutId, InterfaceId)>,
        out: &mut Vec<(CutId, InterfaceId)>,
    ) {
        for &cut in remaining {
            for iface in self.sys.interface_ids() {
                if min_start.is_none_or(|m| (cut, iface) > m)
                    && running.feasible_now(self.sys, iface, cut)
                {
                    out.push((cut, iface));
                }
            }
        }
    }
}

impl OptimalScheduler {
    /// Runs the search and reports how it ended: how many nodes were
    /// expanded, which incumbent seeded it, and whether the budget cut it
    /// short. The stats let callers (the portfolio racer, `search_bench`,
    /// the delta bench) distinguish a *proved* optimum from a
    /// budget-limited incumbent and attribute warm-start speedups.
    ///
    /// The search runs on the caller's thread as one task over the
    /// unsplit root; [`SearchTuning::threads`] is ignored.
    pub fn schedule_with_stats(
        &self,
        sys: &SystemUnderTest,
        tuning: &SearchTuning,
        cancel: Option<&CancelToken>,
    ) -> Result<(Schedule, SearchStats), PlanError> {
        branch_and_bound(sys, self.max_cores, self.max_expansions, 1, tuning, cancel)
    }
}

impl Scheduler for OptimalScheduler {
    fn schedule_tuned(
        &self,
        sys: &SystemUnderTest,
        tuning: &SearchTuning,
        cancel: Option<&CancelToken>,
    ) -> Result<Schedule, PlanError> {
        self.schedule_with_stats(sys, tuning, cancel)
            .map(|(s, _)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{GreedyScheduler, ParallelOptimalScheduler, SmartScheduler};
    use crate::system::{BudgetSpec, SystemBuilder};
    use noctest_cpu::ProcessorProfile;
    use noctest_faults::FaultRecipe;
    use noctest_noc::Mesh;

    fn small_system(cores: usize, procs: usize) -> SystemUnderTest {
        small_builder(cores, procs).build().unwrap()
    }

    fn small_builder(cores: usize, procs: usize) -> SystemBuilder {
        let mut b = SystemBuilder::new("small", 3, 3);
        for i in 0..cores {
            b = b.core(
                format!("c{i}"),
                100 + 90 * i as u32,
                80 + 70 * i as u32,
                10 + 7 * i as u32,
                50.0 + 10.0 * i as f64,
            );
        }
        b.processors(
            &ProcessorProfile::plasma().calibrated().unwrap(),
            procs,
            procs,
        )
    }

    type Pin = (u64, bool, Vec<(u32, usize, u64, u64)>);

    fn pin_of((schedule, stats): (Schedule, SearchStats)) -> Pin {
        let entries = schedule
            .entries()
            .iter()
            .map(|e| (e.cut.0, e.interface.0, e.start, e.end))
            .collect();
        (stats.expansions, stats.exhausted, entries)
    }

    fn optimal_pin(sys: &SystemUnderTest, budget: Option<u64>) -> Pin {
        pin_of(
            OptimalScheduler::new()
                .with_max_expansions(budget)
                .schedule_with_stats(sys, &SearchTuning::default(), None)
                .unwrap(),
        )
    }

    /// The exact trees of fixed systems: a kernel change that alters
    /// which nodes are expanded, or in what order, fails here.
    #[test]
    fn search_trees_are_pinned() {
        assert_eq!(
            optimal_pin(&small_system(5, 2), None),
            (
                8977,
                false,
                vec![
                    (0, 0, 0, 4848),
                    (1, 0, 4848, 9696),
                    (3, 1, 4848, 7354),
                    (5, 1, 7354, 15469),
                    (2, 2, 9696, 10784),
                    (4, 2, 10784, 15536),
                    (6, 0, 10784, 15696),
                ]
            )
        );
        let budgeted = small_builder(4, 2)
            .budget(BudgetSpec::Fraction(0.5))
            .build()
            .unwrap();
        assert_eq!(
            optimal_pin(&budgeted, None),
            (
                6573,
                false,
                vec![
                    (0, 0, 0, 4848),
                    (1, 0, 4848, 9696),
                    (2, 0, 9696, 10224),
                    (3, 0, 10224, 11428),
                    (4, 0, 11428, 13588),
                    (5, 0, 13588, 17046),
                ]
            )
        );
        // Eleven severed pairs: the reachability test shapes this tree.
        let faults =
            FaultRecipe::UniformLinks { percent: 30 }.generate(&Mesh::new(3, 3).unwrap(), 10);
        let degraded = small_builder(5, 2).faults(faults).build().unwrap();
        assert_eq!(
            optimal_pin(&degraded, None),
            (
                9798,
                false,
                vec![
                    (0, 0, 0, 4848),
                    (1, 0, 4848, 9696),
                    (2, 0, 9696, 10224),
                    (5, 2, 9696, 17811),
                    (3, 0, 10224, 11428),
                    (4, 0, 11428, 13588),
                    (6, 0, 13588, 18500),
                ]
            )
        );
        // A budget-exhausted search, at one and at two threads (finite
        // budgets make the two-thread tree deterministic too). At two
        // threads the unsplit first round (2,500 expansions) leaves the
        // tree open at 21,600, below the heuristic seed's 22,688, and
        // its open stack splits into 33 pieces beside the paused root.
        let large = small_system(6, 2);
        assert_eq!(
            optimal_pin(&large, Some(20_000)),
            (
                20_000,
                true,
                vec![
                    (0, 0, 0, 4848),
                    (1, 0, 4848, 9696),
                    (3, 1, 4848, 7354),
                    (5, 1, 7354, 15469),
                    (4, 0, 9696, 11856),
                    (6, 2, 9696, 21600),
                    (7, 0, 11856, 18564),
                    (2, 0, 18564, 19092),
                ]
            )
        );
        let parallel = exhausted_parallel_run(&large, 2);
        assert_eq!(parallel.1.tasks, 34);
        assert_eq!(pin_of(parallel), exhausted_parallel_pin());
    }

    /// `optimal-par` at `threads` under the 20,000-expansion budget of
    /// the pinned exhausted search.
    fn exhausted_parallel_run(sys: &SystemUnderTest, threads: usize) -> (Schedule, SearchStats) {
        ParallelOptimalScheduler::new()
            .with_threads(threads)
            .with_max_expansions(Some(20_000))
            .schedule_with_stats(sys, &SearchTuning::default(), None)
            .unwrap()
    }

    fn exhausted_parallel_pin() -> Pin {
        (
            20_000,
            true,
            vec![
                (1, 0, 0, 4848),
                (0, 0, 4848, 9696),
                (3, 2, 4848, 7354),
                (6, 2, 7354, 19258),
                (2, 0, 9696, 10224),
                (4, 0, 10224, 12384),
                (5, 1, 10224, 18339),
                (7, 0, 12384, 19092),
            ],
        )
    }

    /// Many round handoffs between the caller and its helpers, also at
    /// more threads than the machine may have cores. At 2, 3 and 8
    /// threads the split yields the same 34 tasks, so every run must
    /// reproduce the one pinned tree (taken at each count from the
    /// per-round-spawn code this crew replaced).
    #[test]
    fn exhausted_parallel_trees_repeat_under_handoff_stress() {
        let large = small_system(6, 2);
        for threads in [2, 3, 8] {
            for run in 0..50 {
                let (schedule, stats) = exhausted_parallel_run(&large, threads);
                assert_eq!(stats.tasks, 34, "{threads} threads, run {run}");
                let pin = pin_of((schedule, stats));
                assert_eq!(
                    pin,
                    exhausted_parallel_pin(),
                    "{threads} threads, run {run}"
                );
            }
        }
    }

    /// A budgeted one-thread search by `optimal`, or by `optimal-par`
    /// at one thread.
    fn one_thread_run(par: bool, sys: &SystemUnderTest, budget: u64) -> (Schedule, SearchStats) {
        let tuning = SearchTuning::default();
        if par {
            ParallelOptimalScheduler::new()
                .with_threads(1)
                .with_max_expansions(Some(budget))
                .schedule_with_stats(sys, &tuning, None)
        } else {
            OptimalScheduler::new()
                .with_max_expansions(Some(budget))
                .schedule_with_stats(sys, &tuning, None)
        }
        .unwrap()
    }

    /// The budget rule at its edges: a node is refused only when it is
    /// entered, is not a leaf, and the budget is spent. Leaf children of
    /// the last expanded node are still recorded, and a tree that ends on
    /// exactly its budget is proved.
    #[test]
    fn budget_is_charged_on_entry() {
        for par in [false, true] {
            let (schedule, stats) = one_thread_run(par, &small_system(3, 1), 64);
            assert_eq!((stats.expansions, stats.exhausted), (64, false));
            assert_eq!(schedule.makespan(), 7882);
            assert_eq!((stats.threads, stats.tasks), (1, 1));
            let (schedule, stats) = one_thread_run(par, &small_system(4, 1), 24);
            assert_eq!((stats.expansions, stats.exhausted), (24, true));
            assert_eq!(schedule.makespan(), 12198);
            let (schedule, stats) = one_thread_run(par, &small_system(4, 2), 10);
            assert_eq!((stats.expansions, stats.exhausted), (10, true));
            assert_eq!(schedule.makespan(), 14496);
        }
    }

    /// Every budgeted one-thread search of five small systems over a
    /// sweep of budgets, digested: entries, expansions and the exhausted
    /// flag. The constant was taken from a recursive depth-first search
    /// with the same budget rule; it is the oracle for where a budget
    /// cuts the tree.
    #[test]
    fn budget_sweep_matches_the_recursive_search() {
        let budgets = (0..=96)
            .chain((128..=2048).step_by(64))
            .chain([392, 393, 394, 1916, 1917, 1918, 8976, 8977, 8978]);
        let budgets: Vec<u64> = budgets.collect();
        for par in [false, true] {
            let mut bytes = Vec::new();
            for (cores, procs) in [(3, 1), (4, 1), (4, 2), (5, 2), (6, 2)] {
                let sys = small_system(cores, procs);
                for &budget in &budgets {
                    let (schedule, stats) = one_thread_run(par, &sys, budget);
                    for e in schedule.entries() {
                        bytes.extend(e.cut.0.to_le_bytes());
                        bytes.extend((e.interface.0 as u64).to_le_bytes());
                        bytes.extend(e.start.to_le_bytes());
                        bytes.extend(e.end.to_le_bytes());
                    }
                    bytes.extend(stats.expansions.to_le_bytes());
                    bytes.push(u8::from(stats.exhausted));
                }
            }
            assert_eq!(crate::hashing::fnv1a(&bytes), 0x4773_dcd1_bb5a_333b);
        }
    }

    #[test]
    fn optimal_schedule_is_valid_and_never_worse_than_heuristics() {
        for (cores, procs) in [(3usize, 1usize), (4, 2), (5, 2)] {
            let sys = small_system(cores, procs);
            let optimal = OptimalScheduler::new().schedule(&sys).unwrap();
            optimal.validate(&sys).unwrap();
            let greedy = GreedyScheduler.schedule(&sys).unwrap();
            let smart = SmartScheduler.schedule(&sys).unwrap();
            assert!(optimal.makespan() <= greedy.makespan());
            assert!(optimal.makespan() <= smart.makespan());
        }
    }

    #[test]
    fn optimal_matches_serial_when_only_external_exists() {
        let sys = small_system(4, 0);
        let optimal = OptimalScheduler::new().schedule(&sys).unwrap();
        // One interface: any order gives the same serial sum.
        assert_eq!(optimal.makespan(), sys.serial_external_cycles());
    }

    #[test]
    fn seed_is_the_better_heuristic() {
        // The incumbent can never open worse than *either* heuristic.
        for (cores, procs) in [(3usize, 1usize), (5, 2), (6, 2)] {
            let sys = small_system(cores, procs);
            let (seed, kind) = seed_schedule(&sys).unwrap();
            let greedy = GreedyScheduler.schedule(&sys).unwrap();
            let smart = SmartScheduler.schedule(&sys).unwrap();
            assert_eq!(
                seed.makespan(),
                greedy.makespan().min(smart.makespan()),
                "{cores} cores / {procs} procs"
            );
            // Ties keep the greedy entries (historical behaviour), and
            // the provenance tag matches the winner.
            if greedy.makespan() <= smart.makespan() {
                assert_eq!(seed.entries(), greedy.entries());
                assert_eq!(kind, SeedKind::Greedy);
            } else {
                assert_eq!(kind, SeedKind::Smart);
            }
        }
    }

    #[test]
    fn expansion_budget_is_anytime_and_deterministic() {
        let sys = small_system(5, 2);
        let exact = OptimalScheduler::new()
            .with_max_expansions(None)
            .schedule(&sys)
            .unwrap();
        let greedy = GreedyScheduler.schedule(&sys).unwrap();
        // A starved search still returns a valid schedule no worse than
        // its heuristic incumbent...
        let starved = OptimalScheduler::new().with_max_expansions(Some(1));
        let a = starved.schedule(&sys).unwrap();
        a.validate(&sys).unwrap();
        assert!(a.makespan() <= greedy.makespan());
        assert!(a.makespan() >= exact.makespan());
        // ...and the cut is reproducible: same budget, same schedule.
        let b = starved.schedule(&sys).unwrap();
        assert_eq!(a.entries(), b.entries());
        // The default budget is generous enough for genuinely small
        // systems to finish exactly.
        let defaulted = OptimalScheduler::new().schedule(&sys).unwrap();
        assert_eq!(defaulted.makespan(), exact.makespan());
    }

    #[test]
    fn stats_report_exhaustion_and_proof() {
        let sys = small_system(5, 2);
        let (_, starved) = OptimalScheduler::new()
            .with_max_expansions(Some(1))
            .schedule_with_stats(&sys, &SearchTuning::default(), None)
            .unwrap();
        assert!(starved.exhausted);
        assert!(!starved.proved_optimal());
        assert_eq!(starved.expansions, 1);
        let (_, full) = OptimalScheduler::new()
            .schedule_with_stats(&sys, &SearchTuning::default(), None)
            .unwrap();
        assert!(full.proved_optimal());
        assert!(full.expansions > 1);
    }

    #[test]
    fn optimal_finds_known_parallel_packing() {
        // With enough equal cores queued on the external tester, diverting
        // one to the (slower) processor strictly beats pure serial: the
        // optimum must be parallel and beat the serial bound.
        let mut b = SystemBuilder::new("packing", 3, 3);
        for i in 0..5 {
            b = b.core(format!("c{i}"), 1600, 1600, 40, 50.0);
        }
        let sys = b
            .processors(&ProcessorProfile::plasma().calibrated().unwrap(), 1, 1)
            .build()
            .unwrap();
        let optimal = OptimalScheduler::new().schedule(&sys).unwrap();
        optimal.validate(&sys).unwrap();
        assert!(optimal.peak_concurrency() >= 2);
        assert!(optimal.makespan() < sys.serial_external_cycles());
    }

    /// The calling contract of every registered scheduler: an idle token
    /// under default tuning changes nothing, and a tripped one aborts the
    /// searches with `Cancelled`, not a half-refined plan, while the
    /// heuristics ignore it.
    #[test]
    fn cancellation_aborts_the_search_and_an_idle_token_changes_nothing() {
        let sys = small_system(5, 2);
        let registry = crate::plan::SchedulerRegistry::with_defaults();
        let tuning = SearchTuning::default();
        for name in registry.names() {
            let scheduler = registry.get(&name).unwrap();
            let plain = scheduler.schedule(&sys).unwrap();
            let token = CancelToken::new();
            let observed = scheduler.schedule_tuned(&sys, &tuning, Some(&token));
            assert_eq!(observed.unwrap().entries(), plain.entries(), "{name}");
            token.cancel();
            let tripped = scheduler.schedule_tuned(&sys, &tuning, Some(&token));
            if ["optimal", "optimal-par", "portfolio"].contains(&name.as_str()) {
                assert!(matches!(tripped, Err(PlanError::Cancelled)), "{name}");
            } else {
                assert_eq!(tripped.unwrap().entries(), plain.entries(), "{name}");
            }
        }
    }

    #[test]
    fn warm_start_is_byte_identical_to_cold_and_prunes_harder() {
        let sys = small_system(5, 2);
        let scheduler = OptimalScheduler::new().with_max_expansions(None);
        let (cold, cold_stats) = scheduler
            .schedule_with_stats(&sys, &SearchTuning::default(), None)
            .unwrap();
        // Warm-start with the optimum itself: the strongest possible
        // incumbent must reproduce the cold result byte-identically.
        let tuning = SearchTuning::default().warm_start(cold.clone());
        let (warm, warm_stats) = scheduler.schedule_with_stats(&sys, &tuning, None).unwrap();
        assert_eq!(warm.entries(), cold.entries());
        assert!(warm_stats.expansions <= cold_stats.expansions);
        let (heuristic_seed, _) = seed_schedule(&sys).unwrap();
        if cold.makespan() < heuristic_seed.makespan() {
            // The warm incumbent actually engaged: provenance says so.
            // (The opening bound `optimum + 1` can coincide with the
            // heuristic bound when the seed is one cycle off optimal, so
            // only the non-strict expansion comparison above is
            // guaranteed.)
            assert_eq!(warm_stats.seed, SeedKind::Warm);
        }
        // A warm schedule from a *different* system is invalid here and
        // must be ignored entirely.
        let foreign = OptimalScheduler::new()
            .schedule(&small_system(4, 2))
            .unwrap();
        let (ignored, ignored_stats) = scheduler
            .schedule_with_stats(&sys, &SearchTuning::default().warm_start(foreign), None)
            .unwrap();
        assert_eq!(ignored.entries(), cold.entries());
        assert_eq!(ignored_stats.expansions, cold_stats.expansions);
        assert_ne!(ignored_stats.seed, SeedKind::Warm);
    }

    #[test]
    fn size_guard_rejects_large_systems() {
        let sys = small_system(7, 4); // 11 cuts > 10
        let err = OptimalScheduler::new().schedule(&sys).unwrap_err();
        assert!(matches!(err, PlanError::InvalidSchedule(_)));
    }
}
