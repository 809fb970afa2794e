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
//! candidate enumeration — live in the crate-private `SearchCore` so the
//! multi-threaded search in [`crate::sched::parallel`] explores
//! byte-identical trees.
//!
//! `SearchCore` costs every (cut, interface) pairing once per search, in
//! a flat session table indexed by `slot = cut * interfaces + interface`.
//! Each slot holds the pair's reachability, whether it is a processor
//! asked to test itself, its session cycles and power, and a dense
//! bitmask of the links its path occupies (links numbered over the union
//! of all the system's paths). The table stores exactly the `u64` and
//! `f64` values [`SystemUnderTest::session_cycles`] and
//! [`SystemUnderTest::session_power`] return — copied, not recomputed —
//! and the search sums powers in one fixed order (added as sessions
//! start; subtracted, when time advances, as one sum over the finished
//! sessions in running order), so every feasibility test, expansion
//! count and schedule is bit for bit what costing each pair from the
//! system at every node gives. Two footprints share a link exactly when
//! their masks share a set bit, because the numbering is a bijection
//! between the links of the union and bit positions: mask overlap is
//! [`crate::path::LinkSet::conflicts_with`], one word-wise AND instead
//! of a B-tree walk. A running session carries its slot, never a copy
//! of its footprint. Unreachable pairs keep an empty mask and zero cost;
//! the reachability flag, tested first, keeps them out of every node.

use std::collections::BTreeMap;

use crate::cut::{CutId, CutKind};
use crate::error::PlanError;
use crate::interface::InterfaceId;
use crate::power::PowerBudget;
use crate::sched::parallel::{SearchStats, SeedKind};
use crate::sched::{
    CancelToken, Schedule, ScheduledTest, Scheduler, SearchTuning, CANCEL_POLL_PERIOD,
};
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

/// A session currently running in a partial schedule.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Active {
    pub(crate) cut: CutId,
    pub(crate) interface: InterfaceId,
    pub(crate) end: u64,
    pub(crate) power: f64,
    /// The session's row in the [`SearchCore`] table.
    pub(crate) slot: usize,
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

/// Seed incumbent shared by the serial and parallel searches: the best of
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
        // Range-check ids before `validate` (which indexes by id) so a
        // warm schedule from a differently-shaped system is rejected
        // rather than panicking.
        let in_range = warm.entries().iter().all(|e| {
            (e.cut.0 as usize) < sys.cuts().len() && e.interface.0 < sys.interfaces().len()
        });
        if in_range && warm.makespan() < bound && warm.validate(sys).is_ok() {
            return Ok((warm.clone(), warm.makespan() + 1, SeedKind::Warm));
        }
    }
    Ok((seed, bound, kind))
}

/// One (cut, interface) pairing, costed once per search.
#[derive(Debug, Clone, Copy)]
struct Session {
    /// A surviving route exists both ways ([`SystemUnderTest::reachable`]).
    reachable: bool,
    /// The interface is the processor under test itself.
    self_test: bool,
    /// [`SystemUnderTest::session_cycles`] (0 when unreachable).
    cycles: u64,
    /// [`SystemUnderTest::session_power`] (0 when unreachable).
    power: f64,
}

/// The pure, state-free search ingredients: feasibility under the paper's
/// rules, the admissible lower bound, and canonical candidate
/// enumeration, all read from a session table built once per search.
/// Shared verbatim between the recursive serial search and the
/// explicit-stack parallel shards so both explore the *same* tree in the
/// *same* order.
pub(crate) struct SearchCore<'a> {
    pub(crate) sys: &'a SystemUnderTest,
    /// Minimal session duration per cut over all usable interfaces.
    pub(crate) min_dur: Vec<u64>,
    budget: PowerBudget,
    interfaces: usize,
    /// Processor index of each interface (`None` for the external tester).
    iface_proc: Vec<Option<usize>>,
    /// The session table, indexed by [`SearchCore::slot`].
    sessions: Vec<Session>,
    /// `u64` words per link mask.
    words: usize,
    /// Link masks, `words` per slot, in slot order.
    masks: Vec<u64>,
}

impl<'a> SearchCore<'a> {
    pub(crate) fn new(sys: &'a SystemUnderTest) -> Self {
        let interfaces = sys.interfaces().len();
        let pairs = || {
            sys.cuts()
                .iter()
                .flat_map(|cut| sys.interface_ids().map(move |iface| (cut, iface)))
        };
        let mut bits = BTreeMap::new();
        for (cut, iface) in pairs() {
            for &link in sys
                .try_path(iface, cut.id)
                .into_iter()
                .flat_map(|p| p.links.iter())
            {
                let next = bits.len();
                bits.entry(link).or_insert(next);
            }
        }
        let words = bits.len().div_ceil(64);
        let iface_proc: Vec<Option<usize>> = sys
            .interfaces()
            .iter()
            .map(|i| i.processor_index())
            .collect();
        let mut sessions = Vec::with_capacity(sys.cuts().len() * interfaces);
        let mut masks = vec![0u64; sys.cuts().len() * interfaces * words];
        for (slot, (cut, iface)) in pairs().enumerate() {
            let self_test =
                iface_proc[iface.0].is_some_and(|idx| cut.kind == CutKind::Processor(idx));
            let Some(path) = sys.try_path(iface, cut.id) else {
                sessions.push(Session {
                    reachable: false,
                    self_test,
                    cycles: 0,
                    power: 0.0,
                });
                continue;
            };
            for link in path.links.iter() {
                let bit = bits[link];
                masks[slot * words + bit / 64] |= 1 << (bit % 64);
            }
            sessions.push(Session {
                reachable: true,
                self_test,
                cycles: sys.session_cycles(iface, cut.id),
                power: sys.session_power(iface, cut.id),
            });
        }
        let min_dur = sessions
            .chunks(interfaces)
            .map(|row| {
                row.iter()
                    .filter(|s| s.reachable && !s.self_test)
                    .map(|s| s.cycles)
                    .min()
                    .unwrap_or(u64::MAX)
            })
            .collect();
        SearchCore {
            sys,
            min_dur,
            budget: sys.budget(),
            interfaces,
            iface_proc,
            sessions,
            words,
            masks,
        }
    }

    pub(crate) fn proc_count(&self) -> usize {
        self.iface_proc.iter().flatten().count()
    }

    /// The table row of the (`cut`, `iface`) pairing.
    fn slot(&self, cut: CutId, iface: InterfaceId) -> usize {
        cut.0 as usize * self.interfaces + iface.0
    }

    fn mask(&self, slot: usize) -> &[u64] {
        &self.masks[slot * self.words..(slot + 1) * self.words]
    }

    /// `true` when the two slots' paths share a link — the bitmask form of
    /// [`crate::path::LinkSet::conflicts_with`].
    fn overlaps(&self, a: usize, b: usize) -> bool {
        self.mask(a)
            .iter()
            .zip(self.mask(b))
            .any(|(x, y)| x & y != 0)
    }

    fn feasible_now(
        &self,
        active: &[Active],
        active_power: f64,
        proc_ready: &[Option<u64>],
        now: u64,
        cut: CutId,
        iface: InterfaceId,
    ) -> bool {
        let slot = self.slot(cut, iface);
        let session = &self.sessions[slot];
        if !session.reachable {
            return false; // the fault set severed this pairing
        }
        if active.iter().any(|a| a.interface == iface) {
            return false;
        }
        if let Some(idx) = self.iface_proc[iface.0] {
            match proc_ready[idx] {
                Some(t) if t <= now => {}
                _ => return false,
            }
            if session.self_test {
                return false;
            }
        }
        if active.iter().any(|a| self.overlaps(a.slot, slot)) {
            return false;
        }
        self.budget.allows(active_power + session.power)
    }

    /// A makespan lower bound for the current partial schedule.
    pub(crate) fn lower_bound(&self, now: u64, active: &[Active], remaining: &[CutId]) -> u64 {
        let active_bound = active.iter().map(|a| a.end).max().unwrap_or(now);
        let longest_remaining = remaining
            .iter()
            .map(|&c| now + self.min_dur[c.0 as usize])
            .max()
            .unwrap_or(0);
        // Work bound: all remaining sessions spread perfectly over all
        // interfaces cannot finish earlier than total/interfaces.
        let total_work: u64 = remaining.iter().map(|&c| self.min_dur[c.0 as usize]).sum();
        let spread = now + total_work / self.interfaces as u64;
        active_bound.max(longest_remaining).max(spread)
    }

    /// Appends the canonical start candidates at this node to `out`:
    /// every feasible (cut, interface) pair past `min_start`, in
    /// (cut, interface) order — the one enumeration order both searches
    /// must share for byte-identical results.
    #[allow(clippy::too_many_arguments)] // mirrors the node state tuple
    pub(crate) fn candidates(
        &self,
        active: &[Active],
        active_power: f64,
        proc_ready: &[Option<u64>],
        now: u64,
        remaining: &[CutId],
        min_start: Option<(CutId, InterfaceId)>,
        out: &mut Vec<(CutId, InterfaceId)>,
    ) {
        for &cut in remaining {
            for iface in (0..self.interfaces).map(InterfaceId) {
                if min_start.is_none_or(|m| (cut, iface) > m)
                    && self.feasible_now(active, active_power, proc_ready, now, cut, iface)
                {
                    out.push((cut, iface));
                }
            }
        }
    }

    /// The running-session record for starting (`cut`, `iface`) at `now`.
    pub(crate) fn start(&self, now: u64, cut: CutId, iface: InterfaceId) -> Active {
        let slot = self.slot(cut, iface);
        let session = &self.sessions[slot];
        Active {
            cut,
            interface: iface,
            end: now + session.cycles,
            power: session.power,
            slot,
        }
    }
}

struct Search<'a> {
    core: SearchCore<'a>,
    best: u64,
    best_entries: Vec<ScheduledTest>,
    /// Nodes expanded so far vs. the (deterministic) budget.
    expansions: u64,
    max_expansions: u64,
    /// Cooperative-cancellation token, polled every
    /// [`CANCEL_POLL_PERIOD`] expansions.
    cancel: Option<&'a CancelToken>,
    /// Latched once the token fires, so the whole recursion unwinds.
    cancelled: bool,
    /// Latched when the expansion budget trips: the result is the
    /// incumbent, not a proof of optimality.
    cut: bool,
    /// Candidate lists of every node on the current DFS path, stacked:
    /// each level appends its own and truncates them on exit.
    candidates: Vec<(CutId, InterfaceId)>,
    /// Sessions retired by the time branches on the current DFS path,
    /// stacked the same way and restored on unwind.
    retired: Vec<Active>,
}

impl Search<'_> {
    #[allow(clippy::too_many_arguments)] // recursive search state
    fn dfs(
        &mut self,
        now: u64,
        active: &mut Vec<Active>,
        active_power: f64,
        proc_ready: &mut Vec<Option<u64>>,
        remaining: &mut Vec<CutId>,
        entries: &mut Vec<ScheduledTest>,
        min_start: Option<(CutId, InterfaceId)>,
    ) {
        if remaining.is_empty() {
            let makespan = entries.iter().map(|e| e.end).max().unwrap_or(0);
            if makespan < self.best {
                self.best = makespan;
                self.best_entries = entries.clone();
            }
            return;
        }
        if self.cancelled {
            return;
        }
        // Anytime cut: past the expansion budget, stop refining and keep
        // the incumbent (counted in nodes, not wall time, so the result
        // is reproducible on any machine).
        if self.expansions >= self.max_expansions {
            self.cut = true;
            return;
        }
        // Poll on the first expansion and every period after it, so even
        // a pre-cancelled token aborts before any real work.
        if self.expansions.is_multiple_of(CANCEL_POLL_PERIOD)
            && self.cancel.is_some_and(CancelToken::is_cancelled)
        {
            self.cancelled = true;
            return;
        }
        self.expansions += 1;
        if self.core.lower_bound(now, active, remaining) >= self.best {
            return;
        }

        // Branch 1: start a feasible session now (canonical order to avoid
        // exploring permutations of simultaneous starts twice).
        let base = self.candidates.len();
        self.core.candidates(
            active,
            active_power,
            proc_ready,
            now,
            remaining,
            min_start,
            &mut self.candidates,
        );
        // Deeper levels append past `listed` and truncate back to it.
        let listed = self.candidates.len();
        for i in base..listed {
            let (cut, iface) = self.candidates[i];
            let session = self.core.start(now, cut, iface);
            let (end, power) = (session.end, session.power);
            if end >= self.best {
                continue;
            }
            active.push(session);
            let pos = remaining.iter().position(|&c| c == cut).expect("waiting");
            remaining.remove(pos);
            entries.push(ScheduledTest {
                cut,
                interface: iface,
                start: now,
                end,
            });
            self.dfs(
                now,
                active,
                active_power + power,
                proc_ready,
                remaining,
                entries,
                Some((cut, iface)),
            );
            entries.pop();
            remaining.insert(pos, cut);
            // The recursive call may have reordered `active` (the time
            // branch retains and re-extends it), so remove by identity.
            let mine = active
                .iter()
                .position(|a| a.cut == cut)
                .expect("session still active on unwind");
            active.remove(mine);
        }
        self.candidates.truncate(base);

        // Branch 2: advance time to the next completion (only meaningful
        // when something is running).
        if let Some(next) = active.iter().map(|a| a.end).min() {
            let base = self.retired.len();
            self.retired.extend(active.iter().filter(|a| a.end <= next));
            active.retain(|a| a.end > next);
            let finished = &self.retired[base..];
            let freed_power: f64 = finished.iter().map(|a| a.power).sum();
            let mut ready_updates = Vec::new();
            for a in finished {
                if let CutKind::Processor(idx) = self.core.sys.cut(a.cut).kind {
                    ready_updates.push((idx, proc_ready[idx]));
                    proc_ready[idx] = Some(a.end);
                }
            }
            self.dfs(
                next,
                active,
                active_power - freed_power,
                proc_ready,
                remaining,
                entries,
                None,
            );
            for (idx, old) in ready_updates {
                proc_ready[idx] = old;
            }
            active.extend(self.retired.drain(base..));
        }
    }
}

impl OptimalScheduler {
    /// The search proper; `cancel` aborts it between node expansions.
    fn search(
        &self,
        sys: &SystemUnderTest,
        tuning: &SearchTuning,
        cancel: Option<&CancelToken>,
    ) -> Result<Schedule, PlanError> {
        self.schedule_with_stats(sys, tuning, cancel)
            .map(|(s, _)| s)
    }

    /// Runs the search and reports how it ended: how many nodes were
    /// expanded, which incumbent seeded it, and whether the budget cut it
    /// short. The stats let callers (the portfolio racer, `search_bench`,
    /// the delta bench) distinguish a *proved* optimum from a
    /// budget-limited incumbent and attribute warm-start speedups.
    pub fn schedule_with_stats(
        &self,
        sys: &SystemUnderTest,
        tuning: &SearchTuning,
        cancel: Option<&CancelToken>,
    ) -> Result<(Schedule, SearchStats), PlanError> {
        check_guards(sys, self.max_cores)?;
        // Seed the incumbent with the better heuristic — correct upper
        // bound and strong pruning from the start — tightened further by
        // a valid warm-start schedule when one is supplied.
        let (seed, bound, seed_kind) = opening_incumbent(sys, tuning)?;
        let core = SearchCore::new(sys);
        let proc_count = core.proc_count();
        let mut search = Search {
            core,
            best: bound,
            best_entries: seed.entries().to_vec(),
            expansions: 0,
            max_expansions: self.max_expansions.unwrap_or(u64::MAX),
            cancel,
            cancelled: false,
            cut: false,
            candidates: Vec::new(),
            retired: Vec::new(),
        };
        let mut remaining: Vec<CutId> = sys.cuts().iter().map(|c| c.id).collect();
        search.dfs(
            0,
            &mut Vec::new(),
            0.0,
            &mut vec![None; proc_count],
            &mut remaining,
            &mut Vec::new(),
            None,
        );
        if search.cancelled {
            // A cancelled search reports Cancelled rather than its
            // incumbent: the caller asked for the job to stop, and a
            // half-refined "best so far" would be indistinguishable from
            // a completed budgeted search.
            return Err(PlanError::Cancelled);
        }
        let stats = SearchStats {
            expansions: search.expansions,
            exhausted: search.cut,
            threads: 1,
            tasks: 0,
            seed: seed_kind,
        };
        Ok((Schedule::new(search.best_entries), stats))
    }
}

impl Scheduler for OptimalScheduler {
    fn name(&self) -> &'static str {
        "optimal"
    }

    fn schedule(&self, sys: &SystemUnderTest) -> Result<Schedule, PlanError> {
        self.search(sys, &SearchTuning::default(), None)
    }

    fn schedule_cancellable(
        &self,
        sys: &SystemUnderTest,
        cancel: &CancelToken,
    ) -> Result<Schedule, PlanError> {
        self.search(sys, &SearchTuning::default(), Some(cancel))
    }

    fn schedule_tuned(
        &self,
        sys: &SystemUnderTest,
        tuning: &SearchTuning,
        cancel: Option<&CancelToken>,
    ) -> Result<Schedule, PlanError> {
        self.search(sys, tuning, cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::LinkSet;
    use crate::sched::{GreedyScheduler, ParallelOptimalScheduler, SmartScheduler};
    use crate::system::{BudgetSpec, SystemBuilder};
    use noctest_cpu::ProcessorProfile;
    use noctest_faults::FaultRecipe;
    use noctest_noc::Mesh;
    use noctest_testkit::Rng;

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

    /// A seeded small system, pristine or degraded by uniform link
    /// faults; `None` when the fault set leaves some core untestable.
    fn seeded_system(seed: u64) -> Option<SystemUnderTest> {
        let mut rng = Rng::new(seed);
        let (width, height) = *rng.pick(&[(3u16, 3u16), (4, 4), (7, 6), (8, 8)]);
        let mut b = SystemBuilder::new("seeded", width, height);
        for i in 0..rng.range_usize(2, 6) {
            b = b.core(
                format!("c{i}"),
                rng.range_u32(20, 400),
                rng.range_u32(20, 400),
                rng.range_u32(1, 40),
                rng.range_f64(10.0, 200.0),
            );
        }
        let procs = rng.range_usize(0, 3);
        b = b.processors(&ProcessorProfile::plasma(), procs, procs);
        if rng.flip() {
            b = b.budget(BudgetSpec::Fraction(rng.range_f64(0.3, 1.0)));
        }
        let percent = *rng.pick(&[0u8, 20, 35]);
        let mesh = Mesh::new(width, height).unwrap();
        b.faults(FaultRecipe::UniformLinks { percent }.generate(&mesh, seed))
            .build()
            .ok()
    }

    #[test]
    fn session_table_is_the_system_bit_for_bit() {
        let (mut systems, mut severed, mut multi_word) = (0, 0, 0);
        for seed in noctest_testkit::seeds(48) {
            let Some(sys) = seeded_system(seed) else {
                continue;
            };
            systems += 1;
            let core = SearchCore::new(&sys);
            if core.words > 1 {
                multi_word += 1;
            }
            let pairs: Vec<(CutId, InterfaceId)> = sys
                .cuts()
                .iter()
                .flat_map(|c| sys.interface_ids().map(move |i| (c.id, i)))
                .collect();
            let links = |(cut, iface): (CutId, InterfaceId)| {
                sys.try_path(iface, cut)
                    .map_or_else(LinkSet::new, |p| p.links.clone())
            };
            for &(cut, iface) in &pairs {
                let session = core.sessions[core.slot(cut, iface)];
                assert_eq!(session.reachable, sys.reachable(iface, cut), "seed {seed}");
                if !session.reachable {
                    severed += 1;
                    continue;
                }
                assert_eq!(
                    session.cycles,
                    sys.session_cycles(iface, cut),
                    "seed {seed}"
                );
                assert_eq!(
                    session.power.to_bits(),
                    sys.session_power(iface, cut).to_bits(),
                    "seed {seed}"
                );
                let self_test = sys
                    .interface(iface)
                    .processor_index()
                    .is_some_and(|idx| sys.cut(cut).kind == CutKind::Processor(idx));
                assert_eq!(session.self_test, self_test, "seed {seed}");
            }
            for &a in &pairs {
                for &b in &pairs {
                    assert_eq!(
                        core.overlaps(core.slot(a.0, a.1), core.slot(b.0, b.1)),
                        links(a).conflicts_with(&links(b)),
                        "seed {seed}: {a:?} vs {b:?}"
                    );
                }
            }
        }
        assert!(systems >= 24, "only {systems} seeded systems built");
        assert!(severed > 0, "no seeded system had an unreachable pair");
        assert!(multi_word > 0, "no seeded system needed a multi-word mask");
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

    fn serial_pin(sys: &SystemUnderTest, budget: Option<u64>) -> Pin {
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
            serial_pin(&small_system(5, 2), None),
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
            serial_pin(&budgeted, None),
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
            serial_pin(&degraded, None),
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
        // A budget-exhausted search, serial and at two threads (finite
        // budgets make the parallel tree deterministic too).
        let large = small_system(6, 2);
        assert_eq!(
            serial_pin(&large, Some(20_000)),
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
        let parallel = ParallelOptimalScheduler::new()
            .with_threads(2)
            .with_max_expansions(Some(20_000))
            .schedule_with_stats(&large, &SearchTuning::default(), None)
            .unwrap();
        assert_eq!(parallel.1.tasks, 70);
        assert_eq!(
            pin_of(parallel),
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
                ]
            )
        );
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

    #[test]
    fn cancellation_aborts_the_search_and_an_idle_token_changes_nothing() {
        let sys = small_system(5, 2);
        let token = CancelToken::new();
        // An un-cancelled token is invisible: identical schedule.
        let plain = OptimalScheduler::new().schedule(&sys).unwrap();
        let observed = OptimalScheduler::new()
            .schedule_cancellable(&sys, &token)
            .unwrap();
        assert_eq!(plain.entries(), observed.entries());
        // A tripped token aborts with Cancelled, not a half-refined plan.
        token.cancel();
        let err = OptimalScheduler::new()
            .schedule_cancellable(&sys, &token)
            .unwrap_err();
        assert!(matches!(err, PlanError::Cancelled));
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
