//! Test schedules: the planner's output, with full validation.

pub(crate) mod engine;
pub mod greedy;
pub mod optimal;
pub mod parallel;
pub mod serial;
pub mod smart;

pub use greedy::GreedyScheduler;
pub use optimal::OptimalScheduler;
pub use parallel::{ParallelOptimalScheduler, PortfolioScheduler, SearchStats, SeedKind};
pub use serial::SerialScheduler;
pub use smart::SmartScheduler;

/// How many node expansions pass between cooperative-cancellation polls
/// in each task of the branch-and-bound behind [`OptimalScheduler`] and
/// [`ParallelOptimalScheduler`], so a tripped [`CancelToken`] is seen on
/// the same cadence at every thread count.
///
/// The value trades cancellation latency against search throughput: a
/// node expansion costs on the order of a microsecond, so polling every
/// 1024 expansions bounds the reaction time to a tripped token at
/// roughly a millisecond while keeping the poll itself (an atomic load)
/// amortised to under 0.1% of search time. Lowering it tightens the
/// kill latency of the portfolio racer and the executor's job
/// cancellation; raising it shaves contention when many shards poll the
/// same token, at the price of cancelled searches running longer before
/// they notice.
pub const CANCEL_POLL_PERIOD: u64 = 1024;

use std::collections::HashMap;

use crate::cut::{CutId, CutKind};
use crate::error::PlanError;
use crate::interface::InterfaceId;
use crate::system::SystemUnderTest;

/// One scheduled test session (half-open interval `[start, end)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledTest {
    /// The core under test.
    pub cut: CutId,
    /// The interface driving the session.
    pub interface: InterfaceId,
    /// Start cycle.
    pub start: u64,
    /// End cycle (exclusive).
    pub end: u64,
}

impl ScheduledTest {
    /// Session length in cycles.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    /// `true` if the two sessions overlap in time.
    #[must_use]
    pub fn overlaps(&self, other: &ScheduledTest) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// A complete test schedule for a system.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    entries: Vec<ScheduledTest>,
}

impl Schedule {
    /// Builds a schedule from entries (sorted by start time on insert).
    #[must_use]
    pub fn new(mut entries: Vec<ScheduledTest>) -> Self {
        entries.sort_by_key(|e| (e.start, e.cut.0));
        Schedule { entries }
    }

    /// The scheduled sessions, ordered by start time.
    #[must_use]
    pub fn entries(&self) -> &[ScheduledTest] {
        &self.entries
    }

    /// Total test application time: the latest end cycle (0 if empty).
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.entries.iter().map(|e| e.end).max().unwrap_or(0)
    }

    /// The entry testing `cut`, if any.
    #[must_use]
    pub fn entry_for(&self, cut: CutId) -> Option<&ScheduledTest> {
        self.entries.iter().find(|e| e.cut == cut)
    }

    /// Maximum number of concurrently running sessions.
    #[must_use]
    pub fn peak_concurrency(&self) -> usize {
        let mut events: Vec<(u64, i64)> = Vec::new();
        for e in &self.entries {
            events.push((e.start, 1));
            events.push((e.end, -1));
        }
        events.sort();
        let mut cur = 0i64;
        let mut peak = 0i64;
        for (_, d) in events {
            cur += d;
            peak = peak.max(cur);
        }
        peak.max(0) as usize
    }

    /// Instantaneous power draw at each session start, as
    /// `(cycle, draw)` pairs in entry order. The total draw only changes
    /// when a session starts (ends only lower it), so sampling the starts
    /// covers every maximum — this is the one scan backing both
    /// [`Schedule::peak_power`] and the budget invariant of
    /// [`Schedule::validate`].
    pub fn draws_at_session_starts<'a>(
        &'a self,
        sys: &'a SystemUnderTest,
    ) -> impl Iterator<Item = (u64, f64)> + 'a {
        self.entries.iter().map(move |probe| {
            let t = probe.start;
            let draw: f64 = self
                .entries
                .iter()
                .filter(|e| e.start <= t && t < e.end)
                .map(|e| sys.session_power(e.interface, e.cut))
                .sum();
            (t, draw)
        })
    }

    /// Peak instantaneous power draw under `sys`'s power model.
    #[must_use]
    pub fn peak_power(&self, sys: &SystemUnderTest) -> f64 {
        self.draws_at_session_starts(sys)
            .map(|(_, draw)| draw)
            .fold(0.0, f64::max)
    }

    /// Mean number of active sessions over the makespan (a parallelism
    /// figure of merit).
    #[must_use]
    pub fn mean_concurrency(&self) -> f64 {
        let makespan = self.makespan();
        if makespan == 0 {
            return 0.0;
        }
        let busy: u64 = self.entries.iter().map(ScheduledTest::duration).sum();
        busy as f64 / makespan as f64
    }

    /// Checks every planner invariant against `sys`:
    ///
    /// 1. each entry names a core and an interface of `sys`, each core is
    ///    tested exactly once, on an interface with a surviving route to
    ///    it, with the correct session length;
    /// 2. an interface drives at most one session at a time;
    /// 3. concurrent sessions occupy disjoint link sets;
    /// 4. the power budget holds at every instant;
    /// 5. a processor interface is used only after (and never during) its
    ///    own self-test, and never to test itself.
    ///
    /// # Errors
    ///
    /// [`PlanError::InvalidSchedule`] describing the first violation found.
    pub fn validate(&self, sys: &SystemUnderTest) -> Result<(), PlanError> {
        let invalid = |msg: String| Err(PlanError::InvalidSchedule(msg));

        // 1. Coverage and durations.
        let mut seen: HashMap<CutId, usize> = HashMap::new();
        for e in &self.entries {
            // The session table is indexed by id: reject foreign ids
            // before any lookup reads another pair's slot.
            if e.cut.0 as usize >= sys.cuts().len() {
                return invalid(format!("unknown core {}", e.cut));
            }
            if e.interface.0 >= sys.interfaces().len() {
                return invalid(format!("unknown interface {}", e.interface));
            }
            *seen.entry(e.cut).or_insert(0) += 1;
            if !sys.reachable(e.interface, e.cut) {
                return invalid(format!(
                    "{} has no surviving route to {}",
                    e.interface, e.cut
                ));
            }
            let expected = sys.session_cycles(e.interface, e.cut);
            if e.duration() != expected {
                return invalid(format!(
                    "session for {} on {} lasts {} cycles, model says {}",
                    e.cut,
                    e.interface,
                    e.duration(),
                    expected
                ));
            }
        }
        for cut in sys.cuts() {
            match seen.get(&cut.id) {
                Some(1) => {}
                Some(n) => return invalid(format!("{} tested {n} times", cut.id)),
                None => return invalid(format!("{} never tested", cut.id)),
            }
        }

        // 2 + 3. Pairwise overlap checks.
        for (i, a) in self.entries.iter().enumerate() {
            for b in &self.entries[i + 1..] {
                if !a.overlaps(b) {
                    continue;
                }
                if a.interface == b.interface {
                    return invalid(format!(
                        "interface {} drives {} and {} concurrently",
                        a.interface, a.cut, b.cut
                    ));
                }
                if sys.footprints_overlap((a.interface, a.cut), (b.interface, b.cut)) {
                    return invalid(format!(
                        "overlapping sessions {} and {} share NoC links",
                        a.cut, b.cut
                    ));
                }
            }
        }

        // 4. Power at every session start (draw only changes at starts).
        for (t, draw) in self.draws_at_session_starts(sys) {
            if !sys.budget().allows(draw) {
                return invalid(format!(
                    "power draw {draw:.1} at cycle {t} exceeds budget {:?}",
                    sys.budget().cap()
                ));
            }
        }

        // 5. Processor precedence.
        for e in &self.entries {
            let iface = sys.interface(e.interface);
            if let Some(idx) = iface.processor_index() {
                let self_test = sys
                    .cuts()
                    .iter()
                    .find(|c| c.kind == CutKind::Processor(idx))
                    .map(|c| c.id)
                    .and_then(|id| self.entry_for(id));
                match self_test {
                    Some(st) => {
                        if st.cut == e.cut {
                            return invalid(format!(
                                "processor {idx} schedules its own self-test on itself"
                            ));
                        }
                        if e.start < st.end {
                            return invalid(format!(
                                "{} uses processor {idx} at cycle {} before its self-test ends at {}",
                                e.cut, e.start, st.end
                            ));
                        }
                    }
                    None => {
                        return invalid(format!(
                            "processor {idx} reused but its self-test is not scheduled"
                        ))
                    }
                }
            }
        }
        Ok(())
    }
}

/// A test-planning algorithm.
///
/// Implementations must be `Send + Sync`: the Campaign API shares them
/// across worker threads as [`std::sync::Arc`]`<dyn Scheduler>` entries of
/// a [`crate::plan::SchedulerRegistry`]. Keep per-run state inside
/// [`Scheduler::schedule_tuned`], not in the scheduler value. A scheduler
/// has no name of its own: outcomes report the registry key it was
/// requested under.
pub trait Scheduler: Send + Sync + std::fmt::Debug {
    /// Plans the complete test of `sys` under per-request `tuning`,
    /// polling `cancel` cooperatively.
    ///
    /// Tuning is advice: the branch-and-bound searches honour its thread
    /// count and warm start, and the heuristics, which finish in
    /// microseconds, ignore it and the token alike. A scheduler that
    /// polls the token abandons its work when it trips; with an idle
    /// token or none, the result is the one [`Scheduler::schedule`]
    /// returns under default tuning.
    ///
    /// # Errors
    ///
    /// [`PlanError::Cancelled`] when the token fires mid-search;
    /// otherwise [`PlanError`] if no valid schedule exists or an internal
    /// invariant breaks.
    fn schedule_tuned(
        &self,
        sys: &SystemUnderTest,
        tuning: &SearchTuning,
        cancel: Option<&CancelToken>,
    ) -> Result<Schedule, PlanError>;

    /// Plans the complete test of `sys` with default tuning and no
    /// cancellation.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Scheduler::schedule_tuned`].
    fn schedule(&self, sys: &SystemUnderTest) -> Result<Schedule, PlanError> {
        self.schedule_tuned(sys, &SearchTuning::default(), None)
    }
}

/// Per-request knobs for schedulers that run a tunable search.
///
/// Carried by [`crate::plan::PlanRequest`] (JSON member `"search"`) and
/// threaded through the pipeline to [`Scheduler::schedule_tuned`]. All
/// fields are optional; `SearchTuning::default()` means "scheduler
/// defaults" and is omitted from request JSON entirely.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SearchTuning {
    /// Worker-thread count for the parallel branch-and-bound: `None`
    /// keeps the scheduler's own setting, `Some(n)` forces `n` threads
    /// (`Some(0)` is rejected at request decode).
    pub threads: Option<usize>,
    /// A warm-start incumbent for the branch-and-bound searches: a valid
    /// schedule of the *same* system from a previous (near-duplicate)
    /// plan. The search races it against its own greedy/smart seeds and
    /// keeps whichever bound is tighter — it only prunes harder, never
    /// changes the first-optimum-in-DFS-order result, so warm-started
    /// outcomes stay byte-identical to cold ones (within budget).
    ///
    /// Runtime-only: never serialised to request JSON (the request's
    /// canonical form, [`crate::hashing::ContentHash`] and the serve
    /// journal are all unaffected by a warm incumbent). An *invalid*
    /// schedule here is silently ignored by the searches.
    pub warm: Option<Schedule>,
}

impl SearchTuning {
    /// True when every knob is at its default (request JSON omits the
    /// `"search"` object in that case).
    #[must_use]
    pub fn is_default(&self) -> bool {
        *self == SearchTuning::default()
    }

    /// Installs a warm-start incumbent (builder style).
    #[must_use]
    pub fn warm_start(mut self, schedule: Schedule) -> Self {
        self.warm = Some(schedule);
        self
    }
}

/// A shared cooperative-cancellation flag.
///
/// Cloning yields another handle to the *same* flag. The executor of
/// [`crate::plan::exec`] hands every job one token; cancelling the job
/// trips it, and the pipeline (plus any scheduler that polls the token it
/// gets in [`Scheduler::schedule_tuned`]) sees it at its next opportunity.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the flag; every clone observes it.
    pub fn cancel(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_semantics_are_half_open() {
        let a = ScheduledTest {
            cut: CutId(0),
            interface: InterfaceId(0),
            start: 0,
            end: 10,
        };
        let b = ScheduledTest {
            cut: CutId(1),
            interface: InterfaceId(0),
            start: 10,
            end: 20,
        };
        assert!(!a.overlaps(&b), "touching intervals do not overlap");
        let c = ScheduledTest {
            cut: CutId(2),
            interface: InterfaceId(0),
            start: 9,
            end: 11,
        };
        assert!(a.overlaps(&c));
        assert_eq!(a.duration(), 10);
    }

    #[test]
    fn makespan_and_concurrency() {
        let s = Schedule::new(vec![
            ScheduledTest {
                cut: CutId(0),
                interface: InterfaceId(0),
                start: 0,
                end: 10,
            },
            ScheduledTest {
                cut: CutId(1),
                interface: InterfaceId(1),
                start: 5,
                end: 25,
            },
            ScheduledTest {
                cut: CutId(2),
                interface: InterfaceId(2),
                start: 7,
                end: 9,
            },
        ]);
        assert_eq!(s.makespan(), 25);
        assert_eq!(s.peak_concurrency(), 3);
        assert!((s.mean_concurrency() - 32.0 / 25.0).abs() < 1e-12);
        assert!(s.entry_for(CutId(1)).is_some());
        assert!(s.entry_for(CutId(9)).is_none());
    }

    #[test]
    fn empty_schedule_is_degenerate() {
        let s = Schedule::default();
        assert_eq!(s.makespan(), 0);
        assert_eq!(s.peak_concurrency(), 0);
        assert_eq!(s.mean_concurrency(), 0.0);
    }

    #[test]
    fn entries_sorted_by_start() {
        let s = Schedule::new(vec![
            ScheduledTest {
                cut: CutId(1),
                interface: InterfaceId(0),
                start: 50,
                end: 60,
            },
            ScheduledTest {
                cut: CutId(0),
                interface: InterfaceId(0),
                start: 0,
                end: 50,
            },
        ]);
        assert_eq!(s.entries()[0].cut, CutId(0));
    }
}
