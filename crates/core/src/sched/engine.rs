//! The start rule every scheduler shares, and the heuristics'
//! event-driven engine.
//!
//! [`Running`] is the part of a partial schedule the paper's rules read:
//! the sessions running at `now`, their summed power and each reused
//! processor's self-test completion. [`Running::feasible_now`] is the one
//! statement of "may this session start now?"; the heuristic engine below
//! and the branch-and-bound's `SearchCore` both ask it. Each keeps its own
//! retire arithmetic (the engine subtracts finished powers one at a time,
//! the search one sum over them): feasibility compares float sums, so each
//! order is part of its scheduler's pinned results.
//!
//! Both the paper's greedy scheduler and the smart variant run the same
//! loop — maintain a set of running sessions, and at every completion
//! event walk the remaining cores in priority order offering each a start
//! — and differ only in *which interface* they accept for a core at a
//! given instant (the [`InterfacePolicy`]).

use crate::cut::{CutId, CutKind};
use crate::error::PlanError;
use crate::interface::InterfaceId;
use crate::sched::{Schedule, ScheduledTest};
use crate::system::SystemUnderTest;

/// A session running in a partial schedule.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Active {
    pub(crate) cut: CutId,
    pub(crate) interface: InterfaceId,
    pub(crate) end: u64,
    pub(crate) power: f64,
    /// The session's slot in the system's session table.
    pub(crate) slot: usize,
}

impl Active {
    /// The running-session record for starting (`cut`, `iface`) at `now`.
    #[inline]
    pub(crate) fn start(sys: &SystemUnderTest, now: u64, cut: CutId, iface: InterfaceId) -> Active {
        let slot = sys.slot(iface, cut);
        let session = sys.session(slot);
        Active {
            cut,
            interface: iface,
            end: now + session.cycles,
            power: session.power,
            slot,
        }
    }
}

/// What the start rule reads of a partial schedule.
#[derive(Debug, Clone)]
pub(crate) struct Running {
    pub(crate) now: u64,
    pub(crate) active: Vec<Active>,
    /// Summed power of `active`, in the owning scheduler's order.
    pub(crate) power: f64,
    /// Completion cycle of each reusable processor's self-test, if done.
    pub(crate) proc_ready: Vec<Option<u64>>,
}

impl Running {
    /// Nothing running at cycle 0 and no processor self-tested.
    pub(crate) fn idle(sys: &SystemUnderTest) -> Running {
        let procs = sys.interfaces().iter().filter(|i| !i.is_external()).count();
        Running {
            now: 0,
            active: Vec::new(),
            power: 0.0,
            proc_ready: vec![None; procs],
        }
    }

    /// `true` if `iface` may start `cut` *right now*: the pair has a
    /// surviving route, the interface is free, a processor is self-tested
    /// (and not testing itself), the links are disjoint from every
    /// running session's, and the power stays within budget.
    ///
    /// Forced inline: the search calls it for every candidate pair at
    /// every node, from another module.
    #[inline(always)]
    pub(crate) fn feasible_now(
        &self,
        sys: &SystemUnderTest,
        iface: InterfaceId,
        cut: CutId,
    ) -> bool {
        let slot = sys.slot(iface, cut);
        let session = sys.session(slot);
        if session.path.is_none() {
            return false; // the fault set severed this pairing
        }
        if self.active.iter().any(|a| a.interface == iface) {
            return false;
        }
        if let Some(idx) = sys.interface(iface).processor_index() {
            match self.proc_ready[idx] {
                Some(t) if t <= self.now => {}
                _ => return false,
            }
            if sys.cut(cut).kind == CutKind::Processor(idx) {
                return false; // a processor cannot test itself
            }
        }
        if self.active.iter().any(|a| sys.slots_overlap(a.slot, slot)) {
            return false;
        }
        sys.budget().allows(self.power + session.power)
    }
}

/// Scheduler state visible to an [`InterfacePolicy`].
#[derive(Debug)]
pub(crate) struct EngineState<'a> {
    pub sys: &'a SystemUnderTest,
    pub running: Running,
    /// Busy-until cycle per interface (0 = free since forever).
    pub iface_busy_until: Vec<u64>,
}

/// The pluggable decision: given the waiting cores in priority order,
/// which single session (if any) should start at the current instant?
/// The engine calls this repeatedly until it returns `None`, then advances
/// time to the next completion event.
pub(crate) trait InterfacePolicy {
    fn next_start(
        &self,
        state: &EngineState<'_>,
        waiting: &[CutId],
    ) -> Option<(CutId, InterfaceId)>;
}

/// Runs the event loop to completion under `policy`.
pub(crate) fn run_engine(
    sys: &SystemUnderTest,
    policy: &dyn InterfacePolicy,
) -> Result<Schedule, PlanError> {
    if sys.interfaces().is_empty() {
        return Err(PlanError::NoInterfaces);
    }
    let mut remaining: Vec<CutId> = sys.priority_order();
    let mut state = EngineState {
        sys,
        running: Running::idle(sys),
        iface_busy_until: vec![0; sys.interfaces().len()],
    };
    let mut entries: Vec<ScheduledTest> = Vec::new();

    loop {
        // Let the policy start sessions one at a time until it declines
        // (each start changes link/power feasibility for the next call).
        while let Some((cut, iface)) = policy.next_start(&state, &remaining) {
            let run = &mut state.running;
            debug_assert!(run.feasible_now(sys, iface, cut));
            let session = Active::start(sys, run.now, cut, iface);
            run.active.push(session);
            run.power += session.power;
            state.iface_busy_until[iface.0] = session.end;
            entries.push(ScheduledTest {
                cut,
                interface: iface,
                start: run.now,
                end: session.end,
            });
            let pos = remaining
                .iter()
                .position(|&c| c == cut)
                .expect("policy returned a core that is not waiting");
            remaining.remove(pos);
        }

        let run = &mut state.running;
        if run.active.is_empty() {
            if remaining.is_empty() {
                break;
            }
            // Nothing running and nothing startable: a policy bug.
            return Err(PlanError::Stalled {
                at: run.now,
                waiting: remaining.len(),
            });
        }

        // Advance to the next completion event, retiring finished
        // sessions' powers one at a time.
        let next = run
            .active
            .iter()
            .map(|a| a.end)
            .min()
            .expect("active set non-empty");
        run.now = next;
        let mut still_active = Vec::with_capacity(run.active.len());
        for a in run.active.drain(..) {
            if a.end <= next {
                run.power -= a.power;
                if let CutKind::Processor(idx) = sys.cut(a.cut).kind {
                    run.proc_ready[idx] = Some(a.end);
                }
            } else {
                still_active.push(a);
            }
        }
        run.active = still_active;
    }

    Ok(Schedule::new(entries))
}
