//! Shared event-driven scheduling engine.
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

/// A running session inside the engine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActiveTest {
    pub cut: CutId,
    pub interface: InterfaceId,
    pub end: u64,
    pub power: f64,
    /// The session's slot in the system's session table.
    pub slot: usize,
}

/// Scheduler state visible to an [`InterfacePolicy`].
#[derive(Debug)]
pub(crate) struct EngineState<'a> {
    pub sys: &'a SystemUnderTest,
    pub now: u64,
    pub active: Vec<ActiveTest>,
    /// Completion cycle of each reusable processor's self-test, if done.
    pub proc_ready_at: Vec<Option<u64>>,
    /// Busy-until cycle per interface (0 = free since forever).
    pub iface_busy_until: Vec<u64>,
    pub active_power: f64,
}

impl EngineState<'_> {
    /// `true` if `iface` may start `cut` *right now*: interface free,
    /// processor self-tested (and not testing itself), links disjoint from
    /// every running session, and power within budget.
    pub fn feasible_now(&self, iface: InterfaceId, cut: CutId) -> bool {
        let slot = self.sys.slot(iface, cut);
        let session = self.sys.session(slot);
        if session.path.is_none() {
            return false; // the fault set severed this pairing
        }
        if self.active.iter().any(|a| a.interface == iface) {
            return false;
        }
        let interface = self.sys.interface(iface);
        if let Some(idx) = interface.processor_index() {
            match self.proc_ready_at[idx] {
                Some(t) if t <= self.now => {}
                _ => return false,
            }
            if self.sys.cut(cut).kind == CutKind::Processor(idx) {
                return false; // a processor cannot test itself
            }
        }
        if self
            .active
            .iter()
            .any(|a| self.sys.slots_overlap(a.slot, slot))
        {
            return false;
        }
        self.sys.budget().allows(self.active_power + session.power)
    }
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
    let order = sys.priority_order();
    let mut remaining: Vec<CutId> = order;
    let proc_count = sys.interfaces().iter().filter(|i| !i.is_external()).count();
    let mut state = EngineState {
        sys,
        now: 0,
        active: Vec::new(),
        proc_ready_at: vec![None; proc_count],
        iface_busy_until: vec![0; sys.interfaces().len()],
        active_power: 0.0,
    };
    let mut entries: Vec<ScheduledTest> = Vec::new();

    loop {
        // Let the policy start sessions one at a time until it declines
        // (each start changes link/power feasibility for the next call).
        while let Some((cut, iface)) = policy.next_start(&state, &remaining) {
            debug_assert!(state.feasible_now(iface, cut));
            let slot = sys.slot(iface, cut);
            let session = sys.session(slot);
            let end = state.now + session.cycles;
            let power = session.power;
            state.active.push(ActiveTest {
                cut,
                interface: iface,
                end,
                power,
                slot,
            });
            state.active_power += power;
            state.iface_busy_until[iface.0] = end;
            entries.push(ScheduledTest {
                cut,
                interface: iface,
                start: state.now,
                end,
            });
            let pos = remaining
                .iter()
                .position(|&c| c == cut)
                .expect("policy returned a core that is not waiting");
            remaining.remove(pos);
        }

        if state.active.is_empty() {
            if remaining.is_empty() {
                break;
            }
            // Nothing running and nothing startable: a policy bug.
            return Err(PlanError::Stalled {
                at: state.now,
                waiting: remaining.len(),
            });
        }

        // Advance to the next completion event.
        let next = state
            .active
            .iter()
            .map(|a| a.end)
            .min()
            .expect("active set non-empty");
        state.now = next;
        let mut still_active = Vec::with_capacity(state.active.len());
        for a in state.active.drain(..) {
            if a.end <= next {
                state.active_power -= a.power;
                if let CutKind::Processor(idx) = sys.cut(a.cut).kind {
                    state.proc_ready_at[idx] = Some(a.end);
                }
            } else {
                still_active.push(a);
            }
        }
        state.active = still_active;
    }

    Ok(Schedule::new(entries))
}
