//! Input-buffered wormhole router state.
//!
//! Each router has five ports (E/W/N/S/Local). Input ports hold a small
//! flit FIFO; a header flit at the FIFO head spends
//! [`crate::NocConfig::routing_latency`] cycles in route computation before
//! it can claim an output port. Once a header wins an output, the output is
//! *locked* to that input until the packet's tail flit drains — wormhole
//! switching. Outputs forward at most one flit every
//! [`crate::NocConfig::flow_latency`] cycles — the inter-router flow-control
//! latency of the paper's characterisation.

use std::collections::VecDeque;

use crate::flit::Flit;
use crate::geometry::Direction;
use crate::topology::NodeId;

/// The flow-control pacing rule: after a flit crosses a channel at `now`,
/// the next flit on that channel may move at `now + flow_latency`.
///
/// This single helper is the *only* place the pacing arithmetic lives —
/// output-port forwarding in the reference simulator and the event
/// engine's injector pacing and next-event computation all call it, so
/// the two simulators cannot drift apart.
#[inline]
#[must_use]
pub fn paced_ready_at(now: u64, flow_latency: u32) -> u64 {
    now + u64::from(flow_latency)
}

/// One input port: FIFO plus route-computation and wormhole state.
#[derive(Debug, Clone)]
pub struct InputPort {
    fifo: VecDeque<Flit>,
    capacity: usize,
    /// Remaining route-computation cycles for the header at the FIFO head.
    /// `None` when no computation is pending or it already finished.
    route_countdown: Option<u32>,
    /// Output port index the in-flight packet was routed to.
    routed_output: Option<usize>,
}

impl InputPort {
    /// An empty port with room for `capacity` flits.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        InputPort {
            fifo: VecDeque::with_capacity(capacity),
            capacity,
            route_countdown: None,
            routed_output: None,
        }
    }

    /// `true` if another flit fits in the FIFO.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.fifo.len() < self.capacity
    }

    /// Current occupancy in flits.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.fifo.len()
    }

    /// Pushes an arriving flit.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full — the credit protocol in the network loop
    /// must prevent this; a violation is a simulator bug, not a user error.
    pub fn push(&mut self, flit: Flit) {
        assert!(self.has_space(), "input FIFO overflow: credit bug");
        self.fifo.push_back(flit);
    }

    /// The flit at the FIFO head, if any.
    #[must_use]
    pub fn head(&self) -> Option<&Flit> {
        self.fifo.front()
    }

    /// Pops the FIFO head.
    pub fn pop(&mut self) -> Option<Flit> {
        self.fifo.pop_front()
    }

    /// Output index this packet is routed to, if routing finished.
    #[must_use]
    pub fn routed_output(&self) -> Option<usize> {
        self.routed_output
    }

    /// Records a finished route computation.
    pub fn set_routed_output(&mut self, output: usize) {
        self.routed_output = Some(output);
    }

    /// Clears wormhole state after the tail flit leaves.
    pub fn clear_route(&mut self) {
        self.routed_output = None;
        self.route_countdown = None;
    }

    /// Advances route computation for the header at the FIFO head.
    /// Returns `true` when the header is ready to be routed this cycle.
    pub fn advance_route_computation(&mut self, routing_latency: u32) -> bool {
        if self.routed_output.is_some() {
            return false;
        }
        let Some(head) = self.fifo.front() else {
            return false;
        };
        if !head.kind.is_head() {
            // A body flit cannot appear at the head of an unrouted input:
            // the upstream wormhole lock guarantees ordering. If it does,
            // the packet's route state was cleared prematurely.
            debug_assert!(false, "body flit at unrouted input FIFO head");
            return false;
        }
        match self.route_countdown {
            None => {
                if routing_latency == 0 {
                    true
                } else {
                    self.route_countdown = Some(routing_latency);
                    false
                }
            }
            Some(0) => true,
            Some(n) => {
                self.route_countdown = Some(n - 1);
                n - 1 == 0
            }
        }
    }
}

/// One output port: wormhole lock plus flow-control pacing.
#[derive(Debug, Clone, Copy, Default)]
pub struct OutputPort {
    /// Input index currently holding the wormhole lock.
    locked_to: Option<usize>,
    /// First cycle at which the next flit may be forwarded.
    ready_at: u64,
    /// Round-robin pointer for arbitration fairness.
    rr_next: usize,
}

impl OutputPort {
    /// Input currently holding the lock, if any.
    #[must_use]
    pub fn locked_to(&self) -> Option<usize> {
        self.locked_to
    }

    /// Locks the output to `input` (header won arbitration).
    pub fn lock(&mut self, input: usize) {
        debug_assert!(self.locked_to.is_none(), "double wormhole lock");
        self.locked_to = Some(input);
        self.rr_next = (input + 1) % 5;
    }

    /// Releases the lock (tail flit drained).
    pub fn unlock(&mut self) {
        self.locked_to = None;
    }

    /// `true` if the output may forward a flit at `now`.
    #[must_use]
    pub fn is_ready(&self, now: u64) -> bool {
        now >= self.ready_at
    }

    /// Marks a flit forwarded at `now`, pacing the next transfer.
    pub fn forwarded(&mut self, now: u64, flow_latency: u32) {
        self.ready_at = paced_ready_at(now, flow_latency);
    }

    /// Round-robin arbitration start index.
    #[must_use]
    pub fn rr_start(&self) -> usize {
        self.rr_next
    }
}

/// Full per-router state: five input and five output ports.
#[derive(Debug, Clone)]
pub struct RouterState {
    node: NodeId,
    inputs: [InputPort; 5],
    outputs: [OutputPort; 5],
}

impl RouterState {
    /// A fresh router with `buffer_depth`-flit input FIFOs.
    #[must_use]
    pub fn new(node: NodeId, buffer_depth: usize) -> Self {
        RouterState {
            node,
            inputs: std::array::from_fn(|_| InputPort::new(buffer_depth)),
            outputs: [OutputPort::default(); 5],
        }
    }

    /// The router's node id.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Immutable access to an input port.
    #[must_use]
    pub fn input(&self, dir: Direction) -> &InputPort {
        &self.inputs[dir.index()]
    }

    /// Mutable access to an input port.
    pub fn input_mut(&mut self, dir: Direction) -> &mut InputPort {
        &mut self.inputs[dir.index()]
    }

    /// Immutable access to an input port by index.
    #[must_use]
    pub fn input_at(&self, idx: usize) -> &InputPort {
        &self.inputs[idx]
    }

    /// Mutable access to an input port by index.
    pub fn input_at_mut(&mut self, idx: usize) -> &mut InputPort {
        &mut self.inputs[idx]
    }

    /// Immutable access to an output port.
    #[must_use]
    pub fn output(&self, dir: Direction) -> &OutputPort {
        &self.outputs[dir.index()]
    }

    /// Mutable access to an output port.
    pub fn output_mut(&mut self, dir: Direction) -> &mut OutputPort {
        &mut self.outputs[dir.index()]
    }

    /// Total flits buffered across all input ports.
    #[must_use]
    pub fn buffered_flits(&self) -> usize {
        self.inputs.iter().map(InputPort::occupancy).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, PacketId};

    fn head_flit() -> Flit {
        Flit {
            packet: PacketId(1),
            kind: FlitKind::Head,
            dest: NodeId::new(3),
            seq: 0,
            data: 3,
        }
    }

    #[test]
    fn fifo_respects_capacity() {
        let mut port = InputPort::new(2);
        assert!(port.has_space());
        port.push(head_flit());
        port.push(head_flit());
        assert!(!port.has_space());
        assert_eq!(port.occupancy(), 2);
    }

    #[test]
    #[should_panic(expected = "credit bug")]
    fn fifo_overflow_panics() {
        let mut port = InputPort::new(1);
        port.push(head_flit());
        port.push(head_flit());
    }

    #[test]
    fn route_computation_counts_down() {
        let mut port = InputPort::new(4);
        port.push(head_flit());
        // latency 3: cycle 1 arms the countdown, cycles 2-3 tick it to zero.
        assert!(!port.advance_route_computation(3));
        assert!(!port.advance_route_computation(3));
        assert!(!port.advance_route_computation(3));
        assert!(port.advance_route_computation(3));
    }

    #[test]
    fn zero_latency_routes_immediately() {
        let mut port = InputPort::new(4);
        port.push(head_flit());
        assert!(port.advance_route_computation(0));
    }

    #[test]
    fn empty_port_never_routes() {
        let mut port = InputPort::new(4);
        assert!(!port.advance_route_computation(0));
    }

    #[test]
    fn routed_port_does_not_rearm() {
        let mut port = InputPort::new(4);
        port.push(head_flit());
        assert!(port.advance_route_computation(0));
        port.set_routed_output(2);
        assert!(!port.advance_route_computation(0));
        assert_eq!(port.routed_output(), Some(2));
        port.clear_route();
        assert_eq!(port.routed_output(), None);
    }

    #[test]
    fn output_pacing() {
        let mut out = OutputPort::default();
        assert!(out.is_ready(0));
        out.forwarded(0, 2);
        assert!(!out.is_ready(1));
        assert!(out.is_ready(2));
    }

    #[test]
    fn lock_and_unlock() {
        let mut out = OutputPort::default();
        out.lock(3);
        assert_eq!(out.locked_to(), Some(3));
        assert_eq!(out.rr_start(), 4);
        out.unlock();
        assert_eq!(out.locked_to(), None);
    }

    #[test]
    fn router_state_accessors() {
        let r = RouterState::new(NodeId::new(5), 4);
        assert_eq!(r.node(), NodeId::new(5));
        assert_eq!(r.buffered_flits(), 0);
        assert!(r.input(Direction::North).has_space());
        assert!(r.output(Direction::Local).is_ready(0));
    }
}
