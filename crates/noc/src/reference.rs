//! The full-scan simulator, kept as the executable specification of the
//! network semantics.
//!
//! [`ReferenceNetwork`] is the original cycle-stepped `Network` loop:
//! every simulated cycle it scans **every** router and every injection
//! queue, whether or not anything can move. It is deliberately naive. The
//! live engine, [`crate::Network`], must produce bit-identical
//! [`DeliveredPacket`] records, energy charges and link counters on any
//! traffic, and the same [`NetworkStats`] except `idle_cycles` (the live
//! engine jumps spans this spec steps). The `event_engine_differential`
//! integration test holds it to that on raw traffic, and
//! `crates/core/tests/batch_replay.rs` on whole-schedule replays over
//! healthy and degraded meshes. Do not "optimise" this
//! module; its value is that each stage reads like the per-cycle
//! semantics documented in [`crate::network`].
//!
//! The spec covers the parts of the live engine's interface that replay
//! uses: scheduled releases ([`ReferenceNetwork::inject_at`], released
//! in (cycle, packet id) order), faulty routers and links
//! ([`ReferenceNetwork::kill_router`], [`ReferenceNetwork::kill_link`]),
//! route-table next hops ([`ReferenceNetwork::set_route_table`]) and
//! routed hop counts on delivery.
//!
//! # Quiet spans
//!
//! Whole-schedule replay releases sessions up to millions of cycles
//! apart, and stepping every one of those cycles would make the spec too
//! slow to run on every test. So [`ReferenceNetwork::run_until_idle`]
//! jumps straight to the next scheduled release, but **only** when no
//! flit is buffered in any router and every injection queue is empty. In
//! that state a scan provably changes nothing but leakage and the cycle
//! counter: there is no flit to route, move or inject, no wormhole lock
//! can be held (a lock outlives only flits still in the network), and
//! pacing deadlines are absolute cycles. The jump charges leakage through
//! [`EnergyLedger::tick_many`] (bit-identical to per-cycle ticks), counts
//! the span as [`NetworkStats::idle_cycles`] and against the
//! `run_until_idle` budget. In every other state the spec scans every
//! router every cycle.
//!
//! The two implementations share the router, flit, routing and power
//! types, so a divergence can only come from the scheduling of work,
//! which is exactly what the differential tests pin down.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::config::NocConfig;
use crate::error::NocError;
use crate::flit::{Flit, Packet, PacketId};
use crate::geometry::Direction;
use crate::network::{DeliveredPacket, InFlight};
use crate::power::EnergyLedger;
use crate::router::RouterState;
use crate::stats::NetworkStats;
use crate::table::RouteTable;
use crate::topology::{LinkId, NodeId};

#[derive(Debug)]
struct PendingInjection {
    flits: VecDeque<Flit>,
    ready_at: u64,
}

#[derive(Debug, Clone, Copy)]
enum Move {
    Hop {
        from_router: usize,
        from_input: usize,
        out_dir: Direction,
        to_router: usize,
    },
    Eject {
        from_router: usize,
        from_input: usize,
    },
}

/// The cycle-stepped specification engine. See the [module docs](self).
#[derive(Debug)]
pub struct ReferenceNetwork {
    config: NocConfig,
    routers: Vec<RouterState>,
    injections: Vec<PendingInjection>,
    injection_queued: Vec<VecDeque<PacketId>>,
    in_flight: Vec<Option<InFlight>>,
    delivered: Vec<DeliveredPacket>,
    energy: EnergyLedger,
    stats: NetworkStats,
    link_flits: HashMap<LinkId, u64>,
    /// Scheduled releases keyed by (release cycle, packet id), holding the
    /// source node and the packet's flits.
    scheduled: BTreeMap<(u64, PacketId), (usize, Vec<Flit>)>,
    dead_routers: BTreeSet<NodeId>,
    dead_links: BTreeSet<LinkId>,
    route_table: Option<RouteTable>,
    now: u64,
    next_packet: u64,
    total_in_flight: usize,
}

impl ReferenceNetwork {
    /// Builds an idle network from a configuration.
    ///
    /// # Errors
    ///
    /// Currently infallible for a valid [`NocConfig`]; mirrors
    /// [`crate::Network::new`].
    pub fn new(config: NocConfig) -> Result<Self, NocError> {
        let nodes = config.mesh().len();
        let energy = EnergyLedger::new(nodes, *config.power());
        let routers = (0..nodes)
            .map(|i| RouterState::new(NodeId::new(i as u32), config.buffer_depth() as usize))
            .collect();
        Ok(ReferenceNetwork {
            routers,
            injections: (0..nodes)
                .map(|_| PendingInjection {
                    flits: VecDeque::new(),
                    ready_at: 0,
                })
                .collect(),
            injection_queued: (0..nodes).map(|_| VecDeque::new()).collect(),
            in_flight: Vec::new(),
            delivered: Vec::new(),
            energy,
            stats: NetworkStats::default(),
            link_flits: HashMap::new(),
            scheduled: BTreeMap::new(),
            dead_routers: BTreeSet::new(),
            dead_links: BTreeSet::new(),
            route_table: None,
            now: 0,
            next_packet: 0,
            total_in_flight: 0,
            config,
        })
    }

    /// Current simulation time in cycles.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of packets injected but not yet fully delivered (scheduled
    /// releases included).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.total_in_flight
    }

    /// Energy ledger accumulated so far.
    #[must_use]
    pub fn energy(&self) -> &EnergyLedger {
        &self.energy
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Flits forwarded over each directed link so far.
    #[must_use]
    pub fn link_flits(&self) -> &HashMap<LinkId, u64> {
        &self.link_flits
    }

    /// Packets delivered so far (not yet drained by
    /// [`ReferenceNetwork::run_until_idle`]).
    #[must_use]
    pub fn delivered(&self) -> &[DeliveredPacket] {
        &self.delivered
    }

    /// Marks `node`'s router as faulty: packets can no longer be sourced
    /// at or addressed to it. Must be applied before any traffic.
    ///
    /// # Errors
    ///
    /// Mirrors [`crate::Network::kill_router`].
    pub fn kill_router(&mut self, node: NodeId) -> Result<(), NocError> {
        self.config.mesh().check(node)?;
        self.check_pristine()?;
        self.dead_routers.insert(node);
        Ok(())
    }

    /// Marks a directed link as faulty: switch traversal never stages a
    /// flit onto it. Must be applied before any traffic.
    ///
    /// # Errors
    ///
    /// Mirrors [`crate::Network::kill_link`].
    pub fn kill_link(&mut self, link: LinkId) -> Result<(), NocError> {
        self.config.mesh().check(link.from)?;
        self.check_pristine()?;
        self.dead_links.insert(link);
        Ok(())
    }

    /// Installs a per-pair routing table, overriding the configured
    /// algorithmic routing. Must be applied before any traffic.
    ///
    /// # Errors
    ///
    /// Mirrors [`crate::Network::set_route_table`].
    pub fn set_route_table(&mut self, table: RouteTable) -> Result<(), NocError> {
        table.check_len(self.config.mesh().len())?;
        self.check_pristine()?;
        self.route_table = Some(table);
        Ok(())
    }

    fn check_pristine(&self) -> Result<(), NocError> {
        if self.next_packet > 0 {
            return Err(NocError::InvalidParameter {
                name: "faults",
                reason: "faults and route tables must be applied before traffic is injected",
            });
        }
        Ok(())
    }

    fn check_endpoints(&self, packet: &Packet) -> Result<(), NocError> {
        self.config.mesh().check(packet.src())?;
        self.config.mesh().check(packet.dest())?;
        let (src, dest) = (packet.src(), packet.dest());
        for node in [src, dest] {
            if self.dead_routers.contains(&node) {
                return Err(NocError::DeadEndpoint { node });
            }
        }
        if let Some(table) = &self.route_table {
            if table.next_hop(src, dest).is_none() {
                return Err(NocError::Unroutable { src, dest });
            }
        }
        Ok(())
    }

    /// Queues `packet` for injection at its source node.
    ///
    /// # Errors
    ///
    /// Mirrors [`crate::Network::inject`].
    pub fn inject(&mut self, packet: Packet) -> Result<PacketId, NocError> {
        self.check_endpoints(&packet)?;
        let node = packet.src();
        if self.injection_queued[node.index()].len() >= self.config.injection_queue_capacity() {
            return Err(NocError::InjectionQueueFull { node });
        }
        let id = self.track(&packet, self.now);
        self.injections[node.index()].flits.extend(packet.flits(id));
        self.injection_queued[node.index()].push_back(id);
        Ok(id)
    }

    /// Schedules `packet` to join its source node's injection queue at
    /// `cycle` (clamped to the current cycle if already past), bypassing
    /// the queue capacity check.
    ///
    /// # Errors
    ///
    /// Mirrors [`crate::Network::inject_at`].
    pub fn inject_at(&mut self, packet: Packet, cycle: u64) -> Result<PacketId, NocError> {
        self.check_endpoints(&packet)?;
        let at = cycle.max(self.now);
        let id = self.track(&packet, at);
        self.scheduled
            .insert((at, id), (packet.src().index(), packet.flits(id)));
        Ok(id)
    }

    fn track(&mut self, packet: &Packet, injected_at: u64) -> PacketId {
        let id = PacketId(self.next_packet);
        self.next_packet += 1;
        self.in_flight.push(Some(InFlight {
            src: packet.src(),
            dest: packet.dest(),
            tag: packet.tag(),
            injected_at,
            head_delivered_at: None,
            flits: packet.total_flits(),
            flits_delivered: 0,
        }));
        self.total_in_flight += 1;
        id
    }

    /// Advances the simulation by one cycle, scanning every router.
    pub fn step(&mut self) {
        self.energy.tick();
        self.stats.cycles += 1;

        self.release_due_packets();
        self.stage_injections();
        self.advance_route_computations();
        let moves = self.stage_switch_traversal();
        self.apply_moves(&moves);

        self.now += 1;
    }

    /// Runs until every injected packet has been delivered, then returns
    /// and drains the delivery records. Quiet spans before a scheduled
    /// release are jumped (see the [module docs](self)) and count against
    /// the budget exactly as stepped cycles do.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Timeout`] if the network has not drained within
    /// `max_cycles`.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Result<Vec<DeliveredPacket>, NocError> {
        let mut spent = 0;
        while self.total_in_flight > 0 {
            if spent >= max_cycles {
                return Err(NocError::Timeout {
                    budget: max_cycles,
                    in_flight: self.total_in_flight,
                });
            }
            match self.quiet_until() {
                Some(release) if release > self.now => {
                    let span = (release - self.now).min(max_cycles - spent);
                    self.energy.tick_many(span);
                    self.stats.add_cycles(span);
                    self.stats.add_idle_cycles(span);
                    self.now += span;
                    spent += span;
                }
                _ => {
                    self.step();
                    spent += 1;
                }
            }
        }
        Ok(std::mem::take(&mut self.delivered))
    }

    /// The next scheduled release cycle if the network is quiet — no flit
    /// buffered in any router and every injection queue empty — else
    /// `None`.
    fn quiet_until(&self) -> Option<u64> {
        let quiet = self.injections.iter().all(|inj| inj.flits.is_empty())
            && self.routers.iter().all(|r| r.buffered_flits() == 0);
        if !quiet {
            return None;
        }
        self.scheduled.keys().next().map(|&(at, _)| at)
    }

    /// Moves every scheduled packet whose release cycle has arrived into
    /// its node's injection queue, in (cycle, packet id) order.
    fn release_due_packets(&mut self) {
        while let Some(entry) = self.scheduled.first_entry() {
            if entry.key().0 > self.now {
                break;
            }
            let ((_, id), (node, flits)) = entry.remove_entry();
            self.injections[node].flits.extend(flits);
            self.injection_queued[node].push_back(id);
        }
    }

    fn stage_injections(&mut self) {
        for node in 0..self.routers.len() {
            let inj = &mut self.injections[node];
            if inj.flits.is_empty() || self.now < inj.ready_at {
                continue;
            }
            let local = self.routers[node].input_mut(Direction::Local);
            if !local.has_space() {
                continue;
            }
            let flit = inj.flits.pop_front().expect("checked non-empty");
            if flit.kind.is_tail() {
                self.injection_queued[node].pop_front();
            }
            local.push(flit);
            inj.ready_at = self.now + u64::from(self.config.flow_latency());
        }
    }

    fn advance_route_computations(&mut self) {
        let routing = self.config.routing();
        let latency = self.config.routing_latency();
        let mesh = self.config.mesh().clone();
        for router_idx in 0..self.routers.len() {
            let here = mesh.position(NodeId::new(router_idx as u32));
            for port in 0..5 {
                let ready = self.routers[router_idx]
                    .input_at_mut(port)
                    .advance_route_computation(latency);
                if !ready {
                    continue;
                }
                let dest = self.routers[router_idx]
                    .input_at(port)
                    .head()
                    .expect("ready port has a head flit")
                    .dest;
                let dir = match &self.route_table {
                    Some(table) => table
                        .next_hop(NodeId::new(router_idx as u32), dest)
                        .expect("route table has no route for an injected pair"),
                    None => routing.next_hop(here, mesh.position(dest)),
                };
                self.routers[router_idx]
                    .input_at_mut(port)
                    .set_routed_output(dir.index());
                self.energy.charge_route(NodeId::new(router_idx as u32));
            }
        }
    }

    fn stage_switch_traversal(&mut self) -> Vec<Move> {
        let mesh = self.config.mesh().clone();
        let mut moves = Vec::new();
        // Start-of-cycle downstream occupancy snapshot, so a credit freed
        // by a pop in this same cycle is not consumed until the next cycle.
        let occupancy: Vec<[usize; 5]> = self
            .routers
            .iter()
            .map(|r| std::array::from_fn(|p| r.input_at(p).occupancy()))
            .collect();

        for router_idx in 0..self.routers.len() {
            let node = NodeId::new(router_idx as u32);
            for out_dir in Direction::ALL {
                if out_dir != Direction::Local
                    && self.dead_links.contains(&LinkId::cardinal(node, out_dir))
                {
                    continue; // faulty links carry nothing
                }
                let out = *self.routers[router_idx].output(out_dir);
                if !out.is_ready(self.now) {
                    continue;
                }
                let serving = match out.locked_to() {
                    Some(input) => Some(input),
                    None => {
                        let start = out.rr_start();
                        (0..5).map(|k| (start + k) % 5).find(|&input| {
                            let port = self.routers[router_idx].input_at(input);
                            port.routed_output() == Some(out_dir.index()) && port.head().is_some()
                        })
                    }
                };
                let Some(input) = serving else { continue };
                let port = self.routers[router_idx].input_at(input);
                let Some(_flit) = port.head() else { continue };
                debug_assert_eq!(port.routed_output(), Some(out_dir.index()));

                if out_dir == Direction::Local {
                    moves.push(Move::Eject {
                        from_router: router_idx,
                        from_input: input,
                    });
                    self.lock_output(router_idx, out_dir, input);
                } else {
                    let neighbor = mesh
                        .neighbor(node, out_dir)
                        .expect("routing never leaves the mesh");
                    let in_dir = out_dir.opposite();
                    let depth = self.config.buffer_depth() as usize;
                    let pending_here = moves
                        .iter()
                        .filter(|m| {
                            matches!(m, Move::Hop { to_router, out_dir: d, .. }
                            if *to_router == neighbor.index() && d.opposite() == in_dir)
                        })
                        .count();
                    if occupancy[neighbor.index()][in_dir.index()] + pending_here >= depth {
                        continue; // no credit downstream
                    }
                    moves.push(Move::Hop {
                        from_router: router_idx,
                        from_input: input,
                        out_dir,
                        to_router: neighbor.index(),
                    });
                    self.lock_output(router_idx, out_dir, input);
                }
            }
        }
        moves
    }

    fn lock_output(&mut self, router_idx: usize, out_dir: Direction, input: usize) {
        let out = self.routers[router_idx].output_mut(out_dir);
        if out.locked_to().is_none() {
            out.lock(input);
        }
    }

    fn apply_moves(&mut self, moves: &[Move]) {
        let flow = self.config.flow_latency();
        for &mv in moves {
            match mv {
                Move::Hop {
                    from_router,
                    from_input,
                    out_dir,
                    to_router,
                } => {
                    let flit = self.routers[from_router]
                        .input_at_mut(from_input)
                        .pop()
                        .expect("staged move lost its flit");
                    let node = NodeId::new(from_router as u32);
                    self.energy.charge_flit_hop(node);
                    *self
                        .link_flits
                        .entry(LinkId::cardinal(node, out_dir))
                        .or_insert(0) += 1;
                    if flit.kind.is_tail() {
                        self.routers[from_router]
                            .input_at_mut(from_input)
                            .clear_route();
                        self.routers[from_router].output_mut(out_dir).unlock();
                    }
                    self.routers[from_router]
                        .output_mut(out_dir)
                        .forwarded(self.now, flow);
                    let in_dir = out_dir.opposite();
                    self.routers[to_router].input_mut(in_dir).push(flit);
                }
                Move::Eject {
                    from_router,
                    from_input,
                } => {
                    let flit = self.routers[from_router]
                        .input_at_mut(from_input)
                        .pop()
                        .expect("staged ejection lost its flit");
                    let node = NodeId::new(from_router as u32);
                    self.energy.charge_flit_hop(node);
                    *self.link_flits.entry(LinkId::ejection(node)).or_insert(0) += 1;
                    if flit.kind.is_tail() {
                        self.routers[from_router]
                            .input_at_mut(from_input)
                            .clear_route();
                        self.routers[from_router]
                            .output_mut(Direction::Local)
                            .unlock();
                    }
                    self.routers[from_router]
                        .output_mut(Direction::Local)
                        .forwarded(self.now, flow);
                    self.record_ejection(flit);
                }
            }
        }
    }

    fn record_ejection(&mut self, flit: Flit) {
        let idx = flit.packet.value() as usize;
        let entry = self.in_flight[idx]
            .as_mut()
            .expect("ejected flit for an already-completed packet");
        entry.flits_delivered += 1;
        if flit.kind.is_head() {
            entry.head_delivered_at = Some(self.now);
        }
        self.stats.flits_delivered += 1;
        if flit.kind.is_tail() {
            debug_assert_eq!(entry.flits_delivered, entry.flits, "flit loss detected");
            let record = self.in_flight[idx].take().expect("checked above");
            let head_at = record.head_delivered_at.unwrap_or(self.now);
            let delivered = DeliveredPacket {
                id: flit.packet,
                src: record.src,
                dest: record.dest,
                tag: record.tag,
                injected_at: record.injected_at,
                head_delivered_at: head_at,
                tail_delivered_at: self.now,
                hops: record.hops(self.config.mesh(), self.route_table.as_ref()),
                flits: record.flits,
            };
            self.stats.delivered += 1;
            self.stats.packet_latency.record(delivered.latency());
            self.stats
                .header_latency
                .record(head_at - record.injected_at);
            self.total_in_flight -= 1;
            self.delivered.push(delivered);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(w: u16, h: u16) -> ReferenceNetwork {
        ReferenceNetwork::new(NocConfig::builder(w, h).build().unwrap()).unwrap()
    }

    #[test]
    fn reference_delivers_a_packet() {
        let config = NocConfig::builder(4, 4).build().unwrap();
        let mut net = ReferenceNetwork::new(config).unwrap();
        let src = NodeId::new(0);
        let dst = NodeId::new(15);
        net.inject(Packet::new(src, dst, 4).with_tag(7)).unwrap();
        let delivered = net.run_until_idle(10_000).unwrap();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].tag, 7);
        assert_eq!(delivered[0].hops, 6);
        assert_eq!(net.in_flight(), 0);
        assert!(net.energy().total_energy() > 0.0);
        assert!(net.stats().idle_cycles == 0, "no quiet span to jump");
    }

    #[test]
    fn quiet_spans_are_jumped_within_the_budget() {
        let mut net = net(4, 1);
        let (src, dst) = (NodeId::new(0), NodeId::new(3));
        // Queued out of order; released in cycle order.
        net.inject_at(Packet::new(src, dst, 2).with_tag(2), 5_000)
            .unwrap();
        net.inject_at(Packet::new(src, dst, 2).with_tag(1), 1_000)
            .unwrap();
        let err = net.run_until_idle(3_000).unwrap_err();
        assert!(matches!(err, NocError::Timeout { in_flight: 1, .. }));
        assert_eq!(net.now(), 3_000, "jumps count against the budget");
        let delivered = net.run_until_idle(100_000).unwrap();
        let tags: Vec<u64> = delivered.iter().map(|d| d.tag).collect();
        assert_eq!(tags, [1, 2]);
        assert_eq!(delivered[1].injected_at, 5_000);
        assert!(net.stats().idle_cycles >= 4_000, "quiet spans were jumped");
        assert_eq!(net.energy().cycles(), net.now());
    }

    #[test]
    fn faults_must_precede_traffic_and_dead_links_carry_nothing() {
        let mut net = net(3, 1);
        let dead = NodeId::new(2);
        net.kill_router(dead).unwrap();
        net.kill_link(LinkId::cardinal(NodeId::new(0), Direction::East))
            .unwrap();
        let err = net
            .inject(Packet::new(NodeId::new(0), dead, 1))
            .unwrap_err();
        assert_eq!(err, NocError::DeadEndpoint { node: dead });
        net.inject(Packet::new(NodeId::new(0), NodeId::new(1), 1))
            .unwrap();
        assert!(net.kill_router(NodeId::new(1)).is_err());
        assert!(net.run_until_idle(200).is_err());
        assert!(net.link_flits().is_empty());
    }
}
