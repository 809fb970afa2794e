//! The cycle-level network simulator: one event-driven engine.
//!
//! Per simulated cycle the network performs, in order:
//!
//! 1. **Scheduled releases** — packets queued with [`Network::inject_at`]
//!    whose release cycle has arrived join their source node's injection
//!    queue, in (cycle, packet id) order.
//! 2. **Injection** — each node's pending flit stream feeds the source
//!    router's `Local` input FIFO, paced at one flit per flow-control
//!    latency (the core's network interface cannot outrun the channel).
//! 3. **Route computation** — a header flit at an unrouted input-FIFO
//!    head claims its output once the paper's *routing latency* has
//!    elapsed, via the configured routing algorithm or an installed
//!    [`RouteTable`].
//! 4. **Switch traversal** — every output port that is not pacing picks the
//!    locked input (wormhole) or arbitrates round-robin among routed
//!    headers, then forwards one flit if the downstream FIFO has a credit.
//!    Tail flits release the wormhole lock. Transfers are *staged* against
//!    start-of-cycle state and applied at once, so in-cycle ordering of
//!    routers cannot leak flits across multiple hops per cycle.
//! 5. **Ejection bookkeeping** — flits leaving a `Local` output at their
//!    destination are collected; when the tail arrives the packet is
//!    recorded as delivered.
//!
//! # One simulator, one oracle
//!
//! `Network` is the only live engine; planners, fidelity replay and the
//! benchmarks all drive it. It owes byte-identity to one oracle,
//! [`crate::reference::ReferenceNetwork`], the full-scan executable
//! specification of the semantics above: differential tests hold the
//! two to the same [`DeliveredPacket`] records, energy charges, link
//! counters and statistics, on raw traffic and on whole-schedule replays
//! over degraded meshes.
//!
//! # Layout
//!
//! Router, FIFO and injector state live in flat arrays — one allocation
//! per field, not one object per router:
//!
//! * input FIFOs are fixed-depth rings in a single `Vec<Flit>`, with
//!   per-port head/length cursors;
//! * route deadlines, routed outputs, wormhole locks, pacing deadlines and
//!   round-robin pointers are parallel arrays indexed by
//!   `node * 5 + port`;
//! * link-flit counters are a dense array (four cardinal directions plus
//!   the ejection link per node), materialised into the public
//!   [`LinkId`]-keyed map on demand;
//! * the `feeding` worklist and the per-cycle due set are bitsets whose
//!   ascending scan order matches the reference engine's router scan,
//!   keeping arbitration bit-identical.
//!
//! Scheduled releases sit on an event heap whose flit payloads live in an
//! arena of recycled buffers — draining a release hands its buffer back
//! to the arena, so steady-state replay stops allocating.
//!
//! # Time
//!
//! The engine is driven **event-first**: it never scans the mesh to
//! discover work — work announces itself.
//!
//! * Every pacing deadline is stored as an **absolute cycle**
//!   (`out_ready_at`, `inj_ready_at`, `route_ready_at`), so waiting
//!   cycles have no per-cycle side effects to replay. Route-computation
//!   deadlines in particular are armed eagerly — at the instant a header
//!   flit becomes the head of an unrouted FIFO — with the exact cycle the
//!   reference engine's per-cycle countdown reaches zero.
//! * Near-future router wake-ups land in a **wake ring** of `RING`
//!   per-cycle bitset slots (indexed `cycle % RING`); only deadlines
//!   beyond the ring fall back to an **attention heap** of
//!   `(cycle, router)` entries, which stays empty on the hot path. Credit
//!   stalls don't poll: the deny site flags the full downstream port
//!   (`wait_pop`) and the pop that frees it wakes the blocked upstream
//!   router precisely.
//! * A processed cycle touches only the routers named by this cycle's
//!   ring slot, due attention entries and this cycle's injections — in
//!   ascending router order, through the stage order above — so a cycle
//!   costs work proportional to the routers that can actually fire, not
//!   to every router holding flits.
//! * Between candidate cycles [`Network::run`] and
//!   [`Network::run_until_idle`] **jump**: busy spans (flits buffered
//!   somewhere) count as simulated cycles, all-idle spans as
//!   [`NetworkStats::idle_cycles`], and leakage flows through
//!   [`EnergyLedger::tick_many`], keeping deliveries, energy and link
//!   counters bit-identical to stepping each cycle. Idle routers, empty
//!   FIFOs and paced injectors thus cost zero work — the property
//!   whole-schedule test replay relies on, where sessions start millions
//!   of cycles apart.
//!
//! The conservative invariant that makes the jumps safe: any cycle at
//! which stepping would move a flit, assign a route, inject or release is
//! covered by a wake-ring bit, an attention entry, an injection deadline,
//! a release deadline or a credit-wait flag. Candidate cycles at which
//! nothing fires merely cost one cheap processed cycle.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::fmt;

use crate::config::NocConfig;
use crate::error::NocError;
use crate::flit::{Flit, FlitKind, Packet, PacketId};
use crate::geometry::Direction;
use crate::power::EnergyLedger;
use crate::router::paced_ready_at;
use crate::stats::NetworkStats;
use crate::table::RouteTable;
use crate::topology::{LinkId, Mesh, NodeId};

/// Record of one packet that completed its journey.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveredPacket {
    /// Id assigned at injection.
    pub id: PacketId,
    /// Source router.
    pub src: NodeId,
    /// Destination router.
    pub dest: NodeId,
    /// Caller tag from [`Packet::with_tag`].
    pub tag: u64,
    /// Cycle the packet entered the injection queue.
    pub injected_at: u64,
    /// Cycle the header flit was ejected at the destination.
    pub head_delivered_at: u64,
    /// Cycle the tail flit was ejected (packet completion).
    pub tail_delivered_at: u64,
    /// Router-to-router hops travelled.
    pub hops: u32,
    /// Total flits, header included.
    pub flits: u32,
}

impl DeliveredPacket {
    /// End-to-end latency in cycles (injection to tail ejection).
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.tail_delivered_at - self.injected_at
    }
}

/// Delivery bookkeeping for one injected packet, shared by the
/// live and the reference engine.
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    pub(crate) src: NodeId,
    pub(crate) dest: NodeId,
    pub(crate) tag: u64,
    pub(crate) injected_at: u64,
    pub(crate) head_delivered_at: Option<u64>,
    pub(crate) flits: u32,
    pub(crate) flits_delivered: u32,
}

impl InFlight {
    /// Router-to-router hops the packet travels: the Manhattan distance
    /// under algorithmic (minimal) routing, or the length of the next-hop
    /// chain when a detour table is installed.
    pub(crate) fn hops(&self, mesh: &Mesh, table: Option<&RouteTable>) -> u32 {
        match table {
            Some(table) => table.hops(mesh, self.src, self.dest),
            None => mesh.distance(self.src, self.dest),
        }
    }
}

/// Sentinel for "no routed output / no wormhole lock" in the `u8` arrays.
const NO_PORT: u8 = u8::MAX;
/// Sentinel for "no route computation pending" in the absolute
/// route-ready array.
const ROUTE_NONE: u64 = u64::MAX;
/// Local port index (injection FIFO / ejection output).
const LOCAL: usize = 4;
/// Wake-ring depth in cycles: near-future router wake-ups (retry next
/// cycle, pacing at `+flow`, route completion at `+1+latency`) land in a
/// ring of `RING` bitset slots indexed by `cycle % RING`; only deadlines
/// further out fall back to the attention heap. 16 covers every deadline
/// the engine arms under realistic latencies, so the heap stays empty on
/// the hot path.
const RING: usize = 16;
/// Per-node dense link-counter slots: E/W/N/S cardinal + ejection.
const LINK_SLOTS: usize = 5;

/// A packet waiting on the event heap for its release cycle; the flit
/// payload lives in the arena under `slot`.
#[derive(Debug, Clone, Copy)]
struct ScheduledEvent {
    at: u64,
    id: PacketId,
    node: u32,
    slot: u32,
}

// Releases are ordered by (cycle, packet id); node and arena slot are
// cargo, not identity — the same ordering the reference engine uses.
impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.id) == (other.at, other.id)
    }
}
impl Eq for ScheduledEvent {}
impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.id).cmp(&(other.at, other.id))
    }
}

/// A staged flit movement, decided against start-of-cycle state.
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

/// The simulator. See the [module docs](self) for the cycle semantics,
/// the array layout and the event-driven time advance.
pub struct Network {
    config: NocConfig,
    nodes: usize,
    depth: usize,
    /// Bitset words for `feeding`, `due_bits` and each ring slot.
    words: usize,

    // Router state, indexed node * 5 + port.
    fifo: Vec<Flit>,
    fifo_head: Vec<u32>,
    fifo_len: Vec<u32>,
    /// Absolute cycle at which the port's pending route computation
    /// completes (`ROUTE_NONE` when no header is waiting to route).
    route_ready_at: Vec<u64>,
    routed_output: Vec<u8>,
    out_locked: Vec<u8>,
    out_ready_at: Vec<u64>,
    out_rr: Vec<u8>,

    // Injector state, indexed by node.
    inj_flits: Vec<VecDeque<Flit>>,
    inj_ready_at: Vec<u64>,
    inj_queued: Vec<VecDeque<PacketId>>,

    // Dense link-flit counters, indexed node * LINK_SLOTS + direction
    // (Local slot = ejection link).
    link_count: Vec<u64>,

    /// Nodes with pending injection flits, as a bitset.
    feeding: Vec<u64>,
    /// Near-future wake-ups as a ring of per-cycle router bitsets,
    /// indexed `(cycle % RING) * words + word`. Slot `now % RING` is
    /// drained into the due set at the start of each processed cycle.
    ring: Vec<u64>,
    /// Set bits currently in the ring (lets the candidate scan skip an
    /// empty ring outright).
    ring_count: u32,
    /// Per-port credit-wait flags: set when switch traversal denies a hop
    /// for lack of downstream credit, cleared by the pop that frees the
    /// port, which wakes the blocked upstream router precisely.
    wait_pop: Vec<u8>,
    /// Per-port count of hops staged *this cycle* into the port's FIFO,
    /// valid only while `pend_stamp` matches the current cycle. Gives the
    /// credit check its same-cycle reservations in O(1) instead of
    /// rescanning the staged-move list.
    pend_cnt: Vec<u8>,
    /// Cycle stamp (now + 1, so zero never matches) qualifying `pend_cnt`.
    pend_stamp: Vec<u64>,
    /// Per-(router, output) bitmask of input ports whose head packet is
    /// routed to that output — `bit i` set iff
    /// `routed_output[input i] == output`. Lets arbitration skip an
    /// uncontested output on one load instead of probing all five
    /// inputs.
    out_inputs: Vec<u8>,
    /// Flits buffered per node across all five input FIFOs — the due-set
    /// occupancy filter without summing five lengths.
    node_flits: Vec<u32>,
    /// Scratch bitset assembling the due set for the cycle being
    /// processed.
    due_bits: Vec<u64>,

    now: u64,
    next_packet: u64,
    total_in_flight: usize,
    /// Flits currently buffered in router FIFOs: zero means the network
    /// is idle (only paced injections or scheduled releases remain).
    busy_flits: u64,
    in_flight: Vec<Option<InFlight>>,
    delivered: Vec<DeliveredPacket>,
    energy: EnergyLedger,
    stats: NetworkStats,
    scheduled: BinaryHeap<Reverse<ScheduledEvent>>,
    /// Future cycles at which a router's pacing or routing deadline can
    /// first matter, as `(cycle, router)` min-entries.
    attention: BinaryHeap<Reverse<(u64, u32)>>,

    // Event arena: recycled flit buffers for scheduled releases.
    arena: Vec<Vec<Flit>>,
    arena_free: Vec<u32>,

    // Fault and routing state.
    dead_routers: BTreeSet<usize>,
    /// Per-node mask of faulty outgoing cardinal links (bit = direction
    /// index), the fault state the switch stage reads.
    dead_out: Vec<u8>,
    route_table: Option<RouteTable>,

    // Reused per-cycle scratch.
    scratch: Vec<usize>,
    feed_scratch: Vec<usize>,
    moves: Vec<Move>,
    flit_scratch: Vec<Flit>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("mesh", self.config.mesh())
            .field("now", &self.now)
            .field("in_flight", &self.total_in_flight)
            .field("delivered", &self.delivered.len())
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Builds an idle network from a configuration.
    ///
    /// # Errors
    ///
    /// Currently infallible for a valid [`NocConfig`] but returns `Result`
    /// so resource limits can be enforced later without a breaking change.
    pub fn new(config: NocConfig) -> Result<Self, NocError> {
        let nodes = config.mesh().len();
        let depth = config.buffer_depth() as usize;
        let words = nodes.div_ceil(64);
        let ports = nodes * 5;
        let placeholder = Flit {
            packet: PacketId(0),
            kind: FlitKind::Head,
            dest: NodeId::new(0),
            seq: 0,
            data: 0,
        };
        Ok(Network {
            nodes,
            depth,
            words,
            fifo: vec![placeholder; ports * depth],
            fifo_head: vec![0; ports],
            fifo_len: vec![0; ports],
            route_ready_at: vec![ROUTE_NONE; ports],
            routed_output: vec![NO_PORT; ports],
            out_locked: vec![NO_PORT; ports],
            out_ready_at: vec![0; ports],
            out_rr: vec![0; ports],
            inj_flits: (0..nodes).map(|_| VecDeque::new()).collect(),
            inj_ready_at: vec![0; nodes],
            inj_queued: (0..nodes).map(|_| VecDeque::new()).collect(),
            link_count: vec![0; nodes * LINK_SLOTS],
            feeding: vec![0; words],
            ring: vec![0; RING * words],
            ring_count: 0,
            wait_pop: vec![0; ports],
            pend_cnt: vec![0; ports],
            pend_stamp: vec![0; ports],
            out_inputs: vec![0; ports],
            node_flits: vec![0; nodes],
            due_bits: vec![0; words],
            now: 0,
            next_packet: 0,
            total_in_flight: 0,
            busy_flits: 0,
            in_flight: Vec::new(),
            delivered: Vec::new(),
            energy: EnergyLedger::new(nodes, *config.power()),
            stats: NetworkStats::default(),
            scheduled: BinaryHeap::new(),
            attention: BinaryHeap::new(),
            arena: Vec::new(),
            arena_free: Vec::new(),
            dead_routers: BTreeSet::new(),
            dead_out: vec![0; nodes],
            route_table: None,
            scratch: Vec::new(),
            feed_scratch: Vec::new(),
            moves: Vec::new(),
            flit_scratch: Vec::new(),
            config,
        })
    }

    /// The mesh this network simulates.
    #[must_use]
    pub fn topology(&self) -> &Mesh {
        self.config.mesh()
    }

    /// The configuration the network was built from.
    #[must_use]
    pub fn config(&self) -> &NocConfig {
        &self.config
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

    /// Packets delivered so far (not drained by [`Network::take_delivered`]).
    #[must_use]
    pub fn delivered(&self) -> &[DeliveredPacket] {
        &self.delivered
    }

    /// Removes and returns all delivery records collected so far.
    pub fn take_delivered(&mut self) -> Vec<DeliveredPacket> {
        std::mem::take(&mut self.delivered)
    }

    /// Flits forwarded over each directed link so far (local ejection
    /// links included). Links that never carried a flit are absent. The
    /// map is materialised on demand from the dense counters.
    #[must_use]
    pub fn link_flits(&self) -> HashMap<LinkId, u64> {
        let mut map = HashMap::new();
        for node in 0..self.nodes {
            let base = node * LINK_SLOTS;
            for slot in 0..LINK_SLOTS {
                let count = self.link_count[base + slot];
                if count == 0 {
                    continue;
                }
                let from = NodeId::new(node as u32);
                let link = if slot == Direction::Local.index() {
                    LinkId::ejection(from)
                } else {
                    LinkId::cardinal(from, Direction::ALL[slot])
                };
                map.insert(link, count);
            }
        }
        map
    }

    /// Utilisation of a link: flits forwarded divided by the link's
    /// theoretical capacity (`cycles / flow_latency`). Returns 0 before
    /// any cycle has elapsed.
    #[must_use]
    pub fn link_utilization(&self, link: LinkId) -> f64 {
        if self.now == 0 {
            return 0.0;
        }
        let capacity = self.now as f64 / f64::from(self.config.flow_latency());
        let node = link.from.index();
        let slot = if link.into_core {
            Direction::Local.index()
        } else {
            link.dir.index()
        };
        let count = if node < self.nodes && slot < LINK_SLOTS {
            self.link_count[node * LINK_SLOTS + slot]
        } else {
            0
        };
        count as f64 / capacity
    }

    /// The most heavily used directed link and its utilisation, if any
    /// traffic flowed.
    #[must_use]
    pub fn hottest_link(&self) -> Option<(LinkId, f64)> {
        self.link_flits()
            .iter()
            .max_by_key(|&(_, &flits)| flits)
            .map(|(&link, _)| (link, self.link_utilization(link)))
    }

    /// Marks `node`'s router as faulty: packets can no longer be sourced
    /// at or addressed to it, and it is expected never to carry through
    /// traffic (install a detour [`RouteTable`] that routes around it).
    /// A dead router never buffers a flit, so it is never due and costs
    /// zero per-cycle work. Must be applied before any traffic is
    /// injected.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::NodeOutOfRange`] for a node outside the mesh
    /// and [`NocError::InvalidParameter`] if traffic was already injected.
    pub fn kill_router(&mut self, node: NodeId) -> Result<(), NocError> {
        self.config.mesh().check(node)?;
        self.check_pristine()?;
        self.dead_routers.insert(node.index());
        Ok(())
    }

    /// Marks a directed link as faulty: switch traversal will never stage
    /// a flit onto it. As with [`Network::kill_router`], the routing must
    /// be overridden to detour around the link. Must be applied before
    /// any traffic is injected.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::NodeOutOfRange`] for a link leaving a router
    /// outside the mesh and [`NocError::InvalidParameter`] if traffic was
    /// already injected.
    pub fn kill_link(&mut self, link: LinkId) -> Result<(), NocError> {
        self.config.mesh().check(link.from)?;
        self.check_pristine()?;
        if !link.into_core {
            self.dead_out[link.from.index()] |= 1 << link.dir.index();
        }
        Ok(())
    }

    /// Installs a per-pair routing table, overriding the configured
    /// algorithmic routing for every header flit routed from now on.
    /// Must be applied before any traffic is injected.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidParameter`] if the table does not cover
    /// this mesh or traffic was already injected.
    pub fn set_route_table(&mut self, table: RouteTable) -> Result<(), NocError> {
        table.check_len(self.config.mesh().len())?;
        self.check_pristine()?;
        self.route_table = Some(table);
        Ok(())
    }

    /// Fault marks and route overrides change path semantics; applying
    /// them mid-flight would corrupt wormhole state, so they are only
    /// legal before the first injection.
    fn check_pristine(&self) -> Result<(), NocError> {
        if self.next_packet > 0 {
            return Err(NocError::InvalidParameter {
                name: "faults",
                reason: "faults and route tables must be applied before traffic is injected",
            });
        }
        Ok(())
    }

    fn check_endpoints_alive(&self, packet: &Packet) -> Result<(), NocError> {
        let (src, dest) = (packet.src(), packet.dest());
        for node in [src, dest] {
            if self.dead_routers.contains(&node.index()) {
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

    /// Queues `packet` for immediate injection at its source node.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::NodeOutOfRange`] if the packet's endpoints are
    /// not in the mesh, [`NocError::DeadEndpoint`] if either endpoint is a
    /// faulty router, [`NocError::Unroutable`] if the route table has no
    /// route between them, and [`NocError::InjectionQueueFull`] if the
    /// per-node queue limit is reached.
    pub fn inject(&mut self, packet: Packet) -> Result<PacketId, NocError> {
        self.config.mesh().check(packet.src())?;
        self.config.mesh().check(packet.dest())?;
        self.check_endpoints_alive(&packet)?;
        let node = packet.src();
        let n = node.index();
        if self.inj_queued[n].len() >= self.config.injection_queue_capacity() {
            return Err(NocError::InjectionQueueFull { node });
        }
        let id = self.track(&packet, self.now);
        let mut buf = std::mem::take(&mut self.flit_scratch);
        buf.clear();
        packet.flits_into(id, &mut buf);
        self.inj_flits[n].extend(buf.drain(..));
        self.flit_scratch = buf;
        self.inj_queued[n].push_back(id);
        Self::bitset_insert(&mut self.feeding, n);
        Ok(id)
    }

    /// Schedules `packet` to join its source node's injection queue at
    /// `cycle` (clamped to the current cycle if already past). Until then
    /// it sits on the event heap — its flits in a recycled arena buffer —
    /// and costs nothing per cycle. This is how whole-schedule replay
    /// injects every session at its planned start without stepping
    /// through the idle span.
    ///
    /// Scheduled packets bypass the injection-queue capacity check: the
    /// release instants come from a planner that already paced the
    /// sessions, and a hard error surfacing mid-simulation would be
    /// unactionable.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::NodeOutOfRange`] if the packet's endpoints are
    /// not in the mesh, [`NocError::DeadEndpoint`] if either endpoint is a
    /// faulty router and [`NocError::Unroutable`] if the route table has
    /// no route between them.
    pub fn inject_at(&mut self, packet: Packet, cycle: u64) -> Result<PacketId, NocError> {
        self.config.mesh().check(packet.src())?;
        self.config.mesh().check(packet.dest())?;
        self.check_endpoints_alive(&packet)?;
        let at = cycle.max(self.now);
        let node = packet.src().index() as u32;
        let id = self.track(&packet, at);
        let slot = match self.arena_free.pop() {
            Some(slot) => slot,
            None => {
                self.arena.push(Vec::new());
                (self.arena.len() - 1) as u32
            }
        };
        let buf = &mut self.arena[slot as usize];
        buf.clear();
        packet.flits_into(id, buf);
        self.scheduled
            .push(Reverse(ScheduledEvent { at, id, node, slot }));
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

    /// Advances the simulation by exactly one cycle.
    pub fn step(&mut self) {
        self.energy.tick();
        self.stats.add_cycles(1);
        self.process_cycle();
        self.now += 1;
    }

    /// Runs for exactly `cycles` cycles, jumping over spans in which
    /// nothing can fire.
    pub fn run(&mut self, cycles: u64) {
        let mut left = cycles;
        while left > 0 {
            left -= self.advance(left);
        }
    }

    /// Runs until every injected packet has been delivered, then returns and
    /// drains the delivery records. Cycles jumped by the event core count
    /// against the budget exactly as stepped cycles do.
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
            spent += self.advance(max_cycles - spent);
        }
        Ok(self.take_delivered())
    }

    // ------------------------------------------------------------------
    // Index helpers.

    #[inline]
    fn pidx(node: usize, port: usize) -> usize {
        node * 5 + port
    }

    // ------------------------------------------------------------------
    // FIFO rings.

    #[inline]
    fn fifo_push(&mut self, p: usize, flit: Flit) {
        let len = self.fifo_len[p] as usize;
        assert!(len < self.depth, "input FIFO overflow: credit bug");
        // `head + len` wraps at most once round the ring; a compare-and-
        // subtract avoids a division by the runtime depth.
        let mut slot = self.fifo_head[p] as usize + len;
        if slot >= self.depth {
            slot -= self.depth;
        }
        self.fifo[p * self.depth + slot] = flit;
        self.fifo_len[p] += 1;
        self.node_flits[p / 5] += 1;
    }

    #[inline]
    fn fifo_pop(&mut self, p: usize) -> Option<Flit> {
        if self.fifo_len[p] == 0 {
            return None;
        }
        let head = self.fifo_head[p] as usize;
        let flit = self.fifo[p * self.depth + head];
        let next = head + 1;
        self.fifo_head[p] = if next == self.depth { 0 } else { next } as u32;
        self.fifo_len[p] -= 1;
        self.node_flits[p / 5] -= 1;
        Some(flit)
    }

    // ------------------------------------------------------------------
    // Worklist bitsets. Ascending bit scans reproduce the reference
    // engine's ascending router scan exactly.

    #[inline]
    fn bitset_insert(words: &mut [u64], node: usize) {
        words[node / 64] |= 1u64 << (node % 64);
    }

    #[inline]
    fn bitset_remove(words: &mut [u64], node: usize) {
        words[node / 64] &= !(1u64 << (node % 64));
    }

    fn collect_bits(words: &[u64], out: &mut Vec<usize>) {
        out.clear();
        for (wi, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(wi * 64 + b);
                bits &= bits - 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Time advancement.

    /// Advances the network by at least one and at most `budget` cycles.
    /// Returns the cycles consumed.
    fn advance(&mut self, budget: u64) -> u64 {
        debug_assert!(budget > 0);
        match self.next_candidate() {
            Some(at) if at <= self.now => {
                self.step();
                1
            }
            Some(at) => {
                let skip = (at - self.now).min(budget);
                self.skip_span(skip);
                skip
            }
            None => {
                // Nothing pending at all: either fully drained, or a
                // corrupt wormhole state that can never fire again.
                // Stepping would burn the caller's budget one cycle at a
                // time; consume it in one identical hop.
                self.skip_span(budget);
                budget
            }
        }
    }

    /// The earliest cycle at which anything can fire.
    ///
    /// A busy network (flits buffered in some router FIFO) consults the wake
    /// ring, the attention heap, unblocked paced injections and pending
    /// releases. An idle one consults only injections and releases — with
    /// every FIFO empty, leftover ring bits and attention entries are
    /// expired pacing deadlines that cannot matter before new traffic
    /// arrives, and skipping them keeps the idle-cycle accounting
    /// identical to the reference engine's quiet-span jump.
    fn next_candidate(&self) -> Option<u64> {
        let now = self.now;
        let busy = self.busy_flits > 0;
        let mut earliest = None;
        if busy && self.ring_count > 0 {
            'ring: for d in 0..RING as u64 {
                let slot = ((now + d) % RING as u64) as usize;
                let rbase = slot * self.words;
                for wi in 0..self.words {
                    if self.ring[rbase + wi] != 0 {
                        if d == 0 {
                            // Nothing can beat "due now".
                            return Some(now);
                        }
                        earliest = Some(now + d);
                        break 'ring;
                    }
                }
            }
        }
        if let Some(&Reverse(ev)) = self.scheduled.peek() {
            earliest = Some(earliest.map_or(ev.at, |e: u64| e.min(ev.at)));
        }
        if busy {
            if let Some(&Reverse((at, _))) = self.attention.peek() {
                earliest = Some(earliest.map_or(at, |e| e.min(at)));
            }
        }
        for (wi, &word) in self.feeding.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let node = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // A full local FIFO blocks the injector regardless of
                // pacing; the candidate scan re-checks occupancy live, so
                // the pop that frees it is picked up without a wake. An
                // idle network's FIFOs are all empty, so the check only
                // applies while busy.
                if busy && self.fifo_len[Self::pidx(node, LOCAL)] >= self.depth as u32 {
                    continue;
                }
                let ready = self.inj_ready_at[node];
                earliest = Some(earliest.map_or(ready, |e| e.min(ready)));
            }
        }
        earliest
    }

    /// Jumps `cycles` forward across a span in which nothing can fire,
    /// keeping every counter bit-identical to stepping: spans with flits
    /// buffered count as simulated (busy) cycles, all-idle spans as idle
    /// cycles, and leakage flows through the bulk
    /// [`EnergyLedger::tick_many`]. Absolute deadlines mean waiting has
    /// no per-cycle state to fold.
    fn skip_span(&mut self, cycles: u64) {
        debug_assert!(cycles > 0);
        self.energy.tick_many(cycles);
        self.stats.add_cycles(cycles);
        if self.busy_flits == 0 {
            self.stats.add_idle_cycles(cycles);
        }
        self.now += cycles;
    }

    /// Schedules a router re-examination at cycle `at`: a wake-ring bit
    /// for the near future, an attention-heap entry beyond the ring.
    /// Deadlines at or before the current cycle clamp to the next cycle —
    /// the current cycle's ring slot has already been drained, and a
    /// wake armed mid-cycle can first matter on the following one.
    #[inline]
    fn wake_router(&mut self, at: u64, node: usize) {
        let now = self.now;
        let at = at.max(now + 1);
        if at - now < RING as u64 {
            let slot = (at % RING as u64) as usize;
            let idx = slot * self.words + node / 64;
            let bit = 1u64 << (node % 64);
            if self.ring[idx] & bit == 0 {
                self.ring[idx] |= bit;
                self.ring_count += 1;
            }
        } else {
            self.attention.push(Reverse((at, node as u32)));
        }
    }

    // ------------------------------------------------------------------
    // One cycle of real work, in the reference engine's exact stage
    // order.

    fn process_cycle(&mut self) {
        self.release_due_packets();
        let now = self.now;
        let words = self.words;
        // Assemble the due set as a bitset: routers in this cycle's ring
        // slot, routers with an attention deadline that has arrived, and
        // routers that receive an injected flit this cycle. Everything
        // else is provably inert this cycle (its next deadline is in the
        // future or it is blocked on a resource whose release arms a
        // wake), so skipping it cannot change behaviour.
        let slot = (now % RING as u64) as usize;
        let rbase = slot * words;
        let mut drained = 0;
        for wi in 0..words {
            let w = self.ring[rbase + wi];
            self.due_bits[wi] = w;
            if w != 0 {
                drained += w.count_ones();
                self.ring[rbase + wi] = 0;
            }
        }
        self.ring_count -= drained;
        while let Some(&Reverse((at, node))) = self.attention.peek() {
            if at > now {
                break;
            }
            self.attention.pop();
            Self::bitset_insert(&mut self.due_bits, node as usize);
        }
        self.stage_injections();
        // The ascending bitset scan reproduces the reference engine's
        // ascending router scan (arbitration identity); the occupancy
        // filter drops routers with no buffered flit, which that scan
        // leaves untouched.
        let mut due = std::mem::take(&mut self.scratch);
        due.clear();
        for wi in 0..words {
            let mut bits = self.due_bits[wi];
            while bits != 0 {
                let node = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.node_flits[node] > 0 {
                    due.push(node);
                }
            }
        }
        let mut moves = std::mem::take(&mut self.moves);
        moves.clear();
        self.stage_routers(&due, &mut moves);
        self.apply_moves(&moves);
        self.moves = moves;
        self.scratch = due;
    }

    /// Moves every scheduled packet whose release cycle has arrived into
    /// its node's injection queue, in (cycle, packet id) order, returning
    /// the drained flit buffers to the arena.
    fn release_due_packets(&mut self) {
        let now = self.now;
        while let Some(Reverse(head)) = self.scheduled.peek() {
            if head.at > now {
                break;
            }
            let Reverse(release) = self.scheduled.pop().expect("peeked");
            let node = release.node as usize;
            let slot = release.slot as usize;
            self.inj_flits[node].extend(self.arena[slot].drain(..));
            self.arena_free.push(release.slot);
            self.inj_queued[node].push_back(release.id);
            Self::bitset_insert(&mut self.feeding, node);
        }
    }

    fn stage_injections(&mut self) {
        if self.feeding.iter().all(|&w| w == 0) {
            return;
        }
        let now = self.now;
        let flow = self.config.flow_latency();
        let latency = u64::from(self.config.routing_latency());
        // `feeding` nodes always hold flits; iterate a (reused) snapshot
        // since drained nodes leave the set as they empty.
        let mut feed_scratch = std::mem::take(&mut self.feed_scratch);
        Self::collect_bits(&self.feeding, &mut feed_scratch);
        for &node in &feed_scratch {
            if now < self.inj_ready_at[node] {
                continue;
            }
            let local = Self::pidx(node, LOCAL);
            if self.fifo_len[local] >= self.depth as u32 {
                // Blocked on occupancy, not pacing: the candidate scan
                // re-checks the FIFO live once the freeing pop lands.
                continue;
            }
            let flit = self.inj_flits[node]
                .pop_front()
                .expect("feeding node has flits");
            if flit.kind.is_tail() {
                self.inj_queued[node].pop_front();
            }
            let was_empty = self.fifo_len[local] == 0;
            self.fifo_push(local, flit);
            self.busy_flits += 1;
            self.inj_ready_at[node] = paced_ready_at(now, flow);
            if was_empty && flit.kind.is_head() {
                // A header exposed by injection starts route computation
                // this very cycle (the reference engine arms it in the
                // route phase that follows injection).
                let at = now + latency;
                self.route_ready_at[local] = at;
                if latency > 0 {
                    self.wake_router(at, node);
                }
            }
            Self::bitset_insert(&mut self.due_bits, node);
            if self.inj_flits[node].is_empty() {
                Self::bitset_remove(&mut self.feeding, node);
            }
        }
        self.feed_scratch = feed_scratch;
    }

    fn stage_routers(&mut self, due: &[usize], moves: &mut Vec<Move>) {
        let routing = self.config.routing();
        let mesh = self.config.mesh().clone();
        let now = self.now;
        let depth = self.depth;
        // Route computation and switch arbitration are fused per router:
        // arbitration only reads this router's own routed_output (set just
        // above) and neighbor occupancy, which staging never changes.
        // Only the due routers can source a move, and staging never
        // pops or pushes a FIFO, so reading occupancy live *is* the
        // start-of-cycle snapshot: a credit freed by a pop this cycle is
        // not consumed until the next cycle (pops happen in apply_moves).
        for &router_idx in due {
            let node = NodeId::new(router_idx as u32);
            let pbase = Self::pidx(router_idx, 0);
            for port in 0..5 {
                let p = pbase + port;
                if self.routed_output[p] != NO_PORT || self.fifo_len[p] == 0 {
                    continue;
                }
                let at = self.route_ready_at[p];
                if at == ROUTE_NONE || now < at {
                    continue;
                }
                let head = self.fifo[p * self.depth + self.fifo_head[p] as usize];
                // A body flit cannot appear at the head of an unrouted
                // input: the upstream wormhole lock guarantees ordering,
                // and arming happens only on header exposure.
                debug_assert!(head.kind.is_head(), "armed route on a body flit");
                let dest = head.dest;
                let dir = match &self.route_table {
                    Some(table) => table
                        .next_hop(node, dest)
                        .expect("route table has no route for an injected pair"),
                    None => routing.next_hop(mesh.position(node), mesh.position(dest)),
                };
                self.routed_output[p] = dir.index() as u8;
                self.out_inputs[pbase + dir.index()] |= 1 << port;
                self.route_ready_at[p] = ROUTE_NONE;
                self.energy.charge_route(node);
            }
            let dead_mask = self.dead_out[router_idx];
            for out_dir in Direction::ALL {
                // Faulty links carry nothing (the per-node mask never has
                // the Local bit set). A correct detour table never routes
                // a header onto one.
                if dead_mask & (1 << out_dir.index()) != 0 {
                    continue;
                }
                let o = pbase + out_dir.index();
                if now < self.out_ready_at[o] {
                    continue;
                }
                // Select the input to serve: wormhole lock wins, otherwise
                // round-robin over inputs routed to this output.
                let serving = match self.out_locked[o] {
                    NO_PORT => {
                        let mask = self.out_inputs[o];
                        if mask == 0 {
                            continue;
                        }
                        let start = self.out_rr[o] as usize;
                        let mut found = None;
                        for k in 0..5 {
                            let mut input = start + k;
                            if input >= 5 {
                                input -= 5;
                            }
                            if mask & (1 << input) != 0 && self.fifo_len[pbase + input] > 0 {
                                found = Some(input);
                                break;
                            }
                        }
                        found
                    }
                    locked => Some(locked as usize),
                };
                let Some(input) = serving else { continue };
                let p = pbase + input;
                if self.fifo_len[p] == 0 {
                    continue;
                }
                debug_assert_eq!(self.routed_output[p], out_dir.index() as u8);

                if out_dir == Direction::Local {
                    // Ejection link: the core always accepts.
                    moves.push(Move::Eject {
                        from_router: router_idx,
                        from_input: input,
                    });
                    self.lock_output(o, input);
                } else {
                    let neighbor = mesh
                        .neighbor(node, out_dir)
                        .expect("routing never leaves the mesh");
                    let in_dir = out_dir.opposite();
                    let q = Self::pidx(neighbor.index(), in_dir.index());
                    let stamp = now + 1;
                    let pending_here = if self.pend_stamp[q] == stamp {
                        self.pend_cnt[q] as usize
                    } else {
                        0
                    };
                    let occupancy = self.fifo_len[q] as usize;
                    if occupancy + pending_here >= depth {
                        // No credit downstream: register for the precise
                        // wake the freeing pop will deliver.
                        self.wait_pop[q] = 1;
                        continue;
                    }
                    if self.pend_stamp[q] == stamp {
                        self.pend_cnt[q] += 1;
                    } else {
                        self.pend_stamp[q] = stamp;
                        self.pend_cnt[q] = 1;
                    }
                    moves.push(Move::Hop {
                        from_router: router_idx,
                        from_input: input,
                        out_dir,
                        to_router: neighbor.index(),
                    });
                    self.lock_output(o, input);
                }
            }
        }
    }

    fn lock_output(&mut self, o: usize, input: usize) {
        if self.out_locked[o] == NO_PORT {
            self.out_locked[o] = input as u8;
            self.out_rr[o] = if input == 4 { 0 } else { (input + 1) as u8 };
        }
    }

    fn apply_moves(&mut self, moves: &[Move]) {
        let flow = self.config.flow_latency();
        let latency = u64::from(self.config.routing_latency());
        let now = self.now;
        for &mv in moves {
            match mv {
                Move::Hop {
                    from_router,
                    from_input,
                    out_dir,
                    to_router,
                } => {
                    let p = Self::pidx(from_router, from_input);
                    let flit = self.fifo_pop(p).expect("staged move lost its flit");
                    let node = NodeId::new(from_router as u32);
                    self.energy.charge_flit_hop(node);
                    let l = from_router * LINK_SLOTS + out_dir.index();
                    self.link_count[l] = self.link_count[l].saturating_add(1);
                    let o = Self::pidx(from_router, out_dir.index());
                    let was_tail = flit.kind.is_tail();
                    if was_tail {
                        self.routed_output[p] = NO_PORT;
                        self.out_inputs[o] &= !(1 << from_input);
                        self.route_ready_at[p] = ROUTE_NONE;
                        self.out_locked[o] = NO_PORT;
                    }
                    let paced = paced_ready_at(now, flow);
                    self.out_ready_at[o] = paced;
                    // The output comes off pacing at `paced`: the next
                    // flit of this stream (or a lock/arbitration loser)
                    // may fire then.
                    self.wake_router(paced, from_router);
                    self.after_pop(from_router, from_input, p, was_tail, latency);
                    let in_dir = out_dir.opposite();
                    let q = Self::pidx(to_router, in_dir.index());
                    let dest_was_empty = self.fifo_len[q] == 0;
                    self.fifo_push(q, flit);
                    if dest_was_empty {
                        if flit.kind.is_head() {
                            // A header exposed by arrival is first seen by
                            // the route phase next cycle.
                            let at = now + 1 + latency;
                            self.route_ready_at[q] = at;
                            self.wake_router(at, to_router);
                        } else {
                            // A body flit at a FIFO head continues its
                            // established wormhole next cycle.
                            self.wake_router(now + 1, to_router);
                        }
                    }
                }
                Move::Eject {
                    from_router,
                    from_input,
                } => {
                    let p = Self::pidx(from_router, from_input);
                    let flit = self.fifo_pop(p).expect("staged ejection lost its flit");
                    let node = NodeId::new(from_router as u32);
                    self.energy.charge_flit_hop(node);
                    let l = from_router * LINK_SLOTS + Direction::Local.index();
                    self.link_count[l] = self.link_count[l].saturating_add(1);
                    let o = Self::pidx(from_router, Direction::Local.index());
                    let was_tail = flit.kind.is_tail();
                    if was_tail {
                        self.routed_output[p] = NO_PORT;
                        self.out_inputs[o] &= !(1 << from_input);
                        self.route_ready_at[p] = ROUTE_NONE;
                        self.out_locked[o] = NO_PORT;
                    }
                    let paced = paced_ready_at(now, flow);
                    self.out_ready_at[o] = paced;
                    self.wake_router(paced, from_router);
                    self.after_pop(from_router, from_input, p, was_tail, latency);
                    self.busy_flits -= 1;
                    self.record_ejection(flit);
                }
            }
        }
    }

    /// Wake-up bookkeeping shared by every pop: a tail pop may expose the
    /// next packet's header, whose route computation the reference
    /// engine would arm on its next scan, and the freed slot is a
    /// credit — if an upstream router registered a credit wait on this
    /// port, it gets its wake now. (A blocked injector needs no wake: the
    /// candidate scan re-checks local-FIFO occupancy live.)
    fn after_pop(
        &mut self,
        from_router: usize,
        from_input: usize,
        p: usize,
        was_tail: bool,
        latency: u64,
    ) {
        let now = self.now;
        if was_tail && self.fifo_len[p] > 0 {
            let at = now + 1 + latency;
            self.route_ready_at[p] = at;
            self.wake_router(at, from_router);
        }
        if self.wait_pop[p] != 0 {
            self.wait_pop[p] = 0;
            debug_assert_ne!(from_input, LOCAL, "credit waits only arm cardinal ports");
            let node = NodeId::new(from_router as u32);
            let feeder = self
                .config
                .mesh()
                .neighbor(node, Direction::ALL[from_input])
                .map(|n| n.index());
            if let Some(up) = feeder {
                self.wake_router(now + 1, up);
            }
        }
    }

    fn record_ejection(&mut self, flit: Flit) {
        let now = self.now;
        let idx = flit.packet.value() as usize;
        let entry = self.in_flight[idx]
            .as_mut()
            .expect("ejected flit for an already-completed packet");
        entry.flits_delivered += 1;
        if flit.kind.is_head() {
            entry.head_delivered_at = Some(now);
        }
        let stats = &mut self.stats;
        stats.flits_delivered = stats.flits_delivered.saturating_add(1);
        if flit.kind.is_tail() {
            debug_assert_eq!(entry.flits_delivered, entry.flits, "flit loss detected");
            let record = self.in_flight[idx].take().expect("checked above");
            let head_at = record.head_delivered_at.unwrap_or(now);
            let delivered = DeliveredPacket {
                id: flit.packet,
                src: record.src,
                dest: record.dest,
                tag: record.tag,
                injected_at: record.injected_at,
                head_delivered_at: head_at,
                tail_delivered_at: now,
                hops: record.hops(self.config.mesh(), self.route_table.as_ref()),
                flits: record.flits,
            };
            let stats = &mut self.stats;
            stats.delivered = stats.delivered.saturating_add(1);
            stats.packet_latency.record(delivered.latency());
            stats.header_latency.record(head_at - record.injected_at);
            self.total_in_flight -= 1;
            self.delivered.push(delivered);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::NocError;
    use crate::geometry::Direction;
    use crate::routing::RoutingKind;

    fn net(w: u16, h: u16) -> Network {
        Network::new(NocConfig::builder(w, h).build().unwrap()).unwrap()
    }

    #[test]
    fn single_packet_is_delivered() {
        let mut net = net(4, 4);
        let src = net.topology().node_at(0, 0).unwrap();
        let dst = net.topology().node_at(3, 3).unwrap();
        net.inject(Packet::new(src, dst, 4).with_tag(99)).unwrap();
        let delivered = net.run_until_idle(10_000).unwrap();
        assert_eq!(delivered.len(), 1);
        let p = &delivered[0];
        assert_eq!(p.src, src);
        assert_eq!(p.dest, dst);
        assert_eq!(p.tag, 99);
        assert_eq!(p.hops, 6);
        assert_eq!(p.flits, 5);
        assert!(p.head_delivered_at <= p.tail_delivered_at);
        assert!(p.latency() > 0);
    }

    #[test]
    fn self_addressed_packet_loops_through_local() {
        let mut net = net(2, 2);
        let n = NodeId::new(0);
        net.inject(Packet::new(n, n, 2)).unwrap();
        let delivered = net.run_until_idle(1_000).unwrap();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].hops, 0);
    }

    #[test]
    fn many_packets_all_arrive() {
        let mut net = net(4, 4);
        let mesh = net.topology().clone();
        let mut expected = 0;
        for s in mesh.nodes() {
            for d in mesh.nodes() {
                if s != d {
                    net.inject(Packet::new(s, d, 3)).unwrap();
                    expected += 1;
                }
            }
        }
        let delivered = net.run_until_idle(1_000_000).unwrap();
        assert_eq!(delivered.len(), expected);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn wormhole_keeps_flits_in_order() {
        // Flit ordering is implied by per-packet seq delivery; the tail
        // arriving with all flits accounted (debug_assert in
        // record_ejection) plus delivery implies order preservation.
        let mut net = net(3, 3);
        let src = NodeId::new(0);
        let dst = net.topology().node_at(2, 2).unwrap();
        for _ in 0..10 {
            net.inject(Packet::new(src, dst, 7)).unwrap();
        }
        let delivered = net.run_until_idle(100_000).unwrap();
        assert_eq!(delivered.len(), 10);
        // Same source, same path: wormhole must deliver in injection order.
        for w in delivered.windows(2) {
            assert!(w[0].tail_delivered_at <= w[1].tail_delivered_at);
        }
    }

    #[test]
    fn longer_paths_take_longer() {
        let mut net = net(8, 1);
        let src = NodeId::new(0);
        let near = NodeId::new(1);
        let far = NodeId::new(7);
        net.inject(Packet::new(src, near, 4)).unwrap();
        let t_near = net.run_until_idle(10_000).unwrap()[0].latency();
        let mut net2 = net2_factory();
        net2.inject(Packet::new(src, far, 4)).unwrap();
        let t_far = net2.run_until_idle(10_000).unwrap()[0].latency();
        assert!(t_far > t_near, "far {t_far} should exceed near {t_near}");

        fn net2_factory() -> Network {
            Network::new(NocConfig::builder(8, 1).build().unwrap()).unwrap()
        }
    }

    #[test]
    fn flow_latency_paces_delivery() {
        let fast = NocConfig::builder(4, 1).flow_latency(1).build().unwrap();
        let slow = NocConfig::builder(4, 1).flow_latency(4).build().unwrap();
        let src = NodeId::new(0);
        let dst = NodeId::new(3);
        let mut fast_net = Network::new(fast).unwrap();
        fast_net.inject(Packet::new(src, dst, 64)).unwrap();
        let t_fast = fast_net.run_until_idle(100_000).unwrap()[0].latency();
        let mut slow_net = Network::new(slow).unwrap();
        slow_net.inject(Packet::new(src, dst, 64)).unwrap();
        let t_slow = slow_net.run_until_idle(100_000).unwrap()[0].latency();
        assert!(
            t_slow > t_fast * 2,
            "flow latency 4 ({t_slow}) should be >2x flow latency 1 ({t_fast})"
        );
    }

    #[test]
    fn energy_charged_per_hop() {
        let mut net = net(4, 1);
        let src = NodeId::new(0);
        let dst = NodeId::new(3);
        net.inject(Packet::new(src, dst, 2)).unwrap();
        net.run_until_idle(10_000).unwrap();
        // 3 flits x (3 hops + 1 ejection) flit-hop charges.
        assert_eq!(net.energy().flit_hops(), 3 * 4);
        // Route computed at each of the 4 routers on the path.
        assert_eq!(net.energy().routes(), 4);
        assert!(net.energy().total_energy() > 0.0);
    }

    #[test]
    fn timeout_reports_in_flight() {
        let mut net = net(4, 4);
        let src = NodeId::new(0);
        let dst = net.topology().node_at(3, 3).unwrap();
        net.inject(Packet::new(src, dst, 100)).unwrap();
        let err = net.run_until_idle(3).unwrap_err();
        assert!(matches!(err, NocError::Timeout { in_flight: 1, .. }));
    }

    #[test]
    fn injection_queue_capacity_enforced() {
        let cfg = NocConfig::builder(2, 2)
            .injection_queue_capacity(1)
            .build()
            .unwrap();
        let mut net = Network::new(cfg).unwrap();
        let src = NodeId::new(0);
        let dst = NodeId::new(3);
        net.inject(Packet::new(src, dst, 1)).unwrap();
        let err = net.inject(Packet::new(src, dst, 1)).unwrap_err();
        assert_eq!(err, NocError::InjectionQueueFull { node: src });
    }

    #[test]
    fn inject_rejects_foreign_nodes() {
        let mut net = net(2, 2);
        let err = net
            .inject(Packet::new(NodeId::new(0), NodeId::new(9), 1))
            .unwrap_err();
        assert!(matches!(err, NocError::NodeOutOfRange { .. }));
        let err = net
            .inject_at(Packet::new(NodeId::new(9), NodeId::new(0), 1), 100)
            .unwrap_err();
        assert!(matches!(err, NocError::NodeOutOfRange { .. }));
    }

    #[test]
    fn stats_track_deliveries() {
        let mut net = net(3, 3);
        net.inject(Packet::new(NodeId::new(0), NodeId::new(8), 3))
            .unwrap();
        net.inject(Packet::new(NodeId::new(8), NodeId::new(0), 3))
            .unwrap();
        net.run_until_idle(10_000).unwrap();
        assert_eq!(net.stats().delivered, 2);
        assert_eq!(net.stats().flits_delivered, 8);
        assert!(net.stats().packet_latency.mean().unwrap() > 0.0);
        assert!(net.stats().throughput_flits_per_cycle() > 0.0);
    }

    #[test]
    fn yx_routing_also_delivers() {
        let cfg = NocConfig::builder(4, 4)
            .routing(RoutingKind::Yx)
            .build()
            .unwrap();
        let mut net = Network::new(cfg).unwrap();
        let mesh = net.topology().clone();
        for s in mesh.nodes() {
            let d = NodeId::new((mesh.len() as u32 - 1) - u32::from(s));
            if s != d {
                net.inject(Packet::new(s, d, 2)).unwrap();
            }
        }
        let delivered = net.run_until_idle(1_000_000).unwrap();
        assert_eq!(delivered.len(), 16);
    }

    #[test]
    fn link_accounting_tracks_every_hop() {
        let mut net = net(4, 1);
        let src = NodeId::new(0);
        let dst = NodeId::new(3);
        net.inject(Packet::new(src, dst, 2)).unwrap();
        net.run_until_idle(10_000).unwrap();
        // 3 flits crossed links 0-E, 1-E, 2-E and ejected at 3.
        use crate::topology::LinkId;
        for n in 0..3 {
            let link = LinkId::cardinal(NodeId::new(n), Direction::East);
            assert_eq!(net.link_flits().get(&link), Some(&3));
            assert!(net.link_utilization(link) > 0.0);
        }
        assert_eq!(net.link_flits().get(&LinkId::ejection(dst)), Some(&3));
        let (hot, util) = net.hottest_link().unwrap();
        assert!(net.link_flits()[&hot] == 3);
        assert!(util <= 1.0);
    }

    #[test]
    fn utilization_zero_before_time_advances() {
        let net = net(2, 2);
        use crate::topology::LinkId;
        assert_eq!(
            net.link_utilization(LinkId::cardinal(NodeId::new(0), Direction::East)),
            0.0
        );
        assert!(net.hottest_link().is_none());
    }

    #[test]
    fn opposing_streams_share_the_network() {
        // Two long streams in opposite directions must interleave without
        // deadlock (XY on a mesh is deadlock-free).
        let mut network = net(6, 1);
        let left = NodeId::new(0);
        let right = NodeId::new(5);
        for _ in 0..20 {
            network.inject(Packet::new(left, right, 8)).unwrap();
            network.inject(Packet::new(right, left, 8)).unwrap();
        }
        let delivered = network.run_until_idle(1_000_000).unwrap();
        assert_eq!(delivered.len(), 40);
    }

    #[test]
    fn scheduled_injection_releases_at_its_cycle() {
        let mut net = net(4, 1);
        let src = NodeId::new(0);
        let dst = NodeId::new(3);
        net.inject_at(Packet::new(src, dst, 2).with_tag(1), 1_000)
            .unwrap();
        assert_eq!(net.in_flight(), 1);
        let delivered = net.run_until_idle(10_000).unwrap();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].injected_at, 1_000);
        assert!(delivered[0].tail_delivered_at > 1_000);
        // The idle span before the release was fast-forwarded, not stepped.
        assert!(
            net.stats().idle_cycles >= 999,
            "skipped {} cycles",
            net.stats().idle_cycles
        );
    }

    #[test]
    fn scheduled_injection_matches_a_shifted_immediate_one() {
        // A packet released at cycle C must deliver exactly C cycles later
        // than the same packet injected at cycle 0 on an idle mesh.
        let mut immediate = net(5, 1);
        let src = NodeId::new(0);
        let dst = NodeId::new(4);
        immediate.inject(Packet::new(src, dst, 6)).unwrap();
        let base = immediate.run_until_idle(10_000).unwrap()[0].tail_delivered_at;

        let mut scheduled = net(5, 1);
        scheduled
            .inject_at(Packet::new(src, dst, 6), 12_345)
            .unwrap();
        let shifted = scheduled.run_until_idle(100_000).unwrap()[0].tail_delivered_at;
        assert_eq!(shifted, base + 12_345);
    }

    #[test]
    fn scheduled_releases_keep_packet_order_per_node() {
        let mut net = net(6, 1);
        let src = NodeId::new(0);
        let dst = NodeId::new(5);
        // Queued out of order; released in cycle order, ids break ties.
        net.inject_at(Packet::new(src, dst, 2).with_tag(2), 500)
            .unwrap();
        net.inject_at(Packet::new(src, dst, 2).with_tag(1), 100)
            .unwrap();
        let delivered = net.run_until_idle(100_000).unwrap();
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered[0].tag, 1);
        assert_eq!(delivered[1].tag, 2);
        assert_eq!(delivered[0].injected_at, 100);
        assert_eq!(delivered[1].injected_at, 500);
    }

    #[test]
    fn inject_at_in_the_past_releases_now() {
        let mut net = net(3, 1);
        net.run(50);
        net.inject_at(Packet::new(NodeId::new(0), NodeId::new(2), 1), 10)
            .unwrap();
        let delivered = net.run_until_idle(10_000).unwrap();
        assert_eq!(delivered[0].injected_at, 50);
    }

    #[test]
    fn run_on_idle_network_is_one_jump() {
        let mut net = net(8, 8);
        net.run(1_000_000);
        assert_eq!(net.now(), 1_000_000);
        assert_eq!(net.stats().cycles, 1_000_000);
        assert_eq!(net.stats().idle_cycles, 1_000_000);
        assert_eq!(net.energy().cycles(), 1_000_000);
    }

    #[test]
    fn step_always_advances_exactly_one_cycle() {
        let mut net = net(2, 2);
        net.step();
        assert_eq!(net.now(), 1);
        assert_eq!(net.stats().cycles, 1);
        net.inject_at(Packet::new(NodeId::new(0), NodeId::new(3), 1), 5)
            .unwrap();
        for _ in 0..4 {
            net.step();
        }
        assert_eq!(net.now(), 5);
        // Release cycle: the first flit enters the source router.
        net.step();
        assert_eq!(net.now(), 6);
        assert!(net.in_flight() > 0);
    }

    #[test]
    fn dead_endpoints_reject_injection() {
        let mut net = net(3, 3);
        let dead = net.topology().node_at(1, 1).unwrap();
        net.kill_router(dead).unwrap();
        let err = net
            .inject(Packet::new(dead, NodeId::new(0), 1))
            .unwrap_err();
        assert_eq!(err, NocError::DeadEndpoint { node: dead });
        let err = net
            .inject_at(Packet::new(NodeId::new(0), dead, 1), 50)
            .unwrap_err();
        assert_eq!(err, NocError::DeadEndpoint { node: dead });
    }

    #[test]
    fn faults_must_precede_traffic() {
        let mut net = net(2, 2);
        net.inject(Packet::new(NodeId::new(0), NodeId::new(3), 1))
            .unwrap();
        assert!(net.kill_router(NodeId::new(1)).is_err());
        assert!(net
            .kill_link(LinkId::cardinal(NodeId::new(0), Direction::East))
            .is_err());
    }

    #[test]
    fn route_table_detours_around_a_dead_router() {
        use crate::table::RouteTable;
        // 3x1 row with the middle router dead cannot route 0 -> 2 at all;
        // use a 3x2 mesh and a hand-built detour over the top row.
        let cfg = NocConfig::builder(3, 2).build().unwrap();
        let mut net = Network::new(cfg).unwrap();
        let mesh = net.topology().clone();
        let dead = mesh.node_at(1, 0).unwrap();
        let src = mesh.node_at(0, 0).unwrap();
        let dst = mesh.node_at(2, 0).unwrap();
        // Detour: 0,0 -> 0,1 -> 1,1 -> 2,1 -> 2,0 (4 hops instead of 2).
        let table = RouteTable::from_fn(&mesh, |here, d| {
            if here == d {
                return Some(Direction::Local);
            }
            if d != dst {
                // Only the src->dst pair is exercised; route the rest XY.
                return Some(RoutingKind::Xy.next_hop(mesh.position(here), mesh.position(d)));
            }
            let p = mesh.position(here);
            Some(match (p.x, p.y) {
                (0, 0) => Direction::North,
                (_, 1) if p.x < 2 => Direction::East,
                (2, 1) => Direction::South,
                _ => Direction::East,
            })
        });
        net.kill_router(dead).unwrap();
        net.set_route_table(table).unwrap();
        net.inject(Packet::new(src, dst, 3)).unwrap();
        let delivered = net.run_until_idle(10_000).unwrap();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].hops, 4, "detour length is reported");
        // The dead router carried nothing.
        for link in net.link_flits().keys() {
            assert_ne!(link.from, dead, "dead router forwarded a flit");
        }
    }

    #[test]
    fn a_pair_the_route_table_cannot_route_is_refused_at_injection() {
        use crate::reference::ReferenceNetwork;
        use crate::table::RouteTable;
        let cfg = NocConfig::builder(3, 1).build().unwrap();
        let mesh = Network::new(cfg.clone()).unwrap().topology().clone();
        let (src, dest) = (NodeId::new(0), NodeId::new(2));
        // Every pair routes XY except `src -> dest`, which the table does
        // not cover; the reverse direction still routes.
        let table = || {
            RouteTable::from_fn(&mesh, |here, d| {
                (here != src || d != dest)
                    .then(|| RoutingKind::Xy.next_hop(mesh.position(here), mesh.position(d)))
            })
        };
        let unroutable = Err(NocError::Unroutable { src, dest });
        let mut net = Network::new(cfg.clone()).unwrap();
        net.set_route_table(table()).unwrap();
        assert_eq!(
            net.inject(Packet::new(src, dest, 1)).map(|_| ()),
            unroutable
        );
        assert_eq!(
            net.inject_at(Packet::new(src, dest, 1), 9).map(|_| ()),
            unroutable
        );
        net.inject(Packet::new(dest, src, 1)).unwrap();
        assert_eq!(net.run_until_idle(1_000).unwrap().len(), 1);
        let mut reference = ReferenceNetwork::new(cfg).unwrap();
        reference.set_route_table(table()).unwrap();
        assert_eq!(
            reference.inject(Packet::new(src, dest, 1)).map(|_| ()),
            unroutable
        );
        assert_eq!(
            NocError::Unroutable { src, dest }.to_string(),
            "the route table has no route from node n0 to node n2"
        );
    }

    #[test]
    fn dead_link_blocks_staging_even_without_a_table() {
        // Kill the only XY link out of the source toward the destination:
        // the packet can never advance and times out rather than crossing
        // the dead link.
        let mut net = net(3, 1);
        let src = NodeId::new(0);
        let dst = NodeId::new(2);
        net.kill_link(LinkId::cardinal(src, Direction::East))
            .unwrap();
        net.inject(Packet::new(src, dst, 1)).unwrap();
        let err = net.run_until_idle(5_000).unwrap_err();
        assert!(matches!(err, NocError::Timeout { .. }));
        assert!(net.link_flits().is_empty(), "no flit crossed any link");
    }

    #[test]
    fn timeout_budget_counts_skipped_cycles() {
        let mut net = net(4, 1);
        net.inject_at(Packet::new(NodeId::new(0), NodeId::new(3), 2), 10_000)
            .unwrap();
        // The packet cannot finish within 500 cycles: the release alone is
        // 10k cycles out, and the skip must not overshoot the budget.
        let err = net.run_until_idle(500).unwrap_err();
        assert!(matches!(err, NocError::Timeout { in_flight: 1, .. }));
        assert!(net.now() <= 500);
    }

    #[test]
    fn busy_skip_matches_pure_stepping() {
        // Drive one copy with step() only and one through the jumping
        // run_until_idle: deliveries, clocks and energy must agree, and
        // no jumped busy cycle may be counted as idle.
        let build = || {
            let mut n = net(4, 4);
            for i in 0..8u64 {
                let src = NodeId::new((i % 16) as u32);
                let dst = NodeId::new(((i * 7 + 1) % 16) as u32);
                if src == dst {
                    continue;
                }
                n.inject_at(Packet::new(src, dst, 5).with_tag(i), i * 3)
                    .unwrap();
            }
            n
        };
        let mut stepped = build();
        while stepped.in_flight() > 0 {
            stepped.step();
        }
        let stepped_delivered = stepped.take_delivered();
        let mut skipped = build();
        let skipped_delivered = skipped.run_until_idle(1_000_000).unwrap();
        assert_eq!(skipped_delivered, stepped_delivered);
        assert_eq!(skipped.now(), stepped.now());
        assert_eq!(skipped.energy(), stepped.energy());
        assert_eq!(skipped.link_flits(), stepped.link_flits());
        // All the traffic overlaps in time: nothing here is an idle span,
        // so the jumping engine must report the same zero idle cycles the
        // stepper does even though it jumped over pacing-dead cycles.
        assert_eq!(skipped.stats().idle_cycles, stepped.stats().idle_cycles);
        assert_eq!(skipped.stats().cycles, stepped.stats().cycles);
    }

    #[test]
    fn arena_recycles_release_buffers() {
        let mut net = net(2, 1);
        for round in 0..4u64 {
            net.inject_at(
                Packet::new(NodeId::new(0), NodeId::new(1), 6),
                round * 1_000,
            )
            .unwrap();
        }
        net.run_until_idle(100_000).unwrap();
        // Every scheduled release handed its buffer back.
        assert_eq!(net.arena.len(), net.arena_free.len());
        assert!(net.arena.len() <= 4);
    }
}
