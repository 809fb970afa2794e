//! The batch-parallel simulation core: N identical-topology meshes in
//! struct-of-arrays lanes.
//!
//! [`BatchNetwork`] is *the* cycle-level engine — [`crate::Network`] is its
//! 1-lane view, so the sequential path is not a fork of this code. The
//! engine owes byte-identity to one oracle,
//! [`crate::reference::ReferenceNetwork`] (the full-scan executable
//! specification): differential tests hold the two to the same
//! [`DeliveredPacket`] records, energy charges and link counters, on raw
//! traffic and on whole-schedule replays over degraded meshes.
//!
//! # Layout
//!
//! Router, FIFO and injector state live in flat lane-major arrays — one
//! allocation per field, not one object per router:
//!
//! * input FIFOs are fixed-depth rings in a single `Vec<Flit>`, with
//!   per-port head/length cursors;
//! * route countdowns, routed outputs, wormhole locks, pacing deadlines and
//!   round-robin pointers are parallel arrays indexed by
//!   `(lane * nodes + node) * 5 + port`;
//! * link-flit counters are a dense per-lane array (four cardinal
//!   directions plus the ejection link per node), materialised into the
//!   public [`LinkId`]-keyed map on demand;
//! * the `active` / `feeding` worklists are per-lane bitsets whose
//!   ascending scan order matches the ordered-set iteration of the
//!   sequential engines, keeping arbitration bit-identical.
//!
//! Scheduled releases sit on per-lane event heaps whose flit payloads live
//! in a shared arena of recycled buffers — draining a release hands its
//! buffer back to the arena, so steady-state batch replay stops allocating.
//!
//! # Time
//!
//! Each lane has its own clock, driven **event-first**: the engine never
//! scans the mesh to discover work — work announces itself.
//!
//! * Every pacing deadline is stored as an **absolute cycle**
//!   (`out_ready_at`, `inj_ready_at`, `route_ready_at`), so waiting
//!   cycles have no per-cycle side effects to replay. Route-computation
//!   countdowns in particular are armed eagerly — at the instant a
//!   header flit becomes the head of an unrouted FIFO — with the exact
//!   cycle the lazy per-cycle countdown of the sequential engines would
//!   have reached zero.
//! * Near-future router wake-ups land in a per-lane **wake ring** of
//!   `RING` per-cycle bitset slots (indexed `cycle % RING`); only
//!   deadlines beyond the ring fall back to a per-lane **attention
//!   heap** of `(cycle, router)` entries, which stays empty on the hot
//!   path. Credit stalls don't poll: the deny site flags the full
//!   downstream port (`wait_pop`) and the pop that frees it wakes the
//!   blocked upstream router precisely.
//! * A processed cycle touches only the routers named by this cycle's
//!   ring slot, due attention entries and this cycle's injections — in
//!   ascending router order, through the sequential engine's exact
//!   stage order (release, inject, route, stage switch traversal,
//!   apply) — so a cycle costs work proportional to the routers that
//!   can actually fire, not to every router holding flits.
//! * Between candidate cycles the lane **jumps**: busy spans (flits
//!   buffered somewhere) count as simulated cycles, all-idle spans as
//!   [`crate::NetworkStats::idle_cycles`], and leakage flows through
//!   [`crate::EnergyLedger::tick_many`], keeping every counter
//!   bit-identical to stepping each cycle.
//!
//! The conservative invariant that makes the jumps safe: any cycle at
//! which the stepped engines would move a flit, assign a route, inject
//! or release is covered by a wake-ring bit, an attention entry, an
//! injection deadline, a release deadline or a credit-wait flag.
//! Candidate cycles at which nothing fires merely cost one cheap
//! processed cycle.
//!
//! [`BatchNetwork::run_all_until_idle`] drains lanes sequentially —
//! each lane runs to completion before the next starts — so one lane's
//! struct-of-arrays slice (a few KiB) stays cache-resident for its
//! whole event stream instead of every lane's state thrashing through
//! the cache once per wave.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::fmt;

use crate::config::NocConfig;
use crate::error::NocError;
use crate::flit::{Flit, FlitKind, Packet, PacketId};
use crate::geometry::Direction;
use crate::network::{DeliveredPacket, InFlight};
use crate::power::EnergyLedger;
use crate::router::paced_ready_at;
use crate::stats::NetworkStats;
use crate::table::RouteTable;
use crate::topology::{LinkId, Mesh, NodeId};

/// Sentinel for "no routed output / no wormhole lock" in the `u8` arrays.
const NO_PORT: u8 = u8::MAX;
/// Sentinel for "no route computation pending" in the absolute
/// route-ready array.
const ROUTE_NONE: u64 = u64::MAX;
/// Local port index (injection FIFO / ejection output).
const LOCAL: usize = 4;
/// Wake-ring depth in cycles: near-future router wake-ups (retry next
/// cycle, pacing at `+flow`, route completion at `+1+latency`) land in a
/// per-lane ring of `RING` bitset slots indexed by `cycle % RING`; only
/// deadlines further out fall back to the attention heap. 16 covers every
/// deadline the engine arms under realistic latencies, so the heap stays
/// empty on the hot path.
const RING: usize = 16;
/// Per-node dense link-counter slots: E/W/N/S cardinal + ejection.
const LINK_SLOTS: usize = 5;

/// A packet waiting on a lane's event heap for its release cycle; the flit
/// payload lives in the shared arena under `slot`.
#[derive(Debug, Clone, Copy)]
struct ScheduledEvent {
    at: u64,
    id: PacketId,
    node: u32,
    slot: u32,
}

// Releases are ordered by (cycle, packet id); node and arena slot are
// cargo, not identity — the same ordering the sequential engine used.
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

/// N identical-topology meshes simulated lane-parallel over
/// struct-of-arrays state. See the [module docs](self).
pub struct BatchNetwork {
    config: NocConfig,
    lanes: usize,
    nodes: usize,
    depth: usize,
    /// Bitset words per lane for `feeding` / `retry`.
    words: usize,

    // Struct-of-arrays router state, indexed (lane * nodes + node) * 5 + port.
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

    // Injector state, indexed lane * nodes + node.
    inj_flits: Vec<VecDeque<Flit>>,
    inj_ready_at: Vec<u64>,
    inj_queued: Vec<VecDeque<PacketId>>,

    // Dense link-flit counters, indexed (lane * nodes + node) * LINK_SLOTS
    // + direction (Local slot = ejection link).
    link_count: Vec<u64>,

    // Worklist bitsets, lane-major words.
    feeding: Vec<u64>,
    /// Near-future wake-ups as a ring of per-cycle router bitsets,
    /// indexed `(lane * RING + cycle % RING) * words + word`. Slot
    /// `now % RING` is drained into the due set at the start of each
    /// processed cycle.
    ring: Vec<u64>,
    /// Set bits currently in each lane's ring (lets the candidate scan
    /// skip an empty ring outright).
    ring_count: Vec<u32>,
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
    /// Per-(lane, router, output) bitmask of input ports whose head
    /// packet is routed to that output — `bit i` set iff
    /// `routed_output[input i] == output`. Lets arbitration skip an
    /// uncontested output on one load instead of probing all five
    /// inputs.
    out_inputs: Vec<u8>,
    /// Flits buffered per (lane, node) across all five input FIFOs — the
    /// due-set occupancy filter without summing five lengths.
    node_flits: Vec<u32>,
    /// Scratch bitset (one lane's worth) assembling the due set for the
    /// cycle being processed.
    due_bits: Vec<u64>,

    // Per-lane scalars and collections.
    now: Vec<u64>,
    next_packet: Vec<u64>,
    total_in_flight: Vec<usize>,
    /// Flits currently buffered in router FIFOs, per lane: zero means the
    /// lane is idle (only paced injections or scheduled releases remain).
    busy_flits: Vec<u64>,
    in_flight: Vec<Vec<Option<InFlight>>>,
    delivered: Vec<Vec<DeliveredPacket>>,
    energy: Vec<EnergyLedger>,
    stats: Vec<NetworkStats>,
    scheduled: Vec<BinaryHeap<Reverse<ScheduledEvent>>>,
    /// Future cycles at which a router's pacing or routing deadline can
    /// first matter, as `(cycle, router)` min-entries.
    attention: Vec<BinaryHeap<Reverse<(u64, u32)>>>,

    // Shared event arena: recycled flit buffers for scheduled releases.
    arena: Vec<Vec<Flit>>,
    arena_free: Vec<u32>,

    // Batch-wide fault and routing state (lanes share one topology).
    dead_routers: BTreeSet<usize>,
    /// Per-node mask of faulty outgoing cardinal links (bit = direction
    /// index), the fault state the switch stage reads.
    dead_out: Vec<u8>,
    route_table: Option<RouteTable>,

    // Reused per-cycle scratch (shared across lanes; one lane steps at a
    // time within a wave).
    scratch: Vec<usize>,
    feed_scratch: Vec<usize>,
    moves: Vec<Move>,
    flit_scratch: Vec<Flit>,
}

impl fmt::Debug for BatchNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchNetwork")
            .field("mesh", self.config.mesh())
            .field("lanes", &self.lanes)
            .field("in_flight", &self.total_in_flight.iter().sum::<usize>())
            .finish_non_exhaustive()
    }
}

impl BatchNetwork {
    /// Builds `lanes` idle copies of the configured mesh.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidParameter`] if `lanes` is zero.
    pub fn new(config: NocConfig, lanes: usize) -> Result<Self, NocError> {
        if lanes == 0 {
            return Err(NocError::InvalidParameter {
                name: "lanes",
                reason: "a batch needs at least one lane",
            });
        }
        let nodes = config.mesh().len();
        let depth = config.buffer_depth() as usize;
        let words = nodes.div_ceil(64);
        let ports = lanes * nodes * 5;
        let placeholder = Flit {
            packet: PacketId(0),
            kind: FlitKind::Head,
            dest: NodeId::new(0),
            seq: 0,
            data: 0,
        };
        Ok(BatchNetwork {
            lanes,
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
            inj_flits: (0..lanes * nodes).map(|_| VecDeque::new()).collect(),
            inj_ready_at: vec![0; lanes * nodes],
            inj_queued: (0..lanes * nodes).map(|_| VecDeque::new()).collect(),
            link_count: vec![0; lanes * nodes * LINK_SLOTS],
            feeding: vec![0; lanes * words],
            ring: vec![0; lanes * RING * words],
            ring_count: vec![0; lanes],
            wait_pop: vec![0; ports],
            pend_cnt: vec![0; ports],
            pend_stamp: vec![0; ports],
            out_inputs: vec![0; ports],
            node_flits: vec![0; lanes * nodes],
            due_bits: vec![0; words],
            now: vec![0; lanes],
            next_packet: vec![0; lanes],
            total_in_flight: vec![0; lanes],
            busy_flits: vec![0; lanes],
            in_flight: (0..lanes).map(|_| Vec::new()).collect(),
            delivered: (0..lanes).map(|_| Vec::new()).collect(),
            energy: (0..lanes)
                .map(|_| EnergyLedger::new(nodes, *config.power()))
                .collect(),
            stats: (0..lanes).map(|_| NetworkStats::default()).collect(),
            scheduled: (0..lanes).map(|_| BinaryHeap::new()).collect(),
            attention: (0..lanes).map(|_| BinaryHeap::new()).collect(),
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

    /// Number of lanes in the batch.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The mesh every lane simulates.
    #[must_use]
    pub fn topology(&self) -> &Mesh {
        self.config.mesh()
    }

    /// The configuration the batch was built from.
    #[must_use]
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Current simulation time of one lane, in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range (as do all per-lane accessors).
    #[must_use]
    pub fn now(&self, lane: usize) -> u64 {
        self.now[lane]
    }

    /// Packets injected into `lane` but not yet fully delivered
    /// (scheduled releases included).
    #[must_use]
    pub fn in_flight(&self, lane: usize) -> usize {
        self.total_in_flight[lane]
    }

    /// Energy ledger accumulated by one lane.
    #[must_use]
    pub fn energy(&self, lane: usize) -> &EnergyLedger {
        &self.energy[lane]
    }

    /// Statistics accumulated by one lane.
    #[must_use]
    pub fn stats(&self, lane: usize) -> &NetworkStats {
        &self.stats[lane]
    }

    /// Packets delivered by one lane so far (not drained by
    /// [`BatchNetwork::take_delivered`]).
    #[must_use]
    pub fn delivered(&self, lane: usize) -> &[DeliveredPacket] {
        &self.delivered[lane]
    }

    /// Removes and returns one lane's delivery records.
    pub fn take_delivered(&mut self, lane: usize) -> Vec<DeliveredPacket> {
        std::mem::take(&mut self.delivered[lane])
    }

    /// Flits forwarded over each directed link of one lane (local ejection
    /// links included). Links that never carried a flit are absent — the
    /// same map the sequential engine exposes, materialised from the dense
    /// per-lane counters.
    #[must_use]
    pub fn link_flits(&self, lane: usize) -> HashMap<LinkId, u64> {
        assert!(lane < self.lanes, "lane out of range");
        let mut map = HashMap::new();
        for node in 0..self.nodes {
            let base = (lane * self.nodes + node) * LINK_SLOTS;
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

    /// Utilisation of a link on one lane: flits forwarded divided by the
    /// link's theoretical capacity (`cycles / flow_latency`). Returns 0
    /// before any cycle has elapsed.
    #[must_use]
    pub fn link_utilization(&self, lane: usize, link: LinkId) -> f64 {
        if self.now[lane] == 0 {
            return 0.0;
        }
        let capacity = self.now[lane] as f64 / f64::from(self.config.flow_latency());
        let node = link.from.index();
        let slot = if link.into_core {
            Direction::Local.index()
        } else {
            link.dir.index()
        };
        let count = if node < self.nodes && slot < LINK_SLOTS {
            self.link_count[(lane * self.nodes + node) * LINK_SLOTS + slot]
        } else {
            0
        };
        count as f64 / capacity
    }

    /// The most heavily used directed link of one lane and its
    /// utilisation, if any traffic flowed.
    #[must_use]
    pub fn hottest_link(&self, lane: usize) -> Option<(LinkId, f64)> {
        self.link_flits(lane)
            .iter()
            .max_by_key(|&(_, &flits)| flits)
            .map(|(&link, _)| (link, self.link_utilization(lane, link)))
    }

    /// Marks a router faulty on **every** lane — batches share one fault
    /// set, which is why the planner's `ReplayBatch` groups work by
    /// fault class. Must be applied before any lane injects traffic.
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

    /// Marks a directed link faulty on every lane: switch traversal will
    /// never stage a flit onto it. Must be applied before any traffic.
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

    /// Installs a per-pair routing table for every lane, overriding the
    /// configured algorithmic routing. Must be applied before any traffic.
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
    /// legal before the first injection on any lane.
    fn check_pristine(&self) -> Result<(), NocError> {
        if self.next_packet.iter().any(|&n| n > 0) {
            return Err(NocError::InvalidParameter {
                name: "faults",
                reason: "faults and route tables must be applied before traffic is injected",
            });
        }
        Ok(())
    }

    fn check_endpoints_alive(&self, packet: &Packet) -> Result<(), NocError> {
        for node in [packet.src(), packet.dest()] {
            if self.dead_routers.contains(&node.index()) {
                return Err(NocError::DeadEndpoint { node });
            }
        }
        Ok(())
    }

    /// Queues `packet` for immediate injection at its source node on one
    /// lane.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::NodeOutOfRange`] if the packet's endpoints are
    /// not in the mesh, [`NocError::DeadEndpoint`] if either endpoint is a
    /// faulty router, and [`NocError::InjectionQueueFull`] if the per-node
    /// queue limit is reached.
    pub fn inject(&mut self, lane: usize, packet: Packet) -> Result<PacketId, NocError> {
        self.config.mesh().check(packet.src())?;
        self.config.mesh().check(packet.dest())?;
        self.check_endpoints_alive(&packet)?;
        let node = packet.src();
        let n = self.nidx(lane, node.index());
        if self.inj_queued[n].len() >= self.config.injection_queue_capacity() {
            return Err(NocError::InjectionQueueFull { node });
        }
        let id = self.track(lane, &packet, self.now[lane]);
        let mut buf = std::mem::take(&mut self.flit_scratch);
        buf.clear();
        packet.flits_into(id, &mut buf);
        self.inj_flits[n].extend(buf.drain(..));
        self.flit_scratch = buf;
        self.inj_queued[n].push_back(id);
        self.feeding_set(lane, node.index());
        Ok(id)
    }

    /// Schedules `packet` to join its source node's injection queue on one
    /// lane at `cycle` (clamped to the lane's current cycle if already
    /// past). Until then it sits on the lane's event heap — its flits in a
    /// recycled arena buffer — and costs nothing per cycle.
    ///
    /// Scheduled packets bypass the injection-queue capacity check, as in
    /// the sequential engine: release instants come from a planner that
    /// already paced the sessions.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::NodeOutOfRange`] if the packet's endpoints are
    /// not in the mesh and [`NocError::DeadEndpoint`] if either endpoint
    /// is a faulty router.
    pub fn inject_at(
        &mut self,
        lane: usize,
        packet: Packet,
        cycle: u64,
    ) -> Result<PacketId, NocError> {
        self.config.mesh().check(packet.src())?;
        self.config.mesh().check(packet.dest())?;
        self.check_endpoints_alive(&packet)?;
        let at = cycle.max(self.now[lane]);
        let node = packet.src().index() as u32;
        let id = self.track(lane, &packet, at);
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
        self.scheduled[lane].push(Reverse(ScheduledEvent { at, id, node, slot }));
        Ok(id)
    }

    fn track(&mut self, lane: usize, packet: &Packet, injected_at: u64) -> PacketId {
        let id = PacketId(self.next_packet[lane]);
        self.next_packet[lane] += 1;
        self.in_flight[lane].push(Some(InFlight {
            src: packet.src(),
            dest: packet.dest(),
            tag: packet.tag(),
            injected_at,
            head_delivered_at: None,
            flits: packet.total_flits(),
            flits_delivered: 0,
        }));
        self.total_in_flight[lane] += 1;
        id
    }

    /// Advances one lane by exactly one cycle.
    pub fn step(&mut self, lane: usize) {
        self.energy[lane].tick();
        self.stats[lane].add_cycles(1);
        self.process_cycle(lane);
        self.now[lane] += 1;
    }

    /// Runs one lane for exactly `cycles` cycles, fast-forwarding idle
    /// spans and folding pacing-dead busy spans.
    pub fn run(&mut self, lane: usize, cycles: u64) {
        let mut left = cycles;
        while left > 0 {
            left -= self.advance(lane, left);
        }
    }

    /// Runs one lane until every injected packet has been delivered, then
    /// returns and drains its delivery records. Cycles skipped by the
    /// event core count against the budget exactly as stepped cycles do.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Timeout`] if the lane has not drained within
    /// `max_cycles`.
    pub fn run_until_idle(
        &mut self,
        lane: usize,
        max_cycles: u64,
    ) -> Result<Vec<DeliveredPacket>, NocError> {
        let mut spent = 0;
        while self.total_in_flight[lane] > 0 {
            if spent >= max_cycles {
                return Err(NocError::Timeout {
                    budget: max_cycles,
                    in_flight: self.total_in_flight[lane],
                });
            }
            spent += self.advance(lane, max_cycles - spent);
        }
        Ok(self.take_delivered(lane))
    }

    /// Drains every lane and returns per-lane results, in lane order, each
    /// exactly what [`BatchNetwork::run_until_idle`] would have returned.
    ///
    /// Lanes are fully independent, so the drain order is free to optimise
    /// for locality: each lane runs to completion before the next starts,
    /// keeping one lane's struct-of-arrays slice (a few KiB) resident in
    /// cache for its whole event stream instead of thrashing every lane's
    /// state through the cache once per wave.
    ///
    /// # Panics
    ///
    /// Panics unless `max_cycles` supplies one budget per lane.
    pub fn run_all_until_idle(
        &mut self,
        max_cycles: &[u64],
    ) -> Vec<Result<Vec<DeliveredPacket>, NocError>> {
        assert_eq!(max_cycles.len(), self.lanes, "one budget per lane");
        (0..self.lanes)
            .map(|lane| self.run_until_idle(lane, max_cycles[lane]))
            .collect()
    }

    // ------------------------------------------------------------------
    // Index helpers.

    #[inline]
    fn nidx(&self, lane: usize, node: usize) -> usize {
        lane * self.nodes + node
    }

    #[inline]
    fn pidx(&self, lane: usize, node: usize, port: usize) -> usize {
        (lane * self.nodes + node) * 5 + port
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
    // Worklist bitsets. Ascending bit scans reproduce the ordered-set
    // iteration of the sequential engines exactly.

    #[inline]
    fn bitset_insert(words: &mut [u64], base: usize, node: usize) {
        words[base + node / 64] |= 1u64 << (node % 64);
    }

    #[inline]
    fn bitset_remove(words: &mut [u64], base: usize, node: usize) {
        words[base + node / 64] &= !(1u64 << (node % 64));
    }

    fn feeding_set(&mut self, lane: usize, node: usize) {
        Self::bitset_insert(&mut self.feeding, lane * self.words, node);
    }

    fn feeding_clear(&mut self, lane: usize, node: usize) {
        Self::bitset_remove(&mut self.feeding, lane * self.words, node);
    }

    fn feeding_is_empty(&self, lane: usize) -> bool {
        let base = lane * self.words;
        self.feeding[base..base + self.words]
            .iter()
            .all(|&w| w == 0)
    }

    fn collect_bits(words: &[u64], base: usize, count: usize, out: &mut Vec<usize>) {
        out.clear();
        for (wi, &word) in words[base..base + count].iter().enumerate() {
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

    /// Advances one lane by at least one and at most `budget` cycles.
    /// Returns the cycles consumed.
    fn advance(&mut self, lane: usize, budget: u64) -> u64 {
        debug_assert!(budget > 0);
        match self.next_candidate(lane) {
            Some(at) if at <= self.now[lane] => {
                self.step(lane);
                1
            }
            Some(at) => {
                let skip = (at - self.now[lane]).min(budget);
                self.skip_span(lane, skip);
                skip
            }
            None => {
                // Nothing pending at all: either fully drained, or a
                // corrupt wormhole state that can never fire again. The
                // stepped engines would burn the caller's budget one
                // cycle at a time; consume it in one identical hop.
                self.skip_span(lane, budget);
                budget
            }
        }
    }

    /// The earliest cycle at which anything can fire on a lane.
    ///
    /// Busy lanes (flits buffered in some router FIFO) consult the wake
    /// ring, the attention heap, unblocked paced injections and pending
    /// releases. Idle lanes consult only injections and releases — with
    /// every FIFO empty, leftover ring bits and attention entries are
    /// expired pacing deadlines that cannot matter before new traffic
    /// arrives, and skipping them keeps the idle-cycle accounting
    /// identical to the sequential engines' idle fast-forward.
    fn next_candidate(&self, lane: usize) -> Option<u64> {
        let now = self.now[lane];
        let busy = self.busy_flits[lane] > 0;
        let mut earliest = None;
        if busy && self.ring_count[lane] > 0 {
            'ring: for d in 0..RING as u64 {
                let slot = ((now + d) % RING as u64) as usize;
                let rbase = (lane * RING + slot) * self.words;
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
        if let Some(&Reverse(ev)) = self.scheduled[lane].peek() {
            earliest = Some(earliest.map_or(ev.at, |e: u64| e.min(ev.at)));
        }
        if busy {
            if let Some(&Reverse((at, _))) = self.attention[lane].peek() {
                earliest = Some(earliest.map_or(at, |e| e.min(at)));
            }
        }
        let base = lane * self.words;
        for (wi, &word) in self.feeding[base..base + self.words].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let node = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // A full local FIFO blocks the injector regardless of
                // pacing; the candidate scan re-checks occupancy live, so
                // the pop that frees it is picked up without a wake. An
                // idle lane's FIFOs are all empty, so the check only
                // applies while busy.
                if busy && self.fifo_len[self.pidx(lane, node, LOCAL)] >= self.depth as u32 {
                    continue;
                }
                let ready = self.inj_ready_at[self.nidx(lane, node)];
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
    fn skip_span(&mut self, lane: usize, cycles: u64) {
        debug_assert!(cycles > 0);
        self.energy[lane].tick_many(cycles);
        self.stats[lane].add_cycles(cycles);
        if self.busy_flits[lane] == 0 {
            self.stats[lane].add_idle_cycles(cycles);
        }
        self.now[lane] += cycles;
    }

    /// Schedules a router re-examination at cycle `at`: a wake-ring bit
    /// for the near future, an attention-heap entry beyond the ring.
    /// Deadlines at or before the current cycle clamp to the next cycle —
    /// the current cycle's ring slot has already been drained, and a
    /// wake armed mid-cycle can first matter on the following one.
    #[inline]
    fn wake_router(&mut self, lane: usize, at: u64, node: usize) {
        let now = self.now[lane];
        let at = at.max(now + 1);
        if at - now < RING as u64 {
            let slot = (at % RING as u64) as usize;
            let idx = (lane * RING + slot) * self.words + node / 64;
            let bit = 1u64 << (node % 64);
            if self.ring[idx] & bit == 0 {
                self.ring[idx] |= bit;
                self.ring_count[lane] += 1;
            }
        } else {
            self.attention[lane].push(Reverse((at, node as u32)));
        }
    }

    // ------------------------------------------------------------------
    // One cycle of real work, in the sequential engine's exact stage
    // order.

    fn process_cycle(&mut self, lane: usize) {
        self.release_due_packets(lane);
        let now = self.now[lane];
        let words = self.words;
        // Assemble the due set as a bitset: routers in this cycle's ring
        // slot, routers with an attention deadline that has arrived, and
        // routers that receive an injected flit this cycle. Everything
        // else is provably inert this cycle (its next deadline is in the
        // future or it is blocked on a resource whose release arms a
        // wake), so skipping it cannot change behaviour.
        let slot = (now % RING as u64) as usize;
        let rbase = (lane * RING + slot) * words;
        let mut drained = 0;
        for wi in 0..words {
            let w = self.ring[rbase + wi];
            self.due_bits[wi] = w;
            if w != 0 {
                drained += w.count_ones();
                self.ring[rbase + wi] = 0;
            }
        }
        self.ring_count[lane] -= drained;
        while let Some(&Reverse((at, node))) = self.attention[lane].peek() {
            if at > now {
                break;
            }
            self.attention[lane].pop();
            Self::bitset_insert(&mut self.due_bits, 0, node as usize);
        }
        self.stage_injections(lane);
        // The ascending bitset scan reproduces the ordered-set iteration
        // of the sequential engines (arbitration identity); the occupancy
        // filter reproduces their worklist membership (buffered flits
        // only).
        let mut due = std::mem::take(&mut self.scratch);
        due.clear();
        for wi in 0..words {
            let mut bits = self.due_bits[wi];
            while bits != 0 {
                let node = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.node_flits[self.nidx(lane, node)] > 0 {
                    due.push(node);
                }
            }
        }
        let mut moves = std::mem::take(&mut self.moves);
        moves.clear();
        self.stage_routers(lane, &due, &mut moves);
        self.apply_moves(lane, &moves);
        self.moves = moves;
        self.scratch = due;
    }

    /// Moves every scheduled packet whose release cycle has arrived into
    /// its node's injection queue, in (cycle, packet id) order, returning
    /// the drained flit buffers to the arena.
    fn release_due_packets(&mut self, lane: usize) {
        let now = self.now[lane];
        while let Some(Reverse(head)) = self.scheduled[lane].peek() {
            if head.at > now {
                break;
            }
            let Reverse(release) = self.scheduled[lane].pop().expect("peeked");
            let node = release.node as usize;
            let n = self.nidx(lane, node);
            let slot = release.slot as usize;
            self.inj_flits[n].extend(self.arena[slot].drain(..));
            self.arena_free.push(release.slot);
            self.inj_queued[n].push_back(release.id);
            self.feeding_set(lane, node);
        }
    }

    fn stage_injections(&mut self, lane: usize) {
        if self.feeding_is_empty(lane) {
            return;
        }
        let now = self.now[lane];
        let flow = self.config.flow_latency();
        let latency = u64::from(self.config.routing_latency());
        // `feeding` nodes always hold flits; iterate a (reused) snapshot
        // since drained nodes leave the set as they empty.
        let mut feed_scratch = std::mem::take(&mut self.feed_scratch);
        Self::collect_bits(
            &self.feeding,
            lane * self.words,
            self.words,
            &mut feed_scratch,
        );
        for &node in &feed_scratch {
            let n = self.nidx(lane, node);
            if now < self.inj_ready_at[n] {
                continue;
            }
            let local = self.pidx(lane, node, LOCAL);
            if self.fifo_len[local] >= self.depth as u32 {
                // Blocked on occupancy, not pacing: the candidate scan
                // re-checks the FIFO live once the freeing pop lands.
                continue;
            }
            let flit = self.inj_flits[n]
                .pop_front()
                .expect("feeding node has flits");
            if flit.kind.is_tail() {
                self.inj_queued[n].pop_front();
            }
            let was_empty = self.fifo_len[local] == 0;
            self.fifo_push(local, flit);
            self.busy_flits[lane] += 1;
            self.inj_ready_at[n] = paced_ready_at(now, flow);
            if was_empty && flit.kind.is_head() {
                // A header exposed by injection starts route computation
                // this very cycle (the sequential engines arm it in the
                // route phase that follows injection).
                let at = now + latency;
                self.route_ready_at[local] = at;
                if latency > 0 {
                    self.wake_router(lane, at, node);
                }
            }
            Self::bitset_insert(&mut self.due_bits, 0, node);
            if self.inj_flits[n].is_empty() {
                self.feeding_clear(lane, node);
            }
        }
        self.feed_scratch = feed_scratch;
    }

    fn stage_routers(&mut self, lane: usize, due: &[usize], moves: &mut Vec<Move>) {
        let routing = self.config.routing();
        let mesh = self.config.mesh().clone();
        let now = self.now[lane];
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
            let pbase = self.pidx(lane, router_idx, 0);
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
                self.energy[lane].charge_route(node);
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
                    let q = self.pidx(lane, neighbor.index(), in_dir.index());
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

    fn apply_moves(&mut self, lane: usize, moves: &[Move]) {
        let flow = self.config.flow_latency();
        let latency = u64::from(self.config.routing_latency());
        let now = self.now[lane];
        for &mv in moves {
            match mv {
                Move::Hop {
                    from_router,
                    from_input,
                    out_dir,
                    to_router,
                } => {
                    let p = self.pidx(lane, from_router, from_input);
                    let flit = self.fifo_pop(p).expect("staged move lost its flit");
                    let node = NodeId::new(from_router as u32);
                    self.energy[lane].charge_flit_hop(node);
                    let l = (lane * self.nodes + from_router) * LINK_SLOTS + out_dir.index();
                    self.link_count[l] = self.link_count[l].saturating_add(1);
                    let o = self.pidx(lane, from_router, out_dir.index());
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
                    self.wake_router(lane, paced, from_router);
                    self.after_pop(lane, from_router, from_input, p, was_tail, latency);
                    let in_dir = out_dir.opposite();
                    let q = self.pidx(lane, to_router, in_dir.index());
                    let dest_was_empty = self.fifo_len[q] == 0;
                    self.fifo_push(q, flit);
                    if dest_was_empty {
                        if flit.kind.is_head() {
                            // A header exposed by arrival is first seen by
                            // the route phase next cycle.
                            let at = now + 1 + latency;
                            self.route_ready_at[q] = at;
                            self.wake_router(lane, at, to_router);
                        } else {
                            // A body flit at a FIFO head continues its
                            // established wormhole next cycle.
                            self.wake_router(lane, now + 1, to_router);
                        }
                    }
                }
                Move::Eject {
                    from_router,
                    from_input,
                } => {
                    let p = self.pidx(lane, from_router, from_input);
                    let flit = self.fifo_pop(p).expect("staged ejection lost its flit");
                    let node = NodeId::new(from_router as u32);
                    self.energy[lane].charge_flit_hop(node);
                    let l =
                        (lane * self.nodes + from_router) * LINK_SLOTS + Direction::Local.index();
                    self.link_count[l] = self.link_count[l].saturating_add(1);
                    let o = self.pidx(lane, from_router, Direction::Local.index());
                    let was_tail = flit.kind.is_tail();
                    if was_tail {
                        self.routed_output[p] = NO_PORT;
                        self.out_inputs[o] &= !(1 << from_input);
                        self.route_ready_at[p] = ROUTE_NONE;
                        self.out_locked[o] = NO_PORT;
                    }
                    let paced = paced_ready_at(now, flow);
                    self.out_ready_at[o] = paced;
                    self.wake_router(lane, paced, from_router);
                    self.after_pop(lane, from_router, from_input, p, was_tail, latency);
                    self.busy_flits[lane] -= 1;
                    self.record_ejection(lane, flit);
                }
            }
        }
    }

    /// Wake-up bookkeeping shared by every pop: a tail pop may expose the
    /// next packet's header, whose route computation the sequential
    /// engines would arm on their next scan, and the freed slot is a
    /// credit — if an upstream router registered a credit wait on this
    /// port, it gets its wake now. (A blocked injector needs no wake: the
    /// candidate scan re-checks local-FIFO occupancy live.)
    fn after_pop(
        &mut self,
        lane: usize,
        from_router: usize,
        from_input: usize,
        p: usize,
        was_tail: bool,
        latency: u64,
    ) {
        let now = self.now[lane];
        if was_tail && self.fifo_len[p] > 0 {
            let at = now + 1 + latency;
            self.route_ready_at[p] = at;
            self.wake_router(lane, at, from_router);
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
                self.wake_router(lane, now + 1, up);
            }
        }
    }

    fn record_ejection(&mut self, lane: usize, flit: Flit) {
        let now = self.now[lane];
        let idx = flit.packet.value() as usize;
        let entry = self.in_flight[lane][idx]
            .as_mut()
            .expect("ejected flit for an already-completed packet");
        entry.flits_delivered += 1;
        if flit.kind.is_head() {
            entry.head_delivered_at = Some(now);
        }
        let stats = &mut self.stats[lane];
        stats.flits_delivered = stats.flits_delivered.saturating_add(1);
        if flit.kind.is_tail() {
            debug_assert_eq!(entry.flits_delivered, entry.flits, "flit loss detected");
            let record = self.in_flight[lane][idx].take().expect("checked above");
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
            let stats = &mut self.stats[lane];
            stats.delivered = stats.delivered.saturating_add(1);
            stats.packet_latency.record(delivered.latency());
            stats.header_latency.record(head_at - record.injected_at);
            self.total_in_flight[lane] -= 1;
            self.delivered[lane].push(delivered);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;

    fn config(w: u16, h: u16) -> NocConfig {
        NocConfig::builder(w, h).build().unwrap()
    }

    #[test]
    fn zero_lanes_is_rejected() {
        let err = BatchNetwork::new(config(2, 2), 0).unwrap_err();
        assert!(matches!(
            err,
            NocError::InvalidParameter { name: "lanes", .. }
        ));
    }

    #[test]
    fn lanes_are_fully_independent() {
        // Three lanes with different traffic must each match a standalone
        // sequential Network bit-for-bit: deliveries, stats, energy, link
        // counters and clocks.
        let lanes = 3;
        let mut batch = BatchNetwork::new(config(4, 4), lanes).unwrap();
        let mut singles: Vec<Network> = (0..lanes)
            .map(|_| Network::new(config(4, 4)).unwrap())
            .collect();
        for (lane, single) in singles.iter_mut().enumerate() {
            for i in 0..10u64 {
                let src = NodeId::new(((i + lane as u64) % 16) as u32);
                let dst = NodeId::new(((i * 5 + 3 + 2 * lane as u64) % 16) as u32);
                if src == dst {
                    continue;
                }
                let packet = Packet::new(src, dst, 3 + (i % 4) as u32).with_tag(i);
                batch.inject_at(lane, packet.clone(), i * 40).unwrap();
                single.inject_at(packet, i * 40).unwrap();
            }
        }
        let results = batch.run_all_until_idle(&[100_000; 3]);
        for (lane, single) in singles.iter_mut().enumerate() {
            let batch_delivered = results[lane].as_ref().unwrap();
            let single_delivered = single.run_until_idle(100_000).unwrap();
            assert_eq!(*batch_delivered, single_delivered, "lane {lane} deliveries");
            assert_eq!(batch.stats(lane), single.stats(), "lane {lane} stats");
            assert_eq!(batch.energy(lane), single.energy(), "lane {lane} energy");
            assert_eq!(
                batch.link_flits(lane),
                single.link_flits(),
                "lane {lane} links"
            );
            assert_eq!(batch.now(lane), single.now(), "lane {lane} clock");
        }
    }

    #[test]
    fn busy_skip_matches_pure_stepping() {
        // Drive one copy with step() only and one through the skipping
        // run_until_idle: deliveries, clocks and energy must agree, and
        // no skipped busy cycle may be counted as idle.
        let build = || {
            let mut b = BatchNetwork::new(config(4, 4), 1).unwrap();
            for i in 0..8u64 {
                let src = NodeId::new((i % 16) as u32);
                let dst = NodeId::new(((i * 7 + 1) % 16) as u32);
                if src == dst {
                    continue;
                }
                b.inject_at(0, Packet::new(src, dst, 5).with_tag(i), i * 3)
                    .unwrap();
            }
            b
        };
        let mut stepped = build();
        while stepped.in_flight(0) > 0 {
            stepped.step(0);
        }
        let stepped_delivered = stepped.take_delivered(0);
        let mut skipped = build();
        let skipped_delivered = skipped.run_until_idle(0, 1_000_000).unwrap();
        assert_eq!(skipped_delivered, stepped_delivered);
        assert_eq!(skipped.now(0), stepped.now(0));
        assert_eq!(skipped.energy(0), stepped.energy(0));
        assert_eq!(skipped.link_flits(0), stepped.link_flits(0));
        // All the traffic overlaps in time: nothing here is an idle span,
        // so the skipped engine must report the same zero idle cycles the
        // stepper does even though it jumped over pacing-dead cycles.
        assert_eq!(skipped.stats(0).idle_cycles, stepped.stats(0).idle_cycles);
        assert_eq!(skipped.stats(0).cycles, stepped.stats(0).cycles);
    }

    #[test]
    fn wave_driver_handles_mixed_budgets() {
        let mut batch = BatchNetwork::new(config(3, 1), 2).unwrap();
        batch
            .inject_at(0, Packet::new(NodeId::new(0), NodeId::new(2), 2), 0)
            .unwrap();
        // Lane 1's packet releases far beyond its budget: it must time
        // out without disturbing lane 0.
        batch
            .inject_at(1, Packet::new(NodeId::new(0), NodeId::new(2), 2), 50_000)
            .unwrap();
        let results = batch.run_all_until_idle(&[10_000, 100]);
        assert_eq!(results[0].as_ref().unwrap().len(), 1);
        assert!(matches!(
            results[1],
            Err(NocError::Timeout {
                budget: 100,
                in_flight: 1
            })
        ));
    }

    #[test]
    fn arena_recycles_release_buffers() {
        let mut batch = BatchNetwork::new(config(2, 1), 1).unwrap();
        for round in 0..4u64 {
            batch
                .inject_at(
                    0,
                    Packet::new(NodeId::new(0), NodeId::new(1), 6),
                    round * 1_000,
                )
                .unwrap();
        }
        batch.run_until_idle(0, 100_000).unwrap();
        // Every scheduled release handed its buffer back.
        assert_eq!(batch.arena.len(), batch.arena_free.len());
        assert!(batch.arena.len() <= 4);
    }
}
