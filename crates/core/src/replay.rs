//! Replaying planned test streams on the cycle-level NoC simulator.
//!
//! The planner schedules with the *analytic* timing model of
//! [`crate::timing`]; this module replays planned stimulus streams flit by
//! flit on `noctest-noc`'s wormhole simulator and reports both numbers, so
//! the analytic model can be validated rather than trusted (the
//! `validate_model` binary and the `sim_vs_model` integration tests build
//! on this).
//!
//! The replay covers the *transport* half of a session: `patterns` stimulus
//! packets streamed source → CUT. Responses travel an independent path
//! with the same arithmetic, and generation overhead is a property of the
//! source, not the network, so the stimulus stream is the part where the
//! analytic and simulated worlds must agree.
//!
//! Three granularities are available:
//!
//! * [`replay_schedule`] — **the whole plan** (a one-entry schedule
//!   replays one session in isolation): every scheduled session's
//!   stream injected at its planned start cycle onto *one shared mesh*
//!   (via [`Network::inject_at`]), so per-session completion and the
//!   overall makespan are measured under real contention. The planner's
//!   link-disjointness invariant predicts zero interference between
//!   overlapping sessions; this is where that prediction meets the
//!   simulator. Results feed the `fidelity` section of
//!   [`crate::plan::PlanOutcome`].
//! * [`ReplayMemo`] — **many plans, on many threads, one simulation per
//!   session**: each distinct session (keyed by what it injects, not by
//!   when or for which system) is replayed alone once, on the thread that
//!   asks for it first, and a whole-schedule replay is composed from its
//!   sessions' results. A link-disjointness certificate guards the
//!   composition: a schedule whose sessions could interfere, or one with
//!   a session whose solo replay fails, runs through [`replay_schedule`]
//!   instead. The executor uses it so a corpus run replays on every
//!   worker while it plans.
//! * [`ReplayBatch`] — **many plans, collected first**: queued
//!   whole-schedule replays drained in push order through one
//!   [`ReplayMemo`]. Each result is byte-identical to what
//!   [`replay_schedule`] returns for the same request.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use noctest_noc::{
    DeliveredPacket, LinkId, Network, NocConfig, NocError, NodeId, Packet, ReferenceNetwork,
    RouteTable, RoutingKind,
};

use crate::sched::{Schedule, ScheduledTest};
use crate::system::SystemUnderTest;

/// The fault-application surface shared by the live and the reference
/// simulator, so [`apply_faults`] is written once and cannot drift
/// between the two.
trait FaultSink {
    fn kill_router(&mut self, node: NodeId) -> Result<(), NocError>;
    fn kill_link(&mut self, link: LinkId) -> Result<(), NocError>;
    fn set_route_table(&mut self, table: RouteTable) -> Result<(), NocError>;
}

macro_rules! fault_sink {
    ($($engine:ty),*) => {$(
        impl FaultSink for $engine {
            fn kill_router(&mut self, node: NodeId) -> Result<(), NocError> {
                <$engine>::kill_router(self, node)
            }
            fn kill_link(&mut self, link: LinkId) -> Result<(), NocError> {
                <$engine>::kill_link(self, link)
            }
            fn set_route_table(&mut self, table: RouteTable) -> Result<(), NocError> {
                <$engine>::set_route_table(self, table)
            }
        }
    )*};
}

fault_sink!(Network, ReferenceNetwork);

/// Applies the system's fault set (and its detour route table) to a fresh
/// simulator, so the replay degrades exactly as the planner assumed. A
/// pristine system touches nothing — the simulator stays byte-identical
/// to the fault-free replay.
fn apply_faults(sys: &SystemUnderTest, net: &mut impl FaultSink) -> Result<(), NocError> {
    let faults = sys.faults();
    if faults.is_empty() {
        return Ok(());
    }
    for router in faults.routers() {
        net.kill_router(router)?;
    }
    for link in faults.links() {
        net.kill_link(link)?;
    }
    if let Some(oracle) = sys.detour() {
        net.set_route_table(oracle.route_table())?;
    }
    Ok(())
}

/// The transport configuration a system replays under — shared by every
/// replay granularity in this module.
fn transport_config(sys: &SystemUnderTest) -> Result<NocConfig, NocError> {
    let t = sys.timing();
    let mesh = sys.mesh();
    NocConfig::builder(mesh.width(), mesh.height())
        .flit_width_bits(t.flit_width_bits)
        .flow_latency(t.flow_latency)
        .routing_latency(t.routing_latency)
        .routing(sys.routing())
        .build()
}

/// Analytic prediction for a back-to-back stream of `packets` packets of
/// `flits` flits over `hops` hops: per-packet serialisation plus one
/// routing bubble, plus the pipeline fill of the first packet (the shared
/// [`crate::timing::TimingModel::pipeline_fill`] term — the same
/// arithmetic the session model uses, so the two cannot drift).
#[must_use]
pub fn analytic_stream_cycles(sys: &SystemUnderTest, packets: u32, flits: u32, hops: u32) -> u64 {
    let t = sys.timing();
    let per_packet = u64::from(flits) * u64::from(t.flow_latency) + u64::from(t.routing_latency);
    u64::from(packets) * per_packet + t.pipeline_fill(hops)
}

/// One session's share of a whole-schedule replay.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReplay {
    /// Core id within the planned system.
    pub cut: u32,
    /// Label of the driving interface (`"ext"`, `"leon#0"`, ...).
    pub interface: String,
    /// Planned start cycle (when the stream was injected).
    pub start: u64,
    /// Packets (= patterns, capped) replayed.
    pub packets: u32,
    /// The analytic transport model's prediction for the capped stream.
    pub analytic_cycles: u64,
    /// Simulated stream duration: last tail ejection minus `start`.
    pub simulated_cycles: u64,
}

impl SessionReplay {
    /// Relative error of the analytic model against the simulation.
    #[must_use]
    pub fn relative_error(&self) -> f64 {
        if self.simulated_cycles == 0 {
            return 0.0;
        }
        (self.analytic_cycles as f64 - self.simulated_cycles as f64).abs()
            / self.simulated_cycles as f64
    }
}

/// Outcome of replaying an entire schedule on one shared mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleReplay {
    /// The per-session pattern cap that was applied.
    pub patterns_cap: u32,
    /// Analytic makespan of the capped streams: the latest
    /// `start + analytic_cycles` over all sessions.
    pub analytic_makespan: u64,
    /// Simulated makespan: the latest tail-ejection cycle over all
    /// sessions, under real contention.
    pub simulated_makespan: u64,
    /// Per-session breakdown, in schedule (start-cycle) order.
    pub sessions: Vec<SessionReplay>,
}

impl ScheduleReplay {
    /// The largest per-session relative error (0 for an empty schedule).
    #[must_use]
    pub fn worst_relative_error(&self) -> f64 {
        self.sessions
            .iter()
            .map(SessionReplay::relative_error)
            .fold(0.0, f64::max)
    }
}

/// Replays **every** session of `schedule` on one shared mesh: each
/// session's stimulus stream is scheduled (via [`Network::inject_at`]) to
/// start at its planned start cycle, capped at `patterns_cap` patterns
/// (raised to 1 if 0 — an empty replay would report zero model error
/// without simulating anything), and the simulator measures per-session
/// completion and the overall makespan under whatever contention actually
/// arises. Because the event core fast-forwards idle spans, replaying a
/// schedule whose sessions are millions of cycles apart costs only the
/// cycles where flits move.
///
/// # Errors
///
/// Propagates simulator errors ([`NocError::Timeout`] would indicate a
/// transport bug or a schedule that serialises far beyond its plan).
pub fn replay_schedule(
    sys: &SystemUnderTest,
    schedule: &Schedule,
    patterns_cap: u32,
) -> Result<ScheduleReplay, NocError> {
    let patterns_cap = patterns_cap.max(1);
    let mut net = Network::new(transport_config(sys)?)?;
    apply_faults(sys, &mut net)?;
    let staged = stage_schedule(sys, schedule, patterns_cap, |packet, at| {
        net.inject_at(packet, at).map(|_| ())
    })?;
    let delivered = net.run_until_idle(staged.budget)?;
    Ok(finish_schedule(patterns_cap, staged.sessions, &delivered))
}

/// [`replay_schedule`] driven through the full-scan executable
/// specification ([`ReferenceNetwork`]): identical staging, fault
/// application and re-association, with only the simulation core
/// swapped. It is far slower than the live engine and exists as the
/// oracle: its result must be byte-identical to [`replay_schedule`] and
/// to [`ReplayBatch`], and `tests/batch_replay.rs` holds all three paths
/// together on healthy and degraded meshes.
///
/// # Errors
///
/// Propagates simulator errors, exactly as [`replay_schedule`] does.
pub fn replay_schedule_reference(
    sys: &SystemUnderTest,
    schedule: &Schedule,
    patterns_cap: u32,
) -> Result<ScheduleReplay, NocError> {
    let patterns_cap = patterns_cap.max(1);
    let mut net = ReferenceNetwork::new(transport_config(sys)?)?;
    apply_faults(sys, &mut net)?;
    let staged = stage_schedule(sys, schedule, patterns_cap, |packet, at| {
        net.inject_at(packet, at).map(|_| ())
    })?;
    let delivered = net.run_until_idle(staged.budget)?;
    Ok(finish_schedule(patterns_cap, staged.sessions, &delivered))
}

/// Session index → tag block; comfortably above any real pattern count.
const TAG_BLOCK: u64 = 1_000_000;

/// A schedule's sessions staged for replay: the per-session records (with
/// `simulated_cycles` still zero) plus the drain budget. Produced by
/// [`stage_schedule`], completed by [`finish_schedule`].
struct StagedSchedule {
    sessions: Vec<SessionReplay>,
    budget: u64,
}

/// Per-session traffic facts derived from one schedule entry: everything
/// that determines both the injected stimulus stream and the session's
/// replay record. [`stage_schedule`] stages from this and [`ReplayKey`]
/// is built from it, so the staged traffic and the memoisation key
/// cannot drift apart.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct EntryTraffic {
    cut: u32,
    interface: String,
    src: NodeId,
    dst: NodeId,
    packets: u32,
    flits_total: u32,
    start: u64,
    analytic_cycles: u64,
}

fn entry_traffic(sys: &SystemUnderTest, entry: &ScheduledTest, patterns_cap: u32) -> EntryTraffic {
    let core = sys.cut(entry.cut);
    let iface = sys.interface(entry.interface);
    // The extra clamp keeps per-session tags inside their block even
    // for an absurd user-supplied cap.
    let packets = core.patterns.min(patterns_cap).min(TAG_BLOCK as u32 - 1);
    let flits_total = sys.timing().flits(core.bits_in);
    // A pair the fault set severed has no path; its stream then fails at
    // injection with a typed error (a dead endpoint router, or no route)
    // instead of here.
    let hops = sys
        .try_path(entry.interface, entry.cut)
        .map_or(0, |path| path.hops_in);
    EntryTraffic {
        cut: entry.cut.0,
        interface: iface.label(),
        src: iface.source_node(),
        dst: core.node,
        packets,
        flits_total,
        start: entry.start,
        analytic_cycles: analytic_stream_cycles(sys, packets, flits_total, hops),
    }
}

impl EntryTraffic {
    /// The session's replay record once its stream is simulated.
    fn session(self, simulated_cycles: u64) -> SessionReplay {
        SessionReplay {
            cut: self.cut,
            interface: self.interface,
            start: self.start,
            packets: self.packets,
            analytic_cycles: self.analytic_cycles,
            simulated_cycles,
        }
    }
}

/// Cycles a replay may run before its traffic must have drained:
/// `10_000 + 200 · flits · flow_latency`. A whole-schedule replay adds
/// its makespan; a solo replay ([`replay_solo`]) does not.
fn drain_budget(sys: &SystemUnderTest, flits: u64) -> u64 {
    10_000 + 200 * flits * u64::from(sys.timing().flow_latency)
}

/// Expands every session of `schedule` into tagged packets through
/// `inject_at` and builds the per-session records. This is the one place
/// the whole-schedule traffic shape is defined — [`replay_schedule`]
/// injects into the live [`Network`], [`replay_schedule_reference`] into
/// the [`ReferenceNetwork`], and both observe identical streams.
fn stage_schedule(
    sys: &SystemUnderTest,
    schedule: &Schedule,
    patterns_cap: u32,
    mut inject_at: impl FnMut(Packet, u64) -> Result<(), NocError>,
) -> Result<StagedSchedule, NocError> {
    let mut sessions = Vec::with_capacity(schedule.entries().len());
    let mut total_flits: u64 = 0;
    for (index, entry) in schedule.entries().iter().enumerate() {
        let traffic = entry_traffic(sys, entry, patterns_cap);
        let payload = traffic.flits_total - 1;
        for p in 0..traffic.packets {
            inject_at(
                Packet::new(traffic.src, traffic.dst, payload)
                    .with_tag(index as u64 * TAG_BLOCK + u64::from(p)),
                traffic.start,
            )?;
        }
        total_flits += u64::from(traffic.packets) * u64::from(traffic.flits_total);
        sessions.push(traffic.session(0));
    }
    let budget = schedule.makespan() + drain_budget(sys, total_flits);
    Ok(StagedSchedule { sessions, budget })
}

/// Re-associates delivered packets with their sessions by tag block and
/// assembles the [`ScheduleReplay`] — the shared back half of
/// [`replay_schedule`] and [`replay_schedule_reference`].
fn finish_schedule(
    patterns_cap: u32,
    mut sessions: Vec<SessionReplay>,
    delivered: &[DeliveredPacket],
) -> ScheduleReplay {
    for d in delivered {
        let index = (d.tag / TAG_BLOCK) as usize;
        let session = &mut sessions[index];
        session.simulated_cycles = session
            .simulated_cycles
            .max(d.tail_delivered_at - session.start);
    }
    compose(patterns_cap, sessions)
}

/// Assembles a [`ScheduleReplay`] from completed per-session records: both
/// makespans are maxima over the sessions. [`finish_schedule`] and
/// [`ReplayMemo`] share it, so a simulated and a composed replay cannot
/// differ in how they aggregate.
fn compose(patterns_cap: u32, sessions: Vec<SessionReplay>) -> ScheduleReplay {
    let analytic_makespan = sessions
        .iter()
        .map(|s| s.start + s.analytic_cycles)
        .max()
        .unwrap_or(0);
    let simulated_makespan = sessions
        .iter()
        .map(|s| s.start + s.simulated_cycles)
        .max()
        .unwrap_or(0);
    ScheduleReplay {
        patterns_cap,
        analytic_makespan,
        simulated_makespan,
        sessions,
    }
}

/// Replays one session's stimulus stream alone on a fresh mesh of its
/// system, released at cycle 0, and returns the cycle its last tail flit
/// ejects. Every deadline of the engine is relative to the release, so
/// this is the session's `simulated_cycles` at any start cycle, provided
/// nothing else touches its resources while it runs.
///
/// The drain budget depends on the session's flits alone, never on its
/// start or its schedule: [`drain_budget`] of its `packets × flits`.
fn replay_solo(sys: &SystemUnderTest, traffic: &EntryTraffic) -> Result<u64, NocError> {
    let mut net = Network::new(transport_config(sys)?)?;
    apply_faults(sys, &mut net)?;
    let payload = traffic.flits_total - 1;
    for p in 0..traffic.packets {
        net.inject_at(
            Packet::new(traffic.src, traffic.dst, payload).with_tag(u64::from(p)),
            0,
        )?;
    }
    let flits = u64::from(traffic.packets) * u64::from(traffic.flits_total);
    let delivered = net.run_until_idle(drain_budget(sys, flits))?;
    Ok(delivered
        .iter()
        .map(|d| d.tail_delivered_at)
        .max()
        .unwrap_or(0))
}

/// The link-disjointness certificate: `true` when every session starts
/// no later than the schedule's makespan, and any two sessions whose
/// windows `[start, start + simulated_cycles + flow_latency)` overlap
/// have disjoint footprints ([`SystemUnderTest::footprints_overlap`]). A
/// footprint is the session's [`crate::path::TestPath`] links: the
/// source's injection link, the route, the CUT's ejection link and the
/// response leg, a superset of every link and local port the stimulus
/// stream touches. A pair of the schedule without a surviving path has no
/// footprint and fails the certificate.
fn certified(sys: &SystemUnderTest, schedule: &Schedule, cycles: &[u64]) -> bool {
    let makespan = schedule.makespan();
    let entries = schedule.entries();
    let mut slots = Vec::with_capacity(entries.len());
    for entry in entries {
        if entry.start > makespan || !sys.reachable(entry.interface, entry.cut) {
            return false;
        }
        slots.push(sys.slot(entry.interface, entry.cut));
    }
    // A drained session leaves only pacing deadlines behind, and none
    // reaches further than one flow-control latency past its last
    // ejection; the guard keeps the next user of a resource clear of it.
    let guard = u64::from(sys.timing().flow_latency);
    let end = |i: usize| entries[i].start + cycles[i] + guard;
    for i in 0..entries.len() {
        // Entries are ordered by start: once one starts after session
        // `i` has ended, so does every later one.
        for j in i + 1..entries.len() {
            if entries[j].start >= end(i) {
                break;
            }
            if end(j) > entries[i].start && sys.slots_overlap(slots[i], slots[j]) {
                return false;
            }
        }
    }
    true
}

/// Everything that must agree for two whole-schedule replays to produce
/// the same result: the [`FidelityClass`] (which fixes the simulated
/// transport and fault set), the pattern cap, the drain budget, and the
/// complete derived stimulus traffic ([`EntryTraffic`] per session, the
/// exact facts [`stage_schedule`] stages from). [`ReplayBatch`] counts
/// its distinct keys; no memo is keyed by it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ReplayKey {
    class: FidelityClass,
    patterns_cap: u32,
    makespan: u64,
    traffic: Vec<EntryTraffic>,
}

impl ReplayKey {
    fn of(sys: &SystemUnderTest, schedule: &Schedule, patterns_cap: u32) -> Self {
        ReplayKey {
            class: FidelityClass::of(sys),
            patterns_cap,
            makespan: schedule.makespan(),
            traffic: schedule
                .entries()
                .iter()
                .map(|entry| entry_traffic(sys, entry, patterns_cap.max(1)))
                .collect(),
        }
    }
}

/// What one session injects, apart from when and for which system: the
/// stream [`replay_solo`] simulates. Within one [`FidelityClass`] it keys
/// one [`ReplayMemo`] entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SessionKey {
    src: NodeId,
    dst: NodeId,
    packets: u32,
    flits_per_packet: u32,
    patterns_cap: u32,
}

impl SessionKey {
    fn of(traffic: &EntryTraffic, patterns_cap: u32) -> Self {
        SessionKey {
            src: traffic.src,
            dst: traffic.dst,
            packets: traffic.packets,
            flits_per_packet: traffic.flits_total,
            patterns_cap,
        }
    }
}

/// The simulated transport of a replay: mesh shape, transport timing,
/// routing algorithm and the exact fault set. Part of every memo key, so
/// a degraded replay never shares a result with a healthy one, or with
/// one degraded differently.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct FidelityClass {
    width: u16,
    height: u16,
    flit_width_bits: u32,
    flow_latency: u32,
    routing_latency: u32,
    routing: u8,
    dead_routers: Vec<u32>,
    dead_links: Vec<LinkId>,
    detour: bool,
}

impl FidelityClass {
    fn of(sys: &SystemUnderTest) -> Self {
        let t = sys.timing();
        let mesh = sys.mesh();
        let mut dead_routers: Vec<u32> = sys.faults().routers().map(u32::from).collect();
        dead_routers.sort_unstable();
        let mut dead_links: Vec<LinkId> = sys.faults().links().collect();
        dead_links.sort_unstable();
        FidelityClass {
            width: mesh.width(),
            height: mesh.height(),
            flit_width_bits: t.flit_width_bits,
            flow_latency: t.flow_latency,
            routing_latency: t.routing_latency,
            routing: match sys.routing() {
                RoutingKind::Xy => 0,
                RoutingKind::Yx => 1,
                RoutingKind::WestFirst => 2,
                // `RoutingKind` is non-exhaustive; an unknown variant gets
                // its own class, which merely shares less.
                _ => u8::MAX,
            },
            dead_routers,
            dead_links,
            detour: sys.detour().is_some(),
        }
    }
}

/// One session's solo `simulated_cycles`, or `None` when its solo replay
/// failed. Filled by the call that created it; every other call with the
/// same key waits for it.
type SoloCell = Arc<OnceLock<Option<u64>>>;

/// Fills every still-empty cell a call owns with `None` when the call
/// unwinds mid-simulation, so no other call waits on it forever; those
/// calls then fall back to the whole-schedule replay.
struct Settle<'a>(&'a [(SoloCell, bool)]);

impl Drop for Settle<'_> {
    fn drop(&mut self) {
        for (cell, owned) in self.0 {
            if *owned {
                let _ = cell.set(None);
            }
        }
    }
}

/// What a [`ReplayMemo`] did so far, as
/// [`crate::plan::Executor::replay_counts`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayCounts {
    /// Sessions a call replayed solo on its own thread.
    pub simulated: u64,
    /// Sessions a call took from an earlier solo replay.
    pub shared: u64,
    /// Calls that replayed their whole schedule through
    /// [`replay_schedule`] because a solo replay failed or the
    /// link-disjointness certificate did not hold.
    pub fallbacks: u64,
}

/// Fidelity replays shared between threads, one solo replay per distinct
/// session.
///
/// [`ReplayMemo::replay`] has the request shape of [`replay_schedule`]
/// and returns exactly what it returns. It works in three steps:
///
/// 1. **Solo replays.** Each session is keyed by what it injects, not by
///    its start cycle or its system: the fidelity class (mesh shape,
///    transport timing, routing and the exact fault set), source and
///    destination routers, packets, flits per packet and
///    `patterns_cap.max(1)`. The first call with a key simulates that
///    session alone, released at cycle 0 on a fresh mesh; every other
///    call with the key waits for that result. Only the session's
///    `simulated_cycles` is kept.
/// 2. **The certificate.** Every session must start no later than the
///    schedule's makespan, and any two sessions whose windows
///    `[start, start + simulated_cycles + flow_latency)` overlap must
///    have disjoint footprints ([`SystemUnderTest::footprints_overlap`];
///    a footprint holds the source's injection link and the CUT's
///    ejection link). The
///    window runs one flow-control latency past the last tail ejection
///    because a drained stream's output and injector pacing hold its
///    ports that long: a session released on the same port at the very
///    cycle its predecessor drained runs late.
/// 3. **Composition.** When every solo replay drained and the certificate
///    holds, the [`ScheduleReplay`] is composed: `start`, `cut`,
///    `interface`, `packets` and `analytic_cycles` come from the entry,
///    both makespans are maxima, and `patterns_cap` is `cap.max(1)`.
///    Otherwise the call runs [`replay_schedule`] on the whole schedule,
///    so contention is measured wherever it can arise and errors are
///    exactly that function's.
///
/// Why composition equals [`replay_schedule`]. While a session's window
/// is open, every link and local port it touches carries its flits
/// alone: the certificate rules out any overlapping user. Once a window
/// has closed, every flit of the session has ejected, its FIFOs are
/// empty, its wormhole locks are released and its pacing deadlines have
/// passed; a round-robin pointer it moved only matters to two inputs
/// contending for one output, which the certificate rules out. The
/// engine's deadlines are all relative to a release, so each session
/// behaves exactly as in its solo replay, shifted to its start. The solo
/// drain budget is `10_000 + 200·flits·flow_latency` for the session's
/// own flits. The whole-schedule budget is the makespan plus the same
/// expression over all flits, so it is at least `start` plus any one
/// solo budget. Hence "every solo replay drains and the certificate
/// holds" implies that the whole replay drains, with equal per-session
/// results.
///
/// [`ReplayMemo::counts`] reports sessions simulated and shared and
/// whole-schedule fallbacks. The job executor holds one memo when built
/// with [`crate::plan::ExecutorBuilder::share_replays`], so a corpus run
/// replays on all of its workers while it plans. Nothing is evicted: a
/// memo lives as long as the run it serves, and an entry is two routers
/// and a few counts.
#[derive(Debug, Default)]
pub struct ReplayMemo {
    sessions: Mutex<BTreeMap<FidelityClass, BTreeMap<SessionKey, SoloCell>>>,
    simulated: AtomicU64,
    shared: AtomicU64,
    fallbacks: AtomicU64,
}

impl ReplayMemo {
    /// The replay of `schedule` on `sys` under `patterns_cap`, exactly as
    /// [`replay_schedule`] returns it, and `true` when this call simulated
    /// anything: a solo replay of one of its sessions, or the whole
    /// schedule as a fallback.
    pub fn replay(
        &self,
        sys: &SystemUnderTest,
        schedule: &Schedule,
        patterns_cap: u32,
    ) -> (Result<ScheduleReplay, NocError>, bool) {
        let patterns_cap = patterns_cap.max(1);
        let traffic: Vec<EntryTraffic> = schedule
            .entries()
            .iter()
            .map(|entry| entry_traffic(sys, entry, patterns_cap))
            .collect();
        let (cycles, simulated) = self.solo_cycles(sys, &traffic, patterns_cap);
        if let Some(cycles) = cycles.filter(|cycles| certified(sys, schedule, cycles)) {
            let sessions = traffic
                .into_iter()
                .zip(cycles)
                .map(|(traffic, cycles)| traffic.session(cycles))
                .collect();
            return (Ok(compose(patterns_cap, sessions)), simulated);
        }
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        (replay_schedule(sys, schedule, patterns_cap), true)
    }

    /// Each session's solo `simulated_cycles` in entry order (`None` if
    /// any solo replay failed), and `true` when this call simulated one.
    ///
    /// Cells are claimed for the whole schedule under one lock, and a
    /// call owns the cells it creates. It fills those before it waits on
    /// any other, so it only ever waits on cells owned by a call that
    /// claimed earlier and is itself filling, never in a cycle.
    fn solo_cycles(
        &self,
        sys: &SystemUnderTest,
        traffic: &[EntryTraffic],
        patterns_cap: u32,
    ) -> (Option<Vec<u64>>, bool) {
        let class = FidelityClass::of(sys);
        let claims: Vec<(SoloCell, bool)> = {
            let mut classes = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
            let cells = classes.entry(class).or_default();
            traffic
                .iter()
                .map(|t| match cells.entry(SessionKey::of(t, patterns_cap)) {
                    Entry::Occupied(cell) => (Arc::clone(cell.get()), false),
                    Entry::Vacant(slot) => (Arc::clone(slot.insert(SoloCell::default())), true),
                })
                .collect()
        };
        let settle = Settle(&claims);
        let mut simulated = 0;
        for (t, (cell, owned)) in traffic.iter().zip(settle.0) {
            if *owned {
                let _ = cell.set(replay_solo(sys, t).ok());
                simulated += 1;
            }
        }
        drop(settle);
        self.simulated.fetch_add(simulated, Ordering::Relaxed);
        self.shared
            .fetch_add(claims.len() as u64 - simulated, Ordering::Relaxed);
        let cycles = claims.iter().map(|(cell, _)| *cell.wait()).collect();
        (cycles, simulated > 0)
    }

    /// Sessions simulated and shared, and whole-schedule fallbacks, so
    /// far.
    #[must_use]
    pub fn counts(&self) -> ReplayCounts {
        ReplayCounts {
            simulated: self.simulated.load(Ordering::Relaxed),
            shared: self.shared.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
        }
    }
}

/// A set of pending whole-schedule fidelity replays.
///
/// [`ReplayBatch::run`] replays the queued requests in push order through
/// one [`ReplayMemo`], which simulates each distinct session once and
/// composes each schedule's replay from its sessions' results, or replays
/// the whole schedule when the link-disjointness certificate fails. Every
/// result is therefore **byte-identical** to calling [`replay_schedule`]
/// per request, and `tests/batch_replay.rs` holds the two together
/// differentially across seeds and fault classes.
///
/// [`ReplayBatch::unique_replays`] still counts distinct *whole-schedule*
/// replay keys: the dedup a schedule-level memo would get, which
/// `replay-bench` reports and gates.
///
/// ```no_run
/// # use noctest_core::replay::ReplayBatch;
/// # fn demo(sys: &noctest_core::system::SystemUnderTest,
/// #         schedules: &[noctest_core::sched::Schedule]) {
/// let mut batch = ReplayBatch::new();
/// for schedule in schedules {
///     batch.push(sys, schedule, 2);
/// }
/// for replay in batch.run() {
///     let replay = replay.expect("transport drains");
///     println!("model error {:.2}%", replay.worst_relative_error() * 100.0);
/// }
/// # }
/// ```
#[derive(Debug)]
pub struct ReplayBatch<'a> {
    items: Vec<BatchItem<'a>>,
}

#[derive(Debug)]
struct BatchItem<'a> {
    sys: &'a SystemUnderTest,
    schedule: &'a Schedule,
    patterns_cap: u32,
}

impl<'a> ReplayBatch<'a> {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        ReplayBatch { items: Vec::new() }
    }

    /// Queues one whole-schedule replay (the same request shape as
    /// [`replay_schedule`]) and returns its index into the results of
    /// [`ReplayBatch::run`].
    pub fn push(
        &mut self,
        sys: &'a SystemUnderTest,
        schedule: &'a Schedule,
        patterns_cap: u32,
    ) -> usize {
        self.items.push(BatchItem {
            sys,
            schedule,
            patterns_cap,
        });
        self.items.len() - 1
    }

    /// Number of queued requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if no requests are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of *distinct whole-schedule replays* among the queued
    /// requests: requests whose whole-schedule replay keys (fidelity
    /// class, pattern cap, drain budget and the full derived stimulus
    /// traffic) coincide are the same replay. [`ReplayBatch::run`]
    /// simulates per session instead, and replays a schedule whole only
    /// where the link-disjointness certificate fails.
    #[must_use]
    pub fn unique_replays(&self) -> usize {
        let keys: std::collections::BTreeSet<ReplayKey> = self
            .items
            .iter()
            .map(|item| ReplayKey::of(item.sys, item.schedule, item.patterns_cap))
            .collect();
        keys.len()
    }

    /// Drains the batch and returns per-request results **in push order**,
    /// each exactly what [`replay_schedule`] would have returned.
    ///
    /// Deduplication is where the speedup comes from: corpus sweeps
    /// replay the same session in many schedules, under many planner
    /// configurations and on many systems that inject it alike. Two
    /// sessions share a simulation only when their session keys are
    /// equal, which makes their solo results equal by construction.
    #[must_use]
    pub fn run(self) -> Vec<Result<ScheduleReplay, NocError>> {
        let memo = ReplayMemo::default();
        self.items
            .iter()
            .map(|item| memo.replay(item.sys, item.schedule, item.patterns_cap).0)
            .collect()
    }
}

impl Default for ReplayBatch<'_> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::CutId;
    use crate::interface::InterfaceId;
    use crate::system::SystemBuilder;
    use noctest_cpu::ProcessorProfile;
    use noctest_itc02::data;

    fn system() -> SystemUnderTest {
        SystemBuilder::from_benchmark(&data::d695(), 4, 4)
            .processors(&ProcessorProfile::leon(), 6, 2)
            .build()
            .unwrap()
    }

    /// One session's stimulus stream replayed alone from cycle 0: the
    /// replay of a one-entry schedule.
    fn replay_solo_session(
        sys: &SystemUnderTest,
        iface: InterfaceId,
        cut: CutId,
        cap: u32,
    ) -> SessionReplay {
        let entry = ScheduledTest {
            cut,
            interface: iface,
            start: 0,
            end: sys.session_cycles(iface, cut),
        };
        let mut replay = replay_schedule(sys, &Schedule::new(vec![entry]), cap).unwrap();
        replay.sessions.remove(0)
    }

    #[test]
    fn analytic_model_tracks_simulation() {
        let sys = system();
        // Replay a medium core from the external tester.
        let cut = sys
            .cuts()
            .iter()
            .find(|c| c.name.ends_with("m6"))
            .unwrap()
            .id;
        let replay = replay_solo_session(&sys, InterfaceId(0), cut, 12);
        assert_eq!(replay.packets, 12);
        assert!(replay.simulated_cycles > 0);
        assert!(
            replay.relative_error() < 0.25,
            "analytic {} vs simulated {} (err {:.1}%)",
            replay.analytic_cycles,
            replay.simulated_cycles,
            replay.relative_error() * 100.0
        );
    }

    /// The worst slowdown either of two sessions suffers when both are
    /// released at cycle 0 on one mesh, against each replayed alone.
    fn worst_slowdown(
        sys: &SystemUnderTest,
        a: (InterfaceId, CutId),
        b: (InterfaceId, CutId),
    ) -> f64 {
        let entry = |(interface, cut)| ScheduledTest {
            cut,
            interface,
            start: 0,
            end: 1,
        };
        let cycles = |replay: &ScheduleReplay, cut: CutId| {
            replay
                .sessions
                .iter()
                .find(|s| s.cut == cut.0)
                .expect("every scheduled session is replayed")
                .simulated_cycles
        };
        let together = replay_schedule(sys, &Schedule::new(vec![entry(a), entry(b)]), 8).unwrap();
        [a, b]
            .into_iter()
            .map(|session| {
                let alone = replay_schedule(sys, &Schedule::new(vec![entry(session)]), 8).unwrap();
                cycles(&together, session.1) as f64 / cycles(&alone, session.1).max(1) as f64
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn link_disjoint_sessions_do_not_interfere() {
        // Find two (interface, cut) sessions the planner deems compatible
        // and verify the simulator agrees: concurrent replay costs at most
        // a few percent over solo replay.
        let sys = system();
        let mut found = None;
        'outer: for a_cut in sys.cuts() {
            for b_cut in sys.cuts() {
                if a_cut.id == b_cut.id {
                    continue;
                }
                let a = (InterfaceId(1), a_cut.id);
                let b = (InterfaceId(2), b_cut.id);
                if !sys.footprints_overlap(a, b) {
                    found = Some((a, b));
                    break 'outer;
                }
            }
        }
        let (a, b) = found.expect("some disjoint session pair exists");
        let slowdown = worst_slowdown(&sys, a, b);
        assert!(
            slowdown < 1.05,
            "disjoint sessions {a:?} and {b:?} interfered: {slowdown}"
        );
    }

    #[test]
    fn conflicting_sessions_do_interfere() {
        // Two streams from the same source must serialize at its
        // injection link: the later one roughly doubles.
        let sys = system();
        let mut cuts = sys.cuts().iter().filter(|c| !c.is_processor());
        let a_cut = cuts.next().unwrap().id;
        let b_cut = cuts.next().unwrap().id;
        let a = (InterfaceId(0), a_cut);
        let b = (InterfaceId(0), b_cut);
        assert!(sys.footprints_overlap(a, b));
        let slowdown = worst_slowdown(&sys, a, b);
        assert!(
            slowdown > 1.3,
            "shared-source sessions {a:?} and {b:?} should contend: {slowdown}"
        );
    }

    #[test]
    fn replay_caps_pattern_count() {
        let sys = system();
        let cut = sys.cuts().iter().max_by_key(|c| c.patterns).unwrap();
        let replay = replay_solo_session(&sys, InterfaceId(0), cut.id, 5);
        assert_eq!(replay.packets, 5);
    }

    #[test]
    fn replay_schedule_covers_every_session() {
        use crate::sched::Scheduler as _;
        let sys = system();
        let schedule = crate::sched::GreedyScheduler::new().schedule(&sys).unwrap();
        let replay = replay_schedule(&sys, &schedule, 6).unwrap();
        assert_eq!(replay.sessions.len(), schedule.entries().len());
        assert!(replay.simulated_makespan > 0);
        assert!(replay.analytic_makespan > 0);
        for (session, entry) in replay.sessions.iter().zip(schedule.entries()) {
            assert_eq!(session.cut, entry.cut.0);
            assert_eq!(session.start, entry.start);
            assert!(session.packets > 0);
            assert!(session.simulated_cycles > 0, "{session:?} never completed");
        }
        // Sessions sit inside planned slots whose analytic length includes
        // generation overhead the transport replay does not pay, so the
        // transport model must track the simulation closely.
        assert!(
            replay.worst_relative_error() < 0.25,
            "worst error {:.1}%",
            replay.worst_relative_error() * 100.0
        );
    }

    #[test]
    fn scheduled_disjoint_sessions_match_their_solo_replays() {
        // The planner's core assumption: overlapping sessions with
        // link-disjoint paths do not slow each other down. Replaying both
        // as one schedule must therefore reproduce each solo replay
        // *exactly* (disjoint links imply disjoint output ports, so even
        // arbitration state cannot couple them).
        let sys = system();
        let mut found = None;
        'outer: for a_cut in sys.cuts() {
            for b_cut in sys.cuts() {
                if a_cut.id == b_cut.id {
                    continue;
                }
                let a = (InterfaceId(1), a_cut.id);
                let b = (InterfaceId(2), b_cut.id);
                if !sys.footprints_overlap(a, b) {
                    found = Some((a, b));
                    break 'outer;
                }
            }
        }
        let ((ifa, cuta), (ifb, cutb)) = found.expect("some disjoint session pair exists");
        let cap = 8;
        let solo_a = replay_solo_session(&sys, ifa, cuta, cap);
        let solo_b = replay_solo_session(&sys, ifb, cutb, cap);

        let make = |iface: InterfaceId, cut: CutId| crate::sched::ScheduledTest {
            cut,
            interface: iface,
            start: 0,
            end: sys.session_cycles(iface, cut),
        };
        let schedule = Schedule::new(vec![make(ifa, cuta), make(ifb, cutb)]);
        let together = replay_schedule(&sys, &schedule, cap).unwrap();
        let by_cut = |cut: CutId| {
            together
                .sessions
                .iter()
                .find(|s| s.cut == cut.0)
                .expect("session present")
        };
        assert_eq!(by_cut(cuta).simulated_cycles, solo_a.simulated_cycles);
        assert_eq!(by_cut(cutb).simulated_cycles, solo_b.simulated_cycles);
    }

    #[test]
    fn empty_schedule_replays_to_zero() {
        let sys = system();
        let replay = replay_schedule(&sys, &Schedule::default(), 8).unwrap();
        assert_eq!(replay.sessions.len(), 0);
        assert_eq!(replay.simulated_makespan, 0);
        assert_eq!(replay.analytic_makespan, 0);
        assert_eq!(replay.worst_relative_error(), 0.0);
    }

    #[test]
    fn batched_replay_is_byte_identical_to_sequential() {
        use crate::sched::Scheduler as _;
        let sys = system();
        let schedule = crate::sched::GreedyScheduler::new().schedule(&sys).unwrap();
        // Mixed caps, duplicates, and an empty schedule: every result
        // must equal the sequential replay of the same request, field for
        // field.
        let empty = Schedule::default();
        let requests = [
            (&schedule, 6),
            (&schedule, 2),
            (&schedule, 6),
            (&empty, 8),
            (&schedule, 1),
        ];
        let mut batch = ReplayBatch::new();
        for &(sched, cap) in &requests {
            batch.push(&sys, sched, cap);
        }
        let results = batch.run();
        assert_eq!(results.len(), requests.len());
        for (result, &(sched, cap)) in results.iter().zip(&requests) {
            let sequential = replay_schedule(&sys, sched, cap).unwrap();
            assert_eq!(result.as_ref().unwrap(), &sequential);
        }
    }

    #[test]
    fn memo_simulates_each_key_once_and_matches_sequential() {
        use crate::sched::Scheduler as _;
        let sys = system();
        let schedule = crate::sched::GreedyScheduler::new().schedule(&sys).unwrap();
        let empty = Schedule::default();
        let requests = [(&schedule, 6), (&schedule, 2), (&schedule, 6), (&empty, 8)];
        let memo = ReplayMemo::default();
        for &(sched, cap) in &requests {
            let (result, _) = memo.replay(&sys, sched, cap);
            assert_eq!(result.unwrap(), replay_schedule(&sys, sched, cap).unwrap());
        }
        // Each distinct session simulates once per cap; the repeated cap-6
        // request shares all of its sessions, and nothing falls back.
        let sessions = schedule.entries().len() as u64;
        let distinct = |cap: u32| {
            let keys: std::collections::BTreeSet<SessionKey> = schedule
                .entries()
                .iter()
                .map(|entry| SessionKey::of(&entry_traffic(&sys, entry, cap), cap))
                .collect();
            keys.len() as u64
        };
        let simulated = distinct(6) + distinct(2);
        assert_eq!(
            memo.counts(),
            ReplayCounts {
                simulated,
                shared: 3 * sessions - simulated,
                fallbacks: 0,
            }
        );
        // A twin takes every session from the memo and reports that it
        // did not simulate.
        assert!(!memo.replay(&sys, &schedule, 2).1);
    }

    #[test]
    fn longer_streams_cost_proportionally_more() {
        let sys = system();
        let cut = sys
            .cuts()
            .iter()
            .find(|c| c.name.ends_with("m4"))
            .unwrap()
            .id;
        let r4 = replay_solo_session(&sys, InterfaceId(0), cut, 4);
        let r8 = replay_solo_session(&sys, InterfaceId(0), cut, 8);
        let ratio = r8.simulated_cycles as f64 / r4.simulated_cycles as f64;
        assert!((1.6..2.4).contains(&ratio), "ratio {ratio}");
    }
}
