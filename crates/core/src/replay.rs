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
//! Four granularities are available:
//!
//! * [`replay_stimulus_stream`] — one session in isolation;
//! * [`replay_concurrent_streams`] — two sessions, solo and together, for
//!   interference checks;
//! * [`replay_schedule`] — **the whole plan**: every scheduled session's
//!   stream injected at its planned start cycle onto *one shared mesh*
//!   (via [`Network::inject_at`]), so per-session completion and the
//!   overall makespan are measured under real contention. The planner's
//!   link-disjointness invariant predicts zero interference between
//!   overlapping sessions; this is where that prediction meets the
//!   simulator. Results feed the `fidelity` section of
//!   [`crate::plan::PlanOutcome`].
//! * [`ReplayBatch`] — **many plans at once**: pending whole-schedule
//!   replays grouped by fidelity class (mesh shape, timing, routing and
//!   fault set — degraded meshes batch within their fault class) and
//!   drained lane-parallel through [`BatchNetwork`]. Each result is
//!   byte-identical to what [`replay_schedule`] would have produced for
//!   the same request, because both paths share the staging, simulation
//!   core and re-association code.

use std::collections::BTreeMap;

use noctest_noc::{
    BatchNetwork, DeliveredPacket, LinkId, Network, NocConfig, NocError, NodeId, Packet,
    ReferenceNetwork, RouteTable, RoutingKind,
};

use crate::cut::CutId;
use crate::interface::InterfaceId;
use crate::sched::{Schedule, ScheduledTest};
use crate::system::SystemUnderTest;

/// The fault-application surface shared by the sequential, the batched
/// and the reference simulator, so [`apply_faults`] is written once and
/// cannot drift between the paths. Faults on a batch are batch-wide:
/// every lane of a batch shares one fault class by construction.
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

fault_sink!(Network, BatchNetwork, ReferenceNetwork);

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

/// Outcome of replaying one session's stimulus stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReplay {
    /// Packets (= patterns) replayed.
    pub packets: u32,
    /// Flits per packet (header included).
    pub flits_per_packet: u32,
    /// Cycle at which the simulator delivered the last tail flit.
    pub simulated_cycles: u64,
    /// The analytic model's prediction for the same stream.
    pub analytic_cycles: u64,
}

impl StreamReplay {
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

/// Replays the stimulus stream of testing `cut` from `iface` on the
/// cycle-level simulator. Uses `patterns_cap` to bound the replayed
/// pattern count (large cores have hundreds of patterns; the steady state
/// is reached after a handful).
///
/// # Errors
///
/// Propagates simulator errors ([`NocError::Timeout`] would indicate a
/// transport bug).
pub fn replay_stimulus_stream(
    sys: &SystemUnderTest,
    iface: InterfaceId,
    cut: CutId,
    patterns_cap: u32,
) -> Result<StreamReplay, NocError> {
    let t = sys.timing();
    let mut net = Network::new(transport_config(sys)?)?;
    apply_faults(sys, &mut net)?;

    let core = sys.cut(cut);
    let interface = sys.interface(iface);
    let src = interface.source_node();
    let dst = core.node;
    let packets = core.patterns.min(patterns_cap);
    let flits_total = t.flits(core.bits_in);
    let payload = flits_total - 1;

    for i in 0..packets {
        net.inject(Packet::new(src, dst, payload).with_tag(u64::from(i)))?;
    }
    let budget =
        1_000 + 100 * u64::from(packets) * u64::from(flits_total) * u64::from(t.flow_latency);
    let delivered = net.run_until_idle(budget)?;
    let simulated_cycles = delivered
        .iter()
        .map(|d| d.tail_delivered_at)
        .max()
        .unwrap_or(0);
    // Detoured hops under faults; plain Manhattan distance otherwise.
    let hops = sys.path(iface, cut).hops_in;
    Ok(StreamReplay {
        packets,
        flits_per_packet: flits_total,
        simulated_cycles,
        analytic_cycles: analytic_stream_cycles(sys, packets, flits_total, hops),
    })
}

/// Outcome of replaying two sessions' stimulus streams concurrently.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrentReplay {
    /// Tail-delivery cycle of the first stream when run alone.
    pub solo_a: u64,
    /// Tail-delivery cycle of the second stream when run alone.
    pub solo_b: u64,
    /// Tail-delivery cycles of both streams when injected together.
    pub together: (u64, u64),
}

impl ConcurrentReplay {
    /// Worst slowdown either stream suffered from sharing the network.
    #[must_use]
    pub fn worst_slowdown(&self) -> f64 {
        let a = self.together.0 as f64 / self.solo_a.max(1) as f64;
        let b = self.together.1 as f64 / self.solo_b.max(1) as f64;
        a.max(b)
    }
}

/// Replays the stimulus streams of two sessions, first in isolation and
/// then concurrently, on the cycle-level simulator. The planner declares
/// two sessions compatible only when their link sets are disjoint; this
/// function lets tests verify that such sessions indeed do not slow each
/// other down (and that conflicting ones do).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn replay_concurrent_streams(
    sys: &SystemUnderTest,
    a: (InterfaceId, CutId),
    b: (InterfaceId, CutId),
    patterns_cap: u32,
) -> Result<ConcurrentReplay, NocError> {
    let t = sys.timing();
    let config = transport_config(sys)?;

    let stream = |(iface, cut): (InterfaceId, CutId)| {
        let core = sys.cut(cut);
        let src = sys.interface(iface).source_node();
        let packets = core.patterns.min(patterns_cap);
        let payload = t.flits(core.bits_in) - 1;
        (src, core.node, packets, payload)
    };
    let (src_a, dst_a, n_a, pay_a) = stream(a);
    let (src_b, dst_b, n_b, pay_b) = stream(b);

    let run = |pairs: &[(noctest_noc::NodeId, noctest_noc::NodeId, u32, u32, u64)]|
     -> Result<Vec<u64>, NocError> {
        let mut net = Network::new(config.clone())?;
        apply_faults(sys, &mut net)?;
        for &(src, dst, n, payload, tag) in pairs {
            for i in 0..n {
                net.inject(
                    Packet::new(src, dst, payload).with_tag(tag * 1_000_000 + u64::from(i)),
                )?;
            }
        }
        let budget = 10_000
            + 200
                * pairs
                    .iter()
                    .map(|&(_, _, n, p, _)| u64::from(n) * u64::from(p + 1))
                    .sum::<u64>()
                * u64::from(t.flow_latency);
        let delivered = net.run_until_idle(budget)?;
        Ok(pairs
            .iter()
            .map(|&(_, _, _, _, tag)| {
                delivered
                    .iter()
                    .filter(|d| d.tag / 1_000_000 == tag)
                    .map(|d| d.tail_delivered_at)
                    .max()
                    .unwrap_or(0)
            })
            .collect())
    };

    let solo_a = run(&[(src_a, dst_a, n_a, pay_a, 1)])?[0];
    let solo_b = run(&[(src_b, dst_b, n_b, pay_b, 2)])?[0];
    let both = run(&[(src_a, dst_a, n_a, pay_a, 1), (src_b, dst_b, n_b, pay_b, 2)])?;
    Ok(ConcurrentReplay {
        solo_a,
        solo_b,
        together: (both[0], both[1]),
    })
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

/// Expands every session of `schedule` into tagged packets through
/// `inject_at` and builds the per-session records. This is the one place
/// the whole-schedule traffic shape is defined — [`replay_schedule`]
/// injects into a sequential [`Network`], [`ReplayBatch`] into one lane of
/// a [`BatchNetwork`], and both observe identical streams.
/// Per-session traffic facts derived from one schedule entry: everything
/// that determines both the injected stimulus stream and the session's
/// replay record. [`stage_schedule`] stages from this and [`ReplayBatch`]
/// keys its replay memoisation on it, so the staged traffic and the
/// memoisation key cannot drift apart.
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
    let hops = sys.path(entry.interface, entry.cut).hops_in;
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
        sessions.push(SessionReplay {
            cut: traffic.cut,
            interface: traffic.interface,
            start: traffic.start,
            packets: traffic.packets,
            analytic_cycles: traffic.analytic_cycles,
            simulated_cycles: 0,
        });
    }
    let budget =
        schedule.makespan() + 10_000 + 200 * total_flits * u64::from(sys.timing().flow_latency);
    Ok(StagedSchedule { sessions, budget })
}

/// Re-associates delivered packets with their sessions by tag block and
/// assembles the [`ScheduleReplay`] — the shared back half of
/// [`replay_schedule`] and [`ReplayBatch`].
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

/// Everything that must agree for two whole-schedule replays to produce
/// the same result: the [`FidelityClass`] (which fixes the simulated
/// transport and fault set), the pattern cap, the drain budget, and the
/// complete derived stimulus traffic ([`EntryTraffic`] per session, the
/// exact facts [`stage_schedule`] stages from). Requests with equal keys
/// are *the same simulation*, so [`ReplayBatch::run`] executes one and
/// clones its result — the memoisation analogue of the planner's
/// content-addressed plan cache.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ReplayKey {
    class: FidelityClass,
    patterns_cap: u32,
    makespan: u64,
    traffic: Vec<EntryTraffic>,
}

impl ReplayKey {
    fn of(item: &BatchItem<'_>) -> Self {
        ReplayKey {
            class: FidelityClass::of(item.sys),
            patterns_cap: item.patterns_cap,
            makespan: item.schedule.makespan(),
            traffic: item
                .schedule
                .entries()
                .iter()
                .map(|entry| entry_traffic(item.sys, entry, item.patterns_cap.max(1)))
                .collect(),
        }
    }
}

/// Everything that must agree for two whole-schedule replays to share one
/// [`BatchNetwork`]: mesh shape, transport timing, routing algorithm and
/// the exact fault set. Degraded systems thus batch *within* their fault
/// class and never contaminate healthy lanes.
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
                // its own class, which is merely conservative batching.
                _ => u8::MAX,
            },
            dead_routers,
            dead_links,
            detour: sys.detour().is_some(),
        }
    }
}

/// A set of pending whole-schedule fidelity replays, drained lane-parallel.
///
/// Requests are grouped by fidelity class — mesh shape,
/// timing, routing and fault set — and each group is chunked onto a
/// [`BatchNetwork`] with one lane per request (at most
/// [`ReplayBatch::DEFAULT_MAX_LANES`] lanes per chunk, tunable via
/// [`ReplayBatch::with_max_lanes`]). Results come back in push order and
/// are **byte-identical** to calling [`replay_schedule`] per request: the
/// staging, the simulation core and the re-association are the same code,
/// and `tests/batch_replay.rs` holds the two paths together differentially
/// across seeds, lane counts and fault classes.
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
    max_lanes: usize,
}

#[derive(Debug)]
struct BatchItem<'a> {
    sys: &'a SystemUnderTest,
    schedule: &'a Schedule,
    patterns_cap: u32,
}

impl<'a> ReplayBatch<'a> {
    /// Default cap on lanes per [`BatchNetwork`] chunk. Bounds the
    /// struct-of-arrays footprint (FIFO rings scale with lanes × nodes)
    /// while keeping enough lanes in flight to amortise per-wave overhead.
    pub const DEFAULT_MAX_LANES: usize = 32;

    /// An empty batch with the default lane cap.
    #[must_use]
    pub fn new() -> Self {
        Self::with_max_lanes(Self::DEFAULT_MAX_LANES)
    }

    /// An empty batch replaying at most `max_lanes` schedules per
    /// simulator instance (raised to 1 if 0).
    #[must_use]
    pub fn with_max_lanes(max_lanes: usize) -> Self {
        ReplayBatch {
            items: Vec::new(),
            max_lanes: max_lanes.max(1),
        }
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

    /// Number of *distinct* simulations [`ReplayBatch::run`] will execute
    /// for the currently queued requests: requests whose replay keys
    /// coincide share one lane and one result.
    #[must_use]
    pub fn unique_replays(&self) -> usize {
        let keys: std::collections::BTreeSet<ReplayKey> =
            self.items.iter().map(ReplayKey::of).collect();
        keys.len()
    }

    /// Drains the batch: deduplicates identical requests, groups the
    /// remainder by fidelity class, replays each group lane-parallel, and
    /// returns per-request results **in push order**, each exactly what
    /// [`replay_schedule`] would have returned.
    ///
    /// Deduplication is the batch-only half of the speedup: corpus sweeps
    /// replay the same (system, schedule, cap) triple under many planner
    /// configurations that turn out not to change it, and collecting the
    /// requests first makes the coincidence visible. Two requests share a
    /// simulation only when their replay keys — fidelity class, pattern
    /// cap, drain budget and the full derived stimulus traffic — are
    /// equal, which makes their results equal by construction.
    #[must_use]
    pub fn run(self) -> Vec<Result<ScheduleReplay, NocError>> {
        let mut results: Vec<Option<Result<ScheduleReplay, NocError>>> =
            self.items.iter().map(|_| None).collect();
        let keys: Vec<ReplayKey> = self.items.iter().map(ReplayKey::of).collect();
        // First queued request with a given key simulates; later twins
        // clone its result.
        let mut rep_of: Vec<usize> = (0..self.items.len()).collect();
        {
            let mut seen: BTreeMap<&ReplayKey, usize> = BTreeMap::new();
            for (i, key) in keys.iter().enumerate() {
                rep_of[i] = *seen.entry(key).or_insert(i);
            }
        }
        let mut groups: BTreeMap<&FidelityClass, Vec<usize>> = BTreeMap::new();
        for (i, key) in keys.iter().enumerate() {
            if rep_of[i] == i {
                groups.entry(&key.class).or_default().push(i);
            }
        }
        for indices in groups.values() {
            for chunk in indices.chunks(self.max_lanes) {
                self.run_chunk(chunk, &mut results);
            }
        }
        for i in 0..rep_of.len() {
            if rep_of[i] != i {
                results[i] = results[rep_of[i]].clone();
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every request resolved"))
            .collect()
    }

    /// Replays one same-class chunk, one lane per request.
    fn run_chunk(&self, chunk: &[usize], results: &mut [Option<Result<ScheduleReplay, NocError>>]) {
        // All chunk members share one fidelity class, so the first
        // request's system describes the mesh and faults for every lane.
        let setup = (|| {
            let sys = self.items[chunk[0]].sys;
            let mut net = BatchNetwork::new(transport_config(sys)?, chunk.len())?;
            apply_faults(sys, &mut net)?;
            Ok::<_, NocError>(net)
        })();
        let Ok(mut net) = setup else {
            // Config or fault application failed — it would fail for every
            // member identically. Fall back to the sequential path so each
            // request surfaces exactly the error replay_schedule reports.
            for &i in chunk {
                let item = &self.items[i];
                results[i] = Some(replay_schedule(item.sys, item.schedule, item.patterns_cap));
            }
            return;
        };

        let mut staged: Vec<Option<StagedSchedule>> = Vec::with_capacity(chunk.len());
        for (lane, &i) in chunk.iter().enumerate() {
            let item = &self.items[i];
            let outcome = stage_schedule(
                item.sys,
                item.schedule,
                item.patterns_cap.max(1),
                |packet, at| net.inject_at(lane, packet, at).map(|_| ()),
            );
            match outcome {
                Ok(s) => staged.push(Some(s)),
                Err(e) => {
                    // The lane may hold a partially staged stream, but
                    // lanes are fully independent: the stray traffic can
                    // only burn this lane's budget, never touch another's.
                    results[i] = Some(Err(e));
                    staged.push(None);
                }
            }
        }

        let budgets: Vec<u64> = staged
            .iter()
            .map(|s| s.as_ref().map_or(1, |s| s.budget))
            .collect();
        let mut lane_results = net.run_all_until_idle(&budgets).into_iter();
        for (lane, &i) in chunk.iter().enumerate() {
            let run = lane_results.next().expect("one result per lane");
            let Some(stage) = staged[lane].take() else {
                continue; // staging error already recorded
            };
            results[i] = Some(run.map(|delivered| {
                finish_schedule(
                    self.items[i].patterns_cap.max(1),
                    stage.sessions,
                    &delivered,
                )
            }));
        }
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
    use crate::system::SystemBuilder;
    use noctest_cpu::ProcessorProfile;
    use noctest_itc02::data;

    fn system() -> SystemUnderTest {
        SystemBuilder::from_benchmark(&data::d695(), 4, 4)
            .processors(&ProcessorProfile::leon(), 6, 2)
            .build()
            .unwrap()
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
        let replay = replay_stimulus_stream(&sys, InterfaceId(0), cut, 12).unwrap();
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
                let la = &sys.path(a.0, a.1).links;
                let lb = &sys.path(b.0, b.1).links;
                if !la.conflicts_with(lb) {
                    found = Some((a, b));
                    break 'outer;
                }
            }
        }
        let (a, b) = found.expect("some disjoint session pair exists");
        let replay = replay_concurrent_streams(&sys, a, b, 8).unwrap();
        assert!(
            replay.worst_slowdown() < 1.05,
            "disjoint sessions interfered: {replay:?}"
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
        assert!(sys
            .path(a.0, a.1)
            .links
            .conflicts_with(&sys.path(b.0, b.1).links));
        let replay = replay_concurrent_streams(&sys, a, b, 8).unwrap();
        assert!(
            replay.worst_slowdown() > 1.3,
            "shared-source sessions should contend: {replay:?}"
        );
    }

    #[test]
    fn replay_caps_pattern_count() {
        let sys = system();
        let cut = sys.cuts().iter().max_by_key(|c| c.patterns).unwrap();
        let replay = replay_stimulus_stream(&sys, InterfaceId(0), cut.id, 5).unwrap();
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
                if !sys
                    .path(a.0, a.1)
                    .links
                    .conflicts_with(&sys.path(b.0, b.1).links)
                {
                    found = Some((a, b));
                    break 'outer;
                }
            }
        }
        let ((ifa, cuta), (ifb, cutb)) = found.expect("some disjoint session pair exists");
        let cap = 8;
        let solo_a = replay_stimulus_stream(&sys, ifa, cuta, cap).unwrap();
        let solo_b = replay_stimulus_stream(&sys, ifb, cutb, cap).unwrap();

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
        // Mixed caps, duplicates, and an empty schedule, chunked three
        // lanes at a time: every result must equal the sequential replay
        // of the same request, field for field.
        let empty = Schedule::default();
        let requests = [
            (&schedule, 6),
            (&schedule, 2),
            (&schedule, 6),
            (&empty, 8),
            (&schedule, 1),
        ];
        let mut batch = ReplayBatch::with_max_lanes(3);
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
    fn longer_streams_cost_proportionally_more() {
        let sys = system();
        let cut = sys
            .cuts()
            .iter()
            .find(|c| c.name.ends_with("m4"))
            .unwrap()
            .id;
        let r4 = replay_stimulus_stream(&sys, InterfaceId(0), cut, 4).unwrap();
        let r8 = replay_stimulus_stream(&sys, InterfaceId(0), cut, 8).unwrap();
        let ratio = r8.simulated_cycles as f64 / r4.simulated_cycles as f64;
        assert!((1.6..2.4).contains(&ratio), "ratio {ratio}");
    }
}
