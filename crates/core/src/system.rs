//! The system under test: benchmark cores and processors placed on a mesh,
//! plus external test ports — everything the paper's tool is "fed" with.
//!
//! Placement (the paper gives none, so the builder uses a deterministic
//! documented policy):
//!
//! * external input port at the south-west corner router, external output
//!   port at the north-east corner router ("two external interfaces");
//! * processors spread by farthest-point sampling away from the external
//!   ports and each other — the designer would spread test sources to
//!   maximise path disjointness;
//! * benchmark cores fill the remaining routers row-major, wrapping around
//!   when the system has more cores than routers (p22810's 36 cores on a
//!   5x6 mesh, p93791's 40 on 5x5 — routers then host several cores on one
//!   local port, as the paper's core counts imply).
//!
//! The build also fills the **session table**: every (cut, interface)
//! pairing, at slot `cut × interfaces + interface`, with its path (none
//! when the fault set severed the pair), its session cycles and power
//! from the [`TimingModel`] and [`PowerModel`], and its link footprint as
//! a bitmask over the links of the system's paths. Every reader looks
//! costs up instead of recomputing them, and
//! [`SystemUnderTest::footprints_overlap`] is the one test of the paper's
//! concurrency rule: the heuristics, the exact search,
//! [`crate::Schedule::validate`], the replay certificate and the delta
//! planner all call it.

use noctest_cpu::ProcessorProfile;
use noctest_faults::{DetourOracle, FaultSet};
use noctest_itc02::SocDesc;
use noctest_noc::{LinkId, Mesh, NodeId, RoutingKind};

use crate::cut::{CoreUnderTest, CutId, CutKind};
use crate::error::PlanError;
use crate::interface::{InterfaceId, TestInterface};
use crate::path::TestPath;
use crate::power::{PowerBudget, PowerModel};
use crate::timing::TimingModel;
use crate::wrapper::WrapperDesign;

/// Test priority policy: the order in which waiting cores are offered a
/// start. The paper's rule is distance-based ("the cores closer to IO
/// ports or processors are tested first"); the alternatives exist for the
/// ablation benches. Reusable processors always come first (they unlock
/// interfaces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PriorityPolicy {
    /// The paper's rule: ascending distance to the nearest interface.
    #[default]
    Distance,
    /// Descending test-data volume (longest test first).
    VolumeDescending,
    /// Declaration order (no heuristic).
    Index,
}

/// How the power budget is specified before the system total is known.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BudgetSpec {
    /// No limit.
    #[default]
    Unlimited,
    /// The paper's form: a fraction of the sum of all cores' test power.
    Fraction(f64),
    /// An absolute cap.
    Absolute(f64),
}

/// One core awaiting placement (builder-internal).
#[derive(Debug, Clone)]
struct CoreSpec {
    name: String,
    bits_in: u32,
    bits_out: u32,
    patterns: u32,
    power: f64,
    shift_in_bound: u32,
    shift_out_bound: u32,
}

impl CoreSpec {
    /// A hand-specified core: no wrapper modelling, so the shift bounds
    /// are zero.
    fn hand(name: String, bits_in: u32, bits_out: u32, patterns: u32, power: f64) -> Self {
        CoreSpec {
            name,
            bits_in,
            bits_out,
            patterns,
            power,
            shift_in_bound: 0,
            shift_out_bound: 0,
        }
    }
}

/// The cores of one SoC as the builder places them: names, test data and
/// wrapper shift bounds. This is everything a system takes from its SoC
/// alone, before any mesh, processor, budget or fault set, so systems
/// built from the same SoC can share one.
#[derive(Debug, Clone)]
pub(crate) struct SocCores {
    name: String,
    cores: Vec<CoreSpec>,
}

impl SocCores {
    /// No cores yet; add hand-specified ones with [`SocCores::core`].
    pub(crate) fn new(name: impl Into<String>) -> Self {
        SocCores {
            name: name.into(),
            cores: Vec::new(),
        }
    }

    /// The wrapper-designed cores of an ITC'02 benchmark.
    pub(crate) fn from_benchmark(soc: &SocDesc) -> Self {
        let cores = soc
            .cores()
            .map(|m| {
                // Wrapper with at most 16 chains: a typical TAM-width
                // class, and enough that the shift bound only binds for
                // cores with very few internal chains.
                let wrapper = WrapperDesign::design(
                    m.scan_chains(),
                    m.inputs() + m.bidirs(),
                    m.outputs() + m.bidirs(),
                    16,
                );
                CoreSpec {
                    name: format!("{}.m{}", soc.name(), m.id().0),
                    bits_in: m.pattern_bits_in(),
                    bits_out: m.pattern_bits_out(),
                    patterns: m
                        .tests()
                        .iter()
                        .filter(|t| t.tam_use == noctest_itc02::TamUse::Yes)
                        .map(|t| t.patterns)
                        .sum(),
                    power: m.power().unwrap_or(0.0),
                    shift_in_bound: wrapper.max_in(),
                    shift_out_bound: wrapper.max_out(),
                }
            })
            .collect();
        SocCores {
            name: soc.name().to_owned(),
            cores,
        }
    }

    /// Adds a hand-specified core (no wrapper modelling: the shift bounds
    /// are zero).
    pub(crate) fn core(
        mut self,
        name: impl Into<String>,
        bits_in: u32,
        bits_out: u32,
        patterns: u32,
        power: f64,
    ) -> Self {
        self.cores.push(CoreSpec::hand(
            name.into(),
            bits_in,
            bits_out,
            patterns,
            power,
        ));
        self
    }
}

/// Builder for [`SystemUnderTest`].
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    name: String,
    width: u16,
    height: u16,
    routing: RoutingKind,
    timing: TimingModel,
    power_model: PowerModel,
    budget: BudgetSpec,
    priority: PriorityPolicy,
    core_specs: Vec<CoreSpec>,
    processor_profile: Option<ProcessorProfile>,
    processors_total: usize,
    processors_reused: usize,
    ext_in: (u16, u16),
    ext_out: (u16, u16),
    faults: FaultSet,
}

impl SystemBuilder {
    /// Starts a system on a `width x height` mesh.
    #[must_use]
    pub fn new(name: impl Into<String>, width: u16, height: u16) -> Self {
        SystemBuilder {
            name: name.into(),
            width,
            height,
            routing: RoutingKind::Xy,
            timing: TimingModel::default(),
            power_model: PowerModel::default(),
            budget: BudgetSpec::Unlimited,
            priority: PriorityPolicy::Distance,
            core_specs: Vec::new(),
            processor_profile: None,
            processors_total: 0,
            processors_reused: 0,
            ext_in: (0, 0),
            ext_out: (width.saturating_sub(1), height.saturating_sub(1)),
            faults: FaultSet::none(),
        }
    }

    /// Starts a system from an ITC'02 benchmark (cores only; add
    /// processors with [`SystemBuilder::processors`]).
    #[must_use]
    pub fn from_benchmark(soc: &SocDesc, width: u16, height: u16) -> Self {
        SystemBuilder::from_cores(SocCores::from_benchmark(soc), width, height)
    }

    /// Starts a system from cores already derived from their SoC.
    pub(crate) fn from_cores(cores: SocCores, width: u16, height: u16) -> Self {
        let mut b = SystemBuilder::new(cores.name, width, height);
        b.core_specs = cores.cores;
        b
    }

    /// Adds a hand-specified core (no wrapper modelling: the shift bounds
    /// are zero, so [`crate::TimingModel::wrapper_shift`] has no effect on
    /// it).
    #[must_use]
    pub fn core(
        mut self,
        name: impl Into<String>,
        bits_in: u32,
        bits_out: u32,
        patterns: u32,
        power: f64,
    ) -> Self {
        self.core_specs.push(CoreSpec::hand(
            name.into(),
            bits_in,
            bits_out,
            patterns,
            power,
        ));
        self
    }

    /// Adds `total` processor cores of the given profile, of which the
    /// first `reused` may act as test interfaces once self-tested.
    ///
    /// # Panics
    ///
    /// Panics if `reused > total`.
    #[must_use]
    pub fn processors(mut self, profile: &ProcessorProfile, total: usize, reused: usize) -> Self {
        assert!(reused <= total, "cannot reuse more processors than exist");
        self.processor_profile = Some(profile.clone());
        self.processors_total = total;
        self.processors_reused = reused;
        self
    }

    /// Selects the routing algorithm (default XY, as in the paper).
    #[must_use]
    pub fn routing(mut self, routing: RoutingKind) -> Self {
        self.routing = routing;
        self
    }

    /// Replaces the timing model.
    #[must_use]
    pub fn timing(mut self, timing: TimingModel) -> Self {
        self.timing = timing;
        self
    }

    /// Replaces the power model.
    #[must_use]
    pub fn power_model(mut self, power_model: PowerModel) -> Self {
        self.power_model = power_model;
        self
    }

    /// Sets the power budget.
    #[must_use]
    pub fn budget(mut self, budget: BudgetSpec) -> Self {
        self.budget = budget;
        self
    }

    /// Selects the test priority policy (default: the paper's
    /// distance-based rule).
    #[must_use]
    pub fn priority(mut self, priority: PriorityPolicy) -> Self {
        self.priority = priority;
        self
    }

    /// Moves the external ports (default: SW and NE corners).
    #[must_use]
    pub fn external_ports(mut self, input: (u16, u16), output: (u16, u16)) -> Self {
        self.ext_in = input;
        self.ext_out = output;
        self
    }

    /// Plans on a degraded mesh: paths detour around `faults`, unreachable
    /// (interface, core) pairings are excluded, and the fault set rides
    /// into the built system for fault-injected replay. The empty set is
    /// byte-identical to not calling this at all.
    #[must_use]
    pub fn faults(mut self, faults: FaultSet) -> Self {
        self.faults = faults;
        self
    }

    /// Validates and builds the system.
    ///
    /// # Errors
    ///
    /// [`PlanError::NothingToTest`] for a system with no cores and no
    /// processors, [`PlanError::MeshTooSmall`] if the processors do not
    /// fit, [`PlanError::NoTamTest`] for untestable cores,
    /// [`PlanError::CutUnreachable`] for a core that no interface able to
    /// serve can reach under the fault set, and
    /// [`PlanError::InfeasiblePower`] if any single session alone would
    /// exceed the budget.
    pub fn build(self) -> Result<SystemUnderTest, PlanError> {
        if self.core_specs.is_empty() && self.processors_total == 0 {
            return Err(PlanError::NothingToTest { soc: self.name });
        }
        let mesh = Mesh::new(self.width, self.height).map_err(|_| PlanError::MeshTooSmall {
            nodes: 0,
            required: self.core_specs.len() + self.processors_total,
        })?;
        let nodes = mesh.len();
        if self.processors_total > nodes || nodes == 0 {
            return Err(PlanError::MeshTooSmall {
                nodes,
                required: self.processors_total,
            });
        }
        if let Err(node) = self.faults.validate(&mesh) {
            return Err(PlanError::FaultOutsideMesh {
                node: u32::from(node),
            });
        }

        let ext_in = mesh
            .node_at(self.ext_in.0, self.ext_in.1)
            .ok_or(PlanError::MeshTooSmall {
                nodes,
                required: self.core_specs.len(),
            })?;
        let ext_out =
            mesh.node_at(self.ext_out.0, self.ext_out.1)
                .ok_or(PlanError::MeshTooSmall {
                    nodes,
                    required: self.core_specs.len(),
                })?;

        // --- Placement -------------------------------------------------
        let proc_nodes = farthest_point_sites(&mesh, &[ext_in, ext_out], self.processors_total);
        if proc_nodes.len() < self.processors_total {
            // The external ports occupy two routers; the rest must seat
            // every processor on its own router.
            return Err(PlanError::MeshTooSmall {
                nodes,
                required: self.processors_total + 2,
            });
        }
        let core_sites: Vec<NodeId> = mesh.nodes().filter(|n| !proc_nodes.contains(n)).collect();
        if core_sites.is_empty() && !self.core_specs.is_empty() {
            return Err(PlanError::MeshTooSmall {
                nodes,
                required: self.core_specs.len() + self.processors_total,
            });
        }

        // --- Interfaces --------------------------------------------------
        let mut interfaces = vec![TestInterface::ExternalTester {
            input_node: ext_in,
            output_node: ext_out,
        }];
        if let Some(profile) = &self.processor_profile {
            for (i, &node) in proc_nodes.iter().enumerate().take(self.processors_reused) {
                interfaces.push(TestInterface::Processor {
                    index: i,
                    node,
                    profile: profile.clone(),
                });
            }
        }

        // --- CUTs --------------------------------------------------------
        let mut cuts = Vec::new();
        if let Some(profile) = &self.processor_profile {
            for (i, &node) in proc_nodes.iter().enumerate().take(self.processors_total) {
                let id = CutId(cuts.len() as u32);
                let mut cut = CoreUnderTest::from_processor(id, profile, i, node);
                if i >= self.processors_reused {
                    // A processor that is not reused is just another core.
                    cut.kind = CutKind::Core;
                }
                cuts.push(cut);
            }
        }
        for (i, spec) in self.core_specs.iter().enumerate() {
            let id = CutId(cuts.len() as u32);
            let node = core_sites[i % core_sites.len()];
            cuts.push(CoreUnderTest {
                id,
                name: spec.name.clone(),
                node,
                kind: CutKind::Core,
                bits_in: spec.bits_in,
                bits_out: spec.bits_out,
                patterns: spec.patterns,
                power: spec.power,
                shift_in_bound: spec.shift_in_bound,
                shift_out_bound: spec.shift_out_bound,
            });
        }
        for cut in &cuts {
            if cut.patterns == 0 {
                return Err(PlanError::NoTamTest { cut: cut.id });
            }
        }

        // --- Budget ------------------------------------------------------
        let total_power: f64 = cuts.iter().map(|c| c.power).sum();
        let budget = match self.budget {
            BudgetSpec::Unlimited => PowerBudget::Unlimited,
            BudgetSpec::Fraction(f) => PowerBudget::fraction_of(total_power, f),
            BudgetSpec::Absolute(a) => PowerBudget::Limit(a),
        };

        // --- Session table -------------------------------------------------
        // On a pristine mesh the paths come from the configured routing
        // algorithm, byte-identical to the fault-free planner. Under
        // faults they come from the detour oracle instead; a `None` path
        // records that the fault set severed that (interface, core) pair.
        let detour = (!self.faults.is_empty()).then(|| DetourOracle::new(&mesh, &self.faults));
        let mut sessions = Vec::with_capacity(cuts.len() * interfaces.len());
        for cut in &cuts {
            for iface in &interfaces {
                let path = match &detour {
                    None => Some(TestPath::compute(&mesh, self.routing, iface, cut)),
                    Some(oracle) => TestPath::compute_detoured(&mesh, oracle, iface, cut),
                };
                let (cycles, power) = path.as_ref().map_or((0, 0.0), |p| {
                    (
                        self.timing
                            .session_cycles(cut, iface, p.hops_in, p.hops_out),
                        self.power_model.session_power(&mesh, cut, iface, p),
                    )
                });
                sessions.push(Session {
                    path,
                    cycles,
                    power,
                });
            }
        }
        // A processor serves as an interface once its self-test has run
        // from another interface that serves. Grow the serving set from
        // the external tester until it stops changing; every core must be
        // reachable from it.
        let rows: Vec<&[Session]> = sessions.chunks(interfaces.len()).collect();
        let mut serves: Vec<bool> = interfaces.iter().map(TestInterface::is_external).collect();
        let reached = |row: &[Session], serves: &[bool], except: Option<usize>| {
            row.iter()
                .zip(serves)
                .enumerate()
                .any(|(i, (session, &on))| on && Some(i) != except && session.path.is_some())
        };
        while let Some(i) = (0..interfaces.len()).find(|&i| {
            !serves[i]
                && interfaces[i]
                    .processor_index()
                    .is_some_and(|own| reached(rows[own], &serves, Some(i)))
        }) {
            serves[i] = true;
        }
        for (cut, row) in cuts.iter().zip(&rows) {
            if !reached(row, &serves, None) {
                return Err(PlanError::CutUnreachable { cut: cut.id });
            }
        }
        let (mask_words, masks) = link_masks(&sessions);

        let system = SystemUnderTest {
            name: self.name,
            mesh,
            routing: self.routing,
            timing: self.timing,
            budget,
            priority: self.priority,
            cuts,
            interfaces,
            sessions,
            mask_words,
            masks,
            faults: self.faults,
            detour,
            total_core_power: total_power,
        };

        // Feasibility: every session must fit the budget alone *on the
        // external tester*. The external tester is the schedulers'
        // universal fallback — a core that only fits the budget via a
        // processor interface could deadlock the plan (the processor's own
        // self-test might transitively depend on that core), so such
        // systems are rejected up front. Under faults the check falls back
        // to the lowest-indexed interface that still reaches the core.
        for cut in system.cuts() {
            let iface = system.fallback_interface(cut.id);
            let draw = system.session_power(iface, cut.id);
            if !system.budget.allows(draw) {
                return Err(PlanError::InfeasiblePower {
                    cut: cut.id,
                    draw,
                    budget: system.budget.cap().unwrap_or(f64::MAX),
                });
            }
        }
        Ok(system)
    }
}

/// Deterministic farthest-point sampling: picks `count` sites maximising
/// the minimum distance to `seeds` and previously picked sites.
fn farthest_point_sites(mesh: &Mesh, seeds: &[NodeId], count: usize) -> Vec<NodeId> {
    let mut chosen: Vec<NodeId> = Vec::with_capacity(count);
    let anchors: Vec<NodeId> = seeds.to_vec();
    for _ in 0..count {
        let best = mesh
            .nodes()
            .filter(|n| !anchors.contains(n) && !chosen.contains(n))
            .max_by_key(|n| {
                let d = anchors
                    .iter()
                    .chain(chosen.iter())
                    .map(|a| mesh.distance(*n, *a))
                    .min()
                    .unwrap_or(0);
                (d, std::cmp::Reverse(n.index()))
            });
        match best {
            Some(n) => chosen.push(n),
            None => break,
        }
    }
    chosen
}

/// The link footprint of every slot as a bitmask, `words` `u64`s per
/// slot in slot order. Only the links of the system's paths are
/// numbered, in ascending link order, so the masks grow with the paths
/// and not with idle mesh area. The numbering is a bijection between
/// those links and bit positions: two footprints share a link exactly
/// when their masks share a set bit. A severed slot's mask is empty.
fn link_masks(sessions: &[Session]) -> (usize, Vec<u64>) {
    // Every (link, slot) use, sorted by link: a link's bit is its rank
    // among the distinct links. The key orders links as `LinkId` does.
    let key = |l: &LinkId| {
        u64::from(u32::from(l.from)) << 4 | (l.dir as u64) << 1 | u64::from(l.into_core)
    };
    let mut uses: Vec<(u64, usize)> = sessions
        .iter()
        .enumerate()
        .flat_map(|(slot, s)| s.links().iter().map(move |l| (key(l), slot)))
        .collect();
    uses.sort_unstable();
    let distinct = |i: usize| i == 0 || uses[i - 1].0 != uses[i].0;
    let words = (0..uses.len())
        .filter(|&i| distinct(i))
        .count()
        .div_ceil(64);
    let mut masks = vec![0u64; sessions.len() * words];
    let mut bit = 0;
    for (i, &(_, slot)) in uses.iter().enumerate() {
        if i > 0 && distinct(i) {
            bit += 1;
        }
        masks[slot * words + bit / 64] |= 1 << (bit % 64);
    }
    (words, masks)
}

/// One (cut, interface) pairing of the session table, costed once when
/// the system is built.
#[derive(Debug, Clone)]
pub(crate) struct Session {
    /// The pair's path; `None` when the fault set severed the pair.
    pub(crate) path: Option<TestPath>,
    /// [`TimingModel::session_cycles`] over the path (0 when severed).
    pub(crate) cycles: u64,
    /// [`PowerModel::session_power`] over the path (0 when severed).
    pub(crate) power: f64,
}

impl Session {
    /// The links of the pair's path; none when severed.
    fn links(&self) -> &[LinkId] {
        self.path.as_ref().map_or(&[], TestPath::links)
    }
}

/// A fully placed, characterised system ready for test planning.
#[derive(Debug, Clone)]
pub struct SystemUnderTest {
    name: String,
    mesh: Mesh,
    routing: RoutingKind,
    timing: TimingModel,
    budget: PowerBudget,
    priority: PriorityPolicy,
    cuts: Vec<CoreUnderTest>,
    interfaces: Vec<TestInterface>,
    /// The session table, one entry per slot (see [`SystemUnderTest::slot`]).
    sessions: Vec<Session>,
    /// `u64` words per link mask.
    mask_words: usize,
    /// The slots' link masks (see [`link_masks`]), `mask_words` per slot.
    masks: Vec<u64>,
    faults: FaultSet,
    detour: Option<DetourOracle>,
    total_core_power: f64,
}

impl SystemUnderTest {
    /// System name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The mesh.
    #[must_use]
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The routing algorithm.
    #[must_use]
    pub fn routing(&self) -> RoutingKind {
        self.routing
    }

    /// The timing model.
    #[must_use]
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// The power budget.
    #[must_use]
    pub fn budget(&self) -> PowerBudget {
        self.budget
    }

    /// Sum of all cores' test-mode power (the paper's 100% reference).
    #[must_use]
    pub fn total_core_power(&self) -> f64 {
        self.total_core_power
    }

    /// All cores under test.
    #[must_use]
    pub fn cuts(&self) -> &[CoreUnderTest] {
        &self.cuts
    }

    /// One core by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn cut(&self, id: CutId) -> &CoreUnderTest {
        &self.cuts[id.0 as usize]
    }

    /// All interfaces (external tester first).
    #[must_use]
    pub fn interfaces(&self) -> &[TestInterface] {
        &self.interfaces
    }

    /// One interface by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn interface(&self, id: InterfaceId) -> &TestInterface {
        &self.interfaces[id.0]
    }

    /// Interface ids in the paper's preference order (external first).
    pub fn interface_ids(&self) -> impl Iterator<Item = InterfaceId> {
        (0..self.interfaces.len()).map(InterfaceId)
    }

    /// The fault set the system was planned against (empty = pristine).
    #[must_use]
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The detour oracle, present only when the fault set is non-empty.
    #[must_use]
    pub fn detour(&self) -> Option<&DetourOracle> {
        self.detour.as_ref()
    }

    /// `true` when `iface` has surviving routes both to and from `cut`
    /// (always `true` on a pristine mesh).
    #[must_use]
    pub fn reachable(&self, iface: InterfaceId, cut: CutId) -> bool {
        self.try_path(iface, cut).is_some()
    }

    /// The precomputed path for testing `cut` from `iface`, or `None` when
    /// the fault set severed the pair.
    #[must_use]
    pub fn try_path(&self, iface: InterfaceId, cut: CutId) -> Option<&TestPath> {
        self.sessions[self.slot(iface, cut)].path.as_ref()
    }

    /// The precomputed path for testing `cut` from `iface`.
    ///
    /// # Panics
    ///
    /// Panics when the fault set severed the pair; schedulers check
    /// [`SystemUnderTest::reachable`] before costing a pairing.
    #[must_use]
    pub fn path(&self, iface: InterfaceId, cut: CutId) -> &TestPath {
        self.try_path(iface, cut)
            .expect("no surviving route between interface and core")
    }

    /// The lowest-indexed interface with a surviving route to `cut` — the
    /// external tester on a pristine mesh. Build-time checks guarantee one
    /// exists for every core of a successfully built system.
    #[must_use]
    pub(crate) fn fallback_interface(&self, cut: CutId) -> InterfaceId {
        self.interface_ids()
            .find(|&iface| self.reachable(iface, cut))
            .expect("every core of a built system is reachable somewhere")
    }

    /// The session-table slot of the (`cut`, `iface`) pairing: cut-major,
    /// `cut × interfaces + iface`, so one cut's pairings are adjacent.
    #[must_use]
    pub(crate) fn slot(&self, iface: InterfaceId, cut: CutId) -> usize {
        cut.0 as usize * self.interfaces.len() + iface.0
    }

    /// The session-table entry at `slot`.
    #[must_use]
    pub(crate) fn session(&self, slot: usize) -> &Session {
        &self.sessions[slot]
    }

    /// The session of a pair with a surviving route.
    fn costed(&self, iface: InterfaceId, cut: CutId) -> &Session {
        let session = self.session(self.slot(iface, cut));
        assert!(
            session.path.is_some(),
            "no surviving route between interface and core"
        );
        session
    }

    /// Session duration in cycles for `cut` driven by `iface`.
    ///
    /// # Panics
    ///
    /// Panics when the fault set severed the pair, as
    /// [`SystemUnderTest::path`] does.
    #[must_use]
    pub fn session_cycles(&self, iface: InterfaceId, cut: CutId) -> u64 {
        self.costed(iface, cut).cycles
    }

    /// Instantaneous power draw of the session.
    ///
    /// # Panics
    ///
    /// Panics when the fault set severed the pair, as
    /// [`SystemUnderTest::path`] does.
    #[must_use]
    pub fn session_power(&self, iface: InterfaceId, cut: CutId) -> f64 {
        self.costed(iface, cut).power
    }

    /// `true` when the footprints of two slots share a link. This is the
    /// one test of the paper's concurrency rule: every scheduler,
    /// [`crate::Schedule::validate`], the replay certificate and the
    /// delta planner call it. A severed slot's footprint is empty.
    #[must_use]
    pub(crate) fn slots_overlap(&self, a: usize, b: usize) -> bool {
        let w = self.mask_words;
        self.masks[a * w..(a + 1) * w]
            .iter()
            .zip(&self.masks[b * w..(b + 1) * w])
            .any(|(x, y)| x & y != 0)
    }

    /// `true` when the paths of two (interface, core) pairings share a
    /// link, so the two sessions may not run at the same time. A pair the
    /// fault set severed has no footprint and overlaps nothing.
    #[must_use]
    pub fn footprints_overlap(&self, a: (InterfaceId, CutId), b: (InterfaceId, CutId)) -> bool {
        self.slots_overlap(self.slot(a.0, a.1), self.slot(b.0, b.1))
    }

    /// The configured priority policy.
    #[must_use]
    pub fn priority_policy(&self) -> PriorityPolicy {
        self.priority
    }

    /// The test priority order. Under the default [`PriorityPolicy::Distance`]
    /// this is the paper's rule: reusable processors first (they unlock
    /// interfaces), then cores closer to IO ports or processors first.
    #[must_use]
    pub fn priority_order(&self) -> Vec<CutId> {
        let mut order: Vec<CutId> = self.cuts.iter().map(|c| c.id).collect();
        match self.priority {
            PriorityPolicy::Distance => order.sort_by_key(|&id| {
                let cut = self.cut(id);
                let dist = self
                    .interfaces
                    .iter()
                    .map(|i| self.route_hops(i.source_node(), cut.node))
                    .min()
                    .unwrap_or(0);
                (u32::from(!cut.is_processor()), dist, id.0)
            }),
            PriorityPolicy::VolumeDescending => order.sort_by_key(|&id| {
                let cut = self.cut(id);
                (
                    u32::from(!cut.is_processor()),
                    std::cmp::Reverse(cut.volume_bits()),
                    id.0,
                )
            }),
            PriorityPolicy::Index => {
                order.sort_by_key(|&id| (u32::from(!self.cut(id).is_processor()), id.0))
            }
        }
        order
    }

    /// Routing-aware hop count between two routers: detoured hops on a
    /// degraded mesh (`u32::MAX` when severed), Manhattan distance
    /// otherwise.
    fn route_hops(&self, from: NodeId, to: NodeId) -> u32 {
        match &self.detour {
            Some(oracle) => oracle.hops(from, to).unwrap_or(u32::MAX),
            None => self.mesh.distance(from, to),
        }
    }

    /// Serialized lower bound: every core tested one at a time on the
    /// external tester (not achievable when paths conflict; used for
    /// reporting). On a degraded mesh, cores the external tester cannot
    /// reach are costed on their lowest-indexed surviving interface.
    #[must_use]
    pub fn serial_external_cycles(&self) -> u64 {
        self.cuts
            .iter()
            .map(|c| self.session_cycles(self.fallback_interface(c.id), c.id))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use noctest_faults::FaultRecipe;
    use noctest_itc02::data;
    use noctest_noc::Direction;
    use noctest_testkit::Rng;

    fn d695_system(reused: usize) -> SystemUnderTest {
        SystemBuilder::from_benchmark(&data::d695(), 4, 4)
            .processors(&ProcessorProfile::leon(), 6, reused)
            .build()
            .unwrap()
    }

    /// A seeded small system under XY, YX or west-first routing and a
    /// seeded power model, pristine or degraded by uniform link faults;
    /// `None` when the fault set leaves some core untestable.
    fn seeded_system(seed: u64) -> Option<(SystemUnderTest, PowerModel)> {
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
        let routing = *rng.pick(&[RoutingKind::Xy, RoutingKind::Yx, RoutingKind::WestFirst]);
        let power_model = PowerModel {
            noc_power_per_router: rng.range_f64(5.0, 40.0),
        };
        let percent = *rng.pick(&[0u8, 20, 35]);
        let mesh = Mesh::new(width, height).unwrap();
        let sys = b
            .routing(routing)
            .power_model(power_model)
            .faults(FaultRecipe::UniformLinks { percent }.generate(&mesh, seed))
            .build()
            .ok()?;
        Some((sys, power_model))
    }

    /// Every slot of the session table against an independent
    /// recomputation from the path functions and the timing and power
    /// models, and every pair of masks against a set intersection of the
    /// recomputed links.
    #[test]
    fn session_table_is_the_system_bit_for_bit() {
        let (mut systems, mut severed, mut multi_word) = (0, 0, 0);
        let mut routings = BTreeSet::new();
        // A build refuses a system that cannot be tested, so a severed
        // pair appears only in the rarer systems that route around it:
        // the first such seed is number 123.
        for seed in noctest_testkit::seeds(160) {
            let Some((sys, power_model)) = seeded_system(seed) else {
                continue;
            };
            systems += 1;
            if sys.detour().is_none() {
                routings.insert(format!("{:?}", sys.routing()));
            }
            if sys.mask_words > 1 {
                multi_word += 1;
            }
            let mut footprints = Vec::new();
            for cut in sys.cuts() {
                for iface in sys.interface_ids() {
                    let slot = sys.slot(iface, cut.id);
                    assert_eq!(slot, footprints.len(), "seed {seed}: slots are cut-major");
                    let interface = sys.interface(iface);
                    let path = match sys.detour() {
                        None => Some(TestPath::compute(sys.mesh(), sys.routing(), interface, cut)),
                        Some(oracle) => {
                            TestPath::compute_detoured(sys.mesh(), oracle, interface, cut)
                        }
                    };
                    let session = sys.session(slot);
                    assert_eq!(session.path, path, "seed {seed}");
                    let Some(path) = path else {
                        severed += 1;
                        footprints.push(BTreeSet::new());
                        continue;
                    };
                    let cycles =
                        sys.timing()
                            .session_cycles(cut, interface, path.hops_in, path.hops_out);
                    let routers: BTreeSet<NodeId> = path
                        .links()
                        .iter()
                        .flat_map(|l| {
                            std::iter::once(l.from).chain(sys.mesh().neighbor(l.from, l.dir))
                        })
                        .collect();
                    assert_eq!(path.router_count(sys.mesh()), routers.len(), "seed {seed}");
                    let power = power_model.session_power(sys.mesh(), cut, interface, &path);
                    assert_eq!(session.cycles, cycles, "seed {seed}");
                    assert_eq!(session.power.to_bits(), power.to_bits(), "seed {seed}");
                    footprints.push(path.links().iter().copied().collect::<BTreeSet<LinkId>>());
                }
            }
            for (a, fa) in footprints.iter().enumerate() {
                for (b, fb) in footprints.iter().enumerate() {
                    assert_eq!(
                        sys.slots_overlap(a, b),
                        !fa.is_disjoint(fb),
                        "seed {seed}: slots {a} and {b}"
                    );
                }
            }
        }
        assert!(systems >= 48, "only {systems} seeded systems built");
        assert_eq!(routings.len(), 3, "pristine routings covered: {routings:?}");
        assert!(severed > 0, "no seeded system had an unreachable pair");
        assert!(multi_word > 0, "no seeded system needed a multi-word mask");
    }

    #[test]
    fn d695_places_sixteen_cuts() {
        let sys = d695_system(2);
        assert_eq!(sys.cuts().len(), 16);
        assert_eq!(sys.interfaces().len(), 3); // ext + 2 processors
        assert_eq!(sys.name(), "d695");
    }

    #[test]
    fn noproc_has_only_external_interface() {
        let sys = d695_system(0);
        assert_eq!(sys.interfaces().len(), 1);
        assert!(sys.interfaces()[0].is_external());
        // All 6 processors degrade to plain cores.
        assert!(sys.cuts().iter().all(|c| !c.is_processor()));
    }

    #[test]
    fn reused_processors_are_flagged() {
        let sys = d695_system(4);
        let procs: Vec<_> = sys.cuts().iter().filter(|c| c.is_processor()).collect();
        assert_eq!(procs.len(), 4);
    }

    #[test]
    fn processors_sit_on_distinct_spread_nodes() {
        let sys = d695_system(6);
        let mut nodes: Vec<_> = sys
            .interfaces()
            .iter()
            .filter(|i| !i.is_external())
            .map(|i| i.source_node())
            .collect();
        nodes.sort();
        nodes.dedup();
        assert_eq!(nodes.len(), 6);
        // None on the external corner ports.
        assert!(!nodes.contains(&NodeId::new(0)));
        assert!(!nodes.contains(&NodeId::new(15)));
    }

    #[test]
    fn oversubscribed_mesh_shares_routers() {
        let sys = SystemBuilder::from_benchmark(&data::p93791(), 5, 5)
            .processors(&ProcessorProfile::leon(), 8, 8)
            .build()
            .unwrap();
        assert_eq!(sys.cuts().len(), 40);
        // 25 routers for 40 cores: some router hosts at least two.
        let mut counts = std::collections::HashMap::new();
        for c in sys.cuts() {
            *counts.entry(c.node).or_insert(0usize) += 1;
        }
        assert!(counts.values().any(|&n| n >= 2));
    }

    #[test]
    fn priority_puts_processors_first() {
        let sys = d695_system(6);
        let order = sys.priority_order();
        let first_six: Vec<_> = order[..6]
            .iter()
            .map(|&id| sys.cut(id).is_processor())
            .collect();
        assert!(first_six.iter().all(|&p| p));
        // Among plain cores, distance to nearest interface is monotone.
        let dists: Vec<u32> = order[6..]
            .iter()
            .map(|&id| {
                let cut = sys.cut(id);
                sys.interfaces()
                    .iter()
                    .map(|i| sys.mesh().distance(i.source_node(), cut.node))
                    .min()
                    .unwrap()
            })
            .collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn session_cycles_depend_on_interface() {
        let sys = SystemBuilder::from_benchmark(&data::d695(), 4, 4)
            .processors(&ProcessorProfile::plasma().calibrated().unwrap(), 6, 6)
            .build()
            .unwrap();
        // Pick the largest core; the calibrated processor should be slower
        // than the external stream.
        let big = sys
            .cuts()
            .iter()
            .max_by_key(|c| c.volume_bits())
            .unwrap()
            .id;
        let ext = sys.session_cycles(InterfaceId(0), big);
        let proc = sys.session_cycles(InterfaceId(1), big);
        assert!(proc > ext);
    }

    #[test]
    fn infeasible_power_rejected() {
        let err = SystemBuilder::new("tiny", 2, 2)
            .core("hog", 100, 100, 10, 5000.0)
            .core("small", 10, 10, 5, 10.0)
            .budget(BudgetSpec::Fraction(0.5))
            .build()
            .unwrap_err();
        assert!(matches!(err, PlanError::InfeasiblePower { .. }));
    }

    #[test]
    fn zero_pattern_core_rejected() {
        let err = SystemBuilder::new("bad", 2, 2)
            .core("empty", 10, 10, 0, 10.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, PlanError::NoTamTest { .. }));
    }

    #[test]
    fn budget_fraction_uses_total_core_power() {
        let sys = SystemBuilder::from_benchmark(&data::d695(), 4, 4)
            .processors(&ProcessorProfile::leon(), 6, 0)
            .budget(BudgetSpec::Fraction(0.5))
            .build()
            .unwrap();
        let expected = sys.total_core_power() * 0.5;
        assert!((sys.budget().cap().unwrap() - expected).abs() < 1e-9);
        // d695 literature power + 6 Leon test powers.
        assert!((sys.total_core_power() - (6472.0 + 6.0 * 400.0)).abs() < 1e-9);
    }

    #[test]
    fn serial_external_is_sum_of_sessions() {
        let sys = d695_system(0);
        let sum: u64 = sys
            .cuts()
            .iter()
            .map(|c| sys.session_cycles(InterfaceId(0), c.id))
            .sum();
        assert_eq!(sys.serial_external_cycles(), sum);
    }

    #[test]
    fn empty_fault_set_builds_the_identical_system() {
        let pristine = d695_system(2);
        let faulted = SystemBuilder::from_benchmark(&data::d695(), 4, 4)
            .processors(&ProcessorProfile::leon(), 6, 2)
            .faults(FaultSet::none())
            .build()
            .unwrap();
        assert!(faulted.detour().is_none(), "empty set never builds oracle");
        for cut in pristine.cuts() {
            for iface in pristine.interface_ids() {
                assert_eq!(
                    pristine.session_cycles(iface, cut.id),
                    faulted.session_cycles(iface, cut.id)
                );
            }
        }
    }

    #[test]
    fn detours_lengthen_sessions_never_shorten_them() {
        let pristine = d695_system(2);
        // Kill three of the four eastbound links out of column x=1: east
        // crossings must climb to row y=3 and back down, but every pair
        // stays reachable (the westbound twins survive).
        let faults = FaultSet::none()
            .with_link(LinkId::cardinal(NodeId::new(1), Direction::East))
            .with_link(LinkId::cardinal(NodeId::new(5), Direction::East))
            .with_link(LinkId::cardinal(NodeId::new(9), Direction::East));
        let sys = SystemBuilder::from_benchmark(&data::d695(), 4, 4)
            .processors(&ProcessorProfile::leon(), 6, 2)
            .faults(faults)
            .build()
            .unwrap();
        let mut inflated = 0usize;
        for cut in sys.cuts() {
            for iface in sys.interface_ids() {
                if !sys.reachable(iface, cut.id) {
                    continue;
                }
                let healthy = pristine.session_cycles(iface, cut.id);
                let degraded = sys.session_cycles(iface, cut.id);
                assert!(degraded >= healthy, "detour shortened a session");
                if degraded > healthy {
                    inflated += 1;
                }
            }
        }
        assert!(inflated > 0, "a dead centre router must inflate something");
    }

    #[test]
    fn severed_core_is_a_typed_error_not_a_panic() {
        // A 1-wide mesh is a chain; killing the middle router cuts the
        // northern cores off from the corner interfaces entirely.
        let err = SystemBuilder::new("chain", 1, 5)
            .core("a", 10, 10, 4, 10.0)
            .core("b", 10, 10, 4, 10.0)
            .core("c", 10, 10, 4, 10.0)
            .core("d", 10, 10, 4, 10.0)
            .core("e", 10, 10, 4, 10.0)
            .faults(FaultSet::none().with_router(NodeId::new(2)))
            .build()
            .unwrap_err();
        assert!(matches!(err, PlanError::CutUnreachable { .. }), "{err}");
    }

    /// Every router-to-router link into and out of `node`.
    fn isolate(mesh: &Mesh, node: NodeId) -> FaultSet {
        let mut faults = FaultSet::none();
        for dir in noctest_noc::Direction::CARDINAL {
            if let Some(next) = mesh.neighbor(node, dir) {
                faults.add_link(LinkId::cardinal(node, dir));
                faults.add_link(LinkId::cardinal(next, dir.opposite()));
            }
        }
        faults
    }

    #[test]
    fn a_self_test_only_its_own_processor_reaches_is_a_build_error() {
        // The reused processor's router is cut off from the mesh: its own
        // interface is the only one that reaches its self-test, and a
        // processor cannot test itself. Every other core is reachable.
        let builder = SystemBuilder::new("island", 3, 3)
            .core("a", 10, 10, 4, 10.0)
            .core("b", 10, 10, 4, 10.0)
            .core("c", 10, 10, 4, 10.0)
            .processors(&ProcessorProfile::leon(), 1, 1);
        let pristine = builder.clone().build().unwrap();
        let processor = pristine.cuts()[0].node;
        let faults = isolate(pristine.mesh(), processor);
        let err = builder.faults(faults).build().unwrap_err();
        assert_eq!(err, PlanError::CutUnreachable { cut: CutId(0) });
        assert_eq!(
            err.to_string(),
            "core c0 is unreachable from every test interface under the fault set"
        );
    }

    #[test]
    fn a_system_the_external_tester_cannot_reach_is_a_build_error() {
        // The external output router is cut off, so the external tester
        // reaches no core and no processor can ever be self-tested, though
        // each processor reaches the other's self-test and every core.
        let builder = SystemBuilder::new("sealed", 3, 3)
            .core("a", 10, 10, 4, 10.0)
            .core("b", 10, 10, 4, 10.0)
            .core("c", 10, 10, 4, 10.0)
            .processors(&ProcessorProfile::leon(), 2, 2);
        let pristine = builder.clone().build().unwrap();
        let ext_out = pristine.mesh().node_at(2, 2).unwrap();
        assert!(pristine.cuts().iter().all(|cut| cut.node != ext_out));
        let faults = isolate(pristine.mesh(), ext_out);
        let err = builder.faults(faults).build().unwrap_err();
        assert_eq!(err, PlanError::CutUnreachable { cut: CutId(0) });
    }

    #[test]
    fn an_empty_soc_has_nothing_to_test() {
        let err = SystemBuilder::new("empty", 2, 2).build().unwrap_err();
        assert_eq!(
            err.to_string(),
            "SoC `empty` has nothing to test: no cores and no processors"
        );
        // Processors alone still plan their self-tests.
        let sys = SystemBuilder::new("processors-only", 3, 3)
            .processors(&ProcessorProfile::leon(), 2, 2)
            .build()
            .unwrap();
        assert_eq!(sys.cuts().len(), 2);
        assert!(crate::sched::Scheduler::schedule(&crate::sched::GreedyScheduler, &sys).is_ok());
        // More processors than routers is a mesh error.
        let full = SystemBuilder::new("full", 2, 2).processors(&ProcessorProfile::leon(), 5, 0);
        assert_eq!(
            full.build().unwrap_err().to_string(),
            "mesh with 4 nodes cannot place 5 entities"
        );
    }

    #[test]
    fn fault_outside_mesh_is_rejected_at_build() {
        let err = SystemBuilder::from_benchmark(&data::d695(), 4, 4)
            .faults(FaultSet::none().with_router(NodeId::new(16)))
            .build()
            .unwrap_err();
        assert!(
            matches!(err, PlanError::FaultOutsideMesh { node: 16 }),
            "{err}"
        );
    }
}
