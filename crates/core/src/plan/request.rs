//! [`PlanRequest`]: the serialisable description of one planning run.

use noctest_cpu::ProcessorProfile;
use noctest_faults::FaultSet;
use noctest_itc02::{data, parse_soc, SocDesc};
use noctest_noc::{Direction, LinkId, Mesh, NodeId, RoutingKind};

use crate::json::{field, field_opt, field_or, Json, JsonError};

/// Range-checked integer decoders: an out-of-range value is a decode
/// error, never a silent truncation.
fn u16_of(v: &Json) -> Option<u16> {
    v.as_u64().and_then(|n| u16::try_from(n).ok())
}

fn u32_of(v: &Json) -> Option<u32> {
    v.as_u64().and_then(|n| u32::try_from(n).ok())
}

fn usize_of(v: &Json) -> Option<usize> {
    v.as_u64().and_then(|n| usize::try_from(n).ok())
}
use crate::plan::error::CampaignError;
use crate::sched::SearchTuning;
use crate::system::{BudgetSpec, PriorityPolicy, SocCores, SystemBuilder, SystemUnderTest};
use crate::timing::{GenerationModel, TimingModel};

/// Why a core's test power is unusable: power is a draw, so it must be
/// finite and non-negative.
fn core_power_error(name: &str, power: f64) -> Option<String> {
    (!(power.is_finite() && power >= 0.0))
        .then(|| format!("core `{name}` power must be finite and non-negative"))
}

/// Why a budget is unusable: a cap of zero or below admits no session,
/// and a non-finite one is no cap at all.
fn budget_error(budget: BudgetSpec) -> Option<String> {
    let (member, value) = match budget {
        BudgetSpec::Unlimited => return None,
        BudgetSpec::Fraction(f) => ("fraction", f),
        BudgetSpec::Absolute(a) => ("absolute", a),
    };
    (!(value.is_finite() && value > 0.0))
        .then(|| format!("`budget.{member}` must be positive and finite"))
}

/// Why a timing override is unusable: a zero-bit flit carries nothing,
/// and every flit count divides by the width.
fn timing_error(timing: &TimingSpec) -> Option<&'static str> {
    (timing.flit_width_bits == Some(0)).then_some("`timing.flit_width_bits` must be positive")
}

/// Where the cores under test come from.
#[derive(Debug, Clone, PartialEq)]
pub enum SocSource {
    /// A named ITC'02 benchmark (`"d695"`, `"p22810"`, `"p93791"`).
    Benchmark(String),
    /// An inline `.soc` document (the interchange format of
    /// [`noctest_itc02::parse_soc`]).
    SocText(String),
    /// Hand-specified cores (no wrapper modelling, as in
    /// [`SystemBuilder::core`]). The `name` is the system identity —
    /// kept separate from [`PlanRequest::name`], which sweeps decorate
    /// with axis tags.
    Cores {
        /// The SoC name reported by the planned system.
        name: String,
        /// The cores under test.
        cores: Vec<CoreRequest>,
    },
}

/// One hand-specified core of a [`SocSource::Cores`] request.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreRequest {
    /// Core name (for reports).
    pub name: String,
    /// Stimulus bits per pattern.
    pub bits_in: u32,
    /// Response bits per pattern.
    pub bits_out: u32,
    /// Pattern count.
    pub patterns: u32,
    /// Test-mode power draw.
    pub power: f64,
}

/// The test application a reused processor runs as a stimulus source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ApplicationSpec {
    /// Software LFSR BIST (the paper's application).
    Bist,
    /// Decompression of stored deterministic patterns at the given care
    /// density (the paper's stated future work).
    Decompression {
        /// Fraction of specified (care) bits in the synthetic test cubes.
        care_density: f64,
    },
}

/// Embedded processors added to the system.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorSpec {
    /// Processor family (`"leon"` / `"plasma"`, or any name a custom
    /// profile resolver recognises).
    pub family: String,
    /// Processors placed on the mesh.
    pub total: usize,
    /// How many of them are reused as test interfaces once self-tested.
    pub reused: usize,
    /// Run the instruction-set simulator to calibrate per-word costs
    /// (default `true`; `false` keeps the paper's flat 10-cycle model).
    pub calibrate: bool,
    /// The stimulus application.
    pub application: ApplicationSpec,
}

/// Mesh geometry and routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshSpec {
    /// Mesh width in routers.
    pub width: u16,
    /// Mesh height in routers.
    pub height: u16,
    /// Routing algorithm (default XY, as in the paper).
    pub routing: RoutingKind,
}

/// Optional overrides applied onto [`TimingModel::default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimingSpec {
    /// Channel width in bits per flit.
    pub flit_width_bits: Option<u32>,
    /// Cycles to forward one flit over one link.
    pub flow_latency: Option<u32>,
    /// Cycles to route a header at one router.
    pub routing_latency: Option<u32>,
    /// Generation-cost model for processor interfaces.
    pub generation: Option<GenerationModel>,
    /// Bound pattern rate by the wrapper's longest scan chain.
    pub wrapper_shift: Option<bool>,
}

impl TimingSpec {
    /// The concrete [`TimingModel`] after applying the overrides.
    #[must_use]
    pub fn resolve(&self) -> TimingModel {
        let mut t = TimingModel::default();
        if let Some(v) = self.flit_width_bits {
            t.flit_width_bits = v;
        }
        if let Some(v) = self.flow_latency {
            t.flow_latency = v;
        }
        if let Some(v) = self.routing_latency {
            t.routing_latency = v;
        }
        if let Some(v) = self.generation {
            t.generation = v;
        }
        if let Some(v) = self.wrapper_shift {
            t.wrapper_shift = v;
        }
        t
    }

    /// `true` if no override is set.
    #[must_use]
    pub fn is_default(&self) -> bool {
        *self == TimingSpec::default()
    }
}

/// Opt-in schedule-level fidelity check: replay the whole planned
/// schedule on the cycle-level simulator
/// ([`crate::replay::replay_schedule`]) and attach the
/// analytic-vs-simulated comparison to the outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FidelitySpec {
    /// Per-session pattern cap for the replay (large cores carry hundreds
    /// of patterns; the steady state is reached after a handful).
    pub patterns_cap: u32,
}

impl Default for FidelitySpec {
    fn default() -> Self {
        FidelitySpec { patterns_cap: 8 }
    }
}

/// Everything the planner is fed for one run: SoC, placement, processors,
/// power budget, scheduler selection and model knobs. Serialisable to and
/// from JSON so campaigns are data, not code.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
    /// Free-form label echoed into the [`crate::plan::PlanOutcome`].
    pub name: String,
    /// The cores under test.
    pub soc: SocSource,
    /// Mesh geometry and routing.
    pub mesh: MeshSpec,
    /// Embedded processors (None plans with the external tester only).
    pub processors: Option<ProcessorSpec>,
    /// Power budget.
    pub budget: BudgetSpec,
    /// Scheduler name resolved against the
    /// [`crate::plan::SchedulerRegistry`].
    pub scheduler: String,
    /// Test priority policy.
    pub priority: PriorityPolicy,
    /// Failed routers and links the plan must detour around. The empty
    /// set is omitted from JSON, keeping fault-free requests byte-identical
    /// to every earlier release (request keys, content hashes, journals).
    pub faults: FaultSet,
    /// Timing-model overrides.
    pub timing: TimingSpec,
    /// Search tuning forwarded to schedulers with tunable machinery
    /// (thread count for `optimal-par`/`portfolio`); the default is
    /// "scheduler decides" and is omitted from JSON.
    pub search: SearchTuning,
    /// Re-check every schedule invariant after planning (default `true`).
    pub validate: bool,
    /// Replay the whole schedule on the cycle-level simulator and attach
    /// a fidelity section to the outcome (default `None` = skip).
    pub fidelity: Option<FidelitySpec>,
}

/// Exactly the request fields [`PlanRequest::build_system`] reads: two
/// requests with equal keys build the same system, whatever their name,
/// scheduler, search tuning, validation or fidelity. The job executor's
/// build memo shares one system between them.
#[derive(Debug, Clone)]
pub(crate) struct BuildKey {
    soc: SocSource,
    mesh: MeshSpec,
    processors: Option<ProcessorSpec>,
    budget: BudgetSpec,
    priority: PriorityPolicy,
    faults: FaultSet,
    timing: TimingSpec,
}

impl BuildKey {
    pub(crate) fn of(request: &PlanRequest) -> Self {
        // Exhaustive on purpose: a new request field fails to compile
        // here until it is classified as a build input or not.
        let PlanRequest {
            name: _,
            soc,
            mesh,
            processors,
            budget,
            scheduler: _,
            priority,
            faults,
            timing,
            search: _,
            validate: _,
            fidelity: _,
        } = request;
        BuildKey {
            soc: soc.clone(),
            mesh: *mesh,
            processors: processors.clone(),
            budget: *budget,
            priority: *priority,
            faults: faults.clone(),
            timing: *timing,
        }
    }

    /// Every float in the key, as bits.
    fn float_bits(&self) -> impl Iterator<Item = u64> + '_ {
        let budget = match self.budget {
            BudgetSpec::Unlimited => None,
            BudgetSpec::Fraction(v) | BudgetSpec::Absolute(v) => Some(v),
        };
        let density = match self.processors.as_ref().map(|p| p.application) {
            Some(ApplicationSpec::Decompression { care_density }) => Some(care_density),
            _ => None,
        };
        let powers: &[CoreRequest] = match &self.soc {
            SocSource::Cores { cores, .. } => cores,
            _ => &[],
        };
        budget
            .into_iter()
            .chain(density)
            .chain(powers.iter().map(|c| c.power))
            .map(f64::to_bits)
    }
}

impl PartialEq for BuildKey {
    fn eq(&self, other: &Self) -> bool {
        let BuildKey {
            soc,
            mesh,
            processors,
            budget,
            priority,
            faults,
            timing,
        } = self;
        // `f64 ==` holds between 0.0 and -0.0, which can build different
        // systems (a core's power sign reaches the outcome), so floats
        // must also agree bit for bit.
        *soc == other.soc
            && *mesh == other.mesh
            && *processors == other.processors
            && *budget == other.budget
            && *priority == other.priority
            && *faults == other.faults
            && *timing == other.timing
            && self.float_bits().eq(other.float_bits())
    }
}

impl PlanRequest {
    /// A request for a named benchmark on a `width x height` mesh with the
    /// default greedy scheduler and no power limit.
    #[must_use]
    pub fn benchmark(name: &str, width: u16, height: u16) -> Self {
        PlanRequest {
            name: name.to_owned(),
            soc: SocSource::Benchmark(name.to_owned()),
            mesh: MeshSpec {
                width,
                height,
                routing: RoutingKind::Xy,
            },
            processors: None,
            budget: BudgetSpec::Unlimited,
            scheduler: "greedy".to_owned(),
            priority: PriorityPolicy::Distance,
            faults: FaultSet::none(),
            timing: TimingSpec::default(),
            search: SearchTuning::default(),
            validate: true,
            fidelity: None,
        }
    }

    /// Sets the processor complement (builder style).
    #[must_use]
    pub fn with_processors(mut self, family: &str, total: usize, reused: usize) -> Self {
        self.processors = Some(ProcessorSpec {
            family: family.to_owned(),
            total,
            reused,
            calibrate: true,
            application: ApplicationSpec::Bist,
        });
        self
    }

    /// Sets the power budget (builder style).
    #[must_use]
    pub fn with_budget(mut self, budget: BudgetSpec) -> Self {
        self.budget = budget;
        self
    }

    /// Selects the scheduler by registry name (builder style).
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: &str) -> Self {
        self.scheduler = scheduler.to_owned();
        self
    }

    /// Relabels the request (builder style).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Plans on a degraded mesh (builder style). The empty set restores
    /// fault-free planning, byte-identically.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSet) -> Self {
        self.faults = faults;
        self
    }

    /// Forces the parallel search's worker-thread count (builder style).
    #[must_use]
    pub fn with_search_threads(mut self, threads: usize) -> Self {
        self.search.threads = Some(threads);
        self
    }

    /// Enables the schedule-level fidelity replay with a per-session
    /// pattern cap (builder style).
    #[must_use]
    pub fn with_fidelity(mut self, patterns_cap: u32) -> Self {
        self.fidelity = Some(FidelitySpec { patterns_cap });
        self
    }

    /// Resolves the SoC description this request plans for.
    ///
    /// # Errors
    ///
    /// [`CampaignError::UnknownBenchmark`] for an unknown benchmark name,
    /// [`CampaignError::Soc`] if inline `.soc` text fails to parse.
    pub fn resolve_soc(&self) -> Result<Option<SocDesc>, CampaignError> {
        match &self.soc {
            SocSource::Benchmark(name) => data::by_name(name)
                .map(Some)
                .ok_or_else(|| CampaignError::UnknownBenchmark(name.clone())),
            SocSource::SocText(text) => Ok(Some(parse_soc(text)?)),
            SocSource::Cores { .. } => Ok(None),
        }
    }

    /// Resolves (and, when requested, ISS-calibrates) the processor
    /// profile. Results are memoised process-wide: a batch of requests
    /// sharing a family calibrates once.
    ///
    /// # Errors
    ///
    /// [`CampaignError::UnknownProcessor`] for an unknown family,
    /// [`CampaignError::Cpu`] if the instruction-set simulator faults.
    pub fn resolve_profile(&self) -> Result<Option<ProcessorProfile>, CampaignError> {
        let Some(spec) = &self.processors else {
            return Ok(None);
        };
        if spec.reused > spec.total {
            return Err(CampaignError::Invalid(format!(
                "{} processors reused but only {} placed",
                spec.reused, spec.total
            )));
        }
        crate::plan::profile_cache::resolve(spec).map(Some)
    }

    /// Builds the [`SystemUnderTest`] the request describes. This is the
    /// single place outside `SystemBuilder` itself where a request becomes
    /// a system; every example, binary and test goes through it (directly
    /// or via [`crate::plan::Campaign::run`]).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Invalid`] for a core power the decoder would
    /// refuse (negative or non-finite) or a budget that is not positive
    /// and finite; otherwise any [`CampaignError`] from SoC/profile
    /// resolution or system construction.
    pub fn build_system(&self) -> Result<SystemUnderTest, CampaignError> {
        self.build_system_on(|| self.soc_cores())
    }

    /// [`PlanRequest::build_system`] with the SoC half supplied by `cores`,
    /// which must return what [`PlanRequest::soc_cores`] would. The job
    /// executor's build memo passes a shared copy here, so a memoised
    /// system and a direct build run the same code.
    pub(crate) fn build_system_on(
        &self,
        cores: impl FnOnce() -> Result<SocCores, CampaignError>,
    ) -> Result<SystemUnderTest, CampaignError> {
        // The decoder rejects these; a request built in code gets the same
        // verdict instead of a panic or a negative power total.
        if let SocSource::Cores { cores, .. } = &self.soc {
            if let Some(msg) = cores
                .iter()
                .find_map(|c| core_power_error(&c.name, c.power))
            {
                return Err(CampaignError::Invalid(msg));
            }
        }
        if let Some(msg) = budget_error(self.budget) {
            return Err(CampaignError::Invalid(msg));
        }
        if let Some(msg) = timing_error(&self.timing) {
            return Err(CampaignError::Invalid(msg.to_owned()));
        }
        let mut builder = SystemBuilder::from_cores(cores()?, self.mesh.width, self.mesh.height)
            .routing(self.mesh.routing)
            .budget(self.budget)
            .priority(self.priority)
            .faults(self.faults.clone())
            .timing(self.timing.resolve());
        if let (Some(spec), Some(profile)) = (&self.processors, self.resolve_profile()?) {
            builder = builder.processors(&profile, spec.total, spec.reused);
        }
        Ok(builder.build()?)
    }

    /// The SoC half of a build: the request's cores as
    /// [`SystemBuilder`] places them, which depend on [`PlanRequest::soc`]
    /// alone.
    ///
    /// # Errors
    ///
    /// As [`PlanRequest::resolve_soc`].
    pub(crate) fn soc_cores(&self) -> Result<SocCores, CampaignError> {
        Ok(match (&self.soc, self.resolve_soc()?) {
            (_, Some(soc)) => SocCores::from_benchmark(&soc),
            (SocSource::Cores { name, cores }, None) => cores.iter().fold(
                SocCores::new(if name.is_empty() { "custom" } else { name }),
                |built, c| built.core(c.name.clone(), c.bits_in, c.bits_out, c.patterns, c.power),
            ),
            _ => unreachable!("resolve_soc returns Some for benchmark/text sources"),
        })
    }

    /// Decodes a request from its JSON form (see [`PlanRequest::to_json`]).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Json`] describing the first malformed member.
    pub fn from_json_str(text: &str) -> Result<Self, CampaignError> {
        Ok(Self::from_json(&Json::parse(text)?)?)
    }

    /// Decodes a request from a parsed JSON value.
    ///
    /// # Errors
    ///
    /// [`JsonError`] describing the first malformed member.
    pub fn from_json(doc: &Json) -> Result<Self, JsonError> {
        let bad = |msg: &str| JsonError {
            at: 0,
            message: msg.to_owned(),
        };

        let soc_doc = field(doc, "soc", "an object", |v| v.as_obj().map(|_| v))?;
        let soc = if let Some(name) = soc_doc.get("benchmark") {
            SocSource::Benchmark(
                name.as_str()
                    .ok_or_else(|| bad("`soc.benchmark` is not a string"))?
                    .to_owned(),
            )
        } else if let Some(text) = soc_doc.get("soc_text") {
            SocSource::SocText(
                text.as_str()
                    .ok_or_else(|| bad("`soc.soc_text` is not a string"))?
                    .to_owned(),
            )
        } else if let Some(cores) = soc_doc.get("cores") {
            let items = cores
                .as_arr()
                .ok_or_else(|| bad("`soc.cores` is not an array"))?;
            let mut parsed = Vec::with_capacity(items.len());
            for item in items {
                let core = CoreRequest {
                    name: field(item, "name", "a string", |v| v.as_str().map(str::to_owned))?,
                    bits_in: field(item, "bits_in", "an integer fitting u32", u32_of)?,
                    bits_out: field(item, "bits_out", "an integer fitting u32", u32_of)?,
                    patterns: field(item, "patterns", "an integer fitting u32", u32_of)?,
                    power: field(item, "power", "a number", Json::as_f64)?,
                };
                if let Some(msg) = core_power_error(&core.name, core.power) {
                    return Err(bad(&msg));
                }
                parsed.push(core);
            }
            SocSource::Cores {
                name: field_or(soc_doc, "name", "a string", "custom".to_owned(), |v| {
                    v.as_str().map(str::to_owned)
                })?,
                cores: parsed,
            }
        } else {
            return Err(bad("`soc` needs one of `benchmark`, `soc_text`, `cores`"));
        };

        let mesh_doc = field(doc, "mesh", "an object", |v| v.as_obj().map(|_| v))?;
        let mesh = MeshSpec {
            width: field(mesh_doc, "width", "an integer fitting u16", u16_of)?,
            height: field(mesh_doc, "height", "an integer fitting u16", u16_of)?,
            routing: match field_or(mesh_doc, "routing", "a string", "xy".to_owned(), |v| {
                v.as_str().map(str::to_owned)
            })?
            .as_str()
            {
                "xy" => RoutingKind::Xy,
                "yx" => RoutingKind::Yx,
                "west_first" => RoutingKind::WestFirst,
                other => return Err(bad(&format!("unknown routing `{other}`"))),
            },
        };

        let processors = match doc.get("processors") {
            None | Some(Json::Null) => None,
            Some(p) => {
                let application = match p.get("application") {
                    None | Some(Json::Null) => ApplicationSpec::Bist,
                    Some(Json::Str(s)) if s == "bist" => ApplicationSpec::Bist,
                    Some(a) => {
                        if let Some(d) = a.get("decompression") {
                            ApplicationSpec::Decompression {
                                care_density: field(d, "care_density", "a number", Json::as_f64)?,
                            }
                        } else {
                            return Err(bad(
                                "`processors.application` must be \"bist\" or {\"decompression\": ...}",
                            ));
                        }
                    }
                };
                Some(ProcessorSpec {
                    family: field(p, "family", "a string", |v| v.as_str().map(str::to_owned))?,
                    total: field(p, "total", "an integer", usize_of)?,
                    reused: field(p, "reused", "an integer", usize_of)?,
                    calibrate: field_or(p, "calibrate", "a boolean", true, Json::as_bool)?,
                    application,
                })
            }
        };

        let budget = match doc.get("budget") {
            None | Some(Json::Null) | Some(Json::Str(_)) => match doc.get("budget") {
                Some(Json::Str(s)) if s == "unlimited" => BudgetSpec::Unlimited,
                None | Some(Json::Null) => BudgetSpec::Unlimited,
                _ => return Err(bad("string `budget` must be \"unlimited\"")),
            },
            Some(b) => {
                if let Some(f) = b.get("fraction") {
                    BudgetSpec::Fraction(
                        f.as_f64()
                            .ok_or_else(|| bad("`budget.fraction` is not a number"))?,
                    )
                } else if let Some(a) = b.get("absolute") {
                    BudgetSpec::Absolute(
                        a.as_f64()
                            .ok_or_else(|| bad("`budget.absolute` is not a number"))?,
                    )
                } else {
                    return Err(bad("`budget` needs `fraction` or `absolute`"));
                }
            }
        };
        if let Some(msg) = budget_error(budget) {
            return Err(bad(&msg));
        }

        let priority = match field_or(doc, "priority", "a string", "distance".to_owned(), |v| {
            v.as_str().map(str::to_owned)
        })?
        .as_str()
        {
            "distance" => PriorityPolicy::Distance,
            "volume_descending" => PriorityPolicy::VolumeDescending,
            "index" => PriorityPolicy::Index,
            other => return Err(bad(&format!("unknown priority `{other}`"))),
        };

        let faults = match doc.get("faults") {
            None | Some(Json::Null) => FaultSet::none(),
            Some(f) => {
                let Some(entries) = f.as_obj() else {
                    return Err(bad("`faults` must be null or an object"));
                };
                // Decoding needs real mesh geometry: coordinates are
                // validated here, so a degraded request is rejected at the
                // wire instead of deep inside planning.
                let geometry = Mesh::new(mesh.width, mesh.height)
                    .map_err(|_| bad("`faults` requires a valid mesh"))?;
                let node_of = |v: &Json, what: &str| -> Result<NodeId, JsonError> {
                    let pair = v
                        .as_arr()
                        .filter(|a| a.len() == 2)
                        .ok_or_else(|| bad(&format!("{what} must be an `[x, y]` pair")))?;
                    let x = pair[0]
                        .as_u64()
                        .and_then(|n| u16::try_from(n).ok())
                        .ok_or_else(|| bad(&format!("{what} x is not an integer fitting u16")))?;
                    let y = pair[1]
                        .as_u64()
                        .and_then(|n| u16::try_from(n).ok())
                        .ok_or_else(|| bad(&format!("{what} y is not an integer fitting u16")))?;
                    geometry
                        .node_at(x, y)
                        .ok_or_else(|| bad(&format!("{what} [{x}, {y}] is outside the mesh")))
                };
                let mut set = FaultSet::none();
                for (key, value) in entries {
                    match key.as_str() {
                        "routers" => {
                            let items = value
                                .as_arr()
                                .ok_or_else(|| bad("`faults.routers` is not an array"))?;
                            for item in items {
                                set.add_router(node_of(item, "`faults.routers` entry")?);
                            }
                        }
                        "links" => {
                            let items = value
                                .as_arr()
                                .ok_or_else(|| bad("`faults.links` is not an array"))?;
                            for item in items {
                                let pair =
                                    item.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                                        bad("`faults.links` entry must be `[[x, y], dir]`")
                                    })?;
                                let from = node_of(&pair[0], "`faults.links` entry")?;
                                let dir = match pair[1].as_str() {
                                    Some("E") => Direction::East,
                                    Some("W") => Direction::West,
                                    Some("N") => Direction::North,
                                    Some("S") => Direction::South,
                                    _ => {
                                        return Err(bad(
                                            "`faults.links` direction must be \"E\", \"W\", \"N\" or \"S\"",
                                        ))
                                    }
                                };
                                if geometry.neighbor(from, dir).is_none() {
                                    return Err(bad(&format!(
                                        "`faults.links` entry [{}, {}] {dir} leaves the mesh",
                                        geometry.position(from).x,
                                        geometry.position(from).y,
                                    )));
                                }
                                set.add_link(LinkId::cardinal(from, dir));
                            }
                        }
                        other => {
                            return Err(bad(&format!("`faults` has unknown member `{other}`")))
                        }
                    }
                }
                set
            }
        };

        let timing = match doc.get("timing") {
            None | Some(Json::Null) => TimingSpec::default(),
            Some(t) => TimingSpec {
                flit_width_bits: field_opt(t, "flit_width_bits", "an integer fitting u32", u32_of)?,
                flow_latency: field_opt(t, "flow_latency", "an integer fitting u32", u32_of)?,
                routing_latency: field_opt(t, "routing_latency", "an integer fitting u32", u32_of)?,
                generation: match field_opt(t, "generation", "a string", Json::as_str)? {
                    None => None,
                    Some("paper_flat") => Some(GenerationModel::PaperFlat),
                    Some("calibrated") => Some(GenerationModel::Calibrated),
                    Some(other) => return Err(bad(&format!("unknown generation model `{other}`"))),
                },
                wrapper_shift: field_opt(t, "wrapper_shift", "a boolean", Json::as_bool)?,
            },
        };
        if let Some(msg) = timing_error(&timing) {
            return Err(bad(msg));
        }

        let search = match doc.get("search") {
            None | Some(Json::Null) => SearchTuning::default(),
            Some(t) => {
                if t.as_obj().is_none() {
                    return Err(bad("`search` must be null or an object"));
                }
                let threads = field_opt(t, "threads", "an integer", usize_of)?;
                if threads == Some(0) {
                    // Zero threads is always a typo: 0 means "auto" only
                    // through the scheduler's own default, never per
                    // request.
                    return Err(bad("`search.threads` must be at least 1"));
                }
                SearchTuning {
                    threads,
                    warm: None,
                }
            }
        };

        let fidelity = match doc.get("fidelity") {
            None | Some(Json::Null) | Some(Json::Bool(false)) => None,
            Some(Json::Bool(true)) => Some(FidelitySpec::default()),
            Some(f) => {
                // A scalar here is a typo'd knob; enabling the replay with
                // the default cap would silently mask it.
                if f.as_obj().is_none() {
                    return Err(bad("`fidelity` must be null, a boolean, or an object"));
                }
                let patterns_cap = field_or(
                    f,
                    "patterns_cap",
                    "an integer fitting u32",
                    FidelitySpec::default().patterns_cap,
                    u32_of,
                )?;
                if patterns_cap == 0 {
                    // Zero patterns would "validate" the model against an
                    // empty simulation and report zero error.
                    return Err(bad("`fidelity.patterns_cap` must be at least 1"));
                }
                Some(FidelitySpec { patterns_cap })
            }
        };

        Ok(PlanRequest {
            name: field_or(doc, "name", "a string", String::new(), |v| {
                v.as_str().map(str::to_owned)
            })?,
            soc,
            mesh,
            processors,
            budget,
            scheduler: field_or(doc, "scheduler", "a string", "greedy".to_owned(), |v| {
                v.as_str().map(str::to_owned)
            })?,
            priority,
            faults,
            timing,
            search,
            validate: field_or(doc, "validate", "a boolean", true, Json::as_bool)?,
            fidelity,
        })
    }

    /// Encodes the request as a JSON value (inverse of
    /// [`PlanRequest::from_json`]).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let soc = match &self.soc {
            SocSource::Benchmark(name) => Json::obj(vec![("benchmark", Json::str(name))]),
            SocSource::SocText(text) => Json::obj(vec![("soc_text", Json::str(text))]),
            SocSource::Cores { name, cores } => Json::obj(vec![
                ("name", Json::str(name)),
                (
                    "cores",
                    Json::Arr(
                        cores
                            .iter()
                            .map(|c| {
                                Json::obj(vec![
                                    ("name", Json::str(&c.name)),
                                    ("bits_in", Json::int(u64::from(c.bits_in))),
                                    ("bits_out", Json::int(u64::from(c.bits_out))),
                                    ("patterns", Json::int(u64::from(c.patterns))),
                                    ("power", Json::Num(c.power)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        };
        let mut members = vec![
            ("name", Json::str(&self.name)),
            ("soc", soc),
            (
                "mesh",
                Json::obj(vec![
                    ("width", Json::int(u64::from(self.mesh.width))),
                    ("height", Json::int(u64::from(self.mesh.height))),
                    (
                        "routing",
                        Json::str(match self.mesh.routing {
                            RoutingKind::Xy => "xy",
                            RoutingKind::Yx => "yx",
                            RoutingKind::WestFirst => "west_first",
                            other => unreachable!("unhandled routing kind {other:?}"),
                        }),
                    ),
                ]),
            ),
        ];
        if let Some(p) = &self.processors {
            let application = match p.application {
                ApplicationSpec::Bist => Json::str("bist"),
                ApplicationSpec::Decompression { care_density } => Json::obj(vec![(
                    "decompression",
                    Json::obj(vec![("care_density", Json::Num(care_density))]),
                )]),
            };
            members.push((
                "processors",
                Json::obj(vec![
                    ("family", Json::str(&p.family)),
                    ("total", Json::int(p.total as u64)),
                    ("reused", Json::int(p.reused as u64)),
                    ("calibrate", Json::Bool(p.calibrate)),
                    ("application", application),
                ]),
            ));
        }
        members.push((
            "budget",
            match self.budget {
                BudgetSpec::Unlimited => Json::str("unlimited"),
                BudgetSpec::Fraction(f) => Json::obj(vec![("fraction", Json::Num(f))]),
                BudgetSpec::Absolute(a) => Json::obj(vec![("absolute", Json::Num(a))]),
            },
        ));
        members.push(("scheduler", Json::str(&self.scheduler)));
        members.push((
            "priority",
            Json::str(match self.priority {
                PriorityPolicy::Distance => "distance",
                PriorityPolicy::VolumeDescending => "volume_descending",
                PriorityPolicy::Index => "index",
            }),
        ));
        // The empty fault set is omitted entirely: fault-free requests must
        // stay byte-identical to releases that predate the member.
        if !self.faults.is_empty() {
            let geometry = Mesh::new(self.mesh.width, self.mesh.height)
                .expect("a request carrying faults has a valid mesh");
            let coords = |node: NodeId| {
                let pos = geometry.position(node);
                Json::Arr(vec![
                    Json::int(u64::from(pos.x)),
                    Json::int(u64::from(pos.y)),
                ])
            };
            let mut f = Vec::new();
            if self.faults.router_count() > 0 {
                f.push((
                    "routers",
                    Json::Arr(self.faults.routers().map(coords).collect()),
                ));
            }
            if self.faults.link_count() > 0 {
                f.push((
                    "links",
                    Json::Arr(
                        self.faults
                            .links()
                            .map(|link| {
                                Json::Arr(vec![
                                    coords(link.from),
                                    Json::str(match link.dir {
                                        Direction::East => "E",
                                        Direction::West => "W",
                                        Direction::North => "N",
                                        Direction::South => "S",
                                        Direction::Local => {
                                            unreachable!("fault sets reject local links")
                                        }
                                    }),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            members.push(("faults", Json::obj(f)));
        }
        if !self.timing.is_default() {
            let mut t = Vec::new();
            if let Some(v) = self.timing.flit_width_bits {
                t.push(("flit_width_bits", Json::int(u64::from(v))));
            }
            if let Some(v) = self.timing.flow_latency {
                t.push(("flow_latency", Json::int(u64::from(v))));
            }
            if let Some(v) = self.timing.routing_latency {
                t.push(("routing_latency", Json::int(u64::from(v))));
            }
            if let Some(v) = self.timing.generation {
                t.push((
                    "generation",
                    Json::str(match v {
                        GenerationModel::PaperFlat => "paper_flat",
                        GenerationModel::Calibrated => "calibrated",
                    }),
                ));
            }
            if let Some(v) = self.timing.wrapper_shift {
                t.push(("wrapper_shift", Json::Bool(v)));
            }
            members.push(("timing", Json::obj(t)));
        }
        // Only the *serialisable* search knobs gate the member: a
        // warm-start incumbent is runtime-only and must never change the
        // canonical form (request keys, content hashes, journal replay).
        if self.search.threads.is_some() {
            let mut t = Vec::new();
            if let Some(v) = self.search.threads {
                t.push(("threads", Json::int(v as u64)));
            }
            members.push(("search", Json::obj(t)));
        }
        members.push(("validate", Json::Bool(self.validate)));
        if let Some(f) = &self.fidelity {
            members.push((
                "fidelity",
                Json::obj(vec![("patterns_cap", Json::int(u64::from(f.patterns_cap)))]),
            ));
        }
        Json::obj(members)
    }

    /// The request as pretty-printed JSON text.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_request() -> PlanRequest {
        let mut r = PlanRequest::benchmark("d695", 4, 4)
            .with_processors("leon", 6, 4)
            .with_budget(BudgetSpec::Fraction(0.5))
            .with_scheduler("smart")
            .with_name("round-trip");
        r.priority = PriorityPolicy::VolumeDescending;
        r.mesh.routing = RoutingKind::Yx;
        r.timing.flit_width_bits = Some(32);
        r.timing.generation = Some(GenerationModel::PaperFlat);
        r.fidelity = Some(FidelitySpec { patterns_cap: 12 });
        r.search = SearchTuning {
            threads: Some(2),
            ..SearchTuning::default()
        };
        r
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let r = full_request();
        let text = r.to_json_string();
        let back = PlanRequest::from_json_str(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn defaults_fill_in_missing_members() {
        let text = r#"{"soc": {"benchmark": "d695"}, "mesh": {"width": 4, "height": 4}}"#;
        let r = PlanRequest::from_json_str(text).unwrap();
        assert_eq!(r.scheduler, "greedy");
        assert_eq!(r.budget, BudgetSpec::Unlimited);
        assert_eq!(r.priority, PriorityPolicy::Distance);
        assert!(r.validate);
        assert!(r.processors.is_none());
        assert!(r.timing.is_default());
        assert!(r.search.is_default(), "search tuning defaults to unset");
        assert!(r.fidelity.is_none(), "fidelity replay is opt-in");
    }

    #[test]
    fn search_knob_decodes_and_rejects_zero_threads() {
        let base = r#"{"soc": {"benchmark": "d695"}, "mesh": {"width": 4, "height": 4}"#;
        let with = |tail: &str| PlanRequest::from_json_str(&format!("{base}, {tail}}}"));
        assert_eq!(
            with(r#""search": {"threads": 3}"#).unwrap().search,
            SearchTuning {
                threads: Some(3),
                ..SearchTuning::default()
            }
        );
        assert!(with(r#""search": null"#).unwrap().search.is_default());
        assert!(with(r#""search": {}"#).unwrap().search.is_default());
        // Zero threads and scalar knobs are errors, not silent defaults.
        assert!(with(r#""search": {"threads": 0}"#).is_err());
        assert!(with(r#""search": 4"#).is_err());
        assert!(with(r#""search": {"threads": "many"}"#).is_err());
    }

    #[test]
    fn fidelity_knob_decodes_all_forms() {
        let base = r#"{"soc": {"benchmark": "d695"}, "mesh": {"width": 4, "height": 4}"#;
        let with = |tail: &str| PlanRequest::from_json_str(&format!("{base}, {tail}}}")).unwrap();
        assert_eq!(with(r#""fidelity": null"#).fidelity, None);
        assert_eq!(with(r#""fidelity": false"#).fidelity, None);
        assert_eq!(
            with(r#""fidelity": true"#).fidelity,
            Some(FidelitySpec::default())
        );
        assert_eq!(
            with(r#""fidelity": {"patterns_cap": 3}"#).fidelity,
            Some(FidelitySpec { patterns_cap: 3 })
        );
        assert_eq!(
            with(r#""fidelity": {}"#).fidelity,
            Some(FidelitySpec::default())
        );
        // Mistyped cap is an error, not a silent default.
        assert!(PlanRequest::from_json_str(&format!(
            "{base}, \"fidelity\": {{\"patterns_cap\": \"many\"}}}}"
        ))
        .is_err());
        // So is a scalar knob: neither silently enabled nor treated as a
        // cap.
        for bad in [r#""fidelity": 16"#, r#""fidelity": "true""#] {
            assert!(
                PlanRequest::from_json_str(&format!("{base}, {bad}}}")).is_err(),
                "accepted {bad}"
            );
        }
        // A zero cap would report zero model error without simulating a
        // single flit.
        assert!(PlanRequest::from_json_str(&format!(
            "{base}, \"fidelity\": {{\"patterns_cap\": 0}}}}"
        ))
        .is_err());
    }

    #[test]
    fn faults_member_roundtrips() {
        use noctest_noc::{Direction, LinkId, Mesh, NodeId};
        let mesh = Mesh::new(4, 4).unwrap();
        let faults = FaultSet::none()
            .with_router(mesh.node_at(2, 1).unwrap())
            .with_link(LinkId::cardinal(NodeId::new(0), Direction::East));
        let r = full_request().with_faults(faults);
        let text = r.to_json_string();
        assert!(text.contains("\"faults\""), "{text}");
        let back = PlanRequest::from_json_str(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn empty_faults_are_omitted_byte_identically() {
        // The compatibility wall: a request without faults must encode to
        // exactly the bytes every earlier release produced, so request
        // keys, content hashes and journals are unchanged.
        let r = full_request();
        let with_empty = r.clone().with_faults(FaultSet::none());
        assert_eq!(r.to_json_string(), with_empty.to_json_string());
        assert!(!r.to_json_string().contains("faults"));
        // And explicit nulls decode to the same request as absence.
        let base = r#"{"soc": {"benchmark": "d695"}, "mesh": {"width": 4, "height": 4}"#;
        let absent = PlanRequest::from_json_str(&format!("{base}}}")).unwrap();
        let null = PlanRequest::from_json_str(&format!("{base}, \"faults\": null}}")).unwrap();
        assert_eq!(absent, null);
        assert!(null.faults.is_empty());
    }

    #[test]
    fn faults_decode_errors_are_exact() {
        let base = r#"{"soc": {"benchmark": "d695"}, "mesh": {"width": 4, "height": 4}"#;
        let err = |tail: &str| {
            PlanRequest::from_json(&Json::parse(&format!("{base}, {tail}}}")).unwrap())
                .unwrap_err()
                .message
        };
        assert_eq!(
            err(r#""faults": {"typo": []}"#),
            "`faults` has unknown member `typo`"
        );
        assert_eq!(
            err(r#""faults": {"links": [[[0, 0], "Q"]]}"#),
            "`faults.links` direction must be \"E\", \"W\", \"N\" or \"S\""
        );
        assert_eq!(
            err(r#""faults": {"links": [[0, 0, "E"]]}"#),
            "`faults.links` entry must be `[[x, y], dir]`"
        );
        assert_eq!(
            err(r#""faults": {"routers": [[4, 0]]}"#),
            "`faults.routers` entry [4, 0] is outside the mesh"
        );
        assert_eq!(
            err(r#""faults": {"links": [[[3, 0], "E"]]}"#),
            "`faults.links` entry [3, 0] E leaves the mesh"
        );
        assert_eq!(err(r#""faults": 7"#), "`faults` must be null or an object");
    }

    #[test]
    fn bad_power_values_are_rejected_exactly() {
        let cores = |power: &str| {
            format!(
                r#"{{"soc": {{"cores": [{{"name": "x", "bits_in": 1, "bits_out": 1,
                "patterns": 1, "power": {power}}}]}}, "mesh": {{"width": 3, "height": 3}}}}"#
            )
        };
        let budget = |member: &str| {
            format!(
                r#"{{"soc": {{"benchmark": "d695"}}, "mesh": {{"width": 4, "height": 4}},
                "budget": {{{member}}}}}"#
            )
        };
        let err = |text: &str| {
            PlanRequest::from_json(&Json::parse(text).unwrap())
                .unwrap_err()
                .message
        };
        let core_msg = "core `x` power must be finite and non-negative";
        assert_eq!(err(&cores("-1e308")), core_msg);
        assert_eq!(err(&cores("-0.5")), core_msg);
        // The parser already refuses literals that overflow to infinity.
        assert!(PlanRequest::from_json_str(&cores("1e999")).is_err());
        assert!(PlanRequest::from_json_str(&cores("0")).is_ok());
        let fraction_msg = "`budget.fraction` must be positive and finite";
        assert_eq!(err(&budget(r#""fraction": -0.5"#)), fraction_msg);
        assert_eq!(err(&budget(r#""fraction": 0"#)), fraction_msg);
        assert_eq!(
            err(&budget(r#""absolute": 0"#)),
            "`budget.absolute` must be positive and finite"
        );
        assert!(PlanRequest::from_json_str(&budget(r#""fraction": 0.5"#)).is_ok());

        // The same verdicts, with the same messages, for requests built in
        // code rather than decoded.
        let invalid = |r: PlanRequest| match r.build_system() {
            Err(CampaignError::Invalid(msg)) => msg,
            other => panic!("expected Invalid, got {other:?}"),
        };
        let d695 = PlanRequest::benchmark("d695", 4, 4);
        assert_eq!(
            invalid(d695.clone().with_budget(BudgetSpec::Fraction(-0.5))),
            fraction_msg
        );
        assert_eq!(
            invalid(d695.with_budget(BudgetSpec::Absolute(f64::NAN))),
            "`budget.absolute` must be positive and finite"
        );
        let mut negative = PlanRequest::benchmark("custom", 3, 3);
        negative.soc = SocSource::Cores {
            name: "custom".into(),
            cores: vec![CoreRequest {
                name: "x".into(),
                bits_in: 1,
                bits_out: 1,
                patterns: 1,
                power: -1e308,
            }],
        };
        assert_eq!(invalid(negative), core_msg);
    }

    #[test]
    fn custom_cores_roundtrip() {
        let mut r = PlanRequest::benchmark("tiny", 3, 3);
        r.soc = SocSource::Cores {
            name: "tinysoc".into(),
            cores: vec![CoreRequest {
                name: "dsp".into(),
                bits_in: 100,
                bits_out: 80,
                patterns: 12,
                power: 55.5,
            }],
        };
        let back = PlanRequest::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn decompression_application_roundtrips() {
        let mut r = full_request();
        r.processors.as_mut().unwrap().application =
            ApplicationSpec::Decompression { care_density: 0.02 };
        let back = PlanRequest::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn out_of_range_integers_are_rejected_not_truncated() {
        // 65540 would silently wrap to a 4-wide mesh under an `as u16`.
        let text = r#"{"soc": {"benchmark": "d695"}, "mesh": {"width": 65540, "height": 65537}}"#;
        let err = PlanRequest::from_json_str(text).unwrap_err();
        assert!(err.to_string().contains("width"), "{err}");
        let text = r#"{"soc": {"cores": [{"name": "x", "bits_in": 4294967296,
            "bits_out": 1, "patterns": 1, "power": 1.0}]},
            "mesh": {"width": 3, "height": 3}}"#;
        assert!(PlanRequest::from_json_str(text).is_err());
    }

    #[test]
    fn mistyped_timing_overrides_are_errors_not_ignored() {
        const ZERO_FLIT: &str = r#"{"soc": {"benchmark": "d695"}, "mesh": {"width": 4, "height": 4},
                "timing": {"flit_width_bits": 0}}"#;
        for text in [
            // String where a number is required.
            r#"{"soc": {"benchmark": "d695"}, "mesh": {"width": 4, "height": 4},
                "timing": {"flow_latency": "7"}}"#,
            // Negative latency.
            r#"{"soc": {"benchmark": "d695"}, "mesh": {"width": 4, "height": 4},
                "timing": {"routing_latency": -1}}"#,
            // Number where a boolean is required.
            r#"{"soc": {"benchmark": "d695"}, "mesh": {"width": 4, "height": 4},
                "timing": {"wrapper_shift": 1}}"#,
            // A zero-bit flit: every flit count would divide by zero.
            ZERO_FLIT,
        ] {
            assert!(
                PlanRequest::from_json_str(text).is_err(),
                "silently ignored override in {text}"
            );
        }
        let zero_msg = "`timing.flit_width_bits` must be positive";
        let err = PlanRequest::from_json(&Json::parse(ZERO_FLIT).unwrap()).unwrap_err();
        assert_eq!(err.message, zero_msg);
        // The same verdict for a request built in code.
        let mut built = PlanRequest::benchmark("d695", 4, 4);
        built.timing.flit_width_bits = Some(0);
        match built.build_system() {
            Err(CampaignError::Invalid(msg)) => assert_eq!(msg, zero_msg),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn malformed_members_are_reported() {
        for text in [
            r#"{"mesh": {"width": 4, "height": 4}}"#,
            r#"{"soc": {}, "mesh": {"width": 4, "height": 4}}"#,
            r#"{"soc": {"benchmark": "d695"}, "mesh": {"width": 4}}"#,
            r#"{"soc": {"benchmark": "d695"}, "mesh": {"width": 4, "height": 4}, "budget": {"x": 1}}"#,
            r#"{"soc": {"benchmark": "d695"}, "mesh": {"width": 4, "height": 4}, "priority": "zigzag"}"#,
            r#"{"soc": {"benchmark": "d695"}, "mesh": {"width": 4, "height": 4, "routing": "diag"}}"#,
        ] {
            assert!(PlanRequest::from_json_str(text).is_err(), "accepted {text}");
        }
    }

    #[test]
    fn build_system_places_benchmark() {
        let sys = PlanRequest::benchmark("d695", 4, 4)
            .with_processors("leon", 6, 2)
            .build_system()
            .unwrap();
        assert_eq!(sys.cuts().len(), 16);
        assert_eq!(sys.interfaces().len(), 3);
    }

    #[test]
    fn unknown_benchmark_is_reported() {
        let err = PlanRequest::benchmark("g1023", 4, 4)
            .build_system()
            .unwrap_err();
        assert!(matches!(err, CampaignError::UnknownBenchmark(_)));
    }

    #[test]
    fn reused_beyond_total_is_invalid() {
        let mut r = PlanRequest::benchmark("d695", 4, 4).with_processors("leon", 2, 4);
        r.validate = false;
        assert!(matches!(
            r.build_system().unwrap_err(),
            CampaignError::Invalid(_)
        ));
    }
}
