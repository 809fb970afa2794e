//! # noctest-core — power-constrained test planning for NoC-based SoCs
//!
//! The primary contribution of Amory et al., *"Test Time Reduction Reusing
//! Multiple Processors in a Network-on-Chip Based Architecture"* (DATE
//! 2005): a software-based test planning method that reuses embedded
//! processors as test sources/sinks and the on-chip network as the test
//! access mechanism.
//!
//! The flow mirrors the paper's three characterisation steps:
//!
//! 1. **NoC characterisation** — routing latency, flow-control latency and
//!    per-router packet power live in [`TimingModel`] / [`PowerModel`]
//!    (measured, if desired, with `noctest-noc`'s characterisation pass);
//! 2. **processor characterisation** — [`noctest_cpu::ProcessorProfile`]
//!    carries the BIST application's generation cost (the paper's 10
//!    cycles/pattern, or the value measured on the instruction-set
//!    simulators), self-test size, power, and memory footprint;
//! 3. **CUT characterisation** — ITC'02 modules from `noctest-itc02`.
//!
//! The whole flow is driven through the **Campaign API** ([`plan`]): a
//! serialisable [`PlanRequest`] names the SoC, the mesh, the processor
//! complement, the power budget and a scheduler (resolved from a
//! string-keyed [`SchedulerRegistry`]); a [`Campaign`] runs it and
//! returns a [`PlanOutcome`] with the schedule, its figures of merit and
//! a timing report. Underneath, [`SystemBuilder`] places everything on
//! the mesh; [`GreedyScheduler`] implements the paper's
//! first-available-interface algorithm (including its deliberate
//! anomaly), [`SmartScheduler`] the lookahead ablation,
//! [`SerialScheduler`] the external-only baseline, and
//! [`OptimalScheduler`] an exact branch-and-bound for small systems.
//! [`Schedule::validate`] re-checks every invariant (coverage, interface
//! exclusivity, link disjointness, power cap, processor-before-reuse
//! precedence), and [`replay`] cross-checks the analytic timing against
//! the cycle-level NoC simulator.
//!
//! ## Quickstart
//!
//! ```
//! use noctest_core::plan::{Campaign, PlanRequest};
//! use noctest_core::BudgetSpec;
//!
//! # fn main() -> Result<(), noctest_core::CampaignError> {
//! let request = PlanRequest::benchmark("d695", 4, 4)
//!     .with_processors("leon", 6, 4)
//!     .with_budget(BudgetSpec::Fraction(0.5));
//! let outcome = Campaign::new().run(&request)?;
//! println!("test time: {} cycles", outcome.makespan);
//! # Ok(())
//! # }
//! ```
//!
//! Requests and outcomes round-trip through JSON
//! ([`PlanRequest::from_json_str`] / [`PlanOutcome::to_json_string`]), and
//! [`Campaign::run_all`] executes request matrices (see
//! [`RequestMatrix`]) across worker threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cut;
pub mod error;
pub mod hashing;
pub mod interface;
pub mod json;
pub mod path;
pub mod plan;
pub mod power;
pub mod replay;
pub mod report;
pub mod sched;
pub mod system;
pub mod timing;
pub mod wrapper;

pub use cut::{CoreUnderTest, CutId, CutKind};
pub use error::PlanError;
pub use hashing::ContentHash;
pub use interface::{InterfaceId, TestInterface};
pub use noctest_faults::{DetourOracle, FaultRecipe, FaultSet};
pub use path::TestPath;
pub use plan::{
    Campaign, CampaignError, PlanOutcome, PlanRequest, RequestMatrix, SchedulerRegistry,
};
pub use power::{PowerBudget, PowerModel};
pub use replay::{
    replay_schedule, replay_schedule_reference, ReplayBatch, ReplayCounts, ReplayMemo,
    ScheduleReplay, SessionReplay,
};
pub use sched::{
    CancelToken, GreedyScheduler, OptimalScheduler, ParallelOptimalScheduler, PortfolioScheduler,
    Schedule, ScheduledTest, Scheduler, SearchStats, SearchTuning, SerialScheduler, SmartScheduler,
};
pub use system::{BudgetSpec, PriorityPolicy, SystemBuilder, SystemUnderTest};
pub use timing::{GenerationModel, TimingModel};
pub use wrapper::WrapperDesign;
