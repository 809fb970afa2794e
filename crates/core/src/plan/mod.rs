//! # The Campaign API: `PlanRequest` → `Campaign` → `PlanOutcome`
//!
//! The paper's contribution is a *planning flow*: SoC description,
//! processor reuse and power budget in; schedule and test time out. This
//! module is that flow as one coherent, serialisable pipeline:
//!
//! * [`PlanRequest`] — everything the planner is fed, as a value:
//!   benchmark or custom SoC ([`SocSource`]), mesh and routing
//!   ([`MeshSpec`]), processor complement ([`ProcessorSpec`], including
//!   the BIST-vs-decompression application), power budget, scheduler
//!   *name* and model knobs ([`TimingSpec`]). Requests decode from and
//!   encode to JSON ([`PlanRequest::from_json_str`] /
//!   [`PlanRequest::to_json_string`]).
//! * [`SchedulerRegistry`] — string-keyed `Arc<dyn Scheduler>` table,
//!   seeded with `serial` / `greedy` / `smart` / `optimal` and open for
//!   user registration.
//! * [`Campaign`] — resolves a request against the registry and runs it;
//!   [`Campaign::run_all`] spreads a request matrix over worker threads
//!   (a compatibility wrapper over the job executor below).
//! * [`exec`] — the streaming execution layer: [`Executor`] turns
//!   requests into prioritised, cancellable jobs ([`JobHandle`]) with a
//!   typed lifecycle event stream ([`PlanEvent`] through pluggable
//!   [`EventSink`]s, including the NDJSON daemon format) and an
//!   [`OutcomeStream`] yielding results in completion order.
//! * [`RequestMatrix`] — cartesian sweep builder, so experiment grids
//!   (Figure 1, the ablations) are data rather than hand-wired loops.
//! * [`PlanOutcome`] — schedule, makespan, concurrency and power figures
//!   of merit, per-session breakdown, stage timing and (when the request
//!   opted in via [`FidelitySpec`]) a schedule-level simulation-fidelity
//!   section (the [`crate::replay::ScheduleReplay`] embedded verbatim);
//!   also JSON-round-trippable.
//! * [`CampaignError`] — one error type wrapping the four crates'
//!   failures plus request-resolution errors.
//! * [`CacheStats`] / [`profile_cache_stats`] — observability for the
//!   process-wide processor-characterisation cache: batch runners diff
//!   two snapshots to prove calibration is paid once per
//!   `(family, calibration, application)` key, not once per request.
//!
//! ## End to end
//!
//! ```
//! use noctest_core::plan::{Campaign, PlanRequest};
//!
//! let request = PlanRequest::from_json_str(r#"{
//!     "soc": {"benchmark": "d695"},
//!     "mesh": {"width": 4, "height": 4},
//!     "processors": {"family": "leon", "total": 6, "reused": 4},
//!     "budget": {"fraction": 0.5},
//!     "scheduler": "greedy"
//! }"#)?;
//! let outcome = Campaign::new().run(&request)?;
//! assert!(outcome.makespan > 0 && outcome.reduction_percent > 0.0);
//! let replay = noctest_core::plan::PlanOutcome::from_json_str(&outcome.to_json_string())?;
//! assert_eq!(replay, outcome);
//! # Ok::<(), noctest_core::CampaignError>(())
//! ```

mod build_memo;
mod campaign;
mod error;
pub mod exec;
mod matrix;
mod outcome;
mod profile_cache;
mod registry;
mod request;

pub use build_memo::BuildCounts;
pub use campaign::Campaign;
pub use error::CampaignError;
pub use exec::{
    CompletedJob, EventCollector, EventSink, Executor, ExecutorBuilder, JobHandle, JobId,
    JobResult, JobStatus, NdjsonSink, OutcomeStream, PlanEvent, SubmitSpec,
};
pub use matrix::RequestMatrix;
pub use outcome::{PlanOutcome, SessionOutcome, Stage, StageTiming};
pub use profile_cache::{stats as profile_cache_stats, CacheStats};
pub use registry::SchedulerRegistry;
pub use request::{
    ApplicationSpec, CoreRequest, FidelitySpec, MeshSpec, PlanRequest, ProcessorSpec, SocSource,
    TimingSpec,
};
