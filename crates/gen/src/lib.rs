//! # noctest-gen — deterministic synthetic SoC generation and corpus runs
//!
//! The DATE'05 paper demonstrates its scheduler on a handful of ITC'02
//! systems; scheduler-quality conclusions, however, only hold across a
//! *population* of SoCs with varied core-size, scan-chain and power
//! distributions. This crate turns one workload into hundreds:
//!
//! * **Layer 1 — generator.** [`SocRecipe`] is a seeded, fully
//!   deterministic distribution over [`noctest_itc02::SocDesc`] models:
//!   core count, scan-chain count/length shapes, pattern counts and a
//!   power profile, drawn from weighted [`CoreClass`] mixtures. Five
//!   named [`RecipeFamily`] presets cover the interesting populations
//!   (`d695-like`, `scaled-industrial`, `power-dominated`,
//!   `one-giant-core`, `wide-shallow`). The same recipe and seed always
//!   produce the same model and — via [`SocRecipe::generate_text`] and
//!   the canonical `.soc` writer — byte-identical text.
//!
//! * **Layer 2 — corpus engine.** [`CorpusSpec`] crosses a generated SoC
//!   population with mesh sizes, processor complements, power budgets and
//!   schedulers (one [`noctest_core::plan::RequestMatrix`] batch), runs
//!   the whole thing through [`noctest_core::plan::Campaign::run_all`],
//!   and aggregates a JSON-round-trippable [`CorpusReport`]: per-scheduler
//!   win rates, makespan/concurrency distributions, optional
//!   fidelity-replay error summaries, scenarios-per-second throughput and
//!   the profile-cache hit/miss delta proving characterisation is paid
//!   once per `(family, calibration, application)` key.
//!
//! ```
//! use noctest_core::plan::Campaign;
//! use noctest_core::BudgetSpec;
//! use noctest_gen::{CorpusSpec, SocRecipe};
//!
//! let spec = CorpusSpec {
//!     seed: 42,
//!     recipes: vec![SocRecipe::wide_shallow(6)],
//!     socs_per_recipe: 3,
//!     meshes: vec![(3, 3)],
//!     processors: vec![None],
//!     faults: Vec::new(),
//!     budgets: vec![BudgetSpec::Unlimited],
//!     schedulers: vec!["serial".into(), "greedy".into()],
//!     fidelity_patterns_cap: None,
//! };
//! let report = spec.run(&Campaign::new());
//! assert!(report.all_valid());
//! assert_eq!(report.scenario_count, 6);
//! // Same spec, same seed: the deterministic section is byte-identical.
//! assert_eq!(
//!     report.deterministic_json(),
//!     spec.run(&Campaign::new()).deterministic_json(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod corpus;
mod delta;
mod recipe;
mod report;

pub use corpus::{CompletedJob, CorpusRun, CorpusSpec, ProcessorAxis, StreamOptions};
pub use delta::{DeltaEdit, DeltaPair, DeltaSpec};
pub use recipe::{CoreClass, RecipeFamily, SocRecipe};
pub use report::{
    CorpusFailure, CorpusMeasurement, CorpusReport, DistributionSummary, FaultAxisSummary,
    FaultSchedulerSummary, SchedulerSummary,
};
