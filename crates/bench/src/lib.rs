//! # noctest-bench — the experiment harness
//!
//! Regenerates every experimental result of the DATE'05 paper (Figure 1's
//! six panels and the headline reduction claims) plus the ablations listed
//! in `DESIGN.md`, all expressed as [`PlanRequest`] matrices executed by a
//! [`Campaign`] — no hand-wired builder/scheduler plumbing. The binaries:
//!
//! * `figure1` — the test-time sweeps (systems × processor families ×
//!   processor counts × power settings), as CSV, JSON and ASCII bar charts;
//! * `characterize` — the paper's Section-2 characterisation tables
//!   (NoC latency/power fit, processor cycles-per-pattern measurements);
//! * `validate_model` — analytic-vs-simulated transport cross-check;
//! * `ablations` — scheduler/routing/flit-width/generation-model studies;
//! * `corpus` — generated-SoC population stress (`noctest-gen`): win
//!   rates, distributions and throughput over hundreds of synthetic
//!   scenarios, with a `--smoke` CI gate asserting byte-identical
//!   reports and a `--full` paper-style sweep.
//!
//! This library hosts the shared experiment definitions so integration
//! tests, examples and binaries agree on the exact Figure-1 configuration,
//! a tiny wall-clock [`harness`] for the dependency-free benches, and the
//! [`artifact`] every `BENCH_*.json`-writing binary runs through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod harness;

use std::fmt::Write as _;

use std::sync::Arc;

use noctest_core::hashing::fnv1a;
use noctest_core::plan::exec::{Executor, JobResult, NdjsonSink};
use noctest_core::plan::{Campaign, CampaignError, PlanOutcome, PlanRequest, RequestMatrix};
use noctest_core::{BudgetSpec, Schedule, SystemUnderTest};
use noctest_cpu::ProcessorProfile;
use noctest_itc02::{data, SocDesc};

/// The three evaluation systems with their paper-given mesh dimensions and
/// processor counts ("for d695 system, six processor cores are added,
/// whereas for p22810 and p93791 benchmarks, eight cores are added ...
/// network dimensions 4x4, 5x6 and 5x5").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemId {
    /// d695 + 6 processors on a 4x4 mesh (16 cores).
    D695,
    /// p22810 + 8 processors on a 5x6 mesh (36 cores).
    P22810,
    /// p93791 + 8 processors on a 5x5 mesh (40 cores).
    P93791,
}

impl SystemId {
    /// All three systems in paper order.
    pub const ALL: [SystemId; 3] = [SystemId::D695, SystemId::P22810, SystemId::P93791];

    /// Benchmark name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SystemId::D695 => "d695",
            SystemId::P22810 => "p22810",
            SystemId::P93791 => "p93791",
        }
    }

    /// Parses a benchmark name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "d695" => Some(SystemId::D695),
            "p22810" => Some(SystemId::P22810),
            "p93791" => Some(SystemId::P93791),
            _ => None,
        }
    }

    /// Mesh dimensions from the paper.
    #[must_use]
    pub fn mesh(self) -> (u16, u16) {
        match self {
            SystemId::D695 => (4, 4),
            SystemId::P22810 => (5, 6),
            SystemId::P93791 => (5, 5),
        }
    }

    /// Processor cores added to the benchmark.
    #[must_use]
    pub fn processors(self) -> usize {
        match self {
            SystemId::D695 => 6,
            SystemId::P22810 | SystemId::P93791 => 8,
        }
    }

    /// The x-axis of the paper's panel: 0, 2, 4, 6[, 8] reused processors.
    #[must_use]
    pub fn sweep(self) -> Vec<usize> {
        (0..=self.processors()).step_by(2).collect()
    }

    /// The benchmark SoC data.
    #[must_use]
    pub fn soc(self) -> SocDesc {
        data::by_name(self.name()).expect("benchmark exists")
    }

    /// The base [`PlanRequest`] for this system: paper mesh, full
    /// processor complement of `family` with `reused` of them reused,
    /// greedy scheduler.
    #[must_use]
    pub fn request(self, family: &str, reused: usize, budget: BudgetSpec) -> PlanRequest {
        let (w, h) = self.mesh();
        PlanRequest::benchmark(self.name(), w, h)
            .with_processors(family, self.processors(), reused)
            .with_budget(budget)
    }
}

/// Builds the exact Figure-1 system for a sweep point (via the request
/// pipeline — this is what the replay/validation tools feed on).
///
/// # Errors
///
/// Propagates [`CampaignError`] from request resolution.
pub fn build_system(
    id: SystemId,
    family: &str,
    reused: usize,
    budget: BudgetSpec,
) -> Result<SystemUnderTest, CampaignError> {
    id.request(family, reused, budget).build_system()
}

/// One sweep point of a Figure-1 panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Figure1Point {
    /// Processors reused for test.
    pub reused: usize,
    /// Test time without a power limit.
    pub no_limit: u64,
    /// Test time under the 50 % power limit.
    pub limited_50: u64,
}

/// One Figure-1 panel: a system tested with one processor family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Figure1Panel {
    /// Which system.
    pub system: &'static str,
    /// Which processor family ("leon" / "plasma").
    pub processor: String,
    /// The sweep, in increasing processor count.
    pub points: Vec<Figure1Point>,
}

impl Figure1Panel {
    /// Test-time reduction (in percent) of the best point vs. "noproc",
    /// for the unlimited-power series.
    #[must_use]
    pub fn best_reduction_percent(&self) -> f64 {
        reduction_percent(self.points.first(), self.points.iter().map(|p| p.no_limit))
    }

    /// Same for the 50 % power series.
    #[must_use]
    pub fn best_reduction_percent_limited(&self) -> f64 {
        reduction_percent(
            self.points.first(),
            self.points.iter().map(|p| p.limited_50),
        )
    }

    /// `true` if the unlimited series is non-monotonic (the greedy
    /// anomaly the paper reports for p22810).
    #[must_use]
    pub fn is_irregular(&self) -> bool {
        self.points
            .windows(2)
            .any(|w| w[1].no_limit > w[0].no_limit)
    }
}

fn reduction_percent<I: Iterator<Item = u64>>(first: Option<&Figure1Point>, series: I) -> f64 {
    let Some(first) = first else { return 0.0 };
    let base = first.no_limit.max(1);
    let best = series.min().unwrap_or(base);
    100.0 * (1.0 - best as f64 / base as f64)
}

/// FNV-1a over the canonical schedule encoding (each entry's cut,
/// interface, start and end as little-endian words): a compact, stable
/// fingerprint for byte-identity gates (shared by the `search-bench`
/// and `plan-delta` binaries and their CI smoke scripts).
#[must_use]
pub fn schedule_digest(schedule: &Schedule) -> String {
    let bytes: Vec<u8> = schedule
        .entries()
        .iter()
        .flat_map(|e| [u64::from(e.cut.0), e.interface.0 as u64, e.start, e.end])
        .flat_map(u64::to_le_bytes)
        .collect();
    format!("{:016x}", fnv1a(&bytes))
}

/// Parses the value following a `--threads` flag (shared by the
/// `figure1`, `corpus` and `plan-serve` binaries).
///
/// # Errors
///
/// A usage message when the value is missing or not an unsigned integer.
pub fn parse_threads_value(value: Option<String>) -> Result<usize, String> {
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "--threads needs an unsigned integer".to_owned())
}

/// Opens `path` as a line-flushed NDJSON event sink — the `--events`
/// flag shared by the binaries. The returned handle doubles as the
/// stream-integrity check: [`NdjsonSink::failed`] after the run reports
/// whether any event line was lost to a write error.
///
/// # Errors
///
/// A usage message when the file cannot be created.
pub fn ndjson_file_sink(path: &str) -> Result<Arc<NdjsonSink<std::fs::File>>, String> {
    std::fs::File::create(path)
        .map(|file| Arc::new(NdjsonSink::new(file)))
        .map_err(|error| format!("cannot create {path}: {error}"))
}

/// The Figure-1 request matrix for one panel: the reuse sweep crossed
/// with the two power settings, under the named scheduler.
#[must_use]
pub fn figure1_requests(id: SystemId, family: &str, scheduler: &str) -> Vec<PlanRequest> {
    RequestMatrix::new(
        id.request(family, 0, BudgetSpec::Unlimited)
            .with_scheduler(scheduler),
    )
    .vary_reused(&id.sweep())
    .vary_budget(&[BudgetSpec::Unlimited, BudgetSpec::Fraction(0.5)])
    .build()
}

/// Computes one Figure-1 panel by running the request matrix through
/// `campaign` with the named scheduler.
///
/// # Errors
///
/// Propagates the first [`CampaignError`] of the batch.
pub fn figure1_panel(
    campaign: &Campaign,
    id: SystemId,
    family: &str,
    scheduler: &str,
) -> Result<Figure1Panel, CampaignError> {
    let requests = figure1_requests(id, family, scheduler);
    let results = campaign.run_all(&requests);
    let mut outcomes = Vec::with_capacity(results.len());
    for result in results {
        outcomes.push(result?);
    }
    Ok(panel_from_outcomes(id, family, &outcomes))
}

/// Computes one Figure-1 panel by streaming the request matrix through a
/// job [`Executor`] — same outcomes as [`figure1_panel`], but the
/// executor's event sinks observe every job live (the `figure1` binary's
/// `--events` flag).
///
/// # Errors
///
/// Propagates the first [`CampaignError`] of the batch.
pub fn figure1_panel_streamed(
    executor: &Executor,
    id: SystemId,
    family: &str,
    scheduler: &str,
) -> Result<Figure1Panel, CampaignError> {
    let requests = figure1_requests(id, family, scheduler);
    let handles: Vec<_> = requests.into_iter().map(|r| executor.submit(r)).collect();
    let mut outcomes = Vec::with_capacity(handles.len());
    for handle in handles {
        match handle.wait() {
            JobResult::Completed(outcome) => outcomes.push(*outcome),
            JobResult::Failed(error) => return Err(error),
            JobResult::Cancelled => unreachable!("panel jobs are never cancelled"),
        }
    }
    Ok(panel_from_outcomes(id, family, &outcomes))
}

/// Folds the outcomes of a [`figure1_requests`] matrix (request order)
/// into a panel.
///
/// # Panics
///
/// Panics if `outcomes` does not match the matrix shape (two budget
/// points per reuse step).
#[must_use]
pub fn panel_from_outcomes(id: SystemId, family: &str, outcomes: &[PlanOutcome]) -> Figure1Panel {
    assert_eq!(outcomes.len(), 2 * id.sweep().len(), "matrix shape");
    // The matrix is reuse-major, budget-minor: [r0/none, r0/50%, r1/none, ...].
    let mut points = Vec::with_capacity(id.sweep().len());
    for (reused, pair) in id.sweep().into_iter().zip(outcomes.chunks(2)) {
        points.push(Figure1Point {
            reused,
            no_limit: pair[0].makespan,
            limited_50: pair[1].makespan,
        });
    }
    Figure1Panel {
        system: id.name(),
        processor: family.to_owned(),
        points,
    }
}

/// Computes a panel with the paper's greedy scheduler.
///
/// # Errors
///
/// See [`figure1_panel`].
pub fn figure1_panel_greedy(id: SystemId, family: &str) -> Result<Figure1Panel, CampaignError> {
    figure1_panel(&Campaign::new(), id, family, "greedy")
}

/// The calibrated processor profile for a family name ("leon"/"plasma") —
/// used by the characterisation tools that need raw profile numbers.
///
/// # Panics
///
/// Panics on an unknown name or if the instruction-set simulator fails
/// (which would be a bug, not bad input).
#[must_use]
pub fn calibrated_profile(name: &str) -> ProcessorProfile {
    ProcessorProfile::by_name(name)
        .unwrap_or_else(|| panic!("unknown processor family `{name}`"))
        .calibrated()
        .expect("ISS characterisation succeeds")
}

/// Renders a panel as the paper's bar chart (two bars per sweep point:
/// 50 % power limit and no power limit), in ASCII.
#[must_use]
pub fn ascii_panel(panel: &Figure1Panel) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} / {}  (test time in cycles)",
        panel.system, panel.processor
    );
    let max = panel
        .points
        .iter()
        .map(|p| p.no_limit.max(p.limited_50))
        .max()
        .unwrap_or(1)
        .max(1);
    const WIDTH: usize = 56;
    for p in &panel.points {
        let label = if p.reused == 0 {
            "noproc".to_owned()
        } else {
            format!("{}proc", p.reused)
        };
        for (tag, value) in [("50%", p.limited_50), ("inf", p.no_limit)] {
            let bar_len = ((value as u128 * WIDTH as u128) / max as u128) as usize;
            let _ = writeln!(
                out,
                "{label:>7} {tag}  {:<WIDTH$}  {value}",
                "#".repeat(bar_len.max(1))
            );
        }
    }
    let _ = writeln!(
        out,
        "best reduction: {:.1}% (no limit), {:.1}% (50% limit){}",
        panel.best_reduction_percent(),
        panel.best_reduction_percent_limited(),
        if panel.is_irregular() {
            " — irregular (greedy anomaly)"
        } else {
            ""
        }
    );
    out
}

/// Serialises one or more panels as CSV
/// (`system,processor,reused,power,makespan`).
#[must_use]
pub fn csv_panels(panels: &[Figure1Panel]) -> String {
    let mut out = String::from("system,processor,reused,power,makespan\n");
    for panel in panels {
        for p in &panel.points {
            let _ = writeln!(
                out,
                "{},{},{},none,{}",
                panel.system, panel.processor, p.reused, p.no_limit
            );
            let _ = writeln!(
                out,
                "{},{},{},50%,{}",
                panel.system, panel.processor, p.reused, p.limited_50
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_ids_match_paper_parameters() {
        assert_eq!(SystemId::D695.mesh(), (4, 4));
        assert_eq!(SystemId::P22810.mesh(), (5, 6));
        assert_eq!(SystemId::P93791.mesh(), (5, 5));
        assert_eq!(SystemId::D695.processors(), 6);
        assert_eq!(SystemId::P22810.processors(), 8);
        assert_eq!(SystemId::D695.sweep(), vec![0, 2, 4, 6]);
        assert_eq!(SystemId::P93791.sweep(), vec![0, 2, 4, 6, 8]);
        // Total cores after adding processors: 16 / 36 / 40.
        for (id, total) in [
            (SystemId::D695, 16),
            (SystemId::P22810, 36),
            (SystemId::P93791, 40),
        ] {
            assert_eq!(id.soc().cores().count() + id.processors(), total);
            assert_eq!(SystemId::from_name(id.name()), Some(id));
        }
        assert_eq!(SystemId::from_name("g1023"), None);
    }

    #[test]
    fn figure1_matrix_shape() {
        let requests = figure1_requests(SystemId::D695, "leon", "greedy");
        assert_eq!(requests.len(), 8); // 4 sweep points x 2 budgets
        assert!(requests.iter().all(|r| r.scheduler == "greedy"));
        assert_eq!(requests[0].processors.as_ref().unwrap().reused, 0);
        assert_eq!(requests[0].budget, BudgetSpec::Unlimited);
        assert_eq!(requests[1].budget, BudgetSpec::Fraction(0.5));
        assert_eq!(requests[7].processors.as_ref().unwrap().reused, 6);
    }

    #[test]
    fn panel_math() {
        let panel = Figure1Panel {
            system: "d695",
            processor: "leon".into(),
            points: vec![
                Figure1Point {
                    reused: 0,
                    no_limit: 100,
                    limited_50: 100,
                },
                Figure1Point {
                    reused: 2,
                    no_limit: 60,
                    limited_50: 80,
                },
            ],
        };
        assert!((panel.best_reduction_percent() - 40.0).abs() < 1e-9);
        assert!((panel.best_reduction_percent_limited() - 20.0).abs() < 1e-9);
        assert!(!panel.is_irregular());
        let text = ascii_panel(&panel);
        assert!(text.contains("noproc"));
        assert!(text.contains("2proc"));
        let csv = csv_panels(std::slice::from_ref(&panel));
        assert_eq!(csv.lines().count(), 1 + 4);
    }

    #[test]
    fn irregularity_detection() {
        let panel = Figure1Panel {
            system: "p22810",
            processor: "leon".into(),
            points: vec![
                Figure1Point {
                    reused: 0,
                    no_limit: 100,
                    limited_50: 100,
                },
                Figure1Point {
                    reused: 2,
                    no_limit: 50,
                    limited_50: 55,
                },
                Figure1Point {
                    reused: 4,
                    no_limit: 70,
                    limited_50: 75,
                },
            ],
        };
        assert!(panel.is_irregular());
    }

    #[test]
    fn d695_panel_reproduces_headline_claim() {
        // Full pipeline smoke test on the smallest system: the reduction
        // must be positive and in the paper's neighbourhood.
        let panel = figure1_panel_greedy(SystemId::D695, "leon").unwrap();
        assert_eq!(panel.points.len(), 4);
        let r = panel.best_reduction_percent();
        assert!((15.0..50.0).contains(&r), "d695 reduction {r}%");
    }
}
