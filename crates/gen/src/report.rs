//! [`CorpusReport`]: the serialisable result of one corpus run.
//!
//! The report splits into a **deterministic** section (per-scheduler win
//! rates and distributions, failures — byte-identical JSON for the same
//! [`crate::CorpusSpec`] and seed) and a **measured** section (wall-clock
//! throughput and profile-cache hit/miss counters, which depend on the
//! machine and on what the process cached before). The split is what lets
//! CI assert reproducibility while still reporting speed:
//! [`CorpusReport::deterministic_json`] omits the measured section,
//! [`CorpusReport::to_json`] keeps everything.

use noctest_core::json::Json;
use noctest_core::plan::CacheStats;

/// Min/mean/max summary of a per-scheduler metric over its successful
/// scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DistributionSummary {
    /// Successful scenarios the summary covers.
    pub count: usize,
    /// Smallest observed value.
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl DistributionSummary {
    /// Summarises a slice of observations (zeroes when empty).
    #[must_use]
    pub fn of(values: &[u64]) -> Self {
        if values.is_empty() {
            return DistributionSummary::default();
        }
        let sum: u128 = values.iter().map(|&v| u128::from(v)).sum();
        DistributionSummary {
            count: values.len(),
            min: *values.iter().min().expect("non-empty"),
            max: *values.iter().max().expect("non-empty"),
            mean: sum as f64 / values.len() as f64,
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("count", Json::int(self.count as u64)),
            ("min", Json::int(self.min)),
            ("max", Json::int(self.max)),
            ("mean", Json::Num(self.mean)),
        ])
    }
}

/// One scheduler's aggregate over the corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerSummary {
    /// Registry name.
    pub name: String,
    /// Scenarios attempted (one per scenario group).
    pub runs: usize,
    /// Scenarios that errored (resolution, planning or validation).
    pub failures: usize,
    /// Groups where this scheduler achieved the group-minimal makespan
    /// (ties count for every scheduler achieving the minimum).
    pub wins: usize,
    /// `wins` over the number of scenario groups.
    pub win_rate: f64,
    /// Makespan distribution over successful scenarios.
    pub makespan: DistributionSummary,
    /// Mean of the per-scenario mean concurrency.
    pub mean_concurrency: f64,
    /// Largest peak concurrency observed.
    pub peak_concurrency: usize,
    /// Mean test-time reduction vs. the serial external baseline, in
    /// percent.
    pub mean_reduction_percent: f64,
    /// Worst analytic-vs-simulated relative error over the corpus (only
    /// when the spec enabled fidelity replay).
    pub worst_fidelity_error: Option<f64>,
}

impl SchedulerSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("runs", Json::int(self.runs as u64)),
            ("failures", Json::int(self.failures as u64)),
            ("wins", Json::int(self.wins as u64)),
            ("win_rate", Json::Num(self.win_rate)),
            ("makespan", self.makespan.to_json()),
            ("mean_concurrency", Json::Num(self.mean_concurrency)),
            ("peak_concurrency", Json::int(self.peak_concurrency as u64)),
            (
                "mean_reduction_percent",
                Json::Num(self.mean_reduction_percent),
            ),
            (
                "worst_fidelity_error",
                self.worst_fidelity_error.map_or(Json::Null, Json::Num),
            ),
        ])
    }
}

/// One scheduler's aggregates under one fault-axis value.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedulerSummary {
    /// Registry name.
    pub name: String,
    /// Scenarios attempted under this fault-axis value.
    pub runs: usize,
    /// Scenarios that errored — on degraded meshes this includes the
    /// *typed* unreachable-core rejections, never panics.
    pub failures: usize,
    /// Makespan distribution over successful scenarios.
    pub makespan: DistributionSummary,
    /// Mean makespan inflation vs. the paired scenario under the first
    /// (baseline) fault-axis value, in percent, over pairs where both
    /// scenarios succeeded. Zero for the baseline itself.
    pub mean_inflation_percent: f64,
    /// Pairs contributing to the inflation mean.
    pub paired: usize,
}

impl FaultSchedulerSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("runs", Json::int(self.runs as u64)),
            ("failures", Json::int(self.failures as u64)),
            ("makespan", self.makespan.to_json()),
            (
                "mean_inflation_percent",
                Json::Num(self.mean_inflation_percent),
            ),
            ("paired", Json::int(self.paired as u64)),
        ])
    }
}

/// One fault-axis value's aggregates: how every scheduler's makespan
/// inflates (and how often planning fails outright) as the mesh degrades.
/// Fault-free corpora omit the whole section, byte-identically to reports
/// that predate it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultAxisSummary {
    /// The fault recipe's stable label (`"none"`, `"links10"`,
    /// `"cluster2"`, `"colcut"`, ...).
    pub label: String,
    /// Per-scheduler aggregates under this fault-axis value, in spec
    /// order.
    pub schedulers: Vec<FaultSchedulerSummary>,
}

impl FaultAxisSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", Json::str(&self.label)),
            (
                "schedulers",
                Json::Arr(
                    self.schedulers
                        .iter()
                        .map(FaultSchedulerSummary::to_json)
                        .collect(),
                ),
            ),
        ])
    }
}

/// One failed scenario: the request's (unique) name and the error text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusFailure {
    /// The failing request's name.
    pub request: String,
    /// Rendered [`CampaignError`](noctest_core::plan::CampaignError).
    pub error: String,
}

/// Wall-clock and cache measurements of one corpus run. Everything here
/// varies between machines and runs, which is exactly why it lives apart
/// from the deterministic results.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CorpusMeasurement {
    /// Total wall-clock time of the batch, in microseconds.
    pub elapsed_micros: u64,
    /// Scenarios per wall-clock second.
    pub scenarios_per_second: f64,
    /// Profile-cache counters attributable to this run (snapshot delta).
    pub cache: CacheStats,
}

/// The aggregate outcome of running a corpus through a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusReport {
    /// The corpus master seed.
    pub seed: u64,
    /// Generated SoCs in the corpus.
    pub soc_count: usize,
    /// Total scenarios (requests) executed.
    pub scenario_count: usize,
    /// Scenario groups (scenarios sharing everything but the scheduler).
    pub group_count: usize,
    /// Per-scheduler aggregates, in spec order.
    pub schedulers: Vec<SchedulerSummary>,
    /// Per-fault-axis-value aggregates (degraded-mesh corpora only;
    /// empty — and omitted from JSON — when the spec has no fault axis).
    pub fault_axis: Vec<FaultAxisSummary>,
    /// Failed scenarios, in request order.
    pub failures: Vec<CorpusFailure>,
    /// Wall-clock throughput and cache observability.
    pub measured: CorpusMeasurement,
}

impl CorpusReport {
    /// `true` if every scenario planned and validated.
    #[must_use]
    pub fn all_valid(&self) -> bool {
        self.failures.is_empty()
    }

    /// The full report as a JSON value (measured section included).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut members = self.deterministic_members();
        members.push((
            "measured",
            Json::obj(vec![
                ("elapsed_micros", Json::int(self.measured.elapsed_micros)),
                (
                    "scenarios_per_second",
                    Json::Num(self.measured.scenarios_per_second),
                ),
                ("cache_hits", Json::int(self.measured.cache.hits)),
                ("cache_misses", Json::int(self.measured.cache.misses)),
            ]),
        ));
        Json::obj(members)
    }

    /// The full report as pretty-printed JSON text.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Only the reproducible section, as pretty-printed JSON: two runs of
    /// the same spec and seed yield byte-identical output regardless of
    /// machine speed or prior cache state. This is what CI compares.
    #[must_use]
    pub fn deterministic_json(&self) -> String {
        Json::obj(self.deterministic_members()).pretty()
    }

    fn deterministic_members(&self) -> Vec<(&'static str, Json)> {
        let mut members = vec![
            // As a string: JSON numbers are f64s, and a u64 seed above
            // 2^53 would silently round.
            ("seed", Json::str(self.seed.to_string())),
            ("soc_count", Json::int(self.soc_count as u64)),
            ("scenario_count", Json::int(self.scenario_count as u64)),
            ("group_count", Json::int(self.group_count as u64)),
            (
                "schedulers",
                Json::Arr(
                    self.schedulers
                        .iter()
                        .map(SchedulerSummary::to_json)
                        .collect(),
                ),
            ),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| {
                            Json::obj(vec![
                                ("request", Json::str(&f.request)),
                                ("error", Json::str(&f.error)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        // Omitted entirely without a fault axis: fault-free reports stay
        // byte-identical to every earlier release (CI compares the bytes).
        if !self.fault_axis.is_empty() {
            members.push((
                "fault_axis",
                Json::Arr(
                    self.fault_axis
                        .iter()
                        .map(FaultAxisSummary::to_json)
                        .collect(),
                ),
            ));
        }
        members
    }

    /// A human-readable summary table (one row per scheduler).
    #[must_use]
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "corpus seed {:#018x}: {} SoCs, {} scenarios in {} groups",
            self.seed, self.soc_count, self.scenario_count, self.group_count
        );
        let _ = writeln!(
            out,
            "{:<10} {:>5} {:>5} {:>6} {:>9} {:>12} {:>12} {:>8} {:>10}",
            "scheduler",
            "runs",
            "fail",
            "wins",
            "win-rate",
            "mks-mean",
            "mks-max",
            "conc",
            "reduct%"
        );
        for s in &self.schedulers {
            let _ = writeln!(
                out,
                "{:<10} {:>5} {:>5} {:>6} {:>8.1}% {:>12.0} {:>12} {:>8.2} {:>9.1}%",
                s.name,
                s.runs,
                s.failures,
                s.wins,
                s.win_rate * 100.0,
                s.makespan.mean,
                s.makespan.max,
                s.mean_concurrency,
                s.mean_reduction_percent
            );
        }
        if !self.fault_axis.is_empty() {
            let _ = writeln!(out, "fault axis (makespan inflation vs healthy):");
            for fa in &self.fault_axis {
                for s in &fa.schedulers {
                    let _ = writeln!(
                        out,
                        "  {:<10} {:<10} {:>4} runs {:>4} fail {:>+8.1}% over {} pairs",
                        fa.label, s.name, s.runs, s.failures, s.mean_inflation_percent, s.paired
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "throughput {:.1} scenarios/s, profile cache {} hits / {} misses",
            self.measured.scenarios_per_second,
            self.measured.cache.hits,
            self.measured.cache.misses
        );
        if !self.failures.is_empty() {
            let _ = writeln!(out, "{} FAILED scenarios:", self.failures.len());
            for f in &self.failures {
                let _ = writeln!(out, "  {}: {}", f.request, f.error);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CorpusReport {
        CorpusReport {
            seed: 7,
            soc_count: 20,
            scenario_count: 160,
            group_count: 40,
            schedulers: vec![SchedulerSummary {
                name: "greedy".into(),
                runs: 40,
                failures: 1,
                wins: 25,
                win_rate: 0.625,
                makespan: DistributionSummary::of(&[100, 300, 200]),
                mean_concurrency: 2.5,
                peak_concurrency: 5,
                mean_reduction_percent: 31.25,
                worst_fidelity_error: Some(0.04),
            }],
            fault_axis: Vec::new(),
            failures: vec![CorpusFailure {
                request: "gen-x mesh=3x3 greedy".into(),
                error: "planning failed".into(),
            }],
            measured: CorpusMeasurement {
                elapsed_micros: 1_500_000,
                scenarios_per_second: 106.7,
                cache: CacheStats {
                    hits: 159,
                    misses: 1,
                    evictions: 0,
                },
            },
        }
    }

    #[test]
    fn distribution_summary_math() {
        let d = DistributionSummary::of(&[100, 300, 200]);
        assert_eq!((d.count, d.min, d.max), (3, 100, 300));
        assert!((d.mean - 200.0).abs() < 1e-12);
        assert_eq!(DistributionSummary::of(&[]), DistributionSummary::default());
    }

    #[test]
    fn seed_above_f64_precision_roundtrips() {
        // JSON numbers are f64s; (2^53)+1 would round as a numeric
        // member. The string encoding must carry every u64 exactly.
        let mut r = sample();
        r.seed = (1u64 << 53) + 1;
        let text = r.to_json_string();
        assert!(text.contains("\"seed\": \"9007199254740993\""));
        let seed = Json::parse(&text).unwrap().get("seed").cloned();
        let back = seed.as_ref().and_then(Json::as_str).map(str::parse::<u64>);
        assert_eq!(back, Some(Ok(r.seed)));
    }

    #[test]
    fn deterministic_json_omits_measured() {
        let r = sample();
        let text = r.deterministic_json();
        assert!(!text.contains("measured"));
        assert!(!text.contains("scenarios_per_second"));
        // The full report is the deterministic section plus `measured`.
        let Json::Obj(mut full) = Json::parse(&r.to_json_string()).unwrap() else {
            panic!("a report is an object");
        };
        assert_eq!(full.pop().map(|(key, _)| key).as_deref(), Some("measured"));
        assert_eq!(Json::Obj(full).pretty(), text);
    }

    #[test]
    fn measured_differences_do_not_change_the_deterministic_section() {
        let a = sample();
        let mut b = sample();
        b.measured.elapsed_micros = 99;
        b.measured.scenarios_per_second = 1.0;
        b.measured.cache = CacheStats {
            hits: 0,
            misses: 160,
            evictions: 0,
        };
        assert_ne!(a, b);
        assert_eq!(a.deterministic_json(), b.deterministic_json());
    }

    #[test]
    fn table_mentions_every_scheduler_and_failure() {
        let text = sample().table();
        assert!(text.contains("greedy"));
        assert!(text.contains("FAILED"));
        assert!(text.contains("planning failed"));
        assert!(text.contains("hits"));
    }

    #[test]
    fn fault_axis_roundtrips_and_empty_axis_is_omitted() {
        let healthy = sample();
        assert!(
            !healthy.to_json_string().contains("fault_axis"),
            "fault-free reports must stay byte-identical to old releases"
        );
        let mut degraded = sample();
        degraded.fault_axis = vec![FaultAxisSummary {
            label: "links10".into(),
            schedulers: vec![FaultSchedulerSummary {
                name: "greedy".into(),
                runs: 10,
                failures: 2,
                makespan: DistributionSummary::of(&[120, 340]),
                mean_inflation_percent: 8.5,
                paired: 8,
            }],
        }];
        let text = degraded.to_json_string();
        assert!(text.contains("\"fault_axis\""));
        assert!(degraded.deterministic_json().contains("\"fault_axis\""));
        // Every field of the summary comes back out of the written text.
        let fault_axis = Json::parse(&text).unwrap().get("fault_axis").cloned();
        assert_eq!(
            fault_axis.map(|axis| axis.compact()).as_deref(),
            Some(
                r#"[{"label":"links10","schedulers":[{"name":"greedy","runs":10,"failures":2,"makespan":{"count":2,"min":120,"max":340,"mean":230},"mean_inflation_percent":8.5,"paired":8}]}]"#
            )
        );
        assert!(degraded.table().contains("links10"));
    }
}
