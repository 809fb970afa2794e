//! [`PlanOutcome`]: the serialisable result of one planning run.

use std::fmt::Write as _;

use crate::json::{field, field_or, Json, JsonError};
use crate::plan::error::CampaignError;
use crate::replay::{ScheduleReplay, SessionReplay};
use crate::sched::Schedule;
use crate::system::SystemUnderTest;

/// One scheduled test session, denormalised so the outcome is
/// self-contained (names and labels survive without the system object).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Core id within the planned system.
    pub cut: u32,
    /// Core name.
    pub core: String,
    /// Label of the driving interface (`"ext"`, `"leon#0"`, ...).
    pub interface: String,
    /// Start cycle.
    pub start: u64,
    /// End cycle (exclusive).
    pub end: u64,
    /// Instantaneous power drawn while the session runs.
    pub power: f64,
}

impl SessionOutcome {
    /// Session length in cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }
}

/// One stage of the planning pipeline, in execution order. Names the
/// members of [`StageTiming`] and labels the `StageFinished` events of
/// [`crate::plan::exec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// System resolution + placement (includes ISS calibration on a cache
    /// miss).
    Build,
    /// Scheduling proper.
    Schedule,
    /// Invariant re-validation.
    Validate,
    /// Whole-schedule simulation replay.
    Replay,
}

impl Stage {
    /// Stable lower-case name (used in event JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Build => "build",
            Stage::Schedule => "schedule",
            Stage::Validate => "validate",
            Stage::Replay => "replay",
        }
    }

    /// Parses a [`Stage::name`] back (None for anything else).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Stage> {
        match name {
            "build" => Some(Stage::Build),
            "schedule" => Some(Stage::Schedule),
            "validate" => Some(Stage::Validate),
            "replay" => Some(Stage::Replay),
            _ => None,
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Wall-clock timing of the pipeline stages, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTiming {
    /// System resolution + placement (includes ISS calibration on a cache
    /// miss). A job on the executor that reuses a system an earlier job
    /// built records the time it spent getting it: the memo lookup, plus
    /// any wait for a build still running on another worker.
    pub build_micros: u64,
    /// Scheduling proper.
    pub schedule_micros: u64,
    /// Invariant re-validation (0 when the request disabled it).
    pub validate_micros: u64,
    /// Whole-schedule simulation replay (0 when the request did not ask
    /// for fidelity).
    pub replay_micros: u64,
}

impl StageTiming {
    /// Total pipeline time in microseconds. Saturating: pathological
    /// per-stage values (a clock jump, a corrupted document) cap at
    /// `u64::MAX` instead of overflowing in release builds.
    #[must_use]
    pub fn total_micros(&self) -> u64 {
        self.build_micros
            .saturating_add(self.schedule_micros)
            .saturating_add(self.validate_micros)
            .saturating_add(self.replay_micros)
    }

    /// The recorded time for one stage.
    #[must_use]
    pub fn stage_micros(&self, stage: Stage) -> u64 {
        match stage {
            Stage::Build => self.build_micros,
            Stage::Schedule => self.schedule_micros,
            Stage::Validate => self.validate_micros,
            Stage::Replay => self.replay_micros,
        }
    }

    /// Adds a per-stage increment (saturating) — the accumulation the
    /// event stream of [`crate::plan::exec`] uses to rebuild a
    /// `StageTiming` from `StageFinished` deltas.
    pub fn record(&mut self, stage: Stage, micros: u64) {
        let slot = match stage {
            Stage::Build => &mut self.build_micros,
            Stage::Schedule => &mut self.schedule_micros,
            Stage::Validate => &mut self.validate_micros,
            Stage::Replay => &mut self.replay_micros,
        };
        *slot = slot.saturating_add(micros);
    }
}

/// Encodes a fidelity section — the [`ScheduleReplay`] of
/// [`crate::replay::replay_schedule`], embedded verbatim in the outcome.
/// `worst_relative_error` is emitted as a derived convenience member for
/// machine consumers; decoding recomputes it from the sessions.
fn fidelity_to_json(f: &ScheduleReplay) -> Json {
    Json::obj(vec![
        ("patterns_cap", Json::int(u64::from(f.patterns_cap))),
        ("analytic_makespan", Json::int(f.analytic_makespan)),
        ("simulated_makespan", Json::int(f.simulated_makespan)),
        ("worst_relative_error", Json::Num(f.worst_relative_error())),
        (
            "sessions",
            Json::Arr(
                f.sessions
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("cut", Json::int(u64::from(s.cut))),
                            ("interface", Json::str(&s.interface)),
                            ("start", Json::int(s.start)),
                            ("packets", Json::int(u64::from(s.packets))),
                            ("analytic_cycles", Json::int(s.analytic_cycles)),
                            ("simulated_cycles", Json::int(s.simulated_cycles)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn fidelity_from_json(doc: &Json) -> Result<ScheduleReplay, JsonError> {
    let sessions_doc = field(doc, "sessions", "an array", Json::as_arr)?;
    let mut sessions = Vec::with_capacity(sessions_doc.len());
    for s in sessions_doc {
        sessions.push(SessionReplay {
            cut: field(s, "cut", "an integer", Json::as_u64)? as u32,
            interface: field(s, "interface", "a string", |v| {
                v.as_str().map(str::to_owned)
            })?,
            start: field(s, "start", "an integer", Json::as_u64)?,
            packets: field(s, "packets", "an integer", Json::as_u64)? as u32,
            analytic_cycles: field(s, "analytic_cycles", "an integer", Json::as_u64)?,
            simulated_cycles: field(s, "simulated_cycles", "an integer", Json::as_u64)?,
        });
    }
    Ok(ScheduleReplay {
        patterns_cap: field(doc, "patterns_cap", "an integer", Json::as_u64)? as u32,
        analytic_makespan: field(doc, "analytic_makespan", "an integer", Json::as_u64)?,
        simulated_makespan: field(doc, "simulated_makespan", "an integer", Json::as_u64)?,
        sessions,
    })
}

/// Everything a planning run produced: the schedule with its figures of
/// merit, the per-session breakdown, and a timing report. Serialisable to
/// and from JSON (the numbers round-trip exactly; floats keep shortest
/// round-trip form).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOutcome {
    /// The request's label.
    pub request_name: String,
    /// The planned system's name.
    pub system: String,
    /// Scheduler that produced the plan.
    pub scheduler: String,
    /// Total test application time in cycles.
    pub makespan: u64,
    /// Maximum number of concurrent sessions.
    pub peak_concurrency: usize,
    /// Mean number of active sessions over the makespan.
    pub mean_concurrency: f64,
    /// Peak instantaneous power draw.
    pub peak_power: f64,
    /// The power cap in force (None = unlimited).
    pub budget_cap: Option<f64>,
    /// Sum of all cores' test-mode power (the paper's 100% reference).
    pub total_core_power: f64,
    /// The serialized external-tester baseline in cycles.
    pub serial_baseline: u64,
    /// Test-time reduction vs. that baseline, in percent.
    pub reduction_percent: f64,
    /// Per-session breakdown, ordered by start cycle.
    pub sessions: Vec<SessionOutcome>,
    /// Schedule-level simulation fidelity — the whole-plan replay of
    /// [`crate::replay::replay_schedule`], embedded verbatim (only when
    /// the request opted in via [`crate::plan::PlanRequest::fidelity`]).
    pub fidelity: Option<ScheduleReplay>,
    /// Wall-clock stage timing.
    pub timing: StageTiming,
}

impl PlanOutcome {
    /// Assembles an outcome from a validated schedule (used by
    /// [`crate::plan::Campaign::run`]).
    #[must_use]
    pub fn from_schedule(
        request_name: &str,
        scheduler: &str,
        sys: &SystemUnderTest,
        schedule: &Schedule,
        timing: StageTiming,
    ) -> Self {
        let serial_baseline = sys.serial_external_cycles();
        let makespan = schedule.makespan();
        let sessions = schedule
            .entries()
            .iter()
            .map(|e| SessionOutcome {
                cut: e.cut.0,
                core: sys.cut(e.cut).name.clone(),
                interface: sys.interface(e.interface).label(),
                start: e.start,
                end: e.end,
                power: sys.session_power(e.interface, e.cut),
            })
            .collect();
        PlanOutcome {
            request_name: request_name.to_owned(),
            system: sys.name().to_owned(),
            scheduler: scheduler.to_owned(),
            makespan,
            peak_concurrency: schedule.peak_concurrency(),
            mean_concurrency: schedule.mean_concurrency(),
            peak_power: schedule.peak_power(sys),
            budget_cap: sys.budget().cap(),
            total_core_power: sys.total_core_power(),
            serial_baseline,
            reduction_percent: if serial_baseline == 0 {
                0.0
            } else {
                100.0 * (1.0 - makespan as f64 / serial_baseline as f64)
            },
            sessions,
            fidelity: None,
            timing,
        }
    }

    /// Renders a text Gantt chart of the sessions (one row per session,
    /// time bucketed into `width` columns, at least 10).
    #[must_use]
    pub fn gantt(&self, width: usize) -> String {
        let width = width.max(10);
        let makespan = self.makespan.max(1);
        let name_w = self
            .sessions
            .iter()
            .map(|s| s.core.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let iface_w = self
            .sessions
            .iter()
            .map(|s| s.interface.len())
            .max()
            .unwrap_or(5)
            .max(5);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<name_w$}  {:<iface_w$}  0{:>w$}",
            "core",
            "iface",
            makespan,
            w = width.saturating_sub(1)
        );
        for s in &self.sessions {
            let from = (s.start as u128 * width as u128 / makespan as u128) as usize;
            let to = ((s.end as u128 * width as u128).div_ceil(makespan as u128) as usize)
                .clamp(from + 1, width);
            let mut bar = String::with_capacity(width);
            for i in 0..width {
                bar.push(if (from..to).contains(&i) { '#' } else { '.' });
            }
            let _ = writeln!(out, "{:<name_w$}  {:<iface_w$}  {bar}", s.core, s.interface);
        }
        let _ = writeln!(
            out,
            "makespan {} cycles, peak concurrency {}, mean {:.2}, peak power {:.0}",
            self.makespan, self.peak_concurrency, self.mean_concurrency, self.peak_power
        );
        out
    }

    /// Encodes the outcome as a JSON value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("request_name", Json::str(&self.request_name)),
            ("system", Json::str(&self.system)),
            ("scheduler", Json::str(&self.scheduler)),
            ("makespan", Json::int(self.makespan)),
            ("peak_concurrency", Json::int(self.peak_concurrency as u64)),
            ("mean_concurrency", Json::Num(self.mean_concurrency)),
            ("peak_power", Json::Num(self.peak_power)),
            ("budget_cap", self.budget_cap.map_or(Json::Null, Json::Num)),
            ("total_core_power", Json::Num(self.total_core_power)),
            ("serial_baseline", Json::int(self.serial_baseline)),
            ("reduction_percent", Json::Num(self.reduction_percent)),
            (
                "sessions",
                Json::Arr(
                    self.sessions
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("cut", Json::int(u64::from(s.cut))),
                                ("core", Json::str(&s.core)),
                                ("interface", Json::str(&s.interface)),
                                ("start", Json::int(s.start)),
                                ("end", Json::int(s.end)),
                                ("power", Json::Num(s.power)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "fidelity",
                self.fidelity.as_ref().map_or(Json::Null, fidelity_to_json),
            ),
            (
                "timing",
                Json::obj(vec![
                    ("build_micros", Json::int(self.timing.build_micros)),
                    ("schedule_micros", Json::int(self.timing.schedule_micros)),
                    ("validate_micros", Json::int(self.timing.validate_micros)),
                    ("replay_micros", Json::int(self.timing.replay_micros)),
                ]),
            ),
        ])
    }

    /// The outcome as pretty-printed JSON text.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Decodes an outcome from JSON text (inverse of
    /// [`PlanOutcome::to_json_string`]).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Json`] describing the first malformed member.
    pub fn from_json_str(text: &str) -> Result<Self, CampaignError> {
        Ok(Self::from_json(&Json::parse(text)?)?)
    }

    /// Decodes an outcome from a parsed JSON value.
    ///
    /// # Errors
    ///
    /// [`JsonError`] describing the first malformed member.
    pub fn from_json(doc: &Json) -> Result<Self, JsonError> {
        let sessions_doc = field(doc, "sessions", "an array", Json::as_arr)?;
        let mut sessions = Vec::with_capacity(sessions_doc.len());
        for s in sessions_doc {
            sessions.push(SessionOutcome {
                cut: field(s, "cut", "an integer", Json::as_u64)? as u32,
                core: field(s, "core", "a string", |v| v.as_str().map(str::to_owned))?,
                interface: field(s, "interface", "a string", |v| {
                    v.as_str().map(str::to_owned)
                })?,
                start: field(s, "start", "an integer", Json::as_u64)?,
                end: field(s, "end", "an integer", Json::as_u64)?,
                power: field(s, "power", "a number", Json::as_f64)?,
            });
        }
        let timing_doc = field(doc, "timing", "an object", |v| v.as_obj().map(|_| v))?;
        Ok(PlanOutcome {
            request_name: field(doc, "request_name", "a string", |v| {
                v.as_str().map(str::to_owned)
            })?,
            system: field(doc, "system", "a string", |v| v.as_str().map(str::to_owned))?,
            scheduler: field(doc, "scheduler", "a string", |v| {
                v.as_str().map(str::to_owned)
            })?,
            makespan: field(doc, "makespan", "an integer", Json::as_u64)?,
            peak_concurrency: field(doc, "peak_concurrency", "an integer", Json::as_u64)? as usize,
            mean_concurrency: field(doc, "mean_concurrency", "a number", Json::as_f64)?,
            peak_power: field(doc, "peak_power", "a number", Json::as_f64)?,
            budget_cap: match doc.get("budget_cap") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_f64().ok_or_else(|| JsonError {
                    at: 0,
                    message: "member `budget_cap` is not a number".into(),
                })?),
            },
            total_core_power: field(doc, "total_core_power", "a number", Json::as_f64)?,
            serial_baseline: field(doc, "serial_baseline", "an integer", Json::as_u64)?,
            reduction_percent: field(doc, "reduction_percent", "a number", Json::as_f64)?,
            sessions,
            fidelity: match doc.get("fidelity") {
                None | Some(Json::Null) => None,
                Some(f) => Some(fidelity_from_json(f)?),
            },
            timing: StageTiming {
                build_micros: field(timing_doc, "build_micros", "an integer", Json::as_u64)?,
                schedule_micros: field(timing_doc, "schedule_micros", "an integer", Json::as_u64)?,
                validate_micros: field(timing_doc, "validate_micros", "an integer", Json::as_u64)?,
                // Absent in pre-fidelity documents; default to zero.
                replay_micros: field_or(
                    timing_doc,
                    "replay_micros",
                    "an integer",
                    0,
                    Json::as_u64,
                )?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PlanOutcome {
        PlanOutcome {
            request_name: "r".into(),
            system: "d695".into(),
            scheduler: "greedy".into(),
            makespan: 1234,
            peak_concurrency: 3,
            mean_concurrency: 1.5,
            peak_power: 2000.5,
            budget_cap: Some(3236.0),
            total_core_power: 6472.0,
            serial_baseline: 2000,
            reduction_percent: 38.3,
            sessions: vec![
                SessionOutcome {
                    cut: 0,
                    core: "leon#0".into(),
                    interface: "ext".into(),
                    start: 0,
                    end: 400,
                    power: 400.0,
                },
                SessionOutcome {
                    cut: 3,
                    core: "d695.m4".into(),
                    interface: "leon#0".into(),
                    start: 400,
                    end: 1234,
                    power: 275.0,
                },
            ],
            fidelity: None,
            timing: StageTiming {
                build_micros: 100,
                schedule_micros: 50,
                validate_micros: 10,
                replay_micros: 0,
            },
        }
    }

    fn sample_with_fidelity() -> PlanOutcome {
        let mut o = sample();
        o.fidelity = Some(ScheduleReplay {
            patterns_cap: 8,
            analytic_makespan: 1180,
            simulated_makespan: 1210,
            sessions: vec![SessionReplay {
                cut: 3,
                interface: "leon#0".into(),
                start: 400,
                packets: 8,
                analytic_cycles: 750,
                simulated_cycles: 800,
            }],
        });
        o.timing.replay_micros = 42;
        o
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let o = sample();
        let back = PlanOutcome::from_json_str(&o.to_json_string()).unwrap();
        assert_eq!(back, o);
    }

    #[test]
    fn fidelity_section_roundtrips_exactly() {
        let o = sample_with_fidelity();
        let text = o.to_json_string();
        assert!(text.contains("\"simulated_makespan\": 1210"));
        // 50/800: the derived member is emitted for machine consumers and
        // recomputed (identically) on decode.
        assert!(text.contains("\"worst_relative_error\": 0.0625"));
        let back = PlanOutcome::from_json_str(&text).unwrap();
        assert_eq!(back, o);
        assert_eq!(
            back.fidelity.as_ref().unwrap().worst_relative_error(),
            0.0625
        );
    }

    #[test]
    fn missing_fidelity_decodes_as_none() {
        // Pre-fidelity documents (no `fidelity`, no `replay_micros`) must
        // still decode.
        let mut text = sample().to_json_string();
        text = text.replace("\"fidelity\": null,\n", "");
        text = text.replace(",\n    \"replay_micros\": 0", "");
        let back = PlanOutcome::from_json_str(&text).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn unlimited_budget_serialises_as_null() {
        let mut o = sample();
        o.budget_cap = None;
        let text = o.to_json_string();
        assert!(text.contains("\"budget_cap\": null"));
        assert_eq!(PlanOutcome::from_json_str(&text).unwrap(), o);
    }

    #[test]
    fn gantt_shows_every_session() {
        let o = sample();
        let chart = o.gantt(40);
        assert_eq!(chart.lines().count(), 1 + o.sessions.len() + 1);
        assert!(chart.contains("leon#0"));
        assert!(chart.contains('#'));
        assert!(chart.contains("makespan 1234"));
    }

    #[test]
    fn gantt_width_is_clamped() {
        let chart = sample().gantt(0);
        let row = chart.lines().nth(1).unwrap();
        assert_eq!(row.rsplit(' ').next().unwrap().len(), 10);
    }

    #[test]
    fn session_cycles_and_stage_totals() {
        let o = sample();
        assert_eq!(o.sessions[0].cycles(), 400);
        assert_eq!(o.timing.total_micros(), 160);
        assert_eq!(sample_with_fidelity().timing.total_micros(), 202);
    }

    #[test]
    fn pathological_stage_timings_saturate_instead_of_overflowing() {
        let mut t = StageTiming {
            build_micros: u64::MAX - 10,
            schedule_micros: 500,
            validate_micros: u64::MAX,
            replay_micros: 1,
        };
        assert_eq!(t.total_micros(), u64::MAX);
        t.record(Stage::Validate, u64::MAX);
        assert_eq!(t.validate_micros, u64::MAX);
        assert_eq!(t.total_micros(), u64::MAX);
    }

    #[test]
    fn stage_names_roundtrip_and_record_accumulates() {
        let mut t = StageTiming::default();
        for (i, stage) in [
            Stage::Build,
            Stage::Schedule,
            Stage::Validate,
            Stage::Replay,
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(Stage::from_name(stage.name()), Some(stage));
            assert_eq!(stage.to_string(), stage.name());
            t.record(stage, i as u64 + 1);
            t.record(stage, 10);
            assert_eq!(t.stage_micros(stage), i as u64 + 11);
        }
        assert_eq!(Stage::from_name("parse"), None);
        assert_eq!(t.total_micros(), 50);
    }

    #[test]
    fn missing_members_are_reported() {
        let err = PlanOutcome::from_json_str("{}").unwrap_err();
        assert!(err.to_string().contains("sessions"));
    }
}
