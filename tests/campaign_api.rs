//! End-to-end acceptance tests for the Campaign API: a `PlanRequest`
//! deserialized from JSON runs through a `Campaign` under every scheduler
//! name the registry serves, yields a `PlanOutcome` whose schedule passes
//! validation, and serialises back to JSON losslessly.

use std::sync::Arc;

use noctest::core::plan::{Campaign, PlanOutcome, PlanRequest, SchedulerRegistry, SocSource};
use noctest::core::{BudgetSpec, Schedule, Scheduler, SystemUnderTest};
use noctest::{CampaignError, RequestMatrix};

/// A JSON campaign file: a custom eight-core SoC, small enough that even
/// the exponential `optimal` scheduler handles it.
const REQUEST_JSON: &str = r#"{
    "name": "acceptance",
    "soc": {"cores": [
        {"name": "isp",    "bits_in": 2464, "bits_out": 2464, "patterns": 60, "power": 900.0},
        {"name": "dsp",    "bits_in": 1248, "bits_out": 1232, "patterns": 48, "power": 600.0},
        {"name": "codec",  "bits_in": 752,  "bits_out": 752,  "patterns": 40, "power": 450.0},
        {"name": "scaler", "bits_in": 424,  "bits_out": 424,  "patterns": 30, "power": 300.0},
        {"name": "uart",   "bits_in": 144,  "bits_out": 144,  "patterns": 20, "power": 150.0},
        {"name": "gpio",   "bits_in": 44,   "bits_out": 44,   "patterns": 10, "power": 90.0}
    ]},
    "mesh": {"width": 3, "height": 3, "routing": "xy"},
    "processors": {"family": "plasma", "total": 2, "reused": 2},
    "budget": {"fraction": 0.6},
    "scheduler": "greedy",
    "priority": "distance",
    "validate": true
}"#;

#[test]
fn json_request_runs_under_every_registered_scheduler() {
    let campaign = Campaign::new();
    let base = PlanRequest::from_json_str(REQUEST_JSON).expect("request decodes");
    assert_eq!(base.name, "acceptance");

    let names = campaign.registry().names();
    assert_eq!(
        names,
        vec![
            "greedy",
            "optimal",
            "optimal-par",
            "portfolio",
            "serial",
            "smart"
        ]
    );

    let sys = base.build_system().expect("system builds");
    for name in names {
        let request = base.clone().with_scheduler(&name);
        // Campaign::run re-validates internally (request.validate is on);
        // an invalid schedule would surface as an error here.
        let outcome = campaign
            .run(&request)
            .unwrap_or_else(|e| panic!("{name} fails: {e}"));
        assert_eq!(outcome.scheduler, name);
        assert_eq!(outcome.sessions.len(), sys.cuts().len(), "{name}");
        assert!(outcome.makespan > 0, "{name}");

        // The outcome serialises to JSON and decodes back losslessly.
        let json = outcome.to_json_string();
        let replay = PlanOutcome::from_json_str(&json)
            .unwrap_or_else(|e| panic!("{name} outcome re-decodes: {e}"));
        assert_eq!(replay, outcome, "{name}");
    }
}

/// Acceptance: the fidelity section (whole-schedule simulation replay)
/// round-trips through JSON for every registered scheduler on d695.
#[test]
fn fidelity_section_roundtrips_for_every_scheduler_on_d695() {
    let campaign = Campaign::new();
    for name in campaign.registry().names() {
        // The exact searches enumerate exhaustively and guard against
        // systems beyond 10 cores; d695 without processors (10 cores) is
        // within the guard. The heuristics (and `portfolio`, whose exact
        // entrant degrades to its heuristic field past the guard) get
        // the full processor-reuse system.
        let request = if name == "optimal" || name == "optimal-par" {
            PlanRequest::benchmark("d695", 4, 4)
        } else {
            PlanRequest::benchmark("d695", 4, 4).with_processors("leon", 6, 4)
        }
        .with_scheduler(&name)
        .with_fidelity(4);

        let outcome = campaign
            .run(&request)
            .unwrap_or_else(|e| panic!("{name} fails: {e}"));
        let fidelity = outcome
            .fidelity
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: fidelity section missing"));
        assert_eq!(fidelity.patterns_cap, 4, "{name}");
        assert_eq!(fidelity.sessions.len(), outcome.sessions.len(), "{name}");
        assert!(fidelity.simulated_makespan > 0, "{name}");
        assert!(
            fidelity.worst_relative_error() < 0.25,
            "{name}: worst error {:.1}%",
            fidelity.worst_relative_error() * 100.0
        );

        let json = outcome.to_json_string();
        assert!(json.contains("\"fidelity\""), "{name}");
        let back = PlanOutcome::from_json_str(&json)
            .unwrap_or_else(|e| panic!("{name} outcome re-decodes: {e}"));
        assert_eq!(back, outcome, "{name}: fidelity JSON round-trip");
    }
}

#[test]
fn request_roundtrips_through_json_exactly() {
    let request = PlanRequest::from_json_str(REQUEST_JSON).expect("request decodes");
    let text = request.to_json_string();
    let again = PlanRequest::from_json_str(&text).expect("re-decodes");
    assert_eq!(again, request);
}

#[test]
fn benchmark_request_roundtrip_end_to_end() {
    // The documented d695 quickstart as a JSON document.
    let text = r#"{
        "soc": {"benchmark": "d695"},
        "mesh": {"width": 4, "height": 4},
        "processors": {"family": "leon", "total": 6, "reused": 4},
        "budget": {"fraction": 0.5},
        "scheduler": "smart"
    }"#;
    let request = PlanRequest::from_json_str(text).expect("decodes");
    let outcome = Campaign::new().run(&request).expect("plans");
    assert_eq!(outcome.system, "d695");
    assert_eq!(outcome.scheduler, "smart");
    assert_eq!(outcome.sessions.len(), 16);
    assert!(outcome.peak_power <= outcome.budget_cap.unwrap() + 1e-9);
    let replay = PlanOutcome::from_json_str(&outcome.to_json_string()).expect("re-decodes");
    assert_eq!(replay, outcome);
}

/// A user-registered scheduler participates in the pipeline exactly like
/// the built-ins (the registry is open, not an enum).
#[test]
fn user_registered_scheduler_runs_through_campaign() {
    /// Plans every core on the external tester in declaration order —
    /// deliberately naive, but valid.
    #[derive(Debug)]
    struct ExternalOnly;

    impl Scheduler for ExternalOnly {
        fn schedule_tuned(
            &self,
            sys: &SystemUnderTest,
            _tuning: &noctest::core::SearchTuning,
            _cancel: Option<&noctest::core::CancelToken>,
        ) -> Result<Schedule, noctest::core::PlanError> {
            let ext = noctest::core::InterfaceId(0);
            let mut entries = Vec::new();
            let mut clock = 0;
            for cut in sys.cuts() {
                let cycles = sys.session_cycles(ext, cut.id);
                entries.push(noctest::core::ScheduledTest {
                    cut: cut.id,
                    interface: ext,
                    start: clock,
                    end: clock + cycles,
                });
                clock += cycles;
            }
            Ok(Schedule::new(entries))
        }
    }

    let mut registry = SchedulerRegistry::with_defaults();
    registry.register("external-only", Arc::new(ExternalOnly));
    let campaign = Campaign::with_registry(registry);

    let request = PlanRequest::from_json_str(REQUEST_JSON)
        .expect("request decodes")
        .with_scheduler("external-only");
    let outcome = campaign.run(&request).expect("plans and validates");
    assert_eq!(outcome.scheduler, "external-only");
    assert_eq!(outcome.peak_concurrency, 1);
    // It can never beat the serialized baseline it equals.
    assert_eq!(outcome.makespan, outcome.serial_baseline);
}

#[test]
fn batch_matrix_runs_in_parallel_with_stable_results() {
    let campaign = Campaign::new();
    let base = PlanRequest::benchmark("d695", 4, 4)
        .with_processors("leon", 6, 0)
        .with_budget(BudgetSpec::Unlimited);
    let matrix = RequestMatrix::new(base)
        .vary_reused(&[0, 2, 4, 6])
        .vary_budget(&[BudgetSpec::Unlimited, BudgetSpec::Fraction(0.5)])
        .vary_scheduler(&["greedy", "smart"])
        .build();
    assert_eq!(matrix.len(), 16);

    let parallel: Vec<u64> = Campaign::new()
        .run_all(&matrix)
        .into_iter()
        .map(|r| r.expect("plans").makespan)
        .collect();
    let serial_exec: Vec<u64> = Campaign::new()
        .with_threads(1)
        .expect("1 is a valid worker count")
        .run_all(&matrix)
        .into_iter()
        .map(|r| r.expect("plans").makespan)
        .collect();
    // Thread count must not change planning results.
    assert_eq!(parallel, serial_exec);
    let _ = campaign;
}

#[test]
fn errors_are_unified_across_layers() {
    let campaign = Campaign::new();

    // Scheduler resolution failure.
    let bad_sched = PlanRequest::benchmark("d695", 4, 4).with_scheduler("annealing");
    assert!(matches!(
        campaign.run(&bad_sched),
        Err(CampaignError::UnknownScheduler { .. })
    ));

    // Benchmark resolution failure.
    let bad_bench = PlanRequest::benchmark("g1023", 4, 4);
    assert!(matches!(
        campaign.run(&bad_bench),
        Err(CampaignError::UnknownBenchmark(_))
    ));

    // Processor family resolution failure.
    let bad_proc = PlanRequest::benchmark("d695", 4, 4).with_processors("cortex", 2, 2);
    assert!(matches!(
        campaign.run(&bad_proc),
        Err(CampaignError::UnknownProcessor(_))
    ));

    // Inline .soc parse failure (wraps the itc02 error).
    let mut bad_soc = PlanRequest::benchmark("broken", 4, 4);
    bad_soc.soc = SocSource::SocText("SocName broken\nTotalModules 2\nModule 0\n".into());
    assert!(matches!(campaign.run(&bad_soc), Err(CampaignError::Soc(_))));

    // Planning failure (wraps the core error): infeasible power budget.
    let mut infeasible = PlanRequest::from_json_str(REQUEST_JSON).expect("decodes");
    infeasible.budget = BudgetSpec::Absolute(1.0);
    assert!(matches!(
        campaign.run(&infeasible),
        Err(CampaignError::Plan(_))
    ));

    // Malformed JSON (wraps the json error).
    assert!(matches!(
        PlanRequest::from_json_str("{"),
        Err(CampaignError::Json(_))
    ));
}
