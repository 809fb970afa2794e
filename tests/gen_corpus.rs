//! Acceptance tests for the generated-corpus subsystem: a population of
//! synthetic SoCs (all five recipe families) runs through every scheduler
//! name the default registry serves, every outcome passes schedule
//! validation, request names stay unique, the report round-trips through
//! JSON, its deterministic section is byte-stable across runs, and the
//! profile-cache counters prove characterisation is paid once per key.

use noctest::core::plan::Campaign;
use noctest::core::{
    BudgetSpec, OptimalScheduler, ParallelOptimalScheduler, PortfolioScheduler, SchedulerRegistry,
};
use noctest::gen::{CorpusSpec, ProcessorAxis, RecipeFamily, SocRecipe};

/// ≥20 SoCs × every registered scheduler, kept debug-test friendly:
/// small cores, one mesh, one budget, and the exact searches (`optimal`,
/// `optimal-par`, `portfolio`'s entrant) re-registered with tight
/// expansion budgets (same registry names, bounded search).
fn corpus_spec() -> CorpusSpec {
    CorpusSpec {
        seed: 0xC0FFEE,
        recipes: RecipeFamily::ALL.iter().map(|f| f.recipe(5)).collect(),
        socs_per_recipe: 4,
        meshes: vec![(3, 3)],
        processors: vec![Some(ProcessorAxis {
            family: "plasma".to_owned(),
            total: 2,
            reused: 2,
        })],
        faults: Vec::new(),
        budgets: vec![BudgetSpec::Fraction(0.8)],
        schedulers: Campaign::new().registry().names(),
        fidelity_patterns_cap: None,
    }
}

fn corpus_campaign() -> Campaign {
    let mut registry = SchedulerRegistry::with_defaults();
    registry.register(
        "optimal",
        std::sync::Arc::new(OptimalScheduler::new().with_max_expansions(Some(10_000))),
    );
    registry.register(
        "optimal-par",
        std::sync::Arc::new(
            ParallelOptimalScheduler::new()
                .with_threads(2)
                .with_max_expansions(Some(10_000)),
        ),
    );
    registry.register(
        "portfolio",
        std::sync::Arc::new(
            PortfolioScheduler::new()
                .with_threads(2)
                .with_max_expansions(Some(10_000)),
        ),
    );
    Campaign::with_registry(registry)
}

#[test]
fn every_scheduler_validates_over_twenty_generated_socs() {
    let spec = corpus_spec();
    assert!(spec.soc_count() >= 20);
    assert_eq!(
        spec.schedulers,
        vec![
            "greedy",
            "optimal",
            "optimal-par",
            "portfolio",
            "serial",
            "smart"
        ]
    );

    // Every request validates its schedule (`validate: true` is the
    // expansion default), so `all_valid` means `Schedule::validate`
    // passed on every outcome.
    let requests = spec.requests();
    assert!(requests.iter().all(|r| r.validate));

    let campaign = corpus_campaign();
    let report = spec.run(&campaign);
    assert!(
        report.all_valid(),
        "invalid schedules: {:#?}",
        report.failures
    );
    assert_eq!(report.scenario_count, spec.scenario_count());
    assert_eq!(report.soc_count, spec.soc_count());
    for summary in &report.schedulers {
        assert_eq!(summary.runs, report.group_count, "{}", summary.name);
        assert_eq!(summary.failures, 0, "{}", summary.name);
        assert!(summary.makespan.min > 0, "{}", summary.name);
    }

    // The serialized baseline can never lose a group; the (budgeted)
    // exact search can never lose to greedy within a group.
    let by_name = |name: &str| {
        report
            .schedulers
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from report"))
    };
    assert!(by_name("optimal").makespan.mean <= by_name("greedy").makespan.mean);
    // The parallel search and the portfolio are never worse than the
    // heuristics either (both are seeded by them).
    assert!(by_name("optimal-par").makespan.mean <= by_name("greedy").makespan.mean);
    assert!(by_name("portfolio").makespan.mean <= by_name("smart").makespan.mean);

    // The profile cache pays plasma/BIST characterisation once for the
    // whole corpus: every built system resolves a processor spec (a
    // group's schedulers share one system through the executor's build
    // memo), and at most one lookup of this run's delta may miss (zero
    // when an earlier run in this process already cached the key).
    let cache = report.measured.cache;
    assert_eq!(
        cache.lookups(),
        report.group_count as u64,
        "one profile lookup per built system"
    );
    assert!(cache.misses <= 1, "{} misses", cache.misses);
    assert!(cache.hits >= report.group_count as u64 - 1);

    // Throughput is reported (nonzero scenarios over nonzero time).
    assert!(report.measured.scenarios_per_second > 0.0);
    assert!(report.measured.elapsed_micros > 0);

    // Same spec, same seed: the deterministic section is byte-identical
    // on a second run (only the measured section may differ).
    let again = spec.run(&campaign);
    assert_eq!(report.deterministic_json(), again.deterministic_json());
    let text = report.deterministic_json();
    assert!(!text.contains("scenarios_per_second"));
}

#[test]
fn corpus_request_names_never_collide() {
    // Cross two deliberately identically-named recipes with identical
    // axes: per-SoC seeds plus the uniqueness pass must keep every
    // batch-result key distinct.
    let mut spec = corpus_spec();
    spec.recipes = vec![
        SocRecipe::d695_like(5).with_name("clash"),
        SocRecipe::d695_like(5).with_name("clash"),
    ];
    spec.schedulers = vec!["serial".to_owned(), "greedy".to_owned()];
    let names: Vec<String> = spec.requests().into_iter().map(|r| r.name).collect();
    let total = names.len();
    let mut dedup = names.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), total, "colliding request names: {names:?}");
}

#[test]
fn generated_soc_plans_like_any_benchmark() {
    // A generated SoC is a first-class citizen of the Campaign API: the
    // inline `.soc` source resolves, plans and reports end to end.
    let recipe = SocRecipe::one_giant_core(6);
    let text = recipe.generate_text(7);
    let request = noctest::PlanRequest {
        soc: noctest::core::plan::SocSource::SocText(text),
        ..noctest::PlanRequest::benchmark("d695", 3, 3)
    }
    .with_scheduler("greedy")
    .with_name("generated-giant");
    let outcome = Campaign::new().run(&request).expect("plans");
    assert_eq!(outcome.system, recipe.soc_name(7));
    assert!(outcome.makespan > 0);
    // The giant core dominates: the longest session carries most of the
    // makespan.
    let longest = outcome
        .sessions
        .iter()
        .map(|s| s.end - s.start)
        .max()
        .unwrap();
    assert!(longest * 2 > outcome.makespan);
}
