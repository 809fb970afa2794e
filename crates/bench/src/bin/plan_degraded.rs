//! `plan-degraded` — the degraded-mesh planning benchmark.
//!
//! Runs the fault-axis corpus ([`CorpusSpec::degraded_smoke`]-shaped):
//! every generated SoC planned healthy and under uniform link failures,
//! a dead-router cluster, and the column cut that severs the mesh, then
//! writes `BENCH_degraded.json` with two sections:
//!
//! * `report.…deterministic` — per-scheduler makespan inflation vs fault
//!   rate (the `fault_axis` section), win rates and the typed failures.
//!   Everything is a pure function of the seed: the binary runs the
//!   corpus **twice** and gates on the two deterministic sections being
//!   byte-identical, and `ci/bench_smoke.sh` repeats the check
//!   across processes. The section is printed alone on stdout.
//! * `report.measured` — wall-clock throughput and profile-cache
//!   counters, machine-dependent and never part of any gate.
//!
//! Internal gates (exit 1): no unreachable-core instance in the corpus
//! (the severed-mesh path went unexercised), an unreachable core that
//! surfaced as anything but a typed error, a negative mean *serial*
//! makespan inflation (a detour "shortened" a session — concurrent
//! schedulers are exempt, since detoured routes change link-conflict
//! structure and can legitimately repack better), a healthy-baseline
//! failure, or nondeterminism between the two runs. Usage errors exit 2.
//!
//! ```text
//! cargo run --release -p noctest-bench --bin plan-degraded -- --smoke
//! cargo run --release -p noctest-bench --bin plan-degraded           # full sweep
//! ```

use std::process::ExitCode;

use noctest_core::json::Json;
use noctest_core::plan::Campaign;
use noctest_gen::{CorpusReport, CorpusSpec};

#[derive(Debug, Clone)]
struct Config {
    smoke: bool,
    seed: u64,
    out: String,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            smoke: false,
            seed: 2005,
            out: "BENCH_degraded.json".to_owned(),
        }
    }
}

fn spec(config: &Config) -> CorpusSpec {
    let mut spec = CorpusSpec::degraded_smoke(config.seed);
    if !config.smoke {
        // The full sweep doubles the population and adds a 4x4 mesh; the
        // fault axis itself is the same five-point ramp.
        spec.socs_per_recipe = 4;
        spec.meshes = vec![(3, 3), (4, 4)];
    }
    spec
}

fn parse_args() -> Result<Option<Config>, String> {
    let mut config = Config::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => config.smoke = true,
            "--seed" => {
                config.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an unsigned integer")?;
            }
            "--out" => {
                config.out = args.next().ok_or("--out needs a path")?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: plan-degraded [--smoke] [--seed S] [--out PATH]\n\
                     plans the fault-axis corpus (healthy vs degraded meshes) and writes\n\
                     BENCH_degraded.json (makespan inflation vs fault rate + typed failures)"
                );
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(config))
}

/// Every gate over the deterministic section; returns the failure count.
fn check_gates(report: &CorpusReport) -> u32 {
    let mut failures = 0u32;

    // The severed column cut must produce at least one unreachable-core
    // instance, and every failure in the corpus must be a typed planning
    // error (reaching this point at all already rules out panics).
    let unreachable = report
        .failures
        .iter()
        .filter(|f| f.error.contains("unreachable"))
        .count();
    if unreachable == 0 {
        eprintln!(
            "plan-degraded: no unreachable-core instance — the severed-mesh path went unexercised"
        );
        failures += 1;
    }

    let Some(colcut) = report.fault_axis.iter().find(|f| f.label == "colcut") else {
        eprintln!("plan-degraded: the column-cut axis value is missing from the report");
        return failures + 1;
    };
    for s in &colcut.schedulers {
        if s.failures != s.runs {
            eprintln!(
                "plan-degraded: {} planned {} of {} scenarios on the severed mesh — \
                 an unreachable core was not rejected",
                s.name,
                s.runs - s.failures,
                s.runs
            );
            failures += 1;
        }
    }

    // Detours never shorten routes, so the *serial* makespan — a pure sum
    // of session cycles — is monotone in the fault set. The concurrent
    // schedulers are exempt: detoured routes occupy different links than
    // XY, so conflict structure (and therefore packing) can genuinely
    // improve on a degraded mesh.
    for axis in &report.fault_axis {
        for s in axis.schedulers.iter().filter(|s| s.name == "serial") {
            if s.paired > 0 && s.mean_inflation_percent < -1e-9 {
                eprintln!(
                    "plan-degraded: serial mean inflation {}% under `{}` is negative — \
                     a detour shortened a session",
                    s.mean_inflation_percent, axis.label
                );
                failures += 1;
            }
        }
    }

    // The healthy baseline must plan everything it is given.
    if let Some(none) = report.fault_axis.iter().find(|f| f.label == "none") {
        for s in &none.schedulers {
            if s.failures > 0 {
                eprintln!(
                    "plan-degraded: {} failed {} healthy scenarios — degradation is not the cause",
                    s.name, s.failures
                );
                failures += 1;
            }
        }
    } else {
        eprintln!("plan-degraded: the healthy baseline is missing from the report");
        failures += 1;
    }
    failures
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(Some(config)) => config,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("plan-degraded: {message}");
            return ExitCode::from(2);
        }
    };

    let spec = spec(&config);
    let campaign = Campaign::new();
    let report = spec.run(&campaign);
    let mut failures = check_gates(&report);

    // In-process determinism: the same spec re-run must reproduce the
    // deterministic section byte for byte (the CI smoke then repeats the
    // comparison across two processes).
    let rerun = spec.run(&campaign);
    if report.deterministic_json() != rerun.deterministic_json() {
        eprintln!("plan-degraded: two runs of the same spec disagree in the deterministic section");
        failures += 1;
    }

    let full = Json::parse(&report.to_json_string()).expect("reports emit valid JSON");
    let out = Json::obj(vec![
        (
            "config",
            Json::obj(vec![
                (
                    "mode",
                    Json::str(if config.smoke { "smoke" } else { "full" }),
                ),
                ("seed", Json::int(config.seed)),
                ("scenarios", Json::int(spec.scenario_count() as u64)),
            ]),
        ),
        ("report", full),
    ]);
    if let Err(error) = std::fs::write(&config.out, format!("{}\n", out.pretty())) {
        eprintln!("plan-degraded: cannot write {}: {error}", config.out);
        return ExitCode::FAILURE;
    }

    // Stdout carries the deterministic section alone, as one compact
    // line: the smoke script runs the binary twice and byte-compares.
    let det = Json::parse(&report.deterministic_json()).expect("reports emit valid JSON");
    println!("{}", det.compact());
    eprint!("{}", report.table());
    eprintln!(
        "plan-degraded: {} scenarios, {} typed failures ({} unreachable) -> {}",
        report.scenario_count,
        report.failures.len(),
        report
            .failures
            .iter()
            .filter(|f| f.error.contains("unreachable"))
            .count(),
        config.out
    );
    if failures > 0 {
        eprintln!("plan-degraded: {failures} gate failure(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
