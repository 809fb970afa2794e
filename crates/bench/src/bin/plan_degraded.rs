//! `plan-degraded` — the degraded-mesh planning benchmark.
//!
//! Runs the fault-axis corpus ([`CorpusSpec::degraded_smoke`]-shaped):
//! every generated SoC planned healthy and under uniform link failures,
//! a dead-router cluster, and the column cut that severs the mesh, then
//! writes `BENCH_degraded.json` through the shared [`BenchArtifact`]:
//! `config` (mode, seed, cores, scenarios) plus two sections:
//!
//! * `deterministic` — per-scheduler makespan inflation vs fault rate
//!   (the `fault_axis` section), win rates and the typed failures.
//!   Everything is a pure function of the seed: the artifact runs the
//!   corpus twice in-process and byte-compares the two sections, and
//!   `ci/bench_smoke.sh` repeats the check across processes on the
//!   stdout copy.
//! * `measured` — wall-clock throughput and profile-cache counters,
//!   machine-dependent and never part of any gate.
//!
//! Internal gates (exit 1): no unreachable-core instance in the corpus
//! (the severed-mesh path went unexercised), an unreachable core that
//! surfaced as anything but a typed error, a negative mean *serial*
//! makespan inflation (a detour "shortened" a session — concurrent
//! schedulers are exempt, since detoured routes change link-conflict
//! structure and can legitimately repack better), a healthy-baseline
//! failure, or nondeterminism between the two in-process runs. Usage
//! errors exit 2.
//!
//! ```text
//! cargo run --release -p noctest-bench --bin plan-degraded -- --smoke
//! cargo run --release -p noctest-bench --bin plan-degraded           # full sweep
//! ```

use std::process::ExitCode;

use noctest_bench::artifact::{BenchArgs, BenchArtifact, BenchRun};
use noctest_core::json::Json;
use noctest_core::plan::Campaign;
use noctest_gen::{CorpusReport, CorpusSpec};

fn spec(args: &BenchArgs) -> CorpusSpec {
    let mut spec = CorpusSpec::degraded_smoke(args.seed);
    if !args.smoke {
        // The full sweep doubles the population and adds a 4x4 mesh; the
        // fault axis itself is the same five-point ramp.
        spec.socs_per_recipe = 4;
        spec.meshes = vec![(3, 3), (4, 4)];
    }
    spec
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
    BenchArtifact {
        name: "plan-degraded",
        out: "BENCH_degraded.json",
        about: "plans the fault-axis corpus (healthy vs degraded meshes) and writes\n\
                BENCH_degraded.json (makespan inflation vs fault rate + typed failures)",
        threads: false,
    }
    .main(workload)
}

fn workload(args: &BenchArgs) -> BenchRun {
    let spec = spec(args);
    let report = spec.run(&Campaign::new());
    BenchRun {
        config: vec![("scenarios", Json::int(spec.scenario_count() as u64))],
        deterministic: Json::parse(&report.deterministic_json()).expect("reports emit valid JSON"),
        measured: report
            .to_json()
            .get("measured")
            .cloned()
            .expect("reports carry a measured section"),
        failures: check_gates(&report),
        summary: format!(
            "{} scenarios, {} typed failures ({} unreachable)",
            report.scenario_count,
            report.failures.len(),
            report
                .failures
                .iter()
                .filter(|f| f.error.contains("unreachable"))
                .count()
        ),
    }
}
