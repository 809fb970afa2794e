//! `search-bench` — the parallel branch-and-bound benchmark.
//!
//! Runs the serial `optimal` search and the work-stealing `optimal-par`
//! search over a deterministic population of generated SoCs and writes
//! `BENCH_search.json` through the shared [`BenchArtifact`]: `config`
//! (mode, seed, cores, `measured_threads`) plus two sections:
//!
//! * `deterministic` — per-instance makespans, expansion counts,
//!   proved/exhausted flags and FNV-1a schedule digests at a **pinned**
//!   thread count (2). Everything in this section is a pure function of
//!   the seed: the artifact runs the workload twice in-process and
//!   byte-compares the two sections, and `ci/bench_smoke.sh` repeats the
//!   check across processes on the stdout copy.
//! * `measured` — wall-clock micros for the serial and parallel searches
//!   on the budget-limited instances at `--threads N` (default: the
//!   machine's parallelism), the per-instance speedup and the mean
//!   against the `cores/2` target. Each search is timed alike, as the
//!   faster of two identical passes ([`timed_twice`]). Timings are
//!   machine-dependent by nature and are never part of the smoke gate.
//!
//! Internal gates (exit 1): a within-budget parallel schedule that is
//! not byte-identical to the serial one, fewer than half the small
//! instances proving optimality, a parallel incumbent worse than a
//! proved serial optimum, a budget-exhausted run whose digest differs
//! between the two in-process runs, and — in full mode only — a mean
//! speedup below `cores/2`. Usage errors exit 2.
//!
//! ```text
//! cargo run --release -p noctest-bench --bin search-bench -- --smoke
//! cargo run --release -p noctest-bench --bin search-bench            # full sweep
//! ```

use std::process::ExitCode;

use noctest_bench::artifact::{available_cores, BenchArgs, BenchArtifact, BenchRun};
use noctest_bench::harness::timed_twice;
use noctest_bench::schedule_digest;
use noctest_core::json::Json;
use noctest_core::plan::{PlanRequest, SocSource};
use noctest_core::{OptimalScheduler, ParallelOptimalScheduler, SearchTuning, SystemUnderTest};
use noctest_gen::RecipeFamily;

/// Thread count for the `deterministic` section: pinned so the section
/// depends only on the seed, and > 1 so the sharded search machinery
/// (frontier split, rounds, stealing) is actually exercised.
const DETERMINISTIC_THREADS: usize = 2;

/// One benchmark instance: a generated SoC plus the budget it runs
/// under.
struct Instance {
    name: String,
    sys: SystemUnderTest,
    budget: u64,
}

/// Builds the deterministic instance population. `cores` counts CUTs
/// only; two plasma processors ride along, so the search sees
/// `cores + 2` cuts.
fn instances(base_seed: u64, count: usize, cores: u32, budget: u64) -> Vec<Instance> {
    (0..count as u64)
        .map(|i| {
            let seed = base_seed.wrapping_add(i);
            let family = RecipeFamily::ALL[(seed as usize) % RecipeFamily::ALL.len()];
            let text = family
                .recipe(cores)
                .generate_text(seed.wrapping_mul(7919).wrapping_add(13));
            let mesh = if cores > 6 { 4 } else { 3 };
            let request = PlanRequest {
                soc: SocSource::SocText(text),
                ..PlanRequest::benchmark("bench", mesh, mesh)
            }
            .with_processors("plasma", 2, 2);
            Instance {
                name: format!("{}-{cores}c-s{seed}", family.slug()),
                sys: request.build_system().expect("generated system builds"),
                budget,
            }
        })
        .collect()
}

struct Run {
    makespan: u64,
    expansions: u64,
    exact: bool,
    digest: String,
}

fn run_serial(instance: &Instance) -> Run {
    let (schedule, stats) = OptimalScheduler::new()
        .with_max_expansions(Some(instance.budget))
        .schedule_with_stats(&instance.sys, &SearchTuning::default(), None)
        .expect("serial search succeeds");
    Run {
        makespan: schedule.makespan(),
        expansions: stats.expansions,
        exact: stats.proved_optimal(),
        digest: schedule_digest(&schedule),
    }
}

fn run_parallel(instance: &Instance, threads: usize) -> Run {
    let (schedule, stats) = ParallelOptimalScheduler::new()
        .with_threads(threads)
        .with_max_expansions(Some(instance.budget))
        .schedule_with_stats(&instance.sys, &SearchTuning::default(), None)
        .expect("parallel search succeeds");
    Run {
        makespan: schedule.makespan(),
        expansions: stats.expansions,
        exact: stats.proved_optimal(),
        digest: schedule_digest(&schedule),
    }
}

fn instance_json(instance: &Instance, serial: &Run, parallel: &Run, identical: bool) -> Json {
    Json::obj(vec![
        ("name", Json::str(instance.name.clone())),
        ("budget", Json::int(instance.budget)),
        (
            "serial",
            Json::obj(vec![
                ("makespan", Json::int(serial.makespan)),
                ("expansions", Json::int(serial.expansions)),
                ("exact", Json::Bool(serial.exact)),
                ("digest", Json::str(serial.digest.clone())),
            ]),
        ),
        (
            "parallel",
            Json::obj(vec![
                ("makespan", Json::int(parallel.makespan)),
                ("expansions", Json::int(parallel.expansions)),
                ("exact", Json::Bool(parallel.exact)),
                ("digest", Json::str(parallel.digest.clone())),
            ]),
        ),
        ("identical", Json::Bool(identical)),
    ])
}

fn main() -> ExitCode {
    BenchArtifact {
        name: "search-bench",
        out: "BENCH_search.json",
        about: "benchmarks the serial vs work-stealing branch-and-bound and writes\n\
                BENCH_search.json (deterministic digests + wall-clock speedups)",
        threads: true,
    }
    .main(workload)
}

fn workload(args: &BenchArgs) -> BenchRun {
    // Two populations: small instances the exact search finishes within
    // budget (the byte-identity gate), and larger budget-limited ones
    // (the anytime gate and the timing corpus).
    let (exact_set, limited_set) = if args.smoke {
        (
            instances(args.seed, 10, 5, 150_000),
            instances(args.seed ^ 0x5ea7c4, 6, 8, 20_000),
        )
    } else {
        (
            instances(args.seed, 12, 5, 500_000),
            instances(args.seed ^ 0x5ea7c4, 8, 8, 1_500_000),
        )
    };
    let cores = available_cores();
    let measured_threads = args.threads.unwrap_or(cores);

    let mut failures = 0u32;
    let mut det_instances = Vec::new();
    let mut exact_pairs = 0usize;

    // Byte-identity: wherever both searches prove optimality within
    // budget, the parallel schedule must equal the serial one.
    for instance in &exact_set {
        let serial = run_serial(instance);
        let parallel = run_parallel(instance, DETERMINISTIC_THREADS);
        let identical = serial.digest == parallel.digest;
        if serial.exact && parallel.exact {
            exact_pairs += 1;
            if !identical {
                eprintln!(
                    "search-bench: {}: within-budget parallel schedule differs from serial \
                     ({} vs {})",
                    instance.name, parallel.digest, serial.digest
                );
                failures += 1;
            }
        }
        det_instances.push(instance_json(instance, &serial, &parallel, identical));
    }
    if exact_pairs < exact_set.len() / 2 {
        eprintln!(
            "search-bench: only {exact_pairs}/{} instances proved optimal within budget — \
             the byte-identity gate is starved",
            exact_set.len()
        );
        failures += 1;
    }

    // Anytime + timing: budget-limited instances. The pinned-thread run's
    // digest lands in the deterministic section, so the artifact's two
    // in-process runs check that an exhausted search reproduces itself.
    let mut measured = Vec::new();
    let mut speedups = Vec::new();
    for instance in &limited_set {
        let (serial, serial_micros) = timed_twice(|| run_serial(instance));
        let (parallel, parallel_micros) = timed_twice(|| run_parallel(instance, measured_threads));
        let det = run_parallel(instance, DETERMINISTIC_THREADS);
        if parallel.makespan > serial.makespan && serial.exact {
            eprintln!(
                "search-bench: {}: parallel incumbent {} worse than proved optimum {}",
                instance.name, parallel.makespan, serial.makespan
            );
            failures += 1;
        }
        let speedup = serial_micros as f64 / parallel_micros.max(1) as f64;
        speedups.push(speedup);
        measured.push(Json::obj(vec![
            ("name", Json::str(instance.name.clone())),
            ("serial_wall_micros", Json::int(serial_micros)),
            ("parallel_wall_micros", Json::int(parallel_micros)),
            ("speedup", Json::Num(speedup)),
            ("serial_expansions", Json::int(serial.expansions)),
            ("parallel_expansions", Json::int(parallel.expansions)),
        ]));
        det_instances.push(instance_json(
            instance,
            &serial,
            &det,
            det.digest == serial.digest,
        ));
    }
    let mean_speedup = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
    let target = cores as f64 / 2.0;
    // The speedup target is a full-mode gate only: smoke never fails on
    // machine-dependent timings.
    if !args.smoke && mean_speedup < target {
        eprintln!(
            "search-bench: mean speedup {mean_speedup:.2} misses the cores/2 target {target:.1}"
        );
        failures += 1;
    }

    BenchRun {
        config: vec![("measured_threads", Json::int(measured_threads as u64))],
        deterministic: Json::obj(vec![
            ("seed", Json::int(args.seed)),
            ("threads", Json::int(DETERMINISTIC_THREADS as u64)),
            ("instances", Json::Arr(det_instances)),
        ]),
        measured: Json::obj(vec![
            ("instances", Json::Arr(measured)),
            ("mean_speedup", Json::Num(mean_speedup)),
            ("speedup_target", Json::Num(target)),
            ("meets_target", Json::Bool(mean_speedup >= target)),
        ]),
        failures,
        summary: format!(
            "{} exact + {} limited instances, mean speedup {mean_speedup:.2} \
             (target {target:.1} on {cores} cores)",
            exact_set.len(),
            limited_set.len()
        ),
    }
}
