//! `replay-bench` — the batched-vs-sequential fidelity replay benchmark.
//!
//! Plans a corpus fidelity sweep — the full generated corpus plus the
//! degraded-mesh smoke corpus, or trimmed smoke variants of both under
//! `--smoke` — with replay work *deferred*, then drains the collected
//! (system, schedule) pairs three ways, all on the live engine:
//!
//! * **sequential** — one schedule at a time through
//!   [`noctest_core::replay_schedule`], the path `plan-serve` takes;
//! * **1-lane** — every schedule through one [`ReplayBatch`] capped at a
//!   single lane, so identical replays are merged but nothing runs
//!   lane-parallel;
//! * **batched** — the same [`ReplayBatch`] at `--lanes` lanes (grouped
//!   by mesh and fault class, one `BatchNetwork` per chunk).
//!
//! The measured section reports the two factors separately: the
//! **dedup factor** (sequential ÷ 1-lane, the gain from simulating each
//! distinct replay once) and the **lane factor** (1-lane ÷ batched, the
//! gain from lanes), with the machine's core count beside them.
//!
//! `BENCH_replay.json` carries two sections:
//!
//! * `deterministic` — per-scenario FNV-1a digests of every replay
//!   result plus a combined digest, a pure function of the seed. The
//!   binary batches **twice** and gates on digest equality, and
//!   `ci/bench_smoke.sh` repeats the byte-check across processes. The
//!   section is printed alone on stdout.
//! * `measured` — wall-clock sequential, 1-lane and batched replay times
//!   (the faster of two passes each, discarding host scheduling stalls),
//!   the two factors and the overall speedup, machine-dependent.
//!
//! Internal gates (exit 1): any 1-lane or batched result differing from
//! its sequential twin (the byte-identity wall), nondeterminism between
//! the two batched runs, fewer than 2.5 pushed replays per distinct
//! simulation (deterministic), and — in full mode only, where the
//! committed artefact is produced — a batched-vs-sequential speedup
//! below 2x. Usage errors exit 2.
//!
//! ```text
//! cargo run --release -p noctest-bench --bin replay-bench -- --smoke
//! cargo run --release -p noctest-bench --bin replay-bench            # full + 2x gate
//! ```

use std::process::ExitCode;
use std::time::Instant;

use noctest_core::json::Json;
use noctest_core::plan::exec::{Executor, JobResult};
use noctest_core::plan::DeferredFidelity;
use noctest_core::{replay_schedule, ReplayBatch, ScheduleReplay};
use noctest_gen::CorpusSpec;
use noctest_noc::NocError;

#[derive(Debug, Clone)]
struct Config {
    smoke: bool,
    seed: u64,
    lanes: usize,
    out: String,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            smoke: false,
            seed: 2005,
            lanes: 32,
            out: "BENCH_replay.json".to_owned(),
        }
    }
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
            "--lanes" => {
                config.lanes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .ok_or("--lanes needs a positive integer")?;
            }
            "--out" => {
                config.out = args.next().ok_or("--out needs a path")?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: replay-bench [--smoke] [--seed S] [--lanes N] [--out PATH]\n\
                     replays the corpus fidelity sweep sequentially, through a 1-lane and an\n\
                     N-lane ReplayBatch, byte-checks all three, and writes BENCH_replay.json\n\
                     (per-scenario digests + measured dedup and lane factors, 2x gate)"
                );
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(config))
}

/// The two corpora whose fidelity sweeps are replayed, trimmed in smoke
/// mode so the CI gate stays in seconds.
fn specs(config: &Config) -> Vec<(&'static str, CorpusSpec)> {
    if config.smoke {
        let mut smoke = CorpusSpec::smoke(config.seed);
        let mut degraded = CorpusSpec::degraded_smoke(config.seed);
        smoke.socs_per_recipe = 1;
        degraded.socs_per_recipe = 1;
        smoke.fidelity_patterns_cap = Some(2);
        degraded.fidelity_patterns_cap = Some(2);
        vec![("smoke", smoke), ("degraded", degraded)]
    } else {
        let mut full = CorpusSpec::full(config.seed);
        let mut degraded = CorpusSpec::degraded_smoke(config.seed);
        full.fidelity_patterns_cap = Some(2);
        degraded.fidelity_patterns_cap = Some(2);
        vec![("full", full), ("degraded", degraded)]
    }
}

/// Plans one corpus with replay deferred and returns the collected work,
/// labelled by request name, in deterministic submission order.
fn collect(spec: &CorpusSpec) -> Result<(usize, Vec<(String, DeferredFidelity)>), String> {
    let requests = spec.requests();
    let executor = Executor::builder().defer_fidelity(true).build();
    let handles: Vec<_> = requests
        .iter()
        .map(|r| executor.submit(r.clone()))
        .collect();
    executor.join();
    let mut failed = 0usize;
    for handle in &handles {
        match handle.wait() {
            JobResult::Completed(_) => {}
            JobResult::Failed(_) => failed += 1,
            JobResult::Cancelled => return Err("a corpus job was cancelled".to_owned()),
        }
    }
    let first_id = handles.first().map_or(1, |h| h.id().0);
    let items = executor
        .take_deferred_fidelity()
        .into_iter()
        .map(|(job, work)| {
            let index = (job.0 - first_id) as usize;
            (requests[index].name.clone(), work)
        })
        .collect();
    Ok((failed, items))
}

/// FNV-1a, 64-bit: the digest primitive for the deterministic section.
fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut hash = seed;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Canonical byte rendering of one replay result. Every field is an
/// integer or a label, so the digest is byte-stable across platforms.
fn render(result: &Result<ScheduleReplay, NocError>) -> String {
    match result {
        Ok(replay) => {
            let mut s = format!(
                "cap={};analytic={};simulated={}",
                replay.patterns_cap, replay.analytic_makespan, replay.simulated_makespan
            );
            for session in &replay.sessions {
                s.push_str(&format!(
                    ";{}@{}+{}x{}:{}~{}",
                    session.cut,
                    session.interface,
                    session.start,
                    session.packets,
                    session.analytic_cycles,
                    session.simulated_cycles
                ));
            }
            s
        }
        Err(error) => format!("error={error:?}"),
    }
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(Some(config)) => config,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("replay-bench: {message}");
            return ExitCode::from(2);
        }
    };

    // Plan both corpora with replay deferred; this is setup, not part of
    // either timed section.
    let mut items: Vec<(String, DeferredFidelity)> = Vec::new();
    let mut planned = 0usize;
    let mut plan_failed = 0usize;
    for (label, spec) in specs(&config) {
        planned += spec.scenario_count();
        match collect(&spec) {
            Ok((failed, mut work)) => {
                plan_failed += failed;
                for (name, item) in work.drain(..) {
                    items.push((format!("{label}/{name}"), item));
                }
            }
            Err(message) => {
                eprintln!("replay-bench: planning the {label} corpus failed: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    if items.is_empty() {
        eprintln!("replay-bench: the corpora deferred no replay work");
        return ExitCode::FAILURE;
    }

    // Each path is timed over two full passes and the faster pass is
    // kept. Every path is deterministic, so the passes do identical work;
    // the minimum discards scheduling stalls the shared benchmark host
    // injects into a single pass, symmetrically for every ratio.
    let (sequential, _, sequential_micros) = timed_twice(|| {
        items
            .iter()
            .map(|(_, work)| replay_schedule(&work.sys, &work.schedule, work.patterns_cap))
            .collect::<Vec<_>>()
    });
    let assemble = |lanes: usize| {
        let mut batch = ReplayBatch::with_max_lanes(lanes);
        for (_, work) in &items {
            batch.push(&work.sys, &work.schedule, work.patterns_cap);
        }
        batch
    };
    let pushed = items.len();
    let unique_replays = assemble(config.lanes).unique_replays();
    let (one_lane, _, one_lane_micros) = timed_twice(|| assemble(1).run());
    let (batched, rerun, batched_micros) = timed_twice(|| assemble(config.lanes).run());
    let mut failures = 0u32;

    // The byte-identity wall: every 1-lane and batched result must equal
    // its sequential twin exactly (per-session fields included).
    for (path, results) in [("1-lane", &one_lane), ("batched", &batched)] {
        for ((name, _), (seq, got)) in items.iter().zip(sequential.iter().zip(results)) {
            let identical = match (seq, got) {
                (Ok(a), Ok(b)) => a == b,
                (Err(a), Err(b)) => format!("{a:?}") == format!("{b:?}"),
                _ => false,
            };
            if !identical {
                eprintln!("replay-bench: {path} replay diverges from sequential on `{name}`");
                failures += 1;
            }
        }
    }

    // Determinism: the second batched pass must reproduce every digest.
    let digests: Vec<u64> = batched
        .iter()
        .map(|r| fnv1a(render(r).as_bytes(), FNV_OFFSET))
        .collect();
    let rerun_digests: Vec<u64> = rerun
        .iter()
        .map(|r| fnv1a(render(r).as_bytes(), FNV_OFFSET))
        .collect();
    if digests != rerun_digests {
        eprintln!("replay-bench: two batched runs disagree — the batch path is nondeterministic");
        failures += 1;
    }
    let combined = digests
        .iter()
        .fold(FNV_OFFSET, |acc, d| fnv1a(&d.to_le_bytes(), acc));

    // The dedup gate is a pure function of the corpus: each distinct
    // simulation must stand for at least 2.5 pushed replays on average.
    if (pushed as f64) < 2.5 * unique_replays as f64 {
        eprintln!(
            "replay-bench: {pushed} pushed replays merge into {unique_replays} simulations, \
             below the 2.5x dedup gate"
        );
        failures += 1;
    }
    let dedup_factor = ratio(sequential_micros, one_lane_micros);
    let lane_factor = ratio(one_lane_micros, batched_micros);
    let speedup = ratio(sequential_micros, batched_micros);
    // The throughput gate applies to the full sweep (the committed
    // artefact): the smoke run exists to byte-check determinism in CI,
    // where wall-clock is deliberately never a gate.
    if !config.smoke && speedup < 2.0 {
        eprintln!(
            "replay-bench: batched speedup {speedup:.2}x is below the 2x gate \
             ({sequential_micros}us sequential vs {batched_micros}us batched)"
        );
        failures += 1;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let replay_errors = batched.iter().filter(|r| r.is_err()).count();
    let deterministic = Json::obj(vec![
        (
            "config",
            Json::obj(vec![
                (
                    "mode",
                    Json::str(if config.smoke { "smoke" } else { "full" }),
                ),
                ("seed", Json::int(config.seed)),
                ("lanes", Json::int(config.lanes as u64)),
            ]),
        ),
        (
            "scenarios",
            Json::obj(vec![
                ("planned", Json::int(planned as u64)),
                ("plan_failed", Json::int(plan_failed as u64)),
                ("replayed", Json::int(items.len() as u64)),
                ("unique_replays", Json::int(unique_replays as u64)),
                ("replay_errors", Json::int(replay_errors as u64)),
            ]),
        ),
        ("combined_digest", Json::str(format!("{combined:016x}"))),
        (
            "digests",
            Json::Arr(
                items
                    .iter()
                    .zip(&digests)
                    .map(|((name, _), digest)| {
                        Json::obj(vec![
                            ("request", Json::str(name.clone())),
                            ("digest", Json::str(format!("{digest:016x}"))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let out = Json::obj(vec![
        ("deterministic", deterministic.clone()),
        (
            "measured",
            Json::obj(vec![
                ("cores", Json::int(cores as u64)),
                ("sequential_micros", Json::int(sequential_micros)),
                ("one_lane_micros", Json::int(one_lane_micros)),
                ("batched_micros", Json::int(batched_micros)),
                ("dedup_factor", Json::Num(dedup_factor)),
                ("lane_factor", Json::Num(lane_factor)),
                ("speedup", Json::Num(speedup)),
                (
                    "sequential_scenarios_per_second",
                    Json::Num(ratio(pushed as u64 * 1_000_000, sequential_micros)),
                ),
                (
                    "batched_scenarios_per_second",
                    Json::Num(ratio(pushed as u64 * 1_000_000, batched_micros)),
                ),
            ]),
        ),
    ]);
    if let Err(error) = std::fs::write(&config.out, format!("{}\n", out.pretty())) {
        eprintln!("replay-bench: cannot write {}: {error}", config.out);
        return ExitCode::FAILURE;
    }

    // Stdout carries the deterministic section alone, as one compact
    // line: the smoke script runs the binary twice and byte-compares.
    println!("{}", deterministic.compact());
    eprintln!(
        "replay-bench: {pushed} replays ({unique_replays} unique) on {cores} core(s): \
         {sequential_micros}us sequential, {one_lane_micros}us 1-lane, \
         {batched_micros}us {} lanes (dedup {dedup_factor:.2}x, lanes {lane_factor:.2}x, \
         overall {speedup:.2}x) -> {}",
        config.lanes, config.out
    );
    if failures > 0 {
        eprintln!("replay-bench: {failures} gate failure(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Runs `pass` twice and returns both results with the faster of the two
/// wall times, in microseconds.
fn timed_twice<T>(pass: impl Fn() -> T) -> (T, T, u64) {
    let start = Instant::now();
    let first = pass();
    let first_micros = start.elapsed().as_micros() as u64;
    let start = Instant::now();
    let second = pass();
    let micros = first_micros.min(start.elapsed().as_micros() as u64);
    (first, second, micros)
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}
