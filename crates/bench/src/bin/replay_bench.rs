//! `replay-bench` — the batched-vs-sequential fidelity replay benchmark.
//!
//! Plans a corpus fidelity sweep — the full generated corpus plus the
//! degraded-mesh smoke corpus, or trimmed smoke variants of both under
//! `--smoke` — without replaying, then replays the planned
//! (system, schedule) pairs two ways:
//!
//! * **sequential** — one schedule at a time through
//!   [`noctest_core::replay_schedule`], the path `plan-serve` takes;
//! * **batched** — every schedule through one [`ReplayBatch`], which
//!   simulates each distinct replay once and clones it for its twins.
//!
//! The measured section reports the **speedup** (sequential ÷ batched,
//! the gain from simulating each distinct replay once).
//!
//! `BENCH_replay.json` is written through the shared [`BenchArtifact`]:
//! `config` (mode, seed, cores) plus two sections:
//!
//! * `deterministic` — per-scenario FNV-1a digests of every replay
//!   result plus a combined digest, a pure function of the seed. The
//!   artifact runs the whole workload twice in-process and
//!   byte-compares the two sections, and `ci/bench_smoke.sh` repeats the
//!   check across processes on the stdout copy.
//! * `measured` — wall-clock sequential and batched replay times (the
//!   faster of two passes each, discarding host scheduling stalls) and
//!   their ratio, machine-dependent.
//!
//! Internal gates (exit 1): any batched result differing from its
//! sequential twin (the byte-identity wall), nondeterminism between
//! the two in-process runs, fewer than 2.5 pushed replays per distinct
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

use noctest_bench::artifact::{available_cores, BenchArgs, BenchArtifact, BenchRun};
use noctest_core::hashing::fnv1a;
use noctest_core::json::Json;
use noctest_core::{
    replay_schedule, ReplayBatch, Schedule, ScheduleReplay, SchedulerRegistry, SystemUnderTest,
};
use noctest_gen::CorpusSpec;
use noctest_noc::NocError;

/// The two corpora whose fidelity sweeps are replayed, trimmed in smoke
/// mode so the CI gate stays in seconds.
fn specs(args: &BenchArgs) -> Vec<(&'static str, CorpusSpec)> {
    if args.smoke {
        let mut smoke = CorpusSpec::smoke(args.seed);
        let mut degraded = CorpusSpec::degraded_smoke(args.seed);
        smoke.socs_per_recipe = 1;
        degraded.socs_per_recipe = 1;
        smoke.fidelity_patterns_cap = Some(2);
        degraded.fidelity_patterns_cap = Some(2);
        vec![("smoke", smoke), ("degraded", degraded)]
    } else {
        let mut full = CorpusSpec::full(args.seed);
        let mut degraded = CorpusSpec::degraded_smoke(args.seed);
        full.fidelity_patterns_cap = Some(2);
        degraded.fidelity_patterns_cap = Some(2);
        vec![("full", full), ("degraded", degraded)]
    }
}

/// One planned fidelity scenario, ready to replay.
struct Work {
    sys: SystemUnderTest,
    schedule: Schedule,
    patterns_cap: u32,
}

/// Plans one corpus on the caller's thread, stage by stage as
/// `Campaign::run` does but without replaying, and returns the number of
/// scenarios that failed to plan plus the replay work of the rest,
/// labelled by request name, in request order.
fn collect(spec: &CorpusSpec) -> (usize, Vec<(String, Work)>) {
    let registry = SchedulerRegistry::with_defaults();
    let mut failed = 0usize;
    let mut items = Vec::new();
    for request in spec.requests() {
        let planned = registry.get(&request.scheduler).and_then(|scheduler| {
            let sys = request.build_system()?;
            let schedule = scheduler.schedule_tuned(&sys, &request.search, None)?;
            if request.validate {
                schedule.validate(&sys)?;
            }
            Ok((sys, schedule))
        });
        match (planned, &request.fidelity) {
            (Ok((sys, schedule)), Some(fidelity)) => items.push((
                request.name,
                Work {
                    sys,
                    schedule,
                    patterns_cap: fidelity.patterns_cap,
                },
            )),
            (Ok(_), None) => {}
            (Err(_), _) => failed += 1,
        }
    }
    (failed, items)
}

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
    BenchArtifact {
        name: "replay-bench",
        out: "BENCH_replay.json",
        about: "replays the corpus fidelity sweep sequentially and through a ReplayBatch,\n\
                byte-checks the two, and writes BENCH_replay.json\n\
                (per-scenario digests + measured speedup, 2x gate)",
        threads: false,
    }
    .main(workload)
}

fn workload(args: &BenchArgs) -> BenchRun {
    // Plan both corpora without replaying; this is setup, not part of
    // any timed section.
    let mut items: Vec<(String, Work)> = Vec::new();
    let mut planned = 0usize;
    let mut plan_failed = 0usize;
    for (label, spec) in specs(args) {
        planned += spec.scenario_count();
        let (failed, work) = collect(&spec);
        plan_failed += failed;
        items.extend(
            work.into_iter()
                .map(|(name, item)| (format!("{label}/{name}"), item)),
        );
    }
    let mut failures = 0u32;
    if items.is_empty() {
        eprintln!("replay-bench: the corpora produced no replay work");
        failures += 1;
    }

    // Each path is timed over two full passes and the faster pass is
    // kept. Every path is deterministic, so the passes do identical work;
    // the minimum discards scheduling stalls the shared benchmark host
    // injects into a single pass, symmetrically for every ratio.
    let (sequential, sequential_micros) = timed_twice(|| {
        items
            .iter()
            .map(|(_, work)| replay_schedule(&work.sys, &work.schedule, work.patterns_cap))
            .collect::<Vec<_>>()
    });
    let assemble = || {
        let mut batch = ReplayBatch::new();
        for (_, work) in &items {
            batch.push(&work.sys, &work.schedule, work.patterns_cap);
        }
        batch
    };
    let pushed = items.len();
    let unique_replays = assemble().unique_replays();
    let (batched, batched_micros) = timed_twice(|| assemble().run());

    // The byte-identity wall: every batched result must equal its
    // sequential twin exactly (per-session fields included).
    for ((name, _), (seq, got)) in items.iter().zip(sequential.iter().zip(&batched)) {
        let identical = match (seq, got) {
            (Ok(a), Ok(b)) => a == b,
            (Err(a), Err(b)) => format!("{a:?}") == format!("{b:?}"),
            _ => false,
        };
        if !identical {
            eprintln!("replay-bench: batched replay diverges from sequential on `{name}`");
            failures += 1;
        }
    }

    // Per-result digests, and their fold: FNV-1a over the concatenated
    // little-endian digest bytes.
    let digests: Vec<u64> = batched
        .iter()
        .map(|r| fnv1a(render(r).as_bytes()))
        .collect();
    let combined = fnv1a(
        &digests
            .iter()
            .flat_map(|d| d.to_le_bytes())
            .collect::<Vec<u8>>(),
    );

    // The dedup gate is a pure function of the corpus: each distinct
    // simulation must stand for at least 2.5 pushed replays on average.
    if (pushed as f64) < 2.5 * unique_replays as f64 {
        eprintln!(
            "replay-bench: {pushed} pushed replays merge into {unique_replays} simulations, \
             below the 2.5x dedup gate"
        );
        failures += 1;
    }
    let speedup = ratio(sequential_micros, batched_micros);
    // The throughput gate applies to the full sweep (the committed
    // artefact): the smoke run exists to byte-check determinism in CI,
    // where wall-clock is deliberately never a gate.
    if !args.smoke && speedup < 2.0 {
        eprintln!(
            "replay-bench: batched speedup {speedup:.2}x is below the 2x gate \
             ({sequential_micros}us sequential vs {batched_micros}us batched)"
        );
        failures += 1;
    }

    let replay_errors = batched.iter().filter(|r| r.is_err()).count();
    BenchRun {
        config: Vec::new(),
        deterministic: Json::obj(vec![
            (
                "config",
                Json::obj(vec![
                    ("mode", Json::str(if args.smoke { "smoke" } else { "full" })),
                    ("seed", Json::int(args.seed)),
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
        ]),
        measured: Json::obj(vec![
            ("sequential_micros", Json::int(sequential_micros)),
            ("batched_micros", Json::int(batched_micros)),
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
        failures,
        summary: format!(
            "{pushed} replays ({unique_replays} unique) on {} core(s): \
             {sequential_micros}us sequential, {batched_micros}us batched ({speedup:.2}x)",
            available_cores()
        ),
    }
}

/// Runs `pass` twice and returns the first result with the faster of the
/// two wall times, in microseconds.
fn timed_twice<T>(pass: impl Fn() -> T) -> (T, u64) {
    let start = Instant::now();
    let first = pass();
    let first_micros = start.elapsed().as_micros() as u64;
    let start = Instant::now();
    let second = pass();
    let micros = first_micros.min(start.elapsed().as_micros() as u64);
    drop(second);
    (first, micros)
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}
