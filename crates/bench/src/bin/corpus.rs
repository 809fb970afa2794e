//! Generated-corpus scheduler stress: expand a deterministic population
//! of synthetic SoCs (`noctest-gen`), cross it with mesh / processor /
//! budget / scheduler axes, stream everything through the job executor
//! and report per-scheduler win rates, distributions, throughput and
//! profile-cache hit/miss figures.
//!
//! Modes:
//!
//! * `--smoke` — the CI gate: 20 small SoCs × 2 budgets × every
//!   default-registry scheduler (240 scenarios, fidelity replay on). The
//!   corpus is executed **twice** and the run fails unless the two
//!   deterministic report sections are byte-identical and every scenario
//!   produced a valid schedule.
//! * `--full` — the paper-style sweep: 40 mid-size SoCs × 2 meshes × 3
//!   processor complements × 3 budgets × serial/greedy/smart (2160
//!   scenarios, single pass).
//!
//! `--seed N` reseeds the population (default 2005, the paper's year);
//! `--json` prints the full `CorpusReport` JSON instead of the table;
//! `--threads N` pins the worker pool; `--events PATH` writes the
//! executor's NDJSON lifecycle stream (one line per event) to a file;
//! `--abort-on-failure` cancels every remaining scenario as soon as one
//! fails. Live progress goes to stderr as scenarios complete, and so do
//! the first run's shared-work counts: `fidelity replays: N sessions
//! simulated, M shared; F whole-schedule fallbacks` (each distinct
//! session is replayed solo once; a schedule whose sessions could
//! interfere replays whole) and `builds: N systems built, M shared; P
//! SoCs parsed`.
//! Exit status: 0 on success, 1 on invalid schedules or a
//! non-reproducible report, 2 on usage errors.

use std::process::ExitCode;
use std::sync::Arc;

use noctest_bench::{ndjson_file_sink, parse_threads_value};
use noctest_core::plan::exec::EventSink;
use noctest_core::plan::Campaign;
use noctest_gen::{CorpusRun, CorpusSpec, StreamOptions};

const DEFAULT_SEED: u64 = 2005;

fn run_with_progress(spec: &CorpusSpec, campaign: &Campaign, options: StreamOptions) -> CorpusRun {
    // ~10 progress lines per pass, whatever the corpus size.
    let step = (spec.scenario_count() / 10).max(1);
    spec.run_streaming(campaign, options, |_, done, total| {
        if done % step == 0 || done == total {
            eprintln!("corpus: {done}/{total} scenarios");
        }
    })
}

fn main() -> ExitCode {
    let mut mode: Option<&'static str> = None;
    let mut seed = DEFAULT_SEED;
    let mut json = false;
    let mut threads: Option<usize> = None;
    let mut events: Option<String> = None;
    let mut abort_on_failure = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => mode = Some("smoke"),
            "--full" => mode = Some("full"),
            "--json" => json = true,
            "--abort-on-failure" => abort_on_failure = true,
            "--seed" => {
                let Some(value) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("corpus: --seed needs an unsigned integer");
                    return ExitCode::from(2);
                };
                seed = value;
            }
            "--threads" => match parse_threads_value(args.next()) {
                Ok(value) => threads = Some(value),
                Err(message) => {
                    eprintln!("corpus: {message}");
                    return ExitCode::from(2);
                }
            },
            "--events" => {
                let Some(path) = args.next() else {
                    eprintln!("corpus: --events needs a path");
                    return ExitCode::from(2);
                };
                events = Some(path);
            }
            other => {
                eprintln!(
                    "corpus: unknown argument `{other}` \
                     (supported: --smoke | --full, --seed N, --json, \
                     --threads N, --events PATH, --abort-on-failure)"
                );
                return ExitCode::from(2);
            }
        }
    }
    let Some(mode) = mode else {
        eprintln!("corpus: pick a mode: --smoke (CI gate) or --full (paper-style sweep)");
        return ExitCode::from(2);
    };

    let mut campaign = Campaign::new();
    if let Some(threads) = threads {
        campaign = match campaign.with_threads(threads) {
            Ok(campaign) => campaign,
            Err(error) => {
                eprintln!("corpus: {error}");
                return ExitCode::from(2);
            }
        };
    }
    let event_sink = match &events {
        None => None,
        Some(path) => match ndjson_file_sink(path) {
            Ok(sink) => Some(sink),
            Err(message) => {
                eprintln!("corpus: {message}");
                return ExitCode::from(2);
            }
        },
    };
    let sinks: Vec<Arc<dyn EventSink>> = event_sink
        .iter()
        .map(|sink| Arc::clone(sink) as Arc<dyn EventSink>)
        .collect();
    let (spec, check_reproducibility) = match mode {
        "smoke" => (CorpusSpec::smoke(seed), true),
        _ => (CorpusSpec::full(seed), false),
    };

    eprintln!(
        "corpus [{mode}]: {} SoCs, {} scenarios over {} schedulers...",
        spec.soc_count(),
        spec.scenario_count(),
        spec.schedulers.len()
    );
    let run = run_with_progress(
        &spec,
        &campaign,
        StreamOptions {
            abort_on_failure,
            sinks,
        },
    );
    let report = run.report;
    let replays = run.replays;
    if replays.simulated + replays.shared + replays.fallbacks > 0 {
        eprintln!(
            "corpus: fidelity replays: {} sessions simulated, {} shared; {} whole-schedule fallbacks",
            replays.simulated, replays.shared, replays.fallbacks
        );
    }
    let ((built, shared), (parsed, _)) = (run.builds.systems, run.builds.socs);
    eprintln!("corpus: builds: {built} systems built, {shared} shared; {parsed} SoCs parsed");

    let mut failed = false;
    if run.aborted {
        eprintln!(
            "corpus: aborted on first failure ({} scenarios cancelled)",
            run.cancelled
        );
        failed = true;
    }
    if !report.all_valid() {
        eprintln!(
            "corpus: {} scenarios failed to plan or validate",
            report.failures.len()
        );
        failed = true;
    }
    if event_sink.as_ref().is_some_and(|sink| sink.failed()) {
        eprintln!("corpus: event log truncated (a line failed to write)");
        failed = true;
    }
    if check_reproducibility && !failed {
        // A second pass over the same spec must reproduce the
        // deterministic section byte for byte — this is the CI guarantee
        // that corpus results are data, not timing accidents.
        let second = run_with_progress(&spec, &campaign, StreamOptions::default());
        if second.report.deterministic_json() != report.deterministic_json() {
            eprintln!("corpus: NONDETERMINISTIC report (two runs of seed {seed} disagree)");
            failed = true;
        } else {
            eprintln!("corpus: reproducibility check passed (two runs byte-identical)");
        }
    }

    if json {
        println!("{}", report.to_json_string());
    } else {
        print!("{}", report.table());
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
