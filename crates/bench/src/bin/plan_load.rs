//! `plan-load` — the service-tier load generator.
//!
//! Drives an in-process [`ServeTier`] (the same tier `plan-serve` wraps)
//! with a seeded stream of synthetic planning requests from the
//! `noctest-gen` recipe families, under multiple client identities, and
//! reports service metrics to `BENCH_serve.json`:
//!
//! * end-to-end job latency (submission → terminal event): p50 / p95 /
//!   p99 / max, in microseconds,
//! * throughput in completed jobs per second,
//! * the admission rejection rate.
//!
//! The traffic is deterministic in `--seed` (same seed, same request
//! bytes), so runs are comparable; the timings of course are not. With
//! `--smoke` a small fixed configuration runs and the emitted report is
//! re-read and schema-checked — CI uses this to gate that the benchmark
//! artefact stays well-formed.
//!
//! ```text
//! cargo run --release -p noctest-bench --bin plan-load -- \
//!     --jobs 96 --shards 2 --threads 2 --queue-depth 4 --clients 3
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use noctest_core::json::Json;
use noctest_core::plan::exec::{EventSink, PlanEvent};
use noctest_core::plan::{MeshSpec, PlanRequest, SocSource};
use noctest_faults::FaultRecipe;
use noctest_gen::RecipeFamily;
use noctest_noc::{Mesh, RoutingKind};
use noctest_serve::{ServeTier, SubmitOutcome};

/// Captures the terminal instant and kind of every job.
#[derive(Default)]
struct LatencySink {
    terminals: Mutex<HashMap<u64, (Instant, &'static str)>>,
}

impl EventSink for LatencySink {
    fn emit(&self, event: &PlanEvent) {
        if event.is_terminal() {
            self.terminals
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(event.job().0, (Instant::now(), event.kind()));
        }
    }
}

/// Which request stream to generate: the `standard` healthy mix, the
/// `degraded` mix where two of three requests plan around seeded uniform
/// link failures, or the `fidelity` mix where every request also replays
/// its schedule cycle-accurately on the event-driven simulator (all
/// byte-deterministic like the rest of the stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mix {
    Standard,
    Degraded,
    Fidelity,
}

impl Mix {
    fn label(self) -> &'static str {
        match self {
            Mix::Standard => "standard",
            Mix::Degraded => "degraded",
            Mix::Fidelity => "fidelity",
        }
    }
}

#[derive(Debug, Clone)]
struct Config {
    jobs: usize,
    shards: usize,
    threads: usize,
    queue_depth: usize,
    clients: usize,
    seed: u64,
    mix: Mix,
    out: String,
    smoke: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            jobs: 96,
            shards: 2,
            threads: 2,
            queue_depth: 4,
            clients: 3,
            seed: 1,
            mix: Mix::Standard,
            out: "BENCH_serve.json".to_owned(),
            smoke: false,
        }
    }
}

fn parse_flag<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse::<T>()
        .map_err(|_| format!("{flag} value `{value}` is malformed"))
}

fn parse_args() -> Result<Option<Config>, String> {
    let mut config = Config::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => config.jobs = parse_flag("--jobs", args.next())?,
            "--shards" => config.shards = parse_flag::<usize>("--shards", args.next())?.max(1),
            "--threads" => config.threads = parse_flag::<usize>("--threads", args.next())?.max(1),
            "--queue-depth" => config.queue_depth = parse_flag("--queue-depth", args.next())?,
            "--clients" => config.clients = parse_flag::<usize>("--clients", args.next())?.max(1),
            "--seed" => config.seed = parse_flag("--seed", args.next())?,
            "--mix" => {
                config.mix = match args.next().as_deref() {
                    Some("standard") => Mix::Standard,
                    Some("degraded") => Mix::Degraded,
                    Some("fidelity") => Mix::Fidelity,
                    other => {
                        return Err(format!(
                            "--mix must be `standard`, `degraded` or `fidelity`, got {other:?}"
                        ))
                    }
                };
            }
            "--out" => config.out = parse_flag("--out", args.next())?,
            "--smoke" => {
                config.smoke = true;
                config.jobs = 16;
                config.shards = 2;
                config.threads = 2;
                config.queue_depth = 2;
                config.clients = 3;
            }
            "--help" | "-h" => {
                println!(
                    "usage: plan-load [--jobs N] [--shards N] [--threads N] [--queue-depth D]\n\
                     \u{20}                [--clients N] [--seed S]\n\
                     \u{20}                [--mix standard|degraded|fidelity]\n\
                     \u{20}                [--out PATH] [--smoke]\n\
                     drives the service tier with seeded synthetic traffic and writes\n\
                     latency/throughput/rejection metrics to the report (BENCH_serve.json);\n\
                     the degraded mix plans two of three jobs around seeded link failures,\n\
                     the fidelity mix replays every planned schedule cycle-accurately"
                );
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(config))
}

/// The deterministic request stream: small synthetic SoCs cycling over
/// the recipe families, mesh sizes and schedulers. Each job's bytes are
/// a pure function of `(seed, index)`.
fn request(seed: u64, index: usize, mix: Mix) -> PlanRequest {
    let family = RecipeFamily::ALL[index % RecipeFamily::ALL.len()];
    let cores = 6 + (index % 3) as u32 * 2;
    let soc_text = family.recipe(cores).generate_text(seed ^ index as u64);
    let (width, height) = [(3u16, 3u16), (4, 4)][index % 2];
    let scheduler = ["greedy", "smart", "serial"][index % 3];
    let mut request = PlanRequest::benchmark("d695", width, height)
        .with_name(format!("load-{index:04}"))
        .with_scheduler(scheduler);
    request.soc = SocSource::SocText(soc_text);
    request.mesh = MeshSpec {
        width,
        height,
        routing: RoutingKind::Xy,
    };
    // The degraded mix keeps every third job healthy (a baseline inside
    // the same run) and reroutes the rest around seeded link failures.
    // Link recipes keep every core reachable, so the stream still
    // completes; the work per job grows with the detours.
    if mix == Mix::Degraded && !index.is_multiple_of(3) {
        let recipe = FaultRecipe::UniformLinks {
            percent: if index % 3 == 1 { 5 } else { 10 },
        };
        let mesh = Mesh::new(width, height).expect("load meshes are valid");
        request = request.with_faults(recipe.generate(&mesh, seed ^ index as u64));
    }
    // The fidelity mix makes every job replay-heavy: each planned
    // schedule is re-simulated cycle-accurately (capped patterns), so the
    // tier's latency percentiles cover the batch-replay path too.
    if mix == Mix::Fidelity {
        request = request.with_fidelity(2);
    }
    request
}

fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn run(config: &Config) -> Result<Json, String> {
    let sink = Arc::new(LatencySink::default());
    let tier = ServeTier::builder()
        .shards(config.shards)
        .threads(config.threads)
        .map_err(|error| error.to_string())?
        .queue_depth(config.queue_depth)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .build()
        .map_err(|error| error.to_string())?;

    let started = Instant::now();
    let mut submitted_at: HashMap<u64, Instant> = HashMap::new();
    let mut rejected = 0u64;
    for index in 0..config.jobs {
        let client = format!("client-{}", index % config.clients);
        let t0 = Instant::now();
        match tier.submit_for(request(config.seed, index, config.mix), Some(&client), 0) {
            SubmitOutcome::Admitted { job }
            | SubmitOutcome::Deduped { job }
            | SubmitOutcome::Cached { job, .. }
            | SubmitOutcome::WarmStarted { job, .. } => {
                submitted_at.insert(job.0, t0);
            }
            SubmitOutcome::Rejected { .. } => rejected += 1,
        }
    }
    tier.join();
    let wall_micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);

    let terminals = sink
        .terminals
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut latencies: Vec<u64> = Vec::with_capacity(submitted_at.len());
    let mut kinds: HashMap<&'static str, u64> = HashMap::new();
    for (job, t0) in &submitted_at {
        let Some((done, kind)) = terminals.get(job) else {
            return Err(format!("job {job} was accepted but never went terminal"));
        };
        *kinds.entry(kind).or_insert(0) += 1;
        latencies.push(u64::try_from(done.duration_since(*t0).as_micros()).unwrap_or(u64::MAX));
    }
    latencies.sort_unstable();

    let accepted = submitted_at.len() as u64;
    let completed = kinds.get("completed").copied().unwrap_or(0);
    let attempts = accepted + rejected;
    let throughput = if wall_micros == 0 {
        0.0
    } else {
        completed as f64 / (wall_micros as f64 / 1_000_000.0)
    };
    Ok(Json::obj(vec![
        (
            "config",
            Json::obj(vec![
                ("jobs", Json::int(config.jobs as u64)),
                ("shards", Json::int(config.shards as u64)),
                ("threads", Json::int(config.threads as u64)),
                ("queue_depth", Json::int(config.queue_depth as u64)),
                ("clients", Json::int(config.clients as u64)),
                ("seed", Json::int(config.seed)),
                ("mix", Json::str(config.mix.label())),
            ]),
        ),
        (
            "jobs",
            Json::obj(vec![
                ("attempted", Json::int(attempts)),
                ("accepted", Json::int(accepted)),
                ("rejected", Json::int(rejected)),
                ("completed", Json::int(completed)),
                (
                    "failed",
                    Json::int(kinds.get("failed").copied().unwrap_or(0)),
                ),
                (
                    "cancelled",
                    Json::int(kinds.get("cancelled").copied().unwrap_or(0)),
                ),
            ]),
        ),
        (
            "rejection_rate",
            Json::Num(if attempts == 0 {
                0.0
            } else {
                rejected as f64 / attempts as f64
            }),
        ),
        ("throughput_jobs_per_sec", Json::Num(throughput)),
        (
            "latency_micros",
            Json::obj(vec![
                ("p50", Json::int(percentile(&latencies, 50.0))),
                ("p95", Json::int(percentile(&latencies, 95.0))),
                ("p99", Json::int(percentile(&latencies, 99.0))),
                ("max", Json::int(latencies.last().copied().unwrap_or(0))),
            ]),
        ),
        ("wall_micros", Json::int(wall_micros)),
    ]))
}

/// Schema-checks a report document (the `--smoke` gate): every metric CI
/// and dashboards read must be present with the right shape.
fn validate(report: &Json) -> Result<(), String> {
    let need_num = |path: &str, value: Option<&Json>| -> Result<(), String> {
        value
            .and_then(Json::as_f64)
            .map(|_| ())
            .ok_or_else(|| format!("report is missing numeric `{path}`"))
    };
    let latency = report
        .get("latency_micros")
        .ok_or("report is missing `latency_micros`")?;
    for member in ["p50", "p95", "p99", "max"] {
        need_num(&format!("latency_micros.{member}"), latency.get(member))?;
    }
    need_num("rejection_rate", report.get("rejection_rate"))?;
    need_num(
        "throughput_jobs_per_sec",
        report.get("throughput_jobs_per_sec"),
    )?;
    let jobs = report.get("jobs").ok_or("report is missing `jobs`")?;
    for member in ["attempted", "accepted", "rejected", "completed"] {
        need_num(&format!("jobs.{member}"), jobs.get(member))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(Some(config)) => config,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("plan-load: {message}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&config) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("plan-load: {message}");
            return ExitCode::FAILURE;
        }
    };
    let text = report.compact();
    if let Err(error) = std::fs::write(&config.out, format!("{text}\n")) {
        eprintln!("plan-load: cannot write {}: {error}", config.out);
        return ExitCode::FAILURE;
    }
    println!("{text}");
    if config.smoke {
        // Re-read the artefact from disk and schema-check it: the smoke
        // gate is about the file CI archives, not the in-memory value.
        let reread = std::fs::read_to_string(&config.out)
            .map_err(|error| error.to_string())
            .and_then(|text| Json::parse(text.trim()).map_err(|error| error.to_string()))
            .and_then(|doc| validate(&doc).map(|()| doc));
        match reread {
            Ok(_) => eprintln!("plan-load: smoke ok ({} validated)", config.out),
            Err(message) => {
                eprintln!("plan-load: smoke validation failed: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
