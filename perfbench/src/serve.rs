//! `serve-stream`: the service path. The real `plan-serve` daemon
//! (`--shards 2 --threads 1 --plan-cache N --journal PATH`) over one
//! stdio connection, fed an open loop: a writer thread sends one NDJSON
//! request per fixed due time at [`RATE`] lines per second, whatever the
//! daemon does, and a reader thread timestamps every line the daemon
//! prints. Latency runs from a request's due time to its terminal line.
//!
//! The seeded mix (per block of 20 lines): 11 fresh heuristic plans of
//! small generated SoCs, 3 with an inline fidelity replay, 3 on degraded
//! meshes (uniform link failures, and on every other block a severed
//! column whose correct answer is a typed unreachable error), and 3 lines
//! of `DeltaSpec` base / edit / resubmit triples under `optimal`, which
//! produce warm starts and plan-cache hits. This is the only workload
//! that decodes, admits, queues, caches, journals and encodes.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use noctest_core::json::Json;
use noctest_core::plan::exec::{EventSink, JobId, PlanEvent};
use noctest_core::plan::{profile_cache_stats, PlanOutcome, PlanRequest, SocSource};
use noctest_core::FaultRecipe;
use noctest_gen::{DeltaPair, DeltaSpec, RecipeFamily};
use noctest_noc::Mesh;
use noctest_replan::{DeltaAnalyzer, PlanCache};
use noctest_serve::{ServeTier, SubmitOutcome};

use crate::layers::{self, Extras, OpenLoopHealth, TierFigures};
use crate::pipeline::{Counters, Planner, Replay};
use crate::trace::{Tracer, REQUEST};
use crate::util::{
    cpu_seconds, digest_all, is_typed_unreachable, mean, metric, peak_rss_mb, percentile, Failure,
    Fnv, Latency, Planned,
};
use crate::{Args, RunOutcome};

/// Offered load in request lines per second: about half the daemon's
/// capacity on this mix, measured on a 2-core machine. Fixed, never
/// adapted per run.
pub const RATE: f64 = 300.0;

/// Daemon executor shards and worker threads per shard.
const SHARDS: usize = 2;
const THREADS_PER_SHARD: usize = 1;

/// Plan-cache capacity (`--plan-cache`).
pub const PLAN_CACHE: usize = 64;

/// The run is invalid when the generator sends its p99 request later
/// than this after its due time (15 inter-arrival gaps): it no longer
/// offered the stated rate. Latency counts from the due time, so smaller
/// delays are charged to the daemon, not hidden.
const LATENESS_LIMIT_MS: f64 = 50.0;

/// Longest wait for the daemon's next line before the run is abandoned.
const STALL: Duration = Duration::from_secs(60);

/// One request line of the stream.
#[derive(Debug, Clone)]
struct Line {
    name: String,
    text: String,
}

fn line(request: PlanRequest) -> Line {
    Line {
        name: request.name.clone(),
        text: request.to_json().compact(),
    }
}

fn mix(seed: u64, index: usize) -> u64 {
    Fnv::default().u64(seed).u64(index as u64).0
}

/// A fresh heuristic plan of a generated SoC with four reused
/// processors, sized like the paper's systems so reuse pays off.
fn heuristic(seed: u64, index: usize, kind: &str) -> PlanRequest {
    let family = RecipeFamily::ALL[index % RecipeFamily::ALL.len()];
    let cores = 12 + (index % 3) as u32 * 4;
    let (width, height) = [(4u16, 4u16), (5, 5)][index % 2];
    PlanRequest {
        soc: SocSource::SocText(family.recipe(cores).generate_text(mix(seed, index))),
        ..PlanRequest::benchmark("", width, height)
    }
    .with_name(format!("L{index:05}-{kind}"))
    .with_scheduler(["greedy", "smart"][(index / 2) % 2])
    .with_processors(["leon", "plasma"][(index / 4) % 2], 4, 4)
}

/// A heuristic plan on a degraded mesh, with the external tester only:
/// with reused processors on a mesh with failed links the heuristics can
/// stall ("scheduler stalled at cycle ..."), a planner defect left for a
/// later change, and the benchmark measures only requests that plan.
fn degraded(seed: u64, index: usize, recipe: FaultRecipe) -> PlanRequest {
    let mut request = heuristic(seed, index, &format!("flt-{}", recipe.label()));
    request.processors = None;
    let mesh = Mesh::new(request.mesh.width, request.mesh.height).expect("stream meshes are valid");
    let faults = recipe.generate(&mesh, mix(seed, index));
    request.with_faults(faults)
}

/// The seeded request stream of `count` lines.
fn stream(seed: u64, count: usize) -> Vec<Line> {
    // Small systems keep each exact search to milliseconds, so the
    // stream stays a service workload rather than a search benchmark.
    let deltas = DeltaSpec {
        cores: (3, 4),
        ..DeltaSpec::new(seed ^ 0xde17_a5ee)
    };
    // An edit can push one core over the power budget, which the planner
    // rightly refuses; the stream keeps only pairs where both sides plan.
    let pairs: Vec<DeltaPair> = (0u64..)
        .map(|index| deltas.pair(index))
        .filter(|pair| pair.base.build_system().is_ok() && pair.edited.build_system().is_ok())
        .take(count.div_ceil(20))
        .collect();
    (0..count)
        .map(|index| {
            let (block, slot) = (index / 20, index % 20);
            let request = match slot {
                0 => pairs[block]
                    .base
                    .clone()
                    .with_name(format!("L{index:05}-delta-base")),
                7 => pairs[block]
                    .edited
                    .clone()
                    .with_name(format!("L{index:05}-delta-edit")),
                14 if block > 0 => pairs[block - 1]
                    .base
                    .clone()
                    .with_name(format!("L{index:05}-delta-again")),
                3 | 10 | 17 => heuristic(seed, index, "fidelity").with_fidelity(2),
                5 | 12 => degraded(seed, index, FaultRecipe::UniformLinks { percent: 5 }),
                19 if block % 2 == 1 => degraded(seed, index, FaultRecipe::ColumnCut),
                19 => degraded(seed, index, FaultRecipe::UniformLinks { percent: 5 }),
                _ => heuristic(seed, index, "fresh"),
            };
            line(request)
        })
        .collect()
}

/// One untimed request per processor family, so ISS calibration lands
/// in set-up.
fn warm_ups(seed: u64) -> Vec<Line> {
    ["leon", "plasma"]
        .iter()
        .enumerate()
        .map(|(i, family)| {
            line(
                heuristic(seed, i, "warmup")
                    .with_name(format!("warmup-{family}"))
                    .with_processors(family, 4, 4),
            )
        })
        .collect()
}

/// Lines a traced run streams at most: the tier pass and both
/// re-drives replay them too, so the traced run stays short.
const TRACE_LINES: usize = 3000;

fn line_count(args: &Args) -> usize {
    let lines = (RATE * args.seconds).round().max(20.0) as usize;
    if args.trace {
        lines.min(TRACE_LINES)
    } else {
        lines
    }
}

/// A fresh, empty journal path inside the output directory.
fn journal_path(args: &Args, tag: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let path = args
        .out_dir
        .join(format!("journal-{tag}-{}.ndjson", std::process::id()));
    remove(&path);
    Ok(path)
}

fn remove(path: &Path) {
    let _ = std::fs::remove_file(path);
}

/// The terminal kinds of the daemon's wire: one per request line.
fn terminal_kind(text: &str) -> Option<&'static str> {
    ["completed", "failed", "cancelled", "rejected", "error"]
        .into_iter()
        .find(|kind| text.starts_with(&format!("{{\"event\":\"{kind}\"")))
}

/// A running `plan-serve` child with a reader thread timestamping every
/// stdout line.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
    journal: PathBuf,
}

impl Daemon {
    fn spawn(args: &Args, journal: PathBuf) -> Result<Daemon, String> {
        let bin = args
            .serve_bin
            .as_ref()
            .expect("serve-stream has --serve-bin");
        let mut child = Command::new(bin)
            .args(["--shards", &SHARDS.to_string()])
            .args(["--threads", &THREADS_PER_SHARD.to_string()])
            .args(["--plan-cache", &PLAN_CACHE.to_string()])
            .arg("--journal")
            .arg(&journal)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("daemon stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for text in BufReader::new(stdout).lines() {
                let Ok(text) = text else { break };
                if tx.send((Instant::now(), text)).is_err() {
                    break;
                }
            }
        });
        Ok(Daemon {
            stdin: child.stdin.take(),
            child,
            lines,
            reader: Some(reader),
            journal,
        })
    }

    fn send(&mut self, text: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().expect("stdin is open until shutdown");
        stdin
            .write_all(format!("{text}\n").as_bytes())
            .map_err(|e| format!("daemon stdin: {e}"))
    }

    /// Collects lines until `expected` terminal lines arrived.
    fn collect(&self, expected: usize) -> Result<Vec<(Instant, String)>, String> {
        let mut terminals = Vec::with_capacity(expected);
        while terminals.len() < expected {
            match self.lines.recv_timeout(STALL) {
                Ok((at, text)) => {
                    if terminal_kind(&text).is_some() {
                        terminals.push((at, text));
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!(
                        "daemon stalled: {} of {expected} answers after {STALL:?}",
                        terminals.len()
                    ))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!(
                        "daemon exited after {} of {expected} answers",
                        terminals.len()
                    ))
                }
            }
        }
        Ok(terminals)
    }

    /// Closes stdin, drains the stream, and waits for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        while self.lines.recv_timeout(STALL).is_ok() {}
        if let Some(reader) = self.reader.take() {
            reader.join().map_err(|_| "daemon reader panicked")?;
        }
        let status = self
            .child
            .wait()
            .map_err(|e| format!("daemon wait failed: {e}"))?;
        remove(&self.journal);
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.reader.is_some() {
            // Abandoned mid-run: stop the child rather than leak it.
            let _ = self.child.kill();
            let _ = self.child.wait();
            remove(&self.journal);
        }
    }
}

/// Set-up: generate the stream, start the daemon, plan the warm-ups.
fn setup(args: &Args, tag: &str) -> Result<(Vec<Line>, Daemon), String> {
    let lines = stream(args.seed, line_count(args));
    let mut daemon = Daemon::spawn(args, journal_path(args, tag)?)?;
    let warm = warm_ups(args.seed);
    for line in &warm {
        daemon.send(&line.text)?;
    }
    for (_, text) in daemon.collect(warm.len())? {
        if terminal_kind(&text) != Some("completed") {
            return Err(format!("warm-up did not complete: {text}"));
        }
    }
    Ok((lines, daemon))
}

pub fn setup_probe(args: &Args) -> Result<(), String> {
    let (_, daemon) = setup(args, "probe")?;
    daemon.shutdown()
}

/// One open-loop pass through the daemon.
struct Pass {
    results: Vec<Planned>,
    latency: Latency,
    health: OpenLoopHealth,
    plans_per_s: f64,
    daemon_rss_mb: f64,
    /// CPU time the daemon spent on the stream (warm-ups excluded).
    daemon_cpu_s: f64,
}

fn open_loop(lines: &[Line], mut daemon: Daemon) -> Result<Pass, String> {
    let index: HashMap<&str, usize> = lines
        .iter()
        .enumerate()
        .map(|(i, l)| (l.name.as_str(), i))
        .collect();
    let daemon_pid = daemon.child.id();
    let cpu_before = cpu_seconds(Some(daemon_pid));
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = move |i: usize| t0 + Duration::from_secs_f64(i as f64 / RATE);
    let mut stdin = daemon.stdin.take().expect("stdin is open");
    let texts: Vec<String> = lines.iter().map(|l| format!("{}\n", l.text)).collect();
    let writer = std::thread::spawn(move || -> Result<(ChildStdin, Vec<Instant>), String> {
        let mut sent = Vec::with_capacity(texts.len());
        for (i, text) in texts.iter().enumerate() {
            let at = due(i);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            stdin
                .write_all(text.as_bytes())
                .map_err(|e| format!("daemon stdin: {e}"))?;
            sent.push(Instant::now());
        }
        Ok((stdin, sent))
    });
    let terminals = daemon.collect(lines.len());
    let written = writer.join().map_err(|_| "writer thread panicked")?;
    let daemon_rss_mb = peak_rss_mb(Some(daemon_pid));
    let daemon_cpu_s = cpu_seconds(Some(daemon_pid)) - cpu_before;
    let (stdin, sent) = written?;
    daemon.stdin = Some(stdin);
    let terminals = terminals?;
    daemon.shutdown()?;

    let mut results: Vec<Option<Planned>> = vec![None; lines.len()];
    let mut done_at: Vec<Option<Instant>> = vec![None; lines.len()];
    for (at, text) in &terminals {
        let doc = Json::parse(text).map_err(|e| format!("undecodable daemon line: {e}"))?;
        let name = doc.get("request").and_then(Json::as_str).unwrap_or("");
        let Some(&i) = index.get(name) else {
            return Err(format!("answer for an unknown request: {text}"));
        };
        let result = match doc.get("event").and_then(Json::as_str) {
            Some("completed") => doc
                .get("outcome")
                .ok_or("completed event without outcome")
                .and_then(|o| PlanOutcome::from_json(o).map_err(|_| "undecodable outcome"))
                .map_err(str::to_owned)
                .map(Ok)?,
            _ => Err(Failure {
                request: name.to_owned(),
                error: doc
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or(text)
                    .to_owned(),
            }),
        };
        results[i] = Some(result);
        done_at[i] = Some(*at);
    }
    let results: Vec<Planned> = results
        .into_iter()
        .map(|r| r.ok_or("a request got no answer"))
        .collect::<Result<_, _>>()?;
    let done_at: Vec<Instant> = done_at.into_iter().map(|d| d.expect("answered")).collect();

    let latency = Latency::of(
        (0..lines.len())
            .map(|i| done_at[i].duration_since(due(i)).as_secs_f64() * 1e3)
            .collect(),
    );
    let mut lateness_ms: Vec<f64> = sent
        .iter()
        .enumerate()
        .map(|(i, at)| at.saturating_duration_since(due(i)).as_secs_f64() * 1e3)
        .collect();
    lateness_ms.sort_by(f64::total_cmp);
    let last_send = *sent.last().expect("the stream is not empty");
    let backlog = done_at.iter().filter(|at| **at > last_send).count() as u64;
    let last_answer = done_at.iter().max().copied().unwrap_or(t0);
    let completed = results.iter().filter(|r| r.is_ok()).count();
    Ok(Pass {
        results,
        health: OpenLoopHealth {
            lateness_p99_ms: percentile(&lateness_ms, 0.99),
            backlog,
        },
        latency,
        plans_per_s: completed as f64 / last_answer.duration_since(t0).as_secs_f64(),
        daemon_rss_mb,
        daemon_cpu_s,
    })
}

/// What the in-process tier's sink saw for one job.
#[derive(Debug, Default, Clone, Copy)]
struct JobTimes {
    queued: Option<Instant>,
    started: Option<Instant>,
    finished: Option<Instant>,
}

/// Timestamps lifecycle events and encodes each one as the daemon's
/// `NdjsonSink` would.
#[derive(Debug, Default)]
struct TierSink {
    jobs: Mutex<HashMap<u64, JobTimes>>,
    encodes: Mutex<Vec<(u64, Instant, Instant)>>,
}

impl EventSink for TierSink {
    fn emit(&self, event: &PlanEvent) {
        let now = Instant::now();
        let text = event.to_ndjson_line();
        let _ = std::io::sink().write_all(text.as_bytes());
        let encoded = Instant::now();
        let job = event.job().0;
        {
            let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
            let times = jobs.entry(job).or_default();
            match event {
                PlanEvent::Queued { .. } => times.queued = Some(now),
                PlanEvent::Started { .. } => times.started = Some(now),
                _ if event.is_terminal() => times.finished = Some(now),
                _ => {}
            }
        }
        self.encodes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((job, now, encoded));
    }
}

/// The tier-level pass: an in-process `ServeTier` built with the
/// daemon's flags, driven at the same rate by a copy of `plan-serve`'s
/// read loop, with spans for decode, submit, queue wait, service and
/// encode.
fn tier_pass(args: &Args, lines: &[Line], tracer: &mut Tracer) -> Result<TierFigures, String> {
    tracer.set_phase("tier");
    let journal = journal_path(args, "tier")?;
    let sink = Arc::new(TierSink::default());
    let tier = ServeTier::builder()
        .shards(SHARDS)
        .threads(THREADS_PER_SHARD)
        .map_err(|e| e.to_string())?
        .plan_cache(PLAN_CACHE)
        .journal(&journal)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .build()
        .map_err(|e| e.to_string())?;
    let mut figures = TierFigures::default();
    let t0 = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(i as f64 / RATE);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let rid = i as u64 + 1;
        let decoded = tracer.span("json.decode", rid, || {
            Json::parse(line.text.trim()).map(|doc| (PlanRequest::from_json(&doc), doc))
        });
        let (request, doc) = match decoded {
            Ok((Ok(request), doc)) => (request, doc),
            _ => return Err(format!("stream line {i} does not decode")),
        };
        let client = doc.get("client").and_then(Json::as_str);
        let priority = doc.get("priority").and_then(Json::as_f64).unwrap_or(0.0) as i32;
        let submitted = Instant::now();
        let outcome = tier.submit_for(request, client, priority);
        figures.submit_s += submitted.elapsed().as_secs_f64();
        tracer.record("serve.submit", rid, submitted, Instant::now());
        match outcome {
            SubmitOutcome::Rejected { .. } => figures.rejected += 1,
            SubmitOutcome::Cached { .. } => figures.cached += 1,
            SubmitOutcome::WarmStarted { .. } => figures.warm_started += 1,
            SubmitOutcome::Admitted { .. } | SubmitOutcome::Deduped { .. } => {}
        }
    }
    tier.join();
    if let Some(stats) = tier.plan_cache_stats() {
        figures.hit_pct = 100.0 * stats.hits as f64 / stats.lookups().max(1) as f64;
    }
    drop(tier);
    remove(&journal);

    let jobs = std::mem::take(&mut *sink.jobs.lock().unwrap_or_else(PoisonError::into_inner));
    let (mut waits, mut services) = (Vec::new(), Vec::new());
    for (job, times) in &jobs {
        if let (Some(queued), Some(started), Some(finished)) =
            (times.queued, times.started, times.finished)
        {
            tracer.record("exec.wait", *job, queued, started);
            tracer.record("exec.service", *job, started, finished);
            waits.push(started.duration_since(queued).as_secs_f64() * 1e3);
            services.push(finished.duration_since(started).as_secs_f64() * 1e3);
        }
    }
    for (job, start, end) in sink
        .encodes
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        tracer.record("json.encode", *job, *start, *end);
    }
    waits.sort_by(f64::total_cmp);
    services.sort_by(f64::total_cmp);
    figures.wait_p50_ms = percentile(&waits, 0.50);
    figures.wait_p99_ms = percentile(&waits, 0.99);
    figures.service_p50_ms = percentile(&services, 0.50);
    tracer.set_phase("redrive");
    Ok(figures)
}

/// The stream re-driven on one thread through the same layers the
/// daemon runs per line: decode, plan-cache lookup and warm start,
/// parse → profile → build → schedule → validate → inline replay, cache
/// insert, and the encode of the terminal event.
fn redrive(
    seed: u64,
    count: usize,
    planner: &Planner,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Result<(Vec<Planned>, Duration), String> {
    let started = Instant::now();
    let lines = tracer.span("gen.expand", 0, || stream(seed, count));
    let cache = PlanCache::new(PLAN_CACHE);
    let analyzer = DeltaAnalyzer::default();
    let mut results = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let rid = i as u64 + 1;
        let root = tracer.begin(REQUEST, rid);
        let mut request = tracer
            .span("json.decode", rid, || {
                Json::parse(&line.text).map(|doc| PlanRequest::from_json(&doc))
            })
            .ok()
            .and_then(Result::ok)
            .ok_or_else(|| format!("stream line {i} does not decode"))?;
        let hit = tracer.span("replan.cache", rid, || cache.lookup(&request));
        let planned = match hit {
            Some(outcome) => Ok(outcome),
            None => {
                let original = request.clone();
                if let Some(warm) =
                    tracer.span("replan.cache", rid, || analyzer.analyze(&cache, &request))
                {
                    request.search = warm.tuning(&request);
                }
                let planned = planner
                    .plan(tracer, counters, rid, &request, Replay::Inline)
                    .map(|(outcome, _)| outcome);
                if let Ok(outcome) = &planned {
                    tracer.span("replan.cache", rid, || cache.insert(&original, outcome));
                }
                planned
            }
        };
        let text = tracer.span("json.encode", rid, || {
            let job = JobId(rid);
            let request = line.name.clone();
            match &planned {
                Ok(outcome) => PlanEvent::Completed {
                    job,
                    request,
                    outcome: Box::new(outcome.clone()),
                },
                Err(error) => PlanEvent::Failed {
                    job,
                    request,
                    error: error.clone(),
                },
            }
            .to_ndjson_line()
        });
        counters.encoded_bytes += text.len() as u64;
        results.push(planned.map_err(|e| Failure {
            request: line.name.clone(),
            error: e.to_string(),
        }));
        tracer.end(root);
    }
    Ok((results, started.elapsed()))
}

pub fn run(args: &Args) -> Result<RunOutcome, String> {
    let before = profile_cache_stats();
    let (lines, daemon) = setup(args, "run")?;
    let pass = open_loop(&lines, daemon)?;
    let digest = digest_all(&pass.results, true);
    let failures: Vec<&Failure> = pass
        .results
        .iter()
        .filter_map(|r| r.as_ref().err())
        .collect();
    let typed = failures
        .iter()
        .filter(|f| is_typed_unreachable(&f.error))
        .count() as u64;
    for failure in failures
        .iter()
        .filter(|f| !is_typed_unreachable(&f.error))
        .take(3)
    {
        eprintln!("perfbench: {}: {}", failure.request, failure.error);
    }
    let kept_up = pass.health.lateness_p99_ms <= LATENESS_LIMIT_MS;
    if !kept_up {
        eprintln!(
            "perfbench: invalid run: the generator fell behind (p99 lateness {:.2} ms > {LATENESS_LIMIT_MS} ms)",
            pass.health.lateness_p99_ms
        );
    }
    let mut outcome = RunOutcome {
        digest,
        attempted: lines.len() as u64,
        failed: failures.len() as u64 - typed,
        config: vec![
            ("offered_rate_per_s", RATE.to_string()),
            ("daemon_shards", SHARDS.to_string()),
            ("daemon_threads_per_shard", THREADS_PER_SHARD.to_string()),
            ("plan_cache", PLAN_CACHE.to_string()),
            ("lines", lines.len().to_string()),
            (
                "lateness_p99_ms",
                format!("{:.3}", pass.health.lateness_p99_ms),
            ),
            ("backlog_at_end", pass.health.backlog.to_string()),
            ("typed_unreachable", typed.to_string()),
        ],
        ..RunOutcome::default()
    };
    outcome.correct = kept_up && outcome.failed == 0;
    outcome.config.extend(pass.latency.config());

    let plans: Vec<&PlanOutcome> = pass
        .results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .collect();
    if !args.trace {
        let reductions: Vec<f64> = plans.iter().map(|p| p.reduction_percent).collect();
        let makespans: Vec<f64> = plans.iter().map(|p| p.makespan as f64 / 1e3).collect();
        outcome.end_to_end = vec![
            metric("plans_per_s", pass.plans_per_s, "1/s"),
            metric(
                "cpu_ms_per_plan",
                1e3 * pass.daemon_cpu_s / plans.len() as f64,
                "ms",
            ),
            metric("peak_rss_mb", pass.daemon_rss_mb, "MiB"),
            metric("reduction_pct", mean(&reductions), "%"),
            metric("makespan_kcycles", mean(&makespans), "kcycles"),
        ];
        return Ok(outcome);
    }

    // Traced run: tier-level spans from an in-process tier, then the
    // stream re-driven stage by stage, untraced and traced.
    for warm in warm_ups(args.seed) {
        let request = PlanRequest::from_json_str(&warm.text).map_err(|e| e.to_string())?;
        request.resolve_profile().map_err(|e| e.to_string())?;
    }
    let profile_misses = profile_cache_stats().since(before).misses;
    let mut tracer = Tracer::new(true);
    let tier = tier_pass(args, &lines, &mut tracer)?;
    let planner = Planner::new(None);
    let runs = layers::bracket(&mut tracer, |tracer, counters| {
        redrive(args.seed, lines.len(), &planner, tracer, counters)
    })?;
    let same_plans =
        digest_all(&runs.traced, true) == digest && digest_all(&runs.untraced, true) == digest;
    if !same_plans {
        eprintln!("perfbench: the traced re-drive planned differently from the daemon");
    }
    outcome.correct &= same_plans;
    let fidelity: Vec<f64> = runs
        .traced
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .filter_map(|p| p.fidelity.as_ref())
        .map(|f| 100.0 * f.worst_relative_error())
        .collect();
    let extras = Extras {
        profile_misses,
        fidelity_err_pct: mean(&fidelity),
        failed_pct: 100.0 * failures.len() as f64 / lines.len() as f64,
        unreachable: typed,
        tier,
        open_loop: pass.health.clone(),
        latency: pass.latency.clone(),
    };
    outcome.layers = layers::finish(args, &tracer, &runs, &extras)?;
    Ok(outcome)
}
