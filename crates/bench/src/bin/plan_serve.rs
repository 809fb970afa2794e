//! `plan-serve` — the NDJSON planning daemon.
//!
//! Reads one JSON document per line on stdin and emits one JSON document
//! per line on stdout: the shape a real planning service wraps. An input
//! line is a plan request (jobs are numbered in submission order from 1)
//! or a control object `{"cancel": 3}` / `{"cancel": "name"}` that
//! cancels the job with that id (or the most recent job submitted under
//! that request name). How a line is read and decoded — the line cap, the
//! closed member set, the daemon members `client` and a numeric
//! `priority` — and every daemon-level answer line are
//! `noctest_serve::wire`; this binary keeps its flags and its read loop.
//!
//! Output lines are the executor's full lifecycle event stream
//! (`queued`, `started`, `stage_finished`, `completed` with the embedded
//! outcome, `failed`, `cancelled` — see `noctest_core::plan::exec`), plus
//! the daemon-level lines: `error` for an input line that cannot be
//! served (the daemon keeps serving), `rejected` when admission control
//! refuses a request, `cached` and `warm_start` (below), and a final
//! `done` once stdin closes and every accepted job is terminal.
//!
//! Planning failures are *in-band*: an unknown scheduler, a malformed
//! SoC or a validation failure produce a `failed` event for that job and
//! never take the daemon down. The exit status is 0 whenever stdin was
//! served to the end, 2 on usage errors.
//!
//! ## Service flags
//!
//! With the defaults the wire behaviour is exactly the classic
//! single-executor daemon, byte for byte. Four flags opt into the
//! service tier (see `noctest_serve`):
//!
//! * `--shards N` — N executor shards; requests route by consistent
//!   hashing of their SoC + mesh content, so near-duplicate streams
//!   share a shard.
//! * `--queue-depth D` — bounded admission: each client may hold at
//!   most D waiting jobs per shard; excess submissions are refused with
//!   an in-band `rejected` line. With or without it, each shard's queue
//!   lets clients take turns in first-arrival order and runs a client's
//!   own jobs by numeric `priority`, ties in submission order (lines
//!   from several clients without `--queue-depth` used to run in plain
//!   priority order across clients).
//! * `--journal PATH` — durable NDJSON job journal. On restart, jobs
//!   that were queued are replayed (same ids); resubmissions of
//!   completed requests are served from the journal byte-identically
//!   without replanning.
//! * `--plan-cache N` — content-addressed plan cache holding up to N
//!   outcomes (see `noctest_replan`). Exact content hits (same planning
//!   inputs, any request name) are served without planning — the
//!   lifecycle events stream as usual, followed by an in-band
//!   `{"event":"cached",...}` line. Near misses warm-start the search
//!   from the closest cached donor, reported by a
//!   `{"event":"warm_start",...}` line; the planned outcome stays
//!   byte-identical to a cold run (within search budget).
//!
//! ```text
//! printf '%s\n' \
//!   '{"soc": {"benchmark": "d695"}, "mesh": {"width": 4, "height": 4}}' \
//!   | cargo run -p noctest-bench --bin plan-serve -- --threads 2
//! ```

use std::io;
use std::process::ExitCode;
use std::sync::Arc;

use noctest_bench::parse_threads_value;
use noctest_core::plan::exec::{EventSink, NdjsonSink};
use noctest_serve::wire::{self, Line};
use noctest_serve::{ServeTier, SubmitOutcome};

const USAGE: &str =
    "usage: plan-serve [--threads N] [--shards N] [--queue-depth D] [--journal PATH] \
     [--plan-cache N]\n\
     reads NDJSON PlanRequests (or {\"cancel\": id|name}) on stdin,\n\
     emits NDJSON lifecycle events on stdout";

/// The service flags; `None` keeps the tier's default.
#[derive(Default)]
struct Flags {
    threads: Option<usize>,
    shards: Option<usize>,
    queue_depth: Option<usize>,
    journal: Option<String>,
    plan_cache: Option<usize>,
}

/// Parses the value of a `--shards` / `--queue-depth` style flag, which
/// must be at least `min`.
fn parse_count(flag: &str, value: Option<String>, min: usize) -> Result<usize, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    let count = value
        .parse::<usize>()
        .map_err(|_| format!("{flag} value `{value}` is not a non-negative integer"))?;
    if count < min {
        return Err(format!("{flag} must be at least {min}"));
    }
    Ok(count)
}

/// Parses the command line; `Ok(None)` asks for the usage text.
fn parse_flags(mut args: impl Iterator<Item = String>) -> Result<Option<Flags>, String> {
    let mut flags = Flags::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => flags.threads = Some(parse_threads_value(args.next())?),
            "--shards" => flags.shards = Some(parse_count("--shards", args.next(), 1)?),
            "--queue-depth" => {
                flags.queue_depth = Some(parse_count("--queue-depth", args.next(), 0)?);
            }
            "--journal" => {
                flags.journal = Some(args.next().ok_or("--journal needs a path")?);
            }
            "--plan-cache" => {
                flags.plan_cache = Some(parse_count("--plan-cache", args.next(), 1)?);
            }
            "--help" | "-h" => return Ok(None),
            other => {
                return Err(format!(
                    "unknown argument `{other}` (supported: --threads N, \
                     --shards N, --queue-depth D, --journal PATH, --plan-cache N)"
                ))
            }
        }
    }
    Ok(Some(flags))
}

/// The service tier the flags describe, answering on `sink`.
fn build_tier(flags: Flags, sink: Arc<dyn EventSink>) -> Result<ServeTier, String> {
    let mut builder = ServeTier::builder().sink(sink);
    if let Some(threads) = flags.threads {
        builder = builder
            .threads(threads)
            .map_err(|error| error.to_string())?;
    }
    if let Some(shards) = flags.shards {
        builder = builder.shards(shards);
    }
    if let Some(depth) = flags.queue_depth {
        builder = builder.queue_depth(depth);
    }
    if let Some(path) = &flags.journal {
        builder = builder.journal(path);
    }
    if let Some(capacity) = flags.plan_cache {
        builder = builder.plan_cache(capacity);
    }
    builder.build().map_err(|error| error.to_string())
}

/// Serves stdin line by line until it ends or nobody reads the events.
fn serve(tier: &ServeTier, sink: &NdjsonSink<io::Stdout>) {
    let mut input = io::stdin().lock();
    let mut buffer = Vec::new();
    for lineno in 1u64.. {
        if sink.failed() {
            // Nobody is reading the event stream (broken pipe, full
            // disk): stop accepting work and cancel whatever is pending
            // instead of planning into the void.
            tier.cancel_all();
            break;
        }
        let line = match wire::read_line(&mut input, &mut buffer) {
            Ok(None) => break,
            Ok(Some(true)) if buffer.trim_ascii().is_empty() => continue,
            Ok(Some(true)) => wire::decode_line(&buffer),
            Ok(Some(false)) => Err(wire::line_too_long()),
            Err(error) => {
                let message = format!("stdin read failed: {error}");
                sink.write_line(&wire::error_line(lineno, &message));
                break;
            }
        };
        let answer = match line {
            Err(error) => Some(wire::error_line(lineno, &error)),
            Ok(Line::Cancel(target)) => {
                let cancelled = match target.as_u64() {
                    Some(id) => tier.cancel_by_id(id),
                    None => target
                        .as_str()
                        .is_some_and(|name| tier.cancel_by_name(name)),
                };
                (!cancelled)
                    .then(|| wire::error_line(lineno, &wire::no_such_cancel_target(&target)))
            }
            Ok(Line::Submit {
                request,
                client,
                priority,
            }) => {
                let name = request.name.clone();
                match tier.submit_for(*request, client.as_deref(), priority) {
                    SubmitOutcome::Rejected {
                        request,
                        client,
                        shard,
                        reason,
                    } => Some(wire::rejected_line(&request, &client, &shard, &reason)),
                    // The synthetic queued/completed pair is already on
                    // the wire; this line carries the provenance.
                    SubmitOutcome::Cached { job, content } => {
                        Some(wire::cached_line(job.0, &name, &content))
                    }
                    SubmitOutcome::WarmStarted {
                        job,
                        from,
                        distance,
                    } => Some(wire::warm_start_line(job.0, &name, &from, distance)),
                    SubmitOutcome::Admitted { .. } | SubmitOutcome::Deduped { .. } => None,
                }
            }
        };
        if let Some(answer) = answer {
            sink.write_line(&answer);
        }
    }
}

fn main() -> ExitCode {
    let flags = match parse_flags(std::env::args().skip(1)) {
        Ok(Some(flags)) => flags,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("plan-serve: {message}");
            return ExitCode::from(2);
        }
    };
    let sink = Arc::new(NdjsonSink::new(io::stdout()));
    let tier = match build_tier(flags, Arc::clone(&sink) as Arc<dyn EventSink>) {
        Ok(tier) => tier,
        Err(error) => {
            eprintln!("plan-serve: {error}");
            return ExitCode::from(2);
        }
    };
    serve(&tier, &sink);

    tier.join();
    sink.write_line(&wire::done_line(tier.admitted()));
    if tier.journal_failed() {
        eprintln!("plan-serve: journal truncated (write failed); recovery may replan");
    }
    if sink.failed() {
        eprintln!("plan-serve: event stream truncated (stdout write failed)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
