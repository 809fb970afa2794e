//! `plan-serve` — the NDJSON planning daemon.
//!
//! Reads one JSON document per line on stdin and emits one JSON document
//! per line on stdout: the shape a real planning service wraps. Input
//! lines are either
//!
//! * a [`PlanRequest`] object (the format of
//!   [`PlanRequest::from_json_str`]) — submitted to the service tier;
//!   jobs are numbered in submission order starting at 1. Two optional
//!   daemon-level members ride alongside the request: `"client"` (a
//!   string identity used for fair admission accounting) and a numeric
//!   `"priority"` (an integer in `i32` range; higher runs first; a string
//!   `"priority"` is the request's own core-ordering policy). A mistyped
//!   one gets an `error` line and the request is not submitted, or
//! * a control object `{"cancel": 3}` / `{"cancel": "name"}` — cancels
//!   the job with that id (or the most recent job submitted under that
//!   request name).
//!
//! Output lines are the executor's full lifecycle event stream
//! (`queued`, `started`, `stage_finished`, `completed` with the embedded
//! outcome, `failed`, `cancelled` — see `noctest_core::plan::exec`), plus
//! daemon-level lines: `{"event":"error","line":N,"error":"..."}` for
//! input that cannot be parsed — including a line longer than
//! [`MAX_LINE_BYTES`], one that is not UTF-8, and JSON nested deeper than
//! `noctest_core::json::MAX_DEPTH` (the daemon keeps serving),
//! `{"event":"rejected",...}` when admission control refuses a request,
//! and a final `{"event":"done","jobs":N}` once stdin closes and every
//! accepted job is terminal.
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
//! * `--queue-depth D` — bounded fair admission: each client may hold at
//!   most D waiting jobs per shard; excess submissions are refused with
//!   an in-band `rejected` line, and waiting jobs dispatch by round-robin
//!   over clients.
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

use std::io::{self, BufRead, Read};
use std::process::ExitCode;
use std::sync::Arc;

use noctest_bench::parse_threads_value;
use noctest_core::json::{field, field_opt, Json};
use noctest_core::plan::exec::{EventSink, NdjsonSink};
use noctest_core::plan::PlanRequest;
use noctest_serve::wire;
use noctest_serve::{ServeTier, SubmitOutcome};

const USAGE: &str =
    "usage: plan-serve [--threads N] [--shards N] [--queue-depth D] [--journal PATH] \
     [--plan-cache N]\n\
     reads NDJSON PlanRequests (or {\"cancel\": id|name}) on stdin,\n\
     emits NDJSON lifecycle events on stdout";

/// The longest input line the daemon reads, in bytes (newline excluded).
/// A longer line is skipped without being buffered and answered with an
/// `error` line.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Reads the next line of `input` into `line`, without its newline.
/// Returns `None` at the end of the input and `Some(false)` for a line
/// longer than [`MAX_LINE_BYTES`], which is consumed and left out of
/// `line`.
fn read_line(input: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<Option<bool>> {
    line.clear();
    let read = input
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', line)?;
    if read == 0 {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() > MAX_LINE_BYTES {
        line.clear();
        input.skip_until(b'\n')?;
        return Ok(Some(false));
    }
    Ok(Some(true))
}

/// Parses the value of a `--shards` / `--queue-depth` style flag.
fn parse_count(flag: &str, value: Option<String>) -> Result<usize, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse::<usize>()
        .map_err(|_| format!("{flag} value `{value}` is not a non-negative integer"))
}

/// A priority is an exact integer in `i32` range, never a saturated or
/// truncated float.
fn i32_of(value: &Json) -> Option<i32> {
    let n = value.as_f64()?;
    (n.fract() == 0.0 && (f64::from(i32::MIN)..=f64::from(i32::MAX)).contains(&n))
        .then_some(n as i32)
}

fn main() -> ExitCode {
    let mut threads: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut queue_depth: Option<usize> = None;
    let mut journal: Option<String> = None;
    let mut plan_cache: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => match parse_threads_value(args.next()) {
                Ok(value) => threads = Some(value),
                Err(message) => {
                    eprintln!("plan-serve: {message}");
                    return ExitCode::from(2);
                }
            },
            "--shards" => match parse_count("--shards", args.next()) {
                Ok(value) if value >= 1 => shards = Some(value),
                Ok(_) => {
                    eprintln!("plan-serve: --shards must be at least 1");
                    return ExitCode::from(2);
                }
                Err(message) => {
                    eprintln!("plan-serve: {message}");
                    return ExitCode::from(2);
                }
            },
            "--queue-depth" => match parse_count("--queue-depth", args.next()) {
                Ok(value) => queue_depth = Some(value),
                Err(message) => {
                    eprintln!("plan-serve: {message}");
                    return ExitCode::from(2);
                }
            },
            "--journal" => match args.next() {
                Some(path) => journal = Some(path),
                None => {
                    eprintln!("plan-serve: --journal needs a path");
                    return ExitCode::from(2);
                }
            },
            "--plan-cache" => match parse_count("--plan-cache", args.next()) {
                Ok(value) if value >= 1 => plan_cache = Some(value),
                Ok(_) => {
                    eprintln!("plan-serve: --plan-cache must be at least 1");
                    return ExitCode::from(2);
                }
                Err(message) => {
                    eprintln!("plan-serve: {message}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!(
                    "plan-serve: unknown argument `{other}` (supported: --threads N, \
                     --shards N, --queue-depth D, --journal PATH, --plan-cache N)"
                );
                return ExitCode::from(2);
            }
        }
    }

    let sink = Arc::new(NdjsonSink::new(std::io::stdout()));
    let mut builder = ServeTier::builder().sink(Arc::clone(&sink) as Arc<dyn EventSink>);
    if let Some(threads) = threads {
        builder = match builder.threads(threads) {
            Ok(builder) => builder,
            Err(error) => {
                eprintln!("plan-serve: {error}");
                return ExitCode::from(2);
            }
        };
    }
    if let Some(shards) = shards {
        builder = builder.shards(shards);
    }
    if let Some(depth) = queue_depth {
        builder = builder.queue_depth(depth);
    }
    if let Some(path) = &journal {
        builder = builder.journal(path);
    }
    if let Some(capacity) = plan_cache {
        builder = builder.plan_cache(capacity);
    }
    let tier = match builder.build() {
        Ok(tier) => tier,
        Err(error) => {
            eprintln!("plan-serve: {error}");
            return ExitCode::from(2);
        }
    };

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
        match read_line(&mut input, &mut buffer) {
            Ok(Some(true)) => {}
            Ok(Some(false)) => {
                sink.write_line(&wire::error_line(
                    lineno,
                    &format!("line longer than {MAX_LINE_BYTES} bytes"),
                ));
                continue;
            }
            Ok(None) => break,
            Err(error) => {
                sink.write_line(&wire::error_line(
                    lineno,
                    &format!("stdin read failed: {error}"),
                ));
                break;
            }
        }
        let Ok(line) = std::str::from_utf8(&buffer) else {
            sink.write_line(&wire::error_line(lineno, "line is not valid UTF-8"));
            continue;
        };
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        let mut doc = match Json::parse(text) {
            Ok(doc) => doc,
            Err(error) => {
                sink.write_line(&wire::error_line(lineno, &error.to_string()));
                continue;
            }
        };
        if let Some(target) = doc.get("cancel") {
            let cancelled = if let Some(id) = target.as_u64() {
                tier.cancel_by_id(id)
            } else {
                target
                    .as_str()
                    .is_some_and(|name| tier.cancel_by_name(name))
            };
            if !cancelled {
                sink.write_line(&wire::error_line(
                    lineno,
                    &wire::no_such_cancel_target(target),
                ));
            }
            continue;
        }
        // A numeric `priority` is the job's and leaves the document; a
        // string one is the request's core-ordering policy.
        let priority = match doc.get("priority") {
            Some(Json::Num(_)) => {
                let priority = field(&doc, "priority", "an integer fitting i32", i32_of);
                if let Json::Obj(members) = &mut doc {
                    members.retain(|(key, _)| key != "priority");
                }
                priority
            }
            _ => Ok(0),
        };
        let decoded = priority.and_then(|priority| {
            let request = PlanRequest::from_json(&doc)?;
            let client = field_opt(&doc, "client", "a string", Json::as_str)?;
            Ok((request, client, priority))
        });
        match decoded {
            Ok((request, client, priority)) => {
                let name = request.name.clone();
                match tier.submit_for(request, client, priority) {
                    SubmitOutcome::Rejected {
                        request,
                        client,
                        shard,
                        reason,
                    } => {
                        sink.write_line(&wire::rejected_line(&request, &client, &shard, &reason));
                    }
                    SubmitOutcome::Cached { job, content } => {
                        // The synthetic queued/completed pair is already
                        // on the wire; this line carries the provenance.
                        sink.write_line(&wire::cached_line(job.0, &name, &content));
                    }
                    SubmitOutcome::WarmStarted {
                        job,
                        from,
                        distance,
                    } => {
                        sink.write_line(&wire::warm_start_line(job.0, &name, &from, distance));
                    }
                    SubmitOutcome::Admitted { .. } | SubmitOutcome::Deduped { .. } => {}
                }
            }
            Err(error) => sink.write_line(&wire::error_line(lineno, &error.to_string())),
        }
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_past_the_cap_are_skipped_whole() {
        let long = "x".repeat(MAX_LINE_BYTES + 1);
        let fits = "y".repeat(MAX_LINE_BYTES);
        let text = format!("a\r\n{long}\n{fits}\nlast");
        let mut input = text.as_bytes();
        let mut line = Vec::new();
        let mut lines = Vec::new();
        while let Some(fit) = read_line(&mut input, &mut line).unwrap() {
            lines.push((fit, line.len()));
        }
        assert_eq!(
            lines,
            vec![(true, 2), (false, 0), (true, MAX_LINE_BYTES), (true, 4)]
        );
    }
}
