//! The durable job journal: append-only NDJSON records of every
//! submission and terminal outcome, so a restarted daemon replays what
//! was queued and serves what was completed.
//!
//! Four record kinds, one compact JSON object per line:
//!
//! ```text
//! {"record":"submit","job":3,"key":"<16-hex>","priority":0,"client":"alice","request":{…}}
//! {"record":"completed","job":3,"key":"<16-hex>","outcome":{…}}
//! {"record":"failed","job":4,"error":"…"}
//! {"record":"cancelled","job":5}
//! ```
//!
//! `submit` is written *before* the job's `queued` event goes out: the
//! journal is the source of truth, so a job a client has seen announced
//! is always recoverable. Terminal records are written after the
//! terminal event. A crash can therefore leave a job with a submit
//! record and no terminal record — [`recover`] classifies exactly those
//! as pending, and the tier replays them with their original ids.
//!
//! The `completed` record embeds the outcome's canonical JSON verbatim
//! (the same bytes the `completed` wire event carried), which is what
//! lets a restarted daemon serve a deduplicated resubmission
//! byte-identically: the compact writer is a pure function of the value,
//! and float formatting is shortest-roundtrip, so parse → re-emit
//! reproduces the original bytes.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use noctest_core::json::Json;
use noctest_core::plan::PlanRequest;

use crate::key::RequestKey;

/// An append-only journal file. Every record is flushed as it is
/// written; a failed write latches [`Journal::failed`] (mirroring
/// `NdjsonSink`) instead of panicking a worker mid-event.
pub struct Journal {
    out: Mutex<File>,
    path: PathBuf,
    failed: AtomicBool,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("path", &self.path).finish()
    }
}

impl Journal {
    /// Opens (creating if missing) the journal for appending.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from opening the file.
    pub fn open_append(path: &Path) -> std::io::Result<Journal> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal {
            out: Mutex::new(file),
            path: path.to_path_buf(),
            failed: AtomicBool::new(false),
        })
    }

    /// The journal's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record line (compact JSON + newline, flushed).
    pub fn append(&self, record: &Json) {
        let mut out = self
            .out
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if writeln!(out, "{}", record.compact()).is_err() || out.flush().is_err() {
            self.failed.store(true, Ordering::Relaxed);
        }
    }

    /// `true` once any record failed to persist (the journal is
    /// incomplete from that point on; recovery degrades to replanning).
    #[must_use]
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }
}

/// Builds a `submit` record.
#[must_use]
pub fn submit_record(
    job: u64,
    key: RequestKey,
    priority: i32,
    client: Option<&str>,
    request: &Json,
) -> Json {
    let mut members = vec![
        ("record", Json::str("submit")),
        ("job", Json::int(job)),
        ("key", Json::str(key.to_hex())),
        ("priority", Json::Num(f64::from(priority))),
    ];
    if let Some(client) = client {
        members.push(("client", Json::str(client)));
    }
    members.push(("request", request.clone()));
    Json::obj(members)
}

/// Builds a `completed` record carrying the outcome's canonical JSON.
#[must_use]
pub fn completed_record(job: u64, key: RequestKey, outcome: &Json) -> Json {
    Json::obj(vec![
        ("record", Json::str("completed")),
        ("job", Json::int(job)),
        ("key", Json::str(key.to_hex())),
        ("outcome", outcome.clone()),
    ])
}

/// Builds a `failed` record.
#[must_use]
pub fn failed_record(job: u64, error: &str) -> Json {
    Json::obj(vec![
        ("record", Json::str("failed")),
        ("job", Json::int(job)),
        ("error", Json::str(error)),
    ])
}

/// Builds a `cancelled` record.
#[must_use]
pub fn cancelled_record(job: u64) -> Json {
    Json::obj(vec![
        ("record", Json::str("cancelled")),
        ("job", Json::int(job)),
    ])
}

/// One journaled submission that never reached a terminal record — a job
/// the previous process accepted but did not finish.
#[derive(Debug, Clone)]
pub struct PendingJob {
    /// The job's original id (replay preserves it).
    pub job: u64,
    /// The content key recorded at submission.
    pub key: RequestKey,
    /// The decoded request.
    pub request: PlanRequest,
    /// The canonical request text as journaled.
    pub request_text: String,
    /// The submitting client, if any.
    pub client: Option<String>,
    /// The submission priority.
    pub priority: i32,
}

/// One journaled completion, as needed for deduplication.
#[derive(Debug, Clone)]
pub struct CompletedJob {
    /// The job that produced the outcome.
    pub job: u64,
    /// The canonical request text (from the matching submit record).
    pub request_text: String,
    /// The outcome's compact JSON text, byte-identical to the journal
    /// record's `outcome` member (decode with
    /// [`noctest_core::plan::PlanOutcome::from_json_str`]).
    pub outcome: String,
}

/// Everything [`recover`] reconstructs from a journal file.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Jobs submitted but not terminal, in ascending id order.
    pub pending: Vec<PendingJob>,
    /// Completed outcomes by content key (first completion wins — the
    /// planner is deterministic, so later ones are identical anyway).
    pub completed: HashMap<RequestKey, CompletedJob>,
    /// One past the highest journaled job id (1 for an empty journal) —
    /// the restart-safe floor for the id allocator.
    pub next_job_id: u64,
    /// Lines that failed to parse and were skipped (a crash can truncate
    /// the final line; anything else here suggests corruption).
    pub skipped_lines: usize,
}

/// Replays a journal file into a [`Recovery`]. A missing file is an
/// empty recovery, not an error; unparsable lines are skipped and
/// counted (a kill can truncate the last record mid-write).
///
/// # Errors
///
/// Any [`std::io::Error`] from reading an existing file.
pub fn recover(path: &Path) -> std::io::Result<Recovery> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Recovery {
                next_job_id: 1,
                ..Recovery::default()
            })
        }
        Err(error) => return Err(error),
    };

    struct Submit {
        key: RequestKey,
        request: PlanRequest,
        request_text: String,
        client: Option<String>,
        priority: i32,
        terminal: bool,
        completed: Option<String>,
    }
    let mut submits: BTreeMap<u64, Submit> = BTreeMap::new();
    let mut recovery = Recovery {
        next_job_id: 1,
        ..Recovery::default()
    };

    // Raw byte lines, not `.lines()`: a crash can truncate the tail
    // record in the middle of a multi-byte UTF-8 sequence, and the
    // line-by-line UTF-8 validation would turn that one damaged line into
    // an error aborting the whole recovery. Invalid UTF-8 is just another
    // unparsable line: skip it, count it, keep every record before it.
    let mut reader = BufReader::new(file);
    let mut raw = Vec::new();
    loop {
        raw.clear();
        if reader.read_until(b'\n', &mut raw)? == 0 {
            break;
        }
        let Ok(line) = std::str::from_utf8(&raw) else {
            recovery.skipped_lines += 1;
            continue;
        };
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        let Ok(doc) = Json::parse(text) else {
            recovery.skipped_lines += 1;
            continue;
        };
        let (Some(kind), Some(job)) = (
            doc.get("record").and_then(Json::as_str),
            doc.get("job").and_then(Json::as_u64),
        ) else {
            recovery.skipped_lines += 1;
            continue;
        };
        recovery.next_job_id = recovery.next_job_id.max(job + 1);
        match kind {
            "submit" => {
                let parsed = (|| {
                    let key = RequestKey::from_hex(doc.get("key")?.as_str()?)?;
                    let request_doc = doc.get("request")?;
                    let request = PlanRequest::from_json(request_doc).ok()?;
                    Some(Submit {
                        key,
                        request_text: request_doc.compact(),
                        request,
                        client: doc.get("client").and_then(Json::as_str).map(str::to_owned),
                        priority: doc.get("priority").and_then(Json::as_f64).unwrap_or(0.0) as i32,
                        terminal: false,
                        completed: None,
                    })
                })();
                match parsed {
                    // A resubmitted id (shouldn't happen, but a journal is
                    // input): last submit wins.
                    Some(submit) => {
                        submits.insert(job, submit);
                    }
                    None => recovery.skipped_lines += 1,
                }
            }
            "completed" => {
                if let Some(submit) = submits.get_mut(&job) {
                    submit.terminal = true;
                    submit.completed = doc.get("outcome").map(Json::compact);
                } else {
                    recovery.skipped_lines += 1;
                }
            }
            "failed" | "cancelled" => {
                if let Some(submit) = submits.get_mut(&job) {
                    submit.terminal = true;
                } else {
                    recovery.skipped_lines += 1;
                }
            }
            _ => recovery.skipped_lines += 1,
        }
    }

    for (job, submit) in submits {
        if let Some(outcome) = submit.completed {
            recovery
                .completed
                .entry(submit.key)
                .or_insert_with(|| CompletedJob {
                    job,
                    request_text: submit.request_text,
                    outcome,
                });
        } else if !submit.terminal {
            recovery.pending.push(PendingJob {
                job,
                key: submit.key,
                request: submit.request,
                request_text: submit.request_text,
                client: submit.client,
                priority: submit.priority,
            });
        }
    }
    Ok(recovery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noctest_core::plan::PlanRequest;

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "noctest-journal-{tag}-{}-{n}.ndjson",
            std::process::id()
        ))
    }

    fn request(name: &str) -> PlanRequest {
        PlanRequest::benchmark("d695", 4, 4).with_name(name)
    }

    #[test]
    fn missing_journal_recovers_empty() {
        let recovery = recover(Path::new("/nonexistent/never/journal.ndjson")).unwrap();
        assert!(recovery.pending.is_empty());
        assert!(recovery.completed.is_empty());
        assert_eq!(recovery.next_job_id, 1);
    }

    #[test]
    fn submit_without_terminal_is_pending_and_ids_resume_past_the_max() {
        let path = temp_path("pending");
        let journal = Journal::open_append(&path).unwrap();
        let r1 = request("one");
        let r2 = request("two");
        let (k1, k2) = (RequestKey::of(&r1), RequestKey::of(&r2));
        journal.append(&submit_record(1, k1, 0, Some("alice"), &r1.to_json()));
        journal.append(&submit_record(2, k2, 3, None, &r2.to_json()));
        journal.append(&cancelled_record(1));
        drop(journal);

        let recovery = recover(&path).unwrap();
        assert_eq!(recovery.pending.len(), 1);
        let pending = &recovery.pending[0];
        assert_eq!(pending.job, 2);
        assert_eq!(pending.key, k2);
        assert_eq!(pending.request, r2);
        assert_eq!(pending.priority, 3);
        assert_eq!(pending.client, None);
        assert_eq!(recovery.next_job_id, 3);
        assert_eq!(recovery.skipped_lines, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn completed_records_feed_the_dedupe_map_and_tolerate_truncation() {
        let path = temp_path("completed");
        let journal = Journal::open_append(&path).unwrap();
        let r = request("done");
        let key = RequestKey::of(&r);
        let outcome = Json::obj(vec![("makespan", Json::int(42))]);
        journal.append(&submit_record(7, key, 0, None, &r.to_json()));
        journal.append(&completed_record(7, key, &outcome));
        drop(journal);
        // Simulate a kill mid-write: append a truncated record.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"record\":\"submit\",\"job\":9,\"ke").unwrap();
        }

        let recovery = recover(&path).unwrap();
        assert!(recovery.pending.is_empty());
        let hit = recovery.completed.get(&key).expect("dedupe entry");
        assert_eq!(hit.job, 7);
        assert_eq!(hit.outcome, outcome.compact());
        assert_eq!(hit.request_text, r.to_json().compact());
        assert_eq!(recovery.next_job_id, 8);
        assert_eq!(recovery.skipped_lines, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_inside_a_multibyte_character_is_skipped_not_fatal() {
        let path = temp_path("utf8-tail");
        let journal = Journal::open_append(&path).unwrap();
        let r = request("survivor");
        let key = RequestKey::of(&r);
        journal.append(&submit_record(3, key, 0, Some("客户"), &r.to_json()));
        drop(journal);
        // Simulate a kill mid-write that splits a multi-byte UTF-8
        // sequence: the client name "café" truncated after the first byte
        // of the two-byte 'é' (0xC3). `.lines()` would return an
        // InvalidData error here and abort the whole recovery.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"record\":\"submit\",\"job\":9,\"client\":\"caf\xC3")
                .unwrap();
        }

        let recovery = recover(&path).unwrap();
        assert_eq!(recovery.pending.len(), 1, "the intact record survives");
        assert_eq!(recovery.pending[0].job, 3);
        assert_eq!(recovery.pending[0].client.as_deref(), Some("客户"));
        assert_eq!(recovery.skipped_lines, 1);
        // The damaged tail never carried a parsable job id: ids resume
        // after the highest *recovered* record.
        assert_eq!(recovery.next_job_id, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_lines_are_byte_stable() {
        let r = request("wire");
        let key = RequestKey(0x0123_4567_89ab_cdef);
        assert_eq!(
            cancelled_record(5).compact(),
            r#"{"record":"cancelled","job":5}"#
        );
        assert_eq!(
            failed_record(6, "boom").compact(),
            r#"{"record":"failed","job":6,"error":"boom"}"#
        );
        let submit = submit_record(1, key, -2, Some("alice"), &r.to_json()).compact();
        assert!(
            submit.starts_with(
                r#"{"record":"submit","job":1,"key":"0123456789abcdef","priority":-2,"client":"alice","request":{"#
            ),
            "{submit}"
        );
    }
}
