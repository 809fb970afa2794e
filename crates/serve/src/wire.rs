//! The daemon's line protocol: how an input line is read and decoded,
//! and the in-band lines the daemon answers with. These are protocol
//! surface — the exact bytes are pinned by tests here and by the CI
//! smoke scripts, so changing any of them is a wire-format break, not a
//! refactor.
//!
//! An input line is at most [`MAX_LINE_BYTES`] long ([`read_line`]), and
//! [`decode_line`] makes it a [`Line`]: a `{"cancel": id | name}` control
//! line, or a plan request with two daemon members beside its own. A
//! string `"client"` names the submitter, and clients take turns in the
//! queue; a numeric `"priority"` (an integer in `i32` range, higher runs
//! first) orders the job among its client's own, while a string
//! `"priority"` is the request's core-ordering policy and stays with it.
//! The daemon members are taken off before [`PlanRequest::from_json`],
//! whose member set is closed, decodes the rest; journal recovery reads
//! them from a submit record the same way.
//!
//! Five daemon-level line kinds sit alongside the executor's event
//! stream (`queued` / `started` / `stage_finished` / `completed` /
//! `failed` / `cancelled`):
//!
//! ```text
//! {"event":"error","line":5,"error":"…"}
//! {"event":"rejected","request":"r9","client":"greedy","shard":"s0","reason":"…"}
//! {"event":"cached","job":3,"request":"r1","content":"00f1e2d3c4b5a697"}
//! {"event":"warm_start","job":4,"request":"r2","from":"00f1e2d3c4b5a697","distance":1}
//! {"event":"done","jobs":7}
//! ```

use std::io::{self, BufRead, Read};

use noctest_core::json::{field_opt, field_or, only_members, Json, JsonError};
use noctest_core::plan::PlanRequest;

/// The longest input line the daemon reads, in bytes (newline excluded).
/// A longer line is skipped without being buffered and answered with an
/// `error` line.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Reads the next line of `input` into `line`, without its newline.
/// Returns `None` at the end of the input and `Some(false)` for a line
/// longer than [`MAX_LINE_BYTES`], which is consumed and left out of
/// `line`.
///
/// # Errors
///
/// Any [`io::Error`] from reading `input`.
pub fn read_line(input: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<Option<bool>> {
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

/// One decoded input line.
#[derive(Debug, Clone, PartialEq)]
pub enum Line {
    /// A plan request to submit, with its daemon members.
    Submit {
        /// The request, decoded without the daemon members.
        request: Box<PlanRequest>,
        /// The submitting client (`None` is the anonymous client).
        client: Option<String>,
        /// The job's priority (0 when the line gives none).
        priority: i32,
    },
    /// A cancel line; the target is the id or request name as sent.
    Cancel(Json),
}

/// Decodes one input line (without its newline): a cancel line, or a
/// plan request whose daemon members are taken off before the request
/// is decoded.
///
/// # Errors
///
/// The text of the daemon's `error` line: a line longer than
/// [`MAX_LINE_BYTES`], one that is not UTF-8 or not JSON, a cancel line
/// with a member besides `cancel`, a mistyped daemon member, or any
/// [`PlanRequest::from_json`] error.
pub fn decode_line(line: &[u8]) -> Result<Line, String> {
    if line.len() > MAX_LINE_BYTES {
        return Err(line_too_long());
    }
    let text = std::str::from_utf8(line).map_err(|_| "line is not valid UTF-8".to_owned())?;
    let doc = Json::parse(text.trim()).map_err(|error| error.to_string())?;
    decode_doc(doc).map_err(|error| error.to_string())
}

fn decode_doc(doc: Json) -> Result<Line, JsonError> {
    if let Some(target) = doc.get("cancel") {
        only_members(&doc, "cancel", &["cancel"])?;
        return Ok(Line::Cancel(target.clone()));
    }
    // A line that is not an object has no members: the request decoder
    // names the first one it misses.
    let members = match doc {
        Json::Obj(members) => members,
        _ => Vec::new(),
    };
    let (daemon, request): (Vec<_>, Vec<_>) = members.into_iter().partition(|(key, value)| {
        key == "client" || (key == "priority" && matches!(value, Json::Num(_)))
    });
    let (client, priority) = daemon_members(&Json::Obj(daemon))?;
    Ok(Line::Submit {
        request: Box::new(PlanRequest::from_json(&Json::Obj(request))?),
        client,
        priority,
    })
}

/// The daemon members of `doc`: `client`, a string, and `priority`, an
/// exact integer in `i32` range (0 when absent) — never a saturated or
/// truncated float.
pub(crate) fn daemon_members(doc: &Json) -> Result<(Option<String>, i32), JsonError> {
    let priority = field_or(doc, "priority", "an integer fitting i32", 0, |value| {
        let n = value.as_f64()?;
        (n.fract() == 0.0 && (f64::from(i32::MIN)..=f64::from(i32::MAX)).contains(&n))
            .then_some(n as i32)
    })?;
    let client = field_opt(doc, "client", "a string", Json::as_str)?.map(str::to_owned);
    Ok((client, priority))
}

/// The stable message for a line longer than [`MAX_LINE_BYTES`].
#[must_use]
pub fn line_too_long() -> String {
    format!("line longer than {MAX_LINE_BYTES} bytes")
}

/// A daemon-level input error: line `line` of stdin could not be served.
/// The daemon keeps reading; the event is the only trace.
#[must_use]
pub fn error_line(line: u64, message: &str) -> Json {
    Json::obj(vec![
        ("event", Json::str("error")),
        ("line", Json::int(line)),
        ("error", Json::str(message)),
    ])
}

/// An admission rejection for `request` from `client` (empty string for
/// an anonymous client) on shard `shard`.
#[must_use]
pub fn rejected_line(request: &str, client: &str, shard: &str, reason: &str) -> Json {
    Json::obj(vec![
        ("event", Json::str("rejected")),
        ("request", Json::str(request)),
        ("client", Json::str(client)),
        ("shard", Json::str(shard)),
        ("reason", Json::str(reason)),
    ])
}

/// The stable human-readable reason of a per-client queue-full
/// rejection.
#[must_use]
pub fn rejection_reason(client: &str, depth: usize, shard: &str) -> String {
    let who = if client.is_empty() {
        "the anonymous client".to_owned()
    } else {
        format!("client `{client}`")
    };
    format!("queue full: {who} already holds {depth} waiting jobs on shard {shard}")
}

/// A plan-cache hit: `request` (job `job`) was served the cached outcome
/// for content hash `content` without planning.
#[must_use]
pub fn cached_line(job: u64, request: &str, content: &str) -> Json {
    Json::obj(vec![
        ("event", Json::str("cached")),
        ("job", Json::int(job)),
        ("request", Json::str(request)),
        ("content", Json::str(content)),
    ])
}

/// A warm-started admission: job `job` will search from the retimed
/// schedule of the cached donor `from`, `distance` edits away.
#[must_use]
pub fn warm_start_line(job: u64, request: &str, from: &str, distance: u32) -> Json {
    Json::obj(vec![
        ("event", Json::str("warm_start")),
        ("job", Json::int(job)),
        ("request", Json::str(request)),
        ("from", Json::str(from)),
        ("distance", Json::int(u64::from(distance))),
    ])
}

/// The closing line once stdin is drained and every job is terminal.
#[must_use]
pub fn done_line(jobs: u64) -> Json {
    Json::obj(vec![
        ("event", Json::str("done")),
        ("jobs", Json::int(jobs)),
    ])
}

/// The stable message for a cancel target that matches no job
/// (`target` is the raw JSON the client sent, compact form).
#[must_use]
pub fn no_such_cancel_target(target: &Json) -> String {
    format!("cancel target {} matches no job", target.compact())
}

#[cfg(test)]
mod tests {
    use super::*;
    use noctest_core::PriorityPolicy;

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

    #[test]
    fn decode_line_answers_every_line_kind_exactly() {
        const D695: &str = r#""soc": {"benchmark": "d695"}, "mesh": {"width": 4, "height": 4}"#;
        let request = |members: &str| format!("{{{D695}{members}}}");
        let submit = |priority: i32, client: Option<&str>, policy: PriorityPolicy| {
            let mut request = PlanRequest::benchmark("d695", 4, 4).with_name("");
            request.priority = policy;
            Ok(Line::Submit {
                request: Box::new(request),
                client: client.map(str::to_owned),
                priority,
            })
        };
        let error = |message: &str| Err(message.to_owned());
        let distance = PriorityPolicy::Distance;
        let cases: Vec<(Vec<u8>, Result<Line, String>)> = vec![
            (
                vec![b' '; MAX_LINE_BYTES + 1],
                error("line longer than 1048576 bytes"),
            ),
            (
                b"{\"cancel\": \"caf\xC3\"}".to_vec(),
                error("line is not valid UTF-8"),
            ),
            (
                b"this is not json".to_vec(),
                error("json error at byte 0: expected `true`"),
            ),
            (b"{\"cancel\": 3}".to_vec(), Ok(Line::Cancel(Json::int(3)))),
            (
                b" {\"cancel\": \"doomed\"} ".to_vec(),
                Ok(Line::Cancel(Json::str("doomed"))),
            ),
            // A target that names no job still decodes: only the tier
            // knows which jobs exist, and the daemon answers with
            // `no_such_cancel_target`.
            (
                b"{\"cancel\": [1]}".to_vec(),
                Ok(Line::Cancel(Json::Arr(vec![Json::int(1)]))),
            ),
            (
                b"{\"cancel\": 3, \"client\": \"alice\"}".to_vec(),
                error("json error at byte 0: `cancel` has unknown member `client`"),
            ),
            (request("").into_bytes(), submit(0, None, distance)),
            (
                request(r#", "priority": -3, "client": "alice""#).into_bytes(),
                submit(-3, Some("alice"), distance),
            ),
            (
                request(r#", "priority": "index""#).into_bytes(),
                submit(0, None, PriorityPolicy::Index),
            ),
            (
                request(r#", "priority": 2.5"#).into_bytes(),
                error("json error at byte 0: member `priority` is not an integer fitting i32"),
            ),
            (
                request(r#", "priority": 3e9"#).into_bytes(),
                error("json error at byte 0: member `priority` is not an integer fitting i32"),
            ),
            (
                request(r#", "client": 7"#).into_bytes(),
                error("json error at byte 0: member `client` is not a string"),
            ),
            (
                request(r#", "schedular": "optimal""#).into_bytes(),
                error("json error at byte 0: `request` has unknown member `schedular`"),
            ),
            (
                b"[1]".to_vec(),
                error("json error at byte 0: missing member `soc` (an object)"),
            ),
        ];
        for (line, expected) in cases {
            let shown = String::from_utf8_lossy(&line[..line.len().min(80)]).into_owned();
            assert_eq!(decode_line(&line), expected, "{shown}");
        }
        assert_eq!(
            no_such_cancel_target(&Json::Arr(vec![Json::int(1)])),
            "cancel target [1] matches no job"
        );
    }

    // Exact-byte pins: these strings are parsed by scripts and remote
    // clients. A failure here is a protocol break.

    #[test]
    fn error_line_bytes() {
        assert_eq!(
            error_line(5, "boom").compact(),
            r#"{"event":"error","line":5,"error":"boom"}"#
        );
    }

    #[test]
    fn rejected_line_bytes() {
        assert_eq!(
            rejected_line(
                "r9",
                "greedy",
                "s0",
                rejection_reason("greedy", 4, "s0").as_str()
            )
            .compact(),
            r#"{"event":"rejected","request":"r9","client":"greedy","shard":"s0","reason":"queue full: client `greedy` already holds 4 waiting jobs on shard s0"}"#
        );
        assert_eq!(
            rejection_reason("", 2, "s1"),
            "queue full: the anonymous client already holds 2 waiting jobs on shard s1"
        );
    }

    #[test]
    fn cached_line_bytes() {
        assert_eq!(
            cached_line(3, "r1", "00f1e2d3c4b5a697").compact(),
            r#"{"event":"cached","job":3,"request":"r1","content":"00f1e2d3c4b5a697"}"#
        );
    }

    #[test]
    fn warm_start_line_bytes() {
        assert_eq!(
            warm_start_line(4, "r2", "00f1e2d3c4b5a697", 1).compact(),
            r#"{"event":"warm_start","job":4,"request":"r2","from":"00f1e2d3c4b5a697","distance":1}"#
        );
    }

    #[test]
    fn done_line_bytes() {
        assert_eq!(done_line(7).compact(), r#"{"event":"done","jobs":7}"#);
    }

    #[test]
    fn cancel_miss_message_bytes() {
        assert_eq!(
            no_such_cancel_target(&Json::str("doomed")),
            r#"cancel target "doomed" matches no job"#
        );
        assert_eq!(
            no_such_cancel_target(&Json::int(9)),
            "cancel target 9 matches no job"
        );
    }
}
