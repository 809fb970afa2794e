//! End-to-end test of the `plan-serve` NDJSON daemon: pipe eight
//! requests (including one with an unknown scheduler and one that gets
//! cancelled) through the binary and byte-check the deterministic fields
//! of the event stream — per-job terminal kinds, makespans, the stable
//! unknown-scheduler message — exactly like the CI smoke step does.

use std::io::Write as _;
use std::process::{Command, Stdio};

use noctest_core::json::Json;

/// A slow-but-bounded `optimal` job: ten cuts (eight cores + two
/// processors) under the default 2M-node expansion budget. It reliably
/// runs long enough that the next lines of stdin (submit + cancel) land
/// while it still occupies the single worker.
fn slow_optimal_line() -> String {
    let cores: Vec<String> = (0..8)
        .map(|i| {
            format!(
                r#"{{"name": "c{i}", "bits_in": 1600, "bits_out": 1600, "patterns": 40, "power": 50.0}}"#
            )
        })
        .collect();
    format!(
        r#"{{"name": "slow", "soc": {{"name": "hard", "cores": [{}]}}, "mesh": {{"width": 4, "height": 4}}, "processors": {{"family": "plasma", "total": 2, "reused": 2}}, "scheduler": "optimal"}}"#,
        cores.join(", ")
    )
}

fn d695_line(name: &str, scheduler: &str) -> String {
    format!(
        r#"{{"name": "{name}", "soc": {{"benchmark": "d695"}}, "mesh": {{"width": 4, "height": 4}}, "processors": {{"family": "plasma", "total": 2, "reused": 2}}, "budget": {{"fraction": 0.6}}, "scheduler": "{scheduler}"}}"#
    )
}

/// The canonical digest the CI smoke step byte-checks: one line per job
/// (ordered by id) with its terminal kind and deterministic payload
/// (makespan for completed jobs, the error message for failed ones),
/// plus the daemon's closing line.
fn canonical_digest(stream: &str) -> String {
    let mut terminal: Vec<(u64, String)> = Vec::new();
    let mut done = String::new();
    for line in stream.lines() {
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("bad NDJSON line `{line}`: {e}"));
        let event = doc.get("event").and_then(Json::as_str).expect("event kind");
        match event {
            "completed" => {
                let job = doc.get("job").and_then(Json::as_u64).expect("job id");
                let name = doc.get("request").and_then(Json::as_str).expect("name");
                let makespan = doc
                    .get("outcome")
                    .and_then(|o| o.get("makespan"))
                    .and_then(Json::as_u64)
                    .expect("makespan");
                terminal.push((
                    job,
                    format!("job={job} {name} completed makespan={makespan}"),
                ));
            }
            "failed" => {
                let job = doc.get("job").and_then(Json::as_u64).expect("job id");
                let name = doc.get("request").and_then(Json::as_str).expect("name");
                let error = doc.get("error").and_then(Json::as_str).expect("error");
                terminal.push((job, format!("job={job} {name} failed error={error}")));
            }
            "cancelled" => {
                let job = doc.get("job").and_then(Json::as_u64).expect("job id");
                let name = doc.get("request").and_then(Json::as_str).expect("name");
                terminal.push((job, format!("job={job} {name} cancelled")));
            }
            "done" => {
                let jobs = doc.get("jobs").and_then(Json::as_u64).expect("jobs");
                done = format!("done jobs={jobs}");
            }
            "queued" | "started" | "stage_finished" | "error" => {}
            other => panic!("unknown event kind `{other}` in `{line}`"),
        }
    }
    terminal.sort();
    let mut digest: Vec<String> = terminal.into_iter().map(|(_, line)| line).collect();
    digest.push(done);
    digest.join("\n")
}

#[test]
fn eight_request_session_produces_the_expected_deterministic_stream() {
    // Job 1 pins the single worker for seconds; job 2 queues behind it
    // and is cancelled two lines later — deterministically still queued.
    // Job 3 names an unknown scheduler (in-band `failed` event carrying
    // the registry's stable message). Jobs 4–8 plan d695 under every
    // registered scalable scheduler. One line is not JSON at all
    // (daemon-level `error` event, daemon keeps serving).
    let input = [
        slow_optimal_line(),
        d695_line("doomed", "greedy"),
        r#"{"cancel": "doomed"}"#.to_owned(),
        d695_line("invalid", "annealing"),
        "this is not json".to_owned(),
        d695_line("g", "greedy"),
        d695_line("s", "smart"),
        d695_line("base", "serial"),
        d695_line("g2", "greedy"),
    ]
    .join("\n")
        + "\n";

    let mut child = Command::new(env!("CARGO_BIN_EXE_plan-serve"))
        .args(["--threads", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("plan-serve spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("request stream written");
    let output = child.wait_with_output().expect("plan-serve exits");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8 stream");

    // The daemon-level error for the non-JSON line is present and names
    // the line number.
    assert!(
        stdout
            .lines()
            .any(|l| l.contains(r#""event":"error"#) && l.contains(r#""line":5"#)),
        "{stdout}"
    );

    // Makespans are deterministic; compute the expected ones in-process.
    use noctest_core::plan::{Campaign, PlanRequest};
    let campaign = Campaign::new();
    let expect = |name: &str, scheduler: &str| {
        campaign
            .run(&PlanRequest::from_json_str(&d695_line(name, scheduler)).unwrap())
            .unwrap()
            .makespan
    };
    let slow_outcome = campaign
        .run(&PlanRequest::from_json_str(&slow_optimal_line()).unwrap())
        .unwrap();
    let expected = format!(
        "job=1 slow completed makespan={}\n\
         job=2 doomed cancelled\n\
         job=3 invalid failed error=unknown scheduler `annealing` (registered: greedy, optimal, optimal-par, portfolio, serial, smart)\n\
         job=4 g completed makespan={}\n\
         job=5 s completed makespan={}\n\
         job=6 base completed makespan={}\n\
         job=7 g2 completed makespan={}\n\
         done jobs=7",
        slow_outcome.makespan,
        expect("g", "greedy"),
        expect("s", "smart"),
        expect("base", "serial"),
        expect("g2", "greedy"),
    );
    assert_eq!(canonical_digest(&stdout), expected, "stream:\n{stdout}");

    // Lifecycle sanity on the raw stream: the cancelled job never
    // started, every other job's queued line precedes its terminal line.
    assert!(!stdout
        .lines()
        .any(|l| l.contains(r#""event":"started","job":2,"#)));
}

/// The daemon-level `priority` and `client` members are typed: a
/// numeric priority that is not an integer in `i32` range, or a client
/// that is not a string, gets an in-band `error` line instead of running
/// at a saturated priority or under no client. A string `priority` is
/// the request's core-ordering policy, decoded by the request.
#[test]
fn mistyped_priority_and_client_are_errors_not_ignored() {
    let with = |members: &str| {
        let line = d695_line("p", "greedy");
        format!("{}, {members}}}", &line[..line.len() - 1])
    };
    let input = [
        with(r#""priority": "high""#),
        with(r#""priority": 1e12"#),
        with(r#""priority": 1.5"#),
        with(r#""client": 5"#),
        with(r#""priority": -3, "client": "alice""#),
        with(r#""priority": "index""#),
    ]
    .join("\n")
        + "\n";
    let journal = std::env::temp_dir().join(format!(
        "noctest-plan-serve-typed-members-{}.ndjson",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);
    let mut child = Command::new(env!("CARGO_BIN_EXE_plan-serve"))
        .args(["--threads", "1", "--journal"])
        .arg(&journal)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("plan-serve spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("request stream written");
    let output = child.wait_with_output().expect("plan-serve exits");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8 stream");
    let errors: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains(r#""event":"error""#))
        .collect();
    assert_eq!(
        errors,
        [
            r#"{"event":"error","line":1,"error":"json error at byte 0: unknown priority `high`"}"#,
            r#"{"event":"error","line":2,"error":"json error at byte 0: member `priority` is not an integer fitting i32"}"#,
            r#"{"event":"error","line":3,"error":"json error at byte 0: member `priority` is not an integer fitting i32"}"#,
            r#"{"event":"error","line":4,"error":"json error at byte 0: member `client` is not a string"}"#,
        ],
        "stream:\n{stdout}"
    );
    // The well-typed members reached the job.
    let records = std::fs::read_to_string(&journal).expect("journal written");
    let _ = std::fs::remove_file(&journal);
    assert!(
        records.contains(r#""record":"submit","job":1,"key":"#)
            && records.contains(r#","priority":-3,"client":"alice","request":"#),
        "{records}"
    );
    // The two well-typed lines are the jobs the daemon ran.
    let campaign = noctest_core::plan::Campaign::new();
    let makespan = |line: &str| {
        let request = noctest_core::plan::PlanRequest::from_json_str(line).unwrap();
        campaign.run(&request).unwrap().makespan
    };
    assert_eq!(
        canonical_digest(&stdout),
        format!(
            "job=1 p completed makespan={}\njob=2 p completed makespan={}\ndone jobs=2",
            makespan(&d695_line("p", "greedy")),
            makespan(&with(r#""priority": "index""#)),
        ),
        "stream:\n{stdout}"
    );
}

/// Pipes `input` through `plan-serve --threads 1` and returns its event
/// stream.
fn serve(input: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_plan-serve"))
        .args(["--threads", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("plan-serve spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("request stream written");
    let output = child.wait_with_output().expect("plan-serve exits");
    assert!(output.status.success(), "{output:?}");
    String::from_utf8(output.stdout).expect("utf8 stream")
}

/// A misspelt member is refused with one in-band `error` line instead of
/// planning with the default it was meant to override: no job is queued.
#[test]
fn a_misspelt_member_gets_one_error_line_and_no_job() {
    let stdout = serve(
        "{\"name\":\"typo\",\"soc\":{\"benchmark\":\"d695\"},\"mesh\":{\"width\":4,\"height\":4},\
         \"schedular\":\"optimal\",\"fidelty\":2}\n",
    );
    assert_eq!(
        stdout,
        "{\"event\":\"error\",\"line\":1,\"error\":\"json error at byte 0: \
         `request` has unknown member `schedular`\"}\n\
         {\"event\":\"done\",\"jobs\":0}\n"
    );
}

/// `client` is a daemon member, not a request member: it is taken off
/// before the closed request decoder sees the line, and the job plans.
#[test]
fn a_client_member_is_removed_before_the_request_decodes() {
    let line = d695_line("p", "greedy");
    let with_client = format!("{}, \"client\": \"alice\"}}\n", &line[..line.len() - 1]);
    let stdout = serve(&with_client);
    assert!(!stdout.contains(r#""event":"error""#), "{stdout}");
    let request = noctest_core::plan::PlanRequest::from_json_str(&line).unwrap();
    let makespan = noctest_core::plan::Campaign::new()
        .run(&request)
        .unwrap()
        .makespan;
    assert_eq!(
        canonical_digest(&stdout),
        format!("job=1 p completed makespan={makespan}\ndone jobs=1"),
        "stream:\n{stdout}"
    );
}

/// A SoC with no cores and no processors fails its job with a message
/// that names the SoC as having nothing to test, not as a mesh error; a
/// SoC of processors alone still plans their self-tests.
#[test]
fn an_empty_soc_fails_as_nothing_to_test() {
    let processors_only = r#"{"name":"procs","soc":{"cores":[]},"mesh":{"width":3,"height":3},"processors":{"family":"leon","total":2,"reused":2}}"#;
    let stdout = serve(&format!(
        "{}\n{processors_only}\n",
        r#"{"name":"empty","soc":{"cores":[]},"mesh":{"width":2,"height":2}}"#
    ));
    let request = noctest_core::plan::PlanRequest::from_json_str(processors_only).unwrap();
    let makespan = noctest_core::plan::Campaign::new()
        .run(&request)
        .unwrap()
        .makespan;
    assert_eq!(
        canonical_digest(&stdout),
        format!(
            "job=1 empty failed error=planning failed: SoC `custom` has nothing to test: \
             no cores and no processors\n\
             job=2 procs completed makespan={makespan}\n\
             done jobs=2"
        ),
        "stream:\n{stdout}"
    );
}
