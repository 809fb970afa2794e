//! The shared bench artifact: its flags, exit codes and two-run check on
//! toy workloads, and the layout of the four committed `BENCH_*.json`
//! files it writes (a stale committed file fails here).

use std::cell::Cell;

use noctest_bench::artifact::{available_cores, BenchArtifact, BenchRun};
use noctest_core::json::Json;

const ARTIFACT: BenchArtifact = BenchArtifact {
    name: "unit-bench",
    out: "BENCH_unit.json",
    about: "a unit-test workload",
    threads: false,
};

fn out_path(tag: &str) -> String {
    let file = format!("noctest-artifact-{}-{tag}.json", std::process::id());
    std::env::temp_dir().join(file).display().to_string()
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

fn run(deterministic: Json, failures: u32) -> BenchRun {
    BenchRun {
        config: vec![("rounds", Json::int(3))],
        deterministic,
        measured: Json::obj(vec![("micros", Json::int(7))]),
        failures,
        summary: "unit".to_owned(),
    }
}

fn keys(json: &Json) -> Vec<&str> {
    json.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn writes_config_deterministic_and_measured() {
    let out = out_path("ok");
    let code = ARTIFACT.run(args(&["--smoke", "--seed", "9", "--out", &out]), |a| {
        run(Json::int(a.seed), 0)
    });
    assert_eq!(code, 0);
    let report = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    std::fs::remove_file(&out).unwrap();
    assert_eq!(keys(&report), ["config", "deterministic", "measured"]);
    let config = report.get("config").unwrap();
    assert_eq!(keys(config), ["mode", "seed", "cores", "rounds"]);
    assert_eq!(config.get("mode").and_then(Json::as_str), Some("smoke"));
    assert_eq!(config.get("seed").and_then(Json::as_u64), Some(9));
    assert_eq!(
        config.get("cores").and_then(Json::as_u64),
        Some(available_cores() as u64)
    );
    assert_eq!(report.get("deterministic"), Some(&Json::int(9)));
}

#[test]
fn runs_that_disagree_fail_the_artifact() {
    let out = out_path("drift");
    let calls = Cell::new(0u64);
    let code = ARTIFACT.run(args(&["--out", &out]), |_| {
        calls.set(calls.get() + 1);
        run(Json::int(calls.get()), 0)
    });
    std::fs::remove_file(&out).unwrap();
    assert_eq!(calls.get(), 2);
    assert_eq!(code, 1);
}

#[test]
fn a_gate_failure_in_either_run_fails_the_artifact() {
    let out = out_path("gate");
    let calls = Cell::new(0u32);
    let code = ARTIFACT.run(args(&["--out", &out]), |_| {
        calls.set(calls.get() + 1);
        run(Json::Null, calls.get() - 1)
    });
    std::fs::remove_file(&out).unwrap();
    assert_eq!(code, 1);
}

#[test]
fn usage_errors_exit_two_without_running() {
    for bad in [
        &["--frobnicate"][..],
        &["--seed"],
        &["--seed", "many"],
        &["--out"],
        &["--threads", "2"],
    ] {
        let code = ARTIFACT.run(args(bad), |_| panic!("workload ran for {bad:?}"));
        assert_eq!(code, 2, "{bad:?}");
    }
    let threaded = BenchArtifact {
        threads: true,
        ..ARTIFACT
    };
    let parsed = threaded.parse(args(&["--threads", "3"])).unwrap().unwrap();
    assert_eq!(parsed.threads, Some(3));
    assert_eq!(parsed.out, "BENCH_unit.json");
    assert!(threaded.parse(args(&["--threads", "0"])).is_err());
    assert_eq!(ARTIFACT.run(args(&["--help"]), |_| panic!("ran")), 0);
}

#[test]
fn committed_artifacts_share_one_layout() {
    for name in [
        "BENCH_search.json",
        "BENCH_delta.json",
        "BENCH_degraded.json",
        "BENCH_replay.json",
    ] {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let report = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        assert_eq!(
            keys(&report),
            ["config", "deterministic", "measured"],
            "{name}"
        );
        let config = report.get("config").unwrap();
        assert_eq!(keys(config)[..3], ["mode", "seed", "cores"], "{name}");
    }
}
