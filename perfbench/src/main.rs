//! `perfbench` — the repository benchmark: three workloads measured end to
//! end, plus a traced re-drive that times every layer from outside.
//!
//! ```text
//! perfbench --workload corpus-sweep|exact-search|serve-stream --seed N \
//!           --seconds S --trace 0|1 [--serve-bin PATH] [--out-dir DIR]
//! ```
//!
//! With `--trace 0` the run measures the workload for `S` seconds and
//! prints the end-to-end metrics; with `--trace 1` it runs the workload
//! once untraced, then re-drives the same inputs through each layer's
//! public functions with spans on, and prints the per-layer metrics. The
//! last stdout line is the result object; the lines before it record the
//! run config and the plan digest. See `README.md` beside this crate for
//! why each workload exists and which layers it bypasses.

mod corpus;
mod layers;
mod pipeline;
mod search;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use util::{median, metric, result_line, Metric};

/// Worker threads every workload uses at most (executor workers, search
/// threads, or daemon shards × threads).
pub const WORKERS: usize = 2;

/// Setups per run; `setup_s` is their median.
const SETUP_PROBES: usize = 9;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: Option<PathBuf>,
    pub out_dir: PathBuf,
    setup_probe: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Every output check passed.
    pub correct: bool,
    /// Plan requests attempted in the measured phase.
    pub attempted: u64,
    /// Requests that failed unexpectedly (typed unreachable answers on
    /// severed meshes are correct answers, not failures).
    pub failed: u64,
    /// End-to-end metrics (untraced runs), except `setup_s`.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    /// FNV-1a digest over every plan of one pass, in request order.
    pub digest: u64,
    /// `name=value` notes for the config line.
    pub config: Vec<(&'static str, String)>,
}

fn usage() -> &'static str {
    "usage: perfbench --workload corpus-sweep|exact-search|serve-stream --seed N \
     --seconds S --trace 0|1 [--serve-bin PATH] [--out-dir DIR]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        serve_bin: None,
        out_dir: PathBuf::from(".bench_build/perfbench"),
        setup_probe: false,
    };
    let mut seen_seed = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer")?;
                seen_seed = true;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                }
            }
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(value()?)),
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if !["corpus-sweep", "exact-search", "serve-stream"].contains(&args.workload.as_str()) {
        return Err(format!("unknown or missing --workload\n{}", usage()));
    }
    if !seen_seed || args.seconds == 0.0 {
        return Err(format!("--seed and --seconds are required\n{}", usage()));
    }
    if args.workload == "serve-stream" && args.serve_bin.is_none() {
        return Err("serve-stream needs --serve-bin (the plan-serve daemon)".to_owned());
    }
    Ok(args)
}

/// One workload setup, from process start to the first timed request
/// being ready (inputs generated, warm-up planned).
fn setup_only(args: &Args) -> Result<(), String> {
    match args.workload.as_str() {
        "corpus-sweep" => corpus::setup(args.seed).map(drop),
        "exact-search" => search::setup(args.seed).map(drop),
        _ => serve::setup_probe(args),
    }
}

/// `setup_s`: the median of [`SETUP_PROBES`] fresh processes, each timed
/// from spawn to its "ready" line, so every sample pays process start,
/// input generation and the ISS calibration of the warm-up.
fn measure_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate self: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0", "--setup-probe"])
            .arg("--out-dir")
            .arg(&args.out_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(bin) = &args.serve_bin {
            command.arg("--serve-bin").arg(bin);
        }
        let started = Instant::now();
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot spawn setup probe: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("probe stdout is piped");
        let read = std::io::BufRead::read_line(&mut std::io::BufReader::new(stdout), &mut line);
        let elapsed = started.elapsed().as_secs_f64();
        let status = child
            .wait()
            .map_err(|e| format!("setup probe wait failed: {e}"))?;
        if read.is_err() || line.trim() != "ready" || !status.success() {
            return Err(format!("setup probe failed ({status})"));
        }
        samples.push(elapsed);
    }
    Ok(median(&samples))
}

fn run(args: &Args) -> Result<RunOutcome, String> {
    match args.workload.as_str() {
        "corpus-sweep" => corpus::run(args),
        "exact-search" => search::run(args),
        _ => serve::run(args),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if WORKERS > nproc {
        eprintln!("perfbench: refusing to start: {WORKERS} worker threads exceed nproc = {nproc}");
        return ExitCode::from(2);
    }
    if args.setup_probe {
        return match setup_only(&args) {
            Ok(()) => {
                println!("ready");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("perfbench: setup failed: {message}");
                ExitCode::FAILURE
            }
        };
    }

    let setup_s = if args.trace {
        None
    } else {
        match measure_setup(&args) {
            Ok(value) => Some(value),
            Err(message) => {
                eprintln!("perfbench: {message}");
                return ExitCode::FAILURE;
            }
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {}: {message}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let mut config = format!(
        "config: workload={} seed={} seconds={} trace={} nproc={nproc} workers={WORKERS}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (key, value) in &outcome.config {
        config.push_str(&format!(" {key}={value}"));
    }
    println!("{config}");
    println!("plan digest: {:016x}", outcome.digest);
    let metrics: Vec<Metric> = match setup_s {
        Some(setup_s) => std::iter::once(metric("setup_s", setup_s, "s"))
            .chain(outcome.end_to_end.iter().cloned())
            .collect(),
        None => outcome.layers.clone(),
    };
    for m in &metrics {
        eprintln!("perfbench: {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(outcome.correct, outcome.attempted, outcome.failed, &metrics)
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: output check failed");
        ExitCode::FAILURE
    }
}
