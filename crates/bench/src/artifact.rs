//! One bench artifact: the flags, the two-run determinism check and the
//! `BENCH_*.json` writer shared by `search-bench`, `plan-delta`,
//! `plan-degraded` and `replay-bench`.
//!
//! Each binary describes itself with a [`BenchArtifact`] and hands over
//! one workload closure. The artifact parses the shared flags
//! (`--smoke`, `--seed S`, `--out PATH`, `--help`, plus `--threads N`
//! where the binary takes it), runs the workload **twice** in-process
//! and byte-compares the two `deterministic` sections, then writes
//!
//! ```text
//! {"config": {"mode", "seed", "cores", ...}, "deterministic": {...}, "measured": {...}}
//! ```
//!
//! and prints the first run's `deterministic` section alone on stdout as
//! one compact line, which `ci/bench_smoke.sh` byte-compares across two
//! processes. The `measured` section is the first run's. Exit codes: 0 on
//! success or `--help`, 2 on a usage error, 1 when the report cannot be
//! written, the two runs disagree, or either run reports a gate failure.

use std::process::ExitCode;

use noctest_core::json::Json;

use crate::parse_threads_value;

/// The flags every bench binary shares.
#[derive(Debug)]
pub struct BenchArgs {
    /// `--smoke`: the trimmed CI workload.
    pub smoke: bool,
    /// `--seed S` (default 2005).
    pub seed: u64,
    /// `--threads N`, for binaries that accept it.
    pub threads: Option<usize>,
    /// `--out PATH` (default: the binary's `BENCH_*.json`).
    pub out: String,
}

/// What one run of a bench workload produces.
#[derive(Debug)]
pub struct BenchRun {
    /// The binary's own `config` members, written after the shared
    /// `mode`, `seed` and `cores`.
    pub config: Vec<(&'static str, Json)>,
    /// A pure function of the flags: compared across the two runs and
    /// printed on stdout.
    pub deterministic: Json,
    /// Machine-dependent timings and counters, never compared.
    pub measured: Json,
    /// Gate failures this run found, each already reported on stderr.
    pub failures: u32,
    /// One-line summary for stderr, printed once after the report.
    pub summary: String,
}

/// One bench binary's identity: its name, default report path, help
/// text and whether it takes `--threads`.
#[derive(Debug, Clone, Copy)]
pub struct BenchArtifact {
    /// Binary name, prefixed to every stderr line.
    pub name: &'static str,
    /// Default `--out` path.
    pub out: &'static str,
    /// What the binary does, printed under the usage line by `--help`.
    pub about: &'static str,
    /// Whether `--threads N` is accepted.
    pub threads: bool,
}

/// The machine's available parallelism, recorded as `config.cores`.
#[must_use]
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl BenchArtifact {
    /// Runs the binary on the process arguments.
    pub fn main(&self, workload: impl Fn(&BenchArgs) -> BenchRun) -> ExitCode {
        ExitCode::from(self.run(std::env::args().skip(1), workload))
    }

    /// Parses `args`, runs `workload` twice, writes the report and
    /// returns the exit status (see the module docs).
    pub fn run(
        &self,
        args: impl IntoIterator<Item = String>,
        workload: impl Fn(&BenchArgs) -> BenchRun,
    ) -> u8 {
        let args = match self.parse(args) {
            Ok(Some(args)) => args,
            Ok(None) => {
                let threads = if self.threads { " [--threads N]" } else { "" };
                println!(
                    "usage: {} [--smoke] [--seed S]{threads} [--out PATH]\n{}",
                    self.name, self.about
                );
                return 0;
            }
            Err(message) => {
                eprintln!("{}: {message}", self.name);
                return 2;
            }
        };

        let first = workload(&args);
        let second = workload(&args);
        let line = first.deterministic.compact();
        let mut failures = first.failures.max(second.failures);
        if second.deterministic.compact() != line {
            eprintln!(
                "{}: two in-process runs disagree in the deterministic section",
                self.name
            );
            failures += 1;
        }

        let mut config = vec![
            ("mode", Json::str(if args.smoke { "smoke" } else { "full" })),
            ("seed", Json::int(args.seed)),
            ("cores", Json::int(available_cores() as u64)),
        ];
        config.extend(first.config);
        let report = Json::obj(vec![
            ("config", Json::obj(config)),
            ("deterministic", first.deterministic),
            ("measured", first.measured),
        ]);
        if let Err(error) = std::fs::write(&args.out, format!("{}\n", report.pretty())) {
            eprintln!("{}: cannot write {}: {error}", self.name, args.out);
            return 1;
        }

        println!("{line}");
        eprintln!("{}: {} -> {}", self.name, first.summary, args.out);
        if failures > 0 {
            eprintln!("{}: {failures} gate failure(s)", self.name);
            return 1;
        }
        0
    }

    /// Parses the shared flags; `Ok(None)` means `--help`.
    ///
    /// # Errors
    ///
    /// A usage message for an unknown flag or a missing or malformed
    /// value.
    pub fn parse(
        &self,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Option<BenchArgs>, String> {
        let mut parsed = BenchArgs {
            smoke: false,
            seed: 2005,
            threads: None,
            out: self.out.to_owned(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => parsed.smoke = true,
                "--seed" => {
                    parsed.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seed needs an unsigned integer")?;
                }
                "--threads" if self.threads => match parse_threads_value(args.next())? {
                    0 => return Err("--threads must be at least 1".to_owned()),
                    n => parsed.threads = Some(n),
                },
                "--out" => parsed.out = args.next().ok_or("--out needs a path")?,
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Some(parsed))
    }
}
