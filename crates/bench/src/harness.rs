//! A tiny wall-clock benchmark harness.
//!
//! The workspace builds without external crates, so the `benches/`
//! binaries use this module instead of a benchmarking framework: fixed
//! warm-up, a timed batch per sample, and a median-of-samples report.
//! Numbers are indicative (no outlier rejection), which is all the
//! regression workflow needs. The `BENCH_*.json` binaries time their
//! paths with [`timed_twice`], the faster of two passes.

use std::fmt::Write as _;
use std::time::Instant;

/// One measured benchmark case.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Case label (`group/case` by convention).
    pub label: String,
    /// Median time per iteration, in nanoseconds.
    pub median_ns: f64,
    /// Fastest sample, in nanoseconds per iteration.
    pub min_ns: f64,
    /// Iterations per timed sample.
    pub iters_per_sample: u32,
}

impl Measurement {
    fn human(ns: f64) -> String {
        if ns >= 1e9 {
            format!("{:.2} s", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.2} ms", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.2} µs", ns / 1e3)
        } else {
            format!("{ns:.0} ns")
        }
    }
}

impl std::fmt::Display for Measurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<44} median {:>10}  min {:>10}  ({} iters/sample)",
            self.label,
            Self::human(self.median_ns),
            Self::human(self.min_ns),
            self.iters_per_sample
        )
    }
}

/// A benchmark runner: collects cases, prints one line per case.
#[derive(Debug, Default)]
pub struct Runner {
    samples: usize,
    results: Vec<Measurement>,
}

impl Runner {
    /// A runner taking `samples` timed samples per case (min 3).
    #[must_use]
    pub fn new(samples: usize) -> Self {
        Runner {
            samples: samples.max(3),
            results: Vec::new(),
        }
    }

    /// Measures `f`, auto-scaling iterations so one sample takes ≳10 ms,
    /// and prints the result line immediately.
    pub fn case<R>(&mut self, label: impl Into<String>, mut f: impl FnMut() -> R) {
        let label = label.into();
        // Warm-up + iteration scaling: run once, derive a batch size that
        // puts one sample near 10 ms (capped to keep total time bounded).
        let warm = Instant::now();
        std::hint::black_box(f());
        let once_ns = warm.elapsed().as_nanos().max(1);
        let iters = (10_000_000 / once_ns).clamp(1, 10_000) as u32;

        let mut sample_ns: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            sample_ns.push(start.elapsed().as_nanos() as f64 / f64::from(iters));
        }
        sample_ns.sort_by(f64::total_cmp);
        let measurement = Measurement {
            label,
            median_ns: sample_ns[sample_ns.len() / 2],
            min_ns: sample_ns[0],
            iters_per_sample: iters,
        };
        println!("{measurement}");
        self.results.push(measurement);
    }

    /// All measurements so far.
    #[must_use]
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// A CSV rendering (`label,median_ns,min_ns`).
    #[must_use]
    pub fn csv(&self) -> String {
        let mut out = String::from("label,median_ns,min_ns\n");
        for m in &self.results {
            let _ = writeln!(out, "{},{:.1},{:.1}", m.label, m.median_ns, m.min_ns);
        }
        out
    }
}

/// Runs `pass` twice and returns the first result with the faster of the
/// two wall times, in microseconds. For a deterministic `pass` both runs
/// do identical work, so the minimum discards the scheduling stalls a
/// shared host injects into a single run, alike for every path timed
/// this way.
pub fn timed_twice<T>(pass: impl Fn() -> T) -> (T, u64) {
    let start = Instant::now();
    let first = pass();
    let first_micros = start.elapsed().as_micros() as u64;
    let start = Instant::now();
    let second = pass();
    let micros = first_micros.min(start.elapsed().as_micros() as u64);
    drop(second);
    (first, micros)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_measures_and_records() {
        let mut runner = Runner::new(3);
        let mut counter = 0u64;
        runner.case("noop", || {
            counter += 1;
            counter
        });
        assert_eq!(runner.results().len(), 1);
        let m = &runner.results()[0];
        assert!(m.median_ns >= 0.0 && m.min_ns <= m.median_ns);
        assert!(m.iters_per_sample >= 1);
        assert!(runner.csv().lines().count() == 2);
    }

    #[test]
    fn human_units() {
        assert_eq!(Measurement::human(500.0), "500 ns");
        assert_eq!(Measurement::human(2_500.0), "2.50 µs");
        assert_eq!(Measurement::human(3_000_000.0), "3.00 ms");
        assert_eq!(Measurement::human(2e9), "2.00 s");
    }
}
