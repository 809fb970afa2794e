//! Small shared helpers: order statistics, FNV-1a plan digests, peak
//! resident memory and the result line.

use std::fmt::Write as _;

use noctest_core::plan::PlanOutcome;

/// Nearest-rank percentile (`q` in 0..=1) of an ascending slice; 0 when
/// empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Incremental FNV-1a (64-bit).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    pub fn str(&mut self, value: &str) -> &mut Self {
        self.u64(value.len() as u64).bytes(value.as_bytes())
    }
}

/// Digest of everything a plan decided: name, scheduler, makespan,
/// reduction and every session — and, when `with_fidelity`, the replay
/// section. Wall-clock stage timings are excluded, so the digest is a
/// pure function of the request.
pub fn plan_digest(outcome: &PlanOutcome, with_fidelity: bool) -> u64 {
    let mut h = Fnv::default();
    h.str(&outcome.request_name)
        .str(&outcome.system)
        .str(&outcome.scheduler)
        .u64(outcome.makespan)
        .u64(outcome.serial_baseline)
        .u64(outcome.reduction_percent.to_bits());
    for s in &outcome.sessions {
        h.u64(u64::from(s.cut))
            .str(&s.interface)
            .u64(s.start)
            .u64(s.end);
    }
    if let (true, Some(fidelity)) = (with_fidelity, &outcome.fidelity) {
        h.u64(fidelity.analytic_makespan)
            .u64(fidelity.simulated_makespan);
        for s in &fidelity.sessions {
            h.u64(s.analytic_cycles).u64(s.simulated_cycles);
        }
    }
    h.0
}

/// Digest of a failed request: its name and error text.
pub fn failure_digest(name: &str, error: &str) -> u64 {
    Fnv::default().str(name).str("error").str(error).0
}

/// A request that ended in an error.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    pub request: String,
    pub error: String,
}

/// What one request produced.
pub type Planned = Result<PlanOutcome, Failure>;

/// Digest over a pass's results, in request order.
pub fn digest_all(results: &[Planned], with_fidelity: bool) -> u64 {
    let mut h = Fnv::default();
    for result in results {
        h.u64(match result {
            Ok(outcome) => plan_digest(outcome, with_fidelity),
            Err(failure) => failure_digest(&failure.request, &failure.error),
        });
    }
    h.0
}

/// A typed "no path exists on this degraded mesh" answer — the correct
/// response to a severed mesh, as opposed to an unexpected failure.
pub fn is_typed_unreachable(error: &str) -> bool {
    error.contains("is unreachable from")
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = pid.map_or_else(
        || "/proc/self/status".to_owned(),
        |pid| format!("/proc/{pid}/status"),
    );
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time (user + system) a process has used so far, in seconds.
/// Counts every thread, finished ones included; assumes the kernel's
/// 100 Hz `USER_HZ` tick.
pub fn cpu_seconds(pid: Option<u32>) -> f64 {
    let path = pid.map_or_else(
        || "/proc/self/stat".to_owned(),
        |pid| format!("/proc/{pid}/stat"),
    );
    std::fs::read_to_string(path)
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and
            // stime are the 14th and 15th fields of the whole line.
            let rest = &stat[stat.rfind(')')? + 1..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Per-plan latency percentiles of one pass.
#[derive(Debug, Default, Clone)]
pub struct Latency {
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    pub samples: u64,
}

impl Latency {
    pub fn of(mut samples_ms: Vec<f64>) -> Latency {
        samples_ms.sort_by(f64::total_cmp);
        Latency {
            p50_ms: percentile(&samples_ms, 0.50),
            p90_ms: percentile(&samples_ms, 0.90),
            p99_ms: percentile(&samples_ms, 0.99),
            samples: samples_ms.len() as u64,
        }
    }

    /// `name=value` notes for the config line.
    pub fn config(&self) -> Vec<(&'static str, String)> {
        vec![
            ("latency_samples", self.samples.to_string()),
            ("latency_p50_ms", format!("{:.3}", self.p50_ms)),
            ("latency_p90_ms", format!("{:.3}", self.p90_ms)),
            ("latency_p99_ms", format!("{:.3}", self.p99_ms)),
        ]
    }
}

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            body,
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_line(true, 3, 0, &[metric("setup_s", 0.123_456_789, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.123456789, \"unit\": \"s\"}}}"
        );
    }
}
