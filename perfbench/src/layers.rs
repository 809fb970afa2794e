//! The per-layer metrics of a traced run: the ledger of layer self-times
//! over the traced re-drive, the re-drive's work counts, and the
//! workload-specific figures (tier spans, open-loop health).

use std::collections::BTreeMap;

use std::time::Duration;

use crate::pipeline::Counters;
use crate::trace::{Tracer, REQUEST};
use crate::util::{metric, Latency, Metric, Planned};

/// Share of the traced wall time the layer self-times must cover.
pub const LEDGER_COVERAGE: f64 = 0.90;

/// Tier-level figures from the in-process `ServeTier` pass.
#[derive(Debug, Default, Clone)]
pub struct TierFigures {
    pub submit_s: f64,
    pub cached: u64,
    pub warm_started: u64,
    pub rejected: u64,
    pub hit_pct: f64,
    pub wait_p50_ms: f64,
    pub wait_p99_ms: f64,
    pub service_p50_ms: f64,
}

/// Open-loop generator health of the untraced daemon pass.
#[derive(Debug, Default, Clone)]
pub struct OpenLoopHealth {
    pub lateness_p99_ms: f64,
    pub backlog: u64,
}

/// Everything besides the ledger and counters a traced run reports.
#[derive(Debug, Default, Clone)]
pub struct Extras {
    pub profile_misses: u64,
    pub fidelity_err_pct: f64,
    pub failed_pct: f64,
    pub unreachable: u64,
    pub tier: TierFigures,
    pub open_loop: OpenLoopHealth,
    /// Per-plan latency of the traced run's untraced pass.
    pub latency: Latency,
}

/// A traced re-drive and the untraced re-drives on both sides of it.
#[derive(Debug)]
pub struct Redrives {
    pub untraced: Vec<Planned>,
    pub traced: Vec<Planned>,
    /// Work counts of the traced pass.
    pub counters: Counters,
    /// Mean wall time of the two untraced passes.
    pub untraced_wall_s: f64,
    pub traced_wall_s: f64,
}

/// Runs `pass` untraced, traced into `tracer`, and untraced again, so
/// drift in the machine's speed does not read as tracing overhead.
pub fn bracket(
    tracer: &mut Tracer,
    mut pass: impl FnMut(&mut Tracer, &mut Counters) -> Result<(Vec<Planned>, Duration), String>,
) -> Result<Redrives, String> {
    let (untraced, before) = pass(&mut Tracer::new(false), &mut Counters::default())?;
    let mut counters = Counters::default();
    let (traced, traced_wall) = pass(tracer, &mut counters)?;
    let (_, after) = pass(&mut Tracer::new(false), &mut Counters::default())?;
    Ok(Redrives {
        untraced,
        traced,
        counters,
        untraced_wall_s: (before + after).as_secs_f64() / 2.0,
        traced_wall_s: traced_wall.as_secs_f64(),
    })
}

/// Fraction of the traced wall time covered by layer self-times.
pub fn coverage(ledger: &BTreeMap<&'static str, (f64, u64)>, traced_wall_s: f64) -> f64 {
    let covered: f64 = ledger
        .iter()
        .filter(|(name, _)| **name != REQUEST)
        .map(|(_, (seconds, _))| seconds)
        .sum();
    covered / traced_wall_s.max(f64::MIN_POSITIVE)
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// The per-layer metric list, in the order `BENCHMARK.json` names it.
pub fn metrics(
    ledger: &BTreeMap<&'static str, (f64, u64)>,
    runs: &Redrives,
    x: &Extras,
) -> Vec<Metric> {
    let c = &runs.counters;
    let s = |name: &str| ledger.get(name).map_or(0.0, |(seconds, _)| *seconds);
    let search_s = s("sched.search");
    let replay_s = s("replay.batch") + s("replay.inline");
    let residual = 1.0 - coverage(ledger, runs.traced_wall_s);
    vec![
        metric("gen.expand_s", s("gen.expand"), "s"),
        metric("itc02.parse_s", s("itc02.parse"), "s"),
        metric("itc02.parse_calls", c.parse_calls as f64, "count"),
        metric("itc02.distinct_socs", c.distinct_socs.len() as f64, "count"),
        metric("cpu.profile_s", s("cpu.profile"), "s"),
        metric("cpu.profile_misses", x.profile_misses as f64, "count"),
        metric("core.build_s", s("core.build"), "s"),
        metric("core.build_calls", c.build_calls as f64, "count"),
        metric(
            "core.build_distinct",
            c.distinct_builds.len() as f64,
            "count",
        ),
        metric("sched.heuristic_s", s("sched.heuristic"), "s"),
        metric("sched.search_s", search_s, "s"),
        metric("sched.expansions", c.expansions as f64, "count"),
        metric(
            "sched.expansions_per_s",
            if search_s > 0.0 {
                c.expansions as f64 / search_s
            } else {
                0.0
            },
            "1/s",
        ),
        metric("sched.exhausted_pct", pct(c.exhausted, c.searches), "%"),
        metric(
            "sched.proved_pct",
            pct(c.searches - c.exhausted, c.searches),
            "%",
        ),
        metric(
            "sched.par_expansion_ratio",
            if c.serial_expansions == 0 {
                0.0
            } else {
                c.parallel_expansions as f64 / c.serial_expansions as f64
            },
            "ratio",
        ),
        metric("core.validate_s", s("core.validate"), "s"),
        metric("core.outcome_s", s("core.outcome"), "s"),
        metric("replay.batch_s", s("replay.batch"), "s"),
        metric("replay.batch_wait_s", c.replay_batch_wait_s, "s"),
        metric("replay.pushed", c.replay_pushed as f64, "count"),
        metric("replay.unique", c.replay_unique as f64, "count"),
        metric(
            "replay.sim_kcycles_per_s",
            if replay_s > 0.0 {
                c.simulated_kcycles / replay_s
            } else {
                0.0
            },
            "kcycles/s",
        ),
        metric("replay.inline_s", s("replay.inline"), "s"),
        metric("replay.fidelity_err_pct", x.fidelity_err_pct, "%"),
        metric("replan.cache_s", s("replan.cache"), "s"),
        metric("json.decode_s", s("json.decode"), "s"),
        metric("json.encode_s", s("json.encode"), "s"),
        metric(
            "json.encode_mb",
            c.encoded_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        metric("serve.submit_s", x.tier.submit_s, "s"),
        metric("serve.cached", x.tier.cached as f64, "count"),
        metric("serve.warm_started", x.tier.warm_started as f64, "count"),
        metric("serve.rejected", x.tier.rejected as f64, "count"),
        metric("replan.hit_pct", x.tier.hit_pct, "%"),
        metric("exec.wait_p50_ms", x.tier.wait_p50_ms, "ms"),
        metric("exec.wait_p99_ms", x.tier.wait_p99_ms, "ms"),
        metric("exec.service_p50_ms", x.tier.service_p50_ms, "ms"),
        metric("plan.latency_p50_ms", x.latency.p50_ms, "ms"),
        metric("plan.latency_p90_ms", x.latency.p90_ms, "ms"),
        metric("plan.latency_p99_ms", x.latency.p99_ms, "ms"),
        metric("plan.latency_samples", x.latency.samples as f64, "count"),
        metric("plan.failed_pct", x.failed_pct, "%"),
        metric("plan.unreachable", x.unreachable as f64, "count"),
        metric("serve.lateness_p99_ms", x.open_loop.lateness_p99_ms, "ms"),
        metric("serve.backlog", x.open_loop.backlog as f64, "count"),
        metric("trace.wall_s", runs.traced_wall_s, "s"),
        metric("trace.residual_pct", 100.0 * residual, "%"),
        metric(
            "trace.overhead_pct",
            100.0 * (runs.traced_wall_s / runs.untraced_wall_s.max(f64::MIN_POSITIVE) - 1.0),
            "%",
        ),
    ]
}

/// Closes a traced run: writes the spans beside the build output, checks
/// the ledger covers [`LEDGER_COVERAGE`] of the traced wall time, and
/// returns the per-layer metrics.
pub fn finish(
    args: &crate::Args,
    tracer: &Tracer,
    runs: &Redrives,
    extras: &Extras,
) -> Result<Vec<Metric>, String> {
    let path = args
        .out_dir
        .join(format!("spans-{}-{}.ndjson", args.workload, args.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
    let ledger = tracer.ledger("redrive");
    let covered = coverage(&ledger, runs.traced_wall_s);
    eprintln!(
        "perfbench: ledger covers {:.1}% of the {:.3} s traced wall ({} spans in {})",
        100.0 * covered,
        runs.traced_wall_s,
        ledger.values().map(|(_, calls)| calls).sum::<u64>(),
        path.display()
    );
    if covered < LEDGER_COVERAGE {
        return Err(format!(
            "layer self-times cover {:.1}% of the traced wall, below the {:.0}% gate",
            100.0 * covered,
            100.0 * LEDGER_COVERAGE
        ));
    }
    Ok(metrics(&ledger, runs, extras))
}
