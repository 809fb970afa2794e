//! [`DeltaAnalyzer`]: near-duplicate detection and warm-start synthesis.

use std::collections::HashMap;

use noctest_core::cut::CutKind;
use noctest_core::hashing::ContentHash;
use noctest_core::plan::{PlanRequest, SessionOutcome, SocSource};
use noctest_core::{CutId, InterfaceId, Schedule, ScheduledTest, SearchTuning, SystemUnderTest};

use crate::cache::PlanCache;

/// The edit distance between two requests, or `None` when they are not
/// comparable (different SoC family, scheduler, processor complement or
/// any other knob a retimed schedule could not survive).
///
/// Comparable requests differ only in the paper's iteration axes:
///
/// * **cores** — both `cores`-sourced with the same system name and core
///   count; each differing core counts 1 (the revise-one-core edit);
/// * **budget** — a changed power budget counts 1;
/// * **mesh** — changed geometry or routing counts 1.
///
/// Everything else (scheduler, priority, timing model, processors, search
/// threads, validation and fidelity flags) must match exactly: those
/// change what a schedule *means*, not merely where it lands.
#[must_use]
pub fn edit_distance(a: &PlanRequest, b: &PlanRequest) -> Option<u32> {
    if a.scheduler != b.scheduler
        || a.priority != b.priority
        || a.timing != b.timing
        || a.processors != b.processors
        || a.search.threads != b.search.threads
        || a.validate != b.validate
        || a.fidelity != b.fidelity
    {
        return None;
    }
    let mut distance = 0u32;
    match (&a.soc, &b.soc) {
        (
            SocSource::Cores {
                name: na,
                cores: ca,
            },
            SocSource::Cores {
                name: nb,
                cores: cb,
            },
        ) => {
            if na != nb || ca.len() != cb.len() {
                return None;
            }
            distance += ca.iter().zip(cb).filter(|(x, y)| x != y).count() as u32;
        }
        (sa, sb) if sa == sb => {}
        _ => return None,
    }
    if a.mesh != b.mesh {
        distance += 1;
    }
    if a.budget != b.budget {
        distance += 1;
    }
    Some(distance)
}

/// Retimes a donor plan's session order onto `sys`.
///
/// The donor's sessions (ordered by start cycle, as stored in a
/// [`noctest_core::PlanOutcome`]) become a dispatch list; each is placed
/// at the earliest cycle where every planner invariant holds — interface
/// free, NoC links disjoint from concurrent sessions, power budget
/// respected at every instant, processor self-test finished. Durations
/// are recomputed from `sys`, so the result is valid under the *new*
/// system even when the edit changed a core's test length.
///
/// Returns `None` when the donor does not map onto `sys` (a cut index or
/// core name mismatch, an unknown interface label, or no feasible start),
/// in which case the caller falls back to cold planning. The placement is
/// fully deterministic: candidates are scanned in ascending cycle order.
#[must_use]
pub fn retime(sys: &SystemUnderTest, sessions: &[SessionOutcome]) -> Option<Schedule> {
    let labels: HashMap<String, InterfaceId> = sys
        .interface_ids()
        .map(|id| (sys.interface(id).label(), id))
        .collect();
    let mut placed: Vec<ScheduledTest> = Vec::with_capacity(sessions.len());
    for s in sessions {
        if s.cut as usize >= sys.cuts().len() {
            return None;
        }
        let cut = CutId(s.cut);
        // The donor names its cores; a mismatch means the cut indices
        // shifted and the whole mapping is meaningless.
        if sys.cut(cut).name != s.core {
            return None;
        }
        let iface = *labels.get(&s.interface)?;
        if !sys.reachable(iface, cut) {
            // The edited system's fault set severed the donor's pairing;
            // fall back to cold planning rather than retiming a dead route.
            return None;
        }
        let duration = sys.session_cycles(iface, cut);
        // A processor interface only drives sessions after its own
        // self-test — which must therefore already be placed.
        let ready = match sys.interface(iface).processor_index() {
            Some(idx) => {
                let self_test = sys
                    .cuts()
                    .iter()
                    .find(|c| c.kind == CutKind::Processor(idx))?
                    .id;
                if self_test == cut {
                    return None;
                }
                placed.iter().find(|e| e.cut == self_test)?.end
            }
            None => 0,
        };
        // The earliest feasible start is always `ready` or the end of an
        // already placed session: constraints only relax at end events.
        let mut candidates: Vec<u64> = std::iter::once(ready)
            .chain(placed.iter().map(|e| e.end).filter(|&t| t > ready))
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        let start = candidates
            .into_iter()
            .find(|&t| feasible(sys, &placed, cut, iface, t, t + duration))?;
        placed.push(ScheduledTest {
            cut,
            interface: iface,
            start,
            end: start + duration,
        });
    }
    Some(Schedule::new(placed))
}

/// `true` when a session for `cut` on `iface` over `[start, end)` breaks
/// no invariant against the already placed sessions.
fn feasible(
    sys: &SystemUnderTest,
    placed: &[ScheduledTest],
    cut: CutId,
    iface: InterfaceId,
    start: u64,
    end: u64,
) -> bool {
    for e in placed {
        if e.start < end && start < e.end {
            if e.interface == iface {
                return false;
            }
            if sys.footprints_overlap((e.interface, e.cut), (iface, cut)) {
                return false;
            }
        }
    }
    // Power: the combined draw only rises at session starts, so checking
    // `start` plus every placed start inside the window bounds the peak.
    let power = sys.session_power(iface, cut);
    let draw_at = |t: u64| -> f64 {
        power
            + placed
                .iter()
                .filter(|e| e.start <= t && t < e.end)
                .map(|e| sys.session_power(e.interface, e.cut))
                .sum::<f64>()
    };
    if !sys.budget().allows(draw_at(start)) {
        return false;
    }
    placed
        .iter()
        .filter(|e| start < e.start && e.start < end)
        .all(|e| sys.budget().allows(draw_at(e.start)))
}

/// A synthesised warm start: the donor it came from, how far the request
/// drifted, and the retimed incumbent schedule.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Content hash of the donor cache entry.
    pub from: ContentHash,
    /// Edit distance between the request and the donor.
    pub distance: u32,
    /// The donor's schedule retimed onto the new system — already
    /// validated, ready to seed the branch-and-bound.
    pub schedule: Schedule,
}

impl WarmStart {
    /// Search tuning for `request` with the incumbent installed: the
    /// request's own knobs, plus the warm schedule.
    #[must_use]
    pub fn tuning(&self, request: &PlanRequest) -> SearchTuning {
        request.search.clone().warm_start(self.schedule.clone())
    }
}

/// Finds near-duplicate donors in a [`PlanCache`] and turns them into
/// warm starts.
#[derive(Debug, Clone, Copy)]
pub struct DeltaAnalyzer {
    max_distance: u32,
}

impl Default for DeltaAnalyzer {
    /// Accepts donors up to edit distance 3 — enough for a revised core
    /// plus a budget nudge plus a mesh resize in one step, small enough
    /// that the retimed schedule still resembles an optimum.
    fn default() -> Self {
        DeltaAnalyzer { max_distance: 3 }
    }
}

impl DeltaAnalyzer {
    /// An analyzer accepting donors up to `max_distance` edits away.
    #[must_use]
    pub fn new(max_distance: u32) -> Self {
        DeltaAnalyzer { max_distance }
    }

    /// The configured distance threshold.
    #[must_use]
    pub fn max_distance(&self) -> u32 {
        self.max_distance
    }

    /// Searches `cache` for the nearest comparable donor to `request` and
    /// retimes its schedule onto the request's system.
    ///
    /// Returns `None` when no donor is close enough, the system fails to
    /// build, or the retimed schedule does not survive validation — the
    /// caller then plans cold, exactly as without this crate. Ties on
    /// distance break on the smaller content hash, so the choice is
    /// deterministic regardless of cache insertion order.
    #[must_use]
    pub fn analyze(&self, cache: &PlanCache, request: &PlanRequest) -> Option<WarmStart> {
        let mut best: Option<(u32, ContentHash, crate::cache::CachedPlan)> = None;
        for (hash, entry) in cache.snapshot() {
            let Some(distance) = edit_distance(request, &entry.request) else {
                continue;
            };
            // Distance 0 is an exact content match — `lookup` territory,
            // not a warm start.
            if distance == 0 || distance > self.max_distance {
                continue;
            }
            let better = match &best {
                None => true,
                Some((bd, bh, _)) => (distance, hash) < (*bd, *bh),
            };
            if better {
                best = Some((distance, hash, entry));
            }
        }
        let (distance, from, donor) = best?;
        let sys = request.build_system().ok()?;
        let schedule = retime(&sys, &donor.outcome().sessions)?;
        schedule.validate(&sys).ok()?;
        Some(WarmStart {
            from,
            distance,
            schedule,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noctest_core::plan::{Campaign, CoreRequest};
    use noctest_core::{BudgetSpec, OptimalScheduler};

    fn cores(n: u32) -> Vec<CoreRequest> {
        (0..n)
            .map(|i| CoreRequest {
                name: format!("c{i}"),
                bits_in: 400 + 40 * i,
                bits_out: 360 + 30 * i,
                patterns: 10 + 3 * i,
                power: 80.0 + 10.0 * f64::from(i),
            })
            .collect()
    }

    fn base_request() -> PlanRequest {
        let mut r = PlanRequest::benchmark("delta", 3, 3)
            .with_processors("plasma", 2, 2)
            .with_scheduler("optimal")
            .with_budget(BudgetSpec::Fraction(0.8));
        r.soc = SocSource::Cores {
            name: "deltasoc".into(),
            cores: cores(5),
        };
        r
    }

    fn revise_core(mut r: PlanRequest, index: usize) -> PlanRequest {
        if let SocSource::Cores { cores, .. } = &mut r.soc {
            cores[index].patterns += 4;
        }
        r
    }

    #[test]
    fn edit_distance_counts_the_iteration_axes() {
        let base = base_request();
        assert_eq!(edit_distance(&base, &base), Some(0));
        // The name label does not count.
        assert_eq!(edit_distance(&base, &base.clone().with_name("x")), Some(0));
        assert_eq!(edit_distance(&base, &revise_core(base.clone(), 2)), Some(1));
        let budget = base.clone().with_budget(BudgetSpec::Fraction(0.7));
        assert_eq!(edit_distance(&base, &budget), Some(1));
        let mut mesh = base.clone();
        mesh.mesh.width = 4;
        assert_eq!(edit_distance(&base, &mesh), Some(1));
        assert_eq!(
            edit_distance(&revise_core(base.clone(), 0), &budget),
            Some(2)
        );
        // A different scheduler, processor complement or core count is
        // incomparable, not merely distant.
        assert_eq!(
            edit_distance(&base, &base.clone().with_scheduler("greedy")),
            None
        );
        assert_eq!(
            edit_distance(&base, &base.clone().with_processors("plasma", 2, 1)),
            None
        );
        let mut grown = base.clone();
        if let SocSource::Cores { cores, .. } = &mut grown.soc {
            cores.push(cores[0].clone());
        }
        assert_eq!(edit_distance(&base, &grown), None);
    }

    #[test]
    fn retime_reproduces_a_valid_schedule_on_the_same_system() {
        let base = base_request();
        let outcome = Campaign::new().run(&base).unwrap();
        let sys = base.build_system().unwrap();
        let schedule = retime(&sys, &outcome.sessions).unwrap();
        schedule.validate(&sys).unwrap();
        // Replaying the optimal order on the unchanged system cannot do
        // worse than the optimum it came from.
        assert_eq!(schedule.makespan(), outcome.makespan);
    }

    #[test]
    fn warm_started_search_is_byte_identical_to_cold() {
        let cache = PlanCache::new(8);
        let base = base_request();
        cache.insert(&base, &Campaign::new().run(&base).unwrap());

        for (label, edited) in [
            ("revise-core", revise_core(base.clone(), 1)),
            (
                "nudge-budget",
                base.clone().with_budget(BudgetSpec::Fraction(0.7)),
            ),
        ] {
            let warm = DeltaAnalyzer::default()
                .analyze(&cache, &edited)
                .unwrap_or_else(|| panic!("{label}: no warm start found"));
            assert_eq!(warm.from, ContentHash::of(&base), "{label}");
            assert_eq!(warm.distance, 1, "{label}");

            let sys = edited.build_system().unwrap();
            let scheduler = OptimalScheduler::new();
            let (cold, cold_stats) = scheduler
                .schedule_with_stats(&sys, &SearchTuning::default(), None)
                .unwrap();
            let (warmed, warm_stats) = scheduler
                .schedule_with_stats(&sys, &warm.tuning(&edited), None)
                .unwrap();
            assert_eq!(warmed.entries(), cold.entries(), "{label}");
            assert!(
                warm_stats.expansions <= cold_stats.expansions,
                "{label}: warm start expanded more nodes than cold"
            );
        }
    }

    #[test]
    fn analyze_prefers_the_nearest_donor_and_rejects_far_ones() {
        let cache = PlanCache::new(8);
        let base = base_request();
        let near = revise_core(base.clone(), 0);
        let outcome = Campaign::new().run(&base).unwrap();
        // A distance-2 donor...
        let far = revise_core(base.clone(), 3).with_budget(BudgetSpec::Fraction(0.75));
        cache.insert(&far, &Campaign::new().run(&far).unwrap());
        // ...loses to a distance-1 donor once one appears.
        let warm = DeltaAnalyzer::default().analyze(&cache, &near).unwrap();
        assert_eq!(warm.from, ContentHash::of(&far));
        cache.insert(&base, &outcome);
        let warm = DeltaAnalyzer::default().analyze(&cache, &near).unwrap();
        assert_eq!(warm.from, ContentHash::of(&base));
        assert_eq!(warm.distance, 1);
        // A tight threshold rejects everything but exact-family matches.
        assert!(DeltaAnalyzer::new(0).analyze(&cache, &near).is_none());
        // An incomparable request finds no donor at all.
        let other = base.clone().with_scheduler("greedy");
        assert!(DeltaAnalyzer::default().analyze(&cache, &other).is_none());
    }
}
