//! Process-wide memoisation of processor characterisation.
//!
//! Calibrating a [`ProcessorProfile`] runs thousands of simulated
//! instructions on an ISS. A campaign sweeping hundreds of requests over
//! the same two processor families must pay that cost once per distinct
//! `(family, calibration, application)` key, not once per request — this
//! cache is what makes [`crate::plan::Campaign::run_all`] scale.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use noctest_cpu::ProcessorProfile;

use crate::plan::error::CampaignError;
use crate::plan::request::{ApplicationSpec, ProcessorSpec};

/// Process-lifetime hit/miss counters. Monotonic; snapshot with
/// [`stats`] and diff two snapshots to attribute work to one batch.
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// A snapshot of a cache's hit, miss and eviction counters — the
/// process-wide profile cache's here, and `noctest-replan`'s bounded plan
/// cache's through its re-export.
///
/// For the profile cache a *miss* is a full ISS characterisation run and
/// a *hit* returns the memoised profile. Corpus runs use the difference
/// of two snapshots to prove characterisation is paid once per distinct
/// `(family, calibration, application)` key, not once per scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing (and then populated the cache).
    pub misses: u64,
    /// Entries dropped to respect a capacity bound. The profile cache is
    /// unbounded and always reports 0.
    pub evictions: u64,
}

impl CacheStats {
    /// Counters accumulated since `earlier` (saturating, so a stale
    /// snapshot never underflows).
    #[must_use]
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }

    /// Total lookups in the snapshot.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// The current process-wide cache counters.
#[must_use]
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        evictions: 0,
    }
}

fn cache_key(spec: &ProcessorSpec) -> String {
    match spec.application {
        ApplicationSpec::Bist => format!("{}/bist/cal={}", spec.family, spec.calibrate),
        // Key on the exact bit pattern: rounding the density here would
        // let two distinct densities collide on one cache entry.
        ApplicationSpec::Decompression { care_density } => format!(
            "{}/decomp/{:016x}/cal={}",
            spec.family,
            care_density.to_bits(),
            spec.calibrate
        ),
    }
}

/// Resolves (and memoises) the profile for a processor spec.
///
/// # Errors
///
/// [`CampaignError::UnknownProcessor`] for an unknown family,
/// [`CampaignError::Cpu`] if an ISS run faults.
pub(crate) fn resolve(spec: &ProcessorSpec) -> Result<ProcessorProfile, CampaignError> {
    /// One slot per key; calibration runs holding only its own slot's
    /// lock, so a batch's workers single-flight *per key* (same-key
    /// racers wait for the one characterisation instead of duplicating
    /// it; different keys calibrate concurrently).
    type Slot = std::sync::Arc<Mutex<Option<ProcessorProfile>>>;
    static CACHE: Mutex<Option<HashMap<String, Slot>>> = Mutex::new(None);

    // Decompression costs only exist as ISS measurements — there is no
    // flat-model fallback for this application, so `calibrate: false`
    // would silently plan with the wrong costs. Reject the combination.
    if !spec.calibrate && matches!(spec.application, ApplicationSpec::Decompression { .. }) {
        return Err(CampaignError::Invalid(
            "the decompression application requires `calibrate: true` \
             (its per-word cost exists only as an ISS measurement)"
                .to_owned(),
        ));
    }

    let slot: Slot = {
        let mut guard = CACHE.lock().expect("profile cache poisoned");
        guard
            .get_or_insert_with(HashMap::new)
            .entry(cache_key(spec))
            .or_default()
            .clone()
    };
    // The map lock is already released: a slow calibration of one key
    // never blocks lookups of other keys.
    let mut entry = slot.lock().expect("profile slot poisoned");
    if let Some(profile) = &*entry {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Ok(profile.clone());
    }
    // Exactly one resolver per key reaches this point at a time, so the
    // counters genuinely mean "characterisations paid". A failed attempt
    // leaves the slot empty (errors are not cached) and recounts as a
    // miss on retry.
    MISSES.fetch_add(1, Ordering::Relaxed);

    let base = ProcessorProfile::by_name(&spec.family)
        .ok_or_else(|| CampaignError::UnknownProcessor(spec.family.clone()))?;
    let mut profile = if spec.calibrate {
        base.calibrated()?
    } else {
        base
    };
    if let ApplicationSpec::Decompression { care_density } = spec.application {
        if !(0.0..=1.0).contains(&care_density) {
            return Err(CampaignError::Invalid(format!(
                "care density {care_density} outside [0, 1]"
            )));
        }
        profile = profile.calibrated_decompression(care_density)?;
    }

    *entry = Some(profile.clone());
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(family: &str) -> ProcessorSpec {
        ProcessorSpec {
            family: family.to_owned(),
            total: 2,
            reused: 2,
            calibrate: true,
            application: ApplicationSpec::Bist,
        }
    }

    #[test]
    fn cache_returns_identical_profiles() {
        let a = resolve(&spec("plasma")).unwrap();
        let b = resolve(&spec("plasma")).unwrap();
        assert_eq!(a, b);
        assert!(a.gen_cycles_per_word.is_some());
    }

    #[test]
    fn counters_attribute_hits_and_misses() {
        // The counters are process-global and sibling tests resolve
        // concurrently, so use a key unique to this test and assert
        // lower bounds, not exact equality.
        let mut s = spec("plasma");
        s.application = ApplicationSpec::Decompression {
            care_density: 0.015_625,
        };
        let before = stats();
        let _ = resolve(&s).unwrap();
        assert!(
            stats().since(before).misses >= 1,
            "first lookup of a fresh key characterises"
        );
        for _ in 0..3 {
            let _ = resolve(&s).unwrap();
        }
        let delta = stats().since(before);
        assert!(delta.hits >= 3, "repeat lookups hit the cache: {delta:?}");
        assert!(delta.lookups() >= 4);
        // A stale (future) snapshot saturates instead of underflowing.
        assert_eq!(before.since(stats()).hits, 0);
    }

    #[test]
    fn concurrent_cold_start_characterises_once() {
        // Eight threads race the same fresh key: single-flighting must
        // count exactly one miss (the corpus report's cache figures rely
        // on this meaning "characterisations actually paid").
        let mut s = spec("plasma");
        s.application = ApplicationSpec::Decompression {
            care_density: 0.031_25,
        };
        let before = stats();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = s.clone();
                scope.spawn(move || resolve(&s).unwrap());
            }
        });
        let delta = stats().since(before);
        // Other tests may add hits/misses concurrently on *their* keys,
        // but this key misses exactly once; total new misses across the
        // window stay far below the 8 a duplicated cold start would add.
        assert!(delta.misses >= 1, "{delta:?}");
        assert!(delta.hits >= 7, "{delta:?}");
    }

    #[test]
    fn uncalibrated_keeps_paper_assumptions() {
        let mut s = spec("leon");
        s.calibrate = false;
        let p = resolve(&s).unwrap();
        assert_eq!(p.gen_cycles_per_word, None);
        assert_eq!(p.gen_cycles_per_pattern, 10);
    }

    #[test]
    fn unknown_family_is_reported() {
        assert!(matches!(
            resolve(&spec("cortex")),
            Err(CampaignError::UnknownProcessor(_))
        ));
    }

    #[test]
    fn decompression_mode_is_cached_separately() {
        let mut s = spec("plasma");
        s.application = ApplicationSpec::Decompression { care_density: 0.05 };
        let d = resolve(&s).unwrap();
        assert_eq!(d.source_mode, noctest_cpu::SourceMode::Decompression);
        let b = resolve(&spec("plasma")).unwrap();
        assert_eq!(b.source_mode, noctest_cpu::SourceMode::Bist);
    }

    #[test]
    fn bad_care_density_is_invalid() {
        let mut s = spec("plasma");
        s.application = ApplicationSpec::Decompression { care_density: 1.5 };
        assert!(matches!(resolve(&s), Err(CampaignError::Invalid(_))));
    }

    #[test]
    fn uncalibrated_decompression_is_invalid() {
        // There is no flat-model cost for the decompression application;
        // silently ignoring `calibrate: false` would plan with wrong
        // numbers, so the combination must be rejected.
        let mut s = spec("plasma");
        s.calibrate = false;
        s.application = ApplicationSpec::Decompression { care_density: 0.1 };
        assert!(matches!(resolve(&s), Err(CampaignError::Invalid(_))));
    }
}
