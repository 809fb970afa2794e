//! [`BuildMemo`]: systems built once per executor and shared by every job
//! that describes the same one.
//!
//! A corpus group plans one system under several schedulers, and
//! [`PlanRequest::build_system`] never reads the scheduler. The memo has
//! two levels, each a small LRU of single-flight cells:
//!
//! * **SoCs.** A benchmark name or inline `.soc` text maps to its parsed,
//!   wrapper-designed cores ([`SocCores`]), which depend on the SoC alone.
//!   Hand-specified cores are not parsed and skip this level.
//! * **Systems.** A [`BuildKey`] (exactly the fields `build_system` reads)
//!   maps to the built [`SystemUnderTest`], or to the error building it
//!   gave.
//!
//! The first job with a key builds on its own worker, through
//! [`PlanRequest::build_system_on`], the code a direct build runs. A job
//! that races it blocks on the cell until the result exists, and every
//! later job clones it. Each level holds [`ENTRIES_PER_WORKER`] entries per
//! executor worker: at most one job per worker builds at a time, and the
//! jobs that share a system are submitted together, so a short window
//! catches every reuse while the memory it holds stays small.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::plan::error::CampaignError;
use crate::plan::request::{BuildKey, PlanRequest, SocSource};
use crate::system::{SocCores, SystemUnderTest};

/// Entries per worker in each level of the memo.
const ENTRIES_PER_WORKER: usize = 8;

/// How often an executor's build memo built and reused, as
/// [`crate::plan::Executor::build_counts`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BuildCounts {
    /// `(built, shared)`: systems a job built, and systems a job took
    /// from an earlier job.
    pub systems: (u64, u64),
    /// `(parsed, shared)`: SoCs a system build resolved from its source,
    /// and SoCs it took from an earlier build. Hand-specified cores are
    /// not counted.
    pub socs: (u64, u64),
}

/// One result, shared by every job with the same key.
type Cell<V> = Arc<OnceLock<V>>;

/// A bounded, least-recently-used map from keys to single-flight cells.
/// Keys compare by `==` over a linear scan: the map holds a handful of
/// entries, and no key is hashed or serialised.
#[derive(Debug)]
struct Lru<K, V> {
    capacity: usize,
    /// Least recently used first.
    entries: Mutex<VecDeque<(K, Cell<V>)>>,
    made: AtomicU64,
    shared: AtomicU64,
}

impl<K: PartialEq, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            entries: Mutex::new(VecDeque::with_capacity(capacity)),
            made: AtomicU64::new(0),
            shared: AtomicU64::new(0),
        }
    }

    /// The value under `key`, made by `make` on this thread when no
    /// earlier call left one.
    fn get_or_make(&self, key: K, make: impl FnOnce() -> V) -> V {
        let cell = {
            let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
            let entry = match entries.iter().rposition(|(k, _)| *k == key) {
                Some(at) => entries.remove(at).expect("position is in range"),
                None => {
                    if entries.len() == self.capacity {
                        entries.pop_front();
                    }
                    (key, Cell::default())
                }
            };
            let cell = Arc::clone(&entry.1);
            entries.push_back(entry);
            cell
        };
        // The map lock is released: a slow build holds only its own cell.
        let mut made = false;
        let value = cell
            .get_or_init(|| {
                made = true;
                make()
            })
            .clone();
        let counter = if made { &self.made } else { &self.shared };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    fn counts(&self) -> (u64, u64) {
        (
            self.made.load(Ordering::Relaxed),
            self.shared.load(Ordering::Relaxed),
        )
    }
}

/// Parsed SoCs and built systems shared by one executor's jobs.
#[derive(Debug)]
pub(crate) struct BuildMemo {
    socs: Lru<SocSource, Result<Arc<SocCores>, CampaignError>>,
    systems: Lru<BuildKey, Result<Arc<SystemUnderTest>, CampaignError>>,
}

impl BuildMemo {
    /// A memo sized for an executor with `workers` worker threads.
    pub(crate) fn new(workers: usize) -> Self {
        let capacity = ENTRIES_PER_WORKER * workers.max(1);
        BuildMemo {
            socs: Lru::new(capacity),
            systems: Lru::new(capacity),
        }
    }

    /// The system `request` describes, exactly as
    /// [`PlanRequest::build_system`] returns it, errors included.
    pub(crate) fn system(
        &self,
        request: &PlanRequest,
    ) -> Result<Arc<SystemUnderTest>, CampaignError> {
        let key = BuildKey::of(request);
        self.systems.get_or_make(key, || {
            request
                .build_system_on(|| match &request.soc {
                    SocSource::Cores { .. } => request.soc_cores(),
                    soc => self
                        .socs
                        .get_or_make(soc.clone(), || request.soc_cores().map(Arc::new))
                        .map(|cores| (*cores).clone()),
                })
                .map(Arc::new)
        })
    }

    pub(crate) fn counts(&self) -> BuildCounts {
        BuildCounts {
            systems: self.systems.counts(),
            socs: self.socs.counts(),
        }
    }
}

#[cfg(test)]
mod tests {
    use noctest_faults::FaultSet;
    use noctest_noc::{NodeId, RoutingKind};

    use super::*;
    use crate::plan::request::{CoreRequest, FidelitySpec};
    use crate::system::{BudgetSpec, PriorityPolicy};

    fn base() -> PlanRequest {
        PlanRequest::benchmark("d695", 4, 4)
            .with_processors("plasma", 2, 2)
            .with_budget(BudgetSpec::Fraction(0.8))
    }

    /// `(built, shared)` systems after building `base()` and then `edited`.
    fn counts_after(edited: &PlanRequest) -> (u64, u64) {
        let memo = BuildMemo::new(1);
        let _ = memo.system(&base());
        let _ = memo.system(edited);
        memo.counts().systems
    }

    #[test]
    fn every_build_input_misses_and_every_other_field_hits() {
        let edit = |f: fn(&mut PlanRequest)| {
            let mut request = base();
            f(&mut request);
            request
        };
        let build_inputs = [
            (
                "soc",
                edit(|r| r.soc = SocSource::Benchmark("p22810".to_owned())),
            ),
            ("mesh", edit(|r| r.mesh.routing = RoutingKind::Yx)),
            ("processors", edit(|r| r.processors = None)),
            ("budget", edit(|r| r.budget = BudgetSpec::Fraction(0.9))),
            ("priority", edit(|r| r.priority = PriorityPolicy::Index)),
            (
                "faults",
                edit(|r| r.faults = FaultSet::none().with_router(NodeId::new(5))),
            ),
            ("timing", edit(|r| r.timing.flow_latency = Some(3))),
        ];
        for (field, request) in &build_inputs {
            assert_eq!(counts_after(request), (2, 0), "{field} must miss");
        }
        let other_fields = [
            ("name", edit(|r| r.name = "renamed".to_owned())),
            ("scheduler", edit(|r| r.scheduler = "smart".to_owned())),
            ("search", edit(|r| r.search.threads = Some(3))),
            ("validate", edit(|r| r.validate = false)),
            (
                "fidelity",
                edit(|r| r.fidelity = Some(FidelitySpec::default())),
            ),
        ];
        for (field, request) in &other_fields {
            assert_eq!(counts_after(request), (1, 1), "{field} must hit");
        }
    }

    #[test]
    fn a_hit_returns_the_same_system_and_a_miss_builds_what_a_direct_build_does() {
        let memo = BuildMemo::new(2);
        let first = memo.system(&base()).unwrap();
        let again = memo.system(&base().with_scheduler("serial")).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        let direct = base().build_system().unwrap();
        assert_eq!(format!("{:?}", *first), format!("{direct:?}"));
        // Errors are shared too, and equal the direct build's.
        let broken = base().with_budget(BudgetSpec::Fraction(-1.0));
        let error = memo.system(&broken).unwrap_err();
        assert_eq!(memo.system(&broken).unwrap_err(), error);
        assert_eq!(broken.build_system().unwrap_err(), error);
        assert_eq!(memo.counts().systems, (2, 2));
    }

    #[test]
    fn signed_zero_floats_are_different_keys() {
        let cores = |power: f64| SocSource::Cores {
            name: "zero".to_owned(),
            cores: vec![CoreRequest {
                name: "c0".to_owned(),
                bits_in: 16,
                bits_out: 16,
                patterns: 4,
                power,
            }],
        };
        let mut positive = base();
        positive.soc = cores(0.0);
        let mut negative = base();
        negative.soc = cores(-0.0);
        assert!(BuildKey::of(&positive) == BuildKey::of(&positive.clone()));
        assert!(BuildKey::of(&positive) != BuildKey::of(&negative));
    }

    #[test]
    fn a_soc_is_parsed_once_across_its_systems_and_evicted_past_the_bound() {
        let text = noctest_itc02::write_soc(&noctest_itc02::data::d695());
        let on_mesh = |width: u16| {
            let mut request = PlanRequest::benchmark("d695", width, 4);
            request.soc = SocSource::SocText(text.clone());
            request
        };
        let memo = BuildMemo::new(1);
        for width in 4..4 + ENTRIES_PER_WORKER as u16 {
            memo.system(&on_mesh(width)).unwrap();
        }
        assert_eq!(memo.counts().socs, (1, ENTRIES_PER_WORKER as u64 - 1));
        // One more system evicts the oldest; rebuilding it is a miss.
        memo.system(&on_mesh(4 + ENTRIES_PER_WORKER as u16))
            .unwrap();
        memo.system(&on_mesh(4)).unwrap();
        assert_eq!(memo.counts().systems, (ENTRIES_PER_WORKER as u64 + 2, 0));
        // Hand-specified cores are not parsed and skip the SoC level.
        let mut hand = base().with_budget(BudgetSpec::Unlimited);
        hand.soc = SocSource::Cores {
            name: "hand".to_owned(),
            cores: vec![CoreRequest {
                name: "c0".to_owned(),
                bits_in: 16,
                bits_out: 16,
                patterns: 4,
                power: 1.0,
            }],
        };
        let before = memo.counts().socs;
        memo.system(&hand).unwrap();
        assert_eq!(memo.counts().socs, before);
    }
}
