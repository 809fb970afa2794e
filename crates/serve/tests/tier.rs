//! Integration tests for the service tier: lifecycle parity with the
//! bare executor, content-affinity sharding, admission control with the
//! stable rejection strings, fair dispatch, and journal durability
//! (pending replay, restart-safe ids, byte-identical dedupe).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use noctest_core::plan::exec::{EventCollector, EventSink, JobId, PlanEvent};
use noctest_core::plan::{Campaign, CoreRequest, PlanRequest, SocSource};
use noctest_core::sched::{CancelToken, Schedule, Scheduler, SearchTuning, SerialScheduler};
use noctest_core::system::SystemUnderTest;
use noctest_core::{BudgetSpec, ContentHash, PlanError};
use noctest_serve::journal::{self, Journal};
use noctest_serve::{RequestKey, ServeTier, SubmitOutcome};

fn temp_journal(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "noctest-tier-{tag}-{}-{n}.ndjson",
        std::process::id()
    ))
}

fn d695(scheduler: &str) -> PlanRequest {
    PlanRequest::benchmark("d695", 4, 4).with_scheduler(scheduler)
}

/// A scheduler that blocks until its flag is raised — pins a worker
/// deterministically so tests control the queue's state.
#[derive(Debug)]
struct Blocker(Arc<AtomicBool>);

impl Scheduler for Blocker {
    fn schedule_tuned(
        &self,
        sys: &SystemUnderTest,
        _tuning: &SearchTuning,
        _cancel: Option<&CancelToken>,
    ) -> Result<Schedule, PlanError> {
        while !self.0.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(1));
        }
        SerialScheduler.schedule(sys)
    }
}

fn blocking_campaign(release: &Arc<AtomicBool>) -> Campaign {
    let mut campaign = Campaign::new();
    campaign
        .registry_mut()
        .register("blocker", Arc::new(Blocker(Arc::clone(release))));
    campaign
}

/// Polls the collector until `pred` holds (bounded, so a regression
/// fails the test instead of hanging CI).
fn wait_for(collector: &EventCollector, pred: impl Fn(&[PlanEvent]) -> bool) {
    for _ in 0..10_000 {
        if pred(&collector.snapshot()) {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("condition not reached within 10s");
}

fn kinds_of(events: &[PlanEvent], job: JobId) -> Vec<&'static str> {
    events
        .iter()
        .filter(|e| e.job() == job)
        .map(PlanEvent::kind)
        .collect()
}

#[test]
fn default_tier_streams_the_exact_executor_lifecycle() {
    let collector = Arc::new(EventCollector::new());
    let tier = ServeTier::builder()
        .threads(1)
        .unwrap()
        .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
        .build()
        .unwrap();
    let first = tier.submit(d695("greedy")).job().unwrap();
    let second = tier.submit(d695("serial")).job().unwrap();
    tier.join();
    assert_eq!((first, second), (JobId(1), JobId(2)));
    assert_eq!(tier.admitted(), 2);
    let events = collector.snapshot();
    for job in [first, second] {
        assert_eq!(
            kinds_of(&events, job),
            vec![
                "queued",
                "started",
                "stage_finished",
                "stage_finished",
                "stage_finished",
                "completed"
            ]
        );
    }
}

#[test]
fn routing_ignores_scheduler_but_spreads_over_content() {
    let tier = ServeTier::builder().shards(4).build().unwrap();
    // Same SoC + mesh, different scheduler/name: one shard — that is the
    // whole point of affinity hashing (near-duplicates share caches).
    let home = tier.shard_of(&d695("greedy"));
    assert_eq!(home, tier.shard_of(&d695("serial").with_name("renamed")));
    // Different content spreads: across mesh sizes we must see more than
    // one shard.
    let shards: std::collections::HashSet<usize> = (2u16..12)
        .map(|w| tier.shard_of(&PlanRequest::benchmark("d695", w, 4)))
        .collect();
    assert!(shards.len() > 1, "all meshes landed on one shard");
    tier.join();
}

#[test]
fn depth_zero_rejects_with_the_stable_reason() {
    let tier = ServeTier::builder().queue_depth(0).build().unwrap();
    let SubmitOutcome::Rejected {
        request,
        client,
        shard,
        reason,
    } = tier.submit_for(d695("greedy").with_name("r9"), Some("alice"), 0)
    else {
        panic!("depth 0 must reject");
    };
    assert_eq!(request, "r9");
    assert_eq!(client, "alice");
    assert_eq!(shard, "s0");
    assert_eq!(
        reason,
        "queue full: client `alice` already holds 0 waiting jobs on shard s0"
    );
    // Nothing was accepted; join returns immediately and no id was spent.
    tier.join();
    assert_eq!(tier.admitted(), 0);
    assert_eq!(
        tier.submit(d695("greedy")).job(),
        None,
        "anonymous is rejected too"
    );
}

#[test]
fn a_full_client_is_rejected_while_others_are_admitted_fairly() {
    let release = Arc::new(AtomicBool::new(false));
    let collector = Arc::new(EventCollector::new());
    let tier = ServeTier::builder()
        .campaign(blocking_campaign(&release))
        .threads(1)
        .unwrap()
        .queue_depth(1)
        .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
        .build()
        .unwrap();
    // The gate pins the single worker; everything after it waits in the
    // queue, so admission state is fully deterministic.
    let gate = tier
        .submit_for(d695("blocker").with_name("gate"), Some("hog"), 0)
        .job()
        .unwrap();
    wait_for(&collector, |events| {
        events
            .iter()
            .any(|e| e.job() == gate && e.kind() == "started")
    });
    let a1 = tier.submit_for(d695("serial").with_name("a1"), Some("a"), 0);
    assert!(matches!(a1, SubmitOutcome::Admitted { .. }));
    // `a` now holds 1 waiting job — at depth 1, its next submission is
    // refused with the exact wire reason...
    let SubmitOutcome::Rejected { reason, .. } =
        tier.submit_for(d695("serial").with_name("a2"), Some("a"), 0)
    else {
        panic!("second waiting job for `a` must be rejected");
    };
    assert_eq!(
        reason,
        "queue full: client `a` already holds 1 waiting jobs on shard s0"
    );
    // ...while other clients are still admitted (per-client bound, not a
    // global one).
    let b1 = tier.submit_for(d695("serial").with_name("b1"), Some("b"), 0);
    let b1 = b1.job().expect("b is not at its bound");
    release.store(true, Ordering::Relaxed);
    tier.join();
    let events = collector.snapshot();
    assert_eq!(kinds_of(&events, b1).last(), Some(&"completed"));
    assert_eq!(tier.admitted(), 3);
}

#[test]
fn dispatch_interleaves_clients_round_robin() {
    let release = Arc::new(AtomicBool::new(false));
    let collector = Arc::new(EventCollector::new());
    let tier = ServeTier::builder()
        .campaign(blocking_campaign(&release))
        .threads(1)
        .unwrap()
        .queue_depth(8)
        .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
        .build()
        .unwrap();
    let gate = tier
        .submit_for(d695("blocker").with_name("gate"), Some("hog"), 0)
        .job()
        .unwrap();
    wait_for(&collector, |events| {
        events
            .iter()
            .any(|e| e.job() == gate && e.kind() == "started")
    });
    // Client `a` parks two jobs before `b` arrives; fair dispatch still
    // alternates a, b, a rather than draining `a` first.
    let a1 = tier.submit_for(d695("serial"), Some("a"), 0).job().unwrap();
    let a2 = tier.submit_for(d695("serial"), Some("a"), 0).job().unwrap();
    let b1 = tier.submit_for(d695("serial"), Some("b"), 0).job().unwrap();
    release.store(true, Ordering::Relaxed);
    tier.join();
    let started: Vec<JobId> = collector
        .snapshot()
        .iter()
        .filter(|e| e.kind() == "started")
        .map(PlanEvent::job)
        .collect();
    assert_eq!(started, vec![gate, a1, b1, a2]);
}

#[test]
fn cancelling_a_waiting_job_never_starts_it() {
    let release = Arc::new(AtomicBool::new(false));
    let collector = Arc::new(EventCollector::new());
    let tier = ServeTier::builder()
        .campaign(blocking_campaign(&release))
        .threads(1)
        .unwrap()
        .queue_depth(4)
        .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
        .build()
        .unwrap();
    let gate = tier
        .submit_for(d695("blocker").with_name("gate"), None, 0)
        .job()
        .unwrap();
    wait_for(&collector, |events| {
        events
            .iter()
            .any(|e| e.job() == gate && e.kind() == "started")
    });
    let doomed = tier
        .submit_for(d695("serial").with_name("doomed"), None, 0)
        .job()
        .unwrap();
    assert!(tier.cancel_by_name("doomed"));
    assert!(!tier.cancel_by_name("nobody"), "unknown names miss");
    release.store(true, Ordering::Relaxed);
    tier.join();
    let events = collector.snapshot();
    assert_eq!(kinds_of(&events, doomed), vec!["queued", "cancelled"]);
}

#[test]
fn cancelling_a_waiting_job_frees_its_clients_slot() {
    let release = Arc::new(AtomicBool::new(false));
    let collector = Arc::new(EventCollector::new());
    let tier = ServeTier::builder()
        .campaign(blocking_campaign(&release))
        .threads(1)
        .unwrap()
        .queue_depth(1)
        .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
        .build()
        .unwrap();
    let gate = tier
        .submit_for(d695("blocker").with_name("gate"), Some("hog"), 0)
        .job()
        .unwrap();
    wait_for(&collector, |events| {
        events
            .iter()
            .any(|e| e.job() == gate && e.kind() == "started")
    });
    let doomed = tier
        .submit_for(d695("serial").with_name("doomed"), Some("a"), 0)
        .job()
        .unwrap();
    let refused = tier.submit_for(d695("serial"), Some("a"), 0).job();
    // The cancelled job is no longer waiting, so `a` has room again even
    // before a worker gets to it.
    let cancelled = tier.cancel_by_id(doomed.0);
    let next = tier
        .submit_for(d695("serial").with_name("next"), Some("a"), 0)
        .job();
    // Released before asserting: a failed assertion must not leave the
    // worker blocked while the tier drops.
    release.store(true, Ordering::Relaxed);
    tier.join();
    assert_eq!(refused, None, "`a` is at its bound");
    assert!(cancelled);
    let next = next.expect("the cancelled job freed the slot");
    let events = collector.snapshot();
    assert_eq!(kinds_of(&events, doomed), vec!["queued", "cancelled"]);
    assert_eq!(kinds_of(&events, next).last(), Some(&"completed"));
}

/// A hand-specified 5-core request — cores-sourced so the delta analyzer
/// can compare near-duplicates axis by axis.
fn cores_request(name: &str) -> PlanRequest {
    let cores = (0..5u32)
        .map(|i| CoreRequest {
            name: format!("c{i}"),
            bits_in: 400 + 40 * i,
            bits_out: 360 + 30 * i,
            patterns: 10 + 3 * i,
            power: 80.0 + 10.0 * f64::from(i),
        })
        .collect();
    let mut request = PlanRequest::benchmark(name, 3, 3)
        .with_processors("plasma", 2, 2)
        .with_budget(BudgetSpec::Fraction(0.8))
        .with_scheduler("optimal");
    request.soc = SocSource::Cores {
        name: "tiersoc".to_owned(),
        cores,
    };
    request
}

fn completed_outcome(events: &[PlanEvent], job: JobId) -> noctest_core::plan::PlanOutcome {
    events
        .iter()
        .find_map(|e| match e {
            PlanEvent::Completed {
                job: j, outcome, ..
            } if *j == job => Some((**outcome).clone()),
            _ => None,
        })
        .expect("completed outcome")
}

#[test]
fn plan_cache_serves_content_hits_and_warm_starts_near_misses() {
    let collector = Arc::new(EventCollector::new());
    let tier = ServeTier::builder()
        .plan_cache(8)
        .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
        .build()
        .unwrap();
    let base = cores_request("base");

    // Cold: the first submission plans for real and seeds the cache.
    let cold = tier.submit(base.clone()).job().unwrap();
    tier.join();
    let cold_outcome = completed_outcome(&collector.snapshot(), cold);
    let stats = tier.plan_cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (0, 1));

    // Exact content hit under a *different name*: served without
    // planning, relabelled, otherwise byte-identical (timings included).
    let renamed = base.clone().with_name("renamed");
    let SubmitOutcome::Cached { job, content } = tier.submit(renamed) else {
        panic!("renamed duplicate must be cache-served");
    };
    assert_eq!(content, ContentHash::of(&base).to_hex());
    tier.join();
    let events = collector.snapshot();
    assert_eq!(kinds_of(&events, job), vec!["queued", "completed"]);
    let mut expected = cold_outcome.clone();
    expected.request_name = "renamed".to_owned();
    assert_eq!(
        completed_outcome(&events, job).to_json().compact(),
        expected.to_json().compact()
    );

    // Near miss (one core re-characterised): admitted with warm-start
    // provenance pointing at the cached donor, then planned for real.
    let mut edited = cores_request("edited");
    let SocSource::Cores { cores, .. } = &mut edited.soc else {
        unreachable!()
    };
    cores[2].patterns += 4;
    let SubmitOutcome::WarmStarted {
        job,
        from,
        distance,
    } = tier.submit(edited.clone())
    else {
        panic!("near-duplicate must be warm-started");
    };
    assert_eq!(from, ContentHash::of(&base).to_hex());
    assert_eq!(distance, 1);
    tier.join();
    let events = collector.snapshot();
    assert!(
        kinds_of(&events, job).contains(&"started"),
        "really planned"
    );
    let warm_outcome = completed_outcome(&events, job);

    // The warm-started plan is byte-identical to a cold plan of the same
    // request on a cache-less tier, up to wall-clock timing.
    let cold_collector = Arc::new(EventCollector::new());
    let cold_tier = ServeTier::builder()
        .sink(Arc::clone(&cold_collector) as Arc<dyn EventSink>)
        .build()
        .unwrap();
    let cold_job = cold_tier.submit(edited).job().unwrap();
    cold_tier.join();
    let cold_edited = completed_outcome(&cold_collector.snapshot(), cold_job);
    assert_eq!(warm_outcome.sessions, cold_edited.sessions);
    assert_eq!(warm_outcome.makespan, cold_edited.makespan);

    let stats = tier.plan_cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (1, 2));
}

#[test]
fn a_cache_free_tier_reports_no_stats_and_never_caches() {
    let tier = ServeTier::builder().build().unwrap();
    assert!(tier.plan_cache_stats().is_none());
    let base = cores_request("base");
    assert!(matches!(
        tier.submit(base.clone()),
        SubmitOutcome::Admitted { .. }
    ));
    tier.join();
    // Identical resubmission still plans for real: caching is opt-in.
    assert!(matches!(
        tier.submit(base.with_name("again")),
        SubmitOutcome::Admitted { .. }
    ));
    tier.join();
}

#[test]
fn journal_replays_pending_jobs_and_resumes_the_id_allocator() {
    let path = temp_journal("replay");
    // A previous process journaled job 5 as submitted (never terminal)
    // and then died; the file also carries a line truncated mid-write.
    let crashed = d695("greedy").with_name("survivor");
    {
        let journal = Journal::open_append(&path).unwrap();
        journal.append(&journal::submit_record(
            5,
            RequestKey::of(&crashed),
            2,
            Some("alice"),
            &crashed.to_json(),
        ));
    }
    {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(file, "{{\"record\":\"submit\",\"job\":7,\"ke").unwrap();
    }

    let collector = Arc::new(EventCollector::new());
    let tier = ServeTier::builder()
        .journal(&path)
        .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
        .build()
        .unwrap();
    // The replayed job keeps its id; a new submission never reuses one —
    // the allocator resumed past the journaled maximum (the truncated
    // record never parsed, so it contributes nothing).
    let fresh = tier.submit(d695("serial")).job().unwrap();
    assert_eq!(fresh, JobId(6));
    tier.join();
    let events = collector.snapshot();
    assert_eq!(kinds_of(&events, JobId(5)).last(), Some(&"completed"));
    assert!(events
        .iter()
        .any(|e| e.job() == JobId(5) && e.request() == "survivor"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn journal_dedupe_serves_outcomes_byte_identically_within_one_lifetime() {
    let path = temp_journal("dedupe-live");
    let request = d695("greedy").with_name("again");
    let collector = Arc::new(EventCollector::new());
    let tier = ServeTier::builder()
        .journal(&path)
        .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
        .build()
        .unwrap();
    let first = tier.submit(request.clone()).job().unwrap();
    tier.join();
    // The first completion left its outcome in the dedupe map as text;
    // the resubmission decodes it and re-encodes the same bytes.
    let SubmitOutcome::Deduped { job } = tier.submit(request) else {
        panic!("an identical resubmission must be served from the dedupe map");
    };
    tier.join();
    let events = collector.snapshot();
    assert_eq!(kinds_of(&events, job), vec!["queued", "completed"]);
    assert_eq!(
        completed_outcome(&events, job).to_json().compact(),
        completed_outcome(&events, first).to_json().compact()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn journal_dedupe_serves_outcomes_byte_identically_across_restarts() {
    let path = temp_journal("dedupe");
    let request = d695("greedy").with_name("cached");

    let outcome_of = |events: &[PlanEvent], job: JobId| -> String {
        events
            .iter()
            .find_map(|e| match e {
                PlanEvent::Completed {
                    job: j, outcome, ..
                } if *j == job => Some(outcome.to_json().compact()),
                _ => None,
            })
            .expect("completed outcome")
    };

    // First daemon lifetime: plan the request for real.
    let first_bytes = {
        let collector = Arc::new(EventCollector::new());
        let tier = ServeTier::builder()
            .journal(&path)
            .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
            .build()
            .unwrap();
        let job = tier.submit(request.clone()).job().unwrap();
        assert_eq!(job, JobId(1));
        tier.join();
        outcome_of(&collector.snapshot(), job)
    };

    // Second lifetime: the identical request is served from the journal
    // without planning — fresh id, `queued` → `completed` only, and the
    // outcome (embedded wall-clock timings included) is byte-identical.
    let collector = Arc::new(EventCollector::new());
    let tier = ServeTier::builder()
        .journal(&path)
        .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
        .build()
        .unwrap();
    let SubmitOutcome::Deduped { job } = tier.submit(request.clone()) else {
        panic!("resubmission must be served from the journal");
    };
    assert_eq!(job, JobId(2), "ids resume past the journaled maximum");
    // A *different* request (same SoC, different scheduler) is planned
    // for real: dedupe is exact-content, not affinity.
    let other = tier
        .submit(d695("serial").with_name("cached"))
        .job()
        .unwrap();
    tier.join();
    let events = collector.snapshot();
    assert_eq!(kinds_of(&events, job), vec!["queued", "completed"]);
    assert_eq!(outcome_of(&events, job), first_bytes);
    assert_eq!(
        kinds_of(&events, other).first(),
        Some(&"queued"),
        "non-identical request replans"
    );
    assert!(
        kinds_of(&events, other).contains(&"started"),
        "non-identical request really executed"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn journal_replays_a_pending_job_through_the_admission_room() {
    let path = temp_journal("replay-room");
    // A previous process admitted two jobs for `alice` and died before
    // either finished: job 5 pins the single worker, job 6 must wait.
    let gate = d695("blocker").with_name("gate");
    let survivor = d695("serial").with_name("survivor");
    {
        let journal = Journal::open_append(&path).unwrap();
        for (job, request) in [(5, &gate), (6, &survivor)] {
            journal.append(&journal::submit_record(
                job,
                RequestKey::of(request),
                0,
                Some("alice"),
                &request.to_json(),
            ));
        }
    }

    let release = Arc::new(AtomicBool::new(false));
    let collector = Arc::new(EventCollector::new());
    let tier = ServeTier::builder()
        .campaign(blocking_campaign(&release))
        .threads(1)
        .unwrap()
        .queue_depth(1)
        .journal(&path)
        .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
        .build()
        .unwrap();
    // Job 6 is the one waiting only once job 5 holds the worker.
    wait_for(&collector, |events| {
        events
            .iter()
            .any(|e| e.job() == JobId(5) && e.kind() == "started")
    });
    // Both were replayed past the depth-1 cap, and job 6 waits in the
    // queue: `alice` is at her bound there.
    let SubmitOutcome::Rejected { reason, .. } =
        tier.submit_for(d695("serial").with_name("a1"), Some("alice"), 0)
    else {
        panic!("the replayed job must hold alice's waiting slot");
    };
    assert_eq!(
        reason,
        "queue full: client `alice` already holds 1 waiting jobs on shard s0"
    );
    // A fresh submission gets the next id past the journaled maximum.
    let fresh = tier.submit_for(d695("serial"), Some("bob"), 0).job();
    assert_eq!(fresh, Some(JobId(7)));
    release.store(true, Ordering::Relaxed);
    tier.join();
    let events = collector.snapshot();
    for (job, name) in [(JobId(5), "gate"), (JobId(6), "survivor")] {
        assert_eq!(
            kinds_of(&events, job),
            vec![
                "queued",
                "started",
                "stage_finished",
                "stage_finished",
                "stage_finished",
                "completed"
            ],
            "job {job:?}"
        );
        assert!(events.iter().all(|e| e.job() != job || e.request() == name));
    }
    assert_eq!(tier.admitted(), 3);
    std::fs::remove_file(&path).ok();
}

#[test]
fn journal_and_plan_cache_answers_feed_each_other() {
    let path = temp_journal("journal-cache");
    let request = d695("greedy").with_name("first");
    let renamed = request.clone().with_name("renamed");
    let tier_on = |collector: &Arc<EventCollector>| {
        ServeTier::builder()
            .journal(&path)
            .plan_cache(8)
            .sink(Arc::clone(collector) as Arc<dyn EventSink>)
            .build()
            .unwrap()
    };

    // Lifetime 1 plans the request for real.
    {
        let tier = tier_on(&Arc::new(EventCollector::new()));
        assert!(matches!(
            tier.submit(request.clone()),
            SubmitOutcome::Admitted { .. }
        ));
        tier.join();
    }

    // Lifetime 2: the cache starts empty and the journal is recovered.
    let collector = Arc::new(EventCollector::new());
    let tier = tier_on(&collector);
    // The journal is checked first: the identical request is deduped.
    assert!(matches!(
        tier.submit(request),
        SubmitOutcome::Deduped { .. }
    ));
    // The dedupe answer fed the cache, so a renamed copy is a cache hit.
    let SubmitOutcome::Cached { job: cached, .. } = tier.submit(renamed.clone()) else {
        panic!("the dedupe answer must have fed the plan cache");
    };
    // The cache hit was journaled as `submit` + `completed`, so the
    // renamed copy resubmitted verbatim is deduped.
    let SubmitOutcome::Deduped { job: deduped } = tier.submit(renamed) else {
        panic!("the cache answer must have fed the dedupe map");
    };
    tier.join();
    let events = collector.snapshot();
    for job in [cached, deduped] {
        assert_eq!(kinds_of(&events, job), vec!["queued", "completed"]);
    }
    assert_eq!(
        completed_outcome(&events, deduped).to_json().compact(),
        completed_outcome(&events, cached).to_json().compact()
    );
    drop(tier);

    // Every stored answer was journaled as terminal: a third lifetime
    // has nothing pending to replay.
    let collector = Arc::new(EventCollector::new());
    let tier = tier_on(&collector);
    tier.join();
    assert_eq!(tier.admitted(), 0);
    assert!(collector.snapshot().is_empty());
    std::fs::remove_file(&path).ok();
}
