//! [`ServeTier`] — the service tier over the plan executor.
//!
//! One tier owns N executor shards (consistent-hashed by request
//! affinity, see [`crate::shard`]), an optional bounded admission layer
//! with per-client fairness ([`crate::admission`]), and an optional
//! durable job journal ([`crate::journal`]). With the defaults — one
//! shard, unbounded admission, no journal — the tier is a transparent
//! wrapper over a single [`Executor`]: the event stream on the wire is
//! byte-identical to driving the executor directly, which is the
//! compatibility contract of the `plan-serve` daemon.
//!
//! ## Lifecycle of a submission
//!
//! Every job, whether fresh, replayed or answered from a stored outcome,
//! takes one path:
//!
//! 1. The request is canonicalised; its [`RequestKey`] and affinity key
//!    are computed, and the affinity key picks the shard.
//! 2. With a journal: an identical request (same canonical bytes) with a
//!    stored outcome is **deduplicated**.
//! 3. With a plan cache: an exact content hit (same planning inputs, any
//!    name) is **cached**; a near miss is **warm-started** from the
//!    closest cached donor's retimed schedule and goes on.
//! 4. With a queue depth: a client already holding `depth` waiting jobs
//!    on the shard is **rejected**; no id is spent and nothing is
//!    journaled.
//! 5. The job gets a fresh id and a record, its `submit` record is
//!    journaled, and it is handed to its shard: with a queue depth the
//!    tier announces `queued` and parks it in the shard's waiting room,
//!    which a dispatcher drains by deficit round-robin over clients;
//!    without one it goes straight into the shard executor.
//!
//! A deduplicated or cached job gets its id, record and `submit` record
//! the same way, and is then answered from the stored outcome: `queued`,
//! then `completed` carrying the outcome byte-identically (a cached one
//! only relabelled), with no planning. Its `completed` event is finished
//! like a planned one: journaled, fed to the dedupe map and the cache.
//!
//! At start-up each pending journal job is **replayed**: it takes step 5
//! under its original id, with no admission check (the previous process
//! admitted it) and no second `submit` record.
//!
//! Submissions are journaled before their `queued` event is emitted, and
//! terminal records after the terminal event — so on restart, a job is
//! either pending (replayed with its original id) or terminal (its
//! outcome served for matching resubmissions). The id allocator resumes
//! past the highest journaled id; a restarted daemon never reuses one.
//!
//! ## What a finished job leaves behind
//!
//! At its terminal event a job's record lets go of its executor handle
//! (and with it the outcome), its request text and its plan-cache
//! request. What stays is a small record that cancellation by id or
//! name still finds: name, shard, key and flags. With a journal, the
//! first completion of each distinct request also leaves one dedupe
//! entry: its request text and its outcome as compact JSON text, the
//! bytes the journal file holds.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use noctest_core::json::Json;
use noctest_core::plan::exec::{EventSink, Executor, JobHandle, JobId, PlanEvent, SubmitSpec};
use noctest_core::plan::{Campaign, CampaignError, PlanOutcome, PlanRequest};
use noctest_core::ContentHash;
use noctest_replan::{DeltaAnalyzer, PlanCache};

use crate::admission::{Room, WaitingJob};
use crate::journal::{self, CompletedJob, Journal, PendingJob, Recovery};
use crate::key::{affinity_of_doc, fnv1a, RequestKey};
use crate::shard::{shard_name, ShardRing};
use crate::wire;

/// Locks a mutex, recovering from a poisoned guard — one panicking
/// worker must not take the tier down (same policy as the executor).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What [`ServeTier::submit_for`] did with a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The job was accepted; its lifecycle events will stream.
    Admitted {
        /// The tier-allocated job id.
        job: JobId,
    },
    /// An identical request already has a journaled outcome; the job
    /// went `queued` → `completed` immediately, the outcome served from
    /// the journal byte-identically, with no planning.
    Deduped {
        /// The tier-allocated job id.
        job: JobId,
    },
    /// The plan cache holds an outcome for this request's content (same
    /// planning inputs, any name); the job went `queued` → `completed`
    /// immediately, the cached outcome served byte-identically (only
    /// relabelled), with no planning. The daemon reports this in-band as
    /// a `cached` wire line.
    Cached {
        /// The tier-allocated job id.
        job: JobId,
        /// The request's content hash, 16-digit lower hex.
        content: String,
    },
    /// The job was accepted, and its search was warm-started from the
    /// retimed schedule of a cached near-duplicate. The daemon reports
    /// the provenance in-band as a `warm_start` wire line; the planned
    /// outcome itself is byte-identical to a cold run (within search
    /// budget).
    WarmStarted {
        /// The tier-allocated job id.
        job: JobId,
        /// Content hash of the donor cache entry, 16-digit lower hex.
        from: String,
        /// Edit distance between the request and the donor.
        distance: u32,
    },
    /// Admission control refused the job — nothing was queued and no
    /// job id was spent. The daemon reports this in-band as a
    /// `rejected` wire line.
    Rejected {
        /// The request's name.
        request: String,
        /// The submitting client ("" when anonymous).
        client: String,
        /// The shard that was full.
        shard: String,
        /// The stable human-readable reason.
        reason: String,
    },
}

impl SubmitOutcome {
    /// The job id, for accepted (admitted, warm-started, deduplicated or
    /// cache-served) submissions.
    #[must_use]
    pub fn job(&self) -> Option<JobId> {
        match self {
            SubmitOutcome::Admitted { job }
            | SubmitOutcome::Deduped { job }
            | SubmitOutcome::Cached { job, .. }
            | SubmitOutcome::WarmStarted { job, .. } => Some(*job),
            SubmitOutcome::Rejected { .. } => None,
        }
    }
}

/// A tier construction error: executor configuration or journal I/O.
#[derive(Debug)]
pub enum ServeError {
    /// Invalid configuration (zero threads, …).
    Campaign(CampaignError),
    /// The journal could not be opened or read.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Campaign(error) => error.fmt(f),
            ServeError::Io(error) => write!(f, "journal error: {error}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CampaignError> for ServeError {
    fn from(error: CampaignError) -> Self {
        ServeError::Campaign(error)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(error: std::io::Error) -> Self {
        ServeError::Io(error)
    }
}

/// One tracked job (admitted, deduplicated or replayed), keyed by its id
/// in the tier's job table.
#[derive(Debug)]
struct JobRecord {
    name: String,
    shard: usize,
    key: RequestKey,
    /// Canonical request text — kept only when a journal is active, and
    /// only until the terminal event moves it into the dedupe map.
    request_text: Option<String>,
    /// The pristine request (no warm-start tuning) — kept only when a
    /// plan cache is active, and only until the terminal event feeds it
    /// to the cache.
    cache_request: Option<PlanRequest>,
    /// The executor's handle, held only while the job is not terminal.
    handle: Option<JobHandle>,
    cancel_requested: bool,
    /// Still parked in the admission room.
    waiting: bool,
    /// Was handed to a shard executor via the admission dispatcher (its
    /// terminal event must release an `in_flight` slot).
    dispatched: bool,
    terminal: bool,
}

/// One submission on its way to a [`JobRecord`]: built by `submit_for`
/// for a new request and by `replay` for a pending journal job.
struct Submission<'a> {
    /// The original id of a replayed job; `None` allocates a fresh one.
    job: Option<u64>,
    request: PlanRequest,
    client: Option<&'a str>,
    priority: i32,
    /// The request's canonical form, and that form as compact text.
    doc: Json,
    text: String,
    key: RequestKey,
    shard: usize,
}

#[derive(Debug, Default)]
struct Counts {
    admitted: u64,
    terminal: u64,
}

struct ShardRoom {
    room: Mutex<Room>,
    cv: Condvar,
}

/// State shared between the tier, its dispatcher threads and the
/// per-shard event sinks.
///
/// Lock hierarchy (outer → inner; every path acquires a descending
/// subset): executor emit lock → tier `emit_lock` → `jobs` → journal →
/// `dedupe` → `counts` → a shard room. `submit_lock` serialises
/// submitters only and is never taken by workers or dispatchers. The
/// `dedupe` map is additionally only ever *read* under a lone lock
/// (cloned out before `jobs` is touched).
struct TierShared {
    sinks: Vec<Arc<dyn EventSink>>,
    emit_lock: Mutex<()>,
    submit_lock: Mutex<()>,
    journal: Option<Journal>,
    /// The content-addressed plan cache (its own internal lock nests
    /// under everything — cache calls take no tier lock).
    plan_cache: Option<Arc<PlanCache>>,
    analyzer: DeltaAnalyzer,
    /// Completed outcomes by request key: the journal's recovered ones,
    /// then each first completion of this lifetime.
    dedupe: Mutex<HashMap<RequestKey, CompletedJob>>,
    jobs: Mutex<BTreeMap<u64, JobRecord>>,
    counts: Mutex<Counts>,
    counts_cv: Condvar,
    next_id: AtomicU64,
    queue_depth: Option<usize>,
    /// Dispatch width per shard (= the shard executor's worker count):
    /// with admission on, at most this many jobs are inside an executor
    /// at once, so ordering decisions stay in the fair dispatcher.
    width: usize,
    rooms: Vec<ShardRoom>,
    ring: ShardRing,
}

impl TierShared {
    fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Forwards one event to every user sink under the tier-wide order
    /// lock (executors serialise their own streams; this serialises
    /// across shards and against synthetic tier events).
    fn emit_event(&self, event: &PlanEvent) {
        if self.sinks.is_empty() {
            return;
        }
        let _order = lock(&self.emit_lock);
        for sink in &self.sinks {
            sink.emit(event);
        }
    }

    /// Terminal bookkeeping: exactly once per job, after its terminal
    /// event is in the sinks — strip the record to what cancellation
    /// needs, journal the terminal record, feed the dedupe map, bump the
    /// terminal count and release the admission slot.
    fn finish_record(&self, event: &PlanEvent) {
        let id = event.job().0;
        let (shard, dispatched, key, request_text, cache_request) = {
            let mut jobs = lock(&self.jobs);
            let Some(record) = jobs.get_mut(&id) else {
                return;
            };
            if record.terminal {
                return;
            }
            record.terminal = true;
            // Cancellation reads `terminal` first and never needs the
            // handle again.
            record.handle = None;
            (
                record.shard,
                record.dispatched,
                record.key,
                record.request_text.take(),
                record.cache_request.take(),
            )
        };
        if let (Some(cache), Some(request), PlanEvent::Completed { outcome, .. }) =
            (&self.plan_cache, &cache_request, event)
        {
            cache.insert(request, outcome);
        }
        if let Some(journal) = &self.journal {
            match event {
                PlanEvent::Completed { outcome, .. } => {
                    let outcome_json = outcome.to_json();
                    journal.append(&journal::completed_record(id, key, &outcome_json));
                    if let Some(request_text) = request_text {
                        if let Entry::Vacant(slot) = lock(&self.dedupe).entry(key) {
                            slot.insert(CompletedJob {
                                job: id,
                                request_text,
                                outcome: outcome_json.compact(),
                            });
                        }
                    }
                }
                PlanEvent::Failed { error, .. } => {
                    journal.append(&journal::failed_record(id, &error.to_string()));
                }
                PlanEvent::Cancelled { .. } => {
                    journal.append(&journal::cancelled_record(id));
                }
                _ => {}
            }
        }
        {
            let mut counts = lock(&self.counts);
            counts.terminal += 1;
            self.counts_cv.notify_all();
        }
        if dispatched {
            let room = &self.rooms[shard];
            let mut guard = lock(&room.room);
            guard.in_flight = guard.in_flight.saturating_sub(1);
            room.cv.notify_all();
        }
    }

    fn on_executor_event(&self, event: &PlanEvent) {
        self.emit_event(event);
        if event.is_terminal() {
            self.finish_record(event);
        }
    }

    /// Emits a tier-synthesised terminal event (a stored outcome's
    /// `completed` or a waiting-room cancellation) and finishes its job.
    fn finish_synthetic(&self, event: &PlanEvent) {
        self.emit_event(event);
        self.finish_record(event);
    }
}

/// The per-shard sink bridging a shard executor's event stream into the
/// tier (forwarding plus terminal bookkeeping).
struct TierSink {
    shared: Arc<TierShared>,
}

impl EventSink for TierSink {
    fn emit(&self, event: &PlanEvent) {
        self.shared.on_executor_event(event);
    }
}

/// The dispatcher loop of one shard: drain the waiting room by deficit
/// round-robin whenever an executor slot is free.
fn dispatcher(shared: &Arc<TierShared>, executor: &Arc<Executor>, shard: usize) {
    let room_state = &shared.rooms[shard];
    loop {
        let job = {
            let mut room = lock(&room_state.room);
            loop {
                if room.shutdown {
                    return;
                }
                if room.in_flight < shared.width {
                    if let Some(job) = room.pop_drr() {
                        room.in_flight += 1;
                        break job;
                    }
                }
                room = room_state
                    .cv
                    .wait(room)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let id = job.id;
        // Flag the dispatch BEFORE submitting: the job's terminal event
        // (which releases the in_flight slot) can arrive the instant
        // submit returns.
        if let Some(record) = lock(&shared.jobs).get_mut(&id) {
            record.waiting = false;
            record.dispatched = true;
        }
        let handle = executor.submit_spec(job.spec);
        let cancel_now = match lock(&shared.jobs).get_mut(&id) {
            // A job that already finished keeps no handle.
            Some(record) if !record.terminal => {
                record.handle = Some(handle.clone());
                record.cancel_requested
            }
            _ => false,
        };
        if cancel_now {
            handle.cancel();
        }
    }
}

/// Builds a [`ServeTier`].
pub struct ServeTierBuilder {
    campaign: Campaign,
    shards: usize,
    threads: Option<usize>,
    queue_depth: Option<usize>,
    journal_path: Option<PathBuf>,
    plan_cache: Option<usize>,
    sinks: Vec<Arc<dyn EventSink>>,
}

impl Default for ServeTierBuilder {
    fn default() -> Self {
        ServeTierBuilder {
            campaign: Campaign::default(),
            shards: 1,
            threads: None,
            queue_depth: None,
            journal_path: None,
            plan_cache: None,
            sinks: Vec::new(),
        }
    }
}

impl std::fmt::Debug for ServeTierBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeTierBuilder")
            .field("shards", &self.shards)
            .field("threads", &self.threads)
            .field("queue_depth", &self.queue_depth)
            .field("journal", &self.journal_path)
            .field("plan_cache", &self.plan_cache)
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl ServeTierBuilder {
    /// Jobs execute through `campaign` (registry and defaults), one
    /// clone per shard.
    #[must_use]
    pub fn campaign(mut self, campaign: Campaign) -> Self {
        self.campaign = campaign;
        self
    }

    /// Number of executor shards (default 1; 0 is clamped to 1).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Worker threads *per shard* (default: the campaign's pinned count,
    /// else available parallelism).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Invalid`] when `threads` is 0.
    pub fn threads(mut self, threads: usize) -> Result<Self, CampaignError> {
        // Reuse the executor's validation so the message is identical.
        let _ = Executor::builder().threads(threads)?;
        self.threads = Some(threads);
        Ok(self)
    }

    /// Bounds each client's waiting jobs per shard at `depth`, enabling
    /// the fair admission layer (default: unbounded, direct dispatch).
    /// A depth of 0 rejects everything and is almost certainly not what
    /// you want, but it is honoured.
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = Some(depth);
        self
    }

    /// Enables the durable journal at `path`: existing records are
    /// recovered (pending jobs replayed, completed outcomes served for
    /// matching resubmissions) and new activity is appended.
    #[must_use]
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal_path = Some(path.into());
        self
    }

    /// Enables the content-addressed plan cache, holding up to
    /// `capacity` outcomes (default: off — the tier plans every request,
    /// keeping the wire stream byte-identical to the bare executor).
    ///
    /// With the cache on, an exact content repeat (same planning inputs,
    /// any request name) is served `queued` → `completed` without
    /// planning, and a near-duplicate miss warm-starts the
    /// branch-and-bound from the closest cached donor's retimed schedule
    /// — see [`noctest_replan`] for both mechanisms.
    #[must_use]
    pub fn plan_cache(mut self, capacity: usize) -> Self {
        self.plan_cache = Some(capacity);
        self
    }

    /// Registers an event sink; all shards' lifecycle events (and the
    /// tier's synthetic ones) are forwarded to every sink in
    /// registration order.
    #[must_use]
    pub fn sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Recovers the journal (if any), spawns the shard executors and
    /// dispatchers, and replays pending jobs.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the journal cannot be read or opened;
    /// [`ServeError::Campaign`] for invalid executor configuration.
    pub fn build(self) -> Result<ServeTier, ServeError> {
        let threads = self.threads.unwrap_or_else(|| {
            self.campaign.threads().unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
        });
        let (journal, recovery) = match &self.journal_path {
            Some(path) => {
                let recovery = journal::recover(path)?;
                (Some(Journal::open_append(path)?), recovery)
            }
            None => (None, Recovery::default()),
        };
        let shared = Arc::new(TierShared {
            sinks: self.sinks,
            emit_lock: Mutex::new(()),
            submit_lock: Mutex::new(()),
            journal,
            plan_cache: self
                .plan_cache
                .map(|capacity| Arc::new(PlanCache::new(capacity))),
            analyzer: DeltaAnalyzer::default(),
            dedupe: Mutex::new(recovery.completed),
            jobs: Mutex::new(BTreeMap::new()),
            counts: Mutex::new(Counts::default()),
            counts_cv: Condvar::new(),
            next_id: AtomicU64::new(recovery.next_job_id.max(1)),
            queue_depth: self.queue_depth,
            width: threads,
            rooms: (0..self.shards)
                .map(|_| ShardRoom {
                    room: Mutex::new(Room::default()),
                    cv: Condvar::new(),
                })
                .collect(),
            ring: ShardRing::new(self.shards),
        });
        let executors: Vec<Arc<Executor>> = (0..self.shards)
            .map(|_| {
                Ok(Arc::new(
                    Executor::builder()
                        .campaign(self.campaign.clone())
                        .threads(threads)?
                        .sink(Arc::new(TierSink {
                            shared: Arc::clone(&shared),
                        }) as Arc<dyn EventSink>)
                        .build(),
                ))
            })
            .collect::<Result<_, CampaignError>>()?;
        let dispatchers = if shared.queue_depth.is_some() {
            (0..self.shards)
                .map(|shard| {
                    let shared = Arc::clone(&shared);
                    let executor = Arc::clone(&executors[shard]);
                    std::thread::Builder::new()
                        .name(format!("noctest-serve-dispatch-{shard}"))
                        .spawn(move || dispatcher(&shared, &executor, shard))
                        .expect("dispatcher thread spawns")
                })
                .collect()
        } else {
            Vec::new()
        };
        let tier = ServeTier {
            shared,
            executors,
            dispatchers,
        };
        for pending in recovery.pending {
            tier.replay(pending);
        }
        Ok(tier)
    }
}

/// The service tier: sharded executors, fair admission, durable journal.
/// See the module docs for the submission lifecycle.
pub struct ServeTier {
    shared: Arc<TierShared>,
    executors: Vec<Arc<Executor>>,
    dispatchers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ServeTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let counts = lock(&self.shared.counts);
        f.debug_struct("ServeTier")
            .field("shards", &self.executors.len())
            .field("admitted", &counts.admitted)
            .field("terminal", &counts.terminal)
            .finish()
    }
}

impl ServeTier {
    /// Starts building a tier.
    #[must_use]
    pub fn builder() -> ServeTierBuilder {
        ServeTierBuilder::default()
    }

    /// Number of executor shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.executors.len()
    }

    /// The shard `request` routes to (by affinity key — deterministic).
    #[must_use]
    pub fn shard_of(&self, request: &PlanRequest) -> usize {
        self.shard_of_doc(&request.to_json())
    }

    /// The shard of a request given its canonical form.
    fn shard_of_doc(&self, doc: &Json) -> usize {
        self.shared.ring.shard_of(affinity_of_doc(doc))
    }

    /// Jobs accepted so far (admitted + deduplicated + replayed).
    #[must_use]
    pub fn admitted(&self) -> u64 {
        lock(&self.shared.counts).admitted
    }

    /// `true` once any journal record failed to persist.
    #[must_use]
    pub fn journal_failed(&self) -> bool {
        self.shared.journal.as_ref().is_some_and(Journal::failed)
    }

    /// Plan-cache hit/miss/eviction counters, when a plan cache is
    /// configured ([`ServeTierBuilder::plan_cache`]).
    #[must_use]
    pub fn plan_cache_stats(&self) -> Option<noctest_replan::CacheStats> {
        self.shared.plan_cache.as_ref().map(|cache| cache.stats())
    }

    /// Submits an anonymous, default-priority request.
    pub fn submit(&self, request: PlanRequest) -> SubmitOutcome {
        self.submit_for(request, None, 0)
    }

    /// Submits a request under a client identity and priority. See the
    /// module docs for the lifecycle.
    pub fn submit_for(
        &self,
        request: PlanRequest,
        client: Option<&str>,
        priority: i32,
    ) -> SubmitOutcome {
        let _serial = lock(&self.shared.submit_lock);
        let doc = request.to_json();
        let text = doc.compact();
        let mut sub = Submission {
            job: None,
            request,
            client,
            priority,
            key: RequestKey(fnv1a(text.as_bytes())),
            shard: self.shard_of_doc(&doc),
            doc,
            text,
        };

        // Journal dedupe: an identical request with a journaled outcome
        // is served without planning.
        if self.shared.journal.is_some() {
            let hit = lock(&self.shared.dedupe)
                .get(&sub.key)
                .filter(|done| done.request_text == sub.text)
                .map(|done| done.outcome.clone());
            // A journal entry that no longer decodes (hand-edited file)
            // falls through to an ordinary replan.
            if let Some(outcome) = hit.and_then(|outcome| PlanOutcome::from_json_str(&outcome).ok())
            {
                let job = self.answer_stored(&sub, self.cache_copy(&sub.request), outcome);
                return SubmitOutcome::Deduped { job };
            }
        }

        // Content-addressed plan cache: an exact semantic hit (same
        // planning inputs, any name) is served without planning; a near
        // miss warm-starts the search from the closest cached donor.
        let mut warm_info: Option<(String, u32)> = None;
        let mut cache_request = None;
        if let Some(cache) = &self.shared.plan_cache {
            if let Some(outcome) = cache.lookup(&sub.request) {
                let content = ContentHash::of(&sub.request).to_hex();
                let job = self.answer_stored(&sub, None, outcome);
                return SubmitOutcome::Cached { job, content };
            }
            cache_request = Some(sub.request.clone());
            if let Some(warm) = self.shared.analyzer.analyze(cache, &sub.request) {
                warm_info = Some((warm.from.to_hex(), warm.distance));
                sub.request.search = warm.tuning(&sub.request);
            }
        }

        // Bounded fair admission.
        if let Some(depth) = self.shared.queue_depth {
            let client_name = client.unwrap_or("");
            if lock(&self.shared.rooms[sub.shard].room).waiting_for(client_name) >= depth {
                let shard = shard_name(sub.shard);
                return SubmitOutcome::Rejected {
                    request: sub.request.name,
                    client: client_name.to_owned(),
                    reason: wire::rejection_reason(client_name, depth, &shard),
                    shard,
                };
            }
        }

        let job = self.hand_off(sub, cache_request);
        match warm_info {
            Some((from, distance)) => SubmitOutcome::WarmStarted {
                job,
                from,
                distance,
            },
            None => SubmitOutcome::Admitted { job },
        }
    }

    /// Replays one journaled pending job with its original id, bypassing
    /// admission caps (it was admitted by the previous process).
    fn replay(&self, pending: PendingJob) {
        let doc = pending.request.to_json();
        let sub = Submission {
            job: Some(pending.job),
            client: pending.client.as_deref(),
            priority: pending.priority,
            key: pending.key,
            shard: self.shard_of_doc(&doc),
            doc,
            text: pending.request_text,
            request: pending.request,
        };
        let cache_request = self.cache_copy(&sub.request);
        self.hand_off(sub, cache_request);
    }

    /// The request's pristine copy for the plan cache, when one is on.
    fn cache_copy(&self, request: &PlanRequest) -> Option<PlanRequest> {
        self.shared.plan_cache.as_ref().map(|_| request.clone())
    }

    /// Registers the job record of `sub` under its pinned or a fresh id,
    /// counts it admitted and journals its `submit` record (a replayed
    /// job's is journaled already).
    fn track(&self, sub: &Submission, cache_request: Option<PlanRequest>, waiting: bool) -> u64 {
        let id = sub.job.unwrap_or_else(|| self.shared.alloc_id());
        lock(&self.shared.jobs).insert(
            id,
            JobRecord {
                name: sub.request.name.clone(),
                shard: sub.shard,
                key: sub.key,
                request_text: self.shared.journal.as_ref().map(|_| sub.text.clone()),
                cache_request,
                handle: None,
                cancel_requested: false,
                waiting,
                dispatched: false,
                terminal: false,
            },
        );
        lock(&self.shared.counts).admitted += 1;
        if let (Some(journal), None) = (&self.shared.journal, sub.job) {
            journal.append(&journal::submit_record(
                id,
                sub.key,
                sub.priority,
                sub.client,
                &sub.doc,
            ));
        }
        id
    }

    /// Answers `sub` from a stored outcome: the job is tracked, then
    /// goes `queued` → `completed` without planning.
    fn answer_stored(
        &self,
        sub: &Submission,
        cache_request: Option<PlanRequest>,
        outcome: PlanOutcome,
    ) -> JobId {
        let job = JobId(self.track(sub, cache_request, false));
        self.shared.emit_event(&PlanEvent::Queued {
            job,
            request: sub.request.name.clone(),
        });
        self.shared.finish_synthetic(&PlanEvent::Completed {
            job,
            request: sub.request.name.clone(),
            outcome: Box::new(outcome),
        });
        job
    }

    /// Tracks `sub` and hands it to its shard: with a queue depth the
    /// tier announces `queued` and parks it in the waiting room, without
    /// one it goes straight into the shard executor.
    fn hand_off(&self, sub: Submission, cache_request: Option<PlanRequest>) -> JobId {
        let admission = self.shared.queue_depth.is_some();
        let id = self.track(&sub, cache_request, admission);
        let mut spec = SubmitSpec::new(sub.request)
            .with_priority(sub.priority)
            .with_id(JobId(id));
        if let Some(client) = sub.client {
            spec = spec.with_client(client);
        }
        if admission {
            self.shared.emit_event(&PlanEvent::Queued {
                job: JobId(id),
                request: spec.request.name.clone(),
            });
            let spec = spec.quiet_queued();
            {
                let mut room = lock(&self.shared.rooms[sub.shard].room);
                room.enqueue(sub.client.unwrap_or(""), WaitingJob { id, spec });
            }
            self.shared.rooms[sub.shard].cv.notify_all();
        } else {
            let handle = self.executors[sub.shard].submit_spec(spec);
            // Kept for cancellation, unless the job already finished.
            if let Some(record) = lock(&self.shared.jobs)
                .get_mut(&id)
                .filter(|record| !record.terminal)
            {
                record.handle = Some(handle);
            }
        }
        JobId(id)
    }

    /// Cancels the job with `id`. Returns `false` when no such job was
    /// ever accepted (cancelling a terminal job is a successful no-op,
    /// matching the executor's semantics).
    pub fn cancel_by_id(&self, id: u64) -> bool {
        let found = lock(&self.shared.jobs).contains_key(&id);
        if found {
            self.cancel_known(id);
        }
        found
    }

    /// Cancels the most recent job submitted under `name` (repeated
    /// names shadow each other, like the daemon always resolved them).
    /// Returns `false` when the name matches nothing.
    pub fn cancel_by_name(&self, name: &str) -> bool {
        let id = lock(&self.shared.jobs)
            .iter()
            .rev()
            .find(|(_, r)| r.name == name)
            .map(|(id, _)| *id);
        match id {
            Some(id) => {
                self.cancel_known(id);
                true
            }
            None => false,
        }
    }

    /// Cancels every non-terminal job (the daemon's lost-consumer path).
    pub fn cancel_all(&self) {
        let ids: Vec<u64> = lock(&self.shared.jobs)
            .iter()
            .filter(|(_, r)| !r.terminal)
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            self.cancel_known(id);
        }
    }

    fn cancel_known(&self, id: u64) {
        let (terminal, waiting, shard, name) = {
            let jobs = lock(&self.shared.jobs);
            let Some(record) = jobs.get(&id) else {
                return;
            };
            (
                record.terminal,
                record.waiting,
                record.shard,
                record.name.clone(),
            )
        };
        if terminal {
            return;
        }
        if waiting {
            let removed = lock(&self.shared.rooms[shard].room).remove(id).is_some();
            if removed {
                // Never dispatched: the tier owns the terminal lifecycle.
                self.shared.finish_synthetic(&PlanEvent::Cancelled {
                    job: JobId(id),
                    request: name,
                });
                return;
            }
            // Lost the race to the dispatcher — fall through.
        }
        let handle = lock(&self.shared.jobs).get_mut(&id).and_then(|record| {
            record.cancel_requested = true;
            record.handle.clone()
        });
        if let Some(handle) = handle {
            handle.cancel();
        }
    }

    /// Blocks until every accepted job is terminal.
    pub fn join(&self) {
        let mut counts = lock(&self.shared.counts);
        while counts.terminal < counts.admitted {
            counts = self
                .shared
                .counts_cv
                .wait(counts)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for ServeTier {
    fn drop(&mut self) {
        for room in &self.shared.rooms {
            lock(&room.room).shutdown = true;
            room.cv.notify_all();
        }
        for dispatcher in self.dispatchers.drain(..) {
            let _ = dispatcher.join();
        }
        // Executors drop here: queued jobs drain, workers join. Jobs
        // still parked in a waiting room are abandoned — with a journal
        // they are exactly the pending records a restart replays.
    }
}

/// Recovers a journal without building a tier — exposed for tools and
/// tests that inspect durability state.
///
/// # Errors
///
/// Any [`std::io::Error`] from reading an existing journal file.
pub fn recover_journal(path: &Path) -> std::io::Result<Recovery> {
    journal::recover(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finished_jobs_keep_neither_a_handle_nor_request_text() {
        for depth in [None, Some(4)] {
            let path = std::env::temp_dir().join(format!(
                "noctest-tier-retention-{depth:?}-{}.ndjson",
                std::process::id()
            ));
            std::fs::remove_file(&path).ok();
            let mut builder = ServeTier::builder()
                .threads(1)
                .unwrap()
                .journal(&path)
                .plan_cache(4);
            if let Some(depth) = depth {
                builder = builder.queue_depth(depth);
            }
            let tier = builder.build().unwrap();
            let d695 = |name: &str, scheduler: &str| {
                PlanRequest::benchmark("d695", 4, 4)
                    .with_name(name)
                    .with_scheduler(scheduler)
            };
            let planned = tier.submit(d695("a", "greedy"));
            let failed = tier.submit(d695("b", "nope"));
            tier.join();
            // One of each way a job can end: planned, failed, served from
            // the dedupe map and served from the plan cache.
            assert!(matches!(planned, SubmitOutcome::Admitted { .. }));
            assert!(matches!(failed, SubmitOutcome::Admitted { .. }));
            assert!(matches!(
                tier.submit(d695("a", "greedy")),
                SubmitOutcome::Deduped { .. }
            ));
            assert!(matches!(
                tier.submit(d695("c", "greedy")),
                SubmitOutcome::Cached { .. }
            ));
            tier.join();
            let jobs = lock(&tier.shared.jobs);
            assert_eq!(jobs.len(), 4);
            for (id, record) in jobs.iter() {
                assert!(record.terminal, "job {id} is not terminal");
                assert!(record.handle.is_none(), "job {id} still holds its handle");
                assert!(
                    record.request_text.is_none(),
                    "job {id} still holds its request text"
                );
                assert!(
                    record.cache_request.is_none(),
                    "job {id} still holds its cache request"
                );
            }
            drop(jobs);
            drop(tier);
            std::fs::remove_file(&path).ok();
        }
    }
}
