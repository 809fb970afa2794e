//! # `plan::exec` — streaming, job-based plan execution.
//!
//! [`Campaign::run_all`] is a blocking batch: callers get nothing until
//! the slowest request finishes. This module is the service-shaped
//! execution layer underneath it:
//!
//! * [`Executor`] — a bounded worker pool over a [`Campaign`].
//!   [`Executor::submit`] returns immediately with a [`JobHandle`]
//!   carrying a process-unique [`JobId`]. Clients take turns in
//!   first-arrival order, and one client's jobs run in priority order
//!   (ties broken by submission order); with one client or none that is
//!   plain priority order. Jobs can be cancelled at any time,
//!   cooperatively even *inside* a long branch-and-bound search (the
//!   job's token reaches [`crate::sched::Scheduler::schedule_tuned`]).
//! * [`PlanEvent`] — the typed lifecycle stream every job emits:
//!   `Queued → Started → StageFinished* → Completed | Failed | Cancelled`,
//!   with [`StageFinished`](PlanEvent::StageFinished) carrying the same
//!   per-stage microsecond increments that land in the outcome's
//!   [`StageTiming`](crate::plan::StageTiming).
//! * [`EventSink`] — pluggable event consumers: [`EventCollector`]
//!   buffers events in memory (tests, progress UIs), [`NdjsonSink`]
//!   writes one compact JSON object per line to any writer (the daemon
//!   wire format of the `plan-serve` binary).
//! * Completion — [`JobHandle::wait`] blocks for one job's result, and
//!   the sinks see every terminal event in completion order. The
//!   executor keeps no finished job: once the worker is done with it,
//!   the job's result lives only as long as a [`JobHandle`] to it.
//! * Shared replays — an executor built with
//!   [`ExecutorBuilder::share_replays`] holds one [`ReplayMemo`] for its
//!   lifetime. Each distinct session is replayed solo on the worker of
//!   the first job that needs it, and every job composes its fidelity
//!   section from its sessions' results (or replays its whole schedule
//!   when its sessions could interfere), so a corpus run replays on
//!   every worker while it plans.
//! * Shared builds — every executor holds one bounded build memo. The
//!   first job with a given system input (SoC, mesh, processors, budget,
//!   priority, faults, timing) builds the system on its own worker, and
//!   jobs with the same input reuse it, so the schedulers of a corpus
//!   group build their system once. [`Executor::build_counts`] counts
//!   both.
//!
//! ```
//! use noctest_core::plan::exec::{Executor, JobResult};
//! use noctest_core::plan::PlanRequest;
//!
//! let executor = Executor::builder().build();
//! let fast = executor.submit(PlanRequest::benchmark("d695", 4, 4));
//! let doomed = executor.submit(PlanRequest::benchmark("d695", 4, 4).with_scheduler("nope"));
//! assert!(matches!(fast.wait(), JobResult::Completed(_)));
//! assert!(matches!(doomed.wait(), JobResult::Failed(_)));
//! ```

use std::collections::BinaryHeap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::error::PlanError;
use crate::json::Json;
use crate::plan::build_memo::{BuildCounts, BuildMemo};
use crate::plan::campaign::{run_pipeline, validate_thread_count, Campaign};
use crate::plan::error::CampaignError;
use crate::plan::outcome::{PlanOutcome, Stage};
use crate::plan::registry::SchedulerRegistry;
use crate::plan::request::PlanRequest;
use crate::replay::{ReplayCounts, ReplayMemo};
use crate::sched::CancelToken;

/// Locks a mutex, recovering the guard if a previous holder panicked —
/// one panicking job must not poison the pool for every job after it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a caught panic payload as the `CampaignError::Invalid`
/// message of the failed job.
fn panic_description(payload: &(dyn std::any::Any + Send)) -> String {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    format!("planning panicked: {message}")
}

/// Process-unique identifier of one submitted job (per executor,
/// assigned in submission order starting at 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The terminal result of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobResult {
    /// The pipeline finished; the outcome is attached.
    Completed(Box<PlanOutcome>),
    /// The pipeline failed; the error is attached.
    Failed(CampaignError),
    /// The job was cancelled before or during execution.
    Cancelled,
}

impl JobResult {
    /// Converts to the [`Campaign::run`] result shape; `None` for a
    /// cancelled job (which has no batch-API equivalent).
    #[must_use]
    pub fn into_result(self) -> Option<Result<PlanOutcome, CampaignError>> {
        match self {
            JobResult::Completed(outcome) => Some(Ok(*outcome)),
            JobResult::Failed(error) => Some(Err(error)),
            JobResult::Cancelled => None,
        }
    }

    /// The outcome, if the job completed.
    #[must_use]
    pub fn outcome(&self) -> Option<&PlanOutcome> {
        match self {
            JobResult::Completed(outcome) => Some(outcome),
            _ => None,
        }
    }
}

/// Where a job currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Submitted, waiting for a worker.
    Queued,
    /// A worker is executing the pipeline.
    Running,
    /// Terminal: completed.
    Completed,
    /// Terminal: failed.
    Failed,
    /// Terminal: cancelled.
    Cancelled,
}

/// One lifecycle event of one job. Every event carries the [`JobId`] and
/// the request's name; the per-job order is always
/// `Queued ≤ Started ≤ StageFinished* ≤ terminal` (terminal being exactly
/// one of `Completed` / `Failed` / `Cancelled`).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanEvent {
    /// The job entered the queue.
    Queued {
        /// The job.
        job: JobId,
        /// The request's name.
        request: String,
    },
    /// A worker picked the job up and the pipeline is running.
    Started {
        /// The job.
        job: JobId,
        /// The request's name.
        request: String,
    },
    /// One pipeline stage finished (only stages that actually ran are
    /// reported; a request with `validate = false` emits no `validate`
    /// event).
    StageFinished {
        /// The job.
        job: JobId,
        /// The request's name.
        request: String,
        /// Which stage finished.
        stage: Stage,
        /// Wall-clock stage time — the increment that lands in the
        /// outcome's [`StageTiming`](crate::plan::StageTiming) slot.
        micros: u64,
    },
    /// Terminal: the pipeline finished.
    Completed {
        /// The job.
        job: JobId,
        /// The request's name.
        request: String,
        /// The planning outcome.
        outcome: Box<PlanOutcome>,
    },
    /// Terminal: the pipeline failed.
    Failed {
        /// The job.
        job: JobId,
        /// The request's name.
        request: String,
        /// What went wrong.
        error: CampaignError,
    },
    /// Terminal: the job was cancelled (never preceded by `Completed`,
    /// never followed by anything).
    Cancelled {
        /// The job.
        job: JobId,
        /// The request's name.
        request: String,
    },
}

impl PlanEvent {
    /// The job this event belongs to.
    #[must_use]
    pub fn job(&self) -> JobId {
        match self {
            PlanEvent::Queued { job, .. }
            | PlanEvent::Started { job, .. }
            | PlanEvent::StageFinished { job, .. }
            | PlanEvent::Completed { job, .. }
            | PlanEvent::Failed { job, .. }
            | PlanEvent::Cancelled { job, .. } => *job,
        }
    }

    /// The name of the request this event belongs to.
    #[must_use]
    pub fn request(&self) -> &str {
        match self {
            PlanEvent::Queued { request, .. }
            | PlanEvent::Started { request, .. }
            | PlanEvent::StageFinished { request, .. }
            | PlanEvent::Completed { request, .. }
            | PlanEvent::Failed { request, .. }
            | PlanEvent::Cancelled { request, .. } => request,
        }
    }

    /// Stable lower-snake-case kind tag (the `event` member of the NDJSON
    /// form).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            PlanEvent::Queued { .. } => "queued",
            PlanEvent::Started { .. } => "started",
            PlanEvent::StageFinished { .. } => "stage_finished",
            PlanEvent::Completed { .. } => "completed",
            PlanEvent::Failed { .. } => "failed",
            PlanEvent::Cancelled { .. } => "cancelled",
        }
    }

    /// `true` for `Completed` / `Failed` / `Cancelled`.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            PlanEvent::Completed { .. } | PlanEvent::Failed { .. } | PlanEvent::Cancelled { .. }
        )
    }

    /// Encodes the event as a JSON value: `{"event": kind, "job": id,
    /// "request": name, ...}` with `stage`/`micros`, `outcome` or `error`
    /// on the kinds that carry them.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("event", Json::str(self.kind())),
            ("job", Json::int(self.job().0)),
            ("request", Json::str(self.request())),
        ];
        match self {
            PlanEvent::StageFinished { stage, micros, .. } => {
                members.push(("stage", Json::str(stage.name())));
                members.push(("micros", Json::int(*micros)));
            }
            PlanEvent::Completed { outcome, .. } => {
                members.push(("outcome", outcome.to_json()));
            }
            PlanEvent::Failed { error, .. } => {
                members.push(("error", Json::str(error.to_string())));
            }
            _ => {}
        }
        Json::obj(members)
    }

    /// The event as one compact NDJSON line (no trailing newline).
    #[must_use]
    pub fn to_ndjson_line(&self) -> String {
        self.to_json().compact()
    }
}

/// A consumer of [`PlanEvent`]s. The executor serialises calls (one
/// event at a time, per-job order preserved), so implementations only
/// need interior mutability, not reentrancy.
pub trait EventSink: Send + Sync {
    /// Consumes one event.
    fn emit(&self, event: &PlanEvent);
}

/// An [`EventSink`] buffering every event in memory — the channel-backed
/// collector for tests and progress displays.
#[derive(Debug, Default)]
pub struct EventCollector {
    events: Mutex<Vec<PlanEvent>>,
}

impl EventCollector {
    /// An empty collector (wrap in [`Arc`] to share with an executor).
    #[must_use]
    pub fn new() -> Self {
        EventCollector::default()
    }

    /// A copy of everything collected so far.
    #[must_use]
    pub fn snapshot(&self) -> Vec<PlanEvent> {
        lock(&self.events).clone()
    }

    /// Drains the buffer, returning everything collected so far.
    #[must_use]
    pub fn take(&self) -> Vec<PlanEvent> {
        std::mem::take(&mut *lock(&self.events))
    }
}

impl EventSink for EventCollector {
    fn emit(&self, event: &PlanEvent) {
        lock(&self.events).push(event.clone());
    }
}

/// An [`EventSink`] writing one compact JSON object per line — the
/// NDJSON wire format of the `plan-serve` daemon. Lines are flushed
/// immediately so a consumer on the other end of a pipe sees events
/// live, not on buffer boundaries.
///
/// [`EventSink::emit`] cannot return errors, so a failed write (broken
/// pipe, full disk) latches [`NdjsonSink::failed`] and suppresses
/// further output; callers that care about stream integrity check the
/// flag when they finish and report the loss instead of exiting 0 over
/// a truncated log.
pub struct NdjsonSink<W: Write + Send> {
    out: Mutex<W>,
    failed: std::sync::atomic::AtomicBool,
}

impl<W: Write + Send> NdjsonSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        NdjsonSink {
            out: Mutex::new(out),
            failed: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Writes an arbitrary JSON value as one line through the same lock
    /// as the events — daemons use this for their own control/error
    /// lines so they interleave cleanly with the event stream.
    pub fn write_line(&self, value: &Json) {
        if self.failed() {
            return;
        }
        let mut out = lock(&self.out);
        if writeln!(out, "{}", value.compact()).is_err() || out.flush().is_err() {
            self.failed.store(true, Ordering::Relaxed);
        }
    }

    /// `true` once any line failed to write or flush (the stream is
    /// incomplete from that point on).
    #[must_use]
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }
}

impl<W: Write + Send> std::fmt::Debug for NdjsonSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NdjsonSink").finish_non_exhaustive()
    }
}

impl<W: Write + Send> EventSink for NdjsonSink<W> {
    fn emit(&self, event: &PlanEvent) {
        self.write_line(&event.to_json());
    }
}

/// Everything one submission carries beyond the request itself — the
/// service-tier entry point. [`Executor::submit`] and
/// [`Executor::submit_with_priority`] are shorthands over this.
///
/// ```
/// use noctest_core::plan::exec::{Executor, JobId, SubmitSpec};
/// use noctest_core::plan::PlanRequest;
///
/// let executor = Executor::builder().build();
/// let spec = SubmitSpec::new(PlanRequest::benchmark("d695", 4, 4))
///     .with_id(JobId(40))
///     .with_client("alice");
/// let handle = executor.submit_spec(spec);
/// assert_eq!(handle.id(), JobId(40));
/// assert_eq!(handle.client(), Some("alice"));
/// // Internal allocation resumes past any explicit id.
/// assert_eq!(executor.submit(PlanRequest::benchmark("d695", 4, 4)).id(), JobId(41));
/// ```
#[derive(Debug, Clone)]
pub struct SubmitSpec {
    /// The request to plan.
    pub request: PlanRequest,
    /// Scheduling priority among the client's own jobs (higher runs
    /// first; ties in id order).
    pub priority: i32,
    /// Explicit job id. `None` (the default) allocates the next internal
    /// id; an explicit id advances the internal counter past it so later
    /// internal allocations never collide. Uniqueness of explicit ids is
    /// the caller's contract — a journal-replaying service tier owns its
    /// own allocator.
    pub id: Option<JobId>,
    /// Client identity: clients take turns in the queue, and
    /// [`Executor::waiting`] counts a client's queued jobs. Anonymous
    /// jobs queue as the client with the empty name. Carried on the job
    /// (see [`JobHandle::client`]); deliberately *not* part of the event
    /// wire format, which predates it.
    pub client: Option<String>,
}

impl SubmitSpec {
    /// A default-priority, auto-id, anonymous submission — exactly what
    /// [`Executor::submit`] does.
    #[must_use]
    pub fn new(request: PlanRequest) -> Self {
        SubmitSpec {
            request,
            priority: 0,
            id: None,
            client: None,
        }
    }

    /// Sets the priority (builder style).
    #[must_use]
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Pins the job id (builder style).
    #[must_use]
    pub fn with_id(mut self, id: JobId) -> Self {
        self.id = Some(id);
        self
    }

    /// Sets the client identity (builder style).
    #[must_use]
    pub fn with_client(mut self, client: impl Into<String>) -> Self {
        self.client = Some(client.into());
        self
    }
}

/// Per-job shared state (behind the [`JobHandle`]).
#[derive(Debug)]
struct JobInner {
    id: u64,
    request_name: String,
    client: Option<String>,
    cancel: CancelToken,
    phase: Mutex<Phase>,
    phase_cv: Condvar,
}

#[derive(Debug)]
enum Phase {
    Queued,
    Running,
    Done(JobResult),
}

impl JobInner {
    fn set_phase(&self, phase: Phase) {
        *lock(&self.phase) = phase;
        self.phase_cv.notify_all();
    }

    /// The client whose turn the job queues under.
    fn client_name(&self) -> &str {
        self.client.as_deref().unwrap_or("")
    }
}

/// A handle to one submitted job: its [`JobId`], live [`JobStatus`],
/// cooperative cancellation and a blocking [`JobHandle::wait`].
///
/// Dropping the handle does *not* cancel the job.
#[derive(Clone)]
pub struct JobHandle {
    inner: Arc<JobInner>,
    shared: std::sync::Weak<Shared>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.inner.id)
            .field("request", &self.inner.request_name)
            .field("status", &self.status())
            .finish()
    }
}

impl JobHandle {
    /// The job's id (submission order, starting at 1).
    #[must_use]
    pub fn id(&self) -> JobId {
        JobId(self.inner.id)
    }

    /// The submitted request's name.
    #[must_use]
    pub fn request_name(&self) -> &str {
        &self.inner.request_name
    }

    /// The submitting client's identity, when one was attached via
    /// [`SubmitSpec::with_client`].
    #[must_use]
    pub fn client(&self) -> Option<&str> {
        self.inner.client.as_deref()
    }

    /// Requests cancellation. A job still queued becomes terminal
    /// immediately (its `Cancelled` event is emitted from this call, and
    /// workers skip it when they reach it); a running job stops at the
    /// next pipeline stage boundary — or inside the stage, for schedulers
    /// that poll the token [`crate::sched::Scheduler::schedule_tuned`]
    /// hands them.
    /// Jobs already terminal are unaffected; cancelling twice is a no-op.
    pub fn cancel(&self) {
        self.inner.cancel.cancel();
        if let Some(shared) = self.shared.upgrade() {
            shared.finish_if_queued(&self.inner);
        }
    }

    /// The job's current lifecycle phase.
    #[must_use]
    pub fn status(&self) -> JobStatus {
        match &*lock(&self.inner.phase) {
            Phase::Queued => JobStatus::Queued,
            Phase::Running => JobStatus::Running,
            Phase::Done(JobResult::Completed(_)) => JobStatus::Completed,
            Phase::Done(JobResult::Failed(_)) => JobStatus::Failed,
            Phase::Done(JobResult::Cancelled) => JobStatus::Cancelled,
        }
    }

    /// Blocks until the job reaches a terminal state and returns (a clone
    /// of) its result.
    #[must_use]
    pub fn wait(&self) -> JobResult {
        let mut phase = lock(&self.inner.phase);
        loop {
            if let Phase::Done(result) = &*phase {
                return result.clone();
            }
            phase = self
                .inner
                .phase_cv
                .wait(phase)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One queue entry; a client's heap pops the highest priority first,
/// ties going to the earliest submission (lowest id) for determinism.
struct QueuedJob {
    priority: i32,
    inner: Arc<JobInner>,
    request: PlanRequest,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.inner.id == other.inner.id
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.priority, std::cmp::Reverse(self.inner.id))
            .cmp(&(other.priority, std::cmp::Reverse(other.inner.id)))
    }
}

/// One client's queued jobs.
struct Lane {
    client: String,
    jobs: BinaryHeap<QueuedJob>,
    /// Jobs in `jobs` that were not cancelled while queued: a cancelled
    /// job stays in the heap until a worker pops and drops it.
    waiting: usize,
}

/// The executor's queue: one lane per client, taking turns in
/// first-arrival order. A lane leaves the rotation when it empties, so a
/// client that comes back queues behind every client already waiting.
/// With one client or none there is one lane, and the order is its
/// heap's.
struct Queue {
    lanes: Vec<Lane>,
    /// The lane whose turn is next.
    turn: usize,
    shutdown: bool,
}

impl Queue {
    fn lane_mut(&mut self, client: &str) -> Option<&mut Lane> {
        self.lanes.iter_mut().find(|lane| lane.client == client)
    }

    fn push(&mut self, job: QueuedJob) {
        let client = job.inner.client_name();
        let lane = match self.lanes.iter().position(|lane| lane.client == client) {
            Some(lane) => lane,
            None => {
                self.lanes.push(Lane {
                    client: client.to_owned(),
                    jobs: BinaryHeap::new(),
                    waiting: 0,
                });
                self.lanes.len() - 1
            }
        };
        let lane = &mut self.lanes[lane];
        lane.waiting += 1;
        lane.jobs.push(job);
    }

    /// Pops the next job and marks it running, dropping the jobs that
    /// were cancelled while queued on the way (they do not use up their
    /// client's turn).
    fn pop(&mut self) -> Option<QueuedJob> {
        while !self.lanes.is_empty() {
            let turn = self.turn % self.lanes.len();
            let lane = &mut self.lanes[turn];
            let next = std::iter::from_fn(|| lane.jobs.pop()).find(QueuedJob::start);
            if next.is_some() {
                lane.waiting -= 1;
            }
            if lane.jobs.is_empty() {
                // The next lane slides into this turn.
                self.lanes.remove(turn);
                self.turn = turn;
            } else {
                self.turn = turn + 1;
            }
            if next.is_some() {
                return next;
            }
        }
        None
    }
}

impl QueuedJob {
    /// Claims the job for a worker: `false` when it was cancelled while
    /// queued. The phase lock is the arbiter of that race.
    fn start(&self) -> bool {
        let mut phase = lock(&self.inner.phase);
        if matches!(*phase, Phase::Done(_)) {
            return false;
        }
        *phase = Phase::Running;
        self.inner.phase_cv.notify_all();
        true
    }
}

struct Done {
    submitted: u64,
    finished: u64,
}

struct Shared {
    campaign: Campaign,
    queue: Mutex<Queue>,
    work_cv: Condvar,
    done: Mutex<Done>,
    done_cv: Condvar,
    sinks: Vec<Arc<dyn EventSink>>,
    /// Serialises event emission so sinks observe a single, consistent
    /// global order.
    emit_lock: Mutex<()>,
    next_id: AtomicU64,
    /// Every job's system comes from this memo, so jobs that describe
    /// the same system build it once.
    builds: BuildMemo,
    /// When set, fidelity-opted jobs replay through this one memo, so a
    /// replay key is simulated once per executor.
    replays: Option<ReplayMemo>,
}

impl Shared {
    fn emit(&self, event: &PlanEvent) {
        if self.sinks.is_empty() {
            return;
        }
        let _order = lock(&self.emit_lock);
        for sink in &self.sinks {
            sink.emit(event);
        }
    }

    /// Cancels a job that is still queued: flips it terminal under the
    /// queue and phase locks (so a worker racing to start it backs off,
    /// and its client's waiting count drops with it), emits the
    /// `Cancelled` event and releases any waiter immediately — a busy
    /// pool must not delay the cancellation of work it never started.
    fn finish_if_queued(&self, inner: &JobInner) {
        {
            let mut queue = lock(&self.queue);
            let mut phase = lock(&inner.phase);
            if !matches!(*phase, Phase::Queued) {
                return;
            }
            // Claim the terminal state under the lock but notify only
            // after the event is out, so released waiters find it in the
            // sinks. A queued job is still in its lane's heap.
            *phase = Phase::Done(JobResult::Cancelled);
            let lane = queue.lane_mut(inner.client_name());
            lane.expect("a queued job is in its client's lane").waiting -= 1;
        }
        self.emit(&PlanEvent::Cancelled {
            job: JobId(inner.id),
            request: inner.request_name.clone(),
        });
        inner.phase_cv.notify_all();
        self.record_done();
    }

    /// Counts one more terminal job.
    fn record_done(&self) {
        lock(&self.done).finished += 1;
        self.done_cv.notify_all();
    }

    /// Records a terminal result: terminal event, job phase, terminal
    /// count. The worker lets go of the job before it is counted, so
    /// once [`Executor::join`] returns only handles keep a job alive.
    fn finish(&self, inner: Arc<JobInner>, result: JobResult) {
        // The terminal event goes out BEFORE waiters are released: a
        // thread woken by `wait()` may immediately inspect a sink and
        // must find the event there. With no sinks, skip building the
        // event entirely — `Completed` deep-clones the outcome, pure
        // waste on the `run_all` compatibility path.
        if !self.sinks.is_empty() {
            let event = match &result {
                JobResult::Completed(outcome) => PlanEvent::Completed {
                    job: JobId(inner.id),
                    request: inner.request_name.clone(),
                    outcome: outcome.clone(),
                },
                JobResult::Failed(error) => PlanEvent::Failed {
                    job: JobId(inner.id),
                    request: inner.request_name.clone(),
                    error: error.clone(),
                },
                JobResult::Cancelled => PlanEvent::Cancelled {
                    job: JobId(inner.id),
                    request: inner.request_name.clone(),
                },
            };
            self.emit(&event);
        }
        inner.set_phase(Phase::Done(result));
        drop(inner);
        self.record_done();
    }

    /// Runs a job the queue marked running.
    fn execute(&self, job: QueuedJob) {
        let inner = job.inner;
        self.emit(&PlanEvent::Started {
            job: JobId(inner.id),
            request: inner.request_name.clone(),
        });
        // User-registered schedulers can panic; a panic must fail the
        // one job, not kill the worker — a dead worker would leave every
        // waiter (including `Campaign::run_all`) blocked forever.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_pipeline(
                self.campaign.registry(),
                &job.request,
                Some(&inner.cancel),
                &mut |stage, micros| {
                    self.emit(&PlanEvent::StageFinished {
                        job: JobId(inner.id),
                        request: inner.request_name.clone(),
                        stage,
                        micros,
                    });
                },
                Some(&self.builds),
                self.replays.as_ref(),
            )
        }));
        let result = match result {
            Ok(Ok(outcome)) => JobResult::Completed(Box::new(outcome)),
            // `Cancelled` is only a cancellation if *this job's* token
            // tripped; a user scheduler returning it spontaneously is an
            // ordinary failure (callers like `run_all` rely on cancelled
            // results never appearing for jobs they did not cancel).
            Ok(Err(CampaignError::Plan(PlanError::Cancelled))) if inner.cancel.is_cancelled() => {
                JobResult::Cancelled
            }
            Ok(Err(error)) => JobResult::Failed(error),
            Err(payload) => JobResult::Failed(CampaignError::Invalid(panic_description(&*payload))),
        };
        self.finish(inner, result);
    }

    fn worker(self: &Arc<Self>) {
        loop {
            let job = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(job) = queue.pop() {
                        break job;
                    }
                    if queue.shutdown {
                        return;
                    }
                    queue = self
                        .work_cv
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            self.execute(job);
        }
    }
}

/// Builds an [`Executor`]: campaign (registry + defaults), worker count
/// and event sinks.
#[derive(Default)]
pub struct ExecutorBuilder {
    campaign: Campaign,
    threads: Option<usize>,
    sinks: Vec<Arc<dyn EventSink>>,
    share_replays: bool,
}

impl std::fmt::Debug for ExecutorBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorBuilder")
            .field("campaign", &self.campaign)
            .field("threads", &self.threads)
            .field("sinks", &self.sinks.len())
            .field("share_replays", &self.share_replays)
            .finish()
    }
}

impl ExecutorBuilder {
    /// Executes jobs through `campaign` (its registry *and* its pinned
    /// thread count, unless [`ExecutorBuilder::threads`] overrides it).
    #[must_use]
    pub fn campaign(mut self, campaign: Campaign) -> Self {
        self.campaign = campaign;
        self
    }

    /// Shorthand for a default campaign over a custom registry.
    #[must_use]
    pub fn registry(mut self, registry: SchedulerRegistry) -> Self {
        self.campaign = Campaign::with_registry(registry);
        self
    }

    /// Pins the worker count (default: the campaign's pinned count, else
    /// available parallelism).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Invalid`] when `threads` is 0 — the same
    /// validation as [`Campaign::with_threads`].
    pub fn threads(mut self, threads: usize) -> Result<Self, CampaignError> {
        self.threads = Some(validate_thread_count(threads)?);
        Ok(self)
    }

    /// Registers an event sink; every job's lifecycle events are pushed
    /// to all sinks in registration order.
    #[must_use]
    pub fn sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Shares fidelity replays between jobs (default `false`). When set,
    /// the executor holds one [`ReplayMemo`] for its lifetime. The first
    /// job with a given session replays it solo on its own worker, and
    /// every later job with that session takes the result. A job composes
    /// its fidelity section from its sessions' results behind a
    /// link-disjointness certificate, and replays its whole schedule when
    /// the certificate fails. A job that simulated anything charges the
    /// wall time to its `Replay` stage; a job whose every session came
    /// from earlier jobs records no replay stage (`replay_micros = 0`).
    /// Fidelity sections are byte-identical to [`Campaign::run`]'s either
    /// way; [`Executor::replay_counts`] reports sessions simulated and
    /// shared and whole-schedule fallbacks. Single-request serving keeps
    /// the default, where every job replays its whole schedule on its own.
    #[must_use]
    pub fn share_replays(mut self, share: bool) -> Self {
        self.share_replays = share;
        self
    }

    /// Spawns the worker pool and returns the executor.
    #[must_use]
    pub fn build(self) -> Executor {
        let threads = self
            .threads
            .unwrap_or_else(|| self.campaign.effective_threads())
            .max(1);
        let shared = Arc::new(Shared {
            campaign: self.campaign,
            queue: Mutex::new(Queue {
                lanes: Vec::new(),
                turn: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done: Mutex::new(Done {
                submitted: 0,
                finished: 0,
            }),
            done_cv: Condvar::new(),
            sinks: self.sinks,
            emit_lock: Mutex::new(()),
            next_id: AtomicU64::new(1),
            builds: BuildMemo::new(threads),
            replays: self.share_replays.then(ReplayMemo::default),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("noctest-exec-{i}"))
                    .spawn(move || shared.worker())
                    .expect("worker thread spawns")
            })
            .collect();
        Executor { shared, workers }
    }
}

/// A bounded worker pool executing [`PlanRequest`]s as prioritised,
/// cancellable jobs with a typed event stream — the execution layer
/// underneath [`Campaign::run_all`].
///
/// The queue is fair between clients ([`SubmitSpec::client`]): they take
/// turns in first-arrival order, one job a turn, and each client's jobs
/// run in priority order, ties in submission order.
///
/// Dropping the executor stops accepting the queue as-is: already-queued
/// jobs still drain (workers are joined), so no submitted job is ever
/// silently lost.
pub struct Executor {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let done = lock(&self.shared.done);
        f.debug_struct("Executor")
            .field("workers", &self.workers.len())
            .field("submitted", &done.submitted)
            .field("finished", &done.finished)
            .finish()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::builder().build()
    }
}

impl Executor {
    /// An executor over the default campaign (default registry, available
    /// parallelism).
    #[must_use]
    pub fn new() -> Self {
        Executor::default()
    }

    /// Starts building an executor.
    #[must_use]
    pub fn builder() -> ExecutorBuilder {
        ExecutorBuilder::default()
    }

    /// The campaign jobs execute through.
    #[must_use]
    pub fn campaign(&self) -> &Campaign {
        &self.shared.campaign
    }

    /// Submits a job at the default priority (0).
    pub fn submit(&self, request: PlanRequest) -> JobHandle {
        self.submit_with_priority(request, 0)
    }

    /// Submits an anonymous job; higher priorities run first, ties in
    /// submission order (anonymous jobs share one client's turn, see
    /// [`SubmitSpec::client`]). The call never blocks: the job is queued
    /// and a handle returned immediately, with a `Queued` event emitted
    /// to the sinks.
    pub fn submit_with_priority(&self, request: PlanRequest, priority: i32) -> JobHandle {
        self.submit_spec(SubmitSpec::new(request).with_priority(priority))
    }

    /// Submits a job with full control over id, priority and client
    /// identity — see [`SubmitSpec`]. An explicit id
    /// advances the internal allocator past it, so mixing explicit and
    /// internal ids never collides (explicit-vs-explicit uniqueness is
    /// the caller's contract).
    pub fn submit_spec(&self, spec: SubmitSpec) -> JobHandle {
        let SubmitSpec {
            request,
            priority,
            id,
            client,
        } = spec;
        let id = match id {
            Some(JobId(id)) => {
                self.shared.next_id.fetch_max(id + 1, Ordering::Relaxed);
                id
            }
            None => self.shared.next_id.fetch_add(1, Ordering::Relaxed),
        };
        let inner = Arc::new(JobInner {
            id,
            request_name: request.name.clone(),
            client,
            cancel: CancelToken::new(),
            phase: Mutex::new(Phase::Queued),
            phase_cv: Condvar::new(),
        });
        lock(&self.shared.done).submitted += 1;
        self.shared.emit(&PlanEvent::Queued {
            job: JobId(id),
            request: inner.request_name.clone(),
        });
        lock(&self.shared.queue).push(QueuedJob {
            priority,
            inner: Arc::clone(&inner),
            request,
        });
        self.shared.work_cv.notify_one();
        JobHandle {
            inner,
            shared: Arc::downgrade(&self.shared),
        }
    }

    /// Fidelity replay work so far: sessions a job replayed solo,
    /// sessions a job took from an earlier job's solo replay, and jobs
    /// that replayed their whole schedule as a fallback. All zero unless
    /// built with [`ExecutorBuilder::share_replays`].
    #[must_use]
    pub fn replay_counts(&self) -> ReplayCounts {
        self.shared
            .replays
            .as_ref()
            .map_or_else(ReplayCounts::default, ReplayMemo::counts)
    }

    /// Systems and SoCs the executor's build memo built and shared so
    /// far. Every job gets its system through the memo: the first job
    /// with a given [`PlanRequest::build_system`] input builds it, and
    /// later jobs with the same input reuse it (their outcomes are
    /// byte-identical to [`Campaign::run`]'s either way).
    #[must_use]
    pub fn build_counts(&self) -> BuildCounts {
        self.shared.builds.counts()
    }

    /// Jobs of `client` still queued, not counting those cancelled while
    /// queued; anonymous jobs count under the empty name.
    #[must_use]
    pub fn waiting(&self, client: &str) -> usize {
        lock(&self.shared.queue)
            .lane_mut(client)
            .map_or(0, |lane| lane.waiting)
    }

    /// Jobs submitted so far.
    #[must_use]
    pub fn submitted(&self) -> u64 {
        lock(&self.shared.done).submitted
    }

    /// Jobs that reached a terminal state so far.
    #[must_use]
    pub fn finished(&self) -> u64 {
        lock(&self.shared.done).finished
    }

    /// Blocks until every job submitted so far is terminal.
    pub fn join(&self) {
        let mut done = lock(&self.shared.done);
        while done.finished < done.submitted {
            done = self
                .shared
                .done_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut queue = lock(&self.shared.queue);
            queue.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::BudgetSpec;

    fn d695(scheduler: &str) -> PlanRequest {
        PlanRequest::benchmark("d695", 4, 4)
            .with_processors("plasma", 2, 2)
            .with_budget(BudgetSpec::Fraction(0.6))
            .with_scheduler(scheduler)
    }

    #[test]
    fn builder_rejects_zero_threads_like_the_campaign() {
        let err = Executor::builder().threads(0).unwrap_err();
        assert!(matches!(err, CampaignError::Invalid(_)));
        // Identical message to Campaign::with_threads(0): one validation.
        assert_eq!(
            err.to_string(),
            Campaign::new().with_threads(0).unwrap_err().to_string()
        );
    }

    #[test]
    fn submit_completes_and_matches_campaign_run() {
        let executor = Executor::builder().threads(2).unwrap().build();
        let handle = executor.submit(d695("greedy"));
        let JobResult::Completed(streamed) = handle.wait() else {
            panic!("job failed");
        };
        assert_eq!(handle.status(), JobStatus::Completed);
        let direct = Campaign::new().run(&d695("greedy")).unwrap();
        assert_eq!(streamed.makespan, direct.makespan);
        assert_eq!(streamed.sessions, direct.sessions);
    }

    #[test]
    fn a_job_reusing_a_system_still_reports_its_build_stage() {
        let collector = Arc::new(EventCollector::new());
        let executor = Executor::builder()
            .threads(1)
            .unwrap()
            .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
            .build();
        let handles = [
            d695("greedy"),
            d695("smart"),
            d695("greedy").with_name("again"),
        ]
        .map(|request| executor.submit(request));
        executor.join();
        let events = collector.take();
        for handle in &handles {
            let JobResult::Completed(outcome) = handle.wait() else {
                panic!("job failed");
            };
            let build: Vec<u64> = events
                .iter()
                .filter_map(|e| match e {
                    PlanEvent::StageFinished {
                        job,
                        stage: Stage::Build,
                        micros,
                        ..
                    } if *job == handle.id() => Some(*micros),
                    _ => None,
                })
                .collect();
            assert_eq!(build, vec![outcome.timing.build_micros]);
        }
        assert_eq!(
            executor.build_counts(),
            BuildCounts {
                systems: (1, 2),
                socs: (1, 0),
            }
        );
    }

    #[test]
    fn events_observe_the_lifecycle_in_order() {
        let collector = Arc::new(EventCollector::new());
        let executor = Executor::builder()
            .threads(2)
            .unwrap()
            .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
            .build();
        let ok = executor.submit(d695("greedy"));
        let bad = executor.submit(d695("annealing"));
        executor.join();
        let events = collector.take();
        for handle in [&ok, &bad] {
            let of_job: Vec<&PlanEvent> =
                events.iter().filter(|e| e.job() == handle.id()).collect();
            assert_eq!(of_job.first().unwrap().kind(), "queued");
            assert!(of_job.last().unwrap().is_terminal());
            let started = of_job.iter().position(|e| e.kind() == "started");
            let terminal = of_job.len() - 1;
            if let Some(started) = started {
                assert!(started > 0 && started < terminal);
                for e in &of_job[started + 1..terminal] {
                    assert_eq!(e.kind(), "stage_finished");
                }
            }
        }
        // The failing job failed on scheduler resolution: before any
        // stage, with the registry's stable message.
        let failed: Vec<&PlanEvent> = events
            .iter()
            .filter(|e| e.job() == bad.id() && e.is_terminal())
            .collect();
        match failed.as_slice() {
            [PlanEvent::Failed { error, .. }] => {
                assert_eq!(
                    error.to_string(),
                    "unknown scheduler `annealing` (registered: greedy, optimal, optimal-par, portfolio, serial, smart)"
                );
            }
            other => panic!("expected one Failed event, got {other:?}"),
        }
        // The good job's stage events sum to its outcome timing.
        let JobResult::Completed(outcome) = ok.wait() else {
            panic!("good job failed")
        };
        let mut rebuilt = crate::plan::StageTiming::default();
        for e in &events {
            if let PlanEvent::StageFinished {
                stage, micros, job, ..
            } = e
            {
                if *job == ok.id() {
                    rebuilt.record(*stage, *micros);
                }
            }
        }
        assert_eq!(rebuilt, outcome.timing);
    }

    /// A scheduler that blocks until its flag is raised — pins a worker
    /// deterministically so tests can control queue state.
    #[derive(Debug)]
    struct Blocker(Arc<std::sync::atomic::AtomicBool>);

    impl crate::sched::Scheduler for Blocker {
        fn schedule_tuned(
            &self,
            sys: &crate::system::SystemUnderTest,
            _tuning: &crate::sched::SearchTuning,
            _cancel: Option<&crate::sched::CancelToken>,
        ) -> Result<crate::sched::Schedule, PlanError> {
            while !self.0.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            crate::sched::SerialScheduler.schedule(sys)
        }
    }

    #[test]
    fn priorities_order_the_queue_deterministically() {
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut campaign = Campaign::new();
        campaign
            .registry_mut()
            .register("blocker", Arc::new(Blocker(Arc::clone(&release))));
        let collector = Arc::new(EventCollector::new());
        let executor = Executor::builder()
            .campaign(campaign)
            .threads(1)
            .unwrap()
            .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
            .build();
        // The gate occupies the single worker while the rest queue up
        // (wait for it to actually start before queueing the others).
        let gate = executor.submit(d695("blocker").with_name("gate"));
        while gate.status() != JobStatus::Running {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let low = executor.submit_with_priority(d695("serial").with_name("low"), -5);
        let mid = executor.submit(d695("serial").with_name("mid"));
        let high = executor.submit_with_priority(d695("serial").with_name("high"), 9);
        release.store(true, Ordering::Relaxed);
        executor.join();
        let started: Vec<JobId> = collector
            .take()
            .iter()
            .filter(|e| e.kind() == "started")
            .map(PlanEvent::job)
            .collect();
        // The gate started first (it was alone); then priority order.
        assert_eq!(started, vec![gate.id(), high.id(), mid.id(), low.id()]);
    }

    #[test]
    fn clients_take_turns_and_each_runs_its_jobs_in_priority_order() {
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut campaign = Campaign::new();
        campaign
            .registry_mut()
            .register("blocker", Arc::new(Blocker(Arc::clone(&release))));
        let collector = Arc::new(EventCollector::new());
        let executor = Executor::builder()
            .campaign(campaign)
            .threads(1)
            .unwrap()
            .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
            .build();
        let submit = |client: &str, priority: i32, scheduler: &str| {
            executor.submit_spec(
                SubmitSpec::new(d695(scheduler))
                    .with_client(client)
                    .with_priority(priority),
            )
        };
        let gate = submit("hog", 0, "blocker");
        while gate.status() != JobStatus::Running {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // `a` arrives first and queues three jobs; `b` queues two in
        // between. The gate's client left the rotation when it started.
        let a_low = submit("a", -1, "serial");
        let a_high = submit("a", 5, "serial");
        let b_mid = submit("b", 0, "serial");
        let a_tie = submit("a", 5, "serial");
        let b_high = submit("b", 9, "serial");
        let waiting = ["a", "b", "hog"].map(|client| executor.waiting(client));
        // Released before asserting: a failed assertion must not leave
        // the worker blocked while the executor drops.
        release.store(true, Ordering::Relaxed);
        executor.join();
        // A running job is not waiting.
        assert_eq!(waiting, [3, 2, 0], "queued jobs per client");
        let started: Vec<JobId> = collector
            .take()
            .iter()
            .filter(|e| e.kind() == "started")
            .map(PlanEvent::job)
            .collect();
        // One job a turn, a before b; within a client the highest
        // priority first and equal priorities in submission order.
        let expected = [&gate, &a_high, &b_high, &a_tie, &b_mid, &a_low];
        assert_eq!(started, expected.map(JobHandle::id));
        assert_eq!((executor.waiting("a"), executor.waiting("b")), (0, 0));
    }

    #[test]
    fn a_job_cancelled_while_queued_stops_counting_as_waiting() {
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut campaign = Campaign::new();
        campaign
            .registry_mut()
            .register("blocker", Arc::new(Blocker(Arc::clone(&release))));
        let collector = Arc::new(EventCollector::new());
        let executor = Executor::builder()
            .campaign(campaign)
            .threads(1)
            .unwrap()
            .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
            .build();
        let gate = executor.submit(d695("blocker"));
        while gate.status() != JobStatus::Running {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let spec = |client: &str| SubmitSpec::new(d695("serial")).with_client(client);
        let doomed = executor.submit_spec(spec("a"));
        let kept = executor.submit_spec(spec("a"));
        let anonymous = executor.submit(d695("serial"));
        let before = (executor.waiting("a"), executor.waiting(""));
        // The cancelled job stays in its client's heap until a worker
        // drops it, but it no longer counts, and cancelling it twice
        // changes nothing.
        doomed.cancel();
        doomed.cancel();
        let after = executor.waiting("a");
        // Released before asserting: a failed assertion must not leave
        // the worker blocked while the executor drops.
        release.store(true, Ordering::Relaxed);
        executor.join();
        assert_eq!((before, after), ((2, 1), 1));
        assert_eq!(doomed.wait(), JobResult::Cancelled);
        assert!(matches!(kept.wait(), JobResult::Completed(_)));
        assert!(matches!(anonymous.wait(), JobResult::Completed(_)));
        assert_eq!((executor.waiting("a"), executor.waiting("")), (0, 0));
        let started: Vec<JobId> = collector
            .take()
            .iter()
            .filter(|e| e.kind() == "started")
            .map(PlanEvent::job)
            .collect();
        assert_eq!(started, vec![gate.id(), kept.id(), anonymous.id()]);
    }

    #[test]
    fn a_finished_job_is_freed_once_its_handles_drop() {
        let executor = Executor::builder().threads(1).unwrap().build();
        let handle = executor.submit(d695("greedy"));
        assert!(matches!(handle.wait(), JobResult::Completed(_)));
        executor.join();
        let job = Arc::downgrade(&handle.inner);
        drop(handle);
        // The worker let go of the job before `join` returned; nothing in
        // the executor keeps a finished job, its outcome included.
        assert!(
            job.upgrade().is_none(),
            "the executor still holds a finished job"
        );
    }

    #[test]
    fn cancelling_queued_jobs_never_starts_them() {
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut campaign = Campaign::new();
        campaign
            .registry_mut()
            .register("blocker", Arc::new(Blocker(Arc::clone(&release))));
        let collector = Arc::new(EventCollector::new());
        let executor = Executor::builder()
            .campaign(campaign)
            .threads(1)
            .unwrap()
            .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
            .build();
        // The blocker pins the only worker, so the doomed jobs are
        // guaranteed still queued when they are cancelled.
        let first = executor.submit(d695("blocker"));
        let doomed: Vec<JobHandle> = (0..4)
            .map(|i| executor.submit(d695("serial").with_name(format!("doomed{i}"))))
            .collect();
        for handle in &doomed {
            handle.cancel();
        }
        release.store(true, Ordering::Relaxed);
        for handle in &doomed {
            assert_eq!(handle.wait(), JobResult::Cancelled);
            assert_eq!(handle.status(), JobStatus::Cancelled);
        }
        assert!(matches!(first.wait(), JobResult::Completed(_)));
        executor.join();
        let events = collector.take();
        for handle in &doomed {
            let kinds: Vec<&str> = events
                .iter()
                .filter(|e| e.job() == handle.id())
                .map(PlanEvent::kind)
                .collect();
            assert_eq!(kinds, vec!["queued", "cancelled"], "{kinds:?}");
        }
        // The pool survives: a job submitted after the cancellations
        // completes normally.
        assert!(matches!(
            executor.submit(d695("greedy")).wait(),
            JobResult::Completed(_)
        ));
    }

    /// Panics on every request — exercises the worker's panic
    /// containment.
    #[derive(Debug)]
    struct Panicky;

    impl crate::sched::Scheduler for Panicky {
        fn schedule_tuned(
            &self,
            _sys: &crate::system::SystemUnderTest,
            _tuning: &crate::sched::SearchTuning,
            _cancel: Option<&crate::sched::CancelToken>,
        ) -> Result<crate::sched::Schedule, PlanError> {
            panic!("scheduler exploded");
        }
    }

    #[test]
    fn a_panicking_scheduler_fails_its_job_without_killing_the_pool() {
        let mut campaign = Campaign::new();
        campaign
            .registry_mut()
            .register("panicky", Arc::new(Panicky));
        let executor = Executor::builder()
            .campaign(campaign.clone())
            .threads(1)
            .unwrap()
            .build();
        // The panic is contained into a Failed result...
        let bad = executor.submit(d695("panicky"));
        match bad.wait() {
            JobResult::Failed(CampaignError::Invalid(message)) => {
                assert!(message.contains("panicked"), "{message}");
                assert!(message.contains("scheduler exploded"), "{message}");
            }
            other => panic!("expected Failed(Invalid), got {other:?}"),
        }
        // ...and the single worker survives to serve the next job.
        assert!(matches!(
            executor.submit(d695("greedy")).wait(),
            JobResult::Completed(_)
        ));
        // run_all over the same registry returns the error in place
        // instead of hanging (or propagating the panic) — on the pool
        // path AND on the single-worker fast path.
        for threads in [2, 1] {
            let campaign = campaign.clone().with_threads(threads).unwrap();
            let results = campaign.run_all(&[d695("panicky"), d695("greedy")]);
            assert!(
                matches!(&results[0], Err(CampaignError::Invalid(_))),
                "threads={threads}: {:?}",
                results[0]
            );
            assert!(results[1].is_ok(), "threads={threads}");
        }
    }

    /// Returns [`PlanError::Cancelled`] without any token being tripped
    /// — a user scheduler misusing the public variant.
    #[derive(Debug)]
    struct SelfCancelling;

    impl crate::sched::Scheduler for SelfCancelling {
        fn schedule_tuned(
            &self,
            _sys: &crate::system::SystemUnderTest,
            _tuning: &crate::sched::SearchTuning,
            _cancel: Option<&crate::sched::CancelToken>,
        ) -> Result<crate::sched::Schedule, PlanError> {
            Err(PlanError::Cancelled)
        }
    }

    #[test]
    fn spontaneous_cancelled_errors_are_failures_not_cancellations() {
        let mut campaign = Campaign::new();
        campaign
            .registry_mut()
            .register("self-cancelling", Arc::new(SelfCancelling));
        // Through the executor: the job's token never tripped, so this is
        // a Failed result, not a Cancelled one.
        let executor = Executor::builder()
            .campaign(campaign.clone())
            .threads(1)
            .unwrap()
            .build();
        let handle = executor.submit(d695("self-cancelling"));
        assert!(matches!(
            handle.wait(),
            JobResult::Failed(CampaignError::Plan(PlanError::Cancelled))
        ));
        // Through run_all: an Err in place, every request independent —
        // not a panic on the never-cancels invariant.
        let campaign = campaign.with_threads(2).unwrap();
        let results = campaign.run_all(&[d695("self-cancelling"), d695("greedy")]);
        assert!(matches!(
            &results[0],
            Err(CampaignError::Plan(PlanError::Cancelled))
        ));
        assert!(results[1].is_ok());
    }

    #[test]
    fn submit_spec_pins_ids_and_resumes_the_allocator_past_them() {
        let collector = Arc::new(EventCollector::new());
        let executor = Executor::builder()
            .threads(1)
            .unwrap()
            .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
            .build();
        let pinned = executor.submit_spec(
            SubmitSpec::new(d695("greedy"))
                .with_id(JobId(17))
                .with_client("alice"),
        );
        assert_eq!(pinned.id(), JobId(17));
        assert_eq!(pinned.client(), Some("alice"));
        // The internal allocator resumed past the explicit id: no reuse.
        let next = executor.submit(d695("serial"));
        assert_eq!(next.id(), JobId(18));
        assert_eq!(next.client(), None);
        executor.join();
        assert!(matches!(pinned.wait(), JobResult::Completed(_)));
        assert!(matches!(next.wait(), JobResult::Completed(_)));
        let kinds: Vec<&str> = collector
            .snapshot()
            .iter()
            .filter(|e| e.job() == pinned.id())
            .map(PlanEvent::kind)
            .collect();
        assert_eq!(kinds.first(), Some(&"queued"));
    }

    #[test]
    fn shared_replays_simulate_once_and_match_inline() {
        let request = d695("greedy").with_fidelity(2);
        let inline = Campaign::new().run(&request).unwrap();
        let inline_fidelity = inline.fidelity.expect("inline replay ran");
        let collector = Arc::new(EventCollector::new());
        let executor = Executor::builder()
            .threads(2)
            .unwrap()
            .sink(Arc::clone(&collector) as Arc<dyn EventSink>)
            .share_replays(true)
            .build();
        // Three requests with one schedule (names are not part of any
        // replay key): the first replays each of its sessions solo and
        // the twins take every session from the memo.
        let handles: Vec<JobHandle> = (0..3)
            .map(|i| executor.submit(request.clone().with_name(format!("twin{i}"))))
            .collect();
        executor.join();
        let sessions = inline_fidelity.sessions.len() as u64;
        assert!(sessions > 1);
        assert_eq!(
            executor.replay_counts(),
            ReplayCounts {
                simulated: sessions,
                shared: 2 * sessions,
                fallbacks: 0,
            }
        );
        // Exactly one job simulated; it alone reports a replay stage.
        let replay_events: Vec<JobId> = collector
            .take()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    PlanEvent::StageFinished {
                        stage: Stage::Replay,
                        ..
                    }
                )
            })
            .map(PlanEvent::job)
            .collect();
        assert_eq!(replay_events.len(), 1, "{replay_events:?}");
        for handle in &handles {
            let JobResult::Completed(outcome) = handle.wait() else {
                panic!("job failed");
            };
            assert_eq!(
                outcome.fidelity.as_ref(),
                Some(&inline_fidelity),
                "a shared replay must be byte-identical to the inline one"
            );
            if handle.id() != replay_events[0] {
                assert_eq!(outcome.timing.replay_micros, 0);
            }
        }
        // An executor that does not share replays each job on its own
        // and counts nothing.
        let plain = Executor::builder().threads(1).unwrap().build();
        let outcome = plain.submit(request).wait();
        assert_eq!(
            outcome.outcome().and_then(|o| o.fidelity.as_ref()),
            Some(&inline_fidelity)
        );
        assert_eq!(plain.replay_counts(), ReplayCounts::default());
    }

    #[test]
    fn ndjson_lines_are_compact_and_carry_the_deterministic_fields() {
        let event = PlanEvent::StageFinished {
            job: JobId(7),
            request: "r1".into(),
            stage: Stage::Schedule,
            micros: 42,
        };
        assert_eq!(
            event.to_ndjson_line(),
            r#"{"event":"stage_finished","job":7,"request":"r1","stage":"schedule","micros":42}"#
        );
        let failed = PlanEvent::Failed {
            job: JobId(2),
            request: "bad".into(),
            error: CampaignError::UnknownBenchmark("x".into()),
        };
        let line = failed.to_ndjson_line();
        assert!(line.starts_with(r#"{"event":"failed","job":2,"#), "{line}");
        assert!(!line.contains('\n'));
    }
}
