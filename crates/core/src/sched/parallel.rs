//! Work-stealing parallel branch-and-bound and the portfolio racer.
//!
//! [`ParallelOptimalScheduler`] shards the exact search of
//! [`OptimalScheduler`] across a work-stealing worker pool while keeping
//! the result **byte-identical to the serial search on within-budget
//! runs** and **deterministic at any fixed thread count** when the
//! expansion budget trips. The machinery:
//!
//! - **Frontier split.** A breadth-first sweep from the root keeps only
//!   *complete* levels, so the frontier is one full level of the search
//!   tree in lexicographic path order — exactly the order the serial
//!   depth-first search would visit those subtree roots. Each frontier
//!   node becomes an independent shard task carrying its path (the child
//!   ordinal at every level) as a canonical subtree id.
//! - **Work stealing.** Tasks are dealt round-robin into per-worker
//!   deques; a worker pops its own deque from the front and steals from
//!   the tail of a neighbour's when it drains. Stealing order cannot
//!   affect results (see determinism below), so the pool is free to
//!   balance however the machine schedules it.
//! - **Shared incumbent.** Every improving leaf is published to an
//!   atomic best-cost cell (`fetch_min`). Shards prune against it with
//!   *strict* comparison — the cell only ever holds achieved makespans,
//!   so a strict test can never cut the path to the first leaf achieving
//!   the optimum.
//! - **Deterministic merge.** Each shard records the first leaf (in its
//!   own depth-first order) of every strictly improving makespan it
//!   visits. The final schedule is the minimum over shards and
//!   split-time leaves by `(makespan, path)` — ties broken by the
//!   canonical subtree id, never by arrival time. That minimum is
//!   provably the same leaf the serial search would have recorded.
//! - **Deterministic budgets.** A finite expansion budget is spent in
//!   rounds: each round deals every unfinished shard a fixed slice of
//!   the remaining budget and freezes the shared bound at the round
//!   boundary, so what a shard explores depends only on its slice
//!   sequence and the frozen bound sequence — never on thread timing.
//!   Shards pause (their explicit stack is resumable) when the slice
//!   runs out and continue next round with the tightened bound.
//!   Unbudgeted (`max_expansions: None`) searches read the shared cell
//!   live instead: sharper pruning, and exhaustive runs stay
//!   deterministic because only the merge winner is observable.
//! - **One kernel.** Shards read the same `SearchCore` session table as
//!   the serial search (see [`crate::sched::optimal`]): cycles, power
//!   and link masks are looked up by slot, bit-for-bit the values
//!   `SystemUnderTest` returns, so the trees cannot diverge. A shard's
//!   node state keeps only slots, never footprints; its frames' candidate
//!   lists and the sessions its time edges retire live on two per-shard
//!   stacks that each undo truncates, so a node allocates nothing on the
//!   hot path.
//!
//! [`PortfolioScheduler`] races the parallel exact search against the
//! heuristic schedulers, cancelling the losers through per-entrant
//! [`CancelToken`]s the moment the exact search *proves* optimality; if
//! the budget trips first (or the instance exceeds the exponential-size
//! guard) every entrant finishes and the best result wins, with ties
//! broken by fixed entrant rank.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use crate::cut::{CutId, CutKind};
use crate::error::PlanError;
use crate::interface::InterfaceId;
use crate::sched::optimal::{
    check_guards, opening_incumbent, Active, OptimalScheduler, SearchCore,
};
use crate::sched::{
    CancelToken, GreedyScheduler, Schedule, ScheduledTest, Scheduler, SearchTuning,
    SerialScheduler, SmartScheduler, CANCEL_POLL_PERIOD,
};
use crate::system::SystemUnderTest;

/// Shards dealt per worker thread when splitting the root frontier —
/// enough slack that work stealing can rebalance uneven subtrees.
const TASKS_PER_THREAD: usize = 8;

/// Upper bound on frontier size regardless of thread count.
const MAX_FRONTIER: usize = 512;

/// Upper bound on frontier depth (guards degenerate chains whose
/// branching factor never reaches the frontier target).
const MAX_SPLIT_DEPTH: usize = 32;

/// Number of budget rounds a finite expansion budget is dealt over.
/// More rounds tighten the frozen bound more often (better pruning);
/// fewer rounds lower synchronisation overhead.
const BUDGET_ROUNDS: u64 = 8;

/// Which incumbent opened a branch-and-bound search — reported in
/// [`SearchStats`] so benches can attribute warm-start speedups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedKind {
    /// The paper's first-available-interface heuristic won the seed race.
    Greedy,
    /// The lookahead heuristic won.
    Smart,
    /// A valid [`crate::sched::SearchTuning::warm`] schedule beat both
    /// heuristics and opened the search.
    Warm,
}

impl SeedKind {
    /// The stable lowercase label (`greedy` / `smart` / `warm`) used in
    /// bench reports and on the wire.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SeedKind::Greedy => "greedy",
            SeedKind::Smart => "smart",
            SeedKind::Warm => "warm",
        }
    }
}

/// How a branch-and-bound search ended — exposed so callers (the
/// portfolio racer, `search_bench`) can tell a *proved* optimum from a
/// budget-limited incumbent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Total node expansions charged against the budget (for the
    /// parallel search: split cost plus every shard's count).
    pub expansions: u64,
    /// True when the expansion budget cut the search short; the result
    /// is the best incumbent, not a proof of optimality.
    pub exhausted: bool,
    /// Worker threads used (1 for the serial search).
    pub threads: usize,
    /// Frontier shards searched (0 when the serial path ran).
    pub tasks: usize,
    /// Which incumbent opened the search (seed provenance).
    pub seed: SeedKind,
}

impl SearchStats {
    /// True when the search completed within budget, i.e. the returned
    /// schedule is provably minimal.
    #[must_use]
    pub fn proved_optimal(&self) -> bool {
        !self.exhausted
    }
}

/// Mutable state of one search-tree node, updated in place by
/// apply/undo edge deltas (cheaper than cloning per node).
#[derive(Debug, Clone)]
struct NodeState {
    now: u64,
    active: Vec<Active>,
    active_power: f64,
    proc_ready: Vec<Option<u64>>,
    remaining: Vec<CutId>,
    entries: Vec<ScheduledTest>,
    /// Sessions retired by the time edges applied so far, stacked in
    /// edge order so each undo restores exactly its own.
    retired: Vec<Active>,
}

impl NodeState {
    fn root(core: &SearchCore<'_>) -> NodeState {
        NodeState {
            now: 0,
            active: Vec::new(),
            active_power: 0.0,
            proc_ready: vec![None; core.proc_count()],
            remaining: core.sys.cuts().iter().map(|c| c.id).collect(),
            entries: Vec::new(),
            retired: Vec::new(),
        }
    }

    fn makespan(&self) -> u64 {
        self.entries.iter().map(|e| e.end).max().unwrap_or(0)
    }
}

/// Reversible delta for one applied tree edge.
#[derive(Debug)]
enum Undo {
    Start {
        cut: CutId,
        pos: usize,
        prev_power: f64,
    },
    Advance {
        /// Length of `NodeState::retired` before this edge.
        base: usize,
        ready: Vec<(usize, Option<u64>)>,
        prev_now: u64,
        prev_power: f64,
    },
}

/// Starts `session` now, mirroring the serial search's branch 1
/// mutation exactly (including the floating-point evaluation order of
/// the power sum, which feasibility tests depend on).
fn start_edge(state: &mut NodeState, session: Active) -> Undo {
    let Active {
        cut,
        interface,
        end,
        power,
        ..
    } = session;
    state.active.push(session);
    let pos = state
        .remaining
        .iter()
        .position(|&c| c == cut)
        .expect("candidate cut is waiting");
    state.remaining.remove(pos);
    state.entries.push(ScheduledTest {
        cut,
        interface,
        start: state.now,
        end,
    });
    let prev_power = state.active_power;
    state.active_power = prev_power + power;
    Undo::Start {
        cut,
        pos,
        prev_power,
    }
}

/// Advances time to the next completion, mirroring the serial search's
/// branch 2 mutation exactly.
fn advance_edge(core: &SearchCore<'_>, state: &mut NodeState) -> Undo {
    let next = state
        .active
        .iter()
        .map(|a| a.end)
        .min()
        .expect("advance requires an active session");
    let base = state.retired.len();
    state
        .retired
        .extend(state.active.iter().filter(|a| a.end <= next));
    state.active.retain(|a| a.end > next);
    let finished = &state.retired[base..];
    let freed_power: f64 = finished.iter().map(|a| a.power).sum();
    let mut ready = Vec::new();
    for a in finished {
        if let CutKind::Processor(idx) = core.sys.cut(a.cut).kind {
            ready.push((idx, state.proc_ready[idx]));
            state.proc_ready[idx] = Some(a.end);
        }
    }
    let prev_now = state.now;
    let prev_power = state.active_power;
    state.now = next;
    state.active_power = prev_power - freed_power;
    Undo::Advance {
        base,
        ready,
        prev_now,
        prev_power,
    }
}

fn undo_edge(state: &mut NodeState, undo: Undo) {
    match undo {
        Undo::Start {
            cut,
            pos,
            prev_power,
        } => {
            state.entries.pop();
            state.remaining.insert(pos, cut);
            // The subtree may have reordered `active` (the time branch
            // retains and re-extends it), so remove by identity.
            let mine = state
                .active
                .iter()
                .position(|a| a.cut == cut)
                .expect("session still active on unwind");
            state.active.remove(mine);
            state.active_power = prev_power;
        }
        Undo::Advance {
            base,
            ready,
            prev_now,
            prev_power,
        } => {
            for (idx, old) in ready {
                state.proc_ready[idx] = old;
            }
            state.active.extend(state.retired.drain(base..));
            state.now = prev_now;
            state.active_power = prev_power;
        }
    }
}

/// One entered node on a shard's explicit DFS stack. Its candidates are
/// `Task::candidates[start..end]`; `next` is the next one to try.
#[derive(Debug)]
struct Frame {
    start: usize,
    next: usize,
    end: usize,
    advanced: bool,
    /// Delta of the child edge currently applied below this frame,
    /// reverted when control returns here.
    undo: Option<Undo>,
}

/// A complete schedule discovered while splitting the frontier.
#[derive(Debug)]
struct LeafRec {
    value: u64,
    path: Vec<u32>,
    entries: Vec<ScheduledTest>,
}

/// A frontier node awaiting shard search.
#[derive(Debug)]
struct SplitNode {
    state: NodeState,
    min_start: Option<(CutId, InterfaceId)>,
    path: Vec<u32>,
}

/// How the cross-shard bound is read: frozen at a round boundary
/// (deterministic under finite budgets) or live from the shared cell
/// (sharper, used only for exhaustive searches).
#[derive(Clone, Copy)]
enum BoundMode<'a> {
    Frozen(u64),
    Live(&'a AtomicU64),
}

impl BoundMode<'_> {
    fn value(self) -> u64 {
        match self {
            BoundMode::Frozen(v) => v,
            BoundMode::Live(cell) => cell.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum TaskStatus {
    Finished,
    Paused,
    Cancelled,
}

enum Enter {
    /// A frame was pushed; keep driving.
    Descended,
    /// Leaf recorded or subtree pruned; nothing pushed.
    Closed,
    /// The cancellation token fired.
    Cancelled,
}

/// One shard: a resumable depth-first search over a frontier subtree.
#[derive(Debug)]
struct Task {
    path: Vec<u32>,
    root_min_start: Option<(CutId, InterfaceId)>,
    state: NodeState,
    stack: Vec<Frame>,
    /// Candidate lists of every frame on `stack`, stacked in frame order.
    candidates: Vec<(CutId, InterfaceId)>,
    entered: bool,
    finished: bool,
    /// Shard-local incumbent value (starts at the seed makespan);
    /// recording uses strict `<`, so `best_entries` is the shard's
    /// depth-first-first achiever of its best value.
    local_best: u64,
    best_entries: Option<Vec<ScheduledTest>>,
    expansions: u64,
}

impl Task {
    fn new(node: SplitNode, seed_value: u64) -> Task {
        Task {
            path: node.path,
            root_min_start: node.min_start,
            state: node.state,
            stack: Vec::new(),
            candidates: Vec::new(),
            entered: false,
            finished: false,
            local_best: seed_value,
            best_entries: None,
            expansions: 0,
        }
    }

    /// Runs the shard for at most `slice` node expansions; resumable.
    fn run(
        &mut self,
        core: &SearchCore<'_>,
        slice: u64,
        bound: BoundMode<'_>,
        global: &AtomicU64,
        cancel: Option<&CancelToken>,
    ) -> TaskStatus {
        let mut used = 0u64;
        let status = self.drive(core, slice, bound, global, cancel, &mut used);
        self.expansions += used;
        if status == TaskStatus::Finished {
            self.finished = true;
        }
        status
    }

    fn drive(
        &mut self,
        core: &SearchCore<'_>,
        slice: u64,
        bound: BoundMode<'_>,
        global: &AtomicU64,
        cancel: Option<&CancelToken>,
        used: &mut u64,
    ) -> TaskStatus {
        if !self.entered {
            self.entered = true;
            match self.enter(core, self.root_min_start, bound, global, cancel, used) {
                Enter::Cancelled => return TaskStatus::Cancelled,
                Enter::Closed => return TaskStatus::Finished,
                Enter::Descended => {}
            }
        }
        loop {
            if self.stack.is_empty() {
                return TaskStatus::Finished;
            }
            // Revert the edge of the child we just returned from.
            if let Some(undo) = self.stack.last_mut().and_then(|f| f.undo.take()) {
                undo_edge(&mut self.state, undo);
            }
            if *used >= slice {
                return TaskStatus::Paused;
            }
            let top = self.stack.last_mut().expect("non-empty stack");
            if top.next < top.end {
                let (cut, iface) = self.candidates[top.next];
                top.next += 1;
                let session = core.start(self.state.now, cut, iface);
                // Strict `>` against the cross-shard bound: the cell
                // holds achieved values, so this can never prune the
                // first achiever of the optimum.
                if session.end >= self.local_best || session.end > bound.value() {
                    continue;
                }
                let undo = start_edge(&mut self.state, session);
                self.stack.last_mut().expect("frame").undo = Some(undo);
                if let Enter::Cancelled =
                    self.enter(core, Some((cut, iface)), bound, global, cancel, used)
                {
                    return TaskStatus::Cancelled;
                }
            } else if !top.advanced {
                top.advanced = true;
                if !self.state.active.is_empty() {
                    let undo = advance_edge(core, &mut self.state);
                    self.stack.last_mut().expect("frame").undo = Some(undo);
                    if let Enter::Cancelled = self.enter(core, None, bound, global, cancel, used) {
                        return TaskStatus::Cancelled;
                    }
                }
            } else {
                let start = top.start;
                self.stack.pop();
                self.candidates.truncate(start);
            }
        }
    }

    /// Node entry: record a leaf, prune, or push a frame — mirroring the
    /// serial search's entry sequence (leaf check, cancellation poll,
    /// expansion count, bound prune, candidate enumeration).
    fn enter(
        &mut self,
        core: &SearchCore<'_>,
        min_start: Option<(CutId, InterfaceId)>,
        bound: BoundMode<'_>,
        global: &AtomicU64,
        cancel: Option<&CancelToken>,
        used: &mut u64,
    ) -> Enter {
        if self.state.remaining.is_empty() {
            let makespan = self.state.makespan();
            if makespan < self.local_best {
                self.local_best = makespan;
                self.best_entries = Some(self.state.entries.clone());
                global.fetch_min(makespan, Ordering::Relaxed);
            }
            return Enter::Closed;
        }
        if (self.expansions + *used).is_multiple_of(CANCEL_POLL_PERIOD)
            && cancel.is_some_and(CancelToken::is_cancelled)
        {
            return Enter::Cancelled;
        }
        *used += 1;
        let lb = core.lower_bound(self.state.now, &self.state.active, &self.state.remaining);
        if lb >= self.local_best || lb > bound.value() {
            return Enter::Closed;
        }
        let start = self.candidates.len();
        core.candidates(
            &self.state.active,
            self.state.active_power,
            &self.state.proc_ready,
            self.state.now,
            &self.state.remaining,
            min_start,
            &mut self.candidates,
        );
        self.stack.push(Frame {
            start,
            next: start,
            end: self.candidates.len(),
            advanced: false,
            undo: None,
        });
        Enter::Descended
    }
}

/// Splits the root into one complete breadth-first level of at least
/// `target` nodes (lexicographic path order = serial DFS order of the
/// subtree roots). Leaves met on the way are returned as merge
/// candidates; the node count spent is charged against the budget.
fn split_frontier(
    core: &SearchCore<'_>,
    seed_value: u64,
    target: usize,
    split_budget: u64,
) -> (Vec<SplitNode>, Vec<LeafRec>, u64) {
    let mut level = vec![SplitNode {
        state: NodeState::root(core),
        min_start: None,
        path: Vec::new(),
    }];
    let mut leaves = Vec::new();
    let mut cost = 0u64;
    let mut depth = 0usize;
    while !level.is_empty()
        && level.len() < target
        && depth < MAX_SPLIT_DEPTH
        && cost + level.len() as u64 <= split_budget
    {
        let mut next = Vec::new();
        for node in &level {
            cost += 1;
            if core.lower_bound(node.state.now, &node.state.active, &node.state.remaining)
                >= seed_value
            {
                continue;
            }
            let mut candidates = Vec::new();
            core.candidates(
                &node.state.active,
                node.state.active_power,
                &node.state.proc_ready,
                node.state.now,
                &node.state.remaining,
                node.min_start,
                &mut candidates,
            );
            let mut child_idx = 0u32;
            for (cut, iface) in candidates {
                let session = core.start(node.state.now, cut, iface);
                if session.end >= seed_value {
                    continue;
                }
                let mut child = node.state.clone();
                start_edge(&mut child, session);
                let mut path = node.path.clone();
                path.push(child_idx);
                child_idx += 1;
                if child.remaining.is_empty() {
                    let value = child.makespan();
                    if value < seed_value {
                        leaves.push(LeafRec {
                            value,
                            path,
                            entries: child.entries,
                        });
                    }
                } else {
                    next.push(SplitNode {
                        state: child,
                        min_start: Some((cut, iface)),
                        path,
                    });
                }
            }
            if !node.state.active.is_empty() {
                let mut child = node.state.clone();
                advance_edge(core, &mut child);
                let mut path = node.path.clone();
                path.push(child_idx);
                next.push(SplitNode {
                    state: child,
                    min_start: None,
                    path,
                });
            }
        }
        level = next;
        depth += 1;
    }
    (level, leaves, cost)
}

/// Runs one round of the given (task index, slice) work items over
/// `threads` work-stealing workers; returns the expansions consumed and
/// whether any shard observed cancellation.
fn run_round(
    core: &SearchCore<'_>,
    slots: &mut [Option<Task>],
    work: &[(usize, u64)],
    threads: usize,
    bound: BoundMode<'_>,
    global: &AtomicU64,
    cancel: Option<&CancelToken>,
) -> (u64, bool) {
    let queues: Vec<Mutex<VecDeque<(usize, Task, u64)>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    for (j, &(idx, slice)) in work.iter().enumerate() {
        let task = slots[idx].take().expect("task present for round");
        queues[j % threads]
            .lock()
            .expect("queue lock")
            .push_back((idx, task, slice));
    }
    let done: Mutex<Vec<(usize, Task)>> = Mutex::new(Vec::new());
    let consumed = AtomicU64::new(0);
    let saw_cancel = AtomicBool::new(false);
    std::thread::scope(|s| {
        for w in 0..threads {
            let queues = &queues;
            let done = &done;
            let consumed = &consumed;
            let saw_cancel = &saw_cancel;
            s.spawn(move || loop {
                // Own deque from the front; steal from a neighbour's tail.
                let mut job = queues[w].lock().expect("queue lock").pop_front();
                if job.is_none() {
                    for off in 1..threads {
                        job = queues[(w + off) % threads]
                            .lock()
                            .expect("queue lock")
                            .pop_back();
                        if job.is_some() {
                            break;
                        }
                    }
                }
                let Some((idx, mut task, slice)) = job else {
                    break;
                };
                let before = task.expansions;
                let status = task.run(core, slice, bound, global, cancel);
                consumed.fetch_add(task.expansions - before, Ordering::Relaxed);
                if status == TaskStatus::Cancelled {
                    saw_cancel.store(true, Ordering::Relaxed);
                }
                done.lock().expect("done lock").push((idx, task));
            });
        }
    });
    for (idx, task) in done.into_inner().expect("done lock") {
        slots[idx] = Some(task);
    }
    (consumed.into_inner(), saw_cancel.into_inner())
}

/// Work-stealing parallel version of [`OptimalScheduler`].
///
/// Registry name `optimal-par`. Within budget the schedule is
/// byte-identical to the serial `optimal` search at *any* thread count;
/// budget-exhausted runs return a valid incumbent that is deterministic
/// at a fixed thread count. See the [module docs](self) for how both
/// properties survive work stealing.
#[derive(Debug, Clone, Copy)]
pub struct ParallelOptimalScheduler {
    /// Refuse systems with more cores than this (default 10).
    pub max_cores: usize,
    /// Node-expansion budget shared by all shards; `None` searches
    /// exhaustively (default two million nodes).
    pub max_expansions: Option<u64>,
    /// Worker threads; 0 (the default) uses
    /// [`std::thread::available_parallelism`].
    pub threads: usize,
}

impl Default for ParallelOptimalScheduler {
    fn default() -> Self {
        ParallelOptimalScheduler {
            max_cores: 10,
            max_expansions: Some(2_000_000),
            threads: 0,
        }
    }
}

impl ParallelOptimalScheduler {
    /// Creates the scheduler with the default guard, budget and
    /// auto-detected thread count.
    #[must_use]
    pub fn new() -> Self {
        ParallelOptimalScheduler::default()
    }

    /// Replaces the node-expansion budget (`None` = exhaustive).
    #[must_use]
    pub fn with_max_expansions(mut self, max_expansions: Option<u64>) -> Self {
        self.max_expansions = max_expansions;
        self
    }

    /// Replaces the worker-thread count (0 = auto-detect).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn resolve_threads(&self, tuning: &SearchTuning) -> usize {
        let n = tuning.threads.unwrap_or(self.threads);
        if n == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            n
        }
    }

    /// Runs the parallel search and reports how it ended.
    ///
    /// # Errors
    ///
    /// [`PlanError::Cancelled`] when `cancel` fires mid-search;
    /// otherwise exactly the errors of the serial `optimal` search
    /// (empty interface set, exponential-size guard).
    pub fn schedule_with_stats(
        &self,
        sys: &SystemUnderTest,
        tuning: &SearchTuning,
        cancel: Option<&CancelToken>,
    ) -> Result<(Schedule, SearchStats), PlanError> {
        check_guards(sys, self.max_cores)?;
        let threads = self.resolve_threads(tuning);
        if threads <= 1 {
            // One worker: run the serial search itself, so T=1 is
            // byte-identical to `optimal` by construction.
            let serial = OptimalScheduler {
                max_cores: self.max_cores,
                max_expansions: self.max_expansions,
            };
            return serial.schedule_with_stats(sys, tuning, cancel);
        }
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(PlanError::Cancelled);
        }
        // The opening incumbent (heuristic seed, possibly tightened by a
        // warm start) bounds the split phase and every shard alike; see
        // `opening_incumbent` for why the tighter warm bound cannot
        // change the within-budget result.
        let (seed, seed_value, seed_kind) = opening_incumbent(sys, tuning)?;
        let core = SearchCore::new(sys);
        let target = (threads * TASKS_PER_THREAD).min(MAX_FRONTIER);
        let split_budget = self.max_expansions.map_or(u64::MAX, |b| b / 2);
        let (frontier, leaves, split_cost) =
            split_frontier(&core, seed_value, target, split_budget);
        let task_count = frontier.len();
        let mut slots: Vec<Option<Task>> = frontier
            .into_iter()
            .map(|node| Some(Task::new(node, seed_value)))
            .collect();
        let global = AtomicU64::new(seed_value);
        let mut cancelled = false;
        if let Some(budget) = self.max_expansions {
            let mut remaining = budget.saturating_sub(split_cost);
            let mut round = 0u64;
            loop {
                let unfinished: Vec<usize> = slots
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.as_ref().is_some_and(|t| !t.finished))
                    .map(|(i, _)| i)
                    .collect();
                if unfinished.is_empty() || remaining == 0 {
                    break;
                }
                let rounds_left = BUDGET_ROUNDS.saturating_sub(round).max(1);
                let round_budget = (remaining / rounds_left).clamp(1, remaining);
                let n = unfinished.len() as u64;
                let base = round_budget / n;
                let extra = round_budget % n;
                let work: Vec<(usize, u64)> = unfinished
                    .iter()
                    .enumerate()
                    .map(|(j, &idx)| (idx, base + u64::from((j as u64) < extra)))
                    .filter(|&(_, slice)| slice > 0)
                    .collect();
                // Freeze the cross-shard bound for the whole round: every
                // shard prunes against the same value no matter which
                // worker runs it or in what order, so exhausted runs stay
                // deterministic.
                let frozen = BoundMode::Frozen(global.load(Ordering::Relaxed));
                let (consumed, saw_cancel) =
                    run_round(&core, &mut slots, &work, threads, frozen, &global, cancel);
                remaining = remaining.saturating_sub(consumed);
                round += 1;
                if saw_cancel {
                    cancelled = true;
                    break;
                }
                if consumed == 0 {
                    break;
                }
            }
        } else {
            // Exhaustive search: no pause points, so shards may read the
            // incumbent cell live for the sharpest possible pruning.
            let work: Vec<(usize, u64)> = (0..slots.len()).map(|i| (i, u64::MAX)).collect();
            let (_, saw_cancel) = run_round(
                &core,
                &mut slots,
                &work,
                threads,
                BoundMode::Live(&global),
                &global,
                cancel,
            );
            cancelled = saw_cancel;
        }
        if cancelled {
            // Match the serial search: a cancelled job reports Cancelled,
            // never a half-refined incumbent.
            return Err(PlanError::Cancelled);
        }
        let tasks: Vec<Task> = slots
            .into_iter()
            .map(|t| t.expect("every task returned"))
            .collect();
        let exhausted = tasks.iter().any(|t| !t.finished);
        let expansions = split_cost + tasks.iter().map(|t| t.expansions).sum::<u64>();
        // Ordered merge: minimum by (makespan, canonical subtree id).
        let mut winner: Option<(u64, &[u32], &[ScheduledTest])> = None;
        for leaf in &leaves {
            let key = (leaf.value, leaf.path.as_slice());
            if winner.is_none_or(|(v, p, _)| key < (v, p)) {
                winner = Some((leaf.value, &leaf.path, &leaf.entries));
            }
        }
        for task in &tasks {
            if let Some(entries) = &task.best_entries {
                let key = (task.local_best, task.path.as_slice());
                if winner.is_none_or(|(v, p, _)| key < (v, p)) {
                    winner = Some((task.local_best, &task.path, entries));
                }
            }
        }
        let schedule = match winner {
            Some((_, _, entries)) => Schedule::new(entries.to_vec()),
            None => seed,
        };
        Ok((
            schedule,
            SearchStats {
                expansions,
                exhausted,
                threads,
                tasks: task_count,
                seed: seed_kind,
            },
        ))
    }
}

impl Scheduler for ParallelOptimalScheduler {
    fn name(&self) -> &'static str {
        "optimal-par"
    }

    fn schedule(&self, sys: &SystemUnderTest) -> Result<Schedule, PlanError> {
        self.schedule_with_stats(sys, &SearchTuning::default(), None)
            .map(|(s, _)| s)
    }

    fn schedule_cancellable(
        &self,
        sys: &SystemUnderTest,
        cancel: &CancelToken,
    ) -> Result<Schedule, PlanError> {
        self.schedule_with_stats(sys, &SearchTuning::default(), Some(cancel))
            .map(|(s, _)| s)
    }

    fn schedule_tuned(
        &self,
        sys: &SystemUnderTest,
        tuning: &SearchTuning,
        cancel: Option<&CancelToken>,
    ) -> Result<Schedule, PlanError> {
        self.schedule_with_stats(sys, tuning, cancel)
            .map(|(s, _)| s)
    }
}

/// Races the parallel exact search against the heuristic schedulers.
///
/// Registry name `portfolio`. Entrants run concurrently, each with its
/// own [`CancelToken`]: rank 0 is the exact [`ParallelOptimalScheduler`]
/// and the default heuristic field is smart, greedy, serial (ranks
/// 1..3). The moment the exact entrant *proves* optimality every other
/// token is tripped — killed losers return [`PlanError::Cancelled`] and
/// are excluded from the merge, which is safe because a proved optimum
/// wins every tie by rank. When the exact entrant is budget-cut or
/// guard-rejected (too many cores for an exponential search), all
/// entrants finish and the best makespan wins, ties broken by rank —
/// never by arrival order — so the portfolio result is deterministic
/// *and* usable on instances of any size.
#[derive(Debug, Clone)]
pub struct PortfolioScheduler {
    search: ParallelOptimalScheduler,
    entrants: Vec<Arc<dyn Scheduler>>,
}

impl Default for PortfolioScheduler {
    fn default() -> Self {
        PortfolioScheduler {
            search: ParallelOptimalScheduler::new(),
            entrants: vec![
                Arc::new(SmartScheduler),
                Arc::new(GreedyScheduler),
                Arc::new(SerialScheduler),
            ],
        }
    }
}

impl PortfolioScheduler {
    /// Creates the default field: exact search plus smart, greedy and
    /// serial heuristics.
    #[must_use]
    pub fn new() -> Self {
        PortfolioScheduler::default()
    }

    /// Replaces the exact entrant's node-expansion budget.
    #[must_use]
    pub fn with_max_expansions(mut self, max_expansions: Option<u64>) -> Self {
        self.search = self.search.with_max_expansions(max_expansions);
        self
    }

    /// Replaces the exact entrant's worker-thread count (0 = auto).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.search = self.search.with_threads(threads);
        self
    }

    /// Appends an extra entrant at the lowest rank (loses all ties).
    #[must_use]
    pub fn with_entrant(mut self, entrant: Arc<dyn Scheduler>) -> Self {
        self.entrants.push(entrant);
        self
    }

    fn race(
        &self,
        sys: &SystemUnderTest,
        tuning: &SearchTuning,
        parent: Option<&CancelToken>,
    ) -> Result<Schedule, PlanError> {
        let n = 1 + self.entrants.len();
        let tokens: Vec<CancelToken> = (0..n).map(|_| CancelToken::new()).collect();
        let mut results: Vec<Option<Result<Schedule, PlanError>>> = Vec::new();
        results.resize_with(n, || None);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            {
                let tx = tx.clone();
                let token = tokens[0].clone();
                let search = &self.search;
                s.spawn(move || {
                    let res = search.schedule_with_stats(sys, tuning, Some(&token));
                    let _ = tx.send((0usize, res.map(|(sch, stats)| (sch, Some(stats)))));
                });
            }
            for (i, entrant) in self.entrants.iter().enumerate() {
                let tx = tx.clone();
                let token = tokens[i + 1].clone();
                s.spawn(move || {
                    let res = entrant.schedule_cancellable(sys, &token);
                    let _ = tx.send((i + 1, res.map(|sch| (sch, None))));
                });
            }
            drop(tx);
            let mut pending = n;
            while pending > 0 {
                match rx.recv_timeout(Duration::from_millis(5)) {
                    Ok((rank, res)) => {
                        pending -= 1;
                        if rank == 0 {
                            if let Ok((_, Some(stats))) = &res {
                                if stats.proved_optimal() {
                                    // The exact entrant proved its result
                                    // minimal: no loser can beat it, and
                                    // rank 0 wins every tie. Kill them.
                                    for token in &tokens[1..] {
                                        token.cancel();
                                    }
                                }
                            }
                        }
                        results[rank] = Some(res.map(|(sch, _)| sch));
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if parent.is_some_and(CancelToken::is_cancelled) {
                            for token in &tokens {
                                token.cancel();
                            }
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
        });
        if parent.is_some_and(CancelToken::is_cancelled) {
            return Err(PlanError::Cancelled);
        }
        // Deterministic merge: best makespan, ties to the lowest rank.
        let mut winner: Option<(u64, usize)> = None;
        for (rank, slot) in results.iter().enumerate() {
            if let Some(Ok(schedule)) = slot {
                let key = (schedule.makespan(), rank);
                if winner.is_none_or(|w| key < w) {
                    winner = Some(key);
                }
            }
        }
        if let Some((_, rank)) = winner {
            return results[rank]
                .take()
                .expect("winner recorded")
                .map_err(|_| unreachable!("winner was Ok"));
        }
        // Every entrant failed: report the highest-ranked error.
        for slot in results {
            if let Some(Err(err)) = slot {
                return Err(err);
            }
        }
        Err(PlanError::Cancelled)
    }
}

impl Scheduler for PortfolioScheduler {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn schedule(&self, sys: &SystemUnderTest) -> Result<Schedule, PlanError> {
        self.race(sys, &SearchTuning::default(), None)
    }

    fn schedule_cancellable(
        &self,
        sys: &SystemUnderTest,
        cancel: &CancelToken,
    ) -> Result<Schedule, PlanError> {
        self.race(sys, &SearchTuning::default(), Some(cancel))
    }

    fn schedule_tuned(
        &self,
        sys: &SystemUnderTest,
        tuning: &SearchTuning,
        cancel: Option<&CancelToken>,
    ) -> Result<Schedule, PlanError> {
        self.race(sys, tuning, cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::optimal::seed_schedule;
    use crate::system::SystemBuilder;
    use noctest_cpu::ProcessorProfile;

    fn small_system(cores: usize, procs: usize) -> SystemUnderTest {
        let mut b = SystemBuilder::new("small", 3, 3);
        for i in 0..cores {
            b = b.core(
                format!("c{i}"),
                100 + 90 * i as u32,
                80 + 70 * i as u32,
                10 + 7 * i as u32,
                50.0 + 10.0 * i as f64,
            );
        }
        b.processors(
            &ProcessorProfile::plasma().calibrated().unwrap(),
            procs,
            procs,
        )
        .build()
        .unwrap()
    }

    #[test]
    fn parallel_matches_serial_within_budget() {
        for (cores, procs) in [(3usize, 1usize), (4, 2), (5, 2)] {
            let sys = small_system(cores, procs);
            let serial = OptimalScheduler::new().schedule(&sys).unwrap();
            for threads in [1usize, 2, 3] {
                let par = ParallelOptimalScheduler::new()
                    .with_threads(threads)
                    .schedule(&sys)
                    .unwrap();
                assert_eq!(
                    par.entries(),
                    serial.entries(),
                    "{cores}c/{procs}p at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn exhausted_runs_are_deterministic_and_valid() {
        let sys = small_system(6, 2);
        let starved = ParallelOptimalScheduler::new()
            .with_threads(2)
            .with_max_expansions(Some(200));
        let (a, stats) = starved
            .schedule_with_stats(&sys, &SearchTuning::default(), None)
            .unwrap();
        a.validate(&sys).unwrap();
        assert!(stats.exhausted);
        let (b, _) = starved
            .schedule_with_stats(&sys, &SearchTuning::default(), None)
            .unwrap();
        assert_eq!(a.entries(), b.entries());
        // Never worse than the heuristic seed.
        let (seed, _) = seed_schedule(&sys).unwrap();
        assert!(a.makespan() <= seed.makespan());
    }

    #[test]
    fn tuning_threads_overrides_the_scheduler_value() {
        let sys = small_system(4, 1);
        let sched = ParallelOptimalScheduler::new().with_threads(2);
        let forced = sched
            .schedule_with_stats(
                &sys,
                &SearchTuning {
                    threads: Some(3),
                    ..SearchTuning::default()
                },
                None,
            )
            .unwrap()
            .1;
        assert_eq!(forced.threads, 3);
    }

    #[test]
    fn warm_start_matches_cold_across_thread_counts() {
        let sys = small_system(5, 2);
        let cold = OptimalScheduler::new().schedule(&sys).unwrap();
        let tuning = SearchTuning::default().warm_start(cold.clone());
        for threads in [1usize, 2, 3] {
            let sched = ParallelOptimalScheduler::new().with_threads(threads);
            let (warm, _) = sched.schedule_with_stats(&sys, &tuning, None).unwrap();
            assert_eq!(warm.entries(), cold.entries(), "{threads} threads");
        }
    }

    #[test]
    fn cancellation_aborts_the_parallel_search() {
        let sys = small_system(5, 2);
        let token = CancelToken::new();
        token.cancel();
        let err = ParallelOptimalScheduler::new()
            .with_threads(2)
            .schedule_cancellable(&sys, &token)
            .unwrap_err();
        assert!(matches!(err, PlanError::Cancelled));
    }

    #[test]
    fn portfolio_returns_the_proved_optimum() {
        let sys = small_system(4, 2);
        let optimal = OptimalScheduler::new().schedule(&sys).unwrap();
        let portfolio = PortfolioScheduler::new().with_threads(2);
        let schedule = portfolio.schedule(&sys).unwrap();
        schedule.validate(&sys).unwrap();
        assert_eq!(schedule.makespan(), optimal.makespan());
    }

    #[test]
    fn portfolio_survives_the_size_guard() {
        // 11 cuts exceed the exponential guard: the exact entrant is
        // rejected, the heuristics still deliver a plan.
        let sys = small_system(7, 4);
        let portfolio = PortfolioScheduler::new().with_threads(2);
        let schedule = portfolio.schedule(&sys).unwrap();
        schedule.validate(&sys).unwrap();
        let smart = SmartScheduler.schedule(&sys).unwrap();
        let greedy = GreedyScheduler.schedule(&sys).unwrap();
        assert!(schedule.makespan() <= smart.makespan().min(greedy.makespan()));
    }
}
