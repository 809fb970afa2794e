//! The branch-and-bound behind both exact schedulers, and the portfolio
//! racer.
//!
//! One explicit-stack depth-first engine searches at every thread count.
//! [`OptimalScheduler`] runs it on one thread: the root is one unsplit
//! task, searched on the caller's thread. [`ParallelOptimalScheduler`]
//! shards the same search across a work-stealing crew of threads while
//! keeping the result **byte-identical to the one-thread search on
//! within-budget runs** and **the same at every thread count of two or
//! more** when the expansion budget trips. The machinery:
//!
//! - **First round unsplit.** A search at more than one thread first
//!   runs the one-thread search for its first budget round
//!   (`budget / BUDGET_ROUNDS` expansions) on the caller's thread, with
//!   no crew. A tree that round finishes is returned at once as the
//!   one-thread answer, expansion count included; most small trees end
//!   there. An unbudgeted search's rounds never run dry, so it is the
//!   one-thread search at any thread count.
//! - **The paused round is the split.** When the round's lone task runs
//!   out of slice, its explicit stack holds the rest of the tree in
//!   depth-first order: the refused node, then the untried children of
//!   each frame, deepest frame first. Each of those becomes a task that
//!   carries its path (the child ordinal at every level) as a canonical
//!   subtree id, and the round's incumbent as its bound. The paused task
//!   keeps its recorded best under the empty path, which sorts before
//!   every piece, and searches no further. Nothing the round searched is
//!   searched again, and the split depends on the tree and the budget,
//!   never on the thread count.
//! - **One crew per search.** A split of two or more tasks opens one
//!   thread scope with one worker per task at most (never more than the
//!   thread count): the caller's thread is worker 0 and the rest are
//!   helpers. Every later budget round runs on that crew: between rounds
//!   the helpers park on a generation counter, and the caller deals,
//!   publishes, works, and takes the tasks back once the round's last
//!   one is done. A round of one task runs on the caller without waking
//!   anyone. A search at one thread, a search its first round finishes,
//!   and a split of one task spawn no thread at all. A helper that
//!   panics wakes the caller, and the panic reaches it through the
//!   scope.
//! - **Work stealing.** Tasks are dealt round-robin into per-worker
//!   deques; a worker pops its own deque from the front and steals from
//!   the tail of a neighbour's when it drains. Which worker runs a task,
//!   and in what order, cannot affect results (see determinism below), so
//!   the crew is free to balance however the machine schedules it.
//! - **Shared incumbent.** Every improving leaf is published to an
//!   atomic best-cost cell (`fetch_min`). Tasks prune against it with
//!   *strict* comparison — the cell only ever holds achieved makespans,
//!   so a strict test can never cut the path to the first leaf achieving
//!   the optimum.
//! - **Deterministic merge.** Each task records the first leaf (in its
//!   own depth-first order) of every strictly improving makespan it
//!   visits. The final schedule is the minimum over tasks by
//!   `(makespan, path)` — ties broken by the canonical subtree id, never
//!   by arrival time. That minimum is provably the same leaf the
//!   one-thread search records.
//! - **Deterministic budgets.** A finite expansion budget is spent in
//!   rounds: each round deals every unfinished task a fixed slice of
//!   the remaining budget and freezes the shared bound at the round
//!   boundary, so what a task explores depends only on its slice
//!   sequence and the frozen bound sequence — never on thread timing or
//!   the thread count. Once its slice is spent, a task refuses to enter
//!   the next non-leaf node; that node stays pending (the explicit stack
//!   is resumable) and is entered first next round, with the tightened
//!   bound. Leaves below the last expanded node are still recorded, so a
//!   tree that ends on exactly its budget counts as proved. A lone
//!   task's incumbent is the shared cell, so the frozen bound never
//!   prunes more than the task itself would: one thread spends its
//!   budget exactly as one uninterrupted run would.
//! - **One kernel.** Every task reads the system's one session table
//!   through `SearchCore` (see [`crate::sched::optimal`]): cycles, power
//!   and link masks are looked up by slot, the values `SystemUnderTest`
//!   returns. A task's node state keeps only slots, never footprints;
//!   its frames' candidate lists and the sessions its time edges retire
//!   live on two per-task stacks that each undo truncates, so a node
//!   allocates nothing on the hot path.
//!
//! [`PortfolioScheduler`] races the parallel exact search against the
//! heuristic schedulers, cancelling the losers through per-entrant
//! [`CancelToken`]s the moment the exact search *proves* optimality; if
//! the budget trips first (or the instance exceeds the exponential-size
//! guard) every entrant finishes and the best result wins, with ties
//! broken by fixed entrant rank.
//!
//! [`OptimalScheduler`]: crate::sched::OptimalScheduler

use std::collections::VecDeque;
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use crate::cut::{CutId, CutKind};
use crate::error::PlanError;
use crate::interface::InterfaceId;
use crate::sched::engine::{Active, Running};
use crate::sched::optimal::{check_guards, opening_incumbent, SearchCore};
use crate::sched::{
    CancelToken, GreedyScheduler, Schedule, ScheduledTest, Scheduler, SearchTuning,
    SerialScheduler, SmartScheduler, CANCEL_POLL_PERIOD,
};
use crate::system::SystemUnderTest;

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
    /// Total node expansions charged against the budget: the first
    /// round's and every later task's. A split expands nothing.
    pub expansions: u64,
    /// True when the expansion budget cut the search short; the result
    /// is the best incumbent, not a proof of optimality.
    pub exhausted: bool,
    /// Worker threads the search was given (always 1 for
    /// [`OptimalScheduler`](crate::sched::OptimalScheduler)). A search
    /// whose first round finished the tree ran on the caller's thread
    /// alone.
    pub threads: usize,
    /// Tasks searched: 1 at one thread (the unsplit root), and 1 whenever
    /// the first budget round finished the tree; otherwise the paused
    /// root plus the pieces its open stack was split into.
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
    running: Running,
    remaining: Vec<CutId>,
    entries: Vec<ScheduledTest>,
    /// Sessions retired by the time edges applied so far, stacked in
    /// edge order so each undo restores exactly its own.
    retired: Vec<Active>,
}

impl NodeState {
    fn root(core: &SearchCore<'_>) -> NodeState {
        NodeState {
            running: Running::idle(core.sys),
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
#[derive(Debug, Clone, Copy)]
enum Undo {
    Start {
        cut: CutId,
        pos: usize,
        prev_power: f64,
    },
    Advance {
        /// Length of `NodeState::retired` before this edge.
        base: usize,
        prev_now: u64,
        prev_power: f64,
    },
}

/// Starts `session` now. The power sum grows in start order and
/// shrinks in [`advance_edge`] by one sum over the retired sessions:
/// feasibility tests depend on that floating-point evaluation order.
///
/// The edge helpers and `Task::enter` run at every node and are forced
/// inline: left to the compiler, they were not, and the search ran about
/// 5% slower.
#[inline(always)]
fn start_edge(state: &mut NodeState, session: Active) -> Undo {
    let Active {
        cut,
        interface,
        end,
        power,
        ..
    } = session;
    state.running.active.push(session);
    let pos = state
        .remaining
        .iter()
        .position(|&c| c == cut)
        .expect("candidate cut is waiting");
    state.remaining.remove(pos);
    state.entries.push(ScheduledTest {
        cut,
        interface,
        start: state.running.now,
        end,
    });
    let prev_power = state.running.power;
    state.running.power = prev_power + power;
    Undo::Start {
        cut,
        pos,
        prev_power,
    }
}

/// Advances time to the next completion, retiring every session that
/// ends then.
#[inline(always)]
fn advance_edge(core: &SearchCore<'_>, state: &mut NodeState) -> Undo {
    let run = &mut state.running;
    let next = run
        .active
        .iter()
        .map(|a| a.end)
        .min()
        .expect("advance requires an active session");
    let base = state.retired.len();
    state
        .retired
        .extend(run.active.iter().filter(|a| a.end <= next));
    run.active.retain(|a| a.end > next);
    let finished = &state.retired[base..];
    let freed_power: f64 = finished.iter().map(|a| a.power).sum();
    for a in finished {
        if let CutKind::Processor(idx) = core.sys.cut(a.cut).kind {
            run.proc_ready[idx] = Some(a.end);
        }
    }
    let prev_now = run.now;
    let prev_power = run.power;
    run.now = next;
    run.power = prev_power - freed_power;
    Undo::Advance {
        base,
        prev_now,
        prev_power,
    }
}

#[inline(always)]
fn undo_edge(core: &SearchCore<'_>, state: &mut NodeState, undo: Undo) {
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
            let run = &mut state.running;
            let mine = run
                .active
                .iter()
                .position(|a| a.cut == cut)
                .expect("session still active on unwind");
            run.active.remove(mine);
            run.power = prev_power;
        }
        Undo::Advance {
            base,
            prev_now,
            prev_power,
        } => {
            // A processor is ready only once its own test retired, and
            // each cut retires once on a path: the edge that set it is
            // the one being undone.
            let run = &mut state.running;
            for a in &state.retired[base..] {
                if let CutKind::Processor(idx) = core.sys.cut(a.cut).kind {
                    run.proc_ready[idx] = None;
                }
            }
            run.active.extend(state.retired.drain(base..));
            run.now = prev_now;
            run.power = prev_power;
        }
    }
}

/// One entered node on a task's explicit DFS stack. Its candidates are
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

impl Frame {
    /// The child ordinal of the edge applied below this frame: its
    /// candidate's index, or one past the last candidate for the time
    /// edge, which is tried after them.
    fn applied(&self) -> u32 {
        let ordinal = if self.advanced {
            self.end
        } else {
            self.next - 1
        };
        (ordinal - self.start) as u32
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum TaskStatus {
    Finished,
    Paused,
    Cancelled,
}

/// One task: a resumable depth-first search over one subtree — the
/// whole tree from the root, or a piece of a paused task's open stack.
#[derive(Debug)]
struct Task {
    path: Vec<u32>,
    state: NodeState,
    stack: Vec<Frame>,
    /// Candidate lists of every frame on `stack`, stacked in frame order.
    candidates: Vec<(CutId, InterfaceId)>,
    /// The node whose edge is applied to `state` but which is not yet
    /// entered, with its `min_start`: the subtree root before the first
    /// run, and a node refused by an exhausted slice until the next.
    pending: Option<Option<(CutId, InterfaceId)>>,
    finished: bool,
    /// Task-local incumbent value (starts at the bound the task was
    /// given); recording uses strict `<`, so `best_entries` is the
    /// task's depth-first-first achiever of its best value.
    local_best: u64,
    best_entries: Option<Vec<ScheduledTest>>,
    expansions: u64,
}

impl Task {
    /// A task over the subtree below a node whose edge `state` holds,
    /// not yet entered.
    fn new(
        path: Vec<u32>,
        state: NodeState,
        min_start: Option<(CutId, InterfaceId)>,
        bound: u64,
    ) -> Task {
        Task {
            path,
            state,
            stack: Vec::new(),
            candidates: Vec::new(),
            pending: Some(min_start),
            finished: false,
            local_best: bound,
            best_entries: None,
            expansions: 0,
        }
    }

    /// Hands this paused task's open work out as tasks, in depth-first
    /// order: the refused node, then the untried children of each frame,
    /// deepest frame first, each bounded by this task's incumbent. This
    /// task keeps its recorded best and finishes.
    fn split(&mut self, core: &SearchCore<'_>) -> Vec<Task> {
        let bound = self.local_best;
        let child = |path: &[u32], ordinal: usize, state, min_start| {
            let path = [path, &[ordinal as u32]].concat();
            Task::new(path, state, min_start, bound)
        };
        let mut path: Vec<u32> = self.stack.iter().map(Frame::applied).collect();
        let refused = self
            .pending
            .take()
            .expect("a paused task has a refused node");
        let mut pieces = vec![Task::new(path.clone(), self.state.clone(), refused, bound)];
        while let Some(frame) = self.stack.pop() {
            path.pop();
            if let Some(undo) = frame.undo {
                undo_edge(core, &mut self.state, undo);
            }
            // An untried child is a task only if `drive` would enter it.
            for i in frame.next..frame.end {
                let (cut, iface) = self.candidates[i];
                let session = Active::start(core.sys, self.state.running.now, cut, iface);
                if session.end >= bound {
                    continue;
                }
                let mut state = self.state.clone();
                start_edge(&mut state, session);
                pieces.push(child(&path, i - frame.start, state, Some((cut, iface))));
            }
            if !frame.advanced && !self.state.running.active.is_empty() {
                let mut state = self.state.clone();
                advance_edge(core, &mut state);
                pieces.push(child(&path, frame.end - frame.start, state, None));
            }
            self.candidates.truncate(frame.start);
        }
        self.finished = true;
        pieces
    }

    /// Runs the task for at most `slice` node expansions; resumable.
    fn run(
        &mut self,
        core: &SearchCore<'_>,
        slice: u64,
        bound: u64,
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
        bound: u64,
        global: &AtomicU64,
        cancel: Option<&CancelToken>,
        used: &mut u64,
    ) -> TaskStatus {
        if let Some(min_start) = self.pending.take() {
            if let ControlFlow::Break(status) =
                self.enter(core, min_start, slice, bound, global, cancel, used)
            {
                return status;
            }
        }
        loop {
            let Some(top) = self.stack.last_mut() else {
                return TaskStatus::Finished;
            };
            // Revert the edge of the child we just returned from.
            if let Some(undo) = top.undo.take() {
                undo_edge(core, &mut self.state, undo);
            }
            let min_start = if top.next < top.end {
                let (cut, iface) = self.candidates[top.next];
                top.next += 1;
                let session = Active::start(core.sys, self.state.running.now, cut, iface);
                // Strict `>` against the cross-task bound: the cell
                // holds achieved values, so this can never prune the
                // first achiever of the optimum.
                if session.end >= self.local_best || session.end > bound {
                    continue;
                }
                top.undo = Some(start_edge(&mut self.state, session));
                Some((cut, iface))
            } else if !top.advanced {
                top.advanced = true;
                if self.state.running.active.is_empty() {
                    continue;
                }
                top.undo = Some(advance_edge(core, &mut self.state));
                None
            } else {
                let start = top.start;
                self.stack.pop();
                self.candidates.truncate(start);
                continue;
            };
            if let ControlFlow::Break(status) =
                self.enter(core, min_start, slice, bound, global, cancel, used)
            {
                return status;
            }
        }
    }

    /// At a leaf: records the complete schedule if it beats the task's
    /// incumbent.
    #[cold]
    fn leaf(&mut self, global: &AtomicU64) {
        let makespan = self.state.makespan();
        if makespan < self.local_best {
            self.local_best = makespan;
            self.best_entries = Some(self.state.entries.clone());
            global.fetch_min(makespan, Ordering::Relaxed);
        }
    }

    /// Node entry, in this order: record a leaf; refuse a node once the
    /// slice is spent (it stays pending, so leaves below the last
    /// expanded node are still recorded, and a tree that ends on exactly
    /// its budget is complete); poll cancellation; count the expansion;
    /// prune by the bound; push a frame of canonical candidates.
    #[allow(clippy::too_many_arguments)] // the run's context plus the node
    #[inline(always)] // see `start_edge`
    fn enter(
        &mut self,
        core: &SearchCore<'_>,
        min_start: Option<(CutId, InterfaceId)>,
        slice: u64,
        bound: u64,
        global: &AtomicU64,
        cancel: Option<&CancelToken>,
        used: &mut u64,
    ) -> ControlFlow<TaskStatus> {
        if self.state.remaining.is_empty() {
            self.leaf(global);
            return ControlFlow::Continue(());
        }
        if *used >= slice {
            self.pending = Some(min_start);
            return ControlFlow::Break(TaskStatus::Paused);
        }
        // Poll on the first expansion and every period after it, so even
        // a pre-cancelled token aborts before any real work.
        if (self.expansions + *used).is_multiple_of(CANCEL_POLL_PERIOD)
            && cancel.is_some_and(CancelToken::is_cancelled)
        {
            return ControlFlow::Break(TaskStatus::Cancelled);
        }
        *used += 1;
        let lb = core.lower_bound(&self.state.running, &self.state.remaining);
        if lb >= self.local_best || lb > bound {
            return ControlFlow::Continue(());
        }
        let start = self.candidates.len();
        core.candidates(
            &self.state.running,
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
        ControlFlow::Continue(())
    }
}

/// The round handshake shared by a crew's workers.
struct Round<J> {
    /// Bumped once per published round; a parked helper waits for it to
    /// move.
    generation: u64,
    shutdown: bool,
    /// Set by a helper that unwinds: its item will never come back.
    dead: bool,
    /// Items dealt this round and not yet in `done`.
    pending: usize,
    done: Vec<J>,
}

/// The threads of one search, paid for once: `workers - 1` helpers plus
/// the caller's thread as worker 0, sharing per-worker deques. Between
/// rounds the helpers park on the [`Round`] generation; every worker
/// runs `work` on each item it takes.
struct Crew<J, W> {
    queues: Vec<Mutex<VecDeque<J>>>,
    round: Mutex<Round<J>>,
    /// Wakes parked helpers for a new round or shutdown.
    start: Condvar,
    /// Wakes the caller when the round's last item is done or a helper
    /// died.
    end: Condvar,
    work: W,
}

/// Marks the round dead and wakes the caller if a helper unwinds, so the
/// caller never waits for an item that is not coming back.
struct HelperGuard<'c, J, W>(&'c Crew<J, W>);

impl<J, W> Drop for HelperGuard<'_, J, W> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut round = self.0.round.lock().unwrap_or_else(PoisonError::into_inner);
            round.dead = true;
            self.0.end.notify_one();
        }
    }
}

/// Releases the helpers when the caller leaves the crew, unwinding
/// included, so the scope can join them.
struct ShutdownGuard<'c, J, W>(&'c Crew<J, W>);

impl<J, W> Drop for ShutdownGuard<'_, J, W> {
    fn drop(&mut self) {
        let mut round = self.0.round.lock().unwrap_or_else(PoisonError::into_inner);
        round.shutdown = true;
        self.0.start.notify_all();
    }
}

impl<J: Send, W: Fn(&mut J) + Sync> Crew<J, W> {
    /// Runs `body` on the caller's thread with a crew of `workers`
    /// threads: `workers - 1` helpers live in one scope around `body`
    /// and are joined when it returns. A helper's panic reaches the
    /// caller through the scope.
    fn with<R>(workers: usize, work: W, body: impl FnOnce(&Self) -> R) -> R {
        let crew = Crew {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            round: Mutex::new(Round {
                generation: 0,
                shutdown: false,
                dead: false,
                pending: 0,
                done: Vec::new(),
            }),
            start: Condvar::new(),
            end: Condvar::new(),
            work,
        };
        std::thread::scope(|s| {
            for w in 1..workers {
                let crew = &crew;
                s.spawn(move || crew.help(w));
            }
            let _shutdown = ShutdownGuard(&crew);
            body(&crew)
        })
    }

    /// Runs every item once and returns them all, in no fixed order. A
    /// lone item runs on the caller without waking anyone; otherwise the
    /// items are dealt round-robin into the deques and the caller works
    /// as worker 0 until the round's last item is done.
    fn round(&self, mut items: Vec<J>) -> Vec<J> {
        if items.len() == 1 {
            (self.work)(&mut items[0]);
            return items;
        }
        {
            // Deal under the round lock: a helper still scanning the
            // deques from the last round may take an item at once, and
            // must not report it done before `pending` counts it.
            let mut round = self.round.lock().expect("round lock");
            round.pending = items.len();
            round.generation += 1;
            let workers = self.queues.len();
            for (j, item) in items.drain(..).enumerate() {
                self.queues[j % workers]
                    .lock()
                    .expect("queue lock")
                    .push_back(item);
            }
        }
        self.start.notify_all();
        self.drain(0);
        let mut round = self.round.lock().expect("round lock");
        while round.pending > 0 && !round.dead {
            round = self.end.wait(round).expect("round lock");
        }
        if round.dead {
            // Unlock first: a poisoned round lock would panic the
            // helpers still parked on it.
            drop(round);
            panic!("a search helper panicked");
        }
        std::mem::swap(&mut items, &mut round.done);
        items
    }

    /// Runs items until every deque is empty: the worker's own deque from
    /// the front, then a neighbour's from the tail.
    fn drain(&self, me: usize) {
        let workers = self.queues.len();
        loop {
            let mut item = self.queues[me].lock().expect("queue lock").pop_front();
            for off in 1..workers {
                if item.is_some() {
                    break;
                }
                item = self.queues[(me + off) % workers]
                    .lock()
                    .expect("queue lock")
                    .pop_back();
            }
            let Some(mut item) = item else {
                return;
            };
            (self.work)(&mut item);
            let mut round = self.round.lock().expect("round lock");
            round.done.push(item);
            round.pending -= 1;
            if round.pending == 0 {
                self.end.notify_one();
            }
        }
    }

    /// A helper's life: park until a round is published, drain it, park
    /// again; leave on shutdown.
    fn help(&self, me: usize) {
        let _guard = HelperGuard(self);
        let mut seen = 0;
        loop {
            {
                let mut round = self.round.lock().expect("round lock");
                while round.generation == seen && !round.shutdown {
                    round = self.start.wait(round).expect("round lock");
                }
                if round.shutdown {
                    return;
                }
                seen = round.generation;
            }
            self.drain(me);
        }
    }
}

/// One task's turn in a round: the task, the slot it returns to, its
/// expansion slice and the frozen bound it prunes against.
struct Job {
    slot: usize,
    task: Task,
    slice: u64,
    bound: u64,
    cancelled: bool,
}

/// Runs one round of the given (task index, slice) work items through
/// `run` and returns the expansions consumed and whether any task
/// observed cancellation.
fn run_round(
    run: &mut dyn FnMut(Vec<Job>) -> Vec<Job>,
    slots: &mut [Option<Task>],
    work: &[(usize, u64)],
    bound: u64,
) -> (u64, bool) {
    let jobs: Vec<Job> = work
        .iter()
        .map(|&(slot, slice)| Job {
            slot,
            task: slots[slot].take().expect("task present for round"),
            slice,
            bound,
            cancelled: false,
        })
        .collect();
    let before: u64 = jobs.iter().map(|j| j.task.expansions).sum();
    let jobs = run(jobs);
    let after: u64 = jobs.iter().map(|j| j.task.expansions).sum();
    let cancelled = jobs.iter().any(|j| j.cancelled);
    for job in jobs {
        slots[job.slot] = Some(job.task);
    }
    (after - before, cancelled)
}

/// The expansions a round deals out of `remaining` with `rounds_left`
/// rounds to go: an even share, at least one expansion, none of nothing.
fn round_budget(remaining: u64, rounds_left: u64) -> u64 {
    (remaining / rounds_left).max(1).min(remaining)
}

/// Spends `remaining` on the unfinished tasks in the budget rounds
/// numbered `rounds`, each through `run`, and returns whether a task
/// observed cancellation.
fn run_rounds(
    run: &mut dyn FnMut(Vec<Job>) -> Vec<Job>,
    slots: &mut [Option<Task>],
    remaining: &mut u64,
    rounds: Range<u64>,
    global: &AtomicU64,
) -> bool {
    for round in rounds {
        let unfinished: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, t)| t.as_ref().is_some_and(|t| !t.finished))
            .map(|(i, _)| i)
            .collect();
        if unfinished.is_empty() || *remaining == 0 {
            return false;
        }
        let round_budget = round_budget(*remaining, BUDGET_ROUNDS.saturating_sub(round).max(1));
        let n = unfinished.len() as u64;
        let base = round_budget / n;
        let extra = round_budget % n;
        let work: Vec<(usize, u64)> = unfinished
            .iter()
            .enumerate()
            .map(|(j, &idx)| (idx, base + u64::from((j as u64) < extra)))
            .filter(|&(_, slice)| slice > 0)
            .collect();
        // Freeze the cross-task bound for the whole round: every task
        // prunes against the same value no matter which worker runs it
        // or in what order, so exhausted runs stay deterministic.
        let frozen = global.load(Ordering::Relaxed);
        let (consumed, saw_cancel) = run_round(run, slots, &work, frozen);
        *remaining = remaining.saturating_sub(consumed);
        if saw_cancel {
            return true;
        }
        if consumed == 0 {
            return false;
        }
    }
    false
}

/// The workers of a crew over `tasks` tasks: a round deals each task to
/// one worker, so more than one per task would only park.
fn crew_size(threads: usize, tasks: usize) -> usize {
    threads.min(tasks)
}

/// The branch-and-bound behind both exact schedulers, on `threads`
/// workers. The root is one task, searched round by round on the
/// caller's thread. More threads search only its first budget round
/// there; a tree that round leaves open is split at the paused task's
/// stack, and the rest of the budget is spent on the pieces over a crew.
pub(crate) fn branch_and_bound(
    sys: &SystemUnderTest,
    max_cores: usize,
    max_expansions: Option<u64>,
    threads: usize,
    tuning: &SearchTuning,
    cancel: Option<&CancelToken>,
) -> Result<(Schedule, SearchStats), PlanError> {
    check_guards(sys, max_cores)?;
    // The opening incumbent (heuristic seed, possibly tightened by a
    // warm start) bounds every task; see `opening_incumbent` for why the
    // tighter warm bound cannot change the within-budget result.
    let (seed, seed_value, seed_kind) = opening_incumbent(sys, tuning)?;
    let core = SearchCore::new(sys);
    let global = AtomicU64::new(seed_value);
    let work = |job: &mut Job| {
        job.cancelled =
            job.task.run(&core, job.slice, job.bound, &global, cancel) == TaskStatus::Cancelled;
    };
    let inline = &mut |mut jobs: Vec<Job>| {
        jobs.iter_mut().for_each(work);
        jobs
    };
    // An unbudgeted search is one whose rounds never run dry.
    let mut remaining = max_expansions.unwrap_or(u64::MAX);
    let root = Task::new(Vec::new(), NodeState::root(&core), None, seed_value);
    let mut slots = vec![Some(root)];
    // One thread searches every round here; more search the first alone,
    // exactly as one thread would.
    let rounds = if threads > 1 { 0..1 } else { 0..u64::MAX };
    let mut cancelled = run_rounds(inline, &mut slots, &mut remaining, rounds, &global);
    let open = |root: &&mut Task| !cancelled && remaining > 0 && !root.finished;
    if let Some(root) = slots[0].as_mut().filter(open) {
        let pieces = root.split(&core);
        let workers = crew_size(threads, pieces.len());
        slots.extend(pieces.into_iter().map(Some));
        let rest = 1..u64::MAX;
        // Threads are paid for once per search, and only when there are
        // tasks to share: one crew serves every later round.
        cancelled = if workers > 1 {
            Crew::with(workers, &work, |crew| {
                let run = &mut |jobs| crew.round(jobs);
                run_rounds(run, &mut slots, &mut remaining, rest, &global)
            })
        } else {
            run_rounds(inline, &mut slots, &mut remaining, rest, &global)
        };
    }
    if cancelled {
        // A cancelled search reports Cancelled rather than its
        // incumbent: the caller asked for the job to stop, and a
        // half-refined "best so far" would be indistinguishable from a
        // completed budgeted search.
        return Err(PlanError::Cancelled);
    }
    let tasks: Vec<Task> = slots
        .into_iter()
        .map(|t| t.expect("every task returned"))
        .collect();
    // Ordered merge: minimum by (makespan, canonical subtree id).
    let mut winner: Option<(u64, &[u32], &[ScheduledTest])> = None;
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
            expansions: tasks.iter().map(|t| t.expansions).sum(),
            exhausted: tasks.iter().any(|t| !t.finished),
            threads,
            tasks: tasks.len(),
            seed: seed_kind,
        },
    ))
}

/// Work-stealing parallel version of [`OptimalScheduler`].
///
/// [`OptimalScheduler`]: crate::sched::OptimalScheduler
///
/// Registry name `optimal-par`. Within budget the schedule is
/// byte-identical to the one-thread `optimal` search at *any* thread count;
/// budget-exhausted runs return a valid incumbent that is the same at
/// every thread count of two or more. See the [module docs](self) for
/// how both properties survive work stealing.
#[derive(Debug, Clone, Copy)]
pub struct ParallelOptimalScheduler {
    /// Refuse systems with more cores than this (default 10).
    pub max_cores: usize,
    /// Node-expansion budget shared by all tasks; `None` searches
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
    /// otherwise exactly the errors of `optimal`
    /// (empty interface set, exponential-size guard).
    pub fn schedule_with_stats(
        &self,
        sys: &SystemUnderTest,
        tuning: &SearchTuning,
        cancel: Option<&CancelToken>,
    ) -> Result<(Schedule, SearchStats), PlanError> {
        branch_and_bound(
            sys,
            self.max_cores,
            self.max_expansions,
            self.resolve_threads(tuning),
            tuning,
            cancel,
        )
    }
}

impl Scheduler for ParallelOptimalScheduler {
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
}

impl Scheduler for PortfolioScheduler {
    fn schedule_tuned(
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
                    let res = entrant.schedule_tuned(sys, &SearchTuning::default(), Some(&token));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::optimal::seed_schedule;
    use crate::sched::OptimalScheduler;
    use crate::system::SystemBuilder;
    use noctest_cpu::ProcessorProfile;
    use std::sync::Barrier;

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
            .schedule_tuned(&sys, &SearchTuning::default(), Some(&token))
            .unwrap_err();
        assert!(matches!(err, PlanError::Cancelled));
    }

    #[test]
    fn cancellation_from_another_thread_stops_a_running_search() {
        // The one-thread tree takes about 4.25M expansions, so a budget of
        // one million leaves the first round open and spends the rest on
        // a crew: far past one poll period per task, and far longer than
        // the delay before the cancel.
        let sys = small_system(7, 3);
        let token = CancelToken::new();
        let go = Barrier::new(2);
        let delay = Duration::from_millis(20);
        let (result, elapsed) = std::thread::scope(|s| {
            s.spawn(|| {
                go.wait();
                std::thread::sleep(delay);
                token.cancel();
            });
            // Taken before the barrier: the canceller's delay may start
            // as soon as this thread arrives there.
            let started = std::time::Instant::now();
            go.wait();
            let result = ParallelOptimalScheduler::new()
                .with_threads(2)
                .with_max_expansions(Some(1_000_000))
                .schedule_tuned(&sys, &SearchTuning::default(), Some(&token));
            (result, started.elapsed())
        });
        assert!(matches!(result, Err(PlanError::Cancelled)), "{result:?}");
        // The call was still running when the token tripped; its crew's
        // scope joined every helper before it returned.
        assert!(elapsed >= delay, "returned after {elapsed:?}");
    }

    #[test]
    fn a_crew_has_one_worker_per_task_at_most() {
        assert_eq!(crew_size(usize::MAX, 34), 34);
        assert_eq!(crew_size(2, 34), 2);
        assert_eq!(crew_size(8, 1), 1);
    }

    #[test]
    fn a_panicking_helper_unwinds_the_caller() {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let both_started = Barrier::new(2);
            // Item 0 is dealt to the caller's deque and item 1 to the
            // helper's. Neither can finish until both run, so the caller
            // never reaches item 1: it panics on the helper.
            let work = |item: &mut u32| {
                both_started.wait();
                assert_ne!(*item, 1, "item 1 fails");
            };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Crew::with(2, work, |crew| crew.round(vec![0, 1]))
            }));
            tx.send(result.is_err()).expect("test waits for the result");
        });
        let unwound = rx.recv_timeout(Duration::from_secs(60));
        assert_eq!(unwound, Ok(true), "the call must unwind, not block");
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
