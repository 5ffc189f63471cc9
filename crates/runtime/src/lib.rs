//! Deterministic parallel execution for SmartML's hot loops.
//!
//! Design rules that keep output bit-identical for any thread count:
//!
//! 1. **Order-preserving reduction** — [`Pool::map_indexed`] returns
//!    results in submission order, whatever order workers finish in.
//! 2. **Index-derived seeds** — randomised tasks derive their RNG seed
//!    with [`task_seed`]`(seed, index)`, never from a shared RNG whose
//!    consumption order would depend on scheduling.
//! 3. **No cross-task mutation** — tasks communicate only through their
//!    return values; any merging happens serially afterwards.
//!
//! # One thread budget
//!
//! A [`Pool`] is a budget of `n_threads` *slots*, shared by all its
//! clones: a thread holds a slot while it computes and holds none while
//! it waits for other threads. The thread that calls into a pool is taken
//! to hold one slot already — it created the pool, or it is a helper
//! running one of the pool's tasks. Every `map_*`/`stream` call, at any
//! nesting depth, borrows its helpers from the slots that are free at
//! that moment (none free: the call runs inline on the caller), a helper
//! hands its slot back the moment it runs out of work, and a caller hands
//! its own back while it joins its helpers. So at most `n_threads`
//! threads compute at once however calls nest, and a core that one task
//! has finished with is lent to whichever call asks next.
//!
//! How many helpers a call gets depends on timing. That is safe because
//! helpers only decide *which thread* runs a task, never what a task
//! returns or where its result goes.
//!
//! Helpers are scoped threads spawned per call via
//! [`std::thread::scope`], so closures may borrow from the caller and no
//! `'static` erasure or shutdown protocol is needed. At SmartML's task
//! granularity (a classifier fit, a tree growth) spawn cost is noise.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use smartml_obs::{Counter, Gauge};

pub mod faults;

static POOL_TASKS: Counter = Counter::new("runtime.pool.tasks");
/// Tasks claimed outside the claiming thread's round-robin stripe: how far
/// dynamic dispatch diverged from an even static partition (there are no
/// per-thread queues to steal between).
static POOL_STEALS: Counter = Counter::new("runtime.pool.steals");
static POOL_BATCHES: Counter = Counter::new("runtime.pool.batches");
static POOL_STREAMS: Counter = Counter::new("runtime.pool.streams");
static POOL_QUEUE_DEPTH: Gauge = Gauge::new("runtime.pool.queue_depth");
/// Helper slots a call asked for and got / asked for and did not get.
static POOL_SLOTS_LENT: Counter = Counter::new("runtime.pool.slots_lent");
static POOL_SLOTS_DENIED: Counter = Counter::new("runtime.pool.slots_denied");
/// Slots held right now, and the most ever held at once (last pool to
/// change wins; [`Pool::peak_busy`] is the per-pool figure).
static POOL_BUSY: Gauge = Gauge::new("runtime.pool.busy");
static POOL_BUSY_PEAK: Gauge = Gauge::new("runtime.pool.busy_peak");

/// Number of worker threads to use when the caller asked for "auto" (0).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Locks a mutex whose data is valid at every step (a count, a queue that
/// is only pushed to and popped from), so a poisoned lock is still good.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The slots of one pool. `free` counts the slots nobody computes on.
#[derive(Debug)]
struct Budget {
    n_threads: usize,
    free: Mutex<usize>,
    /// Signalled on every release; a caller back from a join waits here
    /// for the slot it computes on next.
    released: Condvar,
    peak_busy: AtomicUsize,
}

impl Budget {
    fn note_busy(&self, free: usize) {
        let busy = self.n_threads - free;
        self.peak_busy.fetch_max(busy, Ordering::Relaxed);
        POOL_BUSY.set(busy as i64);
        POOL_BUSY_PEAK.raise(busy as i64);
    }

    /// Takes up to `want` of the slots that are free right now and says
    /// how many; each one goes back through a [`Lease`].
    fn take(&self, want: usize) -> usize {
        let got = {
            let mut free = lock(&self.free);
            let got = want.min(*free);
            *free -= got;
            self.note_busy(*free);
            got
        };
        POOL_SLOTS_LENT.add(got as u64);
        POOL_SLOTS_DENIED.add((want - got) as u64);
        got
    }

    fn release(&self) {
        let mut free = lock(&self.free);
        *free += 1;
        self.note_busy(*free);
        drop(free);
        self.released.notify_one();
    }

    /// Gives the calling thread's own slot back for as long as the guard
    /// lives — the thread is about to block on other threads. Dropping the
    /// guard waits for a slot to compute on again; a thread only ever
    /// waits here holding no slot, so some holder always runs on.
    fn park(&self) -> Parked<'_> {
        self.release();
        Parked(self)
    }
}

/// One borrowed slot, handed back on drop (also when the helper unwinds).
struct Lease<'a>(&'a Budget);

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// See [`Budget::park`].
struct Parked<'a>(&'a Budget);

impl Drop for Parked<'_> {
    fn drop(&mut self) {
        let mut free = lock(&self.0.free);
        while *free == 0 {
            free = self
                .0
                .released
                .wait(free)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        *free -= 1;
        self.0.note_busy(*free);
    }
}

/// A thread budget: at most `n_threads` threads compute at once across
/// every call made through this pool and its clones (see the module docs).
///
/// Cloning shares the budget; [`Pool::new`] opens a fresh one. A pool of
/// width 1 has no budget at all and runs everything inline.
#[derive(Debug, Clone)]
pub struct Pool {
    n_threads: usize,
    budget: Option<Arc<Budget>>,
}

impl Pool {
    /// A pool with an explicit width; `0` means "available parallelism".
    /// The calling thread holds the first slot.
    pub fn new(n_threads: usize) -> Pool {
        let n = if n_threads == 0 { available_parallelism() } else { n_threads };
        let budget = (n > 1).then(|| {
            Arc::new(Budget {
                n_threads: n,
                free: Mutex::new(n - 1),
                released: Condvar::new(),
                peak_busy: AtomicUsize::new(1),
            })
        });
        Pool { n_threads: n, budget }
    }

    /// A single-threaded pool (runs everything inline).
    pub fn serial() -> Pool {
        Pool { n_threads: 1, budget: None }
    }

    /// A pool as wide as the hardware.
    pub fn auto() -> Pool {
        Pool::new(0)
    }

    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// The most slots ever held at once — never above
    /// [`n_threads`](Pool::n_threads), however calls nested.
    pub fn peak_busy(&self) -> usize {
        self.budget.as_ref().map_or(1, |b| b.peak_busy.load(Ordering::Relaxed))
    }

    /// Applies `f(index, item)` to every item and returns the results in
    /// submission order. The caller and the helpers it could borrow claim
    /// items off an atomic cursor as they free up; result placement is by
    /// index, which makes the output independent of the scheduling order,
    /// of `n_threads` and of how many helpers were free.
    ///
    /// **Fairness under heterogeneous costs**: dispatch is dynamic, not a
    /// static index partition. A long task submitted first pins exactly one
    /// thread; the others drain the tail concurrently, so the batch
    /// makespan approaches `max(longest task, total/width)` instead of
    /// serialising behind the head (pinned by
    /// `long_head_does_not_serialize_the_tail`). The call itself is still
    /// a barrier — it returns only when *every* item has finished; use
    /// [`stream`](Pool::stream) when the caller needs completions as they
    /// land.
    ///
    /// A task panic propagates to the caller once all threads finish.
    pub fn map_indexed<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let helpers = self.lend(items.len().saturating_sub(1));
        run_batch(items, helpers, f)
    }

    /// `map_indexed` over `0..n` without materialising an item vector.
    pub fn map_range<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.map_indexed((0..n).collect(), |_, i| f(i))
    }

    /// Speculative [`map_range`](Pool::map_range): runs `f` over only the
    /// first `m` indices of `0..n`, one per thread, where `m` counts the
    /// caller and the helpers that could be borrowed right now. `None` —
    /// and nothing has run — when there are none. No task waits behind
    /// another, so nothing is started that an earlier result might have
    /// shown to be pointless; the caller looks at the `m` results and asks
    /// again for the rest.
    pub fn try_map_prefix<R, F>(&self, n: usize, f: F) -> Option<Vec<R>>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let helpers = self.lend(n.saturating_sub(1));
        let m = helpers.len() + 1;
        (m > 1).then(|| run_batch((0..m).collect(), helpers, |_, i| f(i)))
    }

    /// Borrows up to `want` helper slots; none from a pool of width 1.
    fn lend(&self, want: usize) -> Vec<Lease<'_>> {
        let Some(budget) = self.budget.as_deref() else { return Vec::new() };
        (0..budget.take(want)).map(|_| Lease(budget)).collect()
    }

    /// Streaming-completion execution: the inverse of the `map_indexed`
    /// barrier. `drive` runs on the calling thread with a [`StreamCtrl`]
    /// handle — it submits tasks with [`StreamCtrl::submit`] (each gets a
    /// monotonically increasing index) and consumes `(index, result)`
    /// pairs with [`StreamCtrl::next`] **as they finish**, in completion
    /// order, not submission order. New tasks may be submitted at any
    /// point, so a scheduler can react to each result while the rest of
    /// the pool keeps working — no rung/batch barrier ever drains the
    /// pool.
    ///
    /// Queued tasks are run by helpers borrowed from the budget — one is
    /// started whenever a task is queued and a slot is free, and it hands
    /// the slot back when it finds the queue empty — and by the driver
    /// itself: a `next()` with nothing finished runs a queued task on the
    /// calling thread, and only with nothing queued either does it wait
    /// for a helper, its own slot given back meanwhile. Width 1 is the
    /// same with no helpers: strict queue order on the calling thread.
    ///
    /// At any width, a task result is produced by `worker(index, task)`
    /// alone; callers that need scheduling-independent *decisions* must
    /// reorder completions themselves (see `smartml-smac`'s ASHA rung
    /// ledger for the discipline).
    ///
    /// A panicking task resumes its unwind inside the driver's `next()`
    /// call. Tasks still queued when `drive` returns are dropped
    /// unexecuted; in-flight tasks are joined before `stream` returns.
    pub fn stream<T, R, F, D, O>(&self, worker: F, drive: D) -> O
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
        D: FnOnce(&mut StreamCtrl<'_, T, R>) -> O,
    {
        POOL_STREAMS.inc();
        let queue = Mutex::new(TwoTierQueue::new());
        let Some(budget) = self.budget.as_deref() else {
            return drive(&mut StreamCtrl::new(&queue, &worker, None));
        };
        let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<R>)>();
        let (out, parked) = std::thread::scope(|scope| {
            let (queue, worker) = (&queue, &worker);
            // Starts a helper on a slot already taken from the budget.
            let start_helper = || {
                let lease = Lease(budget);
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let (index, task) = {
                        let mut q = lock(queue);
                        match q.pop() {
                            Some(task) => task,
                            None => {
                                // Handed back under the queue lock: a
                                // submit this pop missed is ordered after
                                // the release and finds the slot free.
                                drop(lease);
                                return;
                            }
                        }
                    };
                    POOL_TASKS.inc();
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                        || worker(index, task),
                    ));
                    // The driver may have returned already (abandoning
                    // in-flight work); a closed channel is not an error.
                    let _ = tx.send((index, result));
                });
            };
            // The backlog must be dropped even when `drive` (or a resumed
            // task panic inside it) unwinds — otherwise the scope would
            // join helpers that keep working through it.
            struct Abandon<'a, T>(&'a Mutex<TwoTierQueue<T>>);
            impl<T> Drop for Abandon<'_, T> {
                fn drop(&mut self) {
                    *lock(self.0) = TwoTierQueue::new();
                }
            }
            let abandon = Abandon(queue);
            let lent = Lent { budget, rx, start_helper: &start_helper };
            let out = drive(&mut StreamCtrl::new(queue, worker, Some(lent)));
            drop(abandon);
            // The scope joins the in-flight helpers next.
            (out, budget.park())
        });
        drop(parked);
        out
    }
}

/// Runs one batch on the caller plus one scoped thread per lease.
fn run_batch<T, R, F>(items: Vec<T>, helpers: Vec<Lease<'_>>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    POOL_BATCHES.inc();
    POOL_TASKS.add(n as u64);
    if helpers.is_empty() {
        return items.into_iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let budget = helpers[0].0;
    let workers = helpers.len() + 1;
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let work = |w: usize| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        if i % workers != w {
            POOL_STEALS.inc();
        }
        POOL_QUEUE_DEPTH.set(n.saturating_sub(i + 1) as i64);
        let item = slots[i]
            .lock()
            .unwrap()
            .take()
            .expect("each slot is claimed exactly once");
        let out = f(i, item);
        *results[i].lock().unwrap() = Some(out);
    };
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = helpers
            .into_iter()
            .enumerate()
            .map(|(w, lease)| {
                scope.spawn(move || {
                    let _lease = lease;
                    work(w + 1)
                })
            })
            .collect();
        work(0);
        let _parked = budget.park();
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every index was claimed and filled"))
        .collect()
}

/// Driver-side handle for [`Pool::stream`]: submit tasks, consume
/// completions.
pub struct StreamCtrl<'env, T, R> {
    next_index: usize,
    outstanding: usize,
    queue: &'env Mutex<TwoTierQueue<T>>,
    worker: &'env (dyn Fn(usize, T) -> R + Sync + 'env),
    /// `None` at width 1: every task runs inside `next()`.
    lent: Option<Lent<'env, R>>,
}

/// What a stream needs to put queued tasks on borrowed slots.
struct Lent<'env, R> {
    budget: &'env Budget,
    /// Helper completions, in finish order.
    rx: mpsc::Receiver<(usize, std::thread::Result<R>)>,
    start_helper: &'env (dyn Fn() + 'env),
}

/// The stream's pending-task queue: two FIFO tiers, urgent before
/// normal. Every urgent task is taken before any normal one, so a driver
/// can keep critical-path work (e.g. an ASHA rung promotion) from queueing
/// behind a backlog of speculative backfill. The tier is an
/// execution-order hint only — completion indices and results are
/// unaffected.
struct TwoTierQueue<T> {
    urgent: VecDeque<(usize, T)>,
    normal: VecDeque<(usize, T)>,
}

impl<T> TwoTierQueue<T> {
    fn new() -> Self {
        TwoTierQueue { urgent: VecDeque::new(), normal: VecDeque::new() }
    }

    fn push(&mut self, index: usize, task: T, urgent: bool) {
        if urgent {
            self.urgent.push_back((index, task));
        } else {
            self.normal.push_back((index, task));
        }
    }

    fn pop(&mut self) -> Option<(usize, T)> {
        self.urgent.pop_front().or_else(|| self.normal.pop_front())
    }

    fn len(&self) -> usize {
        self.urgent.len() + self.normal.len()
    }
}

impl<'env, T, R> StreamCtrl<'env, T, R> {
    fn new(
        queue: &'env Mutex<TwoTierQueue<T>>,
        worker: &'env (dyn Fn(usize, T) -> R + Sync + 'env),
        lent: Option<Lent<'env, R>>,
    ) -> Self {
        StreamCtrl { next_index: 0, outstanding: 0, queue, worker, lent }
    }

    /// Enqueues a task and returns its index (submission order, starting
    /// at 0).
    pub fn submit(&mut self, task: T) -> usize {
        self.enqueue(task, false)
    }

    /// Enqueues a task on the urgent tier: every urgent task runs before
    /// any [`submit`](StreamCtrl::submit)-queued one (FIFO within each
    /// tier). Purely an execution-order hint — indices, results and
    /// completion delivery are identical to `submit`. Use for
    /// critical-path work that must not wait behind speculative backlog.
    pub fn submit_urgent(&mut self, task: T) -> usize {
        self.enqueue(task, true)
    }

    fn enqueue(&mut self, task: T, urgent: bool) -> usize {
        let index = self.next_index;
        self.next_index += 1;
        self.outstanding += 1;
        let backlog = {
            let mut q = lock(self.queue);
            q.push(index, task, urgent);
            q.len()
        };
        POOL_QUEUE_DEPTH.set(backlog as i64);
        self.lend_to_backlog();
        index
    }

    /// Starts a helper for each queued task that a free slot can be found
    /// for.
    fn lend_to_backlog(&self) {
        if let Some(lent) = &self.lent {
            let backlog = lock(self.queue).len();
            for _ in 0..lent.budget.take(backlog) {
                (lent.start_helper)();
            }
        }
    }

    /// Tasks submitted but not yet returned by [`next`](StreamCtrl::next).
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Returns the next completion as `(index, result)`, running a queued
    /// task on the calling thread when no helper has finished one and
    /// blocking only when every outstanding task is in a helper's hands;
    /// `None` once every submitted task has been consumed. Resumes the
    /// unwind of a panicked task.
    pub fn next(&mut self) -> Option<(usize, R)> {
        if self.outstanding == 0 {
            return None;
        }
        self.outstanding -= 1;
        // Slots freed since the last submit go to the backlog first.
        self.lend_to_backlog();
        let finished = self.lent.as_ref().and_then(|lent| lent.rx.try_recv().ok());
        let (index, result) = match finished {
            Some(completion) => completion,
            None => {
                // A statement of its own: the queue lock must not outlive
                // the pop.
                let queued = lock(self.queue).pop();
                if let Some((index, task)) = queued {
                    POOL_TASKS.inc();
                    return Some((index, (self.worker)(index, task)));
                }
                let lent = self.lent.as_ref().expect("an outstanding task is queued or lent");
                let _parked = lent.budget.park();
                lent.rx.recv().expect("a helper sends every task it popped")
            }
        };
        match result {
            Ok(r) => Some((index, r)),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

impl Default for Pool {
    fn default() -> Pool {
        Pool::auto()
    }
}

/// Derives the RNG seed for task `index` of a run seeded with `seed`.
///
/// SplitMix64-style finaliser: adjacent indices map to statistically
/// independent seeds, and the mapping is pure, so a task's random stream
/// is a function of (seed, index) alone — never of which thread ran it.
pub fn task_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A shareable wall-clock cutoff. `Copy`, so concurrent tasks each carry
/// the same absolute deadline instead of dividing a remaining budget
/// (which would depend on completion order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// No time limit.
    pub fn none() -> Deadline {
        Deadline(None)
    }

    /// Expires `budget` from now.
    pub fn after(budget: Duration) -> Deadline {
        Deadline(Some(Instant::now() + budget))
    }

    pub fn at(instant: Instant) -> Deadline {
        Deadline(Some(instant))
    }

    pub fn is_some(&self) -> bool {
        self.0.is_some()
    }

    /// The absolute cutoff instant, if a limit is set. Lets callers
    /// combine a shared run deadline with per-trial timeouts (the
    /// earlier of the two wins).
    pub fn instant(&self) -> Option<Instant> {
        self.0
    }

    pub fn expired(&self) -> bool {
        matches!(self.0, Some(t) if Instant::now() >= t)
    }

    /// Time left, if a limit is set (zero once expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.0.map(|t| t.saturating_duration_since(Instant::now()))
    }

    /// The remaining budget shaped for `set_read_timeout`-style socket
    /// APIs, which reject a zero `Duration`: `None` when no limit is set,
    /// otherwise the remaining time floored at 1 ms — an already-expired
    /// deadline still yields the floor so the next I/O call fails fast
    /// instead of blocking forever (or panicking on zero).
    pub fn io_timeout(&self) -> Option<Duration> {
        self.0.map(|t| {
            t.saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_preserves_submission_order() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..100).collect();
        let out = pool.map_indexed(items, |i, x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn output_is_identical_across_thread_counts() {
        let run = |threads: usize| {
            Pool::new(threads).map_range(64, |i| {
                // Emulate a randomised task: output depends only on the
                // derived seed, not on scheduling.
                task_seed(42, i as u64).wrapping_mul(i as u64 + 1)
            })
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        let pool = Pool::new(8);
        assert_eq!(pool.map_indexed(Vec::<u8>::new(), |_, x| x), Vec::<u8>::new());
        assert_eq!(pool.map_indexed(vec![7u8], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn zero_means_available_parallelism() {
        assert_eq!(Pool::new(0).n_threads(), available_parallelism());
        assert!(Pool::auto().n_threads() >= 1);
    }

    #[test]
    fn task_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..1000).map(|i| task_seed(7, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "collision in task seeds");
        assert_eq!(task_seed(7, 0), task_seed(7, 0));
        assert_ne!(task_seed(7, 0), task_seed(8, 0));
    }

    #[test]
    fn deadline_expiry() {
        assert!(!Deadline::none().expired());
        assert!(Deadline::none().remaining().is_none());
        let d = Deadline::after(Duration::from_millis(5));
        assert!(d.is_some());
        std::thread::sleep(Duration::from_millis(10));
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn io_timeout_never_yields_zero() {
        assert_eq!(Deadline::none().io_timeout(), None);
        let d = Deadline::after(Duration::from_millis(2));
        std::thread::sleep(Duration::from_millis(5));
        // Expired, but sockets still get a small positive timeout.
        let t = d.io_timeout().unwrap();
        assert!(t >= Duration::from_millis(1) && t <= Duration::from_millis(2));
        let far = Deadline::after(Duration::from_secs(60));
        assert!(far.io_timeout().unwrap() > Duration::from_secs(59));
    }

    #[test]
    fn borrows_from_scope_work() {
        let data = vec![1.0f64; 32];
        let pool = Pool::new(4);
        let sums = pool.map_range(8, |i| data[i * 4..(i + 1) * 4].iter().sum::<f64>());
        assert_eq!(sums, vec![4.0; 8]);
    }

    #[test]
    fn long_head_does_not_serialize_the_tail() {
        // Satellite regression pin: one 80 ms task submitted first plus
        // eight 10 ms tasks at width 4. With dynamic dispatch the head
        // pins one worker while three drain the tail (~80 ms makespan);
        // a static index partition that chains tasks behind the head
        // would take ~160 ms. Threshold splits the difference with slack
        // for a loaded CI host.
        let pool = Pool::new(4);
        let costs_ms: Vec<u64> = std::iter::once(80).chain(std::iter::repeat_n(10, 8)).collect();
        let start = Instant::now();
        let out = pool.map_indexed(costs_ms, |i, ms| {
            std::thread::sleep(Duration::from_millis(ms));
            i
        });
        let elapsed = start.elapsed();
        assert_eq!(out, (0..9).collect::<Vec<_>>());
        assert!(
            elapsed < Duration::from_millis(140),
            "heterogeneous batch serialized behind its head: {elapsed:?}"
        );
    }

    /// Counts the threads inside leaf tasks; `peak` is how many computed
    /// at once.
    #[derive(Default)]
    struct Census {
        active: AtomicUsize,
        peak: AtomicUsize,
    }

    impl Census {
        fn leaf(&self) {
            let now = self.active.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            // Long enough for every thread that may run to be seen running.
            std::thread::sleep(Duration::from_millis(1));
            self.active.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn nested_calls_share_one_budget() {
        // The static split ran `outer × inner` threads (9 at width 8 with
        // three tasks) and a nested `stream` spawned a full width per
        // task. Under one budget the leaves of every nesting never number
        // more than `n_threads`.
        for width in [2, 3, 8] {
            let pool = Pool::new(width);
            let census = Census::default();
            let sums = pool.map_range(4, |_| pool.map_range(6, |i| {
                census.leaf();
                i
            }));
            assert_eq!(sums, vec![(0..6).collect::<Vec<_>>(); 4]);
            let drained = pool.map_range(3, |_| {
                pool.stream(
                    |_, ()| census.leaf(),
                    |ctrl| {
                        for _ in 0..8 {
                            ctrl.submit(());
                        }
                        let mut drained = 0;
                        while ctrl.next().is_some() {
                            drained += 1;
                        }
                        drained
                    },
                )
            });
            assert_eq!(drained, vec![8; 3]);
            let peak = census.peak.load(Ordering::SeqCst);
            assert!(peak <= width, "width {width}: {peak} leaves ran at once");
            // The outer call found every other slot free, so it borrowed.
            assert!((2..=width).contains(&pool.peak_busy()), "width {width}: {}", pool.peak_busy());
        }
    }

    #[test]
    fn a_finished_tasks_slot_is_lent_to_the_straggler() {
        // Width 2, two tasks. While the gate task holds the other slot the
        // straggler's inner call finds nothing to borrow; once the gate
        // task is done — its thread gone, or parked in the join — the
        // straggler's next inner call gets the slot.
        let pool = Pool::new(2);
        let (open, gate) = mpsc::channel::<()>();
        let (open, gate) = (Mutex::new(open), Mutex::new(gate));
        let out = pool.map_range(2, |task| {
            if task == 0 {
                gate.lock().unwrap().recv().unwrap();
                return None;
            }
            assert!(pool.try_map_prefix(3, |i| i).is_none(), "both slots are held");
            open.lock().unwrap().send(()).unwrap();
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                if let Some(lent) = pool.try_map_prefix(3, |i| i) {
                    return Some(lent);
                }
                assert!(Instant::now() < deadline, "the freed slot never came back");
                std::thread::yield_now();
            }
        });
        // One helper, so a prefix of two.
        assert_eq!(out, vec![None, Some(vec![0, 1])]);
    }

    #[test]
    fn a_panicking_task_returns_every_slot() {
        let pool = Pool::new(3);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_range(6, |i| {
                if i == 4 {
                    panic!("task {i} failed");
                }
                i
            })
        }));
        let payload = caught.expect_err("the task panic must reach the caller");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("task 4 failed") || msg.contains("scoped thread panicked"), "{msg}");
        assert_eq!(pool.lend(5).len(), 2, "both helper slots are free again");
    }

    #[test]
    fn stream_completes_every_index_exactly_once() {
        for width in [1, 2, 8] {
            let pool = Pool::new(width);
            let mut seen = vec![0usize; 50];
            let total = pool.stream(
                |i, x: u64| (i as u64) * 1000 + x,
                |ctrl| {
                    for x in 0..50u64 {
                        ctrl.submit(x);
                    }
                    let mut total = 0u64;
                    while let Some((i, r)) = ctrl.next() {
                        seen[i] += 1;
                        assert_eq!(r, (i as u64) * 1000 + i as u64);
                        total += r;
                    }
                    total
                },
            );
            assert!(seen.iter().all(|&c| c == 1), "width {width}: {seen:?}");
            assert_eq!(total, (0..50u64).map(|i| i * 1001).sum::<u64>());
        }
    }

    #[test]
    fn stream_inline_is_fifo() {
        let pool = Pool::serial();
        let order = pool.stream(
            |i, _: ()| i,
            |ctrl| {
                for _ in 0..10 {
                    ctrl.submit(());
                }
                let mut order = Vec::new();
                while let Some((i, r)) = ctrl.next() {
                    assert_eq!(i, r);
                    order.push(i);
                }
                order
            },
        );
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn stream_driver_can_submit_in_response_to_completions() {
        // The scheduler shape ASHA needs: each completion may trigger a
        // follow-up task while other work is still in flight.
        for width in [1, 3] {
            let pool = Pool::new(width);
            let done = pool.stream(
                |_, gen: u32| gen,
                |ctrl| {
                    for _ in 0..4 {
                        ctrl.submit(0);
                    }
                    let mut done = 0;
                    while let Some((_, gen)) = ctrl.next() {
                        if gen < 3 {
                            ctrl.submit(gen + 1);
                        } else {
                            done += 1;
                        }
                    }
                    done
                },
            );
            assert_eq!(done, 4, "width {width}");
        }
    }

    #[test]
    fn stream_propagates_worker_panics() {
        for width in [1, 4] {
            let pool = Pool::new(width);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.stream(
                    |_, x: u32| {
                        if x == 7 {
                            panic!("boom {x}");
                        }
                        x
                    },
                    |ctrl| {
                        for x in 0..16u32 {
                            ctrl.submit(x);
                        }
                        while ctrl.next().is_some() {}
                    },
                )
            }));
            let payload = caught.expect_err("panic must reach the driver");
            let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("boom 7"), "width {width}: {msg}");
        }
    }

    #[test]
    fn stream_outstanding_tracks_submissions() {
        let pool = Pool::new(2);
        pool.stream(
            |_, _: ()| (),
            |ctrl| {
                assert_eq!(ctrl.outstanding(), 0);
                assert!(ctrl.next().is_none(), "empty stream yields None");
                ctrl.submit(());
                ctrl.submit(());
                assert_eq!(ctrl.outstanding(), 2);
                ctrl.next().unwrap();
                assert_eq!(ctrl.outstanding(), 1);
                ctrl.next().unwrap();
                assert_eq!(ctrl.outstanding(), 0);
                assert!(ctrl.next().is_none());
            },
        );
    }

    #[test]
    fn stream_urgent_runs_before_queued_backlog_inline() {
        // Inline mode executes the urgent tier first, FIFO within tiers.
        let pool = Pool::serial();
        let order = pool.stream(
            |i, _: ()| i,
            |ctrl| {
                ctrl.submit(()); // 0
                ctrl.submit(()); // 1
                ctrl.submit_urgent(()); // 2
                ctrl.submit_urgent(()); // 3
                let mut order = Vec::new();
                while let Some((i, _)) = ctrl.next() {
                    order.push(i);
                }
                order
            },
        );
        assert_eq!(order, vec![2, 3, 0, 1]);
    }

    #[test]
    fn stream_urgent_preempts_queued_backlog_pooled() {
        // With both helpers pinned by a gate task, whoever takes the next
        // task must take the urgent one before the earlier-queued normal
        // one.
        use std::sync::atomic::AtomicBool;
        let started = AtomicUsize::new(0);
        let release = AtomicBool::new(false);
        let pool = Pool::new(3);
        let order = pool.stream(
            |i, gated: bool| {
                if gated {
                    started.fetch_add(1, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
                i
            },
            |ctrl| {
                ctrl.submit(true); // 0: pins helper A
                ctrl.submit(true); // 1: pins helper B
                while started.load(Ordering::SeqCst) < 2 {
                    std::thread::yield_now();
                }
                ctrl.submit(false); // 2: normal backlog
                ctrl.submit_urgent(false); // 3: must run before 2
                release.store(true, Ordering::SeqCst);
                let mut order = Vec::new();
                while let Some((i, _)) = ctrl.next() {
                    order.push(i);
                }
                order
            },
        );
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert!(pos(3) < pos(2), "urgent task ran after queued backlog: {order:?}");
    }

    #[test]
    fn stream_abandons_queued_tasks_when_driver_returns_early() {
        // Drivers may stop consuming (budget exhausted); the pool must
        // still shut down promptly without executing the whole queue.
        let pool = Pool::new(2);
        let first = pool.stream(
            |i, _: ()| i,
            |ctrl| {
                for _ in 0..64 {
                    ctrl.submit(());
                }
                ctrl.next().map(|(i, _)| i)
            },
        );
        assert!(first.is_some());
    }
}
