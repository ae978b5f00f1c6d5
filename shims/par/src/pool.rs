//! The work-stealing thread pool behind the rayon-compatible surface.
//!
//! One process-global pool, spawned lazily on first parallel use. Each
//! worker owns a chunk deque (`Mutex<VecDeque<Entry>>`), and one more
//! deque holds the shares of driving threads that are not workers. An
//! [`Entry`] is a *range* of chunk indices into one region's payload
//! table, so steal-half is a constant-time range split and never copies
//! work items. Workers pop from the front of their own deque, re-queue
//! the remainder of a popped range, and steal the far half of another
//! deque's front entry when idle. Idle workers park on a condvar with a
//! timeout backstop, so a missed wakeup costs latency, never progress.
//!
//! A parallel region is driven by the thread that called into the shim
//! (see [`run`]). It deals the chunks into contiguous ranges, one per
//! executor, and queues every range as a stealable entry — its own share
//! included, in its home deque (its worker deque, or the shared driver
//! deque). It then *claims* its region's chunks one at a time from the
//! front of whichever of its entries is still queued, home first, and
//! blocks on the region's completion latch only when none is left.
//! Claiming one chunk at a time leaves the far end of every range
//! stealable, so idle workers take over a region whose work sits in the
//! driver's share (hub-first relabeling puts it there). Claiming is also
//! what makes nested regions deadlock-free: a driver never waits on a
//! chunk that no running thread has claimed — it takes the chunk back and
//! runs it itself.
//!
//! A panic inside a chunk is caught per-chunk, poisons the region
//! (remaining chunk bodies are skipped), and is re-thrown on the driver
//! thread once the region completes — so `lotus-resilience`'s
//! `catch_unwind` isolation still surfaces it as a `PhasePanic`, and the
//! workers themselves survive for the next region.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use lotus_telemetry::counters::{self, Counter};

/// Upper bound on pool worker threads (executors = workers + driver).
const MAX_WORKERS: usize = 63;

/// Index of the deque that holds the shares of driving threads that are
/// not pool workers; also their executor id in [`Entry::dealt`].
const DRIVERS: usize = MAX_WORKERS;

/// How long a parked worker sleeps before re-checking for work. A pure
/// backstop: pushes notify the condvar, so this only bounds the cost of
/// a lost wakeup.
const PARK_TIMEOUT: Duration = Duration::from_millis(50);

/// How long a driver waits on the completion latch between claims.
const DRIVER_WAIT: Duration = Duration::from_millis(1);

/// Requested thread count; 0 means "use available parallelism".
static LIMIT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The pool worker index of the current thread, if it is a worker.
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The current thread's executor id, which is also its home deque: its
/// worker index, or [`DRIVERS`] for any other thread.
fn home() -> usize {
    WORKER.with(Cell::get).unwrap_or(DRIVERS)
}

/// Locks a mutex, recovering the guard if a panicking thread poisoned
/// it (the pool's shared state stays consistent under per-chunk
/// `catch_unwind`, so poisoning carries no information here).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The host's available parallelism, read once. The read goes through
/// cgroup files (tens of microseconds a call), and every parallel region
/// asks, so the first answer is kept, as rayon does at pool start.
fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// The number of logical executors parallel work may use right now:
/// the configured limit, or the host's available parallelism when no
/// limit is set. Always at least 1 (the calling thread).
pub(crate) fn effective_threads() -> usize {
    match LIMIT.load(Ordering::Acquire) {
        0 => host_threads(),
        n => n,
    }
}

/// Sets the process-wide thread limit. `0` restores the default
/// (available parallelism). Counts above the host's core count are
/// honored (oversubscription), which keeps multi-threaded code paths
/// testable on single-core machines.
pub fn configure_threads(n: usize) {
    LIMIT.store(n.min(MAX_WORKERS + 1), Ordering::Release);
    if n > 1 {
        ensure_workers(n - 1);
        wake_all();
    }
}

/// Runs `op` with the thread limit set to `n`, restoring the previous
/// limit afterwards (panic-safe). Backs `ThreadPool::install`.
pub(crate) fn install_limit<R>(n: usize, op: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LIMIT.store(self.0, Ordering::Release);
        }
    }
    let _restore = Restore(LIMIT.load(Ordering::Acquire));
    configure_threads(n);
    op()
}

/// Runs one chunk of a region: `(state, chunk index, stolen)`, where
/// `stolen` says the chunk runs on an executor other than the one its
/// range was dealt to.
// SAFETY: callers pass the `state` of the entry or region the function
// was taken from, which is `exec_chunk`'s contract.
type ExecFn = unsafe fn(*const (), u32, bool);

/// One schedulable unit: chunks `lo..hi` of the region behind `state`.
#[derive(Clone, Copy)]
struct Entry {
    /// Type-erased pointer to the driver's stack-held `RegionState`.
    state: *const (),
    /// Monomorphized executor for one chunk of that region.
    // SAFETY: the pointer is only ever called with this entry's own
    // `state`, satisfying `exec_chunk`'s contract (see the `Send`
    // justification below for why the region outlives the entry).
    exec: ExecFn,
    lo: u32,
    hi: u32,
    /// Executor id the range was dealt to (a worker index or
    /// [`DRIVERS`]); kept through splits, so a chunk run anywhere else
    /// counts as a steal.
    dealt: usize,
}

// SAFETY: `state` points into the driving thread's stack frame, which
// outlives every Entry referring to it: `run` does not return until the
// region's completion latch (set under `done`'s mutex by the thread that
// executes the last chunk) has been observed, and an Entry exists in a
// deque only while its chunks are unexecuted — every pop, steal or claim
// either runs the chunks it took or re-queues the remainder, and the
// driver keeps claiming its region's queued chunks before each latch
// wait. The other fields are plain data.
unsafe impl Send for Entry {}

/// The process-global pool: per-worker deques, the shared driver deque,
/// plus the park/wake state.
struct Pool {
    /// `MAX_WORKERS` worker deques, then the [`DRIVERS`] deque.
    deques: Vec<Mutex<VecDeque<Entry>>>,
    /// Count of currently parked workers, guarded with the wake condvar.
    sleep: Mutex<usize>,
    wake: Condvar,
    /// Entries sitting in deques; parking predicate only (a stale zero
    /// is corrected by the park timeout).
    pending: AtomicUsize,
    /// How many worker threads have been spawned so far.
    spawned: Mutex<usize>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        deques: (0..=DRIVERS).map(|_| Mutex::new(VecDeque::new())).collect(),
        sleep: Mutex::new(0),
        wake: Condvar::new(),
        pending: AtomicUsize::new(0),
        spawned: Mutex::new(0),
    })
}

/// Spawns workers until at least `k` exist (capped at [`MAX_WORKERS`]).
/// A failed spawn is tolerated: the region runs on the executors that
/// exist.
fn ensure_workers(k: usize) {
    let p = pool();
    let mut spawned = lock(&p.spawned);
    while *spawned < k.min(MAX_WORKERS) {
        let me = *spawned;
        let ok = std::thread::Builder::new()
            .name(format!("lotus-par-{me}"))
            .spawn(move || worker_loop(me))
            .is_ok();
        if !ok {
            break;
        }
        *spawned += 1;
    }
}

/// Wakes every parked worker (after a limit change or a push).
fn wake_all() {
    let p = pool();
    let sleepers = lock(&p.sleep);
    if *sleepers > 0 {
        p.wake.notify_all();
    }
}

fn worker_loop(me: usize) {
    WORKER.with(|w| w.set(Some(me)));
    let p = pool();
    loop {
        // Workers beyond the active limit park until reconfigured.
        let active = me + 1 < effective_threads();
        if active {
            if let Some(e) = pop_own(p, me).or_else(|| steal(p, me)) {
                process(p, me, e);
                continue;
            }
        }
        park(p, active);
    }
}

/// Parks until woken or the timeout backstop fires. An active worker
/// re-checks `pending` under the lock so a push cannot slip between its
/// last empty scan and the wait.
fn park(p: &Pool, active: bool) {
    let mut sleepers = lock(&p.sleep);
    if active && p.pending.load(Ordering::Acquire) > 0 {
        return;
    }
    *sleepers += 1;
    counters::add(Counter::PoolParks, 1);
    let (mut sleepers, _) = p
        .wake
        .wait_timeout(sleepers, PARK_TIMEOUT)
        .unwrap_or_else(PoisonError::into_inner);
    *sleepers = sleepers.saturating_sub(1);
}

fn pop_own(p: &Pool, me: usize) -> Option<Entry> {
    let e = lock(&p.deques[me]).pop_front();
    if e.is_some() {
        p.pending.fetch_sub(1, Ordering::AcqRel);
    }
    e
}

/// Steals the far half of another deque's front entry (or the whole
/// entry if it holds a single chunk). The driver deque is a victim like
/// any worker's, so a driver's own share is stealable too.
fn steal(p: &Pool, me: usize) -> Option<Entry> {
    let n = p.deques.len();
    for k in 1..n {
        let victim = (me + k) % n;
        let mut dq = lock(&p.deques[victim]);
        let Some(front) = dq.front_mut() else {
            continue;
        };
        if front.hi - front.lo > 1 {
            let mid = front.lo + (front.hi - front.lo) / 2;
            let stolen = Entry { lo: mid, ..*front };
            front.hi = mid;
            return Some(stolen);
        }
        let e = *front;
        dq.pop_front();
        p.pending.fetch_sub(1, Ordering::AcqRel);
        return Some(e);
    }
    None
}

/// Executes the first chunk of `e`, re-queueing the remainder so idle
/// workers can steal it.
fn process(p: &Pool, me: usize, e: Entry) {
    if e.hi - e.lo > 1 {
        lock(&p.deques[me]).push_front(Entry { lo: e.lo + 1, ..e });
        p.pending.fetch_add(1, Ordering::AcqRel);
        wake_all();
    }
    counters::add(Counter::PoolTasks, 1);
    // SAFETY: the entry came from a deque, so its region is still live
    // (see the `Send` justification on `Entry`).
    unsafe { (e.exec)(e.state, e.lo, e.dealt != me) };
}

/// Takes the front chunk of one of region `state`'s queued entries —
/// from deque `home` first, then from any other — and leaves the rest
/// of that entry queued, where idle workers can still steal its far
/// half. Returns the chunk index and whether the chunk's range was dealt
/// to an executor other than `home`.
fn claim(p: &Pool, home: usize, state: *const ()) -> Option<(u32, bool)> {
    let n = p.deques.len();
    (0..n).map(|k| (home + k) % n).find_map(|d| {
        let mut dq = lock(&p.deques[d]);
        let pos = dq.iter().position(|e| std::ptr::eq(e.state, state))?;
        let e = &mut dq[pos];
        let (idx, dealt) = (e.lo, e.dealt);
        e.lo += 1;
        if e.lo == e.hi {
            dq.remove(pos);
            p.pending.fetch_sub(1, Ordering::AcqRel);
        }
        Some((idx, dealt != home))
    })
}

/// Shared state of one in-flight parallel region, owned by the driving
/// thread's stack frame.
struct RegionState<T, R, F> {
    /// Take-once payload per chunk.
    payloads: Vec<Mutex<Option<T>>>,
    results: Mutex<Vec<(u32, R)>>,
    f: F,
    /// Chunks not yet executed (or skipped); the completion latch arms
    /// when this reaches zero.
    remaining: AtomicUsize,
    /// Chunks run by an executor other than the one their range was
    /// dealt to. A statistic, read by the driver after the latch.
    steals: AtomicUsize,
    /// Set on the first panic; later chunk bodies are skipped.
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Completion flag, written under its mutex by whichever thread
    /// executes the last chunk — the only signal the driver trusts, so
    /// the region state cannot be freed while a completer is mid-notify.
    done: Mutex<bool>,
    done_cv: Condvar,
}

/// Executes chunk `idx` of the region behind `state`; `stolen` counts
/// it as a steal.
///
/// # Safety
/// `state` must point to a live `RegionState<T, R, F>` whose payload
/// table has at least `idx + 1` slots.
unsafe fn exec_chunk<T, R, F: Fn(u32, T) -> R>(state: *const (), idx: u32, stolen: bool) {
    // SAFETY: guaranteed by the caller contract above.
    let s = unsafe { &*state.cast::<RegionState<T, R, F>>() };
    if stolen {
        s.steals.fetch_add(1, Ordering::Relaxed);
    }
    let payload = lock(&s.payloads[idx as usize]).take();
    if let Some(p) = payload {
        if s.poisoned.load(Ordering::Acquire) {
            drop(p);
        } else {
            match catch_unwind(AssertUnwindSafe(|| (s.f)(idx, p))) {
                Ok(r) => lock(&s.results).push((idx, r)),
                Err(e) => {
                    s.poisoned.store(true, Ordering::Release);
                    let mut slot = lock(&s.panic);
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                }
            }
        }
    }
    if s.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        let mut flag = lock(&s.done);
        *flag = true;
        s.done_cv.notify_all();
    }
}

/// Runs `f` over every payload on the pool and returns the results in
/// payload order. The calling thread drives: it claims its region's
/// chunks until none is queued, and only then blocks on the completion
/// latch. If any chunk panicked, the (first) payload is re-thrown here
/// on the calling thread once all chunks have finished or been skipped.
pub(crate) fn run<T, R, F>(payloads: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(u32, T) -> R + Sync,
{
    let (results, steals) = run_counting_steals(payloads, f);
    counters::add(Counter::PoolSteals, steals as u64);
    results
}

/// [`run`], also returning how many chunks ran on an executor other
/// than the one their range was dealt to.
fn run_counting_steals<T, R, F>(payloads: Vec<T>, f: F) -> (Vec<R>, usize)
where
    T: Send,
    R: Send,
    F: Fn(u32, T) -> R + Sync,
{
    let total = payloads.len();
    let threads = effective_threads();
    let execs = threads.min(total);
    if execs <= 1 || total == 0 {
        // Inline: sequential semantics, panics propagate naturally.
        let results = payloads
            .into_iter()
            .enumerate()
            .map(|(i, p)| f(i as u32, p))
            .collect();
        return (results, 0);
    }
    ensure_workers(execs - 1);

    let state = RegionState {
        payloads: payloads.into_iter().map(|p| Mutex::new(Some(p))).collect(),
        results: Mutex::new(Vec::with_capacity(total)),
        f,
        remaining: AtomicUsize::new(total),
        steals: AtomicUsize::new(0),
        poisoned: AtomicBool::new(false),
        panic: Mutex::new(None),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    };
    let state_ptr: *const () = (&raw const state).cast();
    let exec: ExecFn = exec_chunk::<T, R, F>;

    let p = pool();
    let me = home();
    // Deal `total` chunks into contiguous ranges, one per executor: the
    // first to the front of the driver's home deque, where idle workers
    // steal first, the rest to the back of other active workers' deques.
    let active = lock(&p.spawned).min(threads - 1);
    let homes: Vec<usize> = std::iter::once(me)
        .chain((0..active).filter(|&w| w != me))
        .take(execs)
        .collect();
    let per = total / homes.len();
    let extra = total % homes.len();
    let mut begin = 0u32;
    for (share, &dq) in homes.iter().enumerate() {
        let len = per + usize::from(share < extra);
        let end = begin + len as u32;
        if begin < end {
            let e = Entry {
                state: state_ptr,
                exec,
                lo: begin,
                hi: end,
                dealt: dq,
            };
            let mut dq = lock(&p.deques[dq]);
            if share == 0 {
                dq.push_front(e);
            } else {
                dq.push_back(e);
            }
            drop(dq);
            p.pending.fetch_add(1, Ordering::AcqRel);
        }
        begin = end;
    }
    wake_all();

    loop {
        while let Some((idx, stolen)) = claim(p, me, state_ptr) {
            counters::add(Counter::PoolTasks, 1);
            // SAFETY: `state` is live for the whole of this function.
            unsafe { exec(state_ptr, idx, stolen) };
        }
        let flag = lock(&state.done);
        if *flag {
            break;
        }
        let (flag, _) = state
            .done_cv
            .wait_timeout(flag, DRIVER_WAIT)
            .unwrap_or_else(PoisonError::into_inner);
        if *flag {
            break;
        }
    }

    if let Some(payload) = lock(&state.panic).take() {
        resume_unwind(payload);
    }
    let mut results = std::mem::take(&mut *lock(&state.results));
    results.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(results.len(), total);
    let results = results.into_iter().map(|(_, r)| r).collect();
    (results, state.steals.load(Ordering::Relaxed))
}

/// Serializes tests that reconfigure the global limit.
#[cfg(test)]
pub(crate) fn limit_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    lock(&LOCK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::time::Instant;

    #[test]
    fn run_returns_results_in_payload_order() {
        let _g = limit_lock();
        install_limit(4, || {
            let out = run((0..100u32).collect(), |_, x| x * 2);
            assert_eq!(out, (0..100u32).map(|x| x * 2).collect::<Vec<_>>());
        });
    }

    #[test]
    fn run_handles_empty_and_single() {
        let _g = limit_lock();
        install_limit(4, || {
            assert_eq!(run(Vec::<u32>::new(), |_, x| x), Vec::<u32>::new());
            assert_eq!(run(vec![7u32], |_, x| x + 1), vec![8]);
        });
    }

    #[test]
    fn panic_in_chunk_resumes_on_driver_and_pool_survives() {
        let _g = limit_lock();
        install_limit(4, || {
            let r = catch_unwind(AssertUnwindSafe(|| {
                run((0..64u32).collect(), |_, x| {
                    assert!(x != 13, "planted chunk panic");
                    x
                })
            }));
            assert!(r.is_err(), "chunk panic must reach the driver");
            // The pool still works after the panic.
            let ok = run((0..64u32).collect(), |_, x| x + 1);
            assert_eq!(ok.len(), 64);
        });
    }

    #[test]
    fn nested_regions_complete() {
        let _g = limit_lock();
        install_limit(4, || {
            let outer = run((0..8u32).collect(), |_, x| {
                let inner = run((0..16u32).collect(), move |_, y| u64::from(x + y));
                inner.iter().sum::<u64>()
            });
            let want: Vec<u64> = (0..8u64).map(|x| (0..16u64).map(|y| x + y).sum()).collect();
            assert_eq!(outer, want);
        });
    }

    #[test]
    fn idle_worker_steals_from_the_drivers_share() {
        let _g = limit_lock();
        install_limit(2, || {
            let n = 256u32;
            let driver = std::thread::current().id();
            // Threads that ran an item of the driver's initial half.
            let ran_front = Mutex::new(BTreeSet::new());
            let helped = AtomicBool::new(false);
            // Only turns a pool that never steals into a failed assertion
            // instead of a hang.
            let deadline = Instant::now() + Duration::from_secs(10);
            let (out, steals) = run_counting_steals((0..n).collect(), |_, i| {
                if i < n / 2 {
                    let id = std::thread::current().id();
                    lock(&ran_front).insert(format!("{id:?}"));
                    if id != driver {
                        helped.store(true, Ordering::Release);
                    }
                }
                if i < n / 8 {
                    // The first eighth holds nearly all the work: each item
                    // spins until another executor has taken part of the
                    // driver's share.
                    while !helped.load(Ordering::Acquire) && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                }
                i
            });
            assert_eq!(out, (0..n).collect::<Vec<_>>());
            assert!(steals > 0, "no chunk left the executor it was dealt to");
            let threads = ran_front
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner);
            assert!(
                threads.len() >= 2,
                "the driver's initial half ran on {threads:?} only"
            );
        });
    }

    #[test]
    fn install_restores_previous_limit() {
        let _g = limit_lock();
        let before = LIMIT.load(Ordering::Acquire);
        install_limit(3, || {
            assert_eq!(effective_threads(), 3);
        });
        assert_eq!(LIMIT.load(Ordering::Acquire), before);
    }

    #[test]
    fn limit_overrides_the_cached_host_count() {
        let _g = limit_lock();
        let before = LIMIT.load(Ordering::Acquire);
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        configure_threads(0);
        assert_eq!(effective_threads(), host);
        configure_threads(3);
        assert_eq!(effective_threads(), 3);
        install_limit(2, || assert_eq!(effective_threads(), 2));
        assert_eq!(effective_threads(), 3);
        configure_threads(0);
        assert_eq!(effective_threads(), host);
        install_limit(1, || assert_eq!(effective_threads(), 1));
        assert_eq!(effective_threads(), host);
        LIMIT.store(before, Ordering::Release);
    }
}
