//! Data-parallel compute runtime: a dependency-free pool of parked
//! worker threads, shared by every hot path in the workspace (matmul
//! tiles, minibatch gradient shards, batch encoding, candidate scoring).
//!
//! # Determinism contract
//!
//! Work is always split into **contiguous shards processed in a fixed
//! order**: shard `i` covers a contiguous index range, and results are
//! returned (or written) in shard order regardless of which thread ran
//! which shard. Combined with kernels that keep each output element's
//! accumulation order identical to the serial loop, every parallel path
//! in this workspace produces **bit-identical** results at any thread
//! count; reductions that merge per-shard floating-point sums (e.g.
//! sharded gradients) are deterministic for a fixed thread count and
//! match the serial result to rounding error.
//!
//! # The pool
//!
//! Each thread that makes a parallel call owns a pool of long-lived
//! workers (a `thread_local!`), grown on demand to `shards - 1` workers
//! and joined when that thread exits. A call publishes its shards in
//! the pool's one job slot and wakes workers, which park on a `Condvar`
//! between calls; the calling thread runs shard 0 and then claims every
//! shard no worker has claimed yet, so a late wake-up costs at most the
//! serial time. A runtime call made from inside a shard runs its shards
//! inline, in order, with the same shard boundaries. A shard that
//! panics does not stop the others: the call returns only after every
//! shard has finished and then re-raises the lowest-index shard's panic
//! on the caller with its original payload. DESIGN.md §7 has the
//! protocol and its measured hand-off cost.
//!
//! # Configuration
//!
//! The worker count resolves, in priority order:
//! 1. [`set_threads`] (programmatic override, e.g. from a bench loop),
//! 2. the `VAER_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! `VAER_THREADS=1` (or `set_threads(1)`) forces every parallel path
//! through its inline serial branch — no worker is ever started.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Programmatic override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Resolved `VAER_THREADS` / hardware default, read once.
static DEFAULT: OnceLock<usize> = OnceLock::new();

/// The number of worker threads parallel kernels may use (≥ 1).
pub fn threads() -> usize {
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    *DEFAULT.get_or_init(|| {
        std::env::var("VAER_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Overrides the worker count for the whole process; `0` restores the
/// `VAER_THREADS`/hardware default.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// Splits `0..n` into at most `shards` contiguous, near-equal, in-order
/// ranges (the first `n % shards` ranges get one extra element). Returns
/// fewer ranges when `n < shards`; never returns an empty range.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.clamp(1, n.max(1));
    if n == 0 {
        // One empty range, so callers can treat the result as non-empty.
        #[allow(clippy::single_range_in_vec_init)]
        return vec![0..0];
    }
    let base = n / shards;
    let extra = n % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// The shard count for `n` items given a minimum useful shard size:
/// `min(threads(), n / min_per_shard)`, at least 1.
pub fn shard_count(n: usize, min_per_shard: usize) -> usize {
    let max_useful = n / min_per_shard.max(1);
    threads().min(max_useful).max(1)
}

/// Maps `f` over contiguous shards of `0..n`, returning results in shard
/// order. `f` runs inline (no hand-off) when a single shard suffices —
/// either `threads() == 1` or `n < 2 * min_per_shard`.
pub fn map_shards<T, F>(n: usize, min_per_shard: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    map_shards_indexed(n, min_per_shard, |_, r| f(r))
}

/// Like [`map_shards`], but `f` also receives the shard index. The
/// index is stable for a fixed `(n, min_per_shard, threads())`, which
/// lets callers pin per-shard scratch state (e.g. a reusable autodiff
/// tape per shard slot) across repeated calls.
pub fn map_shards_indexed<T, F>(n: usize, min_per_shard: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    let shards = shard_count(n, min_per_shard);
    if shards == 1 {
        crate::obs::pool_inline(1);
        return vec![f(0, 0..n)];
    }
    run_shards(&shard_ranges(n, shards), f)
}

/// Splits the row-major buffer `data` (`rows` rows of `cols` elements)
/// into contiguous row shards and runs `f(row_range, shard_buffer)` on
/// each, in parallel. Each shard's buffer is the disjoint sub-slice for
/// exactly its rows, so kernels write without synchronisation. Runs
/// inline, without allocating, when a single shard suffices.
pub fn for_each_row_shard_mut<F>(data: &mut [f32], rows: usize, cols: usize, min_rows: usize, f: F)
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    debug_assert_eq!(data.len(), rows * cols);
    let shards = shard_count(rows, min_rows);
    if shards == 1 {
        crate::obs::pool_inline(1);
        f(0..rows, data);
        return;
    }
    let ranges = shard_ranges(rows, shards);
    // One lock per disjoint chunk; shard `i` is the only one to take
    // lock `i`, so none is ever contended.
    let mut rest = data;
    let chunks: Vec<Mutex<&mut [f32]>> = ranges
        .iter()
        .map(|r| {
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(r.len() * cols);
            rest = tail;
            Mutex::new(chunk)
        })
        .collect();
    run_shards(&ranges, |i, r| {
        f(
            r,
            &mut chunks[i].lock().unwrap_or_else(PoisonError::into_inner),
        );
    });
}

/// Runs `f(i, ranges[i])` for every shard through [`dispatch`] and
/// returns the results in shard order.
fn run_shards<T, F>(ranges: &[Range<usize>], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
    dispatch(ranges.len(), &|i| {
        let out = f(i, ranges[i].clone());
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
    });
    // `dispatch` returns only after every shard stored its result (it
    // re-raises a shard's panic instead), so no slot is empty here.
    let out: Vec<T> = slots
        .into_iter()
        .filter_map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    debug_assert_eq!(out.len(), ranges.len());
    out
}

thread_local! {
    /// Set while this thread runs a shard (on a worker: always). A
    /// runtime call made then is nested and runs its shards inline.
    static IN_SHARD: Cell<bool> = const { Cell::new(false) };
    /// This thread's workers, started by its first parallel call and
    /// joined when the thread exits.
    static POOL: RefCell<Pool> = RefCell::new(Pool::new());
}

/// Runs `task(i)` for every `i in 0..shards`: on the calling thread's
/// pool, or inline and in order when the call is nested in a shard (or
/// made while the thread is being torn down).
fn dispatch(shards: usize, task: &(dyn Fn(usize) + Sync)) {
    // Only an outer call borrows the pool: shards run with `IN_SHARD`
    // set, so a call made from one never reaches this borrow.
    if !IN_SHARD.get()
        && POOL
            .try_with(|pool| pool.borrow_mut().run(shards, task))
            .is_ok()
    {
        return;
    }
    crate::obs::pool_inline(shards);
    for i in 0..shards {
        task(i);
    }
}

/// A job's shard body as the workers see it: the caller's `task` with
/// its lifetime erased by [`Pool::run`].
type Task = &'static (dyn Fn(usize) + Sync);

type Payload = Box<dyn Any + Send>;

/// The job slot a pool's caller and workers share, behind one mutex.
#[derive(Default)]
struct Slot {
    /// The current job's shard body; `None` between calls.
    task: Option<Task>,
    /// The next shard nobody has claimed yet.
    next: usize,
    /// Shards in the current job.
    shards: usize,
    /// Shards finished, by a worker or by the caller.
    done: usize,
    /// Payloads of the shards that panicked, with their shard index.
    panics: Vec<(usize, Payload)>,
    /// Set when the owning thread exits: workers return.
    shutdown: bool,
}

impl Slot {
    /// Claims the next unclaimed shard of the current job, if any.
    fn claim(&mut self) -> Option<(usize, Task)> {
        let task = self.task?;
        if self.next >= self.shards {
            return None;
        }
        self.next += 1;
        Some((self.next - 1, task))
    }

    /// Counts shard `i` as finished, keeping its panic payload if any.
    fn finish(&mut self, i: usize, result: Result<(), Payload>) {
        self.done += 1;
        if let Err(payload) = result {
            self.panics.push((i, payload));
        }
    }
}

struct Shared {
    slot: Mutex<Slot>,
    /// Workers park here until a job has an unclaimed shard or the pool
    /// shuts down.
    work: Condvar,
    /// The caller parks here until every shard of its job has finished.
    finished: Condvar,
}

/// Locks the slot. No code that can panic runs under this lock (shards
/// run outside it), so a poisoned lock still holds a consistent slot.
fn lock(shared: &Shared) -> MutexGuard<'_, Slot> {
    shared.slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs one shard with the nested-call flag set, catching its panic.
fn run_shard(task: &(dyn Fn(usize) + Sync), i: usize) -> Result<(), Payload> {
    let outer = IN_SHARD.replace(true);
    let result = panic::catch_unwind(AssertUnwindSafe(|| task(i)));
    IN_SHARD.set(outer);
    result
}

/// A calling thread's workers.
struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    fn new() -> Self {
        Self {
            shared: Arc::new(Shared {
                slot: Mutex::new(Slot::default()),
                work: Condvar::new(),
                finished: Condvar::new(),
            }),
            workers: Vec::new(),
        }
    }

    /// Starts workers until there are `n`. If the OS refuses a thread,
    /// the pool stays smaller and the caller runs the unclaimed shards.
    fn grow(&mut self, n: usize) {
        while self.workers.len() < n {
            let shared = Arc::clone(&self.shared);
            // vaer-lint: allow(det-thread-spawn) -- the runtime's one spawn site: these workers are the pool every parallel path goes through, and they only run shards the caller published in fixed shard order
            let spawned = std::thread::Builder::new()
                .name(format!("vaer-worker-{}", self.workers.len() + 1))
                .spawn(move || worker_loop(&shared));
            match spawned {
                Ok(handle) => {
                    self.workers.push(handle);
                    crate::obs::pool_worker_started();
                }
                Err(_) => break,
            }
        }
    }

    /// Runs `task(i)` for every `i in 0..shards`: shard 0 on the calling
    /// thread, the rest on whichever of workers and caller claims them
    /// first. Returns once every shard has finished; then re-raises the
    /// lowest-index shard's panic, if any.
    fn run(&mut self, shards: usize, task: &(dyn Fn(usize) + Sync)) {
        self.grow(shards - 1);
        // Workers reach the task only through `Slot::claim`, and only
        // until they count that shard done. This function neither returns
        // nor unwinds before `done == shards`: shards run under
        // `catch_unwind`, nothing else between here and the wait below can
        // panic, and the slot is cleared before any return or re-raise.
        // SAFETY: so every use of the `'static` copy happens while `task`
        // is still borrowed; `Sync` makes the concurrent calls race-free.
        let erased = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync + '_), Task>(task) };
        let shared = &*self.shared;
        {
            let mut slot = lock(shared);
            slot.task = Some(erased);
            slot.next = 1;
            slot.shards = shards;
            slot.done = 0;
        }
        for _ in 1..shards {
            shared.work.notify_one();
        }
        let mut claimed = Some(0);
        let mut ran_here = 0;
        while let Some(i) = claimed {
            let result = run_shard(task, i);
            ran_here += 1;
            let mut slot = lock(shared);
            slot.finish(i, result);
            claimed = slot.claim().map(|(i, _)| i);
        }
        // Everything past this point is the caller idling on its workers
        // — the pool's idle-time telemetry.
        let wait0 = crate::obs::pool_clock();
        let mut slot = lock(shared);
        while slot.done < shards {
            slot = shared
                .finished
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
        slot.task = None;
        let panics = std::mem::take(&mut slot.panics);
        drop(slot);
        crate::obs::pool_join_wait(wait0);
        crate::obs::pool_dispatched(shards, shards - ran_here);
        if let Some((_, payload)) = panics.into_iter().min_by_key(|&(i, _)| i) {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared).shutdown = true;
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            // Workers catch every shard panic, so a join never fails.
            let _ = worker.join();
        }
    }
}

/// A worker: claims shards of its pool's current job until none is
/// left, then parks until the next job or shutdown.
fn worker_loop(shared: &Shared) {
    // Everything a worker runs is a shard, so its own runtime calls are
    // nested and never start a pool of their own.
    IN_SHARD.set(true);
    let mut slot = lock(shared);
    while !slot.shutdown {
        match slot.claim() {
            Some((i, task)) => {
                drop(slot);
                let result = run_shard(task, i);
                slot = lock(shared);
                slot.finish(i, result);
                if slot.done == slot.shards {
                    shared.finished.notify_one();
                }
            }
            None => {
                slot = shared
                    .work
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Serialises tests (across this crate) that touch the process-global
/// thread override.
#[cfg(test)]
pub(crate) static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    /// Workers the calling thread's pool holds.
    fn pool_workers() -> usize {
        POOL.with(|pool| pool.borrow().workers.len())
    }

    /// Holds the override lock with `n` threads set; restores the
    /// default when dropped, also when the test fails.
    struct Threads {
        _guard: std::sync::MutexGuard<'static, ()>,
    }

    impl Threads {
        fn set(n: usize) -> Self {
            let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
            set_threads(n);
            Self { _guard }
        }
    }

    impl Drop for Threads {
        fn drop(&mut self) {
            set_threads(0);
        }
    }

    /// Spins (yielding) until `flag` is set or `limit` passes.
    fn wait_for(flag: &AtomicBool, limit: Duration) {
        let t0 = Instant::now();
        while !flag.load(Ordering::Relaxed) && t0.elapsed() < limit {
            std::thread::yield_now();
        }
    }

    #[test]
    fn shard_ranges_cover_contiguously() {
        for n in [0usize, 1, 2, 7, 16, 100] {
            for s in [1usize, 2, 3, 8, 200] {
                let ranges = shard_ranges(n, s);
                assert_eq!(ranges.first().unwrap().start, 0);
                assert_eq!(ranges.last().unwrap().end, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                    assert!(!w[1].is_empty());
                }
                // Balanced: lengths differ by at most one.
                let lens: Vec<usize> = ranges.iter().map(Range::len).collect();
                let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(hi - lo <= 1, "unbalanced {lens:?}");
            }
        }
    }

    #[test]
    fn map_shards_returns_in_shard_order() {
        let _threads = Threads::set(4);
        let got = map_shards(100, 1, |r| r.clone());
        assert_eq!(got.first().unwrap().start, 0);
        assert_eq!(got.last().unwrap().end, 100);
        for w in got.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn map_shards_single_thread_is_one_shard() {
        let _threads = Threads::set(1);
        let before = pool_workers();
        let got = map_shards(64, 1, |r| r.clone());
        assert_eq!(got, vec![0..64]);
        assert_eq!(pool_workers(), before, "one thread starts no worker");
    }

    #[test]
    fn row_shards_write_disjoint_rows() {
        let _threads = Threads::set(3);
        let rows = 10;
        let cols = 4;
        let mut data = vec![0.0f32; rows * cols];
        for_each_row_shard_mut(&mut data, rows, cols, 1, |range, chunk| {
            for (local, row) in range.clone().enumerate() {
                for c in 0..cols {
                    chunk[local * cols + c] = (row * cols + c) as f32;
                }
            }
        });
        let want: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
        assert_eq!(data, want);
    }

    #[test]
    fn threads_is_at_least_one() {
        assert!(threads() >= 1);
    }

    #[test]
    fn repeated_calls_reuse_the_callers_workers() {
        let _threads = Threads::set(4);
        // Fewer calls under Miri, whose interpreter runs each hand-off
        // thousands of times slower; the bound is the same.
        let calls = if cfg!(miri) { 200 } else { 10_000 };
        for c in 0..calls {
            let got = map_shards(2, 1, |r| r.start + c);
            assert_eq!(got, vec![c, 1 + c]);
        }
        assert!(pool_workers() <= 3, "{} workers", pool_workers());
        let wide = map_shards(4, 1, |r| r.start);
        assert_eq!(wide, vec![0, 1, 2, 3]);
        assert!(pool_workers() <= 3, "{} workers", pool_workers());
    }

    #[derive(Debug, PartialEq)]
    struct Boom(usize);

    #[test]
    fn shard_panic_reaches_the_caller_with_its_payload() {
        let _threads = Threads::set(2);
        for shard in [0usize, 1] {
            let caught = panic::catch_unwind(|| {
                map_shards_indexed(2, 1, |i, r| {
                    if i == shard {
                        panic::panic_any(Boom(i));
                    }
                    r.len()
                })
            });
            let payload = caught.expect_err("the shard's panic must reach the caller");
            assert_eq!(payload.downcast_ref::<Boom>(), Some(&Boom(shard)));
        }
        // Both shards panic: the lowest index wins, whoever ran it.
        let caught = panic::catch_unwind(|| {
            map_shards_indexed(2, 1, |i, _| -> usize { panic::panic_any(Boom(i)) })
        });
        let payload = caught.expect_err("panics must reach the caller");
        assert_eq!(payload.downcast_ref::<Boom>(), Some(&Boom(0)));
    }

    #[test]
    fn caller_panic_waits_for_the_other_shards() {
        let _threads = Threads::set(2);
        let started = AtomicBool::new(false);
        let finished = AtomicBool::new(false);
        let caught = panic::catch_unwind(|| {
            map_shards_indexed(2, 1, |i, _| {
                if i == 0 {
                    // Let a worker take shard 1 before shard 0 panics.
                    wait_for(&started, Duration::from_secs(10));
                    panic::panic_any(Boom(0));
                }
                started.store(true, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(20));
                finished.store(true, Ordering::Relaxed);
            })
        });
        assert!(caught.is_err());
        assert!(
            finished.load(Ordering::Relaxed),
            "the caller unwound before shard 1 finished"
        );
    }

    #[test]
    fn the_call_after_a_panic_is_correct() {
        let _threads = Threads::set(4);
        let caught = panic::catch_unwind(|| {
            map_shards_indexed(8, 1, |i, _| {
                if i == 2 {
                    panic::panic_any(Boom(2));
                }
            })
        });
        assert!(caught.is_err());
        let got: Vec<usize> = map_shards(100, 1, |r| r.sum::<usize>());
        assert_eq!(got.iter().sum::<usize>(), (0..100).sum::<usize>());
        assert_eq!(got.len(), 4);
        let mut data = vec![0.0f32; 12];
        for_each_row_shard_mut(&mut data, 12, 1, 1, |rows, chunk| {
            for (v, row) in chunk.iter_mut().zip(rows) {
                *v = row as f32;
            }
        });
        assert_eq!(data, (0..12).map(|i| i as f32).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_match_serial_at_any_width() {
        let mut rng = crate::XorShiftRng::new(0xC0FFEE);
        // Each shard of the outer call runs a product at the parallel
        // cutoff, the way `vaer_nn::sharded_step` runs matmuls in its
        // gradient shards; 16 rows allow two 8-row shards.
        let (m, k) = (16, 64);
        let n = crate::ops::PAR_FLOP_CUTOFF.div_ceil(m * k);
        let a: Vec<Matrix> = (0..2).map(|_| Matrix::gaussian(m, k, &mut rng)).collect();
        let b = Matrix::gaussian(k, n, &mut rng);
        let run = || {
            let nested = map_shards(40, 1, |outer| {
                map_shards(outer.len(), 1, |inner| {
                    inner.map(|j| (outer.start + j) * 3).collect::<Vec<_>>()
                })
            });
            let products = map_shards_indexed(a.len(), 1, |i, _| a[i].matmul(&b));
            (nested, products)
        };
        let serial = {
            let _threads = Threads::set(1);
            run()
        };
        let flat = |v: &Vec<Vec<Vec<usize>>>| -> Vec<usize> {
            v.iter().flatten().flatten().copied().collect()
        };
        let want: Vec<usize> = (0..40).map(|j| j * 3).collect();
        assert_eq!(flat(&serial.0), want);
        for width in [1usize, 2, 4] {
            let _threads = Threads::set(width);
            let (nested, products) = run();
            assert_eq!(flat(&nested), want, "nested map at {width} threads");
            for (got, want) in products.iter().zip(&serial.1) {
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "product at {width} threads"
                );
            }
        }
    }

    #[test]
    fn concurrent_callers_each_get_serial_results() {
        let _threads = Threads::set(3);
        let expect: Vec<u64> = (0..300u64).map(|i| i * i).collect();
        std::thread::scope(|scope| {
            let callers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        for _ in 0..50 {
                            let got: Vec<u64> = map_shards(300, 1, |r| {
                                r.map(|i| (i * i) as u64).collect::<Vec<_>>()
                            })
                            .into_iter()
                            .flatten()
                            .collect();
                            assert_eq!(got, expect);
                        }
                        pool_workers()
                    })
                })
                .collect();
            for caller in callers {
                assert!(caller.join().unwrap() <= 2, "workers beyond threads() - 1");
            }
        });
    }
}
