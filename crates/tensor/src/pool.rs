//! A persistent parked-worker thread pool for deterministic data-parallel
//! kernels.
//!
//! The decode hot path is memory-bandwidth bound, and one core cannot
//! saturate the memory system of a modern machine; the paper's CUDA kernels
//! row-partition every sparse GEMV across warps for exactly this reason.
//! This module is the CPU analogue: a dependency-free pool that splits an
//! output slice into contiguous chunks and computes each chunk on its own
//! worker thread.
//!
//! Workers are **long-lived and parked**, not spawned per call. The first
//! design of this pool used `std::thread::scope` per kernel call, which is
//! beautifully safe but pays the ~tens-of-µs thread spawn cost on every
//! sub-millisecond GEMV — exactly the overhead that capped multi-core
//! scaling. Now each [`ThreadPool`] owns `threads - 1` worker
//! threads parked on per-worker condvars; a dispatch deposits one chunk
//! descriptor per worker, runs the final chunk on the calling thread, and
//! blocks until every worker has signalled completion. Steady-state
//! dispatch performs **zero heap allocations** (descriptors live on the
//! caller's stack, mailboxes are preallocated), preserving the
//! allocation-free guarantee of the workspace hot path at `threads > 1`.
//!
//! Determinism is by construction, not by luck: every output element has a
//! **single writer**, chunk boundaries are a pure function of `(len,
//! threads, min_chunk)`, and the arithmetic performed for one element does
//! not depend on how the slice was chunked. Running with 1, 2 or 4 threads
//! therefore produces bit-identical results (proven by the workspace
//! integration tests), which is what lets the serving layer turn the
//! `threads` knob freely without perturbing decoded tokens.
//!
//! With `threads == 1` every entry point degenerates to an inline call with
//! zero overhead (no workers, no synchronization, no allocation) — the
//! default for engines.
//!
//! # Safety
//!
//! This is the one module in the library crates that uses `unsafe` (the
//! crate is `#![deny(unsafe_code)]` with a local allow here). Feeding
//! borrowed, non-`'static` chunks to long-lived threads requires erasing
//! lifetimes — the same thing `std::thread::scope` and rayon do internally.
//! The invariants that make it sound are small and local:
//!
//! * A `Task` (erased closure pointer + chunk pointer/len) is only ever
//!   created inside [`ThreadPool::run_chunks`] / [`ThreadPool::run_tasks`],
//!   which do not return (or unwind) until the completion counter says
//!   every deposited task has finished. Workers never touch a task after
//!   decrementing that counter, so the borrows behind the raw pointers are
//!   live for every access.
//! * Chunks are produced by `split_at_mut`, so they are disjoint and
//!   `&mut`-unique; `T: Send` and `F: Sync` bounds carry over from the
//!   public signatures exactly as they did for scoped threads.
//! * Worker panics are caught, forwarded, and re-raised on the calling
//!   thread after all peers finish — a panicking kernel can neither
//!   deadlock parked peers nor let the caller return while a worker still
//!   holds a borrow.

#![allow(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// User-facing parallelism knob, plumbed through `EngineBuilder` and
/// `Scheduler`.
///
/// # Example
///
/// ```
/// use sparseinfer_tensor::pool::ParallelOptions;
///
/// assert_eq!(ParallelOptions::default().threads, 1);
/// assert_eq!(ParallelOptions::threads(4).threads, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelOptions {
    /// Number of worker threads kernels may fan out to (≥ 1).
    pub threads: usize,
}

impl ParallelOptions {
    /// Single-threaded execution (the default; zero overhead).
    pub fn single() -> Self {
        Self { threads: 1 }
    }

    /// Fan out to `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn threads(threads: usize) -> Self {
        assert!(threads >= 1, "thread count must be at least 1");
        Self { threads }
    }
}

impl Default for ParallelOptions {
    fn default() -> Self {
        Self::single()
    }
}

/// Signature every chunk of work is erased to: `(closure, base pointer,
/// global offset, element count)`. Monomorphized trampolines
/// ([`chunk_trampoline`], [`tasks_trampoline`]) rebuild the typed slice and
/// closure on the worker side.
type RawKernel = unsafe fn(*const (), *mut u8, usize, usize);

/// One chunk descriptor deposited into a worker's mailbox. Stack-allocated
/// by the dispatching call; never outlives it (see module safety notes).
struct Task {
    kernel: RawKernel,
    ctx: *const (),
    base: *mut u8,
    offset: usize,
    len: usize,
}

// SAFETY: the raw pointers stand for a `&F` and a `&mut [T]` whose referents
// the dispatching thread keeps alive (and unaliased) until the completion
// counter reports the task done; `F: Sync` and `T: Send` are enforced by the
// public entry points that create tasks.
unsafe impl Send for Task {}

/// Rebuilds `(offset, &mut [f32])` from an erased task and calls `f` — the
/// worker-side half of [`ThreadPool::run_chunks`].
unsafe fn chunk_trampoline<F>(ctx: *const (), base: *mut u8, offset: usize, len: usize)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    // SAFETY: `ctx` points to an `F` and `base..base+len` to a disjoint
    // `&mut [f32]` chunk, both alive for the duration of the dispatch (see
    // module safety notes).
    let f = unsafe { &*(ctx as *const F) };
    let chunk = unsafe { std::slice::from_raw_parts_mut(base as *mut f32, len) };
    f(offset, chunk);
}

/// [`chunk_trampoline`] instantiated for the type of `f` (which, for a
/// closure defined inside a generic function, cannot be named).
fn chunk_trampoline_of<F>(_f: &F) -> RawKernel
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    chunk_trampoline::<F>
}

/// Rebuilds `(start index, &mut [T])` from an erased task and runs `f` over
/// every item — the worker-side half of [`ThreadPool::run_tasks`].
unsafe fn tasks_trampoline<T, F>(ctx: *const (), base: *mut u8, offset: usize, len: usize)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    // SAFETY: as in `chunk_trampoline`, with `base` pointing at a disjoint
    // `&mut [T]` chunk of `len` items starting at global index `offset`.
    let f = unsafe { &*(ctx as *const F) };
    let items = unsafe { std::slice::from_raw_parts_mut(base as *mut T, len) };
    for (i, item) in items.iter_mut().enumerate() {
        f(offset + i, item);
    }
}

/// One worker's parking spot: a task slot plus the condvar the worker waits
/// on while the slot is empty.
struct Mailbox {
    slot: Mutex<MailSlot>,
    wake: Condvar,
}

#[derive(Default)]
struct MailSlot {
    task: Option<Task>,
    shutdown: bool,
}

impl Mailbox {
    fn new() -> Self {
        Self {
            slot: Mutex::new(MailSlot::default()),
            wake: Condvar::new(),
        }
    }
}

/// Completion state of the in-flight dispatch (at most one per pool).
#[derive(Default)]
struct DoneState {
    /// Worker tasks deposited but not yet finished.
    pending: usize,
    /// First panic payload caught on a worker, re-raised by the caller.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    mailboxes: Box<[Mailbox]>,
    done: Mutex<DoneState>,
    all_done: Condvar,
    /// Guards the single-dispatch invariant: a nested or concurrent
    /// `run_*` call on the same pool falls back to inline execution
    /// (results are identical either way) instead of corrupting the
    /// completion counter.
    dispatching: AtomicBool,
}

/// Never-poisoned lock: kernels run outside every lock (and worker panics
/// are caught before touching one), so a poisoned mutex can only mean a
/// panic in this module's own bookkeeping — carrying on with the inner
/// value is strictly better than cascading the abort.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The parked-worker loop: wait for a task (or shutdown), run it with
/// panics contained, report completion, park again.
fn worker_loop(shared: Arc<PoolShared>, index: usize) {
    let mailbox = &shared.mailboxes[index];
    loop {
        let task = {
            let mut slot = lock(&mailbox.slot);
            loop {
                if slot.shutdown {
                    return;
                }
                if let Some(task) = slot.task.take() {
                    break task;
                }
                slot = mailbox
                    .wake
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: the dispatching thread keeps the task's referents alive
        // until we decrement `pending` below (module safety notes).
        let result = catch_unwind(AssertUnwindSafe(|| unsafe {
            (task.kernel)(task.ctx, task.base, task.offset, task.len)
        }));
        let mut done = lock(&shared.done);
        if let Err(payload) = result {
            done.panic.get_or_insert(payload);
        }
        done.pending -= 1;
        if done.pending == 0 {
            shared.all_done.notify_one();
        }
    }
}

/// Owns the worker threads; dropped when the last [`ThreadPool`] clone
/// goes away, which parks-out and joins every worker.
struct PoolHandle {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Drop for PoolHandle {
    fn drop(&mut self) {
        for mailbox in self.shared.mailboxes.iter() {
            lock(&mailbox.slot).shutdown = true;
            mailbox.wake.notify_one();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A reusable handle that row-partitions kernel work across persistent,
/// parked worker threads.
///
/// The pool is a cheap `Arc`-backed clone handle: `threads - 1` workers are
/// spawned once at construction and parked on condvars between kernel
/// calls; cloning shares them, and dropping the last handle shuts them down
/// and joins them. Dispatching a kernel deposits chunk descriptors into the
/// workers' mailboxes (no allocation, no spawn) and runs the final chunk on
/// the calling thread.
///
/// # Example
///
/// ```
/// use sparseinfer_tensor::pool::{ParallelOptions, ThreadPool};
///
/// let pool = ThreadPool::new(ParallelOptions::threads(2));
/// let mut out = vec![0.0f32; 1000];
/// pool.run_chunks(&mut out, 1, |offset, chunk| {
///     for (i, slot) in chunk.iter_mut().enumerate() {
///         *slot = (offset + i) as f32;
///     }
/// });
/// assert_eq!(out[999], 999.0);
/// ```
#[derive(Clone)]
pub struct ThreadPool {
    threads: usize,
    /// `None` for the single-threaded pool (inline execution).
    inner: Option<Arc<PoolHandle>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .field(
                "parked_workers",
                &self.inner.as_ref().map_or(0, |_| self.threads - 1),
            )
            .finish()
    }
}

impl ThreadPool {
    /// A pool fanning out to `options.threads` workers: `threads - 1`
    /// parked worker threads are spawned now (the calling thread is the
    /// last worker of every dispatch).
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn a worker thread (resource
    /// exhaustion at construction time — never during dispatch; a built
    /// pool spawns nothing more). Construct pools at startup, where
    /// aborting is the reasonable response, rather than per request.
    pub fn new(options: ParallelOptions) -> Self {
        let threads = options.threads.max(1);
        if threads == 1 {
            return Self::single();
        }
        let shared = Arc::new(PoolShared {
            mailboxes: (1..threads).map(|_| Mailbox::new()).collect(),
            done: Mutex::new(DoneState::default()),
            all_done: Condvar::new(),
            dispatching: AtomicBool::new(false),
        });
        // A thread allocates as it starts (its thread-local bookkeeping).
        // Waiting here until every worker runs keeps that inside
        // construction; otherwise it lands in whatever the caller does
        // next — an allocation-free decode step, when the first kernels
        // stay below the fan-out thresholds and never wait on a worker.
        let started = Arc::new(Barrier::new(threads));
        let workers = (0..threads - 1)
            .map(|i| {
                let (shared, started) = (Arc::clone(&shared), Arc::clone(&started));
                std::thread::Builder::new()
                    .name(format!("sparseinfer-pool-{i}"))
                    .spawn(move || {
                        started.wait();
                        worker_loop(shared, i)
                    })
                    .expect("failed to spawn pool worker thread")
            })
            .collect();
        started.wait();
        Self {
            threads,
            inner: Some(Arc::new(PoolHandle { shared, workers })),
        }
    }

    /// The single-threaded pool (inline execution, zero overhead, no
    /// worker threads).
    pub fn single() -> Self {
        Self {
            threads: 1,
            inner: None,
        }
    }

    /// Number of workers this pool fans out to (including the calling
    /// thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many workers would actually be used for `len` items at a minimum
    /// chunk size of `min_chunk` (small problems stay single-threaded —
    /// even parked-worker dispatch costs more than a 64-row GEMV saves).
    fn effective_workers(&self, len: usize, min_chunk: usize) -> usize {
        if self.threads <= 1 || len == 0 {
            return 1;
        }
        self.threads.min(len / min_chunk.max(1)).max(1)
    }

    /// Splits `out` into at most [`threads`](Self::threads) contiguous
    /// chunks and runs `f(chunk_offset, chunk)` on each, in parallel. Each
    /// element of `out` is written by exactly one worker; results are
    /// bit-identical to the single-threaded call as long as `f`'s work per
    /// element does not depend on the chunking (true for every kernel in
    /// this workspace: chunk boundaries select *which rows/columns* a
    /// worker computes, never *how*). The `row_len == 1` case of
    /// [`run_rows`](Self::run_rows).
    pub fn run_chunks<F>(&self, out: &mut [f32], min_chunk: usize, f: F)
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        self.run_rows(out, 1, min_chunk, f);
    }

    /// [`run_chunks`](Self::run_chunks) over an `out` made of rows of
    /// `row_len` elements: chunk boundaries fall only between rows, at
    /// least `min_rows` rows go to a worker, and `f(first_row, chunk)`
    /// receives the index of the chunk's first row. What the multi-column
    /// kernels partition with — one weight row's results for every
    /// activation column sit in one `out` row, so a weight row is never
    /// split between workers.
    ///
    /// # Panics
    ///
    /// Panics if `row_len == 0` or `out.len()` is not a multiple of it.
    pub fn run_rows<F>(&self, out: &mut [f32], row_len: usize, min_rows: usize, f: F)
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        assert!(
            row_len > 0 && out.len().is_multiple_of(row_len),
            "output of {} elements is not made of {row_len}-element rows",
            out.len()
        );
        let rows = out.len() / row_len;
        let workers = self.effective_workers(rows, min_rows);
        let Some(inner) = self.inner.as_ref().filter(|_| workers > 1) else {
            f(0, out);
            return;
        };
        let by_row = |offset: usize, chunk: &mut [f32]| f(offset / row_len, chunk);
        dispatch(
            inner,
            out,
            rows.div_ceil(workers) * row_len,
            chunk_trampoline_of(&by_row),
            &raw const by_row as *const (),
        );
    }

    /// Runs `f(index, item)` over every item, partitioned across workers.
    /// Items are mutated independently (single writer each), so the result
    /// is identical to the sequential loop regardless of thread count. Used
    /// by the batch scheduler to advance independent decode sessions
    /// concurrently.
    pub fn run_tasks<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let workers = self.effective_workers(items.len(), 1);
        let Some(inner) = self.inner.as_ref().filter(|_| workers > 1) else {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        };
        let chunk = items.len().div_ceil(workers);
        dispatch(
            inner,
            items,
            chunk,
            tasks_trampoline::<T, F>,
            &raw const f as *const (),
        );
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        Self::single()
    }
}

/// Clears the pool's dispatch flag even if the dispatch unwinds.
struct DispatchGuard<'p>(&'p PoolShared);

impl Drop for DispatchGuard<'_> {
    fn drop(&mut self) {
        self.0.dispatching.store(false, Ordering::Release);
    }
}

/// The dispatch core shared by `run_chunks` and `run_tasks`: partition
/// `data` into `chunk`-sized pieces, deposit all but the last into worker
/// mailboxes, run the last on the calling thread, and block until every
/// worker task has completed. Allocation-free. Falls back to inline
/// execution when another dispatch is already in flight on this pool
/// (nested or cross-thread use) — the result is identical by the
/// single-writer argument.
fn dispatch<T: Send>(
    inner: &PoolHandle,
    data: &mut [T],
    chunk: usize,
    kernel: RawKernel,
    ctx: *const (),
) {
    let shared = &*inner.shared;
    if shared.dispatching.swap(true, Ordering::Acquire) {
        // SAFETY: inline execution of the whole range; `ctx`/`data` are the
        // caller's live borrows.
        unsafe { kernel(ctx, data.as_mut_ptr() as *mut u8, 0, data.len()) };
        return;
    }
    let guard = DispatchGuard(shared);
    let worker_tasks = data.len().div_ceil(chunk.max(1)).saturating_sub(1);
    // Checked in release builds too, *before* `pending` is set or any task
    // is deposited: the window between a deposit and the completion wait
    // must be panic-free, or unwinding would free the borrows behind
    // in-flight tasks while workers still run them. Today's callers always
    // satisfy this (chunk = len.div_ceil(workers), workers ≤ threads), so
    // the fallback is dead code — but it keeps a future mis-sized `chunk`
    // a correctness non-event instead of a use-after-free.
    if worker_tasks > shared.mailboxes.len() {
        debug_assert!(false, "chunk too small for the worker count");
        // SAFETY: inline execution of the whole range; `ctx`/`data` are
        // the caller's live borrows.
        unsafe { kernel(ctx, data.as_mut_ptr() as *mut u8, 0, data.len()) };
        return;
    }
    lock(&shared.done).pending = worker_tasks;
    let mut rest = data;
    let mut offset = 0usize;
    let mut mailboxes = shared.mailboxes.iter();
    while rest.len() > chunk {
        let (head, tail) = rest.split_at_mut(chunk);
        let mailbox = mailboxes
            .next()
            .expect("worker_tasks <= mailboxes was checked above");
        lock(&mailbox.slot).task = Some(Task {
            kernel,
            ctx,
            base: head.as_mut_ptr() as *mut u8,
            offset,
            len: head.len(),
        });
        mailbox.wake.notify_one();
        offset += chunk;
        rest = tail;
    }
    // The last chunk runs on the calling thread; a panicking kernel must
    // still wait for the workers below before unwinding out.
    let base = rest.as_mut_ptr() as *mut u8;
    let len = rest.len();
    // SAFETY: `rest` is the final disjoint chunk; `ctx` is the caller's
    // live closure.
    let caller_result = catch_unwind(AssertUnwindSafe(|| unsafe {
        kernel(ctx, base, offset, len)
    }));
    let worker_panic = {
        let mut done = lock(&shared.done);
        while done.pending > 0 {
            done = shared
                .all_done
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
        done.panic.take()
    };
    drop(guard);
    if let Err(payload) = caller_result {
        resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_runs_inline() {
        let pool = ThreadPool::single();
        let mut out = vec![0.0f32; 10];
        pool.run_chunks(&mut out, 1, |off, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (off + i) as f32 + 1.0;
            }
        });
        assert_eq!(out[0], 1.0);
        assert_eq!(out[9], 10.0);
    }

    #[test]
    fn chunked_results_match_sequential_for_every_thread_count() {
        let compute = |off: usize, chunk: &mut [f32]| {
            for (i, v) in chunk.iter_mut().enumerate() {
                let x = (off + i) as f32;
                *v = x * 0.5 - 3.0;
            }
        };
        let mut expected = vec![0.0f32; 1003];
        ThreadPool::single().run_chunks(&mut expected, 1, compute);
        for threads in [2, 3, 4, 8] {
            let pool = ThreadPool::new(ParallelOptions::threads(threads));
            let mut out = vec![0.0f32; 1003];
            pool.run_chunks(&mut out, 1, compute);
            assert_eq!(out, expected, "{threads} threads");
        }
    }

    #[test]
    fn small_problems_stay_single_threaded() {
        let pool = ThreadPool::new(ParallelOptions::threads(8));
        assert_eq!(pool.effective_workers(10, 64), 1);
        assert_eq!(pool.effective_workers(1024, 64), 8);
        assert_eq!(pool.effective_workers(0, 1), 1);
        // Every element still gets written.
        let mut out = vec![0.0f32; 10];
        pool.run_chunks(&mut out, 64, |_, chunk| chunk.fill(1.0));
        assert!(out.iter().all(|v| *v == 1.0));
    }

    #[test]
    fn run_rows_never_splits_a_row() {
        for threads in [1, 2, 3, 4] {
            let pool = ThreadPool::new(ParallelOptions::threads(threads));
            for (rows, row_len) in [(7usize, 3usize), (64, 5), (1, 9), (0, 4)] {
                let mut out = vec![-1.0f32; rows * row_len];
                pool.run_rows(&mut out, row_len, 1, |first_row, chunk| {
                    assert_eq!(chunk.len() % row_len, 0, "whole rows only");
                    for (i, row) in chunk.chunks_exact_mut(row_len).enumerate() {
                        row.fill((first_row + i) as f32);
                    }
                });
                for (r, row) in out.chunks_exact(row_len).enumerate() {
                    assert!(row.iter().all(|v| *v == r as f32), "{threads}t row {r}");
                }
            }
        }
    }

    #[test]
    fn run_tasks_visits_every_item_once() {
        for threads in [1, 2, 5] {
            let pool = ThreadPool::new(ParallelOptions::threads(threads));
            let mut items = vec![0usize; 97];
            pool.run_tasks(&mut items, |i, item| *item = i + 1);
            for (i, item) in items.iter().enumerate() {
                assert_eq!(*item, i + 1, "{threads} threads, item {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threads_rejected() {
        let _ = ParallelOptions::threads(0);
    }

    #[test]
    fn clones_share_the_same_workers() {
        let pool = ThreadPool::new(ParallelOptions::threads(3));
        let clone = pool.clone();
        assert_eq!(clone.threads(), 3);
        let (a, b) = (pool.inner.as_ref().unwrap(), clone.inner.as_ref().unwrap());
        assert!(Arc::ptr_eq(a, b), "clone must share the worker set");
        let mut out = vec![0.0f32; 256];
        clone.run_chunks(&mut out, 1, |_, chunk| chunk.fill(2.0));
        assert!(out.iter().all(|v| *v == 2.0));
    }

    #[test]
    fn nested_dispatch_on_the_same_pool_runs_inline() {
        // A kernel that (pathologically) re-enters its own pool must not
        // deadlock: the nested call detects the in-flight dispatch and
        // runs inline.
        let pool = ThreadPool::new(ParallelOptions::threads(2));
        let inner_pool = pool.clone();
        let mut out = vec![0.0f32; 64];
        pool.run_chunks(&mut out, 1, |off, chunk| {
            let mut local = vec![0.0f32; 8];
            inner_pool.run_chunks(&mut local, 1, |_, c| c.fill(1.0));
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (off + i) as f32 + local[0];
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32 + 1.0);
        }
    }
}
