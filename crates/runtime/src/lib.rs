//! Shared thread pool for the whole workspace.
//!
//! Every hot kernel in the reproduction — blocked matmul in `wr-tensor`,
//! covariance and eigen plumbing in `wr-linalg`, the per-group ZCA solves of
//! relaxed whitening in `wr-whiten`, and the full-catalog ranking sweep in
//! `wr-eval` — funnels through the two primitives exported here:
//!
//! * [`parallel_map`] — collect per-index results in index order,
//! * [`parallel_chunks_mut`] — split one output buffer into disjoint chunks.
//!
//! # Why a hand-rolled pool (and not rayon / crossbeam)
//!
//! The build environment is fully offline and the workspace policy is
//! dependency-light: no external crates at all. `crossbeam` and
//! `parking_lot` were declared by the seed but can never be fetched here, so
//! the pool is built on `std` only — a `Mutex<VecDeque>` + `Condvar` work
//! queue feeding persistent workers, and a per-dispatch latch the caller
//! blocks on. That blocking is what makes borrowed closures sound: a
//! dispatch never returns until every job created from its closure has
//! finished, so type-erased pointers into the caller's stack stay valid for
//! exactly as long as the workers can observe them.
//!
//! # Thread count
//!
//! The pool sizes itself from the `WR_THREADS` environment variable, falling
//! back to [`std::thread::available_parallelism`]. [`set_threads`] overrides
//! it at runtime (used by benches and determinism tests). Workers are
//! spawned lazily and persist for the process lifetime; shrinking the target
//! simply leaves the extra workers parked.
//!
//! # Determinism
//!
//! At `WR_THREADS=1` every primitive degenerates to a plain sequential loop
//! over the *same* chunk decomposition, so serial and parallel runs execute
//! identical per-chunk arithmetic. The primitives themselves guarantee
//! order-independence structurally:
//!
//! * `parallel_chunks_mut` chunks write disjoint regions — the output is the
//!   same bytes no matter which worker ran which chunk;
//! * `parallel_map` stitches chunk results back together in index order, so
//!   any ordered reduction performed by the caller sees the serial order.
//!
//! Callers that fold floating-point sums therefore get bit-identical results
//! at any thread count as long as they reduce the returned values in index
//! order (this is what `wr-eval::evaluate_cases` does).
//!
//! # Observability
//!
//! The pool carries `wr-obs` instrumentation: per-task queue-wait and
//! execution timings (measured on a [`wr_obs::MonotonicClock`] owned by the
//! pool — the runtime itself never reads `Instant::now`; clippy's
//! `disallowed_methods` refuses it)
//! aggregated into histograms, plus counters for dispatches and for jobs
//! executed by workers vs. the participating caller. [`pool_stats`] exposes
//! the counters (the benchmark ledger reads their deltas over one round as
//! `runtime.par_dispatches_per_batch` / `runtime.worker_job_share`, so a
//! single-CPU container is detectable from its report), and [`record_metrics`]
//! copies everything into a caller's [`wr_obs::Registry`] snapshot. All of
//! it is write-only: no telemetry value feeds scheduling or results, and
//! the sequential `WR_THREADS=1` fast path takes no timestamps at all.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

use wr_obs::clock::Clock;
use wr_obs::{Histogram, MonotonicClock, Registry};

// ---------------------------------------------------------------------------
// Thread-count policy
// ---------------------------------------------------------------------------

/// Current thread target; 0 means "not yet initialized from the env".
static TARGET: AtomicUsize = AtomicUsize::new(0);

fn default_threads() -> usize {
    match std::env::var("WR_THREADS") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => 1,
        },
        Err(_) => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

/// Number of threads parallel primitives will use (including the caller).
pub fn threads() -> usize {
    let t = TARGET.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    let d = default_threads();
    // Racy double-init is fine: both racers compute the same default.
    TARGET.store(d, Ordering::Relaxed);
    d
}

/// Override the thread target at runtime (clamped to at least 1).
///
/// Benches sweep this to measure scaling; determinism tests flip it between
/// 1 and N to assert bit-identical results.
pub fn set_threads(n: usize) {
    TARGET.store(n.max(1), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

/// One dispatched chunk: a type-erased call into the caller's closure.
///
/// `ctx` and `latch` point into the dispatching thread's stack frame. They
/// remain valid because the dispatcher blocks on the latch until every job
/// of its batch has completed.
struct Job {
    // SAFETY: callers must pass a `ctx` produced from the exact closure
    // type `call` was instantiated for (enforced by `dispatch`, the only
    // constructor of `Job` values).
    call: unsafe fn(*const (), Range<usize>),
    ctx: *const (),
    range: Range<usize>,
    latch: *const Latch,
    /// Pool-clock timestamp at enqueue, for the queue-wait histogram.
    enqueued_ns: u64,
}

// SAFETY: the raw pointers are only dereferenced while the dispatching
// thread is blocked inside `dispatch`, which keeps the referents alive.
unsafe impl Send for Job {}

/// Countdown latch: the dispatcher waits until `remaining` hits zero.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn count_down(&self) {
        // Poison-tolerant: a panicked sibling job must not wedge the
        // dispatcher waiting on this latch; the panic flag carries the news.
        let mut rem = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        *rem -= 1;
        if *rem == 0 {
            self.done.notify_all();
        }
    }

}

/// Write-only pool telemetry (see the module-level "Observability" notes).
struct PoolObs {
    /// The pool's private time source; the only clock the runtime touches.
    clock: MonotonicClock,
    par_dispatches: AtomicU64,
    seq_dispatches: AtomicU64,
    jobs_by_workers: AtomicU64,
    jobs_by_caller: AtomicU64,
    queue_wait_ms: Histogram,
    exec_ms: Histogram,
}

struct PoolState {
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
    workers: AtomicUsize,
    obs: PoolObs,
}

fn pool() -> &'static PoolState {
    static POOL: OnceLock<PoolState> = OnceLock::new();
    POOL.get_or_init(|| PoolState {
        queue: Mutex::new(VecDeque::new()),
        work_ready: Condvar::new(),
        workers: AtomicUsize::new(0),
        obs: PoolObs {
            clock: MonotonicClock::new(),
            par_dispatches: AtomicU64::new(0),
            seq_dispatches: AtomicU64::new(0),
            jobs_by_workers: AtomicU64::new(0),
            jobs_by_caller: AtomicU64::new(0),
            queue_wait_ms: Histogram::new(&Histogram::default_ms_bounds()),
            exec_ms: Histogram::new(&Histogram::default_ms_bounds()),
        },
    })
}

/// Samples a thread buffers locally before flushing into the shared pool
/// histograms (see [`buffer_timing`]).
const TIMING_BUFFER_LEN: usize = 32;

thread_local! {
    /// Worker-local event buffer: per-job `(queue_wait_ms, exec_ms)`
    /// samples recorded by this thread and not yet flushed into the
    /// shared [`PoolObs`] histograms.
    static TIMING_BUFFER: std::cell::RefCell<Vec<(f64, f64)>> =
        std::cell::RefCell::new(Vec::with_capacity(TIMING_BUFFER_LEN));
}

/// Record one job's timing into this thread's local buffer, flushing into
/// the shared histograms when the buffer fills. Buffering keeps the
/// per-job hot path free of contended atomic RMWs on the shared bucket
/// cache lines — the flush pays them once per [`TIMING_BUFFER_LEN`] jobs.
/// Telemetry stays write-only either way; only *when* the shared buckets
/// see a sample changes, never any computed result.
fn buffer_timing(wait_ms: f64, exec_ms: f64) {
    TIMING_BUFFER.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.push((wait_ms, exec_ms));
        if buf.len() >= TIMING_BUFFER_LEN {
            flush_buffer(&mut buf);
        }
    });
}

fn flush_buffer(buf: &mut Vec<(f64, f64)>) {
    let obs = &pool().obs;
    for (wait_ms, exec_ms) in buf.drain(..) {
        obs.queue_wait_ms.observe(wait_ms);
        obs.exec_ms.observe(exec_ms);
    }
}

/// Flush the calling thread's worker-local timing buffer into the shared
/// pool histograms. Dispatchers flush on the way out of every dispatch
/// and workers flush before going idle, so snapshots taken between
/// dispatches ([`record_metrics`]) see every completed job.
fn flush_worker_telemetry() {
    TIMING_BUFFER.with(|buf| flush_buffer(&mut buf.borrow_mut()));
}

/// Execute one job, converting panics into a latch flag so the dispatching
/// thread can re-raise them instead of the whole process aborting.
///
/// `by_worker` is telemetry-only: it attributes the job to a pool worker
/// or to the participating caller in the utilization counters.
fn run_job(job: Job, by_worker: bool) {
    let obs = &pool().obs;
    let start_ns = obs.clock.now_ns();
    let wait_ms = start_ns.saturating_sub(job.enqueued_ns) as f64 / 1e6;
    // SAFETY: `job.ctx` points at the closure `job.call` was instantiated
    // for, and the dispatching thread keeps it alive by blocking on the
    // latch until this job has counted down.
    let result = panic::catch_unwind(AssertUnwindSafe(|| unsafe {
        (job.call)(job.ctx, job.range.clone());
    }));
    let exec_ms = obs.clock.now_ns().saturating_sub(start_ns) as f64 / 1e6;
    buffer_timing(wait_ms, exec_ms);
    let who = if by_worker {
        &obs.jobs_by_workers
    } else {
        &obs.jobs_by_caller
    };
    who.fetch_add(1, Ordering::Relaxed);
    // SAFETY: dispatcher is still blocked on this latch.
    let latch = unsafe { &*job.latch };
    if result.is_err() {
        latch.panicked.store(true, Ordering::Release);
    }
    latch.count_down();
}

fn worker_loop() {
    let p = pool();
    loop {
        // Fast path: take a queued job without going idle.
        let job = p.queue.lock().unwrap().pop_front();
        let job = match job {
            Some(j) => j,
            None => {
                // Going idle: flush this worker's local timing buffer so
                // a snapshot taken between dispatches sees every sample.
                flush_worker_telemetry();
                let mut q = p.queue.lock().unwrap();
                loop {
                    if let Some(j) = q.pop_front() {
                        break j;
                    }
                    q = p.work_ready.wait(q).unwrap();
                }
            }
        };
        run_job(job, true);
    }
}

/// Lazily grow the worker set toward `wanted` persistent workers.
#[expect(
    clippy::disallowed_methods,
    reason = "the pool workers: every other thread runs its jobs through them"
)]
fn ensure_workers(wanted: usize) {
    let p = pool();
    loop {
        let cur = p.workers.load(Ordering::Relaxed);
        if cur >= wanted {
            return;
        }
        if p
            .workers
            .compare_exchange(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            continue;
        }
        let spawned = std::thread::Builder::new()
            // wr-check: allow(R8) — names one thread per pool lifetime; the
            // spawn itself dwarfs the format allocation.
            .name(format!("wr-runtime-{cur}"))
            .spawn(worker_loop);
        if spawned.is_err() {
            // Could not spawn (resource limits): undo the count. The caller
            // participates in every dispatch, so progress is still
            // guaranteed with zero workers.
            p.workers.fetch_sub(1, Ordering::Relaxed);
            return;
        }
    }
}

// SAFETY: caller must guarantee `ctx` is a valid `*const F` to a closure
// that outlives the call — `dispatch` derives it from a stack reference it
// keeps alive by blocking until every job has finished.
unsafe fn call_range<F: Fn(Range<usize>) + Sync>(ctx: *const (), r: Range<usize>) {
    (*(ctx as *const F))(r)
}

/// Split `0..n` into `ceil(n / chunk)` chunks, run `f` on each chunk on the
/// pool, and block until all complete. The caller participates (it drains
/// the queue alongside the workers), so the dispatch makes progress even if
/// no worker thread could be spawned and nested dispatches cannot deadlock.
fn dispatch<F: Fn(Range<usize>) + Sync>(n: usize, chunk: usize, f: F) {
    debug_assert!(chunk >= 1);
    if n == 0 {
        return;
    }
    let n_chunks = n.div_ceil(chunk);
    if threads() <= 1 || n_chunks <= 1 {
        // Guaranteed sequential fallback: same chunk boundaries, same
        // order, and no clock reads — only one counter bump.
        pool().obs.seq_dispatches.fetch_add(1, Ordering::Relaxed);
        let mut start = 0;
        while start < n {
            let end = (start + chunk).min(n);
            f(start..end);
            start = end;
        }
        return;
    }

    ensure_workers(threads().saturating_sub(1));
    let latch = Latch::new(n_chunks);
    let p = pool();
    p.obs.par_dispatches.fetch_add(1, Ordering::Relaxed);
    let enqueued_ns = p.obs.clock.now_ns();
    {
        let mut q = p.queue.lock().unwrap_or_else(|e| e.into_inner());
        let mut start = 0;
        while start < n {
            let end = (start + chunk).min(n);
            q.push_back(Job {
                call: call_range::<F>,
                ctx: &f as *const F as *const (),
                range: start..end,
                latch: &latch as *const Latch,
                enqueued_ns,
            });
            start = end;
        }
    }
    p.work_ready.notify_all();

    // Help drain the queue. We may execute jobs from other concurrent
    // batches — that only ever accelerates them.
    loop {
        let job = p.queue.lock().unwrap_or_else(|e| e.into_inner()).pop_front();
        match job {
            Some(j) => run_job(j, false),
            None => break,
        }
    }
    // The caller's share of the batch is done: flush its local timing
    // buffer so the samples are visible as soon as the dispatch returns.
    flush_worker_telemetry();
    // Wait for workers to finish the jobs they grabbed. Poison-tolerant
    // throughout: a panicked job sets `latch.panicked`, and the re-raise
    // below is the single place that propagates it.
    {
        let mut rem = latch.remaining.lock().unwrap_or_else(|e| e.into_inner());
        while *rem != 0 {
            rem = latch.done.wait(rem).unwrap_or_else(|e| e.into_inner());
        }
    }
    if latch.panicked.load(Ordering::Acquire) {
        // wr-check: allow(R6) — deliberate re-raise: a worker panic must
        // surface on the dispatching thread, not be swallowed.
        panic!("wr-runtime: a parallel task panicked");
    }
}

// ---------------------------------------------------------------------------
// Public primitives
// ---------------------------------------------------------------------------

/// Pick a chunk length for `n` items given a minimum useful grain.
///
/// Aims at a handful of chunks per thread (for load balance) while never
/// going below `grain` (so tiny work items are not dispatched one by one).
pub fn chunk_len(n: usize, grain: usize) -> usize {
    let grain = grain.max(1);
    if n == 0 {
        return grain;
    }
    let balanced = n.div_ceil(threads().max(1) * 4);
    balanced.max(grain)
}

/// Map `0..n` through `f` in parallel, returning results in index order.
///
/// The output is identical to `(0..n).map(f).collect()` for any thread
/// count: chunks are computed independently and stitched back together in
/// index order.
pub fn parallel_map<T: Send, F: Fn(usize) -> T + Sync>(n: usize, grain: usize, f: F) -> Vec<T> {
    let chunk = chunk_len(n, grain);
    if threads() <= 1 || n.div_ceil(chunk.max(1)) <= 1 {
        return (0..n).map(f).collect();
    }
    let parts: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::new());
    dispatch(n, chunk, |r| {
        let start = r.start;
        let vals: Vec<T> = r.map(&f).collect();
        parts.lock().unwrap_or_else(|e| e.into_inner()).push((start, vals));
    });
    let mut parts = parts.into_inner().unwrap_or_else(|e| e.into_inner());
    parts.sort_by_key(|(start, _)| *start);
    let mut out = Vec::with_capacity(n);
    for (_, mut vals) in parts.drain(..) {
        out.append(&mut vals);
    }
    out
}

/// Pointer wrapper that lets disjoint sub-slices be rebuilt on workers.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only ever turned into disjoint `&mut [T]` chunks
// (one per dispatched chunk index), so moving it across threads cannot
// alias; `T: Send` carries the element-type requirement.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: sharing the wrapper is sound for the same reason — all access
// goes through `slice_at`, whose callers hand each chunk to exactly one
// task.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Rebuild the sub-slice starting at `offset`. Accessed via a method so
    /// closures capture the whole (Sync) wrapper rather than the raw field.
    // SAFETY: caller must ensure `offset..offset + len` is in bounds of the
    // original buffer, that no other live reference overlaps it, and that
    // the buffer outlives the returned slice.
    unsafe fn slice_at(&self, offset: usize, len: usize) -> &mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(offset), len)
    }
}

/// Split `data` into chunks of `chunk_items` elements and run
/// `f(chunk_index, chunk)` on each in parallel.
///
/// Chunk boundaries depend only on `chunk_items`, never on the thread
/// count, and each chunk is written by exactly one task — so the resulting
/// buffer is bit-identical across thread counts.
pub fn parallel_chunks_mut<T: Send, F: Fn(usize, &mut [T]) + Sync>(
    data: &mut [T],
    chunk_items: usize,
    f: F,
) {
    let n = data.len();
    let chunk_items = chunk_items.max(1);
    let n_chunks = n.div_ceil(chunk_items);
    let base = SendPtr(data.as_mut_ptr());
    dispatch(n_chunks, 1, |r| {
        for ci in r {
            let start = ci * chunk_items;
            let len = chunk_items.min(n - start);
            // SAFETY: chunks are disjoint (each `ci` is dispatched once) and
            // `data` outlives the dispatch because the caller blocks.
            let slice = unsafe { base.slice_at(start, len) };
            f(ci, slice);
        }
    });
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

/// Point-in-time copy of the pool's utilization counters.
///
/// `jobs_by_workers` vs. `jobs_by_caller` is the load split between spawned
/// pool workers and the dispatching thread (which always participates);
/// on a single-CPU container `available_parallelism` is 1 and virtually all
/// jobs run on the caller — which is what the ledger's
/// `runtime.worker_job_share` makes visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Current thread target ([`threads`]).
    pub threads: usize,
    /// What the OS reports as usable parallelism.
    pub available_parallelism: usize,
    /// Worker threads actually spawned so far.
    pub workers_spawned: usize,
    /// Dispatches that went through the queue.
    pub par_dispatches: u64,
    /// Dispatches that took the sequential fast path.
    pub seq_dispatches: u64,
    /// Queued jobs executed by pool workers.
    pub jobs_by_workers: u64,
    /// Queued jobs executed by the dispatching (caller) thread.
    pub jobs_by_caller: u64,
}

/// Snapshot the pool's utilization counters.
pub fn pool_stats() -> PoolStats {
    let p = pool();
    PoolStats {
        threads: threads(),
        available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        workers_spawned: p.workers.load(Ordering::Relaxed),
        par_dispatches: p.obs.par_dispatches.load(Ordering::Relaxed),
        seq_dispatches: p.obs.seq_dispatches.load(Ordering::Relaxed),
        jobs_by_workers: p.obs.jobs_by_workers.load(Ordering::Relaxed),
        jobs_by_caller: p.obs.jobs_by_caller.load(Ordering::Relaxed),
    }
}

/// Copy the pool's telemetry into `registry` under the `runtime.` prefix:
/// utilization gauges (values are cumulative-since-process-start, sampled
/// at call time) plus count/mean/percentile aggregates of the per-task
/// `runtime.queue_wait_ms` / `runtime.exec_ms` histograms.
pub fn record_metrics(registry: &Registry) {
    // The sampling thread may itself have executed pool jobs (the caller
    // participates in every dispatch) — surface its buffered samples.
    flush_worker_telemetry();
    let s = pool_stats();
    registry.gauge("runtime.threads").set(s.threads as f64);
    registry
        .gauge("runtime.available_parallelism")
        .set(s.available_parallelism as f64);
    registry
        .gauge("runtime.workers_spawned")
        .set(s.workers_spawned as f64);
    registry
        .gauge("runtime.par_dispatches")
        .set(s.par_dispatches as f64);
    registry
        .gauge("runtime.seq_dispatches")
        .set(s.seq_dispatches as f64);
    registry
        .gauge("runtime.jobs_by_workers")
        .set(s.jobs_by_workers as f64);
    registry
        .gauge("runtime.jobs_by_caller")
        .set(s.jobs_by_caller as f64);
    // The pool histograms are process-global and may already be adopted by
    // another registry, so export their aggregates as plain gauges.
    for (name, h) in [
        ("runtime.queue_wait_ms", &pool().obs.queue_wait_ms),
        ("runtime.exec_ms", &pool().obs.exec_ms),
    ] {
        let snap = h.snapshot();
        registry.gauge(&format!("{name}.count")).set(snap.count as f64);
        registry.gauge(&format!("{name}.mean")).set(snap.mean());
        registry
            .gauge(&format!("{name}.p50"))
            .set(snap.percentile(50.0));
        registry
            .gauge(&format!("{name}.p95"))
            .set(snap.percentile(95.0));
        registry
            .gauge(&format!("{name}.p99"))
            .set(snap.percentile(99.0));
        registry.gauge(&format!("{name}.max")).set(snap.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Serialize tests that mutate the global thread target.
    fn with_target<R>(n: usize, body: impl FnOnce() -> R) -> R {
        static GUARD: Mutex<()> = Mutex::new(());
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let prev = threads();
        set_threads(n);
        let out = body();
        set_threads(prev);
        out
    }

    #[test]
    fn parallel_map_runs_every_index_once() {
        for t in [1, 2, 4, 8] {
            with_target(t, || {
                let n = 1000;
                let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                parallel_map(n, 1, |i| counts[i].fetch_add(1, Ordering::Relaxed));
                assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            });
        }
    }

    #[test]
    fn parallel_map_matches_serial_for_arbitrary_sizes() {
        // Includes len < threads and len = 0.
        for t in [1, 3, 8] {
            with_target(t, || {
                for n in [0usize, 1, 2, 5, 7, 63, 64, 65, 1000] {
                    for grain in [1usize, 3, 64, 1000] {
                        let serial: Vec<u64> = (0..n).map(|i| (i as u64) * 31 + 7).collect();
                        let par = parallel_map(n, grain, |i| (i as u64) * 31 + 7);
                        assert_eq!(par, serial, "n={n} grain={grain} threads={t}");
                    }
                }
            });
        }
    }

    #[test]
    fn parallel_chunks_mut_covers_buffer_disjointly() {
        for t in [1, 4] {
            with_target(t, || {
                for n in [0usize, 1, 10, 257] {
                    for chunk in [1usize, 4, 100, 1000] {
                        let mut data = vec![0u32; n];
                        parallel_chunks_mut(&mut data, chunk, |ci, s| {
                            for (off, v) in s.iter_mut().enumerate() {
                                *v = (ci * chunk + off) as u32 + 1;
                            }
                        });
                        let expect: Vec<u32> = (1..=n as u32).collect();
                        assert_eq!(data, expect, "n={n} chunk={chunk} t={t}");
                    }
                }
            });
        }
    }

    #[test]
    fn ordered_float_reduction_is_bit_identical_across_thread_counts() {
        let vals: Vec<f64> = (0..10_000).map(|i| ((i * 2654435761u64 as usize) as f64).sin()).collect();
        let fold = |parts: Vec<f64>| parts.into_iter().fold(0.0f64, |a, b| a + b);
        let serial = with_target(1, || fold(parallel_map(vals.len(), 64, |i| vals[i])));
        let par = with_target(8, || fold(parallel_map(vals.len(), 64, |i| vals[i])));
        assert_eq!(serial.to_bits(), par.to_bits());
    }

    #[test]
    fn nested_dispatch_does_not_deadlock() {
        with_target(4, || {
            let total = AtomicU64::new(0);
            parallel_map(8, 1, |i| {
                let inner: u64 = parallel_map(16, 1, |j| (i * 16 + j) as u64).iter().sum();
                total.fetch_add(inner, Ordering::Relaxed);
            });
            let expect: u64 = (0..128u64).sum();
            assert_eq!(total.load(Ordering::Relaxed), expect);
        });
    }

    #[test]
    fn worker_panics_propagate_to_caller() {
        with_target(4, || {
            let result = std::panic::catch_unwind(|| {
                parallel_map(64, 1, |i| {
                    if i == 33 {
                        panic!("boom");
                    }
                });
            });
            assert!(result.is_err(), "panic must reach the dispatching thread");
        });
    }

    #[test]
    fn set_threads_clamps_to_one() {
        with_target(3, || {
            set_threads(0);
            assert_eq!(threads(), 1);
        });
    }

    #[test]
    fn chunk_len_respects_grain() {
        with_target(4, || {
            assert!(chunk_len(10, 64) >= 64);
            assert!(chunk_len(0, 8) >= 1);
            // Large n: a handful of chunks per thread.
            let c = chunk_len(16_000, 1);
            assert_eq!(c, 1000);
        });
    }

    #[test]
    fn pool_stats_count_dispatches_and_job_attribution() {
        with_target(1, || {
            let before = pool_stats();
            // A one-thread map never reaches the pool; a chunk write still
            // counts its (sequential) dispatch.
            parallel_chunks_mut(&mut [0u8; 100], 1, |_, _| {});
            let after = pool_stats();
            assert_eq!(after.seq_dispatches, before.seq_dispatches + 1);
            assert_eq!(after.par_dispatches, before.par_dispatches);
        });
        with_target(4, || {
            let before = pool_stats();
            parallel_map(1000, 1, std::hint::black_box);
            let after = pool_stats();
            assert_eq!(after.par_dispatches, before.par_dispatches + 1);
            let jobs = (after.jobs_by_workers + after.jobs_by_caller)
                - (before.jobs_by_workers + before.jobs_by_caller);
            // chunk_len(1000, 1) at 4 threads = 63 → 16 chunks.
            assert_eq!(jobs as usize, 1000usize.div_ceil(chunk_len(1000, 1)));
            assert!(after.available_parallelism >= 1);
        });
    }

    #[test]
    fn record_metrics_exports_runtime_gauges() {
        with_target(4, || {
            parallel_map(256, 1, std::hint::black_box);
            let reg = Registry::new();
            record_metrics(&reg);
            let snap = reg.snapshot();
            let names: Vec<&str> = snap.gauges.iter().map(|(n, _)| n.as_str()).collect();
            for want in [
                "runtime.threads",
                "runtime.available_parallelism",
                "runtime.jobs_by_workers",
                "runtime.jobs_by_caller",
                "runtime.exec_ms.count",
                "runtime.queue_wait_ms.p95",
            ] {
                assert!(names.contains(&want), "missing gauge {want}");
            }
            let ap = snap
                .gauges
                .iter()
                .find(|(n, _)| n == "runtime.available_parallelism")
                .map(|(_, v)| *v)
                .unwrap();
            assert!(ap >= 1.0);
        });
    }

    /// Worker-local buffering must not hide samples from between-dispatch
    /// snapshots: the caller flushes on the way out of the dispatch, the
    /// workers flush when they go idle.
    #[test]
    fn timing_buffers_flush_by_the_time_the_pool_goes_idle() {
        with_target(4, || {
            let before = pool().obs.exec_ms.snapshot().count;
            let n_jobs = 1000usize.div_ceil(chunk_len(1000, 1)) as u64;
            parallel_map(1000, 1, std::hint::black_box);
            // Caller samples are flushed before `parallel_map` returns;
            // worker samples flush as each worker goes idle — poll
            // briefly for those stragglers.
            let want = before + n_jobs;
            for _ in 0..200 {
                if pool().obs.exec_ms.snapshot().count >= want {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            assert!(
                pool().obs.exec_ms.snapshot().count >= want,
                "buffered job timings never reached the shared histogram"
            );
        });
    }

    /// Cross-thread span attribution: spans recorded from inside pool jobs
    /// land on distinct `tid`s per executing thread. (Lives here rather
    /// than in wr-obs because the pool is the only sanctioned thread
    /// source — clippy's `disallowed_methods`.)
    #[test]
    fn tracer_attributes_spans_across_pool_threads() {
        use wr_obs::{MockClock, Tracer};
        with_target(4, || {
            let clock = std::sync::Arc::new(MockClock::with_tick(10));
            let tracer = Tracer::new(clock as std::sync::Arc<dyn Clock>);
            parallel_map(64, 1, |i| tracer.span(format!("job{i}"), "runtime").end());
            let events = tracer.events();
            assert_eq!(events.len(), 64);
            // The caller participates, so tid 0 exists; every tid is small
            // and stable (< number of distinct executing threads).
            let max_tid = events.iter().map(|e| e.tid).max().unwrap();
            assert!(max_tid < 8, "tids should be densely assigned, got {max_tid}");
            // Durations come from the shared mock clock tick: one tick when
            // a span's two reads are adjacent, more when another pool
            // thread's reads land between them.
            assert!(events.iter().all(|e| e.dur_ns >= 10 && e.dur_ns % 10 == 0));
        });
    }

    /// Telemetry is write-only: running with and without metric recording
    /// around the same reduction yields bit-identical results.
    #[test]
    fn instrumentation_does_not_perturb_results() {
        let run = || {
            let vals = parallel_map(4096, 16, |i| ((i as u64 * 2654435761) as f64).sin());
            vals.into_iter().fold(0.0f64, |a, b| a + b)
        };
        let a = with_target(4, run);
        record_metrics(&Registry::new());
        let b = with_target(4, run);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
