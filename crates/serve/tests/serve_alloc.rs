//! Pins "what a served call allocates follows shapes, not data" for the
//! engine, without the benchmark: one warm `ServeEngine::serve` call asks
//! the heap for the same number of allocations and bytes whatever items
//! its histories name and however long they are, and each request it
//! carries adds the same fixed step. The ledger's
//! `serve_alloc_kb_per_query` measures this through the gateway; this
//! fails first, by name, on the engine alone.
//!
//! A test binary of its own because a `#[global_allocator]` is
//! process-wide; what it counts is not — only the thread that armed
//! [`COUNTING`], because libtest's main thread allocates beside the test
//! thread whenever it likes. The shapes keep every gemm under the
//! kernel's parallel threshold and every micro-batch at one top-k chunk,
//! so the whole call runs on the counting thread at any `WR_THREADS`.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use wr_serve::{Request, ServeEngine};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the measuring thread for the length of the measured call. The
    /// `const` initialiser makes access allocation-free, which an allocator
    /// needs of anything it reads.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// What `f` allocates on the calling thread: (result, allocations, bytes).
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (
        out,
        ALLOCATIONS.load(Ordering::Relaxed) - before.0,
        BYTES.load(Ordering::Relaxed) - before.1,
    )
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local read and two relaxed counter bumps, which
// touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which is
    // passed through to `System` as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread still allocates while its locals are being
        // torn down, and the allocator must not panic then.
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, which
    // is passed through to `System` as is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N_ITEMS: usize = 60;
const MAX_SEQ: usize = 10;
const K: usize = 10;

/// `len`-item histories, one per id in `ids`, naming items from `first` on.
fn trace(ids: std::ops::Range<u64>, len: usize, first: usize) -> Vec<Request> {
    ids.map(|id| Request {
        id,
        history: (0..len).map(|t| (first + 7 * id as usize + 3 * t) % N_ITEMS).collect(),
    })
    .collect()
}

/// (allocations, bytes) of one `serve` of `requests`, checked to answer
/// every request in full.
fn cost(engine: &ServeEngine, requests: &[Request]) -> (usize, usize) {
    let (responses, allocations, bytes) = counted(|| engine.serve(requests));
    assert_eq!(responses.len(), requests.len());
    assert!(responses.iter().all(|r| r.items.len() == K));
    (allocations, bytes)
}

// One test function: the counters are shared, and a second test measuring
// beside this one would add its own thread's allocations to them.
#[test]
fn a_served_call_allocates_by_shape_with_a_fixed_step_per_request() {
    // Scoring one row is 16 · 60 multiply-adds: far under the gemm's
    // parallel threshold at the batch sizes below.
    let model = common::whitenrec_model_of(
        "serve-alloc",
        N_ITEMS,
        24,
        common::model_config(2, MAX_SEQ),
        11,
        11,
    );
    let engine = ServeEngine::new(model, common::serve_cfg(K, 64, MAX_SEQ));
    // Warm: the pool and anything else built once per process.
    engine.serve(&trace(0..2, MAX_SEQ, 0));

    // Equal shape, different data: items and lengths 1 vs `max_seq`.
    let short = cost(&engine, &trace(0..2, 1, 5));
    let full = cost(&engine, &trace(10..12, MAX_SEQ, 31));
    assert_eq!(short, full, "2 × len 1 vs 2 × len {MAX_SEQ}");

    // B → 2B requests in one micro-batch (B = 1: two rows are one top-k
    // chunk, so neither call dispatches to the pool). A per-call
    // allocation that starts to grow with the batch, or a per-row one that
    // appears, moves these pins.
    let one = cost(&engine, &trace(0..1, MAX_SEQ, 0));
    let step = (full.0 - one.0, full.1 - one.1);
    assert_eq!(one, (21, 5888), "one request");
    assert_eq!(step, (1, 680), "the second request adds");
}
