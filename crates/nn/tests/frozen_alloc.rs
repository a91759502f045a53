//! Pins the tape-free property without the benchmark: one
//! `FrozenEncoder::encode` call makes the same small number of heap
//! allocations however many blocks and heads the encoder has — scratch is
//! sized once per call, never per op or per head — and the bytes it asks
//! for are one sequence's working set plus the output, whatever the
//! histories' lengths and however many the batch holds. A test binary of
//! its own because a `#[global_allocator]` is process-wide; what it counts
//! is not — only the thread that armed [`COUNTING`], because libtest's main
//! thread allocates beside the test thread whenever it likes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use wr_nn::{TransformerConfig, TransformerEncoder};
use wr_tensor::{Rng64, Tensor};

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

/// Allocations made by one `encode` of a 4 × 12 batch.
fn allocations_per_encode(blocks: usize, heads: usize) -> usize {
    let mut rng = Rng64::seed_from(5);
    let config = TransformerConfig {
        dim: 8,
        heads,
        blocks,
        ff_mult: 2,
        max_seq: 12,
        dropout: 0.0,
        bidirectional: false,
    };
    let items = Arc::new(Tensor::randn(&[19, 8], &mut rng));
    let frozen = TransformerEncoder::new(config, &mut rng)
        .freeze(items)
        .unwrap();
    let ids: Vec<usize> = (0..4 * 12).map(|_| rng.below(19)).collect();
    let lengths = [12, 5, 1, 9];
    let (users, made, _) = counted(|| frozen.encode(&ids, &lengths));
    assert_eq!(users.dims(), &[4, 8]);
    made
}

/// Bytes allocated by one `encode` of `batch` histories of `len` items
/// at `max_seq = 50`.
fn bytes_per_encode(batch: usize, len: usize) -> usize {
    const SEQ: usize = 50;
    let mut rng = Rng64::seed_from(6);
    let config = TransformerConfig {
        dim: 8,
        heads: 2,
        blocks: 2,
        ff_mult: 1,
        max_seq: SEQ,
        dropout: 0.0,
        bidirectional: false,
    };
    let items = Arc::new(Tensor::randn(&[19, 8], &mut rng));
    let frozen = TransformerEncoder::new(config, &mut rng)
        .freeze(items)
        .unwrap();
    let ids: Vec<usize> = (0..batch * SEQ).map(|_| rng.below(19)).collect();
    let lengths = vec![len; batch];
    let (users, _, made) = counted(|| frozen.encode(&ids, &lengths));
    assert_eq!(users.dims(), &[batch, 8]);
    made
}

// One test function: the counters are shared, and a second test measuring
// beside this one would add its own thread's allocations to them.
#[test]
fn encode_allocates_a_fixed_handful_whatever_the_depth_and_head_count() {
    // Small enough (4·12·8·8 multiply-adds per gemm) to stay on the
    // sequential gemm path, so the pool allocates nothing in the window.
    let shallow = allocations_per_encode(1, 1);
    let deep = allocations_per_encode(3, 4);
    assert_eq!(
        shallow, deep,
        "scratch must be sized per call, not per block or head"
    );
    assert!(shallow <= 12, "{shallow} allocations for one encode");

    // What a call asks the allocator for does not move with the lengths
    // of the histories it is handed …
    let (short, full) = (bytes_per_encode(16, 1), bytes_per_encode(16, 50));
    assert_eq!(short, full, "16 x len 1 vs 16 x len 50");
    // … and is one sequence's scratch plus the `[batch, dim]` output, not
    // batch-sized planes: sixteen histories cost sixteen output rows (and
    // nothing else) more than one.
    let one = bytes_per_encode(1, 50);
    assert_eq!(full - one, 15 * 8 * std::mem::size_of::<f32>());
}
