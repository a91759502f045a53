//! Pins what the taped encoder's bytes follow: forward + backward allocate
//! in proportion to the real tokens of the batch, not to `batch · max_seq`
//! and not to `max_seq²`. Until PR 22 every head of every block built its
//! scores, scaled scores, masked scores, softmax, dropout factors, dropped
//! weights and five gradients as `[batch, max_seq, max_seq]` tensors (this
//! measurement on that code: 22.9 → 58.1 MB from `max_seq` 50 to 100,
//! × 2.53 and growing with it); the attention node saves the softmax row
//! and the dropout factors at allowed keys only (PR 22: 12.8 → 25.3 MB,
//! × 1.98 — every layer still ran over the pad rows). Since PR 23 the
//! encoder runs over the rows the batch holds, so at fixed lengths only
//! what is handed back in the caller's padded shape grows with `max_seq`:
//! the scattered hidden plane, the zero-filled gradient of the gather
//! that reads it, the positional table and the row ids (1.70 → 1.91 MB,
//! × 1.13). A
//! test binary of its own because a `#[global_allocator]` is process-wide;
//! what it counts is not — only the thread that armed [`COUNTING`], because
//! libtest's main thread allocates beside the test thread whenever it
//! likes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use wr_autograd::Graph;
use wr_nn::{Session, TransformerConfig, TransformerEncoder};
use wr_tensor::{Rng64, Tensor};

struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the measuring thread for the length of the measured call. The
    /// `const` initialiser makes access allocation-free, which an allocator
    /// needs of anything it reads.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Bytes `f` allocates on the calling thread.
fn counted_bytes(f: impl FnOnce()) -> usize {
    let before = BYTES.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    BYTES.load(Ordering::Relaxed) - before
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local read and a relaxed counter bump, which
// touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which is
    // passed through to `System` as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread still allocates while its locals are being
        // torn down, and the allocator must not panic then.
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
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

/// Bytes one training-mode forward + backward of a 2-block, 2-head,
/// 32-wide encoder allocates over 16 histories of 5 items padded to
/// `max_seq`.
fn step_bytes(max_seq: usize) -> usize {
    let mut rng = Rng64::seed_from(9);
    let config = TransformerConfig {
        dim: 32,
        heads: 2,
        blocks: 2,
        ff_mult: 2,
        max_seq,
        dropout: 0.2,
        bidirectional: false,
    };
    let encoder = TransformerEncoder::new(config, &mut rng);
    let lengths = [5usize; 16];
    let x = Tensor::randn(&[lengths.len() * max_seq, config.dim], &mut rng);
    counted_bytes(|| {
        let g = Graph::new();
        let mut sess = Session::train(&g, Rng64::seed_from(10));
        let users =
            encoder.forward_user(&mut sess, g.constant(x), lengths.len(), max_seq, &lengths);
        g.backward(g.sum_all(users));
    })
}

#[test]
fn a_taped_step_allocates_for_its_real_tokens_not_for_max_seq() {
    let (at_50, at_100) = (step_bytes(50), step_bytes(100));
    assert!(
        at_100 as f64 <= 1.25 * at_50 as f64,
        "max_seq 50 → 100 took the step from {at_50} B to {at_100} B"
    );
}
