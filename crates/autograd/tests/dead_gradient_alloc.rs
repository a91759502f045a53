//! Pins dead-gradient elimination by what it allocates: `backward` through
//! `constant[n × 256] · param[256 × 32]` must never materialize the
//! `[n × 256]` gradient of the constant. A test binary of its own because a
//! `#[global_allocator]` is process-wide; what it counts is not — only the
//! thread that armed [`COUNTING`], because libtest's main thread allocates
//! beside the test thread whenever it likes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use wr_autograd::Graph;
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

#[test]
fn backward_allocates_nothing_for_a_constant_operand() {
    const N: usize = 512;
    let mut rng = Rng64::seed_from(7);
    let g = Graph::new();
    let table = g.constant(Tensor::randn(&[N, 256], &mut rng));
    let weight = g.param(Tensor::randn(&[256, 32], &mut rng));
    let loss = g.sum_all(g.matmul(table, weight));

    let allocated = counted_bytes(|| g.backward(loss));

    assert!(g.grad(table).is_none());
    assert_eq!(g.grad(weight).map(|t| t.dims().to_vec()), Some(vec![256, 32]));
    let dead_gradient = N * 256 * std::mem::size_of::<f32>();
    assert!(
        allocated < dead_gradient,
        "backward allocated {allocated} B; the constant's own gradient would be {dead_gradient} B"
    );
}
