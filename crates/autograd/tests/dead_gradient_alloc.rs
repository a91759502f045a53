//! Pins dead-gradient elimination by what it allocates: `backward` through
//! `constant[n × 256] · param[256 × 32]` must never materialize the
//! `[n × 256]` gradient of the constant, and the attention node makes a
//! gradient for exactly the operands that need one. A test binary of its
//! own because a `#[global_allocator]` is process-wide; what it counts is
//! not — only the thread that armed [`COUNTING`], because libtest's main
//! thread allocates beside the test thread whenever it likes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use wr_autograd::Graph;
use wr_tensor::{AttentionKeys, AttentionRule, KeepMask, Rng64, Tensor};

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

const DIM: usize = 32;

/// Bytes `backward` allocates through one attention node over `[keys.rows(),
/// 32]` operands of which `trainable` are parameters, under a trainable
/// output projection.
fn attention_backward_bytes(keys: &AttentionKeys, trainable: [bool; 3]) -> usize {
    let mut rng = Rng64::seed_from(8);
    let g = Graph::new();
    let [q, k, v] = trainable.map(|train| {
        let operand = Tensor::randn(&[keys.rows(), DIM], &mut rng);
        if train {
            g.param(operand)
        } else {
            g.constant(operand)
        }
    });
    let mixed = g.attention(q, k, v, 2, keys, Some(KeepMask::new(8, 0, 0.2)));
    let weight = g.param(Tensor::randn(&[DIM, 4], &mut rng));
    let loss = g.sum_all(g.matmul(mixed, weight));
    let allocated = counted_bytes(|| g.backward(loss));
    for (operand, train) in [q, k, v].into_iter().zip(trainable) {
        assert_eq!(g.grad(operand).is_some(), train);
    }
    allocated
}

// One test function: the byte counter is shared, and a second test
// measuring beside this one would add its own thread's allocations to it.
#[test]
fn backward_allocates_nothing_for_a_constant_operand() {
    // Constant q, k, v: the node is skipped whole (what is left is the
    // projection's own `[32, 4]` and `[rows, 4]` gradients). One trainable
    // operand: its `[rows, 32]` gradient and the upstream one the projection
    // hands the node, not the other two. Over every position (512 rows) and
    // over the rows a packed layout holds (152).
    let lengths = [0usize, 1, 3, 7, 9, 12, 20, 32, 40, 5, 5, 5, 5, 5, 5, 5];
    for keys in [
        AttentionKeys::new(AttentionRule::Causal, 32, &lengths),
        AttentionKeys::packed(AttentionRule::Causal, 32, &lengths),
    ] {
        let plane = keys.rows() * DIM * std::mem::size_of::<f32>();
        let none = attention_backward_bytes(&keys, [false; 3]);
        assert!(none < plane / 4, "constant q, k, v: backward allocated {none} B");
        for only in 0..3 {
            let one = attention_backward_bytes(&keys, [0, 1, 2].map(|i| i == only));
            assert!(
                one < 3 * plane,
                "operand {only} alone trainable: backward allocated {one} B, a gradient is {plane} B"
            );
        }
        let all = attention_backward_bytes(&keys, [true; 3]);
        assert!(all > 4 * plane, "q, k, v trainable: {all} B");
    }

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
