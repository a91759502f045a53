//! Pins "what a probe allocates follows shapes, not data" without the
//! benchmark: two indexes over the same `(n, dim, nlist, nprobe, k)` — one
//! with balanced lists, one with a single giant list — must ask the heap
//! for the same number of bytes per `search`. The benchmark driver runs
//! every workload on ten seeds and refuses a change whose
//! `serve_alloc_kb_per_query` spreads with the seed; k-means sizes the
//! lists differently on every seed, so scratch sized by a list length
//! (`max_list_len()`, say) fails there. This fails here first, by name.
//!
//! A test binary of its own because a `#[global_allocator]` is
//! process-wide; what it counts is not — only the thread that armed
//! [`COUNTING`], because libtest's main thread allocates beside the test
//! thread whenever it likes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use wr_ann::IvfIndex;
use wr_fault::sealed::seal;
use wr_tensor::{Rng64, Tensor};

struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the measuring thread for the length of the measured call. The
    /// `const` initialiser makes access allocation-free, which an allocator
    /// needs of anything it reads.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Bytes `f` asks the heap for on the calling thread.
fn bytes_allocated<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, BYTES.load(Ordering::Relaxed) - before)
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

const N: usize = 600;
const DIM: usize = 16;
const NLIST: usize = 8;

/// An index over `items` whose list `l` holds `lens[l]` ids, loaded from a
/// hand-written WRIV file (the wire format in `ivf.rs`'s module doc) —
/// the one way to choose list sizes from outside the crate.
fn index_with_list_lengths(items: &Tensor, lens: [usize; NLIST]) -> IvfIndex {
    assert_eq!(lens.iter().sum::<usize>(), N);
    let centroids = Tensor::randn(&[NLIST, DIM], &mut Rng64::seed_from(2));
    let mut body = Vec::new();
    body.extend_from_slice(&7u64.to_le_bytes());
    body.extend_from_slice(&(NLIST as u32).to_le_bytes());
    body.extend_from_slice(&(DIM as u32).to_le_bytes());
    body.extend_from_slice(&(N as u64).to_le_bytes());
    for v in centroids.data() {
        body.extend_from_slice(&v.to_le_bytes());
    }
    let mut next = 0u32;
    for len in lens {
        body.extend_from_slice(&(len as u32).to_le_bytes());
        for _ in 0..len {
            body.extend_from_slice(&next.to_le_bytes());
            next += 1;
        }
    }
    let dir = std::env::temp_dir().join(format!("wr_ann_alloc_{}_{}", lens[0], std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.wriv");
    std::fs::write(&path, seal(b"WRIV", 1, &body)).unwrap();
    let index = IvfIndex::load(&path, items).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    index
}

#[test]
fn a_probe_allocates_the_same_bytes_whatever_the_list_sizes() {
    let items = Tensor::randn(&[N, DIM], &mut Rng64::seed_from(1));
    let balanced = index_with_list_lengths(&items, [75; NLIST]);
    let skewed = index_with_list_lengths(&items, [593, 1, 1, 1, 1, 1, 1, 1]);
    assert_eq!(balanced.max_list_len(), 75);
    assert_eq!(skewed.max_list_len(), 593);

    let mut rng = Rng64::seed_from(3);
    // Sorted, as the serving shard hands them over, and unsorted with a
    // duplicate, which the index has to copy — by the list's length only.
    let exclusions: [&[usize]; 3] = [&[], &[3, 40, 599], &[599, 3, 40, 3]];
    for nprobe in [1, 3, NLIST] {
        for excluded in exclusions {
            let q: Vec<f32> = (0..DIM).map(|_| rng.normal()).collect();
            let ((top_b, _), bytes_b) = bytes_allocated(|| balanced.search(&q, 10, nprobe, excluded));
            let ((top_s, _), bytes_s) = bytes_allocated(|| skewed.search(&q, 10, nprobe, excluded));
            // A one-row list answers with one item; its buffer is still `k` long.
            assert!(top_b.len() <= 10 && top_s.len() <= 10);
            assert!(bytes_b > 0, "the counter is armed");
            assert_eq!(
                bytes_b, bytes_s,
                "nprobe {nprobe}, {} exclusions: a probe's bytes must not follow list sizes",
                excluded.len()
            );
        }
    }
}
