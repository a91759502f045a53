//! A counting `#[global_allocator]`: bytes ever allocated, bytes live, and
//! the live peak. The counters are statistics that publish no other data,
//! so every access is `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

fn grew(bytes: usize) {
    let bytes = bytes as u64;
    ALLOCATED.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never influence the returned pointers.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc`'s contract for this call.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    // SAFETY: the caller upholds `GlobalAlloc`'s contract for this call.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    // SAFETY: the caller upholds `GlobalAlloc`'s contract for this call.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout, and this
        // allocator only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    // SAFETY: the caller upholds `GlobalAlloc`'s contract for this call.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same block, same layout, caller-checked `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A resize counts as a fresh block of the new size, the way
            // heap profilers count it.
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Bytes ever requested since process start.
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Relaxed)
}

/// Peak of live bytes since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

/// Restart the peak at the bytes live right now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Stop glibc from handing the heap back to the kernel between operations.
///
/// A train step allocates 70 MB and frees it all; with the default tunables
/// the top of the heap is trimmed and the large blocks unmapped each time,
/// so the next step takes 5 000 page faults to get the same memory back.
/// What a fault costs on this shared box moves by itself for minutes at a
/// time and the reference kernel cannot see it: `train_seq_per_s` sat at 925
/// or at 1 080 between otherwise identical runs, a quartile distance of 14 %
/// over ten seeds, against 1.8 % with the heap kept. The counters above count
/// requested bytes and do not change. Elsewhere than glibc this does nothing.
pub fn keep_the_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` only stores two integers in the allocator's
        // parameters; it is called once, first thing in `main`, before any
        // other thread exists. A refused value leaves the default in place.
        unsafe {
            // Never trim (1 GB of free top first), and serve every block
            // below 32 MB, the largest threshold glibc accepts, from the heap.
            mallopt(M_TRIM_THRESHOLD, 1 << 30);
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests allocate concurrently, so totals are lower bounds and the
    // block is large enough to dominate their noise.
    const BLOCK: usize = 64 << 20;

    #[test]
    fn counts_a_block_and_its_release() {
        let before = allocated_bytes();
        let v = vec![1u8; BLOCK];
        assert!(allocated_bytes() - before >= BLOCK as u64);
        reset_peak();
        let during = peak_bytes();
        assert!(during >= BLOCK as u64, "live bytes include the block");
        drop(v);
        let w = vec![2u8; BLOCK / 2];
        // Half a block after freeing a whole one never sets a new peak
        // beyond what concurrent tests add.
        assert!(peak_bytes() < during + (BLOCK / 2) as u64);
        drop(w);
    }

    #[test]
    fn realloc_counts_the_new_size() {
        let mut v: Vec<u8> = Vec::with_capacity(BLOCK);
        let before = allocated_bytes();
        v.reserve_exact(2 * BLOCK);
        assert!(allocated_bytes() - before >= 2 * BLOCK as u64);
    }
}
