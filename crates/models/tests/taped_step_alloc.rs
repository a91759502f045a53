//! Pins the bytes of the taped paths by what they allocate: a WhitenRec+
//! train step at the paper's `max_seq` 50 stays under a ceiling taken from
//! PR 23 (3.35 MB with the encoder running over the 88 rows the batch
//! holds of its 800; 14.3 MB at PR 22, when every layer ran over the pad
//! rows too; 25.0 MB with the per-head chain before that, the difference
//! being `[batch, seq, seq]` tensors and two table copies), and a frozen
//! table enters a tape by reference —
//! running the item tower on an eval session allocates less than one copy
//! of the table it reads (3.2 MB over a 4.2-MB table; 7.4 MB when
//! `FrozenTable::all` cloned it). A test binary of its
//! own because a `#[global_allocator]` is process-wide; what it counts is
//! not — only the thread that armed [`COUNTING`], because libtest's main
//! thread allocates beside the test thread whenever it likes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use wr_autograd::Graph;
use wr_data::Batch;
use wr_models::{EnsembleTower, ItemTower, LossKind, ModelConfig, SasRec, TextTower};
use wr_nn::Session;
use wr_tensor::{Rng64, Tensor};
use wr_train::{Adam, AdamConfig, SeqRecModel};
use wr_whiten::EnsembleMode;

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

const N_ITEMS: usize = 255;
const TEXT_DIM: usize = 256;

/// The ledger's `seq_heavy` shape: 255 items, `max_seq` 50, width 32.
fn config() -> ModelConfig {
    ModelConfig {
        max_seq: 50,
        ..ModelConfig::default()
    }
}

/// Bytes of one WhitenRec+-shaped `train_step` over 16 sessions of 3–10
/// items (the paper's mean session length is 7–9.5).
fn train_step_bytes() -> usize {
    let mut rng = Rng64::seed_from(31);
    let tower = EnsembleTower::new(
        Tensor::randn(&[N_ITEMS, TEXT_DIM], &mut rng),
        Tensor::randn(&[N_ITEMS, TEXT_DIM], &mut rng),
        config().dim,
        config().proj_layers,
        EnsembleMode::Sum,
        &mut rng,
    );
    let mut model = SasRec::new(
        "step",
        Box::new(tower),
        LossKind::Softmax,
        config(),
        &mut rng,
    );
    let sessions: Vec<Vec<usize>> = (0..16)
        .map(|u| (0..3 + u % 8).map(|_| rng.below(N_ITEMS)).collect())
        .collect();
    let sessions: Vec<&[usize]> = sessions.iter().map(Vec::as_slice).collect();
    let batch = Batch::from_sequences(&sessions, config().max_seq);
    let mut optimizer = Adam::new(AdamConfig::default());
    // The first step also sizes Adam's moment buffers; measure the second.
    model.train_step(&batch, &mut optimizer, &mut rng);
    counted_bytes(|| {
        model.train_step(&batch, &mut optimizer, &mut rng);
    })
}

/// Bytes `all_items` allocates on an eval session over a `[4096, 256]`
/// frozen table, and the table's own size.
fn tower_bytes() -> (usize, usize) {
    let mut rng = Rng64::seed_from(32);
    let tower = TextTower::new(Tensor::randn(&[4096, TEXT_DIM], &mut rng), 32, 2, &mut rng);
    let g = Graph::new();
    let mut sess = Session::eval(&g);
    let allocated = counted_bytes(|| {
        tower.all_items(&mut sess);
    });
    (allocated, 4096 * TEXT_DIM * std::mem::size_of::<f32>())
}

// One test function: the byte counter is shared, and a second test
// measuring beside this one would add its own thread's allocations to it.
#[test]
fn taped_paths_allocate_no_seq_squared_tensor_and_no_table_copy() {
    let step = train_step_bytes();
    assert!(step < 3_600_000, "one train step allocated {step} B");

    let (tower, table) = tower_bytes();
    assert!(
        tower < table,
        "all_items allocated {tower} B over a {table}-B frozen table"
    );
}
