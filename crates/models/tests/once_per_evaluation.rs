//! An evaluation builds its `ModelSnapshot` once: however many chunks the
//! cases are scored in, the item tower runs once and the encoder is frozen
//! once. (Before `wr_train::evaluate`, every chunk's `score` re-ran the
//! tower and re-froze the encoder.) A model without a frozen form still
//! encodes through its taped forward, which runs the tower per chunk — as
//! often as its hand-written `score` did, never more.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use wr_autograd::Var;
use wr_data::{Batch, EvalCase};
use wr_models::{Gru4Rec, IdTower, ItemTower, LossKind, ModelConfig, SasRec};
use wr_nn::{FrozenEncoder, Param, Session};
use wr_tensor::{Rng64, Tensor};
use wr_train::{evaluate, Adam, SeqRecModel};

const N_ITEMS: usize = 30;

fn config() -> ModelConfig {
    ModelConfig {
        dim: 8,
        heads: 2,
        blocks: 1,
        max_seq: 6,
        dropout: 0.0,
        ..ModelConfig::default()
    }
}

/// 23 cases: at 5 to a chunk, four full chunks and a ragged one.
fn cases() -> Vec<EvalCase> {
    (0..23)
        .map(|u| EvalCase {
            user: u,
            context: (0..1 + u % 7).map(|t| (u * 5 + t * 3) % N_ITEMS).collect(),
            target: (u * 11 + 1) % N_ITEMS,
        })
        .collect()
}

/// An ID tower that counts how often the item matrix is built.
struct CountingTower {
    inner: IdTower,
    runs: Rc<Cell<usize>>,
}

impl ItemTower for CountingTower {
    fn all_items(&self, sess: &mut Session) -> Var {
        self.runs.set(self.runs.get() + 1);
        self.inner.all_items(sess)
    }

    fn params(&self) -> Vec<Param> {
        self.inner.params()
    }

    fn n_items(&self) -> usize {
        self.inner.n_items()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }
}

/// Forwards everything to `inner`, counting the calls a snapshot and an
/// evaluation make.
struct Counting<M> {
    inner: M,
    item_reps: Cell<usize>,
    user_reps: Cell<usize>,
    freezes: Cell<usize>,
}

impl<M: SeqRecModel> Counting<M> {
    fn new(inner: M) -> Self {
        Counting {
            inner,
            item_reps: Cell::new(0),
            user_reps: Cell::new(0),
            freezes: Cell::new(0),
        }
    }
}

impl<M: SeqRecModel> SeqRecModel for Counting<M> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn params(&self) -> Vec<Param> {
        self.inner.params()
    }

    fn train_step(&mut self, batch: &Batch, optimizer: &mut Adam, rng: &mut Rng64) -> f32 {
        self.inner.train_step(batch, optimizer, rng)
    }

    fn item_representations(&self) -> Tensor {
        self.item_reps.set(self.item_reps.get() + 1);
        self.inner.item_representations()
    }

    fn user_representations(&self, contexts: &[&[usize]]) -> Tensor {
        self.user_reps.set(self.user_reps.get() + 1);
        self.inner.user_representations(contexts)
    }

    fn freeze(&self, items: Arc<Tensor>) -> Option<FrozenEncoder> {
        self.freezes.set(self.freezes.get() + 1);
        self.inner.freeze(items)
    }
}

#[test]
fn a_frozen_model_runs_its_tower_and_freezes_once_per_evaluation() {
    let mut rng = Rng64::seed_from(3);
    let runs = Rc::new(Cell::new(0));
    let tower = CountingTower {
        inner: IdTower::new(N_ITEMS, config().dim, &mut rng),
        runs: runs.clone(),
    };
    let model = Counting::new(SasRec::new(
        "counted",
        Box::new(tower),
        LossKind::Softmax,
        config(),
        &mut rng,
    ));
    let cases = cases();

    let chunked = evaluate(&model, &cases, &[5, 20], 5);
    assert_eq!(chunked.n_cases, cases.len());
    assert_eq!(runs.get(), 1, "tower runs in a five-chunk evaluation");
    assert_eq!(model.freezes.get(), 1, "freezes in a five-chunk evaluation");
    assert_eq!(model.item_reps.get(), 1);
    assert_eq!(model.user_reps.get(), 0, "a frozen model never runs the taped encode");

    // Chunking is not part of the answer …
    assert_eq!(evaluate(&model, &cases, &[5, 20], cases.len()), chunked);
    // … and per-call `score` is the same snapshot built per call: one
    // tower run and one freeze each, which is what `evaluate` saves.
    runs.set(0);
    model.freezes.set(0);
    let contexts: Vec<&[usize]> = cases.iter().map(|c| c.context.as_slice()).collect();
    let scored: &dyn SeqRecModel = &model;
    for chunk in contexts.chunks(5) {
        scored.score(chunk);
    }
    assert_eq!((runs.get(), model.freezes.get()), (5, 5));
}

#[test]
fn a_taped_only_model_runs_its_tower_no_more_often_than_its_old_score_did() {
    // GRU4Rec has no frozen form. Its deleted `score` ran the tower (a bind
    // of the ID table) once per chunk, inside the taped forward; so does
    // `user_representations`, and the snapshot reads the table directly.
    let mut rng = Rng64::seed_from(4);
    let model = Counting::new(Gru4Rec::new(N_ITEMS, config(), &mut rng));
    let cases = cases();
    let chunked = evaluate(&model, &cases, &[5, 20], 5);
    assert_eq!(model.freezes.get(), 1, "asked once, answered None");
    assert_eq!(model.item_reps.get(), 1, "V is read once per evaluation");
    assert_eq!(model.user_reps.get(), 5, "one taped forward — one tower run — per chunk");
    assert_eq!(evaluate(&model, &cases, &[5, 20], cases.len()), chunked);
}
