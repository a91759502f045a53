//! Bench: symmetric eigendecomposition and Cholesky scaling — the numeric
//! kernels behind every whitening fit.

use wr_bench::harness::{black_box, Harness};
use wr_linalg::{cholesky, covariance_of_rows, pinv, sym_eig, sym_eigvals};
use wr_tensor::{Rng64, Tensor};

fn spd(n: usize) -> Tensor {
    let mut rng = Rng64::seed_from(3);
    let b = Tensor::randn(&[n + 8, n], &mut rng);
    let mut a = b.matmul_tn(&b).scale(1.0 / (n + 8) as f32);
    for i in 0..n {
        *a.at2_mut(i, i) += 0.1;
    }
    a
}

fn main() {
    let mut h = Harness::new("eigen");
    // 64 is one relaxed group (G = 4), 256 the full ZCA fit.
    for n in [32usize, 64, 128, 256] {
        let a = spd(n);
        h.bench(format!("sym_eig/{n}"), || {
            black_box(sym_eig(&a).unwrap());
        });
    }
    // Fewer items than dimensions: rank-deficient up to the ε ridge, the
    // regime that takes the most sweeps (the ledger's `seq_heavy`).
    let mut rng = Rng64::seed_from(5);
    let deficient = covariance_of_rows(&Tensor::randn(&[255, 256], &mut rng), 1e-5);
    h.bench("sym_eig/cov255x256", || {
        black_box(sym_eig(&deficient).unwrap());
    });
    h.bench("sym_eigvals/cov255x256", || {
        black_box(sym_eigvals(&deficient).unwrap());
    });
    for n in [32usize, 64, 128] {
        let a = spd(n);
        h.bench(format!("cholesky/{n}"), || {
            black_box(cholesky(&a).unwrap());
        });
    }
    let mut rng = Rng64::seed_from(4);
    let a = Tensor::randn(&[200, 48], &mut rng);
    h.bench("pinv/200x48", || {
        black_box(pinv(&a).unwrap());
    });
    h.finish();
}
