//! Property-style invariants across the numeric core.
//!
//! The offline workspace carries no proptest; each invariant is exercised
//! over a deterministic sweep of seeded random instances instead, keeping
//! the many-instances-per-property coverage while staying reproducible.

use whitenrec::eval::whiteness_error;
use whitenrec::linalg::{
    cholesky, condition_number, covariance_of_rows, pinv, sym_eig, sym_eigvals,
};
use whitenrec::tensor::{Rng64, Tensor};
use whitenrec::whiten::{group_whiten, WhiteningMethod, WhiteningTransform};

const CASES: u64 = 24;

fn random_matrix(rows: usize, cols: usize, seed: u64, spread: f32) -> Tensor {
    let mut rng = Rng64::seed_from(seed);
    // Random linear mix to induce correlations.
    let base = Tensor::randn(&[rows, cols], &mut rng);
    let mix = Tensor::randn(&[cols, cols], &mut rng).scale(spread);
    base.matmul(&mix.add(&Tensor::eye(cols)))
}

/// Per-case parameter draws, mirroring the ranges the proptest version used.
fn case_rng(case: u64) -> Rng64 {
    Rng64::seed_from(0xABCDu64 ^ (case.wrapping_mul(0x9E3779B97F4A7C15)))
}

/// Any full-rank sample matrix is whitened to identity covariance by
/// every decorrelating method.
#[test]
fn whitening_yields_identity_covariance() {
    for case in 0..CASES {
        let mut p = case_rng(case);
        let cols = 3 + p.below(7);
        let spread = 0.2 + 1.8 * p.uniform();
        let x = random_matrix(300, cols, p.below(1000) as u64, spread);
        for method in [WhiteningMethod::Zca, WhiteningMethod::Pca, WhiteningMethod::Cholesky] {
            let z = WhiteningTransform::fit(&x, method, 1e-6).apply(&x);
            let err = whiteness_error(&z);
            assert!(err < 0.15, "case {case} {method:?} err {err}");
        }
    }
}

/// Whitening is idempotent up to numerics: whitening whitened data is
/// (nearly) the identity transform. Restricted to reasonably conditioned
/// inputs — near-singular mixes push the first whitening into the
/// eps-floor where f32 round-off dominates.
#[test]
fn whitening_is_idempotent() {
    for case in 0..CASES {
        let mut p = case_rng(case.wrapping_add(100));
        let x = random_matrix(400, 6, p.below(1000) as u64, 0.3);
        let spectrum = sym_eigvals(&covariance_of_rows(&x, 0.0)).unwrap();
        let kappa = condition_number(&spectrum, 1e-12);
        if kappa >= 1e3 {
            continue; // the proptest version prop_assume!d these away
        }
        let z = WhiteningTransform::fit(&x, WhiteningMethod::Zca, 1e-6).apply(&x);
        let z2 = WhiteningTransform::fit(&z, WhiteningMethod::Zca, 1e-6).apply(&z);
        let rel = z2.sub(&z).frob_norm() / z.frob_norm();
        assert!(rel < 0.05, "case {case}: second whitening moved data by {rel}");
    }
}

/// Group whitening with G groups leaves each within-group covariance
/// block at identity.
#[test]
fn group_whitening_block_identity() {
    for case in 0..CASES {
        let mut p = case_rng(case.wrapping_add(200));
        let groups = 1 + p.below(3);
        let cols = groups * 3;
        let x = random_matrix(350, cols, p.below(500) as u64, 0.8);
        let z = group_whiten(&x, groups, WhiteningMethod::Zca, 1e-6);
        let cov = covariance_of_rows(&z, 0.0);
        let gs = cols / groups;
        for g in 0..groups {
            for i in 0..gs {
                for j in 0..gs {
                    let expect = if i == j { 1.0 } else { 0.0 };
                    let got = cov.at2(g * gs + i, g * gs + j);
                    assert!(
                        (got - expect).abs() < 0.15,
                        "case {case}: block cov {got} vs {expect}"
                    );
                }
            }
        }
    }
}

/// Eigendecomposition reconstructs symmetric matrices.
#[test]
fn eig_reconstructs() {
    for case in 0..CASES {
        let mut p = case_rng(case.wrapping_add(300));
        let n = 2 + p.below(10);
        let mut rng = Rng64::seed_from(p.below(1000) as u64);
        let b = Tensor::randn(&[n, n], &mut rng);
        let a = b.matmul_tn(&b);
        let e = sym_eig(&a).unwrap();
        let r = e.rebuild_with(|l| l);
        let rel = a.sub(&r).frob_norm() / a.frob_norm().max(1e-6);
        assert!(rel < 1e-3, "case {case}: reconstruction error {rel}");
        // eigenvalues of BᵀB are non-negative
        assert!(e.values.iter().all(|&l| l > -1e-3));
    }
}

/// Cholesky factor is lower-triangular and reconstructs.
#[test]
fn cholesky_reconstructs() {
    for case in 0..CASES {
        let mut p = case_rng(case.wrapping_add(400));
        let n = 2 + p.below(8);
        let mut rng = Rng64::seed_from(p.below(1000) as u64);
        let b = Tensor::randn(&[n + 2, n], &mut rng);
        let mut a = b.matmul_tn(&b).scale(1.0 / (n + 2) as f32);
        for i in 0..n {
            *a.at2_mut(i, i) += 0.1;
        }
        let l = cholesky(&a).unwrap();
        let rel = l.matmul_nt(&l).sub(&a).frob_norm() / a.frob_norm();
        assert!(rel < 1e-3, "case {case}");
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(l.at2(i, j), 0.0, "case {case}: upper triangle not zero");
            }
        }
    }
}

/// Moore–Penrose conditions hold for random rectangular matrices.
#[test]
fn pinv_satisfies_penrose() {
    for case in 0..CASES {
        let mut p = case_rng(case.wrapping_add(500));
        let m = 2 + p.below(6);
        let n = 2 + p.below(6);
        let mut rng = Rng64::seed_from(p.below(1000) as u64);
        let a = Tensor::randn(&[m, n], &mut rng);
        let ap = pinv(&a).unwrap();
        let p1 = a.matmul(&ap).matmul(&a).sub(&a).frob_norm() / a.frob_norm().max(1e-6);
        assert!(p1 < 5e-3, "case {case}: A A+ A != A: {p1}");
        let p2 = ap.matmul(&a).matmul(&ap).sub(&ap).frob_norm() / ap.frob_norm().max(1e-6);
        assert!(p2 < 5e-3, "case {case}: A+ A A+ != A+: {p2}");
    }
}

/// Softmax rows of any matrix are a probability distribution.
#[test]
fn softmax_rows_are_distributions() {
    for case in 0..CASES {
        let mut p = case_rng(case.wrapping_add(600));
        let rows = 1 + p.below(5);
        let cols = 2 + p.below(7);
        let mut rng = Rng64::seed_from(p.below(1000) as u64);
        let x = Tensor::randn(&[rows, cols], &mut rng).scale(5.0);
        let s = x.softmax_rows();
        for r in 0..rows {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "case {case}: row sum {sum}");
            assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }
}
