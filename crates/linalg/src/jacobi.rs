//! Cyclic Jacobi eigendecomposition for symmetric matrices.
//!
//! One 256 × 256 [`sym_eig`] is the ZCA fit, and the ZCA fit is the set-up
//! of everything: every whitened table, checkpoint, golden value and
//! generated dataset in the repository rests on the exact bits this module
//! returns. So, as for the gemm (`wr_tensor::matmul`), the arithmetic is a
//! contract and only the memory walk is free.
//!
//! **The contract.** The method is cyclic-by-row Jacobi in `f64` on the
//! symmetrized input: sweep until the off-diagonal norm — the upper
//! triangle's squares summed row-major ascending — is `≤ TOL · ‖A‖_F`, at
//! most [`MAX_SWEEPS`] sweeps, then one re-check against `TOL.max(1e-9)`.
//! A sweep visits the pivots `p` ascending, then `q > p` ascending, skips a
//! pivot whose `|m[p][q]| < 1e-300`, and derives `θ → t → c → s` from
//! `m[p][p]`, `m[q][q]`, `m[p][q]` by the formula in [`diagonalize_with`].
//! The rotation then replaces, for every `k`, first the column pair
//! `(m[k][p], m[k][q])`, then the row pair `(m[p][k], m[q][k])`, and the
//! eigenvector pair `(v[k][p], v[k][q])` by `(c·a − s·b, s·a + c·b)`, the
//! multiplies and the add rounded separately (no fused multiply-add).
//! Every element of `M` and `V` therefore sees one fixed sequence of such
//! updates on fixed operand values; eigenvalues are the diagonal, sorted
//! descending by `total_cmp`. The textbook three-loop form of exactly this
//! is kept in the tests below and every entry point is compared with it
//! bit for bit.
//!
//! **What is free, and used.** The textbook column and eigenvector loops
//! walk *down* a row-major matrix (a 2 KB stride at `n = 256`), which was
//! where 95 % of set-up went before this kernel. Four moves take every
//! access onto rows or registers without touching an operand:
//!
//! 1. *Lazy column steps.* Within pass `p`, rotation `(p, q)` reads rows
//!    `p` and `q` whole and nothing else — its three angle entries live in
//!    those rows. Any other row `k` is touched only by the column step, and
//!    only at columns `p` and `q`. So row `k`'s column steps for the whole
//!    pass form a chain along that row with `m[k][p]` carried in a scalar
//!    ([`chain`]), and the chain may run at any time before row `k` is next
//!    read whole: a prefix when `k` becomes the `q` row of a rotation, the
//!    rest when the pass ends. A per-row cursor into the pass's rotation
//!    list is the whole bookkeeping ([`catch_up`]). Rows `p` and `q` take
//!    the rotation's own column step eagerly, then the row update. Each
//!    step reads what the textbook loop would have read, in the same
//!    expression. A chain step waits on the one before it, so
//!    [`CHAIN_ROWS`] rows run their chains together.
//! 2. *`V` is kept transposed* while rotating (`vt[p]`, `vt[q]` are rows
//!    and every element sees the same `c·a − s·b`, `s·a + c·b`), and is
//!    transposed back by the sort-and-extract copy.
//! 3. *One [`rotate_rows`]* takes the two rows as disjoint slices, for `M`
//!    and `Vᵀ` alike, so the compiler vectorizes it.
//! 4. *The lane chain* (AVX-512 arm, [`chain_zmm`]). A block's
//!    `CHAIN_ROWS` = 8 chains are independent of one another, so they can
//!    be the eight lanes of one zmm register: `x` holds the block's eight
//!    `m[k][p]`, and each rotation is one vector step on the register that
//!    holds the eight `m[k][q]`. The rows lie along memory, so the chain
//!    walks them in 8-column windows: eight row loads, an 8 × 8 transpose
//!    ([`transpose8`]: unpacks, then `shuffle_f64x2`), every rotation of
//!    the pass whose `q` falls in the window, the same transpose back, eight
//!    row stores. A column whose pivot was skipped is stored as it was
//!    loaded, and once a window would cross `n` the rotations left take the
//!    scalar [`chain`].
//!
//! Loop structure, `V`'s orientation, the number of rows in flight and the
//! vector width cannot move a bit, because none of them changes an
//! operand, an expression or the order of updates any one element sees.
//! Nor can the transposes: they only move lanes, never compute one, so
//! each lane of a chain step reads exactly the scalar chain's `x` and
//! `m[k][q]` and writes exactly its results, with the product rounded
//! before the sum (`_mm512_mul_pd`, then `_mm512_add_pd` / `_mm512_sub_pd`).
//!
//! **What is not free: symmetry.** The working matrix is *not* bitwise
//! symmetric after the first rotation: the pivot block's two off-diagonal
//! entries come from different expressions, and the difference spreads (on
//! a 32-d covariance 481 of the 496 mirrored pairs are bitwise unequal
//! after the first sweep, all of them after the fourth). Storing the upper
//! triangle only, or mirroring the row update into the columns, changes
//! bits; full storage and both updates stay.
//!
//! **Dispatch.** The solver body is instantiated per target feature as
//! `matmul.rs` instantiates its gemm tile, here three times: under
//! `#[target_feature(enable = "avx512f")]` (eight `f64` lanes in
//! `rotate_rows`, and the lane chain for a block's column chains), under
//! `#[target_feature(enable = "avx2")]` (four lanes in `rotate_rows`) and
//! at the build's baseline (two lanes — the only arm on pre-AVX2 x86 and on
//! every other architecture); the last two run the scalar [`chain`].
//! `is_x86_feature_detected!` picks the widest once per call. No arm fuses
//! a multiply and an add: a fused multiply-add rounds once where the
//! contract rounds twice (`scripts/check.sh` fails on the spelling). A
//! faster *method* (Householder tridiagonalization + implicit QL)
//! would move every downstream value and give up the relative accuracy on
//! small eigenvalues that ZCA's `λ^{-1/2}` needs; it belongs to a round
//! that re-pins everything (ROADMAP 3(c)), not here.

use std::ops::Range;

#[cfg(target_arch = "x86")]
use std::arch::x86 as arch;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64 as arch;

use crate::{LinalgError, Result};
use wr_tensor::Tensor;

/// Eigendecomposition `A = V diag(λ) Vᵀ` of a symmetric matrix.
///
/// Eigenvalues are sorted in descending order; `vectors` holds the
/// corresponding eigenvectors as *columns*.
#[derive(Debug, Clone)]
pub struct SymEig {
    /// Eigenvalues, descending.
    pub values: Vec<f32>,
    /// Eigenvectors as columns, same order as `values`.
    pub vectors: Tensor,
}

impl SymEig {
    /// Reconstruct `V diag(f(λ)) Vᵀ` — the workhorse for whitening, where
    /// `f` is `λ → (λ+ε)^(-1/2)` and friends.
    ///
    /// The diagonal scaling fans out row blocks across the [`wr_runtime`]
    /// pool (each row scales independently) and the closing `matmul_nt`
    /// is itself parallel, so whitening-matrix construction rides the pool
    /// end to end. Per-element arithmetic is unchanged → bit-identical for
    /// any `WR_THREADS`.
    pub fn rebuild_with(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let n = self.values.len();
        let v = &self.vectors;
        let scales: Vec<f32> = self.values.iter().map(|&l| f(l)).collect();
        // V * diag(f(λ)), row blocks in parallel.
        let mut vd = v.clone();
        wr_runtime::parallel_chunks_mut(vd.data_mut(), 8 * n, |_chunk, rows| {
            for row in rows.chunks_exact_mut(n) {
                for (x, &s) in row.iter_mut().zip(&scales) {
                    *x *= s;
                }
            }
        });
        vd.matmul_nt(v)
    }
}

/// Maximum number of Jacobi sweeps before declaring non-convergence.
const MAX_SWEEPS: usize = 64;

/// Convergence threshold on the off-diagonal Frobenius norm, relative to
/// the matrix norm.
const TOL: f64 = 1e-12;

/// Rows whose column chains run together in [`chain`]. A chain step waits
/// for the step before it (a multiply, then a subtract); this many
/// independent rows fill that latency.
const CHAIN_ROWS: usize = 8;

/// Eigendecomposition of a symmetric matrix by the cyclic Jacobi method.
///
/// The input is symmetrized (`(A + Aᵀ)/2`) to absorb round-off asymmetry.
/// Internal arithmetic is `f64`.
pub fn sym_eig(a: &Tensor) -> Result<SymEig> {
    sym_eig_by(a, diagonalize)
}

/// [`sym_eig`] on a given instantiation of the solver (the tests reach the
/// baseline arm through this).
fn sym_eig_by(
    a: &Tensor,
    solve: fn(&mut [f64], &mut [f64], usize) -> Result<()>,
) -> Result<SymEig> {
    let (n, mut m) = working_copy(a)?;
    let mut vt = vec![0.0f64; n * n];
    for i in 0..n {
        vt[i * n + i] = 1.0;
    }
    solve(&mut m, &mut vt, n)?;
    Ok(extract(&m, &vt, n))
}

/// The eigenvalues of [`sym_eig`] alone, bit for bit, descending — the same
/// sweeps with no eigenvector matrix to rotate and none to build.
pub fn sym_eigvals(a: &Tensor) -> Result<Vec<f32>> {
    let (n, mut m) = working_copy(a)?;
    diagonalize(&mut m, &mut [], n)?;
    Ok(descending(&m, n).1)
}

/// Validate `a` and symmetrize it into an `f64` working copy.
fn working_copy(a: &Tensor) -> Result<(usize, Vec<f64>)> {
    if a.rank() != 2 || a.rows() != a.cols() {
        return Err(LinalgError::NotSquare {
            rows: if a.rank() == 2 { a.rows() } else { 0 },
            cols: if a.rank() == 2 { a.cols() } else { 0 },
        });
    }
    if a.non_finite_count() > 0 {
        return Err(LinalgError::NonFinite);
    }
    let n = a.rows();
    let mut m = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            m[i * n + j] = 0.5 * (a.at2(i, j) as f64 + a.at2(j, i) as f64);
        }
    }
    Ok((n, m))
}

/// The diagonal of the diagonalized `m`, sorted descending: each value's
/// original position, and the values as `f32`.
fn descending(m: &[f64], n: usize) -> (Vec<usize>, Vec<f32>) {
    let mut order: Vec<usize> = (0..n).collect();
    let eigvals: Vec<f64> = (0..n).map(|i| m[i * n + i]).collect();
    order.sort_by(|&i, &j| eigvals[j].total_cmp(&eigvals[i]));
    let values = order.iter().map(|&i| eigvals[i] as f32).collect();
    (order, values)
}

/// Sort descending and turn the rows of `vt` back into eigenvector columns.
fn extract(m: &[f64], vt: &[f64], n: usize) -> SymEig {
    let (order, values) = descending(m, n);
    let mut vectors = Tensor::zeros(&[n, n]);
    for row in 0..n {
        for (new_col, &old_col) in order.iter().enumerate() {
            *vectors.at2_mut(row, new_col) = vt[old_col * n + row] as f32;
        }
    }
    SymEig { values, vectors }
}

/// Diagonalize `m` in place on the widest registers the CPU has, applying
/// every rotation to the rows of `vt` as well (`n × n`, or empty when only
/// the spectrum is wanted).
fn diagonalize(m: &mut [f64], vt: &mut [f64], n: usize) -> Result<()> {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: `diagonalize_avx512` requires only that the running CPU
            // has AVX-512F, which the line above just established.
            return unsafe { diagonalize_avx512(m, vt, n) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `diagonalize_avx2` requires only that the running CPU
            // has AVX2, which the line above just established.
            return unsafe { diagonalize_avx2(m, vt, n) };
        }
    }
    diagonalize_baseline(m, vt, n)
}

/// [`diagonalize_with`] compiled for AVX-512F: `rotate_rows` moves eight
/// `f64` a register, and a block's column chains run as the eight lanes of
/// one register ([`chain_zmm`]).
///
/// # Safety
/// The running CPU must support AVX-512F.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
// SAFETY: the one obligation, stated above, is the target feature itself
// and is discharged by the caller's runtime check; the body's own unsafe
// blocks carry their proofs.
unsafe fn diagonalize_avx512(m: &mut [f64], vt: &mut [f64], n: usize) -> Result<()> {
    // A `#[target_feature]` function is not `Fn`; a closure defined here
    // is, and inherits the feature.
    diagonalize_with(m, vt, n, |m, n, k0, p, rots| chain_zmm(m, n, k0, p, rots))
}

/// [`diagonalize_with`] compiled for AVX2: `rotate_rows` moves four `f64`
/// a register.
///
/// # Safety
/// The running CPU must support AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
// SAFETY: the body is safe Rust; the one obligation, stated above, is the
// target feature itself and is discharged by the caller's runtime check.
unsafe fn diagonalize_avx2(m: &mut [f64], vt: &mut [f64], n: usize) -> Result<()> {
    diagonalize_with(m, vt, n, chain::<CHAIN_ROWS>)
}

/// [`diagonalize_with`] at the build's baseline: two `f64` lanes on x86-64,
/// and the only arm on any other architecture.
fn diagonalize_baseline(m: &mut [f64], vt: &mut [f64], n: usize) -> Result<()> {
    diagonalize_with(m, vt, n, chain::<CHAIN_ROWS>)
}

/// A rotation of the current pass that was not skipped: the column `q` it
/// pairs with the pass's `p`, its cosine and its sine.
struct Rotation {
    q: usize,
    c: f64,
    s: f64,
}

/// The solver body (module doc: the contract, and why this loop structure
/// keeps it). `block` runs the column chains of a full block of
/// `CHAIN_ROWS` rows — [`chain`], or an arm's own layout of the same steps.
#[inline(always)]
fn diagonalize_with(
    m: &mut [f64],
    vt: &mut [f64],
    n: usize,
    block: impl Fn(&mut [f64], usize, usize, usize, &[Rotation]) + Copy,
) -> Result<()> {
    debug_assert_eq!(m.len(), n * n);
    debug_assert!(vt.is_empty() || vt.len() == n * n);
    let vt_width = if vt.is_empty() { 0 } else { n };
    // The pass's rotations so far, and how many of them each row's column
    // chain has taken.
    let mut rots: Vec<Rotation> = Vec::with_capacity(n);
    let mut applied = vec![0usize; n];

    let frob: f64 = m.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-300);
    for _sweep in 0..MAX_SWEEPS {
        if off_diagonal_norm(m, n) <= TOL * frob {
            return Ok(());
        }
        for p in 0..n {
            rots.clear();
            applied.fill(0);
            for q in (p + 1)..n {
                if applied[q] < rots.len() {
                    // Row `q` is about to be read whole. Its block-mates
                    // (blocks of `CHAIN_ROWS` rows from `p + 1`) come along:
                    // at a block's first row that is a full block with one
                    // long chain each; after it, a step or two per row.
                    let block_end = q + CHAIN_ROWS - (q - p - 1) % CHAIN_ROWS;
                    catch_up(m, n, p, &rots, &mut applied, q..block_end.min(n), block);
                }
                let apq = m[p * n + q];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                // Rotation that annihilates m[p][q].
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // The rotation's own 2×2 block: the column step on rows p
                // and q, which the row update below reads.
                for row in [p, q] {
                    let (at_p, at_q) = (row * n + p, row * n + q);
                    let (mkp, mkq) = (m[at_p], m[at_q]);
                    m[at_p] = c * mkp - s * mkq;
                    m[at_q] = s * mkp + c * mkq;
                }
                rotate_rows(m, n, p, q, c, s);
                // Accumulate the rotation into Vᵀ.
                rotate_rows(vt, vt_width, p, q, c, s);
                rots.push(Rotation { q, c, s });
                applied[q] = rots.len();
            }
            // Rows above `p` take the whole chain, rows below it what their
            // prefix left; row `p` took every step eagerly.
            catch_up(m, n, p, &rots, &mut applied, 0..p, block);
            catch_up(m, n, p, &rots, &mut applied, (p + 1)..n, block);
        }
    }
    // One more check: after the final sweep the matrix may have landed
    // within tolerance without re-testing.
    let off = off_diagonal_norm(m, n);
    if off > TOL.max(1e-9) * frob {
        return Err(LinalgError::NoConvergence {
            off_diagonal_norm: off,
        });
    }
    Ok(())
}

/// `√(2 Σ_{i<j} m[i][j]²)`, the upper triangle summed row-major ascending.
#[inline(always)]
fn off_diagonal_norm(m: &[f64], n: usize) -> f64 {
    let mut off = 0.0f64;
    for i in 0..n {
        for j in (i + 1)..n {
            off += m[i * n + j] * m[i * n + j];
        }
    }
    (2.0 * off).sqrt()
}

/// Rows `p` and `q > p` of a row-major matrix `width` wide become
/// `(c·p − s·q, s·p + c·q)`, element by element.
#[inline(always)]
fn rotate_rows(mat: &mut [f64], width: usize, p: usize, q: usize, c: f64, s: f64) {
    let (upper, lower) = mat.split_at_mut(q * width);
    let row_p = &mut upper[p * width..(p + 1) * width];
    let row_q = &mut lower[..width];
    for (a, b) in row_p.iter_mut().zip(row_q) {
        let (x, y) = (*a, *b);
        *a = c * x - s * y;
        *b = s * x + c * y;
    }
}

/// Bring the column chains of `rows` up to date with every rotation of pass
/// `p` so far. Rows go `CHAIN_ROWS` at a time: each is first advanced alone
/// to the block's furthest cursor, then the block runs the rest together
/// (`block`).
/// The rows short of a full block run alone.
#[inline(always)]
fn catch_up(
    m: &mut [f64],
    n: usize,
    p: usize,
    rots: &[Rotation],
    applied: &mut [usize],
    rows: Range<usize>,
    block: impl Fn(&mut [f64], usize, usize, usize, &[Rotation]) + Copy,
) {
    let mut k0 = rows.start;
    while k0 < rows.end {
        let k1 = (k0 + CHAIN_ROWS).min(rows.end);
        let cursors = &mut applied[k0..k1];
        let common = if cursors.len() == CHAIN_ROWS {
            cursors.iter().fold(0, |a, &b| a.max(b))
        } else {
            rots.len()
        };
        for (k, &cursor) in (k0..k1).zip(cursors.iter()) {
            chain::<1>(m, n, k, p, &rots[cursor..common]);
        }
        block(m, n, k0, p, &rots[common..]);
        cursors.fill(rots.len());
        k0 = k1;
    }
}

/// The column steps of `rots`, in order, on the `R` rows from `k0`: per row,
/// `m[k][p]` is carried in a register along the chain and each step reads
/// and writes `m[k][q]` — what the textbook column loop does to row `k`,
/// one rotation after another.
#[inline(always)]
fn chain<const R: usize>(m: &mut [f64], n: usize, k0: usize, p: usize, rots: &[Rotation]) {
    // Nothing to do must also mean nothing touched: `catch_up` hands a short
    // block an empty list, and rows `k0..k0 + R` need not all exist then.
    if rots.is_empty() {
        return;
    }
    let mut x = [0.0f64; R];
    for (r, x) in x.iter_mut().enumerate() {
        *x = m[(k0 + r) * n + p];
    }
    for rot in rots {
        for (r, x) in x.iter_mut().enumerate() {
            let at = (k0 + r) * n + rot.q;
            let y = m[at];
            m[at] = rot.s * *x + rot.c * y;
            *x = rot.c * *x - rot.s * y;
        }
    }
    for (r, &x) in x.iter().enumerate() {
        m[(k0 + r) * n + p] = x;
    }
}

/// [`chain`] on the `CHAIN_ROWS` = 8 rows from `k0` as the eight lanes of
/// one zmm register: lane `r` is row `k0 + r`, `x` holds the eight
/// `m[k][p]`, and each rotation is one vector step on the column register of
/// its `q`. The rows are walked in 8-column windows, each starting at the
/// next rotation's `q`: loaded, transposed ([`transpose8`]), carried through
/// every rotation of `rots` that falls in it, transposed back and stored. A
/// column whose pivot was skipped goes back as it came, and once a window
/// would cross `n` the rotations left run in the scalar [`chain`]. Every
/// lane computes the scalar chain's expressions on the scalar chain's
/// operands ([`lane_step`]).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn chain_zmm(m: &mut [f64], n: usize, k0: usize, p: usize, rots: &[Rotation]) {
    use arch::*;

    const LANES: usize = 8;
    const _: () = assert!(CHAIN_ROWS == LANES);
    if rots.is_empty() {
        return;
    }
    let block = &mut m[k0 * n..(k0 + LANES) * n];
    let mut x = [0.0f64; LANES];
    for (r, x) in x.iter_mut().enumerate() {
        *x = block[r * n + p];
    }
    // SAFETY: `x` holds eight `f64`, the 64 bytes an unaligned zmm load reads.
    let mut xv = unsafe { _mm512_loadu_pd(x.as_ptr()) };
    let mut done = 0;
    while let Some(first) = rots.get(done) {
        let w = first.q;
        if w + LANES > n {
            break;
        }
        let in_window = rots[done..]
            .iter()
            .take(LANES)
            .take_while(|rot| rot.q < w + LANES);
        let end = done + in_window.count();
        let mut rows = [_mm512_setzero_pd(); LANES];
        for (r, row) in rows.iter_mut().enumerate() {
            let src = &block[r * n + w..][..LANES];
            // SAFETY: `src` holds eight `f64`, the 64 bytes an unaligned zmm
            // load reads.
            *row = unsafe { _mm512_loadu_pd(src.as_ptr()) };
        }
        let mut cols = transpose8(rows);
        match <&[Rotation; LANES]>::try_from(&rots[done..end]) {
            // Eight distinct `q` in `w..w + 8`: column `j` is rotation `j`'s,
            // and the columns can stay in registers.
            Ok(all) => {
                for (y, rot) in cols.iter_mut().zip(all) {
                    lane_step(&mut xv, y, rot);
                }
            }
            Err(_) => {
                for rot in &rots[done..end] {
                    lane_step(&mut xv, &mut cols[rot.q - w], rot);
                }
            }
        }
        for (r, row) in transpose8(cols).into_iter().enumerate() {
            let dst = &mut block[r * n + w..][..LANES];
            // SAFETY: `dst` holds eight `f64`, the 64 bytes an unaligned zmm
            // store writes.
            unsafe { _mm512_storeu_pd(dst.as_mut_ptr(), row) };
        }
        done = end;
    }
    // SAFETY: `x` holds eight `f64`, the 64 bytes an unaligned zmm store
    // writes.
    unsafe { _mm512_storeu_pd(x.as_mut_ptr(), xv) };
    for (r, &x) in x.iter().enumerate() {
        block[r * n + p] = x;
    }
    chain::<LANES>(m, n, k0, p, &rots[done..]);
}

/// One column step of [`chain`] on eight rows at once: lane for lane,
/// `(x, y) ← (c·x − s·y, s·x + c·y)`, each product rounded before the sum.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn lane_step(x: &mut arch::__m512d, y: &mut arch::__m512d, rot: &Rotation) {
    use arch::*;
    let (c, s) = (_mm512_set1_pd(rot.c), _mm512_set1_pd(rot.s));
    let (xv, yv) = (*x, *y);
    *y = _mm512_add_pd(_mm512_mul_pd(s, xv), _mm512_mul_pd(c, yv));
    *x = _mm512_sub_pd(_mm512_mul_pd(c, xv), _mm512_mul_pd(s, yv));
}

/// The 8 × 8 transpose of eight zmm rows of `f64`: lane `r` of `out[j]` is
/// lane `j` of `rows[r]`. Only moves lanes, so it is its own inverse and
/// cannot change a bit.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn transpose8(rows: [arch::__m512d; 8]) -> [arch::__m512d; 8] {
    use arch::*;
    let [r0, r1, r2, r3, r4, r5, r6, r7] = rows;
    // Row pairs interleaved: `t0` = r0[0] r1[0] r0[2] r1[2] … r0[6] r1[6],
    // `t1` the odd columns of the same pair.
    let (t0, t1) = (_mm512_unpacklo_pd(r0, r1), _mm512_unpackhi_pd(r0, r1));
    let (t2, t3) = (_mm512_unpacklo_pd(r2, r3), _mm512_unpackhi_pd(r2, r3));
    let (t4, t5) = (_mm512_unpacklo_pd(r4, r5), _mm512_unpackhi_pd(r4, r5));
    let (t6, t7) = (_mm512_unpacklo_pd(r6, r7), _mm512_unpackhi_pd(r6, r7));
    // Two pairs' 128-bit blocks gathered: `u0` = r0[0] r1[0] r0[4] r1[4]
    // r2[0] r3[0] r2[4] r3[4] (blocks 0, 2 of `t0`, then of `t2`); 0xdd takes
    // blocks 1, 3, so `u2` holds columns 2 and 6.
    let u0 = _mm512_shuffle_f64x2::<0x88>(t0, t2);
    let u1 = _mm512_shuffle_f64x2::<0x88>(t1, t3);
    let u2 = _mm512_shuffle_f64x2::<0xdd>(t0, t2);
    let u3 = _mm512_shuffle_f64x2::<0xdd>(t1, t3);
    let u4 = _mm512_shuffle_f64x2::<0x88>(t4, t6);
    let u5 = _mm512_shuffle_f64x2::<0x88>(t5, t7);
    let u6 = _mm512_shuffle_f64x2::<0xdd>(t4, t6);
    let u7 = _mm512_shuffle_f64x2::<0xdd>(t5, t7);
    // And the two halves: column `j` from `u(j mod 4)` and `u(j mod 4 + 4)`.
    [
        _mm512_shuffle_f64x2::<0x88>(u0, u4),
        _mm512_shuffle_f64x2::<0x88>(u1, u5),
        _mm512_shuffle_f64x2::<0x88>(u2, u6),
        _mm512_shuffle_f64x2::<0x88>(u3, u7),
        _mm512_shuffle_f64x2::<0xdd>(u0, u4),
        _mm512_shuffle_f64x2::<0xdd>(u1, u5),
        _mm512_shuffle_f64x2::<0xdd>(u2, u6),
        _mm512_shuffle_f64x2::<0xdd>(u3, u7),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariance_of_rows;
    use wr_tensor::Rng64;

    /// The contract, executable: the three-loop cyclic Jacobi exactly as it
    /// stood before the kernel stopped walking down columns. Every entry
    /// point must reproduce its `values` and `vectors` bit for bit.
    fn textbook(a: &Tensor) -> Result<SymEig> {
        if a.rank() != 2 || a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                rows: if a.rank() == 2 { a.rows() } else { 0 },
                cols: if a.rank() == 2 { a.cols() } else { 0 },
            });
        }
        if a.non_finite_count() > 0 {
            return Err(LinalgError::NonFinite);
        }
        let n = a.rows();
        // Symmetrize into an f64 working copy.
        let mut m = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                m[i * n + j] = 0.5 * (a.at2(i, j) as f64 + a.at2(j, i) as f64);
            }
        }
        let mut v = vec![0.0f64; n * n];
        for i in 0..n {
            v[i * n + i] = 1.0;
        }

        let frob: f64 = m.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-300);
        let mut converged = false;
        for _sweep in 0..MAX_SWEEPS {
            let mut off = 0.0f64;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += m[i * n + j] * m[i * n + j];
                }
            }
            if (2.0 * off).sqrt() <= TOL * frob {
                converged = true;
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[p * n + q];
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = m[p * n + p];
                    let aqq = m[q * n + q];
                    // Rotation that annihilates m[p][q].
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    // Update rows/cols p and q of m.
                    for k in 0..n {
                        let mkp = m[k * n + p];
                        let mkq = m[k * n + q];
                        m[k * n + p] = c * mkp - s * mkq;
                        m[k * n + q] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[p * n + k];
                        let mqk = m[q * n + k];
                        m[p * n + k] = c * mpk - s * mqk;
                        m[q * n + k] = s * mpk + c * mqk;
                    }
                    // Accumulate the rotation into V.
                    for k in 0..n {
                        let vkp = v[k * n + p];
                        let vkq = v[k * n + q];
                        v[k * n + p] = c * vkp - s * vkq;
                        v[k * n + q] = s * vkp + c * vkq;
                    }
                }
            }
        }
        if !converged {
            let mut off = 0.0f64;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += m[i * n + j] * m[i * n + j];
                }
            }
            // One more check: after the final sweep the matrix may have landed
            // within tolerance without re-testing.
            if (2.0 * off).sqrt() > TOL.max(1e-9) * frob {
                return Err(LinalgError::NoConvergence {
                    off_diagonal_norm: (2.0 * off).sqrt(),
                });
            }
        }

        // Extract and sort descending.
        let mut order: Vec<usize> = (0..n).collect();
        let eigvals: Vec<f64> = (0..n).map(|i| m[i * n + i]).collect();
        order.sort_by(|&i, &j| eigvals[j].total_cmp(&eigvals[i]));

        let values: Vec<f32> = order.iter().map(|&i| eigvals[i] as f32).collect();
        let mut vectors = Tensor::zeros(&[n, n]);
        for (new_col, &old_col) in order.iter().enumerate() {
            for row in 0..n {
                *vectors.at2_mut(row, new_col) = v[row * n + old_col] as f32;
            }
        }
        Ok(SymEig { values, vectors })
    }

    /// Sizes around every block edge of the kernel: `CHAIN_ROWS` = 8 and its
    /// multiples ± 1, the 2-, 4- and 8-lane tails of `rotate_rows`, the
    /// lane chain's window edges (10–13, 18, 19, 40, 41, 72, 73, 80, 81: a
    /// pass's windows start at its first `q`, so each size has passes whose
    /// last window ends at `n` and passes whose last one would cross it),
    /// the empty and 1 × 1 matrices. The block-diagonal and one-pair kinds
    /// skip most pivots, so their windows straddle skipped columns. ≤ 96 so
    /// the reference stays fast; [`wide_rank_deficient`] adds one 256.
    const SIZES: [usize; 32] = [
        0, 1, 2, 3, 5, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19, 23, 24, 25, 31, 33, 40, 41, 47,
        64, 65, 72, 73, 80, 81, 96,
    ];

    /// Random symmetric `n × n`, eigenvalues of both signs.
    fn indefinite(n: usize, rng: &mut Rng64) -> Tensor {
        let a = Tensor::randn(&[n, n], rng);
        a.add(&a.transpose())
    }

    /// The matrices the system hands the solver, and the ones that exercise
    /// its skip: name and matrix.
    fn cases(n: usize) -> Vec<(&'static str, Tensor)> {
        if n == 0 {
            return vec![("empty", Tensor::zeros(&[0, 0]))];
        }
        let mut rng = Rng64::seed_from(1000 + n as u64);
        let diagonal = |rng: &mut Rng64| {
            let mut d = Tensor::zeros(&[n, n]);
            for i in 0..n {
                *d.at2_mut(i, i) = rng.normal();
            }
            d
        };
        // Blocks of 3 and 5 rows alternating; everything outside them is an
        // exact zero, so most pivots are skipped and some are not.
        let mut blocks = Tensor::zeros(&[n, n]);
        let (mut start, mut size) = (0, 3);
        while start < n {
            let end = (start + size).min(n);
            let block = indefinite(end - start, &mut rng);
            for i in start..end {
                for j in start..end {
                    *blocks.at2_mut(i, j) = block.at2(i - start, j - start);
                }
            }
            start = end;
            size = 8 - size;
        }
        let mut one_pair = diagonal(&mut rng);
        let (i, j) = (n / 3, (2 * n) / 3);
        if i != j {
            *one_pair.at2_mut(i, j) = 0.3;
            *one_pair.at2_mut(j, i) = 0.3;
        }
        vec![
            (
                "covariance, rows >> n",
                covariance_of_rows(&Tensor::randn(&[4 * n + 8, n], &mut rng), 1e-5),
            ),
            (
                // Rank-deficient plus the ε ridge: `seq_heavy`'s regime.
                "covariance, rows < n",
                covariance_of_rows(&Tensor::randn(&[n.div_ceil(2), n], &mut rng), 1e-5),
            ),
            ("indefinite", indefinite(n, &mut rng)),
            ("diagonal", diagonal(&mut rng)),
            ("block-diagonal", blocks),
            ("diagonal but one pair", one_pair),
        ]
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    fn assert_same_bits(got: &SymEig, want: &SymEig, what: &str) {
        assert_eq!(bits(&got.values), bits(&want.values), "{what}: values");
        assert_eq!(got.vectors.dims(), want.vectors.dims(), "{what}: shape");
        assert_eq!(
            bits(got.vectors.data()),
            bits(want.vectors.data()),
            "{what}: vectors"
        );
    }

    /// A solver arm called directly, past the dispatch.
    type Arm = fn(&mut [f64], &mut [f64], usize) -> Result<()>;

    /// Every arm this CPU can run. The dispatch picks one of them per call, so
    /// the arms it passes over — the baseline on any x86 box, AVX2 on an
    /// AVX-512 one — are only covered when called by name.
    fn arms() -> Vec<(&'static str, Arm)> {
        let mut arms: Vec<(&'static str, Arm)> = vec![("baseline", diagonalize_baseline)];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU has AVX2, checked on the line above.
                arms.push(("avx2", |m, vt, n| unsafe { diagonalize_avx2(m, vt, n) }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the CPU has AVX-512F, checked on the line above.
                arms.push(("avx512", |m, vt, n| unsafe { diagonalize_avx512(m, vt, n) }));
            }
        }
        arms
    }

    /// [`sym_eigvals`] on a given arm: the spectrum-only sweep, no `Vᵀ`.
    fn sym_eigvals_by(a: &Tensor, solve: Arm) -> Result<Vec<f32>> {
        let (n, mut m) = working_copy(a)?;
        solve(&mut m, &mut [], n)?;
        Ok(descending(&m, n).1)
    }

    /// `seq_heavy`'s regime at the fit's own width: a rank-deficient 256-d
    /// covariance (fewer rows than dimensions) plus the ε ridge.
    fn wide_rank_deficient() -> Tensor {
        let mut rng = Rng64::seed_from(256);
        covariance_of_rows(&Tensor::randn(&[200, 256], &mut rng), 1e-5)
    }

    #[test]
    fn sym_eig_matches_the_textbook_loop_bit_for_bit() {
        for n in SIZES {
            for (kind, a) in cases(n) {
                let want = textbook(&a).unwrap();
                assert_same_bits(&sym_eig(&a).unwrap(), &want, &format!("{kind}, n = {n}"));
            }
        }
    }

    #[test]
    fn every_arm_matches_the_textbook_loop_bit_for_bit() {
        let arms = arms();
        let check = |what: &str, a: &Tensor| {
            let want = textbook(a).unwrap();
            for (name, arm) in &arms {
                let got = sym_eig_by(a, *arm).unwrap();
                assert_same_bits(&got, &want, &format!("{name}: {what}"));
            }
        };
        for n in SIZES {
            for (kind, a) in cases(n) {
                check(&format!("{kind}, n = {n}"), &a);
            }
        }
        check("covariance, 200 rows, n = 256", &wide_rank_deficient());
    }

    /// `sym_eigvals` rotates no `Vᵀ` (row width 0), so it is the one caller
    /// where an arm's column chain runs alone.
    #[test]
    fn sym_eigvals_equals_sym_eig_values_bit_for_bit() {
        let arms = arms();
        for n in SIZES {
            for (kind, a) in cases(n) {
                let want = bits(&textbook(&a).unwrap().values);
                assert_eq!(bits(&sym_eigvals(&a).unwrap()), want, "{kind}, n = {n}");
                for (name, arm) in &arms {
                    let got = sym_eigvals_by(&a, *arm).unwrap();
                    assert_eq!(bits(&got), want, "{name}: {kind}, n = {n}");
                }
            }
        }
    }

    #[test]
    fn empty_matrix_has_an_empty_decomposition() {
        let e = sym_eig(&Tensor::zeros(&[0, 0])).unwrap();
        assert!(e.values.is_empty());
        assert_eq!(e.vectors.dims(), &[0, 0]);
        assert!(sym_eigvals(&Tensor::zeros(&[0, 0])).unwrap().is_empty());
    }

    fn reconstruct(e: &SymEig) -> Tensor {
        e.rebuild_with(|x| x)
    }

    #[test]
    fn diagonal_matrix() {
        let a = Tensor::from_vec(vec![3.0, 0.0, 0.0, 1.0], &[2, 2]);
        let e = sym_eig(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-5);
        assert!((e.values[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Tensor::from_vec(vec![2.0, 1.0, 1.0, 2.0], &[2, 2]);
        let e = sym_eig(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-5);
        assert!((e.values[1] - 1.0).abs() < 1e-5);
        // eigenvector for λ=3 is (1,1)/sqrt(2) up to sign
        let v0 = (e.vectors.at2(0, 0), e.vectors.at2(1, 0));
        assert!((v0.0.abs() - std::f32::consts::FRAC_1_SQRT_2).abs() < 1e-5);
        assert!((v0.0 - v0.1).abs() < 1e-5);
    }

    #[test]
    fn reconstruction_random_spd() {
        let n = 24;
        let mut state = 123u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / u32::MAX as f32) - 0.5
        };
        let b = Tensor::from_vec((0..n * n).map(|_| next()).collect(), &[n, n]);
        let a = b.matmul_tn(&b); // b^T b is SPSD
        let e = sym_eig(&a).unwrap();
        let r = reconstruct(&e);
        let err = a.sub(&r).frob_norm() / a.frob_norm();
        assert!(err < 1e-4, "reconstruction error {err}");
        // eigenvalues nonincreasing and nonnegative
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-5);
        }
        assert!(e.values[n - 1] > -1e-4);
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = Tensor::from_vec(
            vec![4.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 2.0],
            &[3, 3],
        );
        let e = sym_eig(&a).unwrap();
        let vtv = e.vectors.matmul_tn(&e.vectors);
        let err = vtv.sub(&Tensor::eye(3)).frob_norm();
        assert!(err < 1e-5, "V^T V deviates from I by {err}");
    }

    #[test]
    fn rebuild_with_inverse_sqrt_whitens() {
        let a = Tensor::from_vec(vec![4.0, 0.0, 0.0, 9.0], &[2, 2]);
        let e = sym_eig(&a).unwrap();
        let w = e.rebuild_with(|l| 1.0 / l.sqrt());
        // w a w should be identity
        let waw = w.matmul(&a).matmul(&w);
        assert!(waw.sub(&Tensor::eye(2)).frob_norm() < 1e-5);
    }

    #[test]
    fn rejects_non_square() {
        assert!(matches!(
            sym_eig(&Tensor::zeros(&[2, 3])),
            Err(LinalgError::NotSquare { rows: 2, cols: 3 })
        ));
        assert!(matches!(
            sym_eigvals(&Tensor::zeros(&[2, 3])),
            Err(LinalgError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn rejects_non_finite() {
        let a = Tensor::from_vec(vec![1.0, f32::NAN, f32::NAN, 1.0], &[2, 2]);
        assert!(matches!(sym_eig(&a), Err(LinalgError::NonFinite)));
        assert!(matches!(sym_eigvals(&a), Err(LinalgError::NonFinite)));
    }

    #[test]
    fn rebuild_is_bit_identical_across_thread_counts() {
        let n = 24;
        let mut state = 9u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / u32::MAX as f32) - 0.5
        };
        let b = Tensor::from_vec((0..n * n).map(|_| next()).collect(), &[n, n]);
        let a = b.matmul_tn(&b);
        let run = |threads: usize| {
            wr_runtime::set_threads(threads);
            let e = sym_eig(&a).unwrap();
            e.rebuild_with(|l| 1.0 / (l + 1e-5).sqrt())
        };
        let serial = run(1);
        let parallel = run(8);
        wr_runtime::set_threads(1);
        assert_eq!(serial.data(), parallel.data());
    }

    #[test]
    fn identity_stays_identity() {
        let e = sym_eig(&Tensor::eye(5)).unwrap();
        for v in &e.values {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }
}
