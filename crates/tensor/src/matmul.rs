//! Matrix multiplication kernels.
//!
//! Six entry points — `gemm`/[`Tensor::matmul`], [`Tensor::matmul_tn`],
//! [`Tensor::matmul_nt`] and their batched twins — run on two kernel
//! bodies, and each body fixes, per output element, the order in which
//! the `k` products are summed. That order is the contract every golden
//! value, checkpoint and serve ≡ naive gate in the repository rests on:
//!
//! * **NN / TN** ([`tile`]): `c[i][j]` starts from the value already in
//!   `c` and adds `a[i][p] * b[p][j]` for `p = 0..k` ascending, the
//!   multiply and the add rounded separately (no fused multiply-add).
//! * **NT** ([`dots`]): exactly [`dot`] — four partial sums over the
//!   indices `≡ l (mod 4)`, combined `((s0 + s1) + s2) + s3`, then the
//!   `k mod 4` tail added ascending.
//!
//! Everything else is free to change because it never touches a
//! per-element order: `tile` holds an `MR × NR` block of `C` in registers
//! across a `p` chunk (one load and one store of `C` per tile and chunk;
//! chunks run in ascending order and `C` is exact in between), the left
//! operand is addressed by strides so `A` and `Aᵀ` are the same code,
//! `dots` keeps several `b` rows' dot products in flight against one `a`
//! row, and row blocks go to the shared `wr-runtime` pool with each task
//! owning a disjoint block of output rows. Tile shape, vector width,
//! cache blocking and thread count therefore cannot move a bit.
//!
//! **Dispatch.** The NN/TN body is instantiated twice from one safe-Rust
//! source: under `#[target_feature(enable = "avx2")]` with `NR = 16`
//! (two 8-lane registers per tile row) and at the build's baseline with
//! `NR = 8`. `is_x86_feature_detected!("avx2")` picks per call; the
//! baseline arm is the only one on pre-AVX2 x86 and on every other
//! architecture. The `fma` feature stays off in both — a fused
//! multiply-add rounds once where the contract rounds twice. The NT body
//! has the baseline instantiation only: its four lanes are the contract,
//! and wider registers bought nothing when measured.
//!
//! The seed's `if av == 0.0 { continue; }` branch in the dense inner loops
//! was removed: it only helps on pathologically sparse inputs and costs a
//! compare+branch per multiply on the dense matrices every model here
//! produces (see `zero_skip_is_not_worth_it` below for the guard test).

use std::ops::Range;

use crate::{Result, Tensor, TensorError};

/// Output rows per parallel task and per cache block of the NN/TN kernel (a
/// multiple of `MR`). One task writes `PAR_ROWS * n` floats — big enough to
/// amortize dispatch, small enough to balance load.
const PAR_ROWS: usize = 64;

/// Below this many multiply-adds the dispatch overhead dominates; stay
/// sequential.
const PAR_MIN_FLOPS: usize = 1 << 16;

/// Rows of `C` a full [`tile`] holds in registers. With `NR = 16` on AVX2
/// (or `NR = 8` on SSE2) that is 8 of the 16 vector registers for
/// accumulators, leaving room for the `B` strip, the broadcast `A` value
/// and the product.
const MR: usize = 4;

/// Length of a `p` chunk of the NN/TN kernel: a `KC × 16` strip of `B` is
/// 16 KB, half of a small L1.
const KC: usize = 256;

/// `b` rows whose dot products [`dots`] keeps in flight against one `a` row.
const NT_ROWS: usize = 8;

impl Tensor {
    /// Matrix product `self @ other`. Panics on shape mismatch.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking wrapper; try_matmul is the Result path for untrusted shapes"
    )]
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.try_matmul(other).expect("Tensor::matmul")
    }

    /// Fallible matrix product.
    pub fn try_matmul(&self, other: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: self.rank(),
            });
        }
        if other.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: other.rank(),
            });
        }
        if self.cols() != other.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let (m, k, n) = (self.rows(), self.cols(), other.cols());
        let mut out = vec![0.0f32; m * n];
        gemm(self.data(), other.data(), &mut out, m, k, n);
        Ok(Tensor::from_vec(out, &[m, n]))
    }

    /// `selfᵀ @ other` without materializing the transpose.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert!(self.rank() == 2 && other.rank() == 2, "matmul_tn needs matrices");
        assert_eq!(
            self.rows(),
            other.rows(),
            "matmul_tn: inner dimensions {} vs {} differ",
            self.rows(),
            other.rows()
        );
        let (k, m, n) = (self.rows(), self.cols(), other.cols());
        let mut out = vec![0.0f32; m * n];
        gemm_strided(Lhs::transposed(self.data(), m), other.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// `self @ otherᵀ` without materializing the transpose.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert!(self.rank() == 2 && other.rank() == 2, "matmul_nt needs matrices");
        assert_eq!(
            self.cols(),
            other.cols(),
            "matmul_nt: inner dimensions {} vs {} differ",
            self.cols(),
            other.cols()
        );
        let (m, k, n) = (self.rows(), self.cols(), other.rows());
        let mut out = vec![0.0f32; m * n];
        let (a, b) = (self.data(), other.data());
        if m * k * n < PAR_MIN_FLOPS || wr_runtime::threads() <= 1 {
            nt_rows(a, b, &mut out, m, k, n);
        } else {
            wr_runtime::parallel_chunks_mut(&mut out, PAR_ROWS * n, |ci, block| {
                let rows = block.len() / n;
                nt_rows(&a[ci * PAR_ROWS * k..][..rows * k], b, block, rows, k, n);
            });
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Batched matrix multiply of two rank-3 tensors `[b, m, k] @ [b, k, n]`.
    pub fn bmm(&self, other: &Tensor) -> Tensor {
        assert!(
            self.rank() == 3 && other.rank() == 3,
            "bmm requires rank-3 tensors, got {} and {}",
            self.rank(),
            other.rank()
        );
        let (b, m, k) = (self.dims()[0], self.dims()[1], self.dims()[2]);
        let (b2, k2, n) = (other.dims()[0], other.dims()[1], other.dims()[2]);
        assert!(
            b == b2 && k == k2,
            "bmm: incompatible shapes {:?} and {:?}",
            self.dims(),
            other.dims()
        );
        let mut out = vec![0.0f32; b * m * n];
        let (av, bv) = (self.data(), other.data());
        batch_parallel(&mut out, m * n, b * m * k * n, |i, c| {
            let a = Lhs::row_major(&av[i * m * k..(i + 1) * m * k], k);
            gemm_rows(a, &bv[i * k * n..(i + 1) * k * n], c, m, k, n);
        });
        Tensor::from_vec(out, &[b, m, n])
    }

    /// Batched `self @ otherᵀ`: `[b, m, k] @ [b, n, k]ᵀ → [b, m, n]`.
    pub fn bmm_nt(&self, other: &Tensor) -> Tensor {
        assert!(self.rank() == 3 && other.rank() == 3, "bmm_nt requires rank-3");
        let (b, m, k) = (self.dims()[0], self.dims()[1], self.dims()[2]);
        let (b2, n, k2) = (other.dims()[0], other.dims()[1], other.dims()[2]);
        assert!(
            b == b2 && k == k2,
            "bmm_nt: incompatible shapes {:?} and {:?}",
            self.dims(),
            other.dims()
        );
        let mut out = vec![0.0f32; b * m * n];
        let (av, bvals) = (self.data(), other.data());
        batch_parallel(&mut out, m * n, b * m * k * n, |i, c| {
            let a = &av[i * m * k..(i + 1) * m * k];
            nt_rows(a, &bvals[i * n * k..(i + 1) * n * k], c, m, k, n);
        });
        Tensor::from_vec(out, &[b, m, n])
    }

    /// Batched `selfᵀ @ other`: `[b, k, m]ᵀ @ [b, k, n] → [b, m, n]`.
    pub fn bmm_tn(&self, other: &Tensor) -> Tensor {
        assert!(self.rank() == 3 && other.rank() == 3, "bmm_tn requires rank-3");
        let (b, k, m) = (self.dims()[0], self.dims()[1], self.dims()[2]);
        let (b2, k2, n) = (other.dims()[0], other.dims()[1], other.dims()[2]);
        assert!(
            b == b2 && k == k2,
            "bmm_tn: incompatible shapes {:?} and {:?}",
            self.dims(),
            other.dims()
        );
        let mut out = vec![0.0f32; b * m * n];
        let (av, bvals) = (self.data(), other.data());
        batch_parallel(&mut out, m * n, b * m * k * n, |i, c| {
            let a = Lhs::transposed(&av[i * k * m..(i + 1) * k * m], m);
            gemm_rows(a, &bvals[i * k * n..(i + 1) * k * n], c, m, k, n);
        });
        Tensor::from_vec(out, &[b, m, n])
    }

    /// Matrix–vector product `self @ v` for a rank-1 `v`.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert!(self.rank() == 2 && v.rank() == 1, "matvec: need matrix and vector");
        assert_eq!(self.cols(), v.numel(), "matvec: size mismatch");
        let out: Vec<f32> = (0..self.rows()).map(|i| dot(self.row(i), v.data())).collect();
        Tensor::from_vec(out, &[self.rows()])
    }

    /// Frobenius inner product of two same-shaped tensors.
    pub fn dot_all(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape(), "dot_all: shape mismatch");
        dot(self.data(), other.data())
    }
}

/// Run `f(batch_index, batch_output)` over every `slice_len` block of
/// `out`, in parallel when the total work is worth dispatching.
fn batch_parallel(
    out: &mut [f32],
    slice_len: usize,
    total_flops: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    if total_flops < PAR_MIN_FLOPS || wr_runtime::threads() <= 1 || slice_len == 0 {
        for (i, c) in out.chunks_mut(slice_len.max(1)).enumerate() {
            f(i, c);
        }
    } else {
        wr_runtime::parallel_chunks_mut(out, slice_len, &f);
    }
}

/// Dense dot product: four partial sums over the indices `≡ l (mod 4)`,
/// combined `((s0 + s1) + s2) + s3`, then the tail ascending. This order is
/// the NT half of the module's summation contract.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    dots(a, [b])[0]
}

/// `C += A(m×k) · B(k×n)` over contiguous row-major slices: `c` is
/// accumulated into, so a caller that wants the plain product passes zeros.
///
/// Parallelizes over blocks of output rows when the problem is big enough;
/// every element's arithmetic is the sequential kernel's, so the result
/// does not depend on the thread count.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    gemm_strided(Lhs::row_major(a, k), b, c, m, k, n);
}

/// Left operand of `C += A · B`, addressed by strides: element `(i, p)` of
/// `A` is `data[i * row_stride + p * p_stride]`. A row-major `A` and the
/// transpose of a row-major `Aᵀ` differ only in the two numbers, which is
/// what makes NN and TN one kernel.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    row_stride: usize,
    p_stride: usize,
}

impl<'a> Lhs<'a> {
    /// `A` stored `[m, k]`.
    fn row_major(data: &'a [f32], k: usize) -> Self {
        Lhs { data, row_stride: k, p_stride: 1 }
    }

    /// `A = Sᵀ` for `S` stored `[k, m]`.
    fn transposed(data: &'a [f32], m: usize) -> Self {
        Lhs { data, row_stride: 1, p_stride: m }
    }

    /// The same operand with row `i0` as its row 0.
    fn skip_rows(self, i0: usize) -> Self {
        Lhs { data: &self.data[i0 * self.row_stride..], ..self }
    }
}

/// `C[m×n] += A · B`, row blocks on the pool when the product is big enough.
fn gemm_strided(a: Lhs, b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    // An empty dimension makes the flop count 0, so it stays sequential and
    // never reaches the `/ n` below.
    if m * k * n < PAR_MIN_FLOPS || wr_runtime::threads() <= 1 {
        gemm_rows(a, b, c, m, k, n);
        return;
    }
    wr_runtime::parallel_chunks_mut(c, PAR_ROWS * n, |ci, block| {
        gemm_rows(a.skip_rows(ci * PAR_ROWS), b, block, block.len() / n, k, n);
    });
}

/// Sequential `C[rows×n] += A · B` on the widest kernel the CPU has. Every
/// NN and TN product in the crate ends here.
fn gemm_rows(a: Lhs, b: &[f32], c: &mut [f32], rows: usize, k: usize, n: usize) {
    if rows == 0 || k == 0 || n == 0 {
        return;
    }
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `gemm_rows_avx2` requires only that the running CPU has
        // AVX2, which the line above just established.
        unsafe { gemm_rows_avx2(a, b, c, rows, k, n) };
        return;
    }
    gemm_rows_with::<8>(a, b, c, rows, k, n);
}

/// [`gemm_rows_with`] compiled for AVX2: 8-lane registers, so a tile row is
/// `NR = 16` wide.
///
/// # Safety
/// The running CPU must support AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
// SAFETY: the body is safe Rust; the one obligation, stated above, is the
// target feature itself and is discharged by the caller's runtime check.
unsafe fn gemm_rows_avx2(a: Lhs, b: &[f32], c: &mut [f32], rows: usize, k: usize, n: usize) {
    gemm_rows_with::<16>(a, b, c, rows, k, n);
}

/// The NN/TN kernel body. `p` is cut into `KC`-long chunks and the rows into
/// `PAR_ROWS`-row blocks so that what a pass re-reads stays in cache: inside
/// one (chunk, block) every `NR`-wide strip of `B` comes from L2 once and
/// from L1 for every further tile of the block. Chunks of `p` run in
/// ascending order and `C` is stored exactly in between, so no element's
/// sum is reordered.
#[inline(always)]
fn gemm_rows_with<const NR: usize>(
    a: Lhs,
    b: &[f32],
    c: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    for p0 in (0..k).step_by(KC) {
        let ps = p0..(p0 + KC).min(k);
        for i0 in (0..rows).step_by(PAR_ROWS) {
            let is = i0..(i0 + PAR_ROWS).min(rows);
            let mut j = 0;
            while j + NR <= n {
                strip::<NR>(a, b, c, is.clone(), j, ps.clone(), n);
                j += NR;
            }
            while j + 4 <= n {
                strip::<4>(a, b, c, is.clone(), j, ps.clone(), n);
                j += 4;
            }
            while j < n {
                strip::<1>(a, b, c, is.clone(), j, ps.clone(), n);
                j += 1;
            }
        }
    }
}

/// Columns `j0..j0 + W` of the rows `is`: full `MR`-row tiles, then the
/// last `len % MR` rows one at a time through the same tile.
#[inline(always)]
fn strip<const W: usize>(
    a: Lhs,
    b: &[f32],
    c: &mut [f32],
    is: Range<usize>,
    j0: usize,
    ps: Range<usize>,
    n: usize,
) {
    let mut i = is.start;
    while i + MR <= is.end {
        tile::<MR, W>(a, b, c, i, j0, ps.clone(), n);
        i += MR;
    }
    while i < is.end {
        tile::<1, W>(a, b, c, i, j0, ps.clone(), n);
        i += 1;
    }
}

/// `C[i0..i0+R][j0..j0+W] += A[i0..i0+R][ps] · B[ps][j0..j0+W]` with the
/// block of `C` held in registers for the whole `p` loop. Per element this
/// is the NN/TN contract verbatim: start from `c`, add `a * b` for
/// ascending `p`.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    a: Lhs,
    b: &[f32],
    c: &mut [f32],
    i0: usize,
    j0: usize,
    ps: Range<usize>,
    n: usize,
) {
    let mut acc = [[0.0f32; W]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[(i0 + r) * n + j0..][..W]);
    }
    for p in ps {
        let b_strip = &b[p * n + j0..][..W];
        for (r, row) in acc.iter_mut().enumerate() {
            let av = a.data[(i0 + r) * a.row_stride + p * a.p_stride];
            for (x, &bv) in row.iter_mut().zip(b_strip) {
                *x += av * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[(i0 + r) * n + j0..][..W].copy_from_slice(row);
    }
}

/// Sequential `C[rows×n] = A(rows×k) · B(n×k)ᵀ`: each `a` row against
/// `NT_ROWS` rows of `b` at a time, then 4, then 1.
fn nt_rows(a: &[f32], b: &[f32], c: &mut [f32], rows: usize, k: usize, n: usize) {
    let brow = |j: usize| &b[j * k..(j + 1) * k];
    for i in 0..rows {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        let mut j = 0;
        while j + NT_ROWS <= n {
            let bs: [&[f32]; NT_ROWS] = std::array::from_fn(|l| brow(j + l));
            crow[j..j + NT_ROWS].copy_from_slice(&dots(arow, bs));
            j += NT_ROWS;
        }
        while j + 4 <= n {
            let bs: [&[f32]; 4] = std::array::from_fn(|l| brow(j + l));
            crow[j..j + 4].copy_from_slice(&dots(arow, bs));
            j += 4;
        }
        while j < n {
            crow[j] = dot(arow, brow(j));
            j += 1;
        }
    }
}

/// The NT kernel body: `W` dot products of one `a` against `W` rows `b`,
/// each summed exactly as [`dot`] documents. The `W` chains are
/// independent, so the adds of one hide the latency of the others.
#[inline(always)]
fn dots<const W: usize>(a: &[f32], b: [&[f32]; W]) -> [f32; W] {
    let (a_quads, a_tail) = a.as_chunks::<4>();
    let b = b.map(|row| row[..a.len()].as_chunks::<4>());
    let mut lanes = [[0.0f32; 4]; W];
    for (q, av) in a_quads.iter().enumerate() {
        for (s, (b_quads, _)) in lanes.iter_mut().zip(&b) {
            let bv = &b_quads[q];
            for l in 0..4 {
                s[l] += av[l] * bv[l];
            }
        }
    }
    // Materializing the lanes gives the vectorizer four contiguous floats
    // per row to build on; without it the horizontal sums below pull it
    // into a layout that vectorizes across rows and shuffles `b` on every
    // step (measured 14 vs 38 GFLOP/s at k = 2450). Values are unchanged.
    let lanes = std::hint::black_box(lanes);
    let mut out = [0.0f32; W];
    for ((o, s), (_, b_tail)) in out.iter_mut().zip(&lanes).zip(&b) {
        let mut sum = s[0] + s[1] + s[2] + s[3];
        for (x, y) in a_tail.iter().zip(*b_tail) {
            sum += x * y;
        }
        *o = sum;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = vec![0.0f32; m * n];
        contract_nn(a.data(), b.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    fn pseudo_random(dims: &[usize], seed: u32) -> Tensor {
        // deterministic fill; avoids pulling rand into the unit tests
        let n: usize = dims.iter().product();
        let mut state = seed as u64 | 1;
        let data = (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (u32::MAX as f32)) - 0.5
            })
            .collect();
        Tensor::from_vec(data, dims)
    }

    #[test]
    fn matmul_identity() {
        let a = pseudo_random(&[7, 7], 1);
        assert_eq!(a.matmul(&Tensor::eye(7)).dims(), &[7, 7]);
        let prod = a.matmul(&Tensor::eye(7));
        for (x, y) in prod.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_matches_naive() {
        for (m, k, n) in [(3, 4, 5), (65, 70, 67), (1, 128, 1), (4, 3, 2), (130, 40, 33)] {
            let a = pseudo_random(&[m, k], 42);
            let b = pseudo_random(&[k, n], 7);
            let fast = a.matmul(&b);
            let slow = naive_matmul(&a, &b);
            for (x, y) in fast.data().iter().zip(slow.data()) {
                assert!((x - y).abs() < 1e-3, "{x} vs {y}");
            }
        }
    }

    /// `f()` at 1, 2 and 8 pool threads must give the bits of `serial`.
    fn assert_thread_independent(what: &str, serial: &[f32], f: impl Fn() -> Tensor) {
        let prev = wr_runtime::threads();
        for t in [1usize, 2, 8] {
            wr_runtime::set_threads(t);
            let par = f();
            wr_runtime::set_threads(prev);
            assert!(
                bits_equal(serial, par.data()),
                "{what} diverged from the serial kernel at {t} threads"
            );
        }
    }

    #[test]
    fn gemm_is_bit_identical_across_thread_counts() {
        // Big enough to cross the parallel threshold and exercise several
        // row blocks.
        let (m, k, n) = (260, 70, 90);
        let a = pseudo_random(&[m, k], 3);
        let b = pseudo_random(&[k, n], 4);
        let mut serial = vec![0.0f32; m * n];
        gemm_rows(Lhs::row_major(a.data(), k), b.data(), &mut serial, m, k, n);
        assert_thread_independent("gemm", &serial, || {
            let mut c = vec![0.0f32; m * n];
            gemm(a.data(), b.data(), &mut c, m, k, n);
            Tensor::from_vec(c, &[m, n])
        });
    }

    #[test]
    fn transposed_products_are_bit_identical_across_thread_counts() {
        let (m, k, n) = (260, 70, 90);
        let at = pseudo_random(&[k, m], 5);
        let b = pseudo_random(&[k, n], 6);
        let mut serial = vec![0.0f32; m * n];
        gemm_rows(Lhs::transposed(at.data(), m), b.data(), &mut serial, m, k, n);
        assert_thread_independent("matmul_tn", &serial, || at.matmul_tn(&b));

        let a = pseudo_random(&[m, k], 7);
        let bt = pseudo_random(&[n, k], 8);
        let mut serial = vec![0.0f32; m * n];
        nt_rows(a.data(), bt.data(), &mut serial, m, k, n);
        assert_thread_independent("matmul_nt", &serial, || a.matmul_nt(&bt));
    }

    #[test]
    fn batched_products_are_bit_identical_across_thread_counts() {
        // 16 batches of 32×24×20 cross the parallel threshold.
        let (bs, m, k, n) = (16, 32, 24, 20);
        let a = pseudo_random(&[bs, m, k], 9);
        let at = pseudo_random(&[bs, k, m], 10);
        let b = pseudo_random(&[bs, k, n], 11);
        let bt = pseudo_random(&[bs, n, k], 12);
        let per_slice = |run: &dyn Fn(usize, &mut [f32])| {
            let mut c = vec![0.0f32; bs * m * n];
            for (i, slice) in c.chunks_mut(m * n).enumerate() {
                run(i, slice);
            }
            c
        };
        let serial = per_slice(&|i, c| {
            let lhs = Lhs::row_major(&a.data()[i * m * k..(i + 1) * m * k], k);
            gemm_rows(lhs, &b.data()[i * k * n..(i + 1) * k * n], c, m, k, n);
        });
        assert_thread_independent("bmm", &serial, || a.bmm(&b));
        let serial = per_slice(&|i, c| {
            let lhs = Lhs::transposed(&at.data()[i * k * m..(i + 1) * k * m], m);
            gemm_rows(lhs, &b.data()[i * k * n..(i + 1) * k * n], c, m, k, n);
        });
        assert_thread_independent("bmm_tn", &serial, || at.bmm_tn(&b));
        let serial = per_slice(&|i, c| {
            let ai = &a.data()[i * m * k..(i + 1) * m * k];
            nt_rows(ai, &bt.data()[i * n * k..(i + 1) * n * k], c, m, k, n);
        });
        assert_thread_independent("bmm_nt", &serial, || a.bmm_nt(&bt));
    }

    // ----- the summation-order contract, as plain loops ---------------------

    /// NN/TN: `c[i][j]` starts from the value already in `c` and adds
    /// `a[i][p] * b[p][j]` for ascending `p`, multiply and add rounded
    /// separately. `a` is row-major `[m, k]`.
    fn contract_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for j in 0..n {
                let mut sum = c[i * n + j];
                for p in 0..k {
                    sum += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = sum;
            }
        }
    }

    /// NT: four partial sums over the indices `≡ l (mod 4)`, combined
    /// `((s0 + s1) + s2) + s3`, then the tail ascending. `b` is `[n, k]`.
    fn contract_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for j in 0..n {
                let (x, y) = (&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                let mut s = [0.0f32; 4];
                for q in 0..k / 4 {
                    for l in 0..4 {
                        s[l] += x[4 * q + l] * y[4 * q + l];
                    }
                }
                let mut sum = ((s[0] + s[1]) + s[2]) + s[3];
                for p in k / 4 * 4..k {
                    sum += x[p] * y[p];
                }
                c[i * n + j] = sum;
            }
        }
    }

    fn bits_equal(x: &[f32], y: &[f32]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    }

    /// Every shape of the sweep: empty dimensions, single rows and columns,
    /// each tile width and its neighbours, a `p` chunk boundary, and sizes
    /// that cross the parallel threshold.
    fn sweep(mut case: impl FnMut(usize, usize, usize)) {
        for m in [0, 1, 2, 3, 4, 5, 7, 50, 260] {
            for k in [0, 1, 3, 4, 5, 32, 33, 256] {
                for n in [0, 1, 3, 4, 8, 15, 16, 17, 32, 33, 1225] {
                    case(m, k, n);
                }
            }
        }
    }

    #[test]
    fn every_entry_point_matches_the_contract_bit_for_bit() {
        sweep(|m, k, n| {
            let shape = format!("m={m} k={k} n={n}");
            // Two batch slices; the 2-D entry points take slice 0.
            let a = [pseudo_random(&[m, k], 51), pseudo_random(&[m, k], 52)];
            let b = [pseudo_random(&[k, n], 53), pseudo_random(&[k, n], 54)];
            let at = [a[0].transpose(), a[1].transpose()];
            let bt = [b[0].transpose(), b[1].transpose()];
            let stack = |parts: &[Tensor; 2], dims: &[usize]| {
                Tensor::from_vec([parts[0].data(), parts[1].data()].concat(), dims)
            };

            let mut nn = vec![0.0f32; 2 * m * n];
            let mut nt = vec![0.0f32; 2 * m * n];
            for i in 0..2 {
                let out = i * m * n..(i + 1) * m * n;
                contract_nn(a[i].data(), b[i].data(), &mut nn[out.clone()], m, k, n);
                contract_nt(a[i].data(), bt[i].data(), &mut nt[out], m, k, n);
            }
            let check = |what: &str, product: Tensor, dims: &[usize], expected: &[f32]| {
                assert_eq!(product.dims(), dims, "{what} {shape}");
                assert!(bits_equal(product.data(), expected), "{what} {shape}");
            };

            check("matmul", a[0].matmul(&b[0]), &[m, n], &nn[..m * n]);
            check("matmul_tn", at[0].matmul_tn(&b[0]), &[m, n], &nn[..m * n]);
            check("matmul_nt", a[0].matmul_nt(&bt[0]), &[m, n], &nt[..m * n]);
            let (a3, b3) = (stack(&a, &[2, m, k]), stack(&b, &[2, k, n]));
            check("bmm", a3.bmm(&b3), &[2, m, n], &nn);
            check("bmm_tn", stack(&at, &[2, k, m]).bmm_tn(&b3), &[2, m, n], &nn);
            check("bmm_nt", a3.bmm_nt(&stack(&bt, &[2, n, k])), &[2, m, n], &nt);

            // `gemm` accumulates: start it from a non-zero `c`.
            let c0 = pseudo_random(&[m, n], 55);
            let mut expected = c0.data().to_vec();
            contract_nn(a[0].data(), b[0].data(), &mut expected, m, k, n);
            let mut c = c0.data().to_vec();
            gemm(a[0].data(), b[0].data(), &mut c, m, k, n);
            assert!(bits_equal(&c, &expected), "gemm {shape}");
        });
    }

    #[test]
    fn baseline_arm_matches_the_contract_bit_for_bit() {
        // On an AVX2 box the dispatch never picks `NR = 8`; call it directly so
        // the arm that pre-AVX2 and non-x86 machines run is covered here too.
        sweep(|m, k, n| {
            let a = pseudo_random(&[m, k], 61);
            let b = pseudo_random(&[k, n], 62);
            let c0 = pseudo_random(&[m, n], 63);
            let mut expected = c0.data().to_vec();
            contract_nn(a.data(), b.data(), &mut expected, m, k, n);

            let mut c = c0.data().to_vec();
            gemm_rows_with::<8>(Lhs::row_major(a.data(), k), b.data(), &mut c, m, k, n);
            assert!(bits_equal(&c, &expected), "NN m={m} k={k} n={n}");

            let at = a.transpose();
            let mut c = c0.data().to_vec();
            gemm_rows_with::<8>(Lhs::transposed(at.data(), m), b.data(), &mut c, m, k, n);
            assert!(bits_equal(&c, &expected), "TN m={m} k={k} n={n}");
        });
    }

    #[test]
    fn empty_dimensions_give_empty_or_zero_results() {
        // `matmul_tn` / `matmul_nt` used to divide by the zero column count.
        let z = |dims: &[usize]| Tensor::zeros(dims);
        assert_eq!(z(&[3, 4]).matmul_nt(&z(&[0, 4])).dims(), &[3, 0]);
        assert_eq!(z(&[4, 3]).matmul_tn(&z(&[4, 0])).dims(), &[3, 0]);
        assert_eq!(z(&[3, 4]).matmul(&z(&[4, 0])).dims(), &[3, 0]);
        assert_eq!(z(&[0, 4]).matmul(&z(&[4, 5])).dims(), &[0, 5]);
        assert_eq!(z(&[0, 4]).matmul_nt(&z(&[5, 4])).dims(), &[0, 5]);
        assert_eq!(z(&[4, 0]).matmul_tn(&z(&[4, 5])).dims(), &[0, 5]);
        // Only the inner dimension empty: a full-shape result of zeros.
        let ones = |dims: &[usize]| Tensor::ones(dims);
        for product in [
            ones(&[3, 0]).matmul(&ones(&[0, 5])),
            ones(&[0, 3]).matmul_tn(&ones(&[0, 5])),
            ones(&[3, 0]).matmul_nt(&ones(&[5, 0])),
        ] {
            assert_eq!(product.dims(), &[3, 5]);
            assert!(product.data().iter().all(|v| v.to_bits() == 0));
        }
        assert_eq!(z(&[2, 3, 4]).bmm(&z(&[2, 4, 0])).dims(), &[2, 3, 0]);
        assert_eq!(z(&[2, 4, 3]).bmm_tn(&z(&[2, 4, 0])).dims(), &[2, 3, 0]);
        assert_eq!(z(&[2, 3, 4]).bmm_nt(&z(&[2, 0, 4])).dims(), &[2, 3, 0]);
        assert_eq!(z(&[0, 3, 4]).bmm(&z(&[0, 4, 5])).dims(), &[0, 3, 5]);
        assert_eq!(z(&[2, 0, 4]).bmm_nt(&z(&[2, 5, 4])).dims(), &[2, 0, 5]);
        for product in [
            ones(&[2, 3, 0]).bmm(&ones(&[2, 0, 5])),
            ones(&[2, 0, 3]).bmm_tn(&ones(&[2, 0, 5])),
            ones(&[2, 3, 0]).bmm_nt(&ones(&[2, 5, 0])),
        ] {
            assert_eq!(product.dims(), &[2, 3, 5]);
            assert!(product.data().iter().all(|v| v.to_bits() == 0));
        }
    }

    #[test]
    fn zero_skip_is_not_worth_it() {
        // The seed skipped `av == 0.0` in the dense inner loop. Verify the
        // dense kernel handles all-zero rows correctly without the branch
        // (the numeric justification: 0 * finite == 0 exactly in IEEE 754).
        let mut a = pseudo_random(&[8, 16], 9);
        for j in 0..16 {
            *a.at2_mut(3, j) = 0.0;
        }
        let b = pseudo_random(&[16, 5], 10);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        assert!(fast.row(3).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.try_matmul(&b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(v.try_matmul(&a).is_err());
    }

    #[test]
    fn transposed_variants_match() {
        let a = pseudo_random(&[13, 9], 3);
        let b = pseudo_random(&[13, 11], 4);
        let tn = a.matmul_tn(&b); // a^T b : [9,11]
        let reference = a.transpose().matmul(&b);
        for (x, y) in tn.data().iter().zip(reference.data()) {
            assert!((x - y).abs() < 1e-4);
        }

        let c = pseudo_random(&[9, 11], 5);
        let nt = c.matmul_nt(&b); // c([9,11]) @ b([13,11])^T -> [9,13]
        let reference = c.matmul(&b.transpose());
        assert_eq!(nt.dims(), reference.dims());
        for (x, y) in nt.data().iter().zip(reference.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn transposed_variants_match_when_parallel() {
        // Sizes above the parallel threshold.
        let a = pseudo_random(&[150, 140], 31);
        let b = pseudo_random(&[150, 130], 32);
        let tn = a.matmul_tn(&b);
        let reference = a.transpose().matmul(&b);
        for (x, y) in tn.data().iter().zip(reference.data()) {
            assert!((x - y).abs() < 1e-3);
        }
        let c = pseudo_random(&[150, 140], 33);
        let d = pseudo_random(&[130, 140], 34);
        let nt = c.matmul_nt(&d);
        let reference = c.matmul(&d.transpose());
        for (x, y) in nt.data().iter().zip(reference.data()) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn bmm_matches_per_slice() {
        let a = pseudo_random(&[4, 3, 5], 11);
        let b = pseudo_random(&[4, 5, 2], 12);
        let c = a.bmm(&b);
        assert_eq!(c.dims(), &[4, 3, 2]);
        for i in 0..4 {
            let ai = Tensor::from_vec(a.data()[i * 15..(i + 1) * 15].to_vec(), &[3, 5]);
            let bi = Tensor::from_vec(b.data()[i * 10..(i + 1) * 10].to_vec(), &[5, 2]);
            let ci = ai.matmul(&bi);
            for (x, y) in c.data()[i * 6..(i + 1) * 6].iter().zip(ci.data()) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn bmm_large_batches_match_per_slice() {
        // Crosses the parallel threshold: 16 batches of 32×24×20.
        let (b, m, k, n) = (16, 32, 24, 20);
        let a = pseudo_random(&[b, m, k], 13);
        let x = pseudo_random(&[b, k, n], 14);
        let out = a.bmm(&x);
        for i in 0..b {
            let ai = Tensor::from_vec(a.data()[i * m * k..(i + 1) * m * k].to_vec(), &[m, k]);
            let xi = Tensor::from_vec(x.data()[i * k * n..(i + 1) * k * n].to_vec(), &[k, n]);
            let oi = ai.matmul(&xi);
            for (p, q) in out.data()[i * m * n..(i + 1) * m * n].iter().zip(oi.data()) {
                assert!((p - q).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn bmm_transposed_variants() {
        let a = pseudo_random(&[3, 4, 5], 21);
        let b = pseudo_random(&[3, 6, 5], 22);
        let nt = a.bmm_nt(&b); // [3,4,6]
        assert_eq!(nt.dims(), &[3, 4, 6]);
        for i in 0..3 {
            let ai = Tensor::from_vec(a.data()[i * 20..(i + 1) * 20].to_vec(), &[4, 5]);
            let bi = Tensor::from_vec(b.data()[i * 30..(i + 1) * 30].to_vec(), &[6, 5]);
            let ci = ai.matmul(&bi.transpose());
            for (x, y) in nt.data()[i * 24..(i + 1) * 24].iter().zip(ci.data()) {
                assert!((x - y).abs() < 1e-4);
            }
        }

        let c = pseudo_random(&[3, 5, 4], 23);
        let d = pseudo_random(&[3, 5, 7], 24);
        let tn = c.bmm_tn(&d); // [3,4,7]
        assert_eq!(tn.dims(), &[3, 4, 7]);
        for i in 0..3 {
            let ci = Tensor::from_vec(c.data()[i * 20..(i + 1) * 20].to_vec(), &[5, 4]);
            let di = Tensor::from_vec(d.data()[i * 35..(i + 1) * 35].to_vec(), &[5, 7]);
            let ri = ci.transpose().matmul(&di);
            for (x, y) in tn.data()[i * 28..(i + 1) * 28].iter().zip(ri.data()) {
                assert!((x - y).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn matvec_and_dot() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let v = Tensor::from_slice(&[1.0, -1.0]);
        assert_eq!(m.matvec(&v).data(), &[-1.0, -1.0]);
        assert_eq!(dot(&[1.0, 2.0, 3.0, 4.0, 5.0], &[1.0, 1.0, 1.0, 1.0, 1.0]), 15.0);
        assert_eq!(m.dot_all(&m), 30.0);
    }
}
