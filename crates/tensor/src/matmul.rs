//! Matrix multiplication kernels.
//!
//! Six entry points — `gemm`/[`Tensor::matmul`], [`Tensor::matmul_tn`],
//! [`Tensor::matmul_nt`] and their batched twins — run on one kernel body,
//! [`tile`], and each entry point fixes, per output element, the order in
//! which the `k` products are summed. That order is the contract every
//! golden value, checkpoint and serve ≡ naive gate in the repository rests
//! on:
//!
//! * **NN / TN** (one accumulator bank): `c[i][j]` starts from the value
//!   already in `c` and adds `a[i][p] * b[p][j]` for `p = 0..k` ascending,
//!   the multiply and the add rounded separately (no fused multiply-add).
//! * **NT** (four banks): exactly [`dot`] — bank `l` sums `a[i][p] *
//!   b[j][p]` over the `p ≡ l (mod 4)` ascending from `+0.0`, the banks are
//!   combined `((s0 + s1) + s2) + s3`, then the `k mod 4` tail is added
//!   ascending.
//!
//! Everything else is free to change because it never touches a
//! per-element order: `tile` holds an `MR × NR` block of `C` (and for NT
//! its four banks) in registers across a `p` chunk (one load and one store
//! of `C` per tile and chunk; chunks run in ascending order and `C` is
//! exact in between, and NT's `p` is one chunk), the left operand is
//! addressed by strides so `A` and `Aᵀ` are the same code, NT packs `Bᵀ`
//! once per call into `[k, W]` column panels so that a tile's vector lanes
//! are output columns as in NN, and row blocks go to the shared
//! `wr-runtime` pool with each task owning a disjoint block of output rows.
//! Tile shape, vector width, panel layout, cache blocking and thread count
//! therefore cannot move a bit.
//!
//! **Dispatch.** The body is instantiated per instruction set from one
//! safe-Rust source, each arm a tile that fills about half of its register
//! file with accumulators: under `#[target_feature(enable = "avx512f")]`
//! NN/TN `8 × 32` (two 16-lane registers per tile row, 16 of the 32 `zmm`
//! registers) and NT `4 × 16` (four banks of one register per row, 16
//! again); under `#[target_feature(enable = "avx2")]` NN/TN `4 × 16` and
//! NT `2 × 8` (8 of the 16 `ymm` each); at the build's baseline NN/TN
//! `4 × 8` and NT `2 × 4`. Each call runs [`Arm::detected`]'s arm, the
//! widest the CPU has (for NT once per call, before `Bᵀ` is packed to
//! that arm's width); the baseline arm is the only one on pre-AVX2 x86 and
//! on every other architecture. No arm fuses a multiply and an add — a fused
//! multiply-add rounds once where the contract rounds twice. `avx512f`
//! implies the `fma` feature, but the body writes `x += a * b` as two
//! operations and Rust never contracts them, so the AVX-512 arms are held
//! to the contract by the same `to_bits` sweep as the other two.
//!
//! The seed's `if av == 0.0 { continue; }` branch in the dense inner loops
//! was removed: it only helps on pathologically sparse inputs and costs a
//! compare+branch per multiply on the dense matrices every model here
//! produces (see `zero_skip_is_not_worth_it` below for the guard test).

use std::ops::Range;

use crate::{Arm, Level, Result, Tensor, TensorError};

/// Output rows per parallel task and per cache block of the kernel (a
/// multiple of every arm's `MR`). One task writes `PAR_ROWS * n` floats —
/// big enough to amortize dispatch, small enough to balance load.
const PAR_ROWS: usize = 64;

/// Below this many multiply-adds the dispatch overhead dominates; stay
/// sequential.
const PAR_MIN_FLOPS: usize = 1 << 16;

/// Length of a `p` chunk of an NN/TN product: a `KC × 16` strip of `B` is
/// 16 KB, half of a small L1; the AVX-512 arm's `KC × 32` strip is 32 KB,
/// two thirds of the 48-KB L1 that AVX-512 parts have (128 and 512 measured
/// no better).
const KC: usize = 256;

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
        gemm_nt(self.data(), other.data(), &mut out, 1, m, k, n);
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
        let (av, bv, arm) = (self.data(), other.data(), Arm::detected());
        batch_parallel(&mut out, m * n, b * m * k * n, |i, c| {
            let a = Lhs::row_major(&av[i * m * k..(i + 1) * m * k], k);
            gemm_rows(arm, a, &bv[i * k * n..(i + 1) * k * n], c, m, k, n);
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
        gemm_nt(self.data(), other.data(), &mut out, b, m, k, n);
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
        let (av, bvals, arm) = (self.data(), other.data(), Arm::detected());
        batch_parallel(&mut out, m * n, b * m * k * n, |i, c| {
            let a = Lhs::transposed(&av[i * k * m..(i + 1) * k * m], m);
            gemm_rows(arm, a, &bvals[i * k * n..(i + 1) * k * n], c, m, k, n);
        });
        Tensor::from_vec(out, &[b, m, n])
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
/// the NT half of the module's summation contract, one pair at a time.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let (a_quads, a_tail) = a.as_chunks::<4>();
    let (b_quads, b_tail) = b[..a.len()].as_chunks::<4>();
    let mut s = [0.0f32; 4];
    for (x, y) in a_quads.iter().zip(b_quads) {
        for l in 0..4 {
            s[l] += x[l] * y[l];
        }
    }
    let mut sum = s[0] + s[1] + s[2] + s[3];
    for (x, y) in a_tail.iter().zip(b_tail) {
        sum += x * y;
    }
    sum
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

/// Left operand of a tile, addressed by strides: element `(i, p)` of `A` is
/// `data[i * row_stride + p * p_stride]`. A row-major `A` and the transpose
/// of a row-major `Aᵀ` differ only in the two numbers, which is what makes
/// NN and TN one kernel.
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

/// Right operand of a tile: where the `[k, W]` block of a strip of `W`
/// output columns lies.
#[derive(Clone, Copy)]
enum Rhs<'a> {
    /// `B` stored `[k, n]` (the `usize` is `n`): the strip at column `j0` is
    /// columns `j0..j0 + W` of every row.
    RowMajor(&'a [f32], usize),
    /// `Bᵀ` as [`pack_panels`] lays it out (the `usize` is `k`): the strip at
    /// column `j0` is the contiguous `[k, W]` panel at `j0 * k`.
    Panels(&'a [f32], usize),
}

impl<'a> Rhs<'a> {
    /// The strip of width `w` at column `j0`: its row `p` starts at
    /// `p * stride` of the returned slice.
    fn strip(self, j0: usize, w: usize) -> (&'a [f32], usize) {
        match self {
            Rhs::RowMajor(data, n) => (&data[j0..], n),
            Rhs::Panels(data, k) => (&data[j0 * k..], w),
        }
    }
}

/// Width of the strip at column `j` of an `n`-column product on an arm
/// whose widest strip is `nr`: `nr` while it fits, then one 16 (when `nr`
/// is wider), then 4, then 1. The kernel and [`pack_panels`] both cut by
/// this, so a packed panel is exactly the strip that reads it.
fn strip_width(nr: usize, j: usize, n: usize) -> usize {
    if j + nr <= n {
        nr
    } else if nr > 16 && j + 16 <= n {
        16
    } else if j + 4 <= n {
        4
    } else {
        1
    }
}

/// `C[m×n] += A · B`, row blocks on the pool when the product is big enough.
fn gemm_strided(a: Lhs, b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let arm = Arm::detected();
    // An empty dimension makes the flop count 0, so it stays sequential and
    // never reaches the `/ n` below.
    if m * k * n < PAR_MIN_FLOPS || wr_runtime::threads() <= 1 {
        gemm_rows(arm, a, b, c, m, k, n);
        return;
    }
    wr_runtime::parallel_chunks_mut(c, PAR_ROWS * n, |ci, block| {
        gemm_rows(arm, a.skip_rows(ci * PAR_ROWS), b, block, block.len() / n, k, n);
    });
}

/// Sequential `C[rows×n] += A · B` on `arm`'s kernel. Every NN and TN
/// product in the crate ends here.
fn gemm_rows(arm: Arm, a: Lhs, b: &[f32], c: &mut [f32], rows: usize, k: usize, n: usize) {
    if rows == 0 || k == 0 || n == 0 {
        return;
    }
    let b = Rhs::RowMajor(b, n);
    match arm.level() {
        Level::Baseline => gemm_rows_with::<4, 8, 1>(a, b, c, rows, k, n),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: an `Avx2` token exists only on a CPU that runs AVX2.
        Level::Avx2 => unsafe { gemm_rows_avx2::<4, 16, 1>(a, b, c, rows, k, n) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: an `Avx512` token exists only on a CPU that runs AVX-512F.
        Level::Avx512 => unsafe { gemm_rows_avx512::<8, 32, 1>(a, b, c, rows, k, n) },
    }
}

/// `C = A · Bᵀ` for each of `batch` slices (`A` `[m, k]`, `B` `[n, k]`, `C`
/// `[m, n]`, zeros on entry: an empty `k` leaves them, the contract's empty
/// sum). The arm is picked and `Bᵀ` packed for it once per call, before
/// any pool dispatch; one slice runs its row blocks on the pool, several
/// run one slice per task.
fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], batch: usize, m: usize, k: usize, n: usize) {
    if batch * m * k * n == 0 {
        return;
    }
    let (nr, rows_on) = nt_arm(Arm::detected());
    let panels = pack_panels(b, batch, k, n, nr);
    let slice = |i: usize, i0: usize, c: &mut [f32]| {
        let rows = c.len() / n;
        let a = &a[(i * m + i0) * k..][..rows * k];
        rows_on(a, &panels[i * k * n..][..k * n], c, rows, k, n);
    };
    if batch > 1 {
        batch_parallel(c, m * n, batch * m * k * n, |i, c| slice(i, 0, c));
    } else if m * k * n < PAR_MIN_FLOPS || wr_runtime::threads() <= 1 {
        slice(0, 0, c);
    } else {
        wr_runtime::parallel_chunks_mut(c, PAR_ROWS * n, |ci, block| {
            slice(0, ci * PAR_ROWS, block);
        });
    }
}

/// An NT arm called past the dispatch: sequential `C[rows×n] = A · Bᵀ` for
/// a row-major `A` (`rows × k`) over panels [`pack_panels`] cut to the
/// arm's width.
type NtRows = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// `arm`'s NT kernel: the width its panels are cut to, and the kernel.
fn nt_arm(arm: Arm) -> (usize, NtRows) {
    match arm.level() {
        Level::Baseline => (4, |a, panels, c, rows, k, n| {
            gemm_rows_with::<2, 4, 4>(Lhs::row_major(a, k), Rhs::Panels(panels, k), c, rows, k, n)
        }),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Level::Avx2 => (8, |a, panels, c, rows, k, n| {
            let (a, panels) = (Lhs::row_major(a, k), Rhs::Panels(panels, k));
            // SAFETY: this closure is handed out only for an `Avx2` token,
            // which exists only on a CPU that runs AVX2.
            unsafe { gemm_rows_avx2::<2, 8, 4>(a, panels, c, rows, k, n) }
        }),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Level::Avx512 => (16, |a, panels, c, rows, k, n| {
            let (a, panels) = (Lhs::row_major(a, k), Rhs::Panels(panels, k));
            // SAFETY: this closure is handed out only for an `Avx512`
            // token, which exists only on a CPU that runs AVX-512F.
            unsafe { gemm_rows_avx512::<4, 16, 4>(a, panels, c, rows, k, n) }
        }),
    }
}

/// `Bᵀ` of each of `batch` slices `B` `[n, k]`, laid out as the strips of
/// an `nr`-wide arm read it: slice `i` at `i * k * n`, and in it the strip
/// of width `W` at column `j0` as a contiguous `[k, W]` panel at `j0 * k`,
/// row `p` holding `b[j0..j0 + W][p]`. The vector lanes of a tile are then
/// output columns, and a panel streams from memory in order.
fn pack_panels(b: &[f32], batch: usize, k: usize, n: usize, nr: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; batch * k * n];
    if out.is_empty() {
        return out;
    }
    for (src, dst) in b.chunks_exact(k * n).zip(out.chunks_exact_mut(k * n)) {
        let mut j0 = 0;
        while j0 < n {
            let w = strip_width(nr, j0, n);
            let panel = &mut dst[j0 * k..(j0 + w) * k];
            for (jj, row) in src[j0 * k..(j0 + w) * k].chunks_exact(k).enumerate() {
                for (p, &v) in row.iter().enumerate() {
                    panel[p * w + jj] = v;
                }
            }
            j0 += w;
        }
    }
    out
}

/// [`gemm_rows_with`] compiled for AVX-512F: 16-lane registers and 32 of
/// them. NN/TN runs it `8 × 32` (two registers per tile row, 16
/// accumulators; a 32-column product — the item tower's output and its
/// weight gradient — is one strip), NT `4 × 16` with four banks (16
/// accumulators again).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn gemm_rows_avx512<const MR: usize, const NR: usize, const BANKS: usize>(
    a: Lhs,
    b: Rhs,
    c: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    gemm_rows_with::<MR, NR, BANKS>(a, b, c, rows, k, n);
}

/// [`gemm_rows_with`] compiled for AVX2: 8-lane registers and 16 of them.
/// NN/TN runs it `4 × 16` (8 accumulators), NT `2 × 8` with four banks (8).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn gemm_rows_avx2<const MR: usize, const NR: usize, const BANKS: usize>(
    a: Lhs,
    b: Rhs,
    c: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    gemm_rows_with::<MR, NR, BANKS>(a, b, c, rows, k, n);
}

/// The kernel body, for `MR × NR` tiles with `BANKS` accumulator banks. `p`
/// is cut into `KC`-long chunks and the rows into `PAR_ROWS`-row blocks so
/// that what a pass re-reads stays in cache: inside one (chunk, block)
/// every strip of `B` comes from L2 once and from L1 for every further tile
/// of the block. Chunks of `p` run in ascending order and `C` is stored
/// exactly in between, so no element's sum is reordered. An NT product
/// (`BANKS = 4`) combines its banks once per element, so its `p` is one
/// chunk. The columns go in the strips [`strip_width`] cuts.
#[inline(always)]
fn gemm_rows_with<const MR: usize, const NR: usize, const BANKS: usize>(
    a: Lhs,
    b: Rhs,
    c: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    let kc = if BANKS == 1 { KC } else { k.max(1) };
    for p0 in (0..k).step_by(kc) {
        let ps = p0..(p0 + kc).min(k);
        for i0 in (0..rows).step_by(PAR_ROWS) {
            let is = i0..(i0 + PAR_ROWS).min(rows);
            let mut j = 0;
            while j < n {
                let w = strip_width(NR, j, n);
                let (is, ps) = (is.clone(), ps.clone());
                if w == NR {
                    strip::<MR, NR, BANKS>(a, b, c, is, j, ps, n);
                } else if w == 16 {
                    strip::<MR, 16, BANKS>(a, b, c, is, j, ps, n);
                } else if w == 4 {
                    strip::<MR, 4, BANKS>(a, b, c, is, j, ps, n);
                } else {
                    strip::<MR, 1, BANKS>(a, b, c, is, j, ps, n);
                }
                j += w;
            }
        }
    }
}

/// Columns `j0..j0 + W` of the rows `is`: full `MR`-row tiles, then (when
/// `MR` is taller) one 4-row tile if 4 rows are left, then the last rows
/// one at a time through the same tile.
#[inline(always)]
fn strip<const MR: usize, const W: usize, const BANKS: usize>(
    a: Lhs,
    b: Rhs,
    c: &mut [f32],
    is: Range<usize>,
    j0: usize,
    ps: Range<usize>,
    n: usize,
) {
    let b = b.strip(j0, W);
    let mut i = is.start;
    while i + MR <= is.end {
        tile::<MR, W, BANKS>(a, b, c, i, j0, ps.clone(), n);
        i += MR;
    }
    if MR > 4 && i + 4 <= is.end {
        tile::<4, W, BANKS>(a, b, c, i, j0, ps.clone(), n);
        i += 4;
    }
    while i < is.end {
        tile::<1, W, BANKS>(a, b, c, i, j0, ps.clone(), n);
        i += 1;
    }
}

/// `C[i0..i0+R][j0..j0+W] (+)= A[i0..i0+R][ps] · B[ps][j0..j0+W]` with the
/// block of `C` held in registers for the whole `p` loop, `B`'s strip being
/// `b.0` with its rows `b.1` apart. Per element this is the module's
/// contract verbatim. With one bank: start from `c` and add `a * b` for
/// ascending `p`. With four (an NT tile: `A` row-major, `B` a packed panel,
/// `ps` all of `0..k`, `c` only written): bank `l` sums the products of the
/// `p ≡ l (mod 4)` ascending from `+0.0`, the banks are combined
/// `((s0 + s1) + s2) + s3`, and the `k mod 4` tail is added ascending. The
/// banks are four named arrays, not an array of four: indexed by a loop
/// variable they stayed in memory, and NT ran at 4–8 GFLOP/s, not 40.
#[inline(always)]
fn tile<const R: usize, const W: usize, const BANKS: usize>(
    a: Lhs,
    b: (&[f32], usize),
    c: &mut [f32],
    i0: usize,
    j0: usize,
    ps: Range<usize>,
    n: usize,
) {
    const { assert!(BANKS == 1 || BANKS == 4, "a tile has one bank or four") };
    let mut acc = [[0.0f32; W]; R];
    let mut p = ps.start;
    if BANKS == 1 {
        for (r, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&c[(i0 + r) * n + j0..][..W]);
        }
    } else {
        debug_assert!(a.p_stride == 1 && b.1 == W);
        let zero = [[0.0f32; W]; R];
        let (mut s0, mut s1, mut s2, mut s3) = (zero, zero, zero, zero);
        while p + 4 <= ps.end {
            let mut av = [[0.0f32; 4]; R];
            for (r, quad) in av.iter_mut().enumerate() {
                quad.copy_from_slice(&a.data[(i0 + r) * a.row_stride + p..][..4]);
            }
            let bq = &b.0[p * W..][..4 * W];
            add_column(&mut s0, &av, 0, &bq[..W]);
            add_column(&mut s1, &av, 1, &bq[W..2 * W]);
            add_column(&mut s2, &av, 2, &bq[2 * W..3 * W]);
            add_column(&mut s3, &av, 3, &bq[3 * W..]);
            p += 4;
        }
        acc = s0;
        for bank in [s1, s2, s3] {
            for (row, bank_row) in acc.iter_mut().zip(bank) {
                for (x, s) in row.iter_mut().zip(bank_row) {
                    *x += s;
                }
            }
        }
    }
    for p in p..ps.end {
        add_products(&mut acc, a, i0, b, p);
    }
    for (r, row) in acc.iter().enumerate() {
        c[(i0 + r) * n + j0..][..W].copy_from_slice(row);
    }
}

/// `acc[r][w] += av[r][l] * b_row[w]`, the multiply and the add rounded
/// separately.
#[inline(always)]
fn add_column<const R: usize, const W: usize>(
    acc: &mut [[f32; W]; R],
    av: &[[f32; 4]; R],
    l: usize,
    b_row: &[f32],
) {
    for (row, quad) in acc.iter_mut().zip(av) {
        for (x, &bv) in row.iter_mut().zip(b_row) {
            *x += quad[l] * bv;
        }
    }
}

/// One `p` step of a tile: `acc[r][w] += a[i0 + r][p] * b[p][w]`, the
/// multiply and the add rounded separately.
#[inline(always)]
fn add_products<const R: usize, const W: usize>(
    acc: &mut [[f32; W]; R],
    a: Lhs,
    i0: usize,
    (b, b_stride): (&[f32], usize),
    p: usize,
) {
    let b_row = &b[p * b_stride..][..W];
    for (r, row) in acc.iter_mut().enumerate() {
        let av = a.data[(i0 + r) * a.row_stride + p * a.p_stride];
        for (x, &bv) in row.iter_mut().zip(b_row) {
            *x += av * bv;
        }
    }
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
        gemm_rows(Arm::detected(), Lhs::row_major(a.data(), k), b.data(), &mut serial, m, k, n);
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
        gemm_rows(Arm::detected(), Lhs::transposed(at.data(), m), b.data(), &mut serial, m, k, n);
        assert_thread_independent("matmul_tn", &serial, || at.matmul_tn(&b));

        let a = pseudo_random(&[m, k], 7);
        let bt = pseudo_random(&[n, k], 8);
        let mut serial = vec![0.0f32; m * n];
        contract_nt(a.data(), bt.data(), &mut serial, m, k, n);
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
            gemm_rows(Arm::detected(), lhs, &b.data()[i * k * n..(i + 1) * k * n], c, m, k, n);
        });
        assert_thread_independent("bmm", &serial, || a.bmm(&b));
        let serial = per_slice(&|i, c| {
            let lhs = Lhs::transposed(&at.data()[i * k * m..(i + 1) * k * m], m);
            gemm_rows(Arm::detected(), lhs, &b.data()[i * k * n..(i + 1) * k * n], c, m, k, n);
        });
        assert_thread_independent("bmm_tn", &serial, || at.bmm_tn(&b));
        let serial = per_slice(&|i, c| {
            let ai = &a.data()[i * m * k..(i + 1) * m * k];
            contract_nt(ai, &bt.data()[i * n * k..(i + 1) * n * k], c, m, k, n);
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
    /// each tile height and width and their neighbours (2, 4 and 8 rows; 4,
    /// 8, 16 and 32 columns, and 48 = 32 + 16), every `k mod 4` tail with and
    /// without a whole quad before it, a `p` chunk boundary and one past it,
    /// and sizes that cross the parallel threshold; then one NT-shaped case
    /// with a catalogue-long `k`.
    fn sweep(mut case: impl FnMut(usize, usize, usize)) {
        for m in [0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 50, 260] {
            for k in [0, 1, 2, 3, 4, 5, 6, 7, 32, 33, 256, 257] {
                for n in [0, 1, 3, 4, 8, 15, 16, 17, 31, 32, 33, 48, 63, 1225] {
                    case(m, k, n);
                }
            }
        }
        case(9, 2450, 33);
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
    fn every_arm_matches_the_contract_bit_for_bit() {
        sweep(|m, k, n| {
            let a = pseudo_random(&[m, k], 61);
            let b = pseudo_random(&[k, n], 62);
            let c0 = pseudo_random(&[m, n], 63);
            let mut expected = c0.data().to_vec();
            contract_nn(a.data(), b.data(), &mut expected, m, k, n);
            let at = a.transpose();
            let bt = b.transpose();
            let mut expected_nt = vec![0.0f32; m * n];
            contract_nt(a.data(), bt.data(), &mut expected_nt, m, k, n);
            for arm in Arm::available() {
                let name = arm.level();
                let mut c = c0.data().to_vec();
                gemm_rows(arm, Lhs::row_major(a.data(), k), b.data(), &mut c, m, k, n);
                assert!(bits_equal(&c, &expected), "{name:?} NN m={m} k={k} n={n}");

                let mut c = c0.data().to_vec();
                gemm_rows(arm, Lhs::transposed(at.data(), m), b.data(), &mut c, m, k, n);
                assert!(bits_equal(&c, &expected), "{name:?} TN m={m} k={k} n={n}");

                let (nr, nt) = nt_arm(arm);
                let panels = pack_panels(bt.data(), 1, k, n, nr);
                let mut c = vec![0.0f32; m * n];
                nt(a.data(), &panels, &mut c, m, k, n);
                assert!(bits_equal(&c, &expected_nt), "{name:?} NT m={m} k={k} n={n}");
            }
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
    fn dot_of_slices() {
        assert_eq!(dot(&[1.0, 2.0, 3.0, 4.0, 5.0], &[1.0, 1.0, 1.0, 1.0, 1.0]), 15.0);
    }
}
