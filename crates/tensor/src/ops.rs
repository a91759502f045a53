//! Elementwise and broadcast arithmetic on [`Tensor`].

use crate::{Arm, Level, Result, Tensor, TensorError};

macro_rules! binary_op {
    ($name:ident, $try_name:ident, $op:tt) => {
        /// Elementwise operation; panics on shape mismatch.
        pub fn $name(&self, other: &Tensor) -> Tensor {
            // Documented panicking wrapper; the $try_name twin is the Result
            // path. (Clippy does not lint inside a local macro_rules! body.)
            self.$try_name(other).expect(stringify!($name))
        }

        /// Fallible elementwise operation.
        pub fn $try_name(&self, other: &Tensor) -> Result<Tensor> {
            if self.shape() != other.shape() {
                return Err(TensorError::ShapeMismatch {
                    op: stringify!($name),
                    lhs: self.dims().to_vec(),
                    rhs: other.dims().to_vec(),
                });
            }
            let data = self
                .data()
                .iter()
                .zip(other.data())
                .map(|(a, b)| a $op b)
                .collect();
            Ok(Tensor::from_vec(data, self.dims()))
        }
    };
}

impl Tensor {
    binary_op!(add, try_add, +);
    binary_op!(sub, try_sub, -);
    binary_op!(mul, try_mul, *);
    binary_op!(div, try_div, /);

    /// Multiply every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Add a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x + s)
    }

    /// Apply `f` to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data().iter().map(|&x| f(x)).collect();
        Tensor::from_vec(data, self.dims())
    }

    /// In-place `self += other`. Panics on shape mismatch.
    pub fn add_assign_(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_assign_: shape mismatch {} vs {}",
            self.shape(),
            other.shape()
        );
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += b;
        }
    }

    /// In-place `self *= s`.
    pub fn scale_(&mut self, s: f32) {
        for a in self.data_mut() {
            *a *= s;
        }
    }

    /// In-place `self += alpha * other` (axpy). Panics on shape mismatch.
    pub fn axpy_(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy_: shape mismatch");
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += alpha * b;
        }
    }

    /// Add `row` (length = cols) to every row of a matrix.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        assert!(self.rank() == 2, "add_row_broadcast requires a matrix");
        let cols = self.cols();
        assert_eq!(
            row.numel(),
            cols,
            "add_row_broadcast: row has {} elements, matrix has {} cols",
            row.numel(),
            cols
        );
        let mut out = self.clone();
        let rv = row.data();
        for r in 0..out.rows() {
            for (a, b) in out.row_mut(r).iter_mut().zip(rv) {
                *a += b;
            }
        }
        out
    }

    /// Subtract `row` (length = cols) from every row of a matrix.
    pub fn sub_row_broadcast(&self, row: &Tensor) -> Tensor {
        let neg: Vec<f32> = row.data().iter().map(|x| -x).collect();
        self.add_row_broadcast(&Tensor::from_vec(neg, &[row.numel()]))
    }

    /// Multiply every row of a matrix elementwise by `row`.
    pub fn mul_row_broadcast(&self, row: &Tensor) -> Tensor {
        assert!(self.rank() == 2, "mul_row_broadcast requires a matrix");
        let cols = self.cols();
        assert_eq!(row.numel(), cols, "mul_row_broadcast: size mismatch");
        let mut out = self.clone();
        let rv = row.data();
        for r in 0..out.rows() {
            for (a, b) in out.row_mut(r).iter_mut().zip(rv) {
                *a *= b;
            }
        }
        out
    }

    // ----- activations / pointwise nonlinearities ------------------------

    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Elementwise `1 / (1 + e⁻ˣ)`, over [`exp_scalar`].
    pub fn sigmoid(&self) -> Tensor {
        self.map(|x| 1.0 / (1.0 + exp_scalar(-x)))
    }

    /// Elementwise [`tanh_scalar`].
    pub fn tanh(&self) -> Tensor {
        self.map(tanh_scalar)
    }

    /// Gaussian error linear unit (tanh approximation, as in BERT/GPT).
    pub fn gelu(&self) -> Tensor {
        self.map(gelu_scalar)
    }

    /// Elementwise [`exp_scalar`].
    pub fn exp(&self) -> Tensor {
        self.map(exp_scalar)
    }

    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    pub fn neg(&self) -> Tensor {
        self.map(|x| -x)
    }

    pub fn powi(&self, n: i32) -> Tensor {
        self.map(|x| x.powi(n))
    }

    /// Row-wise softmax of a matrix.
    pub fn softmax_rows(&self) -> Tensor {
        assert!(self.rank() == 2, "softmax_rows requires a matrix");
        let mut out = self.clone();
        for r in 0..out.rows() {
            softmax_in_place(out.row_mut(r));
        }
        out
    }

    /// [`l2_normalize_row`] on each row of a matrix (rows of zeros pass
    /// through unchanged).
    pub fn l2_normalize_rows(&self) -> Tensor {
        assert!(self.rank() == 2, "l2_normalize_rows requires a matrix");
        let mut out = self.clone();
        for r in 0..out.rows() {
            l2_normalize_row(out.row_mut(r));
        }
        out
    }
}

/// Inputs beyond this are clamped: it is the first `|x|` at which the
/// rational below rounds to ±1, and unclamped it would exceed 1 from
/// `|x| ≈ 8.05` and fall away from ±1 after that.
const TANH_CLAMP: f32 = 7.905_311;
/// Numerator `P` in `x²`, highest power first (`x¹³ … x¹` once multiplied
/// by `x`).
const TANH_P: [f32; 7] = [
    -2.760_768_4e-16,
    2.000_188e-13,
    -8.604_672e-11,
    5.122_297_3e-8,
    1.485_722_35e-5,
    0.000_637_261_95,
    0.004_893_524_6,
];
/// Denominator `Q` in `x²`, highest power first (`x⁶ … x⁰`).
const TANH_Q: [f32; 4] = [
    1.198_258_4e-6,
    0.000_118_534_71,
    0.002_268_434_7,
    0.004_893_525,
];

/// Horner in `t`, highest power first; the multiply and the add are
/// rounded separately.
#[inline]
fn horner<const N: usize>(coefficients: &[f32; N], t: f32) -> f32 {
    let mut acc = coefficients[0];
    for &c in &coefficients[1..] {
        acc = acc * t + c;
    }
    acc
}

/// The only `tanh` on the model path: GELU (taped, frozen and its
/// derivative), `Tensor::tanh` (GRU4Rec, BERT-flow) — not libm's `tanhf`,
/// which is not correctly rounded and so differs between C libraries.
///
/// The contract, which every pinned score in the repo rests on (DESIGN.md
/// §5c "Activations"): clamp `x` to ±7.905311 with `f32::clamp` (which
/// hands a NaN through; `max`/`min` would turn it into −1), then
/// `x·P(x²) / Q(x²)` with the eleven `f32` constants above — the
/// single-precision rational of Eigen's and XLA's fast tanh — `P` and `Q`
/// by Horner from the highest power, every `×` and `+` rounded on its own
/// (never fused), one division. That is a fixed sequence of IEEE-754
/// operations on one element, so the result does not depend on the libm,
/// the vector width the loop around it was compiled to, or the thread
/// count.
///
/// Max abs error against `f64::tanh`, measured over every finite `f32`:
/// 4.1 × 10⁻⁷, at `|x| = 5.827876` (glibc 2.36 `tanhf`: 1.0 × 10⁻⁷).
/// `±0 → ±0`, `±∞ → ±1`, NaN → NaN, `|y| ≤ 1`, and
/// `tanh_scalar(-x) == -tanh_scalar(x)` to the bit.
#[inline]
pub fn tanh_scalar(x: f32) -> f32 {
    let x = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    let x2 = x * x;
    x * horner(&TANH_P, x2) / horner(&TANH_Q, x2)
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)
const GELU_A: f32 = 0.044_715;

/// The tanh argument `√(2/π)·(x + 0.044715·x³)` of GELU, formed once so
/// the derivative differentiates the function the forward computes.
#[inline]
fn gelu_inner(x: f32) -> f32 {
    GELU_C * (x + GELU_A * x * x * x)
}

/// GELU with the tanh approximation used by BERT,
/// `½·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`, over [`tanh_scalar`]:
/// within 9.5 × 10⁻⁷ of the same expression over libm's `tanhf` on ±12
/// (two ulps of the result, at `x ≈ 4.01`). NaN → NaN.
#[inline]
pub fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh_scalar(gelu_inner(x)))
}

/// Derivative of [`gelu_scalar`] in `x`, through the same tanh argument and
/// the same [`tanh_scalar`]. NaN → NaN.
#[inline]
pub fn gelu_grad_scalar(x: f32) -> f32 {
    let t = tanh_scalar(gelu_inner(x));
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * GELU_A * x * x)
}

/// The smallest `x` whose `eˣ` is a normal `f32`; below it
/// [`exp_scalar`] is `+0`.
pub(crate) const EXP_LO: f32 = -87.336_54;
/// The largest `x` whose `eˣ` is finite; above it [`exp_scalar`] is `+∞`.
pub(crate) const EXP_HI: f32 = 88.722_83;
/// `1.5·2²³`: added to `x·log₂e`, it leaves the nearest integer in the low
/// mantissa bits (ties to even), and subtracted again, that integer.
pub(crate) const EXP_SHIFT: f32 = 12_582_912.0;
/// `ln 2` in two parts (Cody–Waite): `n·LN2_HI` is exact for every `n` the
/// range allows, and `LN2_HI + LN2_LO` is `ln 2` to 1.6 × 10⁻¹².
pub(crate) const LN2_HI: f32 = 0.693_359_4;
pub(crate) const LN2_LO: f32 = -2.121_944_4e-4;
/// Cephes `expf`'s polynomial in `r`, highest power first:
/// `eʳ ≈ 1 + r + r²·P(r)` on `|r| ≤ ½ ln 2`.
pub(crate) const EXP_P: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    0.166_666_66,
    0.5,
];

/// `2ᵏ` from its exponent bits, for `k` in `−126..=127`.
#[inline]
fn pow2(k: i32) -> f32 {
    f32::from_bits(((k + 127) as u32) << 23)
}

/// The only `exp` on the model path: every softmax ([`softmax_in_place`]
/// under the catalogue cross-entropy, attention and the pooling heads),
/// `Tensor::exp` (BERT-flow's coupling) and `Tensor::sigmoid` (GRU gates,
/// BPR, the gated-ID tower) — not libm's `expf`, which is not correctly
/// rounded and so differs between C libraries.
///
/// The contract (DESIGN.md §5c "Activations"): clamp `x` to
/// `[EXP_LO, EXP_HI]` with `f32::clamp` (which hands a NaN through);
/// `n = round(x·log₂e)` by adding and subtracting `1.5·2²³`; `r = (x −
/// n·LN2_HI) − n·LN2_LO`; `p = P(r)` by Horner from the highest power over
/// the six Cephes coefficients; `eʳ = (p·r² + r) + 1`; then `eʳ·2^⌊n/2⌋·
/// 2^(n−⌊n/2⌋)`, each factor built from its exponent bits (two factors,
/// because `n` reaches 128 just below the overflow edge). Every `×` and
/// `+` is rounded on its own (never fused). Below `EXP_LO` the result is
/// `+0`, above `EXP_HI` `+∞`, NaN stays NaN. That is a fixed sequence of
/// IEEE-754 operations on one element, so the result does not depend on
/// the libm, the vector width of the loop around it or the thread count.
///
/// At most 1 ulp from the correctly rounded `eˣ` over `[EXP_LO, EXP_HI]`,
/// measured over every `f32` there (glibc 2.36 `expf`: also 1 ulp).
#[inline]
pub fn exp_scalar(x: f32) -> f32 {
    let c = x.clamp(EXP_LO, EXP_HI);
    let shifted = c * std::f32::consts::LOG2_E + EXP_SHIFT;
    let n = shifted - EXP_SHIFT;
    let r = (c - n * LN2_HI) - n * LN2_LO;
    let e = (horner(&EXP_P, r) * (r * r) + r) + 1.0;
    // The integer `n`, from the low mantissa bits (`n` is in −126..=128
    // for any clamped `x`; for a NaN the bits are never used).
    let k = shifted.to_bits().wrapping_sub(EXP_SHIFT.to_bits()) as i32;
    let y = e * pow2(k >> 1) * pow2(k - (k >> 1));
    if x < EXP_LO {
        0.0
    } else if x > EXP_HI {
        f32::INFINITY
    } else {
        y
    }
}

/// LayerNorm of one row, in place: `xhat = (v − mean) · inv_std`, then
/// `v = xhat · γ`, then `v += β`, each step rounded on its own. Returns
/// `(mean, inv_std)`; `(x − mean) · inv_std` over the row as it was gives
/// `xhat` back to the bit. The one statement of the row under the taped
/// `Graph::layer_norm_rows` and the frozen encoder.
#[inline]
pub fn layer_norm_row(row: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) -> (f32, f32) {
    let cols = row.len() as f32;
    let mean = row.iter().sum::<f32>() / cols;
    let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols;
    let inv_std = 1.0 / (var + eps).sqrt();
    for ((v, g), b) in row.iter_mut().zip(gamma).zip(beta) {
        let xhat = (*v - mean) * inv_std;
        *v = xhat * g;
        *v += b;
    }
    (mean, inv_std)
}

/// Unit L2 norm of one row, in place: `v / max(‖row‖, 1e-12)`, squares
/// summed in row order; returns the divisor. The one statement of the row
/// under `Graph::l2_normalize_rows` and [`Tensor::l2_normalize_rows`].
#[inline]
pub fn l2_normalize_row(row: &mut [f32]) -> f32 {
    let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
    row.iter_mut().for_each(|v| *v /= norm);
    norm
}

/// Rows at least this wide are summed in [`SOFTMAX_BANKS`] banks. Attention
/// rows (at most `max_seq` keys) stay under it, so the masked chain and the
/// allowed-keys kernel sum each row in index order and agree to the bit.
pub(crate) const SOFTMAX_BANKED_MIN: usize = 64;
/// Rows at least this wide run the arm `softmax_on` is handed; narrower
/// ones the baseline. The arms compute the same bits at every width; what
/// moves is the cost. Below 32 the vector arms lose on most widths (the loop
/// tail runs alone), from 32 they win on average: 2 000 rows, first
/// quartile of 40 interleaved trials on the 2-CPU AVX-512 box, summed over
/// 16 widths in `32..64`, baseline 6.08 ms, AVX-512F 5.29, AVX2 5.87; over
/// nine in `16..32`, 2.19 against 2.48 and 2.69.
const SOFTMAX_VECTOR_MIN: usize = 32;
/// Interleaved partial sums of a wide softmax row: one AVX-512 register.
const SOFTMAX_BANKS: usize = 16;

/// Numerically stable softmax over a slice, in place; returns the sum it
/// divided by. The row has no finite distribution — a NaN or `+∞` in it, or
/// nothing above `−∞` — exactly when that sum is NaN; the row is then left
/// undivided and holds a NaN.
///
/// Four passes (DESIGN.md §5c "Activations"): the maximum (exact, so in
/// any order); `eˣ⁻ᵐᵃˣ` by [`exp_scalar`]; the sum — in index order from
/// `+0` for a row shorter than 64, otherwise in 16 banks, bank `j` taking
/// elements `j, j + 16, …` in order, then banks 0–15 added in order; then
/// each element divided by the sum when it is positive. Every step is
/// lane-wise IEEE, so the AVX-512F, AVX2 and baseline arms are equal to
/// the bit; a row of 32 or more runs [`Arm::detected`]'s.
pub fn softmax_in_place(row: &mut [f32]) -> f32 {
    softmax_on(Arm::detected(), row)
}

/// [`softmax_in_place`] on `arm`'s body for a row of [`SOFTMAX_VECTOR_MIN`]
/// or more, on the baseline's for a shorter one.
#[inline]
fn softmax_on(arm: Arm, row: &mut [f32]) -> f32 {
    match arm.level() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: an `Avx512` token exists only on a CPU that runs AVX-512F.
        Level::Avx512 if row.len() >= SOFTMAX_VECTOR_MIN => unsafe { softmax_avx512(row) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: an `Avx2` token exists only on a CPU that runs AVX2.
        Level::Avx2 if row.len() >= SOFTMAX_VECTOR_MIN => unsafe { softmax_avx2(row) },
        _ => softmax_with(row),
    }
}

/// [`softmax_with`] compiled for AVX-512F: 16 lanes, one register of banks.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn softmax_avx512(row: &mut [f32]) -> f32 {
    softmax_with(row)
}

/// [`softmax_with`] compiled for AVX2: 8 lanes, two registers of banks.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn softmax_avx2(row: &mut [f32]) -> f32 {
    softmax_with(row)
}

/// The body of [`softmax_in_place`], at whatever width the caller was
/// compiled for.
#[inline(always)]
fn softmax_with(row: &mut [f32]) -> f32 {
    let short = row.len() < SOFTMAX_BANKED_MIN;
    let max = if short {
        row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x))
    } else {
        let mut lanes = [f32::NEG_INFINITY; SOFTMAX_BANKS];
        let mut chunks = row.chunks_exact(SOFTMAX_BANKS);
        for chunk in &mut chunks {
            for (m, &x) in lanes.iter_mut().zip(chunk) {
                *m = m.max(x);
            }
        }
        chunks.remainder().iter().chain(&lanes).fold(f32::NEG_INFINITY, |m, &x| m.max(x))
    };
    for x in row.iter_mut() {
        *x = exp_scalar(*x - max);
    }
    let sum = if short {
        row.iter().fold(0.0, |s, &x| s + x)
    } else {
        let mut banks = [0.0f32; SOFTMAX_BANKS];
        let mut chunks = row.chunks_exact(SOFTMAX_BANKS);
        for chunk in &mut chunks {
            for (b, &x) in banks.iter_mut().zip(chunk) {
                *b += x;
            }
        }
        for (b, &x) in banks.iter_mut().zip(chunks.remainder()) {
            *b += x;
        }
        banks.iter().fold(0.0, |s, &b| s + b)
    };
    if sum > 0.0 {
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_slice(v)
    }

    #[test]
    fn binary_elementwise() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).data(), &[4.0, 2.5, 2.0]);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(a.try_add(&b).is_err());
    }

    #[test]
    fn scale_and_map() {
        let a = t(&[1.0, -2.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, -4.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, -1.0]);
        assert_eq!(a.abs().data(), &[1.0, 2.0]);
        assert_eq!(a.neg().data(), &[-1.0, 2.0]);
    }

    #[test]
    fn in_place_ops() {
        let mut a = t(&[1.0, 2.0]);
        a.add_assign_(&t(&[3.0, 4.0]));
        assert_eq!(a.data(), &[4.0, 6.0]);
        a.scale_(0.5);
        assert_eq!(a.data(), &[2.0, 3.0]);
        a.axpy_(2.0, &t(&[1.0, 1.0]));
        assert_eq!(a.data(), &[4.0, 5.0]);
    }

    #[test]
    fn broadcasts() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let row = t(&[10.0, 20.0]);
        assert_eq!(m.add_row_broadcast(&row).data(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(m.sub_row_broadcast(&row).data(), &[-9.0, -18.0, -7.0, -16.0]);
        assert_eq!(m.mul_row_broadcast(&row).data(), &[10.0, 40.0, 30.0, 80.0]);
    }

    #[test]
    fn activations() {
        let a = t(&[-1.0, 0.0, 2.0]);
        assert_eq!(a.relu().data(), &[0.0, 0.0, 2.0]);
        let s = a.sigmoid();
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        assert!(s.data()[2] > 0.85);
        // GELU(0)=0 and GELU is close to identity for large positive x.
        let g = t(&[0.0, 5.0]).gelu();
        assert!(g.data()[0].abs() < 1e-6);
        assert!((g.data()[1] - 5.0).abs() < 1e-3);
    }

    /// Evenly spaced `f32`s over `[-half_width, half_width]`.
    fn sweep(half_width: f64, steps: u32) -> impl Iterator<Item = f32> {
        (0..=steps).map(move |i| (half_width * (2.0 * i as f64 / steps as f64 - 1.0)) as f32)
    }

    #[test]
    fn tanh_scalar_is_within_6e_7_of_f64_tanh_odd_and_bounded() {
        // Measured over every finite f32: 4.1e-7, at |x| = 5.827876.
        let powers_of_two = (-149..=127).map(|e| 2f64.powi(e) as f32);
        for x in sweep(10.0, 1 << 20).chain(powers_of_two) {
            let y = tanh_scalar(x);
            let err = (y as f64 - (x as f64).tanh()).abs();
            assert!(err <= 6e-7, "tanh_scalar({x:e}) = {y:e}: off by {err:e}");
            assert!(y.abs() <= 1.0, "tanh_scalar({x:e}) = {y:e} leaves [-1, 1]");
            assert_eq!(tanh_scalar(-x).to_bits(), (-y).to_bits(), "not odd at {x:e}");
        }
    }

    #[test]
    fn tanh_scalar_at_zero_infinity_and_nan() {
        assert_eq!(tanh_scalar(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh_scalar(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh_scalar(f32::INFINITY), 1.0);
        assert_eq!(tanh_scalar(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh_scalar(f32::MAX), 1.0);
        // A non-finite loss must stay visible to `train_step`'s callers and
        // to `freeze`'s finite check.
        assert!(tanh_scalar(f32::NAN).is_nan());
        assert!(gelu_scalar(f32::NAN).is_nan());
        assert!(gelu_grad_scalar(f32::NAN).is_nan());
        assert!(t(&[f32::NAN]).tanh().data()[0].is_nan());
        assert!(t(&[f32::NAN]).gelu().data()[0].is_nan());
    }

    #[test]
    fn gelu_scalar_is_within_3e_6_of_gelu_over_libm_tanh() {
        // Measured 9.5e-7 (two ulps of the result), at x = 4.0146.
        for x in sweep(12.0, 1 << 20) {
            let libm = 0.5 * x * (1.0 + gelu_inner(x).tanh());
            let err = (gelu_scalar(x) - libm).abs();
            assert!(err <= 3e-6, "gelu_scalar({x}) is {err:e} from libm's");
        }
    }

    #[test]
    fn gelu_grad_scalar_matches_a_central_difference_in_f64() {
        let gelu = |x: f64| {
            let inner = GELU_C as f64 * (x + GELU_A as f64 * x * x * x);
            0.5 * x * (1.0 + inner.tanh())
        };
        // Measured 4.2e-6, at x = -4.84: there `1 − t²` multiplies the
        // error of a tanh one ulp from −1 by ≈ 8.
        let h = 1e-4;
        for x in sweep(12.0, 1 << 16) {
            let want = (gelu(x as f64 + h) - gelu(x as f64 - h)) / (2.0 * h);
            let err = (gelu_grad_scalar(x) as f64 - want).abs();
            assert!(err <= 1e-5, "gelu_grad_scalar({x}) is {err:e} from {want}");
        }
    }

    #[test]
    fn activation_bits_are_pinned() {
        // (x, tanh_scalar, gelu_scalar, gelu_grad_scalar). A row that moves
        // moves every Transformer score in the repo: it means a constant,
        // the clamp or the order of a Horner step was edited.
        let pinned: [(f32, u32, u32, u32); 16] = [
            (-9.0, 0xbf800000, 0x80000000, 0x00000000),
            (-3.0, 0xbf7ebbe8, 0xbb6e6380, 0xbc3dcd09),
            (-2.0, 0xbf76ca83, 0xbd39f7b0, 0xbdb054ba),
            (-1.0, 0xbf42f7d6, 0xbe229e8e, 0xbda9e912),
            (-0.5, 0xbeec9a9f, 0xbe1dfd26, 0x3e07d030),
            (-0.0001, 0xb8d1b715, 0xb851b2ce, 0x3efff58a),
            (1e-30, 0x0da2425f, 0x0d224260, 0x3f000000),
            (0.01, 0x3c23d5a3, 0x3ba525b0, 0x3f020ae2),
            (0.1, 0x3dcc1ebb, 0x3d5d1d05, 0x3f145b8b),
            (0.5, 0x3eec9a9f, 0x3eb1016d, 0x3f5e0bf4),
            (0.797_884_6, 0x3f29b0b3, 0x3f20d6ae, 0x3f826663),
            (1.0, 0x3f42f7d6, 0x3f57585c, 0x3f8a9e91),
            (2.0, 0x3f76ca83, 0x3ffa3042, 0x3f8b054b),
            (4.14, 0x3f7fdec7, 0x40847a96, 0x3f8005d4),
            (5.827_876, 0x3f7ffee4, 0x40ba7df6, 0x3f800000),
            (7.905_311, 0x3f800000, 0x40fcf84f, 0x3f800000),
        ];
        for (x, tanh, gelu, grad) in pinned {
            for (name, got, want) in [
                ("tanh_scalar", tanh_scalar(x), tanh),
                ("gelu_scalar", gelu_scalar(x), gelu),
                ("gelu_grad_scalar", gelu_grad_scalar(x), grad),
            ] {
                let got = got.to_bits();
                assert_eq!(got, want, "{name}({x:?}) moved: {got:#010x}");
            }
        }
    }

    /// Distance in ulps between two finite non-negative `f32`s.
    fn ulps(a: f32, b: f32) -> u32 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn exp_scalar_is_within_1_ulp_of_the_correctly_rounded_exp() {
        // Measured over every f32 in [EXP_LO, EXP_HI]: at most 1 ulp.
        let steps = 1u32 << 20;
        let span = EXP_HI as f64 - EXP_LO as f64;
        let dense = (0..=steps).map(|i| (EXP_LO as f64 + span * i as f64 / steps as f64) as f32);
        let powers_of_two = (-149..=6).flat_map(|e| [2f64.powi(e) as f32, -(2f64.powi(e) as f32)]);
        for x in dense.chain(powers_of_two).filter(|x| (EXP_LO..=EXP_HI).contains(x)) {
            let want = (x as f64).exp() as f32;
            let y = exp_scalar(x);
            assert!(ulps(y, want) <= 1, "exp_scalar({x:e}) = {y:e}, want {want:e}");
        }
    }

    #[test]
    fn exp_scalar_at_zero_infinity_nan_and_the_range_edges() {
        assert_eq!(exp_scalar(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp_scalar(-0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp_scalar(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp_scalar(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert!(exp_scalar(f32::NAN).is_nan());
        assert!(exp_scalar(-f32::NAN).is_nan());
        // The last input with a normal result, and the next one down.
        assert!(exp_scalar(EXP_LO) >= f32::MIN_POSITIVE);
        assert!((EXP_LO as f64).exp() >= f32::MIN_POSITIVE as f64);
        let below = f32::from_bits(EXP_LO.to_bits() + 1);
        assert!((below as f64).exp() < f32::MIN_POSITIVE as f64);
        assert_eq!(exp_scalar(below).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp_scalar(f32::MIN).to_bits(), 0.0f32.to_bits());
        // The last input with a finite result, and the next one up.
        assert!(exp_scalar(EXP_HI).is_finite());
        let above = f32::from_bits(EXP_HI.to_bits() + 1);
        assert!(!((above as f64).exp() as f32).is_finite());
        assert_eq!(exp_scalar(above), f32::INFINITY);
        assert_eq!(exp_scalar(f32::MAX), f32::INFINITY);
        // The maps over it keep a NaN visible.
        assert!(t(&[f32::NAN]).exp().data()[0].is_nan());
        assert!(t(&[f32::NAN]).sigmoid().data()[0].is_nan());
        assert_eq!(t(&[f32::NEG_INFINITY, f32::INFINITY]).sigmoid().data(), &[0.0, 1.0]);
    }

    #[test]
    fn exp_bits_are_pinned() {
        // A row that moves moves every softmax, loss and score in the repo:
        // it means a constant, the clamp, the reduction or the order of a
        // Horner step was edited.
        let pinned: [(f32, u32); 16] = [
            (-87.336_54, 0x00800026),
            (-50.0, 0x1b692beb),
            (-20.0, 0x310da433),
            (-5.5, 0x3b85ea53),
            (-1.0, 0x3ebc5ab2),
            (-0.346_573_6, 0x3f3504f3),
            (-1e-4, 0x3f7ff972),
            (1e-30, 0x3f800000),
            (1e-7, 0x3f800001),
            (0.1, 0x3f8d763e),
            (0.5, 0x3fd3094c),
            (1.0, 0x402df854),
            (std::f32::consts::LN_2, 0x40000000),
            (10.0, 0x46ac14ee),
            (64.0, 0x6da12cc2),
            (88.722_83, 0x7f7fff84),
        ];
        for (x, want) in pinned {
            let got = exp_scalar(x).to_bits();
            assert_eq!(got, want, "exp_scalar({x:?}) moved: {got:#010x}");
        }
        // An edit that keeps those 16 (a fused step moves a few results by
        // an ulp) still moves the FNV-1a digest of a dense sweep.
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for x in sweep(90.0, 1 << 20) {
            for byte in exp_scalar(x).to_bits().to_le_bytes() {
                digest = (digest ^ byte as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(digest, 0x8302_fc3a_7ac7_81ec, "exp_scalar's sweep moved: {digest:#018x}");
    }

    /// The softmax contract as plain loops: the maximum in index order,
    /// [`exp_scalar`], the sum in index order below 64 and into `i mod 16`
    /// banks from 64, the division.
    fn softmax_reference(row: &mut [f32]) -> f32 {
        let mut max = f32::NEG_INFINITY;
        for &x in row.iter() {
            max = max.max(x);
        }
        for x in row.iter_mut() {
            *x = exp_scalar(*x - max);
        }
        let mut sum = 0.0f32;
        if row.len() < 64 {
            for &x in row.iter() {
                sum += x;
            }
        } else {
            let mut banks = [0.0f32; 16];
            for (i, &x) in row.iter().enumerate() {
                banks[i % 16] += x;
            }
            for b in banks {
                sum += b;
            }
        }
        if sum > 0.0 {
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
        sum
    }

    /// `a` and `b` are the same `f32`, or both NaN.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn every_softmax_arm_matches_the_reference_bit_for_bit() {
        let mut rng = Rng64::seed_from(43);
        let widths: Vec<usize> = (1..=130).chain([255, 990, 2450]).collect();
        // The dispatch's edges: the vector arms from 32, the banked sum
        // from 64.
        for edge in [SOFTMAX_VECTOR_MIN - 1, SOFTMAX_VECTOR_MIN, SOFTMAX_BANKED_MIN - 1, SOFTMAX_BANKED_MIN] {
            assert!(widths.contains(&edge), "width {edge} is swept");
        }
        for width in widths {
            let logits: Vec<f32> = (0..width).map(|_| 4.0 * rng.normal()).collect();
            let mut rows = vec![("finite", logits.clone())];
            let mut masked = logits.clone();
            for x in masked.iter_mut().skip(1).step_by(3) {
                *x = f32::NEG_INFINITY;
            }
            rows.push(("some −∞", masked));
            rows.push(("all −∞", vec![f32::NEG_INFINITY; width]));
            let mut nan = logits.clone();
            nan[width / 2] = f32::NAN;
            rows.push(("a NaN", nan));
            let mut inf = logits.clone();
            inf[width - 1] = f32::INFINITY;
            rows.push(("a +∞", inf));
            let mut far = logits;
            far[0] = 200.0; // every other entry underflows to +0
            rows.push(("underflow", far));
            for (kind, row) in &rows {
                let mut want = row.clone();
                let want_sum = softmax_reference(&mut want);
                assert_eq!(want_sum.is_nan(), want.iter().any(|p| p.is_nan()), "{kind} row of {width}");
                for arm in Arm::available() {
                    let mut got = row.clone();
                    let sum = softmax_on(arm, &mut got);
                    let at = format!("{:?} arm, {kind} row of {width}", arm.level());
                    assert!(same(sum, want_sum), "{at}: sum {sum:e}, want {want_sum:e}");
                    for (j, (&g, &w)) in got.iter().zip(&want).enumerate() {
                        assert!(same(g, w), "{at}, entry {j}: {g:e}, want {w:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn short_softmax_rows_sum_in_index_order() {
        // Below 64 the sum is the plain in-order one, so a row padded with
        // `−∞` (the masked attention chain) keeps the bits of the row
        // without the padding (the allowed-keys kernel).
        let mut rng = Rng64::seed_from(7);
        for width in 1..64 {
            let logits: Vec<f32> = (0..width).map(|_| 3.0 * rng.normal()).collect();
            let max = logits.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let in_order = logits.iter().fold(0.0f32, |s, &x| s + exp_scalar(x - max));
            let mut row = logits.clone();
            assert_eq!(softmax_in_place(&mut row).to_bits(), in_order.to_bits(), "width {width}");
            let mut padded = logits;
            padded.resize(63, f32::NEG_INFINITY);
            softmax_in_place(&mut padded);
            let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&padded[..width]), bits(&row), "width {width} padded to 63");
        }
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], &[2, 3]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
        // Large-but-equal logits must not overflow.
        assert!((s.at2(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn l2_normalize() {
        let m = Tensor::from_vec(vec![3.0, 4.0, 0.0, 0.0], &[2, 2]);
        let n = m.l2_normalize_rows();
        assert!((n.at2(0, 0) - 0.6).abs() < 1e-6);
        assert!((n.at2(0, 1) - 0.8).abs() < 1e-6);
        // zero row unchanged
        assert_eq!(n.row(1), &[0.0, 0.0]);
    }
}
