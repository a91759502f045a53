//! Elementwise and broadcast arithmetic on [`Tensor`].

use crate::{Result, Tensor, TensorError};

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

    /// Add `col[i]` to every element of row `i` of a matrix.
    pub fn add_col_broadcast(&self, col: &Tensor) -> Tensor {
        assert!(self.rank() == 2, "add_col_broadcast requires a matrix");
        assert_eq!(col.numel(), self.rows(), "add_col_broadcast: size mismatch");
        let mut out = self.clone();
        for r in 0..out.rows() {
            let v = col.data()[r];
            for a in out.row_mut(r) {
                *a += v;
            }
        }
        out
    }

    // ----- activations / pointwise nonlinearities ------------------------

    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    pub fn sigmoid(&self) -> Tensor {
        self.map(|x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Elementwise [`tanh_scalar`].
    pub fn tanh(&self) -> Tensor {
        self.map(tanh_scalar)
    }

    /// Gaussian error linear unit (tanh approximation, as in BERT/GPT).
    pub fn gelu(&self) -> Tensor {
        self.map(gelu_scalar)
    }

    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
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

    /// Row-wise log-softmax of a matrix (numerically stable).
    pub fn log_softmax_rows(&self) -> Tensor {
        assert!(self.rank() == 2, "log_softmax_rows requires a matrix");
        let mut out = self.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let logsum = row.iter().map(|x| (x - max).exp()).sum::<f32>().ln() + max;
            for x in row {
                *x -= logsum;
            }
        }
        out
    }

    /// Normalize each row of a matrix to unit L2 norm (rows of zeros pass
    /// through unchanged).
    pub fn l2_normalize_rows(&self) -> Tensor {
        assert!(self.rank() == 2, "l2_normalize_rows requires a matrix");
        let mut out = self.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 0.0 {
                for x in row {
                    *x /= norm;
                }
            }
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

/// Horner in `x²`, highest power first; the multiply and the add are
/// rounded separately.
#[inline]
fn horner<const N: usize>(coefficients: &[f32; N], x2: f32) -> f32 {
    let mut acc = coefficients[0];
    for &c in &coefficients[1..] {
        acc = acc * x2 + c;
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

/// Numerically-stable softmax over a slice, in place.
pub fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let col = t(&[100.0, 200.0]);
        assert_eq!(m.add_col_broadcast(&col).data(), &[101.0, 102.0, 203.0, 204.0]);
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
    fn log_softmax_matches_softmax_log() {
        let m = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.0, 0.0, 0.0], &[2, 3]);
        let ls = m.log_softmax_rows();
        let s = m.softmax_rows();
        for i in 0..6 {
            assert!((ls.data()[i] - s.data()[i].ln()).abs() < 1e-5);
        }
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
