//! Elementwise and broadcast arithmetic on [`Tensor`].

use crate::{Result, Tensor, TensorError};

macro_rules! binary_op {
    ($name:ident, $try_name:ident, $op:tt) => {
        /// Elementwise operation; panics on shape mismatch.
        pub fn $name(&self, other: &Tensor) -> Tensor {
            // wr-check: allow(R1) — documented panicking wrapper; the
            // $try_name twin is the Result path.
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

    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
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

/// GELU with the tanh approximation used by BERT.
pub fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
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
