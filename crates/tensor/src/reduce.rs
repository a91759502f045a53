//! Reductions over tensors and matrix axes.

use crate::Tensor;

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Maximum element (NEG_INFINITY for empty tensors).
    pub fn max(&self) -> f32 {
        self.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (INFINITY for empty tensors).
    pub fn min(&self) -> f32 {
        self.data().iter().cloned().fold(f32::INFINITY, f32::min)
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f32 {
        self.data().iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Column sums of a matrix → vector of length `cols`.
    pub fn sum_rows(&self) -> Tensor {
        assert!(self.rank() == 2, "sum_rows requires a matrix");
        let (r, c) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; c];
        for i in 0..r {
            for (o, &v) in out.iter_mut().zip(self.row(i)) {
                *o += v;
            }
        }
        Tensor::from_vec(out, &[c])
    }

    /// Column means of a matrix → vector of length `cols`.
    pub fn mean_rows(&self) -> Tensor {
        let r = self.rows() as f32;
        self.sum_rows().scale(1.0 / r)
    }

    /// Per-column variance of a matrix (population variance, 1/N).
    pub fn var_rows(&self) -> Tensor {
        assert!(self.rank() == 2, "var_rows requires a matrix");
        let mean = self.mean_rows();
        let (r, c) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; c];
        for i in 0..r {
            for (j, &v) in self.row(i).iter().enumerate() {
                let d = v - mean.data()[j];
                out[j] += d * d;
            }
        }
        for o in &mut out {
            *o /= r as f32;
        }
        Tensor::from_vec(out, &[c])
    }

    /// Count of NaN or infinite elements; useful for training diagnostics.
    pub fn non_finite_count(&self) -> usize {
        self.data().iter().filter(|x| !x.is_finite()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_reductions() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 2.0 / 3.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert!((t.frob_norm() - 14.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn axis_reductions() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(m.sum_rows().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(m.mean_rows().data(), &[2.5, 3.5, 4.5]);
    }

    #[test]
    fn variance() {
        let m = Tensor::from_vec(vec![0.0, 10.0, 2.0, 10.0], &[2, 2]);
        let v = m.var_rows();
        assert_eq!(v.data(), &[1.0, 0.0]);
    }

    #[test]
    fn non_finite_detection() {
        let t = Tensor::from_slice(&[1.0, f32::NAN, f32::INFINITY]);
        assert_eq!(t.non_finite_count(), 2);
        assert_eq!(Tensor::zeros(&[3]).non_finite_count(), 0);
    }
}
