use crate::{Result, Shape, TensorError};

/// A dense, contiguous, row-major `f32` tensor.
///
/// All operations produce new contiguous tensors; in-place variants are
/// provided where the training loop is hot (`add_assign_`, `scale_`).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ----- constructors -------------------------------------------------

    /// Build a tensor from raw data. Panics if `data.len()` doesn't match.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking wrapper; try_from_vec is the Result path for untrusted input"
    )]
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        Self::try_from_vec(data, dims).expect("Tensor::from_vec")
    }

    /// Fallible version of [`Tensor::from_vec`].
    pub fn try_from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.numel() != data.len() {
            return Err(TensorError::ElementCount {
                op: "from_vec",
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// All-zeros tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// All-ones tensor.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::new(&[]),
            data: vec![value],
        }
    }

    /// 1-D tensor from a slice.
    pub fn from_slice(values: &[f32]) -> Self {
        Tensor {
            shape: Shape::new(&[values.len()]),
            data: values.to_vec(),
        }
    }

    // ----- accessors ----------------------------------------------------

    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    pub fn numel(&self) -> usize {
        self.data.len()
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The single value of a scalar or one-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() requires exactly one element, shape is {}",
            self.shape
        );
        self.data[0]
    }

    /// Element at `(row, col)` of a matrix.
    pub fn at2(&self, row: usize, col: usize) -> f32 {
        debug_assert!(self.rank() == 2, "at2 on rank-{} tensor", self.rank());
        self.data[row * self.shape.dim(1) + col]
    }

    /// Mutable element at `(row, col)` of a matrix.
    pub fn at2_mut(&mut self, row: usize, col: usize) -> &mut f32 {
        debug_assert!(self.rank() == 2);
        let cols = self.shape.dim(1);
        &mut self.data[row * cols + col]
    }

    /// Number of rows of a matrix.
    pub fn rows(&self) -> usize {
        assert!(self.rank() == 2, "rows() on rank-{} tensor", self.rank());
        self.shape.dim(0)
    }

    /// Number of columns of a matrix.
    pub fn cols(&self) -> usize {
        assert!(self.rank() == 2, "cols() on rank-{} tensor", self.rank());
        self.shape.dim(1)
    }

    /// Borrow row `r` of a matrix as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        let cols = self.cols();
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Borrow row `r` of a matrix as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let cols = self.cols();
        &mut self.data[r * cols..(r + 1) * cols]
    }

    // ----- shape manipulation --------------------------------------------

    /// Reinterpret the data with a new shape of identical element count.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking wrapper; try_reshape is the Result path"
    )]
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        self.try_reshape(dims).expect("Tensor::reshape")
    }

    /// Fallible version of [`Tensor::reshape`].
    pub fn try_reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims);
        if shape.numel() != self.numel() {
            return Err(TensorError::ElementCount {
                op: "reshape",
                expected: self.numel(),
                actual: shape.numel(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Transpose a matrix.
    pub fn transpose(&self) -> Tensor {
        assert!(self.rank() == 2, "transpose requires a matrix");
        let (r, c) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; r * c];
        // Block the loop for cache friendliness on large matrices.
        const B: usize = 32;
        for i0 in (0..r).step_by(B) {
            for j0 in (0..c).step_by(B) {
                for i in i0..(i0 + B).min(r) {
                    for j in j0..(j0 + B).min(c) {
                        out[j * r + i] = self.data[i * c + j];
                    }
                }
            }
        }
        Tensor {
            shape: Shape::new(&[c, r]),
            data: out,
        }
    }

    /// Copy rows `start..end` of a matrix.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert!(self.rank() == 2, "slice_rows requires a matrix");
        assert!(
            start <= end && end <= self.rows(),
            "slice_rows: {start}..{end} out of bounds for {} rows",
            self.rows()
        );
        let cols = self.cols();
        Tensor {
            shape: Shape::new(&[end - start, cols]),
            data: self.data[start * cols..end * cols].to_vec(),
        }
    }

    /// Copy columns `start..end` of a matrix.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        assert!(self.rank() == 2, "slice_cols requires a matrix");
        assert!(
            start <= end && end <= self.cols(),
            "slice_cols: {start}..{end} out of bounds for {} cols",
            self.cols()
        );
        let (r, c) = (self.rows(), self.cols());
        let w = end - start;
        let mut out = Vec::with_capacity(r * w);
        for i in 0..r {
            out.extend_from_slice(&self.data[i * c + start..i * c + end]);
        }
        Tensor {
            shape: Shape::new(&[r, w]),
            data: out,
        }
    }

    /// Gather rows of a matrix by index (embedding-style lookup).
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        assert!(self.rank() == 2, "gather_rows requires a matrix");
        let cols = self.cols();
        let rows = self.rows();
        let mut out = Vec::with_capacity(indices.len() * cols);
        for &ix in indices {
            assert!(ix < rows, "gather_rows: index {ix} >= {rows}");
            out.extend_from_slice(&self.data[ix * cols..(ix + 1) * cols]);
        }
        Tensor {
            shape: Shape::new(&[indices.len(), cols]),
            data: out,
        }
    }

    /// Stack matrices vertically (same column count).
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let cols = parts[0].cols();
        let mut data = Vec::new();
        let mut rows = 0;
        for p in parts {
            assert_eq!(p.cols(), cols, "concat_rows: column mismatch");
            data.extend_from_slice(&p.data);
            rows += p.rows();
        }
        Tensor {
            shape: Shape::new(&[rows, cols]),
            data,
        }
    }

    /// Stack matrices horizontally (same row count).
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = parts[0].rows();
        let total_cols: usize = parts.iter().map(|p| p.cols()).sum();
        let mut data = Vec::with_capacity(rows * total_cols);
        for r in 0..rows {
            for p in parts {
                assert_eq!(p.rows(), rows, "concat_cols: row mismatch");
                data.extend_from_slice(p.row(r));
            }
        }
        Tensor {
            shape: Shape::new(&[rows, total_cols]),
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.numel(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let o = Tensor::ones(&[4]);
        assert!(o.data().iter().all(|&x| x == 1.0));
        let e = Tensor::eye(3);
        assert_eq!(e.at2(0, 0), 1.0);
        assert_eq!(e.at2(0, 1), 0.0);
        assert_eq!(e.at2(2, 2), 1.0);
    }

    #[test]
    fn from_vec_checks_count() {
        assert!(Tensor::try_from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::try_from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]);
        let r = t.reshape(&[2, 6]);
        assert_eq!(r.dims(), &[2, 6]);
        assert_eq!(r.data(), t.data());
        assert!(t.try_reshape(&[5, 5]).is_err());
    }

    #[test]
    fn transpose_small() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = t.transpose();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_involution_large() {
        // Exercises the blocked path.
        let t = Tensor::from_vec((0..70 * 45).map(|x| x as f32).collect(), &[70, 45]);
        assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn slicing() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]);
        let r = t.slice_rows(1, 3);
        assert_eq!(r.dims(), &[2, 4]);
        assert_eq!(r.row(0), &[4.0, 5.0, 6.0, 7.0]);
        let c = t.slice_cols(1, 3);
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.row(0), &[1.0, 2.0]);
        assert_eq!(c.row(2), &[9.0, 10.0]);
    }

    #[test]
    fn gather_rows_lookup() {
        let t = Tensor::from_vec((0..8).map(|x| x as f32).collect(), &[4, 2]);
        let g = t.gather_rows(&[3, 0, 3]);
        assert_eq!(g.dims(), &[3, 2]);
        assert_eq!(g.data(), &[6.0, 7.0, 0.0, 1.0, 6.0, 7.0]);
    }

    #[test]
    fn concat() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]);
        let v = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(v.dims(), &[2, 2]);
        assert_eq!(v.data(), &[1.0, 2.0, 3.0, 4.0]);
        let h = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(h.dims(), &[1, 4]);
        assert_eq!(h.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "gather_rows")]
    fn gather_out_of_bounds_panics() {
        let t = Tensor::zeros(&[2, 2]);
        t.gather_rows(&[2]);
    }

    #[test]
    fn item_scalar() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }
}
