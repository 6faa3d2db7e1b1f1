//! A minimal dense 2-D tensor.
//!
//! Everything in the model zoo (embeddings, LSTM states, convolution
//! activations, logits) is a row-major 2-D `f32` matrix; sequences are
//! `(seq_len, dim)` and vectors are `(1, dim)`. Keeping a single concrete
//! shape rules out a whole class of broadcasting bugs and keeps the
//! autograd tape simple.
//!
//! Hot-path storage comes from the thread-local buffer arena
//! (`arena.rs`): the `*_pooled` constructors pop recycled buffers and
//! [`Tensor::recycle`] files them back, so steady-state
//! training/inference steps allocate O(1) fresh buffers.

use serde::{Deserialize, Serialize};

use crate::arena;

/// Row-major 2-D tensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f32>,
}

impl Tensor {
    /// All-zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// All-zero tensor backed by the thread-local buffer arena.
    pub fn zeros_pooled(rows: usize, cols: usize) -> Tensor {
        Tensor {
            rows,
            cols,
            data: arena::take_zeroed(rows * cols),
        }
    }

    /// Copy of `self` backed by the arena.
    pub fn copy_pooled(&self) -> Tensor {
        let mut data = arena::take_empty(self.data.len());
        data.extend_from_slice(&self.data);
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Build from an exact-size iterator into an arena buffer.
    pub(crate) fn collect_pooled(
        rows: usize,
        cols: usize,
        it: impl Iterator<Item = f32>,
    ) -> Tensor {
        let mut data = arena::take_empty(rows * cols);
        data.extend(it);
        assert_eq!(data.len(), rows * cols, "shape/iterator mismatch");
        Tensor { rows, cols, data }
    }

    /// Return this tensor's buffer to the thread-local arena.
    pub fn recycle(mut self) {
        arena::give(std::mem::take(&mut self.data));
    }

    /// Tensor from a flat row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { rows, cols, data }
    }

    /// 1×n row vector.
    pub fn row(data: Vec<f32>) -> Tensor {
        let cols = data.len();
        Tensor {
            rows: 1,
            cols,
            data,
        }
    }

    /// Scalar (1×1) tensor.
    pub fn scalar(v: f32) -> Tensor {
        Tensor {
            rows: 1,
            cols: 1,
            data: vec![v],
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Value at (r, c).
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a scalar tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() on non-scalar");
        self.data[0]
    }

    /// Matrix multiply: (m,k) × (k,n) → (m,n).
    ///
    /// This is the workspace's one matmul kernel, and its numeric order
    /// is a *contract*: each output element accumulates its k-products
    /// in ascending `p` order starting from its initial value (ikj
    /// order, no k-tiling), and rows never mix. Because of that, the
    /// result row for input row `i` is bit-identical whether `i` arrives
    /// alone as a (1,k) vector or stacked into a (B,k) batch — the
    /// property the batched inference path relies on to stay byte-equal
    /// to the per-example path.
    ///
    /// Mechanically the kernel *row-blocks*: four output rows advance
    /// through `p` together so each `b` row is loaded once per block
    /// instead of once per row — the concrete reason one `(B,k)·(k,n)`
    /// product beats B vector-matrix products. Blocking shares loads
    /// only; every row still performs its own adds in the contract
    /// order, and the inner axpy vectorizes without reassociating any
    /// sum.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (m, n) = (self.rows, other.cols);
        let mut out = Tensor::from_vec(m, n, arena::take_zeroed(m * n));
        out.matmul_acc(self, other);
        out
    }

    /// Matrix-multiply-accumulate: `self += a · b` with the
    /// [`Tensor::matmul`] kernel (same contract) into an existing
    /// buffer — the fused-layer ops use it to skip intermediate
    /// products.
    ///
    /// The kernel body lives in `sqlan-simd` (`matmul_acc_f32`), which
    /// compiles it once at the scalar baseline — byte-for-byte the
    /// historical 4×16 register-tiled loop — and once under AVX2 with a
    /// wider tile, dispatching at runtime. Both copies honor the
    /// accumulation-order contract above, so the tier is invisible to
    /// results.
    pub fn matmul_acc(&mut self, a: &Tensor, b: &Tensor) {
        assert_eq!(a.cols, b.rows, "matmul_acc shape mismatch");
        assert_eq!(self.shape(), (a.rows, b.cols), "matmul_acc out shape");
        let (m, k, n) = (a.rows, a.cols, b.cols);
        sqlan_simd::matmul_acc_f32(&mut self.data, &a.data, &b.data, m, k, n);
    }

    /// Transposed copy (blocked: both source and destination are walked
    /// in 32×32 tiles so neither side strides a whole row per element —
    /// the naive loop thrashes cache on the tall matrices backward
    /// passes transpose).
    pub fn transpose(&self) -> Tensor {
        const B: usize = 32;
        let (r, c) = (self.rows, self.cols);
        let mut out = arena::take_zeroed(r * c);
        for r0 in (0..r).step_by(B) {
            let r1 = (r0 + B).min(r);
            for c0 in (0..c).step_by(B) {
                let c1 = (c0 + B).min(c);
                for i in r0..r1 {
                    for j in c0..c1 {
                        out[j * r + i] = self.data[i * c + j];
                    }
                }
            }
        }
        Tensor::from_vec(c, r, out)
    }

    /// Element-wise in-place accumulate: `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        sqlan_simd::add_assign_f32(&mut self.data, &other.data);
    }

    /// In-place scale.
    pub fn scale_assign(&mut self, k: f32) {
        sqlan_simd::scale_f32(&mut self.data, k);
    }

    /// Zero out in place (for gradient reuse).
    pub fn zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Map a unary function over a copy.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::collect_pooled(self.rows, self.cols, self.data.iter().map(|&v| f(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.at(0, 0), 1.0);
        assert_eq!(t.at(1, 2), 6.0);
        assert_eq!(t.row_slice(1), &[4., 5., 6.]);
        assert_eq!(t.shape(), (2, 3));
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn bad_shape_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(2, 2, vec![3., 1., 4., 1.]);
        let i = Tensor::from_vec(2, 2, vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_rows_are_batch_invariant() {
        // The kernel contract: row i of a (B,k)·(k,n) product is bitwise
        // the row produced by the (1,k)·(k,n) product of that row alone.
        let b = Tensor::from_vec(3, 4, (0..12).map(|i| (i as f32).sin()).collect());
        let batch = Tensor::from_vec(5, 3, (0..15).map(|i| (i as f32).cos()).collect());
        let full = batch.matmul(&b);
        for r in 0..batch.rows {
            let solo = Tensor::row(batch.row_slice(r).to_vec()).matmul(&b);
            let full_bits: Vec<u32> = full.row_slice(r).iter().map(|f| f.to_bits()).collect();
            let solo_bits: Vec<u32> = solo.row_slice(0).iter().map(|f| f.to_bits()).collect();
            assert_eq!(full_bits, solo_bits, "row {r}");
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().at(2, 1), 6.0);
    }

    #[test]
    fn transpose_blocked_matches_naive_on_odd_shapes() {
        // Shapes straddling the 32-tile boundary.
        for (r, c) in [(1, 1), (31, 33), (32, 32), (33, 65), (100, 7)] {
            let a = Tensor::from_vec(r, c, (0..r * c).map(|i| i as f32).collect());
            let t = a.transpose();
            assert_eq!(t.shape(), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t.at(j, i), a.at(i, j), "({i},{j}) of {r}x{c}");
                }
            }
        }
    }

    #[test]
    fn pooled_zeros_and_recycle_roundtrip() {
        let t = Tensor::zeros_pooled(4, 5);
        assert_eq!(t.shape(), (4, 5));
        assert!(t.data.iter().all(|&v| v == 0.0));
        let u = t.copy_pooled();
        t.recycle();
        u.recycle();
        // A fresh pooled tensor after recycling must still be zeroed.
        let z = Tensor::zeros_pooled(4, 5);
        assert!(z.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn norm_and_scale() {
        let mut a = Tensor::row(vec![3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        a.scale_assign(2.0);
        assert_eq!(a.data, vec![6.0, 8.0]);
        a.zero();
        assert_eq!(a.data, vec![0.0, 0.0]);
    }
}
