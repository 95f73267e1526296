//! Dense matrices over a [`Field`], with the operations erasure codes
//! need: multiplication, Gauss–Jordan inversion, rank, and the
//! Vandermonde / Cauchy constructors from which systematic Reed–Solomon
//! generator matrices are derived (following Plank's Jerasure tutorial).

use crate::field::Field;
use std::marker::PhantomData;

/// A dense row-major matrix over the field `F`.
///
/// Elements are stored as `u32` but always lie in `0..F::ORDER`.
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix<F: Field> {
    rows: usize,
    cols: usize,
    data: Vec<u32>,
    _f: PhantomData<F>,
}

impl<F: Field> std::fmt::Debug for Matrix<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix<{}x{}> over GF(2^{})", self.rows, self.cols, F::W)?;
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:>4x}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl<F: Field> std::ops::Index<(usize, usize)> for Matrix<F> {
    type Output = u32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &u32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl<F: Field> std::ops::IndexMut<(usize, usize)> for Matrix<F> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut u32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl<F: Field> Matrix<F> {
    /// An all-zero `rows × cols` matrix.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0; rows * cols],
            _f: PhantomData,
        }
    }

    /// Build from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows*cols` or any element is outside the
    /// field.
    pub fn from_data(rows: usize, cols: usize, data: Vec<u32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data size mismatch");
        assert!(
            data.iter().all(|&x| x < F::ORDER),
            "element outside GF(2^{})",
            F::W
        );
        Self {
            rows,
            cols,
            data,
            _f: PhantomData,
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zero(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow one row as a slice.
    pub fn row(&self, r: usize) -> &[u32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row-major backing data.
    pub fn data(&self) -> &[u32] {
        &self.data
    }

    /// A `rows × cols` Vandermonde matrix: entry `(i, j) = xᵢʲ` with
    /// `xᵢ = i` (distinct field elements).
    ///
    /// # Panics
    /// Panics if `rows > F::ORDER` (elements would repeat).
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        assert!(
            rows <= F::ORDER as usize,
            "vandermonde needs distinct evaluation points"
        );
        let mut m = Self::zero(rows, cols);
        for i in 0..rows {
            let mut v = 1u32;
            for j in 0..cols {
                m[(i, j)] = v;
                v = F::mul(v, i as u32);
            }
        }
        m
    }

    /// A `rows × cols` Cauchy matrix: entry `(i, j) = 1/(xᵢ + yⱼ)` with
    /// `xᵢ = i` and `yⱼ = rows + j`. Every square submatrix of a Cauchy
    /// matrix is non-singular, which makes identity-over-Cauchy a
    /// systematic MDS generator directly.
    ///
    /// # Panics
    /// Panics if `rows + cols > F::ORDER`.
    pub fn cauchy(rows: usize, cols: usize) -> Self {
        assert!(
            rows + cols <= F::ORDER as usize,
            "cauchy needs {} distinct elements in GF(2^{})",
            rows + cols,
            F::W
        );
        let mut m = Self::zero(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = F::inv((i as u32) ^ (rows + j) as u32);
            }
        }
        m
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn mul(&self, rhs: &Self) -> Self {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out = Self::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for l in 0..self.cols {
                let a = self[(i, l)];
                if a == 0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    let t = F::mul(a, rhs[(l, j)]);
                    out[(i, j)] ^= t;
                }
            }
        }
        out
    }

    /// Pick a subset of rows into a new matrix.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn select_rows(&self, rows: &[usize]) -> Self {
        let mut out = Self::zero(rows.len(), self.cols);
        for (oi, &r) in rows.iter().enumerate() {
            assert!(r < self.rows, "row index out of range");
            for c in 0..self.cols {
                out[(oi, c)] = self[(r, c)];
            }
        }
        out
    }

    /// Stack `self` on top of `below`.
    ///
    /// # Panics
    /// Panics if column counts differ.
    pub fn vstack(&self, below: &Self) -> Self {
        assert_eq!(self.cols, below.cols, "vstack column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&below.data);
        Self::from_data(self.rows + below.rows, self.cols, data)
    }

    /// Gauss–Jordan inverse. Returns `None` when singular.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn invert(&self) -> Option<Self> {
        assert_eq!(self.rows, self.cols, "inverse of non-square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Self::identity(n);
        for col in 0..n {
            // Find a pivot.
            let pivot = (col..n).find(|&r| a[(r, col)] != 0)?;
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Normalise the pivot row.
            let p = a[(col, col)];
            if p != 1 {
                let pinv = F::inv(p);
                a.scale_row(col, pinv);
                inv.scale_row(col, pinv);
            }
            // Eliminate the column everywhere else.
            for r in 0..n {
                if r != col && a[(r, col)] != 0 {
                    let f = a[(r, col)];
                    a.add_scaled_row(col, r, f);
                    inv.add_scaled_row(col, r, f);
                }
            }
        }
        Some(inv)
    }

    /// Rank via Gaussian elimination (non-destructive).
    pub fn rank(&self) -> usize {
        let mut a = self.clone();
        let mut rank = 0;
        for col in 0..a.cols {
            if rank == a.rows {
                break;
            }
            if let Some(p) = (rank..a.rows).find(|&r| a[(r, col)] != 0) {
                a.swap_rows(p, rank);
                let pinv = F::inv(a[(rank, col)]);
                a.scale_row(rank, pinv);
                for r in 0..a.rows {
                    if r != rank && a[(r, col)] != 0 {
                        let f = a[(r, col)];
                        a.add_scaled_row(rank, r, f);
                    }
                }
                rank += 1;
            }
        }
        rank
    }

    /// True when square and invertible.
    pub fn is_nonsingular(&self) -> bool {
        self.rows == self.cols && self.rank() == self.rows
    }

    fn swap_rows(&mut self, r0: usize, r1: usize) {
        if r0 == r1 {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(r0 * self.cols + c, r1 * self.cols + c);
        }
    }

    fn scale_row(&mut self, r: usize, f: u32) {
        for c in 0..self.cols {
            let v = self[(r, c)];
            self[(r, c)] = F::mul(v, f);
        }
    }

    /// `row[dst] ^= f * row[src]`.
    fn add_scaled_row(&mut self, src: usize, dst: usize, f: u32) {
        for c in 0..self.cols {
            let t = F::mul(f, self[(src, c)]);
            self[(dst, c)] ^= t;
        }
    }

    /// Derive the parity sub-matrix of a **systematic** MDS generator from
    /// a Vandermonde matrix, following the classic Plank construction:
    /// build the `(k+m) × k` Vandermonde, then apply column operations
    /// (which preserve "every k rows invertible") until the top `k × k`
    /// block is the identity. The returned `m × k` block holds the parity
    /// coefficients.
    ///
    /// # Panics
    /// Panics if `k + m > F::ORDER`.
    pub fn systematic_vandermonde_parity(k: usize, m: usize) -> Self {
        assert!(
            k + m <= F::ORDER as usize,
            "k+m too large for GF(2^{})",
            F::W
        );
        let mut v = Self::vandermonde(k + m, k);
        // Column-reduce so the top k×k block becomes identity. Column
        // operations are multiplications on the right by invertible
        // matrices, so every k-row submatrix stays invertible.
        for i in 0..k {
            // Ensure v[i][i] != 0 by swapping columns if needed.
            if v[(i, i)] == 0 {
                let j = (i + 1..k)
                    .find(|&j| v[(i, j)] != 0)
                    .expect("vandermonde rows are linearly independent");
                for r in 0..k + m {
                    let tmp = v[(r, i)];
                    v[(r, i)] = v[(r, j)];
                    v[(r, j)] = tmp;
                }
            }
            // Scale column i so the diagonal becomes 1.
            let d = v[(i, i)];
            if d != 1 {
                let dinv = F::inv(d);
                for r in 0..k + m {
                    let t = v[(r, i)];
                    v[(r, i)] = F::mul(t, dinv);
                }
            }
            // Clear the rest of row i with column operations.
            for j in 0..k {
                if j != i && v[(i, j)] != 0 {
                    let f = v[(i, j)];
                    for r in 0..k + m {
                        let t = F::mul(f, v[(r, i)]);
                        v[(r, j)] ^= t;
                    }
                }
            }
        }
        // Top block is now identity; return the bottom m×k parity block.
        let parity_rows: Vec<usize> = (k..k + m).collect();
        v.select_rows(&parity_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gf4, Gf8};

    type M8 = Matrix<Gf8>;
    type M4 = Matrix<Gf4>;

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = M8::vandermonde(4, 4);
        let i = M8::identity(4);
        assert_eq!(a.mul(&i), a);
        assert_eq!(i.mul(&a), a);
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let a = M8::cauchy(5, 5);
        let ainv = a.invert().expect("cauchy is invertible");
        assert_eq!(a.mul(&ainv), M8::identity(5));
        assert_eq!(ainv.mul(&a), M8::identity(5));
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        // Two equal rows.
        let a = M8::from_data(2, 2, vec![1, 2, 1, 2]);
        assert!(a.invert().is_none());
        assert_eq!(a.rank(), 1);
        assert!(!a.is_nonsingular());
    }

    #[test]
    fn zero_matrix_rank_zero() {
        assert_eq!(M8::zero(3, 4).rank(), 0);
    }

    #[test]
    fn vandermonde_square_is_invertible() {
        for n in 1..8 {
            assert!(M8::vandermonde(n, n).is_nonsingular(), "n={n}");
        }
    }

    #[test]
    fn cauchy_every_square_submatrix_invertible_gf4() {
        // Exhaustive over GF(16) with a 3x3 Cauchy: all 1x1, 2x2, 3x3
        // minors must be non-singular.
        let c = M4::cauchy(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                assert_ne!(c[(i, j)], 0);
            }
        }
        // 2x2 minors.
        for r0 in 0..3 {
            for r1 in r0 + 1..3 {
                for c0 in 0..3 {
                    for c1 in c0 + 1..3 {
                        let det =
                            Gf4::mul(c[(r0, c0)], c[(r1, c1)]) ^ Gf4::mul(c[(r0, c1)], c[(r1, c0)]);
                        assert_ne!(det, 0);
                    }
                }
            }
        }
        assert!(c.is_nonsingular());
    }

    /// Enumerate all k-subsets of 0..n in lexicographic order.
    fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut idx: Vec<usize> = (0..k).collect();
        if k > n {
            return out;
        }
        loop {
            out.push(idx.clone());
            // Advance to the next combination.
            let mut i = k;
            while i > 0 {
                i -= 1;
                if idx[i] != i + n - k {
                    idx[i] += 1;
                    for j in i + 1..k {
                        idx[j] = idx[j - 1] + 1;
                    }
                    break;
                }
                if i == 0 {
                    return out;
                }
            }
            if k == 0 {
                return out;
            }
        }
    }

    #[test]
    fn combinations_enumerates_all() {
        assert_eq!(combinations(4, 2).len(), 6);
        assert_eq!(combinations(5, 3).len(), 10);
        assert_eq!(combinations(3, 3), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn systematic_vandermonde_parity_yields_mds() {
        // For (k, m), stacking identity over the parity block must have
        // every k-row subset invertible (MDS property). Exhaustive for
        // small parameters.
        for (k, m) in [(3usize, 2usize), (4, 3), (6, 3)] {
            let p = M8::systematic_vandermonde_parity(k, m);
            assert_eq!(p.rows(), m);
            assert_eq!(p.cols(), k);
            let g = M8::identity(k).vstack(&p);
            for idx in combinations(k + m, k) {
                assert!(
                    g.select_rows(&idx).is_nonsingular(),
                    "rows {idx:?} singular for (k={k}, m={m})"
                );
            }
        }
    }

    #[test]
    fn select_rows_and_vstack() {
        let a = M8::vandermonde(4, 3);
        let top = a.select_rows(&[0, 1]);
        let bot = a.select_rows(&[2, 3]);
        assert_eq!(top.vstack(&bot), a);
    }

    #[test]
    fn rank_of_rectangular() {
        let a = M8::vandermonde(6, 3);
        assert_eq!(a.rank(), 3);
        let b = M8::vandermonde(3, 6);
        assert_eq!(b.rank(), 3);
    }

    #[test]
    #[should_panic]
    fn invert_non_square_panics() {
        let _ = M8::zero(2, 3).invert();
    }
}
