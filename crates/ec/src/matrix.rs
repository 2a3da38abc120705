//! Dense matrices over GF(2^8) with the operations Reed–Solomon needs:
//! Vandermonde construction, multiplication, Gaussian inversion, and
//! sub-matrix extraction.

use crate::gf256;

/// A row-major matrix over GF(2^8).
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    pub fn zero(rows: usize, cols: usize) -> Matrix {
        assert!(rows > 0 && cols > 0, "degenerate matrix");
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    /// Vandermonde matrix: `V[r][c] = r^c`. Any `cols` rows of it are
    /// linearly independent (distinct evaluation points), the property
    /// erasure codes rely on.
    pub fn vandermonde(rows: usize, cols: usize) -> Matrix {
        let mut m = Matrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, gf256::pow(r as u8, c));
            }
        }
        m
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> u8 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: u8) {
        self.data[r * self.cols + c] = v;
    }

    pub fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs`.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0 {
                    continue;
                }
                for c in 0..rhs.cols {
                    let v = gf256::mul(a, rhs.get(k, c));
                    out.set(r, c, gf256::add(out.get(r, c), v));
                }
            }
        }
        out
    }

    /// Extract the sub-matrix made of the given rows.
    pub fn select_rows(&self, which: &[usize]) -> Matrix {
        let mut out = Matrix::zero(which.len(), self.cols);
        for (i, &r) in which.iter().enumerate() {
            let src = self.row(r).to_vec();
            out.data[i * self.cols..(i + 1) * self.cols].copy_from_slice(&src);
        }
        out
    }

    /// Invert a square matrix by Gauss–Jordan elimination with partial
    /// pivoting. Returns `None` when singular.
    pub fn invert(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "only square matrices invert");
        let n = self.rows;
        let mut work = self.clone();
        let mut out = Matrix::identity(n);

        for col in 0..n {
            // Find a pivot.
            let pivot = (col..n).find(|&r| work.get(r, col) != 0)?;
            if pivot != col {
                work.swap_rows(pivot, col);
                out.swap_rows(pivot, col);
            }
            // Normalise the pivot row.
            let p = work.get(col, col);
            if p != 1 {
                let ip = gf256::inv(p);
                work.scale_row(col, ip);
                out.scale_row(col, ip);
            }
            // Eliminate the column from every other row.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let f = work.get(r, col);
                if f != 0 {
                    work.add_scaled_row(r, col, f);
                    out.add_scaled_row(r, col, f);
                }
            }
        }
        Some(out)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let c = self.cols;
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * c);
        head[lo * c..(lo + 1) * c].swap_with_slice(&mut tail[..c]);
    }

    fn scale_row(&mut self, r: usize, f: u8) {
        for c in 0..self.cols {
            let v = gf256::mul(self.get(r, c), f);
            self.set(r, c, v);
        }
    }

    /// `row[dst] ^= f * row[src]`.
    fn add_scaled_row(&mut self, dst: usize, src: usize, f: u8) {
        for c in 0..self.cols {
            let v = gf256::add(self.get(dst, c), gf256::mul(f, self.get(src, c)));
            self.set(dst, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_rows(rows: &[&[u8]]) -> Matrix {
        let mut m = Matrix::zero(rows.len(), rows[0].len());
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                m.set(r, c, v);
            }
        }
        m
    }

    #[test]
    fn identity_times_anything() {
        let v = Matrix::vandermonde(4, 3);
        let i3 = Matrix::identity(3);
        assert_eq!(v.mul(&i3), v);
    }

    #[test]
    fn vandermonde_shape() {
        let v = Matrix::vandermonde(5, 3);
        assert_eq!(v.get(0, 0), 1); // 0^0 = 1
        assert_eq!(v.get(0, 1), 0);
        assert_eq!(v.get(3, 1), 3);
        assert_eq!(v.get(3, 2), gf256::mul(3, 3));
    }

    #[test]
    fn invert_round_trip() {
        // Top 4x4 of a Vandermonde with distinct points is invertible.
        let v = Matrix::vandermonde(6, 4).select_rows(&[0, 1, 2, 3]);
        let vi = v.invert().expect("invertible");
        assert_eq!(v.mul(&vi), Matrix::identity(4));
        assert_eq!(vi.mul(&v), Matrix::identity(4));
    }

    #[test]
    fn invert_any_row_selection() {
        // Any 4 distinct rows of an (8,4) Vandermonde must be invertible —
        // this is the erasure-recovery property.
        let v = Matrix::vandermonde(8, 4);
        let picks: [[usize; 4]; 5] = [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
            [0, 2, 4, 6],
            [1, 3, 5, 7],
            [0, 3, 5, 6],
        ];
        for p in picks {
            let sub = v.select_rows(&p);
            let inv = sub
                .invert()
                .unwrap_or_else(|| panic!("rows {p:?} singular"));
            assert_eq!(sub.mul(&inv), Matrix::identity(4));
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let m = from_rows(&[&[1, 2], &[1, 2]]);
        assert!(m.invert().is_none());
        let z = Matrix::zero(3, 3);
        assert!(z.invert().is_none());
    }

    #[test]
    fn mul_against_hand_example() {
        let a = from_rows(&[&[1, 2], &[3, 4]]);
        let b = from_rows(&[&[5, 6], &[7, 8]]);
        let c = a.mul(&b);
        // c[0][0] = 1*5 ^ 2*7
        assert_eq!(c.get(0, 0), gf256::add(gf256::mul(1, 5), gf256::mul(2, 7)));
        assert_eq!(c.get(1, 1), gf256::add(gf256::mul(3, 6), gf256::mul(4, 8)));
    }
}
