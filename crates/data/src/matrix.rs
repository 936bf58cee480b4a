//! Dense, row-major data matrix used by every algorithm in the suite.
//!
//! The matrix is intentionally simple: a `Vec<f64>` with explicit row/column
//! counts.  Every clustering algorithm in this workspace accesses data
//! through row slices, which keeps cache behaviour predictable and avoids a
//! heavyweight linear-algebra dependency.

use std::fmt;
use std::sync::OnceLock;

use crate::fingerprint::{Fingerprint, FingerprintBuilder};

/// A dense, row-major matrix of `f64` values.
///
/// Rows are observations (objects), columns are features (attributes).
///
/// The content [`fingerprint`](DataMatrix::fingerprint) is memoised per
/// instance: the first call hashes every value, later calls read the
/// stored key.  The three `&mut self` methods, [`set`](DataMatrix::set),
/// [`row_mut`](DataMatrix::row_mut) and [`push_row`](DataMatrix::push_row),
/// reset it.  A clone carries it, and equality ignores it: two matrices
/// are equal when their shapes and values are.
///
/// ```
/// use cvcp_data::DataMatrix;
///
/// let m = DataMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(m.n_rows(), 2);
/// assert_eq!(m.n_cols(), 2);
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.row(0), &[1.0, 2.0]);
/// ```
#[derive(Debug, Clone)]
pub struct DataMatrix {
    values: Vec<f64>,
    n_rows: usize,
    n_cols: usize,
    /// The memoised [`DataMatrix::fingerprint`]; empty until first read.
    fingerprint: OnceLock<Fingerprint>,
}

impl PartialEq for DataMatrix {
    /// Shape and values; the fingerprint memo is not content.
    fn eq(&self, other: &Self) -> bool {
        self.n_rows == other.n_rows && self.n_cols == other.n_cols && self.values == other.values
    }
}

impl DataMatrix {
    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n_rows * n_cols`.
    pub fn from_flat(values: Vec<f64>, n_rows: usize, n_cols: usize) -> Self {
        assert_eq!(
            values.len(),
            n_rows * n_cols,
            "flat buffer length {} does not match {}x{}",
            values.len(),
            n_rows,
            n_cols
        );
        Self {
            values,
            n_rows,
            n_cols,
            fingerprint: OnceLock::new(),
        }
    }

    /// Creates a matrix from a slice of equally sized rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let n_cols = rows[0].as_ref().len();
        let mut values = Vec::with_capacity(rows.len() * n_cols);
        for (i, row) in rows.iter().enumerate() {
            let row = row.as_ref();
            assert_eq!(
                row.len(),
                n_cols,
                "row {i} has length {} but expected {n_cols}",
                row.len()
            );
            values.extend_from_slice(row);
        }
        Self {
            values,
            n_rows: rows.len(),
            n_cols,
            fingerprint: OnceLock::new(),
        }
    }

    /// Creates an `n_rows x n_cols` matrix filled with zeros.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Self {
            values: vec![0.0; n_rows * n_cols],
            n_rows,
            n_cols,
            fingerprint: OnceLock::new(),
        }
    }

    /// Number of rows (objects).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns (features).
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// `true` when the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Returns the value at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.n_rows && col < self.n_cols,
            "index out of bounds"
        );
        self.values[row * self.n_cols + col]
    }

    /// Sets the value at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.n_rows && col < self.n_cols,
            "index out of bounds"
        );
        self.fingerprint.take();
        self.values[row * self.n_cols + col] = value;
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(
            i < self.n_rows,
            "row index {i} out of bounds ({})",
            self.n_rows
        );
        &self.values[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Returns a mutable slice for row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(
            i < self.n_rows,
            "row index {i} out of bounds ({})",
            self.n_rows
        );
        self.fingerprint.take();
        &mut self.values[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Iterates over all rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.values
            .chunks_exact(self.n_cols.max(1))
            .take(self.n_rows)
    }

    /// Returns column `j` as a freshly allocated vector.
    pub fn column(&self, j: usize) -> Vec<f64> {
        assert!(
            j < self.n_cols,
            "column index {j} out of bounds ({})",
            self.n_cols
        );
        (0..self.n_rows).map(|i| self.get(i, j)).collect()
    }

    /// The underlying flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Appends a row to the matrix.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match `n_cols` (unless the matrix is
    /// still empty, in which case the row defines the column count).
    pub fn push_row(&mut self, row: &[f64]) {
        if self.n_rows == 0 && self.n_cols == 0 {
            self.n_cols = row.len();
        }
        assert_eq!(row.len(), self.n_cols, "row length mismatch");
        self.fingerprint.take();
        self.values.extend_from_slice(row);
        self.n_rows += 1;
    }

    /// Builds a new matrix containing only the given rows (in the given order).
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        let mut out = DataMatrix::zeros(indices.len(), self.n_cols);
        for (new_i, &old_i) in indices.iter().enumerate() {
            out.row_mut(new_i).copy_from_slice(self.row(old_i));
        }
        out
    }

    /// Column-wise mean of the matrix.  Returns an empty vector for an empty matrix.
    pub fn column_means(&self) -> Vec<f64> {
        if self.n_rows == 0 {
            return vec![0.0; self.n_cols];
        }
        let mut means = vec![0.0; self.n_cols];
        for row in self.rows() {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= self.n_rows as f64;
        }
        means
    }

    /// Column-wise (population) variance of the matrix.
    pub fn column_variances(&self) -> Vec<f64> {
        if self.n_rows == 0 {
            return vec![0.0; self.n_cols];
        }
        let means = self.column_means();
        let mut vars = vec![0.0; self.n_cols];
        for row in self.rows() {
            for ((v, x), m) in vars.iter_mut().zip(row).zip(&means) {
                let d = x - m;
                *v += d * d;
            }
        }
        for v in &mut vars {
            *v /= self.n_rows as f64;
        }
        vars
    }

    /// Column-wise minimum and maximum, as `(mins, maxs)`.
    pub fn column_min_max(&self) -> (Vec<f64>, Vec<f64>) {
        let mut mins = vec![f64::INFINITY; self.n_cols];
        let mut maxs = vec![f64::NEG_INFINITY; self.n_cols];
        for row in self.rows() {
            for j in 0..self.n_cols {
                if row[j] < mins[j] {
                    mins[j] = row[j];
                }
                if row[j] > maxs[j] {
                    maxs[j] = row[j];
                }
            }
        }
        (mins, maxs)
    }

    /// Returns `true` if every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// Content fingerprint: FNV-1a over the shape and every value's bit
    /// pattern, the artifact cache's key for this matrix.  Memoised per
    /// instance, as the type-level docs describe.
    pub fn fingerprint(&self) -> Fingerprint {
        *self.fingerprint.get_or_init(|| {
            let mut h = FingerprintBuilder::new();
            h.write_u64(self.n_rows as u64);
            h.write_u64(self.n_cols as u64);
            for &v in &self.values {
                h.write_f64(v);
            }
            h.finish()
        })
    }
}

impl fmt::Display for DataMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DataMatrix {}x{}", self.n_rows, self.n_cols)?;
        let show = self.n_rows.min(6);
        for i in 0..show {
            let row = self.row(i);
            let cols = row
                .iter()
                .take(8)
                .map(|v| format!("{v:.3}"))
                .collect::<Vec<_>>();
            writeln!(
                f,
                "  [{}{}]",
                cols.join(", "),
                if self.n_cols > 8 { ", …" } else { "" }
            )?;
        }
        if self.n_rows > show {
            writeln!(f, "  … ({} more rows)", self.n_rows - show)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aloi::aloi_k5_dataset;
    use crate::replicas::{ecoli_like, ionosphere_like, iris_like, wine_like, zyeast_like};
    use crate::rng::SeededRng;
    use std::sync::{Arc, Barrier};

    #[test]
    fn from_rows_roundtrip() {
        let m = DataMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.n_cols(), 3);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.column(2), vec![3.0, 6.0]);
        assert_eq!(m.get(0, 1), 2.0);
    }

    #[test]
    fn from_flat_matches_from_rows() {
        let a = DataMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = DataMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "flat buffer length")]
    fn from_flat_checks_length() {
        let _ = DataMatrix::from_flat(vec![1.0, 2.0, 3.0], 2, 2);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn from_rows_checks_ragged() {
        let _ = DataMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    fn zeros_and_set() {
        let mut m = DataMatrix::zeros(3, 2);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        m.set(2, 1, 7.5);
        assert_eq!(m.get(2, 1), 7.5);
    }

    #[test]
    fn push_row_grows_matrix() {
        let mut m = DataMatrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.n_cols(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn select_rows_keeps_order() {
        let m = DataMatrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let s = m.select_rows(&[3, 1]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.row(0), &[3.0]);
        assert_eq!(s.row(1), &[1.0]);
    }

    #[test]
    fn column_statistics() {
        let m = DataMatrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0]]);
        assert_eq!(m.column_means(), vec![2.0, 20.0]);
        assert_eq!(m.column_variances(), vec![1.0, 100.0]);
        let (mins, maxs) = m.column_min_max();
        assert_eq!(mins, vec![1.0, 10.0]);
        assert_eq!(maxs, vec![3.0, 30.0]);
    }

    #[test]
    fn rows_iterator_matches_row_accessor() {
        let m = DataMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let collected: Vec<&[f64]> = m.rows().collect();
        assert_eq!(collected.len(), 3);
        for (i, r) in collected.iter().enumerate() {
            assert_eq!(*r, m.row(i));
        }
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut m = DataMatrix::zeros(2, 2);
        assert!(m.all_finite());
        m.set(0, 0, f64::NAN);
        assert!(!m.all_finite());
    }

    #[test]
    fn display_does_not_panic() {
        let m = DataMatrix::from_rows(&vec![vec![1.0; 12]; 10]);
        let s = format!("{m}");
        assert!(s.contains("DataMatrix 10x12"));
    }

    /// The per-call loop the cache keys were computed with before the
    /// fingerprint was memoised: the shape, then every value's bit
    /// pattern, hashed afresh on every call.
    fn fingerprint_by_rehashing(m: &DataMatrix) -> Fingerprint {
        let mut h = FingerprintBuilder::new();
        h.write_u64(m.n_rows() as u64);
        h.write_u64(m.n_cols() as u64);
        for &v in m.as_slice() {
            h.write_f64(v);
        }
        h.finish()
    }

    /// A random matrix of up to 5 x 5 (either side may be 0) whose values
    /// include signed zeros, infinities and NaN.
    fn random_matrix(rng: &mut SeededRng) -> DataMatrix {
        const SPECIAL: [f64; 6] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
        ];
        let (n_rows, n_cols) = (rng.index(6), rng.index(6));
        let values = (0..n_rows * n_cols)
            .map(|_| {
                if rng.bernoulli(0.2) {
                    SPECIAL[rng.index(SPECIAL.len())]
                } else {
                    rng.uniform_in(-1e3, 1e3)
                }
            })
            .collect();
        DataMatrix::from_flat(values, n_rows, n_cols)
    }

    #[test]
    fn fingerprint_matches_the_per_call_reference_bit_for_bit() {
        // Cache keys taken with `cvcp_engine::fingerprint_matrix` before the
        // fingerprint was memoised: edge shapes and the benchmark replicas.
        let pinned = [
            (DataMatrix::zeros(0, 0), 0x88201fb960ff6465),
            (DataMatrix::from_flat(vec![], 0, 3), 0xa71ae6c26beeae86),
            (
                DataMatrix::from_rows(&[vec![1.5, -0.0, 0.0, f64::INFINITY]]),
                0xc006390eb6cb2d88,
            ),
            (iris_like(7).matrix().clone(), 0x5ef6304ba9689cc8),
            (wine_like(7).matrix().clone(), 0x60a7b425362b05d5),
            (ionosphere_like(7).matrix().clone(), 0x79be59b640ebd219),
            (ecoli_like(7).matrix().clone(), 0x6b71c7ae1ed7389b),
            (zyeast_like(7).matrix().clone(), 0x216d65dbbfd5855e),
            (aloi_k5_dataset(7, 0).matrix().clone(), 0xd2300b1436569e8e),
        ];
        let mut rng = SeededRng::new(19);
        let mut cases: Vec<(DataMatrix, Fingerprint)> = pinned.into();
        for m in [
            DataMatrix::zeros(3, 0),
            DataMatrix::from_rows(&[vec![2.0; 7]]),
            DataMatrix::from_rows(&vec![vec![2.0]; 7]),
        ]
        .into_iter()
        .chain((0..200).map(|_| random_matrix(&mut rng)))
        {
            let expected = fingerprint_by_rehashing(&m);
            cases.push((m, expected));
        }
        for (m, expected) in &cases {
            assert_eq!(fingerprint_by_rehashing(m), *expected);
            let before = m.clone();
            assert_eq!(m.fingerprint(), *expected, "first read of {m}");
            assert_eq!(m.fingerprint(), *expected, "second read of {m}");
            let after = m.clone();
            assert_eq!(
                before.fingerprint(),
                *expected,
                "clone taken before the first read"
            );
            assert_eq!(
                after.fingerprint(),
                *expected,
                "clone taken after the first read"
            );
        }
        // Two threads first-touch one shared matrix at the same time.
        for (m, expected) in cases.into_iter().step_by(7) {
            let shared = Arc::new(m);
            let barrier = Arc::new(Barrier::new(2));
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let (shared, barrier) = (Arc::clone(&shared), Arc::clone(&barrier));
                    std::thread::spawn(move || {
                        barrier.wait();
                        shared.fingerprint()
                    })
                })
                .collect();
            for reader in readers {
                assert_eq!(reader.join().expect("reader thread"), expected);
            }
        }
    }

    #[test]
    fn fingerprinted_matrix_equals_its_untouched_twin() {
        let ds = iris_like(7);
        let twin = iris_like(7);
        let clone = ds.clone();
        let _ = ds.matrix().fingerprint();
        assert_eq!(ds.matrix(), twin.matrix());
        assert_eq!(ds.matrix(), clone.matrix());
        assert_eq!(ds, twin);
        assert_eq!(ds, clone);
        // Equality still reads shape and values.
        let square = DataMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let _ = square.fingerprint();
        assert_ne!(
            square,
            DataMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0], 1, 4)
        );
        assert_ne!(
            square,
            DataMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.5], 2, 2)
        );
    }
}
