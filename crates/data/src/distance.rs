//! Distance metrics used by the clustering substrates.
//!
//! All algorithms in the suite are generic over [`Distance`].  The CVCP paper
//! uses Euclidean distance for both FOSC-OPTICSDend and MPCKMeans.
//! MPCKMeans additionally learns a per-cluster diagonal metric, which it
//! applies through its own weighted squared distance
//! (`cvcp_kmeans::objective::weighted_sq_dist`).

use std::fmt::Debug;

use crate::matrix::DataMatrix;

/// A dissimilarity function between two feature vectors of equal length.
///
/// Implementations must be symmetric (`d(a, b) == d(b, a)`), non-negative and
/// satisfy `d(a, a) == 0` (up to floating point error).  The triangle
/// inequality is not required (e.g. [`SquaredEuclidean`] violates it), but
/// metrics that do satisfy it say so in their documentation.
pub trait Distance: Send + Sync + Debug {
    /// Computes the dissimilarity between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `a.len() != b.len()`.
    fn distance(&self, a: &[f64], b: &[f64]) -> f64;
}

/// The ordinary Euclidean (L2) metric.  Satisfies the triangle inequality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Euclidean;

impl Distance for Euclidean {
    #[inline]
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        SquaredEuclidean.distance(a, b).sqrt()
    }
}

/// Squared Euclidean distance.  Cheaper than [`Euclidean`] (no square root)
/// and order-equivalent to it; [`Euclidean`] computes through it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SquaredEuclidean;

impl Distance for SquaredEuclidean {
    #[inline]
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(
            a.len(),
            b.len(),
            "dimension mismatch: {} vs {}",
            a.len(),
            b.len()
        );
        let mut acc = 0.0;
        for (x, y) in a.iter().zip(b) {
            let d = x - y;
            acc += d * d;
        }
        acc
    }
}

/// The `n × n` pairwise distance matrix of the `n` rows of `data`:
/// entry `(i, j)` is `metric.distance(row i, row j)`, computed once per
/// unordered pair and mirrored, with zeros on the diagonal.
///
/// Intended for small/medium data sets (the paper's largest set has 351
/// objects): the density kernels and the Silhouette read it instead of
/// evaluating the metric again.
pub fn pairwise_matrix<D: Distance + ?Sized>(data: &DataMatrix, metric: &D) -> DataMatrix {
    let n = data.n_rows();
    let mut out = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = metric.distance(data.row(i), data.row(j));
            out[i * n + j] = d;
            out[j * n + i] = d;
        }
    }
    DataMatrix::from_flat(out, n, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 3] = [1.0, 2.0, 3.0];
    const B: [f64; 3] = [4.0, 6.0, 3.0];

    #[test]
    fn euclidean_basic() {
        assert!((Euclidean.distance(&A, &B) - 5.0).abs() < 1e-12);
        assert_eq!(Euclidean.distance(&A, &A), 0.0);
    }

    #[test]
    fn squared_euclidean_is_square_of_euclidean() {
        let d = Euclidean.distance(&A, &B);
        let d2 = SquaredEuclidean.distance(&A, &B);
        assert!((d * d - d2).abs() < 1e-9);
    }

    #[test]
    fn pairwise_matrix_is_symmetric_with_zero_diagonal() {
        let data = DataMatrix::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0], vec![6.0, 8.0]]);
        let d = pairwise_matrix(&data, &Euclidean);
        assert_eq!((d.n_rows(), d.n_cols()), (3, 3));
        for i in 0..3 {
            assert_eq!(d.get(i, i), 0.0);
            for j in 0..3 {
                assert!((d.get(i, j) - d.get(j, i)).abs() < 1e-12);
            }
        }
        assert!((d.get(0, 1) - 5.0).abs() < 1e-12);
        assert!((d.get(0, 2) - 10.0).abs() < 1e-12);
    }
}
