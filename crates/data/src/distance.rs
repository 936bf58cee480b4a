//! Distance metrics used by the clustering substrates.
//!
//! All algorithms in the suite are generic over [`Distance`].  The CVCP paper
//! uses Euclidean distance for both FOSC-OPTICSDend and MPCKMeans.
//! MPCKMeans additionally learns a per-cluster diagonal metric, which it
//! applies through its own weighted squared distance
//! (`cvcp_kmeans::objective::weighted_sq_dist`).

use std::fmt::Debug;

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

    /// A short, human-readable name for reports.
    fn name(&self) -> &'static str {
        "distance"
    }
}

/// The ordinary Euclidean (L2) metric.  Satisfies the triangle inequality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Euclidean;

impl Distance for Euclidean {
    #[inline]
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        SquaredEuclidean.distance(a, b).sqrt()
    }

    fn name(&self) -> &'static str {
        "euclidean"
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

    fn name(&self) -> &'static str {
        "squared_euclidean"
    }
}

/// Computes the full pairwise distance matrix (condensed into a flat
/// lower-triangular-by-rows layout is not used; this is a plain `n x n`
/// symmetric matrix) for `n` rows of `data`.
///
/// Intended for small/medium data sets (the paper's largest set has 351
/// objects); density-based algorithms in this suite use it to avoid repeated
/// metric evaluations.
#[allow(clippy::needless_range_loop)] // symmetric fill over (i, j) index pairs
pub fn pairwise_matrix<D: Distance + ?Sized>(
    data: &crate::matrix::DataMatrix,
    metric: &D,
) -> Vec<Vec<f64>> {
    let n = data.n_rows();
    let mut out = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = metric.distance(data.row(i), data.row(j));
            out[i][j] = d;
            out[j][i] = d;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DataMatrix;

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
    #[allow(clippy::needless_range_loop)]
    fn pairwise_matrix_is_symmetric_with_zero_diagonal() {
        let data = DataMatrix::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0], vec![6.0, 8.0]]);
        let d = pairwise_matrix(&data, &Euclidean);
        assert_eq!(d.len(), 3);
        for i in 0..3 {
            assert_eq!(d[i][i], 0.0);
            for j in 0..3 {
                assert!((d[i][j] - d[j][i]).abs() < 1e-12);
            }
        }
        assert!((d[0][1] - 5.0).abs() < 1e-12);
        assert!((d[0][2] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn metric_names_are_stable() {
        assert_eq!(Euclidean.name(), "euclidean");
        assert_eq!(SquaredEuclidean.name(), "squared_euclidean");
    }
}
