//! Shared centroid / objective helpers for MPCKMeans and its initialisation.

use cvcp_data::DataMatrix;

/// Computes the centroid (mean vector) of the given objects.
///
/// Returns a zero vector when `members` is empty (callers re-seed empty
/// clusters explicitly).
pub fn centroid_of(data: &DataMatrix, members: &[usize]) -> Vec<f64> {
    let dims = data.n_cols();
    let mut c = vec![0.0; dims];
    if members.is_empty() {
        return c;
    }
    for &i in members {
        for (j, v) in data.row(i).iter().enumerate() {
            c[j] += v;
        }
    }
    for v in &mut c {
        *v /= members.len() as f64;
    }
    c
}

/// Recomputes all `k` centroids from an assignment vector.  Clusters with no
/// members keep their previous centroid.
pub fn recompute_centroids(data: &DataMatrix, assignment: &[usize], centroids: &mut [Vec<f64>]) {
    let k = centroids.len();
    let dims = data.n_cols();
    let mut sums = vec![vec![0.0; dims]; k];
    let mut counts = vec![0usize; k];
    for (i, &c) in assignment.iter().enumerate() {
        counts[c] += 1;
        for (j, v) in data.row(i).iter().enumerate() {
            sums[c][j] += v;
        }
    }
    for c in 0..k {
        if counts[c] > 0 {
            for j in 0..dims {
                centroids[c][j] = sums[c][j] / counts[c] as f64;
            }
        }
    }
}

/// Squared Euclidean distance between a data row and a centroid.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Weighted (diagonal-metric) squared distance.
#[inline]
pub fn weighted_sq_dist(a: &[f64], b: &[f64], weights: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), weights.len());
    let mut acc = 0.0;
    for ((x, y), w) in a.iter().zip(b).zip(weights) {
        let d = x - y;
        acc += w * d * d;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> DataMatrix {
        DataMatrix::from_rows(&[
            vec![0.0, 0.0],
            vec![2.0, 0.0],
            vec![10.0, 10.0],
            vec![12.0, 10.0],
        ])
    }

    #[test]
    fn centroid_of_members() {
        let d = data();
        assert_eq!(centroid_of(&d, &[0, 1]), vec![1.0, 0.0]);
        assert_eq!(centroid_of(&d, &[2, 3]), vec![11.0, 10.0]);
        assert_eq!(centroid_of(&d, &[]), vec![0.0, 0.0]);
    }

    #[test]
    fn recompute_handles_empty_clusters() {
        let d = data();
        let mut centroids = vec![vec![5.0, 5.0], vec![7.0, 7.0], vec![-1.0, -1.0]];
        recompute_centroids(&d, &[0, 0, 1, 1], &mut centroids);
        assert_eq!(centroids[0], vec![1.0, 0.0]);
        assert_eq!(centroids[1], vec![11.0, 10.0]);
        // cluster 2 had no members: unchanged
        assert_eq!(centroids[2], vec![-1.0, -1.0]);
    }

    #[test]
    fn distances() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(
            weighted_sq_dist(&[0.0, 0.0], &[3.0, 4.0], &[1.0, 1.0]),
            25.0
        );
        assert_eq!(
            weighted_sq_dist(&[0.0, 0.0], &[3.0, 4.0], &[2.0, 0.0]),
            18.0
        );
    }
}
