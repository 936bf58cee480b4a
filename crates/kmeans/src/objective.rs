//! Shared centroid / objective helpers for MPCKMeans and its initialisation.
//!
//! MPCKMeans keeps its per-cluster state flat: row `c` of a k × d
//! [`DataMatrix`] is cluster `c`'s centroid or metric.
//! [`recompute_centroids`] adds each object's row element-wise into its
//! cluster's row, so every sum sees its objects in row order, and it
//! recomputes only the clusters it is told changed.  `fill_distances`
//! fills rows of the fit's k × n table of every object's metric distance
//! to every centroid from the data's memoised dimension-major copy
//! ([`DataMatrix::column_view`]); every entry is bit-identical to
//! [`weighted_sq_dist`].  The fit fills its must-link pair table with the
//! same loop (`fill_distance_row`).

use cvcp_data::{ColumnView, DataMatrix};

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

/// Recomputes the centroids of the `changed` clusters, rows of the k × d
/// `centroids`, from an assignment whose cluster sizes are `counts`.
/// Clusters with no members, and clusters not marked in `changed`, keep
/// their previous centroid.
pub fn recompute_centroids(
    data: &DataMatrix,
    assignment: &[usize],
    counts: &[usize],
    changed: &[bool],
    centroids: &mut DataMatrix,
) {
    let mut sums = DataMatrix::zeros(centroids.n_rows(), centroids.n_cols());
    for (i, &c) in assignment.iter().enumerate() {
        if changed[c] {
            for (sum, v) in sums.row_mut(c).iter_mut().zip(data.row(i)) {
                *sum += v;
            }
        }
    }
    for (c, &count) in counts.iter().enumerate() {
        if count > 0 && changed[c] {
            for (mu, sum) in centroids.row_mut(c).iter_mut().zip(sums.row(c)) {
                *mu = sum / count as f64;
            }
        }
    }
}

/// Fills the rows of the `changed` clusters of the k × n table `dist`
/// with every object's metric distance to their centroid:
/// `dist[c][i] = ‖x_i − μ_c‖²_{A_c}`, from the data's `columns` and the
/// k × d `centroids` and `metrics`.  Every entry is bit-identical to
/// [`weighted_sq_dist`] (see [`fill_distance_row`]).
pub(crate) fn fill_distances(
    columns: &ColumnView,
    centroids: &DataMatrix,
    metrics: &DataMatrix,
    changed: &[bool],
    dist: &mut DataMatrix,
) {
    for c in (0..dist.n_rows()).filter(|&c| changed[c]) {
        fill_distance_row(
            columns.columns(),
            centroids.row(c),
            metrics.row(c),
            dist.row_mut(c),
        );
    }
}

/// Sets `out[i] = Σ_d weights[d] · (columns[d][i] − point[d])²`: the
/// metric distance from `point` of every entry of the dimension-major
/// `columns`.
///
/// The entries are the inner loop, so the compiler vectorises across
/// them, while each entry sums its dimensions in ascending order from
/// `0.0` with the terms of [`weighted_sq_dist`]: every entry is
/// bit-identical to it.
pub(crate) fn fill_distance_row<'a>(
    columns: impl Iterator<Item = &'a [f64]>,
    point: &[f64],
    weights: &[f64],
    out: &mut [f64],
) {
    out.fill(0.0);
    for ((column, mu), w) in columns.zip(point).zip(weights) {
        for (acc, x) in out.iter_mut().zip(column) {
            let d = x - mu;
            *acc += w * d * d;
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
        let mut centroids =
            DataMatrix::from_rows(&[vec![5.0, 5.0], vec![7.0, 7.0], vec![-1.0, -1.0]]);
        recompute_centroids(&d, &[0, 0, 1, 1], &[2, 2, 0], &[true; 3], &mut centroids);
        assert_eq!(centroids.row(0), [1.0, 0.0]);
        assert_eq!(centroids.row(1), [11.0, 10.0]);
        // cluster 2 had no members: unchanged
        assert_eq!(centroids.row(2), [-1.0, -1.0]);
        // Only the clusters marked as changed are recomputed.
        recompute_centroids(
            &d,
            &[1, 1, 0, 0],
            &[2, 2, 0],
            &[false, true, true],
            &mut centroids,
        );
        assert_eq!(centroids.row(0), [1.0, 0.0]);
        assert_eq!(centroids.row(1), [1.0, 0.0]);
    }

    #[test]
    fn distance_table_holds_each_weighted_distance() {
        let d = data();
        let centroids = DataMatrix::from_rows(&[vec![1.0, 0.0], vec![11.0, 10.0]]);
        let metrics = DataMatrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 0.5]]);
        let mut dist = DataMatrix::zeros(2, 4);
        fill_distances(d.column_view(), &centroids, &metrics, &[true; 2], &mut dist);
        for c in 0..2 {
            for i in 0..4 {
                let expected = weighted_sq_dist(d.row(i), centroids.row(c), metrics.row(c));
                assert_eq!(dist.get(c, i).to_bits(), expected.to_bits());
            }
        }
        assert_eq!(dist.row(0), [1.0, 1.0, 181.0, 221.0]);
        // Only the rows of the clusters marked as changed are refilled.
        let stale = dist.row(1).to_vec();
        let moved = DataMatrix::from_rows(&[vec![0.0, 0.0], vec![0.0, 0.0]]);
        fill_distances(d.column_view(), &moved, &metrics, &[true, false], &mut dist);
        assert_eq!(dist.row(0), [0.0, 4.0, 200.0, 244.0]);
        assert_eq!(dist.row(1), stale);
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
