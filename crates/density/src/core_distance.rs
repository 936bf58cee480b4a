//! Core distances and mutual-reachability distances.
//!
//! For a smoothing parameter `MinPts`, the *core distance* of an object is
//! the distance to its `MinPts`-th nearest neighbour, where the object itself
//! counts as its own first neighbour (the convention of OPTICS/HDBSCAN with
//! `m_pts`).  The *mutual reachability distance* between two objects is
//! `max(core(a), core(b), d(a, b))`.

/// Precomputed k-nearest-neighbour distances for every object.
#[derive(Debug, Clone)]
pub struct KnnTable {
    /// Sorted distances from each object to every other object
    /// (`sorted[i][0]` is the nearest *other* object).
    sorted: Vec<Vec<f64>>,
}

impl KnnTable {
    /// Builds the table from a full pairwise distance matrix.
    #[allow(clippy::needless_range_loop)] // row extraction excludes the diagonal by index
    pub fn from_pairwise(dist: &[Vec<f64>]) -> Self {
        let n = dist.len();
        let mut sorted = Vec::with_capacity(n);
        for i in 0..n {
            let mut row: Vec<f64> = (0..n).filter(|&j| j != i).map(|j| dist[i][j]).collect();
            row.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
            sorted.push(row);
        }
        Self { sorted }
    }

    /// The distance from object `i` to its `k`-th nearest *other* neighbour
    /// (1-based `k`).  Returns the largest available distance when `k`
    /// exceeds `n − 1`, and `0` when `i` is the only object.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `k == 0` (there is no 0-th neighbour).
    pub fn kth_neighbor_distance(&self, i: usize, k: usize) -> f64 {
        debug_assert!(k >= 1, "k is 1-based, got k = 0");
        let row = &self.sorted[i];
        if row.is_empty() {
            return 0.0;
        }
        let idx = k.saturating_sub(1).min(row.len() - 1);
        row[idx]
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

/// Computes the core distance of every object for the given `min_pts`.
///
/// With `min_pts = 1` every core distance is zero (each object is its own
/// neighbourhood); with `min_pts = m` the core distance is the distance to
/// the `(m − 1)`-th nearest *other* object, saturating at the farthest one
/// when `m − 1` exceeds `n − 1`.  Fewer than two objects have core
/// distance zero.
///
/// Each row's order statistic is taken by selection
/// (`select_nth_unstable_by`, O(n) on average) on one reused buffer rather
/// than by sorting the row: the k-th smallest value of a row is the same
/// value whichever algorithm finds it, so the result equals reading
/// [`KnnTable::kth_neighbor_distance`] without building the sorted table.
/// (The one value `partial_cmp` cannot tell apart is the sign of a zero:
/// a row holding both `-0.0` and `0.0` at the selected rank may yield
/// either.  The suite's metrics never produce `-0.0`.)
///
/// # Panics
///
/// Panics if `min_pts == 0`, or if a row compared during selection holds
/// a NaN distance.
pub fn core_distances(dist: &[Vec<f64>], min_pts: usize) -> Vec<f64> {
    assert!(min_pts >= 1, "MinPts must be at least 1");
    let n = dist.len();
    if min_pts == 1 || n < 2 {
        return vec![0.0; n];
    }
    // 0-based rank among the n − 1 other objects.
    let rank = (min_pts - 2).min(n - 2);
    let mut others = Vec::with_capacity(n - 1);
    dist.iter()
        .enumerate()
        .map(|(i, row)| {
            others.clear();
            others.extend((0..n).filter(|&j| j != i).map(|j| row[j]));
            let (_, kth, _) = others
                .select_nth_unstable_by(rank, |a, b| a.partial_cmp(b).expect("finite distances"));
            *kth
        })
        .collect()
}

/// Computes the mutual-reachability matrix from a precomputed pairwise
/// distance matrix.
pub fn mutual_reachability_from_pairwise(dist: &[Vec<f64>], min_pts: usize) -> Vec<Vec<f64>> {
    let n = dist.len();
    let core = core_distances(dist, min_pts);
    let mut out = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = dist[i][j].max(core[i]).max(core[j]);
            out[i][j] = d;
            out[j][i] = d;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvcp_data::distance::{pairwise_matrix, Euclidean};
    use cvcp_data::DataMatrix;

    fn line_data() -> DataMatrix {
        // points at x = 0, 1, 2, 10
        DataMatrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![10.0]])
    }

    #[test]
    fn knn_table_orders_distances() {
        let dist = pairwise_matrix(&line_data(), &Euclidean);
        let knn = KnnTable::from_pairwise(&dist);
        assert_eq!(knn.len(), 4);
        assert_eq!(knn.kth_neighbor_distance(0, 1), 1.0);
        assert_eq!(knn.kth_neighbor_distance(0, 2), 2.0);
        assert_eq!(knn.kth_neighbor_distance(0, 3), 10.0);
        // k beyond n-1 saturates
        assert_eq!(knn.kth_neighbor_distance(0, 99), 10.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "1-based")]
    fn kth_neighbor_distance_rejects_k_zero_in_debug_builds() {
        let knn = KnnTable::from_pairwise(&pairwise_matrix(&line_data(), &Euclidean));
        let _ = knn.kth_neighbor_distance(0, 0);
    }

    #[test]
    fn core_distances_for_various_min_pts() {
        let dist = pairwise_matrix(&line_data(), &Euclidean);
        assert_eq!(core_distances(&dist, 1), vec![0.0; 4]);
        // MinPts = 2 -> distance to 1st other neighbour
        assert_eq!(core_distances(&dist, 2), vec![1.0, 1.0, 1.0, 8.0]);
        // MinPts = 3 -> distance to 2nd other neighbour
        assert_eq!(core_distances(&dist, 3), vec![2.0, 1.0, 2.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "MinPts")]
    fn zero_min_pts_panics() {
        let dist = pairwise_matrix(&line_data(), &Euclidean);
        let _ = core_distances(&dist, 0);
    }

    #[test]
    fn mutual_reachability_dominates_distance_and_cores() {
        let dist = pairwise_matrix(&line_data(), &Euclidean);
        let min_pts = 3;
        let core = core_distances(&dist, min_pts);
        let mrd = mutual_reachability_from_pairwise(&dist, min_pts);
        for i in 0..4 {
            assert_eq!(mrd[i][i], 0.0);
            for j in 0..4 {
                if i != j {
                    assert!(mrd[i][j] >= dist[i][j] - 1e-12);
                    assert!(mrd[i][j] >= core[i] - 1e-12);
                    assert!(mrd[i][j] >= core[j] - 1e-12);
                    assert!((mrd[i][j] - mrd[j][i]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn mutual_reachability_equals_distance_for_min_pts_one() {
        let dist = pairwise_matrix(&line_data(), &Euclidean);
        let mrd = mutual_reachability_from_pairwise(&dist, 1);
        for i in 0..4 {
            for j in 0..4 {
                assert!((mrd[i][j] - dist[i][j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn empty_and_single_object() {
        let empty: Vec<Vec<f64>> = Vec::new();
        assert!(core_distances(&empty, 3).is_empty());
        let single = vec![vec![0.0]];
        assert_eq!(core_distances(&single, 5), vec![0.0]);
    }
}
