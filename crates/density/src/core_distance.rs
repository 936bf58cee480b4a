//! Core distances and mutual-reachability distances.
//!
//! For a smoothing parameter `MinPts`, the *core distance* of an object is
//! the distance to its `MinPts`-th nearest neighbour, where the object itself
//! counts as its own first neighbour (the convention of OPTICS/HDBSCAN with
//! `m_pts`).  The *mutual reachability distance* between two objects is
//! `max(core(a), core(b), d(a, b))`.

use cvcp_data::DataMatrix;

/// Precomputed k-nearest-neighbour distances for every object.
#[derive(Debug, Clone)]
pub struct KnnTable {
    /// Sorted distances from each object to every other object
    /// (`sorted[i][0]` is the nearest *other* object).
    sorted: Vec<Vec<f64>>,
}

impl KnnTable {
    /// Builds the table from an `n × n` pairwise distance matrix.
    pub fn from_pairwise(dist: &DataMatrix) -> Self {
        let sorted = dist
            .rows()
            .enumerate()
            .map(|(i, row)| {
                let mut others: Vec<f64> = (row.iter().enumerate())
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &d)| d)
                    .collect();
                others.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
                others
            })
            .collect();
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

/// Computes the core distance of every object for the given `min_pts`
/// from an `n × n` pairwise distance matrix.
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
pub fn core_distances(dist: &DataMatrix, min_pts: usize) -> Vec<f64> {
    assert!(min_pts >= 1, "MinPts must be at least 1");
    let n = dist.n_rows();
    if min_pts == 1 || n < 2 {
        return vec![0.0; n];
    }
    // 0-based rank among the n − 1 other objects.
    let rank = (min_pts - 2).min(n - 2);
    let mut others = Vec::with_capacity(n - 1);
    dist.rows()
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

/// The mutual-reachability distances of a pairwise matrix for one
/// `MinPts`, read through rather than stored: the borrowed `n × n`
/// matrix and its `n` core distances, whose weight between objects
/// `a ≠ b` is `max(d(a, b), core(a), core(b))`.
#[derive(Debug, Clone)]
pub struct MutualReachability<'a> {
    dist: &'a DataMatrix,
    core: Vec<f64>,
}

impl MutualReachability<'_> {
    /// Number of objects.
    pub fn n_objects(&self) -> usize {
        self.core.len()
    }

    /// The weights from object `a` to every object `b`, in object order:
    /// `max(d(a, b), core(a), core(b))`.  Entry `a` itself reads
    /// `core(a)`; it is no edge weight.
    pub fn weights_from(&self, a: usize) -> impl Iterator<Item = f64> + '_ {
        let core_a = self.core[a];
        (self.dist.row(a).iter())
            .zip(&self.core)
            .map(move |(&d, &core_b)| d.max(core_a).max(core_b))
    }
}

/// The mutual-reachability distances of the pairwise matrix `dist` for
/// `min_pts`: `dist` borrowed, with its core distances.
pub fn mutual_reachability_from_pairwise(
    dist: &DataMatrix,
    min_pts: usize,
) -> MutualReachability<'_> {
    MutualReachability {
        dist,
        core: core_distances(dist, min_pts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvcp_data::distance::{pairwise_matrix, Euclidean};

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
    fn empty_and_single_object() {
        assert!(core_distances(&DataMatrix::zeros(0, 0), 3).is_empty());
        let single = DataMatrix::zeros(1, 1);
        assert_eq!(core_distances(&single, 5), vec![0.0]);
    }
}
