//! The OPTICS algorithm (Ankerst, Breunig, Kriegel & Sander 1999) with
//! ε = ∞, producing the reachability plot that underlies the OPTICSDend
//! hierarchy.
//!
//! The implementation operates on a dense pairwise distance matrix
//! (`O(n²)`), which matches the data sizes used in the CVCP paper.

use cvcp_data::distance::{pairwise_matrix, Distance};
use cvcp_data::DataMatrix;

/// One entry of the OPTICS ordering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpticsPoint {
    /// Object index.
    pub index: usize,
    /// Reachability distance at which the object was reached
    /// (`f64::INFINITY` for the first object of each connected expansion).
    pub reachability: f64,
    /// Core distance of the object for the configured `MinPts`.
    pub core_distance: f64,
}

/// The OPTICS output: an ordering of all objects with reachability and core
/// distances.
#[derive(Debug, Clone, PartialEq)]
pub struct OpticsOrdering {
    /// `MinPts` used.
    pub min_pts: usize,
    /// The ordered points.
    pub points: Vec<OpticsPoint>,
}

impl OpticsOrdering {
    /// Runs OPTICS (ε = ∞) on `data` with the given metric and `MinPts`.
    ///
    /// # Panics
    ///
    /// Panics if `min_pts == 0`.
    pub fn run<D: Distance + ?Sized>(data: &DataMatrix, metric: &D, min_pts: usize) -> Self {
        let dist = pairwise_matrix(data, metric);
        Self::run_on_distances(&dist, min_pts)
    }

    /// Runs OPTICS on a precomputed `n × n` pairwise distance matrix.
    pub fn run_on_distances(dist: &DataMatrix, min_pts: usize) -> Self {
        assert!(min_pts >= 1, "MinPts must be at least 1");
        let n = dist.n_rows();
        let core = crate::core_distance::core_distances(dist, min_pts);

        let mut processed = vec![false; n];
        let mut reach = vec![f64::INFINITY; n];
        let mut points = Vec::with_capacity(n);

        for start in 0..n {
            if processed[start] {
                continue;
            }
            // Begin a new expansion from `start`.
            processed[start] = true;
            points.push(OpticsPoint {
                index: start,
                reachability: f64::INFINITY,
                core_distance: core[start],
            });
            // Seeds are tracked implicitly via the `reach` array: the next
            // point is the unprocessed one with the smallest reachability.
            update_reachability(dist, &core, start, &processed, &mut reach);

            loop {
                let mut next = usize::MAX;
                let mut next_reach = f64::INFINITY;
                for j in 0..n {
                    if !processed[j] && reach[j] < next_reach {
                        next_reach = reach[j];
                        next = j;
                    }
                }
                if next == usize::MAX {
                    break;
                }
                processed[next] = true;
                points.push(OpticsPoint {
                    index: next,
                    reachability: next_reach,
                    core_distance: core[next],
                });
                update_reachability(dist, &core, next, &processed, &mut reach);
            }
        }

        Self { min_pts, points }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the ordering is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The sequence of object indices in OPTICS order.
    pub fn order(&self) -> Vec<usize> {
        self.points.iter().map(|p| p.index).collect()
    }

    /// The reachability values in OPTICS order (the "reachability plot").
    pub fn reachability_plot(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.reachability).collect()
    }

    /// A simple ε-cut of the reachability plot: objects whose reachability
    /// exceeds `eps` start a new cluster (or are noise if they are not core
    /// at `eps`).  This mirrors the classic `ExtractDBSCAN` procedure and is
    /// used in tests to sanity-check the ordering.
    pub fn extract_dbscan(&self, eps: f64) -> cvcp_data::Partition {
        let n = self.points.len();
        let mut assignment: Vec<Option<usize>> = vec![None; n];
        let mut current: Option<usize> = None;
        let mut next_cluster = 0usize;
        for p in &self.points {
            if p.reachability > eps {
                if p.core_distance <= eps {
                    // start of a new cluster
                    current = Some(next_cluster);
                    next_cluster += 1;
                    assignment[p.index] = current;
                } else {
                    assignment[p.index] = None;
                    current = None;
                }
            } else {
                assignment[p.index] = current;
                if assignment[p.index].is_none() {
                    // reachable but no open cluster (can happen right after noise)
                    current = Some(next_cluster);
                    next_cluster += 1;
                    assignment[p.index] = current;
                }
            }
        }
        cvcp_data::Partition::from_optional_ids(&assignment)
    }
}

/// Updates the reachability of all unprocessed points from `p`.
fn update_reachability(
    dist: &DataMatrix,
    core: &[f64],
    p: usize,
    processed: &[bool],
    reach: &mut [f64],
) {
    for (o, &d) in dist.row(p).iter().enumerate() {
        if processed[o] {
            continue;
        }
        let new_reach = core[p].max(d);
        if new_reach < reach[o] {
            reach[o] = new_reach;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvcp_data::distance::Euclidean;
    use cvcp_data::rng::SeededRng;
    use cvcp_data::synthetic::separated_blobs;

    #[test]
    fn ordering_is_a_permutation() {
        let mut rng = SeededRng::new(1);
        let ds = separated_blobs(3, 20, 2, 8.0, &mut rng);
        let optics = OpticsOrdering::run(ds.matrix(), &Euclidean, 5);
        assert_eq!(optics.len(), ds.len());
        let mut order = optics.order();
        order.sort_unstable();
        assert_eq!(order, (0..ds.len()).collect::<Vec<_>>());
    }

    #[test]
    fn first_point_has_infinite_reachability() {
        let mut rng = SeededRng::new(2);
        let ds = separated_blobs(2, 10, 2, 8.0, &mut rng);
        let optics = OpticsOrdering::run(ds.matrix(), &Euclidean, 3);
        assert!(optics.points[0].reachability.is_infinite());
        // all others are finite (the data is one connected distance graph)
        assert!(optics.points[1..]
            .iter()
            .all(|p| p.reachability.is_finite()));
    }

    #[test]
    fn blob_structure_appears_in_reachability_plot() {
        // Two well separated blobs: exactly one interior reachability value
        // should be large (the jump between blobs).
        let mut rng = SeededRng::new(3);
        let ds = separated_blobs(2, 25, 2, 20.0, &mut rng);
        let optics = OpticsOrdering::run(ds.matrix(), &Euclidean, 4);
        let plot = optics.reachability_plot();
        let finite: Vec<f64> = plot.iter().copied().filter(|v| v.is_finite()).collect();
        let big = finite.iter().filter(|&&v| v > 10.0).count();
        assert_eq!(
            big, 1,
            "expected exactly one inter-blob jump, plot: {finite:?}"
        );
    }

    #[test]
    fn consecutive_blob_members_stay_together() {
        // Within the ordering, each blob's members should appear as one
        // contiguous run (classic OPTICS behaviour for well separated blobs).
        let mut rng = SeededRng::new(4);
        let ds = separated_blobs(2, 20, 2, 20.0, &mut rng);
        let optics = OpticsOrdering::run(ds.matrix(), &Euclidean, 4);
        let labels: Vec<usize> = optics.order().iter().map(|&i| ds.labels()[i]).collect();
        let switches = labels.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(switches, 1, "labels along the ordering: {labels:?}");
    }

    #[test]
    fn extract_dbscan_recovers_blobs() {
        let mut rng = SeededRng::new(5);
        let ds = separated_blobs(3, 20, 2, 20.0, &mut rng);
        let optics = OpticsOrdering::run(ds.matrix(), &Euclidean, 4);
        let partition = optics.extract_dbscan(3.0);
        assert_eq!(partition.n_clusters(), 3);
        let ari = cvcp_metrics::adjusted_rand_index(&partition, ds.labels());
        assert!(ari > 0.95, "ARI = {ari}");
    }

    #[test]
    fn deterministic() {
        let mut rng = SeededRng::new(6);
        let ds = separated_blobs(2, 15, 3, 10.0, &mut rng);
        let a = OpticsOrdering::run(ds.matrix(), &Euclidean, 5);
        let b = OpticsOrdering::run(ds.matrix(), &Euclidean, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn single_object() {
        let data = DataMatrix::from_rows(&[vec![1.0, 2.0]]);
        let optics = OpticsOrdering::run(&data, &Euclidean, 3);
        assert_eq!(optics.len(), 1);
        assert!(optics.points[0].reachability.is_infinite());
    }
}
