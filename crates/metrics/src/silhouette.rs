//! The Silhouette coefficient (Kaufman & Rousseeuw 1990).
//!
//! The paper uses the Silhouette coefficient as the *unsupervised* baseline
//! for selecting the number of clusters `k` of MPCKMeans (Section 4.3): for
//! every candidate `k` the clustering is computed and the `k` with the best
//! Silhouette value is chosen ("Sil" columns of Tables 8–10 and 14–16).

use cvcp_data::distance::Distance;
use cvcp_data::{DataMatrix, Partition};

/// Computes the mean Silhouette coefficient of `partition` over `data`.
///
/// For each clustered object `i` with cluster `C`:
/// `a(i)` is the mean distance to the other members of `C`,
/// `b(i)` is the smallest mean distance to the members of any other cluster,
/// and `s(i) = (b - a) / max(a, b)`.  Objects in singleton clusters get
/// `s(i) = 0`; noise objects are ignored.
///
/// Returns `None` when fewer than two clusters contain objects (the
/// coefficient is undefined there) — model-selection code treats such
/// configurations as worst-possible.
pub fn silhouette_coefficient<D: Distance + ?Sized>(
    data: &DataMatrix,
    partition: &Partition,
    metric: &D,
) -> Option<f64> {
    assert_eq!(data.n_rows(), partition.len(), "length mismatch");
    silhouette_with(|i, j| metric.distance(data.row(i), data.row(j)), partition)
}

/// Computes the mean Silhouette coefficient from a precomputed `n × n`
/// pairwise distance matrix (entry `(i, j)` = distance between objects `i`
/// and `j`).
///
/// **Bit-identical** to [`silhouette_coefficient`] when `dist` was produced
/// by `pairwise_matrix` under the same metric — both paths accumulate the
/// same distances in the same order.  Model-selection code shares one
/// matrix (via the engine's artifact cache) across every candidate
/// parameter and trial instead of recomputing `O(n²·d)` distances per
/// partition.
pub fn silhouette_from_pairwise(dist: &DataMatrix, partition: &Partition) -> Option<f64> {
    let n = partition.len();
    assert_eq!((dist.n_rows(), dist.n_cols()), (n, n), "length mismatch");
    let values = dist.as_slice();
    silhouette_with(|i, j| values[i * n + j], partition)
}

/// The shared Silhouette loop over an arbitrary pairwise distance oracle.
fn silhouette_with(distance: impl Fn(usize, usize) -> f64, partition: &Partition) -> Option<f64> {
    let members = partition.cluster_members();
    let non_empty: Vec<&Vec<usize>> = members.iter().filter(|m| !m.is_empty()).collect();
    if non_empty.len() < 2 {
        return None;
    }

    let mut total = 0.0;
    let mut count = 0usize;
    for (ci, cluster) in non_empty.iter().enumerate() {
        for &i in cluster.iter() {
            if cluster.len() == 1 {
                // Singleton: contributes 0 by convention.
                count += 1;
                continue;
            }
            let a: f64 = cluster
                .iter()
                .filter(|&&j| j != i)
                .map(|&j| distance(i, j))
                .sum::<f64>()
                / (cluster.len() - 1) as f64;

            let mut b = f64::INFINITY;
            for (cj, other) in non_empty.iter().enumerate() {
                if ci == cj {
                    continue;
                }
                let mean_d: f64 =
                    other.iter().map(|&j| distance(i, j)).sum::<f64>() / other.len() as f64;
                if mean_d < b {
                    b = mean_d;
                }
            }
            let denom = a.max(b);
            let s = if denom > 0.0 { (b - a) / denom } else { 0.0 };
            total += s;
            count += 1;
        }
    }
    if count == 0 {
        None
    } else {
        Some(total / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvcp_data::distance::Euclidean;

    fn two_blobs() -> DataMatrix {
        DataMatrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![10.0, 10.0],
            vec![10.1, 10.0],
            vec![10.0, 10.1],
        ])
    }

    #[test]
    fn well_separated_clusters_score_close_to_one() {
        let data = two_blobs();
        let p = Partition::from_cluster_ids(&[0, 0, 0, 1, 1, 1]);
        let s = silhouette_coefficient(&data, &p, &Euclidean).unwrap();
        assert!(s > 0.95, "silhouette {s}");
    }

    #[test]
    fn wrong_clustering_scores_lower() {
        let data = two_blobs();
        let good = Partition::from_cluster_ids(&[0, 0, 0, 1, 1, 1]);
        let bad = Partition::from_cluster_ids(&[0, 1, 0, 1, 0, 1]);
        let s_good = silhouette_coefficient(&data, &good, &Euclidean).unwrap();
        let s_bad = silhouette_coefficient(&data, &bad, &Euclidean).unwrap();
        assert!(s_good > s_bad);
        assert!(
            s_bad < 0.0,
            "mixing the blobs should give a negative value, got {s_bad}"
        );
    }

    #[test]
    fn single_cluster_is_undefined() {
        let data = two_blobs();
        let p = Partition::from_cluster_ids(&[0; 6]);
        assert!(silhouette_coefficient(&data, &p, &Euclidean).is_none());
    }

    #[test]
    fn noise_objects_are_ignored() {
        let data = two_blobs();
        let with_noise =
            Partition::from_optional_ids(&[Some(0), Some(0), None, Some(1), Some(1), None]);
        let s = silhouette_coefficient(&data, &with_noise, &Euclidean).unwrap();
        assert!(s > 0.9);
    }

    #[test]
    fn pairwise_variant_is_bit_identical() {
        let data = two_blobs();
        let dist = cvcp_data::distance::pairwise_matrix(&data, &Euclidean);
        for ids in [
            vec![0, 0, 0, 1, 1, 1],
            vec![0, 1, 0, 1, 0, 1],
            vec![0, 0, 1, 1, 2, 2],
        ] {
            let p = Partition::from_cluster_ids(&ids);
            assert_eq!(
                silhouette_coefficient(&data, &p, &Euclidean),
                silhouette_from_pairwise(&dist, &p),
                "ids {ids:?}"
            );
        }
    }

    #[test]
    fn singleton_cluster_contributes_zero() {
        let data = DataMatrix::from_rows(&[vec![0.0], vec![0.1], vec![10.0]]);
        let p = Partition::from_cluster_ids(&[0, 0, 1]);
        let s = silhouette_coefficient(&data, &p, &Euclidean).unwrap();
        // two objects with s ~ 1, singleton contributes 0 -> mean ~ 2/3
        assert!(s > 0.6 && s < 0.7, "s = {s}");
    }

    #[test]
    fn splitting_a_tight_cluster_hurts() {
        let data = two_blobs();
        let k2 = Partition::from_cluster_ids(&[0, 0, 0, 1, 1, 1]);
        let k3 = Partition::from_cluster_ids(&[0, 2, 0, 1, 1, 1]);
        assert!(
            silhouette_coefficient(&data, &k2, &Euclidean).unwrap()
                > silhouette_coefficient(&data, &k3, &Euclidean).unwrap()
        );
    }

    #[test]
    fn bounds_hold() {
        let data = two_blobs();
        for ids in [[0, 0, 1, 1, 0, 1], [0, 1, 2, 0, 1, 2], [1, 1, 1, 0, 0, 0]] {
            let p = Partition::from_cluster_ids(&ids);
            let s = silhouette_coefficient(&data, &p, &Euclidean).unwrap();
            assert!((-1.0..=1.0).contains(&s));
        }
    }
}
