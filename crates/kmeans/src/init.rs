//! Centroid initialisation strategies.
//!
//! * [`kmeanspp_centroids`]: the k-means++ D² seeding of Arthur &
//!   Vassilvitskii (2007);
//! * [`neighborhood_centroids`]: the MPCKMeans initialisation of Bilenko et
//!   al. (2004): the must-link neighbourhood sets (transitive closure of the
//!   must-link constraints) provide initial centroids; if there are fewer
//!   neighbourhoods than `k`, the remaining centroids are filled with
//!   k-means++ style draws; if there are more, the `k` largest (by weighted
//!   farthest-first traversal) are used.

use crate::objective::{centroid_of, sq_dist};
use cvcp_constraints::closure::must_link_components;
use cvcp_constraints::ConstraintSet;
use cvcp_data::rng::SeededRng;
use cvcp_data::DataMatrix;

/// k-means++ (D²) seeding.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the number of rows.
#[allow(clippy::needless_range_loop)] // dist2[i] updates in lock-step with data.row(i)
pub fn kmeanspp_centroids(data: &DataMatrix, k: usize, rng: &mut SeededRng) -> Vec<Vec<f64>> {
    assert!(
        k >= 1 && k <= data.n_rows(),
        "invalid k = {k} for {} rows",
        data.n_rows()
    );
    let n = data.n_rows();
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(data.row(rng.index(n)).to_vec());

    let mut dist2 = vec![0.0f64; n];
    while centroids.len() < k {
        let last = centroids.last().expect("at least one centroid");
        let mut total = 0.0;
        for i in 0..n {
            let d = sq_dist(data.row(i), last);
            if centroids.len() == 1 || d < dist2[i] {
                dist2[i] = d;
            }
            total += dist2[i];
        }
        let next = if total <= f64::EPSILON {
            // All points coincide with existing centroids; pick at random.
            rng.index(n)
        } else {
            let mut target = rng.uniform() * total;
            let mut chosen = n - 1;
            for (i, &d) in dist2.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push(data.row(next).to_vec());
    }
    centroids
}

/// The fold-invariant part of the MPCKMeans initialisation: the centroid and
/// size of every must-link neighbourhood (connected component of the
/// must-link graph).
///
/// These candidates depend only on the data and the constraint realisation —
/// not on `k` — so one computation serves the whole parameter sweep of a
/// cross-validation fold (they are cached behind
/// `ArtifactKey::MpckSeeding` by the cache-aware clustering path).
pub fn neighborhood_candidates(
    data: &DataMatrix,
    constraints: &ConstraintSet,
) -> Vec<(Vec<f64>, usize)> {
    must_link_components(constraints)
        .iter()
        .map(|members| (centroid_of(data, members), members.len()))
        .collect()
}

/// MPCKMeans-style initialisation from must-link neighbourhoods.
///
/// Returns `k` centroids.  Ties in the farthest-first traversal are broken by
/// neighbourhood size (larger neighbourhoods preferred), matching the
/// "weighted" variant described by Bilenko et al.
pub fn neighborhood_centroids(
    data: &DataMatrix,
    constraints: &ConstraintSet,
    k: usize,
    rng: &mut SeededRng,
) -> Vec<Vec<f64>> {
    centroids_from_candidates(data, neighborhood_candidates(data, constraints), k, rng)
}

/// Selects `k` centroids from precomputed neighbourhood candidates (see
/// [`neighborhood_candidates`]); bit-identical to [`neighborhood_centroids`]
/// on the same inputs.
#[allow(clippy::needless_range_loop)] // dist2[i] updates in lock-step with data.row(i)
pub fn centroids_from_candidates(
    data: &DataMatrix,
    mut candidates: Vec<(Vec<f64>, usize)>,
    k: usize,
    rng: &mut SeededRng,
) -> Vec<Vec<f64>> {
    assert!(
        k >= 1 && k <= data.n_rows(),
        "invalid k = {k} for {} rows",
        data.n_rows()
    );
    if candidates.is_empty() {
        return kmeanspp_centroids(data, k, rng);
    }

    if candidates.len() <= k {
        let mut centroids: Vec<Vec<f64>> = candidates.into_iter().map(|(c, _)| c).collect();
        // Fill the rest with k-means++ draws conditioned on existing centroids.
        let n = data.n_rows();
        let mut dist2: Vec<f64> = (0..n)
            .map(|i| {
                centroids
                    .iter()
                    .map(|c| sq_dist(data.row(i), c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        while centroids.len() < k {
            let total: f64 = dist2.iter().sum();
            let next = if total <= f64::EPSILON {
                rng.index(n)
            } else {
                let mut target = rng.uniform() * total;
                let mut chosen = n - 1;
                for (i, &d) in dist2.iter().enumerate() {
                    target -= d;
                    if target <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
                chosen
            };
            centroids.push(data.row(next).to_vec());
            for i in 0..n {
                let d = sq_dist(data.row(i), data.row(next));
                if d < dist2[i] {
                    dist2[i] = d;
                }
            }
        }
        return centroids;
    }

    // More neighbourhoods than clusters: weighted farthest-first traversal.
    // Start from the largest neighbourhood.
    candidates.sort_by_key(|c| std::cmp::Reverse(c.1));
    let mut chosen: Vec<(Vec<f64>, usize)> = vec![candidates.remove(0)];
    while chosen.len() < k {
        // pick the candidate maximising (min distance to chosen) * size
        let (best_idx, _) = candidates
            .iter()
            .enumerate()
            .map(|(idx, (c, size))| {
                let min_d = chosen
                    .iter()
                    .map(|(cc, _)| sq_dist(c, cc))
                    .fold(f64::INFINITY, f64::min);
                (idx, min_d * *size as f64)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"))
            .expect("candidates non-empty");
        chosen.push(candidates.remove(best_idx));
    }
    chosen.into_iter().map(|(c, _)| c).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_data() -> DataMatrix {
        DataMatrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![0.1, 0.2],
            vec![10.0, 10.0],
            vec![10.2, 10.1],
            vec![10.1, 10.2],
            vec![20.0, 0.0],
            vec![20.1, 0.2],
        ])
    }

    #[test]
    fn kmeanspp_spreads_centroids() {
        let data = blob_data();
        let mut rng = SeededRng::new(2);
        let cs = kmeanspp_centroids(&data, 3, &mut rng);
        assert_eq!(cs.len(), 3);
        // The three centroids should be in three different blobs most of the
        // time; check that pairwise distances are large.
        let mut min_pair = f64::INFINITY;
        for i in 0..3 {
            for j in (i + 1)..3 {
                min_pair = min_pair.min(sq_dist(&cs[i], &cs[j]));
            }
        }
        assert!(min_pair > 1.0, "centroids too close: {min_pair}");
    }

    #[test]
    fn kmeanspp_handles_duplicate_points() {
        let data = DataMatrix::from_rows(&vec![vec![1.0, 1.0]; 5]);
        let mut rng = SeededRng::new(3);
        let cs = kmeanspp_centroids(&data, 3, &mut rng);
        assert_eq!(cs.len(), 3);
    }

    #[test]
    #[should_panic(expected = "invalid k")]
    fn kmeanspp_rejects_k_too_large() {
        let data = blob_data();
        let mut rng = SeededRng::new(3);
        let _ = kmeanspp_centroids(&data, 99, &mut rng);
    }

    #[test]
    fn neighborhood_centroids_uses_must_link_groups() {
        let data = blob_data();
        // Must-link the first blob's points together and the second blob's.
        let mut cs = ConstraintSet::new(8);
        cs.add_must_link(0, 1);
        cs.add_must_link(1, 2);
        cs.add_must_link(3, 4);
        cs.add_must_link(4, 5);
        let mut rng = SeededRng::new(4);
        let centroids = neighborhood_centroids(&data, &cs, 3, &mut rng);
        assert_eq!(centroids.len(), 3);
        // the two neighbourhood centroids must be close to the blob means
        let blob0 = [0.1, 0.1];
        let blob1 = [10.1, 10.1];
        assert!(centroids.iter().any(|c| sq_dist(c, &blob0) < 0.1));
        assert!(centroids.iter().any(|c| sq_dist(c, &blob1) < 0.1));
    }

    #[test]
    fn neighborhood_centroids_truncates_when_too_many_groups() {
        let data = blob_data();
        let mut cs = ConstraintSet::new(8);
        cs.add_must_link(0, 1);
        cs.add_must_link(3, 4);
        cs.add_must_link(6, 7);
        let mut rng = SeededRng::new(5);
        let centroids = neighborhood_centroids(&data, &cs, 2, &mut rng);
        assert_eq!(centroids.len(), 2);
        // farthest-first should not pick two centroids from the same blob
        assert!(sq_dist(&centroids[0], &centroids[1]) > 5.0);
    }

    #[test]
    fn neighborhood_centroids_without_must_links_falls_back() {
        let data = blob_data();
        let cs = ConstraintSet::new(8);
        let mut rng = SeededRng::new(6);
        let centroids = neighborhood_centroids(&data, &cs, 3, &mut rng);
        assert_eq!(centroids.len(), 3);
    }
}
