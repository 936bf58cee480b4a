//! Brute-force oracles for the core-distance and MPCKMeans-objective
//! kernels at small n, compared bit-for-bit (`f64::to_bits`).
//!
//! * `core_distances` against a full sort of every row, on grid points
//!   with many ties and exact duplicates (zero distances), for every
//!   MinPts from 1 to n + 3 — which covers 1, n − 1, n and n + 3 — and
//!   for n ∈ {0, 1, 2};
//! * `MpckMeansResult::objective` against the objective recomputed from
//!   the definition in the `mpck_means` module docs, with the metric's
//!   log-determinant taken per object and the cannot-link offset per
//!   violated cannot-link.
//!
//! Cases come from the vendored proptest shim (`PROPTEST_CASES` bounds
//! their number).

use cvcp_suite::constraints::generate::constraint_pool;
use cvcp_suite::constraints::ConstraintKind;
use cvcp_suite::data::distance::{pairwise_matrix, Euclidean};
use cvcp_suite::data::rng::SeededRng;
use cvcp_suite::data::{Assignment, DataMatrix};
use cvcp_suite::density::{core_distances, KnnTable};
use cvcp_suite::kmeans::{MpckMeans, MpckMeansResult, MpckSeeding};
use proptest::collection::vec;
use proptest::prelude::*;

/// The core distances by definition: sort each row's distances to the
/// other objects and read the (MinPts − 1)-th, saturating at the last.
fn core_distances_by_sorting(dist: &[Vec<f64>], min_pts: usize) -> Vec<f64> {
    (0..dist.len())
        .map(|i| {
            let mut others: Vec<f64> = (0..dist.len())
                .filter(|&j| j != i)
                .map(|j| dist[i][j])
                .collect();
            others.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            if min_pts == 1 || others.is_empty() {
                0.0
            } else {
                others[(min_pts - 2).min(others.len() - 1)]
            }
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks `core_distances` and `KnnTable::kth_neighbor_distance` against
/// the sorting oracle for every MinPts in 1..=n + 3.
fn check_core_distances(points: &[Vec<f64>]) {
    let dist = pairwise_matrix(&DataMatrix::from_rows(points), &Euclidean);
    let n = dist.len();
    let knn = KnnTable::from_pairwise(&dist);
    for min_pts in 1..=n + 3 {
        let expected = core_distances_by_sorting(&dist, min_pts);
        let got = core_distances(&dist, min_pts);
        assert_eq!(
            bits(&got),
            bits(&expected),
            "MinPts {min_pts} on {points:?}: got {got:?}, expected {expected:?}"
        );
        if min_pts >= 2 {
            let table: Vec<f64> = (0..n)
                .map(|i| knn.kth_neighbor_distance(i, min_pts - 1))
                .collect();
            assert_eq!(bits(&table), bits(&expected), "KnnTable, MinPts {min_pts}");
        }
    }
}

#[test]
fn core_distances_handle_zero_one_and_two_objects() {
    check_core_distances(&[]);
    check_core_distances(&[vec![1.5, -2.0]]);
    check_core_distances(&[vec![0.0, 0.0], vec![3.0, 4.0]]);
    // Two exact duplicates: every distance is zero.
    check_core_distances(&[vec![7.0], vec![7.0]]);
}

proptest! {
    #[test]
    fn core_distances_match_a_full_sort_of_each_row(
        (dims, coords) in (1usize..3).prop_flat_map(|dims| {
            // Up to 12 points on a 3-per-axis grid: ties and exact
            // duplicates (zero distances) are the common case.
            vec(0usize..3, 0..12 * dims + 1).prop_map(move |c| (dims, c))
        })
    ) {
        let points: Vec<Vec<f64>> = coords
            .chunks_exact(dims)
            .map(|p| p.iter().map(|&c| c as f64).collect())
            .collect();
        check_core_distances(&points);
    }
}

/// `Σ_d a_d (x_d − y_d)²`, the squared distance under a diagonal metric.
fn metric_sq_dist(x: &[f64], y: &[f64], a: &[f64]) -> f64 {
    let mut acc = 0.0;
    for ((xd, yd), ad) in x.iter().zip(y).zip(a) {
        let diff = xd - yd;
        acc += ad * diff * diff;
    }
    acc
}

/// The MPCKMeans objective recomputed from its definition:
///
/// ```text
///   Σ_x ( ‖x − μ_{l_x}‖²_{A_{l_x}} − log det A_{l_x} )
/// + Σ_{(i,j)∈ML, l_i≠l_j} w  · ½ ( f_ML^{A_{l_i}}(i,j) + f_ML^{A_{l_j}}(i,j) )
/// + Σ_{(i,j)∈CL, l_i=l_j} w̄ · max(0, d_max²_{A_{l_i}} − ‖x_i − x_j‖²_{A_{l_i}})
/// ```
///
/// with `log det A = Σ_d ln max(a_d, 1e-12)` evaluated per object and
/// `d_max²_A` (the data bounding box's squared diameter under `A`)
/// evaluated per violated cannot-link.
fn objective_by_definition(
    mpck: &MpckMeans,
    data: &DataMatrix,
    constraints: &cvcp_suite::constraints::ConstraintSet,
    result: &MpckMeansResult,
) -> f64 {
    let labels: Vec<usize> = result
        .partition
        .assignments()
        .iter()
        .map(|a| match a {
            Assignment::Cluster(c) => *c,
            Assignment::Noise => panic!("MPCKMeans assigns every object"),
        })
        .collect();
    let (mins, maxs) = data.column_min_max();
    let metric = |c: usize| result.metrics[c].as_slice();
    let log_det = |a: &[f64]| -> f64 { a.iter().map(|w| w.max(1e-12).ln()).sum() };
    let diameter_sq = |a: &[f64]| -> f64 {
        mins.iter()
            .zip(&maxs)
            .zip(a)
            .map(|((lo, hi), w)| {
                let d = hi - lo;
                w * d * d
            })
            .sum()
    };
    let mut obj = 0.0;
    for (i, &c) in labels.iter().enumerate() {
        obj += metric_sq_dist(data.row(i), &result.centroids[c], metric(c)) - log_det(metric(c));
    }
    let working = MpckSeeding::compute(data, constraints, mpck.use_closure).working;
    let pairs = |kind: ConstraintKind| {
        working
            .iter()
            .filter(move |con| con.kind == kind)
            .map(|con| (con.a, con.b))
    };
    for (i, j) in pairs(ConstraintKind::MustLink) {
        let (li, lj) = (labels[i], labels[j]);
        if li != lj {
            let (xi, xj) = (data.row(i), data.row(j));
            let f = 0.5 * (metric_sq_dist(xi, xj, metric(li)) + metric_sq_dist(xi, xj, metric(lj)));
            obj += mpck.must_link_weight * f;
        }
    }
    for (i, j) in pairs(ConstraintKind::CannotLink) {
        let l = labels[i];
        if l == labels[j] {
            let f = diameter_sq(metric(l)) - metric_sq_dist(data.row(i), data.row(j), metric(l));
            obj += mpck.cannot_link_weight * f.max(0.0);
        }
    }
    obj
}

proptest! {
    #[test]
    fn mpck_objective_matches_its_definition(
        n in 4usize..16,
        dims in 1usize..5,
        k in 1usize..6,
        seed in 0u64..1_000_000,
        (must_link_weight, cannot_link_weight) in (0.25f64..4.0, 0.25f64..4.0),
    ) {
        let k = k.min(n);
        let mut rng = SeededRng::new(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dims).map(|_| rng.uniform_in(-3.0, 3.0)).collect())
            .collect();
        let data = DataMatrix::from_rows(&rows);
        let classes: Vec<usize> = (0..n).map(|_| rng.index(3)).collect();
        let constraints = constraint_pool(&classes, 0.6, 1, &mut rng);
        let mpck = MpckMeans::new(k)
            .with_weights(must_link_weight, cannot_link_weight)
            .with_metric_learning(rng.uniform() < 0.8)
            .with_max_iter(1 + rng.index(30));
        let result = mpck.fit(&data, &constraints, &mut rng);
        let expected = objective_by_definition(&mpck, &data, &constraints, &result);
        prop_assert_eq!(
            result.objective.to_bits(),
            expected.to_bits(),
            "objective {} vs definition {} (n {}, dims {}, k {}, seed {})",
            result.objective,
            expected,
            n,
            dims,
            k,
            seed
        );
    }
}
