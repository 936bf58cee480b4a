//! Brute-force oracles for the kernels of the CVCP grid at small n:
//!
//! * `core_distances` against a full sort of every row, on grid points
//!   with many ties and exact duplicates (zero distances), for every
//!   MinPts from 1 to n + 3 — which covers 1, n − 1, n and n + 3 — and
//!   for n ∈ {0, 1, 2}, bit for bit;
//! * `MpckMeansResult::objective` against the objective recomputed from
//!   the definition in the `mpck_means` module docs, with the metric's
//!   log-determinant taken per object and the cannot-link offset per
//!   violated cannot-link, bit for bit;
//! * `extract_clusters` against exhaustive enumeration of the condensed
//!   tree's antichains, under stability and under constraint
//!   satisfaction with and without the stability tiebreak;
//! * Prim's `minimum_spanning_tree` against Kruskal over all edges: the
//!   sorted edge weights of every minimum spanning tree are the same, so
//!   they are compared bit for bit;
//! * `transitive_closure` against a naive fixpoint of the two closure
//!   rules;
//! * `constraint_fmeasure` against per-class precision, recall and F1
//!   from brute-force counts, on partitions with noise objects;
//! * `label_scenario_folds` and `constraint_scenario_folds`: training and
//!   test objects are disjoint, and the naive-fixpoint closure of a
//!   split's training constraints implies none of its test constraints.
//!
//! Cases come from the vendored proptest shim (`PROPTEST_CASES` bounds
//! their number).

use cvcp_suite::constraints::closure::transitive_closure;
use cvcp_suite::constraints::generate::constraint_pool;
use cvcp_suite::constraints::{
    constraint_scenario_folds, label_scenario_folds, Constraint, ConstraintKind, ConstraintSet,
    FoldSplit, LabeledSubset, UnionFind,
};
use cvcp_suite::data::distance::{pairwise_matrix, Euclidean};
use cvcp_suite::data::rng::SeededRng;
use cvcp_suite::data::{Assignment, DataMatrix, Partition};
use cvcp_suite::density::core_distance::mutual_reachability_from_pairwise;
use cvcp_suite::density::mst::minimum_spanning_tree;
use cvcp_suite::density::{
    core_distances, extract_clusters, CondensedTree, Dendrogram, ExtractionObjective, KnnTable,
};
use cvcp_suite::kmeans::{MpckMeans, MpckMeansResult, MpckSeeding};
use cvcp_suite::metrics::constraint_fmeasure::{
    constraint_classification_report, constraint_fmeasure,
};
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

/// Random points on a 3-per-axis grid (ties and exact duplicates are the
/// common case) or, with probability one half, uniform in a box.
fn random_points(n: usize, dims: usize, rng: &mut SeededRng) -> Vec<Vec<f64>> {
    let on_grid = rng.bernoulli(0.5);
    (0..n)
        .map(|_| {
            (0..dims)
                .map(|_| {
                    if on_grid {
                        rng.index(3) as f64
                    } else {
                        rng.uniform_in(0.0, 4.0)
                    }
                })
                .collect()
        })
        .collect()
}

/// Random constraints over `0..n_objects`, must-link with probability one
/// half; self-pairs are skipped.
fn random_constraints(n_objects: usize, draws: usize, rng: &mut SeededRng) -> ConstraintSet {
    let mut cs = ConstraintSet::new(n_objects);
    for _ in 0..draws {
        let (a, b) = (rng.index(n_objects), rng.index(n_objects));
        if a == b {
            continue;
        }
        if rng.bernoulli(0.5) {
            cs.add_must_link(a, b);
        } else {
            cs.add_cannot_link(a, b);
        }
    }
    cs
}

/// Up to 16 distinct points on a grid (distance ties without zero
/// distances, which would make a stability infinite) or, with probability
/// one half, uniform in a box.
fn distinct_points(n: usize, dims: usize, rng: &mut SeededRng) -> Vec<Vec<f64>> {
    if rng.bernoulli(0.5) {
        return (0..n)
            .map(|_| (0..dims).map(|_| rng.uniform_in(0.0, 4.0)).collect())
            .collect();
    }
    let side: usize = if dims == 1 { 16 } else { 4 };
    rng.sample_indices(side.pow(dims as u32), n)
        .into_iter()
        .map(|cell| {
            (0..dims)
                .map(|d| (cell / side.pow(d as u32) % side) as f64)
                .collect()
        })
        .collect()
}

/// The condensed tree the density pipeline builds for `points` at `min_pts`.
fn condensed_tree(points: &[Vec<f64>], min_pts: usize) -> CondensedTree {
    let dist = pairwise_matrix(&DataMatrix::from_rows(points), &Euclidean);
    let mst = minimum_spanning_tree(&mutual_reachability_from_pairwise(&dist, min_pts));
    CondensedTree::build(&Dendrogram::from_mst(points.len(), &mst), min_pts)
}

/// A cluster's FOSC quality from its definition: under constraint
/// satisfaction, each endpoint `x ∈ C` of a constraint `(x, y)` earns ½
/// when the constraint holds with `C` selected (must-link: `y ∈ C`;
/// cannot-link: `y ∉ C`), plus, with the tiebreak, `0.2499 · s(C) / s_max`.
fn quality_by_definition(tree: &CondensedTree, id: usize, objective: &ExtractionObjective) -> f64 {
    let node = tree.node(id);
    match objective {
        ExtractionObjective::Stability => node.stability,
        ExtractionObjective::ConstraintSatisfaction {
            constraints,
            stability_tiebreak,
        } => {
            let inside = |x: usize| node.members.contains(&x);
            let mut credit = 0.0;
            for c in constraints.iter() {
                for (x, y) in [(c.a, c.b), (c.b, c.a)] {
                    let satisfied = match c.kind {
                        ConstraintKind::MustLink => inside(y),
                        ConstraintKind::CannotLink => !inside(y),
                    };
                    if inside(x) && satisfied {
                        credit += 0.5;
                    }
                }
            }
            if *stability_tiebreak {
                let s_max = tree
                    .nodes()
                    .iter()
                    .map(|n| n.stability)
                    .fold(1e-12, f64::max);
                credit + 0.2499 * node.stability / s_max
            } else {
                credit
            }
        }
    }
}

/// `true` when `a` is a proper ancestor of `b`.
fn is_ancestor(tree: &CondensedTree, a: usize, b: usize) -> bool {
    let mut cur = tree.node(b).parent;
    while let Some(p) = cur {
        if p == a {
            return true;
        }
        cur = tree.node(p).parent;
    }
    false
}

/// The best total quality over every antichain of the tree's non-root
/// nodes, by enumerating all subsets; a tree whose root has no children
/// offers the root alone.
fn best_antichain_value(tree: &CondensedTree, quality: &[f64]) -> f64 {
    if tree.root().children.is_empty() {
        return quality[0];
    }
    let candidates: Vec<usize> = (1..tree.nodes().len()).collect();
    assert!(candidates.len() < 24, "tree too large to enumerate");
    let mut best = 0.0f64;
    for subset in 0u32..1 << candidates.len() {
        let chosen: Vec<usize> = candidates
            .iter()
            .enumerate()
            .filter(|&(bit, _)| subset >> bit & 1 == 1)
            .map(|(_, &id)| id)
            .collect();
        let antichain = chosen
            .iter()
            .all(|&a| chosen.iter().all(|&b| !is_ancestor(tree, a, b)));
        if antichain {
            best = best.max(chosen.iter().map(|&id| quality[id]).sum());
        }
    }
    best
}

proptest! {
    #[test]
    fn fosc_extraction_matches_exhaustive_antichain_enumeration(
        n in 2usize..13,
        dims in 1usize..3,
        min_pts in 2usize..5,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let points = distinct_points(n, dims, &mut rng);
        let tree = condensed_tree(&points, min_pts);
        let constraints = random_constraints(n, rng.index(3 * n + 1), &mut rng);
        let objectives = [
            ExtractionObjective::Stability,
            ExtractionObjective::ConstraintSatisfaction {
                constraints: constraints.clone(),
                stability_tiebreak: false,
            },
            ExtractionObjective::ConstraintSatisfaction {
                constraints,
                stability_tiebreak: true,
            },
        ];
        for objective in &objectives {
            let quality: Vec<f64> = (0..tree.nodes().len())
                .map(|id| quality_by_definition(&tree, id, objective))
                .collect();
            let best = best_antichain_value(&tree, &quality);
            let sel = extract_clusters(&tree, objective);
            let pure_credit = matches!(
                objective,
                ExtractionObjective::ConstraintSatisfaction { stability_tiebreak: false, .. }
            );
            // Credits are multiples of ½ and add exactly in any order;
            // stability sums are compared to 1e-9 relative.
            let close = |x: f64| {
                if pure_credit {
                    x == best
                } else {
                    (x - best).abs() <= 1e-9 * best.abs().max(1.0)
                }
            };
            prop_assert!(
                close(sel.total_value),
                "total_value {} vs exhaustive optimum {} under {:?} (n {}, min_pts {}, seed {})",
                sel.total_value,
                best,
                objective,
                n,
                min_pts,
                seed
            );
            // The selection itself is an antichain worth its total value.
            for &a in &sel.selected {
                for &b in &sel.selected {
                    prop_assert!(!is_ancestor(&tree, a, b), "{} is an ancestor of {}", a, b);
                }
            }
            let own: f64 = sel.selected.iter().map(|&id| quality[id]).sum();
            prop_assert!(close(own), "selection worth {} vs optimum {}", own, best);
        }
    }
}

/// The total weight of a minimum spanning tree by Kruskal's algorithm over
/// all edges, returned as the sorted edge weights.
fn kruskal_weights(weights: &[Vec<f64>]) -> Vec<f64> {
    let n = weights.len();
    let mut edges: Vec<(f64, usize, usize)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .map(|(a, b)| (weights[a][b], a, b))
        .collect();
    edges.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut uf = UnionFind::new(n);
    let mut tree = Vec::new();
    for (w, a, b) in edges {
        if uf.find(a) != uf.find(b) {
            uf.union(a, b);
            tree.push(w);
        }
    }
    tree
}

proptest! {
    #[test]
    fn prim_mst_matches_kruskal_over_all_edges(
        n in 0usize..13,
        dims in 1usize..3,
        min_pts in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let points = random_points(n, dims, &mut rng);
        let dist = pairwise_matrix(&DataMatrix::from_rows(&points), &Euclidean);
        for weights in [dist.clone(), mutual_reachability_from_pairwise(&dist, min_pts)] {
            let prim = minimum_spanning_tree(&weights);
            prop_assert_eq!(prim.len(), n.saturating_sub(1));
            // Prim's edges span every vertex and carry their matrix weight.
            let mut uf = UnionFind::new(n);
            for e in &prim {
                prop_assert_eq!(e.weight.to_bits(), weights[e.a][e.b].to_bits());
                prop_assert!(uf.find(e.a) != uf.find(e.b), "edge {:?} closes a cycle", e);
                uf.union(e.a, e.b);
            }
            let mut got: Vec<f64> = prim.iter().map(|e| e.weight).collect();
            got.sort_by(f64::total_cmp);
            let expected = kruskal_weights(&weights);
            prop_assert_eq!(
                bits(&got),
                bits(&expected),
                "Prim {:?} vs Kruskal {:?} on {:?}",
                got,
                expected,
                points
            );
        }
    }
}

/// The closure by its two rules, applied until nothing changes:
/// `ML(a,b) ∧ ML(b,c) ⇒ ML(a,c)` and `ML(a,b) ∧ CL(b,c) ⇒ CL(a,c)`, over
/// unordered pairs.
fn closure_by_fixpoint(set: &ConstraintSet) -> ConstraintSet {
    let mut out = set.clone();
    loop {
        let current: Vec<_> = out.iter().copied().collect();
        let mut grew = false;
        for ml in current
            .iter()
            .filter(|c| c.kind == ConstraintKind::MustLink)
        {
            for other in &current {
                for (shared, a) in [(ml.a, ml.b), (ml.b, ml.a)] {
                    if !other.involves(shared) {
                        continue;
                    }
                    let c = other.other(shared);
                    if c != a {
                        grew |= match other.kind {
                            ConstraintKind::MustLink => out.add_must_link(a, c),
                            ConstraintKind::CannotLink => out.add_cannot_link(a, c),
                        };
                    }
                }
            }
        }
        if !grew {
            return out;
        }
    }
}

/// Up to 2n random constraints drawn from a hidden labelling of n
/// objects, so the set is consistent (the closure's precondition).
fn consistent_constraints(label: &[usize], rng: &mut SeededRng) -> ConstraintSet {
    let n = label.len();
    let mut set = ConstraintSet::new(n);
    for _ in 0..rng.index(2 * n + 1) {
        let (a, b) = (rng.index(n), rng.index(n));
        if a == b {
            continue;
        }
        if label[a] == label[b] {
            set.add_must_link(a, b);
        } else {
            set.add_cannot_link(a, b);
        }
    }
    set
}

proptest! {
    #[test]
    fn transitive_closure_matches_a_naive_fixpoint(
        n in 2usize..13,
        classes in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let label: Vec<usize> = (0..n).map(|_| rng.index(classes)).collect();
        let set = consistent_constraints(&label, &mut rng);
        let closed = transitive_closure(&set);
        let expected = closure_by_fixpoint(&set);
        prop_assert_eq!(&closed, &expected, "closure of {:?}", set);
        prop_assert!(closed.is_consistent());
    }
}

/// Precision, recall and F1 of one constraint class from its definition:
/// `predicted` and `actual` count the constraints classified as, and
/// labelled with, the class, and `hits` those that are both.  An empty
/// denominator reads 1 (no wrong prediction, nothing missed).
fn class_scores_by_definition(hits: usize, predicted: usize, actual: usize) -> [f64; 3] {
    let ratio = |num: usize, den: usize| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    let (precision, recall) = (ratio(hits, predicted), ratio(hits, actual));
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    [precision, recall, f1]
}

proptest! {
    #[test]
    fn constraint_fmeasure_matches_its_definition(
        n in 1usize..13,
        clusters in 1usize..5,
        draws in 0usize..30,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let noise_share = rng.uniform_in(0.0, 0.5);
        let assignments: Vec<Assignment> = (0..n)
            .map(|_| {
                if rng.bernoulli(noise_share) {
                    Assignment::Noise
                } else {
                    Assignment::Cluster(rng.index(clusters))
                }
            })
            .collect();
        let partition = Partition::from_assignments(assignments.clone());
        let constraints = if n < 2 {
            ConstraintSet::new(n)
        } else {
            random_constraints(n, draws, &mut rng)
        };
        // A constraint is classified must-link when both objects sit in
        // one cluster; a noise object shares a cluster with nothing.
        let together = |a: usize, b: usize| match (assignments[a], assignments[b]) {
            (Assignment::Cluster(x), Assignment::Cluster(y)) => x == y,
            _ => false,
        };
        let all: Vec<_> = constraints.iter().copied().collect();
        let count = |keep: &dyn Fn(&Constraint) -> bool| all.iter().filter(|c| keep(c)).count();
        let is_ml = |c: &Constraint| c.kind == ConstraintKind::MustLink;
        let ml = class_scores_by_definition(
            count(&|c| is_ml(c) && together(c.a, c.b)),
            count(&|c| together(c.a, c.b)),
            count(&|c| is_ml(c)),
        );
        let cl = class_scores_by_definition(
            count(&|c| !is_ml(c) && !together(c.a, c.b)),
            count(&|c| !together(c.a, c.b)),
            count(&|c| !is_ml(c)),
        );
        let expected = if all.is_empty() { 0.0 } else { (ml[2] + cl[2]) / 2.0 };

        let report = constraint_classification_report(&partition, &constraints);
        let got_ml = [report.must_link.precision, report.must_link.recall, report.must_link.f1];
        let got_cl = [
            report.cannot_link.precision,
            report.cannot_link.recall,
            report.cannot_link.f1,
        ];
        prop_assert_eq!(bits(&got_ml), bits(&ml), "must-link {:?} vs {:?}", got_ml, ml);
        prop_assert_eq!(bits(&got_cl), bits(&cl), "cannot-link {:?} vs {:?}", got_cl, cl);
        prop_assert_eq!(report.n_constraints, all.len());
        prop_assert_eq!(
            constraint_fmeasure(&partition, &constraints).to_bits(),
            expected.to_bits(),
            "F-measure vs {} on {:?} with {:?}",
            expected,
            partition,
            constraints
        );
    }
}

/// Checks every split: training and test objects are disjoint, and the
/// naive-fixpoint closure of the training constraints implies no test
/// constraint.
fn check_no_leak(splits: &[FoldSplit]) {
    for split in splits {
        let training = split.training.involved_objects();
        for o in split.test_constraints.involved_objects() {
            assert!(
                !training.contains(&o),
                "object {} is on both sides of fold {}",
                o,
                split.fold
            );
        }
        let implied = closure_by_fixpoint(&split.training.as_constraints());
        for c in split.test_constraints.iter() {
            assert!(
                !implied.contains(c),
                "fold {} leaks test constraint {:?} through the training closure",
                split.fold,
                c
            );
        }
    }
}

proptest! {
    #[test]
    fn fold_construction_never_leaks_through_the_closure(
        n in 4usize..13,
        classes in 1usize..4,
        n_folds in 2usize..5,
        stratified in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let label: Vec<usize> = (0..n).map(|_| rng.index(classes)).collect();

        // Scenario I: a labelled subset of at least `n_folds` objects.
        let n_labelled = n_folds + rng.index(n - n_folds + 1);
        let indices = rng.sample_indices(n, n_labelled);
        let labeled = LabeledSubset::from_ground_truth(&label, &indices);
        let splits = label_scenario_folds(&labeled, n_folds, stratified == 1, &mut rng);
        prop_assert_eq!(splits.len(), n_folds);
        check_no_leak(&splits);

        // Scenario II, skipped when too few objects are constrained.
        let set = consistent_constraints(&label, &mut rng);
        let closed = closure_by_fixpoint(&set);
        if closed.involved_objects().len() >= n_folds {
            let splits = constraint_scenario_folds(&set, n_folds, &mut rng);
            prop_assert_eq!(splits.len(), n_folds);
            check_no_leak(&splits);
            // Both sides only ever hold constraints of the closed set.
            for split in &splits {
                for c in split.training.as_constraints().iter().chain(split.test_constraints.iter()) {
                    prop_assert!(closed.contains(c), "{:?} is not implied by the input", c);
                }
            }
        }
    }
}
