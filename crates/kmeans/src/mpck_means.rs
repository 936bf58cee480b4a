//! MPCKMeans — Metric Pairwise Constrained K-Means (Bilenko, Basu & Mooney,
//! ICML 2004).
//!
//! The semi-supervised partitional clustering algorithm evaluated by the CVCP
//! paper.  It integrates constraints and metric learning in an EM-style loop:
//!
//! * **Initialisation**: cluster centroids are seeded from the must-link
//!   neighbourhood sets (transitive closure of the must-links), topped up /
//!   reduced via weighted farthest-first traversal
//!   ([`crate::init::neighborhood_centroids`]).
//! * **E-step**: objects are assigned greedily, in random order, to the
//!   cluster minimising their contribution to the objective: the metric
//!   distance to the centroid, minus the metric's log-determinant, plus
//!   penalties for must-link / cannot-link violations with respect to the
//!   objects assigned earlier in the pass.
//! * **M-step**: centroids are recomputed, and each cluster's *diagonal*
//!   Mahalanobis metric `A_h` is re-estimated from the within-cluster scatter
//!   plus the scatter of violated constraints involving that cluster.
//!
//! The objective minimised is
//!
//! ```text
//!   Σ_x ( ‖x − μ_{l_x}‖²_{A_{l_x}} − log det A_{l_x} )
//! + Σ_{(i,j)∈ML, l_i≠l_j} w  · ½ ( f_ML^{A_{l_i}}(i,j) + f_ML^{A_{l_j}}(i,j) )
//! + Σ_{(i,j)∈CL, l_i=l_j} w̄ · f_CL^{A_{l_i}}(i,j)
//! ```
//!
//! with `f_ML(i,j) = ‖x_i − x_j‖²_A` and
//! `f_CL(i,j) = d_max²_A − ‖x_i − x_j‖²_A` (violating a cannot-link between
//! close objects is penalised more).

use crate::init::{centroids_from_candidates, neighborhood_candidates};
use crate::objective::{recompute_centroids, weighted_sq_dist};
use cvcp_constraints::closure::transitive_closure;
use cvcp_constraints::{Constraint, ConstraintKind, ConstraintSet};
use cvcp_data::rng::SeededRng;
use cvcp_data::{DataMatrix, Partition};
use cvcp_engine::ArtifactSize;

/// The `k`-invariant seeding structures of an MPCKMeans run: the (optionally
/// transitively closed) working constraint set and the must-link
/// neighbourhood centroid candidates.
///
/// Both depend only on the data and the constraint realisation, so one
/// seeding serves every cluster count of a parameter sweep — this is the
/// artifact the engine's cache shares across the CVCP grid (keyed by
/// `ArtifactKey::MpckSeeding`).
#[derive(Debug, Clone, PartialEq)]
pub struct MpckSeeding {
    /// The working constraint set (the transitive closure of the input when
    /// `use_closure` was requested, the input itself otherwise).
    pub working: ConstraintSet,
    /// Must-link neighbourhood centroids and sizes
    /// (see [`neighborhood_candidates`]).
    pub candidates: Vec<(Vec<f64>, usize)>,
}

impl MpckSeeding {
    /// Computes the seeding structures for `data` and `constraints`.
    ///
    /// `use_closure` must match the [`MpckMeans::use_closure`] flag of the
    /// configuration the seeding will be used with.
    pub fn compute(data: &DataMatrix, constraints: &ConstraintSet, use_closure: bool) -> Self {
        let working = if use_closure {
            transitive_closure(constraints)
        } else {
            constraints.clone()
        };
        let candidates = neighborhood_candidates(data, &working);
        Self {
            working,
            candidates,
        }
    }
}

impl ArtifactSize for MpckSeeding {
    fn artifact_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.working.len() * std::mem::size_of::<Constraint>()
            + self
                .candidates
                .iter()
                .map(|(centroid, _)| std::mem::size_of::<(Vec<f64>, usize)>() + centroid.len() * 8)
                .sum::<usize>()
    }
}

/// Configuration for MPCKMeans.
#[derive(Debug, Clone)]
pub struct MpckMeans {
    /// Number of clusters (the parameter CVCP selects).
    pub k: usize,
    /// Weight `w` of a must-link violation.
    pub must_link_weight: f64,
    /// Weight `w̄` of a cannot-link violation.
    pub cannot_link_weight: f64,
    /// Maximum number of EM iterations.
    pub max_iter: usize,
    /// Whether per-cluster diagonal metrics are learned (disable to obtain
    /// PCKMeans behaviour).
    pub learn_metric: bool,
    /// Lower clamp applied to learned metric weights (numerical safety).
    pub min_weight: f64,
    /// Upper clamp applied to learned metric weights.
    pub max_weight: f64,
    /// Whether to take the transitive closure of the must-link constraints
    /// before clustering (the original algorithm does).
    pub use_closure: bool,
}

/// Result of an MPCKMeans run.
#[derive(Debug, Clone)]
pub struct MpckMeansResult {
    /// Final cluster assignment (no noise objects).
    pub partition: Partition,
    /// Final centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Final per-cluster diagonal metric weights.
    pub metrics: Vec<Vec<f64>>,
    /// Final objective value.
    pub objective: f64,
    /// Number of EM iterations executed.
    pub iterations: usize,
    /// Number of constraint violations in the final assignment.
    pub violations: usize,
}

impl MpckMeans {
    /// Creates an MPCKMeans configuration with this crate's defaults:
    /// violation weights 1, at most 50 EM iterations, metric learning and
    /// the must-link closure enabled, metric weights clamped to
    /// `[1e-3, 1e3]`.
    ///
    /// The suite's experiments and served selections build MPCKMeans from
    /// `cvcp_core::MpckMethod::default()` instead, which keeps the weights
    /// and metric learning but caps EM at **30** iterations
    /// ([`Self::with_max_iter`]).
    pub fn new(k: usize) -> Self {
        Self {
            k,
            must_link_weight: 1.0,
            cannot_link_weight: 1.0,
            max_iter: 50,
            learn_metric: true,
            min_weight: 1e-3,
            max_weight: 1e3,
            use_closure: true,
        }
    }

    /// Sets the constraint-violation weights.
    pub fn with_weights(mut self, must_link: f64, cannot_link: f64) -> Self {
        self.must_link_weight = must_link;
        self.cannot_link_weight = cannot_link;
        self
    }

    /// Enables or disables metric learning.
    pub fn with_metric_learning(mut self, enabled: bool) -> Self {
        self.learn_metric = enabled;
        self
    }

    /// Sets the maximum number of EM iterations.
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter.max(1);
        self
    }

    /// Runs MPCKMeans on `data` with the given constraints.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or larger than the number of objects.
    pub fn fit(
        &self,
        data: &DataMatrix,
        constraints: &ConstraintSet,
        rng: &mut SeededRng,
    ) -> MpckMeansResult {
        let seeding = MpckSeeding::compute(data, constraints, self.use_closure);
        self.fit_seeded(data, &seeding, rng)
    }

    /// Runs MPCKMeans on precomputed seeding structures — **bit-identical**
    /// to [`Self::fit`] when `seeding` was computed from the same data and
    /// constraints with a matching `use_closure` flag.  This is the entry
    /// point of the cache-aware path: one [`MpckSeeding`] is shared by every
    /// `k` of a parameter sweep.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or larger than the number of objects.
    pub fn fit_seeded(
        &self,
        data: &DataMatrix,
        seeding: &MpckSeeding,
        rng: &mut SeededRng,
    ) -> MpckMeansResult {
        let n = data.n_rows();
        let dims = data.n_cols();
        assert!(
            self.k >= 1 && self.k <= n,
            "k = {} invalid for {n} objects",
            self.k
        );

        let working = &seeding.working;
        // Index constraints per object for the greedy assignment step.
        let mut ml_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut cl_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut ml_pairs: Vec<(usize, usize)> = Vec::new();
        let mut cl_pairs: Vec<(usize, usize)> = Vec::new();
        for c in working.iter() {
            match c.kind {
                ConstraintKind::MustLink => {
                    ml_of[c.a].push(c.b);
                    ml_of[c.b].push(c.a);
                    ml_pairs.push((c.a, c.b));
                }
                ConstraintKind::CannotLink => {
                    cl_of[c.a].push(c.b);
                    cl_of[c.b].push(c.a);
                    cl_pairs.push((c.a, c.b));
                }
            }
        }

        let mut centroids =
            centroids_from_candidates(data, seeding.candidates.clone(), self.k, rng);
        let mut metrics: Vec<Vec<f64>> = vec![vec![1.0; dims]; self.k];
        let mut assignment: Vec<usize> = vec![0; n];
        let mut objective = f64::INFINITY;
        let mut iterations = 0;

        let (mins, maxs) = data.column_min_max();
        let mut terms = MetricTerms::of(&metrics, &mins, &maxs);

        for it in 0..self.max_iter {
            iterations = it + 1;

            // ---------------- E-step: greedy ordered assignment ----------------
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            let mut assigned: Vec<Option<usize>> = vec![None; n];
            for &i in &order {
                let row = data.row(i);
                let mut best_c = 0usize;
                let mut best_cost = f64::INFINITY;
                for c in 0..self.k {
                    let w = &metrics[c];
                    let mut cost = weighted_sq_dist(row, &centroids[c], w) - terms.log_det[c];
                    // must-link violations w.r.t. already-assigned neighbours
                    for &j in &ml_of[i] {
                        if let Some(cj) = assigned[j] {
                            if cj != c {
                                let f_here = weighted_sq_dist(row, data.row(j), w);
                                let f_there = weighted_sq_dist(row, data.row(j), &metrics[cj]);
                                cost += self.must_link_weight * 0.5 * (f_here + f_there);
                            }
                        }
                    }
                    // cannot-link violations
                    for &j in &cl_of[i] {
                        if let Some(cj) = assigned[j] {
                            if cj == c {
                                let f = terms.cl_offset[c] - weighted_sq_dist(row, data.row(j), w);
                                cost += self.cannot_link_weight * f.max(0.0);
                            }
                        }
                    }
                    if cost < best_cost {
                        best_cost = cost;
                        best_c = c;
                    }
                }
                assigned[i] = Some(best_c);
            }
            let new_assignment: Vec<usize> =
                assigned.into_iter().map(|a| a.expect("assigned")).collect();

            // Re-seed empty clusters with the point farthest from its centroid.
            let mut final_assignment = new_assignment;
            for c in 0..self.k {
                if !final_assignment.contains(&c) {
                    let (far, _) = (0..n)
                        .map(|i| {
                            (
                                i,
                                weighted_sq_dist(
                                    data.row(i),
                                    &centroids[final_assignment[i]],
                                    &metrics[final_assignment[i]],
                                ),
                            )
                        })
                        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                        .expect("non-empty data");
                    final_assignment[far] = c;
                }
            }

            // ---------------- M-step: centroids ----------------
            recompute_centroids(data, &final_assignment, &mut centroids);

            // ---------------- M-step: metrics ----------------
            if self.learn_metric {
                self.update_metrics(
                    data,
                    &final_assignment,
                    &centroids,
                    &ml_pairs,
                    &cl_pairs,
                    &mins,
                    &maxs,
                    &mut metrics,
                );
                terms = MetricTerms::of(&metrics, &mins, &maxs);
            }

            // ---------------- Objective & convergence ----------------
            let new_objective = self.objective(
                data,
                &final_assignment,
                &centroids,
                &metrics,
                &ml_pairs,
                &cl_pairs,
                &terms,
            );
            let converged = final_assignment == assignment
                || (objective - new_objective).abs() <= 1e-9 * objective.abs().max(1.0);
            assignment = final_assignment;
            objective = new_objective;
            if converged && it > 0 {
                break;
            }
        }

        let violations = ml_pairs
            .iter()
            .filter(|&&(a, b)| assignment[a] != assignment[b])
            .count()
            + cl_pairs
                .iter()
                .filter(|&&(a, b)| assignment[a] == assignment[b])
                .count();

        MpckMeansResult {
            partition: Partition::from_cluster_ids(&assignment),
            centroids,
            metrics,
            objective,
            iterations,
            violations,
        }
    }

    /// Re-estimates the per-cluster diagonal metric weights.
    ///
    /// For cluster `h` and dimension `d`:
    /// `a_{h,d} = N_h / ( Σ_{x∈h}(x_d−μ_d)² + ½ w Σ_{violated ML touching h}(x_i,d−x_j,d)²
    ///                   + w̄ Σ_{violated CL inside h} (range_d² − (x_i,d−x_j,d)²) )`,
    /// clamped to `[min_weight, max_weight]`.
    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::needless_range_loop)] // per-dimension scatter accumulation
    fn update_metrics(
        &self,
        data: &DataMatrix,
        assignment: &[usize],
        centroids: &[Vec<f64>],
        ml_pairs: &[(usize, usize)],
        cl_pairs: &[(usize, usize)],
        mins: &[f64],
        maxs: &[f64],
        metrics: &mut [Vec<f64>],
    ) {
        let dims = data.n_cols();
        let k = centroids.len();
        let mut scatter = vec![vec![0.0f64; dims]; k];
        let mut counts = vec![0usize; k];

        for (i, &c) in assignment.iter().enumerate() {
            counts[c] += 1;
            let row = data.row(i);
            for d in 0..dims {
                let diff = row[d] - centroids[c][d];
                scatter[c][d] += diff * diff;
            }
        }
        // Violated must-links contribute half their scatter to both clusters.
        for &(a, b) in ml_pairs {
            let (ca, cb) = (assignment[a], assignment[b]);
            if ca != cb {
                for d in 0..dims {
                    let diff = data.get(a, d) - data.get(b, d);
                    let v = 0.5 * self.must_link_weight * diff * diff;
                    scatter[ca][d] += v;
                    scatter[cb][d] += v;
                }
            }
        }
        // Violated cannot-links contribute (range² − diff²) to their cluster.
        for &(a, b) in cl_pairs {
            let (ca, cb) = (assignment[a], assignment[b]);
            if ca == cb {
                for d in 0..dims {
                    let diff = data.get(a, d) - data.get(b, d);
                    let range = maxs[d] - mins[d];
                    let v = self.cannot_link_weight * (range * range - diff * diff).max(0.0);
                    scatter[ca][d] += v;
                }
            }
        }

        for c in 0..k {
            if counts[c] == 0 {
                continue;
            }
            for d in 0..dims {
                let denom = scatter[c][d].max(1e-12);
                metrics[c][d] = (counts[c] as f64 / denom).clamp(self.min_weight, self.max_weight);
            }
        }
    }

    /// Evaluates the full MPCKMeans objective for a given state; `terms`
    /// must hold the per-cluster terms of `metrics`.
    #[allow(clippy::too_many_arguments)]
    fn objective(
        &self,
        data: &DataMatrix,
        assignment: &[usize],
        centroids: &[Vec<f64>],
        metrics: &[Vec<f64>],
        ml_pairs: &[(usize, usize)],
        cl_pairs: &[(usize, usize)],
        terms: &MetricTerms,
    ) -> f64 {
        let mut obj = 0.0;
        for (i, &c) in assignment.iter().enumerate() {
            obj += weighted_sq_dist(data.row(i), &centroids[c], &metrics[c]) - terms.log_det[c];
        }
        for &(a, b) in ml_pairs {
            let (ca, cb) = (assignment[a], assignment[b]);
            if ca != cb {
                let f = 0.5
                    * (weighted_sq_dist(data.row(a), data.row(b), &metrics[ca])
                        + weighted_sq_dist(data.row(a), data.row(b), &metrics[cb]));
                obj += self.must_link_weight * f;
            }
        }
        for &(a, b) in cl_pairs {
            let (ca, cb) = (assignment[a], assignment[b]);
            if ca == cb {
                let f =
                    terms.cl_offset[ca] - weighted_sq_dist(data.row(a), data.row(b), &metrics[ca]);
                obj += self.cannot_link_weight * f.max(0.0);
            }
        }
        obj
    }
}

/// The terms of the objective that depend on a cluster's metric alone.
/// Metrics change only in the M-step, so `fit_seeded` computes these once
/// per EM iteration rather than once per (object × cluster) pair.
struct MetricTerms {
    /// `log det A_h` per cluster.
    log_det: Vec<f64>,
    /// The f_CL offset `d_max²_{A_h}` per cluster.
    cl_offset: Vec<f64>,
}

impl MetricTerms {
    fn of(metrics: &[Vec<f64>], mins: &[f64], maxs: &[f64]) -> Self {
        Self {
            log_det: metrics.iter().map(|w| log_det(w)).collect(),
            cl_offset: metrics.iter().map(|w| diameter_sq(w, mins, maxs)).collect(),
        }
    }
}

/// Sum of log weights (log-determinant of the diagonal metric).
fn log_det(weights: &[f64]) -> f64 {
    weights.iter().map(|w| w.max(1e-12).ln()).sum()
}

/// The f_CL offset: the squared diameter of the data bounding box
/// (`mins`, `maxs`) under the metric `weights`.  The maximum squared
/// pairwise distance per metric is expensive to track exactly; the box
/// diameter preserves the "close violated cannot-links cost more"
/// behaviour.
fn diameter_sq(weights: &[f64], mins: &[f64], maxs: &[f64]) -> f64 {
    mins.iter()
        .zip(maxs)
        .zip(weights)
        .map(|((lo, hi), w)| {
            let d = hi - lo;
            w * d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvcp_constraints::generate::constraint_pool;
    use cvcp_data::synthetic::{gaussian_mixture, separated_blobs, ClusterSpec};
    use cvcp_metrics::{adjusted_rand_index, constraint_fmeasure};

    #[test]
    fn recovers_separated_blobs_without_constraints() {
        let mut rng = SeededRng::new(1);
        let ds = separated_blobs(3, 25, 4, 10.0, &mut rng);
        let result = MpckMeans::new(3).fit(ds.matrix(), &ConstraintSet::new(ds.len()), &mut rng);
        let ari = adjusted_rand_index(&result.partition, ds.labels());
        assert!(ari > 0.9, "ARI = {ari}");
        assert_eq!(result.partition.n_noise(), 0);
        assert_eq!(result.violations, 0);
    }

    #[test]
    fn constraints_improve_overlapping_clusters() {
        // Two overlapping clusters: constraints should push the solution
        // towards the ground truth.
        let specs = vec![
            ClusterSpec::spherical(vec![0.0, 0.0], 1.4, 40),
            ClusterSpec::spherical(vec![2.2, 0.0], 1.4, 40),
        ];
        let mut scores_with = Vec::new();
        let mut scores_without = Vec::new();
        for seed in 0..5u64 {
            let mut rng = SeededRng::new(seed);
            let ds = gaussian_mixture(&specs, &mut rng);
            let pool = constraint_pool(ds.labels(), 0.4, 2, &mut rng);
            let with = MpckMeans::new(2).fit(ds.matrix(), &pool, &mut rng);
            let without =
                MpckMeans::new(2).fit(ds.matrix(), &ConstraintSet::new(ds.len()), &mut rng);
            scores_with.push(adjusted_rand_index(&with.partition, ds.labels()));
            scores_without.push(adjusted_rand_index(&without.partition, ds.labels()));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&scores_with) >= mean(&scores_without) - 0.02,
            "with constraints {:?} vs without {:?}",
            scores_with,
            scores_without
        );
    }

    #[test]
    fn satisfies_most_constraints_on_easy_data() {
        let mut rng = SeededRng::new(3);
        let ds = separated_blobs(3, 20, 3, 9.0, &mut rng);
        let pool = constraint_pool(ds.labels(), 0.4, 2, &mut rng);
        let result = MpckMeans::new(3).fit(ds.matrix(), &pool, &mut rng);
        let f = constraint_fmeasure(&result.partition, &pool);
        assert!(f > 0.9, "constraint F-measure = {f}");
    }

    #[test]
    fn produces_exactly_k_or_fewer_clusters() {
        let mut rng = SeededRng::new(4);
        let ds = separated_blobs(2, 20, 3, 8.0, &mut rng);
        for k in [1usize, 2, 3, 5, 8] {
            let result =
                MpckMeans::new(k).fit(ds.matrix(), &ConstraintSet::new(ds.len()), &mut rng);
            assert!(result.partition.n_clusters() <= k);
            assert!(result.partition.n_clusters() >= 1);
            assert_eq!(result.partition.len(), ds.len());
        }
    }

    #[test]
    fn metric_learning_adapts_to_feature_scales() {
        // One informative dimension, one heavily scaled noise dimension:
        // with metric learning the noise dimension should receive a much
        // smaller weight than the informative one within each cluster.
        let mut specs = Vec::new();
        for &c in &[0.0f64, 8.0] {
            specs.push(ClusterSpec {
                center: vec![c, 0.0],
                std_devs: vec![0.5, 25.0],
                size: 40,
                elongation: 0.0,
            });
        }
        let mut rng = SeededRng::new(5);
        let ds = gaussian_mixture(&specs, &mut rng);
        let pool = constraint_pool(ds.labels(), 0.3, 2, &mut rng);
        let result = MpckMeans::new(2).fit(ds.matrix(), &pool, &mut rng);
        for m in &result.metrics {
            assert!(
                m[0] > m[1],
                "informative dimension should get larger weight: {m:?}"
            );
        }
    }

    #[test]
    fn shared_seeding_is_bit_identical_across_k() {
        // One MpckSeeding serves every k of a parameter sweep and must
        // reproduce the direct fit exactly (the cache trades time, never
        // results).
        let mut rng = SeededRng::new(10);
        let ds = separated_blobs(3, 15, 3, 9.0, &mut rng);
        let pool = constraint_pool(ds.labels(), 0.3, 2, &mut rng);
        let seeding = MpckSeeding::compute(ds.matrix(), &pool, true);
        assert!(seeding.artifact_bytes() > 0);
        for k in [2usize, 3, 5] {
            let direct = MpckMeans::new(k).fit(ds.matrix(), &pool, &mut SeededRng::new(77));
            let seeded =
                MpckMeans::new(k).fit_seeded(ds.matrix(), &seeding, &mut SeededRng::new(77));
            assert_eq!(direct.partition, seeded.partition);
            assert_eq!(direct.objective, seeded.objective);
            assert_eq!(direct.centroids, seeded.centroids);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = SeededRng::new(6);
        let ds = separated_blobs(3, 15, 3, 9.0, &mut rng);
        let pool = constraint_pool(ds.labels(), 0.3, 2, &mut rng);
        let a = MpckMeans::new(3).fit(ds.matrix(), &pool, &mut SeededRng::new(9));
        let b = MpckMeans::new(3).fit(ds.matrix(), &pool, &mut SeededRng::new(9));
        assert_eq!(a.partition, b.partition);
        assert_eq!(a.objective, b.objective);
    }

    #[test]
    fn disabling_metric_learning_keeps_unit_weights() {
        let mut rng = SeededRng::new(7);
        let ds = separated_blobs(2, 15, 3, 8.0, &mut rng);
        let pool = constraint_pool(ds.labels(), 0.3, 2, &mut rng);
        let result =
            MpckMeans::new(2)
                .with_metric_learning(false)
                .fit(ds.matrix(), &pool, &mut rng);
        for m in &result.metrics {
            assert!(m.iter().all(|&w| (w - 1.0).abs() < 1e-12));
        }
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn k_zero_panics() {
        let data = DataMatrix::from_rows(&[vec![0.0], vec![1.0]]);
        let mut rng = SeededRng::new(8);
        let _ = MpckMeans::new(0).fit(&data, &ConstraintSet::new(2), &mut rng);
    }

    #[test]
    fn k_one_puts_everything_together() {
        let mut rng = SeededRng::new(9);
        let ds = separated_blobs(2, 10, 2, 8.0, &mut rng);
        let result = MpckMeans::new(1).fit(ds.matrix(), &ConstraintSet::new(ds.len()), &mut rng);
        assert_eq!(result.partition.n_clusters(), 1);
    }
}
