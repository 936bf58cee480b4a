//! FOSC-OPTICSDend: the end-to-end semi-supervised, density-based clustering
//! algorithm evaluated by the CVCP paper.
//!
//! Given a data set, a set of instance-level constraints (possibly derived
//! from labelled objects) and the single free parameter `MinPts`, the
//! algorithm
//!
//! 1. computes the density hierarchy (OPTICSDend — the single-linkage
//!    dendrogram over mutual-reachability distances for `MinPts`),
//! 2. condenses it into a cluster tree with minimum cluster size `MinPts`,
//! 3. extracts the optimal non-overlapping set of clusters with FOSC using
//!    the semi-supervised constraint-satisfaction objective (falling back to
//!    unsupervised stability when no constraints are given).
//!
//! Objects not covered by any selected cluster are reported as noise, exactly
//! as in the original framework.

use crate::condensed::CondensedTree;
use crate::core_distance::mutual_reachability_from_pairwise;
use crate::dendrogram::Dendrogram;
use crate::fosc::{extract_clusters, ExtractionObjective, FoscSelection};
use crate::mst::minimum_spanning_tree;
use cvcp_constraints::ConstraintSet;
use cvcp_data::distance::{pairwise_matrix, Euclidean};
use cvcp_data::{DataMatrix, Partition};

/// Configuration of FOSC-OPTICSDend.
#[derive(Debug, Clone)]
pub struct FoscOpticsDend {
    /// The density smoothing parameter (`MinPts`) — also used as the minimum
    /// cluster size of the condensed tree.  This is the parameter CVCP
    /// selects in the paper's experiments (range 3…24).
    pub min_pts: usize,
    /// Whether cluster stability is used to break ties between selections
    /// with equal constraint credit (also used for subtrees untouched by
    /// constraints).  Enabled by default.
    pub stability_tiebreak: bool,
}

/// Full result of a FOSC-OPTICSDend run.
#[derive(Debug, Clone)]
pub struct FoscOpticsDendResult {
    /// The flat partition (noise objects possible).
    pub partition: Partition,
    /// Ids of the selected condensed-tree clusters.
    pub selected_clusters: Vec<usize>,
    /// The condensed cluster tree (useful for inspection / plotting).
    pub tree: CondensedTree,
    /// Objective value of the selection.
    pub objective_value: f64,
}

impl FoscOpticsDend {
    /// Creates a configuration for the given `MinPts`.
    ///
    /// # Panics
    ///
    /// Panics if `min_pts < 2`.
    pub fn new(min_pts: usize) -> Self {
        assert!(min_pts >= 2, "MinPts must be at least 2");
        Self {
            min_pts,
            stability_tiebreak: true,
        }
    }

    /// Enables or disables the stability tie-break.
    pub fn with_stability_tiebreak(mut self, enabled: bool) -> Self {
        self.stability_tiebreak = enabled;
        self
    }

    /// Runs the algorithm with the Euclidean metric:
    /// [`Self::build_tree_from_pairwise`] over the data's pairwise
    /// distances, then [`Self::extract_on_tree`].
    ///
    /// # Panics
    ///
    /// Panics if the data has fewer than two rows.
    pub fn fit(&self, data: &DataMatrix, constraints: &ConstraintSet) -> FoscOpticsDendResult {
        let tree = self.build_tree_from_pairwise(&pairwise_matrix(data, &Euclidean));
        let FoscSelection {
            selected,
            partition,
            total_value,
        } = self.extract_on_tree(&tree, constraints);
        FoscOpticsDendResult {
            partition,
            selected_clusters: selected,
            tree,
            objective_value: total_value,
        }
    }

    /// Steps 1–2 only: builds the condensed density hierarchy from a
    /// precomputed `n × n` pairwise distance matrix, without extracting
    /// clusters.  The mutual-reachability weights are read through the
    /// matrix and the `n` core distances, so nothing `n × n` is allocated
    /// beyond `dist` itself.
    ///
    /// The hierarchy depends on the data and `MinPts` but **not** on the
    /// constraints, which is what makes it shareable: under CVCP the same
    /// tree serves every cross-validation fold, replica and trial evaluated
    /// at this `MinPts` (the execution engine caches it under a
    /// content-derived key), and the `O(n²·d)` distance pass is shared
    /// across *all* `MinPts` values.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has fewer than two rows.
    pub fn build_tree_from_pairwise(&self, dist: &DataMatrix) -> CondensedTree {
        let n = dist.n_rows();
        assert!(n >= 2, "need at least two objects to cluster");
        let mst = minimum_spanning_tree(&mutual_reachability_from_pairwise(dist, self.min_pts));
        let dendrogram = Dendrogram::from_mst(n, &mst);
        CondensedTree::build(&dendrogram, self.min_pts)
    }

    /// Step 3 only: extracts the optimal cluster selection from a prebuilt
    /// hierarchy (which must come from a `FoscOpticsDend` with the same
    /// `MinPts` on the same data).
    pub fn extract_on_tree(
        &self,
        tree: &CondensedTree,
        constraints: &ConstraintSet,
    ) -> FoscSelection {
        let objective = if constraints.is_empty() {
            ExtractionObjective::Stability
        } else {
            ExtractionObjective::ConstraintSatisfaction {
                constraints: constraints.clone(),
                stability_tiebreak: self.stability_tiebreak,
            }
        };
        extract_clusters(tree, &objective)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvcp_constraints::generate::{constraint_pool, sample_labeled_subset};
    use cvcp_data::rng::SeededRng;
    use cvcp_data::synthetic::{separated_blobs, two_moons};
    use cvcp_metrics::{adjusted_rand_index, constraint_fmeasure, overall_fmeasure};

    #[test]
    fn unsupervised_mode_recovers_blobs() {
        let mut rng = SeededRng::new(1);
        let ds = separated_blobs(3, 25, 3, 15.0, &mut rng);
        let result = FoscOpticsDend::new(5).fit(ds.matrix(), &ConstraintSet::new(ds.len()));
        let ari = adjusted_rand_index(&result.partition, ds.labels());
        assert!(ari > 0.9, "ARI = {ari}");
        assert_eq!(result.partition.n_clusters(), 3);
    }

    #[test]
    fn semi_supervised_mode_satisfies_constraints() {
        let mut rng = SeededRng::new(2);
        let ds = separated_blobs(3, 25, 3, 12.0, &mut rng);
        let pool = constraint_pool(ds.labels(), 0.3, 2, &mut rng);
        let result = FoscOpticsDend::new(5).fit(ds.matrix(), &pool);
        let f = constraint_fmeasure(&result.partition, &pool);
        assert!(f > 0.9, "constraint F-measure = {f}");
        let ext = overall_fmeasure(&result.partition, ds.labels());
        assert!(ext > 0.85, "overall F = {ext}");
    }

    #[test]
    fn density_shapes_are_recovered_where_kmeans_cannot() {
        let mut rng = SeededRng::new(3);
        let ds = two_moons(80, 0.05, 2, &mut rng);
        let labeled = sample_labeled_subset(ds.labels(), 0.1, 2, &mut rng);
        let constraints =
            cvcp_constraints::generate::constraints_from_labels(ds.labels(), labeled.indices());
        let result = FoscOpticsDend::new(6).fit(ds.matrix(), &constraints);
        let ari = adjusted_rand_index(&result.partition, ds.labels());
        assert!(ari > 0.8, "ARI = {ari}");
    }

    #[test]
    fn larger_min_pts_gives_coarser_or_equal_clusterings() {
        let mut rng = SeededRng::new(4);
        let ds = separated_blobs(4, 20, 2, 8.0, &mut rng);
        let fine = FoscOpticsDend::new(3).fit(ds.matrix(), &ConstraintSet::new(ds.len()));
        let coarse = FoscOpticsDend::new(15).fit(ds.matrix(), &ConstraintSet::new(ds.len()));
        assert!(coarse.partition.n_clusters() <= fine.partition.n_clusters() + 1);
    }

    #[test]
    fn bad_min_pts_hurts_quality_on_small_clusters() {
        // With MinPts larger than the true cluster size, clusters cannot be
        // resolved and quality collapses — this parameter sensitivity is
        // exactly what CVCP exploits.
        let mut rng = SeededRng::new(5);
        let ds = separated_blobs(5, 12, 2, 12.0, &mut rng);
        let good = FoscOpticsDend::new(4).fit(ds.matrix(), &ConstraintSet::new(ds.len()));
        let bad = FoscOpticsDend::new(24).fit(ds.matrix(), &ConstraintSet::new(ds.len()));
        let f_good = overall_fmeasure(&good.partition, ds.labels());
        let f_bad = overall_fmeasure(&bad.partition, ds.labels());
        assert!(
            f_good > f_bad + 0.1,
            "good MinPts {f_good} should clearly beat bad MinPts {f_bad}"
        );
    }

    #[test]
    fn result_exposes_tree_and_selection() {
        let mut rng = SeededRng::new(6);
        let ds = separated_blobs(2, 20, 2, 10.0, &mut rng);
        let result = FoscOpticsDend::new(4).fit(ds.matrix(), &ConstraintSet::new(ds.len()));
        assert!(!result.selected_clusters.is_empty());
        assert!(result.tree.n_candidates() >= result.selected_clusters.len());
        assert!(result.objective_value.is_finite());
    }

    #[test]
    #[should_panic(expected = "MinPts")]
    fn min_pts_below_two_is_rejected() {
        let _ = FoscOpticsDend::new(1);
    }

    #[test]
    fn deterministic() {
        let mut rng = SeededRng::new(7);
        let ds = separated_blobs(3, 15, 3, 10.0, &mut rng);
        let pool = constraint_pool(ds.labels(), 0.3, 2, &mut rng);
        let a = FoscOpticsDend::new(5).fit(ds.matrix(), &pool);
        let b = FoscOpticsDend::new(5).fit(ds.matrix(), &pool);
        assert_eq!(a.partition, b.partition);
    }
}
