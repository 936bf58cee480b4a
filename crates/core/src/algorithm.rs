//! Abstractions over semi-supervised clustering algorithms.
//!
//! CVCP treats the clustering algorithm as a black box with a single
//! integer-valued parameter: `MinPts` for FOSC-OPTICSDend and `k` for
//! MPCKMeans in the paper.  [`SemiSupervisedClusterer`] is one concrete
//! parameterisation; [`ParameterizedMethod`] is the family over which CVCP
//! searches.

use cvcp_constraints::{ConstraintKind, ConstraintSet, SideInformation};
use cvcp_data::distance::{pairwise_matrix, Euclidean};
use cvcp_data::rng::SeededRng;
use cvcp_data::{DataMatrix, Partition};
use cvcp_density::{CondensedTree, FoscOpticsDend};
use cvcp_engine::{
    fingerprint_matrix, ArtifactCache, ArtifactKey, Fingerprint, FingerprintBuilder,
};
use cvcp_kmeans::{MpckMeans, MpckSeeding};
use std::sync::Arc;

/// Content fingerprint of a constraint set (object count + every
/// constraint's endpoints and kind, in the set's deterministic order).
pub fn fingerprint_constraints(set: &ConstraintSet) -> Fingerprint {
    let mut h = FingerprintBuilder::new();
    h.write_u64(set.n_objects() as u64);
    h.write_u64(set.len() as u64);
    for c in set.iter() {
        h.write_u64(c.a as u64);
        h.write_u64(c.b as u64);
        h.write_u64(match c.kind {
            ConstraintKind::MustLink => 0,
            ConstraintKind::CannotLink => 1,
        });
    }
    h.finish()
}

/// A semi-supervised clustering algorithm with all parameters fixed.
pub trait SemiSupervisedClusterer: Send + Sync {
    /// Human-readable name (used in reports).
    fn name(&self) -> String;

    /// Clusters the *whole* data set using the given side information.
    ///
    /// Implementations must accept empty side information (fully
    /// unsupervised operation).
    fn cluster(&self, data: &DataMatrix, side: &SideInformation, rng: &mut SeededRng) -> Partition;

    /// Like [`Self::cluster`], but allowed to reuse (and populate) shared
    /// artifacts from the engine's cache.  Must return exactly the same
    /// partition as [`Self::cluster`] for the same inputs — the cache trades
    /// time, never results.  The default implementation ignores the cache.
    fn cluster_with_cache(
        &self,
        data: &DataMatrix,
        side: &SideInformation,
        rng: &mut SeededRng,
        cache: &ArtifactCache,
    ) -> Partition {
        let _ = cache;
        self.cluster(data, side, rng)
    }

    /// Precomputes this clusterer's shareable artifacts into `cache` so
    /// subsequent [`Self::cluster_with_cache`] calls hit.  Used by the
    /// engine's artifact jobs; the default is a no-op for algorithms with
    /// nothing to share.
    fn prepare_artifacts(&self, data: &DataMatrix, cache: &ArtifactCache) {
        let _ = (data, cache);
    }

    /// Precomputes the artifacts shared by every parameter value evaluated
    /// on one cross-validation fold's `training` side information (e.g.
    /// MPCKMeans' transitive closure and seeding neighbourhoods, which do
    /// not depend on `k`).  The default is a no-op.
    fn prepare_fold_artifacts(
        &self,
        data: &DataMatrix,
        training: &SideInformation,
        cache: &ArtifactCache,
    ) {
        let _ = (data, training, cache);
    }
}

/// A family of semi-supervised clustering algorithms indexed by an integer
/// parameter (the quantity CVCP selects).
pub trait ParameterizedMethod: Send + Sync {
    /// Name of the family, e.g. `"FOSC-OPTICSDend"`.
    fn name(&self) -> String;

    /// Name of the free parameter, e.g. `"MinPts"` or `"k"`.
    fn parameter_name(&self) -> String;

    /// Instantiates the algorithm for a concrete parameter value.
    fn instantiate(&self, param: usize) -> Box<dyn SemiSupervisedClusterer>;

    /// The default parameter range used by the paper's experiments for this
    /// family (`MinPts ∈ {3,…,24}` in steps of 3; `k ∈ {2,…,10}`).
    fn default_parameter_range(&self, n_classes_hint: usize) -> Vec<usize>;

    /// Whether the Silhouette baseline is applicable (it is defined for
    /// centroid-based methods like MPCKMeans, not for density-based methods;
    /// the paper notes no comparable heuristic exists for `MinPts`).
    fn supports_silhouette(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// FOSC-OPTICSDend adapter
// ---------------------------------------------------------------------------

/// The FOSC-OPTICSDend family (parameter: `MinPts`).
#[derive(Debug, Clone)]
pub struct FoscMethod {
    /// Whether stability is used as a tie-break in the FOSC extraction.
    pub stability_tiebreak: bool,
}

impl Default for FoscMethod {
    fn default() -> Self {
        Self {
            stability_tiebreak: true,
        }
    }
}

/// FOSC-OPTICSDend at a fixed `MinPts`.
#[derive(Debug, Clone)]
pub struct FoscClusterer {
    min_pts: usize,
    stability_tiebreak: bool,
}

impl FoscClusterer {
    fn algorithm(&self) -> FoscOpticsDend {
        FoscOpticsDend::new(self.min_pts).with_stability_tiebreak(self.stability_tiebreak)
    }

    /// The condensed hierarchy for this `MinPts`, computed once per engine
    /// and shared across every fold / trial / request on the same data.  The
    /// `O(n²·d)` pairwise distance matrix is itself cached and shared across
    /// *all* `MinPts` values.
    fn cached_tree(&self, data: &DataMatrix, cache: &ArtifactCache) -> Arc<CondensedTree> {
        let algo = self.algorithm();
        let data_key = fingerprint_matrix(data);
        cache.get_or_compute(
            ArtifactKey::DensityHierarchy {
                data: data_key,
                min_pts: algo.min_pts,
            },
            || {
                let dist: Arc<Vec<Vec<f64>>> = cache
                    .get_or_compute(ArtifactKey::PairwiseDistances { data: data_key }, || {
                        pairwise_matrix(data, &Euclidean)
                    });
                algo.build_tree_from_pairwise(&dist)
            },
        )
    }
}

impl SemiSupervisedClusterer for FoscClusterer {
    fn name(&self) -> String {
        format!("FOSC-OPTICSDend(MinPts={})", self.min_pts)
    }

    fn cluster(
        &self,
        data: &DataMatrix,
        side: &SideInformation,
        _rng: &mut SeededRng,
    ) -> Partition {
        let constraints = side.as_constraints();
        self.algorithm().fit(data, &constraints).partition
    }

    fn cluster_with_cache(
        &self,
        data: &DataMatrix,
        side: &SideInformation,
        _rng: &mut SeededRng,
        cache: &ArtifactCache,
    ) -> Partition {
        let constraints = side.as_constraints();
        let tree = self.cached_tree(data, cache);
        self.algorithm()
            .extract_on_tree(&tree, &constraints)
            .partition
    }

    fn prepare_artifacts(&self, data: &DataMatrix, cache: &ArtifactCache) {
        if data.n_rows() >= 2 {
            let _ = self.cached_tree(data, cache);
        }
    }
}

impl ParameterizedMethod for FoscMethod {
    fn name(&self) -> String {
        "FOSC-OPTICSDend".to_string()
    }

    fn parameter_name(&self) -> String {
        "MinPts".to_string()
    }

    fn instantiate(&self, param: usize) -> Box<dyn SemiSupervisedClusterer> {
        Box::new(FoscClusterer {
            min_pts: param.max(2),
            stability_tiebreak: self.stability_tiebreak,
        })
    }

    fn default_parameter_range(&self, _n_classes_hint: usize) -> Vec<usize> {
        // The range used throughout the paper's experiments.
        vec![3, 6, 9, 12, 15, 18, 21, 24]
    }
}

// ---------------------------------------------------------------------------
// MPCKMeans adapter
// ---------------------------------------------------------------------------

/// The MPCKMeans family (parameter: `k`).
#[derive(Debug, Clone)]
pub struct MpckMethod {
    /// Constraint-violation weight (must-link and cannot-link alike).
    pub violation_weight: f64,
    /// Whether per-cluster diagonal metrics are learned.
    pub learn_metric: bool,
    /// Maximum EM iterations per run: 30 by default, the cap every
    /// experiment and served selection uses (`MpckMeans::new` alone would
    /// allow 50).
    pub max_iter: usize,
}

impl Default for MpckMethod {
    fn default() -> Self {
        Self {
            violation_weight: 1.0,
            learn_metric: true,
            max_iter: 30,
        }
    }
}

/// MPCKMeans at a fixed `k`.
#[derive(Debug, Clone)]
pub struct MpckClusterer {
    k: usize,
    violation_weight: f64,
    learn_metric: bool,
    max_iter: usize,
}

impl MpckClusterer {
    /// The configured algorithm with `k` clamped to the data size.
    fn algorithm(&self, n_rows: usize) -> MpckMeans {
        let k = self.k.min(n_rows).max(1);
        MpckMeans::new(k)
            .with_weights(self.violation_weight, self.violation_weight)
            .with_metric_learning(self.learn_metric)
            .with_max_iter(self.max_iter)
    }

    /// The `k`-invariant seeding structures (transitive closure + must-link
    /// neighbourhood centroids) for one constraint realisation, computed
    /// once per engine and shared by every `k` of the parameter sweep —
    /// and by every trial that draws the same realisation.
    fn cached_seeding(
        &self,
        data: &DataMatrix,
        constraints: &ConstraintSet,
        cache: &ArtifactCache,
    ) -> Arc<MpckSeeding> {
        // The flag comes from the configured algorithm (not a literal) and
        // participates in the key, so a closure-based and a closure-free
        // seeding can never be served for one another.
        let use_closure = self.algorithm(data.n_rows()).use_closure;
        cache.get_or_compute(
            ArtifactKey::MpckSeeding {
                data: fingerprint_matrix(data),
                constraints: fingerprint_constraints(constraints),
                use_closure,
            },
            || MpckSeeding::compute(data, constraints, use_closure),
        )
    }
}

impl SemiSupervisedClusterer for MpckClusterer {
    fn name(&self) -> String {
        format!("MPCKMeans(k={})", self.k)
    }

    fn cluster(&self, data: &DataMatrix, side: &SideInformation, rng: &mut SeededRng) -> Partition {
        let constraints = side.as_constraints();
        self.algorithm(data.n_rows())
            .fit(data, &constraints, rng)
            .partition
    }

    fn cluster_with_cache(
        &self,
        data: &DataMatrix,
        side: &SideInformation,
        rng: &mut SeededRng,
        cache: &ArtifactCache,
    ) -> Partition {
        let constraints = side.as_constraints();
        let seeding = self.cached_seeding(data, &constraints, cache);
        self.algorithm(data.n_rows())
            .fit_seeded(data, &seeding, rng)
            .partition
    }

    fn prepare_fold_artifacts(
        &self,
        data: &DataMatrix,
        training: &SideInformation,
        cache: &ArtifactCache,
    ) {
        if data.n_rows() == 0 {
            return;
        }
        let constraints = training.as_constraints();
        let _ = self.cached_seeding(data, &constraints, cache);
    }
}

impl ParameterizedMethod for MpckMethod {
    fn name(&self) -> String {
        "MPCKMeans".to_string()
    }

    fn parameter_name(&self) -> String {
        "k".to_string()
    }

    fn instantiate(&self, param: usize) -> Box<dyn SemiSupervisedClusterer> {
        Box::new(MpckClusterer {
            k: param.max(1),
            violation_weight: self.violation_weight,
            learn_metric: self.learn_metric,
            max_iter: self.max_iter,
        })
    }

    fn default_parameter_range(&self, n_classes_hint: usize) -> Vec<usize> {
        // k ∈ {2, …, M} where M is a reasonable upper bound on the number of
        // clusters; the paper uses up to 2× the true number of classes
        // (capped at 10, as in Figures 6/8).
        let upper = (2 * n_classes_hint.max(2)).clamp(3, 10);
        (2..=upper).collect()
    }

    fn supports_silhouette(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvcp_constraints::generate::sample_labeled_subset;
    use cvcp_data::synthetic::separated_blobs;
    use cvcp_metrics::adjusted_rand_index;

    #[test]
    fn fosc_adapter_clusters_via_labels() {
        let mut rng = SeededRng::new(1);
        let ds = separated_blobs(3, 20, 3, 12.0, &mut rng);
        let labeled = sample_labeled_subset(ds.labels(), 0.2, 2, &mut rng);
        let side = SideInformation::Labels(labeled);
        let clusterer = FoscMethod::default().instantiate(5);
        let p = clusterer.cluster(ds.matrix(), &side, &mut rng);
        let ari = adjusted_rand_index(&p, ds.labels());
        assert!(ari > 0.85, "ARI = {ari}");
        assert!(clusterer.name().contains("MinPts=5"));
    }

    #[test]
    fn mpck_adapter_clusters_via_labels() {
        let mut rng = SeededRng::new(2);
        let ds = separated_blobs(3, 20, 3, 12.0, &mut rng);
        let labeled = sample_labeled_subset(ds.labels(), 0.2, 2, &mut rng);
        let side = SideInformation::Labels(labeled);
        let clusterer = MpckMethod::default().instantiate(3);
        let p = clusterer.cluster(ds.matrix(), &side, &mut rng);
        let ari = adjusted_rand_index(&p, ds.labels());
        assert!(ari > 0.85, "ARI = {ari}");
        assert!(clusterer.name().contains("k=3"));
    }

    #[test]
    fn adapters_accept_empty_side_information() {
        let mut rng = SeededRng::new(3);
        let ds = separated_blobs(2, 15, 2, 10.0, &mut rng);
        let side = SideInformation::none(ds.len());
        let f = FoscMethod::default()
            .instantiate(4)
            .cluster(ds.matrix(), &side, &mut rng);
        let m = MpckMethod::default()
            .instantiate(2)
            .cluster(ds.matrix(), &side, &mut rng);
        assert_eq!(f.len(), ds.len());
        assert_eq!(m.len(), ds.len());
    }

    #[test]
    fn default_parameter_ranges_match_the_paper() {
        let fosc = FoscMethod::default();
        assert_eq!(
            fosc.default_parameter_range(5),
            vec![3, 6, 9, 12, 15, 18, 21, 24]
        );
        assert_eq!(fosc.parameter_name(), "MinPts");
        assert!(!fosc.supports_silhouette());

        let mpck = MpckMethod::default();
        assert_eq!(
            mpck.default_parameter_range(5),
            (2..=10).collect::<Vec<_>>()
        );
        assert_eq!(mpck.default_parameter_range(3), (2..=6).collect::<Vec<_>>());
        assert_eq!(mpck.parameter_name(), "k");
        assert!(mpck.supports_silhouette());
    }

    #[test]
    fn mpck_cache_path_is_bit_identical_and_shares_seeding() {
        let mut rng = SeededRng::new(5);
        let ds = separated_blobs(3, 20, 3, 12.0, &mut rng);
        let labeled = sample_labeled_subset(ds.labels(), 0.25, 2, &mut rng);
        let side = SideInformation::Labels(labeled);
        let cache = ArtifactCache::new();
        for k in [2usize, 3, 4] {
            let clusterer = MpckMethod::default().instantiate(k);
            let direct = clusterer.cluster(ds.matrix(), &side, &mut SeededRng::new(31));
            let cached =
                clusterer.cluster_with_cache(ds.matrix(), &side, &mut SeededRng::new(31), &cache);
            assert_eq!(direct, cached, "cache changed the MPCK result at k={k}");
        }
        let stats = cache.stats();
        // One seeding computed for the realisation, reused by the other k's.
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn prepare_fold_artifacts_warms_the_mpck_cache() {
        let mut rng = SeededRng::new(6);
        let ds = separated_blobs(2, 15, 2, 10.0, &mut rng);
        let labeled = sample_labeled_subset(ds.labels(), 0.3, 2, &mut rng);
        let side = SideInformation::Labels(labeled);
        let cache = ArtifactCache::new();
        let clusterer = MpckMethod::default().instantiate(2);
        clusterer.prepare_fold_artifacts(ds.matrix(), &side, &cache);
        assert_eq!(cache.stats().misses, 1);
        let _ = clusterer.cluster_with_cache(ds.matrix(), &side, &mut rng, &cache);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "clustering must hit the prepared seeding");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn constraint_fingerprints_detect_content_changes() {
        let mut a = ConstraintSet::new(5);
        a.add_must_link(0, 1);
        a.add_cannot_link(2, 3);
        let b = a.clone();
        assert_eq!(fingerprint_constraints(&a), fingerprint_constraints(&b));
        a.add_must_link(3, 4);
        assert_ne!(fingerprint_constraints(&a), fingerprint_constraints(&b));
        // kind participates
        let mut ml = ConstraintSet::new(3);
        ml.add_must_link(0, 1);
        let mut cl = ConstraintSet::new(3);
        cl.add_cannot_link(0, 1);
        assert_ne!(fingerprint_constraints(&ml), fingerprint_constraints(&cl));
    }

    #[test]
    fn k_larger_than_data_is_clamped() {
        let mut rng = SeededRng::new(4);
        let ds = separated_blobs(2, 3, 2, 10.0, &mut rng);
        let side = SideInformation::none(ds.len());
        let clusterer = MpckMethod::default().instantiate(50);
        let p = clusterer.cluster(ds.matrix(), &side, &mut rng);
        assert_eq!(p.len(), ds.len());
    }
}
