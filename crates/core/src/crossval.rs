//! Step 1 of the CVCP framework: estimating the quality of one parameter
//! value by n-fold cross-validation over the side information.
//!
//! For every fold (constructed by `cvcp-constraints::folds` so that training
//! and test information are independent even under the transitive closure),
//! the clustering algorithm is run on the *whole* data set using only the
//! training side information, and the resulting partition is scored as a
//! classifier over the held-out test constraints (average F-measure of the
//! must-link / cannot-link classes).  The parameter's quality is the mean
//! score over folds — exactly Figure 1 of the paper.  This module holds the
//! folds, one cell's score and the per-parameter reduce; the execution plan
//! ([`crate::plan`]) runs the cells, through
//! [`crate::selection::select_model`] and its siblings.

use crate::algorithm::SemiSupervisedClusterer;
use cvcp_constraints::folds::{constraint_scenario_folds, label_scenario_folds, FoldSplit};
use cvcp_constraints::SideInformation;
use cvcp_data::rng::SeededRng;
use cvcp_data::DataMatrix;
use cvcp_engine::ArtifactCache;
use cvcp_metrics::constraint_fmeasure;

/// Configuration of the CVCP cross-validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CvcpConfig {
    /// Requested number of folds (the paper uses 10; the effective number is
    /// reduced when fewer labelled/constrained objects are available).
    pub n_folds: usize,
    /// Whether Scenario-I fold assignment is stratified by class label.
    pub stratified: bool,
}

impl Default for CvcpConfig {
    fn default() -> Self {
        Self {
            n_folds: 10,
            stratified: true,
        }
    }
}

/// Score of a single fold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoldScore {
    /// Fold index.
    pub fold: usize,
    /// Average F-measure over the test constraints of this fold.
    pub f_measure: f64,
    /// Number of test constraints evaluated.
    pub n_test_constraints: usize,
}

/// Full evaluation of one parameter value.
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterEvaluation {
    /// The evaluated parameter value.
    pub param: usize,
    /// Mean F-measure over the non-empty folds — the CVCP quality score.
    pub score: f64,
    /// Per-fold scores.
    pub folds: Vec<FoldScore>,
}

/// Builds the cross-validation splits for the given side information,
/// clamping the fold count to what the available information supports.
pub(crate) fn build_folds(
    side: &SideInformation,
    config: &CvcpConfig,
    rng: &mut SeededRng,
) -> Vec<FoldSplit> {
    match side {
        SideInformation::Labels(labeled) => {
            let n_folds = config.n_folds.clamp(2, labeled.len().max(2));
            label_scenario_folds(labeled, n_folds, config.stratified, rng)
        }
        SideInformation::Constraints(constraints) => {
            let involved = constraints.involved_objects().len();
            let n_folds = config.n_folds.clamp(2, involved.max(2));
            constraint_scenario_folds(constraints, n_folds, rng)
        }
    }
}

/// The RNG-stream salt of one (parameter, fold) cell of the evaluation
/// grid: a pure function of the cell's coordinates, so the cell's stream
/// does not depend on which job or thread evaluates it.
pub(crate) fn grid_salt(param_idx: usize, fold: usize) -> u64 {
    ((param_idx as u64) << 32) | fold as u64
}

/// Runs one grid cell: cluster on the fold's training information, score as
/// a classifier over its held-out constraints.
pub(crate) fn score_fold(
    clusterer: &dyn SemiSupervisedClusterer,
    data: &DataMatrix,
    split: &FoldSplit,
    rng: &mut SeededRng,
    cache: &ArtifactCache,
) -> FoldScore {
    let partition = clusterer.cluster_with_cache(data, &split.training, rng, cache);
    FoldScore {
        fold: split.fold,
        f_measure: constraint_fmeasure(&partition, &split.test_constraints),
        n_test_constraints: split.test_constraints.len(),
    }
}

/// Folds per-fold scores into a [`ParameterEvaluation`] (mean over the
/// non-empty folds; 0 when every fold was empty).
pub(crate) fn reduce_fold_scores(param: usize, folds: Vec<FoldScore>) -> ParameterEvaluation {
    let score = if folds.is_empty() {
        0.0
    } else {
        folds.iter().map(|f| f.f_measure).sum::<f64>() / folds.len() as f64
    };
    ParameterEvaluation {
        param,
        score,
        folds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{FoscMethod, MpckMethod};
    use crate::selection::select_model;
    use cvcp_constraints::generate::{constraint_pool, sample_constraints, sample_labeled_subset};
    use cvcp_data::synthetic::separated_blobs;

    #[test]
    fn good_parameter_scores_higher_than_bad_for_mpck() {
        let mut rng = SeededRng::new(1);
        let ds = separated_blobs(3, 25, 4, 12.0, &mut rng);
        let labeled = sample_labeled_subset(ds.labels(), 0.25, 2, &mut rng);
        let side = SideInformation::Labels(labeled);
        let method = MpckMethod::default();
        let cfg = CvcpConfig {
            n_folds: 5,
            stratified: true,
        };

        let selection = select_model(&method, ds.matrix(), &side, &[3, 8], &cfg, &mut rng);
        let (good, bad) = (&selection.evaluations[0], &selection.evaluations[1]);
        assert!(
            good.score > bad.score,
            "k=3 should beat k=8: {} vs {}",
            good.score,
            bad.score
        );
        assert!(
            good.score > 0.8,
            "score for the right k should be high: {}",
            good.score
        );
    }

    #[test]
    fn fosc_evaluation_in_constraint_scenario() {
        let mut rng = SeededRng::new(2);
        let ds = separated_blobs(3, 25, 3, 14.0, &mut rng);
        let pool = constraint_pool(ds.labels(), 0.2, 2, &mut rng);
        let sampled = sample_constraints(&pool, 0.5, &mut rng);
        let side = SideInformation::Constraints(sampled);
        let method = FoscMethod::default();
        let cfg = CvcpConfig {
            n_folds: 4,
            stratified: true,
        };

        let selection = select_model(&method, ds.matrix(), &side, &[6], &cfg, &mut rng);
        let eval = &selection.evaluations[0];
        assert!(eval.score > 0.7, "score = {}", eval.score);
        assert!(!eval.folds.is_empty());
        for f in &eval.folds {
            assert!((0.0..=1.0).contains(&f.f_measure));
            assert!(f.n_test_constraints > 0);
        }
    }

    #[test]
    fn fold_count_is_clamped_to_available_information() {
        let mut rng = SeededRng::new(3);
        let ds = separated_blobs(2, 10, 2, 10.0, &mut rng);
        // only 4 labelled objects but 10 folds requested
        let labeled = sample_labeled_subset(ds.labels(), 0.2, 2, &mut rng);
        assert!(labeled.len() < 10);
        let side = SideInformation::Labels(labeled.clone());
        let cfg = CvcpConfig::default();
        let splits = build_folds(&side, &cfg, &mut rng);
        assert!(splits.len() <= labeled.len());
        assert!(splits.len() >= 2);
    }

    #[test]
    fn scores_are_bounded() {
        let mut rng = SeededRng::new(4);
        let ds = separated_blobs(2, 15, 2, 6.0, &mut rng);
        let labeled = sample_labeled_subset(ds.labels(), 0.3, 2, &mut rng);
        let side = SideInformation::Labels(labeled);
        let cfg = CvcpConfig {
            n_folds: 3,
            stratified: true,
        };
        let method = MpckMethod::default();
        let selection = select_model(&method, ds.matrix(), &side, &[2, 4, 7], &cfg, &mut rng);
        for eval in &selection.evaluations {
            assert!(
                (0.0..=1.0).contains(&eval.score),
                "score {} out of bounds",
                eval.score
            );
        }
    }

    #[test]
    fn same_folds_are_reused_across_parameters() {
        let mut rng = SeededRng::new(5);
        let ds = separated_blobs(3, 20, 3, 12.0, &mut rng);
        let labeled = sample_labeled_subset(ds.labels(), 0.3, 2, &mut rng);
        let side = SideInformation::Labels(labeled);
        let cfg = CvcpConfig {
            n_folds: 4,
            stratified: true,
        };
        let method = MpckMethod::default();
        let selection = select_model(&method, ds.matrix(), &side, &[3, 5], &cfg, &mut rng);
        // both evaluations saw the same folds
        let [a, b] = [0, 1].map(|i| -> Vec<(usize, usize)> {
            let folds = &selection.evaluations[i].folds;
            folds
                .iter()
                .map(|f| (f.fold, f.n_test_constraints))
                .collect()
        });
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }
}
