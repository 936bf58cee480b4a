//! The repeated-trial experiment harness behind the paper's evaluation
//! (Section 4).
//!
//! One *trial* corresponds to one random draw of side information (labelled
//! objects or constraints), for which the harness:
//!
//! 1. runs CVCP model selection over the candidate parameter range
//!    (collecting the internal classification scores of Figures 5–8);
//! 2. runs the clustering algorithm with the *full* side information for
//!    every candidate parameter and computes the external Overall F-Measure,
//!    excluding the objects involved in the side information;
//! 3. records the external quality of the CVCP-selected parameter, of the
//!    "expected" baseline (mean over the range) and — for methods that
//!    support it — of the Silhouette-selected parameter;
//! 4. records the Pearson correlation between internal and external scores
//!    (Tables 1–4).
//!
//! The paper repeats every experiment over 50 independent trials.  The
//! harness lowers the **full (trial × parameter × fold) grid** — plus the
//! per-parameter final clusterings of every trial — into one engine
//! [`JobGraph`](cvcp_engine::JobGraph) through the unified
//! [`crate::plan::ExecutionPlan`], so even a few-trial run saturates the
//! pool with (parameter × fold) parallelism; a one-thread engine runs the
//! same graph on the calling thread alone.  The figure curves of one representative run are a
//! one-trial experiment.  Every cell derives all of its randomness from
//! the experiment seed and its own (trial, parameter, fold) coordinates —
//! so results are bit-identical at any thread count and on either
//! scheduling lane.  Shareable artifacts (distance matrices, per-`MinPts`
//! density hierarchies) come from the engine's content-keyed cache and
//! are therefore also shared *across* trials and experiments.

use crate::algorithm::{ParameterizedMethod, SemiSupervisedClusterer};
use crate::crossval::{build_folds, CvcpConfig};
use crate::json::{Json, ToJson};
use crate::plan::{ExecutionPlan, ExternalStage, PlanOptions, PlanTrial};
use cvcp_constraints::generate::{constraint_pool, sample_constraints, sample_labeled_subset};
use cvcp_constraints::SideInformation;
use cvcp_data::rng::SeededRng;
use cvcp_data::Dataset;
use cvcp_engine::{Engine, Priority};
use cvcp_metrics::stats::Summary;
use cvcp_metrics::ttest::{paired_t_test, TTestResult};
use std::sync::Arc;

use crate::selection::SELECTION_STREAM_SALT;

/// Salt of the RNG stream feeding the per-parameter final clusterings of a
/// trial (step 4 + external evaluation).
const EXTERNAL_STREAM_SALT: u64 = 0xE87E_44A1;

/// How the side information of each trial is generated from the ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SideInfoSpec {
    /// Scenario I: reveal the labels of this fraction of all objects
    /// (the paper uses 0.05, 0.10, 0.20).
    LabelFraction(f64),
    /// Scenario II: build a constraint pool from `pool_fraction` of the
    /// objects of each class (0.10 in the paper) and hand `sample_fraction`
    /// of the pool to the algorithm (0.10 / 0.20 / 0.50 in the paper).
    ConstraintSample {
        /// Fraction of each class used to build the pool.
        pool_fraction: f64,
        /// Fraction of the pool given to the algorithm.
        sample_fraction: f64,
    },
}

impl SideInfoSpec {
    /// A short label used in reports, e.g. `labels-10%` or `constraints-20%`.
    pub fn label(&self) -> String {
        match self {
            SideInfoSpec::LabelFraction(f) => format!("labels-{:.0}%", f * 100.0),
            SideInfoSpec::ConstraintSample {
                sample_fraction, ..
            } => format!("constraints-{:.0}%", sample_fraction * 100.0),
        }
    }

    /// Draws one realisation of the side information.
    pub fn generate(&self, dataset: &Dataset, rng: &mut SeededRng) -> SideInformation {
        match self {
            SideInfoSpec::LabelFraction(fraction) => {
                let labeled = sample_labeled_subset(dataset.labels(), *fraction, 2, rng);
                SideInformation::Labels(labeled)
            }
            SideInfoSpec::ConstraintSample {
                pool_fraction,
                sample_fraction,
            } => {
                let pool = constraint_pool(dataset.labels(), *pool_fraction, 2, rng);
                let sampled = sample_constraints(&pool, *sample_fraction, rng);
                SideInformation::Constraints(sampled)
            }
        }
    }
}

/// Configuration of a repeated-trial experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Number of independent trials (50 in the paper).
    pub n_trials: usize,
    /// Cross-validation configuration.
    pub cvcp: CvcpConfig,
    /// Candidate parameter values; when empty, the method's default range is
    /// used (with the data set's class count as a hint).
    pub params: Vec<usize>,
    /// Base random seed; trial `t` uses a generator forked from `seed` and `t`.
    pub seed: u64,
    /// Whether Silhouette-based selection is also evaluated (only honoured
    /// for methods that support it).
    pub with_silhouette: bool,
    /// Number of worker threads (1 = sequential).
    pub n_threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            n_trials: 50,
            cvcp: CvcpConfig::default(),
            params: Vec::new(),
            seed: 0xC5C9,
            with_silhouette: true,
            n_threads: 4,
        }
    }
}

/// The outcome of one trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// Trial index.
    pub trial: usize,
    /// Candidate parameters, in evaluation order.
    pub params: Vec<usize>,
    /// Internal CVCP scores per candidate.
    pub internal_scores: Vec<f64>,
    /// External Overall F-Measure per candidate (side-information objects
    /// excluded).
    pub external_scores: Vec<f64>,
    /// Parameter selected by CVCP.
    pub selected_param: usize,
    /// External quality at the CVCP-selected parameter.
    pub cvcp_external: f64,
    /// Expected external quality (mean over the range).
    pub expected_external: f64,
    /// Parameter selected by the Silhouette baseline, when evaluated.
    pub silhouette_param: Option<usize>,
    /// External quality at the Silhouette-selected parameter, when evaluated.
    pub silhouette_external: Option<f64>,
    /// Pearson correlation between internal and external scores.
    pub correlation: f64,
}

/// A method prepared for repeated trials: clusterers instantiated once and
/// shared (immutably) by every trial job.
struct PreparedMethod {
    clusterers: Vec<Arc<dyn SemiSupervisedClusterer>>,
    params: Vec<usize>,
    with_silhouette: bool,
}

impl PreparedMethod {
    fn new(method: &dyn ParameterizedMethod, params: &[usize], with_silhouette: bool) -> Self {
        Self {
            clusterers: params
                .iter()
                .map(|&p| Arc::from(method.instantiate(p)))
                .collect(),
            params: params.to_vec(),
            with_silhouette: with_silhouette && method.supports_silhouette(),
        }
    }
}

/// Runs a full repeated-trial experiment of `method` on `dataset` with side
/// information drawn according to `spec`, on a fresh engine with
/// `config.n_threads` workers.
///
/// Returns one [`TrialOutcome`] per trial, in trial order.
pub fn run_experiment(
    method: &dyn ParameterizedMethod,
    dataset: &Dataset,
    spec: SideInfoSpec,
    config: &ExperimentConfig,
) -> Vec<TrialOutcome> {
    let engine = Engine::new(config.n_threads.max(1));
    run_experiment_on(&engine, method, dataset, spec, config)
}

/// Runs a repeated-trial experiment on an existing engine, so many
/// experiments multiplex over one worker pool and share cached artifacts.
///
/// The whole experiment is lowered into **one job graph** through the
/// unified [`ExecutionPlan`]: every (trial × parameter × fold) grid cell
/// and every per-parameter final clustering is its own engine job, queued
/// on the [`Priority::Batch`] lane (so concurrent interactive selections
/// overtake it).  Every cell's randomness derives solely from
/// `config.seed` and its structural coordinates — results are
/// bit-identical for any thread count, either lane and any batch
/// composition.
pub fn run_experiment_on(
    engine: &Engine,
    method: &dyn ParameterizedMethod,
    dataset: &Dataset,
    spec: SideInfoSpec,
    config: &ExperimentConfig,
) -> Vec<TrialOutcome> {
    let params = if config.params.is_empty() {
        method.default_parameter_range(dataset.n_classes())
    } else {
        config.params.clone()
    };
    let prepared = PreparedMethod::new(method, &params, config.with_silhouette);
    let n_trials = config.n_trials.max(1);
    let labels = Arc::new(dataset.labels().to_vec());
    let trials: Vec<PlanTrial> = (0..n_trials)
        .map(|trial| {
            realize_trial(
                &prepared,
                dataset,
                &labels,
                spec,
                &config.cvcp,
                config.seed,
                trial,
            )
        })
        .collect();
    let plan = ExecutionPlan::new(
        Arc::new(dataset.matrix().clone()),
        prepared.clusterers,
        prepared.params,
        trials,
    );
    plan.run(engine, PlanOptions::with_priority(Priority::Batch))
        .expect("experiment plans run without a cancel token")
        .0
        .into_iter()
        .map(|r| {
            r.outcome
                .expect("experiment trials carry an external stage")
        })
        .collect()
}

/// Realizes one trial of the experiment plan: draws the side information,
/// builds the folds and freezes the grid/external RNG bases.  All
/// randomness is derived from `seed` and `trial` in a fixed sequence, so
/// realization is independent of how (or where) the trial later executes.
/// `labels` is the dataset's ground truth, shared across every trial of
/// one experiment.
fn realize_trial(
    prepared: &PreparedMethod,
    dataset: &Dataset,
    labels: &Arc<Vec<usize>>,
    spec: SideInfoSpec,
    cvcp: &CvcpConfig,
    seed: u64,
    trial: usize,
) -> PlanTrial {
    let mut rng = SeededRng::new(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(trial as u64),
    );
    let side = spec.generate(dataset, &mut rng);
    let involved = side.involved_objects();
    let splits = build_folds(&side, cvcp, &mut rng);
    let grid_base = rng.fork(SELECTION_STREAM_SALT);
    let external_base = rng.fork(EXTERNAL_STREAM_SALT);
    PlanTrial {
        trial,
        splits: Arc::new(splits),
        grid_base,
        external: Some(ExternalStage {
            side: Arc::new(side),
            involved,
            external_base,
            with_silhouette: prepared.with_silhouette,
            labels: Arc::clone(labels),
        }),
    }
}

/// Aggregated results of an experiment, mirroring one row of the paper's
/// Tables 5–16 plus the correlation entry of Tables 1–4.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSummary {
    /// Data set name.
    pub dataset: String,
    /// Method name.
    pub method: String,
    /// Side-information label (e.g. `labels-10%`).
    pub side_info: String,
    /// CVCP external quality over trials.
    pub cvcp: Summary,
    /// Expected external quality over trials.
    pub expected: Summary,
    /// Silhouette external quality over trials (when evaluated).
    pub silhouette: Option<Summary>,
    /// Mean Pearson correlation between internal and external scores.
    pub mean_correlation: f64,
    /// Paired t-test of CVCP against the expected baseline.
    pub cvcp_vs_expected: Option<TTestResult>,
    /// Paired t-test of CVCP against the Silhouette baseline.
    pub cvcp_vs_silhouette: Option<TTestResult>,
    /// Raw CVCP external values (for box plots, Figures 9–12).
    pub cvcp_values: Vec<f64>,
    /// Raw expected external values.
    pub expected_values: Vec<f64>,
    /// Raw Silhouette external values.
    pub silhouette_values: Vec<f64>,
}

impl ExperimentSummary {
    /// `true` when CVCP's advantage over the expected baseline is significant
    /// at the given level.
    pub fn cvcp_beats_expected_significantly(&self, alpha: f64) -> bool {
        self.cvcp_vs_expected
            .as_ref()
            .is_some_and(|t| t.significant_at(alpha) && t.mean_difference > 0.0)
    }
}

fn summary_json(s: &Summary) -> Json {
    Json::obj([
        ("n", s.n.to_json()),
        ("mean", s.mean.to_json()),
        ("std", s.std.to_json()),
        ("min", s.min.to_json()),
        ("max", s.max.to_json()),
    ])
}

fn ttest_json(t: &TTestResult) -> Json {
    Json::obj([
        ("t_statistic", t.t_statistic.to_json()),
        ("degrees_of_freedom", t.degrees_of_freedom.to_json()),
        ("p_value", t.p_value.to_json()),
        ("mean_difference", t.mean_difference.to_json()),
        ("n", t.n.to_json()),
    ])
}

impl ToJson for ExperimentSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("dataset", self.dataset.to_json()),
            ("method", self.method.to_json()),
            ("side_info", self.side_info.to_json()),
            ("cvcp", summary_json(&self.cvcp)),
            ("expected", summary_json(&self.expected)),
            (
                "silhouette",
                match &self.silhouette {
                    Some(s) => summary_json(s),
                    None => Json::Null,
                },
            ),
            ("mean_correlation", self.mean_correlation.to_json()),
            (
                "cvcp_vs_expected",
                match &self.cvcp_vs_expected {
                    Some(t) => ttest_json(t),
                    None => Json::Null,
                },
            ),
            (
                "cvcp_vs_silhouette",
                match &self.cvcp_vs_silhouette {
                    Some(t) => ttest_json(t),
                    None => Json::Null,
                },
            ),
            ("cvcp_values", self.cvcp_values.to_json()),
            ("expected_values", self.expected_values.to_json()),
            ("silhouette_values", self.silhouette_values.to_json()),
        ])
    }
}

/// Summarises the trial outcomes of one (data set, method, side-info) cell.
pub fn summarize(
    dataset: &str,
    method: &str,
    spec: SideInfoSpec,
    outcomes: &[TrialOutcome],
) -> ExperimentSummary {
    let cvcp_values: Vec<f64> = outcomes.iter().map(|o| o.cvcp_external).collect();
    let expected_values: Vec<f64> = outcomes.iter().map(|o| o.expected_external).collect();
    let silhouette_values: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.silhouette_external)
        .collect();
    let correlations: Vec<f64> = outcomes.iter().map(|o| o.correlation).collect();

    let silhouette = if silhouette_values.len() == outcomes.len() && !outcomes.is_empty() {
        Some(Summary::of(&silhouette_values))
    } else {
        None
    };
    // All value vectors hold one entry per trial by construction, so a
    // length mismatch cannot occur; if it ever did, report "no test" rather
    // than failing the whole summary.
    let cvcp_vs_silhouette = if silhouette.is_some() {
        paired_t_test(&cvcp_values, &silhouette_values).unwrap_or(None)
    } else {
        None
    };

    ExperimentSummary {
        dataset: dataset.to_string(),
        method: method.to_string(),
        side_info: spec.label(),
        cvcp: Summary::of(&cvcp_values),
        expected: Summary::of(&expected_values),
        silhouette,
        mean_correlation: cvcp_metrics::stats::mean(&correlations),
        cvcp_vs_expected: paired_t_test(&cvcp_values, &expected_values).unwrap_or(None),
        cvcp_vs_silhouette,
        cvcp_values,
        expected_values,
        silhouette_values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{FoscMethod, MpckMethod};
    use cvcp_data::synthetic::separated_blobs;

    fn quick_config(n_trials: usize) -> ExperimentConfig {
        ExperimentConfig {
            n_trials,
            cvcp: CvcpConfig {
                n_folds: 3,
                stratified: true,
            },
            params: vec![2, 3, 4, 6],
            seed: 11,
            with_silhouette: true,
            n_threads: 2,
        }
    }

    fn blobs() -> Dataset {
        let mut rng = SeededRng::new(99);
        separated_blobs(3, 20, 3, 12.0, &mut rng)
    }

    #[test]
    fn label_scenario_experiment_runs_and_is_ordered() {
        let ds = blobs();
        let outcomes = run_experiment(
            &MpckMethod::default(),
            &ds,
            SideInfoSpec::LabelFraction(0.2),
            &quick_config(4),
        );
        assert_eq!(outcomes.len(), 4);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.trial, i);
            assert_eq!(o.params, vec![2, 3, 4, 6]);
            assert_eq!(o.internal_scores.len(), 4);
            assert_eq!(o.external_scores.len(), 4);
            assert!(o.params.contains(&o.selected_param));
            assert!((0.0..=1.0).contains(&o.cvcp_external));
            assert!((0.0..=1.0).contains(&o.expected_external));
            assert!(o.silhouette_external.is_some());
            assert!((-1.0..=1.0).contains(&o.correlation));
        }
    }

    #[test]
    fn cvcp_beats_expected_on_easy_data() {
        let ds = blobs();
        let outcomes = run_experiment(
            &MpckMethod::default(),
            &ds,
            SideInfoSpec::LabelFraction(0.2),
            &quick_config(6),
        );
        let summary = summarize(
            "blobs",
            "MPCKMeans",
            SideInfoSpec::LabelFraction(0.2),
            &outcomes,
        );
        assert!(
            summary.cvcp.mean >= summary.expected.mean,
            "CVCP {} should be at least Expected {}",
            summary.cvcp.mean,
            summary.expected.mean
        );
        assert!(summary.silhouette.is_some());
        assert_eq!(summary.cvcp_values.len(), 6);
        assert_eq!(summary.side_info, "labels-20%");
    }

    #[test]
    fn constraint_scenario_with_fosc() {
        let ds = blobs();
        let mut cfg = quick_config(3);
        cfg.params = vec![3, 6, 9, 15];
        cfg.with_silhouette = false;
        let outcomes = run_experiment(
            &FoscMethod::default(),
            &ds,
            SideInfoSpec::ConstraintSample {
                pool_fraction: 0.2,
                sample_fraction: 0.5,
            },
            &cfg,
        );
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert!(o.silhouette_external.is_none());
            assert!((0.0..=1.0).contains(&o.cvcp_external));
        }
        let summary = summarize(
            "blobs",
            "FOSC-OPTICSDend",
            SideInfoSpec::ConstraintSample {
                pool_fraction: 0.2,
                sample_fraction: 0.5,
            },
            &outcomes,
        );
        assert!(summary.silhouette.is_none());
        assert_eq!(summary.side_info, "constraints-50%");
    }

    #[test]
    fn experiments_are_reproducible() {
        let ds = blobs();
        let cfg = quick_config(3);
        let a = run_experiment(
            &MpckMethod::default(),
            &ds,
            SideInfoSpec::LabelFraction(0.1),
            &cfg,
        );
        let b = run_experiment(
            &MpckMethod::default(),
            &ds,
            SideInfoSpec::LabelFraction(0.1),
            &cfg,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_and_sequential_give_the_same_results() {
        let ds = blobs();
        let mut seq = quick_config(4);
        seq.n_threads = 1;
        let mut par = quick_config(4);
        par.n_threads = 4;
        let a = run_experiment(
            &MpckMethod::default(),
            &ds,
            SideInfoSpec::LabelFraction(0.2),
            &seq,
        );
        let b = run_experiment(
            &MpckMethod::default(),
            &ds,
            SideInfoSpec::LabelFraction(0.2),
            &par,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn spec_labels_are_paper_style() {
        assert_eq!(SideInfoSpec::LabelFraction(0.05).label(), "labels-5%");
        assert_eq!(
            SideInfoSpec::ConstraintSample {
                pool_fraction: 0.1,
                sample_fraction: 0.2
            }
            .label(),
            "constraints-20%"
        );
    }

    #[test]
    fn default_parameter_range_is_used_when_none_given() {
        let ds = blobs();
        let mut cfg = quick_config(2);
        cfg.params = Vec::new();
        let outcomes = run_experiment(
            &MpckMethod::default(),
            &ds,
            SideInfoSpec::LabelFraction(0.2),
            &cfg,
        );
        // blobs() has 3 classes -> default range 2..=6
        assert_eq!(outcomes[0].params, vec![2, 3, 4, 5, 6]);
    }
}
