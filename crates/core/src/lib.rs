//! # cvcp-core
//!
//! **CVCP — Cross-Validation for finding Clustering Parameters**, the model
//! selection framework for semi-supervised clustering proposed by
//! Pourrajabi, Moulavi, Campello, Zimek, Sander & Goebel (EDBT 2014).
//!
//! The framework (Section 3 of the paper):
//!
//! 1. the quality of a parameter value `p` is estimated by n-fold
//!    cross-validation over the available side information, treating the
//!    produced partition as a classifier over held-out constraints and
//!    scoring it with the average F-measure of the must-link / cannot-link
//!    classes ([`crossval`]);
//! 2. step 1 is repeated for every candidate parameter value;
//! 3. the parameter with the highest score is selected ([`selection`]);
//! 4. the algorithm is re-run with the selected parameter using *all*
//!    available side information (the external stage of an experiment
//!    [`plan`]).
//!
//! The crate also implements the two baselines the paper compares against —
//! the *expected* quality when guessing the parameter and Silhouette-based
//! selection ([`baselines`], computed per trial by the [`plan`]) — and the
//! repeated-trial experiment harness that regenerates the paper's tables
//! and figures ([`experiment`]).
//!
//! ```
//! use cvcp_core::prelude::*;
//! use cvcp_data::synthetic::separated_blobs;
//! use cvcp_data::rng::SeededRng;
//! use cvcp_constraints::generate::sample_labeled_subset;
//! use cvcp_constraints::SideInformation;
//!
//! let mut rng = SeededRng::new(7);
//! let ds = separated_blobs(3, 25, 4, 10.0, &mut rng);
//! let labeled = sample_labeled_subset(ds.labels(), 0.2, 2, &mut rng);
//! let side = SideInformation::Labels(labeled);
//!
//! let method = MpckMethod::default();
//! let selection = select_model(
//!     &method,
//!     ds.matrix(),
//!     &side,
//!     &[2, 3, 4, 5],
//!     &CvcpConfig::default(),
//!     &mut rng,
//! );
//! // Every candidate received a bounded internal score and the selected
//! // parameter is one of the candidates.
//! assert!(selection.scores().iter().all(|s| (0.0..=1.0).contains(s)));
//! assert!([2, 3, 4, 5].contains(&selection.best_param));
//! ```

#![warn(missing_docs)]

pub mod algorithm;
pub mod baselines;
pub mod crossval;
pub mod experiment;
pub mod json;
pub mod plan;
pub mod report;
pub mod request;
pub mod selection;
pub mod trace_export;

pub use algorithm::{FoscMethod, MpckMethod, ParameterizedMethod, SemiSupervisedClusterer};
pub use baselines::expected_quality;
pub use crossval::{CvcpConfig, FoldScore, ParameterEvaluation};
pub use cvcp_engine::{ArtifactCache, Engine, GraphProfile, GraphTrace, Priority};
pub use experiment::{
    run_experiment, run_experiment_on, summarize, ExperimentConfig, ExperimentSummary,
    SideInfoSpec, TrialOutcome,
};
pub use json::{Json, JsonParseError, ToJson};
pub use plan::{ExecutionPlan, ExternalStage, PlanOptions, PlanTrial, TrialEvaluation};
pub use request::{
    run_selection_request, run_selection_request_traced, Algorithm, RealizedSelection,
    RequestError, RunRequestError, SelectionRequest,
};
pub use selection::{
    select_model, select_model_streaming, select_model_with, CvcpSelection, SelectionCancelled,
    SelectionProgress,
};
pub use trace_export::{chrome_trace_json, graph_profile_json, write_chrome_trace};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::algorithm::{
        FoscMethod, MpckMethod, ParameterizedMethod, SemiSupervisedClusterer,
    };
    pub use crate::baselines::expected_quality;
    pub use crate::crossval::CvcpConfig;
    pub use crate::experiment::{
        run_experiment, run_experiment_on, summarize, ExperimentConfig, SideInfoSpec,
    };
    pub use crate::selection::{select_model, select_model_with, CvcpSelection};
    pub use cvcp_engine::Engine;
}
