//! # cvcp-metrics
//!
//! Evaluation measures and statistics for the CVCP suite:
//!
//! * [`constraint_fmeasure()`]: the paper's **internal classification
//!   F-measure** — a clustering is treated as a classifier over must-link
//!   (class 1) and cannot-link (class 0) constraints, and the average of the
//!   per-class F-measures is reported (Section 3.2 of the paper);
//! * [`overall_fmeasure()`]: the external **Overall F-Measure** comparing a
//!   partition against ground-truth classes (class-weighted best-match F),
//!   with support for excluding the objects involved in side information
//!   ("set aside" evaluation, Section 2);
//! * [`pair_counting`]: Rand index and Adjusted Rand Index;
//! * [`silhouette`]: the Silhouette coefficient, used by the paper as the
//!   unsupervised model-selection baseline for MPCKMeans;
//! * [`stats`]: descriptive statistics and box-plot summaries;
//! * [`correlation`]: Pearson correlation (Tables 1–4);
//! * [`ttest`]: the paired t-test used for the significance marks in
//!   Tables 5–16, with a self-contained Student-t CDF.

#![warn(missing_docs)]

pub mod constraint_fmeasure;
pub mod correlation;
pub mod overall_fmeasure;
pub mod pair_counting;
pub mod silhouette;
pub mod stats;
pub mod ttest;

pub use constraint_fmeasure::{
    constraint_classification_report, constraint_fmeasure, BinaryReport,
};
pub use correlation::pearson;
pub use overall_fmeasure::{overall_fmeasure, overall_fmeasure_excluding};
pub use pair_counting::{adjusted_rand_index, rand_index};
pub use silhouette::{silhouette_coefficient, silhouette_from_pairwise};
pub use stats::{mean, std_dev, BoxplotStats, Summary};
pub use ttest::{paired_t_test, SampleLengthMismatch, TTestResult};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::constraint_fmeasure::{constraint_fmeasure, BinaryReport};
    pub use crate::correlation::pearson;
    pub use crate::overall_fmeasure::{overall_fmeasure, overall_fmeasure_excluding};
    pub use crate::pair_counting::adjusted_rand_index;
    pub use crate::silhouette::{silhouette_coefficient, silhouette_from_pairwise};
    pub use crate::stats::{mean, std_dev, Summary};
    pub use crate::ttest::paired_t_test;
}
