//! # cvcp-data
//!
//! Data handling substrate for the CVCP suite: dense matrices, the
//! Euclidean distance, seeded random number helpers, synthetic data
//! generators and replicas of the data sets used in the CVCP paper
//! (Pourrajabi et al., EDBT 2014).
//!
//! The original experiments used the ALOI image collection, five UCI data
//! sets and the Zyeast gene-expression data, none of which can be downloaded
//! in this offline reproduction.  The [`replicas`] and [`aloi`] modules
//! provide synthetic stand-ins that preserve the structural characteristics
//! the paper's experiments depend on (object counts, dimensionality, number
//! and size of classes, degree of overlap).  `EXPERIMENTS.md` ("Data")
//! records the substitution.
//!
//! ## Quick example
//!
//! ```
//! use cvcp_data::prelude::*;
//! use cvcp_data::distance::Distance;
//!
//! let ds = cvcp_data::replicas::iris_like(42);
//! assert_eq!(ds.len(), 150);
//! assert_eq!(ds.dims(), 4);
//! assert_eq!(ds.n_classes(), 3);
//! let d = Euclidean.distance(ds.matrix().row(0), ds.matrix().row(1));
//! assert!(d >= 0.0);
//! ```

#![warn(missing_docs)]

pub mod aloi;
pub mod dataset;
pub mod distance;
mod fingerprint;
pub mod matrix;
pub mod partition;
pub mod replicas;
pub mod rng;
pub mod synthetic;

pub use dataset::{ClassSummary, Dataset};
pub use distance::{Distance, Euclidean, SquaredEuclidean};
pub use fingerprint::{Fingerprint, FingerprintBuilder};
pub use matrix::DataMatrix;
pub use partition::{Assignment, Partition};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::dataset::Dataset;
    pub use crate::distance::{Distance, Euclidean, SquaredEuclidean};
    pub use crate::matrix::DataMatrix;
    pub use crate::partition::{Assignment, Partition};
    pub use crate::rng::SeededRng;
}
