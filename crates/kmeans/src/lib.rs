//! # cvcp-kmeans
//!
//! The partitional clustering algorithm of the CVCP suite:
//!
//! * [`mpck_means`]: **MPCKMeans** (Bilenko, Basu & Mooney 2004) — the
//!   semi-supervised partitional algorithm evaluated in the CVCP paper,
//!   combining soft constraint penalties with per-cluster diagonal metric
//!   learning.  Its free parameter is the number of clusters `k`, which is
//!   exactly what CVCP selects in the paper's experiments;
//! * [`init`]: its must-link neighbourhood initialisation, with k-means++
//!   draws filling any missing centroids;
//! * [`objective`]: the centroid and (weighted) squared-distance helpers
//!   both of them share.
//!
//! MPCKMeans consumes a [`cvcp_constraints::ConstraintSet`] (possibly empty)
//! and produces a [`cvcp_data::Partition`] with no noise objects.

#![warn(missing_docs)]

pub mod init;
pub mod mpck_means;
pub mod objective;

pub use init::{
    centroids_from_candidates, kmeanspp_centroids, neighborhood_candidates, neighborhood_centroids,
};
pub use mpck_means::{MpckMeans, MpckMeansResult, MpckSeeding};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::mpck_means::MpckMeans;
}
