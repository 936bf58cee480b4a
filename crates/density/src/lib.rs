//! # cvcp-density
//!
//! The density-based clustering substrate of the CVCP suite, culminating in
//! **FOSC-OPTICSDend** — the semi-supervised, density-based algorithm
//! evaluated by the CVCP paper (Campello, Moulavi, Zimek & Sander 2013,
//! reference \[10\] of the paper).
//!
//! Pipeline (all built from scratch):
//!
//! 1. [`core_distance`]: k-nearest-neighbour core distances for a given
//!    `MinPts`, and mutual-reachability distances, both from a pairwise
//!    distance matrix;
//! 2. [`optics`]: the OPTICS algorithm (reachability plot with ε = ∞),
//!    kept as the reference the MST-built dendrogram is tested against;
//! 3. [`mst`]: a minimum spanning tree of the mutual-reachability graph
//!    (equivalent information, used to build the hierarchy);
//! 4. [`dendrogram`]: the single-linkage dendrogram over mutual-reachability
//!    distances — the "OPTICSDend" hierarchy;
//! 5. [`condensed`]: the condensed cluster tree for a minimum cluster size,
//!    with per-cluster stability;
//! 6. [`fosc`]: the Framework for Optimal Selection of Clusters — extraction
//!    of the optimal non-overlapping set of clusters from the tree, either by
//!    unsupervised stability or by the semi-supervised constraint
//!    satisfaction objective;
//! 7. [`fosc_optics_dend`]: the end-to-end `FoscOpticsDend` algorithm whose
//!    free parameter is `MinPts` — exactly what CVCP selects in the paper.
//!
//! Steps 1 and 3–5 run one way, from a pairwise distance matrix
//! ([`FoscOpticsDend::build_tree_from_pairwise`]): the execution engine
//! caches that matrix once per data set and the tree once per `MinPts`, and
//! [`FoscOpticsDend::fit`] runs the same steps without a cache.

#![warn(missing_docs)]

pub mod condensed;
pub mod core_distance;
pub mod dendrogram;
pub mod fosc;
pub mod fosc_optics_dend;
pub mod mst;
pub mod optics;

pub use condensed::{CondensedNode, CondensedTree};
pub use core_distance::{core_distances, KnnTable};
pub use dendrogram::{Dendrogram, Merge};
pub use fosc::{extract_clusters, ExtractionObjective, FoscSelection};
pub use fosc_optics_dend::{FoscOpticsDend, FoscOpticsDendResult};
pub use mst::Edge;
pub use optics::{OpticsOrdering, OpticsPoint};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::fosc::ExtractionObjective;
    pub use crate::fosc_optics_dend::FoscOpticsDend;
    pub use crate::optics::OpticsOrdering;
}
