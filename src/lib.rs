//! # cvcp-suite
//!
//! Umbrella crate for the CVCP reproduction — *Model Selection for
//! Semi-Supervised Clustering* (Pourrajabi et al., EDBT 2014).
//!
//! This crate simply re-exports the public API of the workspace crates so
//! downstream users can depend on a single crate:
//!
//! * [`data`] — matrices, distances, synthetic data and the paper's data-set
//!   replicas;
//! * [`constraints`] — must-link/cannot-link constraints, transitive closure
//!   and the leak-free cross-validation fold machinery;
//! * [`metrics`] — internal and external evaluation measures and statistics;
//! * [`kmeans`] — MPCKMeans and its initialisation;
//! * [`density`] — OPTICS, dendrograms, FOSC and FOSC-OPTICSDend;
//! * [`obs`] — always-on engine metrics (log-bucketed histograms), the
//!   opt-in per-job span recorder and the critical-path profiler;
//! * [`engine`] — the deterministic, cache-aware parallel execution engine
//!   that evaluates the (parameter × fold × replica) grid;
//! * [`core`] — the CVCP model-selection framework, baselines and the
//!   experiment harness;
//! * [`server`] — the newline-delimited-JSON TCP serving front-end over
//!   the engine.
//!
//! See the `examples/` directory for end-to-end usage and `EXPERIMENTS.md`
//! for the reproduction of the paper's tables and figures.

#![warn(missing_docs)]

pub use cvcp_constraints as constraints;
pub use cvcp_core as core;
pub use cvcp_data as data;
pub use cvcp_density as density;
pub use cvcp_engine as engine;
pub use cvcp_kmeans as kmeans;
pub use cvcp_metrics as metrics;
pub use cvcp_obs as obs;
pub use cvcp_server as server;

/// One-stop prelude re-exporting the most commonly used items.
pub mod prelude {
    pub use cvcp_constraints::prelude::*;
    pub use cvcp_core::prelude::*;
    pub use cvcp_data::prelude::*;
    pub use cvcp_density::prelude::*;
    pub use cvcp_engine::prelude::*;
    pub use cvcp_kmeans::prelude::*;
    pub use cvcp_metrics::prelude::*;
}

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_wired_up() {
        // Touch one item from every re-exported crate.
        let _ = crate::data::replicas::iris_like(0);
        let _ = crate::constraints::ConstraintSet::new(3);
        let _ = crate::metrics::stats::mean(&[1.0, 2.0]);
        let _ = crate::kmeans::MpckMeans::new(2);
        let _ = crate::density::FoscOpticsDend::new(3);
        let _ = crate::engine::Engine::sequential();
        let _ = crate::obs::LogHistogram::new();
        let _ = crate::core::CvcpConfig::default();
        let _ = crate::server::ServerConfig::default();
    }
}
