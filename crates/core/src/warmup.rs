//! Startup cache warmup: precompute the shared artifacts of the expected
//! data sets before a serving engine accepts traffic.
//!
//! A freshly started server begins with an empty [`ArtifactCache`], so its
//! first requests pay the full recompute cost of every shared artifact
//! (pairwise matrices, density hierarchies) even when the operator knows
//! exactly which data sets the fleet serves.  [`CacheWarmup`] closes that
//! gap: given the expected data sets and method families, it runs the
//! families' [`SemiSupervisedClusterer::prepare_artifacts`] jobs for each
//! (data set × family) cell on the engine's batch lane, in the order the
//! data sets and families were added.
//!
//! Warmup is a pure cache population pass: it computes exactly the
//! artifacts normal selections would compute on first touch, through the
//! same `prepare_artifacts` entry point the [`crate::plan::ExecutionPlan`]
//! lowering uses, so it can never change any result — it only moves
//! recompute cost from the first requests to startup.  Families whose
//! shareable artifacts all require side information (empty
//! [`ParameterizedMethod::artifact_kinds`], e.g. MPCKMeans) are skipped:
//! there is nothing to compute for them before a request arrives.
//!
//! The plan is a deterministic function of the targets and families — no
//! clocks, no randomness — so a given configuration always warms the same
//! artifacts in the same order.

use crate::algorithm::ParameterizedMethod;
#[cfg(doc)]
use crate::algorithm::SemiSupervisedClusterer;
use cvcp_data::{DataMatrix, Dataset};
#[cfg(doc)]
use cvcp_engine::ArtifactCache;
use cvcp_engine::{Engine, JobGraph, Priority};
use std::sync::Arc;

/// One data set a warmup pass should prepare artifacts for.
#[derive(Clone)]
struct WarmupTarget {
    name: String,
    data: Arc<DataMatrix>,
    n_classes_hint: usize,
}

/// One (data set × method family) cell of a warmup plan.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmupEntry {
    /// Data-set name.
    pub dataset: String,
    /// Method-family name.
    pub method: String,
    /// The parameter values whose artifacts the cell precomputes (the
    /// family's default sweep for the data set).
    pub params: Vec<usize>,
}

/// What a [`CacheWarmup::run`] pass did, for startup logging.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmupReport {
    /// The executed plan, in plan order.
    pub entries: Vec<WarmupEntry>,
    /// Total `prepare_artifacts` jobs run (one per entry parameter).
    pub jobs: usize,
    /// Artifacts resident in the cache after the pass.
    pub resident_entries: usize,
    /// Bytes resident in the cache after the pass.
    pub resident_bytes: usize,
}

/// A startup cache-warmup plan: data sets × method families, executed on
/// the batch lane.
///
/// ```
/// use cvcp_core::prelude::*;
/// use cvcp_core::warmup::CacheWarmup;
/// use cvcp_data::rng::SeededRng;
/// use cvcp_data::synthetic::separated_blobs;
/// use std::sync::Arc;
///
/// let ds = separated_blobs(3, 20, 4, 10.0, &mut SeededRng::new(7));
/// let engine = Engine::new(2);
/// let report = CacheWarmup::new()
///     .add_dataset(&ds)
///     .add_method(Arc::new(FoscMethod::default()))
///     .run(&engine);
/// assert!(report.jobs > 0);
/// assert!(report.resident_entries > 0);
/// ```
#[derive(Default)]
pub struct CacheWarmup {
    targets: Vec<WarmupTarget>,
    methods: Vec<Arc<dyn ParameterizedMethod>>,
}

impl CacheWarmup {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a data set (its matrix is shared, not copied per job).
    pub fn add_dataset(self, dataset: &Dataset) -> Self {
        self.add_target(
            dataset.name(),
            Arc::new(dataset.matrix().clone()),
            dataset.n_classes(),
        )
    }

    /// Adds a raw warmup target: a named matrix plus the class-count hint
    /// its parameter sweeps are sized from.
    pub fn add_target(
        mut self,
        name: impl Into<String>,
        data: Arc<DataMatrix>,
        n_classes_hint: usize,
    ) -> Self {
        self.targets.push(WarmupTarget {
            name: name.into(),
            data,
            n_classes_hint,
        });
        self
    }

    /// Adds a method family.  Families with no data-only artifacts (empty
    /// [`ParameterizedMethod::artifact_kinds`]) are skipped at plan time.
    pub fn add_method(mut self, method: Arc<dyn ParameterizedMethod>) -> Self {
        self.methods.push(method);
        self
    }

    /// Runs the plan on the batch lane — every (data set × family) cell
    /// with at least one data-only artifact kind, data sets outer and
    /// families inner, each in the order added — and returns what was
    /// warmed.
    ///
    /// # Panics
    ///
    /// Panics if a `prepare_artifacts` implementation panics.
    pub fn run(&self, engine: &Engine) -> WarmupReport {
        let mut graph: JobGraph<()> = JobGraph::new(0);
        graph.set_priority(Priority::Batch);
        let mut entries = Vec::new();
        for target in &self.targets {
            for method in &self.methods {
                if method.artifact_kinds().is_empty() {
                    continue;
                }
                let params = method.default_parameter_range(target.n_classes_hint);
                if params.is_empty() {
                    continue;
                }
                for &param in &params {
                    let clusterer = method.instantiate(param);
                    let data = Arc::clone(&target.data);
                    graph.add_job(&[], move |ctx| {
                        clusterer.prepare_artifacts(&data, ctx.cache());
                    });
                }
                entries.push(WarmupEntry {
                    dataset: target.name.clone(),
                    method: method.name(),
                    params,
                });
            }
        }
        let jobs = graph.len();
        if jobs > 0 {
            engine.run_graph(graph).expect_all("cache warmup");
        }
        let stats = engine.cache_stats();
        WarmupReport {
            entries,
            jobs,
            resident_entries: stats.resident_entries,
            resident_bytes: stats.resident_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{FoscMethod, MpckMethod};
    use crate::crossval::CvcpConfig;
    use crate::selection::select_model_with;
    use cvcp_constraints::generate::sample_labeled_subset;
    use cvcp_constraints::SideInformation;
    use cvcp_data::rng::SeededRng;
    use cvcp_data::synthetic::separated_blobs;

    fn blobs(seed: u64) -> Dataset {
        separated_blobs(3, 20, 4, 10.0, &mut SeededRng::new(seed))
    }

    #[test]
    fn warmup_populates_the_cache_and_later_sweeps_hit_it() {
        let ds = blobs(7);
        let engine = Engine::new(2);
        let report = CacheWarmup::new()
            .add_dataset(&ds)
            .add_method(Arc::new(FoscMethod::default()))
            .run(&engine);

        let range = FoscMethod::default().default_parameter_range(ds.n_classes());
        assert_eq!(report.jobs, range.len());
        assert_eq!(report.entries.len(), 1);
        assert_eq!(report.entries[0].dataset, ds.name());
        assert!(report.resident_entries > 0);
        assert!(report.resident_bytes > 0);

        // Re-preparing the same artifacts is now pure cache hits.
        let misses_after_warmup = engine.cache_stats().misses;
        for &p in &range {
            FoscMethod::default()
                .instantiate(p)
                .prepare_artifacts(ds.matrix(), engine.cache());
        }
        assert_eq!(engine.cache_stats().misses, misses_after_warmup);
        assert!(engine.cache_stats().hits > 0);
    }

    #[test]
    fn side_information_only_families_are_skipped() {
        let ds = blobs(8);
        let engine = Engine::new(1);
        let report = CacheWarmup::new()
            .add_dataset(&ds)
            .add_method(Arc::new(MpckMethod::default()))
            .run(&engine);
        assert_eq!(report.jobs, 0);
        assert!(report.entries.is_empty());
        assert_eq!(report.resident_entries, 0);
    }

    #[test]
    fn warmup_runs_cells_in_the_order_added() {
        let ds_b = blobs(1);
        let ds_a = blobs(2);
        let engine = Engine::new(1);
        let report = CacheWarmup::new()
            .add_target("b_set", Arc::new(ds_b.matrix().clone()), 3)
            .add_target("a_set", Arc::new(ds_a.matrix().clone()), 3)
            .add_method(Arc::new(MpckMethod::default()))
            .add_method(Arc::new(FoscMethod::default()))
            .run(&engine);
        let cells: Vec<(&str, &str)> = report
            .entries
            .iter()
            .map(|e| (e.dataset.as_str(), e.method.as_str()))
            .collect();
        let fosc = FoscMethod::default().name();
        assert_eq!(cells, [("b_set", fosc.as_str()), ("a_set", fosc.as_str())]);
        assert_eq!(report.jobs, 2 * report.entries[0].params.len());
    }

    #[test]
    fn warmup_never_changes_selection_results() {
        let ds = blobs(11);
        let labeled = sample_labeled_subset(ds.labels(), 0.3, 2, &mut SeededRng::new(5));
        let side = SideInformation::Labels(labeled);
        let params = [3usize, 6, 9];
        let config = CvcpConfig::default();

        let select = |engine: &Engine| {
            select_model_with(
                engine,
                &FoscMethod::default(),
                ds.matrix(),
                &side,
                &params,
                &config,
                &mut SeededRng::new(42),
            )
        };

        let cold_engine = Engine::new(2);
        let cold = select(&cold_engine);

        let warm_engine = Engine::new(2);
        CacheWarmup::new()
            .add_dataset(&ds)
            .add_method(Arc::new(FoscMethod::default()))
            .run(&warm_engine);
        let warm = select(&warm_engine);

        assert_eq!(cold.best_param, warm.best_param);
        assert_eq!(cold.scores(), warm.scores());
    }
}
