//! Shared infrastructure for the experiment binaries that regenerate the
//! tables and figures of the CVCP paper (Pourrajabi et al., EDBT 2014).
//!
//! Every binary supports two modes:
//!
//! * **quick** (default): reduced trial counts and a small slice of the
//!   ALOI-like collection, so the whole suite runs in minutes on a laptop;
//! * **full** (`--full`): the paper-scale protocol — 50 trials, 100 ALOI
//!   data sets, 10-fold cross-validation.
//!
//! All binaries print the paper-style rows to stdout and write the raw
//! results as JSON under `target/experiments/`.

use cvcp_core::experiment::{
    run_experiment_on, summarize, ExperimentConfig, ExperimentSummary, SideInfoSpec,
};
use cvcp_core::{CvcpConfig, FoscMethod, MpckMethod, ParameterizedMethod};
use cvcp_data::Dataset;
use cvcp_engine::{CacheConfig, Engine};
use cvcp_metrics::stats::{mean, std_dev};
use std::path::PathBuf;
use std::sync::OnceLock;

pub use cvcp_core::json;

use json::{Json, ToJson};

/// The paper's MinPts range for FOSC-OPTICSDend.
pub const MINPTS_RANGE: [usize; 8] = [3, 6, 9, 12, 15, 18, 21, 24];

/// Base random seed shared by all experiments (reproducibility).
pub const BASE_SEED: u64 = 20_140_324; // EDBT 2014, March 24

/// Run-time configuration derived from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// `true` for the paper-scale protocol.
    pub full: bool,
}

impl Mode {
    /// Parses the command-line arguments (`--full` switches to paper scale).
    pub fn from_args() -> Self {
        let full = std::env::args().any(|a| a == "--full");
        Self { full }
    }

    /// Number of experiment trials per (data set, setting) cell.
    pub fn n_trials(&self) -> usize {
        if self.full {
            50
        } else {
            5
        }
    }

    /// Number of cross-validation folds.
    pub fn n_folds(&self) -> usize {
        if self.full {
            10
        } else {
            5
        }
    }

    /// Number of ALOI-like data sets used when a single "ALOI" column is
    /// reported (Tables 1–16 average over the collection).
    pub fn aloi_collection_size(&self) -> usize {
        if self.full {
            100
        } else {
            3
        }
    }

    /// Number of worker threads (`CVCP_THREADS` overrides the hardware
    /// default).
    pub fn n_threads(&self) -> usize {
        threads_from_env()
    }

    /// Builds the [`ExperimentConfig`] for a given parameter range.
    pub fn config(&self, params: Vec<usize>, with_silhouette: bool) -> ExperimentConfig {
        ExperimentConfig {
            n_trials: self.n_trials(),
            cvcp: CvcpConfig {
                n_folds: self.n_folds(),
                stratified: true,
            },
            params,
            seed: BASE_SEED,
            with_silhouette,
            n_threads: self.n_threads(),
        }
    }
}

/// The artifact-cache configuration for the shared engine, read from the
/// environment:
///
/// * `CVCP_CACHE_MAX_MB` — cap on resident artifact bytes, in MiB;
/// * `CVCP_CACHE_MAX_ENTRIES` — cap on resident artifact count.
///
/// Unset (or unparsable) variables leave their budget unbounded.  Neither
/// knob can change results — budgets only trade recompute time for
/// memory; selections are bit-identical under any setting.
pub fn cache_config_from_env() -> CacheConfig {
    // cvcp: allow(D3, reason = "generic reader closure; the literal CVCP_CACHE_* names are passed in below and checked there")
    cache_config_from(|var| std::env::var(var).ok())
}

/// [`cache_config_from_env`] with the variable lookup injected — pure, so
/// the knob parsing is testable without mutating the process environment
/// (`set_var` concurrent with `getenv` in parallel tests is a data race).
fn cache_config_from(lookup: impl Fn(&str) -> Option<String>) -> CacheConfig {
    let read = |var: &str| -> Option<usize> { lookup(var)?.trim().parse().ok() };
    CacheConfig {
        // Saturating: an absurdly large MiB value means "effectively
        // unbounded", not an overflow panic (or silent wrap) at startup.
        max_bytes: read("CVCP_CACHE_MAX_MB").map(|mb| mb.saturating_mul(1024 * 1024)),
        max_entries: read("CVCP_CACHE_MAX_ENTRIES"),
    }
}

/// The engine worker count, from the environment: `CVCP_THREADS` when set
/// (and parsable), otherwise the machine's available parallelism.
pub fn threads_from_env() -> usize {
    std::env::var("CVCP_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        })
}

/// Builds an engine from the environment knobs ([`threads_from_env`] +
/// [`cache_config_from_env`]) — the one configuration path shared by the
/// experiment binaries ([`shared_engine`]) and the `serve` front-end.
pub fn engine_from_env() -> Engine {
    Engine::with_cache_config(threads_from_env(), cache_config_from_env())
}

/// The process-wide execution engine: every experiment binary multiplexes
/// all of its trials over this one pool and shares one artifact cache
/// (distance matrices, density hierarchies and MPCKMeans seedings are
/// reused across tables, figures and side-information levels of the same
/// data sets).  The configuration comes from [`engine_from_env`].
pub fn shared_engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(engine_from_env)
}

/// Prints the shared engine's cache statistics (hit rate, residency and
/// eviction counters) — called by the binaries after their last experiment.
pub fn print_cache_stats() {
    let stats = shared_engine().cache_stats();
    println!(
        "\n[artifact cache] hit rate {:.1}% ({} hits / {} misses) | \
         resident {} artifacts, {:.1} MiB (peak {:.1} MiB) | evicted {} artifacts, {:.1} MiB",
        stats.hit_rate() * 100.0,
        stats.hits,
        stats.misses,
        stats.resident_entries,
        stats.resident_bytes as f64 / (1024.0 * 1024.0),
        stats.peak_resident_bytes as f64 / (1024.0 * 1024.0),
        stats.evictions,
        stats.evicted_bytes as f64 / (1024.0 * 1024.0),
    );
}

/// Runs one experiment cell on the shared engine.
pub fn run_experiment(
    method: &dyn ParameterizedMethod,
    dataset: &Dataset,
    spec: SideInfoSpec,
    config: &ExperimentConfig,
) -> Vec<cvcp_core::experiment::TrialOutcome> {
    run_experiment_on(shared_engine(), method, dataset, spec, config)
}

/// The evaluation corpus: the five UCI-style replicas (the ALOI collection is
/// handled separately because it is a *collection* of data sets).
pub fn uci_corpus() -> Vec<Dataset> {
    cvcp_data::replicas::uci_corpus(BASE_SEED)
}

/// The ALOI-like collection for the current mode.
pub fn aloi_collection(mode: Mode) -> Vec<Dataset> {
    cvcp_data::aloi::aloi_k5_collection_of_size(BASE_SEED, mode.aloi_collection_size())
}

/// One representative ALOI-like data set (used for the curve figures 5–8).
pub fn representative_aloi() -> Dataset {
    cvcp_data::aloi::aloi_k5_dataset(BASE_SEED, 0)
}

/// The MPCKMeans `k` range for a data set (2..=min(2·classes, 10), as in the
/// paper's figures).
pub fn k_range(dataset: &Dataset) -> Vec<usize> {
    MpckMethod::default().default_parameter_range(dataset.n_classes())
}

/// Returns the method/parameter-range pair for the two algorithms.
pub fn fosc_method() -> FoscMethod {
    FoscMethod::default()
}

/// MPCKMeans with the defaults used throughout the experiments.
pub fn mpck_method() -> MpckMethod {
    MpckMethod::default()
}

/// The output directory for machine-readable results.
pub fn output_dir() -> PathBuf {
    let dir = PathBuf::from("target").join("experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Writes a serialisable result as pretty JSON under `target/experiments/`.
pub fn write_json<T: ToJson>(name: &str, value: &T) {
    let path = output_dir().join(format!("{name}.json"));
    let json = value.to_json().pretty();
    std::fs::write(&path, json).expect("write result file");
    println!("\n[written {}]", path.display());
}

// ---------------------------------------------------------------------------
// Correlation tables (Tables 1–4)
// ---------------------------------------------------------------------------

/// One row of a correlation table: the correlation per data set for one
/// side-information level.
#[derive(Debug, Clone)]
pub struct CorrelationRow {
    /// Side-information label (e.g. `labels-10%`).
    pub setting: String,
    /// Per-data-set mean correlation, keyed by data set name.
    pub correlations: Vec<(String, f64)>,
}

impl ToJson for CorrelationRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("setting", self.setting.to_json()),
            ("correlations", self.correlations.to_json()),
        ])
    }
}

/// Computes a full correlation table (one row per side-information level,
/// one column per data set, ALOI averaged over the collection).
pub fn correlation_table(
    method: &dyn ParameterizedMethod,
    params: Option<Vec<usize>>,
    specs: &[SideInfoSpec],
    mode: Mode,
    with_silhouette: bool,
) -> Vec<CorrelationRow> {
    let aloi = aloi_collection(mode);
    let corpus = uci_corpus();
    let mut rows = Vec::new();
    for &spec in specs {
        let mut correlations = Vec::new();

        // ALOI column: mean over the collection.
        let mut aloi_corrs = Vec::new();
        for ds in &aloi {
            let cfg = mode.config(
                params.clone().unwrap_or_else(|| default_params(method, ds)),
                with_silhouette,
            );
            let outcomes = run_experiment(method, ds, spec, &cfg);
            aloi_corrs.push(mean(
                &outcomes.iter().map(|o| o.correlation).collect::<Vec<_>>(),
            ));
        }
        correlations.push(("ALOI".to_string(), mean(&aloi_corrs)));

        // UCI-style columns.
        for ds in &corpus {
            let cfg = mode.config(
                params.clone().unwrap_or_else(|| default_params(method, ds)),
                with_silhouette,
            );
            let outcomes = run_experiment(method, ds, spec, &cfg);
            let corr = mean(&outcomes.iter().map(|o| o.correlation).collect::<Vec<_>>());
            correlations.push((ds.name().to_string(), corr));
        }
        rows.push(CorrelationRow {
            setting: spec.label(),
            correlations,
        });
    }
    rows
}

/// Prints a correlation table in the paper's layout (settings as rows, data
/// sets as columns).
pub fn print_correlation_table(title: &str, rows: &[CorrelationRow]) {
    println!("\n{title}");
    if rows.is_empty() {
        return;
    }
    print!("{:<16}", "setting");
    for (name, _) in &rows[0].correlations {
        print!(" {name:>16}");
    }
    println!();
    for row in rows {
        print!("{:<16}", row.setting);
        for (_, corr) in &row.correlations {
            print!(" {corr:>16.4}");
        }
        println!();
    }
}

// ---------------------------------------------------------------------------
// Performance tables (Tables 5–16)
// ---------------------------------------------------------------------------

/// A performance table: one summary per data set for one side-information
/// level (ALOI summarised over the collection).
#[derive(Debug, Clone)]
pub struct PerformanceTable {
    /// Table caption.
    pub title: String,
    /// Side-information label.
    pub setting: String,
    /// Per-data-set summaries (ALOI is an aggregate over the collection).
    pub summaries: Vec<ExperimentSummary>,
    /// For the ALOI collection: how many of its data sets showed a
    /// statistically significant difference (the paper reports e.g. "89/100
    /// in ALOI were significant").
    pub aloi_significant: usize,
    /// Number of ALOI data sets evaluated.
    pub aloi_total: usize,
}

impl ToJson for PerformanceTable {
    fn to_json(&self) -> Json {
        Json::obj([
            ("title", self.title.to_json()),
            ("setting", self.setting.to_json()),
            ("summaries", self.summaries.to_json()),
            ("aloi_significant", self.aloi_significant.to_json()),
            ("aloi_total", self.aloi_total.to_json()),
        ])
    }
}

fn default_params(method: &dyn ParameterizedMethod, ds: &Dataset) -> Vec<usize> {
    method.default_parameter_range(ds.n_classes())
}

/// Runs one performance table: every data set (ALOI collection + UCI corpus)
/// for one side-information specification.
pub fn performance_table(
    title: &str,
    method: &dyn ParameterizedMethod,
    params: Option<Vec<usize>>,
    spec: SideInfoSpec,
    mode: Mode,
    with_silhouette: bool,
) -> PerformanceTable {
    let aloi = aloi_collection(mode);
    let corpus = uci_corpus();

    // ALOI: run per data set, aggregate the trial values, count significance.
    let mut aloi_cvcp = Vec::new();
    let mut aloi_expected = Vec::new();
    let mut aloi_sil = Vec::new();
    let mut aloi_significant = 0usize;
    let mut all_aloi_outcomes = Vec::new();
    for ds in &aloi {
        let cfg = mode.config(
            params.clone().unwrap_or_else(|| default_params(method, ds)),
            with_silhouette,
        );
        let outcomes = run_experiment(method, ds, spec, &cfg);
        let summary = summarize(ds.name(), &method.name(), spec, &outcomes);
        if summary.cvcp_beats_expected_significantly(0.05) {
            aloi_significant += 1;
        }
        aloi_cvcp.extend(summary.cvcp_values.iter().copied());
        aloi_expected.extend(summary.expected_values.iter().copied());
        aloi_sil.extend(summary.silhouette_values.iter().copied());
        all_aloi_outcomes.extend(outcomes);
    }
    let aloi_summary = {
        let mut s = summarize("ALOI", &method.name(), spec, &all_aloi_outcomes);
        // keep the aggregate raw values for the box plots
        s.cvcp_values = aloi_cvcp;
        s.expected_values = aloi_expected;
        s.silhouette_values = aloi_sil;
        s
    };

    let mut summaries = vec![aloi_summary];
    for ds in &corpus {
        let cfg = mode.config(
            params.clone().unwrap_or_else(|| default_params(method, ds)),
            with_silhouette,
        );
        let outcomes = run_experiment(method, ds, spec, &cfg);
        summaries.push(summarize(ds.name(), &method.name(), spec, &outcomes));
    }

    PerformanceTable {
        title: title.to_string(),
        setting: spec.label(),
        summaries,
        aloi_significant,
        aloi_total: aloi.len(),
    }
}

/// Prints a performance table in the paper's layout.
pub fn print_performance_table(table: &PerformanceTable, with_silhouette: bool) {
    println!("\n{} ({})", table.title, table.setting);
    println!(
        "  {}/{} ALOI data sets showed a significant CVCP-vs-Expected difference",
        table.aloi_significant, table.aloi_total
    );
    if with_silhouette {
        println!(
            "{:<18} {:>9} {:>9} {:>9}   {:>9} {:>9} {:>9}",
            "data set", "CVCP", "Exp", "Silh", "CVCP std", "Exp std", "Silh std"
        );
    } else {
        println!(
            "{:<18} {:>9} {:>9}   {:>9} {:>9}",
            "data set", "CVCP", "Expected", "CVCP std", "Exp std"
        );
    }
    for s in &table.summaries {
        let star = if s.cvcp_beats_expected_significantly(0.05) {
            "*"
        } else {
            " "
        };
        if with_silhouette {
            let (sm, ss) = s
                .silhouette
                .as_ref()
                .map_or((f64::NAN, f64::NAN), |x| (x.mean, x.std));
            println!(
                "{:<18} {:>8.4}{star} {:>9.4} {:>9.4}   {:>9.4} {:>9.4} {:>9.4}",
                s.dataset, s.cvcp.mean, s.expected.mean, sm, s.cvcp.std, s.expected.std, ss
            );
        } else {
            println!(
                "{:<18} {:>8.4}{star} {:>9.4}   {:>9.4} {:>9.4}",
                s.dataset, s.cvcp.mean, s.expected.mean, s.cvcp.std, s.expected.std
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Curve figures (Figures 5–8)
// ---------------------------------------------------------------------------

/// The two series of a parameter-vs-quality curve figure.
#[derive(Debug, Clone)]
pub struct CurveFigure {
    /// Figure caption.
    pub title: String,
    /// Parameter name (`MinPts` or `k`).
    pub parameter: String,
    /// Parameter values.
    pub params: Vec<usize>,
    /// Internal CVCP classification scores.
    pub internal: Vec<f64>,
    /// External clustering scores (Overall F-measure).
    pub external: Vec<f64>,
    /// Pearson correlation between the two series.
    pub correlation: f64,
}

impl ToJson for CurveFigure {
    fn to_json(&self) -> Json {
        Json::obj([
            ("title", self.title.to_json()),
            ("parameter", self.parameter.to_json()),
            ("params", self.params.to_json()),
            ("internal", self.internal.to_json()),
            ("external", self.external.to_json()),
            ("correlation", self.correlation.to_json()),
        ])
    }
}

/// Generates a curve figure: one representative run on one ALOI-like data
/// set, as in Figures 5–8.  The run is trial 0 of a one-trial experiment on
/// the [`shared_engine`].
pub fn curve_figure(
    title: &str,
    method: &dyn ParameterizedMethod,
    params: &[usize],
    spec: SideInfoSpec,
    mode: Mode,
) -> CurveFigure {
    let ds = representative_aloi();
    let cfg = ExperimentConfig {
        n_trials: 1,
        ..mode.config(params.to_vec(), false)
    };
    let outcome = run_experiment(method, &ds, spec, &cfg).swap_remove(0);
    CurveFigure {
        title: title.to_string(),
        parameter: method.parameter_name(),
        params: params.to_vec(),
        internal: outcome.internal_scores,
        external: outcome.external_scores,
        correlation: outcome.correlation,
    }
}

/// Prints a curve figure as an aligned table plus the correlation.
pub fn print_curve_figure(fig: &CurveFigure) {
    println!("\n{}", fig.title);
    println!(
        "{}",
        cvcp_core::report::curve_table(&fig.parameter, &fig.params, &fig.internal, &fig.external)
    );
    println!("correlation coefficient = {:.4}", fig.correlation);
}

// ---------------------------------------------------------------------------
// Box-plot figures (Figures 9–12)
// ---------------------------------------------------------------------------

/// The quality distributions behind one box-plot figure.
#[derive(Debug, Clone)]
pub struct BoxplotFigure {
    /// Figure caption.
    pub title: String,
    /// One entry per box: label and the raw quality values.
    pub groups: Vec<(String, Vec<f64>)>,
}

impl ToJson for BoxplotFigure {
    fn to_json(&self) -> Json {
        Json::obj([
            ("title", self.title.to_json()),
            ("groups", self.groups.to_json()),
        ])
    }
}

/// Generates a box-plot figure over the ALOI-like collection for the given
/// side-information levels.
pub fn boxplot_figure(
    title: &str,
    method: &dyn ParameterizedMethod,
    params: Option<Vec<usize>>,
    specs: &[(SideInfoSpec, &str)],
    mode: Mode,
    with_silhouette: bool,
) -> BoxplotFigure {
    let aloi = aloi_collection(mode);
    let mut groups = Vec::new();
    for &(spec, suffix) in specs {
        let mut cvcp_values = Vec::new();
        let mut expected_values = Vec::new();
        let mut sil_values = Vec::new();
        for ds in &aloi {
            let cfg = mode.config(
                params.clone().unwrap_or_else(|| default_params(method, ds)),
                with_silhouette,
            );
            let outcomes = run_experiment(method, ds, spec, &cfg);
            for o in &outcomes {
                cvcp_values.push(o.cvcp_external);
                expected_values.push(o.expected_external);
                if let Some(s) = o.silhouette_external {
                    sil_values.push(s);
                }
            }
        }
        groups.push((format!("CVCP-{suffix}"), cvcp_values));
        groups.push((format!("Exp-{suffix}"), expected_values));
        if with_silhouette {
            groups.push((format!("Sil-{suffix}"), sil_values));
        }
    }
    BoxplotFigure {
        title: title.to_string(),
        groups,
    }
}

/// Prints a box-plot figure as one summary row per box.
pub fn print_boxplot_figure(fig: &BoxplotFigure) {
    println!("\n{}", fig.title);
    for (label, values) in &fig.groups {
        println!("{}", cvcp_core::report::boxplot_row(label, values));
        if !values.is_empty() {
            println!(
                "             mean={:.4} std={:.4}",
                mean(values),
                std_dev(values)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_defaults_are_quick() {
        let mode = Mode { full: false };
        assert_eq!(mode.n_trials(), 5);
        assert_eq!(mode.n_folds(), 5);
        assert_eq!(mode.aloi_collection_size(), 3);
        let full = Mode { full: true };
        assert_eq!(full.n_trials(), 50);
        assert_eq!(full.aloi_collection_size(), 100);
    }

    #[test]
    fn cache_env_knobs_feed_the_config() {
        // Exercised through the injected-lookup seam: mutating the real
        // process environment from a parallel test would race with other
        // tests (and `shared_engine()`) reading it.
        let env = |pairs: &'static [(&'static str, &'static str)]| {
            move |var: &str| {
                pairs
                    .iter()
                    .find(|(k, _)| *k == var)
                    .map(|(_, v)| v.to_string())
            }
        };
        let cfg = cache_config_from(env(&[
            ("CVCP_CACHE_MAX_MB", "16"),
            ("CVCP_CACHE_MAX_ENTRIES", "64"),
        ]));
        assert_eq!(cfg.max_bytes, Some(16 << 20));
        assert_eq!(cfg.max_entries, Some(64));
        // Unset: unbounded.
        assert!(cache_config_from(env(&[])).is_unbounded());
        // Unparsable values leave their budget unbounded.
        let cfg = cache_config_from(env(&[
            ("CVCP_CACHE_MAX_MB", "lots"),
            ("CVCP_CACHE_MAX_ENTRIES", "-1"),
        ]));
        assert!(cfg.is_unbounded());
        // An absurd MiB count saturates instead of overflowing.
        let cfg = cache_config_from(env(&[("CVCP_CACHE_MAX_MB", "18446744073709551615")]));
        assert_eq!(cfg.max_bytes, Some(usize::MAX));
    }

    #[test]
    fn corpus_and_collection_shapes() {
        let corpus = uci_corpus();
        assert_eq!(corpus.len(), 5);
        let aloi = aloi_collection(Mode { full: false });
        assert_eq!(aloi.len(), 3);
        assert_eq!(representative_aloi().len(), 125);
    }

    #[test]
    fn k_range_respects_class_count() {
        let ds = representative_aloi();
        assert_eq!(k_range(&ds), (2..=10).collect::<Vec<_>>());
    }

    #[test]
    fn curve_figure_has_consistent_lengths() {
        let mode = Mode { full: false };
        let fig = curve_figure(
            "test figure",
            &mpck_method(),
            &[2, 3, 4],
            SideInfoSpec::LabelFraction(0.1),
            mode,
        );
        assert_eq!(fig.params.len(), 3);
        assert_eq!(fig.internal.len(), 3);
        assert_eq!(fig.external.len(), 3);
        assert!((-1.0..=1.0).contains(&fig.correlation));
    }
}
