//! Frozen result digests for the hot kernels, one reduced experiment and
//! the cache and serving paths.
//!
//! The bit-identity suites (`engine_determinism`, `lock_rank_identity`,
//! …) compare configurations with each other, so a change that moves every
//! configuration the same way passes them unnoticed.  These tests compare
//! against *committed* values instead:
//!
//! * `MpckMeans::fit_seeded` on the six `grid_batch` replicas (the five
//!   UCI replicas and `aloi:0`), over each replica's default `k` grid and
//!   two RNG seeds: partition, centroids, metrics, objective, iterations;
//!   and three more fits on the same pools whose E-step empties a
//!   cluster, which pin the object the reseed moves into it;
//! * `core_distances` for MinPts {1, 2, 3, 6, …, 24, n − 1, n, n + 5} on
//!   the same replicas;
//! * one reduced `run_experiment_on` (iris_like and aloi:0, FOSC and
//!   MPCKMeans, 2 trials × 3 folds) on a two-worker and on a one-thread
//!   engine: every field of every trial outcome;
//! * two selections through `select_model_with` on a two-worker engine
//!   whose cache byte budget is below the working set (FOSC on aloi:0
//!   over MinPts 3..24, MPCKMeans on iris_like over its default `k`
//!   grid), so the graph lowering and the LRU eviction both run;
//! * one selection served over the wire (`Server::start` plus a v2
//!   `client::Connection`): the returned `RankedSelection`;
//! * the four quick-mode curve figures (Figures 5–8) as `curve_figure`
//!   computes them for the `fig05`–`fig08` binaries: parameters, both
//!   score series and their correlation.
//!
//! Each digest is FNV-1a 64 over the little-endian bytes of the result's
//! words (`f64::to_bits` for floats), one line per case in
//! `tests/golden/kernels.txt`.  A single flipped bit anywhere fails the
//! test.  Re-baselining is an explicit edit of that file with the reason
//! recorded in CHANGES.md; on a mismatch the failure message prints the
//! regenerated lines of the failing section.

use cvcp_experiments::{
    curve_figure, fosc_method, k_range, mpck_method, representative_aloi, CurveFigure, Mode,
    MINPTS_RANGE,
};
use cvcp_suite::constraints::generate::constraint_pool;
use cvcp_suite::core::{
    run_experiment_on, select_model_with, Algorithm, CvcpConfig, CvcpSelection, Engine,
    ExperimentConfig, SelectionRequest, SideInfoSpec, TrialOutcome,
};
use cvcp_suite::data::distance::{pairwise_matrix, Euclidean};
use cvcp_suite::data::replicas::{replica_by_name, uci_corpus};
use cvcp_suite::data::rng::SeededRng;
use cvcp_suite::data::{Assignment, Dataset};
use cvcp_suite::density::core_distances;
use cvcp_suite::engine::CacheConfig;
use cvcp_suite::kmeans::{MpckMeans, MpckMeansResult, MpckSeeding};
use cvcp_suite::server::client::Connection;
use cvcp_suite::server::{RankedSelection, Response, Server, ServerConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The replica seed of the paper binaries and of `grid_batch`.
const REPLICA_SEED: u64 = 20_140_324;
const CONSTRAINT_SEED: u64 = 0x60_1D;
const FIT_SEEDS: [u64; 2] = [1, 2];
/// Fits on the same constraint pools whose E-step empties a cluster, so
/// that the digest pins which object the reseed moves into it: `(replica,
/// k, seed)`.
const RESEED_FITS: [(&str, usize, u64); 3] = [
    ("ecoli_like", 9, 5),
    ("zyeast_like", 6, 9),
    ("aloi_k5_000", 10, 10),
];
const EXPERIMENT_SEED: u64 = 0xC5C9;
const SELECTION_SEED: u64 = 0x5E1EC7;
const GOLDEN: &str = include_str!("golden/kernels.txt");

/// FNV-1a 64 over the little-endian bytes of a word stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn floats(&mut self, vs: &[f64]) {
        self.word(vs.len() as u64);
        vs.iter().for_each(|&v| self.float(v));
    }
}

/// The six `grid_batch` replicas.
fn replicas() -> Vec<Dataset> {
    let mut datasets = uci_corpus(REPLICA_SEED);
    datasets.push(replica_by_name("aloi:0", REPLICA_SEED).expect("aloi:0 is registered"));
    datasets
}

/// MPCKMeans configured as the suite's `MpckMethod::default()` runs it.
fn suite_mpck(k: usize) -> MpckMeans {
    let method = cvcp_suite::core::MpckMethod::default();
    MpckMeans::new(k)
        .with_weights(method.violation_weight, method.violation_weight)
        .with_metric_learning(method.learn_metric)
        .with_max_iter(method.max_iter)
}

fn mpck_digest(result: &MpckMeansResult) -> u64 {
    let mut h = Fnv::new();
    h.word(result.partition.len() as u64);
    for a in result.partition.assignments() {
        h.word(match a {
            Assignment::Cluster(c) => *c as u64,
            Assignment::Noise => u64::MAX,
        });
    }
    for c in result.centroids.rows() {
        h.floats(c);
    }
    for m in result.metrics.rows() {
        h.floats(m);
    }
    h.float(result.objective);
    h.word(result.iterations as u64);
    h.0
}

fn outcome_digest(outcomes: &[TrialOutcome]) -> u64 {
    let mut h = Fnv::new();
    for o in outcomes {
        h.word(o.trial as u64);
        h.word(o.params.len() as u64);
        o.params.iter().for_each(|&p| h.word(p as u64));
        h.floats(&o.internal_scores);
        h.floats(&o.external_scores);
        h.word(o.selected_param as u64);
        h.float(o.cvcp_external);
        h.float(o.expected_external);
        h.word(o.silhouette_param.map_or(u64::MAX, |p| p as u64));
        h.word(o.silhouette_external.map_or(u64::MAX, f64::to_bits));
        h.float(o.correlation);
    }
    h.0
}

fn selection_digest(selection: &CvcpSelection) -> u64 {
    let mut h = Fnv::new();
    h.word(selection.best_param as u64);
    h.float(selection.best_score);
    h.word(selection.evaluations.len() as u64);
    for e in &selection.evaluations {
        h.word(e.param as u64);
        h.float(e.score);
        h.word(e.folds.len() as u64);
        for f in &e.folds {
            h.word(f.fold as u64);
            h.float(f.f_measure);
            h.word(f.n_test_constraints as u64);
        }
    }
    h.0
}

fn curve_digest(figure: &CurveFigure) -> u64 {
    let mut h = Fnv::new();
    h.word(figure.params.len() as u64);
    figure.params.iter().for_each(|&p| h.word(p as u64));
    h.floats(&figure.internal);
    h.floats(&figure.external);
    h.float(figure.correlation);
    h.0
}

fn ranked_digest(selection: &RankedSelection) -> u64 {
    let mut h = Fnv::new();
    h.word(selection.best_param as u64);
    h.float(selection.best_score);
    for entries in [&selection.ranking, &selection.evaluations] {
        h.word(entries.len() as u64);
        for e in entries.iter() {
            h.word(e.param as u64);
            h.float(e.score);
        }
    }
    h.0
}

/// Compares computed `(case, digest)` lines against the committed lines
/// whose case starts with `section`, failing with the regenerated lines.
fn check_section(section: &str, computed: Vec<(String, u64)>) {
    let frozen: BTreeMap<&str, &str> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && l.starts_with(section))
        .map(|l| l.rsplit_once(' ').expect("`<case> <digest>` line"))
        .collect();
    let lines: Vec<String> = computed
        .iter()
        .map(|(case, digest)| format!("{case} {digest:016x}"))
        .collect();
    let drifted: Vec<&String> = computed
        .iter()
        .zip(&lines)
        .filter(|((case, digest), _)| {
            frozen.get(case.as_str()) != Some(&format!("{digest:016x}").as_str())
        })
        .map(|(_, line)| line)
        .collect();
    assert!(
        !frozen.is_empty() && drifted.is_empty() && frozen.len() == computed.len(),
        "{} of {} `{section}` digests drifted from tests/golden/kernels.txt \
         ({} frozen): {drifted:#?}\nregenerated section:\n{}",
        drifted.len(),
        computed.len(),
        frozen.len(),
        lines.join("\n")
    );
}

#[test]
fn mpck_fit_seeded_matches_the_frozen_digests() {
    let mut computed = Vec::new();
    for ds in replicas() {
        let constraints =
            constraint_pool(ds.labels(), 0.1, 2, &mut SeededRng::new(CONSTRAINT_SEED));
        let seeding = MpckSeeding::compute(ds.matrix(), &constraints, suite_mpck(2).use_closure);
        let grid = Algorithm::MpckMeans
            .method()
            .default_parameter_range(ds.n_classes());
        let grid_fits = grid
            .iter()
            .flat_map(|&k| FIT_SEEDS.map(|seed| (k, seed)))
            .map(|(k, seed)| (String::new(), k, seed));
        let reseed_fits = RESEED_FITS
            .iter()
            .filter(|(name, ..)| *name == ds.name())
            .map(|&(_, k, seed)| ("reseed ".to_string(), k, seed));
        for (kind, k, seed) in grid_fits.chain(reseed_fits) {
            let result = suite_mpck(k).fit_seeded(ds.matrix(), &seeding, &mut SeededRng::new(seed));
            computed.push((
                format!("mpck.fit_seeded {kind}{} k={k} seed={seed}", ds.name()),
                mpck_digest(&result),
            ));
        }
    }
    check_section("mpck.fit_seeded ", computed);
}

#[test]
fn core_distances_match_the_frozen_digests() {
    let mut computed = Vec::new();
    for ds in replicas() {
        let n = ds.len();
        let dist = pairwise_matrix(ds.matrix(), &Euclidean);
        let mut grid = vec![1, 2];
        grid.extend((1..=8).map(|m| 3 * m));
        grid.extend([n - 1, n, n + 5]);
        for min_pts in grid {
            let mut h = Fnv::new();
            h.floats(&core_distances(&dist, min_pts));
            computed.push((
                format!("core_distances {} min_pts={min_pts}", ds.name()),
                h.0,
            ));
        }
    }
    check_section("core_distances ", computed);
}

#[test]
fn reduced_experiment_matches_the_frozen_digests() {
    // The same four lines hold on a two-worker engine and on the
    // one-thread engine, which runs the plan's graph inline.
    for engine in [Engine::new(2), Engine::with_exact_threads(1)] {
        check_section("run_experiment_on ", reduced_experiment(&engine));
    }
}

fn reduced_experiment(engine: &Engine) -> Vec<(String, u64)> {
    let config = ExperimentConfig {
        n_trials: 2,
        cvcp: CvcpConfig {
            n_folds: 3,
            stratified: true,
        },
        params: Vec::new(),
        seed: EXPERIMENT_SEED,
        with_silhouette: true,
        n_threads: 2,
    };
    let families = [
        (Algorithm::Fosc, SideInfoSpec::LabelFraction(0.1)),
        (
            Algorithm::MpckMeans,
            SideInfoSpec::ConstraintSample {
                pool_fraction: 0.1,
                sample_fraction: 0.2,
            },
        ),
    ];
    let mut computed = Vec::new();
    for name in ["iris_like", "aloi:0"] {
        let ds = replica_by_name(name, REPLICA_SEED).expect("registered replica");
        for (algorithm, spec) in families {
            let outcomes = run_experiment_on(engine, &*algorithm.method(), &ds, spec, &config);
            computed.push((
                format!("run_experiment_on {name} {}", algorithm.name()),
                outcome_digest(&outcomes),
            ));
        }
    }
    computed
}

#[test]
fn curve_figures_match_the_frozen_digests() {
    // The arguments the fig05–fig08 binaries pass in quick mode; the
    // title does not enter the computation.
    let mode = Mode { full: false };
    let k = k_range(&representative_aloi());
    let pool = SideInfoSpec::ConstraintSample {
        pool_fraction: 0.10,
        sample_fraction: 0.10,
    };
    let labels = SideInfoSpec::LabelFraction(0.10);
    let figures = [
        (
            "fig05",
            curve_figure("fig05", &fosc_method(), &MINPTS_RANGE, labels, mode),
        ),
        (
            "fig06",
            curve_figure("fig06", &mpck_method(), &k, labels, mode),
        ),
        (
            "fig07",
            curve_figure("fig07", &fosc_method(), &MINPTS_RANGE, pool, mode),
        ),
        (
            "fig08",
            curve_figure("fig08", &mpck_method(), &k, pool, mode),
        ),
    ];
    let computed = figures
        .iter()
        .map(|(name, figure)| (format!("curve_figure {name} quick"), curve_digest(figure)))
        .collect();
    check_section("curve_figure ", computed);
}

#[test]
fn bounded_cache_selections_match_the_frozen_digests() {
    // Each byte budget is below its selection's working set (about 148 KiB
    // over 9 artifacts for aloi:0, 6 KiB over 4 for iris_like), so the LRU
    // evicts while the grid runs.
    let cases = [
        (
            "aloi:0",
            144 << 10,
            Algorithm::Fosc,
            SideInfoSpec::LabelFraction(0.1),
        ),
        (
            "iris_like",
            4 << 10,
            Algorithm::MpckMeans,
            SideInfoSpec::ConstraintSample {
                pool_fraction: 0.1,
                sample_fraction: 0.5,
            },
        ),
    ];
    let config = CvcpConfig {
        n_folds: 4,
        stratified: true,
    };
    let mut computed = Vec::new();
    for (name, budget, algorithm, spec) in cases {
        let engine =
            Engine::with_cache_config_exact(2, CacheConfig::unbounded().with_max_bytes(budget));
        let ds = replica_by_name(name, REPLICA_SEED).expect("registered replica");
        let method = algorithm.method();
        let params = method.default_parameter_range(ds.n_classes());
        let mut rng = SeededRng::new(SELECTION_SEED);
        let side = spec.generate(&ds, &mut rng);
        let selection = select_model_with(
            &engine,
            &*method,
            ds.matrix(),
            &side,
            &params,
            &config,
            &mut rng,
        );
        let stats = engine.cache_stats();
        assert!(
            stats.evictions > 0,
            "the {budget}-byte budget must evict during the {name} selection: {stats:?}"
        );
        assert!(stats.peak_resident_bytes <= budget);
        engine.cache().assert_accounting_consistent();
        computed.push((
            format!("select_model_with bounded {name} {}", algorithm.name()),
            selection_digest(&selection),
        ));
    }
    check_section("select_model_with bounded ", computed);
}

#[test]
fn served_selection_matches_the_frozen_digest() {
    let server = Server::start(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        },
        Arc::new(Engine::new(2)),
    )
    .expect("bind loopback");
    let request = SelectionRequest {
        id: "golden".to_string(),
        dataset: "iris_like".to_string(),
        algorithm: Algorithm::Fosc,
        params: vec![3, 6, 9],
        side_info: SideInfoSpec::LabelFraction(0.2),
        n_folds: 4,
        stratified: true,
        seed: 47,
        priority: None,
        trace: false,
    };
    let mut conn = Connection::connect(server.local_addr()).expect("v2 handshake");
    assert_eq!(conn.version(), 2);
    conn.send(&request).expect("send request");
    let selection = loop {
        match conn.next_event().expect("read event") {
            Response::Result { id, selection, .. } if id == request.id => break selection,
            Response::Progress { .. } => {}
            other => panic!("unexpected response: {other:?}"),
        }
    };
    drop(conn);
    server.shutdown();
    check_section(
        "served ",
        vec![(
            "served iris_like fosc params=3,6,9 labels=0.2 folds=4 seed=47".to_string(),
            ranked_digest(&selection),
        )],
    );
}
