//! Frozen result digests for the hot kernels and one reduced experiment.
//!
//! The bit-identity suites (`engine_determinism`, `granularity_identity`,
//! …) compare configurations with each other, so a change that moves every
//! configuration the same way passes them unnoticed.  These tests compare
//! against *committed* values instead:
//!
//! * `MpckMeans::fit_seeded` on the six `grid_batch` replicas (the five
//!   UCI replicas and `aloi:0`), over each replica's default `k` grid and
//!   two RNG seeds: partition, centroids, metrics, objective, iterations;
//! * `core_distances` for MinPts {1, 2, 3, 6, …, 24, n − 1, n, n + 5} on
//!   the same replicas;
//! * one reduced `run_experiment_on` (iris_like and aloi:0, FOSC and
//!   MPCKMeans, 2 trials × 3 folds): every field of every trial outcome.
//!
//! Each digest is FNV-1a 64 over the little-endian bytes of the result's
//! words (`f64::to_bits` for floats), one line per case in
//! `tests/golden/kernels.txt`.  A single flipped bit anywhere fails the
//! test.  Re-baselining is an explicit edit of that file with the reason
//! recorded in CHANGES.md; on a mismatch the failure message prints the
//! regenerated lines of the failing section.

use cvcp_suite::constraints::generate::constraint_pool;
use cvcp_suite::core::{
    run_experiment_on, Algorithm, CvcpConfig, Engine, ExperimentConfig, SideInfoSpec, TrialOutcome,
};
use cvcp_suite::data::distance::{pairwise_matrix, Euclidean};
use cvcp_suite::data::replicas::{replica_by_name, uci_corpus};
use cvcp_suite::data::rng::SeededRng;
use cvcp_suite::data::{Assignment, Dataset};
use cvcp_suite::density::core_distances;
use cvcp_suite::kmeans::{MpckMeans, MpckMeansResult, MpckSeeding};
use std::collections::BTreeMap;

/// The replica seed of the paper binaries and of `grid_batch`.
const REPLICA_SEED: u64 = 20_140_324;
const CONSTRAINT_SEED: u64 = 0x60_1D;
const FIT_SEEDS: [u64; 2] = [1, 2];
const EXPERIMENT_SEED: u64 = 0xC5C9;
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
    for c in &result.centroids {
        h.floats(c);
    }
    for m in &result.metrics {
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
        for &k in &grid {
            for seed in FIT_SEEDS {
                let result =
                    suite_mpck(k).fit_seeded(ds.matrix(), &seeding, &mut SeededRng::new(seed));
                computed.push((
                    format!("mpck.fit_seeded {} k={k} seed={seed}", ds.name()),
                    mpck_digest(&result),
                ));
            }
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
    let engine = Engine::new(2);
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
            let outcomes = run_experiment_on(&engine, &*algorithm.method(), &ds, spec, &config);
            computed.push((
                format!("run_experiment_on {name} {}", algorithm.name()),
                outcome_digest(&outcomes),
            ));
        }
    }
    check_section("run_experiment_on ", computed);
}
