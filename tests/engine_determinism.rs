//! Engine-level guarantees of the CVCP execution engine, exercised through
//! the public `cvcp-suite` API:
//!
//! 1. model selection is **bit-identical** at 1, 2 and 8 threads for the
//!    same seed (the sequential path is literally the 1-thread case);
//! 2. the artifact cache hands out **pointer-equal** (`Arc::ptr_eq`)
//!    distance matrices and density hierarchies across folds and requests;
//! 3. a failed or cancelled job never poisons the pool — subsequent
//!    requests on the same engine still succeed.

use cvcp_engine::{fingerprint_matrix, ArtifactKey, CancelToken, Engine, JobGraph, JobOutcome};
use cvcp_suite::constraints::generate::{
    constraint_pool, sample_constraints, sample_labeled_subset,
};
use cvcp_suite::constraints::SideInformation;
use cvcp_suite::core::experiment::{run_experiment, ExperimentConfig, SideInfoSpec};
use cvcp_suite::core::{select_model, select_model_with, CvcpConfig, FoscMethod, MpckMethod};
use cvcp_suite::data::rng::SeededRng;
use cvcp_suite::data::synthetic::separated_blobs;
use cvcp_suite::data::Dataset;
use std::sync::Arc;

fn blobs(seed: u64) -> Dataset {
    let mut rng = SeededRng::new(seed);
    separated_blobs(3, 22, 4, 11.0, &mut rng)
}

fn label_side(ds: &Dataset, seed: u64) -> SideInformation {
    let mut rng = SeededRng::new(seed);
    SideInformation::Labels(sample_labeled_subset(ds.labels(), 0.25, 2, &mut rng))
}

#[test]
fn selection_is_bit_identical_at_1_2_and_8_threads() {
    let ds = blobs(41);
    let side = label_side(&ds, 42);
    let cfg = CvcpConfig {
        n_folds: 5,
        stratified: true,
    };
    let params = [2usize, 3, 4, 5, 6];

    let run = |n_threads: usize| {
        let engine = Engine::with_exact_threads(n_threads);
        let mut rng = SeededRng::new(7);
        select_model_with(
            &engine,
            &MpckMethod::default(),
            ds.matrix(),
            &side,
            &params,
            &cfg,
            &mut rng,
        )
    };
    let seq = run(1);
    assert_eq!(seq, run(2), "2-thread run must equal the sequential run");
    assert_eq!(seq, run(8), "8-thread run must equal the sequential run");

    // The plain sequential entry point is the same computation.
    let mut rng = SeededRng::new(7);
    let plain = select_model(
        &MpckMethod::default(),
        ds.matrix(),
        &side,
        &params,
        &cfg,
        &mut rng,
    );
    assert_eq!(seq, plain);
}

#[test]
fn fosc_selection_is_thread_count_invariant_in_the_constraint_scenario() {
    let ds = blobs(50);
    let mut rng = SeededRng::new(51);
    let pool = constraint_pool(ds.labels(), 0.25, 2, &mut rng);
    let side = SideInformation::Constraints(sample_constraints(&pool, 0.6, &mut rng));
    let cfg = CvcpConfig {
        n_folds: 4,
        stratified: true,
    };
    let params = [3usize, 6, 9, 12, 15];

    let run = |n_threads: usize| {
        let engine = Engine::with_exact_threads(n_threads);
        let mut rng = SeededRng::new(9);
        select_model_with(
            &engine,
            &FoscMethod::default(),
            ds.matrix(),
            &side,
            &params,
            &cfg,
            &mut rng,
        )
    };
    let seq = run(1);
    assert_eq!(seq, run(2));
    assert_eq!(seq, run(8));
}

#[test]
fn experiments_are_bit_identical_across_thread_counts() {
    let ds = blobs(60);
    let config = |n_threads: usize| ExperimentConfig {
        n_trials: 4,
        cvcp: CvcpConfig {
            n_folds: 3,
            stratified: true,
        },
        params: vec![2, 3, 4],
        seed: 17,
        with_silhouette: true,
        n_threads,
    };
    let a = run_experiment(
        &MpckMethod::default(),
        &ds,
        SideInfoSpec::LabelFraction(0.2),
        &config(1),
    );
    let b = run_experiment(
        &MpckMethod::default(),
        &ds,
        SideInfoSpec::LabelFraction(0.2),
        &config(8),
    );
    assert_eq!(a, b);
}

#[test]
fn artifact_cache_shares_pointer_equal_artifacts_across_folds_and_requests() {
    let ds = blobs(70);
    let side = label_side(&ds, 71);
    let cfg = CvcpConfig {
        n_folds: 6,
        stratified: true,
    };
    let params = [3usize, 6, 9];
    let engine = Engine::with_exact_threads(4);

    let mut rng = SeededRng::new(3);
    let first = select_model_with(
        &engine,
        &FoscMethod::default(),
        ds.matrix(),
        &side,
        &params,
        &cfg,
        &mut rng,
    );

    // One pairwise matrix serves every (parameter × fold) cell: the grid has
    // 3 parameters × 6 folds but the matrix was computed exactly once.
    let data_key = fingerprint_matrix(ds.matrix());
    let pairwise_key = ArtifactKey::PairwiseDistances { data: data_key };
    let a: Arc<Vec<Vec<f64>>> = engine.cache().get(pairwise_key).expect("pairwise cached");
    let b: Arc<Vec<Vec<f64>>> = engine.cache().get(pairwise_key).expect("pairwise cached");
    assert!(Arc::ptr_eq(&a, &b), "cache must hand out the same Arc");
    assert_eq!(a.len(), ds.len());

    // Density hierarchies: one per MinPts, shared across the 6 folds.
    let stats_before = engine.cache().stats();
    assert!(
        stats_before.hits > stats_before.misses,
        "grid evaluation must be cache-dominated: {stats_before:?}"
    );

    // A second request on the same engine re-uses everything: no new misses.
    let mut rng = SeededRng::new(3);
    let second = select_model_with(
        &engine,
        &FoscMethod::default(),
        ds.matrix(),
        &side,
        &params,
        &cfg,
        &mut rng,
    );
    assert_eq!(first, second);
    let stats_after = engine.cache().stats();
    assert_eq!(
        stats_after.misses, stats_before.misses,
        "second identical request must not compute any new artifact"
    );
}

#[test]
fn failed_job_does_not_poison_the_pool() {
    let engine = Engine::with_exact_threads(2);

    // A graph whose middle job panics: dependents are skipped, the sibling
    // completes, and the engine remains fully usable.
    let mut graph: JobGraph<u32> = JobGraph::new();
    let bad = graph.add_job(&[], |_| panic!("injected failure"));
    let _skipped = graph.add_job(&[bad], |_| 1);
    let _sibling = graph.add_job(&[], |_| 2);
    let result = engine.run_graph(graph);
    assert!(matches!(&result.outcomes[0], JobOutcome::Failed(m) if m.contains("injected")));
    assert_eq!(result.outcomes[1], JobOutcome::Skipped);
    assert_eq!(result.outcomes[2], JobOutcome::Completed(2));

    // A graph whose bound token is cancelled is skipped wholesale…
    let token = CancelToken::new();
    token.cancel();
    let mut graph: JobGraph<u32> = JobGraph::new();
    graph.add_job(&[], |_| 3);
    graph.set_cancel_token(token);
    let cancelled = engine.run_graph(graph);
    assert!(cancelled.outcomes.iter().all(|o| *o == JobOutcome::Skipped));

    // …and real work on the same engine still runs to completion.
    let ds = blobs(80);
    let side = label_side(&ds, 81);
    let mut rng = SeededRng::new(4);
    let selection = select_model_with(
        &engine,
        &MpckMethod::default(),
        ds.matrix(),
        &side,
        &[2, 3, 4],
        &CvcpConfig {
            n_folds: 3,
            stratified: true,
        },
        &mut rng,
    );
    assert!([2, 3, 4].contains(&selection.best_param));
}
