//! Engine benchmark: the CVCP (parameter × fold) evaluation grid, three
//! ways, on a synthetic ALOI-like replica:
//!
//! * **naive sequential** — the pre-engine code path: every grid cell
//!   recomputes its distance matrix and density hierarchy from scratch
//!   (`evaluate_parameter_on_folds` without a cache);
//! * **engine, 1 worker** — inline execution with the artifact cache: each
//!   per-`MinPts` hierarchy is built once and shared by all folds;
//! * **engine, 4 workers** — the same grid as a parallel job DAG.
//!
//! Explicit `engine/...` report lines print the wall-clock speedups and the
//! cache hit rate.  On a multi-core host the 4-worker line adds thread
//! parallelism on top of the cache win; on a single hardware thread it
//! degrades gracefully to the 1-worker figure.  Selections are asserted
//! bit-identical across engine thread counts on every measurement.  A
//! plain `harness = false` main: `cargo bench -p cvcp-bench --bench
//! bench_engine`.

use cvcp_bench::{aloi_dataset, bench_meta, labels_for, write_bench_json};
use cvcp_constraints::folds::label_scenario_folds;
use cvcp_constraints::SideInformation;
use cvcp_core::crossval::evaluate_parameter_on_folds;
use cvcp_core::experiment::{run_experiment_on, run_experiment_trialwise, ExperimentConfig};
use cvcp_core::json::{Json, ToJson};
use cvcp_core::{
    select_model_with, CvcpConfig, CvcpSelection, Engine, FoscMethod, MpckMethod, SideInfoSpec,
};
use cvcp_data::rng::SeededRng;
use cvcp_data::Dataset;
use std::time::Instant;

/// Minimum cache hit rate the FOSC grid must sustain — a drop below this
/// means the hit/miss accounting or the artifact keying regressed (CI runs
/// this bench and fails on the assert).
const MIN_FOSC_HIT_RATE: f64 = 0.5;

/// Minimum cache hit rate for the MPCKMeans grid: the k-invariant seeding
/// artifacts must be shared across the parameter sweep (this was 0% before
/// MPCKMeans became cache-aware).
const MIN_MPCK_HIT_RATE: f64 = 0.3;

/// Minimum `speedup_4workers / speedup_1worker` ratio: 4 workers must not
/// be slower than 1 (the ISSUE 9 parallel-speedup gate).  The tolerance
/// below 1.0 absorbs shared-runner noise; on a single hardware thread the
/// 4-worker grid can at best tie the 1-worker grid, so the gate is really
/// "parallel lowering overhead stays within noise of inline execution".
const MIN_SPEEDUP_RATIO_4V1: f64 = 0.95;

const MINPTS_GRID: [usize; 8] = [3, 6, 9, 12, 15, 18, 21, 24];
const N_FOLDS: usize = 8;

fn fixture() -> (Dataset, SideInformation) {
    let ds = aloi_dataset();
    let side = labels_for(&ds);
    (ds, side)
}

/// The seed's sequential path: no artifact sharing of any kind.
fn naive_grid(ds: &Dataset, side: &SideInformation) -> Vec<f64> {
    let mut rng = SeededRng::new(1);
    let labeled = side.labels().expect("label scenario");
    let splits = label_scenario_folds(labeled, N_FOLDS, true, &mut rng);
    let method = FoscMethod::default();
    MINPTS_GRID
        .iter()
        .map(|&p| evaluate_parameter_on_folds(&method, ds.matrix(), &splits, p, &mut rng).score)
        .collect()
}

/// The engine path: cache-aware grid, inline (1 worker) or parallel DAG.
fn engine_grid(engine: &Engine, ds: &Dataset, side: &SideInformation) -> CvcpSelection {
    let cfg = CvcpConfig {
        n_folds: N_FOLDS,
        stratified: true,
    };
    select_model_with(
        engine,
        &FoscMethod::default(),
        ds.matrix(),
        &side.clone(),
        &MINPTS_GRID,
        &cfg,
        &mut SeededRng::new(1),
    )
}

fn main() {
    let (ds, side) = fixture();

    // Explicit speedup / hit-rate report (best of 3 cold runs each).
    fn best_of(mut f: impl FnMut() -> f64) -> f64 {
        (0..3).map(|_| f()).fold(f64::INFINITY, f64::min)
    }
    let naive = best_of(|| {
        let start = Instant::now();
        let _ = naive_grid(&ds, &side);
        start.elapsed().as_secs_f64()
    });
    let reference = engine_grid(&Engine::new(1), &ds, &side);
    // Interleave the 1- and 4-worker measurements round-robin with
    // alternating order (plus one untimed warm-up pass each) so clock,
    // cache, and allocator drift on the host hits both configurations
    // equally instead of biasing the speedup ratio; best-of-6 cold runs
    // per configuration.
    const GRID_ROUNDS: usize = 6;
    let mut hit_rate = 0.0;
    let mut engine1 = f64::INFINITY;
    let mut engine4 = f64::INFINITY;
    let mut time_1worker = |secs: &mut f64| {
        let engine = Engine::new(1);
        let start = Instant::now();
        let sel = engine_grid(&engine, &ds, &side);
        *secs = secs.min(start.elapsed().as_secs_f64());
        assert_eq!(sel, reference, "1-worker run diverged");
        hit_rate = engine.cache().stats().hit_rate();
    };
    let time_4workers = |secs: &mut f64| {
        let engine = Engine::new(4);
        let start = Instant::now();
        let sel = engine_grid(&engine, &ds, &side);
        *secs = secs.min(start.elapsed().as_secs_f64());
        assert_eq!(sel, reference, "4-worker run diverged from sequential");
    };
    time_1worker(&mut engine1);
    time_4workers(&mut engine4);
    engine1 = f64::INFINITY;
    engine4 = f64::INFINITY;
    for round in 0..GRID_ROUNDS {
        if round % 2 == 0 {
            time_4workers(&mut engine4);
            time_1worker(&mut engine1);
        } else {
            time_1worker(&mut engine1);
            time_4workers(&mut engine4);
        }
    }
    let speedup_ratio_4v1 = (naive / engine4) / (naive / engine1);
    println!(
        "engine/fosc_grid: naive sequential {:.1} ms | engine 1 worker {:.1} ms ({:.2}x) | \
         engine 4 workers {:.1} ms ({:.2}x) | 4v1 ratio {:.2} | cache hit rate {:.1}%",
        naive * 1e3,
        engine1 * 1e3,
        naive / engine1,
        engine4 * 1e3,
        naive / engine4,
        speedup_ratio_4v1,
        hit_rate * 100.0
    );
    assert!(
        speedup_ratio_4v1 >= MIN_SPEEDUP_RATIO_4V1,
        "4 workers regressed vs 1 worker: speedup ratio {speedup_ratio_4v1:.3} < \
         {MIN_SPEEDUP_RATIO_4V1} (1 worker {:.1} ms, 4 workers {:.1} ms)",
        engine1 * 1e3,
        engine4 * 1e3,
    );

    // Warm-cache behaviour: a second identical request on a live engine is
    // answered almost entirely from the cache.
    let engine = Engine::new(4);
    let cold = {
        let start = Instant::now();
        let sel = engine_grid(&engine, &ds, &side);
        (start.elapsed().as_secs_f64(), sel)
    };
    let warm = {
        let start = Instant::now();
        let sel = engine_grid(&engine, &ds, &side);
        (start.elapsed().as_secs_f64(), sel)
    };
    assert_eq!(cold.1, warm.1);
    println!(
        "engine/fosc_grid warm cache: cold {:.1} ms | warm {:.1} ms ({:.2}x) | hit rate {:.1}%",
        cold.0 * 1e3,
        warm.0 * 1e3,
        cold.0 / warm.0,
        engine.cache().stats().hit_rate() * 100.0
    );
    assert!(
        hit_rate >= MIN_FOSC_HIT_RATE,
        "FOSC cache hit rate regressed: {:.1}% < {:.1}%",
        hit_rate * 100.0,
        MIN_FOSC_HIT_RATE * 100.0
    );

    // MPCKMeans grid: the k-invariant seeding artifacts (transitive closure
    // + must-link neighbourhood centroids) are shared across the whole
    // parameter sweep of each fold — before MPCKMeans became cache-aware
    // this hit rate was exactly 0%.
    let mpck_engine = Engine::new(4);
    let cfg = CvcpConfig {
        n_folds: N_FOLDS,
        stratified: true,
    };
    let k_grid: Vec<usize> = (2..=10).collect();
    let start = Instant::now();
    let mpck_sel = select_model_with(
        &mpck_engine,
        &MpckMethod::default(),
        ds.matrix(),
        &side,
        &k_grid,
        &cfg,
        &mut SeededRng::new(1),
    );
    let mpck_secs = start.elapsed().as_secs_f64();
    let mpck_seq = select_model_with(
        &Engine::new(1),
        &MpckMethod::default(),
        ds.matrix(),
        &side,
        &k_grid,
        &cfg,
        &mut SeededRng::new(1),
    );
    assert_eq!(
        mpck_sel, mpck_seq,
        "MPCK engine run diverged from sequential"
    );
    let mpck_stats = mpck_engine.cache().stats();
    println!(
        "engine/mpck_grid: {:.1} ms | selected k={} | cache hit rate {:.1}% \
         ({} hits / {} misses, {} resident artifacts)",
        mpck_secs * 1e3,
        mpck_sel.best_param,
        mpck_stats.hit_rate() * 100.0,
        mpck_stats.hits,
        mpck_stats.misses,
        mpck_stats.resident_entries,
    );
    assert!(
        mpck_stats.hits > 0,
        "MPCKMeans must reuse cached seeding artifacts (hit rate was 0%)"
    );
    assert!(
        mpck_stats.hit_rate() >= MIN_MPCK_HIT_RATE,
        "MPCK cache hit rate regressed: {:.1}% < {:.1}%",
        mpck_stats.hit_rate() * 100.0,
        MIN_MPCK_HIT_RATE * 100.0
    );

    // Few-trial experiment: with fewer trials than workers, the old
    // trial-only lowering (one inline job per trial) leaves (parameter ×
    // fold) parallelism on the table; the unified plan fans the full
    // (trial × parameter × fold) grid into one graph.  Results must be
    // bit-identical; the wall-clock comparison is the point of the
    // refactor (on a single hardware thread both collapse to the same
    // inline work and the ratio approaches 1×).
    let exp_config = ExperimentConfig {
        n_trials: 2,
        cvcp: CvcpConfig {
            n_folds: N_FOLDS,
            stratified: true,
        },
        params: MINPTS_GRID.to_vec(),
        seed: 7,
        with_silhouette: false,
        n_threads: 4, // unused: engines are built explicitly below
    };
    let spec = SideInfoSpec::LabelFraction(0.2);
    // Interleave the two paths round-robin (rather than timing one in a
    // block and then the other) and alternate which goes first each round,
    // so slow clock / cache / allocator drift on the host hits both
    // equally; best-of-6 per path.
    const FEW_TRIAL_ROUNDS: usize = 6;
    let mut trialwise_outcomes = None;
    let mut unified_outcomes = None;
    let mut trialwise_secs = f64::INFINITY;
    let mut unified_secs = f64::INFINITY;
    let time_trialwise = |outcomes: &mut Option<Vec<_>>, secs: &mut f64| {
        let engine = Engine::new(4);
        let start = Instant::now();
        let run = run_experiment_trialwise(&engine, &FoscMethod::default(), &ds, spec, &exp_config);
        *secs = secs.min(start.elapsed().as_secs_f64());
        *outcomes = Some(run);
    };
    let time_unified = |outcomes: &mut Option<Vec<_>>, secs: &mut f64| {
        let engine = Engine::new(4);
        let start = Instant::now();
        let run = run_experiment_on(&engine, &FoscMethod::default(), &ds, spec, &exp_config);
        *secs = secs.min(start.elapsed().as_secs_f64());
        *outcomes = Some(run);
    };
    // One untimed pass of each path first: the very first execution runs
    // with cold i-cache and (on burst-clocked hosts) at a different
    // frequency than the steady state the rest of the loop sees.
    time_trialwise(&mut trialwise_outcomes, &mut trialwise_secs);
    time_unified(&mut unified_outcomes, &mut unified_secs);
    trialwise_secs = f64::INFINITY;
    unified_secs = f64::INFINITY;
    for round in 0..FEW_TRIAL_ROUNDS {
        if round % 2 == 0 {
            time_unified(&mut unified_outcomes, &mut unified_secs);
            time_trialwise(&mut trialwise_outcomes, &mut trialwise_secs);
        } else {
            time_trialwise(&mut trialwise_outcomes, &mut trialwise_secs);
            time_unified(&mut unified_outcomes, &mut unified_secs);
        }
    }
    assert_eq!(
        unified_outcomes, trialwise_outcomes,
        "the unified full-grid plan must reproduce the trial-only path bit-for-bit"
    );
    println!(
        "engine/few_trial_experiment (2 trials × {} params × {} folds, 4 workers): \
         trial-only {:.1} ms | unified full-grid plan {:.1} ms ({:.2}x)",
        MINPTS_GRID.len(),
        N_FOLDS,
        trialwise_secs * 1e3,
        unified_secs * 1e3,
        trialwise_secs / unified_secs,
    );

    // Sanity: the naive path and the engine agree on the internal scores
    // (FOSC is rng-free, so fold scores are comparable across paths).
    let naive_scores = naive_grid(&ds, &side);
    assert_eq!(naive_scores.len(), reference.scores().len());

    // Always-on metrics overhead: the same 4-worker FOSC grid on a normal
    // engine vs. one with the metrics sink compiled out of the hot path
    // (`Engine::with_metrics_disabled`).  Metered and unmetered runs are
    // taken in pairs, alternating which goes first, so host drift hits both
    // halves of a pair alike; the gate reads the median of the per-pair
    // time ratios.  The overhead budget is 2% of grid wall time — beyond
    // that the always-on counters are no longer "free" and the gate fails.
    // A grid takes a few milliseconds, so a single pair's ratio is noisy:
    // the pair count keeps the median's spread well inside the budget
    // (EXPERIMENTS.md, "Hashing each data matrix once").
    const METRICS_OVERHEAD_PAIRS: usize = 161;
    const MAX_METRICS_OVERHEAD: f64 = 0.02;
    fn median(values: &mut [f64]) -> f64 {
        values.sort_by(f64::total_cmp);
        values[values.len() / 2]
    }
    let time_grid = |engine: Engine, what: &str| {
        let start = Instant::now();
        let sel = engine_grid(&engine, &ds, &side);
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(sel, reference, "{what} run diverged");
        secs
    };
    let metered = || time_grid(Engine::new(4), "metered");
    let unmetered = || time_grid(Engine::with_metrics_disabled(4), "metrics-disabled");
    let mut with_metrics = Vec::with_capacity(METRICS_OVERHEAD_PAIRS);
    let mut without_metrics = Vec::with_capacity(METRICS_OVERHEAD_PAIRS);
    let mut ratios = Vec::with_capacity(METRICS_OVERHEAD_PAIRS);
    for pair in 0..METRICS_OVERHEAD_PAIRS {
        let (on, off) = if pair % 2 == 0 {
            let on = metered();
            (on, unmetered())
        } else {
            let off = unmetered();
            (metered(), off)
        };
        with_metrics.push(on);
        without_metrics.push(off);
        ratios.push(on / off);
    }
    let with_metrics = median(&mut with_metrics);
    let without_metrics = median(&mut without_metrics);
    let metrics_overhead = median(&mut ratios) - 1.0;
    println!(
        "engine/metrics_overhead: enabled {:.2} ms | disabled {:.2} ms (medians) | \
         median pair overhead {:+.2}% (gate {:.0}%)",
        with_metrics * 1e3,
        without_metrics * 1e3,
        metrics_overhead * 100.0,
        MAX_METRICS_OVERHEAD * 100.0,
    );
    assert!(
        metrics_overhead <= MAX_METRICS_OVERHEAD,
        "always-on metrics cost {:.2}% of fosc_grid wall time (budget {:.0}%)",
        metrics_overhead * 100.0,
        MAX_METRICS_OVERHEAD * 100.0,
    );

    // Machine-readable summary for the CI perf-trajectory artifact.
    write_bench_json(
        "bench_engine",
        &Json::obj([
            (
                "meta",
                bench_meta(&[
                    ("best_of_cold_runs", 3),
                    ("metrics_overhead_pairs", METRICS_OVERHEAD_PAIRS),
                ]),
            ),
            (
                "fosc_grid",
                Json::obj([
                    ("naive_sequential_ms", (naive * 1e3).to_json()),
                    ("engine_1worker_ms", (engine1 * 1e3).to_json()),
                    ("engine_4workers_ms", (engine4 * 1e3).to_json()),
                    ("speedup_1worker", (naive / engine1).to_json()),
                    ("speedup_4workers", (naive / engine4).to_json()),
                    ("speedup_ratio_4v1", speedup_ratio_4v1.to_json()),
                    ("min_speedup_ratio_gate", MIN_SPEEDUP_RATIO_4V1.to_json()),
                    ("cache_hit_rate", hit_rate.to_json()),
                    ("min_hit_rate_gate", MIN_FOSC_HIT_RATE.to_json()),
                ]),
            ),
            (
                "warm_cache",
                Json::obj([
                    ("cold_ms", (cold.0 * 1e3).to_json()),
                    ("warm_ms", (warm.0 * 1e3).to_json()),
                    ("speedup", (cold.0 / warm.0).to_json()),
                ]),
            ),
            (
                "few_trial_experiment",
                Json::obj([
                    ("trialwise_ms", (trialwise_secs * 1e3).to_json()),
                    ("unified_plan_ms", (unified_secs * 1e3).to_json()),
                    ("speedup", (trialwise_secs / unified_secs).to_json()),
                    ("n_trials", 2usize.to_json()),
                    ("n_params", MINPTS_GRID.len().to_json()),
                    ("n_folds", N_FOLDS.to_json()),
                ]),
            ),
            (
                "metrics_overhead",
                Json::obj([
                    ("enabled_ms", (with_metrics * 1e3).to_json()),
                    ("disabled_ms", (without_metrics * 1e3).to_json()),
                    ("overhead_ratio", metrics_overhead.to_json()),
                    ("max_overhead_gate", MAX_METRICS_OVERHEAD.to_json()),
                ]),
            ),
            (
                "mpck_grid",
                Json::obj([
                    ("engine_ms", (mpck_secs * 1e3).to_json()),
                    ("selected_k", mpck_sel.best_param.to_json()),
                    ("cache_hit_rate", mpck_stats.hit_rate().to_json()),
                    ("cache_hits", mpck_stats.hits.to_json()),
                    ("cache_misses", mpck_stats.misses.to_json()),
                    ("resident_artifacts", mpck_stats.resident_entries.to_json()),
                    ("min_hit_rate_gate", MIN_MPCK_HIT_RATE.to_json()),
                ]),
            ),
        ]),
    );
}
