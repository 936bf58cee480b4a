//! Cache-eviction benchmark: a full `run_experiment_on` grid (FOSC +
//! MPCKMeans over one ALOI-like replica) under three cache regimes:
//!
//! * **unbounded** — the baseline; also measures the full working set in
//!   resident artifact bytes;
//! * **bounded** — `max_bytes` set *below* the working set, so LRU eviction
//!   is under constant pressure;
//! * **entry-bounded** — `max_entries` small enough to force eviction by
//!   count.
//!
//! Every measured run asserts the acceptance contract of the bounded cache:
//! results are **bit-identical** to the unbounded run, the peak resident
//! bytes never exceed the budget, the accounting never drifts from the live
//! map, and eviction actually happened (the budget was real).  CI runs this
//! bench in smoke mode so an accounting or eviction regression fails the
//! build.

use criterion::{criterion_group, criterion_main, Criterion};
use cvcp_bench::{aloi_dataset, bench_meta, write_bench_json};
use cvcp_core::experiment::{run_experiment_on, ExperimentConfig, SideInfoSpec, TrialOutcome};
use cvcp_core::json::{Json, ToJson};
use cvcp_core::{CvcpConfig, Engine, FoscMethod, MpckMethod};
use cvcp_engine::CacheConfig;
use std::time::Instant;

fn experiment_config() -> ExperimentConfig {
    ExperimentConfig {
        n_trials: 3,
        cvcp: CvcpConfig {
            n_folds: 4,
            stratified: true,
        },
        params: Vec::new(), // default ranges: MinPts 3..=24, k 2..=10
        seed: 0xE71C,
        with_silhouette: true,
        n_threads: 2, // unused by run_experiment_on (the engine decides)
    }
}

/// One full grid: both methods, both scenarios, multiplexed on `engine`.
fn run_grid(engine: &Engine) -> (Vec<TrialOutcome>, Vec<TrialOutcome>) {
    let ds = aloi_dataset();
    let cfg = experiment_config();
    let mpck = run_experiment_on(
        engine,
        &MpckMethod::default(),
        &ds,
        SideInfoSpec::LabelFraction(0.2),
        &cfg,
    );
    let fosc = run_experiment_on(
        engine,
        &FoscMethod::default(),
        &ds,
        SideInfoSpec::ConstraintSample {
            pool_fraction: 0.2,
            sample_fraction: 0.5,
        },
        &cfg,
    );
    (mpck, fosc)
}

fn bench_cache_eviction(c: &mut Criterion) {
    // Reference: unbounded cache — measures the working set.
    let unbounded = Engine::new(2);
    let start = Instant::now();
    let reference = run_grid(&unbounded);
    let unbounded_secs = start.elapsed().as_secs_f64();
    let full = unbounded.cache().stats();
    assert!(full.resident_bytes > 0, "grid must populate the cache");
    assert_eq!(full.evictions, 0, "unbounded cache must not evict");
    unbounded.cache().assert_accounting_consistent();

    // Bounded: a byte budget well below the working set.
    let budget = (full.resident_bytes / 4).max(1);
    let bounded = Engine::with_cache_config(2, CacheConfig::default().with_max_bytes(budget));
    let start = Instant::now();
    let bounded_results = run_grid(&bounded);
    let bounded_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        reference, bounded_results,
        "bounded cache changed the selection results"
    );
    let stats = bounded.cache().stats();
    assert!(
        stats.peak_resident_bytes <= budget,
        "resident bytes peaked at {} over the {budget}-byte budget",
        stats.peak_resident_bytes
    );
    assert!(
        stats.evictions > 0,
        "a budget below the working set must force evictions"
    );
    bounded.cache().assert_accounting_consistent();

    // Entry-bounded: at most 4 resident artifacts at any time.
    let entry_bounded = Engine::with_cache_config(2, CacheConfig::default().with_max_entries(4));
    let entry_results = run_grid(&entry_bounded);
    assert_eq!(
        reference, entry_results,
        "entry-bounded cache changed the selection results"
    );
    let entry_stats = entry_bounded.cache().stats();
    assert!(entry_stats.resident_entries <= 4);
    assert!(entry_stats.evictions > 0);
    entry_bounded.cache().assert_accounting_consistent();

    println!(
        "engine/cache_eviction: working set {:.2} MiB | budget {:.2} MiB | \
         unbounded {:.1} ms (hit rate {:.1}%) | bounded {:.1} ms (hit rate {:.1}%, \
         {} evictions, {:.2} MiB released, peak {:.2} MiB) | entry-bounded \
         (hit rate {:.1}%, {} evictions)",
        full.resident_bytes as f64 / (1024.0 * 1024.0),
        budget as f64 / (1024.0 * 1024.0),
        unbounded_secs * 1e3,
        full.hit_rate() * 100.0,
        bounded_secs * 1e3,
        stats.hit_rate() * 100.0,
        stats.evictions,
        stats.evicted_bytes as f64 / (1024.0 * 1024.0),
        stats.peak_resident_bytes as f64 / (1024.0 * 1024.0),
        entry_stats.hit_rate() * 100.0,
        entry_stats.evictions,
    );

    // Machine-readable summary for the CI perf-trajectory artifact.
    write_bench_json(
        "bench_cache_eviction",
        &Json::obj([
            (
                "meta",
                bench_meta(&[
                    ("n_trials", experiment_config().n_trials),
                    ("n_folds", experiment_config().cvcp.n_folds),
                ]),
            ),
            ("working_set_bytes", full.resident_bytes.to_json()),
            ("budget_bytes", budget.to_json()),
            ("unbounded_ms", (unbounded_secs * 1e3).to_json()),
            ("unbounded_hit_rate", full.hit_rate().to_json()),
            ("bounded_ms", (bounded_secs * 1e3).to_json()),
            ("bounded_hit_rate", stats.hit_rate().to_json()),
            ("bounded_evictions", stats.evictions.to_json()),
            ("bounded_evicted_bytes", stats.evicted_bytes.to_json()),
            ("bounded_peak_bytes", stats.peak_resident_bytes.to_json()),
            ("entry_bounded_evictions", entry_stats.evictions.to_json()),
            ("results_bit_identical_under_budget", true.to_json()),
        ]),
    );

    let mut group = c.benchmark_group("engine/cache_eviction");
    group.sample_size(2);
    group.bench_function("grid_unbounded", |b| b.iter(|| run_grid(&Engine::new(2))));
    group.bench_function("grid_bounded_quarter", |b| {
        b.iter(|| {
            run_grid(&Engine::with_cache_config(
                2,
                CacheConfig::default().with_max_bytes(budget),
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cache_eviction);
criterion_main!(benches);
