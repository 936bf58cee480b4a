//! Kernel replay: each kernel's public entry point timed on a workload's
//! own inputs (replicas, candidate grids, side information and folds),
//! then scaled by how often the measured run called it.  Per-cell kernels
//! are counted from the grid shape; cached artifacts from the cache's miss
//! counts over the measured window.  The kernels that run inside engine
//! jobs are summed and set against Σ worker busy time, which gives
//! `engine.overhead_share = 1 − Σ kernel / Σ busy`.

use crate::report::{RunReport, SpanLog};
use crate::stats::median;
use crate::window::{ratio, Window};
use cvcp_constraints::closure::transitive_closure;
use cvcp_constraints::folds::{constraint_scenario_folds, label_scenario_folds, FoldSplit};
use cvcp_constraints::SideInformation;
use cvcp_core::{Algorithm, MpckMethod};
use cvcp_data::distance::{pairwise_matrix, Euclidean};
use cvcp_data::rng::SeededRng;
use cvcp_data::{Dataset, Partition};
use cvcp_density::core_distance::mutual_reachability_from_pairwise;
use cvcp_density::mst::minimum_spanning_tree;
use cvcp_density::{CondensedTree, Dendrogram, FoscOpticsDend, KnnTable};
use cvcp_kmeans::{MpckMeans, MpckSeeding};
use cvcp_metrics::{constraint_fmeasure, overall_fmeasure_excluding, silhouette_from_pairwise};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per kernel and case; the median batch gives µs per call.
const REPS: usize = 3;
/// Folds the per-cell kernels are replayed on, averaged: one fold's
/// MPCKMeans fit can converge in a fraction or a multiple of the usual
/// iterations.
const REPLAY_FOLDS: usize = 3;
/// Calls per batch are raised until a batch takes about this long, so
/// microsecond kernels are not timed at clock resolution.
const MIN_BATCH_US: f64 = 200.0;

/// One distinct input of a workload, and how much of the measured run it
/// stands for.
pub struct Case {
    /// Span group, e.g. `iris_like/fosc/labels-10%`.
    pub label: String,
    pub dataset: Dataset,
    pub algorithm: Algorithm,
    pub side: SideInformation,
    pub n_folds: usize,
    pub stratified: bool,
    /// The candidate grid.
    pub params: Vec<usize>,
    /// RNG state the folds are drawn from.
    pub rng: SeededRng,
    /// Selections of this shape in the measured run (requests, or
    /// experiments × trials).
    pub selections: f64,
    /// Final clusterings per selection: one per candidate in the grid's
    /// external stage, none when serving.
    pub finals_per_selection: f64,
}

/// Median µs per call of each kernel on one case (0 where the case does
/// not call it), plus the case's cell count.
#[derive(Debug, Default, Clone, Copy)]
struct Cost {
    pairwise: f64,
    knn: f64,
    mst: f64,
    condense: f64,
    extract: f64,
    seeding: f64,
    fit: f64,
    fmeasure: f64,
    silhouette: f64,
    overall: f64,
    closure: f64,
    folds: f64,
    /// (candidate × non-empty fold) cells of one selection.
    cells: f64,
}

/// Median µs per call of `call`, timed in `REPS` batches after one
/// calibrating call; every batch is recorded as a span under `parent`.
fn time_kernel<T>(
    spans: &mut SpanLog,
    name: &str,
    group: &str,
    parent: usize,
    mut call: impl FnMut() -> T,
) -> f64 {
    let first = Instant::now();
    black_box(call());
    let once_us = first.elapsed().as_secs_f64() * 1e6;
    let batch = (MIN_BATCH_US / once_us.max(0.001))
        .ceil()
        .clamp(1.0, 100_000.0) as usize;
    let mut per_call: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(call());
            }
            let end = Instant::now();
            spans.record(format!("kernel/{name}"), group, start, end, Some(parent));
            (end - start).as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    median(&mut per_call)
}

/// The cross-validation splits CVCP builds for `side`: the requested fold
/// count clamped to what the side information supports, as `cvcp_core`
/// clamps it.
fn build_folds(
    side: &SideInformation,
    n_folds: usize,
    stratified: bool,
    rng: &mut SeededRng,
) -> Vec<FoldSplit> {
    match side {
        SideInformation::Labels(labeled) => {
            let folds = n_folds.clamp(2, labeled.len().max(2));
            label_scenario_folds(labeled, folds, stratified, rng)
        }
        SideInformation::Constraints(constraints) => {
            let folds = n_folds.clamp(2, constraints.involved_objects().len().max(2));
            constraint_scenario_folds(constraints, folds, rng)
        }
    }
}

/// Times every kernel the case's algorithm calls, on the case's data, its
/// candidates, and the training sets of its first `REPLAY_FOLDS`
/// non-empty folds (the first one's test set for the metrics).
fn replay(case: &Case, spans: &mut SpanLog) -> Cost {
    let group = case.label.as_str();
    let parent = spans.begin("replay", group, Instant::now());
    let data = case.dataset.matrix();
    let n = data.n_rows();
    let mut cost = Cost {
        folds: time_kernel(spans, "constraints.folds", group, parent, || {
            build_folds(
                &case.side,
                case.n_folds,
                case.stratified,
                &mut case.rng.clone(),
            )
        }),
        ..Cost::default()
    };
    let splits = build_folds(
        &case.side,
        case.n_folds,
        case.stratified,
        &mut case.rng.clone(),
    );
    let live: Vec<&FoldSplit> = splits
        .iter()
        .filter(|split| !split.test_constraints.is_empty())
        .collect();
    cost.cells = (live.len() * case.params.len()) as f64;
    let split = live.first().copied().unwrap_or(&splits[0]);
    let trainings: Vec<_> = (live.iter().take(REPLAY_FOLDS))
        .map(|s| s.training.as_constraints())
        .collect();
    let trainings = if trainings.is_empty() {
        vec![split.training.as_constraints()]
    } else {
        trainings
    };
    let full = case.side.as_constraints();
    cost.closure = time_kernel(spans, "constraints.closure", group, parent, || {
        transitive_closure(&full)
    });
    cost.pairwise = time_kernel(spans, "data.pairwise", group, parent, || {
        pairwise_matrix(data, &Euclidean)
    });
    let dist = pairwise_matrix(data, &Euclidean);
    let candidates = case.params.len().max(1) as f64;
    let per_cell = candidates * trainings.len() as f64;
    let mut partition: Option<Partition> = None;
    match case.algorithm {
        Algorithm::Fosc => {
            cost.knn = time_kernel(spans, "density.knn", group, parent, || {
                KnnTable::from_pairwise(&dist)
            });
            for &param in &case.params {
                let min_pts = param.max(2);
                // The mutual-reachability matrix includes the kNN sort, so
                // `density.knn` is nested inside `density.mst`.
                cost.mst += time_kernel(spans, "density.mst", group, parent, || {
                    minimum_spanning_tree(&mutual_reachability_from_pairwise(&dist, min_pts))
                }) / candidates;
                let edges =
                    minimum_spanning_tree(&mutual_reachability_from_pairwise(&dist, min_pts));
                cost.condense += time_kernel(spans, "density.condense", group, parent, || {
                    CondensedTree::build(&Dendrogram::from_mst(n, &edges), min_pts)
                }) / candidates;
                let tree = CondensedTree::build(&Dendrogram::from_mst(n, &edges), min_pts);
                let fosc = FoscOpticsDend::new(min_pts);
                for training in &trainings {
                    cost.extract += time_kernel(spans, "density.extract", group, parent, || {
                        fosc.extract_on_tree(&tree, training)
                    }) / per_cell;
                }
                partition
                    .get_or_insert_with(|| fosc.extract_on_tree(&tree, &trainings[0]).partition);
            }
        }
        Algorithm::MpckMeans => {
            // The configuration the served and batch paths instantiate.
            let method = MpckMethod::default();
            let configured = |k: usize| {
                MpckMeans::new(k.clamp(1, n))
                    .with_weights(method.violation_weight, method.violation_weight)
                    .with_metric_learning(method.learn_metric)
                    .with_max_iter(method.max_iter)
            };
            let use_closure = configured(1).use_closure;
            let mut seedings = Vec::with_capacity(trainings.len());
            for training in &trainings {
                cost.seeding += time_kernel(spans, "kmeans.mpck_seeding", group, parent, || {
                    MpckSeeding::compute(data, training, use_closure)
                }) / trainings.len() as f64;
                seedings.push(MpckSeeding::compute(data, training, use_closure));
            }
            for &param in &case.params {
                let mpck = configured(param);
                let seed = param as u64;
                for seeding in &seedings {
                    cost.fit += time_kernel(spans, "kmeans.mpck_fit", group, parent, || {
                        mpck.fit_seeded(data, seeding, &mut SeededRng::new(seed))
                    }) / per_cell;
                }
                partition.get_or_insert_with(|| {
                    mpck.fit_seeded(data, &seedings[0], &mut SeededRng::new(seed))
                        .partition
                });
            }
        }
    }
    let partition = partition.expect("every case has at least one candidate");
    if case.algorithm == Algorithm::MpckMeans {
        cost.silhouette = time_kernel(spans, "metrics.silhouette", group, parent, || {
            silhouette_from_pairwise(&dist, &partition)
        });
    }
    cost.fmeasure = time_kernel(spans, "metrics.constraint_fmeasure", group, parent, || {
        constraint_fmeasure(&partition, &split.test_constraints)
    });
    let involved = case.side.involved_objects();
    cost.overall = time_kernel(spans, "metrics.overall_fmeasure", group, parent, || {
        overall_fmeasure_excluding(&partition, case.dataset.labels(), &involved)
    });
    spans.end(parent, Instant::now());
    cost
}

/// Mean of `pick` over the cases of `algorithm` (every case when `None`),
/// weighted by the selections each stands for.
fn weighted(
    cases: &[Case],
    costs: &[Cost],
    algorithm: Option<Algorithm>,
    pick: fn(&Cost) -> f64,
) -> f64 {
    let (mut sum, mut weight) = (0.0, 0.0);
    for (case, cost) in cases.iter().zip(costs) {
        if algorithm.is_none_or(|a| a == case.algorithm) {
            sum += case.selections * pick(cost);
            weight += case.selections;
        }
    }
    ratio(sum, weight)
}

/// Replays every case and reports each kernel's estimated µs in the
/// measured window (median µs per call × calls), plus
/// `engine.overhead_share` against the window's Σ worker busy time.
pub fn kernel_layers(cases: &[Case], window: &Window, spans: &mut SpanLog, report: &mut RunReport) {
    let costs: Vec<Cost> = cases.iter().map(|case| replay(case, spans)).collect();
    let mut total = Cost::default();
    for (case, cost) in cases.iter().zip(&costs) {
        let cells = case.selections * cost.cells;
        let finals = case.selections * case.finals_per_selection;
        total.extract += (cells + finals) * cost.extract;
        total.fit += (cells + finals) * cost.fit;
        total.fmeasure += cells * cost.fmeasure;
        total.silhouette += finals * cost.silhouette;
        total.overall += finals * cost.overall;
        total.folds += case.selections * cost.folds;
        // Constraint-scenario folds close the whole constraint set once.
        if matches!(case.side, SideInformation::Constraints(_)) {
            total.closure += case.selections * cost.closure;
        }
    }
    // Cached artifacts cost one computation per cache miss of their kind.
    let misses = |kind: &str| window.computed(kind) as f64;
    let density = misses("density_hierarchy");
    let seedings = misses("mpck_seeding");
    let fosc = Some(Algorithm::Fosc);
    let mpck = Some(Algorithm::MpckMeans);
    total.pairwise = misses("pairwise_distances") * weighted(cases, &costs, None, |c| c.pairwise);
    total.knn = density * weighted(cases, &costs, fosc, |c| c.knn);
    total.mst = density * weighted(cases, &costs, fosc, |c| c.mst);
    total.condense = density * weighted(cases, &costs, fosc, |c| c.condense);
    total.seeding = seedings * weighted(cases, &costs, mpck, |c| c.seeding);
    total.closure += seedings * weighted(cases, &costs, mpck, |c| c.closure);

    for (name, value) in [
        ("data.pairwise_us", total.pairwise),
        ("density.knn_us", total.knn),
        ("density.mst_us", total.mst),
        ("density.condense_us", total.condense),
        ("density.extract_us", total.extract),
        ("kmeans.mpck_seeding_us", total.seeding),
        ("kmeans.mpck_fit_us", total.fit),
        ("metrics.constraint_fmeasure_us", total.fmeasure),
        ("metrics.silhouette_us", total.silhouette),
        ("metrics.overall_fmeasure_us", total.overall),
        ("constraints.closure_us", total.closure),
        ("constraints.folds_us", total.folds),
    ] {
        report.layer(name, value, "us");
    }
    // Kernels that run inside engine jobs.  Nested ones are left out
    // (kNN inside the MST, closure inside seeding and folds), and so are
    // folds, which are built on the caller's thread before lowering.
    let engine_us = total.pairwise
        + total.mst
        + total.condense
        + total.extract
        + total.seeding
        + total.fit
        + total.fmeasure
        + total.silhouette
        + total.overall;
    let kernel_share = ratio(engine_us, window.busy_ns as f64 / 1e3);
    report.layer("engine.overhead_share", 1.0 - kernel_share, "share");
    report.info("kernel_share_of_busy", kernel_share);
    report.info("kernel_share_of_cpu", ratio(engine_us, window.cpu_s * 1e6));
}
