//! The paper-grid workload, `grid_batch`: whole experiments through
//! `run_experiment_on`, the path that reproduces the paper's tables.  It
//! runs the batch lane, the whole-experiment job graph and the external
//! stage (overall F-measure, Silhouette, t-test) that serving never runs,
//! with artifacts shared across trials and no server involved.
//!
//! A closed loop with one in-process caller.  Each pass builds a fresh
//! 2-worker engine with an unbounded cache and runs, on the five UCI
//! replicas and `aloi:0`, FOSC with 10% labels and then MPCKMeans with 20%
//! constraints and Silhouette, at quick-mode scale (5 trials, 5 folds,
//! default grids).  Every pass must reproduce the first bit-for-bit.

use crate::replay::{self, Case};
use crate::report::{RunReport, SpanLog};
use crate::stats::{self, derive_seed, Digest};
use crate::window::{Snapshot, Window};
use cvcp_core::json::{Json, ToJson};
use cvcp_core::{
    run_experiment_on, summarize, Algorithm, CvcpConfig, ExperimentConfig, ExperimentSummary,
    SideInfoSpec, TrialOutcome,
};
use cvcp_data::replicas::{replica_by_name, uci_corpus};
use cvcp_data::rng::SeededRng;
use cvcp_data::Dataset;
use cvcp_engine::Engine;
use cvcp_metrics::TTestResult;
use std::hint::black_box;
use std::time::{Duration, Instant};

const TRIALS: usize = 5;
const FOLDS: usize = 5;
const ENGINE_WORKERS: usize = 2;
/// Set-up (generating the six replicas and building a 2-worker engine) is
/// timed this many times before every pass; the median over all passes is
/// `setup_s`, so the repetitions are spread over the whole run.
const SETUP_REPS_PER_PASS: usize = 8;
/// Passes run even when they outlast `--seconds`: every run has repeats
/// to check against the first pass, and the tail latency is read over
/// exactly this many passes, so its percentile is the same in every run.
const MIN_PASSES: usize = 12;
/// `cvcp_experiments::BASE_SEED`.
const REPLICA_SEED: u64 = 20_140_324;
const SALT_TRIALS: u64 = 12;
const SALT_REPLAY: u64 = 13;

/// The experiment families of a pass, each run on every replica.
const FAMILIES: [(Algorithm, SideInfoSpec); 2] = [
    (Algorithm::Fosc, SideInfoSpec::LabelFraction(0.1)),
    (
        Algorithm::MpckMeans,
        SideInfoSpec::ConstraintSample {
            pool_fraction: 0.1,
            sample_fraction: 0.2,
        },
    ),
];

/// Layers a grid run has no counterpart for: the load generator and the
/// server, `realize`, and the critical path, which `run_experiment_on`
/// does not expose.  They read 0.
const NOT_APPLICABLE: [(&str, &str); 10] = [
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.backlog_end", "count"),
    ("server.admission_wait_p50_ms", "ms"),
    ("server.admission_wait_p99_ms", "ms"),
    ("server.refused.queue_full", "count"),
    ("server.refused.in_flight_limit", "count"),
    ("server.refused.server_busy", "count"),
    ("server.overhead_ms", "ms"),
    ("core.realize_ms", "ms"),
    ("engine.critical_path_share", "share"),
];

/// The six replicas, generated from the seed the paper binaries use: the
/// grid reproduces the paper on fixed data, and the workload seed varies
/// the trials' side information and folds.
fn datasets() -> Vec<Dataset> {
    let mut datasets = uci_corpus(REPLICA_SEED);
    datasets.push(replica_by_name("aloi:0", REPLICA_SEED).expect("aloi:0 is a registered replica"));
    datasets
}

fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        n_trials: TRIALS,
        cvcp: CvcpConfig {
            n_folds: FOLDS,
            stratified: true,
        },
        params: Vec::new(),
        seed: derive_seed(seed, SALT_TRIALS, 0),
        with_silhouette: true,
        n_threads: ENGINE_WORKERS,
    }
}

/// An experiment's results reduced to the bits a repeat must reproduce.
fn result_bits(outcomes: &[TrialOutcome], summary: &ExperimentSummary) -> Vec<u64> {
    let mut bits = Vec::new();
    for o in outcomes {
        bits.extend([o.trial as u64, o.selected_param as u64]);
        bits.extend(o.params.iter().map(|&p| p as u64));
        bits.extend(o.internal_scores.iter().map(|s| s.to_bits()));
        bits.extend(o.external_scores.iter().map(|s| s.to_bits()));
        bits.extend([
            o.cvcp_external.to_bits(),
            o.expected_external.to_bits(),
            o.correlation.to_bits(),
            o.silhouette_param.map_or(u64::MAX, |p| p as u64),
            o.silhouette_external.map_or(u64::MAX, f64::to_bits),
        ]);
    }
    let p_value = |t: &Option<TTestResult>| t.as_ref().map_or(u64::MAX, |t| t.p_value.to_bits());
    bits.extend([
        summary.cvcp.mean.to_bits(),
        summary.expected.mean.to_bits(),
        summary.mean_correlation.to_bits(),
        p_value(&summary.cvcp_vs_expected),
        p_value(&summary.cvcp_vs_silhouette),
    ]);
    bits
}

/// The invariants every trial must satisfy: the grid is the one asked
/// for, every score is a share, and the pick is the first argmax of the
/// internal scores, reported with its own external score.
fn check_trial(o: &TrialOutcome, params: &[usize]) -> Result<(), String> {
    if o.params != params {
        return Err(format!(
            "trial {} evaluated {:?}, not {params:?}",
            o.trial, o.params
        ));
    }
    // One ulp above 1 is float rounding in an F-measure of 1, not an error.
    let share = |v: &f64| (0.0..=1.0 + 1e-12).contains(v);
    if !o
        .internal_scores
        .iter()
        .chain(&o.external_scores)
        .all(share)
    {
        return Err(format!(
            "trial {}: a score lies outside [0, 1]: internal {:?}, external {:?}",
            o.trial, o.internal_scores, o.external_scores
        ));
    }
    let best = (0..o.internal_scores.len()).fold(0, |best, i| {
        if o.internal_scores[i] > o.internal_scores[best] {
            i
        } else {
            best
        }
    });
    if params.get(best) != Some(&o.selected_param) {
        return Err(format!(
            "trial {}: selected {} but the argmax is {:?}",
            o.trial,
            o.selected_param,
            params.get(best)
        ));
    }
    if o.external_scores.get(best).map(|s| s.to_bits()) != Some(o.cvcp_external.to_bits()) {
        return Err(format!(
            "trial {}: the pick's external score is misreported",
            o.trial
        ));
    }
    Ok(())
}

/// One pass over every (replica × family) experiment.
struct Pass {
    secs: f64,
    /// Wall time and result bits of each experiment, in pass order.
    experiments: Vec<(f64, Vec<u64>)>,
    /// Invariant violations, by experiment.
    problems: Vec<Option<String>>,
    family_secs: [f64; 2],
    window: Option<Window>,
}

fn pass(
    datasets: &[Dataset],
    config: &ExperimentConfig,
    traced: bool,
    spans: Option<&mut SpanLog>,
    index: usize,
) -> Pass {
    let started = Instant::now();
    let engine = Engine::new(ENGINE_WORKERS);
    let zero = Snapshot::zero();
    let mut out = Pass {
        secs: 0.0,
        experiments: Vec::new(),
        problems: Vec::new(),
        family_secs: [0.0; 2],
        window: None,
    };
    let mut timeline = Vec::new();
    for dataset in datasets {
        for (family, (algorithm, spec)) in FAMILIES.iter().enumerate() {
            let method = algorithm.method();
            let params = method.default_parameter_range(dataset.n_classes());
            let start = Instant::now();
            let outcomes = run_experiment_on(&engine, &*method, dataset, *spec, config);
            let summary = summarize(dataset.name(), &method.name(), *spec, &outcomes);
            let end = Instant::now();
            let label = format!("{}/{}", dataset.name(), algorithm.name());
            let problem = outcomes
                .iter()
                .find_map(|o| check_trial(o, &params).err())
                .map(|p| format!("{label}: {p}"));
            let secs = (end - start).as_secs_f64();
            out.family_secs[family] += secs;
            out.experiments
                .push((secs, result_bits(&outcomes, &summary)));
            out.problems.push(problem);
            timeline.push((start, end, label));
        }
    }
    if traced {
        out.window = Some(Window::between(&zero, &Snapshot::take(&engine)));
    }
    drop(engine);
    let finished = Instant::now();
    out.secs = (finished - started).as_secs_f64();
    if let Some(spans) = spans {
        let parent = spans.record("grid/pass", format!("pass{index}"), started, finished, None);
        for (start, end, label) in timeline {
            spans.record("core/run_experiment_on", label, start, end, Some(parent));
        }
    }
    out
}

/// Runs `grid_batch` for at least `seconds`, and at least two passes.
pub fn run(seed: u64, seconds: f64, traced: bool, mut spans: Option<&mut SpanLog>) -> RunReport {
    let mut report = RunReport::default();
    let mut setup = Vec::new();
    let mut data = Vec::new();
    let config = config(seed);
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let host_before = stats::host_cpu_ticks();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || started.elapsed() < budget {
        for _ in 0..SETUP_REPS_PER_PASS {
            let start = Instant::now();
            data = datasets();
            drop(black_box(Engine::new(ENGINE_WORKERS)));
            setup.push(start.elapsed().as_secs_f64());
        }
        let index = passes.len();
        passes.push(pass(&data, &config, traced, spans.as_deref_mut(), index));
    }
    let host_steal_share = stats::steal_share(host_before, stats::host_cpu_ticks());

    let mut digest = Digest::default();
    for word in passes[0].experiments.iter().flat_map(|(_, bits)| bits) {
        digest.word(*word);
    }
    let mut latencies = Vec::new();
    let mut good = 0u64;
    for (index, p) in passes.iter().enumerate() {
        for (e, ((secs, bits), problem)) in p.experiments.iter().zip(&p.problems).enumerate() {
            latencies.push(secs * 1e3);
            let same = *bits == passes[0].experiments[e].1;
            if !same {
                report.check_failed(format!("pass {index}: experiment {e} differs from pass 0"));
            }
            if let Some(problem) = problem {
                report.check_failed(format!("pass {index}: {problem}"));
            }
            if same && problem.is_none() {
                good += 1;
            }
        }
    }
    report.attempted = latencies.len() as u64;
    report.failed = report.attempted - good;
    let measured_s: f64 = passes.iter().map(|p| p.secs).sum();
    let mut tail_sample: Vec<f64> = passes[..MIN_PASSES]
        .iter()
        .flat_map(|p| p.experiments.iter().map(|(secs, _)| secs * 1e3))
        .collect();
    tail_sample.sort_by(f64::total_cmp);
    let tail_percentile = stats::tail_percentile(tail_sample.len() as f64);
    latencies.sort_by(f64::total_cmp);
    let mut pass_secs: Vec<f64> = passes.iter().map(|p| p.secs).collect();

    report.end_to_end("setup_s", stats::median(&mut setup), "s");
    report.end_to_end(
        "latency_p50_ms",
        stats::quantile_sorted(&latencies, 0.5),
        "ms",
    );
    report.end_to_end(
        "latency_tail_ms",
        stats::quantile_sorted(&tail_sample, tail_percentile / 100.0),
        "ms",
    );
    report.end_to_end("goodput_rps", good as f64 / measured_s, "1/s");
    report.end_to_end("capacity_rps", report.attempted as f64 / measured_s, "1/s");
    report.end_to_end("grid_s", stats::median(&mut pass_secs), "s");
    report.end_to_end("peak_rss_mb", stats::peak_rss_mb(), "MiB");

    report.info("unit_of_latency", "one run_experiment_on + summarize call");
    report.info("tail_percentile", tail_percentile);
    report.info("tail_samples", tail_sample.len());
    report.info("passes", passes.len());
    report.info("host_steal_share", host_steal_share);
    report.info("output_digest", digest.hex());
    let replicas: Vec<String> = data.iter().map(|d| d.name().to_string()).collect();
    report.info(
        "config",
        Json::obj([
            ("engine_workers", ENGINE_WORKERS.to_json()),
            ("cache", "unbounded, fresh per pass".to_json()),
            ("trials", TRIALS.to_json()),
            ("folds", FOLDS.to_json()),
            ("replicas", replicas.to_json()),
        ]),
    );
    report.iterations = vec![("setup_reps", setup.len()), ("passes", passes.len())];

    if let Some(spans) = spans {
        let experiments = data.len() * FAMILIES.len();
        let window = passes
            .last()
            .and_then(|p| p.window.as_ref())
            .expect("traced passes read their engine");
        for (family, (algorithm, _)) in FAMILIES.iter().enumerate() {
            let mut secs: Vec<f64> = passes.iter().map(|p| p.family_secs[family]).collect();
            report.layer(
                format!("core.experiment_s.{}", algorithm.name()),
                stats::median(&mut secs),
                "s",
            );
        }
        report.layer(
            "core.jobs_per_selection",
            window.jobs() as f64 / experiments as f64,
            "count",
        );
        for (name, unit) in NOT_APPLICABLE {
            report.layer(name, 0.0, unit);
        }
        window.report(&mut report);
        let cases: Vec<Case> = data
            .iter()
            .enumerate()
            .flat_map(|(d, dataset)| {
                FAMILIES
                    .iter()
                    .enumerate()
                    .map(move |(f, (algorithm, spec))| {
                        let mut rng =
                            SeededRng::new(derive_seed(seed, SALT_REPLAY, (2 * d + f) as u64));
                        let side = spec.generate(dataset, &mut rng);
                        let params = algorithm
                            .method()
                            .default_parameter_range(dataset.n_classes());
                        Case {
                            label: format!("{}/{}", dataset.name(), algorithm.name()),
                            dataset: dataset.clone(),
                            algorithm: *algorithm,
                            side,
                            n_folds: FOLDS,
                            stratified: true,
                            finals_per_selection: params.len() as f64,
                            params,
                            rng,
                            selections: TRIALS as f64,
                        }
                    })
            })
            .collect();
        replay::kernel_layers(&cases, window, spans, &mut report);
    }
    report
}
