//! Unified execution plans: **one** description of the full
//! (trial × parameter × fold) CVCP evaluation grid — plus its reduce
//! stages — and **one** lowering onto the execution engine.
//!
//! Every public evaluation entry point is a thin wrapper over this module:
//!
//! * [`crate::selection::select_model_with`] /
//!   [`crate::selection::select_model_streaming`] build a single-trial
//!   plan (no external stage);
//! * [`crate::experiment::run_experiment_on`] builds a multi-trial plan
//!   whose trials carry an [`ExternalStage`] (step 4 of the framework +
//!   the external quality measurements), so the *whole* experiment — every
//!   (trial × parameter × fold) cell and every per-parameter final
//!   clustering — fans out as one [`JobGraph`] instead of one opaque job
//!   per trial.
//!
//! ## Determinism
//!
//! Every grid cell derives its RNG stream *inside the job* from the
//! trial's frozen `grid_base` generator and the cell's structural
//! coordinates (`fork_stream(grid_salt(parameter, fold))`); external
//! cells fork from the trial's `external_base` and the parameter index.
//! Streams are pure functions of (plan inputs, coordinates), never of
//! execution order, thread count or scheduling lane — so the DAG lowering
//! and the inline (sequential) executor are **bit-identical**, as are runs
//! at any thread count and either [`Priority`] lane.
//!
//! ## Reduce stages
//!
//! Per trial, the grid reduces to per-parameter [`ParameterEvaluation`]s
//! and the argmax [`CvcpSelection`]; experiment trials additionally
//! finalize a [`TrialOutcome`] (expected/Silhouette baselines, Pearson
//! correlation of internal vs external scores — the t-test inputs of the
//! paper's Tables 5–16).  A final report job collects every trial in trial
//! order.
//!
//! ## Streaming progress
//!
//! Single-trial plans may carry a progress sink: one progress job per
//! candidate parameter is *chained* on its predecessor, so events are
//! emitted exactly once per candidate **in ascending candidate order**
//! even when fold jobs complete out of order (the regression
//! `streaming_progress_events_are_deterministic_in_parameter_order`
//! pins this).

use crate::algorithm::SemiSupervisedClusterer;
use crate::baselines::expected_quality;
use crate::crossval::{
    evaluate_param_inline, grid_salt, reduce_fold_scores, score_fold, FoldScore,
    ParameterEvaluation,
};
use crate::experiment::TrialOutcome;
use crate::selection::{reduce_evaluations, CvcpSelection, ProgressSink, SelectionCancelled};
use cvcp_constraints::folds::FoldSplit;
use cvcp_constraints::SideInformation;
use cvcp_data::distance::{pairwise_matrix, Euclidean};
use cvcp_data::rng::SeededRng;
use cvcp_data::DataMatrix;
use cvcp_engine::{
    fingerprint_matrix, ArtifactCache, ArtifactKey, CancelToken, Engine, GraphTrace, JobGraph,
    JobId, JobOutcome, Priority,
};
use cvcp_metrics::{
    overall_fmeasure_excluding, pearson, silhouette_coefficient, silhouette_from_pairwise,
};
use std::sync::{Arc, Mutex};

/// One finished external cell: the candidate's external F-measure and its
/// Silhouette value (when evaluated and defined).
type ExternalCell = (f64, Option<f64>);

/// The external-evaluation stage of an experiment trial: run every
/// candidate with the trial's *full* side information and measure the
/// external quality (step 4 of the framework plus the paper's baselines).
pub struct ExternalStage {
    /// The trial's full side-information draw.
    pub side: Arc<SideInformation>,
    /// Objects involved in the side information (excluded from the
    /// external F-measure).
    pub involved: Vec<usize>,
    /// Frozen RNG state the per-parameter final clusterings fork from
    /// (stream `pi` for candidate index `pi`).
    pub external_base: SeededRng,
    /// Whether the Silhouette baseline is evaluated.
    pub with_silhouette: bool,
    /// Ground-truth labels of the data set.
    pub labels: Arc<Vec<usize>>,
}

/// One fully-realized trial of an execution plan: the cross-validation
/// folds, the frozen grid RNG base and (for experiment trials) the
/// external stage.
pub struct PlanTrial {
    /// Trial index, echoed into the [`TrialOutcome`].
    pub trial: usize,
    /// The trial's cross-validation splits (folds with empty test
    /// constraint sets are skipped by the grid).
    pub splits: Arc<Vec<FoldSplit>>,
    /// Frozen RNG state the grid cells fork from
    /// (`fork_stream(grid_salt(parameter, fold))` per cell).
    pub grid_base: SeededRng,
    /// The external-evaluation stage; `None` for pure selection plans.
    pub external: Option<ExternalStage>,
}

/// The result of one plan trial: the selection, plus the finalized
/// [`TrialOutcome`] when the trial carried an [`ExternalStage`].
pub struct TrialEvaluation {
    /// Steps 1–3: the per-parameter evaluations and the argmax.
    pub selection: CvcpSelection,
    /// Step 4 + baselines, for experiment trials.
    pub outcome: Option<TrialOutcome>,
}

/// Execution knobs of [`ExecutionPlan::run`].
#[derive(Default)]
pub struct PlanOptions {
    /// The scheduling lane the plan's jobs are queued on (pure
    /// scheduling — results are bit-identical across lanes).
    pub priority: Priority,
    /// Optional cancellation token: jobs that have not started are
    /// skipped and [`ExecutionPlan::run`] returns
    /// `Err(`[`SelectionCancelled`]`)`.
    pub cancel: Option<CancelToken>,
    /// Progress sink for single-trial streaming selections.
    pub(crate) sink: Option<Arc<ProgressSink>>,
    /// When set, the plan records a per-job timeline ([`GraphTrace`])
    /// under this name.  Tracing is timing-only — the salted RNG streams
    /// are untouched, so traced and untraced runs are bit-identical.  Use
    /// [`ExecutionPlan::run_traced`] to receive the recorded trace.
    pub trace: Option<String>,
}

impl PlanOptions {
    /// Options for the given scheduling lane, no cancellation.
    pub fn with_priority(priority: Priority) -> Self {
        Self {
            priority,
            ..Self::default()
        }
    }
}

/// A full (trial × parameter × fold) evaluation grid plus its reduce
/// stages, ready to be lowered onto an [`Engine`].
pub struct ExecutionPlan {
    data: Arc<DataMatrix>,
    clusterers: Vec<Arc<dyn SemiSupervisedClusterer>>,
    params: Vec<usize>,
    trials: Vec<PlanTrial>,
}

impl ExecutionPlan {
    /// Builds a plan over pre-instantiated clusterers (one per candidate
    /// parameter) and fully-realized trials.
    ///
    /// # Panics
    ///
    /// Panics if `params` is empty, `trials` is empty, or `clusterers`
    /// and `params` disagree in length.
    pub fn new(
        data: Arc<DataMatrix>,
        clusterers: Vec<Arc<dyn SemiSupervisedClusterer>>,
        params: Vec<usize>,
        trials: Vec<PlanTrial>,
    ) -> Self {
        assert!(
            !params.is_empty(),
            "at least one candidate parameter is required"
        );
        assert!(!trials.is_empty(), "at least one trial is required");
        assert_eq!(
            clusterers.len(),
            params.len(),
            "one clusterer per candidate parameter"
        );
        Self {
            data,
            clusterers,
            params,
            trials,
        }
    }

    /// Number of trials in the plan.
    pub fn n_trials(&self) -> usize {
        self.trials.len()
    }

    /// Runs the plan on `engine` and returns one [`TrialEvaluation`] per
    /// trial, in trial order.
    ///
    /// On a one-thread engine the plan executes inline on the calling
    /// thread; otherwise it is lowered into one [`JobGraph`] covering the
    /// full (trial × parameter × fold) grid.  Both paths are
    /// **bit-identical**.
    ///
    /// # Panics
    ///
    /// Panics if any evaluation job panics (and the plan was not
    /// cancelled).
    pub fn run(
        self,
        engine: &Engine,
        options: PlanOptions,
    ) -> Result<Vec<TrialEvaluation>, SelectionCancelled> {
        if engine.n_threads() <= 1 && options.trace.is_none() {
            self.run_inline(engine.cache(), options)
        } else {
            // Tracing needs the graph lowering (the timeline is recorded
            // per job); the engine executes it inline on one thread, so
            // results stay bit-identical either way.
            self.run_on_graph(engine, options).map(|(out, _)| out)
        }
    }

    /// Like [`run`](Self::run), but always lowers onto a [`JobGraph`] and
    /// returns the recorded [`GraphTrace`] alongside the evaluations when
    /// `options.trace` is set.
    pub fn run_traced(
        self,
        engine: &Engine,
        options: PlanOptions,
    ) -> Result<(Vec<TrialEvaluation>, Option<GraphTrace>), SelectionCancelled> {
        self.run_on_graph(engine, options)
    }

    /// The sequential executor: trials, then candidates, in order — with
    /// the same salted streams as the DAG lowering.
    fn run_inline(
        self,
        cache: &ArtifactCache,
        options: PlanOptions,
    ) -> Result<Vec<TrialEvaluation>, SelectionCancelled> {
        let mut out = Vec::with_capacity(self.trials.len());
        for trial in &self.trials {
            out.push(evaluate_trial_inline(
                &self.clusterers,
                &self.params,
                &self.data,
                trial,
                Some(cache),
                options.sink.as_deref(),
                options.cancel.as_ref(),
            )?);
        }
        Ok(out)
    }

    /// The lowering: the full grid as one [`JobGraph`].
    ///
    /// Per candidate parameter one plan-level artifact job (densities /
    /// hierarchies are trial-invariant); per (trial, fold) one fold
    /// artifact job; per (trial, parameter) one evaluation job over that
    /// parameter's folds (labelled `fused` in traces) and, when the trial
    /// has an [`ExternalStage`], one external job; per trial one reduce
    /// job; one final report job.
    ///
    /// One job per (trial × parameter) rather than per grid cell keeps
    /// per-job overhead (queueing, dependency bookkeeping, a pool
    /// wake-up) off cheap cells while the parameter sweep stays
    /// parallel.  It decides only how jobs are cut: each cell still forks
    /// its stream from the trial's frozen base and its (parameter, fold)
    /// coordinates, exactly as the inline executor does.
    fn run_on_graph(
        self,
        engine: &Engine,
        options: PlanOptions,
    ) -> Result<(Vec<TrialEvaluation>, Option<GraphTrace>), SelectionCancelled> {
        let ExecutionPlan {
            data,
            clusterers,
            params,
            trials,
        } = self;
        let PlanOptions {
            priority,
            cancel,
            sink,
            trace,
        } = options;
        let n_trials = trials.len();
        let n_params = params.len();
        let params = Arc::new(params);

        let mut graph: JobGraph<Option<Vec<TrialEvaluation>>> = JobGraph::new(0);
        graph.set_priority(priority);
        if let Some(token) = cancel.clone() {
            graph.set_cancel_token(token);
        }
        // Labels are only materialised on traced graphs — the untraced
        // path allocates nothing per job.
        let tracing = trace.is_some();
        if let Some(name) = trace {
            graph.enable_trace(name);
        }

        // Plan-level artifact jobs: the per-parameter artifacts (pairwise
        // matrix, density hierarchies) depend only on (clusterer, data),
        // so one job warms them for every trial of the plan.
        let artifact_ids: Vec<JobId> = clusterers
            .iter()
            .enumerate()
            .map(|(pi, clusterer)| {
                let clusterer = Arc::clone(clusterer);
                let data = Arc::clone(&data);
                let id = graph.add_job(&[], move |ctx| {
                    clusterer.prepare_artifacts(&data, ctx.cache());
                    None
                });
                if tracing {
                    graph.set_job_label(id, format!("artifact/p{}", params[pi]));
                }
                id
            })
            .collect();

        let results: Arc<Mutex<Vec<Option<TrialEvaluation>>>> =
            Arc::new(Mutex::new((0..n_trials).map(|_| None).collect()));
        let mut finalize_ids = Vec::with_capacity(n_trials);
        debug_assert!(
            sink.is_none() || n_trials == 1,
            "progress sinks apply to single-trial plans"
        );
        let mut prev_progress: Option<JobId> = None;

        for (t, trial) in trials.into_iter().enumerate() {
            let trial = Arc::new(trial);
            let splits = Arc::clone(&trial.splits);
            // One artifact job per fold precomputes the structures shared
            // by every parameter evaluated on that fold's training
            // information (MPCKMeans' transitive closure and seeding
            // neighbourhoods are k-invariant), so a whole parameter sweep
            // warms up behind a single computation instead of racing on
            // the first evaluation of each fold.
            let mut fold_artifact_ids: Vec<Option<JobId>> = vec![None; splits.len()];
            for (si, split) in splits.iter().enumerate() {
                if split.test_constraints.is_empty() {
                    continue;
                }
                let clusterer = Arc::clone(&clusterers[0]);
                let data = Arc::clone(&data);
                let splits = Arc::clone(&splits);
                let id = graph.add_job(&[], move |ctx| {
                    clusterer.prepare_fold_artifacts(&data, &splits[si].training, ctx.cache());
                    None
                });
                if tracing {
                    graph.set_job_label(id, format!("t{t}/fold{}", split.fold));
                }
                fold_artifact_ids[si] = Some(id);
            }

            // Grid accumulator: [param][split] fold scores, written by
            // evaluation jobs, read by this trial's reduce job.
            let grid: Arc<Mutex<Vec<Vec<Option<FoldScore>>>>> = Arc::new(Mutex::new(
                (0..n_params).map(|_| vec![None; splits.len()]).collect(),
            ));
            let mut eval_ids = Vec::with_capacity(n_params);
            for pi in 0..n_params {
                let clusterer = Arc::clone(&clusterers[pi]);
                let data = Arc::clone(&data);
                let splits = Arc::clone(&splits);
                let grid = Arc::clone(&grid);
                let trial = Arc::clone(&trial);
                let deps: Vec<JobId> = std::iter::once(artifact_ids[pi])
                    .chain(fold_artifact_ids.iter().copied().flatten())
                    .collect();
                let id = graph.add_job(&deps, move |ctx| {
                    let cache = ctx.cache_arc();
                    for (si, split) in splits.iter().enumerate() {
                        if split.test_constraints.is_empty() {
                            continue;
                        }
                        let mut rng = trial.grid_base.fork_stream(grid_salt(pi, split.fold));
                        let score =
                            score_fold(&*clusterer, &data, &splits[si], &mut rng, Some(&cache));
                        grid.lock().expect("grid lock")[pi][si] = Some(score);
                    }
                    None
                });
                if tracing {
                    graph.set_job_label(id, format!("t{t}/p{}/fused", params[pi]));
                }
                eval_ids.push(id);
            }

            // Streaming: one progress job per candidate, chained on its
            // predecessor so events are emitted in ascending candidate
            // order no matter how the fold jobs interleave.  Progress jobs
            // only read the grid — no randomness — so their presence
            // cannot perturb the evaluation streams.
            if let Some(sink) = &sink {
                for pi in 0..n_params {
                    let sink = Arc::clone(sink);
                    let grid = Arc::clone(&grid);
                    let param = params[pi];
                    let mut deps = vec![eval_ids[pi]];
                    deps.extend(prev_progress);
                    let id = graph.add_job(&deps, move |_ctx| {
                        let folds: Vec<FoldScore> = grid.lock().expect("grid lock")[pi]
                            .iter()
                            .flatten()
                            .cloned()
                            .collect();
                        let eval = reduce_fold_scores(param, folds);
                        sink.emit(eval.param, eval.score);
                        None
                    });
                    if tracing {
                        graph.set_job_label(id, format!("progress/p{param}"));
                    }
                    prev_progress = Some(id);
                }
            }

            // External stage: one job per candidate parameter, sharing
            // the candidate's plan-level artifacts.
            let externals: Arc<Mutex<Vec<Option<ExternalCell>>>> =
                Arc::new(Mutex::new(vec![None; n_params]));
            let mut external_ids = Vec::new();
            if trial.external.is_some() {
                for pi in 0..n_params {
                    let clusterer = Arc::clone(&clusterers[pi]);
                    let data = Arc::clone(&data);
                    let trial = Arc::clone(&trial);
                    let externals = Arc::clone(&externals);
                    let id = graph.add_job(&[artifact_ids[pi]], move |ctx| {
                        let ext = trial.external.as_ref().expect("external stage present");
                        let cell = external_cell(&*clusterer, pi, &data, ext, Some(ctx.cache()));
                        externals.lock().expect("externals lock")[pi] = Some(cell);
                        None
                    });
                    if tracing {
                        graph.set_job_label(id, format!("external/t{t}/p{}", params[pi]));
                    }
                    external_ids.push(id);
                }
            }

            // Per-trial reduce: fold scores → parameter evaluations →
            // argmax selection, plus the external finalisation (baselines
            // + correlation) for experiment trials.
            {
                let grid = Arc::clone(&grid);
                let params = Arc::clone(&params);
                let results = Arc::clone(&results);
                let trial = Arc::clone(&trial);
                let externals = Arc::clone(&externals);
                let deps: Vec<JobId> = eval_ids
                    .iter()
                    .copied()
                    .chain(external_ids.iter().copied())
                    .collect();
                let id = graph.add_job(&deps, move |_ctx| {
                    let evaluations: Vec<ParameterEvaluation> = {
                        let grid = grid.lock().expect("grid lock");
                        params
                            .iter()
                            .enumerate()
                            .map(|(pi, &p)| {
                                reduce_fold_scores(p, grid[pi].iter().flatten().cloned().collect())
                            })
                            .collect()
                    };
                    let selection = reduce_evaluations(evaluations);
                    let outcome = trial.external.as_ref().map(|ext| {
                        let cells: Vec<ExternalCell> = externals
                            .lock()
                            .expect("externals lock")
                            .iter()
                            .copied()
                            .map(|c| c.expect("external cell completed"))
                            .collect();
                        finalize_trial(trial.trial, &params, &selection, ext, &cells)
                    });
                    results.lock().expect("plan results lock")[t] =
                        Some(TrialEvaluation { selection, outcome });
                    None
                });
                if tracing {
                    graph.set_job_label(id, format!("reduce/t{t}"));
                }
                finalize_ids.push(id);
            }
        }

        // Report stage: collect every trial, in trial order.
        {
            let results = Arc::clone(&results);
            let id = graph.add_job(&finalize_ids, move |_ctx| {
                Some(
                    results
                        .lock()
                        .expect("plan results lock")
                        .iter_mut()
                        .map(|slot| slot.take().expect("trial finalized"))
                        .collect(),
                )
            });
            if tracing {
                graph.set_job_label(id, "report".to_string());
            }
        }

        let mut result = engine.run_graph(graph);
        let trace = result.trace.take();
        match result.outcomes.pop() {
            Some(JobOutcome::Completed(Some(evaluations))) => Ok((evaluations, trace)),
            _ if cancel.as_ref().is_some_and(CancelToken::is_cancelled) => Err(SelectionCancelled),
            _ => {
                let failure = result
                    .first_failure()
                    .unwrap_or("the report job did not run")
                    .to_string();
                panic!("execution plan failed on the engine: {failure}");
            }
        }
    }
}

/// Inline evaluation of one plan trial with the *same* salted streams as
/// the DAG lowering — shared by the sequential executor and the
/// figure-generating [`crate::experiment::run_trial`] path (which has no
/// engine and may have no cache).
pub(crate) fn evaluate_trial_inline(
    clusterers: &[Arc<dyn SemiSupervisedClusterer>],
    params: &[usize],
    data: &DataMatrix,
    trial: &PlanTrial,
    cache: Option<&ArtifactCache>,
    sink: Option<&ProgressSink>,
    cancel: Option<&CancelToken>,
) -> Result<TrialEvaluation, SelectionCancelled> {
    let is_cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    let mut evaluations = Vec::with_capacity(params.len());
    for (pi, clusterer) in clusterers.iter().enumerate() {
        if is_cancelled() {
            return Err(SelectionCancelled);
        }
        let eval = evaluate_param_inline(
            &**clusterer,
            pi,
            params[pi],
            data,
            &trial.splits,
            &trial.grid_base,
            cache,
        );
        if let Some(sink) = sink {
            sink.emit(eval.param, eval.score);
        }
        evaluations.push(eval);
    }
    let selection = reduce_evaluations(evaluations);
    let outcome = match &trial.external {
        Some(ext) => {
            let cells: Vec<ExternalCell> = clusterers
                .iter()
                .enumerate()
                .map(|(pi, clusterer)| external_cell(&**clusterer, pi, data, ext, cache))
                .collect();
            Some(finalize_trial(trial.trial, params, &selection, ext, &cells))
        }
        None => None,
    };
    Ok(TrialEvaluation { selection, outcome })
}

/// One external cell: run candidate `pi` with the trial's full side
/// information and measure the external F-measure (plus the Silhouette
/// when requested).  The candidate's stream is `external_base` forked by
/// the candidate index, so parameter order cannot influence results; the
/// Silhouette's pairwise matrix comes from the cache when one is present
/// (bit-identical to the direct computation — see
/// [`silhouette_from_pairwise`]).
fn external_cell(
    clusterer: &dyn SemiSupervisedClusterer,
    pi: usize,
    data: &DataMatrix,
    ext: &ExternalStage,
    cache: Option<&ArtifactCache>,
) -> ExternalCell {
    let mut rng = ext.external_base.fork_stream(pi as u64);
    let partition = match cache {
        Some(cache) => clusterer.cluster_with_cache(data, &ext.side, &mut rng, cache),
        None => clusterer.cluster(data, &ext.side, &mut rng),
    };
    let f = overall_fmeasure_excluding(&partition, &ext.labels, &ext.involved);
    let silhouette = if ext.with_silhouette {
        match cache {
            Some(cache) => {
                let dist = cache.get_or_compute(
                    ArtifactKey::PairwiseDistances {
                        data: fingerprint_matrix(data),
                    },
                    || pairwise_matrix(data, &Euclidean),
                );
                silhouette_from_pairwise(&dist, &partition)
            }
            None => silhouette_coefficient(data, &partition, &Euclidean),
        }
    } else {
        None
    };
    (f, silhouette)
}

/// Folds a trial's selection and external cells into its [`TrialOutcome`]
/// (the per-trial reduce of the experiment harness: CVCP vs expected vs
/// Silhouette, plus the internal/external Pearson correlation).
fn finalize_trial(
    trial: usize,
    params: &[usize],
    selection: &CvcpSelection,
    ext: &ExternalStage,
    cells: &[ExternalCell],
) -> TrialOutcome {
    let internal_scores = selection.scores();
    let external_scores: Vec<f64> = cells.iter().map(|c| c.0).collect();
    let silhouettes: Vec<Option<f64>> = cells.iter().map(|c| c.1).collect();
    let selected_idx = params
        .iter()
        .position(|&p| p == selection.best_param)
        .expect("selected parameter is in the range");
    let cvcp_external = external_scores[selected_idx];
    let expected_external = expected_quality(&external_scores);

    let (silhouette_param, silhouette_external) = if ext.with_silhouette {
        let mut best: Option<(usize, f64)> = None;
        for (i, s) in silhouettes.iter().enumerate() {
            if let Some(v) = s {
                if best.is_none_or(|(_, bv)| *v > bv) {
                    best = Some((i, *v));
                }
            }
        }
        match best {
            Some((i, _)) => (Some(params[i]), Some(external_scores[i])),
            None => (Some(params[0]), Some(external_scores[0])),
        }
    } else {
        (None, None)
    };

    let correlation = pearson(&internal_scores, &external_scores);

    TrialOutcome {
        trial,
        params: params.to_vec(),
        internal_scores,
        external_scores,
        selected_param: selection.best_param,
        cvcp_external,
        expected_external,
        silhouette_param,
        silhouette_external,
        correlation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(with_silhouette: bool) -> ExternalStage {
        ExternalStage {
            side: Arc::new(SideInformation::none(4)),
            involved: Vec::new(),
            external_base: SeededRng::new(0),
            with_silhouette,
            labels: Arc::new(vec![0; 4]),
        }
    }

    /// The Silhouette baseline of the paper's tables: the candidate with
    /// the best defined Silhouette wins, the earlier one on a tie, and the
    /// first candidate is reported when every Silhouette is undefined.
    #[test]
    fn finalize_trial_takes_the_first_best_silhouette_or_the_first_candidate() {
        let params = [2, 3, 4, 5];
        // CVCP picks 4, so its choice differs from the Silhouette's.
        let sel = reduce_evaluations(
            params
                .iter()
                .map(|&param| ParameterEvaluation {
                    param,
                    score: if param == 4 { 0.9 } else { 0.5 },
                    folds: Vec::new(),
                })
                .collect(),
        );

        let tied = [
            (0.1, Some(0.2)),
            (0.5, Some(0.7)),
            (0.6, None),
            (0.9, Some(0.7)),
        ];
        let outcome = finalize_trial(0, &params, &sel, &stage(true), &tied);
        assert_eq!(outcome.silhouette_param, Some(3));
        assert_eq!(outcome.silhouette_external, Some(0.5));
        assert_eq!(outcome.selected_param, 4);
        assert_eq!(outcome.cvcp_external, 0.6);

        let undefined = [(0.4, None), (0.8, None), (0.3, None), (0.2, None)];
        let outcome = finalize_trial(1, &params, &sel, &stage(true), &undefined);
        assert_eq!(outcome.silhouette_param, Some(2));
        assert_eq!(outcome.silhouette_external, Some(0.4));

        let outcome = finalize_trial(2, &params, &sel, &stage(false), &tied);
        assert_eq!(outcome.silhouette_param, None);
        assert_eq!(outcome.silhouette_external, None);
    }
}
