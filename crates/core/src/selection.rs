//! Steps 2–3 of the CVCP framework: sweep the parameter range and pick the
//! highest-scoring value.  Step 4, re-running the algorithm with all side
//! information, is the external stage of an experiment plan
//! ([`crate::plan::ExternalStage`]).
//!
//! Both entry points are thin wrappers over the unified
//! [`crate::plan::ExecutionPlan`]: they realize a single-trial plan (folds
//! + frozen grid RNG base) and hand it to the plan's one lowering.

use crate::algorithm::{ParameterizedMethod, SemiSupervisedClusterer};
use crate::crossval::{build_folds, CvcpConfig, ParameterEvaluation};
use crate::plan::{ExecutionPlan, PlanOptions, PlanTrial};
use cvcp_constraints::folds::FoldSplit;
use cvcp_constraints::SideInformation;
use cvcp_data::rng::SeededRng;
use cvcp_data::DataMatrix;
use cvcp_engine::{CancelToken, Engine, GraphTrace, Priority};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Salt of the RNG stream that feeds the evaluation grid (applied as one
/// `fork` of the caller's generator after the folds are built).
pub(crate) const SELECTION_STREAM_SALT: u64 = 0x5E1E_C710;

/// Result of a CVCP model-selection run.
#[derive(Debug, Clone, PartialEq)]
pub struct CvcpSelection {
    /// The selected (highest-scoring) parameter value.
    pub best_param: usize,
    /// The CVCP score of the selected parameter.
    pub best_score: f64,
    /// The full evaluation of every candidate parameter, in the order given.
    pub evaluations: Vec<ParameterEvaluation>,
}

impl CvcpSelection {
    /// The internal CVCP scores in candidate order (the series plotted in
    /// Figures 5–8 of the paper).
    pub fn scores(&self) -> Vec<f64> {
        self.evaluations.iter().map(|e| e.score).collect()
    }

    /// The candidate parameter values in evaluation order.
    pub fn params(&self) -> Vec<usize> {
        self.evaluations.iter().map(|e| e.param).collect()
    }
}

/// Argmax with "first wins" tie-breaking (the paper does not specify a
/// rule; candidates are conventionally listed in increasing order, so this
/// prefers the simpler model).
pub(crate) fn reduce_evaluations(evaluations: Vec<ParameterEvaluation>) -> CvcpSelection {
    let mut best_idx = 0usize;
    for (i, eval) in evaluations.iter().enumerate() {
        if eval.score > evaluations[best_idx].score {
            best_idx = i;
        }
    }
    CvcpSelection {
        best_param: evaluations[best_idx].param,
        best_score: evaluations[best_idx].score,
        evaluations,
    }
}

/// Runs CVCP model selection: evaluates every candidate parameter with the
/// same cross-validation folds and returns the scores and the argmax.
///
/// This is the sequential entry point — equivalent to
/// [`select_model_with`] on a one-thread [`Engine`] (which is exactly how
/// it is implemented).  Each (parameter × fold) grid cell draws from its
/// own salted RNG stream, so the result does not depend on evaluation
/// order.
///
/// # Panics
///
/// Panics if `params` is empty.
pub fn select_model(
    method: &dyn ParameterizedMethod,
    data: &DataMatrix,
    side: &SideInformation,
    params: &[usize],
    config: &CvcpConfig,
    rng: &mut SeededRng,
) -> CvcpSelection {
    select_model_with(
        &Engine::sequential(),
        method,
        data,
        side,
        params,
        config,
        rng,
    )
}

/// One per-parameter completion event of a streaming selection.
///
/// Exactly one event is emitted per candidate parameter, **in ascending
/// candidate order** — deterministically, even on a multi-threaded engine
/// where fold jobs complete out of order (the plan chains each
/// candidate's progress job on its predecessor's).  `completed` therefore
/// counts `1..=total` in emission order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionProgress {
    /// The candidate parameter that just finished.
    pub param: usize,
    /// Its CVCP score (mean F-measure over the folds).
    pub score: f64,
    /// How many candidates have finished so far (including this one).
    pub completed: usize,
    /// Total number of candidates.
    pub total: usize,
}

/// Error returned by [`select_model_streaming`] when its [`CancelToken`]
/// was cancelled before the selection finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionCancelled;

impl std::fmt::Display for SelectionCancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model selection was cancelled")
    }
}

impl std::error::Error for SelectionCancelled {}

/// Shared progress state: the caller's callback plus the completion
/// counter.  Lives behind an `Arc` so per-parameter DAG jobs (which must be
/// `'static`) can emit into it.
pub(crate) struct ProgressSink {
    callback: Mutex<Box<dyn FnMut(SelectionProgress) + Send>>,
    completed: AtomicUsize,
    total: usize,
}

impl ProgressSink {
    pub(crate) fn emit(&self, param: usize, score: f64) {
        let completed = self.completed.fetch_add(1, Ordering::SeqCst) + 1;
        (self.callback.lock().expect("progress callback lock"))(SelectionProgress {
            param,
            score,
            completed,
            total: self.total,
        });
    }
}

/// Runs CVCP model selection on an execution engine.
///
/// The request is modelled as a job DAG: one artifact job per candidate
/// parameter (precomputing shareable structures such as the per-`MinPts`
/// density hierarchy into the engine's cache), one evaluation job per
/// (parameter × fold) grid cell, and a final reduction job producing the
/// [`CvcpSelection`].  Results are **bit-identical** to the sequential path
/// at any thread count: every grid cell draws from a salted
/// [`SeededRng::fork_stream`] keyed by its (parameter, fold) coordinates,
/// never from execution order.
///
/// # Panics
///
/// Panics if `params` is empty, or if an evaluation job panics.
pub fn select_model_with(
    engine: &Engine,
    method: &dyn ParameterizedMethod,
    data: &DataMatrix,
    side: &SideInformation,
    params: &[usize],
    config: &CvcpConfig,
    rng: &mut SeededRng,
) -> CvcpSelection {
    assert!(
        !params.is_empty(),
        "at least one candidate parameter is required"
    );
    let splits = build_folds(side, config, rng);
    let base = rng.fork(SELECTION_STREAM_SALT);
    let clusterers: Vec<Arc<dyn SemiSupervisedClusterer>> = params
        .iter()
        .map(|&p| Arc::from(method.instantiate(p)))
        .collect();
    select_model_prepared(
        engine,
        &clusterers,
        params,
        data,
        splits,
        base,
        Priority::Interactive,
        None,
        None,
        None,
    )
    .expect("selection without a cancel token cannot be cancelled")
    .0
}

/// Like [`select_model_with`], but emits a [`SelectionProgress`] event as
/// each candidate parameter finishes, honours an optional [`CancelToken`]
/// and queues its jobs on the given [`Priority`] lane — the serving
/// front-end's entry point.
///
/// The final [`CvcpSelection`] is **bit-identical** to the one
/// [`select_model_with`] returns for the same inputs, on either lane:
/// progress jobs only observe the evaluation grid, they never draw
/// randomness, so the salted RNG streams of the grid cells are unchanged.
/// Events arrive exactly once per candidate, in ascending candidate
/// order (see [`SelectionProgress`]).
///
/// Cancellation skips jobs that have not started; the function then
/// returns `Err(SelectionCancelled)`.  When the token fires after the
/// final reduction has already run, the completed selection is returned.
///
/// # Panics
///
/// Panics if `params` is empty, or if an evaluation job panics.
#[allow(clippy::too_many_arguments)]
pub fn select_model_streaming<F>(
    engine: &Engine,
    method: &dyn ParameterizedMethod,
    data: &DataMatrix,
    side: &SideInformation,
    params: &[usize],
    config: &CvcpConfig,
    rng: &mut SeededRng,
    priority: Priority,
    cancel: Option<CancelToken>,
    on_progress: F,
) -> Result<CvcpSelection, SelectionCancelled>
where
    F: FnMut(SelectionProgress) + Send + 'static,
{
    select_model_streaming_traced(
        engine,
        method,
        data,
        side,
        params,
        config,
        rng,
        priority,
        cancel,
        None,
        on_progress,
    )
    .map(|(selection, _)| selection)
}

/// Like [`select_model_streaming`], but optionally records a per-job
/// timeline ([`GraphTrace`]) of the evaluation graph under `trace_name`.
///
/// Tracing is timing-only: it forces the DAG lowering (even on a
/// one-thread engine, where the graph executes inline) but never touches
/// the salted RNG streams, so the returned [`CvcpSelection`] is
/// **bit-identical** to the untraced run at any thread count.  When
/// `trace_name` is `None` this *is* [`select_model_streaming`] and the
/// returned trace is `None`.
///
/// # Panics
///
/// Panics if `params` is empty, or if an evaluation job panics.
#[allow(clippy::too_many_arguments)]
pub fn select_model_streaming_traced<F>(
    engine: &Engine,
    method: &dyn ParameterizedMethod,
    data: &DataMatrix,
    side: &SideInformation,
    params: &[usize],
    config: &CvcpConfig,
    rng: &mut SeededRng,
    priority: Priority,
    cancel: Option<CancelToken>,
    trace_name: Option<String>,
    on_progress: F,
) -> Result<(CvcpSelection, Option<GraphTrace>), SelectionCancelled>
where
    F: FnMut(SelectionProgress) + Send + 'static,
{
    assert!(
        !params.is_empty(),
        "at least one candidate parameter is required"
    );
    let splits = build_folds(side, config, rng);
    let base = rng.fork(SELECTION_STREAM_SALT);
    let clusterers: Vec<Arc<dyn SemiSupervisedClusterer>> = params
        .iter()
        .map(|&p| Arc::from(method.instantiate(p)))
        .collect();
    let sink = Arc::new(ProgressSink {
        callback: Mutex::new(Box::new(on_progress)),
        completed: AtomicUsize::new(0),
        total: params.len(),
    });
    select_model_prepared(
        engine,
        &clusterers,
        params,
        data,
        splits,
        base,
        priority,
        cancel,
        Some(sink),
        trace_name,
    )
}

/// Grid evaluation on pre-instantiated clusterers: realizes a
/// single-trial [`ExecutionPlan`] and runs it through the unified
/// lowering (shared by [`select_model_with`] and
/// [`select_model_streaming`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn select_model_prepared(
    engine: &Engine,
    clusterers: &[Arc<dyn SemiSupervisedClusterer>],
    params: &[usize],
    data: &DataMatrix,
    splits: Vec<FoldSplit>,
    base: SeededRng,
    priority: Priority,
    cancel: Option<CancelToken>,
    sink: Option<Arc<ProgressSink>>,
    trace: Option<String>,
) -> Result<(CvcpSelection, Option<GraphTrace>), SelectionCancelled> {
    let trial = PlanTrial {
        trial: 0,
        splits: Arc::new(splits),
        grid_base: base,
        external: None,
    };
    // On the sequential engine, skip plan construction entirely — the
    // inline executor works on borrowed data, so the per-request
    // O(objects·dims) copy of the flat matrix that 'static DAG jobs need
    // is never paid (it is the same executor the plan's own inline branch
    // uses, so both paths stay bit-identical).  A traced run takes the plan
    // path regardless: the timeline is recorded per graph job, and the
    // graph executes inline on a one-thread engine anyway.
    if engine.n_threads() <= 1 && trace.is_none() {
        return crate::plan::evaluate_trial_inline(
            clusterers,
            params,
            data,
            &trial,
            Some(engine.cache()),
            sink.as_deref(),
            cancel.as_ref(),
        )
        .map(|result| (result.selection, None));
    }
    let plan = ExecutionPlan::new(
        Arc::new(data.clone()),
        clusterers.to_vec(),
        params.to_vec(),
        vec![trial],
    );
    let (mut results, trace) = plan.run_traced(
        engine,
        PlanOptions {
            priority,
            cancel,
            sink,
            trace,
        },
    )?;
    Ok((results.pop().expect("single-trial plan").selection, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{FoscMethod, MpckMethod};
    use cvcp_constraints::generate::{constraint_pool, sample_constraints, sample_labeled_subset};
    use cvcp_data::synthetic::separated_blobs;
    use cvcp_metrics::overall_fmeasure_excluding;

    #[test]
    fn selects_true_k_on_separable_data() {
        let mut rng = SeededRng::new(1);
        let ds = separated_blobs(4, 20, 4, 12.0, &mut rng);
        let labeled = sample_labeled_subset(ds.labels(), 0.25, 2, &mut rng);
        let side = SideInformation::Labels(labeled);
        let cfg = CvcpConfig {
            n_folds: 5,
            stratified: true,
        };
        let sel = select_model(
            &MpckMethod::default(),
            ds.matrix(),
            &side,
            &[2, 3, 4, 5, 6],
            &cfg,
            &mut rng,
        );
        assert_eq!(sel.best_param, 4, "scores: {:?}", sel.scores());
        assert_eq!(sel.params(), vec![2, 3, 4, 5, 6]);
        assert_eq!(sel.evaluations.len(), 5);
    }

    #[test]
    fn selects_a_reasonable_min_pts_for_fosc() {
        let mut rng = SeededRng::new(2);
        let ds = separated_blobs(5, 12, 3, 12.0, &mut rng);
        let pool = constraint_pool(ds.labels(), 0.3, 2, &mut rng);
        let sampled = sample_constraints(&pool, 0.6, &mut rng);
        let side = SideInformation::Constraints(sampled);
        let cfg = CvcpConfig {
            n_folds: 4,
            stratified: true,
        };
        let params = vec![3usize, 6, 9, 12, 15, 18, 21, 24];
        let sel = select_model(
            &FoscMethod::default(),
            ds.matrix(),
            &side,
            &params,
            &cfg,
            &mut rng,
        );
        // Clusters have only 12 objects; MinPts above 12 cannot work well.
        assert!(
            sel.best_param <= 9,
            "selected {} (scores {:?})",
            sel.best_param,
            sel.scores()
        );
    }

    #[test]
    fn selection_quality_transfers_to_external_measure() {
        // CVCP-selected parameter should give an external quality at least as
        // good as the average over the range (the "expected" baseline).
        let mut rng = SeededRng::new(3);
        let ds = separated_blobs(3, 25, 4, 10.0, &mut rng);
        let labeled = sample_labeled_subset(ds.labels(), 0.2, 2, &mut rng);
        let side = SideInformation::Labels(labeled.clone());
        let cfg = CvcpConfig {
            n_folds: 5,
            stratified: true,
        };
        let params = vec![2usize, 3, 4, 5, 6, 7, 8];
        let method = MpckMethod::default();
        let sel = select_model(&method, ds.matrix(), &side, &params, &cfg, &mut rng);

        let mut externals = Vec::new();
        let mut selected_external = 0.0;
        for &p in &params {
            let clusterer = method.instantiate(p);
            let partition = clusterer.cluster(ds.matrix(), &side, &mut rng);
            let f = overall_fmeasure_excluding(&partition, ds.labels(), labeled.indices());
            if p == sel.best_param {
                selected_external = f;
            }
            externals.push(f);
        }
        let expected = externals.iter().sum::<f64>() / externals.len() as f64;
        assert!(
            selected_external >= expected - 0.02,
            "CVCP external {selected_external} should be at least the expected {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_parameter_range_panics() {
        let mut rng = SeededRng::new(5);
        let ds = separated_blobs(2, 10, 2, 10.0, &mut rng);
        let labeled = sample_labeled_subset(ds.labels(), 0.4, 2, &mut rng);
        let side = SideInformation::Labels(labeled);
        let _ = select_model(
            &MpckMethod::default(),
            ds.matrix(),
            &side,
            &[],
            &CvcpConfig::default(),
            &mut rng,
        );
    }

    #[test]
    fn streaming_progress_events_are_deterministic_in_parameter_order() {
        // The regression this pins: on a multi-threaded engine, fold jobs
        // of later candidates can finish before earlier candidates', yet
        // exactly one event must arrive per candidate, in ascending
        // candidate order, with `completed` counting 1..=total — no
        // duplicates, no reordering.
        use std::sync::mpsc;
        let mut rng = SeededRng::new(8);
        let ds = separated_blobs(3, 18, 3, 11.0, &mut rng);
        let labeled = sample_labeled_subset(ds.labels(), 0.3, 2, &mut rng);
        let side = SideInformation::Labels(labeled);
        let cfg = CvcpConfig {
            n_folds: 4,
            stratified: true,
        };
        let params = vec![2usize, 3, 4, 5, 6, 7];
        let engine = Engine::new(8);
        for round in 0..5u64 {
            let (tx, rx) = mpsc::channel();
            let mut rng = SeededRng::new(100 + round);
            let sel = select_model_streaming(
                &engine,
                &MpckMethod::default(),
                ds.matrix(),
                &side,
                &params,
                &cfg,
                &mut rng,
                Priority::Interactive,
                None,
                move |p| tx.send(p).expect("receiver alive"),
            )
            .expect("no cancellation");
            let events: Vec<SelectionProgress> = rx.iter().collect();
            assert_eq!(
                events.iter().map(|e| e.param).collect::<Vec<_>>(),
                params,
                "round {round}: events must arrive exactly once per candidate, in order"
            );
            assert_eq!(
                events.iter().map(|e| e.completed).collect::<Vec<_>>(),
                (1..=params.len()).collect::<Vec<_>>(),
                "round {round}: completed must count 1..=total in order"
            );
            assert!(events.iter().all(|e| e.total == params.len()));
            assert!(params.contains(&sel.best_param));
        }
    }

    #[test]
    fn selection_is_bit_identical_across_priority_lanes() {
        let mut rng = SeededRng::new(9);
        let ds = separated_blobs(3, 16, 3, 11.0, &mut rng);
        let labeled = sample_labeled_subset(ds.labels(), 0.3, 2, &mut rng);
        let side = SideInformation::Labels(labeled);
        let cfg = CvcpConfig {
            n_folds: 3,
            stratified: true,
        };
        let params = vec![2usize, 3, 4];
        let run = |priority: Priority| {
            let engine = Engine::new(4);
            let mut rng = SeededRng::new(55);
            select_model_streaming(
                &engine,
                &MpckMethod::default(),
                ds.matrix(),
                &side,
                &params,
                &cfg,
                &mut rng,
                priority,
                None,
                |_| {},
            )
            .expect("no cancellation")
        };
        assert_eq!(run(Priority::Interactive), run(Priority::Batch));
    }

    #[test]
    fn ties_prefer_the_first_candidate() {
        // With no usable constraints every parameter scores 0; the first
        // candidate must win.
        let mut rng = SeededRng::new(6);
        let ds = separated_blobs(2, 10, 2, 10.0, &mut rng);
        // two labelled objects of the same class in each of 2 folds produce
        // must-link-only test sets that any clustering trivially satisfies or
        // not — use a tiny labelled set to force near-ties.
        let labeled = sample_labeled_subset(ds.labels(), 0.1, 1, &mut rng);
        let side = SideInformation::Labels(labeled);
        let cfg = CvcpConfig {
            n_folds: 2,
            stratified: true,
        };
        let sel = select_model(
            &MpckMethod::default(),
            ds.matrix(),
            &side,
            &[2, 3, 4],
            &cfg,
            &mut rng,
        );
        let scores = sel.scores();
        if scores.iter().all(|&s| (s - scores[0]).abs() < 1e-12) {
            assert_eq!(sel.best_param, 2);
        }
    }
}
