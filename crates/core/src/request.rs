//! Serializable model-selection requests and their lowering onto an
//! execution [`Engine`].
//!
//! A [`SelectionRequest`] is the unit of work a serving front-end accepts
//! over the wire: it references a data-set replica *by name* (resolved
//! through `cvcp_data::replicas::replica_by_name`), names the algorithm
//! family and its candidate parameter grid, describes how the side
//! information is drawn ([`SideInfoSpec`]) and pins every random choice to
//! a `seed`.  Two lowerings share one realization path and are therefore
//! **bit-identical**:
//!
//! * [`RealizedSelection::select`] — the in-process reference, running
//!   [`select_model_with`];
//! * [`RealizedSelection::select_streaming`] — the serving path, running
//!   [`select_model_streaming`] with per-parameter progress events, a
//!   [`CancelToken`] and an optional per-job timeline.

use crate::algorithm::{FoscMethod, MpckMethod, ParameterizedMethod};
use crate::crossval::CvcpConfig;
use crate::experiment::SideInfoSpec;
use crate::selection::{
    select_model_streaming, select_model_with, CvcpSelection, SelectionCancelled, SelectionProgress,
};
use cvcp_constraints::SideInformation;
use cvcp_data::replicas::{replica_by_name, replica_name_is_known};
use cvcp_data::rng::SeededRng;
use cvcp_data::Dataset;
use cvcp_engine::{CancelToken, Engine, GraphTrace, Priority};

/// The algorithm families a request can select over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// FOSC-OPTICSDend (parameter: `MinPts`).
    Fosc,
    /// MPCKMeans (parameter: `k`).
    MpckMeans,
}

impl Algorithm {
    /// Parses a wire-format algorithm name (`fosc` / `mpck`).
    pub fn parse(name: &str) -> Option<Algorithm> {
        match name {
            "fosc" => Some(Algorithm::Fosc),
            "mpck" => Some(Algorithm::MpckMeans),
            _ => None,
        }
    }

    /// The wire-format name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Fosc => "fosc",
            Algorithm::MpckMeans => "mpck",
        }
    }

    /// Instantiates the method family with its paper defaults.
    pub fn method(&self) -> Box<dyn ParameterizedMethod> {
        match self {
            Algorithm::Fosc => Box::new(FoscMethod::default()),
            Algorithm::MpckMeans => Box::new(MpckMethod::default()),
        }
    }
}

/// A fully-specified, serializable model-selection request.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionRequest {
    /// Caller-chosen request identifier, echoed on every response event
    /// — the correlation key of the wire protocol.  On a pipelined
    /// (protocol-v2) connection the id is how interleaved response
    /// streams are demultiplexed, so it must be unique among the
    /// connection's in-flight requests (the server refuses reuse with
    /// `duplicate_id` and assigns `req-<n>` when left empty); an empty
    /// id is fine for in-process use.
    pub id: String,
    /// Replica name (see `cvcp_data::replicas::replica_by_name`).
    pub dataset: String,
    /// The algorithm family to select a parameter for.
    pub algorithm: Algorithm,
    /// Candidate parameter grid; empty means the family's default range.
    pub params: Vec<usize>,
    /// How the side information is drawn from the replica's ground truth.
    pub side_info: SideInfoSpec,
    /// Requested number of cross-validation folds.
    pub n_folds: usize,
    /// Whether Scenario-I fold assignment is stratified by class.
    pub stratified: bool,
    /// Seed pinning the replica generation, side-information draw and
    /// every evaluation stream.
    pub seed: u64,
    /// Requested scheduling lane; `None` lets the serving front-end apply
    /// its configured default ([`Priority::Interactive`] unless
    /// overridden).  Pure scheduling — results are bit-identical across
    /// lanes.
    pub priority: Option<Priority>,
    /// Whether the caller asked for a per-job execution timeline
    /// ([`GraphTrace`]).  Timing-only — results are bit-identical with
    /// tracing on or off; serving front-ends honour it by calling
    /// [`run_selection_request_traced`].
    pub trace: bool,
}

/// Why a [`SelectionRequest`] could not be lowered.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The referenced data-set name is not in the replica registry.
    UnknownDataset(String),
    /// Fewer than two cross-validation folds were requested.
    BadFolds(usize),
    /// A candidate parameter value is zero (neither `MinPts` nor `k` admit
    /// it).
    BadParam(usize),
    /// A side-information fraction is outside `(0, 1]`.
    BadFraction {
        /// Which fraction field was out of range.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::UnknownDataset(name) => write!(f, "unknown dataset {name:?}"),
            RequestError::BadFolds(n) => write!(f, "at least 2 folds are required, got {n}"),
            RequestError::BadParam(p) => {
                write!(f, "candidate parameters must be at least 1, got {p}")
            }
            RequestError::BadFraction { field, value } => {
                write!(f, "{field} must be in (0, 1], got {value}")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// A request lowered to concrete in-memory inputs: the realized replica,
/// one draw of side information, and the post-draw RNG state that the
/// selection continues from.
pub struct RealizedSelection {
    /// The resolved data-set replica.
    pub dataset: Dataset,
    /// The drawn side information.
    pub side: SideInformation,
    /// Cross-validation configuration.
    pub config: CvcpConfig,
    /// The effective candidate grid (request grid, or the family default).
    pub params: Vec<usize>,
    /// The method family.
    pub method: Box<dyn ParameterizedMethod>,
    /// RNG state after the side-information draw; fold construction and the
    /// grid streams continue from here.
    pub rng: SeededRng,
    /// The scheduling lane the lowered graph is queued on.
    pub priority: Priority,
}

impl SelectionRequest {
    /// Checks everything that can be rejected without touching data.  The
    /// dataset check is by *name* only ([`replica_name_is_known`]) — no
    /// replica is generated, so admission control stays cheap.
    pub fn validate(&self) -> Result<(), RequestError> {
        if self.n_folds < 2 {
            return Err(RequestError::BadFolds(self.n_folds));
        }
        if let Some(&p) = self.params.iter().find(|&&p| p == 0) {
            return Err(RequestError::BadParam(p));
        }
        let fraction_ok = |v: f64| v > 0.0 && v <= 1.0;
        match self.side_info {
            SideInfoSpec::LabelFraction(f) if !fraction_ok(f) => {
                return Err(RequestError::BadFraction {
                    field: "side_info.fraction",
                    value: f,
                })
            }
            SideInfoSpec::ConstraintSample { pool_fraction, .. } if !fraction_ok(pool_fraction) => {
                return Err(RequestError::BadFraction {
                    field: "side_info.pool_fraction",
                    value: pool_fraction,
                })
            }
            SideInfoSpec::ConstraintSample {
                sample_fraction, ..
            } if !fraction_ok(sample_fraction) => {
                return Err(RequestError::BadFraction {
                    field: "side_info.sample_fraction",
                    value: sample_fraction,
                })
            }
            _ => {}
        }
        if !replica_name_is_known(&self.dataset) {
            return Err(RequestError::UnknownDataset(self.dataset.clone()));
        }
        Ok(())
    }

    /// Lowers the request: resolves the replica, draws the side
    /// information and freezes the RNG state the selection continues from.
    /// Deterministic in the request alone.
    pub fn realize(&self) -> Result<RealizedSelection, RequestError> {
        self.validate()?;
        let dataset = replica_by_name(&self.dataset, self.seed)
            .ok_or_else(|| RequestError::UnknownDataset(self.dataset.clone()))?;
        let mut rng = SeededRng::new(self.seed);
        let side = self.side_info.generate(&dataset, &mut rng);
        let method = self.algorithm.method();
        let params = if self.params.is_empty() {
            method.default_parameter_range(dataset.n_classes())
        } else {
            self.params.clone()
        };
        Ok(RealizedSelection {
            dataset,
            side,
            config: CvcpConfig {
                n_folds: self.n_folds,
                stratified: self.stratified,
            },
            params,
            method,
            rng,
            priority: self.priority.unwrap_or_default(),
        })
    }
}

impl RealizedSelection {
    /// The in-process reference lowering: plain [`select_model_with`].
    pub fn select(mut self, engine: &Engine) -> CvcpSelection {
        select_model_with(
            engine,
            &*self.method,
            self.dataset.matrix(),
            &self.side,
            &self.params,
            &self.config,
            &mut self.rng,
        )
    }

    /// The serving lowering: [`select_model_streaming`] with per-parameter
    /// progress, cancellation, the request's scheduling lane and, when
    /// `trace_name` is set, a per-job timeline recorded under that name.
    /// The selection is bit-identical to [`Self::select`] when it
    /// completes, traced or not.
    pub fn select_streaming<F>(
        mut self,
        engine: &Engine,
        cancel: Option<CancelToken>,
        trace_name: Option<String>,
        on_progress: F,
    ) -> Result<(CvcpSelection, Option<GraphTrace>), SelectionCancelled>
    where
        F: FnMut(SelectionProgress) + Send + 'static,
    {
        select_model_streaming(
            engine,
            &*self.method,
            self.dataset.matrix(),
            &self.side,
            &self.params,
            &self.config,
            &mut self.rng,
            self.priority,
            cancel,
            trace_name,
            on_progress,
        )
    }
}

/// How running a request can fail.
#[derive(Debug, Clone, PartialEq)]
pub enum RunRequestError {
    /// The request failed validation / lowering.
    Invalid(RequestError),
    /// The cancel token fired before the selection finished.
    Cancelled,
}

impl std::fmt::Display for RunRequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunRequestError::Invalid(e) => write!(f, "invalid request: {e}"),
            RunRequestError::Cancelled => write!(f, "request was cancelled"),
        }
    }
}

impl std::error::Error for RunRequestError {}

/// Validates, lowers and executes a request on `engine`, streaming
/// per-parameter progress and honouring `cancel`.
///
/// The returned selection is bit-identical to
/// `request.realize()?.select(engine)` — the contract the serving smoke
/// tests assert end-to-end over TCP.
pub fn run_selection_request<F>(
    engine: &Engine,
    request: &SelectionRequest,
    cancel: Option<CancelToken>,
    on_progress: F,
) -> Result<CvcpSelection, RunRequestError>
where
    F: FnMut(SelectionProgress) + Send + 'static,
{
    let realized = request.realize().map_err(RunRequestError::Invalid)?;
    realized
        .select_streaming(engine, cancel, None, on_progress)
        .map(|(selection, _)| selection)
        .map_err(|SelectionCancelled| RunRequestError::Cancelled)
}

/// [`run_selection_request`] with a per-job timeline recorded under the
/// request's `id`.  The selection is bit-identical to the untraced run —
/// tracing is timing-only (the serving smoke tests assert this end-to-end
/// over TCP).  The trace covers the full evaluation graph; render it with
/// [`crate::trace_export::write_chrome_trace`] or summarise it via
/// [`cvcp_engine::GraphProfile`].
pub fn run_selection_request_traced<F>(
    engine: &Engine,
    request: &SelectionRequest,
    cancel: Option<CancelToken>,
    on_progress: F,
) -> Result<(CvcpSelection, Option<GraphTrace>), RunRequestError>
where
    F: FnMut(SelectionProgress) + Send + 'static,
{
    let realized = request.realize().map_err(RunRequestError::Invalid)?;
    realized
        .select_streaming(engine, cancel, Some(request.id.clone()), on_progress)
        .map_err(|SelectionCancelled| RunRequestError::Cancelled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn request(algorithm: Algorithm, params: Vec<usize>) -> SelectionRequest {
        SelectionRequest {
            id: "req-1".to_string(),
            dataset: "iris_like".to_string(),
            algorithm,
            params,
            side_info: SideInfoSpec::LabelFraction(0.2),
            n_folds: 4,
            stratified: true,
            seed: 21,
            priority: None,
            trace: false,
        }
    }

    #[test]
    fn validation_rejects_bad_requests() {
        let mut r = request(Algorithm::Fosc, vec![3, 6]);
        r.dataset = "nope".into();
        assert!(matches!(r.validate(), Err(RequestError::UnknownDataset(_))));
        let mut r = request(Algorithm::Fosc, vec![3, 6]);
        r.n_folds = 1;
        assert_eq!(r.validate(), Err(RequestError::BadFolds(1)));
        let mut r = request(Algorithm::Fosc, vec![3, 0, 6]);
        assert_eq!(r.validate(), Err(RequestError::BadParam(0)));
        r.params = vec![3, 6];
        r.side_info = SideInfoSpec::LabelFraction(0.0);
        assert!(matches!(
            r.validate(),
            Err(RequestError::BadFraction { .. })
        ));
        let mut r = request(Algorithm::Fosc, vec![3, 6]);
        r.side_info = SideInfoSpec::ConstraintSample {
            pool_fraction: 0.1,
            sample_fraction: 1.5,
        };
        assert!(matches!(
            r.validate(),
            Err(RequestError::BadFraction { .. })
        ));
        assert!(request(Algorithm::MpckMeans, vec![2, 3]).validate().is_ok());
    }

    #[test]
    fn algorithm_names_round_trip() {
        for algo in [Algorithm::Fosc, Algorithm::MpckMeans] {
            assert_eq!(Algorithm::parse(algo.name()), Some(algo));
        }
        assert_eq!(Algorithm::parse("kmeans"), None);
    }

    #[test]
    fn empty_params_fall_back_to_the_default_range() {
        let realized = request(Algorithm::MpckMeans, vec![]).realize().unwrap();
        // iris_like has 3 classes -> default k range 2..=6
        assert_eq!(realized.params, vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn streaming_request_matches_the_reference_bit_for_bit() {
        for algorithm in [Algorithm::Fosc, Algorithm::MpckMeans] {
            let params = match algorithm {
                Algorithm::Fosc => vec![3, 6, 9],
                Algorithm::MpckMeans => vec![2, 3, 4],
            };
            let req = request(algorithm, params.clone());
            let reference = req.realize().unwrap().select(&Engine::new(4));
            let (tx, rx) = mpsc::channel();
            let streamed = run_selection_request(&Engine::new(4), &req, None, move |p| {
                tx.send(p).expect("progress receiver alive");
            })
            .unwrap();
            assert_eq!(
                streamed, reference,
                "streamed != reference for {algorithm:?}"
            );
            // also across engine shapes
            let sequential = req.realize().unwrap().select(&Engine::sequential());
            assert_eq!(streamed, sequential);
            let events: Vec<_> = rx.iter().collect();
            assert_eq!(events.len(), params.len());
            let mut seen: Vec<usize> = events.iter().map(|e| e.param).collect();
            seen.sort_unstable();
            assert_eq!(seen, params);
            for e in &events {
                assert_eq!(e.total, params.len());
                let eval = reference.evaluations.iter().find(|v| v.param == e.param);
                assert_eq!(eval.map(|v| v.score), Some(e.score), "progress score drift");
            }
        }
    }

    #[test]
    fn traced_request_is_bit_identical_and_yields_a_full_timeline() {
        let req = request(Algorithm::Fosc, vec![3, 6, 9]);
        let reference = req.realize().unwrap().select(&Engine::sequential());
        for threads in [1usize, 2, 8] {
            let (selection, trace) =
                run_selection_request_traced(&Engine::new(threads), &req, None, |_| {}).unwrap();
            assert_eq!(
                selection, reference,
                "tracing must never change results ({threads} threads)"
            );
            let trace = trace.expect("completed traced run yields a trace");
            assert_eq!(trace.name, req.id);
            assert_eq!(
                trace.spans.len(),
                trace.n_jobs,
                "every graph job executed and was recorded ({threads} threads)"
            );
            for p in [3usize, 6, 9] {
                let label = format!("/p{p}/");
                assert!(
                    trace.spans.iter().any(|s| s.label.contains(&label)),
                    "at least one evaluation span per candidate parameter {p}"
                );
            }
        }
    }

    #[test]
    fn explicit_priority_does_not_change_results() {
        let mut batch = request(Algorithm::Fosc, vec![3, 6]);
        batch.priority = Some(Priority::Batch);
        let mut interactive = request(Algorithm::Fosc, vec![3, 6]);
        interactive.priority = Some(Priority::Interactive);
        let a = run_selection_request(&Engine::new(4), &batch, None, |_| {}).unwrap();
        let b = run_selection_request(&Engine::new(4), &interactive, None, |_| {}).unwrap();
        assert_eq!(a, b, "the scheduling lane must never change results");
    }

    #[test]
    fn pre_cancelled_request_is_cancelled_not_run() {
        for threads in [1, 4] {
            let token = CancelToken::new();
            token.cancel();
            let req = request(Algorithm::Fosc, vec![3, 6]);
            let result = run_selection_request(&Engine::new(threads), &req, Some(token), |_| {});
            assert_eq!(result, Err(RunRequestError::Cancelled));
        }
    }
}
