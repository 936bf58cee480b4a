//! What a run reports: metrics with their units, operation counts,
//! correctness, run information, and the benchmark's own spans.

use cvcp_core::json::{Json, ToJson};
use std::path::Path;
use std::time::Instant;

/// One named measurement and its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run of a workload produced.
pub struct RunReport {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations refused (any code), errored, lost, or answered wrongly.
    pub failed: u64,
    /// False once any output check failed or the run was invalid.
    pub correct: bool,
    /// Run information, printed on the line before the result.
    pub info: Vec<(String, Json)>,
    /// Iteration counts for `cvcp_bench::bench_meta`.
    pub iterations: Vec<(&'static str, usize)>,
    problems: usize,
}

impl Default for RunReport {
    fn default() -> Self {
        Self {
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            attempted: 0,
            failed: 0,
            correct: true,
            info: Vec::new(),
            iterations: Vec::new(),
            problems: 0,
        }
    }
}

/// Failed checks printed to standard error before the rest are only
/// counted.
const PRINTED_PROBLEMS: usize = 10;

impl RunReport {
    pub fn end_to_end(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn info(&mut self, key: &str, value: impl ToJson) {
        self.info.push((key.to_string(), value.to_json()));
    }

    /// Records a failed output check (or an invalid run): the run is no
    /// longer correct.
    pub fn check_failed(&mut self, problem: impl AsRef<str>) {
        if self.problems < PRINTED_PROBLEMS {
            eprintln!("perfbench: check failed: {}", problem.as_ref());
        }
        self.problems += 1;
        self.correct = false;
    }

    pub fn end_to_end_value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Adds another run's counts and correctness to this one.
    pub fn absorb(&mut self, other: &RunReport) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.correct &= other.correct;
        self.problems += other.problems;
    }

    /// Failed checks so far.
    pub fn problems(&self) -> usize {
        self.problems
    }
}

/// `{name: {"value": …, "unit": …}}` in report order.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let entry = Json::obj([("value", Json::Num(m.value)), ("unit", m.unit.to_json())]);
                (m.name.clone(), entry)
            })
            .collect(),
    )
}

/// One span the benchmark recorded around a call into a layer.
struct Span {
    name: String,
    /// Spans of one request, case or pass share a group.
    group: String,
    start_us: f64,
    end_us: f64,
    /// Index of the span that caused this one.
    parent: Option<usize>,
}

/// Spans kept in memory during a traced run and written out once at the
/// end, as a Chrome `trace_event` file.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn micros(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        group: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let (start_us, end_us) = (self.micros(start), self.micros(end));
        self.spans.push(Span {
            name: name.into(),
            group: group.into(),
            start_us,
            end_us,
            parent,
        });
        self.spans.len() - 1
    }

    /// Opens a span whose children are recorded before it ends.
    pub fn begin(
        &mut self,
        name: impl Into<String>,
        group: impl Into<String>,
        start: Instant,
    ) -> usize {
        self.record(name, group, start, start, None)
    }

    /// Closes a span opened with [`SpanLog::begin`].
    pub fn end(&mut self, span: usize, end: Instant) {
        let end_us = self.micros(end);
        self.spans[span].end_us = end_us;
    }

    /// Writes every span as a complete (`"ph": "X"`) trace event, with its
    /// group and parent in `args`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                Json::obj([
                    ("name", span.name.to_json()),
                    ("cat", span.group.to_json()),
                    ("ph", "X".to_json()),
                    ("ts", span.start_us.to_json()),
                    ("dur", (span.end_us - span.start_us).max(0.0).to_json()),
                    ("pid", 1usize.to_json()),
                    ("tid", 1usize.to_json()),
                    (
                        "args",
                        Json::obj([
                            ("id", id.to_json()),
                            ("group", span.group.to_json()),
                            ("parent", span.parent.to_json()),
                        ]),
                    ),
                ])
            })
            .collect();
        std::fs::write(
            path,
            Json::obj([("traceEvents", Json::Arr(events))]).compact(),
        )
    }
}
