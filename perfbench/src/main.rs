//! `perfbench`: the repository benchmark of the CVCP suite.
//!
//! ```text
//! perfbench --workload <serve_hot|serve_cold|grid_batch> --seed <n> --seconds <n>
//!           --trace <0|1> [--hot-rate <1/s>] [--hot-limit-ms <ms>] [--out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
//! metrics are the end-to-end metrics.  With `--trace 1` the workload
//! runs untraced and then traced, and the metrics are the traced run's
//! per-layer breakdown plus `trace_overhead.<metric>`, the traced minus
//! the untraced value of each end-to-end metric.  The line before the
//! result carries run information.  README.md explains the workloads and
//! what each metric should move.

mod grid;
mod replay;
mod report;
mod serve;
mod stats;
mod window;

use cvcp_core::json::{Json, ToJson};
use report::{metrics_json, RunReport, SpanLog};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <serve_hot|serve_cold|grid_batch> --seed <n> \
--seconds <n> --trace <0|1> [--hot-rate <1/s>] [--hot-limit-ms <ms>] [--out <dir>]";

/// The open-loop settings.  The command in `BENCHMARK.json` passes the hot
/// values explicitly, which freezes them there; serve_cold is runnable but
/// not part of `BENCHMARK.json` (see README.md), so its values are fixed
/// here.
const HOT_RATE: f64 = 800.0;
const HOT_LIMIT_MS: f64 = 50.0;
const COLD_RATE: f64 = 7.0;
const COLD_LIMIT_MS: f64 = 1500.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeHot,
    ServeCold,
    GridBatch,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::ServeHot, Workload::ServeCold, Workload::GridBatch];

    fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
            Workload::GridBatch => "grid_batch",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    hot_rate: f64,
    hot_limit_ms: f64,
    out: PathBuf,
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a number, got {value:?}"))
}

fn positive(flag: &str, value: &str) -> Result<f64, String> {
    let v: f64 = number(flag, value)?;
    if v.is_finite() && v > 0.0 {
        Ok(v)
    } else {
        Err(format!("{flag} must be positive, got {value:?}"))
    }
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut args = Args {
            workload: Workload::ServeHot,
            seed: 0,
            seconds: 0.0,
            trace: false,
            hot_rate: HOT_RATE,
            hot_limit_ms: HOT_LIMIT_MS,
            out: PathBuf::from(".bench_out"),
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(number::<u64>(&flag, &value)?),
                "--seconds" => seconds = Some(positive(&flag, &value)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                "--hot-rate" => args.hot_rate = positive(&flag, &value)?,
                "--hot-limit-ms" => args.hot_limit_ms = positive(&flag, &value)?,
                "--out" => args.out = PathBuf::from(value),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        args.seed = seed.ok_or("--seed is required")?;
        args.seconds = seconds.ok_or("--seconds is required")?;
        args.trace = trace.ok_or("--trace is required")?;
        Ok(args)
    }
}

fn run_workload(
    args: &Args,
    traced: bool,
    spans: Option<&mut SpanLog>,
) -> Result<RunReport, String> {
    let served = |temperature, rate, limit_ms| serve::Options {
        temperature,
        seed: args.seed,
        seconds: args.seconds,
        rate,
        limit_ms,
    };
    let result = match args.workload {
        Workload::ServeHot => serve::run(
            &served(serve::Temperature::Hot, args.hot_rate, args.hot_limit_ms),
            traced,
            spans,
        ),
        Workload::ServeCold => serve::run(
            &served(serve::Temperature::Cold, COLD_RATE, COLD_LIMIT_MS),
            traced,
            spans,
        ),
        Workload::GridBatch => Ok(grid::run(args.seed, args.seconds, traced, spans)),
    };
    result.map_err(|e| format!("{} failed: {e}", args.workload.name()))
}

fn measure(args: &Args) -> Result<(), String> {
    let (mut report, metrics) = if args.trace {
        let untraced = run_workload(args, false, None)?;
        let mut spans = SpanLog::new();
        let mut traced = run_workload(args, true, Some(&mut spans))?;
        for m in &untraced.end_to_end {
            if let Some(value) = traced.end_to_end_value(&m.name) {
                traced.layer(
                    format!("trace_overhead.{}", m.name),
                    value - m.value,
                    m.unit,
                );
            }
        }
        traced.absorb(&untraced);
        let path = args
            .out
            .join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
        spans
            .write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        traced.info("spans_file", path.display().to_string());
        let metrics = std::mem::take(&mut traced.per_layer);
        (traced, metrics)
    } else {
        let mut report = run_workload(args, false, None)?;
        let metrics = std::mem::take(&mut report.end_to_end);
        (report, metrics)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            report.check_failed(format!("metric {} is not finite", m.name));
        }
    }
    let failed_share = if report.attempted > 0 {
        report.failed as f64 / report.attempted as f64
    } else {
        0.0
    };
    let mut info = vec![
        ("workload".to_string(), args.workload.name().to_json()),
        ("seed".to_string(), args.seed.to_string().to_json()),
        ("seconds".to_string(), args.seconds.to_json()),
        ("trace".to_string(), args.trace.to_json()),
        (
            "meta".to_string(),
            cvcp_bench::bench_meta(&report.iterations),
        ),
        ("failed_share".to_string(), failed_share.to_json()),
        ("failed_checks".to_string(), report.problems().to_json()),
    ];
    info.append(&mut report.info);
    println!("{}", Json::obj([("perfbench", Json::Obj(info))]).compact());
    let result = Json::obj([
        ("correct", report.correct.to_json()),
        ("attempted", report.attempted.to_json()),
        ("failed", report.failed.to_json()),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{}", result.compact());
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match measure(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
