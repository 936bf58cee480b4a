//! Shared fixtures for the two benchmarks of the CVCP suite, and the
//! helpers that write their JSON artifacts.
//!
//! * `bench_engine` times the FOSC selection grid naively and on the
//!   engine at 1 and 4 workers, and asserts bit-identical selections, the
//!   FOSC and MPCKMeans cache hit rates, the 4-vs-1-worker ratio and the
//!   metrics overhead;
//! * `bench_cache_eviction` runs the experiment grid unbounded and under
//!   byte and entry budgets below its working set, and asserts
//!   bit-identical results, the budgets, the cache's accounting and that
//!   eviction happened.
//!
//! Both are plain `harness = false` mains (`cargo bench -p cvcp-bench`).
//! Kernel and end-to-end timings live in the repository benchmark
//! (`perfbench/`), which also uses [`bench_meta`].

use cvcp_constraints::generate::sample_labeled_subset;
use cvcp_constraints::SideInformation;
use cvcp_data::rng::SeededRng;
use cvcp_data::Dataset;

/// Deterministic seed used by all benchmark fixtures.
pub const BENCH_SEED: u64 = 0xBE_AC4;

/// A small ALOI-like data set (125 × 144, 5 classes).
pub fn aloi_dataset() -> Dataset {
    cvcp_data::aloi::aloi_k5_dataset(BENCH_SEED, 0)
}

/// Label-based side information over 10% of the objects.
pub fn labels_for(dataset: &Dataset) -> SideInformation {
    let mut rng = SeededRng::new(BENCH_SEED + 2);
    SideInformation::Labels(sample_labeled_subset(dataset.labels(), 0.10, 2, &mut rng))
}

/// The host's hardware thread count, read from `/proc/cpuinfo` where
/// available.  `std::thread::available_parallelism` answers a different
/// question — the parallelism *this process* may use — and reports 1
/// inside affinity masks / cgroup cpu quotas even on multi-core hosts,
/// which made bench artifacts from CI runners uninterpretable (a
/// "4-worker regression" on a 1-thread budget is expected, on a 16-core
/// host it is a bug).  Falls back to `available_parallelism` on
/// platforms without `/proc`.
fn host_threads() -> usize {
    let from_cpuinfo = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .map(|info| {
            info.lines()
                .filter(|l| {
                    l.strip_prefix("processor")
                        .is_some_and(|rest| rest.trim_start().starts_with(':'))
                })
                .count()
        })
        .filter(|&n| n > 0);
    from_cpuinfo.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A `meta` block for bench JSON artifacts: the commit the numbers were
/// measured at (from `GITHUB_SHA` in CI, `git rev-parse HEAD` locally,
/// `"unknown"` without either), the host's hardware thread count
/// (`host_threads`) next to the parallelism actually available to the
/// bench process (`available_threads` — smaller under affinity masks or
/// cpu quotas), and the per-section iteration counts the bench used —
/// enough to interpret a perf-trajectory artifact without the CI log
/// that produced it.
pub fn bench_meta(iterations: &[(&str, usize)]) -> cvcp_core::json::Json {
    use cvcp_core::json::{Json, ToJson};
    // cvcp: allow(D3, reason = "CI-provided commit id for bench provenance, not a CVCP knob")
    let commit = std::env::var("GITHUB_SHA")
        .ok()
        .filter(|sha| !sha.trim().is_empty())
        .or_else(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .output()
                .ok()
                .filter(|out| out.status.success())
                .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        })
        .filter(|sha| !sha.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("commit", commit.to_json()),
        ("host_threads", host_threads().to_json()),
        ("available_threads", available.to_json()),
        (
            "iterations",
            Json::Obj(
                iterations
                    .iter()
                    .map(|&(name, n)| (name.to_string(), n.to_json()))
                    .collect(),
            ),
        ),
    ])
}

/// Writes a benchmark's headline numbers as pretty JSON under the
/// workspace's `target/bench/`, so CI can upload the perf trajectory as a
/// per-commit artifact.  The path is anchored on this crate's manifest
/// directory, making it independent of the invoking working directory.
pub fn write_bench_json(name: &str, value: &cvcp_core::json::Json) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("target")
        .join("bench");
    std::fs::create_dir_all(&dir).expect("create target/bench");
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, value.pretty()).expect("write bench json");
    println!("[bench json written to {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_threads_counts_cpuinfo_processors() {
        let n = host_threads();
        assert!(n >= 1);
        if let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") {
            let processors = info
                .lines()
                .filter(|l| {
                    l.strip_prefix("processor")
                        .is_some_and(|rest| rest.trim_start().starts_with(':'))
                })
                .count();
            if processors > 0 {
                assert_eq!(n, processors);
            }
        }
    }

    #[test]
    fn fixtures_have_expected_shapes() {
        let ds = aloi_dataset();
        assert_eq!(ds.len(), 125);
        assert!(!labels_for(&ds).is_empty());
    }
}
