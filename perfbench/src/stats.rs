//! Small numeric helpers: order statistics, histogram windows, process
//! memory, digests and seed derivation.

use cvcp_engine::obs::{HistogramSnapshot, N_BUCKETS};

/// Median of `values` (sorts in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Nearest-rank `q`-quantile (`q` in `[0, 1]`) of an ascending slice; 0 for
/// an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The percentiles a tail latency may be reported at, highest first.
const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The highest percentile of the ladder that leaves at least ten of
/// `expected_samples` beyond it.  Served runs pass the *expected* sample
/// count, which the configuration fixes, so their reported percentile
/// never flips between runs.
pub fn tail_percentile(expected_samples: f64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        // The tolerance keeps 100 samples at p90 from reading 9.999….
        .find(|p| expected_samples * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has used so far, in seconds (user + system,
/// from `/proc/self/stat` at the kernel's fixed 100 ticks per second), or
/// 0 where `/proc` is unavailable.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th fields of the whole line.
            let rest = &stat[stat.rfind(')')? + 2..];
            let mut fields = rest.split_whitespace().skip(11);
            let user: f64 = fields.next()?.parse().ok()?;
            let system: f64 = fields.next()?.parse().ok()?;
            Some((user + system) / 100.0)
        })
        .unwrap_or(0.0)
}

/// The host's steal and total CPU ticks so far, from the `cpu` line of
/// `/proc/stat`: time the hypervisor gave this machine's CPUs to others.
/// `None` where `/proc` is unavailable.
pub fn host_cpu_ticks() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<f64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user and nice.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// Share of the host's CPU ticks that were stolen between two readings of
/// [`host_cpu_ticks`]; 0 when either is missing.
pub fn steal_share(before: Option<(f64, f64)>, after: Option<(f64, f64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) / (t1 - t0),
        _ => 0.0,
    }
}

/// The samples a log-bucketed histogram recorded between two snapshots of
/// it (`after` minus `before`, bucket by bucket).
#[derive(Debug, Clone)]
pub struct HistWindow {
    buckets: [u64; N_BUCKETS],
    count: u64,
    sum_nanos: u64,
}

impl HistWindow {
    /// A window with no samples.
    pub fn empty() -> Self {
        Self {
            buckets: [0; N_BUCKETS],
            count: 0,
            sum_nanos: 0,
        }
    }

    /// The samples recorded after `before` and up to `after`; `before` is
    /// `None` for a histogram that did not exist yet.
    pub fn between(before: Option<&HistogramSnapshot>, after: &HistogramSnapshot) -> Self {
        let empty = HistogramSnapshot::empty();
        let before = before.unwrap_or(&empty);
        let (b, a) = (before.buckets(), after.buckets());
        Self {
            buckets: std::array::from_fn(|i| a[i].saturating_sub(b[i])),
            count: after.count().saturating_sub(before.count()),
            sum_nanos: after.sum_nanos().saturating_sub(before.sum_nanos()),
        }
    }

    /// Adds another window's samples.
    pub fn merge(&mut self, other: &HistWindow) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
    }

    /// Samples in the window.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the window's samples in nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos
    }

    /// Upper edge, in nanoseconds, of the bucket holding the `q`-quantile
    /// sample: the estimate `HistogramSnapshot::percentile` makes, without
    /// the exact-maximum clamp a difference of snapshots cannot carry.
    pub fn percentile_nanos(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return ((1u128 << (i + 1)) - 1) as f64;
            }
        }
        0.0
    }
}

/// FNV-1a over a stream of 64-bit words: the informational output digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64 over (`seed`, `salt`, `index`): independent seeds for every
/// input stream of a run, all determined by the workload seed.  The top 53
/// bits are kept, so a request seed survives the wire's JSON numbers.
pub fn derive_seed(seed: u64, salt: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 11
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(20_000.0), 99.9);
        assert_eq!(tail_percentile(1_500.0), 99.0);
        assert_eq!(tail_percentile(100.0), 90.0);
        assert_eq!(tail_percentile(48.0), 75.0);
        assert_eq!(tail_percentile(5.0), 50.0);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn windows_subtract_snapshots() {
        let h = cvcp_engine::obs::LogHistogram::new();
        h.record(1_000);
        let before = h.snapshot();
        h.record(3_000);
        h.record(5_000);
        let w = HistWindow::between(Some(&before), &h.snapshot());
        assert_eq!(w.count(), 2);
        assert_eq!(w.sum_nanos(), 8_000);
        assert_eq!(w.percentile_nanos(1.0), 8_191.0);
    }
}
