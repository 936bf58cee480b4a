//! Plain-text report formatting for the experiment binaries.
//!
//! The figure binaries print numeric series that correspond to the paper's
//! figures (parameter curves, box-plot summaries); the table binaries print
//! their rows through `cvcp-experiments`' own printers.

use cvcp_metrics::stats::BoxplotStats;

/// Formats a figure curve (Figures 5–8) as aligned columns:
/// parameter, internal score, external score.
pub fn curve_table(
    param_name: &str,
    params: &[usize],
    internal: &[f64],
    external: &[f64],
) -> String {
    let mut out = format!("{param_name:>8}  {:>10}  {:>10}\n", "internal", "external");
    for ((p, i), e) in params.iter().zip(internal).zip(external) {
        out.push_str(&format!("{p:>8}  {i:>10.4}  {e:>10.4}\n"));
    }
    out
}

/// Formats a box-plot summary line (Figures 9–12): label, whiskers, quartiles
/// and median.
pub fn boxplot_row(label: &str, values: &[f64]) -> String {
    if values.is_empty() {
        return format!("{label:<12} (no data)");
    }
    let b = BoxplotStats::of(values);
    format!(
        "{label:<12} n={:<4} whiskers=[{:.4}, {:.4}] box=[{:.4}, {:.4}] median={:.4} outliers={}",
        b.n, b.whisker_low, b.whisker_high, b.q1, b.q3, b.median, b.n_outliers
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_table_has_one_line_per_parameter() {
        let t = curve_table("MinPts", &[3, 6, 9], &[0.5, 0.7, 0.6], &[0.55, 0.75, 0.62]);
        assert_eq!(t.lines().count(), 4);
        assert!(t.contains("MinPts"));
    }

    #[test]
    fn boxplot_row_handles_empty_and_regular_input() {
        assert!(boxplot_row("CVCP-10", &[]).contains("no data"));
        let row = boxplot_row("CVCP-10", &[0.5, 0.6, 0.7, 0.8, 0.9]);
        assert!(row.contains("median=0.7000"));
    }
}
