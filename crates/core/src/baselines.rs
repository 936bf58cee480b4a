//! The baselines the paper compares CVCP against (Section 4.3).
//!
//! * **Expected quality** ("Exp-x" in the figures and tables): the average
//!   external quality over the whole candidate range — the performance of a
//!   user who has to guess the parameter uniformly at random.
//! * **Silhouette selection** ("Sil-x"): choose the parameter whose resulting
//!   clustering has the best Silhouette coefficient.  Applicable to
//!   MPCKMeans (a centroid-based method); the paper notes no comparable
//!   heuristic exists for the `MinPts` of a density-based method.  The
//!   experiment plan computes it from each trial's external cells
//!   (`plan::finalize_trial`).

/// The expected (mean) quality over a parameter range, given the per-
/// parameter external quality values.  Returns 0 for an empty slice.
pub fn expected_quality(per_parameter_quality: &[f64]) -> f64 {
    if per_parameter_quality.is_empty() {
        return 0.0;
    }
    per_parameter_quality.iter().sum::<f64>() / per_parameter_quality.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_quality_is_the_mean() {
        assert_eq!(expected_quality(&[0.2, 0.4, 0.9]), 0.5);
        assert_eq!(expected_quality(&[]), 0.0);
    }
}
