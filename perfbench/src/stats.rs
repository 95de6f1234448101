//! Order statistics and ratios shared by every workload.

/// Linear-interpolation percentile (`q` in `[0, 1]`) of an ascending
/// slice, the same rule as numpy's default and Python's
/// `statistics.quantiles(..., method="inclusive")`. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// `num / den`, or `0.0` when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Relative drift within one run: the median of the second half of
/// the samples (in arrival order) over the median of the first half,
/// minus one. Positive means the run slowed down as it went.
pub fn half_drift(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 {
        return None;
    }
    let (a, b) = samples.split_at(samples.len() / 2);
    Some(ratio(median(b)?, median(a)?) - 1.0)
}

/// Latency summary of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median (ms).
    pub p50: f64,
    /// 90th percentile (ms).
    pub p90: f64,
}

impl Summary {
    /// Summarize `samples`; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            count: v.len(),
            p50: percentile(&v, 0.5)?,
            p90: percentile(&v, 0.9)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.5), Some(2.5));
        assert!((percentile(&v, 0.9).unwrap() - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn drift_compares_second_half_to_first() {
        assert_eq!(half_drift(&[1.0, 1.0, 2.0, 2.0]), Some(1.0));
        assert_eq!(half_drift(&[2.0, 2.0, 2.0, 2.0]), Some(0.0));
        assert_eq!(half_drift(&[1.0]), None);
    }

    #[test]
    fn p90_has_its_own_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.p50 - 50.5).abs() < 1e-12);
        assert!((s.p90 - 90.1).abs() < 1e-9);
    }
}
