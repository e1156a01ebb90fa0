//! Order statistics over host-time samples.

/// Linear-interpolated quantile (`q` in [0, 1]) of unsorted samples;
/// `NaN` when there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of the usual tail percentiles that leaves at least ten
/// samples beyond it when `n` samples are taken; 50 when none does.
pub fn tail_percentile(n: usize) -> u32 {
    [99, 95, 90, 75]
        .into_iter()
        .find(|&p| n as f64 * f64::from(100 - p) / 100.0 >= 10.0)
        .unwrap_or(50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(39), 50);
    }
}
