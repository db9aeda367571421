//! Order statistics for every reported timing.

/// A tail percentile must have at least this many samples strictly beyond
/// it; with fewer samples the tail falls back to a lower percentile.
pub const MIN_BEYOND: usize = 10;

/// The nominal tail percentile reported when the sample is large enough.
pub const TAIL_TARGET: f64 = 0.99;

/// A tail value together with the percentile it actually sits at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the selected rank.
    pub value: f64,
    /// The nearest-rank percentile of that value, in percent.
    pub percentile: f64,
    /// Samples in the series.
    pub samples: usize,
    /// Samples strictly beyond the selected rank.
    pub beyond: usize,
}

/// The median (mean of the middle two for even counts); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// The arithmetic mean; NaN when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The highest percentile, at most [`TAIL_TARGET`], that has at least
/// [`MIN_BEYOND`] samples beyond it (nearest rank). A series too short to
/// leave that many samples beyond its middle reports its upper middle
/// value, so the tail is never below the median.
pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            percentile: f64::NAN,
            samples: 0,
            beyond: 0,
        };
    }
    let target = ((TAIL_TARGET * n as f64).ceil() as usize).clamp(1, n) - 1;
    let limit = n.saturating_sub(1 + MIN_BEYOND);
    let k = target.min(limit).max(n / 2);
    Tail {
        value: sorted[k],
        percentile: 100.0 * (k + 1) as f64 / n as f64,
        samples: n,
        beyond: n - 1 - k,
    }
}

/// A JSON array of numbers with `digits` decimals.
pub fn json_array(values: &[f64], digits: usize) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.digits$}")).collect();
    format!("[{}]", items.join(","))
}

/// The `q`-quantile of a log-linear histogram given as its non-empty
/// buckets, `(inclusive upper bound, cumulative count)` in increasing
/// order, as the program's histograms report them (eight sub-buckets per
/// octave). The rank is interpolated linearly inside its bucket and the
/// result clamped to the exact `[min, max]`, so it moves with the data
/// instead of jumping from one bucket bound to the next. NaN when empty.
pub fn bucket_quantile(buckets: &[(f64, f64)], q: f64, min: f64, max: f64) -> f64 {
    let Some(&(_, count)) = buckets.last() else {
        return f64::NAN;
    };
    let rank = (q * count).clamp(0.0, count);
    let mut below = 0.0;
    for &(upper, cumulative) in buckets {
        if cumulative >= rank && cumulative > below {
            // Bucket (2^e·(1 + s/8), 2^e·(1 + (s+1)/8)]: one eighth of
            // its octave wide.
            let lower = upper - (upper.log2().ceil() - 1.0).exp2() / 8.0;
            let v = lower + (upper - lower) * (rank - below) / (cumulative - below);
            return v.clamp(min, max);
        }
        below = cumulative;
    }
    max
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the selection cannot rely on input order.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn tail_is_p99_when_enough_samples_lie_beyond_it() {
        let t = tail(&ramp(2000));
        assert_eq!(t.value, 1979.0);
        assert_eq!(t.beyond, 20);
        assert_eq!(t.samples, 2000);
        assert!((t.percentile - 99.0).abs() < 1e-9);
    }

    #[test]
    fn tail_steps_down_to_keep_ten_samples_beyond() {
        let t = tail(&ramp(1000));
        assert_eq!((t.value, t.beyond), (989.0, 10));
        let t = tail(&ramp(500));
        assert_eq!((t.value, t.beyond), (489.0, 10));
        assert!((t.percentile - 98.0).abs() < 1e-9);
        let t = tail(&ramp(21));
        assert_eq!((t.value, t.beyond), (10.0, 10));
    }

    #[test]
    fn short_series_fall_back_to_the_median() {
        let t = tail(&ramp(11));
        assert_eq!((t.value, t.beyond), (5.0, 5));
        let t = tail(&ramp(4));
        assert_eq!((t.value, t.beyond), (2.0, 1));
        assert!(t.value >= median(&ramp(4)));
        let t = tail(&[3.0]);
        assert_eq!((t.value, t.beyond, t.samples), (3.0, 0, 1));
        assert!(tail(&[]).value.is_nan());
    }

    #[test]
    fn bucket_quantiles_interpolate_inside_the_bucket() {
        // 10 samples in (1.0, 1.125], 10 in (3.75, 4.0].
        let buckets = [(1.125, 10.0), (4.0, 20.0)];
        assert!((bucket_quantile(&buckets, 0.25, 1.01, 3.9) - 1.0625).abs() < 1e-12);
        assert!((bucket_quantile(&buckets, 0.75, 1.01, 3.9) - 3.875).abs() < 1e-12);
        assert_eq!(bucket_quantile(&buckets, 1.0, 1.01, 3.9), 3.9);
        assert_eq!(bucket_quantile(&buckets, 0.0, 1.01, 3.9), 1.01);
        assert!(bucket_quantile(&[], 0.5, 0.0, 0.0).is_nan());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
