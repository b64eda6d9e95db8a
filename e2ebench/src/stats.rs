//! Order statistics over exact samples.

/// Percentile `p` (0–100) of `xs` by linear interpolation between order
/// statistics. Returns 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Interquartile range divided by the median.
pub fn iqr_ratio(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    (percentile(xs, 75.0) - percentile(xs, 25.0)) / m
}

/// Percentile ladder the tail is chosen from, highest first.
const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0];

/// The highest ladder percentile with at least ten samples beyond it, and
/// its value. With fewer than 20 samples the maximum is reported as p100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    for p in TAIL_LADDER {
        if n * (100.0 - p) / 100.0 + 1e-9 >= 10.0 {
            return (p, percentile(xs, p));
        }
    }
    (100.0, percentile(xs, 100.0))
}

/// Windows a run's latencies are split into for [`windowed_tail`].
pub const TAIL_WINDOWS: usize = 6;

/// The median over `windows` consecutive equal slices of each slice's
/// [`tail`], with the slices' percentile: one host stall in one slice does
/// not decide a run's tail.
pub fn windowed_tail(xs: &[f64], windows: usize) -> (f64, f64) {
    if xs.is_empty() {
        return (100.0, 0.0);
    }
    let slices: Vec<(f64, f64)> = xs
        .chunks(xs.len().div_ceil(windows.max(1)))
        .map(tail)
        .collect();
    let values: Vec<f64> = slices.iter().map(|t| t.1).collect();
    (slices[0].0, median(&values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 99.0);
        let xs: Vec<f64> = (0..600).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 98.0);
        assert_eq!(tail(&[1.0, 2.0]).0, 100.0);
    }

    #[test]
    fn windowed_tail_ignores_one_stalled_window() {
        let mut xs: Vec<f64> = (0..600).map(|i| f64::from(i % 100)).collect();
        for x in &mut xs[..100] {
            *x += 1000.0;
        }
        let (p, v) = windowed_tail(&xs, 6);
        assert_eq!(p, 90.0);
        assert!(v < 100.0, "{v}");
    }

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[0.0, 10.0], 25.0), 2.5);
    }
}
