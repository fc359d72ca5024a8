//! Order statistics for latency samples.

/// Percentiles a tail may be reported at, lowest first.
const LADDER: [f64; 9] = [50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9, 99.99];

/// Nearest-rank percentile of an ascending slice (1-based rank
/// `ceil(p/100 * n)`). Empty input gives 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile, at most `cap`, that leaves at least ten
/// samples above it; `None` when even the median does not.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| p <= cap && n >= 1 && n - rank(n, p) >= 10)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// A latency sample summarised as its median and its supported tail.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The percentile the tail was taken at (see [`tail_percentile`]).
    pub tail_p: f64,
    /// The value at `tail_p`.
    pub tail: f64,
}

/// Summarises `values`, reporting the tail at the highest percentile up
/// to `cap` that the sample supports (the median when none does).
pub fn summarize(values: &[f64], cap: f64) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let tail_p = tail_percentile(v.len(), cap).unwrap_or(50.0);
    Summary {
        n: v.len(),
        p50: percentile(&v, 50.0),
        tail_p,
        tail: percentile(&v, tail_p),
    }
}

/// Most slices [`windowed`] cuts a series into.
const MAX_WINDOWS: usize = 20;

/// Summarises a time-ordered series as the median over equal consecutive
/// slices of each slice's p50 and of its tail at `cap`, using as many
/// slices (at least 3, at most [`MAX_WINDOWS`]) as still leave ten samples
/// beyond `cap` in each. One stall then moves the figure by one slice's
/// worth, not the whole run's. Too short a series is summarised whole.
pub fn windowed(values: &[f64], cap: f64) -> Summary {
    let need = (10.0 / (1.0 - cap / 100.0)).round() as usize;
    let windows = (values.len() / need.max(1)).min(MAX_WINDOWS);
    if windows < 3 {
        return summarize(values, cap);
    }
    let per = values.len() / windows;
    let slices: Vec<Summary> = values
        .chunks(per)
        .take(windows)
        .map(|c| summarize(c, cap))
        .collect();
    Summary {
        n: values.len(),
        p50: median(&slices.iter().map(|s| s.p50).collect::<Vec<_>>()),
        tail_p: cap,
        tail: median(&slices.iter().map(|s| s.tail).collect::<Vec<_>>()),
    }
}

/// Slices [`sliced_rate`] cuts a measuring window into.
pub const RATE_SLICES: usize = 10;

/// The median over [`RATE_SLICES`] equal slices of `[0, span_s)` of the
/// per-second sum of `weights` of events at `offsets_s` (seconds from the
/// window's start; events outside it are ignored). A stall then costs one
/// slice's rate, not the run's.
pub fn sliced_rate(offsets_s: &[f64], weights: &[f64], span_s: f64) -> f64 {
    let slice = span_s / RATE_SLICES as f64;
    let mut sums = [0.0; RATE_SLICES];
    for (&t, &w) in offsets_s.iter().zip(weights) {
        if (0.0..span_s).contains(&t) {
            sums[((t / slice) as usize).min(RATE_SLICES - 1)] += w;
        }
    }
    median(&sums.map(|s| s / slice))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 above it;
        // p99.5 would leave 5.
        assert_eq!(tail_percentile(1000, 100.0), Some(99.0));
        // One fewer and p99 leaves only 9, so the tail drops to p98.
        assert_eq!(tail_percentile(999, 100.0), Some(98.0));
        assert_eq!(tail_percentile(100_000, 100.0), Some(99.99));
        assert_eq!(tail_percentile(100_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(20, 100.0), Some(50.0));
        assert_eq!(tail_percentile(19, 100.0), None);
        assert_eq!(tail_percentile(0, 100.0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn summary_states_its_percentile_and_count() {
        let v: Vec<f64> = (0..500).map(f64::from).collect();
        let s = summarize(&v, 99.0);
        assert_eq!(s.n, 500);
        assert_eq!(s.tail_p, 98.0);
        assert_eq!(s.tail, 489.0);
    }

    #[test]
    fn sliced_rate_is_the_median_slice() {
        // 100 events per second for 10 s, except a dead second.
        let t: Vec<f64> = (0..1_000)
            .map(|i| i as f64 / 100.0)
            .filter(|t| !(3.0..4.0).contains(t))
            .collect();
        let w = vec![1.0; t.len()];
        assert!((sliced_rate(&t, &w, 10.0) - 100.0).abs() < 1e-9);
        // Weights are summed; events past the window are ignored.
        let w2 = vec![2.0; t.len()];
        assert!((sliced_rate(&t, &w2, 5.0) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn windowing_confines_a_stall_to_its_slice() {
        let mut v = vec![100.0; 20_000];
        for x in v.iter_mut().take(300) {
            *x = 9_000.0;
        }
        assert_eq!(summarize(&v, 99.0).tail, 9_000.0);
        let w = windowed(&v, 99.0);
        assert_eq!((w.n, w.tail_p, w.tail, w.p50), (20_000, 99.0, 100.0, 100.0));
        // Too few samples for three slices: summarised whole.
        assert_eq!(windowed(&v[..2_999], 99.0).tail, 9_000.0);
    }
}
