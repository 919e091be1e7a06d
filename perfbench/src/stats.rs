//! Percentiles over latency samples.
//!
//! A failed request is recorded as `f64::INFINITY`, so it sorts above
//! every real latency and counts as missing every percentile it reaches.

/// Segments a run's samples are split into for [`segmented`].
pub const SEGMENTS: usize = 5;

/// The median, over `SEGMENTS` consecutive equal-count segments of
/// `samples` (in the order they were taken), of each segment's
/// percentile `q`. The generator's lag guard uses it: one stall of the
/// host moves one segment, not the guard, which trips only when the
/// daemon fell behind the schedule for most of the run. `NaN` when empty.
pub fn segmented(samples: &[f64], q: f64) -> f64 {
    let n = samples.len();
    if n < SEGMENTS {
        return Sample::new(samples.to_vec()).percentile(q);
    }
    let per_segment: Vec<f64> = (0..SEGMENTS)
        .map(|k| {
            Sample::new(samples[k * n / SEGMENTS..(k + 1) * n / SEGMENTS].to_vec()).percentile(q)
        })
        .collect();
    Sample::new(per_segment).percentile(0.5)
}

/// A sorted sample of latencies (or any other measurement).
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sort `values` once; NaN never occurs in a measurement.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile: the smallest sample such that at least a
    /// share `q` of all samples is at or below it. `NaN` when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return f64::NAN;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_values() {
        let s = Sample::new(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        // rank = ceil(q·n): p50 → ceil(2.5) = 3rd, p99 → ceil(4.95) = 5th,
        // p20 → ceil(1.0) = 1st.
        assert_eq!(s.percentile(0.50), 3.0);
        assert_eq!(s.percentile(0.99), 5.0);
        assert_eq!(s.percentile(0.20), 1.0);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn failed_requests_count_at_infinite_latency() {
        // 99 successes at 1..=99 ms plus one failure: p99 is the 99th
        // value (99 ms), and the failure is the maximum.
        let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
        v.push(f64::INFINITY);
        let s = Sample::new(v.clone());
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(1.0), f64::INFINITY);
        assert_eq!(s.percentile(0.50), 50.0);

        // A second failure pushes p99 past every success.
        v[0] = f64::INFINITY;
        let s = Sample::new(v);
        assert_eq!(s.percentile(0.99), f64::INFINITY);
        // ... and shifts the median up by one rank: 2..=99 then ∞, ∞.
        assert_eq!(s.percentile(0.50), 51.0);

        // Half the requests failing makes the median infinite too.
        let s = Sample::new(vec![1.0, f64::INFINITY, 2.0, f64::INFINITY]);
        assert_eq!(s.percentile(0.50), 2.0);
        assert_eq!(s.percentile(0.51), f64::INFINITY);
    }

    #[test]
    fn segmented_percentile_is_the_median_of_segment_percentiles() {
        // Five segments of four: per-segment p50 (2nd of 4) is 2, 20, 6,
        // 40, 5 → median 6. The burst in segment 4 does not move it.
        let v = [
            1.0, 2.0, 3.0, 4.0, 20.0, 10.0, 30.0, 40.0, 5.0, 6.0, 7.0, 8.0, 100.0, 40.0, 90.0,
            30.0, 4.0, 5.0, 6.0, 7.0,
        ];
        assert_eq!(segmented(&v, 0.5), 6.0);
        // A failure makes its own segment's p99 infinite, but not the
        // median over segments...
        let mut w = v;
        w[0] = f64::INFINITY;
        assert_eq!(segmented(&w, 0.99), 40.0);
        // ...until failures reach most segments.
        w[4] = f64::INFINITY;
        w[8] = f64::INFINITY;
        assert_eq!(segmented(&w, 0.99), f64::INFINITY);
        // Fewer samples than segments: the pooled percentile.
        assert_eq!(segmented(&[3.0, 1.0], 0.5), 1.0);
    }

    #[test]
    fn empty_sample_has_no_percentile() {
        assert!(Sample::new(Vec::new()).percentile(0.5).is_nan());
    }
}
