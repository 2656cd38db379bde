//! The shared power-of-two-bucketed histogram.
//!
//! Lifted out of `fpsa_serve::ServeStats`, which grew the original
//! `hist_percentile` machinery, so every layer (serve, fleet per-tenant
//! stats, the metrics registry) shares one bucketing contract instead of
//! hand-rolled `[u64; 32]` fields: bucket 0 holds zeros, bucket `i ≥ 1`
//! holds values in `[2^(i-1), 2^i)`, and the histogram tracks its true
//! maximum so percentile reads in the saturated overflow bucket stay
//! honest. Recording is O(1) (a leading-zeros count and one increment)
//! and the type is plain `Copy` data — snapshots are assignments.

use serde::{Deserialize, Serialize};

/// Number of power-of-two buckets in a [`Histogram`].
pub const HIST_BUCKETS: usize = 32;

/// The bucket a value lands in: bucket 0 holds zeros, bucket `i` (`i ≥ 1`)
/// holds values in `[2^(i-1), 2^i)`. Log-spaced buckets keep recording O(1)
/// per sample while spanning nanosecond batches to multi-second tails.
pub fn bucket_of(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// The inclusive upper bound of a histogram bucket (`2^i - 1`), used as the
/// conservative representative when reading percentiles back out.
pub fn bucket_upper(bucket: usize) -> u64 {
    if bucket >= 63 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// A power-of-two-bucketed histogram with an exact tracked maximum.
///
/// Percentiles are exact up to bucket granularity — an answer is never
/// *under*-reported by more than one bucket (2×), at any magnitude: reads
/// are capped at the tracked maximum, and the saturated overflow bucket
/// (which spans `2^30` to `u64::MAX`) reports the maximum outright instead
/// of its power-of-two upper bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Count one sample.
    pub fn record(&mut self, value: u64) {
        self.max = self.max.max(value);
        self.buckets[bucket_of(value)] += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&c| c == 0)
    }

    /// The largest value ever recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The raw bucket counts (bucket `i ≥ 1` covers `[2^(i-1), 2^i)`).
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Fold another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// Nearest-rank percentile: the upper bound of the first bucket whose
    /// cumulative count reaches rank `q`, capped at the tracked maximum.
    /// The cap is what keeps the accuracy contract honest in the saturated
    /// overflow bucket: bucket `HIST_BUCKETS - 1` holds every value from
    /// `2^30` µs (~18 min) to `u64::MAX`, so its power-of-two upper bound
    /// (`2^31 − 1` µs, ~36 min) would silently under-report a multi-hour
    /// outlier; reporting the tracked maximum instead is exact for the
    /// largest value and still an upper bound for everything else in the
    /// bucket. Zero when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return if i + 1 == HIST_BUCKETS {
                    self.max
                } else {
                    bucket_upper(i).min(self.max)
                };
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_value_space() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        for value in [0u64, 1, 5, 1023, 1024, 1 << 29] {
            let b = bucket_of(value);
            assert!(value <= bucket_upper(b), "{value} above bucket {b} upper");
            if b >= 1 && b + 1 < HIST_BUCKETS {
                assert!(value > bucket_upper(b - 1));
            }
        }
    }

    #[test]
    fn percentiles_use_bucket_upper_bounds_capped_at_the_maximum() {
        // 99 fast samples at 3 (bucket [2,3]), one straggler at 1000.
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(3);
        }
        h.record(1_000);
        assert_eq!(h.percentile(0.50), 3);
        assert_eq!(h.percentile(0.99), 3);
        // The top non-empty bucket's upper bound (1023) is capped at the
        // tracked maximum: the p100 answer is exact.
        assert_eq!(h.percentile(1.0), 1_000);
        assert_eq!(h.max(), 1_000);
        assert_eq!(Histogram::new().percentile(0.99), 0);
        let mut zeros = Histogram::new();
        zeros.record(0);
        assert_eq!(zeros.percentile(0.5), 0);
    }

    #[test]
    fn overflow_bucket_reports_the_tracked_maximum() {
        let four_hours_us: u64 = 4 * 3_600 * 1_000_000;
        assert!(four_hours_us > (1u64 << 31) - 1);
        let mut h = Histogram::new();
        h.record(four_hours_us);
        assert_eq!(h.buckets()[HIST_BUCKETS - 1], 1);
        assert_eq!(h.percentile(0.50), four_hours_us);
        assert_eq!(h.percentile(0.99), four_hours_us);

        let mut mixed = Histogram::new();
        for _ in 0..9 {
            mixed.record(100);
        }
        mixed.record(four_hours_us);
        assert_eq!(mixed.percentile(0.50), 127);
        assert_eq!(mixed.percentile(0.95), four_hours_us);
    }

    #[test]
    fn merge_is_equivalent_to_recording_both_streams() {
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        let mut both = Histogram::new();
        for v in [0u64, 1, 7, 900, 1 << 20] {
            left.record(v);
            both.record(v);
        }
        for v in [3u64, 3, 1 << 33] {
            right.record(v);
            both.record(v);
        }
        left.merge(&right);
        assert_eq!(left, both);
        assert_eq!(left.count(), 8);
    }
}
