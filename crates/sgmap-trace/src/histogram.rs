/// Number of buckets in a [`Histogram`]. Bucket 0 holds the value `0`;
/// bucket `i` (for `1 <= i < 31`) holds values in `[2^(i-1), 2^i)`; the last
/// bucket collects everything at or above `2^30`.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Fixed-size log2-bucket histogram over `u64` values.
///
/// Recording is O(1) with no allocation: the bucket index is derived from the
/// value's bit length. Alongside the buckets the histogram tracks `count`,
/// `sum`, `min` and `max` so exact means and extremes survive the bucketing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Bucket index for `value` (see [`HISTOGRAM_BUCKETS`] for the layout).
    pub fn bucket_index(value: u64) -> usize {
        let bits = (u64::BITS - value.leading_zeros()) as usize;
        bits.min(HISTOGRAM_BUCKETS - 1)
    }

    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or 0 if nothing was recorded.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1 << 29), 30);
        assert_eq!(Histogram::bucket_index(1 << 30), 31);
        assert_eq!(Histogram::bucket_index(u64::MAX), 31);
    }

    #[test]
    fn records_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), 0);
        for v in [3, 1, 10, 0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 14);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 10);
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 1); // 3
        assert_eq!(h.buckets()[4], 1); // 10
        assert!((h.mean() - 3.5).abs() < 1e-12);
    }
}
