//! The one metric type with structure: a fixed-bucket log2 [`Histogram`].
//!
//! Plain data. The recording observer owns the histograms it fills (they
//! are fields of the [`super::TelemetrySnapshot`] it hands back), so
//! recording is `&mut self` arithmetic and the recorded value *is* the
//! exported one: it merges across runs and clones into a live view as is.

use pgc_types::{Result, Words};

/// Number of histogram buckets: one for zero plus one per power of two,
/// covering the full `u64` range with no overflow bucket.
pub(crate) const BUCKET_COUNT: usize = 65;

/// Upper bound (inclusive) of bucket `i`: 0 for bucket 0, `2^i - 1` for
/// the rest (saturating at `u64::MAX`).
fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// The bucket a value lands in: 0 holds exactly zero; bucket `i >= 1`
/// holds `[2^(i-1), 2^i)`.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// A fixed-bucket log2 histogram of `u64` samples, mergeable across runs.
///
/// Bucket 0 counts zeros; bucket `i` counts values in `[2^(i-1), 2^i)`.
/// Exact count, sum, and max ride along, so means are exact and only
/// percentiles are quantized to bucket upper bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket sample counts.
    pub buckets: [u64; BUCKET_COUNT],
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Largest sample seen (0 when empty).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub(crate) fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        // Saturating: a loaded sum is whatever a file said.
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Exact mean of the samples (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The bucket upper bound at or below which fraction `q` (in `[0, 1]`)
    /// of the samples fall — a quantized percentile. Returns the exact max
    /// for the final populated bucket, 0 when empty.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        let mut last = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            seen += n;
            last = i;
            if seen >= target {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        bucket_upper_bound(last).min(self.max)
    }

    /// Appends the buckets, count, sum and max.
    pub(crate) fn save(&self, out: &mut Vec<u64>) {
        out.extend(self.buckets);
        out.extend([self.count, self.sum, self.max]);
    }

    /// What [`Histogram::save`] wrote, for samples taken one per
    /// activation over a run of `events` events: no tally exceeds them.
    pub(crate) fn load(words: &mut Words<'_>, events: u64) -> Result<Self> {
        let mut h = Histogram::default();
        for n in &mut h.buckets {
            *n = words.at_most(events)?;
        }
        h.count = words.at_most(events)?;
        h.sum = words.word()?;
        h.max = words.word()?;
        Ok(h)
    }

    /// Adds another histogram's samples into this one.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_log2_with_zero_bucket() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_counts_sums_and_quantiles() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1106);
        assert_eq!(h.max, 1000);
        assert!((h.mean() - 1106.0 / 6.0).abs() < 1e-9);
        assert_eq!(h.quantile(0.0), 0);
        assert!(h.quantile(0.5) <= 3);
        assert_eq!(h.quantile(1.0), 1000, "top quantile reports exact max");
        assert_eq!(Histogram::default().count, 0);
        assert_eq!(Histogram::default().quantile(0.5), 0);
    }

    #[test]
    fn histograms_merge_additively() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(4);
        a.record(5);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 1_000_009);
        assert_eq!(a.max, 1_000_000);
    }
}
