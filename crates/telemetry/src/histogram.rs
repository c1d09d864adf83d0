//! Log-scale latency histogram with bounded relative error.
//!
//! The histogram covers the full `u64` range with 1 920 logical buckets:
//! values below 32 land in exact unit-width buckets, and every octave above
//! that is split into 32 sub-buckets, bounding the relative width of any
//! bucket by 1/32 (~3.1%). Quantile queries therefore return an interval
//! `[lo, hi]` that is guaranteed to bracket the true order statistic, which is
//! the property the `testkit` suite checks against brute-force sorting.
//!
//! Only the buckets up to the highest one recorded are stored, in whole
//! groups of 32 (the unit buckets, then one group per octave). A histogram of
//! microsecond latencies under a second holds at most 512 of them (4 KiB)
//! instead of all 1 920 (15 KiB).

/// Number of sub-bucket bits per octave. 32 sub-buckets per power of two
/// bounds the relative error of any reported quantile by 1/32.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave (`2^SUB_BITS`).
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Values below this are stored in exact unit-width buckets.
const LINEAR_LIMIT: u64 = SUB_COUNT as u64;

/// A mergeable log-scale histogram of `u64` samples (typically microseconds).
///
/// Recording is O(1), plus a copy of the stored buckets the first time a
/// sample lands in a higher octave; quantile extraction walks the stored
/// buckets. `count`, `sum`, `min`, and `max` are tracked exactly, so the mean
/// is exact and only intermediate quantiles are subject to the ~3.1%
/// bucket-width error.
#[derive(Clone)]
pub struct Histogram {
    /// Buckets `0..counts.len()`, up to and including the `SUB_COUNT`-bucket
    /// group of the highest bucket recorded; every bucket past it is empty.
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        // `counts` ends with the group holding the bucket of `max`, so equal
        // histograms store equally many buckets.
        self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.counts == other.counts
    }
}

impl Eq for Histogram {}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("mean", &self.mean())
            .finish()
    }
}

/// Bucket index for a value: exact below [`LINEAR_LIMIT`], otherwise the
/// octave (position of the most significant bit) selects a group of
/// [`SUB_COUNT`] buckets and the next [`SUB_BITS`] bits select within it.
fn bucket_index(value: u64) -> usize {
    if value < LINEAR_LIMIT {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = (value >> shift) as usize - SUB_COUNT;
        SUB_COUNT + shift as usize * SUB_COUNT + sub
    }
}

/// Inclusive `[lo, hi]` value range covered by a bucket index.
fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB_COUNT {
        (index as u64, index as u64)
    } else {
        let shift = ((index - SUB_COUNT) / SUB_COUNT) as u32;
        let sub = ((index - SUB_COUNT) % SUB_COUNT) as u64;
        let lo = (SUB_COUNT as u64 + sub) << shift;
        (lo, lo + ((1u64 << shift) - 1))
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let index = bucket_index(value);
        if index >= self.counts.len() {
            // Grow to exactly the new octave: a histogram grows at most once
            // per octave, and a deployment may hold thousands of them.
            let len = (index / SUB_COUNT + 1) * SUB_COUNT;
            self.counts.reserve_exact(len - self.counts.len());
            self.counts.resize(len, 0);
        }
        self.counts[index] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns true if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<u64> {
        (self.count > 0).then(|| (self.sum / u128::from(self.count)) as u64)
    }

    /// Inclusive `[lo, hi]` interval bracketing the `q`-quantile
    /// (`0.0 < q <= 1.0`), tightened by the exact min/max. The true order
    /// statistic of rank `ceil(q * count)` is guaranteed to lie inside it.
    /// Returns `None` if the histogram is empty.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the order statistic we bracket, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(index);
                return Some((lo.max(self.min), hi.min(self.max)));
            }
        }
        // Unreachable: `seen` reaches `self.count >= rank` within the loop.
        Some((self.min, self.max))
    }

    /// A representative value for the `q`-quantile: the upper bound of the
    /// bracketing bucket (at most ~3.1% above the true order statistic).
    /// Returns `None` if the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.quantile_bounds(q).map(|(_, hi)| hi)
    }

    /// Adds every sample of `other` into `self`. Merging two histograms is
    /// exactly equivalent to recording the concatenation of their samples.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_nothing() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 5, 8, 13, 21, 31] {
            h.record(v);
        }
        for q in [0.1, 0.5, 0.9, 1.0] {
            let (lo, hi) = h.quantile_bounds(q).unwrap();
            assert_eq!(lo, hi, "values < 32 land in unit buckets");
        }
        assert_eq!(h.quantile(0.5).unwrap(), 5);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(31));
    }

    #[test]
    fn bucket_index_and_bounds_agree() {
        for v in (0..10_000u64).chain([u64::MAX, u64::MAX - 1, 1 << 40, (1 << 40) + 12345]) {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "value {v} outside bucket [{lo}, {hi}]");
            // Relative bucket width is bounded by 1/32.
            assert!(hi - lo <= lo / 32 + 1, "bucket [{lo}, {hi}] too wide");
        }
    }

    #[test]
    fn extreme_value_is_representable() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.max(), Some(u64::MAX));
        // One sample: the exact min and max tighten the interval to it.
        assert_eq!(h.quantile_bounds(1.0), Some((u64::MAX, u64::MAX)));
        // Beside a smaller sample the top quantile reports the top bucket
        // itself, the last 32nd of the highest octave.
        h.record(0);
        let (lo, hi) = h.quantile_bounds(1.0).unwrap();
        assert_eq!(lo, 63 << 58);
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn quantiles_bracket_sorted_rank() {
        let samples: Vec<u64> = (0..1000).map(|i| i * i * 7 + 3).collect();
        let mut h = Histogram::new();
        let mut sorted = samples.clone();
        for &s in &samples {
            h.record(s);
        }
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
            let truth = sorted[rank - 1];
            let (lo, hi) = h.quantile_bounds(q).unwrap();
            assert!(
                lo <= truth && truth <= hi,
                "q={q}: {truth} not in [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn buckets_grow_only_to_the_highest_octave_recorded() {
        let mut h = Histogram::new();
        assert!(h.counts.is_empty());
        h.record(7);
        assert_eq!(h.counts.len(), SUB_COUNT, "the unit buckets only");
        for v in (0..=200_000u64).step_by(997).chain([200_000]) {
            h.record(v);
        }
        assert!(h.counts.len() <= 448, "{} buckets stored", h.counts.len());
        assert_eq!(h.counts.len() % SUB_COUNT, 0, "whole octave groups");
        h.record(u64::MAX);
        assert_eq!(h.counts.len(), bucket_index(u64::MAX) + 1);
    }

    #[test]
    fn merge_equals_concatenation() {
        let (a_samples, b_samples): (Vec<u64>, Vec<u64>) = (
            (0..100).map(|i| i * 31 + 1).collect(),
            (0..77).map(|i| i * i + 40_000).collect(),
        );
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for &s in &a_samples {
            a.record(s);
            both.record(s);
        }
        for &s in &b_samples {
            b.record(s);
            both.record(s);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }
}
