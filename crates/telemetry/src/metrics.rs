//! Counters, gauges, and fixed-bucket histograms.

use jitise_base::sync::Mutex;
use std::collections::BTreeMap;

/// Number of histogram buckets. Bucket `i` counts values with
/// `value < 2^i` (and above the previous bound); the last bucket is a
/// catch-all for everything larger.
pub const HISTOGRAM_BUCKETS: usize = 40;

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Histogram {
    pub counts: [u64; HISTOGRAM_BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    fn observe(&mut self, value: u64) {
        // Bucket index = position of the highest set bit + 1, i.e. the
        // smallest i with value < 2^i; zero lands in bucket 0.
        let bucket = (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }
}

/// A frozen histogram, as exposed by [`crate::Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Per-bucket counts. Bucket 0 holds only the value `0`; bucket
    /// `i >= 1` holds values in `[2^(i-1), 2^i)`; the last bucket
    /// additionally absorbs everything at or beyond its lower bound
    /// (`value >= 2^(HISTOGRAM_BUCKETS-2)` all land in the final bucket).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Smallest observed value.
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Builds a snapshot directly from raw values (no registry involved).
    /// Used by the profiler to derive per-stage duration quantiles without
    /// retaining every sample.
    pub fn from_values(name: impl Into<String>, values: &[u64]) -> HistogramSnapshot {
        let mut h = Histogram::default();
        for &v in values {
            h.observe(v);
        }
        HistogramSnapshot {
            name: name.into(),
            counts: h.counts.to_vec(),
            count: h.count,
            sum: h.sum,
            min: if h.count == 0 { 0 } else { h.min },
            max: h.max,
        }
    }

    /// Exclusive pow2 upper bound of bucket `i`: bucket 0 holds only the
    /// value `0` (bound 1), bucket `i >= 1` holds `[2^(i-1), 2^i)` (bound
    /// `2^i`), and the final catch-all bucket has no finite bound
    /// (`u64::MAX`). This is the one place bucket math lives; exporters
    /// and quantile estimation both go through it.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// An upper bound on the `q`-quantile of the observed values.
    ///
    /// Power-of-two buckets only retain which range each value fell in, so
    /// the estimate is the *bucket upper bound* (see
    /// [`HistogramSnapshot::bucket_upper_bound`]; exclusive, so the bound
    /// minus one is the largest value the bucket can hold) of the bucket
    /// containing the observation of rank `ceil(q * count)`, clamped to
    /// the observed `max`. The result therefore never under-reports a
    /// quantile and is at worst 2× the true value.
    ///
    /// **Interpolation rule.** There is deliberately *no* within-bucket
    /// interpolation: every rank in a bucket reports the same value
    /// (`bound − 1`, or `0` for bucket 0, capped at `max`). Interpolating
    /// inside a pow2 bucket would fabricate precision the counts do not
    /// carry and could under-report; the step function keeps the
    /// upper-bound guarantee. Consequences worth knowing:
    ///
    /// * `q` is clamped to `[0, 1]` and the rank to `[1, count]`, so
    ///   `quantile(0.0)` is the first observation's bucket cap, not 0.
    /// * An empty histogram yields 0 for every `q`.
    /// * All-zero observations sit in bucket 0 (which holds exactly the
    ///   value 0), so every quantile is 0 — not bucket 0's bound.
    /// * When the whole population saturates the final catch-all bucket,
    ///   the infinite bound collapses to the observed `max` for every
    ///   `q` — the clamp is what keeps the catch-all meaningful.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = nearest_rank(q, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bound = Self::bucket_upper_bound(i);
                // Bucket 0 holds only the value 0; elsewhere the largest
                // representable member is `bound - 1`.
                let cap = if i == 0 { 0 } else { bound.saturating_sub(1) };
                return cap.min(self.max);
            }
        }
        self.max
    }
}

/// The 1-based rank of the `q`-quantile among `count > 0` observations:
/// `ceil(q * count)`, with `q` clamped to `[0, 1]` and the rank to
/// `[1, count]`. Both quantile readers here use this rule.
fn nearest_rank(q: f64, count: u64) -> u64 {
    ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count)
}

/// The exact `q`-quantile of ascending `sorted`: the value of nearest
/// rank, by the rank rule of [`HistogramSnapshot::quantile`]; 0 when
/// empty. For series the caller holds in full, where a bucket bound would
/// read up to 2× the true value.
pub fn sorted_quantile(sorted: &[u64], q: f64) -> u64 {
    debug_assert!(sorted.is_sorted(), "sorted_quantile needs ascending values");
    match sorted.len() as u64 {
        0 => 0,
        n => sorted[nearest_rank(q, n) as usize - 1],
    }
}

#[derive(Default)]
pub(crate) struct MetricsRegistry {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    gauges: Mutex<BTreeMap<&'static str, f64>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
}

impl MetricsRegistry {
    pub(crate) fn add(&self, name: &'static str, delta: u64) {
        *self.counters.lock().entry(name).or_insert(0) += delta;
    }

    pub(crate) fn gauge(&self, name: &'static str, value: f64) {
        self.gauges.lock().insert(name, value);
    }

    pub(crate) fn observe(&self, name: &'static str, value: u64) {
        self.histograms
            .lock()
            .entry(name)
            .or_default()
            .observe(value);
    }

    pub(crate) fn counters(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect()
    }

    pub(crate) fn gauges(&self) -> Vec<(String, f64)> {
        self.gauges
            .lock()
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect()
    }

    pub(crate) fn histograms(&self) -> Vec<HistogramSnapshot> {
        self.histograms
            .lock()
            .iter()
            .map(|(&name, h)| HistogramSnapshot {
                name: name.to_string(),
                counts: h.counts.to_vec(),
                count: h.count,
                sum: h.sum,
                min: if h.count == 0 { 0 } else { h.min },
                max: h.max,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries() {
        let mut h = Histogram::default();
        h.observe(0); // bucket 0
        h.observe(1); // bucket 1 (1 < 2^1)
        h.observe(2); // bucket 2
        h.observe(3); // bucket 2 (3 < 2^2)
        h.observe(4); // bucket 3
        h.observe(u64::MAX); // clamped to last bucket
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[2], 2);
        assert_eq!(h.counts[3], 1);
        assert_eq!(h.counts[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, u64::MAX);
    }

    #[test]
    fn histogram_power_of_two_boundaries() {
        // Exact powers of two sit at bucket *lower* bounds: bucket 0 holds
        // only 0, bucket i >= 1 holds [2^(i-1), 2^i), and the final bucket
        // absorbs everything from 2^(HISTOGRAM_BUCKETS-2) upward.
        let mut h = Histogram::default();
        h.observe(1); // [2^0, 2^1) -> bucket 1
        h.observe(2); // [2^1, 2^2) -> bucket 2
        h.observe(1 << 62); // beyond the last bound -> catch-all
        h.observe(u64::MAX); // catch-all
        assert_eq!(h.counts[0], 0, "bucket 0 is reserved for the value 0");
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[2], 1);
        assert_eq!(h.counts[HISTOGRAM_BUCKETS - 1], 2);
        assert_eq!(h.count, 4);

        // The catch-all's lower bound itself, and the value just below it.
        let mut edge = Histogram::default();
        edge.observe((1 << (HISTOGRAM_BUCKETS - 2)) - 1);
        edge.observe(1 << (HISTOGRAM_BUCKETS - 2));
        assert_eq!(edge.counts[HISTOGRAM_BUCKETS - 2], 1);
        assert_eq!(edge.counts[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn registry_aggregates() {
        let reg = MetricsRegistry::default();
        reg.add("a", 1);
        reg.add("a", 2);
        reg.add("b", 5);
        reg.gauge("g", 0.5);
        reg.observe("h", 10);
        assert_eq!(
            reg.counters(),
            vec![("a".to_string(), 3), ("b".to_string(), 5)]
        );
        assert_eq!(reg.gauges(), vec![("g".to_string(), 0.5)]);
        let hists = reg.histograms();
        assert_eq!(hists[0].count, 1);
        assert_eq!(hists[0].mean(), 10.0);
    }

    #[test]
    fn quantile_reports_bucket_upper_bounds() {
        // Values 1..=8 land in buckets 1..=4; each quantile must come back
        // as the inclusive top of its bucket (bound - 1), clamped to max.
        let h = HistogramSnapshot::from_values("q", &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(h.quantile(0.0), 1); // rank 1 -> value 1 -> bucket 1 -> bound 2 - 1
        assert_eq!(h.quantile(0.125), 1);
        assert_eq!(h.quantile(0.25), 3); // rank 2 -> value 2 -> bucket 2 -> bound 4 - 1
        assert_eq!(h.quantile(0.5), 7); // rank 4 -> value 4 -> bucket 3 -> bound 8 - 1
        assert_eq!(h.quantile(1.0), 8); // clamped to max, not bucket 4's 15
    }

    #[test]
    fn sorted_quantile_is_the_exact_nearest_rank_value() {
        let values = [1, 2, 3, 4, 100, 100, 100, 100];
        let h = HistogramSnapshot::from_values("q", &values);
        // Same ranks as the bucket reader, exact values instead of bounds.
        for (q, exact, bound) in [(0.0, 1, 1), (0.25, 2, 3), (0.5, 4, 7), (0.9, 100, 100)] {
            assert_eq!(sorted_quantile(&values, q), exact, "q {q}");
            assert_eq!(h.quantile(q), bound, "q {q}");
        }
        assert_eq!(sorted_quantile(&[1040], 0.99), 1040);
        assert_eq!(sorted_quantile(&[], 0.5), 0);
    }

    #[test]
    fn quantile_median_rank_semantics() {
        // rank(0.5, n=8) = ceil(4) = 4 -> value 4 -> bucket 3 -> bound 8-1,
        // clamped to observed max only when smaller.
        let h = HistogramSnapshot::from_values("q", &[1, 2, 3, 4, 100, 100, 100, 100]);
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(0.9), 100); // bucket 7 bound 128-1, clamped to max 100
    }

    #[test]
    fn quantile_of_zeros_and_empty() {
        let empty = HistogramSnapshot::from_values("e", &[]);
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.quantile(0.0), 0);
        assert_eq!(empty.quantile(1.0), 0);
        let zeros = HistogramSnapshot::from_values("z", &[0, 0, 0]);
        assert_eq!(zeros.quantile(0.99), 0, "bucket 0 holds exactly 0");
        assert_eq!(zeros.quantile(0.0), 0);
        assert_eq!(zeros.quantile(1.0), 0);
    }

    #[test]
    fn quantile_of_saturated_top_bucket() {
        // Every observation lands in the final catch-all bucket, whose
        // exclusive bound is u64::MAX: the max-clamp must collapse each
        // quantile to the observed max, not the infinite bound.
        let top = 1u64 << (HISTOGRAM_BUCKETS as u32 - 2);
        let h = HistogramSnapshot::from_values("sat", &[top, top + 7, u64::MAX]);
        assert_eq!(h.counts[HISTOGRAM_BUCKETS - 1], 3);
        // The catch-all's cap is `u64::MAX - 1` (exclusive bound minus
        // one), so even a u64::MAX observation reports one below it —
        // the single value the scheme cannot represent exactly.
        assert_eq!(h.quantile(0.0), u64::MAX - 1);
        assert_eq!(h.quantile(0.5), u64::MAX - 1);
        assert_eq!(h.quantile(1.0), u64::MAX - 1);

        // Same shape without a u64::MAX member: clamp to the true max.
        let h = HistogramSnapshot::from_values("sat2", &[top, top + 7]);
        assert_eq!(h.quantile(0.5), top + 7);
        assert_eq!(h.quantile(1.0), top + 7);
    }

    #[test]
    fn quantile_clamps_out_of_range_q() {
        let h = HistogramSnapshot::from_values("c", &[5, 6, 7]);
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(42.0), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0), "NaN clamps low");
    }

    #[test]
    fn bucket_upper_bounds_match_observe() {
        // Every value must satisfy value < bucket_upper_bound(bucket(value)).
        for v in [0u64, 1, 2, 3, 4, 255, 256, u64::MAX] {
            let h = HistogramSnapshot::from_values("b", &[v]);
            let bucket = h.counts.iter().position(|&c| c > 0).unwrap();
            if bucket < HISTOGRAM_BUCKETS - 1 {
                assert!(v < HistogramSnapshot::bucket_upper_bound(bucket), "{v}");
            } else {
                assert_eq!(HistogramSnapshot::bucket_upper_bound(bucket), u64::MAX);
            }
        }
    }

    #[test]
    fn empty_histogram_snapshot_min_is_zero() {
        let reg = MetricsRegistry::default();
        reg.observe("h", 3);
        let h = &reg.histograms()[0];
        assert_eq!((h.min, h.max), (3, 3));
    }
}
