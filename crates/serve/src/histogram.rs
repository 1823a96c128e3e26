//! Dependency-free log-bucketed latency histograms (HDR-style).
//!
//! Values are cycle counts. Buckets follow the classic HDR layout: 8
//! linear sub-buckets per power-of-two octave, so every bucket's width is
//! at most 12.5% of its lower bound and percentile readouts carry a
//! bounded relative error. Values below 8 get exact unit buckets.
//!
//! Everything here is integer arithmetic over deterministic cycle counts,
//! so recorded histograms are bit-identical from run to run.

use ggpu_sim::json::JsonWriter;

/// Sub-bucket resolution: `1 << SUB_BITS` linear buckets per octave.
const SUB_BITS: u32 = 3;
/// Buckets per octave.
const SUBS: u64 = 1 << SUB_BITS;

/// Bucket index for a value (total order, contiguous from 0).
fn index_of(v: u64) -> usize {
    if v < SUBS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let block = (msb - SUB_BITS + 1) as u64;
    let sub = (v >> (msb - SUB_BITS)) & (SUBS - 1);
    (block * SUBS + sub) as usize
}

/// Inclusive lower bound of bucket `i`.
fn bucket_low(i: usize) -> u64 {
    let i = i as u64;
    if i < SUBS {
        return i;
    }
    let block = i / SUBS;
    let sub = i % SUBS;
    (SUBS + sub) << (block - 1)
}

/// Inclusive upper bound of bucket `i`.
fn bucket_high(i: usize) -> u64 {
    let next = i + 1;
    // The last representable bucket tops out at u64::MAX (its successor's
    // lower bound would be 2^64).
    if (next as u64) / SUBS >= 62 {
        return u64::MAX;
    }
    bucket_low(next) - 1
}

/// A log-bucketed histogram over `u64` cycle counts.
///
/// Tracks exact `count`, `sum`, `min`, and `max` alongside the buckets;
/// percentiles are read from the bucket scan and clamped to `[min, max]`,
/// so the maximum relative error of any quantile is `1 / 2^SUB_BITS`
/// (12.5%).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket occupancy, indexed by [`index_of`]; grown lazily.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record one value.
    pub(crate) fn record(&mut self, v: u64) {
        let i = index_of(v);
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum recorded value (0 when empty).
    pub(crate) fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at percentile `p` (0–100): the upper bound of the bucket
    /// holding the `ceil(p/100 * count)`-th recorded value, clamped to
    /// `[min, max]`. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bucket_high(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Occupied buckets as `(low, high, count)` triples, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_low(i), bucket_high(i), n))
            .collect()
    }

    /// Serialize as a standalone JSON object: exact summary stats, the
    /// standard percentile ladder, and the occupied buckets.
    pub(crate) fn to_json(&self) -> String {
        JsonWriter::object(|w| {
            w.u64("count", self.count)
                .u64("sum", self.sum)
                .u64("min", self.min())
                .u64("max", self.max())
                .u64("p50", self.percentile(50.0))
                .u64("p90", self.percentile(90.0))
                .u64("p99", self.percentile(99.0));
            w.begin_arr_key("buckets");
            for (low, high, n) in self.nonzero_buckets() {
                w.elem_raw(&format!("{{\"low\":{low},\"high\":{high},\"count\":{n}}}"));
            }
            w.end_arr();
        })
    }
}

/// The four per-request latency stages the service measures, each in
/// deterministic device cycles.
///
/// Stage definitions (all cycle timestamps read from [`ggpu_sim::Gpu::cycle`]):
///
/// * `queue_wait` — admission to first batch assignment. Recorded for
///   every job that reaches a batch.
/// * `batch_formation` — first batch assignment to first device launch.
///   Recorded for every job whose batch launches at least once.
/// * `device_exec` — kernel start to retire of the final successful grid,
///   joined through [`ggpu_sim::KernelRecord`]. Recorded for completed
///   jobs only.
/// * `e2e` — admission to terminal outcome. Recorded for **every**
///   admitted job, so its count telescopes exactly to
///   `completed + failed + deadline_exceeded + shed`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Admission → first batch assignment.
    pub queue_wait: Histogram,
    /// First batch assignment → first launch.
    pub batch_formation: Histogram,
    /// Final grid start → retire (completed jobs).
    pub device_exec: Histogram,
    /// Admission → terminal outcome (every admitted job).
    pub e2e: Histogram,
}

impl LatencyStats {
    /// Serialize the four stage histograms as one JSON object.
    pub(crate) fn to_json(&self) -> String {
        JsonWriter::object(|w| {
            w.raw("queue_wait", &self.queue_wait.to_json())
                .raw("batch_formation", &self.batch_formation.to_json())
                .raw("device_exec", &self.device_exec.to_json())
                .raw("e2e", &self.e2e.to_json());
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_sim::json::Json;

    #[test]
    fn buckets_are_contiguous_and_ordered() {
        // Every value lands in exactly one bucket whose bounds contain it,
        // and indices are monotone in the value.
        let mut prev = 0usize;
        for v in (0..4096u64).chain([1 << 20, u64::MAX / 3, u64::MAX]) {
            let i = index_of(v);
            assert!(bucket_low(i) <= v && v <= bucket_high(i), "v={v} i={i}");
            assert!(i >= prev || v < 4096, "index must be monotone");
            if v < 4096 {
                prev = i;
            }
        }
        // Bucket bounds tile the u64 range without gaps.
        for i in 0..200 {
            assert_eq!(bucket_high(i) + 1, bucket_low(i + 1), "gap at {i}");
        }
    }

    #[test]
    fn small_values_are_exact_and_large_within_bound() {
        let mut h = Histogram::new();
        for v in [0, 1, 5, 7] {
            h.record(v);
        }
        assert_eq!(h.percentile(100.0), 7);
        assert_eq!(h.min(), 0);
        let mut h = Histogram::new();
        h.record(1000);
        let p = h.percentile(50.0);
        // Within one sub-bucket (12.5%) — and clamped to max here.
        assert_eq!(p, 1000);
        h.record(3000);
        let p99 = h.percentile(99.0);
        assert!(p99 >= 3000 && (p99 - 3000) as f64 <= 0.125 * 3000.0);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 0, "p{p} of an empty histogram");
        }
        assert!(h.nonzero_buckets().is_empty());
        let v = Json::parse(&h.to_json()).expect("well-formed");
        assert_eq!(v.get("count").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn single_sample_pins_every_quantile() {
        let mut h = Histogram::new();
        h.record(12_345);
        assert_eq!(h.count(), 1);
        assert_eq!((h.min(), h.max()), (12_345, 12_345));
        assert_eq!(h.mean(), 12_345.0);
        // With one sample the clamp to [min, max] makes every quantile
        // exact, not just within the sub-bucket bound.
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 12_345, "p{p}");
        }
        assert_eq!(h.nonzero_buckets().len(), 1);
    }

    #[test]
    fn top_bucket_saturates_at_u64_max() {
        // Values at the top of the u64 range land in the final bucket,
        // whose upper bound saturates to u64::MAX instead of overflowing.
        let i = index_of(u64::MAX);
        assert_eq!(bucket_high(i), u64::MAX);
        let mut h = Histogram::new();
        for v in [u64::MAX, u64::MAX - 1, u64::MAX / 2 + 1] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), u64::MAX / 2 + 1);
        assert_eq!(h.percentile(100.0), u64::MAX);
        // The sum saturates rather than wrapping.
        assert_eq!(h.sum(), u64::MAX);
        // Bucket occupancy still telescopes to the count.
        let total: u64 = h.nonzero_buckets().iter().map(|&(_, _, n)| n).sum();
        assert_eq!(total, 3);
        for (low, high, _) in h.nonzero_buckets() {
            assert!(low <= high, "bucket bounds stay ordered at the top");
        }
    }

    #[test]
    fn json_is_well_formed() {
        let mut h = Histogram::new();
        for v in [3, 900, 901, 40_000] {
            h.record(v);
        }
        let v = Json::parse(&h.to_json()).expect("well-formed");
        assert_eq!(v.get("count").and_then(Json::as_u64), Some(4));
        let buckets = v.get("buckets").and_then(Json::as_arr).expect("buckets");
        let total: u64 = buckets
            .iter()
            .filter_map(|b| b.get("count").and_then(Json::as_u64))
            .sum();
        assert_eq!(total, 4, "bucket counts telescope to the total");
    }
}
