//! Exact latency summaries, folded from the request trails.
//!
//! Values are cycle counts. A stage's values are sorted once and every
//! figure is read from them: count, sum, extremes, and the p50/p90/p99
//! ladder by nearest rank. Everything is integer arithmetic over
//! deterministic cycle counts, so summaries are bit-identical from run to
//! run.

use ggpu_sim::json::JsonWriter;

use crate::telemetry::JobTrail;

/// One stage's latencies over one scope, in cycles: exact count, sum
/// (saturating), extremes and nearest-rank quantiles. An empty scope reads
/// 0 throughout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of values.
    pub count: u64,
    /// Sum of the values (saturating).
    pub sum: u64,
    /// Smallest value.
    pub min: u64,
    /// Largest value.
    pub max: u64,
    /// Median, by nearest rank.
    pub p50: u64,
    /// 90th percentile, by nearest rank.
    pub p90: u64,
    /// 99th percentile, by nearest rank.
    pub p99: u64,
}

impl LatencySummary {
    /// Summarize `values`, in any order. Quantile `q` is the value of rank
    /// `ceil(q·n)`, clamped to `[1, n]`, in ascending order.
    pub(crate) fn new(mut values: Vec<u64>) -> Self {
        values.sort_unstable();
        let n = values.len();
        let rank = |q: f64| match n {
            0 => 0,
            _ => values[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
        };
        LatencySummary {
            count: n as u64,
            sum: values.iter().fold(0, |s: u64, &v| s.saturating_add(v)),
            min: values.first().copied().unwrap_or(0),
            max: values.last().copied().unwrap_or(0),
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
        }
    }

    /// Mean of the values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Serialize as a standalone JSON object.
    pub(crate) fn to_json(self) -> String {
        JsonWriter::object(|w| {
            w.u64("count", self.count)
                .u64("sum", self.sum)
                .u64("min", self.min)
                .u64("max", self.max)
                .u64("p50", self.p50)
                .u64("p90", self.p90)
                .u64("p99", self.p99);
        })
    }
}

/// The four per-request latency stages the service measures, each in
/// deterministic device cycles.
///
/// Stage definitions (all cycle timestamps read from [`ggpu_sim::Gpu::cycle`]):
///
/// * `queue_wait` — admission to first batch assignment. Counted for
///   every job that reaches a batch.
/// * `batch_formation` — first batch assignment to first device launch.
///   Counted for every job whose batch launches at least once.
/// * `device_exec` — kernel start to retire of the final successful grid,
///   joined through [`ggpu_sim::KernelRecord`]. Counted for completed
///   jobs only.
/// * `e2e` — admission to terminal outcome. Counted for **every**
///   admitted job, so its count telescopes exactly to
///   `completed + failed + deadline_exceeded + shed`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Admission → first batch assignment.
    pub queue_wait: LatencySummary,
    /// First batch assignment → first launch.
    pub batch_formation: LatencySummary,
    /// Final grid start → retire (completed jobs).
    pub device_exec: LatencySummary,
    /// Admission → terminal outcome (every admitted job).
    pub e2e: LatencySummary,
}

impl LatencyStats {
    /// The four stages' summaries over a scope's trails.
    pub(crate) fn of<'a>(trails: impl Iterator<Item = &'a JobTrail> + Clone) -> Self {
        let stage = |f: fn(&JobTrail) -> Option<u64>| {
            LatencySummary::new(trails.clone().filter_map(f).collect())
        };
        LatencyStats {
            queue_wait: stage(|t| {
                t.batch_assign_cycle
                    .map(|a| a.saturating_sub(t.submit_cycle))
            }),
            batch_formation: stage(|t| {
                t.batch_assign_cycle
                    .zip(t.first_launch_cycle)
                    .map(|(a, l)| l.saturating_sub(a))
            }),
            device_exec: stage(|t| t.device_exec),
            e2e: stage(|t| Some(t.e2e)),
        }
    }

    /// Serialize the four stage summaries as one JSON object.
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

    #[test]
    fn quantiles_are_nearest_rank_over_the_values() {
        // Reversed, so the summary has to sort.
        let s = LatencySummary::new((1..=240).rev().collect());
        assert_eq!((s.count, s.sum, s.min, s.max), (240, 240 * 241 / 2, 1, 240));
        assert_eq!((s.p50, s.p90, s.p99), (120, 216, 238));
        assert_eq!(s.mean(), 120.5);
    }

    #[test]
    fn an_empty_set_reads_zero() {
        let s = LatencySummary::new(Vec::new());
        assert_eq!(s, LatencySummary::default());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn a_single_sample_is_every_quantile() {
        let s = LatencySummary::new(vec![12_345]);
        assert_eq!(s.count, 1);
        for v in [s.sum, s.min, s.max, s.p50, s.p90, s.p99] {
            assert_eq!(v, 12_345);
        }
    }

    #[test]
    fn the_sum_saturates() {
        let s = LatencySummary::new(vec![u64::MAX, u64::MAX - 1]);
        assert_eq!((s.sum, s.min, s.p99), (u64::MAX, u64::MAX - 1, u64::MAX));
    }
}
