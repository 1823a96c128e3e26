//! The metric tables: every name the benchmark prints, with its unit, the
//! direction that is better and, for end-to-end metrics, the regression
//! bound. `BENCHMARK.json` is generated from these tables (`ggpu-benchmark
//! manifest`), so the file and the program cannot drift apart.

use std::collections::BTreeMap;

use ggpu_sim::json::JsonWriter;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn tag(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    /// End-to-end metrics only; per-layer metrics carry no bound.
    pub bound: f64,
    /// Simulated, not host-timed: bit-identical across passes and across
    /// invocations with the same seed. `agree` demands equality to the
    /// digit, whatever `bound` says.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact,
    }
}

use Better::{Higher, Lower};

/// Bound of the host-time metrics: three times the widest quartile spread
/// the builder's A/A runs showed on a 2-vCPU shared sandbox (2.3–6.4 % of
/// the median over ten seeds; README, "Recorded A/A"). What is left after
/// the short units and the low quantile is drift of the host's speed over
/// minutes, which no statistic of one run removes.
const HOST_BOUND: f64 = 0.20;
/// Bound of the simulated ("exact") metrics. They are bit-identical at
/// one seed; across seeds `dense_dp` and `serve_mix` redraw sequence
/// contents and move them by ~0.1 %, so 1 % is a same-results fence with
/// room to spare.
const EXACT_BOUND: f64 = 0.01;

/// What a user of the simulator sees. Printed by every `--trace 0` run.
pub const END_TO_END: &[MetricDef] = &[
    e2e("pass_s", "s", Lower, HOST_BOUND, false),
    e2e("sim_cycles_per_s", "cycles/s", Higher, HOST_BOUND, false),
    e2e("goodput_rps", "1/s", Higher, HOST_BOUND, false),
    e2e("sim_kernel_cycles", "cycles", Lower, EXACT_BOUND, true),
    e2e("sim_lat_p50_cycles", "cycles", Lower, EXACT_BOUND, true),
    e2e("sim_lat_p95_cycles", "cycles", Lower, EXACT_BOUND, true),
    e2e("served_frac", "fraction", Higher, EXACT_BOUND, true),
    e2e("setup_s", "s", Lower, 0.25, false),
    // 5–10 MB processes: the allocator's page-level luck is 1–4 % of that.
    e2e("peak_rss_mb", "MB", Lower, 0.15, false),
];

/// Single layers. Printed by every `--trace 1` run; a metric that does
/// not apply to the workload (or cannot be observed through the layer's
/// public API) reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Counters read from `RunStats` / `ServeMetrics` after one pass.
    layer("sm.warp_instrs", "count", Lower, true),
    layer("sm.thread_instrs", "count", Lower, true),
    layer("sm.stall_cycles", "cycles", Lower, true),
    layer("sm.ipc", "instr/cycle", Higher, true),
    layer("mem.l1_accesses", "count", Lower, true),
    layer("mem.l1_miss_rate", "fraction", Lower, true),
    layer("mem.l2_accesses", "count", Lower, true),
    layer("mem.l2_miss_rate", "fraction", Lower, true),
    layer("mem.dram_requests", "count", Lower, true),
    layer("mem.dram_row_hit_rate", "fraction", Higher, true),
    layer("icnt.req_packets", "count", Lower, true),
    layer("icnt.rep_packets", "count", Lower, true),
    layer("icnt.avg_latency_cycles", "cycles", Lower, true),
    layer("sim.ticked_cycles", "cycles", Lower, true),
    layer("sim.ff_skipped_frac", "fraction", Higher, true),
    layer("sim.host_launches", "count", Lower, true),
    layer("sim.device_launches", "count", Lower, true),
    layer("sim.pci_transfers", "count", Lower, true),
    layer("sim.pci_cycles", "cycles", Lower, true),
    layer("serve.rounds", "count", Lower, true),
    layer("serve.batches_launched", "count", Lower, true),
    layer("serve.jobs_per_batch", "jobs", Higher, true),
    layer("serve.retries", "count", Lower, true),
    layer("serve.queue_depth_hwm", "jobs", Lower, true),
    layer("serve.max_ok_per_round", "jobs/round", Higher, true),
    // Host cost per simulated event and per job (noisy, informational).
    layer("sm.host_ns_per_warp_instr", "ns", Lower, false),
    layer("sim.host_ns_per_ticked_cycle", "ns", Lower, false),
    layer("kernels.job_s.GG", "s", Lower, false),
    layer("kernels.job_s.GL", "s", Lower, false),
    layer("kernels.job_s.GKSW", "s", Lower, false),
    layer("kernels.job_s.GSG", "s", Lower, false),
    layer("kernels.job_s.STAR", "s", Lower, false),
    layer("kernels.job_s.STAR-cdp", "s", Lower, false),
    layer("kernels.job_s.CLUSTER", "s", Lower, false),
    layer("kernels.job_s.CLUSTER-cdp", "s", Lower, false),
    layer("kernels.job_s.NvB-cdp", "s", Lower, false),
    layer("kernels.job_s.SW", "s", Lower, false),
    layer("kernels.job_s.NvB", "s", Lower, false),
    layer("serve.job_s.light", "s", Lower, false),
    layer("serve.job_s.overload", "s", Lower, false),
    layer("kernels.figure_pass_s", "s", Lower, false),
    layer("core.benchmark_s", "s", Lower, false),
    // Layer probes: fastest of K timed calls on fixed synthetic inputs.
    layer("isa.build_dp_kernel_us", "us", Lower, false),
    layer("sm.standalone_ns_per_instr", "ns", Lower, false),
    layer("sm.coalesce_ns", "ns", Lower, false),
    layer("mem.cache_hit_ns", "ns", Lower, false),
    layer("mem.cache_miss_fill_ns", "ns", Lower, false),
    layer("mem.dram_req_ns", "ns", Lower, false),
    layer("icnt.send_ns", "ns", Lower, false),
    layer("icnt.queue_op_ns", "ns", Lower, false),
    layer("sim.gpu_new_ms", "ms", Lower, false),
    layer("sim.gpu_new_small_ms", "ms", Lower, false),
    layer("sim.memcpy_h2d_ns_per_kb", "ns", Lower, false),
    layer("sim.empty_kernel_us", "us", Lower, false),
    layer("sim.idle_cycle_ns", "ns", Lower, false),
    layer("sim.default_over_serial", "ratio", Lower, false),
    layer("sim.default_threads", "count", Lower, false),
    layer("genomics.sw_cell_ns", "ns", Lower, false),
    layer("genomics.fm_build_us", "us", Lower, false),
    layer("serve.service_new_ms", "ms", Lower, false),
    layer("serve.submit_ns", "ns", Lower, false),
    layer("serve.idle_round_us", "us", Lower, false),
    layer("serve.report_ms", "ms", Lower, false),
    // The harness itself.
    layer("harness.pass_spread", "ratio", Lower, false),
    layer("harness.trace_overhead", "ratio", Lower, false),
    layer("harness.allocs_per_pass", "count", Lower, false),
    layer("harness.alloc_mb_per_pass", "MB", Lower, false),
];

/// Measured values, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn set_owned(&mut self, table: &[MetricDef], name: &str, value: f64) {
        let def = table
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        self.0.insert(def.name, value);
    }

    /// The value of `name`; 0 when the run did not set it (a per-layer
    /// metric that does not apply to the workload).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Panics on a name outside `table` or, with `complete`, on a metric
    /// of `table` that was never set: both are bugs in the harness.
    pub fn check_against(&self, table: &[MetricDef], complete: bool) {
        for name in self.0.keys() {
            assert!(
                table.iter().any(|d| d.name == *name),
                "metric `{name}` is not in the table"
            );
        }
        if complete {
            for d in table {
                assert!(self.0.contains_key(d.name), "metric `{}` not set", d.name);
            }
        }
    }
}

/// The result line the contract fixes: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding every metric of `table`.
pub fn result_json(
    table: &[MetricDef],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.bool("correct", correct)
        .u64("attempted", attempted)
        .u64("failed", failed);
    w.begin_obj_key("metrics");
    for d in table {
        w.begin_obj_key(d.name);
        w.f64("value", values.get(d.name)).str("unit", d.unit);
        w.end_obj();
    }
    w.end_obj();
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }
}
