//! What the harness needs from a workload, and the catalog of the four.

use ggpu_core::{GpuConfig, Scale};
use ggpu_serve::ServeMetrics;
use ggpu_sim::RunStats;

use crate::gate::Gate;
use crate::metrics::Values;
use crate::trace::Tracer;

/// The engine is pinned to one thread whatever `GGPU_SIM_THREADS` says:
/// the serial engine is the product (ROADMAP item 3), and a 2-thread
/// barrier engine on 2 shared vCPUs measures the host scheduler.
pub const SIM_THREADS: usize = 1;

/// Everything simulated that one pass produced. Deterministic: the gate
/// demands it be equal (`==`) across all passes of a run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PassObs {
    /// Device counters, merged over the pass's jobs.
    pub stats: RunStats,
    /// Cycles the engine fast-forwarded over; `None` where the layer's
    /// public API does not show them (`ggpu_serve::Service`).
    pub ff_skipped: Option<u64>,
    /// Simulated submit-to-completion cycles of the jobs the latency
    /// quantiles are taken over.
    pub latencies: Vec<u64>,
    /// Jobs offered in the pass.
    pub offered: u64,
    /// Jobs that completed with a verified output.
    pub served: u64,
    /// `ServeMetrics` of each serve phase; empty on suite workloads.
    pub serve: Vec<ServeMetrics>,
}

impl PassObs {
    /// What a pass of `jobs` device jobs (one fresh `Gpu` each) starts
    /// from.
    pub fn of_device_jobs(jobs: usize) -> Self {
        PassObs {
            ff_skipped: Some(0),
            offered: jobs as u64,
            ..PassObs::default()
        }
    }

    /// Count one finished device job. The counters are merged when all
    /// have run (`merge`), in catalog order whatever order they ran in.
    pub fn job_done(&mut self, verified: bool, ff_skipped: u64) {
        self.served += u64::from(verified);
        *self.ff_skipped.get_or_insert(0) += ff_skipped;
    }

    /// Fold the jobs' counters, given in catalog order; a job's simulated
    /// latency is its total cycles.
    pub fn merge(&mut self, per_job: &[RunStats]) {
        for s in per_job {
            self.latencies.push(s.total_cycles());
            self.stats.merge(s);
        }
    }
}

/// Host seconds of one pass: for each job, in catalog order, the seconds
/// of each of its timed units, in the order the job runs them. A unit is
/// the smallest call sequence the job can time from outside (a whole
/// `Benchmark::run`, one scheduling round of the service).
pub type JobTimes = Vec<Vec<f64>>;

/// A fixed list of jobs; a pass runs every job once.
pub trait Workload: Sized {
    /// Build inputs and expectations. This is what `setup_s` times.
    fn setup(entry: &'static Entry, seed: u64, smoke: bool) -> Self;

    /// Untimed: the benchmark's own expectations (CPU oracle), where
    /// `setup` does not already produce them.
    fn prepare(&mut self) {}

    /// The per-layer metric that holds each job's seconds, in catalog
    /// order.
    fn job_metrics(&self) -> Vec<String>;

    /// Run every job once, in `order`. Returns the host seconds of every
    /// unit and what the pass simulated. Counts every operation in `gate`.
    fn pass(&self, order: &[usize], tracer: &mut Tracer, gate: &mut Gate) -> (JobTimes, PassObs);

    /// Per-layer metrics only this workload can produce (traced run).
    fn trace_extras(&self, _first: &PassObs, _values: &mut Values, _gate: &mut Gate) {}
}

/// The simulated device a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// `GpuConfig::rtx3070()`, the paper's 78-SM baseline.
    Baseline,
    /// `GpuConfig::test_small()`: 4 SMs, 2 partitions; the device
    /// `ggpu-serve` runs on.
    Small,
    /// `Small` with the L1 switched off (the Figure 14 no-L1 point), so
    /// every access crosses the NoC to L2.
    SmallNoL1,
    /// `Baseline` with the L1 switched off.
    BaselineNoL1,
}

impl Device {
    /// The configuration, with the engine pinned to one thread.
    pub fn config(self) -> GpuConfig {
        let (base, l1) = match self {
            Device::Baseline => (GpuConfig::rtx3070(), true),
            Device::BaselineNoL1 => (GpuConfig::rtx3070(), false),
            Device::Small => (GpuConfig::test_small(), true),
            Device::SmallNoL1 => (GpuConfig::test_small(), false),
        };
        let base = base.with_sim_threads(SIM_THREADS);
        if l1 {
            base
        } else {
            base.with_cache_sizes(0, 4 << 20)
        }
    }
}

/// One suite job: a Table III benchmark at a scale, with or without CDP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteJob {
    pub abbrev: &'static str,
    pub scale: Scale,
    pub cdp: bool,
}

const fn tiny(abbrev: &'static str, cdp: bool) -> SuiteJob {
    SuiteJob {
        abbrev,
        scale: Scale::Tiny,
        cdp,
    }
}

const fn small(abbrev: &'static str, cdp: bool) -> SuiteJob {
    SuiteJob {
        abbrev,
        scale: Scale::Small,
        cdp,
    }
}

/// How a catalog entry is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The four GASAL2 alignment kernels through the benchmark's own host
    /// driver (`dp.rs`), each one grid that fills `Device::Small`.
    Dense,
    /// Suite benchmarks through `Benchmark::run`.
    Suite {
        jobs: &'static [SuiteJob],
        device: Device,
    },
    /// `ggpu_serve::Service` under an open-loop job mix.
    Serve,
}

/// One workload of the catalog.
#[derive(Debug)]
pub struct Entry {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    pub kind: Kind,
    /// The same layer at figure scale: Small-scale suite jobs on a 78-SM
    /// device, each seconds long. Too long a unit to time steadily on a
    /// shared host (README, "Noise"), so the traced run times the list
    /// once and reports it as `kernels.figure_pass_s`, for information.
    pub figure_scale: Option<(&'static [SuiteJob], Device)>,
    /// What makes this workload stress the layer it was chosen for. A
    /// run whose counters no longer have that shape fails.
    pub shape: fn(&PassObs, &mut Gate),
}

fn ff_frac(o: &PassObs) -> f64 {
    o.ff_skipped.unwrap_or(0) as f64 / o.stats.host.kernel_cycles.max(1) as f64
}

fn l2_per_instr(o: &PassObs) -> f64 {
    o.stats.l2.accesses() as f64 / o.stats.sm.issued.max(1) as f64
}

fn dense_dp_shape(o: &PassObs, g: &mut Gate) {
    g.require(ff_frac(o) < 0.05, || {
        format!("dense_dp: ff_skipped_frac {} not < 0.05", ff_frac(o))
    });
    g.require(l2_per_instr(o) < 0.02, || {
        format!("dense_dp: L2/instr {} not < 0.02", l2_per_instr(o))
    });
}

fn sparse_cdp_shape(o: &PassObs, g: &mut Gate) {
    g.require(ff_frac(o) > 0.6, || {
        format!("sparse_cdp: ff_skipped_frac {} not > 0.6", ff_frac(o))
    });
    g.require(o.stats.sm.device_launches > 100, || {
        format!(
            "sparse_cdp: {} device launches, not > 100",
            o.stats.sm.device_launches
        )
    });
}

fn mem_pressure_shape(o: &PassObs, g: &mut Gate) {
    g.require(l2_per_instr(o) > 0.3, || {
        format!("mem_pressure: L2/instr {} not > 0.3", l2_per_instr(o))
    });
}

fn serve_mix_shape(o: &PassObs, g: &mut Gate) {
    let refused = |m: &ServeMetrics| m.submitted - m.completed;
    g.require(o.serve.len() == 2 && refused(&o.serve[0]) == 0, || {
        "serve_mix: the light phase refused work".into()
    });
    g.require(o.serve.len() == 2 && refused(&o.serve[1]) > 0, || {
        "serve_mix: the overload phase refused nothing".into()
    });
}

/// The four workloads. Names are final; later issues cite them.
pub const CATALOG: [Entry; 4] = [
    Entry {
        name: "dense_dp",
        why: "GG/GL/GKSW/GSG grids filling a 4-SM device, <3% of cycles idle, L2 barely touched: host time is the sm interpreter",
        kind: Kind::Dense,
        figure_scale: Some((&[small("GG", false)], Device::Baseline)),
        shape: dense_dp_shape,
    },
    Entry {
        name: "sparse_cdp",
        why: "STAR/CLUSTER/NvB with CDP on 78 SMs, 2 CTAs resident, >60% of cycles fast-forwarded: idle-unit polling and the launch path",
        kind: Kind::Suite {
            jobs: &[
                tiny("STAR", false),
                tiny("STAR", true),
                tiny("CLUSTER", false),
                tiny("CLUSTER", true),
                tiny("NvB", true),
            ],
            device: Device::Baseline,
        },
        figure_scale: Some((
            &[
                small("STAR", false),
                small("STAR", true),
                small("CLUSTER", false),
                small("CLUSTER", true),
                small("NvB", true),
            ],
            Device::Baseline,
        )),
        shape: sparse_cdp_shape,
    },
    Entry {
        name: "mem_pressure",
        why: "SW and NvB with the L1 off: every access crosses the NoC to L2/DRAM, over one L2 access per two instructions: mem and icnt",
        kind: Kind::Suite {
            jobs: &[tiny("SW", false), small("NvB", false)],
            device: Device::SmallNoL1,
        },
        figure_scale: Some((
            &[small("SW", false), small("NvB", false)],
            Device::BaselineNoL1,
        )),
        shape: mem_pressure_shape,
    },
    Entry {
        name: "serve_mix",
        why: "ggpu-serve below and past saturation: hundreds of tiny stream-scoped grids, so kernel-boundary cost shows",
        kind: Kind::Serve,
        figure_scale: None,
        shape: serve_mix_shape,
    },
];

/// Nearest-rank quantile of `sorted` (`q` in `(0, 1]`).
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=240).collect();
        assert_eq!(nearest_rank(&v, 0.5), 120);
        assert_eq!(nearest_rank(&v, 0.95), 228, "12 samples lie beyond p95");
        assert_eq!(nearest_rank(&[7], 0.95), 7);
    }

    #[test]
    fn catalog_fits_the_contract() {
        for e in &CATALOG {
            assert!(e.why.len() <= 200 && !e.why.contains('\n'), "{}", e.name);
        }
    }

    #[test]
    fn a_workload_that_lost_its_shape_fails_the_gate() {
        let mut g = Gate::default();
        // No fast-forward, no device launches: not sparse_cdp any more.
        sparse_cdp_shape(&PassObs::default(), &mut g);
        assert!(!g.correct());
        assert_eq!(g.violations.len(), 2);
    }
}
