//! The measurement protocol, the same for every workload.
//!
//! One process, one thread, nothing running beside the timed code.
//! Set-up (timed in blocks) → one untimed warm-up pass →
//! timed passes until the budget is spent. A job is timed in *units*, the
//! smallest call sequences it can time from outside, each a few tens to a
//! few hundreds of milliseconds; a unit's time is the 5th percentile of
//! its samples over the passes, a job's time the sum of its units' and
//! `pass_s` the sum of the jobs'.
//!
//! Why: on a shared host the noise is other tenants' cache and memory
//! traffic. It only ever adds, it comes in bursts with quiet gaps of tens
//! of milliseconds between them, and in phases of minutes in which the
//! bursts are dense. A unit short enough to fit the gaps, sampled dozens
//! of times, finds them in any phase; a seconds-long unit sampled seven
//! times does not (README, "Noise"). The 5th percentile, not the minimum:
//! the lower tail has no hard floor, so the minimum of many samples is an
//! extreme value and moves more than a low quantile does. No
//! reference-kernel normalisation and no calibration thread: the first
//! correlates too weakly with pass time to help, the second slows the
//! sibling hyper-thread by a fifth.

use std::path::PathBuf;
use std::time::Instant;

use ggpu_bench::measure::stats::median;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dp::Dense;
use crate::gate::Gate;
use crate::metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use crate::serve::ServeMix;
use crate::suite::Suite;
use crate::trace::Tracer;
use crate::workload::{nearest_rank, Entry, Kind, PassObs, Workload};
use crate::{alloc, dp, probes, suite};

/// Set-up is timed in blocks, at least this many and for at least
/// `SETUP_S`; `setup_s` is the blocks' `unit_s`, as for any timed unit.
const SETUP_BLOCKS: usize = 9;
const SETUP_S: f64 = 0.5;
/// A set-up block repeats the set-up until it has taken this long, so
/// that a millisecond set-up is not timed by one clock read.
const SETUP_BLOCK_S: f64 = 0.02;
/// The quantile of a unit's samples that is its time.
const UNIT_QUANTILE: f64 = 0.05;
/// Timed passes of a `--smoke` run.
const SMOKE_PASSES: usize = 2;
/// A traced run spends this share of `--seconds` on untraced passes and
/// this share on traced ones; the rest is left for probes and extras.
const TRACE_UNTRACED_SHARE: f64 = 0.4;
const TRACE_TRACED_SHARE: f64 = 0.3;
/// `harness.pass_spread` above this gets a warning: the host was busy.
const SPREAD_WARN: f64 = 1.25;

pub struct Opts {
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics from an untraced one.
    pub trace: bool,
    /// Two passes, one set-up block, a sixth of the serve jobs and no
    /// figure-scale pass: a functional check, not a measurement.
    pub smoke: bool,
    /// Where the traced run writes its trace and layer table.
    pub out_dir: PathBuf,
}

/// What one workload run produced.
pub struct Report {
    pub workload: &'static str,
    /// The table `values` holds every metric of.
    pub table: &'static [MetricDef],
    pub values: Values,
    pub gate: Gate,
    pub passes: usize,
    /// Median pass over fastest pass.
    pub pass_spread: f64,
    /// Host seconds of each untraced timed pass, in the order they ran.
    pub pass_totals: Vec<f64>,
}

pub fn run(entry: &'static Entry, opts: &Opts) -> std::io::Result<Report> {
    match entry.kind {
        Kind::Dense => measure::<Dense>(entry, opts),
        Kind::Suite { .. } => measure::<Suite>(entry, opts),
        Kind::Serve => measure::<ServeMix>(entry, opts),
    }
}

/// What a run of timed passes found.
struct Timed {
    /// `[job][unit][pass]`: every sample of every unit, jobs in catalog
    /// order.
    samples: Vec<Vec<Vec<f64>>>,
    /// Each pass's summed seconds.
    totals: Vec<f64>,
    /// `(allocations, MB)` of the first pass.
    heap: (f64, f64),
}

/// Nearest-rank `UNIT_QUANTILE` of a unit's samples: the fastest when
/// there are at most twenty.
fn unit_s(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, UNIT_QUANTILE)
}

impl Timed {
    /// Each job's seconds, in catalog order.
    fn job_s(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|units| units.iter().map(|u| unit_s(u)).sum())
            .collect()
    }

    fn pass_s(&self) -> f64 {
        self.job_s().iter().sum()
    }

    fn spread(&self) -> f64 {
        median(&self.totals) / self.totals.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Run passes for `seconds` (at least two; exactly `SMOKE_PASSES` under
/// `smoke`), the jobs of each in an order drawn from `rng`. Every pass
/// must simulate exactly what `reference` did, in as many units.
fn timed_passes<W: Workload>(
    w: &W,
    opts: &Opts,
    seconds: f64,
    rng: &mut StdRng,
    reference: &PassObs,
    tracer: &mut Tracer,
    gate: &mut Gate,
) -> Timed {
    let n_jobs = w.job_metrics().len();
    let mut t = Timed {
        samples: Vec::new(),
        totals: Vec::new(),
        heap: (0.0, 0.0),
    };
    let start = Instant::now();
    loop {
        let mut order: Vec<usize> = (0..n_jobs).collect();
        for i in (1..n_jobs).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let heap0 = alloc::counters();
        let (times, obs) = w.pass(&order, tracer, gate);
        if t.totals.is_empty() {
            let heap1 = alloc::counters();
            t.heap = (
                (heap1.0 - heap0.0) as f64,
                (heap1.1 - heap0.1) as f64 / (1 << 20) as f64,
            );
            t.samples = times
                .iter()
                .map(|units| vec![Vec::new(); units.len()])
                .collect();
        }
        let same_units = times.len() == t.samples.len()
            && times
                .iter()
                .zip(&t.samples)
                .all(|(a, b)| a.len() == b.len());
        gate.require(obs == *reference && same_units, || {
            format!(
                "pass {} simulated something else than the warm-up pass",
                t.totals.len() + 1
            )
        });
        if same_units {
            for (units, kept) in times.iter().zip(&mut t.samples) {
                for (s, samples) in units.iter().zip(kept) {
                    samples.push(*s);
                }
            }
        }
        t.totals.push(times.iter().flatten().sum());
        let n = t.totals.len();
        let done = if opts.smoke {
            n >= SMOKE_PASSES
        } else {
            // Stop when another pass would overrun the budget.
            let next = t.totals.iter().copied().fold(f64::INFINITY, f64::min);
            n >= 2 && start.elapsed().as_secs_f64() + next > seconds
        };
        if done {
            return t;
        }
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn measure<W: Workload>(entry: &'static Entry, opts: &Opts) -> std::io::Result<Report> {
    let mut gate = Gate::default();
    let mut values = Values::default();

    // Set-up: a millisecond set-up gets some twenty-five blocks, a
    // 0.15 s one nine.
    let setup_start = Instant::now();
    let mut blocks = Vec::new();
    let mut w = None;
    while blocks.is_empty()
        || (!opts.smoke
            && (blocks.len() < SETUP_BLOCKS || setup_start.elapsed().as_secs_f64() < SETUP_S))
    {
        let t = Instant::now();
        let mut reps = 0;
        while reps == 0 || t.elapsed().as_secs_f64() < SETUP_BLOCK_S {
            w = Some(W::setup(entry, opts.seed, opts.smoke));
            reps += 1;
        }
        blocks.push(t.elapsed().as_secs_f64() / reps as f64);
    }
    let setup_s = unit_s(&blocks);
    let mut w = w.expect("at least one set-up block ran");
    w.prepare();

    // Warm-up: fills the allocator's and the host's caches, and is the
    // reference every later pass must reproduce.
    let catalog_order: Vec<usize> = (0..w.job_metrics().len()).collect();
    let (_, first) = w.pass(&catalog_order, &mut Tracer::new(false), &mut gate);
    if !opts.smoke {
        (entry.shape)(&first, &mut gate);
    }

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let untraced_s = opts.seconds
        * if opts.trace {
            TRACE_UNTRACED_SHARE
        } else {
            1.0
        };
    let timed = timed_passes(
        &w,
        opts,
        untraced_s,
        &mut rng,
        &first,
        &mut Tracer::new(false),
        &mut gate,
    );
    let pass_s = timed.pass_s();
    let pass_spread = timed.spread();
    if pass_spread > SPREAD_WARN {
        eprintln!(
            "warning: {}: median pass is {pass_spread:.2}x the fastest; the host was busy",
            entry.name
        );
    }
    let mut passes = timed.totals.len();

    let table = if opts.trace {
        let mut tracer = Tracer::new(true);
        let traced = timed_passes(
            &w,
            opts,
            opts.seconds * TRACE_TRACED_SHARE,
            &mut rng,
            &first,
            &mut tracer,
            &mut gate,
        );
        passes += traced.totals.len();
        dp::traced_sw(opts.seed, &mut tracer, &mut gate);
        std::fs::create_dir_all(&opts.out_dir)?;
        std::fs::write(
            opts.out_dir.join(format!("{}.trace.json", entry.name)),
            tracer.chrome_trace(),
        )?;
        std::fs::write(
            opts.out_dir.join(format!("{}.layers.txt", entry.name)),
            tracer.layer_table(),
        )?;

        layer_counters(&first, &mut values);
        let s = &first.stats;
        let ticked = first
            .ff_skipped
            .map_or(0, |ff| s.host.kernel_cycles.saturating_sub(ff));
        values.set(
            "sm.host_ns_per_warp_instr",
            pass_s * 1e9 / s.sm.issued.max(1) as f64,
        );
        if ticked > 0 {
            values.set("sim.host_ns_per_ticked_cycle", pass_s * 1e9 / ticked as f64);
        }
        for (name, secs) in w.job_metrics().iter().zip(timed.job_s()) {
            values.set_owned(PER_LAYER, name, secs);
        }
        if let Kind::Suite { jobs, .. } = entry.kind {
            let built = suite::distinct(jobs).len();
            values.set("core.benchmark_s", setup_s / built as f64);
        }
        if let (Some((jobs, device)), false) = (entry.figure_scale, opts.smoke) {
            let suite = Suite::new(jobs, device);
            let order: Vec<usize> = (0..jobs.len()).collect();
            let (times, _) = suite.pass(&order, &mut Tracer::new(false), &mut gate);
            values.set("kernels.figure_pass_s", times.iter().flatten().sum());
        }
        probes::run(&mut values, if opts.smoke { 1 } else { 3 });
        w.trace_extras(&first, &mut values, &mut gate);
        values.set("harness.pass_spread", pass_spread);
        values.set("harness.trace_overhead", traced.pass_s() / pass_s);
        values.set("harness.allocs_per_pass", timed.heap.0);
        values.set("harness.alloc_mb_per_pass", timed.heap.1);
        PER_LAYER
    } else {
        let cycles = first.stats.host.kernel_cycles as f64;
        values.set("pass_s", pass_s);
        values.set("sim_cycles_per_s", cycles / pass_s);
        values.set("goodput_rps", first.served as f64 / pass_s);
        values.set("sim_kernel_cycles", cycles);
        let mut lat = first.latencies.clone();
        lat.sort_unstable();
        values.set("sim_lat_p50_cycles", nearest_rank(&lat, 0.5) as f64);
        values.set("sim_lat_p95_cycles", nearest_rank(&lat, 0.95) as f64);
        values.set("served_frac", first.served as f64 / first.offered as f64);
        values.set("setup_s", setup_s);
        values.set("peak_rss_mb", peak_rss_mb());
        END_TO_END
    };
    values.check_against(table, !opts.trace);

    Ok(Report {
        workload: entry.name,
        table,
        values,
        gate,
        passes,
        pass_spread,
        pass_totals: timed.totals,
    })
}

/// The exact counters of one pass, by layer.
fn layer_counters(o: &PassObs, v: &mut Values) {
    let s = &o.stats;
    v.set("sm.warp_instrs", s.sm.issued as f64);
    v.set("sm.thread_instrs", s.sm.thread_instrs as f64);
    v.set("sm.stall_cycles", s.sm.stalls.total() as f64);
    v.set("sm.ipc", s.ipc());
    v.set("mem.l1_accesses", s.l1.accesses() as f64);
    v.set("mem.l1_miss_rate", s.l1.miss_rate());
    v.set("mem.l2_accesses", s.l2.accesses() as f64);
    v.set("mem.l2_miss_rate", s.l2.miss_rate());
    v.set("mem.dram_requests", s.dram.requests as f64);
    v.set("mem.dram_row_hit_rate", s.dram.row_hit_rate());
    v.set("icnt.req_packets", s.icnt_req.packets as f64);
    v.set("icnt.rep_packets", s.icnt_rep.packets as f64);
    let packets = s.icnt_req.packets + s.icnt_rep.packets;
    v.set(
        "icnt.avg_latency_cycles",
        (s.icnt_req.total_latency + s.icnt_rep.total_latency) as f64 / packets.max(1) as f64,
    );
    if let Some(ff) = o.ff_skipped {
        v.set("sim.ticked_cycles", (s.host.kernel_cycles - ff) as f64);
        v.set(
            "sim.ff_skipped_frac",
            ff as f64 / s.host.kernel_cycles.max(1) as f64,
        );
    }
    v.set("sim.host_launches", s.host.kernel_launches as f64);
    v.set("sim.device_launches", s.sm.device_launches as f64);
    v.set("sim.pci_transfers", s.host.pci_count as f64);
    v.set("sim.pci_cycles", s.host.pci_cycles as f64);
    if !o.serve.is_empty() {
        let sum =
            |f: fn(&ggpu_serve::ServeMetrics) -> u64| o.serve.iter().map(f).sum::<u64>() as f64;
        v.set("serve.rounds", sum(|m| m.rounds));
        v.set("serve.batches_launched", sum(|m| m.batches_launched));
        v.set(
            "serve.jobs_per_batch",
            sum(|m| m.completed) / sum(|m| m.batches_launched).max(1.0),
        );
        v.set("serve.retries", sum(|m| m.retries));
        v.set(
            "serve.queue_depth_hwm",
            o.serve.iter().map(|m| m.queue_depth_hwm).max().unwrap_or(0) as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::unit_s;

    #[test]
    fn a_unit_is_its_fifth_percentile_and_its_fastest_sample_up_to_twenty() {
        let samples: Vec<f64> = (1..=7).rev().map(f64::from).collect();
        assert_eq!(unit_s(&samples), 1.0);
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(unit_s(&samples), 1.0);
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(unit_s(&samples), 2.0, "one lucky sample does not set it");
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(unit_s(&samples), 5.0);
    }
}
