//! Suite workloads: Table III benchmarks run through
//! `ggpu_kernels::Benchmark::run`, one call per job and per timed unit.

use std::time::Instant;

use ggpu_core::{benchmark, Benchmark, GpuConfig, RunStats};

use crate::gate::Gate;
use crate::trace::Tracer;
use crate::workload::{Device, Entry, JobTimes, Kind, PassObs, SuiteJob, Workload, SIM_THREADS};

pub struct Suite {
    config: GpuConfig,
    /// One instance per distinct (abbreviation, scale).
    benches: Vec<(SuiteJob, Box<dyn Benchmark>)>,
    /// `(index into benches, cdp)` per job.
    jobs: Vec<(usize, bool)>,
}

/// The distinct benchmarks of `list` (a benchmark at a scale, whatever its
/// CDP flag), in first-use order: each is built once.
pub fn distinct(list: &[SuiteJob]) -> Vec<SuiteJob> {
    let mut seen: Vec<SuiteJob> = Vec::new();
    for job in list {
        if !seen.iter().any(|b| same_benchmark(b, job)) {
            seen.push(*job);
        }
    }
    seen
}

fn same_benchmark(a: &SuiteJob, b: &SuiteJob) -> bool {
    (a.abbrev, a.scale) == (b.abbrev, b.scale)
}

impl Suite {
    /// `ggpu_core::benchmark` for every distinct benchmark of `list`:
    /// input synthesis and the CPU oracle. The inputs are the suite's own
    /// seeded Table III substitutes, so `--seed` only orders the jobs
    /// within a pass (the harness does that).
    pub fn new(list: &[SuiteJob], device: Device) -> Self {
        let benches: Vec<(SuiteJob, Box<dyn Benchmark>)> = distinct(list)
            .into_iter()
            .map(|b| {
                let bench = benchmark(b.scale, b.abbrev).expect("catalog names a benchmark");
                (b, bench)
            })
            .collect();
        let jobs = list
            .iter()
            .map(|job| {
                let at = benches
                    .iter()
                    .position(|(b, _)| same_benchmark(b, job))
                    .expect("every job's benchmark was built");
                (at, job.cdp)
            })
            .collect();
        Suite {
            config: device.config(),
            benches,
            jobs,
        }
    }
}

impl Workload for Suite {
    fn setup(entry: &'static Entry, _seed: u64, _smoke: bool) -> Self {
        let Kind::Suite { jobs, device } = entry.kind else {
            unreachable!("{} is not a suite workload", entry.name)
        };
        Suite::new(jobs, device)
    }

    fn job_metrics(&self) -> Vec<String> {
        self.jobs
            .iter()
            .map(|&(at, cdp)| {
                let suffix = if cdp { "-cdp" } else { "" };
                format!("kernels.job_s.{}{suffix}", self.benches[at].0.abbrev)
            })
            .collect()
    }

    fn pass(&self, order: &[usize], tracer: &mut Tracer, gate: &mut Gate) -> (JobTimes, PassObs) {
        let mut times = vec![Vec::new(); self.jobs.len()];
        let mut stats = vec![RunStats::default(); self.jobs.len()];
        let mut obs = PassObs::of_device_jobs(self.jobs.len());
        for &j in order {
            let (at, cdp) = self.jobs[j];
            let bench = &self.benches[at].1;
            tracer.set_job(j as u32);
            let t = Instant::now();
            let r = tracer.span("kernels.run", |_| bench.run(&self.config, cdp));
            times[j].push(t.elapsed().as_secs_f64());
            if r.verified {
                gate.ok(1);
            } else {
                gate.fail(format!(
                    "{}: device output differs from the CPU oracle",
                    r.detail
                ));
            }
            gate.require(r.sim_threads == SIM_THREADS, || {
                format!("{}: ran on {} engine threads", r.detail, r.sim_threads)
            });
            obs.job_done(r.verified, r.fast_forward_skipped_cycles);
            stats[j] = r.stats;
        }
        obs.merge(&stats);
        (times, obs)
    }
}
