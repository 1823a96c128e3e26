//! The benchmark's own host driver for the pairwise-alignment kernels, put
//! together from the layers' public pieces (`build_dp_kernel`,
//! `scoring_const_data`, `Gpu::new`, `malloc`, `memcpy_h2d`, `launch`,
//! `synchronize`, `memcpy_d2h`, CPU oracle), and the `dense_dp` workload
//! built on it.
//!
//! `Benchmark::run` does the same work behind one call, but only at the
//! suite's two sizes: Tiny keeps two warps resident (idle cycles, not
//! instructions, cost the host time) and a Small run takes seconds, too
//! long a unit to time steadily on a shared host. Owning the driver lets
//! the grid be sized to fill a device for a tenth of a second, and lets
//! the traced run split a job into `isa` / `sim` / `genomics` spans.

use std::time::Instant;

use ggpu_core::{GpuConfig, RunStats};
use ggpu_genomics::{
    ksw_extend, mutate, nw_score, random_genome, semiglobal_score, sw_score, GapModel, Simple,
};
use ggpu_isa::{LaunchDims, Program};
use ggpu_kernels::dp::{build_dp_kernel, scoring_const_data, DpKernelCfg, DpMode};
use ggpu_kernels::pairwise::{GAP_EXTEND, GAP_OPEN, MATCH, MISMATCH, ZDROP};
use ggpu_sim::Gpu;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gate::Gate;
use crate::trace::Tracer;
use crate::workload::{Device, Entry, JobTimes, PassObs, Workload};

/// What a job aligns and on what grid.
#[derive(Debug, Clone, Copy)]
pub struct DpShape {
    pub name: &'static str,
    pub mode: DpMode,
    /// `(CTAs, threads per CTA)`; one pair per thread and launch.
    pub dims: (u32, u32),
    /// Host launches the pairs are split over.
    pub launches: usize,
    /// Sequence lengths are drawn from `min_len..=max_len`.
    pub min_len: usize,
    pub max_len: usize,
}

impl DpShape {
    /// The shape of `PairwiseBench::sw(Scale::Small)`: 3 CTAs of 64
    /// threads, uploaded once and launched in four batches.
    pub const SW_SMALL: DpShape = DpShape {
        name: "SW",
        mode: DpMode::Local,
        dims: (3, 64),
        launches: 4,
        min_len: 16,
        max_len: 28,
    };

    /// One grid of 4 CTAs x 128 threads, one CTA and four warps per SM of
    /// `Device::Small`, aligning 512 pairs of 20 bases (the suite's Tiny
    /// length): about 170 k warp-instructions in a tenth of a second.
    const fn dense(name: &'static str, mode: DpMode) -> DpShape {
        DpShape {
            name,
            mode,
            dims: (4, 128),
            launches: 1,
            min_len: 20,
            max_len: 20,
        }
    }

    pub fn kernel_cfg(&self) -> DpKernelCfg {
        DpKernelCfg {
            mode: self.mode,
            max_len: self.max_len as u32,
            rows_in_smem: false,
            threads_per_cta: self.dims.1,
            matches: MATCH,
            mismatch: MISMATCH,
            open: GAP_OPEN,
            extend: GAP_EXTEND,
            shared_target: false,
            subst_matrix: None,
        }
    }
}

/// The four GASAL2 kernels, the jobs of `dense_dp`.
const DENSE_JOBS: [DpShape; 4] = [
    DpShape::dense("GG", DpMode::Global),
    DpShape::dense("GL", DpMode::Local),
    DpShape::dense("GKSW", DpMode::Extend { zdrop: ZDROP }),
    DpShape::dense("GSG", DpMode::SemiGlobal),
];

/// A job's inputs and what the CPU oracle says it returns.
pub struct DpJob {
    shape: DpShape,
    /// Pairs, `max_len` bytes apart.
    queries: Vec<u8>,
    targets: Vec<u8>,
    lens: Vec<u32>,
    expected: Vec<i64>,
}

/// What one run of a job simulated.
pub struct DpRun {
    pub stats: RunStats,
    pub ff_skipped: u64,
    /// Scores that differ from the oracle's.
    pub wrong: usize,
}

impl DpJob {
    /// Related read pairs drawn from `seed`, as `PairwiseBench` makes
    /// them, and their scores by the `ggpu-genomics` reference.
    pub fn synthesize(shape: DpShape, seed: u64, tracer: &mut Tracer) -> DpJob {
        let n = (shape.dims.0 * shape.dims.1) as usize * shape.launches;
        let stride = shape.max_len;
        let (queries, targets, lens) = tracer.span("genomics.synthesize", |_| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = vec![0u8; n * stride];
            let mut t = vec![0u8; n * stride];
            let mut lens = Vec::with_capacity(n);
            for p in 0..n {
                let len = rng.gen_range(shape.min_len..=shape.max_len);
                let qs = random_genome(len, &mut rng);
                let ts = mutate(&qs, 0.08, 0.02, &mut rng);
                let tl = ts.len().min(stride);
                q[p * stride..p * stride + len].copy_from_slice(qs.codes());
                t[p * stride..p * stride + tl].copy_from_slice(&ts.codes()[..tl]);
                lens.push(len.min(tl) as u32);
            }
            (q, t, lens)
        });
        let expected = tracer.span("genomics.oracle", |_| {
            let subst = Simple::new(MATCH, MISMATCH);
            let gaps = GapModel::Affine {
                open: GAP_OPEN,
                extend: GAP_EXTEND,
            };
            lens.iter()
                .enumerate()
                .map(|(p, &len)| {
                    let at = p * stride..p * stride + len as usize;
                    let (q, t) = (&queries[at.clone()], &targets[at]);
                    let score = match shape.mode {
                        DpMode::Global => nw_score(q, t, &subst, gaps),
                        DpMode::Local => sw_score(q, t, &subst, gaps),
                        DpMode::SemiGlobal => semiglobal_score(q, t, &subst, gaps),
                        DpMode::Extend { zdrop } => {
                            ksw_extend(q, t, &subst, gaps, usize::MAX, zdrop).score
                        }
                    };
                    score as i64
                })
                .collect()
        });
        DpJob {
            shape,
            queries,
            targets,
            lens,
            expected,
        }
    }

    /// Build the kernel, bring up a device, upload, launch, read back and
    /// compare, each under its own span.
    pub fn run(&self, config: &GpuConfig, tracer: &mut Tracer) -> DpRun {
        let cfg = self.shape.kernel_cfg();
        let dims = LaunchDims::linear(self.shape.dims.0, self.shape.dims.1);
        let n = self.lens.len();
        let mut program = Program::new();
        let kernel = tracer.span("isa.build_dp_kernel", |_| {
            program.add(build_dp_kernel(self.shape.name, &cfg))
        });
        let mut gpu = tracer.span("sim.Gpu::new", |_| Gpu::new(program, config.clone()));
        gpu.bind_constants(kernel, scoring_const_data(&cfg));

        let len_bytes: Vec<u8> = self.lens.iter().flat_map(|l| l.to_le_bytes()).collect();
        let (q, t, lenp, out) = tracer.span("sim.malloc", |_| {
            (
                gpu.malloc(self.queries.len() as u64),
                gpu.malloc(self.targets.len() as u64),
                gpu.malloc(len_bytes.len() as u64),
                gpu.malloc(n as u64 * 8),
            )
        });
        tracer.span("sim.memcpy_h2d", |_| {
            gpu.memcpy_h2d(q, &self.queries);
            gpu.memcpy_h2d(t, &self.targets);
            gpu.memcpy_h2d(lenp, &len_bytes);
        });
        let per_launch = dims.total_threads() as usize;
        for launch in 0..self.shape.launches {
            let (start, end) = (launch * per_launch, (launch + 1) * per_launch);
            // The DP kernel's ABI: bases, bounds, thread stride, lengths, and
            // two words only the shared-target variants read.
            let params = [
                q.0,
                t.0,
                out.0,
                end as u64,
                start as u64,
                dims.total_threads(),
                lenp.0,
                0,
                0,
            ];
            tracer.span("sim.launch", |_| gpu.launch(kernel, dims, &params));
            tracer.span("sim.synchronize", |_| gpu.synchronize());
        }
        let raw = tracer.span("sim.memcpy_d2h", |_| gpu.memcpy_d2h(out, n * 8));
        let wrong = raw
            .chunks_exact(8)
            .zip(&self.expected)
            .filter(|(got, want)| i64::from_le_bytes((*got).try_into().expect("8 bytes")) != **want)
            .count();
        DpRun {
            stats: gpu.stats(),
            ff_skipped: gpu.fast_forward_skipped_cycles(),
            wrong,
        }
    }
}

/// The traced run's split of one suite-shaped job (SW as the suite's Small
/// scale runs it, on the 78-SM baseline) into `isa` / `sim` / `genomics`
/// spans. Any score that differs from the oracle fails `gate`.
pub fn traced_sw(seed: u64, tracer: &mut Tracer, gate: &mut Gate) {
    tracer.span("harness.sw_driver", |t| {
        let job = DpJob::synthesize(DpShape::SW_SMALL, seed, t);
        count(&job, &job.run(&Device::Baseline.config(), t), gate);
    });
}

fn count(job: &DpJob, run: &DpRun, gate: &mut Gate) {
    if run.wrong == 0 {
        gate.ok(1);
    } else {
        gate.fail(format!(
            "{}: {} of {} scores differ from the CPU oracle",
            job.shape.name,
            run.wrong,
            job.lens.len()
        ));
    }
}

/// `dense_dp`: the four GASAL2 kernels, each one device-filling grid.
pub struct Dense {
    config: GpuConfig,
    jobs: Vec<DpJob>,
}

impl Workload for Dense {
    /// `--seed` draws every pair, so every seed aligns other sequences of
    /// the same lengths.
    fn setup(_entry: &'static Entry, seed: u64, _smoke: bool) -> Self {
        let mut off = Tracer::new(false);
        Dense {
            config: Device::Small.config(),
            jobs: DENSE_JOBS
                .iter()
                .zip(0u64..)
                .map(|(shape, i)| {
                    DpJob::synthesize(*shape, seed.wrapping_mul(4).wrapping_add(i), &mut off)
                })
                .collect(),
        }
    }

    fn job_metrics(&self) -> Vec<String> {
        self.jobs
            .iter()
            .map(|j| format!("kernels.job_s.{}", j.shape.name))
            .collect()
    }

    fn pass(&self, order: &[usize], tracer: &mut Tracer, gate: &mut Gate) -> (JobTimes, PassObs) {
        let mut times = vec![Vec::new(); self.jobs.len()];
        let mut stats = vec![RunStats::default(); self.jobs.len()];
        let mut obs = PassObs::of_device_jobs(self.jobs.len());
        for &j in order {
            tracer.set_job(j as u32);
            let t = Instant::now();
            let run = tracer.span("harness.dp_job", |t| self.jobs[j].run(&self.config, t));
            times[j].push(t.elapsed().as_secs_f64());
            count(&self.jobs[j], &run, gate);
            obs.job_done(run.wrong == 0, run.ff_skipped);
            stats[j] = run.stats;
        }
        obs.merge(&stats);
        (times, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mode_matches_its_oracle_and_a_wrong_expectation_fires_the_gate() {
        let config = Device::Small.config();
        let mut off = Tracer::new(false);
        for shape in DENSE_JOBS {
            // A quarter of the grid keeps the unoptimised test quick.
            let shape = DpShape {
                dims: (1, 128),
                ..shape
            };
            let mut job = DpJob::synthesize(shape, 9, &mut off);
            let mut gate = Gate::default();
            count(&job, &job.run(&config, &mut off), &mut gate);
            assert!(gate.correct(), "{}: {:?}", shape.name, gate.violations);

            job.expected[5] += 1;
            let mut gate = Gate::default();
            count(&job, &job.run(&config, &mut off), &mut gate);
            assert!(!gate.correct());
            assert_eq!((gate.attempted, gate.failed), (1, 1));
            assert!(
                gate.violations[0].contains("1 of 128"),
                "{:?}",
                gate.violations
            );
        }
    }
}
