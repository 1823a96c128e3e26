//! `serve_mix`: `ggpu_serve::Service` under an open loop in simulated
//! time, first below saturation (`light`), then past it (`overload`).

use std::time::Instant;

use ggpu_genomics::{random_genome, sw_score, GapModel, PairHmm, Simple};
use ggpu_kernels::nvb::FmTables;
use ggpu_kernels::pairhmm::{GAP_EXT_P, GAP_OPEN_P};
use ggpu_kernels::pairwise::{GAP_EXTEND, GAP_OPEN, MATCH, MISMATCH};
use ggpu_serve::{
    traffic, AdmitError, JobId, JobKind, JobOutcome, JobOutput, Priority, ServeConfig, Service,
    Tenant,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gate::Gate;
use crate::metrics::Values;
use crate::trace::Tracer;
use crate::workload::{nearest_rank, Entry, JobTimes, PassObs, Workload, SIM_THREADS};

/// Seed of the *shape* of the job mix: which kind each job is and how
/// long its sequences are, drawn by `traffic::gen_job`. It is a constant
/// so that every `--seed` offers the same amount of work; `--seed` draws
/// the genome and every base, quality and read position. With the shapes
/// seeded too, `sim_kernel_cycles` spreads 5–12 % across seeds and host
/// time with it, which no bound under 0.25 survives (README).
const MIX_SEED: u64 = 0x6767_7075;

/// Jobs offered per phase.
const JOBS: usize = 240;
const JOBS_SMOKE: usize = 36;
/// Arrivals per scheduling round: `light` is below saturation (nothing
/// refused), `overload` past it (about half refused).
const LIGHT_PER_ROUND: usize = 4;
const OVERLOAD_PER_ROUND: usize = 24;
/// Rates tried for `serve.max_ok_per_round`, highest first.
const LADDER: [usize; 7] = [24, 16, 12, 8, 6, 4, 2];
/// A service that has not drained after this many rounds is stuck.
const ROUND_CAP: u64 = 10_000;

/// What the CPU oracle says a job returns.
#[derive(Debug, Clone, PartialEq)]
enum Expected {
    Score(i64),
    /// `(score << 32) | pos`, as `FmTables::map_read` packs it.
    Mapping(u64),
    LogLik(f64),
}

impl Expected {
    fn matches(&self, got: &JobOutput) -> bool {
        match (self, got) {
            (Expected::Score(want), JobOutput::Score(got)) => want == got,
            (Expected::Mapping(want), JobOutput::Mapping { score, pos }) => {
                *want == ((*score as u64) << 32) | *pos as u64
            }
            (Expected::LogLik(want), JobOutput::LogLik(got)) => {
                got.is_finite() && (got - want).abs() <= 1e-9 * want.abs().max(1.0)
            }
            _ => false,
        }
    }
}

#[derive(Debug, Clone)]
struct Phase {
    label: &'static str,
    per_round: usize,
    jobs: Vec<JobKind>,
    expected: Vec<Expected>,
}

pub struct ServeMix {
    genome: Vec<u8>,
    phases: [Phase; 2],
}

fn bases(n: usize, rng: &mut StdRng) -> Vec<u8> {
    (0..n).map(|_| rng.gen_range(0..4u8)).collect()
}

/// A job of the same kind and lengths as `shape`, its contents drawn anew.
fn redraw(shape: JobKind, genome: &[u8], rng: &mut StdRng) -> JobKind {
    match shape {
        JobKind::Pairwise { query, target } => JobKind::Pairwise {
            query: bases(query.len(), rng),
            target: bases(target.len(), rng),
        },
        JobKind::FmMap { read } => {
            let at = rng.gen_range(0..genome.len() - read.len());
            JobKind::FmMap {
                read: genome[at..at + read.len()].to_vec(),
            }
        }
        JobKind::PairHmm { read, quals, hap } => {
            let hap = bases(hap.len(), rng);
            let at = rng.gen_range(0..=hap.len() - read.len());
            JobKind::PairHmm {
                read: hap[at..at + read.len()].to_vec(),
                quals: (0..quals.len()).map(|_| rng.gen_range(15..45u8)).collect(),
                hap,
            }
        }
    }
}

fn oracle(genome: &[u8], jobs: &[JobKind]) -> Vec<Expected> {
    let tables = FmTables::build(genome);
    let subst = Simple::new(MATCH, MISMATCH);
    let gaps = GapModel::Affine {
        open: GAP_OPEN,
        extend: GAP_EXTEND,
    };
    let hmm = PairHmm {
        gap_open: GAP_OPEN_P,
        gap_ext: GAP_EXT_P,
    };
    jobs.iter()
        .map(|job| match job {
            JobKind::Pairwise { query, target } => {
                Expected::Score(sw_score(query, target, &subst, gaps) as i64)
            }
            JobKind::FmMap { read } => Expected::Mapping(tables.map_read(read)),
            JobKind::PairHmm { read, quals, hap } => {
                Expected::LogLik(hmm.forward(read, quals, hap))
            }
        })
        .collect()
}

impl ServeMix {
    fn config(&self) -> ServeConfig {
        let mut cfg = traffic::base_config(&self.genome);
        cfg.gpu.sim_threads = SIM_THREADS;
        cfg
    }

    /// Drive a fresh service through `phase`: `per_round` arrivals before
    /// each scheduling round, refusals dropped and not retried, then
    /// drain. Returns the host seconds of each unit of the drive (every
    /// round with its arrivals, then taking the outcomes) and what it
    /// simulated. The service is deterministic, so unit `k` does the same
    /// work on every pass.
    fn run_phase(
        &self,
        phase: &Phase,
        tracer: &mut Tracer,
        gate: &mut Gate,
    ) -> (Vec<f64>, PassObs) {
        let mut svc = tracer
            .span("serve.Service::new", |_| Service::new(self.config()))
            .expect("the catalog's service configuration is valid");
        let mut pending = phase.jobs.clone().into_iter().enumerate().peekable();
        let mut admitted: Vec<(JobId, usize)> = Vec::with_capacity(phase.jobs.len());
        let mut refused = 0u64;
        let mut dead = None;
        let mut units = Vec::new();

        while pending.peek().is_some() && dead.is_none() {
            let t = Instant::now();
            for (i, kind) in pending.by_ref().take(phase.per_round) {
                let tenant = Tenant(i as u32 % traffic::TENANTS);
                match tracer.span("serve.submit", |_| {
                    svc.submit(tenant, Priority(1), None, kind)
                }) {
                    Ok(id) => admitted.push((id, i)),
                    Err(AdmitError::Overloaded { .. }) => refused += 1,
                    Err(e) => gate.fail(format!("{} job {i}: refused: {e}", phase.label)),
                }
            }
            dead = tracer.span("serve.run_round", |_| svc.run_round()).err();
            units.push(t.elapsed().as_secs_f64());
        }
        let mut rounds = 0;
        while svc.backlog() > 0 && dead.is_none() && rounds < ROUND_CAP {
            let t = Instant::now();
            dead = tracer.span("serve.run_round", |_| svc.run_round()).err();
            units.push(t.elapsed().as_secs_f64());
            rounds += 1;
        }
        let t = Instant::now();
        let outcomes = tracer.span("serve.take_outcomes", |_| svc.take_outcomes());
        units.push(t.elapsed().as_secs_f64());

        if let Some(e) = dead {
            gate.fail(format!("{}: device-wide fault: {e}", phase.label));
        }
        let mut obs = PassObs {
            offered: phase.jobs.len() as u64,
            ..PassObs::default()
        };
        let mut terminated = 0u64;
        for (id, outcome) in &outcomes {
            // Ids are handed out in admission order, starting at 0.
            let Some(&(_, i)) = admitted.get(id.0 as usize).filter(|(a, _)| a == id) else {
                gate.fail(format!("{}: outcome for unknown {id}", phase.label));
                continue;
            };
            terminated += 1;
            match outcome {
                JobOutcome::Done(got) if phase.expected[i].matches(got) => obs.served += 1,
                JobOutcome::Done(got) => gate.fail(format!(
                    "{} job {i}: {got:?}, oracle {:?}",
                    phase.label, phase.expected[i]
                )),
                JobOutcome::Shed => refused += 1,
                other => gate.fail(format!("{} job {i}: {other:?}", phase.label)),
            }
        }
        gate.ok(obs.served + refused);

        let m = svc.metrics();
        gate.require(
            m.submitted == obs.offered
                && m.completed + m.failed + m.deadline_exceeded + m.shed == m.admitted
                && m.admitted == terminated
                && obs.offered
                    == terminated + m.rejected_overload + m.rejected_quota + m.rejected_shape,
            || format!("{}: conservation broken: {m:?}", phase.label),
        );
        let report = tracer.span("serve.report", |_| svc.report());
        obs.latencies = report.trails.iter().map(|t| t.e2e).collect();
        obs.latencies.sort_unstable();
        obs.stats = svc.stats();
        obs.serve = vec![m];
        (units, obs)
    }
}

impl Workload for ServeMix {
    /// Genome, job lists, and the two `Service::new` calls a pass makes
    /// (built here only to be timed; a pass builds its own).
    fn setup(_entry: &'static Entry, seed: u64, smoke: bool) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mix = StdRng::seed_from_u64(MIX_SEED);
        let genome = random_genome(traffic::GENOME_LEN, &mut rng)
            .codes()
            .to_vec();
        let n = if smoke { JOBS_SMOKE } else { JOBS };
        let mut jobs = || -> Vec<JobKind> {
            (0..n)
                .map(|_| redraw(traffic::gen_job(&genome, &mut mix), &genome, &mut rng))
                .collect()
        };
        let phases = [
            ("light", LIGHT_PER_ROUND, jobs()),
            ("overload", OVERLOAD_PER_ROUND, jobs()),
        ]
        .map(|(label, per_round, jobs)| Phase {
            label,
            per_round,
            jobs,
            expected: Vec::new(),
        });
        let this = ServeMix { genome, phases };
        for _ in 0..2 {
            drop(
                Service::new(this.config()).expect("the catalog's service configuration is valid"),
            );
        }
        this
    }

    fn prepare(&mut self) {
        for p in &mut self.phases {
            p.expected = oracle(&self.genome, &p.jobs);
        }
    }

    fn job_metrics(&self) -> Vec<String> {
        self.phases
            .iter()
            .map(|p| format!("serve.job_s.{}", p.label))
            .collect()
    }

    fn pass(&self, order: &[usize], tracer: &mut Tracer, gate: &mut Gate) -> (JobTimes, PassObs) {
        let mut times = vec![Vec::new(); 2];
        let mut per_phase = vec![PassObs::default(); 2];
        for &j in order {
            tracer.set_job(j as u32);
            (times[j], per_phase[j]) = tracer.span("harness.serve_phase", |t| {
                self.run_phase(&self.phases[j], t, gate)
            });
        }
        let [light, overload] = <[PassObs; 2]>::try_from(per_phase).expect("two phases");
        let mut stats = light.stats;
        stats.merge(&overload.stats);
        let obs = PassObs {
            stats,
            ff_skipped: None,
            // Latency is read where the service keeps up; past saturation
            // it measures the queue bound, not the service.
            latencies: light.latencies,
            offered: light.offered + overload.offered,
            served: light.served + overload.served,
            serve: vec![light.serve[0], overload.serve[0]],
        };
        (times, obs)
    }

    /// `serve.max_ok_per_round`: the highest rate of the ladder at which
    /// the light job list is served whole with p95 within twice the light
    /// phase's.
    fn trace_extras(&self, first: &PassObs, values: &mut Values, gate: &mut Gate) {
        let limit = 2 * nearest_rank(&first.latencies, 0.95);
        let best = LADDER.into_iter().find(|&per_round| {
            let phase = Phase {
                per_round,
                ..self.phases[0].clone()
            };
            let (_, obs) = self.run_phase(&phase, &mut Tracer::new(false), gate);
            obs.served == obs.offered && nearest_rank(&obs.latencies, 0.95) <= limit
        });
        values.set("serve.max_ok_per_round", best.unwrap_or(0) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::CATALOG;

    fn smoke_mix() -> ServeMix {
        let mut mix = ServeMix::setup(&CATALOG[3], 5, true);
        mix.prepare();
        mix
    }

    #[test]
    fn outputs_match_the_oracle_and_a_wrong_expectation_fires_the_gate() {
        let mix = smoke_mix();
        let mut gate = Gate::default();
        let (_, obs) = mix.run_phase(&mix.phases[0], &mut Tracer::new(false), &mut gate);
        assert!(gate.correct(), "{:?}", gate.violations);
        assert_eq!(
            (obs.served, gate.attempted),
            (JOBS_SMOKE as u64, JOBS_SMOKE as u64)
        );

        let mut wrong = mix.phases[0].clone();
        wrong.expected[3] = Expected::Score(-1);
        let mut gate = Gate::default();
        let (_, obs) = mix.run_phase(&wrong, &mut Tracer::new(false), &mut gate);
        assert!(!gate.correct());
        assert_eq!((gate.failed, obs.served), (1, JOBS_SMOKE as u64 - 1));
        assert!(
            gate.violations[0].contains("job 3"),
            "{:?}",
            gate.violations
        );
    }

    #[test]
    fn the_seed_redraws_contents_but_not_shapes() {
        let (a, b) = (
            ServeMix::setup(&CATALOG[3], 1, true),
            ServeMix::setup(&CATALOG[3], 2, true),
        );
        assert_ne!(a.genome, b.genome);
        let shape = |k: &JobKind| match k {
            JobKind::Pairwise { query, target } => (0, query.len(), target.len()),
            JobKind::FmMap { read } => (1, read.len(), 0),
            JobKind::PairHmm { read, hap, .. } => (2, read.len(), hap.len()),
        };
        for (pa, pb) in a.phases.iter().zip(&b.phases) {
            assert_ne!(pa.jobs, pb.jobs);
            assert!(pa.jobs.iter().map(shape).eq(pb.jobs.iter().map(shape)));
        }
    }
}
