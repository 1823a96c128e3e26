//! Seeded synthetic traffic and throughput-mode driving.
//!
//! Two consumers share this module: the `ggpu-stat` telemetry CLI
//! (scenario replay) and `benchmark/` (the sustained-traffic serving
//! workload). Keeping the job-mix generator
//! here means both drive the *same* request population, so a latency
//! histogram in one and a throughput record in the other describe the
//! same workload.
//!
//! [`drive`] is the throughput-mode hook: it offers jobs to a
//! [`Service`] at a fixed per-round rate and — unlike an interactive
//! client — **does not retry** admission rejections. Rejected work is
//! dropped and counted, which is what makes the offered load an
//! independent variable: the service's completion rate, shed rate, and
//! latency distribution become functions of it.

use ggpu_sim::GpuConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{AdmitError, JobKind, Priority, ServeConfig, Service, ServiceDead, Tenant};

/// Reference-genome length the synthetic mix maps reads against.
pub const GENOME_LEN: usize = 600;
/// Fixed FM-index read length of the mix (bases).
pub const FM_READ_LEN: u32 = 16;
/// Fixed Pair-HMM read length of the mix (bases).
pub const PHMM_READ_LEN: u32 = 10;
/// Fixed Pair-HMM haplotype length of the mix (bases).
pub const PHMM_HAP_LEN: u32 = 14;
/// Tenants the mix round-robins submissions across.
pub const TENANTS: u32 = 4;

/// The service geometry every seeded scenario and benchmark starts
/// from: 3 workers, batches of 4, a 24-deep queue, and all three kernel
/// pipelines enabled against `genome` (2-bit codes). Callers tweak from
/// here (shrink the queue for overload, attach a fault plan, spread
/// over devices).
pub fn base_config(genome: &[u8]) -> ServeConfig {
    let mut cfg = ServeConfig::test_small();
    cfg.gpu = GpuConfig::test_small();
    cfg.gpu.watchdog_cycles = 10_000;
    cfg.workers = 3;
    cfg.queue_capacity = 24;
    cfg.tenant_quota = 64;
    cfg.max_batch = 4;
    cfg.fm_genome = genome.to_vec();
    cfg.fm_read_len = FM_READ_LEN;
    cfg.phmm_read_len = PHMM_READ_LEN;
    cfg.phmm_hap_len = PHMM_HAP_LEN;
    cfg
}

/// One seeded job; the mix cycles uniformly through all three kernel
/// shapes (pairwise alignment, FM-index mapping, Pair-HMM likelihood).
pub fn gen_job(genome: &[u8], rng: &mut StdRng) -> JobKind {
    match rng.gen_range(0..3u32) {
        0 => {
            let ql = rng.gen_range(6..60usize);
            let tl = rng.gen_range(6..60usize);
            JobKind::Pairwise {
                query: (0..ql).map(|_| rng.gen_range(0..4u8)).collect(),
                target: (0..tl).map(|_| rng.gen_range(0..4u8)).collect(),
            }
        }
        1 => {
            let s = rng.gen_range(0..genome.len() - FM_READ_LEN as usize);
            JobKind::FmMap {
                read: genome[s..s + FM_READ_LEN as usize].to_vec(),
            }
        }
        _ => {
            let hap: Vec<u8> = (0..PHMM_HAP_LEN).map(|_| rng.gen_range(0..4u8)).collect();
            let s = rng.gen_range(0..=(PHMM_HAP_LEN - PHMM_READ_LEN) as usize);
            let read = hap[s..s + PHMM_READ_LEN as usize].to_vec();
            let quals: Vec<u8> = (0..PHMM_READ_LEN)
                .map(|_| rng.gen_range(15..45u8))
                .collect();
            JobKind::PairHmm { read, quals, hap }
        }
    }
}

/// A fixed offered load: `per_round` jobs submitted before each
/// scheduling round until `total_jobs` have been offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfferedLoad {
    /// Jobs offered per scheduling round.
    pub per_round: usize,
    /// Total jobs offered over the run.
    pub total_jobs: usize,
    /// Seed of the job mix (same seed ⇒ byte-identical submissions).
    pub seed: u64,
}

/// What [`drive`] observed, summarized from the service's own
/// conservation ledger after the queue drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficSummary {
    /// Jobs offered (== `total_jobs`).
    pub offered: u64,
    /// Jobs past admission.
    pub admitted: u64,
    /// Jobs that completed successfully.
    pub completed: u64,
    /// Jobs refused at admission (queue full / quota / shape).
    pub rejected: u64,
    /// Admitted jobs shed by priority eviction.
    pub shed: u64,
    /// Scheduling rounds taken, including the drain tail.
    pub rounds: u64,
}

impl TrafficSummary {
    /// Fraction of offered work that did not complete because the
    /// service refused or shed it under load.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.rejected + self.shed) as f64 / self.offered as f64
        }
    }
}

/// Offer `load` to `svc` and run until the service drains.
///
/// Admission rejections are dropped, not re-offered — the point of
/// throughput mode is to hold the offered load fixed and observe the
/// service. Returns the summary; errors only if the device itself dies
/// (a stream-scoped fault is the service's problem, not the driver's).
pub fn drive(
    svc: &mut Service,
    genome: &[u8],
    load: &OfferedLoad,
) -> Result<TrafficSummary, ServiceDead> {
    let mut rng = StdRng::seed_from_u64(load.seed ^ 0x5eed);
    let mut offered = 0u64;
    while (offered as usize) < load.total_jobs {
        let this_round = load.per_round.min(load.total_jobs - offered as usize);
        for _ in 0..this_round {
            let kind = gen_job(genome, &mut rng);
            let tenant = Tenant(offered as u32 % TENANTS);
            match svc.submit(tenant, Priority(1), None, kind) {
                Ok(_) | Err(AdmitError::Overloaded { .. }) => {}
                // Quota/shape refusals are still counted by the service;
                // the driver treats every rejection the same way: drop.
                Err(_) => {}
            }
            offered += 1;
        }
        svc.run_round()?;
    }
    svc.run_until_idle(10_000)?;
    let m = svc.metrics();
    Ok(TrafficSummary {
        offered,
        admitted: m.admitted,
        completed: m.completed,
        rejected: m.rejected_overload + m.rejected_quota + m.rejected_shape,
        shed: m.shed,
        rounds: m.rounds,
    })
}
