//! Seeded synthetic traffic: the service geometry and job mix.
//!
//! Two consumers share this module: the `ggpu-stat` telemetry CLI
//! (scenario replay) and `benchmark/` (the `serve_mix` workload and the
//! serve probes). Keeping the geometry and the job-mix generator here
//! means both drive the *same* request population, so a latency histogram
//! in one and a host-time metric in the other describe the same workload.
//! Each consumer owns its submission loop: `ggpu-stat` re-offers refused
//! jobs next round, `benchmark/` drops them.

use ggpu_sim::GpuConfig;
use rand::rngs::StdRng;
use rand::Rng;

use crate::{JobKind, ServeConfig};

/// Reference-genome length the synthetic mix maps reads against.
pub const GENOME_LEN: usize = 600;
/// Fixed FM-index read length of the mix (bases).
pub(crate) const FM_READ_LEN: u32 = 16;
/// Fixed Pair-HMM read length of the mix (bases).
pub(crate) const PHMM_READ_LEN: u32 = 10;
/// Fixed Pair-HMM haplotype length of the mix (bases).
pub(crate) const PHMM_HAP_LEN: u32 = 14;
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
