//! Seeded synthetic traffic: the service geometry and job mix.
//!
//! Two consumers share this module: the `ggpu-stat` telemetry CLI
//! (scenario replay) and `benchmark/` (the `serve_mix` workload and the
//! serve probes). Keeping the geometry and the job-mix generator here
//! means both drive the *same* request population, so a latency quantile
//! in one and a host-time metric in the other describe the same workload.
//! Each consumer owns its submission loop: `ggpu-stat` re-offers refused
//! jobs next round, `benchmark/` drops them.

use rand::rngs::StdRng;
use rand::Rng;

use crate::{JobKind, ServeConfig, FM_READ_LEN, PHMM_HAP_LEN, PHMM_READ_LEN};

/// Reference-genome length the synthetic mix maps reads against.
pub const GENOME_LEN: usize = 600;
/// Tenants the mix round-robins submissions across.
pub const TENANTS: u32 = 4;

/// The service geometry every seeded scenario and benchmark starts
/// from: a 24-deep queue and all three kernel pipelines enabled against
/// `genome` (2-bit codes), on the service's [`crate::WORKERS`] workers
/// with batches of [`crate::MAX_BATCH`]. Callers tweak from here (shrink
/// the queue for overload, attach a fault plan).
pub fn base_config(genome: &[u8]) -> ServeConfig {
    let mut cfg = ServeConfig::test_small();
    cfg.gpu.watchdog_cycles = 10_000;
    cfg.queue_capacity = 24;
    cfg.fm_genome = genome.to_vec();
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
