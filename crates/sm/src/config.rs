//! Per-SM configuration: resource limits (Table I) and scheduler policy,
//! plus the execution latencies and fixed cache geometries as constants.

use ggpu_mem::CacheConfig;

/// Warp scheduler policies evaluated in Figure 19 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedPolicy {
    /// Loose round-robin (Accel-Sim default / paper baseline).
    Lrr,
    /// Greedy-then-oldest: stick with one warp until it stalls, then the
    /// oldest ready warp.
    Gto,
    /// Oldest-first.
    Old,
    /// Two-level: a small active set served round-robin; warps hitting long
    /// latency are demoted and replaced from the pending set.
    TwoLevel,
}

impl std::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SchedPolicy::Lrr => "LRR",
            SchedPolicy::Gto => "GTO",
            SchedPolicy::Old => "OLD",
            SchedPolicy::TwoLevel => "2LV",
        };
        f.write_str(s)
    }
}

/// Pipeline latencies in cycles. Table I fixes them and no figure varies
/// them, so they are constants rather than configuration.
pub(crate) mod lat {
    /// Integer ALU result latency.
    pub(crate) const INT: u64 = 4;
    /// f32 result latency.
    pub(crate) const FP32: u64 = 4;
    /// f64 result latency (consumer GPUs run FP64 at reduced rate).
    pub(crate) const FP64: u64 = 32;
    /// Special-function-unit latency.
    pub(crate) const SFU: u64 = 16;
    /// Shared-memory access latency (plus bank-conflict serialization).
    pub(crate) const SMEM: u64 = 24;
    /// Constant-cache hit latency.
    pub(crate) const CMEM_HIT: u64 = 8;
    /// Constant-cache miss penalty (fixed; constants are tiny).
    pub(crate) const CMEM_MISS: u64 = 150;
    /// Parameter-buffer read latency.
    pub(crate) const PARAM: u64 = 2;
    /// L1 hit latency for global/local/texture loads.
    pub(crate) const L1_HIT: u64 = 32;
    /// Cycles after a branch issues before the warp may issue again
    /// (control hazard window).
    pub(crate) const BRANCH: u64 = 6;
    /// Minimum cycles between issues from the same warp after an f64 op
    /// (throughput penalty).
    pub(crate) const F64_INTERVAL: u64 = 8;
    /// Cycles a device-side launch occupies the launching warp.
    pub(crate) const DEVICE_LAUNCH: u64 = 150;
}

/// Warp schedulers per SM (issue slots per cycle).
pub(crate) const SCHEDULERS: usize = 4;

/// Constant cache geometry of every SM (Table I: 64KB, 256-way).
pub const CONST_CACHE: CacheConfig = CacheConfig::new(64 * 1024, 256);

/// Texture cache geometry of every SM (Table I: 128KB, 64-way).
pub const TEX_CACHE: CacheConfig = CacheConfig::new(128 * 1024, 64);

/// The settable per-SM configuration: what the paper's sweeps vary (CTA
/// resources for Figure 11, the L1 for Figures 12-14, the warp scheduler
/// for Figure 19, perfect memory for Figure 15) and three model switches.
/// Latencies, the scheduler count and the constant and texture caches are
/// fixed ([`CONST_CACHE`], [`TEX_CACHE`]).
///
/// The defaults are the RTX 3070 baseline of Table I: 32 CTAs/core, 1536
/// threads/core, 65536 registers/core, 100KB shared memory, 128KB L1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmConfig {
    /// Maximum concurrent CTAs.
    pub max_ctas: u32,
    /// Maximum concurrent threads.
    pub max_threads: u32,
    /// Register-file size in 32-bit registers.
    pub registers: u32,
    /// Shared-memory capacity in bytes.
    pub smem_bytes: u32,
    /// Scheduling policy.
    pub policy: SchedPolicy,
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// When set, every off-chip access completes at L1-hit latency with no
    /// traffic (the paper's Figure 15 "perfect memory").
    pub perfect_memory: bool,
    /// Interleave per-thread local memory at 8-byte granularity per warp
    /// (real-GPU layout, the default). Disabling it gives each thread a
    /// contiguous private arena — an ablation that destroys local-memory
    /// coalescing and shows why the interleaved layout matters.
    pub interleave_local: bool,
    /// Keep a per-PC attribution table ([`crate::PcTable`]) charging issues,
    /// stalls, L1 traffic, divergence and replays to individual
    /// instructions. Off by default; when off the SM allocates no table and
    /// pays exactly one branch per recording site.
    pub attribution: bool,
}

impl Default for SmConfig {
    fn default() -> Self {
        SmConfig {
            max_ctas: 32,
            max_threads: 1536,
            registers: 65536,
            smem_bytes: 100 * 1024,
            policy: SchedPolicy::Lrr,
            l1: CacheConfig::new(128 * 1024, 256),
            perfect_memory: false,
            interleave_local: true,
            attribution: false,
        }
    }
}

impl SmConfig {
    /// How many CTAs of a kernel fit concurrently on this SM, limited by
    /// CTA slots, threads, registers and shared memory — the standard CUDA
    /// occupancy computation (drives Table III's "CTA/CORE" column and
    /// Figure 6).
    pub fn max_resident_ctas(
        &self,
        threads_per_cta: u32,
        regs_per_thread: u32,
        smem_per_cta: u32,
    ) -> u32 {
        if threads_per_cta == 0 {
            return 0;
        }
        let by_slots = self.max_ctas;
        let by_threads = self.max_threads / threads_per_cta;
        let by_regs = self
            .registers
            .checked_div(regs_per_thread * threads_per_cta)
            .unwrap_or(u32::MAX);
        let by_smem = self
            .smem_bytes
            .checked_div(smem_per_cta)
            .unwrap_or(u32::MAX);
        by_slots.min(by_threads).min(by_regs).min(by_smem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_limits() {
        let c = SmConfig::default();
        // Thread-limited: 1536/128 = 12.
        assert_eq!(c.max_resident_ctas(128, 0, 0), 12);
        // Register-limited: 65536/(64*128) = 8.
        assert_eq!(c.max_resident_ctas(128, 64, 0), 8);
        // Smem-limited: 102400/40960 = 2.
        assert_eq!(c.max_resident_ctas(128, 0, 40 * 1024), 2);
        // Slot-limited: tiny CTAs cap at 32.
        assert_eq!(c.max_resident_ctas(32, 1, 0), 32);
        // Degenerate.
        assert_eq!(c.max_resident_ctas(0, 0, 0), 0);
    }

    #[test]
    fn policy_display() {
        assert_eq!(SchedPolicy::Lrr.to_string(), "LRR");
        assert_eq!(SchedPolicy::TwoLevel.to_string(), "2LV");
    }
}
