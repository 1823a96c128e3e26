//! Per-SM configuration: resource limits (Table I), scheduler policy, and
//! execution latencies.

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

/// Pipeline latencies in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Integer ALU result latency.
    pub int: u64,
    /// f32 result latency.
    pub fp32: u64,
    /// f64 result latency (consumer GPUs run FP64 at reduced rate).
    pub fp64: u64,
    /// Special-function-unit latency.
    pub sfu: u64,
    /// Shared-memory access latency (plus bank-conflict serialization).
    pub smem: u64,
    /// Constant-cache hit latency.
    pub cmem_hit: u64,
    /// Constant-cache miss penalty (fixed; constants are tiny).
    pub cmem_miss: u64,
    /// Parameter-buffer read latency.
    pub param: u64,
    /// L1 hit latency for global/local/texture loads.
    pub l1_hit: u64,
    /// Cycles after a branch issues before the warp may issue again
    /// (control hazard window).
    pub branch: u64,
    /// Minimum cycles between issues from the same warp after an f64 op
    /// (throughput penalty).
    pub f64_interval: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            int: 4,
            fp32: 4,
            fp64: 32,
            sfu: 16,
            smem: 24,
            cmem_hit: 8,
            cmem_miss: 150,
            param: 2,
            l1_hit: 32,
            branch: 6,
            f64_interval: 8,
        }
    }
}

/// Full per-SM configuration.
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
    /// Number of warp schedulers (issue slots per cycle).
    pub schedulers: u32,
    /// Scheduling policy.
    pub policy: SchedPolicy,
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// Constant cache geometry.
    pub const_cache: CacheConfig,
    /// Texture cache geometry.
    pub tex_cache: CacheConfig,
    /// Pipeline latencies.
    pub lat: LatencyConfig,
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
            schedulers: 4,
            policy: SchedPolicy::Lrr,
            l1: CacheConfig::new(128 * 1024, 256),
            const_cache: CacheConfig::new(64 * 1024, 256),
            tex_cache: CacheConfig::new(128 * 1024, 64),
            lat: LatencyConfig::default(),
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
