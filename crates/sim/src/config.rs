//! Whole-GPU configuration (Tables I and II) with the RTX 3070 baseline.

use ggpu_icnt::IcntConfig;
use ggpu_mem::{CacheConfig, DramConfig, LINE_BYTES};
use ggpu_sm::SmConfig;

use crate::error::SimError;

/// GPU clock in GHz, used only to convert cycles to seconds in reports.
pub const CLOCK_GHZ: f64 = 1.5;

/// L2 access latency in cycles.
pub(crate) const L2_LATENCY: u64 = 90;

/// Fixed per-transfer PCIe latency in GPU cycles (driver + DMA setup).
pub(crate) const PCIE_LATENCY: u64 = 2_000;

/// PCIe bandwidth in bytes per GPU cycle: ~PCIe 4.0 x16 at [`CLOCK_GHZ`].
pub(crate) const PCIE_BYTES_PER_CYCLE: f64 = 12.0;

/// Deterministic fault-injection plan, for exercising the error paths of
/// the device model (and of harnesses built on it) without crafting a
/// faulty kernel.
///
/// All knobs default to `None` (no injection). Injection is deterministic:
/// the same plan over the same workload faults at the same cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Treat `[start, end)` as unmapped: any access overlapping the range
    /// raises an illegal-address fault even inside a live allocation.
    pub poison: Option<(u64, u64)>,
    /// Silently drop the Nth (0-based) memory reply packet. The owning warp
    /// waits forever and the watchdog reports the hang.
    pub drop_reply: Option<u64>,
    /// From this cycle on, report the CDP pending-launch queue as full, so
    /// the next device-side launch faults with a queue overflow.
    pub cdp_full_at: Option<u64>,
    /// Drop the Nth (0-based) PCIe transfer: the `try_memcpy_*` call
    /// returns [`crate::SimError::MemcpyDropped`] without moving any data.
    /// H2D and D2H transfers share one counter, in call order. Not sticky —
    /// the caller can simply retry (exercises host-side retry logic).
    pub drop_memcpy: Option<u64>,
    /// Corrupt the Nth (0-based) PCIe transfer: the call succeeds but every
    /// payload byte is XORed with `0xA5` (H2D corrupts what lands in device
    /// memory, D2H corrupts what the host reads back). Shares the transfer
    /// counter with [`FaultPlan::drop_memcpy`].
    pub poison_memcpy: Option<u64>,
}

/// Full GPU configuration: the values some figure, tool, service, example
/// or test sets to something other than the baseline. What the paper never
/// varies is a constant in the crate that reads it: the clock, the L2
/// latency and PCIe here ([`CLOCK_GHZ`]), the SM latencies and the constant
/// and texture caches in `ggpu-sm`, the DRAM timings in `ggpu-mem`, the
/// packet header in `ggpu-icnt`. [`GpuConfig::validate`] says which values
/// the simulator cannot run.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of SMs ("shader cores" in Table I; 78 in the paper's setup).
    pub n_sms: usize,
    /// Number of memory partitions (L2 slice + DRAM channel each).
    pub n_partitions: usize,
    /// Per-SM configuration.
    pub sm: SmConfig,
    /// Per-partition L2 slice geometry (total L2 = slice × partitions).
    pub l2_slice: CacheConfig,
    /// Per-partition DRAM channel.
    pub dram: DramConfig,
    /// Interconnect configuration (shared by request and reply networks).
    pub icnt: IcntConfig,
    /// Host-side kernel-launch overhead in cycles (driver + setup); burned
    /// before each grid's CTAs begin dispatching.
    pub kernel_launch_overhead: u64,
    /// Device-side (CDP) child-launch overhead in cycles.
    pub cdp_launch_overhead: u64,
    /// Flush L1/L2 between host kernel launches, modelling the locality
    /// loss across `cudaMemcpy` boundaries the paper describes in §IV-G.
    pub flush_between_kernels: bool,
    /// Forward-progress watchdog: if no SM issues an instruction and no
    /// memory-system activity is observed for this many consecutive cycles,
    /// `try_synchronize` returns a deadlock report instead of spinning.
    pub watchdog_cycles: u64,
    /// Device memory capacity in bytes; `try_malloc` beyond it fails.
    pub memory_limit: u64,
    /// Maximum CDP nesting depth (as `cudaLimitDevRuntimeSyncDepth`).
    pub cdp_max_depth: u32,
    /// Deterministic fault injection (testing / hardening harnesses).
    pub fault_plan: FaultPlan,
    /// Interval-sampler period in cycles; `0` (the default) disables
    /// sampling entirely — the only cost on the disabled path is one
    /// branch per device cycle.
    pub sample_interval_cycles: u64,
    /// Record a structured event trace ([`crate::Gpu::trace_events`]).
    /// Like sampling and attribution, this turns the device's recorder on,
    /// so per-kernel records ([`crate::Gpu::kernel_records`]) are kept
    /// too. Off by default.
    pub trace: bool,
    /// Inert: one thread ticks one device. Kept until `benchmark/` stops
    /// naming it (with [`GpuConfig::with_sim_threads`]); read by nothing.
    #[doc(hidden)]
    pub sim_threads: usize,
    /// Idle-cycle fast-forward: when no SM can issue and no queue, channel,
    /// or dispatcher can change state before a provably-known future cycle,
    /// `synchronize` jumps the clock to that cycle and credits the skipped
    /// span to every counter at once. Every statistic, profile, sample, and
    /// trace is bit-identical with this on or off (the skip only elides
    /// cycles whose outcome is already determined), so it defaults to on;
    /// the switch exists for A/B validation and engine debugging.
    pub fast_forward: bool,
    /// Stream-isolation mode: enforce *canonical kernel boundaries* so a
    /// grid's timing and counters depend only on the device configuration
    /// and the grid itself, never on what ran before it on other streams.
    /// Concretely: (a) a finished host grid retires only once every
    /// in-flight effect (network packets, DRAM requests, SM outstanding
    /// loads) has drained; (b) at each host-grid arm the SM scheduler
    /// cursors and the CTA dispatch cursor reset, and (with
    /// [`GpuConfig::flush_between_kernels`]) DRAM open rows close alongside
    /// the cache flush. Off by default — the legacy engine retires grids
    /// the cycle their last CTA completes, which is faster but lets row
    /// state and cursor positions leak across kernels. `ggpu-serve` turns
    /// this on: it is what makes a non-faulted stream's results bit-equal
    /// to a fault-free run even when sibling streams fault and retry.
    pub stream_isolation: bool,
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::rtx3070()
    }
}

impl GpuConfig {
    /// The paper's baseline: RTX 3070 per Table I (78 shader cores, 128KB
    /// L1, 4MB L2, FR-FCFS, local crossbar, 40B flits).
    pub fn rtx3070() -> Self {
        GpuConfig {
            n_sms: 78,
            n_partitions: 8,
            sm: SmConfig::default(),
            // 4MB / 8 partitions = 512KB per slice, 16-way. Write-through keeps
            // the store path simple (stores stream to DRAM, loads allocate).
            l2_slice: CacheConfig::new(512 * 1024, 16),
            dram: DramConfig::default(),
            icnt: IcntConfig::default(),
            kernel_launch_overhead: 3_000,
            cdp_launch_overhead: 500,
            flush_between_kernels: true,
            watchdog_cycles: 50_000,
            memory_limit: 8 << 30,
            cdp_max_depth: 24,
            fault_plan: FaultPlan::default(),
            sample_interval_cycles: 0,
            trace: false,
            sim_threads: 1,
            fast_forward: true,
            stream_isolation: false,
        }
    }

    /// A small configuration for fast unit tests (4 SMs, 2 partitions).
    pub fn test_small() -> Self {
        GpuConfig {
            n_sms: 4,
            n_partitions: 2,
            kernel_launch_overhead: 100,
            cdp_launch_overhead: 50,
            ..Self::rtx3070()
        }
    }

    /// Set total L1 (per SM) and total L2 sizes, keeping geometry rules from
    /// Table I (the Figure 12-14 cache sweep).
    pub fn with_cache_sizes(mut self, l1_bytes: u64, l2_total_bytes: u64) -> Self {
        self.sm.l1.bytes = l1_bytes;
        self.l2_slice.bytes = l2_total_bytes / self.n_partitions as u64;
        self
    }

    /// Scale SM resources (CTAs, threads, registers, shared memory) to
    /// `percent` of the baseline — the Figure 11 CTA sweep.
    pub fn with_cta_scale(mut self, percent: u32) -> Self {
        let base = SmConfig::default();
        self.sm.max_ctas = (base.max_ctas * percent / 100).max(1);
        self.sm.max_threads = (base.max_threads * percent / 100).max(32);
        self.sm.registers = (base.registers * percent / 100).max(1024);
        self.sm.smem_bytes = (base.smem_bytes * percent / 100).max(1024);
        self
    }

    #[doc(hidden)]
    pub fn with_sim_threads(mut self, threads: usize) -> Self {
        self.sim_threads = threads;
        self
    }

    /// Enable or disable idle-cycle fast-forward; see
    /// [`GpuConfig::fast_forward`]. On by default — turning it off forces
    /// the engine to tick every cycle (A/B validation and debugging).
    pub fn with_fast_forward(mut self, on: bool) -> Self {
        self.fast_forward = on;
        self
    }

    /// Enable or disable stream-isolation mode (canonical kernel
    /// boundaries); see [`GpuConfig::stream_isolation`].
    pub fn with_stream_isolation(mut self, on: bool) -> Self {
        self.stream_isolation = on;
        self
    }

    /// Enable or disable per-PC attribution (the code axis of
    /// [`crate::ProfileReport`]); shorthand for setting
    /// [`ggpu_sm::SmConfig::attribution`].
    pub fn with_attribution(mut self, on: bool) -> Self {
        self.sm.attribution = on;
        self
    }

    /// Total L2 capacity across partitions.
    pub fn l2_total(&self) -> u64 {
        self.l2_slice.bytes * self.n_partitions as u64
    }

    /// Reject the values the simulator cannot run: each would divide by
    /// zero, never place a CTA, never accept a DRAM request, or silently
    /// model a line size the rest of the machine does not use. Anything
    /// else runs, or ends in a typed launch, memory or watchdog error.
    pub fn validate(&self) -> Result<(), SimError> {
        const WAYS: &str = "a cache needs at least one way";
        const LINE: &str = "every level of the hierarchy moves 128-byte lines";
        let rules = [
            ("n_sms", self.n_sms == 0, "a device needs at least one SM"),
            (
                "n_partitions",
                self.n_partitions == 0,
                "a device needs at least one memory partition",
            ),
            (
                "sm.max_ctas",
                self.sm.max_ctas == 0,
                "an SM must hold a CTA",
            ),
            ("sm.l1.ways", self.sm.l1.ways == 0, WAYS),
            ("sm.l1.line", self.sm.l1.line != LINE_BYTES, LINE),
            ("l2_slice.ways", self.l2_slice.ways == 0, WAYS),
            ("l2_slice.line", self.l2_slice.line != LINE_BYTES, LINE),
            (
                "dram.queue_size",
                self.dram.queue_size == 0,
                "a DRAM channel must queue a request",
            ),
            (
                "icnt.flit_bytes",
                self.icnt.flit_bytes == 0,
                "a flit must carry at least one byte",
            ),
        ];
        match rules.into_iter().find(|&(_, bad, _)| bad) {
            Some((field, _, why)) => Err(SimError::InvalidConfig {
                field,
                why: why.to_string(),
            }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let c = GpuConfig::rtx3070();
        assert_eq!(c.n_sms, 78);
        assert_eq!(c.sm.max_ctas, 32);
        assert_eq!(c.sm.max_threads, 1536);
        assert_eq!(c.sm.registers, 65536);
        assert_eq!(c.sm.smem_bytes, 100 * 1024);
        assert_eq!(c.sm.l1.bytes, 128 * 1024);
        assert_eq!(c.l2_total(), 4 * 1024 * 1024);
        assert_eq!(c.icnt.flit_bytes, 40);
    }

    #[test]
    fn robustness_defaults() {
        let c = GpuConfig::rtx3070();
        assert_eq!(c.watchdog_cycles, 50_000);
        assert_eq!(c.memory_limit, 8 << 30);
        assert_eq!(c.cdp_max_depth, 24);
        assert_eq!(c.fault_plan, FaultPlan::default());
        assert!(c.fault_plan.poison.is_none());
        assert!(c.fault_plan.drop_memcpy.is_none());
        assert!(c.fault_plan.poison_memcpy.is_none());
        assert!(!c.stream_isolation, "legacy boundaries by default");
        assert!(c.with_stream_isolation(true).stream_isolation);
    }

    #[test]
    fn profiling_is_off_by_default() {
        let c = GpuConfig::rtx3070();
        assert_eq!(c.sample_interval_cycles, 0);
        assert!(!c.trace);
    }

    #[test]
    fn cache_sweep_builder() {
        let c = GpuConfig::rtx3070().with_cache_sizes(0, 128 * 1024);
        assert_eq!(c.sm.l1.bytes, 0);
        assert_eq!(c.l2_total(), 128 * 1024);
    }

    #[test]
    fn fast_forward_defaults_on() {
        assert!(GpuConfig::rtx3070().fast_forward);
        assert!(GpuConfig::test_small().fast_forward);
        assert!(!GpuConfig::rtx3070().with_fast_forward(false).fast_forward);
    }

    #[test]
    fn attribution_builder_and_default() {
        assert!(!GpuConfig::rtx3070().sm.attribution);
        assert!(GpuConfig::rtx3070().with_attribution(true).sm.attribution);
    }

    #[test]
    fn cta_scale_builder() {
        let c = GpuConfig::rtx3070().with_cta_scale(50);
        assert_eq!(c.sm.max_ctas, 16);
        assert_eq!(c.sm.max_threads, 768);
        let c2 = GpuConfig::rtx3070().with_cta_scale(200);
        assert_eq!(c2.sm.max_ctas, 64);
    }
}
