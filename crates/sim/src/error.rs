//! Typed simulation errors: guest faults, deadlock reports, configuration
//! and launch validation failures, and allocation failures.
//!
//! The host API comes in two flavours: the original panicking methods
//! ([`crate::Gpu::synchronize`] and friends) and fallible `try_*` variants
//! returning `Result<_, SimError>`. Faults follow CUDA's sticky semantics —
//! once a kernel traps, every subsequent API call returns the same error
//! until [`crate::Gpu::reset_fault`] is called.

use std::error::Error;
use std::fmt;

use ggpu_isa::FaultKind;
use ggpu_sm::WarpReport;

use crate::trace::CopyDir;

/// A guest fault raised on the device, with enough context to debug the
/// offending kernel: which kernel, where (SM / CTA / warp / PC), what
/// instruction, and — for memory faults — the faulting address.
///
/// Fields that the fault site could not attribute (e.g. a device-side launch
/// rejected by the runtime rather than a specific warp) are `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceFault {
    /// Architectural fault class.
    pub kind: FaultKind,
    /// Name of the kernel that faulted.
    pub kernel: String,
    /// Stream whose in-flight work the fault poisoned (0 = default stream).
    pub stream: usize,
    /// Device-wide index of the SM the faulting warp was resident on.
    pub sm: usize,
    /// Linear CTA index within the grid, when attributable.
    pub cta: Option<u64>,
    /// SM-local warp index, when attributable.
    pub warp: Option<usize>,
    /// Warp index within its CTA, when attributable.
    pub warp_in_cta: Option<u32>,
    /// Lanes that faulted (memory faults) or were active at the fault.
    pub lane_mask: Option<u32>,
    /// Program counter of the faulting instruction, when attributable.
    pub pc: Option<usize>,
    /// Disassembly (or description) of the faulting operation.
    pub instr: String,
    /// First faulting address, for memory faults.
    pub addr: Option<u64>,
    /// Device cycle at which the fault was raised.
    pub cycle: u64,
}

impl fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in kernel `{}` at cycle {}: `{}`",
            self.kind, self.kernel, self.cycle, self.instr
        )?;
        if let Some(pc) = self.pc {
            write!(f, " (pc {pc})")?;
        }
        if let Some(addr) = self.addr {
            write!(f, " touching 0x{addr:x}")?;
        }
        write!(f, " [sm {}", self.sm)?;
        if let Some(cta) = self.cta {
            write!(f, ", cta {cta}")?;
        }
        if let Some(w) = self.warp {
            write!(f, ", warp {w}")?;
        }
        if let Some(wc) = self.warp_in_cta {
            write!(f, " (warp-in-cta {wc})")?;
        }
        if let Some(m) = self.lane_mask {
            write!(f, ", lanes 0x{m:08x}")?;
        }
        write!(f, ", stream {}]", self.stream)
    }
}

/// Why the forward-progress watchdog declared the device deadlocked.
///
/// Produced by [`crate::Gpu::try_synchronize`] when no SM issues an
/// instruction and no memory-system activity is observed for
/// [`crate::GpuConfig::watchdog_cycles`] consecutive cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Device cycle at which the watchdog fired.
    pub cycle: u64,
    /// Stream whose active grid the watchdog attributed the hang to
    /// (0 = default stream).
    pub stream: usize,
    /// Consecutive cycles without forward progress.
    pub stalled_for: u64,
    /// Blocked-state of every non-finished resident warp.
    pub warps: Vec<WarpReport>,
    /// Host-launch queue depth (grids not yet finished).
    pub host_queue: usize,
    /// CDP pending-launch queue depth.
    pub device_queue: usize,
    /// Network packets still in flight (requests plus replies).
    pub events_in_flight: usize,
    /// Memory requests the SMs still consider outstanding.
    pub outstanding_requests: usize,
    /// Total occupancy (queued + in flight) across DRAM channels.
    pub dram_queued: usize,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "device made no forward progress for {} cycles \
             (watchdog fired at cycle {}, stream {})",
            self.stalled_for, self.cycle, self.stream
        )?;
        writeln!(
            f,
            "  queues: {} host grid(s), {} CDP pending launch(es); \
             {} network packet(s) in flight, {} outstanding SM request(s), \
             {} DRAM request(s) queued",
            self.host_queue,
            self.device_queue,
            self.events_in_flight,
            self.outstanding_requests,
            self.dram_queued
        )?;
        if self.warps.is_empty() {
            writeln!(f, "  no resident warps")?;
        }
        for w in &self.warps {
            writeln!(f, "  {w}")?;
        }
        Ok(())
    }
}

/// The specific way a launch configuration was invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchProblem {
    /// The kernel id does not exist in the loaded program.
    UnknownKernel,
    /// Grid or CTA dimensions contain a zero.
    ZeroDimension,
    /// CTA size exceeds the per-SM thread limit.
    TooManyThreads {
        /// Threads per CTA requested.
        requested: u32,
        /// Per-SM maximum.
        limit: u32,
    },
    /// One CTA's register demand exceeds the SM register file.
    RegistersExceeded {
        /// Registers one CTA needs.
        requested: u32,
        /// Register-file size.
        limit: u32,
    },
    /// Static shared memory per CTA exceeds the SM's capacity.
    SharedMemExceeded {
        /// Bytes per CTA requested.
        requested: u32,
        /// Per-SM capacity.
        limit: u32,
    },
    /// Fewer parameter words supplied than the kernel reads.
    ParamCountMismatch {
        /// Parameter words the kernel's `ld.param` instructions reach.
        required: usize,
        /// Parameter words supplied at launch.
        provided: usize,
    },
    /// The launch targeted a stream id that was never created.
    UnknownStream {
        /// Stream id requested.
        requested: usize,
        /// Streams that exist (ids `0..streams`).
        streams: usize,
    },
    /// The grid's CTA or thread count does not fit in 64 bits.
    GridTooLarge,
    /// The grid's local-memory arena would take the device past
    /// [`crate::GpuConfig::memory_limit`].
    LocalMemoryExceeded {
        /// Bytes the arena needs (`u64::MAX` when the size itself
        /// overflows).
        requested: u64,
        /// Bytes already allocated.
        in_use: u64,
        /// Configured capacity.
        limit: u64,
    },
}

impl fmt::Display for LaunchProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchProblem::UnknownKernel => f.write_str("kernel id not in program"),
            LaunchProblem::ZeroDimension => f.write_str("grid or CTA dimension is zero"),
            LaunchProblem::TooManyThreads { requested, limit } => {
                write!(f, "{requested} threads per CTA exceeds SM limit {limit}")
            }
            LaunchProblem::RegistersExceeded { requested, limit } => {
                write!(f, "one CTA needs {requested} registers, SM has {limit}")
            }
            LaunchProblem::SharedMemExceeded { requested, limit } => {
                write!(
                    f,
                    "{requested} bytes of shared memory per CTA exceeds SM capacity {limit}"
                )
            }
            LaunchProblem::ParamCountMismatch { required, provided } => {
                write!(
                    f,
                    "kernel reads {required} parameter word(s) but {provided} supplied"
                )
            }
            LaunchProblem::UnknownStream { requested, streams } => {
                write!(
                    f,
                    "stream {requested} does not exist ({streams} stream(s) created)"
                )
            }
            LaunchProblem::GridTooLarge => f.write_str("grid dimensions overflow 64 bits"),
            LaunchProblem::LocalMemoryExceeded {
                requested,
                in_use,
                limit,
            } => write!(
                f,
                "{requested} bytes of local memory needed, {in_use} of {limit} in use"
            ),
        }
    }
}

/// Any error the fallible host API can return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A kernel trapped on a guest fault; the device is in the fault state
    /// until [`crate::Gpu::reset_fault`].
    DeviceFault(Box<DeviceFault>),
    /// The forward-progress watchdog fired; the device was halted.
    Deadlock(Box<DeadlockReport>),
    /// A [`crate::GpuConfig`] the simulator cannot run, rejected by
    /// [`crate::GpuConfig::validate`] before a device is built.
    InvalidConfig {
        /// Path of the offending field, e.g. `"l2_slice.ways"`.
        field: &'static str,
        /// Why the value cannot be simulated.
        why: String,
    },
    /// A launch configuration was rejected before any work was enqueued.
    InvalidLaunch {
        /// Name of the kernel (or `"?"` when the id was unknown).
        kernel: String,
        /// What was wrong with the configuration.
        problem: LaunchProblem,
    },
    /// An allocation would exceed the configured device memory.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes already allocated.
        in_use: u64,
        /// Configured capacity.
        limit: u64,
    },
    /// The active grid exceeded its cycle-budget deadline and its stream's
    /// in-flight work was killed (the stream stays faulted until
    /// [`crate::Gpu::reset_stream`]).
    DeadlineExceeded {
        /// Name of the kernel whose grid overran.
        kernel: String,
        /// Stream the grid was launched on.
        stream: usize,
        /// The grid's cycle budget, counted from when it was armed.
        budget: u64,
        /// Device cycle at which the deadline fired.
        cycle: u64,
    },
    /// A PCIe transfer was dropped by fault injection
    /// ([`crate::FaultPlan::drop_memcpy`]). Like a failed `cudaMemcpy`,
    /// this is *not* sticky: the device stays usable and the transfer can
    /// simply be retried.
    MemcpyDropped {
        /// Zero-based index of the dropped transfer (H2D and D2H share one
        /// counter).
        index: u64,
        /// Transfer direction.
        dir: CopyDir,
    },
    /// A host copy named a range outside allocated device memory
    /// (the null page, past the allocation frontier, or wrapping the address
    /// space). Nothing moved and nothing was charged; not sticky.
    InvalidCopy {
        /// Transfer direction.
        dir: CopyDir,
        /// Device address the copy started at.
        addr: u64,
        /// Bytes requested.
        len: u64,
        /// The allocation frontier at the time of the call.
        frontier: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DeviceFault(d) => write!(f, "device fault: {d}"),
            SimError::Deadlock(r) => write!(f, "device deadlock: {r}"),
            SimError::InvalidConfig { field, why } => {
                write!(f, "invalid configuration: `{field}`: {why}")
            }
            SimError::InvalidLaunch { kernel, problem } => {
                write!(f, "invalid launch of kernel `{kernel}`: {problem}")
            }
            SimError::OutOfMemory {
                requested,
                in_use,
                limit,
            } => write!(
                f,
                "out of device memory: {requested} bytes requested, {in_use} of {limit} in use"
            ),
            SimError::DeadlineExceeded {
                kernel,
                stream,
                budget,
                cycle,
            } => write!(
                f,
                "deadline exceeded: kernel `{kernel}` on stream {stream} \
                 overran its {budget}-cycle budget (killed at cycle {cycle})"
            ),
            SimError::MemcpyDropped { index, dir } => {
                write!(
                    f,
                    "memcpy dropped by fault injection: {dir} transfer #{index}"
                )
            }
            SimError::InvalidCopy {
                dir,
                addr,
                len,
                frontier,
            } => write!(
                f,
                "invalid {dir} copy: {len} bytes at 0x{addr:x} is outside \
                 allocated device memory (frontier 0x{frontier:x})"
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_fault_display_names_everything() {
        let e = SimError::DeviceFault(Box::new(DeviceFault {
            kind: FaultKind::IllegalAddress,
            kernel: "oob_store".to_string(),
            stream: 0,
            sm: 2,
            cta: Some(1),
            warp: Some(3),
            warp_in_cta: Some(1),
            lane_mask: Some(0xFFFF_0000),
            pc: Some(4),
            instr: "st.global.b64 [r5+0], r2".to_string(),
            addr: Some(0x1080),
            cycle: 123,
        }));
        let s = e.to_string();
        assert!(s.contains("illegal address"), "{s}");
        assert!(s.contains("oob_store"), "{s}");
        assert!(s.contains("pc 4"), "{s}");
        assert!(s.contains("0x1080"), "{s}");
        assert!(s.contains("st.global"), "{s}");
        assert!(s.contains("sm 2"), "{s}");
    }

    #[test]
    fn deadlock_display_lists_queues() {
        let e = SimError::Deadlock(Box::new(DeadlockReport {
            cycle: 60_000,
            stream: 0,
            stalled_for: 50_000,
            warps: Vec::new(),
            host_queue: 1,
            device_queue: 0,
            events_in_flight: 0,
            outstanding_requests: 2,
            dram_queued: 0,
        }));
        let s = e.to_string();
        assert!(s.contains("no forward progress for 50000 cycles"), "{s}");
        assert!(s.contains("2 outstanding SM request(s)"), "{s}");
    }

    #[test]
    fn deadline_and_memcpy_drop_display() {
        let e = SimError::DeadlineExceeded {
            kernel: "sw_batch".to_string(),
            stream: 3,
            budget: 1_000_000,
            cycle: 1_234_567,
        };
        let s = e.to_string();
        assert!(s.contains("deadline exceeded"), "{s}");
        assert!(s.contains("stream 3"), "{s}");
        assert!(s.contains("1000000-cycle budget"), "{s}");

        let d = SimError::MemcpyDropped {
            index: 7,
            dir: CopyDir::D2H,
        };
        let s = d.to_string();
        assert!(s.contains("memcpy dropped"), "{s}");
        assert!(s.contains("d2h transfer #7"), "{s}");
    }

    #[test]
    fn launch_problem_display() {
        let e = SimError::InvalidLaunch {
            kernel: "k".to_string(),
            problem: LaunchProblem::TooManyThreads {
                requested: 4096,
                limit: 1536,
            },
        };
        assert!(e
            .to_string()
            .contains("4096 threads per CTA exceeds SM limit 1536"));
    }
}
