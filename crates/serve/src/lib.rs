//! `ggpu-serve` — a fault-isolated, backpressured alignment service over
//! the Genomics-GPU simulator.
//!
//! The benchmarks in this suite drive the device like a batch job: build
//! inputs, launch, synchronize, verify. Real genome-analysis deployments
//! look different — a queue of heterogeneous alignment *requests* arriving
//! continuously, sharing one device, where a single poisoned request must
//! not take the fleet down. This crate reproduces that host-side serving
//! layer on top of the simulator's stream model:
//!
//! * **Typed jobs** ([`JobKind`]): Smith–Waterman pairwise scoring,
//!   FM-index read mapping against a resident reference, and Pair-HMM
//!   forward likelihoods.
//! * **Shape batching** (`ShapeKey`): same-shaped requests fuse into one
//!   grid — same kernel binary, same strides — and are scheduled onto
//!   CUDA-style streams, one worker (stream + private slabs) at a time.
//! * **Admission control**: a bounded queue with per-tenant quotas.
//!   Overload answers a typed [`AdmitError::Overloaded`] with a retry
//!   hint — never an OOM abort — and sheds the lowest-priority queued job
//!   when a strictly higher-priority request arrives ([`JobOutcome::Shed`]).
//! * **Fault isolation & recovery**: a guest fault, hang, or deadline
//!   overrun poisons only the owning stream
//!   ([`ggpu_sim::Gpu::stream_fault`]); the service resets the stream
//!   ([`ggpu_sim::Gpu::reset_stream`]), moves the worker to a fresh one,
//!   and retries the batch with capped exponential backoff. Exhausted
//!   batches split in half, so a single poisoned job converges to its own
//!   terminal [`JobOutcome`] while its batch-mates still complete.
//! * **Deadlines**: per-job cycle budgets ride the launch
//!   ([`ggpu_sim::LaunchOptions::deadline`]) and are enforced *on device*
//!   by the watchdog machinery.
//! * **Observability**: every serving decision is recorded once, as a
//!   typed [`ServeEvent`] (launches carry the device stream and grid
//!   handle), and the [`ServeMetrics`] counters are counted from those
//!   events. [`Service::report`] folds the request trails and batch spans
//!   from the log, summarizes each stage's latencies exactly per
//!   tenant/shape/outcome (nearest-rank [`LatencySummary`]s from the
//!   trails), and bundles it all —
//!   including a unified host+device Chrome trace — as a [`ServeReport`].
//!
//! Everything is deterministic: given the same submissions and the same
//! fault plan, outcomes and device statistics are bit-identical from run
//! to run — nothing observable depends on hash iteration order or host
//! timing — which is what makes the fault-injection soak in
//! `tests/serve_soak.rs` assertable.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod batch;
mod error;
mod job;
mod latency;
mod metrics;
mod queue;
mod report;
mod served;
mod service;
mod shape;
mod telemetry;
pub mod traffic;

pub use error::{AdmitError, ServiceDead};
pub use job::{JobId, JobKind, JobOutcome, JobOutput, JobSpec, Priority, Tenant};
pub use latency::{LatencyStats, LatencySummary};
pub use metrics::ServeMetrics;
pub use report::ServeReport;
pub use service::Service;
pub use telemetry::{
    BatchSpan, GridRef, JobTrail, OutcomeTag, RejectReason, ServeEvent, ServeEventKind,
};

use ggpu_sim::GpuConfig;

/// Pairwise stride buckets (bases), ascending. A pair is served by the
/// smallest bucket that fits it; longer pairs are [`AdmitError::TooLarge`].
pub const PAIRWISE_BUCKETS: [u32; 2] = [32, 64];
/// The FM read length (bases) every FM mapping job has.
pub const FM_READ_LEN: u32 = 16;
/// The Pair-HMM read length (bases) every Pair-HMM job has.
pub const PHMM_READ_LEN: u32 = 10;
/// The Pair-HMM haplotype length (bases) every Pair-HMM job has.
pub const PHMM_HAP_LEN: u32 = 14;
/// Concurrent workers, each one stream and one slab set on the device.
pub const WORKERS: usize = 3;
/// Most jobs fused into one grid.
pub const MAX_BATCH: usize = 4;
/// Most admitted-but-unfinished jobs per tenant.
pub const TENANT_QUOTA: usize = 64;

/// Static configuration of a [`Service`].
///
/// Kernel shapes are compile-time properties of the service: the pairwise
/// length buckets ([`PAIRWISE_BUCKETS`]), the FM read length
/// ([`FM_READ_LEN`]) and the Pair-HMM pair geometry ([`PHMM_READ_LEN`],
/// [`PHMM_HAP_LEN`]) are constants, and jobs that fit no shape are refused
/// at admission with a typed error. So are the worker count
/// ([`WORKERS`]), the batch bound ([`MAX_BATCH`]) and the per-tenant quota
/// ([`TENANT_QUOTA`]). The service drives one device.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Base device configuration. The service forces the knobs it depends
    /// on (`stream_isolation`, and `trace`, which also keeps the per-grid
    /// records its report joins against) regardless of what this says.
    pub gpu: GpuConfig,
    /// Admission queue bound; beyond it submissions shed or are refused.
    pub queue_capacity: usize,
    /// Reference genome (2-bit codes) for FM mapping; empty disables the
    /// FM pipeline.
    pub fm_genome: Vec<u8>,
}

impl ServeConfig {
    /// A small configuration for tests: a 32-deep queue and the fast
    /// unit-test device. FM serving stays disabled until a genome is
    /// supplied.
    pub fn test_small() -> Self {
        ServeConfig {
            gpu: GpuConfig::test_small(),
            queue_capacity: 32,
            fm_genome: Vec::new(),
        }
    }
}
