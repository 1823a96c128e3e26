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
//! * **Observability**: every request is traced through its lifecycle
//!   (typed [`ServeEvent`]s carrying the device stream and grid handle),
//!   latencies land in dependency-free log-bucketed [`Histogram`]s per
//!   tenant/shape/outcome, and [`Service::report`] bundles it all —
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
mod histogram;
mod job;
mod metrics;
mod queue;
mod report;
mod service;
mod shape;
mod telemetry;
pub mod traffic;

pub use error::{AdmitError, ServiceDead};
pub use histogram::{Histogram, LatencyStats};
pub use job::{JobId, JobKind, JobOutcome, JobOutput, JobSpec, Priority, Tenant};
pub use metrics::ServeMetrics;
pub use report::ServeReport;
pub use service::Service;
pub use telemetry::{
    BatchSpan, GridRef, JobTrail, OutcomeTag, RejectReason, ServeEvent, ServeEventKind,
};

use ggpu_sim::GpuConfig;

/// Static configuration of a [`Service`].
///
/// Kernel shapes are compile-time properties of the service: pairwise
/// length buckets, the FM read length, and the Pair-HMM pair geometry are
/// all fixed at [`Service::new`], and jobs that fit no configured shape
/// are refused at admission with a typed error.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Base device configuration. The service forces the knobs it depends
    /// on (`stream_isolation`, `flush_between_kernels`, and `trace`, which
    /// also keeps the per-grid records its report joins against)
    /// regardless of what this says.
    pub gpu: GpuConfig,
    /// Devices in the node the service drives (each a full `gpu` clone;
    /// `0` is treated as `1`). Workers round-robin over devices, so the
    /// same submission stream shards across the node; the FM reference is
    /// uploaded once and broadcast to peer devices over the inter-GPU
    /// fabric.
    pub n_devices: usize,
    /// Concurrent workers (one stream + slab set each, pinned to device
    /// `worker % n_devices`).
    pub workers: usize,
    /// Admission queue bound; beyond it submissions shed or are refused.
    pub queue_capacity: usize,
    /// Maximum admitted-but-unfinished jobs per tenant.
    pub tenant_quota: usize,
    /// Maximum jobs fused into one grid.
    pub max_batch: usize,
    /// Pairwise stride buckets (bases). A pair is served by the smallest
    /// bucket that fits it; longer pairs are [`AdmitError::TooLarge`].
    pub pairwise_buckets: Vec<u32>,
    /// Reference genome (2-bit codes) for FM mapping; empty disables the
    /// FM pipeline.
    pub fm_genome: Vec<u8>,
    /// Fixed FM read length (bases).
    pub fm_read_len: u32,
    /// Fixed Pair-HMM read length; 0 disables the pipeline.
    pub phmm_read_len: u32,
    /// Fixed Pair-HMM haplotype length (must be >= the read length).
    pub phmm_hap_len: u32,
}

impl ServeConfig {
    /// A small configuration for tests: two workers, modest buckets, and
    /// the fast unit-test device. FM serving stays disabled until a
    /// genome is supplied.
    pub fn test_small() -> Self {
        ServeConfig {
            gpu: GpuConfig::test_small(),
            n_devices: 1,
            workers: 2,
            queue_capacity: 32,
            tenant_quota: 24,
            max_batch: 8,
            pairwise_buckets: vec![32, 64],
            fm_genome: Vec::new(),
            fm_read_len: 16,
            phmm_read_len: 10,
            phmm_hap_len: 14,
        }
    }
}
