//! Fused batches: a set of same-shape jobs that share one grid, and its
//! retry state. How a batch is laid out in the device slabs and what its
//! result words mean belongs to the shape's pipeline
//! (`crate::served`).

use crate::queue::QueuedJob;
use crate::shape::ShapeKey;

/// A unit of device work: same-shape jobs that share one fused grid,
/// with its retry state.
#[derive(Debug)]
pub(crate) struct Batch {
    /// Service-unique batch id (telemetry join key; split halves get
    /// fresh ids).
    pub(crate) id: u64,
    /// The common shape (every member classifies to this key).
    pub(crate) shape: ShapeKey,
    /// Members, in admission order.
    pub(crate) jobs: Vec<QueuedJob>,
    /// Failed launches so far (0 for a fresh batch).
    pub(crate) attempts: u32,
    /// Earliest round this batch may be scheduled (backoff).
    pub(crate) not_before: u64,
}

impl Batch {
    pub(crate) fn new(id: u64, jobs: Vec<QueuedJob>) -> Self {
        debug_assert!(!jobs.is_empty());
        let shape = jobs[0].shape;
        debug_assert!(jobs.iter().all(|j| j.shape == shape));
        Batch {
            id,
            shape,
            jobs,
            attempts: 0,
            not_before: 0,
        }
    }

    /// The grid cycle budget: the tightest member budget. Members that set
    /// none are unbounded (the device watchdog still applies), so `None`
    /// only when every member is.
    pub(crate) fn cycle_budget(&self) -> Option<u64> {
        self.jobs.iter().filter_map(|j| j.spec.deadline).min()
    }
}
