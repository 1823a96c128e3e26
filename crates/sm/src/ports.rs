//! Port/queue types decoupling the SM from the rest of the device.
//!
//! An [`SmCore`](crate::SmCore) never reaches into the memory system and the
//! memory system never reaches into an SM mid-cycle: all traffic crosses an
//! explicit pair of per-SM queues bundled in [`SmPorts`].
//!
//! * **Inbound** — [`SmPorts::replies`]: request ids answered by the memory
//!   system, delivered at the start of the SM's next
//!   [`tick`](crate::SmCore::tick).
//! * **Outbound** — [`SmPorts::out`]: everything one cycle produced
//!   ([`TickOutput`]): coalesced off-chip requests, deferred functional
//!   memory writes ([`MemOp`]), CDP launches, completed CTAs, and traps.
//!
//! During a tick the SM sees global memory as a *read-only* snapshot of
//! cycle-start state ([`GlobalMem`](crate::GlobalMem) reads take `&self`);
//! stores and global atomics are logged as [`MemOp`]s and applied by the
//! device **after** every SM has ticked, in deterministic merge order — SM
//! index first, then issue order within the SM
//! ([`SmCore::commit_mem_ops`](crate::SmCore::commit_mem_ops)). This is what
//! makes the per-SM phase a pure function of SM-local state plus its ports:
//! the order SMs tick in cannot change a result.

use ggpu_isa::{AtomOp, Reg, Row, Width};

/// Kind of off-chip memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReqKind {
    /// Read that must be answered with `SmCore::mem_response`.
    Load,
    /// Write-through store; fire and forget.
    Store,
    /// Atomic executed at the memory partition; must be answered.
    Atomic,
}

/// An off-chip memory request emitted by [`SmCore::tick`](crate::SmCore::tick).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// SM-local request id (echoed back through [`SmPorts::replies`]).
    pub id: u64,
    /// 128-byte-aligned byte address.
    pub addr: u64,
    /// Request kind.
    pub kind: ReqKind,
    /// Whether this request came through the texture path.
    pub tex: bool,
}

/// A deferred functional memory update, logged during the SM's tick and
/// committed by the device at end of cycle in (SM index, issue order).
///
/// A warp's store is one entry, held inline (the log is a reused `Vec`, so
/// logging allocates nothing). Entries apply in issue order and a store's
/// lanes in ascending order, which leaves memory exactly as one entry per
/// lane in that order would.
// The store variant is half a kilobyte on purpose: boxing it would put an
// allocation on every warp store, and stores are most of the log.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// One warp-wide store: the low `width` bytes of `values[lane]` at
    /// `addrs[lane]`, for the lanes of `mask` in ascending order.
    Store {
        /// Byte address per lane.
        addrs: Row,
        /// Value per lane (low `width` bytes).
        values: Row,
        /// Lanes that store.
        mask: u32,
        /// Access width.
        width: Width,
    },
    /// Global atomic: applied at commit; the old value is written back to
    /// the issuing warp's destination register lane.
    Atomic {
        /// Atomic operation.
        op: AtomOp,
        /// Byte address (8-byte granule).
        addr: u64,
        /// Source operand.
        src: u64,
        /// CAS compare value (ignored by non-CAS ops).
        cas: u64,
        /// SM-local warp index to write the old value back to.
        warp: usize,
        /// Destination register for the old value.
        dst: Reg,
        /// Lane within the warp.
        lane: usize,
    },
}

/// A device-side child-kernel launch emitted by a CDP kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceLaunch {
    /// Child kernel id within the shared program.
    pub kernel: u32,
    /// Child grid size (CTAs).
    pub grid_x: u32,
    /// Child CTA size (threads).
    pub block_x: u32,
    /// Parameters copied from the parent-provided global-memory block.
    pub params: Vec<u64>,
    /// CTA slot of the parent (for `Dsync` bookkeeping).
    pub parent_slot: usize,
    /// Grid handle of the parent (guards slot reuse on completion).
    pub parent_grid: u64,
}

/// Notification that a CTA has finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedCta {
    /// Grid-instance handle the CTA belonged to.
    pub grid_handle: u64,
    /// SM-local slot index that was freed.
    pub slot: usize,
}

/// Everything produced by one SM cycle.
///
/// The buffers are drained in place by the device each cycle (retaining
/// their capacity), so the steady-state hot path performs no allocation.
#[derive(Debug, Default)]
pub struct TickOutput {
    /// Off-chip memory requests to route through the interconnect, in issue
    /// order.
    pub mem_requests: Vec<MemRequest>,
    /// Deferred functional stores/atomics, in issue order; committed via
    /// [`SmCore::commit_mem_ops`](crate::SmCore::commit_mem_ops).
    pub mem_ops: Vec<MemOp>,
    /// CDP child launches.
    pub launches: Vec<DeviceLaunch>,
    /// CTAs that completed this cycle.
    pub completed: Vec<CompletedCta>,
    /// Guest faults raised this cycle.
    pub traps: Vec<Trap>,
    /// Warp-instructions issued; accumulates across calls (the device reads
    /// it once per device cycle as a forward-progress signal and resets it).
    pub issued: u64,
}

impl TickOutput {
    /// True when the cycle produced nothing for the device to merge.
    pub fn is_empty(&self) -> bool {
        self.issued == 0
            && self.mem_requests.is_empty()
            && self.mem_ops.is_empty()
            && self.launches.is_empty()
            && self.completed.is_empty()
            && self.traps.is_empty()
    }
}

use crate::core::Trap;

/// The SM's side of the port boundary: one inbound reply queue plus the
/// outbound [`TickOutput`]. Owned one-per-SM by the device and handed to
/// [`SmCore::tick`](crate::SmCore::tick) each cycle.
#[derive(Debug, Default)]
pub struct SmPorts {
    /// Memory-system replies (request ids), delivered to the SM at the
    /// start of its next tick in arrival order.
    pub replies: Vec<u64>,
    /// Everything the SM produced this cycle.
    pub out: TickOutput,
}

impl SmPorts {
    /// Empty ports.
    pub fn new() -> Self {
        SmPorts::default()
    }
}
