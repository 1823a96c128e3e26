//! The SM lanes: every core with its port pair, the awake-lane list, and
//! the clock sleeping lanes are credited from — one owned [`Lanes`], a plain
//! field of [`super::Gpu`]. It is the SM side of the ports: the memory
//! system on the other side hands it reply ids ([`Lanes::deliver_reply`])
//! and knows an SM only as an index.
//!
//! # One thread, one merge order
//!
//! A device is ticked by the thread that calls it. Within a cycle every
//! awake lane ticks against device memory as a read-only snapshot, writing
//! only its own core and ports (stores and global atomics are deferred to
//! per-SM [`ggpu_sm::MemOp`] logs); the post phase then drains the lanes in
//! ascending SM index, each lane's output in issue order. That (SM index,
//! issue order) merge is what fixes every counter, profile and trace — it
//! is the results fence, so it stays although nothing runs beside it.
//!
//! # Sleeping lanes
//!
//! Ticking an SM with nothing resident, no request in flight, an empty
//! reply port and nothing left to merge changes only its idle counters, and
//! by an amount that is a pure function of how many cycles went by and how
//! many of them saw the device busy. Such a lane leaves the awake list at
//! the end of the post phase and is then visited by nothing — not the SM
//! phase, the merge, the fast-forward scan or the pending-work questions
//! ([`Lanes::holds_work`], [`Lanes::outstanding_requests`]) — until CTA dispatch
//! wakes it. The device keeps the two running totals in an [`IdleClock`];
//! a sleeping lane remembers the reading it is credited up to and receives
//! the difference when it wakes or at a settle point (anything that reads
//! counters). DESIGN.md, "Sleeping SMs", has the invariant in full.

use ggpu_isa::KernelId;
use ggpu_sm::{SmCore, SmPorts};

use crate::memory::DeviceMemory;

/// Device-wide running totals that a sleeping lane's per-cycle side effects
/// are a pure function of: cycles elapsed, and cycles elapsed while the
/// device was busy ([`super::Gpu::device_busy_at`]). Advanced by one per
/// ticked cycle and by the span per fast-forwarded span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct IdleClock {
    cycles: u64,
    busy_cycles: u64,
}

/// One SM "lane": the core plus the port pair all its traffic crosses.
#[derive(Debug)]
pub(super) struct SmLane {
    pub(super) core: SmCore,
    pub(super) ports: SmPorts,
    /// `None` while the lane is awake (ticked, merged and scanned every
    /// cycle). A sleeping lane holds the [`IdleClock`] reading up to which
    /// its idle cycles have been credited to its counters.
    credited_to: Option<IdleClock>,
}

impl SmLane {
    /// Bring a sleeping lane's counters up to `clock`. No-op when awake.
    fn settle(&mut self, clock: IdleClock) {
        if let Some(at) = &mut self.credited_to {
            self.core
                .credit_idle(clock.cycles - at.cycles, clock.busy_cycles - at.busy_cycles);
            *at = clock;
        }
    }

    /// Nothing resident, nothing in flight, nothing to merge: ticking this
    /// lane can only bump its idle counters.
    fn can_sleep(&self) -> bool {
        self.core.is_idle()
            && !self.core.has_outstanding()
            && self.ports.replies.is_empty()
            && self.ports.out.is_empty()
    }
}

/// Every lane in SM-index order, the awake ones' indices (ascending — the
/// merge order) and the clock the sleeping ones are credited from.
/// Everything on the per-cycle path goes through the awake list; only settle
/// points and stream-wide resets visit every lane.
#[derive(Debug)]
pub(super) struct Lanes {
    lanes: Vec<SmLane>,
    awake: Vec<usize>,
    clock: IdleClock,
}

impl Lanes {
    /// One lane per core, nothing resident, all asleep since cycle 0.
    pub(super) fn new(cores: impl Iterator<Item = SmCore>) -> Self {
        Lanes {
            lanes: cores
                .map(|core| SmLane {
                    core,
                    ports: SmPorts::new(),
                    credited_to: Some(IdleClock::default()),
                })
                .collect(),
            awake: Vec::new(),
            clock: IdleClock::default(),
        }
    }

    /// Number of lanes (SMs), awake or not.
    pub(super) fn len(&self) -> usize {
        self.lanes.len()
    }

    /// The lane at SM index `i`.
    pub(super) fn lane(&self, i: usize) -> &SmLane {
        &self.lanes[i]
    }

    /// The lane at SM index `i`.
    pub(super) fn lane_mut(&mut self, i: usize) -> &mut SmLane {
        &mut self.lanes[i]
    }

    /// Every lane in SM-index order, sleeping ones included — for settle
    /// points and stream-wide resets, never the per-cycle path.
    pub(super) fn all_mut(&mut self) -> impl Iterator<Item = &mut SmLane> {
        self.lanes.iter_mut()
    }

    /// Every SM core in SM-index order. Sleeping lanes' counters are only
    /// current after [`Lanes::settle`].
    pub(super) fn all_cores(&self) -> impl Iterator<Item = &SmCore> {
        self.lanes.iter().map(|l| &l.core)
    }

    // ---- the awake list ---------------------------------------------------

    /// Awake SM indices, ascending.
    pub(super) fn awake(&self) -> &[usize] {
        &self.awake
    }

    /// The awake lanes' cores, in [`Lanes::awake`] order.
    pub(super) fn awake_cores(&self) -> impl Iterator<Item = &SmCore> {
        self.awake.iter().map(|&i| &self.lanes[i].core)
    }

    /// Whether any lane holds work: resident warps or a request still out
    /// in the memory system. Only the awake lanes are asked — a sleeping
    /// lane holds neither.
    pub(super) fn holds_work(&self) -> bool {
        self.awake_cores()
            .any(|c| !c.is_idle() || c.has_outstanding())
    }

    /// Requests the lanes still have outstanding to the memory system.
    pub(super) fn outstanding_requests(&self) -> usize {
        self.awake_cores().map(SmCore::outstanding_requests).sum()
    }

    /// Put reply `id` in lane `sm`'s inbound port, to be consumed at the
    /// start of its tick this same cycle. A reply answers an outstanding
    /// request, and a lane with one never sleeps.
    pub(super) fn deliver_reply(&mut self, sm: usize, id: u64) {
        let lane = &mut self.lanes[sm];
        debug_assert!(lane.credited_to.is_none(), "reply to sleeping SM {sm}");
        lane.ports.replies.push(id);
    }

    /// The SM phase: tick every awake lane at cycle `now` against memory as
    /// a read-only snapshot.
    pub(super) fn tick_awake(&mut self, now: u64, mem: &DeviceMemory, device_busy: bool) {
        for &sm in &self.awake {
            let lane = &mut self.lanes[sm];
            lane.core.tick(now, mem, device_busy, &mut lane.ports);
        }
    }

    /// Wake lane `sm` (no-op if awake): credit its idle cycles up to now and
    /// put it back on the awake list. Must precede any change to the lane's
    /// state; the only caller is CTA dispatch.
    pub(super) fn wake(&mut self, sm: usize) {
        let lane = &mut self.lanes[sm];
        if lane.credited_to.is_some() {
            lane.settle(self.clock);
            lane.credited_to = None;
            let at = self.awake.partition_point(|&i| i < sm);
            self.awake.insert(at, sm);
        }
    }

    /// Advance the idle clock over `cycles` cycles that all saw the same
    /// `device_busy`: the one ticked cycle about to run its SM phase, or a
    /// fast-forwarded span.
    pub(super) fn advance_clock(&mut self, cycles: u64, device_busy: bool) {
        self.clock.cycles += cycles;
        if device_busy {
            self.clock.busy_cycles += cycles;
        }
    }

    /// Put every awake lane that [`SmLane::can_sleep`] to sleep, crediting
    /// nothing: it was ticked through the current cycle.
    pub(super) fn sleep_idle(&mut self) {
        let Lanes {
            lanes,
            awake,
            clock,
        } = self;
        awake.retain(|&i| {
            let lane = &mut lanes[i];
            if lane.can_sleep() {
                lane.credited_to = Some(*clock);
            }
            lane.credited_to.is_none()
        });
    }

    /// Credit every sleeping lane up to the current clock, so that reading
    /// any lane's counters sees what ticking it every cycle would have
    /// produced. Lanes stay asleep.
    pub(super) fn settle(&mut self) {
        for lane in &mut self.lanes {
            lane.settle(self.clock);
        }
    }

    /// Whether any SM could place a CTA of this launch shape right now.
    /// Sleeping lanes hold nothing, so they all answer alike and the lowest
    /// one speaks for the rest.
    pub(super) fn any_can_accept(&self, kernel: KernelId, threads: u32) -> bool {
        // Ascending and distinct: the first position that does not hold its
        // own index is the lowest sleeping SM.
        let asleep = self
            .awake
            .iter()
            .enumerate()
            .find_map(|(i, &sm)| (sm != i).then_some(i))
            .unwrap_or(self.awake.len());
        self.awake_cores().any(|c| c.can_accept(kernel, threads))
            || self
                .lanes
                .get(asleep)
                .is_some_and(|l| l.core.can_accept(kernel, threads))
    }
}
