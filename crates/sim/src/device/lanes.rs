//! The SM lanes: every core with its port pair, the awake-lane list, and
//! the busy total sleeping lanes are credited from — one owned [`Lanes`], a
//! plain field of [`super::Gpu`]. It is the SM side of the ports: the memory
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
//! wakes it. Like a parked lane it remembers the first cycle `from` it has
//! not been credited (and the device's busy total at that point), and
//! receives `end - from` cycles, the busy ones among them, when it wakes or
//! at a settle point (anything that reads counters). DESIGN.md, "Sleeping
//! SMs", has the invariant in full.
//!
//! # Parked lanes
//!
//! An awake lane whose resident warps are all blocked until some cycle
//! `until` (or until a reply), with an empty reply port, is **parked** by
//! the fast-forward scan ([`Lanes::park_idle`]) when the scan reaches it:
//! ticking it would only repeat the same stall record once per cycle. The
//! SM phase passes it by and the scan reads its stored `until` instead of
//! asking the core again. Its cycles from `from` on are credited in one
//! [`ggpu_sm::SmCore::skip_cycles`] call when it resumes — at `until`, on a
//! reply ([`Lanes::tick_awake`]), before dispatch places a CTA on it
//! ([`Lanes::wake`]), before a child grid's retirement or a kill changes
//! its core ([`Lanes::unpark`], [`Lanes::unpark_all`]) — and at every settle
//! point, which credits it and leaves it parked. Only the fast-forward scan
//! parks, so an engine with `fast_forward` off never has a parked lane.

use ggpu_isa::KernelId;
use ggpu_sm::{SmCore, SmPorts};

use crate::memory::DeviceMemory;

/// A sleeping lane's uncredited span: cycles `from..` are not yet credited
/// to its idle counters, and `busy` is [`Lanes`]' busy total at `from`.
#[derive(Debug, Clone, Copy)]
struct Asleep {
    from: u64,
    busy: u64,
}

/// A parked lane's skipped span: cycles `from..` are not yet credited, and
/// no warp can issue before `until` (`u64::MAX`: only a reply or an outside
/// change releases one).
#[derive(Debug, Clone, Copy)]
struct Parked {
    from: u64,
    until: u64,
}

/// One SM "lane": the core plus the port pair all its traffic crosses.
#[derive(Debug)]
pub(super) struct SmLane {
    pub(super) core: SmCore,
    pub(super) ports: SmPorts,
    /// `None` while the lane is awake (ticked, merged and scanned every
    /// cycle), `Some` while it sleeps.
    asleep: Option<Asleep>,
    /// `Some` while the lane is awake but parked.
    parked: Option<Parked>,
}

impl SmLane {
    /// Credit a sleeping lane every cycle before `end` that it has not been
    /// credited yet; `busy` is the busy total through `end - 1`. No-op when
    /// awake.
    fn settle(&mut self, end: u64, busy: u64) {
        if let Some(a) = &mut self.asleep {
            self.core.credit_idle(end - a.from, busy - a.busy);
            *a = Asleep { from: end, busy };
        }
    }

    /// Credit a parked lane every cycle before `end` that it has not been
    /// credited yet, as ticking it would have. No-op when not parked.
    fn credit_parked(&mut self, end: u64) {
        let Some(p) = &mut self.parked else {
            return;
        };
        // The audit: nothing released a warp inside the span, so it really
        // was dead. `skip_cycles` checks that no scheduler could pick.
        debug_assert!(
            self.core.next_wake(p.from) >= end,
            "parked span {}..{end} was not dead",
            p.from
        );
        if end > p.from {
            // A parked lane holds warps, so `device_busy` goes unread.
            debug_assert!(!self.core.is_idle(), "parked lane without warps");
            self.core.skip_cycles(p.from, false, end - p.from);
            p.from = end;
        }
    }

    /// Credit a parked lane through `end` (exclusive) and unpark it.
    fn unpark(&mut self, end: u64) {
        self.credit_parked(end);
        self.parked = None;
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
/// merge order) and the busy total the sleeping ones are credited from.
/// Everything on the per-cycle path goes through the awake list; only settle
/// points and stream-wide resets visit every lane.
#[derive(Debug)]
pub(super) struct Lanes {
    lanes: Vec<SmLane>,
    awake: Vec<usize>,
    /// Cycles so far that saw the device busy
    /// ([`super::Gpu::device_busy_at`]).
    busy_cycles: u64,
    /// Lane-ticks the SM phase passed by because the lane was parked.
    #[cfg(test)]
    parked_ticks: u64,
}

impl Lanes {
    /// One lane per core, nothing resident, all asleep since cycle 0: the
    /// first cycle ticked is 1.
    pub(super) fn new(cores: impl Iterator<Item = SmCore>) -> Self {
        Lanes {
            lanes: cores
                .map(|core| SmLane {
                    core,
                    ports: SmPorts::new(),
                    asleep: Some(Asleep { from: 1, busy: 0 }),
                    parked: None,
                })
                .collect(),
            awake: Vec::new(),
            busy_cycles: 0,
            #[cfg(test)]
            parked_ticks: 0,
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

    /// Every SM core in SM-index order. Sleeping and parked lanes' counters
    /// are only current after [`Lanes::settle`].
    pub(super) fn all_cores(&self) -> impl Iterator<Item = &SmCore> {
        self.lanes.iter().map(|l| &l.core)
    }

    // ---- the awake list ---------------------------------------------------

    /// Awake SM indices, ascending, parked lanes included.
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
    /// start of its tick this same cycle (a parked lane resumes for it). A
    /// reply answers an outstanding request, and a lane with one never
    /// sleeps.
    pub(super) fn deliver_reply(&mut self, sm: usize, id: u64) {
        let lane = &mut self.lanes[sm];
        debug_assert!(lane.asleep.is_none(), "reply to sleeping SM {sm}");
        lane.ports.replies.push(id);
    }

    /// The SM phase: tick every awake lane at cycle `now` against memory as
    /// a read-only snapshot. A parked lane is passed by until its wake-up
    /// or a reply, then credited its skipped cycles and ticked.
    pub(super) fn tick_awake(&mut self, now: u64, mem: &DeviceMemory, device_busy: bool) {
        for &sm in &self.awake {
            let lane = &mut self.lanes[sm];
            if let Some(p) = lane.parked {
                if now < p.until && lane.ports.replies.is_empty() {
                    #[cfg(test)]
                    {
                        self.parked_ticks += 1;
                    }
                    continue;
                }
                lane.unpark(now);
            }
            lane.core.tick(now, mem, device_busy, &mut lane.ports);
        }
    }

    /// Ready lane `sm` for dispatch at cycle `now`, before its state
    /// changes and before `now` is counted busy or not: a sleeping lane is
    /// credited the cycles before `now` and put back on the awake list, a
    /// parked one is credited the same and unparked. Either way it ticks
    /// `now` itself.
    pub(super) fn wake(&mut self, sm: usize, now: u64) {
        let lane = &mut self.lanes[sm];
        if lane.asleep.is_some() {
            lane.settle(now, self.busy_cycles);
            lane.asleep = None;
            let at = self.awake.partition_point(|&i| i < sm);
            self.awake.insert(at, sm);
        } else {
            lane.unpark(now);
        }
    }

    /// Unpark lane `sm` (no-op if not parked), crediting it every cycle
    /// before `end`. Must precede any outside change to its core.
    pub(super) fn unpark(&mut self, sm: usize, end: u64) {
        self.lanes[sm].unpark(end);
    }

    /// [`Lanes::unpark`] every awake lane.
    pub(super) fn unpark_all(&mut self, end: u64) {
        for &sm in &self.awake {
            self.lanes[sm].unpark(end);
        }
    }

    /// Count `cycles` cycles that all saw the same `device_busy` into the
    /// busy total: the one ticked cycle about to run its SM phase, or a
    /// fast-forwarded span.
    pub(super) fn count_busy(&mut self, cycles: u64, device_busy: bool) {
        if device_busy {
            self.busy_cycles += cycles;
        }
    }

    /// Put every awake lane that [`SmLane::can_sleep`] to sleep, crediting
    /// nothing: it was ticked through the current cycle, so `from` (the
    /// current cycle + 1) is its first uncredited one.
    pub(super) fn sleep_idle(&mut self, from: u64) {
        let Lanes {
            lanes,
            awake,
            busy_cycles,
            ..
        } = self;
        awake.retain(|&i| {
            let lane = &mut lanes[i];
            if lane.can_sleep() {
                lane.asleep = Some(Asleep {
                    from,
                    busy: *busy_cycles,
                });
            }
            lane.asleep.is_none()
        });
    }

    /// The fast-forward scan over the awake lanes, after a ticked cycle and
    /// before `c0`: park every lane it asks that holds warps none of which
    /// can issue at `c0`, and return the earliest cycle at which any awake
    /// lane can act — `c0` as soon as one must tick then, without visiting
    /// the lanes after it. A parked lane answers with its stored wake-up
    /// while that lies beyond `c0`; a pending reply means a tick at `c0`.
    pub(super) fn park_idle(&mut self, c0: u64) -> u64 {
        let mut earliest = u64::MAX;
        for &sm in &self.awake {
            let lane = &mut self.lanes[sm];
            let wake = match lane.parked {
                Some(p) if p.until > c0 => p.until,
                None if !lane.ports.replies.is_empty() => c0,
                _ => {
                    // A wake-up that has come round is a boundary at which
                    // the stall record may change (a data hazard wakes at
                    // its earliest operand), so the span before it is
                    // credited on the old record and the core asked anew.
                    lane.unpark(c0);
                    let wake = lane.core.next_wake(c0);
                    if wake > c0 && !lane.core.is_idle() {
                        lane.parked = Some(Parked {
                            from: c0,
                            until: wake,
                        });
                    }
                    wake
                }
            };
            if wake <= c0 {
                return c0;
            }
            earliest = earliest.min(wake);
        }
        earliest
    }

    /// Credit a fast-forwarded span of `span` cycles from `c0` to every
    /// awake lane that is not parked (a parked lane's share waits for its
    /// next credit); sleeping lanes get theirs through the busy total.
    pub(super) fn skip_span(&mut self, c0: u64, device_busy: bool, span: u64) {
        for &sm in &self.awake {
            let lane = &mut self.lanes[sm];
            if lane.parked.is_none() {
                lane.core.skip_cycles(c0, device_busy, span);
            }
        }
        self.count_busy(span, device_busy);
    }

    /// Credit every sleeping and every parked lane through cycle `end - 1`
    /// (the current cycle), so that reading any lane's counters sees what
    /// ticking it every cycle would have produced. Lanes stay asleep or
    /// parked.
    pub(super) fn settle(&mut self, end: u64) {
        for lane in &mut self.lanes {
            lane.settle(end, self.busy_cycles);
            lane.credit_parked(end);
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

#[cfg(test)]
mod tests {
    use ggpu_isa::{KernelBuilder, LaunchDims, Operand, Program, Space, Width};

    use crate::{Gpu, GpuConfig};

    /// Every thread sums eight words of a 128 B line of its own, on a device
    /// without L1: each sum waits on a NoC round trip, and the memory
    /// system has an event on most cycles.
    fn run(fast_forward: bool) -> Gpu {
        let mut b = KernelBuilder::new("sum_line");
        let base = b.reg();
        b.ld_param(base, 0);
        let tid = b.global_tid();
        let line = b.reg();
        b.imul(line, tid, Operand::imm(128));
        b.iadd(line, line, Operand::reg(base));
        let acc = b.reg();
        b.mov(acc, Operand::imm(0));
        for word in 0..8 {
            let v = b.reg();
            b.ld(Space::Global, Width::B64, v, line, word * 8);
            b.iadd(acc, acc, Operand::reg(v));
        }
        b.st(Space::Global, Width::B64, Operand::reg(acc), line, 0);
        b.exit();
        let mut program = Program::new();
        let k = program.add(b.finish());
        let cfg = GpuConfig::test_small()
            .with_cache_sizes(0, 4 << 20)
            .with_fast_forward(fast_forward);
        let mut gpu = Gpu::new(program, cfg);
        let buf = gpu.malloc(256 * 128);
        gpu.run_kernel(k, LaunchDims::linear(4, 64), &[buf.0]);
        gpu
    }

    #[test]
    fn lanes_park_while_the_clock_ticks_only_with_fast_forward_on() {
        let on = run(true);
        let off = run(false);
        assert!(
            on.lanes.parked_ticks > 0,
            "no lane was parked on a ticked cycle"
        );
        assert_eq!(off.lanes.parked_ticks, 0);
        assert_eq!(on.stats(), off.stats());
        assert_eq!(on.cycle(), off.cycle());
    }
}
