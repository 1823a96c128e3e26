//! Warp execution context: SIMT reconvergence stack, registers as 32-lane
//! rows ([`Warp::row`] / [`Warp::write_row`] are how instructions read and
//! write them), scoreboard timing state, and the remembered answer of the
//! readiness rule ([`Warp::remembered`] / [`Warp::forget_readiness`]).

use ggpu_isa::{Operand, Reg, Row, WARP_SIZE};

/// Full warp mask (all 32 lanes active).
pub(crate) const FULL_MASK: u32 = u32::MAX;

/// Sentinel reconvergence PC for the base SIMT entry (never popped).
pub(crate) const NO_RECONV: usize = usize::MAX;

/// One entry of the SIMT reconvergence stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SimtEntry {
    /// Next PC for this execution path.
    pub pc: usize,
    /// Reconvergence PC (immediate post-dominator); the entry pops when
    /// `pc == rpc`.
    pub rpc: usize,
    /// Active lanes on this path.
    pub mask: u32,
}

/// What a warp is parked on, if anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WarpBlock {
    /// Runnable.
    None,
    /// Waiting at a CTA barrier.
    Barrier,
    /// Waiting for child kernels (`cudaDeviceSynchronize`).
    Dsync,
    /// Raised a guest fault; permanently parked until the device resets.
    Trapped,
}

/// Why a warp most recently could not issue (for stall classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitKind {
    /// Ready to issue.
    Ready,
    /// Waiting on an outstanding memory load.
    Memory,
    /// In a post-branch control-hazard window.
    Control,
    /// Waiting on an ALU result.
    Data,
    /// Parked at a barrier or device sync.
    Sync,
}

/// A warp's architectural and micro-architectural state.
#[derive(Debug, Clone)]
pub(crate) struct Warp {
    /// SIMT stack; the top entry is the executing path.
    pub stack: Vec<SimtEntry>,
    /// Registers, one 32-lane row each.
    pub regs: Vec<Row>,
    /// Cycle at which each register's value is available (RAW timing).
    pub reg_ready: Vec<u64>,
    /// Outstanding memory fills targeting each register.
    pub reg_pending: Vec<u16>,
    /// Earliest cycle this warp may issue again.
    pub next_issue_at: u64,
    /// Whether the post-issue window is a control hazard (vs data).
    pub issue_block_is_control: bool,
    /// Barrier / device-sync parking.
    pub block: WarpBlock,
    /// Warp has executed `Exit`.
    pub done: bool,
    /// Index of the owning CTA slot on the SM.
    pub cta_slot: usize,
    /// Warp index within its CTA.
    pub warp_in_cta: u32,
    /// Monotonic age for GTO/OLD scheduling (smaller = older).
    pub age: u64,
    /// The readiness answer last derived for this warp (see
    /// [`Warp::remembered`]). Written by `SmCore::readiness` alone, dropped
    /// by [`Warp::forget_readiness`] alone.
    pub memo: Option<(WaitKind, u64)>,
}

impl Warp {
    /// Create a warp starting at PC 0 with `active` initial lanes.
    pub fn new(
        regs_per_thread: u32,
        active: u32,
        cta_slot: usize,
        warp_in_cta: u32,
        age: u64,
    ) -> Self {
        let n = regs_per_thread.max(1) as usize;
        Warp {
            stack: vec![SimtEntry {
                pc: 0,
                rpc: NO_RECONV,
                mask: active,
            }],
            regs: vec![[0; WARP_SIZE]; n],
            reg_ready: vec![0; n],
            reg_pending: vec![0; n],
            next_issue_at: 0,
            issue_block_is_control: false,
            block: WarpBlock::None,
            done: false,
            cta_slot,
            warp_in_cta,
            age,
            memo: None,
        }
    }

    /// The remembered readiness answer, if it still holds at `now`.
    ///
    /// Nothing but an event can undo `Ready`, `Memory` or `Sync`, so those
    /// hold until [`Warp::forget_readiness`] (a ready warp's wake-up is the
    /// asking cycle); a timed wait holds until the wake-up it named — the
    /// cycle the rule itself says to ask again. `now` never decreases for a
    /// warp, which is what lets an answer given at one cycle stand at later
    /// ones.
    #[inline]
    pub fn remembered(&self, now: u64) -> Option<(WaitKind, u64)> {
        match self.memo? {
            (WaitKind::Ready, _) => Some((WaitKind::Ready, now)),
            (kind, wake) if now < wake => Some((kind, wake)),
            _ => None,
        }
    }

    /// Drop the remembered readiness answer. Called at exactly the events
    /// that write a field the readiness rule reads: the warp's own issue
    /// (PC, issue window, scoreboard, parking, exit, trap), an arriving fill,
    /// and a release from a barrier or a device sync.
    #[inline]
    pub fn forget_readiness(&mut self) {
        self.memo = None;
    }

    /// Pop reconverged SIMT entries, returning the current entry. `None`
    /// when the stack would underflow (warp must be `done`).
    pub fn reconverge(&mut self) -> Option<SimtEntry> {
        while let Some(top) = self.stack.last() {
            if top.pc == top.rpc {
                self.stack.pop();
            } else {
                return Some(*top);
            }
        }
        None
    }

    /// Write register `r` in `lane`.
    #[inline]
    pub fn write(&mut self, r: Reg, lane: usize, v: u64) {
        self.regs[r.0 as usize][lane] = v;
    }

    /// An operand across the warp: the register's row, or the immediate in
    /// every lane.
    #[inline]
    pub fn row(&self, op: Operand) -> Row {
        match op {
            Operand::Reg(r) => self.regs[r.0 as usize],
            Operand::Imm(v) => [v; WARP_SIZE],
        }
    }

    /// `dst[lane] = row[lane]` for the lanes of `mask`; the other lanes keep
    /// their contents. The one register write-back of every warp-wide
    /// instruction.
    #[inline]
    pub fn write_row(&mut self, dst: Reg, mask: u32, row: &Row) {
        let dst = &mut self.regs[dst.0 as usize];
        if mask == FULL_MASK {
            *dst = *row;
        } else {
            for lane in lanes(mask) {
                dst[lane] = row[lane];
            }
        }
    }

    /// Advance the current path's PC by one instruction.
    pub fn advance_pc(&mut self) {
        if let Some(top) = self.stack.last_mut() {
            top.pc += 1;
        }
    }

    /// Apply a (possibly divergent) branch outcome.
    ///
    /// `taken` is the set of active lanes taking the branch; the current
    /// entry's mask minus `taken` falls through. On divergence the current
    /// entry becomes the reconvergence continuation and both paths are
    /// pushed (taken executes first).
    pub fn branch(&mut self, taken: u32, target: usize, fallthrough: usize, reconv: usize) {
        let top = self.stack.last_mut().expect("branch on empty SIMT stack");
        let mask = top.mask;
        let taken = taken & mask;
        let not_taken = mask & !taken;
        if taken == 0 {
            top.pc = fallthrough;
        } else if not_taken == 0 {
            top.pc = target;
        } else {
            top.pc = reconv;
            self.stack.push(SimtEntry {
                pc: fallthrough,
                rpc: reconv,
                mask: not_taken,
            });
            self.stack.push(SimtEntry {
                pc: target,
                rpc: reconv,
                mask: taken,
            });
        }
    }

    /// One of the memory fills `r` waits on has arrived at `now`; the value
    /// is readable the cycle after the last one.
    pub fn fill_arrived(&mut self, r: Reg, now: u64) {
        self.forget_readiness();
        let i = r.0 as usize;
        self.reg_pending[i] = self.reg_pending[i].saturating_sub(1);
        if self.reg_pending[i] == 0 {
            self.reg_ready[i] = now + 1;
        }
    }

    /// The readiness rule: can an instruction reading `srcs` and writing
    /// `dst` issue at `now`, and if not, why and until when.
    ///
    /// The second value is the warp's timed wake-up: `now` when it is ready,
    /// the next cycle at which its classification can change by the clock
    /// alone otherwise, and `u64::MAX` when only an external event (barrier
    /// release, child-grid completion, a memory reply) can release it. For a
    /// data hazard that is the *earliest* operand boundary, not the latest:
    /// the engine re-asks at every boundary, and which cycles it proves dead
    /// (and therefore skips) is part of the pinned results.
    pub fn readiness(
        &self,
        srcs: &[Option<Reg>; 3],
        dst: Option<Reg>,
        now: u64,
    ) -> (WaitKind, u64) {
        if self.block != WarpBlock::None {
            // Barrier/Dsync/Trapped: released only by another warp's issue
            // or an external completion; no timed boundary.
            return (WaitKind::Sync, u64::MAX);
        }
        if self.next_issue_at > now {
            // Control/Data until the issue window reopens; registers are
            // re-examined only from then on.
            let kind = if self.issue_block_is_control {
                WaitKind::Control
            } else {
                WaitKind::Data
            };
            return (kind, self.next_issue_at);
        }
        let mut wake = u64::MAX;
        for r in srcs.iter().flatten().copied().chain(dst) {
            let i = r.0 as usize;
            if self.reg_pending[i] > 0 {
                // Awaiting memory fills: wakes only via `fill_arrived`, which
                // the engine bounds by its event queue.
                return (WaitKind::Memory, u64::MAX);
            }
            if self.reg_ready[i] > now {
                wake = wake.min(self.reg_ready[i]);
            }
        }
        if wake == u64::MAX {
            (WaitKind::Ready, now)
        } else {
            (WaitKind::Data, wake)
        }
    }
}

/// Build a mask with the lowest `n` lanes set.
pub(crate) fn lane_mask(n: u32) -> u32 {
    if n >= WARP_SIZE as u32 {
        FULL_MASK
    } else {
        (1u32 << n) - 1
    }
}

/// Iterate over the set lanes of a mask in ascending order, one step per
/// set bit.
pub(crate) fn lanes(mask: u32) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        let lane = (rest != 0).then_some(rest.trailing_zeros() as usize);
        rest &= rest.wrapping_sub(1);
        lane
    })
}

/// A row holding `f(lane)` in the lanes of `mask`, for values that are real
/// work per lane (a byte gather, a libm call); the other lanes are zero.
#[inline]
pub(crate) fn active_row(mask: u32, f: impl Fn(usize) -> u64) -> Row {
    let mut row = [0; WARP_SIZE];
    for lane in lanes(mask) {
        row[lane] = f(lane);
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_mask_edges() {
        assert_eq!(lane_mask(0), 0);
        assert_eq!(lane_mask(1), 1);
        assert_eq!(lane_mask(32), FULL_MASK);
        assert_eq!(lane_mask(5), 0b11111);
    }

    #[test]
    fn register_read_write_per_lane() {
        let mut w = Warp::new(4, FULL_MASK, 0, 0, 0);
        w.write(Reg(2), 7, 42);
        let row = w.row(Operand::Reg(Reg(2)));
        assert_eq!((row[7], row[6]), (42, 0));
        assert_eq!(w.row(Operand::Imm(9)), [9; WARP_SIZE]);
    }

    #[test]
    fn uniform_branch_no_divergence() {
        let mut w = Warp::new(1, FULL_MASK, 0, 0, 0);
        w.branch(FULL_MASK, 10, 1, 20);
        assert_eq!(w.stack.len(), 1);
        assert_eq!(w.reconverge().unwrap().pc, 10);

        let mut w2 = Warp::new(1, FULL_MASK, 0, 0, 0);
        w2.branch(0, 10, 1, 20);
        assert_eq!(w2.reconverge().unwrap().pc, 1);
    }

    #[test]
    fn divergent_branch_pushes_both_paths_taken_first() {
        let mut w = Warp::new(1, FULL_MASK, 0, 0, 0);
        w.branch(0xFFFF, 10, 1, 20);
        assert_eq!(w.stack.len(), 3);
        let top = w.reconverge().unwrap();
        assert_eq!(top.pc, 10);
        assert_eq!(top.mask, 0xFFFF);
        assert_eq!(top.rpc, 20);
        // The continuation entry waits at the reconvergence point.
        assert_eq!(w.stack[0].pc, 20);
        assert_eq!(w.stack[0].mask, FULL_MASK);
    }

    #[test]
    fn reconvergence_pops_and_restores_full_mask() {
        let mut w = Warp::new(1, FULL_MASK, 0, 0, 0);
        w.branch(0xFF, 10, 1, 20);
        // Taken path runs to the reconvergence point.
        w.stack.last_mut().unwrap().pc = 20;
        let e = w.reconverge().unwrap();
        assert_eq!(e.pc, 1, "fallthrough path executes next");
        assert_eq!(e.mask, FULL_MASK & !0xFF);
        // Fallthrough path reaches reconvergence too.
        w.stack.last_mut().unwrap().pc = 20;
        let e = w.reconverge().unwrap();
        assert_eq!(e.pc, 20);
        assert_eq!(e.mask, FULL_MASK, "full mask restored after reconvergence");
    }

    #[test]
    fn nested_divergence() {
        let mut w = Warp::new(1, FULL_MASK, 0, 0, 0);
        w.branch(0xFFFF, 10, 1, 100); // outer
        w.branch(0xF, 30, 11, 50); // inner, within taken path
        let top = w.reconverge().unwrap();
        assert_eq!(top.pc, 30);
        assert_eq!(top.mask, 0xF);
        assert_eq!(top.rpc, 50);
        assert_eq!(w.stack.len(), 5);
    }

    #[test]
    fn wait_kinds() {
        let mut w = Warp::new(4, FULL_MASK, 0, 0, 0);
        let srcs = [Some(Reg(1)), Some(Reg(2)), None];
        assert_eq!(w.readiness(&srcs, Some(Reg(0)), 10), (WaitKind::Ready, 10));

        w.reg_pending[1] = 1;
        assert_eq!(
            w.readiness(&srcs, Some(Reg(0)), 10),
            (WaitKind::Memory, u64::MAX)
        );
        w.reg_pending[1] = 0;

        // Two operands in flight: the wake-up is the earlier boundary, and
        // the warp is ready only past the later one.
        w.reg_ready[1] = 20;
        w.reg_ready[2] = 15;
        assert_eq!(w.readiness(&srcs, Some(Reg(0)), 10), (WaitKind::Data, 15));
        assert_eq!(w.readiness(&srcs, Some(Reg(0)), 15), (WaitKind::Data, 20));
        assert_eq!(w.readiness(&srcs, Some(Reg(0)), 20), (WaitKind::Ready, 20));

        w.next_issue_at = 30;
        assert_eq!(w.readiness(&srcs, None, 25), (WaitKind::Data, 30));
        w.issue_block_is_control = true;
        assert_eq!(w.readiness(&srcs, None, 25), (WaitKind::Control, 30));

        w.block = WarpBlock::Barrier;
        assert_eq!(w.readiness(&srcs, None, 25), (WaitKind::Sync, u64::MAX));
    }

    #[test]
    fn pending_dst_blocks_as_memory() {
        let mut w = Warp::new(4, FULL_MASK, 0, 0, 0);
        w.reg_pending[0] = 2;
        let regs = [None, None, None];
        assert_eq!(
            w.readiness(&regs, Some(Reg(0)), 0),
            (WaitKind::Memory, u64::MAX)
        );
        // The value is readable the cycle after the last fill lands.
        w.fill_arrived(Reg(0), 7);
        assert_eq!(
            w.readiness(&regs, Some(Reg(0)), 7),
            (WaitKind::Memory, u64::MAX)
        );
        w.fill_arrived(Reg(0), 9);
        assert_eq!(w.readiness(&regs, Some(Reg(0)), 9), (WaitKind::Data, 10));
        assert_eq!(w.readiness(&regs, Some(Reg(0)), 10), (WaitKind::Ready, 10));
    }

    #[test]
    fn lanes_iterator() {
        assert_eq!(lanes(0b1011).collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(lanes(0).count(), 0);
        assert_eq!(lanes(FULL_MASK).count(), 32);
    }
}
