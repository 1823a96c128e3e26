//! The streaming-multiprocessor core: CTA slots, warp scheduling, and
//! per-cycle stall accounting. Functional execution of the ISA (including
//! memory coalescing into off-chip requests) lives in the child module
//! [`exec`](self); all traffic with the rest of the device crosses the
//! explicit port boundary in [`crate::ports`].
//!
//! Every scheduling decision reads one rule, [`SmCore::derive_readiness`]
//! ("can this warp issue at `now`, and if not why and until when"), through
//! one readiness index ([`ReadyIndex`]): bitsets over the warp slots — ready,
//! blocked by each wait kind in rank order, stale — and each slot's wake-up.
//! An event that writes a field the rule reads (the warp's own issue, an
//! arriving fill, a barrier or device-sync release, CTA placement, a freed
//! slot) marks the slot stale. The index is refreshed when it is read, not
//! at the event: only the stale slots and the timed ones whose wake-up has
//! come are derived — and a wait known to end in `Ready` becomes ready at
//! its wake-up with no derivation at all. A scheduler's
//! [`pick`](SmCore::pick), the SM-wide dominant wait, [`SmCore::next_wake`]
//! and the stall record of a dead span are then bit operations, and
//! [`SmCore::charge_stall`] is the one place a scheduler slot's stall is
//! counted — [`SmCore::tick`] charges it for one cycle,
//! [`SmCore::skip_cycles`] for a whole fast-forwarded span. A debug build
//! re-derives every slot a pick or `next_wake` reads and asserts the index
//! agrees.

mod exec;
#[cfg(test)]
mod tests;

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use ggpu_isa::{
    AtomOp, CvtKind, FaultKind, Instr, InstrClass, KernelId, LaunchDims, Program, Reg, Row, Space,
    SpecialReg, Width, WARP_SIZE,
};
use ggpu_mem::{Cache, CacheStats, FillWaiters, LINE_BYTES};

use crate::config::{lat, SchedPolicy, SmConfig, CONST_CACHE, SCHEDULERS, TEX_CACHE};
use crate::pc::PcTable;
use crate::ports::{MemOp, SmPorts, TickOutput};
use crate::stats::{SmStats, StallReason};
use crate::warp::{active_row, lane_mask, lanes, Readiness, WaitKind, Warp, WarpBlock};

/// Functional backing store for global/local/texture memory, provided by the
/// device (the SM only models timing for these spaces).
///
/// Reads take `&self`: during a tick the SM observes memory as an immutable
/// snapshot of cycle-start state, so no SM sees another's same-cycle
/// stores whatever order they tick in. Mutation happens only through the
/// deferred [`MemOp`] log committed by [`SmCore::commit_mem_ops`] after
/// every SM has ticked.
pub trait GlobalMem {
    /// Read `width` bytes at `addr`, zero-extended.
    fn read(&self, addr: u64, width: Width) -> u64;
    /// Write the low `width` bytes of `value` at `addr`.
    fn write(&mut self, addr: u64, width: Width, value: u64);
    /// Atomically apply `op`; returns the old value.
    fn atom(&mut self, op: AtomOp, addr: u64, src: u64, cas: u64) -> u64;
    /// Would an access of `width` bytes at `addr` fault?
    ///
    /// Asked of the raw (pre-coalescing) lane addresses before any
    /// functional access is performed; a `Some` answer traps the warp
    /// instead of executing it. The default accepts everything, so simple
    /// test memories need not implement bounds.
    fn check(&self, addr: u64, width: Width, store: bool) -> Option<FaultKind> {
        let _ = (addr, width, store);
        None
    }

    /// [`GlobalMem::check`] for the lanes of `mask` at once: the first
    /// faulting lane's fault and address, with the mask of every faulting
    /// lane. The SM makes one call per warp-instruction; inside it `Self` is
    /// known, so the per-lane `check` is a direct — inlinable — call.
    fn check_lanes(
        &self,
        addrs: &Row,
        mask: u32,
        width: Width,
        store: bool,
    ) -> Option<(FaultKind, u64, u32)> {
        let mut first = None;
        let mut faulting = 0u32;
        for lane in lanes(mask) {
            if let Some(kind) = self.check(addrs[lane], width, store) {
                faulting |= 1 << lane;
                first.get_or_insert((kind, addrs[lane]));
            }
        }
        first.map(|(kind, addr)| (kind, addr, faulting))
    }

    /// [`GlobalMem::read`] for the lanes of `mask` at once; the other lanes
    /// of the returned row are zero.
    fn read_lanes(&self, addrs: &Row, mask: u32, width: Width) -> Row {
        active_row(mask, |lane| self.read(addrs[lane], width))
    }

    /// [`GlobalMem::write`] for the lanes of `mask`, in ascending lane order
    /// (the last lane wins where two write one address).
    fn write_lanes(&mut self, addrs: &Row, values: &Row, mask: u32, width: Width) {
        for lane in lanes(mask) {
            self.write(addrs[lane], width, values[lane]);
        }
    }
}

/// Everything the device provides when placing a CTA on an SM.
#[derive(Debug, Clone)]
pub struct CtaConfig {
    /// Kernel to run.
    pub kernel_id: KernelId,
    /// Device-side grid-instance handle this CTA belongs to.
    pub grid_handle: u64,
    /// Linear CTA index within the grid.
    pub cta_linear: u64,
    /// Grid/CTA dimensions of the launch.
    pub dims: LaunchDims,
    /// Kernel parameters (u64 words).
    pub params: Arc<Vec<u64>>,
    /// Constant-memory image bound to the kernel.
    pub const_data: Arc<Vec<u8>>,
    /// Base of this grid's local-memory arena in global address space.
    pub local_base: u64,
    /// Bytes of local memory per thread.
    pub local_stride: u64,
}

/// A guest fault raised by a warp, carrying enough context for the device
/// to compose a CUDA-style error report.
#[derive(Debug, Clone, PartialEq)]
pub struct Trap {
    /// Fault class.
    pub kind: FaultKind,
    /// Kernel the faulting warp was running.
    pub kernel: KernelId,
    /// SM-local CTA slot the warp belonged to.
    pub slot: usize,
    /// Linear CTA index within its grid.
    pub cta_linear: u64,
    /// SM-local warp index.
    pub warp: usize,
    /// Warp index within the CTA.
    pub warp_in_cta: u32,
    /// Lanes that faulted (memory faults) or were active (others).
    pub lane_mask: u32,
    /// Program counter of the faulting instruction.
    pub pc: usize,
    /// Disassembly of the faulting instruction.
    pub instr: String,
    /// First faulting address, for memory faults.
    pub addr: Option<u64>,
}

/// Why a resident warp is currently not retiring instructions, as reported
/// by [`SmCore::warp_report`] for deadlock diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpWait {
    /// Runnable (the scheduler simply has not picked it yet).
    Runnable,
    /// Parked at the CTA barrier; `arrived` of `running` warps are there.
    Barrier {
        /// Warps of the CTA that have reached the barrier.
        arrived: u32,
        /// Warps of the CTA still running.
        running: u32,
    },
    /// Waiting in `cudaDeviceSynchronize` on outstanding child grids.
    Dsync {
        /// Child grids the CTA is still waiting for.
        children: u32,
    },
    /// Trapped on a guest fault.
    Trapped,
    /// Waiting on outstanding memory fills.
    Memory {
        /// Pending register fills (MSHR entries this warp waits on).
        fills: u32,
    },
    /// Finished (executed `Exit`).
    Done,
}

impl fmt::Display for WarpWait {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarpWait::Runnable => write!(f, "runnable"),
            WarpWait::Barrier { arrived, running } => {
                write!(f, "at barrier ({arrived}/{running} warps arrived)")
            }
            WarpWait::Dsync { children } => {
                write!(
                    f,
                    "in cudaDeviceSynchronize ({children} child grids pending)"
                )
            }
            WarpWait::Trapped => write!(f, "trapped"),
            WarpWait::Memory { fills } => write!(f, "awaiting {fills} memory fills"),
            WarpWait::Done => write!(f, "done"),
        }
    }
}

/// Snapshot of one resident warp's blocked-state for the deadlock report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpReport {
    /// Device-wide SM index (provided by the caller).
    pub sm: usize,
    /// SM-local warp index.
    pub warp: usize,
    /// Kernel name.
    pub kernel: String,
    /// Linear CTA index within its grid.
    pub cta: u64,
    /// Warp index within the CTA.
    pub warp_in_cta: u32,
    /// Current PC (`None` once done).
    pub pc: Option<usize>,
    /// What the warp is blocked on.
    pub wait: WarpWait,
}

impl fmt::Display for WarpReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sm {} warp {} ({} cta {} warp-in-cta {}, pc {}): {}",
            self.sm,
            self.warp,
            self.kernel,
            self.cta,
            self.warp_in_cta,
            self.pc.map_or("-".to_string(), |p| p.to_string()),
            self.wait
        )
    }
}

#[derive(Debug)]
struct CtaSlot {
    cfg: CtaConfig,
    smem: Vec<u8>,
    warps: Vec<usize>,
    /// Warps not yet exited.
    running: u32,
    /// Warps currently parked at the barrier.
    barrier_count: u32,
    /// Outstanding child grids (CDP).
    children: u32,
    live: bool,
    threads: u32,
    regs: u32,
    smem_bytes: u32,
}

/// What a reply to a request answers: an L1 or texture line fill, or one
/// warp's atomic.
#[derive(Debug)]
enum RespRoute {
    LoadFill { tex: bool, line: u64 },
    Atomic { warp: usize, reg: Reg },
}

/// The requests in flight to the memory system. Ids are handed out in issue
/// order, so the table is a ring indexed by `id - base`: each slot holds its
/// request's route until the reply takes it, and is `None` once answered or
/// for a store, which no reply answers. Answered slots at the front are
/// popped, so the ring spans the oldest unanswered request to the newest.
#[derive(Debug, Default)]
struct RequestTable {
    /// Id of the request in the front slot.
    base: u64,
    slots: VecDeque<Option<RespRoute>>,
    /// Slots still holding a route.
    live: usize,
}

impl RequestTable {
    /// Enter the next request, answered through `route` (`None`: no reply
    /// comes); its id.
    fn issue(&mut self, route: Option<RespRoute>) -> u64 {
        let id = self.base + self.slots.len() as u64;
        self.live += route.is_some() as usize;
        self.slots.push_back(route);
        self.pop_answered();
        id
    }

    /// Take request `id`'s route. `None` for a request already answered,
    /// one no reply answers, or one issued before the last
    /// [`RequestTable::abort`].
    fn answer(&mut self, id: u64) -> Option<RespRoute> {
        let i = usize::try_from(id.checked_sub(self.base)?).ok()?;
        let route = self.slots.get_mut(i)?.take()?;
        self.live -= 1;
        self.pop_answered();
        Some(route)
    }

    fn pop_answered(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Forget every request in flight. Ids keep counting from where they
    /// were, so a late reply to a forgotten request is ignored.
    fn abort(&mut self) {
        self.base += self.slots.len() as u64;
        self.slots.clear();
        self.live = 0;
    }
}

/// A scheduler slot's stall: the reason, and the representative blocked warp
/// whose PC it is attributed to (`None` for idle slots).
type Stall = (StallReason, Option<usize>);

/// Active-set size of the two-level scheduler: it rotates through at most
/// this many ready warps.
const TWO_LEVEL_ACTIVE: u32 = 8;

/// The blocked wait kinds in rank order — the dominant wait of a set of
/// slots is the first kind present — with the stall a scheduler slot then
/// records.
const BLOCKED: [(WaitKind, StallReason); 4] = [
    (WaitKind::Memory, StallReason::MemLatency),
    (WaitKind::Control, StallReason::ControlHazard),
    (WaitKind::Data, StallReason::DataHazard),
    (WaitKind::Sync, StallReason::Barrier),
];

/// Scheduler 0's share of one index word: scheduler `s` owns the slots
/// `s`, `s + SCHEDULERS`, …, so its share is this mask shifted by `s`.
const SHARE: u64 = u64::MAX / ((1 << SCHEDULERS) - 1);
const _: () = assert!(64 % SCHEDULERS == 0, "a share repeats in every word");

/// Every slot of a word.
const ALL: u64 = u64::MAX;

/// Every scheduler, one bit each.
const EVERY_SCHEDULER: u32 = (1 << SCHEDULERS) - 1;

/// 64 warp slots of the readiness index. A slot is in at most one of
/// `ready` and the `blocked` sets, and in none while `stale` or empty.
#[derive(Debug, Clone, Copy, Default)]
struct IndexWord {
    ready: u64,
    /// Blocked slots by wait kind, in [`BLOCKED`]'s order.
    blocked: [u64; 4],
    /// Timed slots whose wait ends in `Ready` at their wake-up.
    ends_ready: u64,
    /// Slots an event has touched since their last derivation.
    stale: u64,
}

impl IndexWord {
    /// Slots with a timed wake-up: `Control` and `Data` waits.
    #[inline]
    fn timed(&self) -> u64 {
        self.blocked[1] | self.blocked[2]
    }

    /// Slots blocked on any kind.
    #[inline]
    fn blocked_any(&self) -> u64 {
        self.blocked.iter().fold(0, |any, set| any | set)
    }

    #[inline]
    fn clear(&mut self, bit: u64) {
        self.ready &= !bit;
        for set in &mut self.blocked {
            *set &= !bit;
        }
        self.ends_ready &= !bit;
        self.stale &= !bit;
    }
}

/// The readiness rule's answer for every warp slot, kept exact at the
/// events that can change it (see the module doc). Grows with the SM's warp
/// slots at CTA placement; empty until then.
#[derive(Debug, Default)]
struct ReadyIndex {
    words: Vec<IndexWord>,
    /// Each slot's wake-up, read for `Control` / `Data` slots only.
    wake: Vec<u64>,
    /// No timed slot wakes before this.
    next_timed: u64,
    /// The schedulers whose share holds a stale slot, one bit each.
    stale_shares: u32,
    /// The stall every scheduler records through a dead span, the idle
    /// ones' already resolved to the dominant wait: stored by
    /// [`SmCore::next_wake`] when nothing is ready, dropped at every event
    /// and tick.
    record: Option<[Stall; SCHEDULERS]>,
    /// Derivations per slot.
    #[cfg(test)]
    derivations: Vec<u64>,
}

impl ReadyIndex {
    /// Cover warp slots `0..slots`.
    fn grow(&mut self, slots: usize) {
        let words = slots.div_ceil(64);
        if words > self.words.len() {
            self.words.resize(words, IndexWord::default());
            self.wake.resize(words * 64, u64::MAX);
            #[cfg(test)]
            self.derivations.resize(words * 64, 0);
        }
    }

    /// An event touched `slot`'s warp: derive it again before it is read.
    #[inline]
    fn mark_stale(&mut self, slot: usize) {
        let word = &mut self.words[slot / 64];
        let bit = 1 << (slot % 64);
        self.stale_shares |= 1 << (slot % SCHEDULERS);
        word.clear(bit);
        word.stale |= bit;
        self.record = None;
    }

    /// `slot` no longer holds a warp.
    fn vacate(&mut self, slot: usize) {
        self.words[slot / 64].clear(1 << (slot % 64));
        self.record = None;
    }

    /// Forget every slot (the SM dropped all its warps).
    fn clear(&mut self) {
        self.words.clear();
        self.wake.clear();
        self.next_timed = u64::MAX;
        self.stale_shares = 0;
        self.record = None;
    }

    /// Enter `slot`'s freshly derived `answer` (`None`: no running warp).
    #[inline]
    fn store(&mut self, slot: usize, answer: Option<Readiness>) {
        #[cfg(test)]
        {
            self.derivations[slot] += 1;
        }
        let word = &mut self.words[slot / 64];
        let bit = 1 << (slot % 64);
        word.clear(bit);
        let Some(r) = answer else { return };
        self.wake[slot] = r.wake;
        let row = match r.kind {
            WaitKind::Ready => {
                word.ready |= bit;
                return;
            }
            WaitKind::Memory => 0,
            WaitKind::Control => 1,
            WaitKind::Data => 2,
            WaitKind::Sync => 3,
        };
        word.blocked[row] |= bit;
        if matches!(r.kind, WaitKind::Control | WaitKind::Data) {
            if r.ends_ready {
                word.ends_ready |= bit;
            }
            self.next_timed = self.next_timed.min(r.wake);
        }
    }

    /// Derive the stale slots of the shares of `scheds` (one bit per
    /// scheduler).
    #[inline]
    fn refresh_stale(&mut self, scheds: u32, derive: &mut impl FnMut(usize) -> Option<Readiness>) {
        let scheds = scheds & self.stale_shares;
        if scheds == 0 {
            return;
        }
        self.stale_shares &= !scheds;
        // `SHARE` times a scheduler mask is the union of those shares.
        let share = SHARE * u64::from(scheds);
        for wi in 0..self.words.len() {
            let mut stale = self.words[wi].stale & share;
            while stale != 0 {
                let slot = wi * 64 + stale.trailing_zeros() as usize;
                stale &= stale - 1;
                self.store(slot, derive(slot));
            }
        }
    }

    /// Bring every slot up to date at `now`: derive the stale ones, and the
    /// timed ones whose wake-up has come — except a wait that ends in
    /// `Ready`, which becomes ready as it is.
    #[inline]
    fn refresh(&mut self, now: u64, derive: impl FnMut(usize) -> Option<Readiness>) {
        if self.stale_shares != 0 || now >= self.next_timed {
            self.refresh_slots(now, derive);
        }
    }

    /// [`ReadyIndex::refresh`] with something to do.
    #[inline]
    fn refresh_slots(&mut self, now: u64, mut derive: impl FnMut(usize) -> Option<Readiness>) {
        self.refresh_stale(EVERY_SCHEDULER, &mut derive);
        if now < self.next_timed {
            return;
        }
        let mut next = u64::MAX;
        for wi in 0..self.words.len() {
            let mut timed = self.words[wi].timed();
            while timed != 0 {
                let bit = timed & timed.wrapping_neg();
                timed &= timed - 1;
                let slot = wi * 64 + bit.trailing_zeros() as usize;
                if self.wake[slot] > now {
                    next = next.min(self.wake[slot]);
                    continue;
                }
                let word = &mut self.words[wi];
                if word.ends_ready & bit != 0 {
                    word.clear(bit);
                    word.ready |= bit;
                    continue;
                }
                // A timed answer derived at `now` wakes after `now`.
                self.store(slot, derive(slot));
                if self.words[wi].timed() & bit != 0 {
                    next = next.min(self.wake[slot]);
                }
            }
        }
        self.next_timed = next;
    }

    /// The earliest wake-up of any timed slot (`u64::MAX`: none), which
    /// also makes the bound exact. Every slot must be fresh.
    fn earliest_wake(&mut self) -> u64 {
        let mut next = u64::MAX;
        for (wi, word) in self.words.iter().enumerate() {
            let mut timed = word.timed();
            while timed != 0 {
                next = next.min(self.wake[wi * 64 + timed.trailing_zeros() as usize]);
                timed &= timed - 1;
            }
        }
        self.next_timed = next;
        next
    }

    /// The lowest slot at or above `from` whose bit `set` gives.
    #[inline]
    fn lowest(&self, from: usize, set: impl Fn(&IndexWord) -> u64) -> Option<usize> {
        let start = from / 64;
        for (wi, word) in self.words.iter().enumerate().skip(start) {
            let mut bits = set(word);
            if wi == start {
                bits &= ALL << (from % 64);
            }
            if bits != 0 {
                return Some(wi * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// How many slots below `slot` are in `set`.
    fn rank(&self, slot: usize, set: impl Fn(&IndexWord) -> u64) -> u32 {
        let (wi, below) = (slot / 64, (1u64 << (slot % 64)) - 1);
        let whole: u32 = self.words[..wi].iter().map(|w| set(w).count_ones()).sum();
        whole + (set(&self.words[wi]) & below).count_ones()
    }

    /// Whether `slot` is in `set`.
    fn has(&self, slot: usize, set: impl Fn(&IndexWord) -> u64) -> bool {
        self.words
            .get(slot / 64)
            .is_some_and(|w| set(w) >> (slot % 64) & 1 != 0)
    }

    /// Whether any slot of `share` is ready.
    fn any_ready(&self, share: u64) -> bool {
        self.words.iter().any(|w| w.ready & share != 0)
    }

    /// The stall of the slots of `share`: the first blocked kind present,
    /// with its lowest slot as the representative; none blocked is an idle
    /// slot.
    fn stall(&self, share: u64) -> Stall {
        // (row, slot) of the best so far: a later word only wins with a
        // higher-ranked kind.
        let mut best: Option<(usize, usize)> = None;
        for (wi, word) in self.words.iter().enumerate() {
            if word.blocked_any() & share == 0 {
                continue;
            }
            let rows = best.map_or(BLOCKED.len(), |(row, _)| row);
            if let Some(row) = (0..rows).find(|&row| word.blocked[row] & share != 0) {
                let set = word.blocked[row] & share;
                best = Some((row, wi * 64 + set.trailing_zeros() as usize));
            }
        }
        best.map_or((StallReason::Idle, None), |(row, slot)| {
            (BLOCKED[row].1, Some(slot))
        })
    }

    /// The stall every scheduler records with nothing ready: each share's
    /// [`ReadyIndex::stall`], an idle one resolved to the stall of every
    /// slot at once (the dominant wait).
    fn stall_record(&self) -> [Stall; SCHEDULERS] {
        let dominant = self.stall(ALL);
        std::array::from_fn(|sched| match self.stall(SHARE << sched) {
            (StallReason::Idle, _) => dominant,
            stall => stall,
        })
    }

    /// The schedulers whose share holds a warp, one bit each. Stale slots
    /// are in no set: the index must be fresh.
    fn schedulers_held(&self) -> u32 {
        self.words.iter().fold(0, |scheds, w| {
            scheds | Self::schedulers_of(w.ready | w.blocked_any())
        })
    }

    /// The schedulers owning a slot of `set`, one bit each.
    #[inline]
    fn schedulers_of(set: u64) -> u32 {
        // Fold the word onto its lowest `SCHEDULERS` bits (slot `i` is
        // scheduler `i % SCHEDULERS`'s).
        let (mut m, mut shift) = (set, 32);
        while shift >= SCHEDULERS {
            m |= m >> shift;
            shift /= 2;
        }
        (m & u64::from(EVERY_SCHEDULER)) as u32
    }

    /// Scheduler `sched`'s choice among the ready slots of its share under
    /// `policy`, given its round-robin `cursor`, its GTO `current` warp and
    /// each slot's `age` — or, with none ready, the stall the slot records.
    fn choose(
        &self,
        policy: SchedPolicy,
        sched: usize,
        cursor: usize,
        current: Option<usize>,
        age: impl Fn(usize) -> u64,
    ) -> Result<usize, Stall> {
        let share = SHARE << sched;
        let ready = |w: &IndexWord| w.ready & share;
        let Some(first) = self.lowest(0, ready) else {
            return Err(self.stall(share));
        };
        let oldest = || {
            let mut best = (age(first), first);
            for (wi, word) in self.words.iter().enumerate() {
                let mut bits = ready(word);
                while bits != 0 {
                    let slot = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    best = best.min((age(slot), slot));
                }
            }
            best.1
        };
        Ok(match policy {
            // Two-level approximates to LRR over the ready set because
            // memory-blocked warps are already excluded from it (demotion);
            // the active-set cap is modelled by rotating through at most
            // `TWO_LEVEL_ACTIVE` of them, the lowest ready slots.
            SchedPolicy::Lrr | SchedPolicy::TwoLevel => {
                match self.lowest(cursor.saturating_add(1), ready) {
                    Some(next)
                        if policy == SchedPolicy::Lrr
                            || self.rank(next, ready) < TWO_LEVEL_ACTIVE =>
                    {
                        next
                    }
                    _ => first,
                }
            }
            // Greedy-then-oldest: stay on the current warp while it is ready.
            SchedPolicy::Gto => match current {
                Some(cur) if self.has(cur, ready) => cur,
                _ => oldest(),
            },
            SchedPolicy::Old => oldest(),
        })
    }

    /// `slot`'s indexed (kind, wake-up) at `now`, `None` for an empty or
    /// stale slot.
    fn class(&self, slot: usize, now: u64) -> Option<(WaitKind, u64)> {
        if self.has(slot, |w| w.ready) {
            return Some((WaitKind::Ready, now));
        }
        let row = (0..BLOCKED.len()).find(|&row| self.has(slot, |w| w.blocked[row]))?;
        Some((BLOCKED[row].0, self.wake[slot]))
    }
}

/// Predecoded per-instruction facts for the scheduler and issue hot paths:
/// operand registers for scoreboard classification, the accounting class and
/// memory space, and the resolved result latency. Built once per program in
/// [`SmCore::new`] so neither the per-cycle classification in
/// [`SmCore::tick`] nor the issue stage has to re-match the `Instr` enum for
/// timing or accounting.
#[derive(Debug, Clone, Copy)]
struct InstrMeta {
    /// Accounting class (Figure 8).
    class: InstrClass,
    /// Memory space accessed, for memory instructions (Figure 9).
    space: Option<Space>,
    /// The registers the scoreboard checks, sources then the destination:
    /// the first `n_ops` entries.
    ops: [u16; 4],
    n_ops: u8,
    /// Result latency for directly-executed (non-memory, non-control) ops;
    /// unused (zero) for memory/control instructions whose timing is
    /// computed at issue.
    lat: u64,
    /// Instruction pays the f64 issue-interval penalty.
    f64_pen: bool,
}

impl InstrMeta {
    #[inline]
    fn new(instr: &Instr) -> Self {
        let (l, pen) = match *instr {
            Instr::Alu { op, .. } => {
                let l = match op.class() {
                    InstrClass::Sfu => lat::SFU,
                    InstrClass::Fp => {
                        if op.is_f64() {
                            lat::FP64
                        } else {
                            lat::FP32
                        }
                    }
                    _ => lat::INT,
                };
                (l, op.is_f64())
            }
            Instr::Fma { f64, .. } => (if f64 { lat::FP64 } else { lat::FP32 }, f64),
            Instr::Mov { .. } | Instr::Sreg { .. } => (1, false),
            Instr::Sel { .. } | Instr::SetP { .. } => (lat::INT, false),
            Instr::Cvt { kind, .. } => {
                let fp = matches!(
                    kind,
                    CvtKind::I2D | CvtKind::D2I | CvtKind::F2D | CvtKind::D2F
                );
                (if fp { lat::FP32 } else { lat::INT }, false)
            }
            _ => (0, false),
        };
        // Packed in a register and unpacked once, which measured cheaper
        // than stores at a running index: `SmCore::new` decodes the whole
        // program once per SM, and device set-up pays it.
        let [a, b, c] = instr.src_array();
        let (mut packed, mut n_ops) = (0u64, 0);
        for r in [a, b, c, instr.dst()].into_iter().flatten() {
            packed |= u64::from(r.0) << (16 * n_ops);
            n_ops += 1;
        }
        let ops = std::array::from_fn(|i| (packed >> (16 * i)) as u16);
        InstrMeta {
            class: instr.class(),
            space: instr.mem_space(),
            ops,
            n_ops: n_ops as u8,
            lat: l,
            f64_pen: pen,
        }
    }

    #[inline]
    fn ops(&self) -> &[u16] {
        &self.ops[..self.n_ops as usize]
    }
}

/// A single streaming multiprocessor.
///
/// The device calls [`SmCore::try_launch_cta`] to place work,
/// [`SmCore::tick`] every cycle, `SmCore::mem_response` when the memory
/// system answers a request, and [`SmCore::child_grid_done`] when a CDP
/// child grid drains.
#[derive(Debug)]
pub struct SmCore {
    config: SmConfig,
    program: Arc<Program>,
    slots: Vec<CtaSlot>,
    free_slots: Vec<usize>,
    warps: Vec<Option<Warp>>,
    free_warps: Vec<usize>,
    live_warps: u32,
    used_threads: u32,
    used_regs: u32,
    used_smem: u32,
    used_slots: u32,
    l1: Cache,
    cc: Cache,
    tc: Cache,
    requests: RequestTable,
    /// (warp, destination) loads parked on an L1 / texture line fill.
    l1_waiters: FillWaiters<(usize, Reg)>,
    tex_waiters: FillWaiters<(usize, Reg)>,
    age_counter: u64,
    /// Per-scheduler round-robin cursor.
    rr_cursor: [usize; SCHEDULERS],
    /// Per-scheduler sticky warp for GTO.
    gto_current: [Option<usize>; SCHEDULERS],
    stats: SmStats,
    /// Per-PC attribution table, allocated only when
    /// [`SmConfig::attribution`] is set.
    pc_stats: Option<Box<PcTable>>,
    /// Scratch buffer reused across cycles: the coalesced lines of the
    /// access being issued.
    scratch_lines: Vec<u64>,
    /// The readiness rule's answer for every warp slot.
    index: ReadyIndex,
    /// Predecoded instruction metadata, `decoded[kernel][pc]` — indexed
    /// exactly like [`PcTable`]'s rows.
    decoded: Vec<Vec<InstrMeta>>,
}

impl SmCore {
    /// Build an SM running kernels from `program`.
    pub fn new(config: SmConfig, program: Arc<Program>) -> Self {
        SmCore {
            pc_stats: config.attribution.then(|| Box::new(PcTable::new(&program))),
            decoded: program
                .iter()
                .map(|(_, k)| k.instrs.iter().map(InstrMeta::new).collect())
                .collect(),
            l1: Cache::new(config.l1),
            cc: Cache::new(CONST_CACHE),
            tc: Cache::new(TEX_CACHE),
            rr_cursor: [0; SCHEDULERS],
            gto_current: [None; SCHEDULERS],
            config,
            program,
            slots: Vec::new(),
            free_slots: Vec::new(),
            warps: Vec::new(),
            free_warps: Vec::new(),
            live_warps: 0,
            used_threads: 0,
            used_regs: 0,
            used_smem: 0,
            used_slots: 0,
            requests: RequestTable::default(),
            l1_waiters: FillWaiters::default(),
            tex_waiters: FillWaiters::default(),
            age_counter: 0,
            stats: SmStats::default(),
            scratch_lines: Vec::new(),
            index: ReadyIndex::default(),
        }
    }

    /// True when no warps are resident.
    pub fn is_idle(&self) -> bool {
        self.live_warps == 0
    }

    /// True when requests are still outstanding to the memory system.
    pub fn has_outstanding(&self) -> bool {
        self.requests.live > 0
    }

    /// Number of live CTAs.
    #[cfg(test)]
    pub(crate) fn resident_ctas(&self) -> u32 {
        self.used_slots
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SmStats {
        &self.stats
    }

    /// Take and reset statistics.
    pub fn take_stats(&mut self) -> SmStats {
        std::mem::take(&mut self.stats)
    }

    /// Per-PC attribution table; `None` unless
    /// [`SmConfig::attribution`] was set at construction.
    pub fn pc_table(&self) -> Option<&PcTable> {
        self.pc_stats.as_deref()
    }

    /// Zero the per-PC attribution table (no-op when attribution is off).
    pub fn reset_pc_table(&mut self) {
        if let Some(t) = self.pc_stats.as_deref_mut() {
            *t = PcTable::new(&self.program);
        }
    }

    /// L1 data-cache statistics (Figure 13).
    pub fn l1_stats(&self) -> &CacheStats {
        self.l1.stats()
    }

    /// Flush all caches and reset their statistics (between kernel launches,
    /// modelling the locality loss at `cudaMemcpy` boundaries).
    pub fn flush_caches(&mut self) {
        self.l1.flush();
        self.cc.flush();
        self.tc.flush();
    }

    /// Reset cache statistics only.
    pub fn reset_cache_stats(&mut self) {
        self.l1.reset_stats();
        self.cc.reset_stats();
        self.tc.reset_stats();
    }

    /// Attempt to place a CTA; returns `false` when resources don't fit.
    pub fn try_launch_cta(&mut self, cfg: CtaConfig) -> bool {
        let threads = cfg.dims.threads_per_cta();
        if !self.can_accept(cfg.kernel_id, threads) {
            return false;
        }
        let kernel = self.program.kernel(cfg.kernel_id);
        let regs = kernel.regs_per_thread * threads;
        let smem = kernel.smem_per_cta;
        let regs_per_thread = kernel.regs_per_thread;
        let warps_per_cta = cfg.dims.warps_per_cta();
        let slot_idx = self.free_slots.pop().unwrap_or(self.slots.len());

        let mut warp_ids = Vec::with_capacity(warps_per_cta as usize);
        for w in 0..warps_per_cta {
            let assigned_before = w * WARP_SIZE as u32;
            let active = lane_mask((threads - assigned_before.min(threads)).min(WARP_SIZE as u32));
            let kernel = cfg.kernel_id.0 as usize;
            let warp = Warp::new(
                regs_per_thread,
                active,
                slot_idx,
                kernel,
                w,
                self.age_counter,
            );
            self.age_counter += 1;
            let widx = match self.free_warps.pop() {
                Some(i) => {
                    self.warps[i] = Some(warp);
                    i
                }
                None => {
                    self.warps.push(Some(warp));
                    self.warps.len() - 1
                }
            };
            warp_ids.push(widx);
        }
        self.index.grow(self.warps.len());
        for &widx in &warp_ids {
            self.index.mark_stale(widx);
        }
        self.live_warps += warps_per_cta;

        let slot = CtaSlot {
            cfg,
            smem: vec![0; smem as usize],
            warps: warp_ids,
            running: warps_per_cta,
            barrier_count: 0,
            children: 0,
            live: true,
            threads,
            regs,
            smem_bytes: smem,
        };
        if slot_idx == self.slots.len() {
            self.slots.push(slot);
        } else {
            self.slots[slot_idx] = slot;
        }

        self.used_threads += threads;
        self.used_regs += regs;
        self.used_smem += smem;
        self.used_slots += 1;
        true
    }

    /// Memory-system response for request `id` issued earlier.
    pub(crate) fn mem_response(&mut self, id: u64, now: u64) {
        match self.requests.answer(id) {
            Some(RespRoute::LoadFill { tex, line }) => {
                let (cache, waiters) = if tex {
                    (&mut self.tc, &mut self.tex_waiters)
                } else {
                    (&mut self.l1, &mut self.l1_waiters)
                };
                cache.fill(line * LINE_BYTES, false);
                let parked = waiters.take(line);
                for &(widx, reg) in &parked {
                    if let Some(w) = self.warps[widx].as_mut() {
                        w.fill_arrived(reg, now);
                        self.index.mark_stale(widx);
                    }
                }
                waiters.recycle(parked);
            }
            Some(RespRoute::Atomic { warp, reg }) => {
                if let Some(w) = self.warps[warp].as_mut() {
                    w.fill_arrived(reg, now);
                    self.index.mark_stale(warp);
                }
            }
            None => {}
        }
    }

    /// A child grid launched by CTA `slot` has completed. `parent_grid`
    /// guards against slot reuse: the notification is dropped unless the
    /// slot still belongs to that grid (pass `None` to skip the check in
    /// tests).
    pub fn child_grid_done(&mut self, slot: usize, parent_grid: Option<u64>) {
        if slot >= self.slots.len() || !self.slots[slot].live {
            return;
        }
        if let Some(h) = parent_grid {
            if self.slots[slot].cfg.grid_handle != h {
                return;
            }
        }
        let s = &mut self.slots[slot];
        s.children = s.children.saturating_sub(1);
        if s.children == 0 {
            for &widx in &s.warps {
                if let Some(w) = self.warps[widx].as_mut() {
                    if w.block == WarpBlock::Dsync {
                        w.block = WarpBlock::None;
                        self.index.mark_stale(widx);
                    }
                }
            }
        }
    }

    /// Advance one cycle.
    ///
    /// The per-cycle phase is a pure function of SM-local state plus the
    /// SM's [`SmPorts`]: inbound replies are drained first, then the
    /// schedulers issue against `gmem` as an immutable cycle-start snapshot,
    /// logging stores/atomics into `ports.out.mem_ops` for the device to
    /// commit serially via [`SmCore::commit_mem_ops`].
    ///
    /// `device_busy` tells the SM that the device is mid-launch or draining
    /// (empty cycles then count as "functional done" rather than idle).
    pub fn tick(&mut self, now: u64, gmem: &dyn GlobalMem, device_busy: bool, ports: &mut SmPorts) {
        self.index.record = None;
        for id in ports.replies.drain(..) {
            self.mem_response(id, now);
        }
        if self.live_warps == 0 {
            self.credit_idle(1, device_busy as u64);
            return;
        }
        self.stats.cycles += 1;
        // Every share is read this cycle. A scheduler whose share holds no
        // warp now holds none all cycle (events only take slots away), so
        // it is idle without asking.
        self.refresh(now);
        let held = self.index.schedulers_held();
        let mut dominant = None;
        for sched in 0..SCHEDULERS {
            let picked = if held >> sched & 1 != 0 {
                self.pick(sched, now)
            } else {
                Err((StallReason::Idle, None))
            };
            match picked {
                Ok(widx) => self.issue(widx, now, gmem, &mut ports.out),
                Err((StallReason::Idle, _)) => {
                    let stall = *dominant.get_or_insert_with(|| self.dominant(now));
                    self.charge_stall(stall, 1);
                }
                Err(stall) => self.charge_stall(stall, 1),
            }
        }
    }

    /// Everything `cycles` ticks do to an SM with no resident warps, of
    /// which `busy_cycles` saw `device_busy`: the cycle counter advances,
    /// and each busy cycle stalls every scheduler as "functional done" — an
    /// SM waiting on kernel setup/drain (the paper's NvB signature); an SM
    /// with no work at all is unused, not stalled, and contributes nothing
    /// to Figure 5. A pure function of the two counts, so the device may
    /// credit any number of elapsed cycles in one call.
    pub fn credit_idle(&mut self, cycles: u64, busy_cycles: u64) {
        debug_assert_eq!(self.live_warps, 0, "idle credit on a busy SM");
        self.stats.cycles += cycles;
        if busy_cycles > 0 {
            let slots = SCHEDULERS as u64 * busy_cycles;
            self.stats.stalls.add(StallReason::FunctionalDone, slots);
            if let Some(t) = self.pc_stats.as_deref_mut() {
                t.record_unattributed(StallReason::FunctionalDone, slots);
            }
        }
    }

    /// Charge one scheduler slot's `stall` for `span` identical cycles: one
    /// from [`SmCore::tick`], a whole proven-dead span from
    /// [`SmCore::skip_cycles`]. An idle slot arrives here already resolved
    /// to the SM-wide dominant wait ([`SmCore::dominant`]), so small kernels
    /// don't drown Figure 5 in artificial idle slots. With attribution on,
    /// the cycles also go to the representative blocked warp's current PC
    /// ([`SmCore::attribute_stall`]).
    #[inline]
    fn charge_stall(&mut self, (reason, rep): Stall, span: u64) {
        self.stats.stalls.add(reason, span);
        if self.pc_stats.is_some() {
            self.attribute_stall(reason, rep, span);
        }
    }

    /// [`SmCore::charge_stall`]'s per-PC half: the representative warp's
    /// current PC, or the unattributed bucket when there is none.
    #[cold]
    #[inline(never)]
    fn attribute_stall(&mut self, reason: StallReason, rep: Option<usize>, span: u64) {
        let located = rep.and_then(|widx| {
            let w = self.warps.get(widx)?.as_ref()?;
            let pc = w.stack.last()?.pc;
            Some((self.slots[w.cta_slot].cfg.kernel_id, pc))
        });
        let Some(t) = self.pc_stats.as_deref_mut() else {
            return;
        };
        match located {
            Some((kid, pc)) => t.record_stall_cycles(kid, pc, reason, span),
            None => t.record_unattributed(reason, span),
        }
    }

    /// Conservative next cycle (≥ `c0`) at which this SM could issue an
    /// instruction or change its stall classification, assuming no external
    /// event (memory reply, child-grid completion, CTA dispatch) arrives
    /// before then — the engine bounds those separately. Returns `c0` when
    /// some warp is ready right at `c0`, and `u64::MAX` when nothing on
    /// this SM has a timed wake-up (idle, or blocked only on external
    /// events). It is the minimum over the warps of the wake-up the
    /// readiness rule returns — the same index the schedulers pick from.
    /// With nothing ready it also stores the stall record
    /// [`SmCore::skip_cycles`] charges a dead span from.
    ///
    /// May pop exhausted divergence-stack entries, exactly as the first
    /// scheduling pass at `c0` would; the pops are idempotent, so SM state
    /// afterwards is identical to what a normal tick at `c0` would have
    /// observed.
    pub fn next_wake(&mut self, c0: u64) -> u64 {
        self.refresh(c0);
        self.audit_index(ALL, c0);
        if self.index.any_ready(ALL) {
            return c0;
        }
        let wake = self.index.earliest_wake();
        self.index.record = Some(self.index.stall_record());
        wake
    }

    /// Credit `span` fast-forwarded cycles starting at `c0` as if
    /// [`SmCore::tick`] had run each one: cycle counters advance and every
    /// scheduler records the same stall it recorded (or would record) at
    /// `c0`, multiplied by `span` — the record [`SmCore::next_wake`] stored
    /// when no event has touched the SM since, the fold at `c0` otherwise.
    ///
    /// Sound only when the engine has proven the span dead — `next_wake(c0)`
    /// exceeds `c0 + span - 1` for this SM and no external event lands
    /// inside the span — then every warp keeps its exact classification for
    /// the whole span and per-cycle accounting telescopes into one
    /// multiplication.
    pub fn skip_cycles(&mut self, c0: u64, device_busy: bool, span: u64) {
        if self.live_warps == 0 {
            self.credit_idle(span, if device_busy { span } else { 0 });
            return;
        }
        self.stats.cycles += span;
        let record = match self.index.record {
            Some(record) => {
                if cfg!(debug_assertions) {
                    self.refresh(c0);
                    assert_eq!(
                        record,
                        self.index.stall_record(),
                        "stale span record at {c0}"
                    );
                }
                record
            }
            None => {
                self.refresh(c0);
                self.audit_index(ALL, c0);
                self.index.stall_record()
            }
        };
        debug_assert!(
            !self.index.any_ready(ALL),
            "fast-forward skipped an issuing cycle"
        );
        for stall in record {
            self.charge_stall(stall, span);
        }
    }

    /// Would [`SmCore::try_launch_cta`] succeed right now for a CTA of
    /// `kernel_id` with `threads` threads? Pure resource probe with no side
    /// effects, used by the engine's fast-forward to prove that a pending
    /// grid cannot dispatch until resources free up.
    pub fn can_accept(&self, kernel_id: KernelId, threads: u32) -> bool {
        let Some(kernel) = self.program.get(kernel_id) else {
            return false;
        };
        let regs = kernel.regs_per_thread * threads;
        let smem = kernel.smem_per_cta;
        self.used_slots < self.config.max_ctas
            && self.used_threads + threads <= self.config.max_threads
            && self.used_regs + regs <= self.config.registers
            && self.used_smem + smem <= self.config.smem_bytes
    }

    /// Apply this cycle's deferred stores/atomics to `gmem`, in issue order.
    ///
    /// Called by the device once per cycle per SM, **after** every SM has
    /// ticked, in SM-index order — with issue order within the SM, the
    /// deterministic merge order every counter and trace is a function of.
    /// Atomics write the old value back to the issuing warp's destination
    /// lane here; register scoreboarding (set at issue) guarantees no
    /// consumer can read it before the next cycle.
    pub fn commit_mem_ops(&mut self, gmem: &mut dyn GlobalMem, ops: &mut Vec<MemOp>) {
        for op in ops.iter() {
            match *op {
                MemOp::Store {
                    ref addrs,
                    ref values,
                    mask,
                    width,
                } => gmem.write_lanes(addrs, values, mask, width),
                MemOp::Atomic {
                    op,
                    addr,
                    src,
                    cas,
                    warp,
                    dst,
                    lane,
                } => {
                    let old = gmem.atom(op, addr, src, cas);
                    if let Some(w) = self.warps.get_mut(warp).and_then(|w| w.as_mut()) {
                        w.write(dst, lane, old);
                    }
                }
            }
        }
        ops.clear();
    }

    /// Readiness of warp `w` at `now` — the rule, [`Warp::readiness`], with
    /// the two things the SM adds: the divergence stack is reconverged
    /// first, and a PC off the end of the stream reads ready so `issue` can
    /// raise `InvalidPc`. `None` once the warp has finished.
    ///
    /// May pop exhausted divergence-stack entries ([`Warp::reconverge`]); the
    /// pops are idempotent, so asking early (fast-forward's scan) leaves the
    /// state a normal tick at `now` would have observed.
    #[inline]
    fn derive_readiness(decoded: &[Vec<InstrMeta>], w: &mut Warp, now: u64) -> Option<Readiness> {
        if w.done {
            return None;
        }
        let pc = w.reconverge()?.pc;
        let meta = decoded.get(w.kernel).and_then(|k| k.get(pc));
        Some(match meta {
            Some(meta) => w.readiness(meta.ops(), now),
            // The PC fell off the instruction stream: the warp reads ready at
            // once so the scheduler picks it and `issue` raises the
            // `InvalidPc` trap (unless it is already parked or trapped).
            None if w.block == WarpBlock::None => Readiness::new(WaitKind::Ready, now, false),
            None => Readiness::new(WaitKind::Sync, u64::MAX, false),
        })
    }

    /// Bring the readiness index up to date at `now`
    /// ([`ReadyIndex::refresh`]).
    #[inline]
    fn refresh(&mut self, now: u64) {
        let (warps, decoded) = (&mut self.warps, &self.decoded);
        self.index.refresh(now, |widx| {
            Self::derive_readiness(decoded, warps[widx].as_mut()?, now)
        });
    }

    /// In a debug build, check the index's answer for every slot of `share`
    /// against one derived from the warp's state alone at `now`.
    fn audit_index(&mut self, share: u64, now: u64) {
        if !cfg!(debug_assertions) {
            return;
        }
        for widx in (0..self.warps.len()).filter(|i| share >> (i % 64) & 1 != 0) {
            let fresh = self.warps[widx]
                .as_mut()
                .and_then(|w| Self::derive_readiness(&self.decoded, w, now));
            assert_eq!(
                self.index.class(widx, now),
                fresh.map(|r| (r.kind, r.wake)),
                "stale readiness index: warp {widx} at cycle {now}"
            );
        }
    }

    /// The SM-wide dominant wait at `now`, which an idle scheduler slot
    /// records: the stall of every slot at once.
    fn dominant(&mut self, now: u64) -> Stall {
        self.refresh(now);
        self.index.stall(ALL)
    }

    /// Scheduler `sched` picks a warp among its share (every
    /// `SCHEDULERS`-th slot), or reports the stall the slot records. The
    /// index is fresh at `now` but for what this cycle's earlier issues
    /// marked stale, which is derived here.
    #[inline]
    fn pick(&mut self, sched: usize, now: u64) -> Result<usize, Stall> {
        let (warps, decoded) = (&mut self.warps, &self.decoded);
        self.index.refresh_stale(1 << sched, &mut |widx| {
            Self::derive_readiness(decoded, warps[widx].as_mut()?, now)
        });
        self.audit_index(SHARE << sched, now);
        let warps = &self.warps;
        let widx = self.index.choose(
            self.config.policy,
            sched,
            self.rr_cursor[sched],
            self.gto_current[sched],
            |i| warps[i].as_ref().map_or(u64::MAX, |w| w.age),
        )?;
        match self.config.policy {
            SchedPolicy::Lrr | SchedPolicy::TwoLevel => self.rr_cursor[sched] = widx,
            SchedPolicy::Gto => self.gto_current[sched] = Some(widx),
            SchedPolicy::Old => {}
        }
        Ok(widx)
    }

    /// A special register across warp `warp_in_cta` of the CTA: the thread
    /// coordinates differ per lane, everything else is one value for the warp.
    fn sreg_row(cfg: &CtaConfig, warp_in_cta: u32, sreg: SpecialReg) -> Row {
        let dims = cfg.dims;
        let (cx, cy) = (dims.cta.0 as u64, dims.cta.1 as u64);
        let (gx, gy) = (dims.grid.0 as u64, dims.grid.1 as u64);
        let lin = |lane: usize| warp_in_cta as u64 * WARP_SIZE as u64 + lane as u64;
        let all = |v: u64| [v; WARP_SIZE];
        match sreg {
            SpecialReg::TidX => std::array::from_fn(|l| lin(l) % cx),
            SpecialReg::TidY => std::array::from_fn(|l| (lin(l) / cx) % cy),
            SpecialReg::TidZ => std::array::from_fn(|l| lin(l) / (cx * cy)),
            SpecialReg::LaneId => std::array::from_fn(|l| l as u64),
            SpecialReg::CtaIdX => all(cfg.cta_linear % gx),
            SpecialReg::CtaIdY => all((cfg.cta_linear / gx) % gy),
            SpecialReg::CtaIdZ => all(cfg.cta_linear / (gx * gy)),
            SpecialReg::NTidX => all(dims.cta.0 as u64),
            SpecialReg::NTidY => all(dims.cta.1 as u64),
            SpecialReg::NTidZ => all(dims.cta.2 as u64),
            SpecialReg::NCtaIdX => all(dims.grid.0 as u64),
            SpecialReg::NCtaIdY => all(dims.grid.1 as u64),
            SpecialReg::NCtaIdZ => all(dims.grid.2 as u64),
            SpecialReg::WarpId => all(warp_in_cta as u64),
        }
    }

    fn param_read(params: &[u64], byte_addr: u64, width: Width) -> u64 {
        let word = (byte_addr / 8) as usize;
        let shift = (byte_addr % 8) * 8;
        let v = params.get(word).copied().unwrap_or(0) >> shift;
        match width {
            Width::B8 => v & 0xFF,
            Width::B16 => v & 0xFFFF,
            Width::B32 => v & 0xFFFF_FFFF,
            Width::B64 => v,
        }
    }

    /// Little-endian read of `width` bytes at `addr`; bytes beyond `data`
    /// read zero (a constant load's address is the guest's, unbounded).
    fn bytes_read(data: &[u8], addr: u64, width: Width) -> u64 {
        let n = width.bytes() as usize;
        let mut bytes = [0u8; 8];
        let start = usize::try_from(addr).unwrap_or(usize::MAX).min(data.len());
        let src = &data[start..data.len().min(start.saturating_add(n))];
        bytes[..src.len()].copy_from_slice(src);
        u64::from_le_bytes(bytes)
    }

    /// Little-endian write of the low `width` bytes of `value` at `addr`;
    /// bytes beyond `data` are dropped.
    fn bytes_write(data: &mut [u8], addr: u64, width: Width, value: u64) {
        let n = width.bytes() as usize;
        let start = usize::try_from(addr).unwrap_or(usize::MAX).min(data.len());
        let end = data.len().min(start.saturating_add(n));
        let dst = &mut data[start..end];
        dst.copy_from_slice(&value.to_le_bytes()[..dst.len()]);
    }

    /// Remap a row of thread-relative local addresses into the grid's local
    /// arena, in place.
    ///
    /// Like real GPUs, local memory is interleaved per warp at 8-byte
    /// granularity (`[warp][granule][lane]`): when all lanes of a warp
    /// access the same local offset — the common case for spilled arrays —
    /// the 32 lane addresses are contiguous and coalesce into two 128-byte
    /// transactions instead of 32. The warp's arena base is computed once;
    /// every lane, active or not, is remapped with wrapping arithmetic, which
    /// is exact on the active lanes (the extent check has bounded them) and
    /// lets the garbage of inactive ones wrap instead of overflowing.
    fn local_row(interleave: bool, cfg: &CtaConfig, warp_in_cta: u32, addrs: &mut Row) {
        let lanes = WARP_SIZE as u64;
        if !interleave {
            // Ablation layout: contiguous per-thread arenas. Same-offset
            // accesses across a warp land `local_stride` bytes apart and
            // cannot coalesce.
            let first_thread = cfg
                .cta_linear
                .wrapping_mul(cfg.dims.threads_per_cta() as u64)
                .wrapping_add(warp_in_cta as u64 * lanes);
            let base = cfg
                .local_base
                .wrapping_add(first_thread.wrapping_mul(cfg.local_stride));
            for (lane, a) in addrs.iter_mut().enumerate() {
                *a = base
                    .wrapping_add((lane as u64).wrapping_mul(cfg.local_stride))
                    .wrapping_add(*a);
            }
            return;
        }
        let warp_global = cfg
            .cta_linear
            .wrapping_mul(cfg.dims.warps_per_cta() as u64)
            .wrapping_add(warp_in_cta as u64);
        let base = cfg
            .local_base
            .wrapping_add(warp_global.wrapping_mul(cfg.local_stride.wrapping_mul(lanes)));
        for (lane, a) in addrs.iter_mut().enumerate() {
            let granule = (*a / 8).wrapping_mul(8 * lanes);
            *a = base
                .wrapping_add(granule)
                .wrapping_add(lane as u64 * 8 + *a % 8);
        }
    }

    /// Park warp `widx` as trapped at `pc` and report the guest fault.
    fn trap(
        &mut self,
        widx: usize,
        pc: usize,
        kind: FaultKind,
        lane_mask: u32,
        addr: Option<u64>,
        out: &mut TickOutput,
    ) {
        let w = self.warps[widx]
            .as_mut()
            .expect("scheduled warp is resident");
        w.block = WarpBlock::Trapped;
        let cfg = &self.slots[w.cta_slot].cfg;
        let instr = self
            .program
            .get(cfg.kernel_id)
            .and_then(|k| k.instrs.get(pc))
            .map_or_else(|| "<no instruction>".into(), |i| i.to_string());
        out.traps.push(Trap {
            kind,
            kernel: cfg.kernel_id,
            slot: w.cta_slot,
            cta_linear: cfg.cta_linear,
            warp: widx,
            warp_in_cta: w.warp_in_cta,
            lane_mask,
            pc,
            instr,
            addr,
        });
    }

    /// The guest-fault check for the two spaces whose size the SM knows — a
    /// CTA's shared allocation, a thread's local arena: any access ending
    /// beyond `len` bytes (or past the end of the address space) faults.
    /// Returns the first faulting address and the lane mask. One maximum
    /// over the active lanes clears a row; the lanes are walked only when
    /// some lane fails.
    fn check_extent_lanes(addrs: &Row, mask: u32, width: Width, len: u64) -> Option<(u64, u32)> {
        let w = width.bytes();
        let hi = (0..WARP_SIZE).fold(0, |hi, l| {
            hi.max(if mask >> l & 1 != 0 { addrs[l] } else { 0 })
        });
        if hi.checked_add(w).is_some_and(|end| end <= len) {
            return None;
        }
        let mut first: Option<u64> = None;
        let mut faulting = 0u32;
        for lane in lanes(mask) {
            if addrs[lane].checked_add(w).is_none_or(|end| end > len) {
                faulting |= 1 << lane;
                first.get_or_insert(addrs[lane]);
            }
        }
        first.map(|a| (a, faulting))
    }

    /// Discard all resident work: CTAs, warps, outstanding requests, MSHR
    /// waiters and the L1 / texture misses they were parked on. The device
    /// calls this after a guest fault to return the SM to a clean idle
    /// state; cache contents and statistics survive so they stay inspectable
    /// post-mortem, and late memory responses for cleared requests are
    /// dropped harmlessly.
    pub fn abort_workload(&mut self) {
        self.slots.clear();
        self.free_slots.clear();
        self.warps.clear();
        self.free_warps.clear();
        self.live_warps = 0;
        self.used_threads = 0;
        self.used_regs = 0;
        self.used_smem = 0;
        self.used_slots = 0;
        self.requests.abort();
        self.l1_waiters.clear();
        self.tex_waiters.clear();
        self.l1.release_mshrs();
        self.tc.release_mshrs();
        self.index.clear();
        self.reset_schedulers();
    }

    /// Reset the warp-scheduler cursors (round-robin position and GTO
    /// sticky warp) to their power-on state. The device calls this at
    /// canonical kernel boundaries so scheduling decisions inside a grid
    /// never depend on where the previous grid happened to leave the
    /// cursors; resident work is unaffected (the SM must be idle).
    pub fn reset_schedulers(&mut self) {
        self.rr_cursor.fill(0);
        self.gto_current.fill(None);
    }

    /// Requests outstanding to the memory system.
    pub fn outstanding_requests(&self) -> usize {
        self.requests.live
    }

    /// Blocked-state snapshot of every resident warp, tagged with the
    /// caller-supplied device-wide SM index `sm`. Feeds the deadlock report.
    pub fn warp_report(&self, sm: usize) -> Vec<WarpReport> {
        let mut reports = Vec::new();
        for (widx, w) in self.warps.iter().enumerate() {
            let Some(w) = w else { continue };
            let slot = &self.slots[w.cta_slot];
            let kernel = self
                .program
                .get(slot.cfg.kernel_id)
                .map(|k| k.name.clone())
                .unwrap_or_else(|| format!("{}", slot.cfg.kernel_id));
            let pending: u32 = w.scoreboard.iter().map(|s| s.pending as u32).sum();
            let wait = if w.done {
                WarpWait::Done
            } else {
                match w.block {
                    WarpBlock::Barrier => WarpWait::Barrier {
                        arrived: slot.barrier_count,
                        running: slot.running,
                    },
                    WarpBlock::Dsync => WarpWait::Dsync {
                        children: slot.children,
                    },
                    WarpBlock::Trapped => WarpWait::Trapped,
                    WarpBlock::None if pending > 0 => WarpWait::Memory { fills: pending },
                    WarpBlock::None => WarpWait::Runnable,
                }
            };
            reports.push(WarpReport {
                sm,
                warp: widx,
                kernel,
                cta: slot.cfg.cta_linear,
                warp_in_cta: w.warp_in_cta,
                pc: w.stack.last().map(|e| e.pc),
                wait,
            });
        }
        reports
    }
}
