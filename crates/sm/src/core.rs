//! The streaming-multiprocessor core: CTA slots, warp scheduling, and
//! per-cycle stall accounting. Functional execution of the ISA (including
//! memory coalescing into off-chip requests) lives in the child module
//! [`exec`](self); all traffic with the rest of the device crosses the
//! explicit port boundary in [`crate::ports`].
//!
//! Every scheduling decision is a fold over one rule,
//! [`SmCore::readiness`] ("can this warp issue at `now`, and if not why and
//! until when"): a scheduler's [`pick`](SmCore::pick) and the SM-wide
//! dominant wait fold it for the top-ranked wait kind
//! ([`SmCore::survey`]), [`SmCore::next_wake`] folds it for the earliest
//! timed wake-up, and [`SmCore::charge_stall`] is the one place a scheduler
//! slot's stall is counted — [`SmCore::tick`] charges it for one cycle,
//! [`SmCore::skip_cycles`] for a whole fast-forwarded span. The rule's
//! answer is derived once per warp-state-change and remembered on the warp
//! until an event that can change it (the warp's own issue, an arriving
//! fill, a barrier or device-sync release) or the wake-up it named, so the
//! sixteen scheduler slots and the fast-forward scan of a cycle mostly read
//! it back; a debug build re-derives it every time and asserts the two agree.

mod exec;
#[cfg(test)]
mod tests;

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use ggpu_isa::{
    AtomOp, CvtKind, FaultKind, Instr, InstrClass, KernelId, LaunchDims, Program, Reg, Row, Space,
    SpecialReg, Width, WARP_SIZE,
};
use ggpu_mem::{Cache, CacheStats, LINE_BYTES};

use crate::config::{LatencyConfig, SchedPolicy, SmConfig};
use crate::pc::PcTable;
use crate::ports::{MemOp, SmPorts, TickOutput};
use crate::stats::{SmStats, StallReason};
use crate::warp::{active_row, lane_mask, lanes, WaitKind, Warp, WarpBlock};

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

#[derive(Debug)]
enum RespRoute {
    LoadFill { tex: bool, line: u64 },
    Atomic { warp: usize, reg: Reg },
}

/// A scheduler slot's stall: the reason, and the representative blocked warp
/// whose PC it is attributed to (`None` for idle slots).
type Stall = (StallReason, Option<usize>);

/// Active-set size of the two-level scheduler: it rotates through at most
/// this many ready warps.
const TWO_LEVEL_ACTIVE: usize = 8;

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
    /// Source registers read by the instruction.
    srcs: [Option<Reg>; 3],
    /// Destination register, if any.
    dst: Option<Reg>,
    /// Result latency for directly-executed (non-memory, non-control) ops;
    /// unused (zero) for memory/control instructions whose timing is
    /// computed at issue.
    lat: u64,
    /// Instruction pays the f64 issue-interval penalty.
    f64_pen: bool,
}

impl InstrMeta {
    fn new(instr: &Instr, lat: &LatencyConfig) -> Self {
        let (l, pen) = match *instr {
            Instr::Alu { op, .. } => {
                let l = match op.class() {
                    InstrClass::Sfu => lat.sfu,
                    InstrClass::Fp => {
                        if op.is_f64() {
                            lat.fp64
                        } else {
                            lat.fp32
                        }
                    }
                    _ => lat.int,
                };
                (l, op.is_f64())
            }
            Instr::Fma { f64, .. } => (if f64 { lat.fp64 } else { lat.fp32 }, f64),
            Instr::Mov { .. } | Instr::Sreg { .. } => (1, false),
            Instr::Sel { .. } | Instr::SetP { .. } => (lat.int, false),
            Instr::Cvt { kind, .. } => {
                let fp = matches!(
                    kind,
                    CvtKind::I2D | CvtKind::D2I | CvtKind::F2D | CvtKind::D2F
                );
                (if fp { lat.fp32 } else { lat.int }, false)
            }
            _ => (0, false),
        };
        InstrMeta {
            class: instr.class(),
            space: instr.mem_space(),
            srcs: instr.src_array(),
            dst: instr.dst(),
            lat: l,
            f64_pen: pen,
        }
    }
}

/// A single streaming multiprocessor.
///
/// The device calls [`SmCore::try_launch_cta`] to place work,
/// [`SmCore::tick`] every cycle, [`SmCore::mem_response`] when the memory
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
    outstanding: HashMap<u64, RespRoute>,
    waiters: HashMap<(bool, u64), Vec<(usize, Reg)>>,
    next_req_id: u64,
    age_counter: u64,
    /// Per-scheduler round-robin cursor.
    rr_cursor: Vec<usize>,
    /// Per-scheduler sticky warp for GTO.
    gto_current: Vec<Option<usize>>,
    stats: SmStats,
    /// Per-PC attribution table, allocated only when
    /// [`SmConfig::attribution`] is set.
    pc_stats: Option<Box<PcTable>>,
    /// Scratch buffers reused across cycles: the coalesced lines of the
    /// access being issued, and the ready set of the latest
    /// [`SmCore::survey`].
    scratch_lines: Vec<u64>,
    ready: Vec<usize>,
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
                .map(|(_, k)| {
                    k.instrs
                        .iter()
                        .map(|i| InstrMeta::new(i, &config.lat))
                        .collect()
                })
                .collect(),
            l1: Cache::new(config.l1),
            cc: Cache::new(config.const_cache),
            tc: Cache::new(config.tex_cache),
            rr_cursor: vec![0; config.schedulers as usize],
            gto_current: vec![None; config.schedulers as usize],
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
            outstanding: HashMap::new(),
            waiters: HashMap::new(),
            next_req_id: 0,
            age_counter: 0,
            stats: SmStats::default(),
            scratch_lines: Vec::new(),
            ready: Vec::new(),
        }
    }

    /// The SM's configuration.
    pub fn config(&self) -> &SmConfig {
        &self.config
    }

    /// True when no warps are resident.
    pub fn is_idle(&self) -> bool {
        self.live_warps == 0
    }

    /// True when requests are still outstanding to the memory system.
    pub fn has_outstanding(&self) -> bool {
        !self.outstanding.is_empty()
    }

    /// Number of live CTAs.
    pub fn resident_ctas(&self) -> u32 {
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
            let warp = Warp::new(regs_per_thread, active, slot_idx, w, self.age_counter);
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
    pub fn mem_response(&mut self, id: u64, now: u64) {
        match self.outstanding.remove(&id) {
            Some(RespRoute::LoadFill { tex, line }) => {
                let cache = if tex { &mut self.tc } else { &mut self.l1 };
                cache.fill(line * LINE_BYTES, false);
                for (widx, reg) in self.waiters.remove(&(tex, line)).unwrap_or_default() {
                    if let Some(w) = self.warps[widx].as_mut() {
                        w.fill_arrived(reg, now);
                    }
                }
            }
            Some(RespRoute::Atomic { warp, reg }) => {
                if let Some(w) = self.warps[warp].as_mut() {
                    w.fill_arrived(reg, now);
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
                        w.forget_readiness();
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
        for id in ports.replies.drain(..) {
            self.mem_response(id, now);
        }
        if self.live_warps == 0 {
            self.credit_idle(1, device_busy as u64);
            return;
        }
        self.stats.cycles += 1;
        let mut dominant = None;
        for sched in 0..self.config.schedulers as usize {
            match self.pick(sched, now) {
                Ok(widx) => self.issue(widx, now, gmem, &mut ports.out),
                Err(stall) => self.charge_stall(stall, now, 1, &mut dominant),
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
            let slots = self.config.schedulers as u64 * busy_cycles;
            self.stats.stalls.add(StallReason::FunctionalDone, slots);
            if let Some(t) = self.pc_stats.as_deref_mut() {
                t.record_unattributed(StallReason::FunctionalDone, slots);
            }
        }
    }

    /// Charge one scheduler slot's `stall` at `now` for `span` identical
    /// cycles: one from [`SmCore::tick`], a whole proven-dead span from
    /// [`SmCore::skip_cycles`].
    ///
    /// A scheduler with no warps of its own inherits the SM-wide dominant
    /// wait, so small kernels don't drown Figure 5 in artificial idle slots;
    /// `dominant` caches that answer across the schedulers of one cycle.
    /// With attribution on, the cycles also go to the representative blocked
    /// warp's current PC, or to the unattributed bucket when there is none.
    fn charge_stall(&mut self, stall: Stall, now: u64, span: u64, dominant: &mut Option<Stall>) {
        let (reason, rep) = match stall {
            (StallReason::Idle, _) => *dominant.get_or_insert_with(|| self.survey(0, 1, now)),
            stall => stall,
        };
        self.stats.stalls.add(reason, span);
        let Some(t) = self.pc_stats.as_deref_mut() else {
            return;
        };
        let located = rep.and_then(|widx| {
            let w = self.warps.get(widx)?.as_ref()?;
            let pc = w.stack.last()?.pc;
            Some((self.slots[w.cta_slot].cfg.kernel_id, pc))
        });
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
    /// readiness rule returns — the same function the schedulers pick by.
    ///
    /// May pop exhausted divergence-stack entries, exactly as the first
    /// scheduling pass at `c0` would; the pops are idempotent, so SM state
    /// afterwards is identical to what a normal tick at `c0` would have
    /// observed.
    pub fn next_wake(&mut self, c0: u64) -> u64 {
        let mut min = u64::MAX;
        for widx in 0..self.warps.len() {
            if let Some((_, wake)) = self.readiness(widx, c0) {
                if wake == c0 {
                    return c0;
                }
                min = min.min(wake);
            }
        }
        min
    }

    /// Credit `span` fast-forwarded cycles starting at `c0` as if
    /// [`SmCore::tick`] had run each one: cycle counters advance and every
    /// scheduler records the same stall it recorded (or would record) at
    /// `c0`, multiplied by `span`.
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
        let mut dominant = None;
        for sched in 0..self.config.schedulers as usize {
            match self.pick(sched, c0) {
                Ok(_) => debug_assert!(false, "fast-forward skipped an issuing cycle"),
                Err(stall) => self.charge_stall(stall, c0, span, &mut dominant),
            }
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

    /// The one table over wait kinds: a kind's rank when a slot's stall is
    /// classified (the dominant wait is the highest-ranked over the
    /// candidates) and the [`StallReason`] the slot then records. `Ready`
    /// never blocks; it shares `Sync`'s row only to keep the match total.
    fn wait_row(kind: WaitKind) -> (u8, StallReason) {
        match kind {
            WaitKind::Memory => (3, StallReason::MemLatency),
            WaitKind::Control => (2, StallReason::ControlHazard),
            WaitKind::Data => (1, StallReason::DataHazard),
            WaitKind::Sync | WaitKind::Ready => (0, StallReason::Barrier),
        }
    }

    /// Readiness of warp `widx` at `now` — wait kind and timed wake-up, see
    /// [`Warp::readiness`] — or `None` when the slot holds no running warp.
    ///
    /// The answer is derived once per warp-state-change and remembered on the
    /// warp ([`Warp::remembered`] says for how long, [`Warp::forget_readiness`]
    /// when it is dropped); every caller — `survey`, `pick`, the dominant-wait
    /// fold, `next_wake`, `skip_cycles` — shares it. A debug build derives it
    /// anyway and checks the remembered answer against it, so every test that
    /// ticks an SM audits the memo.
    fn readiness(&mut self, widx: usize, now: u64) -> Option<(WaitKind, u64)> {
        let w = self.warps[widx].as_mut()?;
        if let Some(remembered) = w.remembered(now) {
            debug_assert_eq!(
                Some(remembered),
                Self::derive_readiness(&self.slots, &self.decoded, w, now),
                "stale readiness memo: warp {widx} at cycle {now}"
            );
            return Some(remembered);
        }
        w.memo = Self::derive_readiness(&self.slots, &self.decoded, w, now);
        w.memo
    }

    /// [`SmCore::readiness`] from the warp's state alone, no memo involved.
    ///
    /// May pop exhausted divergence-stack entries ([`Warp::reconverge`]); the
    /// pops are idempotent, so asking early (fast-forward's scan) leaves the
    /// state a normal tick at `now` would have observed.
    fn derive_readiness(
        slots: &[CtaSlot],
        decoded: &[Vec<InstrMeta>],
        w: &mut Warp,
        now: u64,
    ) -> Option<(WaitKind, u64)> {
        if w.done {
            return None;
        }
        let pc = w.reconverge()?.pc;
        let kid = slots[w.cta_slot].cfg.kernel_id;
        let meta = decoded.get(kid.0 as usize).and_then(|k| k.get(pc));
        Some(match meta {
            Some(meta) => w.readiness(&meta.srcs, meta.dst, now),
            // The PC fell off the instruction stream: the warp reads ready at
            // once so the scheduler picks it and `issue` raises the
            // `InvalidPc` trap (unless it is already parked or trapped).
            None if w.block == WarpBlock::None => (WaitKind::Ready, now),
            None => (WaitKind::Sync, u64::MAX),
        })
    }

    /// Fold [`SmCore::readiness`] at `now` over warps `first`, `first + step`,
    /// … (a scheduler's share, or every warp with `step` 1): the ready ones
    /// are left in `self.ready`, and the return is the stall of the dominant
    /// wait among the rest — Memory over Control over Data over Sync — with
    /// the first warp to reach that rank as its representative. No blocked
    /// warp at all (every live warp ready, or none in the share) is a
    /// structurally idle slot.
    fn survey(&mut self, first: usize, step: usize, now: u64) -> Stall {
        self.ready.clear();
        let mut blocked: Option<((u8, StallReason), usize)> = None;
        for i in (first..self.warps.len()).step_by(step) {
            match self.readiness(i, now) {
                Some((WaitKind::Ready, _)) => self.ready.push(i),
                Some((kind, _)) => {
                    let row = Self::wait_row(kind);
                    if blocked.is_none_or(|(top, _)| top.0 < row.0) {
                        blocked = Some((row, i));
                    }
                }
                None => {}
            }
        }
        match blocked {
            Some(((_, reason), widx)) => (reason, Some(widx)),
            None => (StallReason::Idle, None),
        }
    }

    /// Scheduler `sched` picks a warp among its share (every
    /// `schedulers`-th slot), or reports the stall the slot records.
    fn pick(&mut self, sched: usize, now: u64) -> Result<usize, Stall> {
        let stall = self.survey(sched, self.config.schedulers as usize, now);
        let ready = &self.ready;
        if ready.is_empty() {
            return Err(stall);
        }
        let oldest = || {
            *ready
                .iter()
                .min_by_key(|&&i| self.warps[i].as_ref().map_or(u64::MAX, |w| w.age))
                .expect("ready set nonempty")
        };
        Ok(match self.config.policy {
            SchedPolicy::Lrr | SchedPolicy::TwoLevel => {
                // Two-level approximates to LRR over the ready set here
                // because memory-blocked warps are already excluded from
                // `ready` (demotion) — the active-set cap is modelled by
                // rotating through at most `TWO_LEVEL_ACTIVE` of them.
                let window = match self.config.policy {
                    SchedPolicy::TwoLevel => &ready[..ready.len().min(TWO_LEVEL_ACTIVE)],
                    _ => &ready[..],
                };
                let cursor = self.rr_cursor[sched];
                let w = *window.iter().find(|&&w| w > cursor).unwrap_or(&window[0]);
                self.rr_cursor[sched] = w;
                w
            }
            // Greedy-then-oldest: stay on the current warp while it is ready.
            SchedPolicy::Gto => match self.gto_current[sched] {
                Some(cur) if ready.contains(&cur) => cur,
                _ => {
                    let w = oldest();
                    self.gto_current[sched] = Some(w);
                    w
                }
            },
            SchedPolicy::Old => oldest(),
        })
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

    /// Per-lane local-memory remap into the grid's local arena.
    ///
    /// Like real GPUs, local memory is interleaved per warp at 8-byte
    /// granularity (`[warp][granule][lane]`): when all lanes of a warp
    /// access the same local offset — the common case for spilled arrays —
    /// the 32 lane addresses are contiguous and coalesce into two 128-byte
    /// transactions instead of 32.
    fn local_addr(
        interleave: bool,
        cfg: &CtaConfig,
        warp_in_cta: u32,
        lane: usize,
        addr: u64,
    ) -> u64 {
        if !interleave {
            // Ablation layout: contiguous per-thread arenas. Same-offset
            // accesses across a warp land `local_stride` bytes apart and
            // cannot coalesce.
            let tid = warp_in_cta as u64 * WARP_SIZE as u64 + lane as u64;
            let thread_global = cfg.cta_linear * cfg.dims.threads_per_cta() as u64 + tid;
            return cfg.local_base + thread_global * cfg.local_stride + addr;
        }
        let warp_global = cfg.cta_linear * cfg.dims.warps_per_cta() as u64 + warp_in_cta as u64;
        let granule = addr / 8;
        let rem = addr % 8;
        let warp_stride = cfg.local_stride * WARP_SIZE as u64;
        cfg.local_base
            + warp_global * warp_stride
            + granule * (8 * WARP_SIZE as u64)
            + lane as u64 * 8
            + rem
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
    /// Returns the first faulting address and the lane mask.
    fn check_extent_lanes(addrs: &Row, mask: u32, width: Width, len: u64) -> Option<(u64, u32)> {
        let mut first: Option<u64> = None;
        let mut faulting = 0u32;
        for lane in lanes(mask) {
            if addrs[lane]
                .checked_add(width.bytes())
                .is_none_or(|end| end > len)
            {
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
        self.outstanding.clear();
        self.waiters.clear();
        self.l1.release_mshrs();
        self.tc.release_mshrs();
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
        self.outstanding.len()
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
            let pending: u32 = w.reg_pending.iter().map(|&p| p as u32).sum();
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
