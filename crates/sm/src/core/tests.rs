//! Tests of what only the core's own module can see: the readiness memo
//! against a fresh derivation at every invalidation event, the row forms of
//! `issue` against the scalar operations lane by lane, the extent check and
//! the local remap against their per-lane forms, the order the store log
//! commits in, what `abort_workload` leaves in the caches, that a reply
//! reaching a core with no live warps still fills its L1, and that the
//! request ring counts and drains exactly.

use std::sync::Arc;

use ggpu_isa::{AluOp, CmpOp, Kernel, KernelBuilder, Operand, ScalarType};
use ggpu_mem::CacheOutcome;
use proptest::prelude::*;

use super::exec::fma;
use super::*;
use crate::config::{lat, SmConfig};
use crate::ports::{MemRequest, ReqKind};
use crate::tests::{BoundedMem, TestMem};
use crate::warp::FULL_MASK;

/// Every test's memory ends here; the trap test stores past it.
const MEM_LIMIT: u64 = 1 << 20;

/// One SM running CTA 0 of kernel 0, ticked by hand; the test answers the
/// memory requests itself.
struct Rig {
    sm: SmCore,
    mem: BoundedMem,
    ports: SmPorts,
    now: u64,
}

impl Rig {
    fn new(kernels: Vec<Kernel>, threads: u32, params: Vec<u64>) -> Rig {
        let mut program = Program::new();
        for k in kernels {
            program.add(k);
        }
        let mut sm = SmCore::new(SmConfig::default(), Arc::new(program));
        assert!(sm.try_launch_cta(cta(threads, params)));
        Rig {
            sm,
            mem: BoundedMem {
                inner: TestMem::default(),
                limit: MEM_LIMIT,
            },
            ports: SmPorts::new(),
            now: 0,
        }
    }

    fn warp(&self, widx: usize) -> &Warp {
        self.sm.warps[widx].as_ref().expect("resident warp")
    }

    /// The memoised answer of every warp slot equals one derived from the
    /// warp's state alone, at the current cycle. (A release build's
    /// `readiness` returns the memo unchecked, so this is the check there.)
    fn audit(&mut self) {
        for widx in 0..self.sm.warps.len() {
            let memoised = self.sm.readiness(widx, self.now);
            let derived = self.sm.warps[widx].as_mut().and_then(|w| {
                SmCore::derive_readiness(&self.sm.slots, &self.sm.decoded, w, self.now)
            });
            assert_eq!(memoised, derived, "warp {widx} at cycle {}", self.now);
        }
    }

    /// One cycle, audited before the tick and after it (the state the events
    /// inside the tick left, seen at the same cycle); the requests it sent.
    fn step(&mut self) -> Vec<MemRequest> {
        self.audit();
        self.sm.tick(self.now, &self.mem, false, &mut self.ports);
        let out = &mut self.ports.out;
        self.sm.commit_mem_ops(&mut self.mem, &mut out.mem_ops);
        out.completed.clear();
        let requests = out.mem_requests.drain(..).collect();
        self.audit();
        self.now += 1;
        requests
    }

    /// Step until `done` holds, at most 500 cycles; the requests sent.
    fn step_until(&mut self, what: &str, done: impl Fn(&Rig) -> bool) -> Vec<MemRequest> {
        let mut requests = Vec::new();
        for _ in 0..500 {
            if done(self) {
                return requests;
            }
            requests.extend(self.step());
        }
        panic!("never reached: {what}");
    }
}

/// CTA 0 of kernel 0.
fn cta(threads: u32, params: Vec<u64>) -> CtaConfig {
    CtaConfig {
        kernel_id: KernelId(0),
        grid_handle: 1,
        cta_linear: 0,
        dims: LaunchDims::linear(1, threads),
        params: Arc::new(params),
        const_data: Arc::new(Vec::new()),
        local_base: 1 << 30,
        local_stride: 0,
    }
}

fn kernel(build: impl FnOnce(&mut KernelBuilder)) -> Kernel {
    let mut b = KernelBuilder::new("memo");
    build(&mut b);
    b.exit();
    b.finish()
}

// ---- the memo cannot go stale: one test per invalidation event ------------

#[test]
fn memo_follows_the_issue_of_an_alu_op() {
    let int = lat::INT;
    let mut rig = Rig::new(
        vec![kernel(|b| {
            let (x, y) = (b.reg(), b.reg());
            b.mov(x, Operand::imm(1));
            b.imul(y, x, Operand::imm(3));
            b.iadd(y, y, Operand::reg(x));
        })],
        32,
        vec![],
    );
    rig.audit();
    assert_eq!(rig.warp(0).memo, Some((WaitKind::Ready, 0)));
    rig.step(); // mov
    rig.step(); // imul at cycle 1: y is ready `int` cycles later
    assert_eq!(rig.sm.stats.issued, 2);
    // The iadd waits on y: one derivation at cycle 2 stands, audited every
    // cycle, until the wake-up it named; then the warp is ready and issues.
    rig.audit();
    assert_eq!(rig.warp(0).memo, Some((WaitKind::Data, 1 + int)));
    rig.step_until("the wake-up", |r| r.now == 1 + int);
    assert_eq!(rig.sm.stats.issued, 2);
    rig.step();
    assert_eq!(rig.sm.stats.issued, 3);
    rig.step_until("exit", |r| r.sm.is_idle());
}

#[test]
fn memo_follows_the_issue_of_a_branch() {
    let branch = lat::BRANCH;
    let mut rig = Rig::new(
        vec![kernel(|b| {
            let p = b.cmp_s(CmpOp::Eq, Operand::imm(0), Operand::imm(0));
            b.if_then(p, |b| {
                let x = b.reg();
                b.mov(x, Operand::imm(1));
            });
        })],
        32,
        vec![],
    );
    rig.step_until("the branch", |r| r.warp(0).issue_block_is_control);
    let issued_at = rig.now - 1;
    rig.audit();
    assert_eq!(
        rig.warp(0).memo,
        Some((WaitKind::Control, issued_at + branch))
    );
    rig.step_until("exit", |r| r.sm.is_idle());
}

#[test]
fn memo_follows_a_load_miss_and_each_arriving_fill() {
    // 32 lanes × 8 bytes: two lines, two fills pending on the destination.
    let mut rig = Rig::new(
        vec![kernel(|b| {
            let tid = b.global_tid();
            let (a, v) = (b.reg(), b.reg());
            b.imul(a, tid, Operand::imm(8));
            b.ld(Space::Global, Width::B64, v, a, 0x2000);
            b.iadd(v, v, Operand::imm(1));
        })],
        32,
        vec![],
    );
    let requests = rig.step_until("the load", |r| r.sm.has_outstanding());
    assert_eq!(requests.len(), 2);
    // Past the load's issue window the dependent add waits on memory.
    rig.step_until("the memory wait", |r| {
        r.warp(0).memo == Some((WaitKind::Memory, u64::MAX))
    });
    // A fill that is not the last one: still waiting on memory.
    rig.sm.mem_response(requests[0].id, rig.now);
    assert_eq!(rig.warp(0).memo, None, "a fill drops the memo");
    rig.audit();
    assert_eq!(rig.warp(0).memo, Some((WaitKind::Memory, u64::MAX)));
    rig.step();
    // The last fill: the value is readable the cycle after.
    rig.sm.mem_response(requests[1].id, rig.now);
    assert_eq!(rig.warp(0).memo, None);
    rig.audit();
    assert_eq!(rig.warp(0).memo, Some((WaitKind::Data, rig.now + 1)));
    rig.step_until("exit", |r| r.sm.is_idle());
}

/// Two warps; warp 1 runs `detour` on its way, warp 0 goes straight to the
/// barrier and parks there.
fn barrier_rig(detour: impl FnOnce(&mut KernelBuilder)) -> Rig {
    let mut rig = Rig::new(
        vec![kernel(|b| {
            let w = b.reg();
            b.sreg(w, SpecialReg::WarpId);
            let late = b.cmp_s(CmpOp::Ne, Operand::reg(w), Operand::imm(0));
            b.if_then(late, detour);
            b.bar();
        })],
        64,
        vec![],
    );
    rig.step_until("warp 0 at the barrier", |r| {
        r.warp(0).block == WarpBlock::Barrier
    });
    rig.audit();
    assert_eq!(rig.warp(0).memo, Some((WaitKind::Sync, u64::MAX)));
    rig
}

/// A few cycles of work, so warp 0 is parked before warp 1 acts.
fn dawdle(b: &mut KernelBuilder) {
    let x = b.reg();
    b.mov(x, Operand::imm(1));
    b.iadd(x, x, Operand::imm(1));
}

#[test]
fn memo_follows_a_barrier_released_by_the_last_arrival() {
    let mut rig = barrier_rig(dawdle);
    rig.step_until("the release", |r| r.warp(0).block == WarpBlock::None);
    assert!(!rig.warp(1).done, "warp 1 arrived at the barrier");
    rig.step_until("exit", |r| r.sm.is_idle());
}

#[test]
fn memo_follows_a_barrier_released_by_an_exit() {
    let mut rig = barrier_rig(|b| {
        dawdle(b);
        b.exit();
    });
    rig.step_until("the release", |r| r.warp(0).block == WarpBlock::None);
    assert!(rig.warp(1).done, "warp 1 left without arriving");
    rig.step_until("exit", |r| r.sm.is_idle());
}

#[test]
fn memo_follows_a_child_grid_completing() {
    let child = kernel(|_| {});
    let parent = kernel(|b| {
        b.launch(1, Operand::imm(1), Operand::imm(32), Operand::imm(0), 0);
        b.dsync();
    });
    let mut rig = Rig::new(vec![parent, child], 1, vec![]);
    rig.step_until("the device sync", |r| r.warp(0).block == WarpBlock::Dsync);
    rig.audit();
    assert_eq!(rig.warp(0).memo, Some((WaitKind::Sync, u64::MAX)));
    rig.step();
    rig.sm.child_grid_done(0, None);
    assert_eq!(rig.warp(0).memo, None, "the release drops the memo");
    rig.audit();
    assert!(matches!(rig.warp(0).memo, Some((WaitKind::Ready, _))));
    rig.step_until("exit", |r| r.sm.is_idle());
}

#[test]
fn memo_follows_a_trap() {
    let mut rig = Rig::new(
        vec![kernel(|b| {
            let a = b.reg();
            b.mov(a, Operand::imm(MEM_LIMIT as i64));
            b.st(Space::Global, Width::B64, Operand::imm(7), a, 0);
        })],
        32,
        vec![],
    );
    rig.step_until("the trap", |r| !r.ports.out.traps.is_empty());
    assert_eq!(rig.warp(0).block, WarpBlock::Trapped);
    assert_eq!(rig.warp(0).memo, Some((WaitKind::Sync, u64::MAX)));
    for _ in 0..5 {
        rig.step();
    }
    assert_eq!(rig.sm.stats.issued, 2, "a trapped warp never issues again");
}

// ---- rows equal lanes, through `issue` ------------------------------------

/// Execute `instr` once on a warp whose registers are `regs` and whose
/// active lanes are `mask`; the registers afterwards.
fn exec_one(instr: Instr, regs: &[Row], mask: u32) -> Vec<Row> {
    let k = Kernel {
        name: "one".into(),
        instrs: vec![instr, Instr::Exit],
        regs_per_thread: regs.len() as u32,
        smem_per_cta: 0,
        cmem_bytes: 0,
        local_bytes_per_thread: 0,
    };
    let mut rig = Rig::new(vec![k], 32, vec![]);
    let w = rig.sm.warps[0].as_mut().expect("resident warp");
    w.regs = regs.to_vec();
    w.stack[0].mask = mask;
    rig.sm.issue(0, 0, &rig.mem, &mut rig.ports.out);
    assert!(rig.ports.out.traps.is_empty());
    rig.warp(0).regs.clone()
}

/// `instr` writes `expect(lane)` to `dst` in the lanes of `mask` and leaves
/// every other lane of every register as it was.
fn assert_lanes(instr: Instr, regs: &[Row], mask: u32, dst: Reg, expect: impl Fn(usize) -> u64) {
    let after = exec_one(instr.clone(), regs, mask);
    for (r, (before, after)) in regs.iter().zip(&after).enumerate() {
        for l in 0..WARP_SIZE {
            let want = if r == dst.0 as usize && mask & (1 << l) != 0 {
                expect(l)
            } else {
                before[l]
            };
            assert_eq!(after[l], want, "{instr}: r{r} lane {l}, mask {mask:#x}");
        }
    }
}

fn row() -> BoxedStrategy<Row> {
    // Small values half the time so selects and predicates see zeros.
    let lane = (0..2u8, 0..=u64::MAX).prop_map(|(small, v)| if small == 0 { v % 3 } else { v });
    prop::collection::vec(lane, WARP_SIZE).prop_map(|v| v.try_into().expect("32 lanes"))
}

proptest! {
    #[test]
    fn issue_writes_what_the_scalar_operations_say_and_only_active_lanes(
        regs in prop::collection::vec(row(), 4),
        imm in 0..=u64::MAX,
        partial in 0..=u32::MAX,
        shape in 0..3u8,
        pick in 0..1000usize,
    ) {
        let mask = [FULL_MASK, 0, partial][shape as usize];
        let (r0, r1, r2, r3) = (Reg(0), Reg(1), Reg(2), Reg(3));
        let (a, b, c) = (Operand::Reg(r1), Operand::Reg(r2), Operand::Reg(r3));
        let imm_op = Operand::Imm(imm);
        let (ra, rb, rc) = (regs[1], regs[2], regs[3]);

        // One operation of each family per case, chosen by `pick`; operand
        // order matters for most of them (sub, shifts, div, lt, fma, sel).
        let ops = [
            AluOp::ISub, AluOp::IShl, AluOp::ISar, AluOp::IDiv, AluOp::IRem, AluOp::IMin,
            AluOp::FSub, AluOp::FDiv, AluOp::DSub, AluOp::DDiv, AluOp::DMax, AluOp::FSqrt,
        ];
        let op = ops[pick % ops.len()];
        assert_lanes(Instr::Alu { op, dst: r0, a, b }, &regs, mask, r0, |l| op.eval(ra[l], rb[l]));
        assert_lanes(Instr::Alu { op, dst: r0, a, b: imm_op }, &regs, mask, r0, |l| op.eval(ra[l], imm));
        // Destination aliasing a source: the row is read before it is written.
        assert_lanes(Instr::Alu { op, dst: r1, a, b }, &regs, mask, r1, |l| op.eval(ra[l], rb[l]));

        let cmp = [CmpOp::Lt, CmpOp::Ge, CmpOp::Ne][pick % 3];
        let ty = [ScalarType::S64, ScalarType::U64, ScalarType::F32, ScalarType::F64][pick % 4];
        assert_lanes(Instr::SetP { pred: r0, cmp, ty, a, b }, &regs, mask, r0, |l| {
            cmp.eval(ty, ra[l], rb[l]) as u64
        });

        let kind = [CvtKind::I2F, CvtKind::I2D, CvtKind::F2I, CvtKind::D2I, CvtKind::F2D, CvtKind::D2F][pick % 6];
        assert_lanes(Instr::Cvt { kind, dst: r0, src: a }, &regs, mask, r0, |l| kind.eval(ra[l]));

        for f64 in [false, true] {
            assert_lanes(Instr::Fma { f64, dst: r0, a, b, c }, &regs, mask, r0, |l| {
                fma(f64, ra[l], rb[l], rc[l])
            });
        }
        assert_lanes(
            Instr::Sel { dst: r0, cond: r1, if_true: b, if_false: c },
            &regs, mask, r0,
            |l| if ra[l] != 0 { rb[l] } else { rc[l] },
        );
        assert_lanes(Instr::Mov { dst: r0, src: a }, &regs, mask, r0, |l| ra[l]);
        assert_lanes(Instr::Mov { dst: r0, src: imm_op }, &regs, mask, r0, |_| imm);
    }

    #[test]
    fn a_predicated_branch_takes_the_active_lanes_whose_predicate_matches(
        pred in row(),
        partial in 0..=u32::MAX,
        full in 0..2u8,
        expect in 0..2u8,
    ) {
        let mask = if full == 1 { FULL_MASK } else { partial | 1 };
        let expect = expect == 1;
        let k = Kernel {
            name: "bra".into(),
            instrs: vec![
                Instr::Bra { pred: Some((Reg(0), expect)), target: 2, reconv: 3 },
                Instr::Exit,
                Instr::Exit,
                Instr::Exit,
            ],
            regs_per_thread: 1,
            smem_per_cta: 0,
            cmem_bytes: 0,
            local_bytes_per_thread: 0,
        };
        let mut rig = Rig::new(vec![k], 32, vec![]);
        let w = rig.sm.warps[0].as_mut().expect("resident warp");
        w.regs[0] = pred;
        w.stack[0].mask = mask;
        rig.sm.issue(0, 0, &rig.mem, &mut rig.ports.out);
        let taken = (0..WARP_SIZE)
            .filter(|&l| mask & (1 << l) != 0 && (pred[l] != 0) == expect)
            .fold(0u32, |t, l| t | 1 << l);
        let top = *rig.warp(0).stack.last().expect("running");
        let want = match taken {
            0 => (1, mask),
            t if t == mask => (2, mask),
            t => (2, t),
        };
        prop_assert_eq!((top.pc, top.mask), want);
    }
}

proptest! {
    #[test]
    fn shared_memory_bytes_move_as_one_byte_at_a_time_would(
        data in prop::collection::vec(0..=255u8, 0..24),
        near in 0..32u64,
        top in 0..2u8,
        value in 0..=u64::MAX,
        width in prop_oneof![Just(Width::B8), Just(Width::B16), Just(Width::B32), Just(Width::B64)],
    ) {
        // In range, straddling the end, beyond it, and wrapping the address space.
        let addr = if top == 1 { u64::MAX - near % 8 } else { near };
        let at = |i: u64| addr.checked_add(i).and_then(|a| usize::try_from(a).ok());
        let read = (0..width.bytes()).fold(0u64, |v, i| {
            let byte = at(i).and_then(|a| data.get(a)).copied().unwrap_or(0);
            v | (byte as u64) << (8 * i)
        });
        prop_assert_eq!(SmCore::bytes_read(&data, addr, width), read);

        let mut written = data.clone();
        for i in 0..width.bytes() {
            if let Some(slot) = at(i).and_then(|a| written.get_mut(a)) {
                *slot = (value >> (8 * i)) as u8;
            }
        }
        let mut data = data;
        SmCore::bytes_write(&mut data, addr, width, value);
        prop_assert_eq!(data, written);
    }
}

// ---- the guest-fault extent and the local remap, rows against lanes ----------

/// `check_extent_lanes` lane by lane, as it was before the reduction.
fn extent_reference(addrs: &Row, mask: u32, width: Width, len: u64) -> Option<(u64, u32)> {
    let mut first = None;
    let mut faulting = 0u32;
    for lane in (0..WARP_SIZE).filter(|l| mask & (1 << l) != 0) {
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

/// The local remap one lane at a time, as `mem_access` did it before the
/// warp's arena base was hoisted out of the lane loop.
fn local_addr(interleave: bool, cfg: &CtaConfig, warp_in_cta: u32, lane: usize, addr: u64) -> u64 {
    if !interleave {
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

fn width() -> BoxedStrategy<Width> {
    prop_oneof![
        Just(Width::B8),
        Just(Width::B16),
        Just(Width::B32),
        Just(Width::B64)
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_extent_check_reduction_is_the_per_lane_rule(
        lanes in prop::collection::vec((0..4u8, 0..=u64::MAX), WARP_SIZE),
        mask in prop_oneof![Just(FULL_MASK), Just(0u32), 0..=u32::MAX],
        width in width(),
        len in prop_oneof![Just(0u64), 1..4096u64, Just(u64::MAX)],
    ) {
        // Lanes well inside the extent, around its end, anywhere, and at the
        // top of the address space, where the address plus the width
        // overflows.
        let addrs: Row = std::array::from_fn(|l| match lanes[l] {
            (0, v) => v % len.max(1),
            (1, v) => len.saturating_sub(8).saturating_add(v % 16),
            (2, v) => v,
            (_, v) => u64::MAX - v % 8,
        });
        prop_assert_eq!(
            SmCore::check_extent_lanes(&addrs, mask, width, len),
            extent_reference(&addrs, mask, width, len)
        );
    }

    #[test]
    fn the_row_remap_is_the_per_lane_remap_on_the_active_lanes(
        offsets in prop::collection::vec(0..=u64::MAX, WARP_SIZE),
        garbage in prop::collection::vec(0..64u64, WARP_SIZE),
        mask in prop_oneof![Just(FULL_MASK), Just(0u32), 0..=u32::MAX],
        interleave in 0..2u8,
        local_stride in 1..2048u64,
        (cta_linear, threads, warp) in (0..4096u64, 1..=1024u32, 0..32u32),
        local_base in 0..1u64 << 40,
    ) {
        let cfg = CtaConfig {
            kernel_id: KernelId(0),
            grid_handle: 1,
            cta_linear,
            dims: LaunchDims::linear(cta_linear as u32 + 1, threads),
            params: Arc::new(Vec::new()),
            const_data: Arc::new(Vec::new()),
            local_base,
            local_stride,
        };
        let warp_in_cta = warp % cfg.dims.warps_per_cta();
        // Active lanes hold thread-relative offsets the extent check admits;
        // inactive ones hold garbage near the top of the address space.
        let raw: Row = std::array::from_fn(|l| {
            if mask & (1 << l) != 0 {
                offsets[l] % local_stride
            } else {
                u64::MAX - garbage[l]
            }
        });
        let mut row = raw;
        SmCore::local_row(interleave == 1, &cfg, warp_in_cta, &mut row);
        for l in (0..WARP_SIZE).filter(|l| mask & (1 << l) != 0) {
            prop_assert_eq!(row[l], local_addr(interleave == 1, &cfg, warp_in_cta, l, raw[l]), "lane {}", l);
        }
    }
}

// ---- the store log's order is the fence ------------------------------------

/// Warps 0 and 1 of one SM sit on schedulers 0 and 1 and run in lockstep, so
/// whatever the kernel makes them do to memory they do in the same cycle,
/// warp 0 logged first. The log of the first cycle that has one, and the rig
/// once the kernel has finished.
fn one_racing_cycle(build: impl FnOnce(&mut KernelBuilder, Reg)) -> (Vec<MemOp>, Rig) {
    let mut rig = Rig::new(
        vec![kernel(|b| {
            let w = b.reg();
            b.sreg(w, SpecialReg::WarpId);
            build(b, w);
        })],
        64,
        vec![],
    );
    rig.mem.inner.write(0x3000, Width::B64, 1000);
    let mut log = Vec::new();
    while !rig.sm.is_idle() {
        rig.sm.tick(rig.now, &rig.mem, false, &mut rig.ports);
        let SmPorts { replies, out } = &mut rig.ports;
        if log.is_empty() {
            log = out.mem_ops.clone();
        }
        rig.sm.commit_mem_ops(&mut rig.mem, &mut out.mem_ops);
        let answered = out.mem_requests.drain(..);
        replies.extend(answered.filter(|r| r.kind != ReqKind::Store).map(|r| r.id));
        rig.now += 1;
    }
    (log, rig)
}

#[test]
fn overlapping_stores_of_one_cycle_land_in_issue_then_lane_order() {
    // Every lane of both warps stores its global thread id to one of four
    // words (lane % 4): 16 stores per word in one cycle.
    let (log, rig) = one_racing_cycle(|b, _| {
        let tid = b.global_tid();
        let a = b.reg();
        b.alu(AluOp::IAnd, a, tid, Operand::imm(3));
        b.imul(a, a, Operand::imm(8));
        b.st(Space::Global, Width::B64, Operand::reg(tid), a, 0x3000);
    });
    assert_eq!(log.len(), 2, "one log entry per warp store");
    // The rule: entries in issue order (warp 0 on scheduler 0 first), lanes
    // ascending — so each word keeps warp 1's highest lane that maps to it.
    for word in 0..4u64 {
        assert_eq!(
            rig.mem.inner.read(0x3000 + word * 8, Width::B64),
            32 + 28 + word,
            "word {word}"
        );
    }
}

#[test]
fn a_store_racing_an_atomic_on_one_word_commits_in_issue_order() {
    // Warp 0 stores 5, warp 1 adds 1 per lane: the store is logged first, so
    // lane l of the atomic sees 5 + l and the word ends at 5 + 32.
    let race = |storing_warp: i64| {
        one_racing_cycle(|b, w| {
            let (a, old) = (b.reg(), b.reg());
            b.mov(a, Operand::imm(0x3000));
            let stores = b.cmp_s(CmpOp::Eq, Operand::reg(w), Operand::imm(storing_warp));
            b.if_then_else(
                stores,
                |b| b.st(Space::Global, Width::B64, Operand::imm(5), a, 0),
                |b| {
                    b.atom(
                        AtomOp::Add,
                        Space::Global,
                        old,
                        a,
                        Operand::imm(1),
                        Operand::imm(0),
                    );
                    // Park the old values where the test can read them.
                    let tid = b.global_tid();
                    let out = b.reg();
                    b.imul(out, tid, Operand::imm(8));
                    b.st(Space::Global, Width::B64, Operand::reg(old), out, 0x4000);
                },
            );
        })
    };
    let olds = |rig: &Rig, warp: u64| -> Vec<u64> {
        (0..32)
            .map(|l| rig.mem.inner.read(0x4000 + (warp * 32 + l) * 8, Width::B64))
            .collect()
    };

    let (log, rig) = race(0);
    assert!(matches!(log[0], MemOp::Store { .. }) && log.len() == 33);
    assert_eq!(rig.mem.inner.read(0x3000, Width::B64), 5 + 32);
    assert_eq!(olds(&rig, 1), (5..5 + 32).collect::<Vec<u64>>());

    // The other way round the atomics go first, from the initial 1000, and
    // the store has the last word.
    let (log, rig) = race(1);
    assert!(matches!(log[32], MemOp::Store { .. }) && log.len() == 33);
    assert_eq!(rig.mem.inner.read(0x3000, Width::B64), 5);
    assert_eq!(olds(&rig, 0), (1000..1000 + 32).collect::<Vec<u64>>());
}

// ---- abort ------------------------------------------------------------------

#[test]
fn abort_workload_releases_the_misses_it_was_waiting_for_and_nothing_else() {
    let mut rig = Rig::new(
        vec![kernel(|b| {
            let (a, v) = (b.reg(), b.reg());
            b.mov(a, Operand::imm(0x2000));
            b.ld(Space::Global, Width::B64, v, a, 0);
            b.ld(Space::Global, Width::B64, v, a, 0x1000);
        })],
        32,
        vec![],
    );
    // The first load is answered (its line becomes resident), the second is
    // in flight when the workload is aborted.
    let first = rig.step_until("the first load", |r| r.sm.has_outstanding());
    rig.ports.replies.push(first[0].id);
    rig.step_until("the second load", |r| {
        r.sm.has_outstanding() && r.sm.l1.stats().read_access == 2
    });
    assert_eq!(rig.sm.l1.outstanding(), 1);
    let stats = *rig.sm.l1.stats();

    rig.sm.abort_workload();
    assert!(rig.sm.is_idle() && !rig.sm.has_outstanding());
    assert_eq!(
        (rig.sm.l1.outstanding(), rig.sm.tc.outstanding()),
        (0, 0),
        "left allocated, the next load of the line would merge into a miss nobody answers"
    );
    assert_eq!(*rig.sm.l1.stats(), stats, "statistics survive");
    assert_eq!(
        rig.sm.l1.access(0x2000, false),
        CacheOutcome::Hit,
        "tags survive"
    );
    assert!(matches!(
        rig.sm.l1.access(0x3000, false),
        CacheOutcome::Miss { .. }
    ));
}

#[test]
fn a_reply_to_a_core_with_no_live_warps_still_fills_its_l1() {
    // The warp issues its load and exits without reading the value: the
    // core is idle with the miss still outstanding.
    let mut rig = Rig::new(
        vec![kernel(|b| {
            let (a, v) = (b.reg(), b.reg());
            b.mov(a, Operand::imm(0x2000));
            b.ld(Space::Global, Width::B64, v, a, 0);
        })],
        1,
        vec![],
    );
    let sent = rig.step_until("the warp's exit", |r| r.sm.is_idle());
    assert_eq!(sent.len(), 1);
    assert!(rig.sm.has_outstanding());
    assert_eq!(rig.sm.l1.outstanding(), 1);

    rig.ports.replies.push(sent[0].id);
    rig.step();
    assert!(!rig.sm.has_outstanding());
    assert_eq!(rig.sm.l1.outstanding(), 0, "the fill releases the miss");
    assert_eq!(
        rig.sm.l1.access(0x2000, false),
        CacheOutcome::Hit,
        "the fill was lost"
    );
}

// ---- the request ring -------------------------------------------------------

#[test]
fn a_reply_to_a_request_from_before_abort_workload_is_ignored() {
    let load = || {
        kernel(|b| {
            let (a, v) = (b.reg(), b.reg());
            b.mov(a, Operand::imm(0x2000));
            b.ld(Space::Global, Width::B64, v, a, 0);
            b.iadd(v, v, Operand::imm(1));
        })
    };
    let mut rig = Rig::new(vec![load()], 1, vec![]);
    let before = rig.step_until("the load", |r| r.sm.has_outstanding());
    rig.sm.abort_workload();
    // The same load again, on a fresh CTA: the line's miss was released
    // with the abort, so it is a new request with a new id.
    assert!(rig.sm.try_launch_cta(cta(1, vec![])));
    let after = rig.step_until("the load again", |r| r.sm.has_outstanding());
    assert_eq!((before.len(), after.len()), (1, 1));
    assert!(after[0].id > before[0].id, "ids restarted after the abort");
    // The aborted request's reply arrives late: it answers nothing.
    rig.ports.replies.push(before[0].id);
    rig.step();
    assert_eq!(rig.sm.outstanding_requests(), 1);
    assert_eq!(rig.sm.l1.outstanding(), 1, "the late reply filled the line");
    rig.ports.replies.push(after[0].id);
    rig.step_until("exit", |r| r.sm.is_idle());
    assert!(!rig.sm.has_outstanding());
    assert!(rig.sm.requests.slots.is_empty());
}

#[test]
fn out_of_order_replies_between_stores_keep_the_count_exact_and_drain_the_ring() {
    // Load, store, load, store, load: five requests on five lines; the
    // stores take ids but expect no reply.
    let mut rig = Rig::new(
        vec![kernel(|b| {
            let (a, x) = (b.reg(), b.reg());
            let v = [b.reg(), b.reg(), b.reg()];
            b.mov(a, Operand::imm(0x2000));
            b.mov(x, Operand::imm(7));
            b.ld(Space::Global, Width::B64, v[0], a, 0);
            b.st(Space::Global, Width::B64, x, a, 0x1000);
            b.ld(Space::Global, Width::B64, v[1], a, 0x2000);
            b.st(Space::Global, Width::B64, x, a, 0x3000);
            b.ld(Space::Global, Width::B64, v[2], a, 0x4000);
            for r in v {
                b.iadd(r, r, Operand::imm(1));
            }
        })],
        1,
        vec![],
    );
    let sent = rig.step_until("five requests", |r| r.sm.requests.slots.len() == 5);
    let kinds: Vec<ReqKind> = sent.iter().map(|r| r.kind).collect();
    use ReqKind::{Load, Store};
    assert_eq!(kinds, [Load, Store, Load, Store, Load]);
    assert!(sent.windows(2).all(|w| w[1].id == w[0].id + 1));
    assert_eq!(rig.sm.outstanding_requests(), 3);
    // Newest first: the front is still unanswered, so nothing pops. Then
    // the oldest, which pops it and the store behind it; then the last.
    let remaining = [(4, 2, 5), (0, 1, 3), (2, 0, 0)];
    for (i, live, ring) in remaining {
        rig.sm.mem_response(sent[i].id, rig.now);
        assert_eq!(rig.sm.outstanding_requests(), live);
        assert_eq!(rig.sm.has_outstanding(), live > 0);
        assert_eq!(rig.sm.requests.slots.len(), ring, "after reply {i}");
    }
    // A second reply to an answered request changes nothing.
    rig.sm.mem_response(sent[2].id, rig.now);
    assert_eq!(rig.sm.outstanding_requests(), 0);
    rig.step_until("exit", |r| r.sm.is_idle());
}
