//! # ggpu-sm — the streaming-multiprocessor core model
//!
//! This crate models a single GPU core (SM) at cycle granularity:
//!
//! * `warp` (crate-private) — SIMT reconvergence stack (immediate
//!   post-dominator reconvergence), registers as 32-lane rows, scoreboard
//!   timing, and the one readiness rule, `Warp::readiness`: can the warp's
//!   next instruction issue now, and if not why and until when.
//! * [`SmCore`] — CTA slots with occupancy-limited placement, four warp
//!   schedulers ([`SchedPolicy`]: LRR / GTO / OLD / two-level) and the
//!   fast-forward probes [`SmCore::next_wake`] / [`SmCore::skip_cycles`],
//!   all bit operations on one readiness index that keeps the rule's
//!   answer for every warp slot, derived again only after an event touched
//!   the warp or its wake-up came; functional execution of the `ggpu-isa`
//!   instruction set a 32-lane row at a time (the operation resolved once
//!   per warp-instruction), with every load, store and atomic through one
//!   memory pipeline (lane addresses → guest-fault check → functional effect →
//!   timing: coalescing into 128-byte transactions, shared-memory
//!   bank-conflict serialization, the L1/constant/texture cache front end);
//!   and per-cycle stall classification ([`StallReason`]) feeding the
//!   paper's Figure 5.
//! * [`SmStats`] — instruction mix (Fig 8), memory-space mix (Fig 9), warp
//!   occupancy histogram (Fig 10), stall breakdown (Fig 5).
//!
//! The SM is driven by the whole-GPU simulator in `ggpu-sim`, which provides
//! functional global memory ([`GlobalMem`]), routes [`MemRequest`]s through
//! the interconnect to L2/DRAM, and dispatches CTAs and CDP child grids.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod coalesce;
mod config;
mod core;
mod pc;
mod ports;
mod stats;
mod warp;

pub use crate::core::{CtaConfig, GlobalMem, SmCore, Trap, WarpReport, WarpWait};
pub use crate::ports::{
    CompletedCta, DeviceLaunch, MemOp, MemRequest, ReqKind, SmPorts, TickOutput,
};
pub use coalesce::coalesce_lines;
pub use config::{SchedPolicy, SmConfig, CONST_CACHE, TEX_CACHE};
pub use pc::{PcCounters, PcTable};
pub use stats::{SmField, SmStats, StallBreakdown, StallReason};

/// Why [`run_standalone`] could not run the resident work to completion.
#[derive(Debug, Clone)]
pub struct HangDiagnostic {
    /// Cycles executed before giving up.
    pub cycles: u64,
    /// Guest faults raised (empty for a pure hang).
    pub traps: Vec<Trap>,
    /// Blocked-state of every warp still resident at the end.
    pub warps: Vec<WarpReport>,
    /// Memory requests still outstanding to the (caller-modelled) memory
    /// system.
    pub outstanding: usize,
}

impl std::fmt::Display for HangDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.traps.is_empty() {
            writeln!(f, "SM made no progress for {} cycles", self.cycles)?;
        } else {
            writeln!(f, "SM trapped after {} cycles:", self.cycles)?;
            for t in &self.traps {
                writeln!(
                    f,
                    "  {} at pc {} ({}), warp {} lanes {:#010x}{}",
                    t.kind,
                    t.pc,
                    t.instr,
                    t.warp,
                    t.lane_mask,
                    t.addr.map_or(String::new(), |a| format!(", addr {a:#x}")),
                )?;
            }
        }
        writeln!(f, "{} memory requests outstanding", self.outstanding)?;
        for w in &self.warps {
            writeln!(f, "  {w}")?;
        }
        Ok(())
    }
}

impl std::error::Error for HangDiagnostic {}

/// Drive a standalone SM (no interconnect/L2/DRAM behind it) until all
/// resident work completes, answering every off-chip read one cycle after
/// it is issued.
///
/// Returns the completion cycle and any CDP child launches the kernels
/// emitted. Intended for unit tests and micro-experiments on a single SM;
/// the full memory system lives in `ggpu-sim`.
///
/// # Errors
///
/// Returns a [`HangDiagnostic`] when a warp raises a guest fault, or when
/// the SM is still busy after `max_cycles` (e.g. a CTA waiting forever in
/// `Dsync` for a child grid nobody will run).
pub fn run_standalone(
    sm: &mut SmCore,
    mem: &mut dyn GlobalMem,
    max_cycles: u64,
) -> Result<(u64, Vec<DeviceLaunch>), HangDiagnostic> {
    let mut launches = Vec::new();
    let mut traps = Vec::new();
    let mut ports = SmPorts::new();
    for now in 0..max_cycles {
        sm.tick(now, &*mem, false, &mut ports);
        sm.commit_mem_ops(mem, &mut ports.out.mem_ops);
        // Answer every non-store request one cycle later: replies pushed
        // here are drained at the start of the next tick (cycle now + 1).
        let SmPorts { replies, out } = &mut ports;
        for req in out.mem_requests.drain(..) {
            if req.kind != ReqKind::Store {
                replies.push(req.id);
            }
        }
        launches.append(&mut out.launches);
        traps.append(&mut out.traps);
        out.completed.clear();
        if !traps.is_empty() {
            return Err(HangDiagnostic {
                cycles: now,
                traps,
                warps: sm.warp_report(0),
                outstanding: sm.outstanding_requests(),
            });
        }
        if sm.is_idle() {
            return Ok((now, launches));
        }
    }
    Err(HangDiagnostic {
        cycles: max_cycles,
        traps,
        warps: sm.warp_report(0),
        outstanding: sm.outstanding_requests(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_isa::{
        AtomOp, CmpOp, KernelBuilder, LaunchDims, Operand, Program, ScalarType, Space, SpecialReg,
        Width,
    };
    use std::collections::HashMap;
    use std::sync::Arc;

    /// Simple functional memory for tests.
    #[derive(Default)]
    pub(crate) struct TestMem {
        data: HashMap<u64, u8>,
    }

    impl GlobalMem for TestMem {
        fn read(&self, addr: u64, width: Width) -> u64 {
            let mut v = 0u64;
            for i in 0..width.bytes() {
                v |= (*self.data.get(&(addr + i)).unwrap_or(&0) as u64) << (8 * i);
            }
            v
        }
        fn write(&mut self, addr: u64, width: Width, value: u64) {
            for i in 0..width.bytes() {
                self.data.insert(addr + i, (value >> (8 * i)) as u8);
            }
        }
        fn atom(&mut self, op: AtomOp, addr: u64, src: u64, cas: u64) -> u64 {
            let old = self.read(addr, Width::B64);
            let (new, o) = op.apply(old, src, cas);
            self.write(addr, Width::B64, new);
            o
        }
    }

    fn run_to_completion(
        sm: &mut SmCore,
        mem: &mut TestMem,
        max_cycles: u64,
    ) -> (u64, Vec<DeviceLaunch>) {
        match run_standalone(sm, mem, max_cycles) {
            Ok(r) => r,
            Err(d) => panic!("kernel did not finish within {max_cycles} cycles:\n{d}"),
        }
    }

    fn cta_cfg(program: &Program, dims: LaunchDims, params: Vec<u64>) -> CtaConfig {
        let _ = program;
        CtaConfig {
            kernel_id: ggpu_isa::KernelId(0),
            grid_handle: 1,
            cta_linear: 0,
            dims,
            params: Arc::new(params),
            const_data: Arc::new(Vec::new()),
            local_base: 1 << 30,
            local_stride: 0,
        }
    }

    /// out[tid] = tid * 3 kernel used by several tests.
    fn simple_program() -> Program {
        let mut b = KernelBuilder::new("triple");
        let tid = b.global_tid();
        let v = b.reg();
        b.imul(v, tid, Operand::imm(3));
        let a = b.reg();
        b.imul(a, tid, Operand::imm(8));
        let base = b.reg();
        b.ld_param(base, 0);
        b.iadd(a, a, Operand::reg(base));
        b.st(Space::Global, Width::B64, Operand::reg(v), a, 0);
        b.exit();
        let k = b.finish();
        k.validate().unwrap();
        let mut p = Program::new();
        p.add(k);
        p
    }

    #[test]
    fn runs_simple_kernel_and_writes_results() {
        let program = Arc::new(simple_program());
        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        let dims = LaunchDims::linear(1, 64);
        assert!(sm.try_launch_cta(CtaConfig {
            cta_linear: 0,
            ..cta_cfg(&program, dims, vec![0x1000])
        }));
        let mut mem = TestMem::default();
        run_to_completion(&mut sm, &mut mem, 10_000);
        for tid in 0..64u64 {
            assert_eq!(mem.read(0x1000 + tid * 8, Width::B64), tid * 3, "tid {tid}");
        }
        assert_eq!(sm.stats().ctas_completed, 1);
        assert!(sm.stats().issued > 0);
    }

    #[test]
    fn occupancy_histogram_full_warps() {
        let program = Arc::new(simple_program());
        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 64), vec![0x1000]));
        let mut mem = TestMem::default();
        run_to_completion(&mut sm, &mut mem, 10_000);
        assert!(sm.stats().occupancy_fraction(29, 32) > 0.99);
    }

    #[test]
    fn partial_warp_occupancy() {
        let program = Arc::new(simple_program());
        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        // 40 threads: one full warp + one 8-lane warp.
        sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 40), vec![0x1000]));
        let mut mem = TestMem::default();
        run_to_completion(&mut sm, &mut mem, 10_000);
        assert!(sm.stats().occupancy_fraction(5, 8) > 0.0);
    }

    #[test]
    fn divergent_kernel_reconverges_and_counts_divergence() {
        // if (tid & 1) v = 10 else v = 20; out[tid] = v
        let mut b = KernelBuilder::new("diverge");
        let tid = b.global_tid();
        let bit = b.reg();
        b.iand(bit, tid, Operand::imm(1));
        let p = b.cmp_s(CmpOp::Ne, Operand::reg(bit), Operand::imm(0));
        let v = b.reg();
        b.if_then_else(
            p,
            |b| b.mov(v, Operand::imm(10)),
            |b| b.mov(v, Operand::imm(20)),
        );
        let a = b.reg();
        b.imul(a, tid, Operand::imm(8));
        let base = b.reg();
        b.ld_param(base, 0);
        b.iadd(a, a, Operand::reg(base));
        b.st(Space::Global, Width::B64, Operand::reg(v), a, 0);
        b.exit();
        let mut p2 = Program::new();
        p2.add(b.finish());
        let program = Arc::new(p2);

        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 32), vec![0x2000]));
        let mut mem = TestMem::default();
        run_to_completion(&mut sm, &mut mem, 10_000);
        for tid in 0..32u64 {
            let want = if tid & 1 == 1 { 10 } else { 20 };
            assert_eq!(mem.read(0x2000 + tid * 8, Width::B64), want, "tid {tid}");
        }
        assert!(sm.stats().occupancy[15] > 0, "16-lane issues expected");
    }

    #[test]
    fn loop_kernel_sums_range() {
        // out[0] = sum(0..100) computed by thread 0.
        let mut b = KernelBuilder::new("sumloop");
        let tid = b.global_tid();
        let iszero = b.cmp_s(CmpOp::Eq, Operand::reg(tid), Operand::imm(0));
        b.if_then(iszero, |b| {
            let acc = b.reg();
            b.mov(acc, Operand::imm(0));
            b.for_range(Operand::imm(0), Operand::imm(100), 1, |b, i| {
                b.iadd(acc, acc, Operand::reg(i));
            });
            let base = b.reg();
            b.ld_param(base, 0);
            b.st(Space::Global, Width::B64, Operand::reg(acc), base, 0);
        });
        b.exit();
        let mut p = Program::new();
        p.add(b.finish());
        let program = Arc::new(p);

        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 32), vec![0x3000]));
        let mut mem = TestMem::default();
        run_to_completion(&mut sm, &mut mem, 100_000);
        assert_eq!(mem.read(0x3000, Width::B64), 4950);
    }

    #[test]
    fn shared_memory_roundtrip_with_barrier() {
        // smem[tid] = tid; barrier; out[tid] = smem[31-tid]
        let mut b = KernelBuilder::new("smem");
        let smem_base = b.alloc_smem(32 * 8);
        let tid = b.global_tid();
        let sa = b.reg();
        b.imul(sa, tid, Operand::imm(8));
        b.iadd(sa, sa, Operand::imm(smem_base as i64));
        b.st(Space::Shared, Width::B64, Operand::reg(tid), sa, 0);
        b.bar();
        let rtid = b.reg();
        b.isub(rtid, Operand::imm(31), Operand::reg(tid));
        let ra = b.reg();
        b.imul(ra, rtid, Operand::imm(8));
        b.iadd(ra, ra, Operand::imm(smem_base as i64));
        let v = b.reg();
        b.ld(Space::Shared, Width::B64, v, ra, 0);
        let base = b.reg();
        b.ld_param(base, 0);
        let oa = b.reg();
        b.imul(oa, tid, Operand::imm(8));
        b.iadd(oa, oa, Operand::reg(base));
        b.st(Space::Global, Width::B64, Operand::reg(v), oa, 0);
        b.exit();
        let mut p = Program::new();
        p.add(b.finish());
        let program = Arc::new(p);

        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 32), vec![0x4000]));
        let mut mem = TestMem::default();
        run_to_completion(&mut sm, &mut mem, 10_000);
        for tid in 0..32u64 {
            assert_eq!(mem.read(0x4000 + tid * 8, Width::B64), 31 - tid);
        }
        assert!(sm.stats().space_count(Space::Shared) > 0);
    }

    #[test]
    fn barrier_synchronizes_across_warps() {
        // All threads write smem[tid]; barrier; read across warp boundary.
        let mut b = KernelBuilder::new("xwarp");
        let off = b.alloc_smem(64 * 8);
        let tid = b.global_tid();
        let sa = b.reg();
        b.imul(sa, tid, Operand::imm(8));
        b.iadd(sa, sa, Operand::imm(off as i64));
        let v0 = b.reg();
        b.iadd(v0, tid, Operand::imm(100));
        b.st(Space::Shared, Width::B64, Operand::reg(v0), sa, 0);
        b.bar();
        let other = b.reg();
        b.iadd(other, tid, Operand::imm(32));
        b.alu(
            ggpu_isa::AluOp::IRem,
            other,
            Operand::reg(other),
            Operand::imm(64),
        );
        let oa = b.reg();
        b.imul(oa, other, Operand::imm(8));
        b.iadd(oa, oa, Operand::imm(off as i64));
        let v = b.reg();
        b.ld(Space::Shared, Width::B64, v, oa, 0);
        let base = b.reg();
        b.ld_param(base, 0);
        let ga = b.reg();
        b.imul(ga, tid, Operand::imm(8));
        b.iadd(ga, ga, Operand::reg(base));
        b.st(Space::Global, Width::B64, Operand::reg(v), ga, 0);
        b.exit();
        let mut p = Program::new();
        p.add(b.finish());
        let program = Arc::new(p);

        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 64), vec![0x8000]));
        let mut mem = TestMem::default();
        run_to_completion(&mut sm, &mut mem, 20_000);
        for tid in 0..64u64 {
            let want = (tid + 32) % 64 + 100;
            assert_eq!(mem.read(0x8000 + tid * 8, Width::B64), want, "tid {tid}");
        }
    }

    #[test]
    fn global_atomics_accumulate() {
        let mut b = KernelBuilder::new("atomic");
        let base = b.reg();
        b.ld_param(base, 0);
        let old = b.reg();
        b.atom(
            AtomOp::Add,
            Space::Global,
            old,
            base,
            Operand::imm(1),
            Operand::imm(0),
        );
        b.exit();
        let mut p = Program::new();
        p.add(b.finish());
        let program = Arc::new(p);

        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 128), vec![0x9000]));
        let mut mem = TestMem::default();
        run_to_completion(&mut sm, &mut mem, 20_000);
        assert_eq!(mem.read(0x9000, Width::B64), 128);
    }

    #[test]
    fn divergent_global_atomic_is_round_trips_not_lsu_slots() {
        // Every lane adds to its own 128-byte line: 32 round-trips to the
        // memory partition, but — unlike an uncoalesced load or store — no
        // LSU serialization of the warp's issue slot. No suite kernel issues
        // a multi-line atomic, so the completion cycle (commit cc5c2db's) is
        // pinned here.
        let mut b = KernelBuilder::new("scatter_add");
        let tid = b.global_tid();
        let a = b.reg();
        b.imul(a, tid, Operand::imm(128));
        let base = b.reg();
        b.ld_param(base, 0);
        b.iadd(a, a, Operand::reg(base));
        let old = b.reg();
        b.atom(
            AtomOp::Add,
            Space::Global,
            old,
            a,
            Operand::imm(1),
            Operand::imm(0),
        );
        b.exit();
        let mut p = Program::new();
        p.add(b.finish());
        let program = Arc::new(p);
        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 32), vec![0x9000]));
        let mut mem = TestMem::default();
        let (done, _) = run_to_completion(&mut sm, &mut mem, 20_000);
        assert_eq!(done, 20);
        assert_eq!(sm.stats().offchip_txns, 32);
        for tid in 0..32u64 {
            assert_eq!(mem.read(0x9000 + tid * 128, Width::B64), 1, "tid {tid}");
        }
    }

    #[test]
    fn cdp_launch_emitted_and_dsync_blocks() {
        // Thread 0 launches a child grid and syncs on it.
        let mut b = KernelBuilder::new("parent");
        let tid = b.global_tid();
        let z = b.cmp_s(CmpOp::Eq, Operand::reg(tid), Operand::imm(0));
        b.if_then(z, |b| {
            b.launch(1, Operand::imm(2), Operand::imm(32), Operand::imm(0x100), 1);
            b.dsync();
        });
        b.exit();
        let mut p = Program::new();
        p.add(b.finish());
        let mut cb = KernelBuilder::new("child");
        cb.exit();
        p.add(cb.finish());
        let program = Arc::new(p);

        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 32), vec![]));
        let mut mem = TestMem::default();
        mem.write(0x100, Width::B64, 0xAB);

        let mut launches: Vec<DeviceLaunch> = Vec::new();
        let mut released = false;
        let mut ports = SmPorts::new();
        for now in 0..20_000 {
            sm.tick(now, &mem, false, &mut ports);
            sm.commit_mem_ops(&mut mem, &mut ports.out.mem_ops);
            for req in ports.out.mem_requests.drain(..) {
                if req.kind != ReqKind::Store {
                    sm.mem_response(req.id, now + 1);
                }
            }
            launches.append(&mut ports.out.launches);
            if !launches.is_empty() && now > 500 && !released {
                sm.child_grid_done(launches[0].parent_slot, None);
                released = true;
            }
            if sm.is_idle() {
                break;
            }
        }
        assert!(released, "parent should have waited on dsync");
        assert!(sm.is_idle(), "parent must finish after child completes");
        assert_eq!(launches.len(), 1);
        assert_eq!(launches[0].kernel, 1);
        assert_eq!(launches[0].grid_x, 2);
        assert_eq!(launches[0].block_x, 32);
        assert_eq!(launches[0].params, vec![0xAB]);
        assert_eq!(sm.stats().device_launches, 1);
    }

    #[test]
    fn occupancy_limits_respected() {
        let mut b = KernelBuilder::new("fat");
        b.set_regs_per_thread(64);
        b.exit();
        let mut p = Program::new();
        p.add(b.finish());
        let program = Arc::new(p);
        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        // 64 regs × 128 threads = 8192 regs per CTA; 65536/8192 = 8 CTAs.
        let dims = LaunchDims::linear(100, 128);
        let mut placed = 0;
        while sm.try_launch_cta(CtaConfig {
            cta_linear: placed,
            ..cta_cfg(&program, dims, vec![])
        }) {
            placed += 1;
        }
        assert_eq!(placed, 8);
    }

    #[test]
    fn stall_classification_memory_dominates_under_misses() {
        // Strided global loads guarantee misses and memory stalls.
        let mut b = KernelBuilder::new("misser");
        let tid = b.global_tid();
        let acc = b.reg();
        b.mov(acc, Operand::imm(0));
        b.for_range(Operand::imm(0), Operand::imm(32), 1, |b, i| {
            let a = b.reg();
            b.imul(a, i, Operand::imm(32));
            b.iadd(a, a, Operand::reg(tid));
            b.imul(a, a, Operand::imm(4096));
            let v = b.reg();
            b.ld(Space::Global, Width::B64, v, a, 0);
            b.iadd(acc, acc, Operand::reg(v));
        });
        b.exit();
        let mut p = Program::new();
        p.add(b.finish());
        let program = Arc::new(p);

        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 32), vec![]));
        let mut mem = TestMem::default();

        let mut pending: Vec<(u64, u64)> = Vec::new();
        let mut finished = false;
        let mut ports = SmPorts::new();
        for now in 0..1_000_000 {
            sm.tick(now, &mem, false, &mut ports);
            sm.commit_mem_ops(&mut mem, &mut ports.out.mem_ops);
            for req in ports.out.mem_requests.drain(..) {
                if req.kind != ReqKind::Store {
                    pending.push((req.id, now + 200));
                }
            }
            pending.retain(|&(id, t)| {
                if t <= now {
                    sm.mem_response(id, now);
                    false
                } else {
                    true
                }
            });
            if sm.is_idle() {
                finished = true;
                break;
            }
        }
        assert!(finished, "kernel hung");
        let stalls = &sm.stats().stalls;
        assert!(
            stalls.fraction(StallReason::MemLatency) > 0.5,
            "memory stalls should dominate: {stalls:?}"
        );
        assert!(sm.l1_stats().miss_rate() > 0.9);
    }

    #[test]
    fn scheduler_policies_all_complete() {
        // A full SM — 48 warps, 12 to a scheduler, so the two-level policy's
        // 8-warp active set is narrower than its ready set. The completion
        // cycles are the ones commit cc5c2db's build gave.
        for (policy, cycles) in [
            (SchedPolicy::Lrr, 131),
            (SchedPolicy::Gto, 138),
            (SchedPolicy::Old, 138),
            (SchedPolicy::TwoLevel, 133),
        ] {
            let program = Arc::new(simple_program());
            let cfg = SmConfig {
                policy,
                ..SmConfig::default()
            };
            let mut sm = SmCore::new(cfg, Arc::clone(&program));
            sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 1536), vec![0x1000]));
            let mut mem = TestMem::default();
            let (done, _) = run_to_completion(&mut sm, &mut mem, 50_000);
            assert_eq!(done, cycles, "{policy}");
            for tid in 0..1536u64 {
                assert_eq!(
                    mem.read(0x1000 + tid * 8, Width::B64),
                    tid * 3,
                    "{policy}: tid {tid}"
                );
            }
        }
    }

    #[test]
    fn perfect_memory_is_faster() {
        let build = |perfect: bool| {
            let mut b = KernelBuilder::new("reader");
            let tid = b.global_tid();
            let acc = b.reg();
            b.mov(acc, Operand::imm(0));
            b.for_range(Operand::imm(0), Operand::imm(16), 1, |b, i| {
                let a = b.reg();
                b.imul(a, i, Operand::imm(32));
                b.iadd(a, a, Operand::reg(tid));
                b.imul(a, a, Operand::imm(4096));
                let v = b.reg();
                b.ld(Space::Global, Width::B64, v, a, 0);
                b.iadd(acc, acc, Operand::reg(v));
            });
            b.exit();
            let mut p = Program::new();
            p.add(b.finish());
            let program = Arc::new(p);
            let cfg = SmConfig {
                perfect_memory: perfect,
                ..SmConfig::default()
            };
            let mut sm = SmCore::new(cfg, Arc::clone(&program));
            sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 32), vec![]));
            let mut mem = TestMem::default();
            let mut pending: Vec<(u64, u64)> = Vec::new();
            let mut ports = SmPorts::new();
            for now in 0..1_000_000 {
                sm.tick(now, &mem, false, &mut ports);
                sm.commit_mem_ops(&mut mem, &mut ports.out.mem_ops);
                for req in ports.out.mem_requests.drain(..) {
                    if req.kind != ReqKind::Store {
                        pending.push((req.id, now + 300));
                    }
                }
                pending.retain(|&(id, t)| {
                    if t <= now {
                        sm.mem_response(id, now);
                        false
                    } else {
                        true
                    }
                });
                if sm.is_idle() {
                    return now;
                }
            }
            panic!("hang");
        };
        let slow = build(false);
        let fast = build(true);
        assert!(
            fast * 2 < slow,
            "perfect memory ({fast}) should be much faster than 300-cycle memory ({slow})"
        );
    }

    #[test]
    fn sreg_special_registers() {
        let mut b = KernelBuilder::new("sregs");
        let lane = b.reg();
        b.sreg(lane, SpecialReg::LaneId);
        let warp = b.reg();
        b.sreg(warp, SpecialReg::WarpId);
        let ntid = b.reg();
        b.sreg(ntid, SpecialReg::NTidX);
        let tid = b.global_tid();
        let v = b.reg();
        b.imul(v, warp, Operand::imm(1000));
        b.iadd(v, v, Operand::reg(lane));
        let t = b.reg();
        b.imul(t, ntid, Operand::imm(1_000_000));
        b.iadd(v, v, Operand::reg(t));
        let base = b.reg();
        b.ld_param(base, 0);
        let a = b.reg();
        b.imul(a, tid, Operand::imm(8));
        b.iadd(a, a, Operand::reg(base));
        b.st(Space::Global, Width::B64, Operand::reg(v), a, 0);
        b.exit();
        let mut p = Program::new();
        p.add(b.finish());
        let program = Arc::new(p);
        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 64), vec![0x5000]));
        let mut mem = TestMem::default();
        run_to_completion(&mut sm, &mut mem, 10_000);
        for tid in 0..64u64 {
            let want = (tid % 32) + (tid / 32) * 1000 + 64 * 1_000_000;
            assert_eq!(mem.read(0x5000 + tid * 8, Width::B64), want, "tid {tid}");
        }
    }

    #[test]
    fn setp_float_comparison_in_kernel() {
        let mut b = KernelBuilder::new("fcmp");
        let p = b.reg();
        b.setp(
            p,
            CmpOp::Gt,
            ScalarType::F64,
            Operand::f64imm(2.5),
            Operand::f64imm(1.5),
        );
        let v = b.reg();
        b.sel(v, p, Operand::imm(7), Operand::imm(9));
        let base = b.reg();
        b.ld_param(base, 0);
        b.st(Space::Global, Width::B64, Operand::reg(v), base, 0);
        b.exit();
        let mut prog = Program::new();
        prog.add(b.finish());
        let program = Arc::new(prog);
        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 1), vec![0x6000]));
        let mut mem = TestMem::default();
        run_to_completion(&mut sm, &mut mem, 10_000);
        assert_eq!(mem.read(0x6000, Width::B64), 7);
    }

    /// TestMem wrapper that rejects out-of-bounds / misaligned accesses the
    /// way the device memory in `ggpu-sim` does.
    #[derive(Default)]
    pub(crate) struct BoundedMem {
        pub(crate) inner: TestMem,
        pub(crate) limit: u64,
    }

    impl GlobalMem for BoundedMem {
        fn read(&self, addr: u64, width: Width) -> u64 {
            self.inner.read(addr, width)
        }
        fn write(&mut self, addr: u64, width: Width, value: u64) {
            self.inner.write(addr, width, value);
        }
        fn atom(&mut self, op: AtomOp, addr: u64, src: u64, cas: u64) -> u64 {
            self.inner.atom(op, addr, src, cas)
        }
        fn check(&self, addr: u64, width: Width, _store: bool) -> Option<ggpu_isa::FaultKind> {
            if !addr.is_multiple_of(width.bytes()) {
                Some(ggpu_isa::FaultKind::MisalignedAccess)
            } else if addr + width.bytes() > self.limit {
                Some(ggpu_isa::FaultKind::IllegalAddress)
            } else {
                None
            }
        }
    }

    #[test]
    fn oob_global_store_traps_with_context() {
        let program = Arc::new(simple_program());
        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 64), vec![0x1000]));
        // Only the first 16 threads' stores fit below the limit.
        let mut mem = BoundedMem {
            limit: 0x1000 + 16 * 8,
            ..BoundedMem::default()
        };
        let err =
            run_standalone(&mut sm, &mut mem, 10_000).expect_err("out-of-bounds store must trap");
        // Both warps of the CTA hit the bound in the same cycle (they sit
        // on different schedulers); the first report is warp 0's.
        assert!(!err.traps.is_empty());
        let t = &err.traps[0];
        assert_eq!(t.kind, ggpu_isa::FaultKind::IllegalAddress);
        assert!(t.instr.contains("st.global"), "instr: {}", t.instr);
        assert_eq!(t.addr, Some(0x1000 + 16 * 8));
        assert_ne!(t.lane_mask, 0);
        // Faulting lanes are exactly threads 16.. of the first warp.
        assert_eq!(t.lane_mask, 0xFFFF_0000);
        // No partial write happened on the faulting warp.
        assert_eq!(mem.read(0x1000 + 31 * 8, Width::B64), 0);
        // The report names the trapped warp.
        assert!(err
            .warps
            .iter()
            .any(|w| matches!(w.wait, WarpWait::Trapped)));
    }

    #[test]
    fn misaligned_access_traps() {
        let mut b = KernelBuilder::new("misaligned");
        let base = b.reg();
        b.ld_param(base, 0);
        let v = b.reg();
        b.ld(Space::Global, Width::B64, v, base, 3);
        b.exit();
        let mut p = Program::new();
        p.add(b.finish());
        let program = Arc::new(p);
        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 1), vec![0x1000]));
        let mut mem = BoundedMem {
            limit: 1 << 20,
            ..BoundedMem::default()
        };
        let err = run_standalone(&mut sm, &mut mem, 10_000).expect_err("must trap");
        assert_eq!(err.traps[0].kind, ggpu_isa::FaultKind::MisalignedAccess);
        assert_eq!(err.traps[0].addr, Some(0x1003));
    }

    #[test]
    fn pc_past_stream_end_traps_invalid_pc() {
        // Hand-built instruction stream with no terminating Exit on the
        // executed path (Kernel::validate would reject it; the SM must trap
        // rather than panic).
        let k = ggpu_isa::Kernel {
            name: "runaway".into(),
            instrs: vec![ggpu_isa::Instr::Mov {
                dst: ggpu_isa::Reg(0),
                src: Operand::imm(7),
            }],
            regs_per_thread: 1,
            smem_per_cta: 0,
            cmem_bytes: 0,
            local_bytes_per_thread: 0,
        };
        let mut p = Program::new();
        p.add(k);
        let program = Arc::new(p);
        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 32), vec![]));
        let mut mem = TestMem::default();
        let err = run_standalone(&mut sm, &mut mem, 1_000).expect_err("must trap");
        assert_eq!(err.traps[0].kind, ggpu_isa::FaultKind::InvalidPc);
        assert_eq!(err.traps[0].pc, 1);
    }

    #[test]
    fn shared_overflow_traps() {
        let mut b = KernelBuilder::new("smem_oob");
        let off = b.alloc_smem(16);
        let tid = b.global_tid();
        let sa = b.reg();
        b.imul(sa, tid, Operand::imm(8));
        b.iadd(sa, sa, Operand::imm(off as i64));
        b.st(Space::Shared, Width::B64, Operand::reg(tid), sa, 0);
        b.exit();
        let mut p = Program::new();
        p.add(b.finish());
        let program = Arc::new(p);
        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 32), vec![]));
        let mut mem = TestMem::default();
        let err = run_standalone(&mut sm, &mut mem, 1_000).expect_err("must trap");
        assert_eq!(err.traps[0].kind, ggpu_isa::FaultKind::SharedMemOverflow);
        // Lanes 0 and 1 fit in the 16-byte allocation; the rest fault.
        assert_eq!(err.traps[0].lane_mask, !0b11);
    }

    #[test]
    fn constant_load_at_the_top_of_the_address_space_reads_zero() {
        // Constant loads are unbounded (unbound constants read zero), so the
        // guest can aim one at the last byte of the address space: its
        // functional read and its cache-line span must not wrap.
        let mut b = KernelBuilder::new("const_wrap");
        let zero = b.reg();
        b.mov(zero, Operand::imm(0));
        let v = b.reg();
        b.ld(Space::Const, Width::B64, v, zero, -1);
        let base = b.reg();
        b.ld_param(base, 0);
        b.st(Space::Global, Width::B64, Operand::reg(v), base, 0);
        b.exit();
        let mut p = Program::new();
        p.add(b.finish());
        let program = Arc::new(p);
        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        let mut cfg = cta_cfg(&program, LaunchDims::linear(1, 32), vec![0x1000]);
        cfg.const_data = Arc::new(vec![0xFF; 64]);
        sm.try_launch_cta(cfg);
        let mut mem = TestMem::default();
        mem.write(0x1000, Width::B64, 0xDEAD);
        run_to_completion(&mut sm, &mut mem, 10_000);
        assert_eq!(mem.read(0x1000, Width::B64), 0);
    }

    #[test]
    fn divergent_barrier_traps() {
        let mut b = KernelBuilder::new("divbar");
        let tid = b.global_tid();
        let p = b.cmp_s(CmpOp::Lt, Operand::reg(tid), Operand::imm(16));
        b.if_then(p, |b| {
            b.bar();
        });
        b.bar();
        b.exit();
        let mut prog = Program::new();
        prog.add(b.finish());
        let program = Arc::new(prog);
        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 32), vec![]));
        let mut mem = TestMem::default();
        let err =
            run_standalone(&mut sm, &mut mem, 10_000).expect_err("divergent barrier must trap");
        assert_eq!(err.traps[0].kind, ggpu_isa::FaultKind::BarrierDivergence);
        assert!(err.traps[0].instr.contains("bar"));
    }

    #[test]
    fn abort_workload_returns_sm_to_clean_idle() {
        let program = Arc::new(simple_program());
        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 64), vec![0x1000]));
        let mut mem = TestMem::default();
        // Run a few cycles so requests are in flight, then abort.
        let mut ports = SmPorts::new();
        for now in 0..10 {
            sm.tick(now, &mem, false, &mut ports);
            sm.commit_mem_ops(&mut mem, &mut ports.out.mem_ops);
        }
        assert!(!sm.is_idle());
        sm.abort_workload();
        assert!(sm.is_idle());
        assert_eq!(sm.outstanding_requests(), 0);
        assert_eq!(sm.resident_ctas(), 0);
        // The SM accepts and completes fresh work afterwards.
        assert!(sm.try_launch_cta(cta_cfg(&program, LaunchDims::linear(1, 64), vec![0x1000])));
        run_to_completion(&mut sm, &mut mem, 10_000);
        for tid in 0..64u64 {
            assert_eq!(mem.read(0x1000 + tid * 8, Width::B64), tid * 3, "tid {tid}");
        }
    }

    #[test]
    fn local_memory_is_thread_private() {
        let mut b = KernelBuilder::new("local");
        b.set_local_bytes(8);
        let tid = b.global_tid();
        let zero = b.reg();
        b.mov(zero, Operand::imm(0));
        b.st(Space::Local, Width::B64, Operand::reg(tid), zero, 0);
        let v = b.reg();
        b.ld(Space::Local, Width::B64, v, zero, 0);
        let base = b.reg();
        b.ld_param(base, 0);
        let a = b.reg();
        b.imul(a, tid, Operand::imm(8));
        b.iadd(a, a, Operand::reg(base));
        b.st(Space::Global, Width::B64, Operand::reg(v), a, 0);
        b.exit();
        let mut p = Program::new();
        p.add(b.finish());
        let program = Arc::new(p);
        let mut sm = SmCore::new(SmConfig::default(), Arc::clone(&program));
        let mut cfg = cta_cfg(&program, LaunchDims::linear(1, 64), vec![0x7000]);
        cfg.local_stride = 8;
        sm.try_launch_cta(cfg);
        let mut mem = TestMem::default();
        run_to_completion(&mut sm, &mut mem, 20_000);
        for tid in 0..64u64 {
            assert_eq!(mem.read(0x7000 + tid * 8, Width::B64), tid, "tid {tid}");
        }
        assert!(sm.stats().space_count(Space::Local) > 0);
    }
}
