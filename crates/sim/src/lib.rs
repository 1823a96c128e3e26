//! # ggpu-sim — the whole-GPU cycle-level simulator
//!
//! Glues the Genomics-GPU substrates into a complete device:
//!
//! * [`Gpu`] — SM cluster (`ggpu-sm`), request/reply interconnects
//!   (`ggpu-icnt`), per-partition L2 slices and DRAM channels (`ggpu-mem`),
//!   a CTA dispatcher, and a CUDA-Dynamic-Parallelism runtime (device-side
//!   launches become child grids with their own launch overhead, and
//!   `cudaDeviceSynchronize` parks the parent until its children drain).
//! * Host API — `malloc` / `memcpy_h2d` / `memcpy_d2h` / `launch` /
//!   `synchronize`, with a PCIe cost model whose transaction counts and
//!   cycles reproduce the paper's Figure 4.
//! * [`GpuConfig`] — the full Table I / Table II configuration space with
//!   the RTX 3070 baseline, plus builders for the paper's sweeps (cache
//!   sizes, CTA scaling, schedulers, memory controllers, topologies).
//! * [`RunStats`] — every counter the paper's figures need, in one place.
//!
//! ## Example
//!
//! ```
//! use ggpu_isa::{KernelBuilder, LaunchDims, Operand, Program, Space, Width};
//! use ggpu_sim::{Gpu, GpuConfig};
//!
//! // Kernel: out[tid] = tid * 2
//! let mut b = KernelBuilder::new("double");
//! let tid = b.global_tid();
//! let v = b.reg();
//! b.imul(v, tid, Operand::imm(2));
//! let base = b.reg();
//! b.ld_param(base, 0);
//! let a = b.reg();
//! b.imul(a, tid, Operand::imm(8));
//! b.iadd(a, a, Operand::reg(base));
//! b.st(Space::Global, Width::B64, Operand::reg(v), a, 0);
//! b.exit();
//! let mut program = Program::new();
//! let k = program.add(b.finish());
//!
//! let mut gpu = Gpu::new(program, GpuConfig::test_small());
//! let out = gpu.malloc(64 * 8);
//! gpu.run_kernel(k, LaunchDims::linear(2, 32), &[out.0]);
//! assert_eq!(gpu.memory().read_u64(out.offset(5 * 8)), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod config;
mod device;
mod error;
pub mod json;
mod memory;
mod node;
mod profile;
mod stats;
mod trace;

pub use config::{FaultPlan, GpuConfig, PcieConfig};
pub use device::{Gpu, LaunchOptions, StreamId};
pub use error::{DeadlockReport, DeviceFault, LaunchProblem, SimError};
pub use memory::{DeviceMemory, DevicePtr};
pub use node::{grid_device, shard_ranges, GpuNode, NodeConfig, NodeStats};
pub use profile::{
    run_stats_json, IntervalSample, KernelPcProfile, KernelRecord, PartitionUnit, PcProfile,
    PcProfileRow, ProfileReport, SmUnit, UnitProfile,
};
pub use stats::{HostStats, RunStats};
pub use trace::{
    chrome_trace_json, ChromeTrace, CopyDir, InstantScope, TraceBuffer, TraceEvent, TraceEventKind,
};

// Re-export the fault vocabulary so harnesses matching on errors don't need
// direct `ggpu-isa` / `ggpu-sm` dependencies.
pub use ggpu_isa::FaultKind;
pub use ggpu_sm::{WarpReport, WarpWait};

// Re-export the counter vocabulary the attribution profiler exposes, so
// harnesses can read [`ProfileReport`] without substrate dependencies.
pub use ggpu_mem::{CacheStats, DramStats};

// Re-export the interconnect vocabulary so [`GpuConfig::icnt`] can be swept
// and [`NodeStats::fabric`] read without a direct `ggpu-icnt` dependency.
pub use ggpu_icnt::{IcntConfig, IcntStats, Topology};
pub use ggpu_sm::{PcCounters, PcTable, SmStats, StallBreakdown, StallReason};

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_isa::{AtomOp, CmpOp, KernelBuilder, LaunchDims, Operand, Program, Space, Width};

    fn double_program() -> (Program, ggpu_isa::KernelId) {
        let mut b = KernelBuilder::new("double");
        let tid = b.global_tid();
        let v = b.reg();
        b.imul(v, tid, Operand::imm(2));
        let base = b.reg();
        b.ld_param(base, 0);
        let a = b.reg();
        b.imul(a, tid, Operand::imm(8));
        b.iadd(a, a, Operand::reg(base));
        b.st(Space::Global, Width::B64, Operand::reg(v), a, 0);
        b.exit();
        let mut p = Program::new();
        let k = p.add(b.finish());
        (p, k)
    }

    #[test]
    fn end_to_end_kernel_execution() {
        let (p, k) = double_program();
        let mut gpu = Gpu::new(p, GpuConfig::test_small());
        let out = gpu.malloc(256 * 8);
        let cycles = gpu.run_kernel(k, LaunchDims::linear(8, 32), &[out.0]);
        assert!(cycles > 0);
        for tid in 0..256u64 {
            assert_eq!(
                gpu.memory().read_u64(out.offset(tid * 8)),
                tid * 2,
                "tid {tid}"
            );
        }
        let s = gpu.stats();
        assert_eq!(s.host.kernel_launches, 1);
        assert_eq!(s.sm.ctas_completed, 8);
        assert!(s.sm.issued > 0);
        assert!(s.ipc() > 0.0);
    }

    #[test]
    fn grids_serialize_on_default_stream() {
        // Non-atomic increment: correct only if grids run one at a time.
        let mut b = KernelBuilder::new("inc");
        let base = b.reg();
        b.ld_param(base, 0);
        let v = b.reg();
        b.ld(Space::Global, Width::B64, v, base, 0);
        b.iadd(v, v, Operand::imm(1));
        b.st(Space::Global, Width::B64, Operand::reg(v), base, 0);
        b.exit();
        let mut p = Program::new();
        let k = p.add(b.finish());
        let mut gpu = Gpu::new(p, GpuConfig::test_small());
        let out = gpu.malloc(8);
        for _ in 0..5 {
            gpu.launch(k, LaunchDims::linear(1, 1), &[out.0]);
        }
        gpu.synchronize();
        assert_eq!(gpu.memory().read_u64(out), 5);
        assert_eq!(gpu.stats().host.kernel_launches, 5);
    }

    #[test]
    fn memcpy_accounting_matches_fig4_model() {
        let (p, _k) = double_program();
        let mut gpu = Gpu::new(p, GpuConfig::test_small());
        let buf = gpu.malloc(4096);
        gpu.memcpy_h2d(buf, &vec![7u8; 4096]);
        let back = gpu.memcpy_d2h(buf, 4096);
        assert_eq!(back, vec![7u8; 4096]);
        let s = gpu.stats();
        assert_eq!(s.host.pci_count, 2);
        assert_eq!(s.host.h2d_bytes, 4096);
        assert_eq!(s.host.d2h_bytes, 4096);
        assert!(s.host.pci_cycles >= 2 * gpu.config().pcie.latency);
    }

    #[test]
    fn atomics_across_many_ctas() {
        let mut b = KernelBuilder::new("count");
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
        let k = p.add(b.finish());
        let mut gpu = Gpu::new(p, GpuConfig::test_small());
        let out = gpu.malloc(8);
        gpu.run_kernel(k, LaunchDims::linear(16, 64), &[out.0]);
        assert_eq!(gpu.memory().read_u64(out), 16 * 64);
    }

    #[test]
    fn cdp_parent_child_roundtrip() {
        let mut p = Program::new();

        let mut pb = KernelBuilder::new("parent");
        let tid = pb.global_tid();
        let z = pb.cmp_s(CmpOp::Eq, Operand::reg(tid), Operand::imm(0));
        pb.if_then(z, |b| {
            let data = b.reg();
            b.ld_param(data, 0);
            let pblock = b.reg();
            b.ld_param(pblock, 1);
            b.st(Space::Global, Width::B64, Operand::reg(data), pblock, 0);
            b.launch(
                1,
                Operand::imm(2),
                Operand::imm(32),
                Operand::reg(pblock),
                1,
            );
            b.dsync();
            let flag = b.reg();
            b.ld_param(flag, 2);
            let v = b.reg();
            b.ld(Space::Global, Width::B64, v, data, 0);
            b.st(Space::Global, Width::B64, Operand::reg(v), flag, 0);
        });
        pb.exit();
        p.add(pb.finish());

        let mut cb = KernelBuilder::new("child");
        let ctid = cb.global_tid();
        let base = cb.reg();
        cb.ld_param(base, 0);
        let a = cb.reg();
        cb.imul(a, ctid, Operand::imm(8));
        cb.iadd(a, a, Operand::reg(base));
        let v = cb.reg();
        cb.ld(Space::Global, Width::B64, v, a, 0);
        cb.imul(v, v, Operand::imm(2));
        cb.st(Space::Global, Width::B64, Operand::reg(v), a, 0);
        cb.exit();
        p.add(cb.finish());

        let mut gpu = Gpu::new(p, GpuConfig::test_small());
        let data = gpu.malloc(64 * 8);
        let pblock = gpu.malloc(8);
        let flag = gpu.malloc(8);
        for i in 0..64u64 {
            gpu.memory_mut().write_u64(data.offset(i * 8), i + 1);
        }
        gpu.run_kernel(
            ggpu_isa::KernelId(0),
            LaunchDims::linear(1, 32),
            &[data.0, pblock.0, flag.0],
        );
        for i in 0..64u64 {
            assert_eq!(
                gpu.memory().read_u64(data.offset(i * 8)),
                (i + 1) * 2,
                "i={i}"
            );
        }
        // Parent observed the child's doubled value after dsync.
        assert_eq!(gpu.memory().read_u64(flag), 2);
        assert_eq!(gpu.stats().sm.device_launches, 1);
    }

    #[test]
    fn stats_reset() {
        let (p, k) = double_program();
        let mut gpu = Gpu::new(p, GpuConfig::test_small());
        let out = gpu.malloc(8 * 64);
        gpu.run_kernel(k, LaunchDims::linear(2, 32), &[out.0]);
        assert!(gpu.stats().sm.issued > 0);
        gpu.reset_stats();
        let s = gpu.stats();
        assert_eq!(s.sm.issued, 0);
        assert_eq!(s.host.kernel_launches, 0);
        assert_eq!(s.l1.accesses(), 0);
    }

    #[test]
    fn attribution_profile_telescopes_to_run_stats() {
        let (p, k) = double_program();
        let mut gpu = Gpu::new(p, GpuConfig::test_small().with_attribution(true));
        assert!(gpu.profiling_enabled());
        let out = gpu.malloc(256 * 8);
        gpu.run_kernel(k, LaunchDims::linear(8, 32), &[out.0]);
        let s = gpu.stats();

        let pc = gpu.pc_profile().expect("attribution on");
        assert_eq!(pc.total(|c| c.issues), s.sm.issued);
        assert_eq!(pc.total(|c| c.lanes), s.sm.thread_instrs);
        assert_eq!(pc.total(|c| c.offchip_txns), s.sm.offchip_txns);
        assert_eq!(pc.total(|c| c.l1_accesses), s.l1.accesses());
        assert_eq!(pc.total(|c| c.l1_hits), s.l1.hits());
        for reason in StallReason::ALL {
            assert_eq!(
                pc.total(|c| c.stalls.get(reason)) + pc.unattributed.get(reason),
                s.sm.stalls.get(reason),
                "stall {reason:?} must telescope"
            );
        }

        let units = gpu.unit_profile();
        let issued: u64 = units.sms.iter().map(|u| u.stats.issued).sum();
        assert_eq!(issued, s.sm.issued);
        let l1: u64 = units.sms.iter().map(|u| u.l1.accesses()).sum();
        assert_eq!(l1, s.l1.accesses());
        let dram: u64 = units.partitions.iter().map(|p| p.dram.requests).sum();
        assert_eq!(dram, s.dram.requests);
        let banks: u64 = units
            .partitions
            .iter()
            .flat_map(|p| p.banks.iter())
            .map(|&(req, _)| req)
            .sum();
        assert_eq!(banks, s.dram.requests);
        let req: u64 = units.sms.iter().map(|u| u.req_injected).sum();
        assert_eq!(req, s.icnt_req.packets);
        let rep: u64 = units.partitions.iter().map(|p| p.rep_injected).sum();
        assert_eq!(rep, s.icnt_rep.packets);

        // take_profile carries both axes; reset clears the PC table.
        let report = gpu.take_profile();
        assert!(report.pc.is_some());
        assert_eq!(report.units.sms.len(), gpu.config().n_sms);
        gpu.reset_stats();
        let pc = gpu.pc_profile().expect("table survives reset, zeroed");
        assert_eq!(pc.total(|c| c.issues), 0);
    }

    #[test]
    fn attribution_does_not_change_stats() {
        let run = |attribution: bool| {
            let (p, k) = double_program();
            let cfg = GpuConfig::test_small().with_attribution(attribution);
            let mut gpu = Gpu::new(p, cfg);
            let out = gpu.malloc(256 * 8);
            gpu.run_kernel(k, LaunchDims::linear(8, 32), &[out.0]);
            gpu.stats()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn perfect_memory_speeds_up_memory_bound_kernel() {
        let build = |perfect: bool| {
            let mut b = KernelBuilder::new("strider");
            let tid = b.global_tid();
            let base = b.reg();
            b.ld_param(base, 0);
            let acc = b.reg();
            b.mov(acc, Operand::imm(0));
            b.for_range(Operand::imm(0), Operand::imm(16), 1, |b, i| {
                let a = b.reg();
                b.imul(a, i, Operand::imm(512));
                b.iadd(a, a, Operand::reg(tid));
                b.imul(a, a, Operand::imm(128));
                b.iadd(a, a, Operand::reg(base));
                let v = b.reg();
                b.ld(Space::Global, Width::B64, v, a, 0);
                b.iadd(acc, acc, Operand::reg(v));
            });
            let outp = b.reg();
            b.ld_param(outp, 1);
            let oa = b.reg();
            b.imul(oa, tid, Operand::imm(8));
            b.iadd(oa, oa, Operand::reg(outp));
            b.st(Space::Global, Width::B64, Operand::reg(acc), oa, 0);
            b.exit();
            let mut p = Program::new();
            let k = p.add(b.finish());
            let mut cfg = GpuConfig::test_small();
            cfg.sm.perfect_memory = perfect;
            let mut gpu = Gpu::new(p, cfg);
            let data = gpu.malloc(16 * 512 * 128 + 4096);
            let out = gpu.malloc(128 * 8);
            gpu.run_kernel(k, LaunchDims::linear(4, 32), &[data.0, out.0])
        };
        let normal = build(false);
        let perfect = build(true);
        assert!(
            perfect < normal,
            "perfect memory ({perfect}) must beat real memory ({normal})"
        );
    }

    #[test]
    fn dram_and_l2_see_traffic() {
        let (p, k) = double_program();
        let mut gpu = Gpu::new(p, GpuConfig::test_small());
        let out = gpu.malloc(1024 * 8);
        gpu.run_kernel(k, LaunchDims::linear(32, 32), &[out.0]);
        let s = gpu.stats();
        assert!(s.l2.accesses() > 0, "L2 saw no traffic");
        assert!(s.dram.requests > 0, "DRAM saw no traffic");
        assert!(s.icnt_req.packets > 0);
        assert!(s.dram.efficiency() > 0.0);
    }

    #[test]
    fn kernel_launch_overhead_counts_functional_done() {
        let (p, k) = double_program();
        let mut cfg = GpuConfig::test_small();
        cfg.kernel_launch_overhead = 2_000;
        let mut gpu = Gpu::new(p, cfg);
        let out = gpu.malloc(64 * 8);
        gpu.run_kernel(k, LaunchDims::linear(1, 32), &[out.0]);
        let s = gpu.stats();
        let fd = s.sm.stalls.get(ggpu_sm::StallReason::FunctionalDone);
        assert!(
            fd > 1000,
            "launch overhead should appear as functional-done stalls, got {fd}"
        );
    }

    #[test]
    fn multi_cta_grid_spreads_across_sms() {
        let (p, k) = double_program();
        let mut gpu = Gpu::new(p, GpuConfig::test_small());
        let out = gpu.malloc(4096 * 8);
        gpu.run_kernel(k, LaunchDims::linear(128, 32), &[out.0]);
        for tid in (0..4096u64).step_by(997) {
            assert_eq!(gpu.memory().read_u64(out.offset(tid * 8)), tid * 2);
        }
        assert_eq!(gpu.stats().sm.ctas_completed, 128);
    }
}
