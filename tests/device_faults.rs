//! Device fault-model tests: guest-fault traps with context, sticky-fault
//! semantics and recovery, the forward-progress watchdog, and the
//! deterministic fault-injection plan.

use ggpu_isa::{
    CmpOp, FaultKind, KernelBuilder, KernelId, LaunchDims, Operand, Program, Space, Width,
};
use ggpu_sim::{
    CopyDir, DevicePtr, FaultPlan, Gpu, GpuConfig, GpuNode, LaunchOptions, LaunchProblem,
    NodeConfig, SimError, StreamId, TraceEventKind, WarpWait,
};

/// Kernel: store one u64 at `param[0] + offset` from a single thread.
fn store_at(offset: i64) -> Program {
    let mut b = KernelBuilder::new("poke");
    let out = b.reg();
    b.ld_param(out, 0);
    b.st(Space::Global, Width::B64, Operand::imm(7), out, offset);
    b.exit();
    let mut p = Program::new();
    p.add(b.finish());
    p
}

/// Kernel: out[tid] = tid (a well-behaved workload for recovery checks).
fn write_tids() -> Program {
    let mut b = KernelBuilder::new("write_tids");
    let tid = b.global_tid();
    let out = b.reg();
    b.ld_param(out, 0);
    let oa = b.reg();
    b.imul(oa, tid, Operand::imm(8));
    b.iadd(oa, oa, Operand::reg(out));
    b.st(Space::Global, Width::B64, Operand::reg(tid), oa, 0);
    b.exit();
    let mut p = Program::new();
    p.add(b.finish());
    p
}

#[test]
fn oob_store_traps_with_context_and_is_sticky() {
    // One thread stores 1 MiB past its 256-byte allocation.
    let mut gpu = Gpu::new(store_at(1 << 20), GpuConfig::test_small());
    let buf = gpu.malloc(256);
    let err = gpu
        .try_run_kernel(KernelId(0), LaunchDims::linear(1, 1), &[buf.0])
        .expect_err("out-of-bounds store must fault");
    let fault = match &err {
        SimError::DeviceFault(f) => f,
        other => panic!("expected DeviceFault, got {other}"),
    };
    assert_eq!(fault.kind, FaultKind::IllegalAddress);
    assert_eq!(fault.kernel, "poke");
    assert_eq!(fault.addr, Some(buf.0 + (1 << 20)));
    assert!(fault.pc.is_some(), "fault must carry the faulting PC");
    assert!(fault.lane_mask.is_some(), "fault must carry the lane mask");
    assert!(!fault.instr.is_empty(), "fault must carry the instruction");
    let msg = err.to_string();
    assert!(msg.contains("illegal address"), "{msg}");
    assert!(msg.contains("poke"), "{msg}");

    // Sticky: every device-touching call returns the same error until reset.
    assert_eq!(gpu.try_synchronize().unwrap_err(), err);
    assert_eq!(gpu.try_malloc(8).unwrap_err(), err);
    assert_eq!(gpu.try_memcpy_h2d(buf, &[0u8; 8]).unwrap_err(), err);
    assert_eq!(
        gpu.try_launch(KernelId(0), LaunchDims::linear(1, 1), &[buf.0])
            .unwrap_err(),
        err
    );
    assert_eq!(gpu.fault(), Some(&err));
}

#[test]
fn misaligned_access_traps() {
    // The store lands at buf+1, which is not naturally aligned for B64.
    let mut gpu = Gpu::new(store_at(1), GpuConfig::test_small());
    let buf = gpu.malloc(256);
    let err = gpu
        .try_run_kernel(KernelId(0), LaunchDims::linear(1, 1), &[buf.0])
        .expect_err("misaligned store must fault");
    match err {
        SimError::DeviceFault(f) => {
            assert_eq!(f.kind, FaultKind::MisalignedAccess);
            assert_eq!(f.addr, Some(buf.0 + 1));
        }
        other => panic!("expected DeviceFault, got {other}"),
    }
}

#[test]
fn device_recovers_after_reset_fault() {
    let mut program = store_at(1 << 20);
    let good = program.add({
        let mut b = KernelBuilder::new("write_tids");
        let tid = b.global_tid();
        let out = b.reg();
        b.ld_param(out, 0);
        let oa = b.reg();
        b.imul(oa, tid, Operand::imm(8));
        b.iadd(oa, oa, Operand::reg(out));
        b.st(Space::Global, Width::B64, Operand::reg(tid), oa, 0);
        b.exit();
        b.finish()
    });
    let mut gpu = Gpu::new(program, GpuConfig::test_small());
    let buf = gpu.malloc(64 * 8);
    gpu.try_run_kernel(KernelId(0), LaunchDims::linear(1, 1), &[buf.0])
        .expect_err("first kernel faults");

    let taken = gpu.reset_fault().expect("fault state was set");
    assert!(matches!(taken, SimError::DeviceFault(_)));
    assert!(gpu.fault().is_none());
    assert!(!gpu.busy(), "halted device must be idle after reset");

    // The same Gpu instance runs a well-behaved kernel to completion.
    let cycles = gpu
        .try_run_kernel(good, LaunchDims::linear(2, 32), &[buf.0])
        .expect("device usable after reset_fault");
    assert!(cycles > 0);
    for i in 0..64u64 {
        assert_eq!(gpu.memory().read_u64(buf.offset(i * 8)), i);
    }
}

#[test]
fn dropped_reply_trips_watchdog_with_blocked_warp_report() {
    // Inject loss of the first memory reply: the loading warp waits forever
    // and the forward-progress watchdog must convert the hang into a typed
    // deadlock report instead of spinning to the 2e9-cycle backstop.
    let mut b = KernelBuilder::new("loader");
    let src = b.reg();
    b.ld_param(src, 0);
    let v = b.reg();
    b.ld(Space::Global, Width::B64, v, src, 0);
    b.st(Space::Global, Width::B64, Operand::reg(v), src, 8);
    b.exit();
    let mut p = Program::new();
    let kid = p.add(b.finish());

    let mut config = GpuConfig::test_small();
    config.watchdog_cycles = 2_000;
    config.fault_plan = FaultPlan {
        drop_reply: Some(0),
        ..FaultPlan::default()
    };
    let mut gpu = Gpu::new(p, config);
    let buf = gpu.malloc(256);
    let err = gpu
        .try_run_kernel(kid, LaunchDims::linear(1, 1), &[buf.0])
        .expect_err("lost reply must deadlock");
    let report = match &err {
        SimError::Deadlock(r) => r,
        other => panic!("expected Deadlock, got {other}"),
    };
    assert!(report.stalled_for >= 2_000);
    assert!(
        report.outstanding_requests >= 1,
        "the dropped reply's request is still outstanding: {report:?}"
    );
    assert!(
        report
            .warps
            .iter()
            .any(|w| matches!(w.wait, WarpWait::Memory { .. })),
        "report must show the warp blocked on memory: {report:?}"
    );
    assert!(err.to_string().contains("no forward progress"), "{err}");

    // Deadlock is sticky like a guest fault, and clears the same way.
    assert!(gpu.try_synchronize().is_err());
    gpu.reset_fault().expect("deadlock was sticky");
    assert!(!gpu.busy());
}

#[test]
fn poison_injection_faults_access_inside_live_allocation() {
    // Poison a 64-byte window that the first allocation will cover; the
    // kernel's store into it faults even though the address was malloc'd.
    let mut config = GpuConfig::test_small();
    config.fault_plan.poison = Some((4096 + 64, 4096 + 128));
    let mut gpu = Gpu::new(store_at(64), config);
    let buf = gpu.malloc(256);
    assert_eq!(buf.0, 4096, "first allocation starts at the base address");
    let err = gpu
        .try_run_kernel(KernelId(0), LaunchDims::linear(1, 1), &[buf.0])
        .expect_err("store into poisoned range must fault");
    match err {
        SimError::DeviceFault(f) => {
            assert_eq!(f.kind, FaultKind::IllegalAddress);
            assert_eq!(f.addr, Some(buf.0 + 64));
        }
        other => panic!("expected DeviceFault, got {other}"),
    }
}

#[test]
fn oom_is_reported_and_not_sticky() {
    let mut config = GpuConfig::test_small();
    config.memory_limit = 4096;
    let mut gpu = Gpu::new(write_tids(), config);
    let err = gpu.try_malloc(8192).expect_err("over-limit malloc fails");
    match err {
        SimError::OutOfMemory {
            requested,
            in_use,
            limit,
        } => {
            assert_eq!(requested, 8192);
            assert_eq!(in_use, 0);
            assert_eq!(limit, 4096);
        }
        other => panic!("expected OutOfMemory, got {other}"),
    }
    // As in CUDA, allocation failure does not poison the device.
    assert!(gpu.fault().is_none());
    let buf = gpu.try_malloc(1024).expect("smaller allocation still fits");
    gpu.try_run_kernel(KernelId(0), LaunchDims::linear(1, 32), &[buf.0])
        .expect("device fully usable after an OOM");
}

#[test]
fn invalid_launch_configs_are_rejected_before_enqueue() {
    let mut gpu = Gpu::new(write_tids(), GpuConfig::test_small());
    let buf = gpu.malloc(1024);

    let unknown = gpu
        .try_launch(KernelId(9), LaunchDims::linear(1, 32), &[buf.0])
        .unwrap_err();
    assert!(matches!(
        unknown,
        SimError::InvalidLaunch {
            problem: LaunchProblem::UnknownKernel,
            ..
        }
    ));

    let zero = gpu
        .try_launch(KernelId(0), LaunchDims::linear(0, 32), &[buf.0])
        .unwrap_err();
    assert!(matches!(
        zero,
        SimError::InvalidLaunch {
            problem: LaunchProblem::ZeroDimension,
            ..
        }
    ));

    let wide = gpu
        .try_launch(KernelId(0), LaunchDims::linear(1, 4096), &[buf.0])
        .unwrap_err();
    assert!(matches!(
        wide,
        SimError::InvalidLaunch {
            problem: LaunchProblem::TooManyThreads { limit: 1536, .. },
            ..
        }
    ));

    let missing = gpu
        .try_launch(KernelId(0), LaunchDims::linear(1, 32), &[])
        .unwrap_err();
    assert!(matches!(
        missing,
        SimError::InvalidLaunch {
            problem: LaunchProblem::ParamCountMismatch { provided: 0, .. },
            ..
        }
    ));

    // Rejected launches enqueue nothing and leave the device healthy.
    assert!(gpu.fault().is_none());
    assert!(!gpu.busy());
    gpu.try_run_kernel(KernelId(0), LaunchDims::linear(1, 32), &[buf.0])
        .expect("valid launch still works");
}

/// Program: `parent`, whose thread 0 launches one `block`-thread CTA of
/// `child` (64 registers per thread, 4 KiB of shared memory) and waits,
/// `child`, and `write_tids`.
fn parent_child_program(block: u32) -> Program {
    let mut p = Program::new();
    let mut pb = KernelBuilder::new("parent");
    let tid = pb.global_tid();
    let z = pb.cmp_s(CmpOp::Eq, Operand::reg(tid), Operand::imm(0));
    pb.if_then(z, |b| {
        let out = b.reg();
        b.ld_param(out, 0);
        let threads = Operand::imm(block as i64);
        b.launch(1, Operand::imm(1), threads, Operand::reg(out), 1);
        b.dsync();
    });
    pb.exit();
    p.add(pb.finish());
    let mut cb = KernelBuilder::new("child");
    cb.set_regs_per_thread(64);
    cb.alloc_smem(4096);
    let out = cb.reg();
    cb.ld_param(out, 0);
    cb.st(Space::Global, Width::B64, Operand::imm(1), out, 0);
    cb.exit();
    p.add(cb.finish());
    p.add(write_tids().kernel(KernelId(0)).clone());
    p
}

#[test]
fn cdp_queue_overflow_injection_faults_parent_launch() {
    // Parent thread 0 launches a child; the plan reports the pending-launch
    // queue as full from cycle 0, so the device launch must trap.
    let mut config = GpuConfig::test_small();
    config.fault_plan.cdp_full_at = Some(0);
    let mut gpu = Gpu::new(parent_child_program(32), config);
    let buf = gpu.malloc(64);
    let err = gpu
        .try_run_kernel(KernelId(0), LaunchDims::linear(1, 32), &[buf.0])
        .expect_err("forced-full CDP queue must fault the launch");
    match err {
        SimError::DeviceFault(f) => {
            assert_eq!(f.kind, FaultKind::CdpQueueOverflow);
            assert_eq!(f.kernel, "parent");
            assert!(f.instr.contains("launch"), "{}", f.instr);
        }
        other => panic!("expected DeviceFault, got {other}"),
    }
}

/// Program: `recurse` — thread 0 of every grid launches the kernel again,
/// one level deeper, and waits for it — and `write_tids`.
fn recursive_program() -> (Program, KernelId, KernelId) {
    let mut p = Program::new();
    let mut b = KernelBuilder::new("recurse");
    let tid = b.global_tid();
    let z = b.cmp_s(CmpOp::Eq, Operand::reg(tid), Operand::imm(0));
    b.if_then(z, |b| {
        let block = b.reg();
        b.ld_param(block, 0);
        // The buffer is its own child parameter block: word 0 points at it.
        b.st(Space::Global, Width::B64, Operand::reg(block), block, 0);
        b.launch(0, Operand::imm(1), Operand::imm(32), Operand::reg(block), 1);
        b.dsync();
    });
    b.exit();
    let recurse = p.add(b.finish());
    let good = p.add(write_tids().kernel(KernelId(0)).clone());
    (p, recurse, good)
}

#[test]
fn cdp_nesting_limit_faults_one_level_past_it_and_recovers() {
    let mut config = GpuConfig::test_small().with_stream_isolation(true);
    config.cdp_max_depth = 3;
    config.trace = true;
    // What a clean run looks like: elapsed cycles, its kernel record's SM
    // counters, and the bytes it wrote.
    let clean_run = |gpu: &mut Gpu, good: KernelId| {
        let out = gpu.malloc(64 * 8);
        let elapsed = gpu
            .try_run_kernel(good, LaunchDims::linear(2, 32), &[out.0])
            .expect("clean run");
        let record = gpu.kernel_records().last().expect("record").clone();
        assert_eq!(record.kernel, "write_tids");
        (elapsed, record.stats.sm, gpu.memcpy_d2h(out, 64 * 8))
    };

    let (p, recurse, good) = recursive_program();
    let mut gpu = Gpu::new(p, config.clone());
    let block = gpu.malloc(64);
    let err = gpu
        .try_run_kernel(recurse, LaunchDims::linear(1, 32), &[block.0])
        .expect_err("unbounded recursion must hit the nesting limit");
    match &err {
        SimError::DeviceFault(f) => {
            assert_eq!(f.kind, FaultKind::CdpNestingExceeded);
            assert_eq!(f.kernel, "recurse");
            assert_eq!(f.stream, 0);
        }
        other => panic!("expected DeviceFault, got {other}"),
    }
    // Children ran at depths 1..=3; the launch refused is the one that
    // would have been depth 4.
    let depths: Vec<u32> = gpu
        .trace_events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::CdpEnqueue { depth, .. } => Some(depth),
            _ => None,
        })
        .collect();
    assert_eq!(depths, [1, 2, 3]);
    assert_eq!(gpu.fault(), Some(&err), "default-stream faults are sticky");
    assert_eq!(gpu.reset_fault(), Some(err));
    assert!(!gpu.busy(), "the killed grids are gone");
    let recovered = clean_run(&mut gpu, good);

    let (p, _, good) = recursive_program();
    let mut fresh = Gpu::new(p, config);
    fresh.malloc(64);
    assert_eq!(recovered, clean_run(&mut fresh, good));
}

#[test]
fn unplaceable_child_launch_faults_at_launch_not_at_the_watchdog() {
    // A child whose CTA no SM can ever hold used to be queued forever: the
    // host saw a `Deadlock` one watchdog period later. Each row shrinks one
    // SM limit under what the child needs (or asks for too many threads).
    type Tweak = fn(&mut GpuConfig);
    let cases: [(u32, Tweak, &str); 3] = [
        (4096, |_| {}, "threads per CTA exceeds SM limit"),
        (32, |c| c.sm.registers = 1024, "registers, SM has 1024"),
        (32, |c| c.sm.smem_bytes = 1024, "bytes of shared memory"),
    ];
    for (block, tweak, why) in cases {
        let mut config = GpuConfig::test_small();
        config.trace = true;
        tweak(&mut config);
        let mut gpu = Gpu::new(parent_child_program(block), config);
        let buf = gpu.malloc(64 * 8);
        let err = gpu
            .try_run_kernel(KernelId(0), LaunchDims::linear(1, 32), &[buf.0])
            .expect_err("the child can never be placed");
        match &err {
            SimError::DeviceFault(f) => {
                assert_eq!(f.kind, FaultKind::CdpInvalidLaunch, "{why}");
                assert_eq!(f.kernel, "parent");
                assert!(f.instr.contains(why), "{}", f.instr);
                assert!(
                    f.cycle < 1_000,
                    "raised at cycle {}, not at the launch",
                    f.cycle
                );
            }
            other => panic!("{why}: expected DeviceFault, got {other}"),
        }
        assert!(
            !gpu.trace_events()
                .iter()
                .any(|e| matches!(e.kind, TraceEventKind::CdpEnqueue { .. })),
            "{why}: the child was enqueued"
        );
        gpu.reset_fault().expect("the fault was sticky");
        gpu.try_run_kernel(KernelId(2), LaunchDims::linear(2, 32), &[buf.0])
            .expect("device usable after reset");
    }
}

#[test]
fn memcpy_drop_injection_is_typed_and_not_sticky() {
    let mut config = GpuConfig::test_small();
    config.fault_plan.drop_memcpy = Some(0);
    let mut gpu = Gpu::new(write_tids(), config);
    let buf = gpu.malloc(256);
    let err = gpu
        .try_memcpy_h2d(buf, &[1u8; 16])
        .expect_err("transfer #0 must be dropped");
    match err {
        SimError::MemcpyDropped { index: 0, dir } => assert_eq!(dir, CopyDir::H2D),
        other => panic!("expected MemcpyDropped, got {other}"),
    }
    // No payload moved, the device is not poisoned, and the retry (a new
    // transfer index) goes through.
    assert!(gpu.fault().is_none());
    gpu.try_memcpy_h2d(buf, &[1u8; 16]).expect("retry succeeds");
    let back = gpu.try_memcpy_d2h(buf, 16).expect("readback succeeds");
    assert_eq!(back, vec![1u8; 16]);
}

#[test]
fn memcpy_poison_injection_corrupts_exactly_one_transfer() {
    // H2D: transfer #0 corrupts what lands in device memory.
    let mut config = GpuConfig::test_small();
    config.fault_plan.poison_memcpy = Some(0);
    let mut gpu = Gpu::new(write_tids(), config);
    let buf = gpu.malloc(256);
    let data = [0x11u8; 16];
    gpu.try_memcpy_h2d(buf, &data)
        .expect("poisoned copy still succeeds");
    let back = gpu.try_memcpy_d2h(buf, 16).expect("clean readback");
    assert_eq!(
        back,
        vec![0x11 ^ 0xA5; 16],
        "device image must be corrupted"
    );

    // D2H: device memory stays intact, only the returned bytes flip.
    let mut config = GpuConfig::test_small();
    config.fault_plan.poison_memcpy = Some(1);
    let mut gpu = Gpu::new(write_tids(), config);
    let buf = gpu.malloc(256);
    gpu.try_memcpy_h2d(buf, &data).expect("clean upload");
    let poisoned = gpu
        .try_memcpy_d2h(buf, 16)
        .expect("poisoned readback succeeds");
    assert_eq!(poisoned, vec![0x11 ^ 0xA5; 16]);
    let clean = gpu.try_memcpy_d2h(buf, 16).expect("next readback is clean");
    assert_eq!(clean, vec![0x11; 16], "device memory must be unharmed");
}

#[test]
fn unknown_stream_launch_is_rejected() {
    let mut gpu = Gpu::new(write_tids(), GpuConfig::test_small());
    let buf = gpu.malloc(1024);
    let err = gpu
        .try_launch_on(
            KernelId(0),
            LaunchDims::linear(1, 32),
            &[buf.0],
            LaunchOptions {
                stream: StreamId(5),
                deadline: None,
            },
        )
        .unwrap_err();
    match err {
        SimError::InvalidLaunch {
            problem: LaunchProblem::UnknownStream { requested, streams },
            ..
        } => {
            assert_eq!(requested, 5);
            assert_eq!(streams, 1);
        }
        other => panic!("expected UnknownStream, got {other}"),
    }
}

#[test]
fn stream_fault_isolates_and_reset_stream_recovers() {
    // Stream 1 runs an out-of-bounds store; stream 2 runs a well-behaved
    // kernel. The fault must poison only stream 1.
    let mut program = store_at(1 << 20);
    let good = program.add({
        let mut b = KernelBuilder::new("write_tids");
        let tid = b.global_tid();
        let out = b.reg();
        b.ld_param(out, 0);
        let oa = b.reg();
        b.imul(oa, tid, Operand::imm(8));
        b.iadd(oa, oa, Operand::reg(out));
        b.st(Space::Global, Width::B64, Operand::reg(tid), oa, 0);
        b.exit();
        b.finish()
    });
    let config = GpuConfig::test_small().with_stream_isolation(true);
    let mut gpu = Gpu::new(program, config);
    let bad_buf = gpu.malloc(256);
    let good_buf = gpu.malloc(64 * 8);
    let s1 = gpu.create_stream();
    let s2 = gpu.create_stream();
    let on = |s| LaunchOptions {
        stream: s,
        deadline: None,
    };
    gpu.try_launch_on(KernelId(0), LaunchDims::linear(1, 1), &[bad_buf.0], on(s1))
        .expect("launch on stream 1");
    gpu.try_launch_on(good, LaunchDims::linear(2, 32), &[good_buf.0], on(s2))
        .expect("launch on stream 2");

    // The faulted stream must not fail the device-wide synchronize.
    gpu.try_synchronize()
        .expect("non-default stream fault must not poison the device");
    assert!(gpu.fault().is_none(), "device-wide fault must stay clear");
    let err = gpu.stream_fault(s1).cloned().expect("stream 1 is faulted");
    match &err {
        SimError::DeviceFault(f) => {
            assert_eq!(f.stream, 1);
            assert_eq!(f.kind, FaultKind::IllegalAddress);
        }
        other => panic!("expected DeviceFault on stream 1, got {other}"),
    }
    assert!(err.to_string().contains("stream 1"), "{err}");
    assert!(gpu.stream_fault(s2).is_none());
    // Stream 2's results are intact.
    for i in 0..64u64 {
        assert_eq!(gpu.memory().read_u64(good_buf.offset(i * 8)), i);
    }
    // New launches on the poisoned stream are refused with the same error
    // until it is reset...
    assert_eq!(
        gpu.try_launch_on(good, LaunchDims::linear(1, 32), &[good_buf.0], on(s1))
            .unwrap_err(),
        err
    );
    // ...after which the very same stream is usable again.
    assert_eq!(gpu.reset_stream(s1), Some(err));
    assert!(gpu.stream_fault(s1).is_none());
    gpu.try_launch_on(good, LaunchDims::linear(2, 32), &[good_buf.0], on(s1))
        .expect("reset stream accepts launches");
    gpu.try_synchronize().expect("recovered stream runs clean");
}

#[test]
fn watchdog_kills_only_the_hung_stream() {
    // Stream 1 hangs on a dropped memory reply; stream 2 has a healthy
    // grid queued behind it. The watchdog must kill stream 1 and let the
    // synchronize continue until stream 2 completes.
    let mut p = Program::new();
    let loader = p.add({
        let mut b = KernelBuilder::new("loader");
        let src = b.reg();
        b.ld_param(src, 0);
        let v = b.reg();
        b.ld(Space::Global, Width::B64, v, src, 0);
        b.st(Space::Global, Width::B64, Operand::reg(v), src, 8);
        b.exit();
        b.finish()
    });
    let good = p.add({
        let mut b = KernelBuilder::new("write_tids");
        let tid = b.global_tid();
        let out = b.reg();
        b.ld_param(out, 0);
        let oa = b.reg();
        b.imul(oa, tid, Operand::imm(8));
        b.iadd(oa, oa, Operand::reg(out));
        b.st(Space::Global, Width::B64, Operand::reg(tid), oa, 0);
        b.exit();
        b.finish()
    });
    let mut config = GpuConfig::test_small().with_stream_isolation(true);
    config.watchdog_cycles = 2_000;
    config.fault_plan.drop_reply = Some(0);
    let mut gpu = Gpu::new(p, config);
    let hang_buf = gpu.malloc(256);
    let good_buf = gpu.malloc(64 * 8);
    let s1 = gpu.create_stream();
    let s2 = gpu.create_stream();
    gpu.try_launch_on(
        loader,
        LaunchDims::linear(1, 1),
        &[hang_buf.0],
        LaunchOptions {
            stream: s1,
            deadline: None,
        },
    )
    .expect("launch hang");
    gpu.try_launch_on(
        good,
        LaunchDims::linear(2, 32),
        &[good_buf.0],
        LaunchOptions {
            stream: s2,
            deadline: None,
        },
    )
    .expect("launch good");

    gpu.try_synchronize()
        .expect("watchdog on a non-default stream must not fail the sync");
    let err = gpu.stream_fault(s1).expect("hung stream is faulted");
    match err {
        SimError::Deadlock(report) => {
            assert_eq!(report.stream, 1);
            assert!(report.stalled_for >= 2_000);
        }
        other => panic!("expected Deadlock on stream 1, got {other}"),
    }
    assert!(gpu.fault().is_none());
    assert!(gpu.stream_fault(s2).is_none());
    for i in 0..64u64 {
        assert_eq!(gpu.memory().read_u64(good_buf.offset(i * 8)), i);
    }
}

#[test]
fn deadline_budget_kills_grid_with_typed_error() {
    // A 10-cycle budget on a grid that needs hundreds of cycles: the
    // deadline must fire, kill the owning stream, and spare the rest.
    let mut gpu = Gpu::new(
        write_tids(),
        GpuConfig::test_small().with_stream_isolation(true),
    );
    let buf = gpu.malloc(64 * 8);
    let s1 = gpu.create_stream();
    gpu.try_launch_on(
        KernelId(0),
        LaunchDims::linear(2, 32),
        &[buf.0],
        LaunchOptions {
            stream: s1,
            deadline: Some(10),
        },
    )
    .expect("launch with budget");
    gpu.try_synchronize()
        .expect("budget overrun on stream 1 must not fail the sync");
    match gpu.stream_fault(s1) {
        Some(SimError::DeadlineExceeded { stream, budget, .. }) => {
            assert_eq!(*stream, 1);
            assert_eq!(*budget, 10);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(gpu.fault().is_none());

    // On the default stream the same overrun keeps CUDA's device-wide
    // sticky semantics.
    let mut gpu = Gpu::new(write_tids(), GpuConfig::test_small());
    let buf = gpu.malloc(64 * 8);
    gpu.try_launch_on(
        KernelId(0),
        LaunchDims::linear(2, 32),
        &[buf.0],
        LaunchOptions {
            stream: StreamId::DEFAULT,
            deadline: Some(10),
        },
    )
    .expect("launch with budget");
    let err = gpu
        .try_synchronize()
        .expect_err("default-stream deadline is device-sticky");
    assert!(matches!(err, SimError::DeadlineExceeded { stream: 0, .. }));
    assert!(err.to_string().contains("cycle budget"), "{err}");
    gpu.reset_fault()
        .expect("sticky deadline clears like a fault");
    gpu.try_run_kernel(KernelId(0), LaunchDims::linear(2, 32), &[buf.0])
        .expect("device usable after reset");
}

#[test]
fn reset_fault_rescopes_kernel_records() {
    // Regression: recovery must re-base the per-kernel record counters.
    // Before the fix, the first grid retired after a fault absorbed the
    // killed span's SM cycles into its own record delta.
    let mut p = Program::new();
    let loader = p.add({
        let mut b = KernelBuilder::new("loader");
        let src = b.reg();
        b.ld_param(src, 0);
        let v = b.reg();
        b.ld(Space::Global, Width::B64, v, src, 0);
        b.st(Space::Global, Width::B64, Operand::reg(v), src, 8);
        b.exit();
        b.finish()
    });
    let good = p.add({
        let mut b = KernelBuilder::new("write_tids");
        let tid = b.global_tid();
        let out = b.reg();
        b.ld_param(out, 0);
        let oa = b.reg();
        b.imul(oa, tid, Operand::imm(8));
        b.iadd(oa, oa, Operand::reg(out));
        b.st(Space::Global, Width::B64, Operand::reg(tid), oa, 0);
        b.exit();
        b.finish()
    });
    let mut config = GpuConfig::test_small();
    config.trace = true;
    config.watchdog_cycles = 2_000;
    config.fault_plan.drop_reply = Some(0);
    let mut gpu = Gpu::new(p, config);
    let buf = gpu.malloc(64 * 8);
    gpu.try_run_kernel(loader, LaunchDims::linear(1, 1), &[buf.0])
        .expect_err("hang trips the watchdog");
    gpu.reset_fault().expect("deadlock was sticky");
    gpu.try_run_kernel(good, LaunchDims::linear(2, 32), &[buf.0])
        .expect("device recovers");
    // The killed grid never retired, so exactly one record exists — and
    // its delta must cover only the post-recovery span, not the >= 2000
    // cycles the hang burned across every SM.
    let records = gpu.kernel_records();
    assert_eq!(records.len(), 1, "{records:?}");
    assert_eq!(records[0].kernel, "write_tids");
    assert_eq!(records[0].stream, 0);
    assert!(
        records[0].stats.sm.cycles < 2_000,
        "record absorbed the killed span: {} SM-cycles",
        records[0].stats.sm.cycles
    );
}

/// A kernel whose lane `t` loads 8 bytes from `space` at `8 * t - 8` (lane 0
/// lands in the last 8 bytes of the address space), plus `write_tids`; and
/// the PC of the load.
fn wrapping_load_program(space: Space) -> (Program, usize) {
    let mut b = KernelBuilder::new("wrapping_load");
    b.alloc_smem(64);
    b.set_local_bytes(16);
    let tid = b.global_tid();
    let a = b.reg();
    b.imul(a, tid, Operand::imm(8));
    let v = b.reg();
    b.ld(space, Width::B64, v, a, -8);
    b.exit();
    let bad = b.finish();
    let pc = bad.instrs.len() - 2;
    let mut p = Program::new();
    p.add(bad);
    p.add(write_tids().kernel(KernelId(0)).clone());
    (p, pc)
}

/// Run `write_tids` on a device whose first allocation is `out`; everything
/// observable about the grid.
fn clean_grid(gpu: &mut Gpu, out: DevicePtr) -> (u64, ggpu_sim::RunStats) {
    gpu.reset_stats();
    let cycles = gpu
        .try_run_kernel(KernelId(1), LaunchDims::linear(2, 32), &[out.0])
        .expect("clean grid");
    for i in 0..64u64 {
        assert_eq!(gpu.memory().read_u64(out.offset(i * 8)), i);
    }
    (cycles, gpu.stats())
}

/// The wrapping load traps with exactly this context, `reset_fault`
/// recovers the device, and the next clean grid equals a fresh device's.
fn wrapping_load_traps_and_recovers(space: Space, kind: FaultKind, lane_mask: u32) {
    let (program, pc) = wrapping_load_program(space);
    let config = GpuConfig::test_small().with_stream_isolation(true);
    let mut gpu = Gpu::new(program.clone(), config.clone());
    let out = gpu.malloc(64 * 8);
    let err = gpu
        .try_run_kernel(KernelId(0), LaunchDims::linear(1, 32), &[])
        .expect_err("the out-of-range lanes must fault");
    let SimError::DeviceFault(fault) = &err else {
        panic!("expected DeviceFault, got {err}");
    };
    assert_eq!(fault.kind, kind);
    assert_eq!(fault.kernel, "wrapping_load");
    assert_eq!(fault.pc, Some(pc));
    assert_eq!(fault.lane_mask, Some(lane_mask));
    // Lane 0's address, as the guest computed it.
    assert_eq!(fault.addr, Some(u64::MAX - 7));
    assert!(
        fault.instr.contains(&format!("ld.{space}")),
        "{}",
        fault.instr
    );

    assert_eq!(gpu.reset_fault(), Some(err));
    assert!(!gpu.busy());
    let recovered = clean_grid(&mut gpu, out);
    let mut fresh = Gpu::new(program, config);
    let out = fresh.malloc(64 * 8);
    assert_eq!(recovered, clean_grid(&mut fresh, out));
}

#[test]
fn shared_access_wrapping_the_address_space_traps() {
    // Regression: `addr + width` wrapped to 0, passed the bound check (a
    // debug build panicked on the overflow instead) and the load read zeros.
    // Lanes 1..=8 read the 64-byte allocation; lane 0 wraps, the rest
    // overrun it.
    wrapping_load_traps_and_recovers(Space::Shared, FaultKind::SharedMemOverflow, !0b1_1111_1110);
}

#[test]
fn local_access_outside_the_threads_arena_traps() {
    // Regression: the remap into the grid's arena had no bound — lane 0's
    // address overflowed it (debug: panic; release: ran to completion on a
    // wrapped address) and a small overrun aliased another thread's words.
    // Lanes 1 and 2 read the thread's 16 bytes; every other lane faults.
    wrapping_load_traps_and_recovers(Space::Local, FaultKind::IllegalAddress, !0b110);
}

/// Kernel 0 `local_hog` (1 KiB of local memory per thread: a 64 × 128-thread
/// grid needs an 8 MiB arena), kernel 1 `write_tids`, kernel 2 `parent`
/// (thread 0 launches that 64 × 128 grid of `local_hog` and waits).
fn local_hog_program() -> Program {
    let mut p = Program::new();
    let mut b = KernelBuilder::new("local_hog");
    b.set_local_bytes(1024);
    let out = b.reg();
    b.ld_param(out, 0);
    b.st(Space::Global, Width::B64, Operand::imm(1), out, 0);
    b.exit();
    p.add(b.finish());
    p.add(write_tids().kernel(KernelId(0)).clone());
    let mut b = KernelBuilder::new("parent");
    let tid = b.global_tid();
    let z = b.cmp_s(CmpOp::Eq, Operand::reg(tid), Operand::imm(0));
    b.if_then(z, |b| {
        let out = b.reg();
        b.ld_param(out, 0);
        b.launch(0, Operand::imm(64), Operand::imm(128), Operand::reg(out), 1);
        b.dsync();
    });
    b.exit();
    p.add(b.finish());
    p
}

/// The ways a copy can miss allocated memory on a device whose only
/// allocation is `buf` (`len` bytes): wrapping the address space, far past
/// the allocation frontier, straddling it, and the null page.
fn bad_ranges(gpu: &Gpu, buf: DevicePtr, len: u64) -> [(DevicePtr, usize); 4] {
    [
        (DevicePtr(u64::MAX - 2), 8),
        (DevicePtr(gpu.memory().frontier() + (1 << 20)), 8),
        (buf.offset(len - 4), 8),
        (DevicePtr(0), 16),
    ]
}

#[test]
fn host_copies_outside_allocated_memory_are_typed_and_move_nothing() {
    // Regression: the wrapping copy panicked both profiles, the one past the
    // frontier silently grew device memory (a guest load of the same address
    // traps), the null-page read returned zeros — and each counted as a
    // transfer, shifting the fault plan's indices.
    let mut config = GpuConfig::test_small().with_stream_isolation(true);
    config.fault_plan.drop_memcpy = Some(1);
    let setup = |config: &GpuConfig| {
        let mut gpu = Gpu::new(local_hog_program(), config.clone());
        let buf = gpu.malloc(64 * 8);
        gpu.try_memcpy_h2d(buf, &[1u8; 16]).expect("transfer #0");
        (gpu, buf)
    };
    let (mut gpu, buf) = setup(&config);
    let before = (gpu.memory().allocated(), gpu.stats().host);
    let frontier = gpu.memory().frontier();
    for (ptr, len) in bad_ranges(&gpu, buf, 64 * 8) {
        for dir in [CopyDir::H2D, CopyDir::D2H] {
            let err = match dir {
                CopyDir::H2D => gpu.try_memcpy_h2d(ptr, &vec![9u8; len]).unwrap_err(),
                _ => gpu.try_memcpy_d2h(ptr, len).unwrap_err(),
            };
            let want = SimError::InvalidCopy {
                dir,
                addr: ptr.0,
                len: len as u64,
                frontier,
            };
            assert_eq!(err, want, "{dir} {len} bytes at {ptr}");
        }
    }
    assert!(gpu.fault().is_none(), "a refused copy is not sticky");
    assert_eq!((gpu.memory().allocated(), gpu.stats().host), before);
    // The refused copies were not transfers: the next valid one is still #1,
    // the one the plan drops.
    let finish = |gpu: &mut Gpu| {
        assert!(matches!(
            gpu.try_memcpy_h2d(buf, &[2u8; 16]).unwrap_err(),
            SimError::MemcpyDropped { index: 1, .. }
        ));
        gpu.try_memcpy_h2d(buf, &[3u8; 16]).expect("transfer #2");
        let host = gpu.stats().host;
        (gpu.memcpy_d2h(buf, 64 * 8), host, clean_grid(gpu, buf))
    };
    let recovered = finish(&mut gpu);
    assert_eq!(recovered, finish(&mut setup(&config).0));
}

#[test]
fn p2p_copies_validate_both_ends_before_touching_the_fabric() {
    let mut config = NodeConfig::test_small(2);
    config.gpu.fault_plan.drop_memcpy = Some(1);
    let setup = |config: &NodeConfig| {
        let mut node = GpuNode::new(local_hog_program(), config.clone());
        let a = node.device_mut(0).malloc(256);
        let b = node.device_mut(1).malloc(256);
        node.device_mut(0).memcpy_h2d(a, &[7u8; 256]);
        (node, a, b)
    };
    let (mut node, a, b) = setup(&config);
    let before = node.stats();
    for (ptr, len) in bad_ranges(node.device(0), a, 256) {
        let frontier = node.device(0).memory().frontier();
        for (sptr, dptr, end) in [(ptr, b, "source"), (a, ptr, "destination")] {
            let err = node.try_p2p_copy(0, sptr, 1, dptr, len).unwrap_err();
            let want = SimError::InvalidCopy {
                dir: CopyDir::P2P,
                addr: ptr.0,
                len: len as u64,
                frontier,
            };
            assert_eq!(err, want, "bad {end}: {len} bytes at {ptr}");
        }
    }
    assert_eq!(node.stats(), before, "nothing charged, no fabric packet");
    assert!(!node.busy(), "nothing queued towards the destination");
    // Still transfer #1 on the source device: dropped by the plan, then the
    // retry lands exactly as it does on a node that saw no bad copy.
    let finish = |node: &mut GpuNode| {
        assert!(matches!(
            node.try_p2p_copy(0, a, 1, b, 256).unwrap_err(),
            SimError::MemcpyDropped { index: 1, .. }
        ));
        let latency = node.try_p2p_copy(0, a, 1, b, 256).expect("transfer #2");
        node.sync_all();
        (latency, node.stats(), node.device_mut(1).memcpy_d2h(b, 256))
    };
    let recovered = finish(&mut node);
    assert_eq!(recovered.2, vec![7u8; 256]);
    assert_eq!(recovered, finish(&mut setup(&config).0));
}

/// A device that can hold `write_tids`' buffer and little else.
fn one_mib_device() -> (Gpu, DevicePtr, GpuConfig) {
    let mut config = GpuConfig::test_small().with_stream_isolation(true);
    config.memory_limit = 1 << 20;
    let mut gpu = Gpu::new(local_hog_program(), config.clone());
    let out = gpu.malloc(64 * 8);
    (gpu, out, config)
}

#[test]
fn launch_arithmetic_is_checked_and_the_local_arena_counts_against_memory_limit() {
    // Regression: the first two panicked a debug build on the product (in
    // release one read `ZeroDimension`, the other was accepted with a wrapped
    // CTA count); the third returned `Ok` and left 8 MiB allocated on a
    // 1 MiB device.
    let (mut gpu, out, _) = one_mib_device();
    let in_use = gpu.memory().allocated();
    let cases = [
        (
            1,
            LaunchDims {
                grid: (1, 1, 1),
                cta: (65536, 65536, 1),
            },
            LaunchProblem::TooManyThreads {
                requested: u32::MAX,
                limit: 1536,
            },
        ),
        (
            1,
            LaunchDims {
                grid: (u32::MAX, u32::MAX, 5),
                cta: (32, 1, 1),
            },
            LaunchProblem::GridTooLarge,
        ),
        (
            0,
            LaunchDims::linear(64, 128),
            LaunchProblem::LocalMemoryExceeded {
                requested: 8 << 20,
                in_use,
                limit: 1 << 20,
            },
        ),
    ];
    for (kernel, dims, problem) in cases {
        let err = gpu
            .try_launch(KernelId(kernel), dims, &[out.0])
            .unwrap_err();
        let SimError::InvalidLaunch { problem: got, .. } = &err else {
            panic!("{dims}: expected InvalidLaunch, got {err}");
        };
        assert_eq!(got, &problem, "{dims}");
    }
    // Nothing queued, nothing allocated, nothing sticky.
    assert!(gpu.fault().is_none());
    assert!(!gpu.busy());
    assert_eq!(gpu.memory().allocated(), in_use);
    assert_eq!(gpu.stats().host.kernel_launches, 0);
    gpu.try_malloc(16).expect("the refused arena took nothing");

    let recovered = clean_grid(&mut gpu, out);
    let (mut fresh, out, _) = one_mib_device();
    fresh.malloc(16);
    assert_eq!(recovered, clean_grid(&mut fresh, out));
}

#[test]
fn a_recycled_local_arena_passes_where_a_fresh_one_would_not() {
    let (mut gpu, out, config) = one_mib_device();
    // One warp of `local_hog`: a 32 KiB arena, returned to the free list
    // when the grid retires.
    gpu.try_run_kernel(KernelId(0), LaunchDims::linear(1, 32), &[out.0])
        .expect("32 KiB fits");
    let room = config.memory_limit - gpu.memory().allocated();
    gpu.try_malloc(room - 1024).expect("fill the device");
    let full = gpu.memory().allocated();
    gpu.try_run_kernel(KernelId(0), LaunchDims::linear(1, 32), &[out.0])
        .expect("the exact-size arena is reused, nothing is allocated");
    assert_eq!(gpu.memory().allocated(), full);
    let err = gpu
        .try_launch(KernelId(0), LaunchDims::linear(2, 32), &[out.0])
        .unwrap_err();
    assert!(
        matches!(
            err,
            SimError::InvalidLaunch {
                problem: LaunchProblem::LocalMemoryExceeded {
                    requested: 65536,
                    ..
                },
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn a_child_grid_whose_arena_exceeds_memory_limit_faults_at_its_launch() {
    // Regression: a child's `grid_x` is a guest register, and its arena was
    // allocated unchecked — 8 MiB here on a 1 MiB device, terabytes (a host
    // abort) from one instruction with a larger operand.
    let (mut gpu, out, _) = one_mib_device();
    let in_use = gpu.memory().allocated();
    let err = gpu
        .try_run_kernel(KernelId(2), LaunchDims::linear(1, 32), &[out.0])
        .expect_err("the child's arena does not fit");
    let SimError::DeviceFault(fault) = &err else {
        panic!("expected DeviceFault, got {err}");
    };
    assert_eq!(fault.kind, FaultKind::CdpInvalidLaunch);
    assert_eq!((fault.kernel.as_str(), fault.stream), ("parent", 0));
    assert!(
        fault.instr.contains("launch k0 grid 64 block 128")
            && fault.instr.contains("8388608 bytes of local memory"),
        "{}",
        fault.instr
    );
    assert!(fault.cycle < 1_000, "raised at cycle {}", fault.cycle);
    assert_eq!(gpu.memory().allocated(), in_use);

    assert_eq!(gpu.reset_fault(), Some(err));
    assert!(!gpu.busy());
    let recovered = clean_grid(&mut gpu, out);
    let (mut fresh, out, _) = one_mib_device();
    assert_eq!(recovered, clean_grid(&mut fresh, out));
}

/// Two kernels over one buffer `b` (parameter 0). `copy_word`: `b[8] =
/// b[0]`. `load_then_trap`: load `b[0]`, run `pad` dependent adds with the
/// load in flight, then store to `b + 512` (which the caller poisons).
fn load_reuse_program(pad: usize) -> (Program, KernelId, KernelId) {
    let mut p = Program::new();
    let mut b = KernelBuilder::new("copy_word");
    let src = b.reg();
    b.ld_param(src, 0);
    let v = b.reg();
    b.ld(Space::Global, Width::B64, v, src, 0);
    b.st(Space::Global, Width::B64, Operand::reg(v), src, 8);
    b.exit();
    let copy = p.add(b.finish());

    let mut b = KernelBuilder::new("load_then_trap");
    let src = b.reg();
    b.ld_param(src, 0);
    let v = b.reg();
    b.ld(Space::Global, Width::B64, v, src, 0);
    let acc = b.reg();
    b.mov(acc, Operand::imm(0));
    for _ in 0..pad {
        b.iadd(acc, acc, Operand::imm(1));
    }
    b.st(Space::Global, Width::B64, Operand::reg(acc), src, 512);
    b.exit();
    let trap = p.add(b.finish());
    (p, copy, trap)
}

/// After the kill and `reset_fault`, `copy_word` over the line the killed
/// kernel was loading must complete and copy the word — on every SM (one
/// CTA each), so the killed kernel's own SM is among them wherever the
/// dispatch cursor stands.
fn the_killed_load_line_is_loadable_again(gpu: &mut Gpu, copy: KernelId, buf: DevicePtr) {
    assert!(gpu.reset_fault().is_some());
    assert!(!gpu.busy());
    let sms = GpuConfig::test_small().n_sms as u32;
    gpu.try_run_kernel(copy, LaunchDims::linear(sms, 1), &[buf.0])
        .expect("a load of the line the killed kernel was waiting for completes");
    assert_eq!(gpu.memory().read_u64(buf.offset(8)), 0xD15EA5E);
}

#[test]
fn a_watchdog_kill_releases_the_l1_miss_of_the_load_it_aborted() {
    // Regression: the kill cleared the SM's waiters but left the line's L1
    // MSHR entry allocated until the next flush. Without a flush between
    // kernels the next load of that line merged into a miss nothing would
    // ever fill, and the recovered device hung to the watchdog.
    let (program, copy, _) = load_reuse_program(0);
    let mut config = GpuConfig::test_small();
    config.flush_between_kernels = false;
    config.watchdog_cycles = 2_000;
    config.fault_plan.drop_reply = Some(0);
    let mut gpu = Gpu::new(program, config);
    let buf = gpu.malloc(1024);
    gpu.memcpy_h2d(buf, &0xD15EA5Eu64.to_le_bytes());
    let err = gpu
        .try_run_kernel(copy, LaunchDims::linear(1, 1), &[buf.0])
        .expect_err("the only reply is dropped");
    assert!(matches!(err, SimError::Deadlock(_)), "{err}");
    // The fill reached the L2 (its miss is complete); the SM never saw it.
    let s = gpu.stats();
    assert_eq!((s.l2.read_access, s.icnt_rep.packets), (1, 0));
    the_killed_load_line_is_loadable_again(&mut gpu, copy, buf);
}

#[test]
fn a_trap_kill_releases_the_l2_miss_of_the_load_it_aborted() {
    // The memory-side half of the same regression: the kill discards the
    // DRAM completion of a load in flight, so its L2 MSHR entry had no fill
    // left to release it. The L1 is off, so only the L2 entry is in play.
    // The load is at DRAM from the trap's cycle with no padding to the one
    // with ten adds (four cycles each); five sits in the middle.
    let (program, copy, trap) = load_reuse_program(5);
    let mut config = GpuConfig::test_small();
    config.flush_between_kernels = false;
    config.watchdog_cycles = 2_000;
    config.sm.l1.bytes = 0;
    config.fault_plan.poison = Some((4096 + 512, 4096 + 576));
    let mut gpu = Gpu::new(program, config);
    let buf = gpu.malloc(1024);
    assert_eq!(buf.0, 4096, "the poisoned window lies inside the buffer");
    gpu.memcpy_h2d(buf, &0xD15EA5Eu64.to_le_bytes());
    let err = gpu
        .try_run_kernel(trap, LaunchDims::linear(1, 1), &[buf.0])
        .expect_err("the store into the poisoned window traps");
    let SimError::DeviceFault(fault) = &err else {
        panic!("expected DeviceFault, got {err}");
    };
    assert_eq!(fault.addr, Some(buf.0 + 512));
    // The load had missed in its L2 slice and was at DRAM when the trap
    // killed it: looked up, sent on, not yet answered.
    let s = gpu.stats();
    assert_eq!(
        (s.l2.read_access, s.l2.read_hit, s.icnt_rep.packets),
        (1, 0, 0),
        "retune the padding: the load must be at DRAM when the store traps"
    );
    the_killed_load_line_is_loadable_again(&mut gpu, copy, buf);
}
