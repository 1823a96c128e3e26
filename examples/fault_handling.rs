//! Fault-tolerant host API demo: guest faults become typed, recoverable
//! errors instead of panics.
//!
//! Shows (1) an out-of-bounds store trapping with full context, (2) the
//! device staying usable after `reset_fault`, (3) the forward-progress
//! watchdog converting an injected hang into a deadlock report, and
//! (4) non-sticky allocation/launch validation errors. With event tracing
//! enabled, both failures also land in the structured timeline, which this
//! example exports as a Perfetto-loadable Chrome trace.
//!
//! Run with: `cargo run --release --example fault_handling`

use ggpu_isa::{KernelBuilder, KernelId, LaunchDims, Operand, Program, Space, Width};
use ggpu_sim::{chrome_trace_json, FaultPlan, Gpu, GpuConfig, TraceEvent, TraceEventKind};

fn main() {
    // Kernel 0 stores 1 MiB past its buffer; kernel 1 behaves.
    let mut program = Program::new();
    let mut b = KernelBuilder::new("oob_store");
    let out = b.reg();
    b.ld_param(out, 0);
    b.st(Space::Global, Width::B64, Operand::imm(7), out, 1 << 20);
    b.exit();
    program.add(b.finish());

    let mut b = KernelBuilder::new("write_tids");
    let tid = b.global_tid();
    let out = b.reg();
    b.ld_param(out, 0);
    let oa = b.reg();
    b.imul(oa, tid, Operand::imm(8));
    b.iadd(oa, oa, Operand::reg(out));
    b.st(Space::Global, Width::B64, Operand::reg(tid), oa, 0);
    b.exit();
    let good = program.add(b.finish());

    let mut config = GpuConfig::test_small();
    config.trace = true;
    let mut gpu = Gpu::new(program, config);
    let buf = gpu.malloc(64 * 8);

    println!("1. launching a kernel with an out-of-bounds store...");
    match gpu.try_run_kernel(KernelId(0), LaunchDims::linear(1, 1), &[buf.0]) {
        Ok(_) => unreachable!("the store must trap"),
        Err(e) => println!("   -> {e}"),
    }
    let fault_log: Vec<TraceEvent> = gpu.trace_events().to_vec();
    assert!(
        matches!(
            fault_log.last().map(|ev| &ev.kind),
            Some(TraceEventKind::Fault { .. })
        ),
        "the event timeline must end in the guest fault"
    );

    println!("2. the fault is sticky until reset_fault():");
    println!("   try_malloc  -> {}", gpu.try_malloc(8).unwrap_err());
    gpu.reset_fault();
    let cycles = gpu
        .try_run_kernel(good, LaunchDims::linear(2, 32), &[buf.0])
        .expect("device usable after reset");
    println!("   after reset_fault, `write_tids` ran in {cycles} cycles");

    println!("3. injecting a dropped memory reply (watchdog demo)...");
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
    config.trace = true;
    config.watchdog_cycles = 2_000;
    config.fault_plan = FaultPlan {
        drop_reply: Some(0),
        ..FaultPlan::default()
    };
    let mut gpu = Gpu::new(p, config);
    let buf = gpu.malloc(256);
    match gpu.try_run_kernel(kid, LaunchDims::linear(1, 1), &[buf.0]) {
        Ok(_) => unreachable!("the lost reply must hang the warp"),
        Err(e) => print!("   -> {e}"),
    }
    let deadlock_log: Vec<TraceEvent> = gpu.trace_events().to_vec();
    assert!(
        matches!(
            deadlock_log.last().map(|ev| &ev.kind),
            Some(TraceEventKind::Deadlock { .. })
        ),
        "the event timeline must end in the watchdog deadlock"
    );

    println!("4. allocation and launch validation (not sticky):");
    let mut config = GpuConfig::test_small();
    config.memory_limit = 1 << 20;
    let mut gpu = Gpu::new(Program::new(), config);
    println!(
        "   try_malloc(2 MiB) -> {}",
        gpu.try_malloc(2 << 20).unwrap_err()
    );
    println!(
        "   try_launch(bad id) -> {}",
        gpu.try_launch(KernelId(9), LaunchDims::linear(1, 32), &[])
            .unwrap_err()
    );
    println!("   device still healthy: fault = {:?}", gpu.fault());

    println!("5. exporting both failure timelines as a Chrome trace...");
    let logs = vec![
        ("oob-fault".to_string(), fault_log.as_slice()),
        ("watchdog-deadlock".to_string(), deadlock_log.as_slice()),
    ];
    let doc = chrome_trace_json(&logs);
    std::fs::create_dir_all("results").expect("create results/");
    let path = "results/fault_trace.json";
    std::fs::write(path, doc).expect("write trace");
    println!("   wrote {path} — load it at https://ui.perfetto.dev");
}
