//! The fast-forward contract: idle-cycle fast-forward
//! ([`ggpu_core::GpuConfig::fast_forward`]) is a pure engine optimisation.
//! A run with skipping enabled must be **bit-identical** — same counters,
//! per-kernel records, interval samples, event trace, and per-PC profile —
//! to the per-cycle run, while actually skipping a meaningful number of
//! cycles.
//!
//! Exercised over real suite benchmarks (including a CDP one, so skips
//! interleave with device-side launch overhead windows) and over a
//! fault-injection deadlock, where the watchdog must fire at the exact same
//! cycle whether or not the dead span leading up to it was fast-forwarded.

use ggpu_core::{GpuConfig, RunStats, Scale, SuiteRunner};
use ggpu_isa::{KernelBuilder, LaunchDims, Operand, Program, Space, Width};
use ggpu_sim::{FaultPlan, Gpu, IntervalSample, KernelRecord, PcProfile, SimError, TraceEvent};

/// Profiling-heavy configuration so the comparison covers every observable
/// surface: counters, per-kernel records, interval samples, the trace, and
/// per-PC attribution.
fn profiled_cfg(fast_forward: bool) -> GpuConfig {
    let mut cfg = GpuConfig::test_small()
        .with_attribution(true)
        .with_fast_forward(fast_forward);
    cfg.trace = true;
    cfg.sample_interval_cycles = 512;
    cfg
}

/// Everything observable from one benchmark run.
struct Observed {
    stats: RunStats,
    kernel_cycles: u64,
    skipped: u64,
    kernels: Vec<KernelRecord>,
    samples: Vec<IntervalSample>,
    events: Vec<TraceEvent>,
    pc: Option<PcProfile>,
}

fn run_bench(abbrev: &str, cdp: bool, fast_forward: bool) -> Observed {
    let runner = SuiteRunner::new(Scale::Tiny).with_config(profiled_cfg(fast_forward));
    let r = runner.run_one(abbrev, cdp);
    assert!(
        r.verified,
        "{abbrev} must verify at fast_forward={fast_forward}"
    );
    let p = *r.profile.expect("profiling was enabled");
    Observed {
        stats: r.stats,
        kernel_cycles: r.kernel_cycles,
        skipped: r.fast_forward_skipped_cycles,
        kernels: p.kernels,
        samples: p.samples,
        events: p.events,
        pc: p.pc,
    }
}

#[test]
fn fast_forward_is_bit_identical_and_actually_skips() {
    // SW: plain data-parallel DP with long DRAM waits. STAR with CDP: the
    // orchestrator launches children from the device, so skips must respect
    // CDP arm windows and parent-join wakeups.
    for (abbrev, cdp) in [("SW", false), ("STAR", true)] {
        let off = run_bench(abbrev, cdp, false);
        let on = run_bench(abbrev, cdp, true);
        assert_eq!(off.stats, on.stats, "{abbrev}: RunStats diverge");
        assert_eq!(
            off.kernel_cycles, on.kernel_cycles,
            "{abbrev}: cycle count diverges"
        );
        assert_eq!(
            off.kernels, on.kernels,
            "{abbrev}: per-kernel records diverge"
        );
        assert_eq!(
            off.samples, on.samples,
            "{abbrev}: interval samples diverge"
        );
        assert_eq!(off.events, on.events, "{abbrev}: event trace diverges");
        assert_eq!(off.pc, on.pc, "{abbrev}: per-PC profile diverges");
        assert_eq!(off.skipped, 0, "{abbrev}: disabled engine must not skip");
        assert!(on.skipped > 0, "{abbrev}: fast-forward skipped nothing");
    }
}

/// Kernel: load through global memory, then store the value back — blocks a
/// warp on the memory path so a dropped reply hangs it.
fn loader_program() -> Program {
    let mut b = KernelBuilder::new("loader");
    let src = b.reg();
    b.ld_param(src, 0);
    let v = b.reg();
    b.ld(Space::Global, Width::B64, v, src, 0);
    b.st(Space::Global, Width::B64, Operand::reg(v), src, 8);
    b.exit();
    let mut p = Program::new();
    p.add(b.finish());
    p
}

fn run_fault_injected(fast_forward: bool) -> (SimError, RunStats, u64, u64) {
    let mut config = GpuConfig::test_small().with_fast_forward(fast_forward);
    config.watchdog_cycles = 2_000;
    config.fault_plan = FaultPlan {
        drop_reply: Some(0),
        ..FaultPlan::default()
    };
    let mut gpu = Gpu::new(loader_program(), config);
    let buf = gpu.malloc(256);
    let kid = ggpu_isa::KernelId(0);
    let err = gpu
        .try_run_kernel(kid, LaunchDims::linear(4, 64), &[buf.0])
        .expect_err("dropped reply must deadlock");
    (
        err,
        gpu.stats(),
        gpu.cycle(),
        gpu.fast_forward_skipped_cycles(),
    )
}

#[test]
fn watchdog_fires_at_the_same_cycle_across_a_skipped_span() {
    // A dropped reply leaves a warp waiting forever: the span up to the
    // watchdog deadline is exactly the kind of dead time fast-forward
    // elides, and the deadline cycle itself must still be ticked so the
    // deadlock report is stamped and populated identically.
    let (base_err, base_stats, base_cycle, base_skipped) = run_fault_injected(false);
    assert!(matches!(base_err, SimError::Deadlock(_)), "{base_err}");
    assert_eq!(base_skipped, 0);
    let (err, stats, cycle, skipped) = run_fault_injected(true);
    assert_eq!(base_err, err, "deadlock report diverges");
    assert_eq!(base_stats, stats, "post-fault stats diverge");
    assert_eq!(base_cycle, cycle, "fault cycle diverges");
    assert!(skipped > 0, "the stalled span should fast-forward");
}
