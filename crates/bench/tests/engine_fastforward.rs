//! The fast-forward contract: idle-cycle fast-forward
//! ([`ggpu_sim::GpuConfig::fast_forward`]) is a pure engine optimisation.
//! A run with skipping enabled must be **bit-identical** — same counters,
//! per-kernel records, interval samples, event trace, and per-PC profile —
//! to the per-cycle run, while actually skipping a meaningful number of
//! cycles.
//!
//! Exercised over real suite benchmarks (including a CDP one, so skips
//! interleave with device-side launch overhead windows), over a
//! fault-injection deadlock, where the watchdog must fire at the exact same
//! cycle whether or not the dead span leading up to it was fast-forwarded,
//! and over hand-built rows that move the grid/stream ledger next to a jump.

use ggpu_isa::{KernelBuilder, KernelId, LaunchDims, Operand, Program, Space, Width};
use ggpu_kernels::{benchmark, Scale};
use ggpu_sim::{
    DevicePtr, FaultPlan, Gpu, GpuConfig, IntervalSample, KernelRecord, LaunchOptions, PcProfile,
    RunStats, SimError, StreamId, TraceEvent, TraceEventKind,
};

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
    let r = benchmark(Scale::Tiny, abbrev)
        .expect(abbrev)
        .run(&profiled_cfg(fast_forward), cdp);
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
    //
    // The skipped counts are pinned to the build in which every awake SM was
    // ticked on every ticked cycle: parking a lane must not move where the
    // device-wide jumps start or end.
    for (abbrev, cdp, skipped) in [("SW", false, 72_908), ("STAR", true, 55_309)] {
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
        assert_eq!(on.skipped, skipped, "{abbrev}: the jumps moved");
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

// ---- the ledger moving next to a jump ----------------------------------------
//
// The engine reads the grid/stream ledger through a summary rebuilt at each
// ledger event (launch, CDP spawn, arbitration, arm, a grid fully
// dispatched, retire, kill). Each row below moves the ledger on a cycle next
// to a fast-forward jump and holds counters, kernel records, the trace and
// the final cycle `==` with fast-forward off, under both stream-isolation
// settings (they answer `device_busy` differently).

/// Threads per `copy` CTA.
const COPY_THREADS: u32 = 128;
/// `spawner` children launched per wave; each child is one 1024-thread CTA,
/// so at most one fits on an SM and four run at once.
const WAVE: u32 = 12;

struct LedgerKernels {
    /// `out[tid] = in[tid] + tid` over the params `(in, out)`: one load and
    /// one store per thread.
    copy: KernelId,
    /// Stores one word 1 MiB past `param 0`: a trap.
    poke: KernelId,
    /// Every thread launches two one-CTA, 1024-thread `copy` children, one
    /// after the other, over the param block at `param 0`, and waits for
    /// them.
    spawner: KernelId,
}

fn ledger_program() -> (Program, LedgerKernels) {
    let mut p = Program::new();

    let mut b = KernelBuilder::new("copy");
    let (inp, out) = (b.reg(), b.reg());
    b.ld_param(inp, 0);
    b.ld_param(out, 1);
    let tid = b.global_tid();
    let off = b.reg();
    b.imul(off, tid, Operand::imm(8));
    let a = b.reg();
    b.iadd(a, off, Operand::reg(inp));
    let v = b.reg();
    b.ld(Space::Global, Width::B64, v, a, 0);
    b.iadd(v, v, Operand::reg(tid));
    b.iadd(a, off, Operand::reg(out));
    b.st(Space::Global, Width::B64, Operand::reg(v), a, 0);
    b.exit();
    let copy = p.add(b.finish());

    let mut b = KernelBuilder::new("poke");
    let out = b.reg();
    b.ld_param(out, 0);
    b.st(Space::Global, Width::B64, Operand::imm(7), out, 1 << 20);
    b.exit();
    let poke = p.add(b.finish());

    let mut b = KernelBuilder::new("spawner");
    let block = b.reg();
    b.ld_param(block, 0);
    // A launch occupies the warp for its overhead, so the second wave is
    // enqueued about a hundred cycles after the first.
    b.launch(copy.0, Operand::imm(1), Operand::imm(1024), block, 2);
    b.launch(copy.0, Operand::imm(1), Operand::imm(1024), block, 2);
    b.dsync();
    b.exit();
    let spawner = p.add(b.finish());

    (
        p,
        LedgerKernels {
            copy,
            poke,
            spawner,
        },
    )
}

/// A `copy` over fresh (zeroed) buffers: `out[t]` must read `t`.
struct CopyRun {
    inp: DevicePtr,
    out: DevicePtr,
    threads: u32,
}

impl CopyRun {
    fn new(gpu: &mut Gpu, threads: u32) -> Self {
        CopyRun {
            inp: gpu.malloc(threads as u64 * 8),
            out: gpu.malloc(threads as u64 * 8),
            threads,
        }
    }

    fn params(&self) -> [u64; 2] {
        [self.inp.0, self.out.0]
    }

    fn dims(&self) -> LaunchDims {
        LaunchDims::linear(self.threads / COPY_THREADS, COPY_THREADS)
    }

    fn written(&self, gpu: &Gpu) -> bool {
        (0..self.threads as u64).all(|t| gpu.memory().read_u64(self.out.offset(t * 8)) == t)
    }
}

fn on(stream: StreamId) -> LaunchOptions {
    LaunchOptions {
        stream,
        deadline: None,
    }
}

/// Everything a ledger row compares.
#[derive(Debug, PartialEq)]
struct LedgerRun {
    cycle: u64,
    stats: RunStats,
    kernels: Vec<KernelRecord>,
    events: Vec<TraceEvent>,
}

/// Run `row` with fast-forward off and on, under both stream-isolation
/// settings, on a `test_small()` device that `tune` may adjust, and demand
/// `==` on what it observes. Returns the fewest cycles a fast-forward run
/// skipped.
fn ledger_row(tune: impl Fn(&mut GpuConfig), row: impl Fn(&mut Gpu, &LedgerKernels)) -> u64 {
    let mut skipped = u64::MAX;
    for stream_isolation in [false, true] {
        let mut seen = Vec::new();
        for fast_forward in [false, true] {
            let mut cfg = GpuConfig {
                stream_isolation,
                ..GpuConfig::test_small().with_fast_forward(fast_forward)
            };
            cfg.trace = true;
            tune(&mut cfg);
            let (program, k) = ledger_program();
            let mut gpu = Gpu::new(program, cfg);
            row(&mut gpu, &k);
            assert!(!gpu.busy());
            if fast_forward {
                skipped = skipped.min(gpu.fast_forward_skipped_cycles());
            }
            seen.push(LedgerRun {
                cycle: gpu.cycle(),
                stats: gpu.stats(),
                kernels: gpu.kernel_records().to_vec(),
                events: gpu.trace_events().to_vec(),
            });
        }
        assert_eq!(
            seen[0], seen[1],
            "stream_isolation={stream_isolation}: fast_forward=true diverges"
        );
    }
    skipped
}

/// Position of the first trace event `is` picks.
fn position(gpu: &Gpu, is: impl Fn(&TraceEventKind) -> bool) -> usize {
    gpu.trace_events()
        .iter()
        .position(|e| is(&e.kind))
        .expect("the event was traced")
}

#[test]
fn a_grid_queued_on_a_second_stream_is_arbitrated_at_a_retire() {
    let skipped = ledger_row(
        |_| {},
        |gpu, k| {
            let first = CopyRun::new(gpu, 512);
            let second = CopyRun::new(gpu, 512);
            let first_grid = gpu
                .try_launch(k.copy, first.dims(), &first.params())
                .expect("launch");
            let other = gpu.create_stream();
            let second_grid = gpu
                .try_launch_on(k.copy, second.dims(), &second.params(), on(other))
                .expect("launch");
            gpu.synchronize();
            assert!(first.written(gpu) && second.written(gpu));
            let retired = position(
                gpu,
                |e| matches!(e, TraceEventKind::KernelRetire { grid, .. } if *grid == first_grid),
            );
            let started = position(
                gpu,
                |e| matches!(e, TraceEventKind::KernelStart { grid, .. } if *grid == second_grid),
            );
            assert!(retired < started, "the second grid ran beside the first");
        },
    );
    assert!(skipped > 0, "nothing was jumped");
}

#[test]
fn a_deadline_expires_on_its_cycle_while_the_clock_jumps() {
    // Counted from arm: the grid arms on the first cycle, after the launch
    // overhead.
    const BUDGET: u64 = 5_000;
    let armed = 1 + GpuConfig::test_small().kernel_launch_overhead;
    let skipped = ledger_row(
        // The first reply is lost, so one warp of the budgeted grid waits
        // for good and the device is dead until the deadline.
        |cfg| cfg.fault_plan.drop_reply = Some(0),
        |gpu, k| {
            let hung = CopyRun::new(gpu, COPY_THREADS);
            let survivor = CopyRun::new(gpu, 512);
            let budgeted = gpu.create_stream();
            let opts = LaunchOptions {
                stream: budgeted,
                deadline: Some(BUDGET),
            };
            gpu.try_launch_on(k.copy, hung.dims(), &hung.params(), opts)
                .expect("launch");
            let other = gpu.create_stream();
            gpu.try_launch_on(k.copy, survivor.dims(), &survivor.params(), on(other))
                .expect("launch");
            gpu.try_synchronize()
                .expect("a non-default stream's overrun does not fail the sync");
            let err = gpu.reset_stream(budgeted).expect("the stream was faulted");
            let SimError::DeadlineExceeded { cycle, .. } = err else {
                panic!("expected a deadline overrun, got {err}");
            };
            assert_eq!(cycle, armed + BUDGET);
            assert!(survivor.written(gpu));
        },
    );
    assert!(
        skipped > BUDGET / 2,
        "only {skipped} cycles were jumped on the way to the deadline"
    );
}

#[test]
fn children_armed_ahead_while_every_sm_refuses_them_dispatch_as_ticked() {
    let skipped = ledger_row(
        |_| {},
        |gpu, k| {
            let child = CopyRun::new(gpu, 1024);
            let block = gpu.malloc(16);
            gpu.memory_mut().write_u64(block, child.inp.0);
            gpu.memory_mut().write_u64(block.offset(8), child.out.0);
            let spawner = gpu.launch(k.spawner, LaunchDims::linear(1, WAVE), &[block.0]);
            gpu.synchronize();
            assert!(child.written(gpu));
            assert_eq!(gpu.stats().sm.device_launches, 2 * WAVE as u64);
            // The second wave was enqueued, armed in the future, while the
            // first wave's last child still waited for an SM that would
            // take it.
            let last_of_first = spawner + WAVE as u64;
            let enqueued = position(
                gpu,
                |e| matches!(e, TraceEventKind::CdpEnqueue { grid, .. } if *grid == last_of_first + 1),
            );
            let started = position(
                gpu,
                |e| matches!(e, TraceEventKind::KernelStart { grid, .. } if *grid == last_of_first),
            );
            assert!(enqueued < started, "the waves did not overlap");
        },
    );
    assert!(skipped > 0, "nothing was jumped");
}

#[test]
fn a_kill_then_a_relaunch_on_a_fresh_stream_runs_as_ticked() {
    let skipped = ledger_row(
        |_| {},
        |gpu, k| {
            let buf = gpu.malloc(256);
            let dropped = CopyRun::new(gpu, 512);
            let queued = CopyRun::new(gpu, 512);
            let relaunched = CopyRun::new(gpu, 512);
            // The trap kills its stream, the grid queued behind it on that
            // stream goes with it, and the one queued on another survives.
            let killed = gpu.create_stream();
            gpu.try_launch_on(k.poke, LaunchDims::linear(1, 1), &[buf.0], on(killed))
                .expect("launch");
            gpu.try_launch_on(k.copy, dropped.dims(), &dropped.params(), on(killed))
                .expect("launch");
            let other = gpu.create_stream();
            gpu.try_launch_on(k.copy, queued.dims(), &queued.params(), on(other))
                .expect("launch");
            gpu.try_synchronize()
                .expect("a non-default stream's fault does not fail the sync");
            let err = gpu.reset_stream(killed).expect("the stream was faulted");
            assert!(matches!(err, SimError::DeviceFault(_)), "{err}");
            assert!(queued.written(gpu) && !dropped.written(gpu));

            let fresh = gpu.create_stream();
            gpu.try_launch_on(k.copy, relaunched.dims(), &relaunched.params(), on(fresh))
                .expect("launch");
            gpu.try_synchronize().expect("clean run");
            assert!(relaunched.written(gpu));
        },
    );
    assert!(skipped > 0, "nothing was jumped");
}

#[test]
fn more_than_64_warps_on_an_sm_run_as_ticked() {
    // The Figure 11 200 % SM admits 64 CTAs: 33-thread CTAs (two warps,
    // the second with one lane) fill 128 warp slots, two words of the SM's
    // readiness index, and the loads put every scheduler's share in a
    // dead span.
    const CTA: u32 = 33;
    let skipped = ledger_row(
        |cfg| *cfg = cfg.clone().with_cta_scale(200),
        |gpu, k| {
            let run = CopyRun::new(gpu, 256 * CTA);
            gpu.try_launch(k.copy, LaunchDims::linear(256, CTA), &run.params())
                .expect("launch");
            gpu.synchronize();
            assert!(run.written(gpu));
            assert_eq!(gpu.stats().sm.ctas_completed, 256);
        },
    );
    assert!(skipped > 0, "nothing was jumped");
}
