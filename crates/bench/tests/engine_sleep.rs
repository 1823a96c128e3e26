//! The sleeping-lane contract: an SM with nothing resident, in flight or
//! left to merge is visited by nothing until dispatch wakes it, and its idle
//! counters are credited lazily — yet every counter, record, sample, per-PC
//! table and trace reads exactly as if it had been ticked every cycle.
//!
//! There is no eager engine left to compare against, so the fence is
//! threefold: every observable is `==` with `fast_forward` on and off on
//! the 78-SM baseline (where 76 lanes sleep at any time); structural
//! identities the eager engine had by construction still hold (every SM's cycle counter
//! equals the device's); and cycle counts, hang cycles and trace order are
//! pinned to values taken from the commit before lanes could sleep.

use ggpu_core::{GpuConfig, RunStats, Scale, SuiteRunner};
use ggpu_isa::{KernelBuilder, KernelId, LaunchDims, Operand, Program, Space, Width};
use ggpu_sim::{
    FaultPlan, Gpu, IntervalSample, KernelRecord, LaunchOptions, PcProfile, SimError, SmStats,
    StreamId, TraceEvent, TraceEventKind, UnitProfile,
};

/// `fast_forward` settings; the first entry is the reference.
const ENGINES: [bool; 2] = [false, true];

fn baseline(fast_forward: bool) -> GpuConfig {
    GpuConfig::rtx3070().with_fast_forward(fast_forward)
}

// ---- suite benchmarks under full profiling ----------------------------------

#[derive(Debug, PartialEq)]
struct Observed {
    stats: RunStats,
    kernel_cycles: u64,
    kernels: Vec<KernelRecord>,
    samples: Vec<IntervalSample>,
    events: Vec<TraceEvent>,
    pc: Option<PcProfile>,
    units: UnitProfile,
}

/// A period that divides neither run below, so the trailing partial window
/// and mid-span boundaries are both exercised.
const SAMPLE_INTERVAL: u64 = 777;

fn run_profiled(abbrev: &str, cdp: bool, fast_forward: bool) -> Observed {
    let mut cfg = baseline(fast_forward).with_attribution(true);
    cfg.trace = true;
    cfg.sample_interval_cycles = SAMPLE_INTERVAL;
    let r = SuiteRunner::new(Scale::Tiny)
        .with_config(cfg)
        .run_one(abbrev, cdp);
    assert!(r.verified, "{abbrev} must verify: {}", r.detail);
    let p = *r.profile.expect("profiling was enabled");
    Observed {
        stats: r.stats,
        kernel_cycles: r.kernel_cycles,
        kernels: p.kernels,
        samples: p.samples,
        events: p.events,
        pc: p.pc,
        units: p.units,
    }
}

#[test]
fn profiled_runs_are_bit_identical_with_most_lanes_asleep() {
    // STAR's grids keep two CTAs resident on 78 SMs (the round-robin cursor
    // moves them over ten); with CDP the parent launches its children from
    // the device, so lanes wake for child CTAs and sleep again between them.
    for (abbrev, cdp) in [("STAR", false), ("STAR", true)] {
        let reference = run_profiled(abbrev, cdp, ENGINES[0]);
        assert_ne!(reference.kernel_cycles % SAMPLE_INTERVAL, 0);
        assert!(!reference.samples.is_empty() && !reference.kernels.is_empty());
        // The eager engine ticked every SM every cycle.
        for unit in &reference.units.sms {
            assert_eq!(
                unit.stats.cycles, reference.kernel_cycles,
                "{abbrev} cdp={cdp}: SM {} lost or gained cycles",
                unit.sm
            );
        }
        let resident = reference
            .units
            .sms
            .iter()
            .filter(|u| u.stats.issued > 0)
            .count();
        assert!(
            resident < 16,
            "{abbrev} cdp={cdp}: {resident} SMs issued; the run no longer leaves lanes asleep"
        );
        for &fast_forward in &ENGINES[1..] {
            let run = run_profiled(abbrev, cdp, fast_forward);
            assert_eq!(
                reference, run,
                "{abbrev} cdp={cdp} diverges at fast_forward={fast_forward}"
            );
        }
    }
}

// ---- hand-built kernels ----------------------------------------------------------

/// The kernels the remaining tests launch, by id.
struct Kernels {
    /// Loads one word and exits without reading it: the warp retires with
    /// its request still in flight.
    fire_and_forget: KernelId,
    /// Loads one word and stores it next to itself.
    loader: KernelId,
    /// `out[tid] = tid`.
    write_tids: KernelId,
    /// One thread stores 1 MiB past its buffer.
    poke: KernelId,
    /// Counts to a million.
    spin: KernelId,
    /// Every thread launches one `child` grid of one 1024-thread CTA, then
    /// joins.
    parent: KernelId,
}

fn build_program() -> (Program, Kernels) {
    let mut p = Program::new();

    let mut b = KernelBuilder::new("fire_and_forget");
    let src = b.reg();
    b.ld_param(src, 0);
    let v = b.reg();
    b.ld(Space::Global, Width::B64, v, src, 0);
    b.exit();
    let fire_and_forget = p.add(b.finish());

    let mut b = KernelBuilder::new("loader");
    let src = b.reg();
    b.ld_param(src, 0);
    let v = b.reg();
    b.ld(Space::Global, Width::B64, v, src, 0);
    b.st(Space::Global, Width::B64, Operand::reg(v), src, 8);
    b.exit();
    let loader = p.add(b.finish());

    let write_tids_body = |name: &str| {
        let mut b = KernelBuilder::new(name);
        let tid = b.global_tid();
        let out = b.reg();
        b.ld_param(out, 0);
        let oa = b.reg();
        b.imul(oa, tid, Operand::imm(8));
        b.iadd(oa, oa, Operand::reg(out));
        b.st(Space::Global, Width::B64, Operand::reg(tid), oa, 0);
        b.exit();
        b.finish()
    };
    let write_tids = p.add(write_tids_body("write_tids"));

    let mut b = KernelBuilder::new("poke");
    let out = b.reg();
    b.ld_param(out, 0);
    b.st(Space::Global, Width::B64, Operand::imm(7), out, 1 << 20);
    b.exit();
    let poke = p.add(b.finish());

    let mut b = KernelBuilder::new("spin");
    b.for_range(Operand::imm(0), Operand::imm(1_000_000), 1, |_, _| {});
    b.exit();
    let spin = p.add(b.finish());

    let child = p.add(write_tids_body("child"));
    let mut b = KernelBuilder::new("parent");
    let block = b.reg();
    b.ld_param(block, 0);
    b.launch(child.0, Operand::imm(1), Operand::imm(1024), block, 1);
    b.dsync();
    b.exit();
    let parent = p.add(b.finish());

    let kernels = Kernels {
        fire_and_forget,
        loader,
        write_tids,
        poke,
        spin,
        parent,
    };
    (p, kernels)
}

fn per_sm_cycles(gpu: &Gpu) -> Vec<u64> {
    gpu.unit_profile()
        .sms
        .iter()
        .map(|u| u.stats.cycles)
        .collect()
}

// ---- a retired warp's reply in flight -----------------------------------------------

/// Run `fire_and_forget` on one thread. The SM has zero live warps from the
/// cycle the warp exits, but an outstanding load: it must stay awake until
/// the reply lands (or the watchdog gives up on it).
fn run_fire_and_forget(fast_forward: bool, drop_reply: bool) -> Gpu {
    let (program, k) = build_program();
    let mut cfg = baseline(fast_forward).with_stream_isolation(true);
    cfg.watchdog_cycles = 2_000;
    // Keep L1 contents across the two grids of the late-reply test.
    cfg.flush_between_kernels = false;
    if drop_reply {
        cfg.fault_plan = FaultPlan {
            drop_reply: Some(0),
            ..FaultPlan::default()
        };
    }
    let mut gpu = Gpu::new(program, cfg);
    let buf = gpu.malloc(256);
    gpu.launch(k.fire_and_forget, LaunchDims::linear(1, 1), &[buf.0]);
    gpu
}

#[test]
fn a_lane_with_no_warps_and_a_load_in_flight_stays_awake_for_its_reply() {
    // Taken from the commit before lanes could sleep.
    const ELAPSED: u64 = 3_054;
    for &fast_forward in &ENGINES {
        let at = format!("fast_forward={fast_forward}");
        let mut gpu = run_fire_and_forget(fast_forward, false);
        let elapsed = gpu.try_synchronize().expect("clean run");
        assert_eq!(elapsed, ELAPSED, "{at}");
        let units = gpu.unit_profile();
        assert_eq!(
            units.sms[0].rep_delivered, 1,
            "{at}: the reply reached SM 0"
        );
        assert_eq!(units.sms[0].l1.read_access, 1, "{at}");
        assert_eq!(units.sms[0].l1.read_hit, 0, "{at}");
        assert!(per_sm_cycles(&gpu).iter().all(|&c| c == ELAPSED), "{at}");

        // The late reply filled L1: the same line now hits, on the same SM
        // (stream isolation restarts the dispatch cursor per grid).
        let (_, k) = build_program();
        gpu.launch(k.loader, LaunchDims::linear(1, 1), &[4096]);
        gpu.try_synchronize().expect("clean run");
        let units = gpu.unit_profile();
        assert_eq!(units.sms[0].l1.read_access, 2, "{at}");
        assert_eq!(units.sms[0].l1.read_hit, 1, "{at}: the fill was lost");
    }
}

#[test]
fn a_dropped_reply_to_a_lane_with_no_warps_hangs_on_the_same_cycle() {
    // Taken from the commit before lanes could sleep.
    const HANG_CYCLE: u64 = 5_048;
    for &fast_forward in &ENGINES {
        let at = format!("fast_forward={fast_forward}");
        let mut gpu = run_fire_and_forget(fast_forward, true);
        let err = gpu.try_synchronize().expect_err("the reply never arrives");
        let SimError::Deadlock(report) = &err else {
            panic!("{at}: expected a deadlock, got {err}");
        };
        assert_eq!(report.cycle, HANG_CYCLE, "{at}");
        assert_eq!(gpu.cycle(), HANG_CYCLE, "{at}");
        assert!(report.stalled_for >= 2_000, "{at}");
        assert_eq!(report.outstanding_requests, 1, "{at}");
        assert!(report.warps.is_empty(), "{at}: the warp had retired");
        assert!(per_sm_cycles(&gpu).iter().all(|&c| c == HANG_CYCLE), "{at}");
    }
}

// ---- kills with lanes asleep, then recovery ------------------------------------------

/// What a clean `write_tids` run looks like from outside.
#[derive(Debug, PartialEq)]
struct CleanRun {
    elapsed: u64,
    stats: RunStats,
    units: UnitProfile,
    record: RunStats,
}

fn clean_run(gpu: &mut Gpu, k: &Kernels) -> CleanRun {
    gpu.reset_stats();
    let out = gpu.malloc(64 * 8);
    let elapsed = gpu
        .try_run_kernel(k.write_tids, LaunchDims::linear(2, 32), &[out.0])
        .expect("clean run");
    for i in 0..64u64 {
        assert_eq!(gpu.memory().read_u64(out.offset(i * 8)), i);
    }
    let records = gpu.kernel_records();
    assert_eq!(records.len(), 1, "{records:?}");
    CleanRun {
        elapsed,
        stats: gpu.stats(),
        units: gpu.unit_profile(),
        record: records[0].stats.clone(),
    }
}

#[derive(Debug, Clone, Copy)]
enum Kill {
    Trap,
    Deadline,
    Hang,
}

/// Kill a grid while 77 lanes sleep, recover, and run cleanly. `fresh` is
/// the same clean run on a new device.
fn killed_then_clean(kill: Kill, fast_forward: bool, fresh: &CleanRun) -> CleanRun {
    let (program, k) = build_program();
    let mut cfg = baseline(fast_forward)
        .with_stream_isolation(true)
        .with_kernel_records(true);
    cfg.watchdog_cycles = 2_000;
    if matches!(kill, Kill::Hang) {
        cfg.fault_plan.drop_reply = Some(0);
    }
    let mut gpu = Gpu::new(program, cfg);
    let buf = gpu.malloc(256);
    // Leave used slot and warp free lists behind on lanes that will be
    // asleep when the kill lands: the abort has to reach them too.
    let warm = gpu.malloc(8 * 96 * 8);
    gpu.run_kernel(k.write_tids, LaunchDims::linear(8, 96), &[warm.0]);
    match kill {
        Kill::Trap => {
            let err = gpu
                .try_run_kernel(k.poke, LaunchDims::linear(1, 1), &[buf.0])
                .expect_err("out-of-bounds store faults");
            assert!(matches!(err, SimError::DeviceFault(_)), "{err}");
            gpu.reset_fault().expect("the fault was sticky");
        }
        Kill::Deadline => {
            let s = gpu.create_stream();
            let opts = LaunchOptions {
                stream: s,
                deadline: Some(700),
            };
            gpu.try_launch_on(k.spin, LaunchDims::linear(1, 32), &[], opts)
                .expect("launch");
            // A survivor on another stream runs behind the kill in the same
            // `synchronize`: its record must not absorb the killed span.
            let survivor = LaunchOptions {
                stream: gpu.create_stream(),
                deadline: None,
            };
            let out = gpu.malloc(64 * 8);
            gpu.try_launch_on(k.write_tids, LaunchDims::linear(2, 32), &[out.0], survivor)
                .expect("launch");
            gpu.try_synchronize()
                .expect("a non-default stream's overrun does not fail the sync");
            let err = gpu.reset_stream(s).expect("the stream was faulted");
            assert!(matches!(err, SimError::DeadlineExceeded { .. }), "{err}");
            // The warm-up's record, then the survivor's; none for the kill.
            let records = gpu.kernel_records();
            assert_eq!(records.len(), 2, "{records:?}");
            assert_eq!(records[1].stats.sm, fresh.record.sm);
        }
        Kill::Hang => {
            let err = gpu
                .try_run_kernel(k.loader, LaunchDims::linear(1, 1), &[buf.0])
                .expect_err("the dropped reply hangs the grid");
            assert!(matches!(err, SimError::Deadlock(_)), "{err}");
            gpu.reset_stream(StreamId::DEFAULT)
                .expect("the hang was sticky");
        }
    }
    assert!(!gpu.busy());
    let dead = gpu.cycle();
    assert!(
        per_sm_cycles(&gpu).iter().all(|&c| c == dead),
        "{kill:?}: an SM's cycle counter left the device's behind"
    );
    clean_run(&mut gpu, &k)
}

#[test]
fn a_kill_with_lanes_asleep_leaves_a_device_as_good_as_new() {
    let fresh = {
        let (program, k) = build_program();
        let cfg = baseline(false)
            .with_stream_isolation(true)
            .with_kernel_records(true);
        let mut gpu = Gpu::new(program, cfg);
        gpu.malloc(256);
        clean_run(&mut gpu, &k)
    };
    assert!(fresh
        .units
        .sms
        .iter()
        .all(|u| u.stats.cycles == fresh.elapsed));
    assert_eq!(fresh.record.sm, fresh.stats.sm);
    for kill in [Kill::Trap, Kill::Deadline, Kill::Hang] {
        for &fast_forward in &ENGINES {
            let recovered = killed_then_clean(kill, fast_forward, &fresh);
            assert_eq!(
                fresh.elapsed, recovered.elapsed,
                "{kill:?} at fast_forward={fast_forward}"
            );
            assert_eq!(
                fresh.stats.sm, recovered.stats.sm,
                "{kill:?} at fast_forward={fast_forward}"
            );
            assert_eq!(
                fresh.record.sm, recovered.record.sm,
                "{kill:?} at fast_forward={fast_forward}"
            );
            let sms = |r: &CleanRun| -> Vec<SmStats> {
                r.units.sms.iter().map(|u| u.stats.clone()).collect()
            };
            assert_eq!(
                sms(&fresh),
                sms(&recovered),
                "{kill:?} at fast_forward={fast_forward}"
            );
        }
    }
}

// ---- counters read between runs ------------------------------------------------------

#[test]
fn counters_read_between_runs_are_current() {
    let mut reference: Option<Vec<UnitProfile>> = None;
    for &fast_forward in &ENGINES {
        let at = format!("fast_forward={fast_forward}");
        let (program, k) = build_program();
        let mut gpu = Gpu::new(program, baseline(fast_forward));
        let out = gpu.malloc(64 * 8);
        let mut seen = Vec::new();

        let first = gpu.run_kernel(k.write_tids, LaunchDims::linear(2, 32), &[out.0]);
        assert!(per_sm_cycles(&gpu).iter().all(|&c| c == first), "{at}");
        seen.push(gpu.unit_profile());

        let second = gpu.run_kernel(k.write_tids, LaunchDims::linear(1, 64), &[out.0]);
        assert!(
            per_sm_cycles(&gpu).iter().all(|&c| c == first + second),
            "{at}"
        );
        seen.push(gpu.unit_profile());

        gpu.reset_stats();
        assert!(
            gpu.unit_profile()
                .sms
                .iter()
                .all(|u| u.stats == SmStats::default()),
            "{at}: reset_stats left a sleeping lane's counters behind"
        );
        let third = gpu.run_kernel(k.write_tids, LaunchDims::linear(2, 32), &[out.0]);
        assert!(per_sm_cycles(&gpu).iter().all(|&c| c == third), "{at}");
        seen.push(gpu.unit_profile());

        match &reference {
            None => reference = Some(seen),
            Some(r) => assert_eq!(r, &seen, "{at}"),
        }
    }
}

#[test]
fn single_stepping_matches_synchronize() {
    let (program, k) = build_program();
    let mut whole = Gpu::new(program, baseline(false));
    let out = whole.malloc(64 * 8);
    let elapsed = whole.run_kernel(k.write_tids, LaunchDims::linear(2, 32), &[out.0]);

    let (program, k) = build_program();
    let mut stepped = Gpu::new(program, baseline(true));
    let out = stepped.malloc(64 * 8);
    stepped.launch(k.write_tids, LaunchDims::linear(2, 32), &[out.0]);
    let mut steps = 0;
    while stepped.busy() {
        stepped.tick();
        steps += 1;
        // Counters are current after every single step, not only at the end.
        assert!(per_sm_cycles(&stepped).iter().all(|&c| c == steps));
    }
    assert_eq!(steps, elapsed);
    assert_eq!(whole.unit_profile(), stepped.unit_profile());
}

// ---- the dispatch memo -----------------------------------------------------------------

#[test]
fn a_deep_same_shape_child_queue_dispatches_in_the_unmemoised_order() {
    // 96 children of one 1024-thread CTA each on 4 SMs of 1536 threads: at
    // most four are resident, so up to 92 same-shape grids sit refused in
    // the device queue every cycle. Pinned values are from the commit whose
    // dispatcher swept every SM for every queued grid.
    const ELAPSED: u64 = 74_038;
    const FUNCTIONAL_DONE: u64 = 2_188;
    const ISSUED: u64 = 30_732;
    let mut reference: Option<(RunStats, Vec<TraceEvent>)> = None;
    for &fast_forward in &ENGINES {
        let at = format!("fast_forward={fast_forward}");
        let (program, k) = build_program();
        let mut cfg = GpuConfig::test_small().with_fast_forward(fast_forward);
        cfg.trace = true;
        let mut gpu = Gpu::new(program, cfg);
        let out = gpu.malloc(1024 * 8);
        let block = gpu.malloc(8);
        gpu.memory_mut().write_u64(block, out.0);
        let elapsed = gpu.run_kernel(k.parent, LaunchDims::linear(1, 96), &[block.0]);
        for i in 0..1024u64 {
            assert_eq!(gpu.memory().read_u64(out.offset(i * 8)), i);
        }

        let stats = gpu.stats();
        assert_eq!(stats.sm.device_launches, 96, "{at}");
        assert_eq!(elapsed, ELAPSED, "{at}");
        assert_eq!(stats.sm.issued, ISSUED, "{at}");
        assert_eq!(
            stats.sm.stalls.get(ggpu_sim::StallReason::FunctionalDone),
            FUNCTIONAL_DONE,
            "{at}"
        );
        let started: Vec<u64> = gpu
            .trace_events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::KernelStart { grid, .. } => Some(grid),
                _ => None,
            })
            .collect();
        // The parent, then its children in enqueue order.
        assert_eq!(started, (1..=97).collect::<Vec<u64>>(), "{at}");
        // Every child was enqueued before the sixth could start: the queue
        // really was ninety deep.
        let kinds = || gpu.trace_events().iter().map(|e| &e.kind);
        let last_enqueue = kinds()
            .rposition(|k| matches!(k, TraceEventKind::CdpEnqueue { .. }))
            .expect("children were enqueued");
        let sixth_child_start = kinds()
            .position(|k| matches!(k, TraceEventKind::KernelStart { grid: 7, .. }))
            .expect("grid 7 started");
        assert!(last_enqueue < sixth_child_start, "{at}");

        let events = gpu.trace_events().to_vec();
        match &reference {
            None => reference = Some((stats, events)),
            Some((s, e)) => {
                assert_eq!(s, &stats, "{at}");
                assert_eq!(e, &events, "{at}");
            }
        }
    }
}
