//! Integration tests for the time-resolved profiling layer: per-kernel
//! counter scoping, the interval sampler, the structured event trace, and
//! the machine-readable JSON exports.

use ggpu_isa::{InstrClass, KernelBuilder, LaunchDims, Operand, Program, Space, Width};
use ggpu_kernels::{benchmark, Scale};
use ggpu_sim::json::Json;
use ggpu_sim::{chrome_trace_json, Gpu, GpuConfig, RunStats, TraceEventKind};

/// One thread-indexed global store per thread — enough issued instructions
/// to make the counters move, trivially verifiable.
fn write_tids_program() -> Program {
    let mut program = Program::new();
    let mut b = KernelBuilder::new("write_tids");
    let tid = b.global_tid();
    let out = b.reg();
    b.ld_param(out, 0);
    let oa = b.reg();
    b.imul(oa, tid, Operand::imm(8));
    b.iadd(oa, oa, Operand::reg(out));
    b.st(Space::Global, Width::B64, Operand::reg(tid), oa, 0);
    b.exit();
    program.add(b.finish());
    program
}

fn profiled_config() -> GpuConfig {
    let mut c = GpuConfig::test_small();
    c.sample_interval_cycles = 1_000;
    c.trace = true;
    c
}

#[test]
fn per_kernel_deltas_sum_to_run_total() {
    let program = write_tids_program();
    let kid = ggpu_isa::KernelId(0);
    let mut gpu = Gpu::new(program, profiled_config());
    let buf = gpu.malloc(256 * 8);
    for _ in 0..3 {
        gpu.run_kernel(kid, LaunchDims::linear(4, 64), &[buf.0]);
    }
    let profile = gpu.take_profile();
    assert_eq!(profile.kernels.len(), 3, "one record per serialized launch");
    let issued: u64 = profile.kernels.iter().map(|k| k.stats.sm.issued).sum();
    let threads: u64 = profile
        .kernels
        .iter()
        .map(|k| k.stats.sm.thread_instrs)
        .sum();
    let ctas: u64 = profile
        .kernels
        .iter()
        .map(|k| k.stats.sm.ctas_completed)
        .sum();
    assert_eq!(issued, profile.stats.sm.issued, "issued telescopes");
    assert_eq!(
        threads, profile.stats.sm.thread_instrs,
        "thread instrs telescope"
    );
    assert_eq!(
        ctas, profile.stats.sm.ctas_completed,
        "CTA completions telescope"
    );
    assert!(issued > 0, "the kernels must actually issue instructions");
    for k in &profile.kernels {
        assert!(!k.is_cdp_child(), "host launches have no parent");
        assert!(k.launch_cycle <= k.start_cycle && k.start_cycle <= k.retire_cycle);
    }
}

#[test]
fn cdp_children_recorded_with_parent_and_depth() {
    let mut config = GpuConfig::rtx3070();
    config.trace = true;
    let bench = benchmark(Scale::Tiny, "SW").expect("SW exists");
    let r = bench.run(&config, true);
    assert!(r.verified);
    let profile = r.profile.expect("tracing enables profiling");
    let children: Vec<_> = profile
        .kernels
        .iter()
        .filter(|k| k.is_cdp_child())
        .collect();
    let parents: Vec<_> = profile
        .kernels
        .iter()
        .filter(|k| !k.is_cdp_child())
        .collect();
    assert!(
        !children.is_empty(),
        "CDP run must record device-launched children"
    );
    assert!(
        !parents.is_empty(),
        "host-launched parents must also be recorded"
    );
    for c in &children {
        assert!(c.depth >= 1, "children sit below the host launch");
        let parent_grid = c.parent.expect("child has a parent handle");
        assert!(
            profile.kernels.iter().any(|k| k.grid == parent_grid),
            "the parent grid {parent_grid} must have its own record"
        );
    }
    for p in &parents {
        assert_eq!(p.depth, 0);
        assert!(p.parent.is_none());
    }
    // The timeline carries the same structure as typed events.
    let enqueues = profile
        .events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::CdpEnqueue { .. }))
        .count();
    assert_eq!(enqueues, children.len(), "one CdpEnqueue per child record");
}

#[test]
fn records_do_not_depend_on_which_switch_turns_the_recorder_on() {
    let bench = benchmark(Scale::Tiny, "SW").expect("SW exists");
    let mut traced = GpuConfig::test_small();
    traced.trace = true;
    let mut sampled = GpuConfig::test_small();
    sampled.sample_interval_cycles = 1_000;
    let attributed = GpuConfig::test_small().with_attribution(true);
    let runs: Vec<_> = [traced, sampled, attributed]
        .iter()
        .map(|config| {
            let r = bench.run(config, true);
            assert!(r.verified);
            let profile = r.profile.expect("each switch turns the recorder on");
            (profile.kernels, profile.stats)
        })
        .collect();
    let (records, stats) = &runs[0];
    assert!(
        records.iter().any(|k| k.is_cdp_child()),
        "a CDP run records its children"
    );
    let sum = |f: fn(&RunStats) -> u64| records.iter().map(|k| f(&k.stats)).sum::<u64>();
    assert_eq!(sum(|s| s.sm.issued), stats.sm.issued);
    assert_eq!(sum(|s| s.sm.thread_instrs), stats.sm.thread_instrs);
    assert_eq!(sum(|s| s.sm.ctas_completed), stats.sm.ctas_completed);
    for (other_records, other_stats) in &runs[1..] {
        assert_eq!(other_records, records);
        assert_eq!(other_stats, stats);
    }
}

#[test]
fn sampler_covers_run_and_sums_to_aggregates() {
    let program = write_tids_program();
    let kid = ggpu_isa::KernelId(0);
    let mut config = GpuConfig::test_small();
    config.sample_interval_cycles = 500;
    let mut gpu = Gpu::new(program, config);
    let buf = gpu.malloc(1024 * 8);
    gpu.run_kernel(kid, LaunchDims::linear(16, 64), &[buf.0]);
    // Take the profile before any trailing D2H copy: host PCI counters
    // bumped after the last synchronize sit outside every sample window.
    let profile = gpu.take_profile();
    assert!(!profile.samples.is_empty(), "at least one window per run");
    let mut expect_start = 0;
    for s in &profile.samples {
        assert_eq!(s.start_cycle, expect_start, "windows are contiguous");
        assert!(s.end_cycle > s.start_cycle);
        assert!(
            s.end_cycle - s.start_cycle <= 500,
            "window never exceeds the interval"
        );
        expect_start = s.end_cycle;
    }
    let issued: u64 = profile.samples.iter().map(|s| s.stats.sm.issued).sum();
    let l1: u64 = profile.samples.iter().map(|s| s.stats.l1.accesses()).sum();
    let kernel_cycles: u64 = profile
        .samples
        .iter()
        .map(|s| s.stats.host.kernel_cycles)
        .sum();
    assert_eq!(
        issued, profile.stats.sm.issued,
        "issued sums to the aggregate"
    );
    assert_eq!(
        l1,
        profile.stats.l1.accesses(),
        "L1 accesses sum to the aggregate"
    );
    assert_eq!(
        kernel_cycles, profile.stats.host.kernel_cycles,
        "kernel cycles sum to the aggregate"
    );
}

#[test]
fn instruction_mix_fractions_sum_to_one() {
    let bench = benchmark(Scale::Tiny, "SW").expect("SW exists");
    let r = bench.run(&GpuConfig::rtx3070(), false);
    assert!(r.verified);
    let classes = [
        InstrClass::Int,
        InstrClass::Fp,
        InstrClass::LdSt,
        InstrClass::Sfu,
        InstrClass::Ctrl,
    ];
    let total: f64 = classes.iter().map(|&c| r.stats.sm.class_fraction(c)).sum();
    assert!(
        (total - 1.0).abs() < 1e-9,
        "instruction-mix fractions must sum to 1.0, got {total}"
    );
    let spaces: f64 = ggpu_isa::Space::ALL
        .iter()
        .map(|&s| r.stats.sm.space_fraction(s))
        .sum();
    assert!(
        (spaces - 1.0).abs() < 1e-9,
        "memory-space fractions must sum to 1.0, got {spaces}"
    );
}

#[test]
fn profile_json_round_trips() {
    let mut config = GpuConfig::rtx3070();
    config.sample_interval_cycles = 10_000;
    config.trace = true;
    let bench = benchmark(Scale::Tiny, "NW").expect("NW exists");
    let r = bench.run(&config, false);
    assert!(r.verified);
    let profile = r.profile.expect("profiling enabled");
    let doc = profile.to_json();
    let parsed = Json::parse(&doc).expect("ProfileReport JSON parses");
    let kernels = parsed
        .get("kernels")
        .and_then(Json::as_arr)
        .expect("kernels array");
    assert_eq!(kernels.len(), profile.kernels.len());
    let samples = parsed
        .get("samples")
        .and_then(Json::as_arr)
        .expect("samples array");
    assert_eq!(samples.len(), profile.samples.len());
    let ipc = parsed
        .get("stats")
        .and_then(|s| s.get("derived"))
        .and_then(|d| d.get("ipc"))
        .and_then(Json::as_f64)
        .expect("stats.derived.ipc");
    assert!((ipc - profile.stats.ipc()).abs() < 1e-9);
}

#[test]
fn chrome_trace_is_well_formed() {
    let mut config = GpuConfig::rtx3070();
    config.trace = true;
    let bench = benchmark(Scale::Tiny, "SW").expect("SW exists");
    let r = bench.run(&config, true);
    assert!(r.verified);
    let profile = r.profile.expect("profiling enabled");
    let doc = chrome_trace_json(&[("SW-CDP".to_string(), profile.events.as_slice())]);
    let parsed = Json::parse(&doc).expect("Chrome trace parses");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("phase field");
        assert!(
            matches!(ph, "X" | "i" | "M"),
            "only slices, instants, and metadata are emitted, got {ph}"
        );
        assert!(ev.get("name").is_some(), "every event is named");
    }
    // At least one complete slice (a kernel execution) with a duration.
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(Json::as_str) == Some("X") && e.get("dur").is_some()));
}

#[test]
fn profiling_does_not_perturb_stats() {
    let bench = benchmark(Scale::Tiny, "GL").expect("GL exists");
    let plain = bench.run(&GpuConfig::rtx3070(), false);
    let profiled = bench.run(&profiled_rtx(), false);
    assert!(plain.verified && profiled.verified);
    assert_eq!(plain.kernel_cycles, profiled.kernel_cycles);
    assert_eq!(
        plain.stats, profiled.stats,
        "profiling must not change simulated behaviour or counters"
    );
}

fn profiled_rtx() -> GpuConfig {
    let mut c = GpuConfig::rtx3070();
    c.sample_interval_cycles = 5_000;
    c.trace = true;
    c
}
