//! End-to-end validation: every benchmark of the suite, in both CDP and
//! non-CDP variants, must produce device results identical to the CPU
//! reference implementations.

use ggpu_core::{all_benchmarks, GpuConfig, Scale, BENCHMARKS};

fn test_config() -> GpuConfig {
    GpuConfig {
        n_sms: 8,
        ..GpuConfig::test_small()
    }
}

#[test]
fn all_benchmarks_validate_without_cdp() {
    let config = test_config();
    for b in all_benchmarks(Scale::Tiny) {
        let r = b.run(&config, false);
        assert!(r.verified, "{} failed: {}", b.abbrev(), r.detail);
        assert!(r.stats.sm.issued > 0, "{} issued nothing", b.abbrev());
        assert!(r.kernel_cycles > 0, "{} took no time", b.abbrev());
    }
}

#[test]
fn all_benchmarks_validate_with_cdp() {
    let config = test_config();
    for b in all_benchmarks(Scale::Tiny) {
        let r = b.run(&config, true);
        assert!(r.verified, "{}-CDP failed: {}", b.abbrev(), r.detail);
        assert!(
            r.stats.sm.device_launches > 0,
            "{}-CDP never launched a child grid",
            b.abbrev()
        );
    }
}

#[test]
fn registry_matches_table3_order() {
    let names: Vec<&str> = all_benchmarks(Scale::Tiny)
        .iter()
        .map(|b| b.abbrev())
        .collect();
    assert_eq!(names, BENCHMARKS);
}

#[test]
fn runs_are_deterministic() {
    // Two runs of the same benchmark under the same config must produce
    // identical cycle counts — the simulator is fully deterministic, which
    // is what makes the paper's figures reproducible.
    let config = test_config();
    let b = ggpu_core::benchmark(Scale::Tiny, "GL").expect("GL exists");
    let r1 = b.run(&config, false);
    let r2 = b.run(&config, false);
    assert_eq!(r1.kernel_cycles, r2.kernel_cycles);
    assert_eq!(r1.stats.sm.issued, r2.stats.sm.issued);
    assert_eq!(r1.stats.l1.accesses(), r2.stats.l1.accesses());
}

#[test]
fn the_engine_thread_count_names_are_inert() {
    // `benchmark/` still names a per-device thread count. Whatever it is
    // set to, one thread ticks the device and every result is the untouched
    // config's — so deleting the names later changes nothing.
    let base = GpuConfig::test_small().with_kernel_records(true);
    let built = base.clone().with_sim_threads(4);
    let mut assigned = base.clone();
    assigned.sim_threads = 64;
    let b = ggpu_core::benchmark(Scale::Tiny, "SW").expect("SW exists");
    let want = b.run(&base, false);
    let records =
        |r: &ggpu_core::BenchResult| r.profile.as_ref().expect("records on").kernels.clone();
    assert!(want.verified && !records(&want).is_empty());
    for config in [built, assigned] {
        let got = b.run(&config, false);
        assert_eq!(got.sim_threads, 1);
        assert_eq!(got.stats, want.stats);
        assert_eq!(got.kernel_cycles, want.kernel_cycles);
        assert_eq!(records(&got), records(&want));
    }
}

#[test]
fn benchmarks_respond_to_memory_latency() {
    // A sanity check on the timing model: making DRAM dramatically slower
    // must not speed anything up.
    let base = test_config();
    let mut slow = test_config();
    slow.dram.t_cl = 200;
    slow.dram.t_rcd = 200;
    slow.dram.t_rp = 200;
    let b = ggpu_core::benchmark(Scale::Tiny, "NvB").expect("NvB exists");
    let fast = b.run(&base, false);
    let slowr = b.run(&slow, false);
    assert!(fast.verified && slowr.verified);
    assert!(
        slowr.kernel_cycles > fast.kernel_cycles,
        "slower DRAM must cost cycles ({} vs {})",
        slowr.kernel_cycles,
        fast.kernel_cycles
    );
}
