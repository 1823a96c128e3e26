//! Architecture exploration: sweep one microarchitectural knob and watch a
//! genomics workload respond — the paper's core use case ("facilitate GPU
//! architecture development for genomics analysis").
//!
//! Sweeps L1 capacity and warp scheduler for the GASAL2-KSW benchmark,
//! the most cache-sensitive kernel in the suite (Figure 12).
//!
//! ```text
//! cargo run --release --example arch_sweep
//! ```

use ggpu_kernels::{benchmark, Scale};
use ggpu_sim::GpuConfig;
use ggpu_sm::SchedPolicy;

fn main() {
    let bench = benchmark(Scale::Tiny, "GKSW").expect("GKSW is a suite benchmark");

    println!("GASAL2-KSW vs L1 capacity (RTX 3070 baseline elsewhere):");
    let mut baseline_cycles = None;
    for l1_kb in [0u64, 32, 128, 512] {
        let config = GpuConfig::rtx3070().with_cache_sizes(l1_kb * 1024, 4 * 1024 * 1024);
        let r = bench.run(&config, false);
        assert!(r.verified);
        let base = *baseline_cycles.get_or_insert(r.kernel_cycles);
        println!(
            "  L1 {:>4} KB: {:>9} cycles (speedup {:.2}x), L1 miss {:>5.1}%",
            l1_kb,
            r.kernel_cycles,
            base as f64 / r.kernel_cycles as f64,
            r.stats.l1.miss_rate() * 100.0
        );
    }

    println!("\nGASAL2-KSW vs warp scheduler:");
    for policy in [
        SchedPolicy::Lrr,
        SchedPolicy::Gto,
        SchedPolicy::Old,
        SchedPolicy::TwoLevel,
    ] {
        let mut config = GpuConfig::rtx3070();
        config.sm.policy = policy;
        let r = bench.run(&config, false);
        assert!(r.verified);
        println!(
            "  {policy}: {:>9} cycles, IPC {:.3}",
            r.kernel_cycles,
            r.stats.ipc()
        );
    }

    println!("\nGASAL2-KSW with a perfect (zero-latency) memory system:");
    let mut config = GpuConfig::rtx3070();
    config.sm.perfect_memory = true;
    let perfect = bench.run(&config, false);
    let real = bench.run(&GpuConfig::rtx3070(), false);
    assert!(perfect.verified && real.verified);
    println!(
        "  real {} cycles vs perfect {} cycles -> {:.2}x headroom",
        real.kernel_cycles,
        perfect.kernel_cycles,
        real.kernel_cycles as f64 / perfect.kernel_cycles as f64
    );
}
