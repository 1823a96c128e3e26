//! Quickstart: run one Genomics-GPU benchmark on the simulated RTX 3070
//! and read the microarchitectural counters.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ggpu_kernels::{benchmark, Scale};
use ggpu_sim::GpuConfig;
use ggpu_sm::StallReason;

fn main() {
    // The suite's benchmarks are looked up by the abbreviations of
    // Table III: SW, NW, STAR, GG, GL, GKSW, GSG, CLUSTER, PairHMM, NvB.
    let bench = benchmark(Scale::Tiny, "SW").expect("SW is a suite benchmark");

    // The baseline configuration is the paper's Table I (RTX 3070).
    let config = GpuConfig::rtx3070();

    // Run the non-CDP variant; every run validates device results against
    // the CPU reference implementation before reporting statistics.
    let result = bench.run(&config, false);
    assert!(result.verified, "device output must match the CPU oracle");

    println!("{}", result.detail);
    println!("kernel cycles:      {}", result.kernel_cycles);
    println!("IPC:                {:.3}", result.stats.ipc());
    println!("kernel launches:    {}", result.stats.host.kernel_launches);
    println!("PCI transactions:   {}", result.stats.host.pci_count);
    println!(
        "L1 miss rate:       {:.1}%",
        result.stats.l1.miss_rate() * 100.0
    );
    println!(
        "L2 miss rate:       {:.1}%",
        result.stats.l2.miss_rate() * 100.0
    );
    println!(
        "DRAM efficiency:    {:.1}%",
        result.stats.dram.efficiency() * 100.0
    );
    println!(
        "memory stalls:      {:.1}% of stall cycles",
        result.stats.sm.stalls.fraction(StallReason::MemLatency) * 100.0
    );
    println!(
        "full-warp issues:   {:.1}%",
        result.stats.sm.occupancy_fraction(29, 32) * 100.0
    );

    // And the CDP (CUDA Dynamic Parallelism) variant of the same benchmark.
    let cdp = bench.run(&config, true);
    assert!(cdp.verified);
    println!(
        "\nCDP variant:        {} device-side launches, {} kernel cycles",
        cdp.stats.sm.device_launches, cdp.kernel_cycles
    );
}
