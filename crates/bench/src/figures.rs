//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each `figN` function runs the required benchmark set on the simulator
//! under the paper's configuration sweep and prints the same rows/series
//! the paper plots. Absolute numbers differ from the paper's testbed (we
//! simulate a scaled workload); the *shape* — who wins, by what rough
//! factor, where the crossovers are — is what EXPERIMENTS.md tracks.

use std::time::Instant;

use ggpu_core::json::JsonWriter;
use ggpu_core::{
    all_benchmarks, chrome_trace_json, sram_usage, BenchResult, Benchmark, GpuConfig,
    ProfileReport, Scale, TraceEvent,
};
use ggpu_icnt::Topology;
use ggpu_isa::{InstrClass, Space};
use ggpu_kernels::pairwise::PairwiseBench;
use ggpu_kernels::star::StarBench;
use ggpu_mem::DramScheduler;
use ggpu_sm::{SchedPolicy, StallReason};

use crate::export::{write_json_doc, Table};

/// All benchmark labels including CDP variants, in display order.
fn variant_labels() -> Vec<String> {
    let mut v = Vec::new();
    for b in all_benchmarks(Scale::Tiny) {
        v.push(b.abbrev().to_string());
        v.push(format!("{}-CDP", b.abbrev()));
    }
    v
}

/// Run all benchmarks (non-CDP and CDP) under `config`.
fn run_all_variants(scale: Scale, config: &GpuConfig) -> Vec<(String, BenchResult)> {
    let mut out = Vec::new();
    for b in all_benchmarks(scale) {
        out.push((b.abbrev().to_string(), b.run(config, false)));
        out.push((format!("{}-CDP", b.abbrev()), b.run(config, true)));
    }
    out
}

fn check(results: &[(String, BenchResult)]) {
    for (name, r) in results {
        assert!(r.verified, "{name} failed functional validation");
    }
}

/// One row per benchmark variant at the baseline configuration: the
/// variant label followed by `cells(result)`. Fails on a validation miss.
fn baseline_rows(scale: Scale, cells: impl Fn(&BenchResult) -> Vec<String>) -> Vec<Vec<String>> {
    let results = run_all_variants(scale, &GpuConfig::rtx3070());
    check(&results);
    results
        .iter()
        .map(|(name, r)| {
            let mut row = vec![name.clone()];
            row.extend(cells(r));
            row
        })
        .collect()
}

/// A fraction rendered as a percentage with one decimal.
fn pct(fraction: f64) -> String {
    format!("{:.1}", fraction * 100.0)
}

/// Table I: hardware configuration space (baseline bolded in the paper).
pub fn table1() {
    let c = GpuConfig::rtx3070();
    println!("TABLE I: Hardware configuration settings\n");
    let rows = vec![
        vec!["Shader Cores".into(), format!("{}", c.n_sms)],
        vec!["Warp Size".into(), "32".into()],
        vec![
            "Constant Cache Size / Core".into(),
            format!(
                "{}KB (256-way, 128B lines, LRU)",
                c.sm.const_cache.bytes / 1024
            ),
        ],
        vec![
            "Texture Cache Size / Core".into(),
            format!(
                "{}KB (64-way, 128B lines, LRU)",
                c.sm.tex_cache.bytes / 1024
            ),
        ],
        vec![
            "Number of Registers / Core".into(),
            format!("16384, 32768, [{}], 131072, 262144", c.sm.registers),
        ],
        vec![
            "Number of CTAs / Core".into(),
            format!("8, 16, [{}], 64, 128", c.sm.max_ctas),
        ],
        vec![
            "Number of Threads / Core".into(),
            format!("384, 768, [{}], 3072, 6144", c.sm.max_threads),
        ],
        vec![
            "Shared Memory / Core (KB)".into(),
            format!("32, 64, [{}], 256, 512", c.sm.smem_bytes / 1024),
        ],
        vec![
            "L1 Cache".into(),
            format!("32KB, [{}KB], 256KB, 512KB, 4MB", c.sm.l1.bytes / 1024),
        ],
        vec![
            "L2 Cache".into(),
            format!(
                "512KB, [{}MB], 8MB, 16MB, 128MB",
                c.l2_total() / (1024 * 1024)
            ),
        ],
        vec![
            "Memory Controller".into(),
            "out of order (FR-FCFS), in order (FIFO)".into(),
        ],
        vec!["Scheduler".into(), "LRR, GTO, OLD, 2LV".into()],
    ];
    Table::new("table1", ["Configuration", "Settings"], rows).emit();
}

/// The paper's Table II virtual-channel settings. The flow model resolves a
/// packet to link horizons at send time and has no per-hop buffers, so these
/// are reported, not simulated.
const VIRTUAL_CHANNELS: u32 = 2;
const VC_BUFFERS: u32 = 4;

/// Table II: interconnect configuration space.
pub fn table2() {
    let c = GpuConfig::rtx3070();
    println!("TABLE II: Interconnect configuration settings\n");
    let rows = vec![
        vec![
            "Topology".into(),
            "Mesh, Local Xbar [baseline], Fat Tree, Butterfly".into(),
        ],
        vec![
            "Routing Mechanism".into(),
            "Dimension Order, Destination Tag, Nearest Common Ancestor".into(),
        ],
        vec!["Routing delay".into(), format!("{}", c.icnt.router_delay)],
        vec!["Virtual channels".into(), format!("{VIRTUAL_CHANNELS}")],
        vec!["Virtual channel buffers".into(), format!("{VC_BUFFERS}")],
        vec![
            "Flit size (Bytes)".into(),
            format!("8, 16, 32, [{}]", c.icnt.flit_bytes),
        ],
    ];
    Table::new("table2", ["Configuration", "Settings"], rows).emit();
}

/// Table III: benchmark properties.
pub fn table3(scale: Scale) {
    println!("TABLE III: Benchmark properties (paper launch shapes; simulated workloads are scaled per DESIGN.md)\n");
    let sm = GpuConfig::rtx3070().sm;
    let mut rows = Vec::new();
    for b in all_benchmarks(scale) {
        let t = b.table3();
        let u = sram_usage(b.as_ref(), &sm);
        rows.push(vec![
            t.name.to_string(),
            t.abbrev.to_string(),
            t.input.clone(),
            format!("({},{},{})", t.grid.0, t.grid.1, t.grid.2),
            format!("({},{},{})", t.cta.0, t.cta.1, t.cta.2),
            if t.shared_memory { "YES" } else { "NO" }.into(),
            if t.constant_memory { "YES" } else { "NO" }.into(),
            format!("{}", u.resident_ctas),
        ]);
    }
    Table::new(
        "table3",
        [
            "Benchmark",
            "Abr.",
            "Input",
            "Grid",
            "CTA",
            "Shared?",
            "Const?",
            "CTA/core",
        ],
        rows,
    )
    .emit();
}

/// Repetitions of a CPU oracle in Figure 2; the best one is reported, so
/// the sub-millisecond Tiny row is not timer and cache-warm-up noise.
const CPU_REPS: usize = 5;

/// Wall-clock seconds of the fastest of [`CPU_REPS`] calls of `oracle`.
fn best_seconds<T>(oracle: impl Fn() -> T) -> f64 {
    (0..CPU_REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(oracle());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Figure 2: CPU vs GPU vs GPU+CDP for SW, NW, STAR (normalized to CPU).
/// One benchmark instance per row fills all three columns: the CPU time is
/// that instance's own oracle, the function its `run` verifies against.
pub fn fig2(scale: Scale) {
    println!("FIGURE 2: CPU vs GPU vs GPU+CDP execution time (normalized to CPU = 1.0)\n");
    let config = GpuConfig::rtx3070();
    let sw = PairwiseBench::sw(scale);
    let nw = PairwiseBench::nw(scale, true);
    let star = StarBench::new(scale);
    let cases: [(&dyn Benchmark, f64); 3] = [
        (&sw, best_seconds(|| sw.cpu_oracle())),
        (&nw, best_seconds(|| nw.cpu_oracle())),
        (&star, best_seconds(|| star.cpu_oracle())),
    ];
    let mut rows = Vec::new();
    for (b, cpu_s) in cases {
        let gpu = b.run(&config, false);
        let gpu_cdp = b.run(&config, true);
        assert!(
            gpu.verified && gpu_cdp.verified,
            "{} validation",
            b.abbrev()
        );
        let gpu_s = gpu.stats.seconds(config.clock_ghz);
        let cdp_s = gpu_cdp.stats.seconds(config.clock_ghz);
        rows.push(vec![
            b.abbrev().to_string(),
            "1.000".into(),
            format!("{:.3}", gpu_s / cpu_s),
            format!("{:.3}", cdp_s / cpu_s),
            format!("{:.1}x", cpu_s / gpu_s),
        ]);
    }
    Table::new(
        "fig2",
        ["Bench", "CPU", "GPU", "GPU+CDP", "GPU speedup"],
        rows,
    )
    .emit();
}

/// Figure 3: kernel execution time, CDP vs non-CDP.
pub fn fig3(scale: Scale) {
    println!("FIGURE 3: CDP vs non-CDP kernel execution time\n");
    let config = GpuConfig::rtx3070();
    let mut rows = Vec::new();
    let mut improvements = Vec::new();
    for b in all_benchmarks(scale) {
        let plain = b.run(&config, false);
        let cdp = b.run(&config, true);
        assert!(plain.verified && cdp.verified, "{}", b.abbrev());
        let imp = 1.0 - cdp.kernel_cycles as f64 / plain.kernel_cycles as f64;
        improvements.push(imp);
        rows.push(vec![
            b.abbrev().to_string(),
            format!("{}", plain.kernel_cycles),
            format!("{}", cdp.kernel_cycles),
            format!("{:+.1}%", imp * 100.0),
        ]);
    }
    rows.push(vec![
        "AVG".into(),
        String::new(),
        String::new(),
        format!(
            "{:+.1}%",
            improvements.iter().sum::<f64>() / improvements.len() as f64 * 100.0
        ),
    ]);
    Table::new(
        "fig3",
        ["Bench", "non-CDP cycles", "CDP cycles", "CDP improvement"],
        rows,
    )
    .emit();
}

/// Figure 4: kernel/PCI invocation counts and times.
pub fn fig4(scale: Scale) {
    println!("FIGURE 4(a): kernel and PCI (cudaMemcpy) invocation counts");
    println!("FIGURE 4(b): total and average kernel / PCI time (cycles)\n");
    let rows = baseline_rows(scale, |r| {
        let h = r.stats.host;
        vec![
            format!("{}", h.kernel_launches),
            format!("{}", h.pci_count),
            format!("{}", h.kernel_cycles),
            format!("{:.0}", h.avg_kernel_cycles()),
            format!("{}", h.pci_cycles),
            format!("{:.0}", h.avg_pci_cycles()),
        ]
    });
    Table::new(
        "fig4",
        [
            "Bench",
            "Kernel count",
            "PCI count",
            "Kernel cyc",
            "Avg kernel",
            "PCI cyc",
            "Avg PCI",
        ],
        rows,
    )
    .emit();
}

/// Figure 5: pipeline-stall breakdown.
pub fn fig5(scale: Scale) {
    println!("FIGURE 5: pipeline stall breakdown (% of stall cycles)\n");
    let rows = baseline_rows(scale, |r| {
        let stalls = &r.stats.sm.stalls;
        StallReason::ALL
            .map(|reason| pct(stalls.fraction(reason)))
            .to_vec()
    });
    let mut headers = vec!["Bench"];
    let names: Vec<&str> = StallReason::ALL.iter().map(|r| r.name()).collect();
    headers.extend(names);
    Table::new("fig5", headers, rows).emit();
}

/// Figure 6: SRAM utilization.
pub fn fig6(scale: Scale) {
    println!("FIGURE 6: utilization of SRAM structures (% of capacity)\n");
    let sm = GpuConfig::rtx3070().sm;
    let mut rows = Vec::new();
    for b in all_benchmarks(scale) {
        let u = sram_usage(b.as_ref(), &sm);
        rows.push(vec![
            b.abbrev().to_string(),
            format!("{}", u.resident_ctas),
            pct(u.registers),
            pct(u.shared),
            pct(u.constant),
        ]);
    }
    Table::new(
        "fig6",
        ["Bench", "CTAs/SM", "Registers %", "Shared %", "Constant %"],
        rows,
    )
    .emit();
}

/// Figure 7: NW and PairHMM with vs without shared memory.
pub fn fig7(scale: Scale) {
    println!("FIGURE 7: execution time without shared memory, normalized to with shared memory\n");
    let config = GpuConfig::rtx3070();
    let run = |b: &dyn Benchmark| {
        let r = b.run(&config, false);
        assert!(r.verified);
        r.kernel_cycles as f64
    };
    let nw = |smem| PairwiseBench::nw(scale, smem);
    let phmm = |smem| ggpu_kernels::pairhmm::PairHmmBench::new(scale, smem);
    let rows = vec![
        vec![
            "NW".into(),
            format!("{:.2}x", run(&nw(false)) / run(&nw(true))),
        ],
        vec![
            "PairHMM".into(),
            format!("{:.2}x", run(&phmm(false)) / run(&phmm(true))),
        ],
    ];
    Table::new("fig7", ["Bench", "slowdown without shared memory"], rows).emit();
}

/// Figure 8: instruction-type distribution.
pub fn fig8(scale: Scale) {
    println!("FIGURE 8: distribution of instruction types (% of issued instructions)\n");
    let rows = baseline_rows(scale, |r| {
        InstrClass::ALL
            .map(|c| pct(r.stats.sm.class_fraction(c)))
            .to_vec()
    });
    Table::new("fig8", ["Bench", "int", "fp", "ld/st", "sfu", "ctrl"], rows).emit();
}

/// Figure 9: memory-instruction space distribution.
pub fn fig9(scale: Scale) {
    println!("FIGURE 9: distribution of memory instruction types (% of memory instructions)\n");
    let rows = baseline_rows(scale, |r| {
        Space::ALL
            .map(|s| pct(r.stats.sm.space_fraction(s)))
            .to_vec()
    });
    Table::new(
        "fig9",
        [
            "Bench", "shared", "tex", "const", "param", "local", "global",
        ],
        rows,
    )
    .emit();
}

/// Figure 10: warp-occupancy histogram (8 buckets of 4 lanes).
pub fn fig10(scale: Scale) {
    println!("FIGURE 10: warp occupancy (% of issues per active-lane bucket)\n");
    let rows = baseline_rows(scale, |r| {
        (0..8u32)
            .map(|bucket| {
                pct(r
                    .stats
                    .sm
                    .occupancy_fraction(bucket * 4 + 1, bucket * 4 + 4))
            })
            .collect()
    });
    Table::new(
        "fig10",
        [
            "Bench", "W1-4", "W5-8", "W9-12", "W13-16", "W17-20", "W21-24", "W25-28", "W29-32",
        ],
        rows,
    )
    .emit();
}

/// Generic sweep: per-benchmark speedup (baseline kernel cycles / config
/// kernel cycles) for a list of named configurations. A cell whose kernel
/// cannot be resident under its configuration (no SM can hold one CTA, so
/// the launch would be refused) reads `n/a`, as does its row's speedup
/// when the baseline is such a cell.
fn sweep(scale: Scale, configs: &[(String, GpuConfig)], baseline_idx: usize) -> Vec<Vec<String>> {
    let benches = all_benchmarks(scale);
    let variants = benches.iter().flat_map(|b| [(b, false), (b, true)]);
    variant_labels()
        .into_iter()
        .zip(variants)
        .map(|(label, (b, cdp))| {
            let cycles: Vec<Option<u64>> = configs
                .iter()
                .map(|(_, config)| {
                    let resident = sram_usage(b.as_ref(), &config.sm).resident_ctas > 0;
                    resident.then(|| {
                        let r = b.run(config, cdp);
                        assert!(r.verified, "{label} failed functional validation");
                        r.kernel_cycles.max(1)
                    })
                })
                .collect();
            let cells = cycles.iter().map(|&c| match (cycles[baseline_idx], c) {
                (Some(base), Some(c)) => format!("{:.3}", base as f64 / c as f64),
                _ => "n/a".to_string(),
            });
            std::iter::once(label).chain(cells).collect()
        })
        .collect()
}

/// Header row of a configuration sweep: `Bench` then one column per config.
fn sweep_headers(configs: &[(String, GpuConfig)]) -> Vec<String> {
    let mut headers = vec!["Bench".to_string()];
    headers.extend(configs.iter().map(|(n, _)| n.clone()));
    headers
}

/// Run [`sweep`] and emit it as table `name`.
fn emit_sweep(name: &str, scale: Scale, configs: &[(String, GpuConfig)], baseline_idx: usize) {
    let rows = sweep(scale, configs, baseline_idx);
    Table::new(name, sweep_headers(configs), rows).emit();
}

/// Figure 11: CTA-per-core scaling (25/50/100/150/200% of resources).
pub fn fig11(scale: Scale) {
    println!("FIGURE 11: speedup when scaling SM resources (CTAs/threads/regs/smem)\n");
    let configs: Vec<(String, GpuConfig)> = [25u32, 50, 100, 150, 200]
        .iter()
        .map(|&p| (format!("{p}%"), GpuConfig::rtx3070().with_cta_scale(p)))
        .collect();
    emit_sweep("fig11", scale, &configs, 2);
}

/// The cache-size sweep shared by Figures 12-14.
fn cache_configs() -> Vec<(String, GpuConfig)> {
    [
        ("0K+128K", 0u64, 128 * 1024u64),
        ("32K+512K", 32 * 1024, 512 * 1024),
        ("128K+4M", 128 * 1024, 4 * 1024 * 1024),
        ("256K+8M", 256 * 1024, 8 * 1024 * 1024),
        ("512K+16M", 512 * 1024, 16 * 1024 * 1024),
        ("4M+128M", 4 * 1024 * 1024, 128 * 1024 * 1024),
    ]
    .iter()
    .map(|&(name, l1, l2)| {
        (
            name.to_string(),
            GpuConfig::rtx3070().with_cache_sizes(l1, l2),
        )
    })
    .collect()
}

/// Figure 12: speedup across cache configurations (baseline 128K+4M).
pub fn fig12(scale: Scale) {
    println!("FIGURE 12: speedup vs cache sizes (normalized to 128KB L1 + 4MB L2)\n");
    let configs = cache_configs();
    emit_sweep("fig12", scale, &configs, 2);
}

/// Figures 13 and 14: L1 and L2 miss rates across the cache sweep.
pub fn fig13_14(scale: Scale) {
    println!("FIGURE 13/14: L1 and L2 miss rates (%) across cache configurations\n");
    let configs = cache_configs();
    let labels = variant_labels();
    let mut l1_rows: Vec<Vec<String>> = labels.iter().map(|l| vec![l.clone()]).collect();
    let mut l2_rows = l1_rows.clone();
    for (_, config) in &configs {
        let results = run_all_variants(scale, config);
        check(&results);
        for (i, (_, r)) in results.iter().enumerate() {
            l1_rows[i].push(pct(r.stats.l1.miss_rate()));
            l2_rows[i].push(pct(r.stats.l2.miss_rate()));
        }
    }
    let headers = sweep_headers(&configs);
    println!("L1 miss rate (Figure 13):");
    Table::new("fig13", headers.clone(), l1_rows).emit();
    println!("L2 miss rate (Figure 14):");
    Table::new("fig14", headers, l2_rows).emit();
}

/// Figure 15: perfect-memory speedup.
pub fn fig15(scale: Scale) {
    println!("FIGURE 15: speedup with a perfect (zero-latency) memory system\n");
    let base = GpuConfig::rtx3070();
    let mut perfect = GpuConfig::rtx3070();
    perfect.sm.perfect_memory = true;
    let configs = vec![
        ("baseline".to_string(), base),
        ("perfect".to_string(), perfect),
    ];
    let rows = sweep(scale, &configs, 0);
    let mut avg = 0.0;
    for row in &rows {
        avg += row[2].parse::<f64>().unwrap_or(1.0);
    }
    let mut rows = rows;
    rows.push(vec![
        "AVG".into(),
        String::new(),
        format!("{:.3}", avg / variant_labels().len() as f64),
    ]);
    Table::new(
        "fig15",
        ["Bench", "baseline", "perfect-memory speedup"],
        rows,
    )
    .emit();
}

/// Figures 16-18: memory-controller sweep + DRAM efficiency/utilization.
pub fn fig16_17_18(scale: Scale) {
    println!("FIGURE 16: speedup per memory controller (vs FR-FCFS baseline)");
    println!("FIGURE 17: DRAM efficiency (%)   FIGURE 18: DRAM utilization (%)\n");
    let mk = |sched: DramScheduler| {
        let mut c = GpuConfig::rtx3070();
        c.dram.scheduler = sched;
        c
    };
    let configs = vec![
        ("FR-FCFS".to_string(), mk(DramScheduler::FrFcfs)),
        ("FIFO".to_string(), mk(DramScheduler::Fifo)),
        ("OoO-128".to_string(), {
            let mut c = mk(DramScheduler::OoO(128));
            c.dram.queue_size = 128;
            c
        }),
    ];
    let labels = variant_labels();
    let mut rows: Vec<Vec<String>> = labels.iter().map(|l| vec![l.clone()]).collect();
    let mut base_cycles = vec![0u64; labels.len()];
    for (ci, (_, config)) in configs.iter().enumerate() {
        let results = run_all_variants(scale, config);
        check(&results);
        for (i, (_, r)) in results.iter().enumerate() {
            if ci == 0 {
                base_cycles[i] = r.kernel_cycles.max(1);
            }
            rows[i].push(format!(
                "{:.3}",
                base_cycles[i] as f64 / r.kernel_cycles.max(1) as f64
            ));
            rows[i].push(pct(r.stats.dram.efficiency()));
            rows[i].push(pct(r.stats.dram_utilization()));
        }
    }
    let mut headers = vec!["Bench".to_string()];
    for (n, _) in &configs {
        headers.push(format!("{n} spd"));
        headers.push(format!("{n} eff%"));
        headers.push(format!("{n} util%"));
    }
    Table::new("fig16_17_18", headers, rows).emit();
}

/// Figure 19: warp-scheduler sweep.
pub fn fig19(scale: Scale) {
    println!("FIGURE 19: scheduler performance (speedup vs LRR)\n");
    let mk = |policy: SchedPolicy| {
        let mut c = GpuConfig::rtx3070();
        c.sm.policy = policy;
        c
    };
    let configs = vec![
        ("LRR".to_string(), mk(SchedPolicy::Lrr)),
        ("GTO".to_string(), mk(SchedPolicy::Gto)),
        ("OLD".to_string(), mk(SchedPolicy::Old)),
        ("2LV".to_string(), mk(SchedPolicy::TwoLevel)),
    ];
    emit_sweep("fig19", scale, &configs, 0);
}

/// Figure 20: interconnect-topology sweep.
pub fn fig20(scale: Scale) {
    println!("FIGURE 20: interconnect topology (speedup vs local crossbar)\n");
    let mk = |t: Topology| {
        let mut c = GpuConfig::rtx3070();
        c.icnt.topology = t;
        c
    };
    let configs = vec![
        ("xbar".to_string(), mk(Topology::LocalXbar)),
        ("mesh".to_string(), mk(Topology::Mesh)),
        ("fattree".to_string(), mk(Topology::FatTree)),
        ("butterfly".to_string(), mk(Topology::Butterfly)),
    ];
    emit_sweep("fig20", scale, &configs, 0);
}

/// Figure 21: mesh router-latency sweep.
pub fn fig21(scale: Scale) {
    println!("FIGURE 21: mesh network latency (+0/4/8/16 cycle router delay, speedup vs +0)\n");
    let mk = |delay: u64| {
        let mut c = GpuConfig::rtx3070();
        c.icnt.topology = Topology::Mesh;
        c.icnt.router_delay = delay;
        c
    };
    let configs: Vec<(String, GpuConfig)> = [0u64, 4, 8, 16]
        .iter()
        .map(|&d| (format!("+{d}"), mk(d)))
        .collect();
    emit_sweep("fig21", scale, &configs, 0);
}

/// Figure 22: mesh channel-bandwidth sweep.
pub fn fig22(scale: Scale) {
    println!("FIGURE 22: mesh channel bandwidth (flit bytes, speedup vs 40B)\n");
    let mk = |flit: u32| {
        let mut c = GpuConfig::rtx3070();
        c.icnt.topology = Topology::Mesh;
        c.icnt.flit_bytes = flit;
        c
    };
    let configs: Vec<(String, GpuConfig)> = [40u32, 32, 16, 8]
        .iter()
        .map(|&f| (format!("{f}B"), mk(f)))
        .collect();
    emit_sweep("fig22", scale, &configs, 0);
}

/// Ablation: design choices called out in DESIGN.md.
///
/// * Local-memory interleaving (warp-interleaved vs contiguous per-thread
///   arenas) on the local-memory-heavy GASAL2-LOCAL benchmark.
/// * L1 caching of local stores (disable by shrinking L1 to zero).
pub fn ablation(scale: Scale) {
    println!("ABLATION: simulator design choices (GASAL2-LOCAL kernel cycles)\n");
    let b = ggpu_core::benchmark(scale, "GL").expect("GL exists");
    let base = GpuConfig::rtx3070();
    let mut no_interleave = GpuConfig::rtx3070();
    no_interleave.sm.interleave_local = false;
    let no_l1 = GpuConfig::rtx3070().with_cache_sizes(0, 4 * 1024 * 1024);
    let mut rows = Vec::new();
    let r0 = b.run(&base, false);
    assert!(r0.verified);
    for (name, cfg) in [
        ("baseline (interleaved local, 128KB L1)", &base),
        ("contiguous per-thread local arenas", &no_interleave),
        ("no L1 (local stores uncached)", &no_l1),
    ] {
        let r = b.run(cfg, false);
        assert!(r.verified, "{name}");
        rows.push(vec![
            name.to_string(),
            format!("{}", r.kernel_cycles),
            format!("{:.2}x", r.kernel_cycles as f64 / r0.kernel_cycles as f64),
            format!("{}", r.stats.sm.offchip_txns),
        ]);
    }
    Table::new(
        "ablation",
        ["Design point", "cycles", "slowdown", "off-chip txns"],
        rows,
    )
    .emit();
}

/// Extension: GASAL2 "with traceback" — the optional mode the paper lists
/// but does not characterize. Compares kernel cycles of the score-only
/// global aligner against the full-CIGAR traceback kernel.
pub fn extension_traceback(scale: Scale) {
    println!("EXTENSION: GASAL2 global alignment with full-CIGAR traceback\n");
    let config = GpuConfig::rtx3070();
    let bench = ggpu_kernels::traceback::TracebackBench::new(scale);
    let score_only = bench.run_score_only(&config);
    let tb = bench.run(&config);
    assert!(score_only.verified && tb.verified);
    let rows = vec![
        vec![
            "GG (score only)".to_string(),
            format!("{}", score_only.kernel_cycles),
            "1.00x".to_string(),
        ],
        vec![
            "GG-TB (with traceback)".to_string(),
            format!("{}", tb.kernel_cycles),
            format!(
                "{:.2}x",
                tb.kernel_cycles as f64 / score_only.kernel_cycles as f64
            ),
        ],
    ];
    Table::new("extension", ["Kernel", "cycles", "relative"], rows).emit();
}

/// Observability mode (`--json` / `--trace`): run every benchmark in both
/// non-CDP and CDP variants with interval sampling and event tracing
/// enabled, print a per-variant profile summary, and export the raw
/// profiles as machine-readable JSON:
///
/// * `results/profile_<scale>.json` — one [`ProfileReport`] per variant
///   (per-kernel counter deltas, interval samples, typed event list).
/// * `results/trace_<scale>.json` — a single Chrome-trace file with one
///   process row per variant; load it at <https://ui.perfetto.dev>.
///
/// Both documents are re-parsed with [`Json::parse`] before being written,
/// so an export that reaches disk is well-formed by construction.
pub fn profile(scale: Scale, write_json: bool, write_trace: bool) {
    println!("PROFILE: time-resolved per-kernel records, interval samples, event trace\n");
    let mut config = GpuConfig::rtx3070();
    config.sample_interval_cycles = 20_000;
    config.trace = true;
    let mut profiles: Vec<(String, ProfileReport)> = Vec::new();
    let mut rows = Vec::new();
    for b in all_benchmarks(scale) {
        for cdp in [false, true] {
            let label = if cdp {
                format!("{}-CDP", b.abbrev())
            } else {
                b.abbrev().to_string()
            };
            let r = b.run(&config, cdp);
            assert!(r.verified, "{label} failed functional validation");
            let p = *r.profile.expect("profiling enabled by config");
            let children = p.kernels.iter().filter(|k| k.is_cdp_child()).count();
            rows.push(vec![
                label.clone(),
                format!("{}", p.kernels.len()),
                format!("{children}"),
                format!("{}", p.samples.len()),
                format!("{}", p.events.len()),
                format!("{}", p.dropped_total()),
                format!("{:.3}", p.stats.ipc()),
            ]);
            profiles.push((label, p));
        }
    }
    Table::new(
        "profile",
        [
            "Bench",
            "kernels",
            "CDP children",
            "samples",
            "events",
            "dropped",
            "IPC",
        ],
        rows,
    )
    .emit();
    let tag = scale.tag();
    if write_json {
        let doc = JsonWriter::object(|w| {
            for (label, p) in &profiles {
                w.raw(label, &p.to_json());
            }
        });
        write_json_doc(&format!("profile_{tag}"), &doc);
    }
    if write_trace {
        let logs: Vec<(String, &[TraceEvent])> = profiles
            .iter()
            .map(|(label, p)| (label.clone(), p.events.as_slice()))
            .collect();
        let doc = chrome_trace_json(&logs, config.clock_ghz);
        if let Some(path) = write_json_doc(&format!("trace_{tag}"), &doc) {
            println!(
                "Open https://ui.perfetto.dev and load {} to view the timeline.",
                path.display()
            );
        }
    }
}

/// One experiment: its name and the function regenerating it.
pub type Experiment = (&'static str, fn(Scale));

/// Every experiment in paper order — the one table both `all` and name
/// lookup go through.
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1", |_| table1()),
    ("table2", |_| table2()),
    ("table3", table3),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13_14", fig13_14),
    ("fig15", fig15),
    ("fig16_17_18", fig16_17_18),
    ("fig19", fig19),
    ("fig20", fig20),
    ("fig21", fig21),
    ("fig22", fig22),
    ("ablation", ablation),
    ("extension", extension_traceback),
    ("profile", |scale| profile(scale, true, true)),
];

/// Run a named experiment (an [`EXPERIMENTS`] name, a single figure number
/// of a combined experiment such as `fig13`, or `all`). An unknown name
/// runs nothing and is returned as the error message.
pub fn run(name: &str, scale: Scale) -> Result<(), String> {
    if name == "all" {
        for (n, f) in EXPERIMENTS {
            println!("\n=== {n} ===\n");
            f(scale);
        }
        return Ok(());
    }
    let canonical = match name {
        "fig13" | "fig14" => "fig13_14",
        "fig16" | "fig17" | "fig18" => "fig16_17_18",
        n => n,
    };
    let (_, f) = EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == canonical)
        .ok_or_else(|| format!("unknown experiment: {name}"))?;
    f(scale);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sweep_cell_whose_kernel_cannot_be_resident_reads_na() {
        let need = PairwiseBench::nw(Scale::Tiny, true)
            .resources()
            .smem_per_cta;
        let mut config = GpuConfig::test_small();
        config.sm.smem_bytes = need - 1;
        let rows = sweep(Scale::Tiny, &[("smem".to_string(), config)], 0);
        let cell = |label: &str| {
            let row = rows.iter().find(|r| r[0] == label).expect(label);
            row[1].clone()
        };
        assert_eq!(cell("NW"), "n/a");
        assert_eq!(cell("NW-CDP"), "n/a");
        assert_eq!(cell("SW"), "1.000");
    }
}
