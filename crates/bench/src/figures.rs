//! Regeneration of every table and figure in the paper's evaluation.
//!
//! The figures read one matrix — ten benchmarks × {plain, CDP} × the
//! paper's configurations — so every experiment is a formatter over one
//! [`Runs`] ledger, which simulates and verifies each point once. Absolute
//! numbers differ from the paper's testbed (we simulate a scaled workload);
//! the *shape* — who wins, by what rough factor, where the crossovers are —
//! is what EXPERIMENTS.md tracks.

use std::rc::Rc;
use std::time::Instant;

use ggpu_icnt::Topology;
use ggpu_isa::{InstrClass, Space};
use ggpu_kernels::pairwise::PairwiseBench;
use ggpu_kernels::star::StarBench;
use ggpu_kernels::{all_benchmarks, BenchResult, Benchmark, Scale};
use ggpu_mem::{CacheConfig, DramScheduler};
use ggpu_sim::json::JsonWriter;
use ggpu_sim::{chrome_trace_json, GpuConfig, ProfileReport, TraceEvent};
use ggpu_sm::{SchedPolicy, StallReason, CONST_CACHE, TEX_CACHE};

use crate::export::{write_json_doc, Table};

/// The run ledger the experiments share: each (benchmark, CDP,
/// configuration) is simulated and verified once, on first use, and kept.
/// A run is a pure function of that key (DESIGN.md "`figures`: one run
/// ledger"), so a figure asking for a key another figure already ran reads
/// the kept result.
pub struct Runs {
    scale: Scale,
    /// The ten benchmarks at `scale`, built on first use.
    benches: Option<Vec<Box<dyn Benchmark>>>,
    /// (index into `benches`, CDP, configuration, result), found by a
    /// linear probe.
    results: Vec<(usize, bool, GpuConfig, Rc<BenchResult>)>,
}

impl Runs {
    /// An empty ledger at `scale`: nothing is built or simulated until an
    /// experiment asks for it.
    pub(crate) fn new(scale: Scale) -> Runs {
        Runs {
            scale,
            benches: None,
            results: Vec::new(),
        }
    }

    fn benches(&mut self) -> &[Box<dyn Benchmark>] {
        let scale = self.scale;
        self.benches.get_or_insert_with(|| all_benchmarks(scale))
    }

    /// Every benchmark variant in display order: its index, CDP, and label
    /// (`SW`, `SW-CDP`, ...).
    fn variants(&mut self) -> Vec<(usize, bool, String)> {
        let mut v = Vec::new();
        for (i, b) in self.benches().iter().enumerate() {
            v.push((i, false, b.abbrev().to_string()));
            v.push((i, true, format!("{}-CDP", b.abbrev())));
        }
        v
    }

    /// The verified result of benchmark `bench` (with CDP if `cdp`) under
    /// `config`, simulated now unless an experiment asked for it before.
    fn get(&mut self, bench: usize, cdp: bool, config: &GpuConfig) -> Rc<BenchResult> {
        if let Some((.., r)) = self
            .results
            .iter()
            .find(|(b, c, cfg, _)| (*b, *c) == (bench, cdp) && cfg == config)
        {
            return Rc::clone(r);
        }
        let b = &self.benches()[bench];
        let r = Rc::new(b.run(config, cdp));
        assert!(r.verified, "{} (cdp {cdp}) failed validation", b.abbrev());
        self.results
            .push((bench, cdp, config.clone(), Rc::clone(&r)));
        r
    }
}

/// One row per benchmark variant: its label, then `width` cells per entry
/// of `configs` from `cells(result, baseline)`, where `baseline` is the
/// variant's run under `configs[base]`. A variant whose kernel cannot be
/// resident under a configuration (no SM can hold one CTA, so the launch
/// would be refused) reads `n/a` in that configuration's cells — and in
/// all of them when the baseline is such a configuration. An `n/a` cell is
/// never simulated.
fn sweep(
    runs: &mut Runs,
    configs: &[GpuConfig],
    base: usize,
    width: usize,
    cells: impl Fn(&BenchResult, &BenchResult) -> Vec<String>,
) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for (bench, cdp, label) in runs.variants() {
        let b = runs.benches()[bench].as_ref();
        let resident: Vec<bool> = configs
            .iter()
            .map(|c| b.resources().sram_usage(&c.sm).resident_ctas > 0)
            .collect();
        let mut row = vec![label];
        for (config, ok) in configs.iter().zip(&resident) {
            if *ok && resident[base] {
                let baseline = runs.get(bench, cdp, &configs[base]);
                row.extend(cells(&runs.get(bench, cdp, config), &baseline));
            } else {
                row.extend(vec!["n/a".to_string(); width]);
            }
        }
        rows.push(row);
    }
    rows
}

/// Baseline kernel cycles over `r`'s: the speedup every sweep figure plots.
fn speedup(r: &BenchResult, baseline: &BenchResult) -> Vec<String> {
    let cycles = |r: &BenchResult| r.kernel_cycles.max(1) as f64;
    vec![format!("{:.3}", cycles(baseline) / cycles(r))]
}

/// [`sweep`] over the baseline configuration alone (Figures 3-10).
fn baseline_rows(
    runs: &mut Runs,
    width: usize,
    cells: impl Fn(&BenchResult) -> Vec<String>,
) -> Vec<Vec<String>> {
    sweep(runs, &[GpuConfig::rtx3070()], 0, width, |r, _| cells(r))
}

/// A fraction rendered as a percentage with one decimal.
fn pct(fraction: f64) -> String {
    format!("{:.1}", fraction * 100.0)
}

/// A fixed cache's Table I row: capacity, associativity, line size.
fn cache_geometry(c: CacheConfig) -> String {
    format!(
        "{}KB ({}-way, {}B lines, LRU)",
        c.bytes / 1024,
        c.ways,
        c.line
    )
}

/// Table I: hardware configuration space (baseline bolded in the paper).
pub(crate) fn table1() {
    let c = GpuConfig::rtx3070();
    println!("TABLE I: Hardware configuration settings\n");
    let rows = vec![
        vec!["Shader Cores".into(), format!("{}", c.n_sms)],
        vec!["Warp Size".into(), "32".into()],
        vec![
            "Constant Cache Size / Core".into(),
            cache_geometry(CONST_CACHE),
        ],
        vec![
            "Texture Cache Size / Core".into(),
            cache_geometry(TEX_CACHE),
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
pub(crate) fn table2() {
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
pub(crate) fn table3(runs: &mut Runs) {
    println!("TABLE III: Benchmark properties (paper launch shapes; simulated workloads are scaled per DESIGN.md)\n");
    let sm = GpuConfig::rtx3070().sm;
    let mut rows = Vec::new();
    for b in runs.benches() {
        let t = b.table3();
        let u = b.resources().sram_usage(&sm);
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
pub(crate) fn fig2(runs: &mut Runs) {
    println!("FIGURE 2: CPU vs GPU vs GPU+CDP execution time (normalized to CPU = 1.0)\n");
    let config = GpuConfig::rtx3070();
    let sw = PairwiseBench::sw(runs.scale);
    let nw = PairwiseBench::nw(runs.scale, true);
    let star = StarBench::new(runs.scale);
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
        let gpu_s = gpu.stats.seconds();
        let cdp_s = gpu_cdp.stats.seconds();
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
pub(crate) fn fig3(runs: &mut Runs) {
    println!("FIGURE 3: CDP vs non-CDP kernel execution time\n");
    let cycles = baseline_rows(runs, 1, |r| vec![r.kernel_cycles.to_string()]);
    let mut rows = Vec::new();
    let mut improvements = Vec::new();
    for pair in cycles.chunks(2) {
        let [plain, cdp] = [&pair[0][1], &pair[1][1]].map(|c| c.parse::<f64>().expect(c));
        let imp = 1.0 - cdp / plain;
        improvements.push(imp);
        rows.push(vec![
            pair[0][0].clone(),
            pair[0][1].clone(),
            pair[1][1].clone(),
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
pub(crate) fn fig4(runs: &mut Runs) {
    println!("FIGURE 4(a): kernel and PCI (cudaMemcpy) invocation counts");
    println!("FIGURE 4(b): total and average kernel / PCI time (cycles)\n");
    let rows = baseline_rows(runs, 6, |r| {
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
pub(crate) fn fig5(runs: &mut Runs) {
    println!("FIGURE 5: pipeline stall breakdown (% of stall cycles)\n");
    let rows = baseline_rows(runs, StallReason::ALL.len(), |r| {
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
pub(crate) fn fig6(runs: &mut Runs) {
    println!("FIGURE 6: utilization of SRAM structures (% of capacity)\n");
    let sm = GpuConfig::rtx3070().sm;
    let mut rows = Vec::new();
    for b in runs.benches() {
        let u = b.resources().sram_usage(&sm);
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
pub(crate) fn fig7(runs: &mut Runs) {
    println!("FIGURE 7: execution time without shared memory, normalized to with shared memory\n");
    let config = GpuConfig::rtx3070();
    let run = |b: &dyn Benchmark| {
        let r = b.run(&config, false);
        assert!(r.verified);
        r.kernel_cycles as f64
    };
    let scale = runs.scale;
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
pub(crate) fn fig8(runs: &mut Runs) {
    println!("FIGURE 8: distribution of instruction types (% of issued instructions)\n");
    let rows = baseline_rows(runs, InstrClass::ALL.len(), |r| {
        InstrClass::ALL
            .map(|c| pct(r.stats.sm.class_fraction(c)))
            .to_vec()
    });
    Table::new("fig8", ["Bench", "int", "fp", "ld/st", "sfu", "ctrl"], rows).emit();
}

/// Figure 9: memory-instruction space distribution.
pub(crate) fn fig9(runs: &mut Runs) {
    println!("FIGURE 9: distribution of memory instruction types (% of memory instructions)\n");
    let rows = baseline_rows(runs, Space::ALL.len(), |r| {
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
pub(crate) fn fig10(runs: &mut Runs) {
    println!("FIGURE 10: warp occupancy (% of issues per active-lane bucket)\n");
    let rows = baseline_rows(runs, 8, |r| {
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

/// A configuration list with its column names.
type Named = Vec<(String, GpuConfig)>;

/// The header row (`Bench`, then each configuration's name) and the
/// configurations of `named`.
fn split(named: Named) -> (Vec<String>, Vec<GpuConfig>) {
    let (names, configs): (Vec<String>, _) = named.into_iter().unzip();
    (
        std::iter::once("Bench".into()).chain(names).collect(),
        configs,
    )
}

/// Emit the [`speedup`] sweep over `named` as table `name`.
fn emit_sweep(runs: &mut Runs, name: &str, named: Named, base: usize) {
    let (headers, configs) = split(named);
    let rows = sweep(runs, &configs, base, 1, speedup);
    Table::new(name, headers, rows).emit();
}

/// Figure 11: CTA-per-core scaling (25/50/100/150/200% of resources).
pub(crate) fn fig11(runs: &mut Runs) {
    println!("FIGURE 11: speedup when scaling SM resources (CTAs/threads/regs/smem)\n");
    let configs = [25u32, 50, 100, 150, 200]
        .iter()
        .map(|&p| (format!("{p}%"), GpuConfig::rtx3070().with_cta_scale(p)))
        .collect();
    emit_sweep(runs, "fig11", configs, 2);
}

/// The cache-size sweep shared by Figures 12-14.
fn cache_configs() -> Named {
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
pub(crate) fn fig12(runs: &mut Runs) {
    println!("FIGURE 12: speedup vs cache sizes (normalized to 128KB L1 + 4MB L2)\n");
    emit_sweep(runs, "fig12", cache_configs(), 2);
}

/// Figures 13 and 14: L1 and L2 miss rates across the cache sweep.
pub(crate) fn fig13_14(runs: &mut Runs) {
    println!("FIGURE 13/14: L1 and L2 miss rates (%) across cache configurations\n");
    let (headers, configs) = split(cache_configs());
    let l1 = sweep(runs, &configs, 2, 1, |r, _| {
        vec![pct(r.stats.l1.miss_rate())]
    });
    let l2 = sweep(runs, &configs, 2, 1, |r, _| {
        vec![pct(r.stats.l2.miss_rate())]
    });
    println!("L1 miss rate (Figure 13):");
    Table::new("fig13", headers.clone(), l1).emit();
    println!("L2 miss rate (Figure 14):");
    Table::new("fig14", headers, l2).emit();
}

/// Figure 15: perfect-memory speedup.
pub(crate) fn fig15(runs: &mut Runs) {
    println!("FIGURE 15: speedup with a perfect (zero-latency) memory system\n");
    let mut perfect = GpuConfig::rtx3070();
    perfect.sm.perfect_memory = true;
    let mut rows = sweep(runs, &[GpuConfig::rtx3070(), perfect], 0, 1, speedup);
    let avg = rows
        .iter()
        .map(|row| row[2].parse::<f64>().unwrap_or(1.0))
        .sum::<f64>()
        / rows.len() as f64;
    rows.push(vec!["AVG".into(), String::new(), format!("{avg:.3}")]);
    Table::new(
        "fig15",
        ["Bench", "baseline", "perfect-memory speedup"],
        rows,
    )
    .emit();
}

/// Figures 16-18: memory-controller sweep + DRAM efficiency/utilization.
pub(crate) fn fig16_17_18(runs: &mut Runs) {
    println!("FIGURE 16: speedup per memory controller (vs FR-FCFS baseline)");
    println!("FIGURE 17: DRAM efficiency (%)   FIGURE 18: DRAM utilization (%)\n");
    let mk = |sched: DramScheduler| {
        let mut c = GpuConfig::rtx3070();
        c.dram.scheduler = sched;
        c
    };
    let mut ooo = mk(DramScheduler::OoO(128));
    ooo.dram.queue_size = 128;
    let configs = [mk(DramScheduler::FrFcfs), mk(DramScheduler::Fifo), ooo];
    let rows = sweep(runs, &configs, 0, 3, |r, baseline| {
        let mut cells = speedup(r, baseline);
        cells.push(pct(r.stats.dram.efficiency()));
        cells.push(pct(r.stats.dram_utilization()));
        cells
    });
    let mut headers = vec!["Bench".to_string()];
    for n in ["FR-FCFS", "FIFO", "OoO-128"] {
        headers.push(format!("{n} spd"));
        headers.push(format!("{n} eff%"));
        headers.push(format!("{n} util%"));
    }
    Table::new("fig16_17_18", headers, rows).emit();
}

/// Figure 19: warp-scheduler sweep.
pub(crate) fn fig19(runs: &mut Runs) {
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
    emit_sweep(runs, "fig19", configs, 0);
}

/// Figure 20: interconnect-topology sweep.
pub(crate) fn fig20(runs: &mut Runs) {
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
    emit_sweep(runs, "fig20", configs, 0);
}

/// Figure 21: mesh router-latency sweep.
pub(crate) fn fig21(runs: &mut Runs) {
    println!("FIGURE 21: mesh network latency (+0/4/8/16 cycle router delay, speedup vs +0)\n");
    let mk = |delay: u64| {
        let mut c = GpuConfig::rtx3070();
        c.icnt.topology = Topology::Mesh;
        c.icnt.router_delay = delay;
        c
    };
    let configs = [0u64, 4, 8, 16]
        .iter()
        .map(|&d| (format!("+{d}"), mk(d)))
        .collect();
    emit_sweep(runs, "fig21", configs, 0);
}

/// Figure 22: mesh channel-bandwidth sweep.
pub(crate) fn fig22(runs: &mut Runs) {
    println!("FIGURE 22: mesh channel bandwidth (flit bytes, speedup vs 40B)\n");
    let mk = |flit: u32| {
        let mut c = GpuConfig::rtx3070();
        c.icnt.topology = Topology::Mesh;
        c.icnt.flit_bytes = flit;
        c
    };
    let configs = [40u32, 32, 16, 8]
        .iter()
        .map(|&f| (format!("{f}B"), mk(f)))
        .collect();
    emit_sweep(runs, "fig22", configs, 0);
}

/// Ablation: design choices called out in DESIGN.md.
///
/// * Local-memory interleaving (warp-interleaved vs contiguous per-thread
///   arenas) on the local-memory-heavy GASAL2-LOCAL benchmark.
/// * L1 caching of local stores (disable by shrinking L1 to zero).
pub(crate) fn ablation(runs: &mut Runs) {
    println!("ABLATION: simulator design choices (GASAL2-LOCAL kernel cycles)\n");
    let gl = runs.benches().iter().position(|b| b.abbrev() == "GL");
    let gl = gl.expect("GL exists");
    let base = GpuConfig::rtx3070();
    let mut no_interleave = GpuConfig::rtx3070();
    no_interleave.sm.interleave_local = false;
    let no_l1 = GpuConfig::rtx3070().with_cache_sizes(0, 4 * 1024 * 1024);
    let r0 = runs.get(gl, false, &base);
    let mut rows = Vec::new();
    for (name, cfg) in [
        ("baseline (interleaved local, 128KB L1)", &base),
        ("contiguous per-thread local arenas", &no_interleave),
        ("no L1 (local stores uncached)", &no_l1),
    ] {
        let r = runs.get(gl, false, cfg);
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
pub(crate) fn extension_traceback(runs: &mut Runs) {
    println!("EXTENSION: GASAL2 global alignment with full-CIGAR traceback\n");
    let config = GpuConfig::rtx3070();
    let bench = ggpu_kernels::traceback::TracebackBench::new(runs.scale);
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

/// The profile a profiled run carries.
fn profile_of(r: &BenchResult) -> &ProfileReport {
    r.profile.as_deref().expect("profiling enabled by config")
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
pub(crate) fn profile(runs: &mut Runs, write_json: bool, write_trace: bool) {
    println!("PROFILE: time-resolved per-kernel records, interval samples, event trace\n");
    let mut config = GpuConfig::rtx3070();
    config.sample_interval_cycles = 20_000;
    config.trace = true;
    let rows = sweep(runs, std::slice::from_ref(&config), 0, 6, |r, _| {
        let p = profile_of(r);
        let children = p.kernels.iter().filter(|k| k.is_cdp_child()).count();
        vec![
            format!("{}", p.kernels.len()),
            format!("{children}"),
            format!("{}", p.samples.len()),
            format!("{}", p.events.len()),
            format!("{}", p.dropped_total()),
            format!("{:.3}", p.stats.ipc()),
        ]
    });
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
    let profiles: Vec<(String, Rc<BenchResult>)> = runs
        .variants()
        .into_iter()
        .map(|(bench, cdp, label)| (label, runs.get(bench, cdp, &config)))
        .collect();
    let tag = runs.scale.tag();
    if write_json {
        let doc = JsonWriter::object(|w| {
            for (label, r) in &profiles {
                w.raw(label, &profile_of(r).to_json());
            }
        });
        write_json_doc(&format!("profile_{tag}"), &doc);
    }
    if write_trace {
        let logs: Vec<(String, &[TraceEvent])> = profiles
            .iter()
            .map(|(label, r)| (label.clone(), profile_of(r).events.as_slice()))
            .collect();
        let doc = chrome_trace_json(&logs);
        if let Some(path) = write_json_doc(&format!("trace_{tag}"), &doc) {
            println!(
                "Open https://ui.perfetto.dev and load {} to view the timeline.",
                path.display()
            );
        }
    }
}

/// One experiment: its name and the function formatting it from the ledger.
pub(crate) type Experiment = (&'static str, fn(&mut Runs));

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
    ("profile", |runs| profile(runs, true, true)),
];

/// Run the experiments `names` select — [`EXPERIMENTS`] names, a single
/// figure of a combined experiment such as `fig13`, or `all` — over one
/// ledger at `scale`, after the `profile` export when `json` or `trace`
/// asks for it. Every name is resolved first: an unknown one runs nothing
/// and is returned as the error message.
pub fn run(names: &[String], scale: Scale, json: bool, trace: bool) -> Result<(), String> {
    let mut todo = Vec::new();
    for name in names {
        if name == "all" {
            todo.extend(EXPERIMENTS.iter().map(|e| (true, e)));
            continue;
        }
        let canonical = match name.as_str() {
            "fig13" | "fig14" => "fig13_14",
            "fig16" | "fig17" | "fig18" => "fig16_17_18",
            n => n,
        };
        let e = EXPERIMENTS
            .iter()
            .find(|(n, _)| *n == canonical)
            .ok_or_else(|| format!("unknown experiment: {name}"))?;
        todo.push((false, e));
    }
    let mut runs = Runs::new(scale);
    if json || trace {
        profile(&mut runs, json, trace);
    }
    for (banner, (name, f)) in todo {
        if banner {
            println!("\n=== {name} ===\n");
        }
        f(&mut runs);
    }
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
        let mut runs = Runs::new(Scale::Tiny);
        let rows = sweep(&mut runs, &[config], 0, 1, speedup);
        let cell = |label: &str| {
            let row = rows.iter().find(|r| r[0] == label).expect(label);
            row[1].clone()
        };
        assert_eq!(cell("NW"), "n/a");
        assert_eq!(cell("NW-CDP"), "n/a");
        assert_eq!(cell("SW"), "1.000");
        let simulated = rows.iter().filter(|r| r[1] != "n/a").count();
        assert_eq!(runs.results.len(), simulated, "an n/a cell was simulated");
    }

    #[test]
    fn sweeps_that_share_a_config_simulate_it_once() {
        let small = GpuConfig::test_small();
        let mut fifo = small.clone();
        fifo.dram.scheduler = DramScheduler::Fifo;
        let mut gto = small.clone();
        gto.sm.policy = SchedPolicy::Gto;
        // Two cheap benchmarks keep this a unit test; the ledger does not
        // care how many it holds.
        let mut runs = Runs::new(Scale::Tiny);
        runs.benches = Some(vec![
            Box::new(PairwiseBench::sw(Scale::Tiny)),
            Box::new(PairwiseBench::gasal_global(Scale::Tiny)),
        ]);
        let cycles = |r: &BenchResult, _: &BenchResult| vec![r.kernel_cycles.to_string()];
        let a = sweep(&mut runs, &[small.clone(), fifo], 0, 1, cycles);
        let b = sweep(&mut runs, &[gto, small], 1, 1, cycles);
        assert_eq!(runs.results.len(), 4 * 3, "one entry per (variant, config)");
        for (i, (b1, c1, cfg1, _)) in runs.results.iter().enumerate() {
            for (b2, c2, cfg2, _) in &runs.results[..i] {
                assert!(
                    (b1, c1, cfg1) != (b2, c2, cfg2),
                    "a key was simulated twice"
                );
            }
        }
        for (a, b) in a.iter().zip(&b) {
            assert_eq!(a[0], b[0]);
            assert_eq!(a[1], b[2], "{}: the shared column differs", a[0]);
        }
    }
}
