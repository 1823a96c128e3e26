//! `ggpu-prof` — the attribution profiler CLI.
//!
//! Resolves the simulator's counters along two axes and renders both:
//!
//! * **Code axis** — per-PC counters (issues, stall cycles, L1 traffic,
//!   memory divergence, replays) symbolicated into an annotated listing
//!   per kernel, nvprof-style.
//! * **Space axis** — per-SM, per-L2-slice, per-DRAM-channel/bank and
//!   per-network-endpoint counters, rendered as text heatmaps.
//!
//! ```text
//! ggpu-prof <WORKLOAD> [--scale tiny|small|paper] [--cdp] [--top N]
//! ggpu-prof SW --scale tiny            # annotated listing + heatmaps
//! ggpu-prof diff a.json b.json [--limit N]
//! ```
//!
//! The run mode executes one suite workload with per-PC attribution on,
//! prints the annotated listings and unit heatmaps, and writes
//! `results/prof_<workload>.json` (the full [`ProfileReport`] plus run
//! metadata) and heatmap CSVs (`prof_<workload>_sm.csv`,
//! `prof_<workload>_mem.csv`, `prof_<workload>_banks.csv`). Override the
//! output directory with `GGPU_RESULTS_DIR`.
//!
//! The diff mode compares any two JSON exports leaf-by-leaf and reports
//! numeric counter deltas, largest first — for before/after runs of the
//! same workload, or any two files the suite emits.

use std::collections::HashMap;

use ggpu_bench::cli::{self, Args};
use ggpu_bench::export::{render_table, write_json_doc, Table};
use ggpu_kernels::{benchmark, Scale, BENCHMARKS};
use ggpu_sim::json::{Json, JsonWriter};
use ggpu_sim::{
    GpuConfig, KernelPcProfile, PcProfile, ProfileReport, RunStats, StallBreakdown, StallReason,
    UnitProfile,
};

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let diff = argv.first().is_some_and(|a| a == "diff");
    if diff {
        argv.remove(0);
    }
    let args = Args::new(
        argv,
        format!(
            "usage: ggpu-prof <WORKLOAD> [--scale tiny|small|paper] [--cdp] [--top N]\n\
             \u{20}      ggpu-prof diff <a.json> <b.json> [--limit N]\n\
             workloads: {}",
            BENCHMARKS.join(" ")
        ),
    );
    std::process::exit(if diff {
        diff_main(args)
    } else {
        run_main(args)
    });
}

// ---- run mode --------------------------------------------------------------

fn run_main(mut args: Args) -> i32 {
    let mut scale = Scale::Tiny;
    let mut workload: Option<String> = None;
    let mut cdp = false;
    let mut top = 8usize;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => scale = args.value(Scale::from_tag),
            "--cdp" => cdp = true,
            "--top" => top = args.value(cli::positive),
            w if workload.is_none() && !w.starts_with('-') => workload = Some(a),
            _ => args.usage(),
        }
    }
    let Some(workload) = workload else {
        args.usage()
    };
    let Some(abbrev) = BENCHMARKS
        .iter()
        .find(|b| b.eq_ignore_ascii_case(&workload))
    else {
        eprintln!(
            "unknown workload `{workload}`; expected one of: {}",
            BENCHMARKS.join(" ")
        );
        return 2;
    };

    let mut config = GpuConfig::rtx3070().with_attribution(true);
    config.sample_interval_cycles = 20_000;
    let bench = benchmark(scale, abbrev).expect("abbrev came from BENCHMARKS");
    let r = bench.run(&config, cdp);
    let profile = *r
        .profile
        .expect("attribution enables profiling, so a profile is always present");

    let tag = if cdp {
        format!("{}_cdp", abbrev.to_lowercase())
    } else {
        abbrev.to_lowercase()
    };
    println!(
        "ggpu-prof: {} ({}), cdp={}\n{}\n",
        abbrev,
        scale.tag(),
        cdp,
        r.detail
    );
    println!(
        "cycles={}  IPC={:.3}  verified={}\n",
        r.kernel_cycles,
        r.stats.ipc(),
        r.verified
    );

    let pc = profile.pc.as_ref().expect("attribution was on");
    for k in &pc.kernels {
        print_listing(k, top);
    }
    print_unattributed(pc);
    print_sm_heatmap(&profile.units);
    print_mem_heatmap(&profile.units);

    // Truncated observability is never silent (and ggpu-prof itself keeps
    // tracing off, so only sample drops can occur here).
    if profile.dropped_total() > 0 {
        println!(
            "WARNING: profile truncated: {} interval samples and {} trace events dropped",
            profile.samples_dropped, profile.events_dropped
        );
    } else {
        println!("profile complete: 0 samples dropped, 0 events dropped");
    }

    write_outputs(&tag, abbrev, scale, cdp, &r.stats, &profile);
    if !r.verified {
        eprintln!("WARNING: {abbrev} failed functional validation");
        return 1;
    }
    0
}

/// Annotated listing for one kernel: every PC with its counters, the
/// hottest `top` PCs flagged by stall share.
fn print_listing(k: &KernelPcProfile, top: usize) {
    let issues = k.total_issues();
    if issues == 0 {
        println!("== kernel {} `{}`: no activity\n", k.kernel_id, k.kernel);
        return;
    }
    let total_stalls: u64 = k.rows.iter().map(|r| r.counters.stalls.total()).sum();
    let mut hot: Vec<usize> = (0..k.rows.len()).collect();
    hot.sort_by_key(|&i| std::cmp::Reverse(k.rows[i].counters.stalls.total()));
    let hot: Vec<usize> = hot
        .into_iter()
        .take(top)
        .filter(|&i| k.rows[i].counters.stalls.total() > 0)
        .collect();
    let rows: Vec<Vec<String>> = k
        .rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let c = &r.counters;
            let stall = c.stalls.total();
            vec![
                if hot.contains(&i) {
                    "*".to_string()
                } else {
                    String::new()
                },
                format!("{}", r.pc),
                r.instr.clone(),
                format!("{}", c.issues),
                format!(
                    "{:.1}",
                    if c.issues == 0 {
                        0.0
                    } else {
                        c.lanes as f64 / c.issues as f64
                    }
                ),
                format!("{}", stall),
                top_stall(c.stalls),
                format!("{}", c.l1_accesses),
                format!("{:.1}", 100.0 * c.l1_miss_rate()),
                format!("{:.2}", c.avg_divergence()),
                format!("{}", c.replays),
                format!("{}", c.offchip_txns),
            ]
        })
        .collect();
    println!(
        "== kernel {} `{}`: {} issues, {} stall cycles (top {} PCs flagged *)",
        k.kernel_id,
        k.kernel,
        issues,
        total_stalls,
        hot.len()
    );
    println!(
        "{}",
        render_table(
            &[
                "",
                "pc",
                "instr",
                "issues",
                "lanes",
                "stall_cyc",
                "top_stall",
                "l1_acc",
                "l1_miss%",
                "div",
                "replays",
                "offchip",
            ],
            &rows
        )
    );
}

fn top_stall(s: StallBreakdown) -> String {
    StallReason::ALL
        .iter()
        .max_by_key(|&&r| s.get(r))
        .filter(|&&r| s.get(r) > 0)
        .map_or_else(String::new, |r| r.name().to_string())
}

fn print_unattributed(pc: &PcProfile) {
    let u = &pc.unattributed;
    if u.total() == 0 {
        return;
    }
    let parts: Vec<String> = StallReason::ALL
        .iter()
        .filter(|&&r| u.get(r) > 0)
        .map(|&r| format!("{}={}", r.name(), u.get(r)))
        .collect();
    println!(
        "unattributed stalls (idle SMs, launch overhead, dead warps): {} cycles ({})\n",
        u.total(),
        parts.join(", ")
    );
}

/// Proportional text bar for heatmaps.
fn bar(value: f64, max: f64) -> String {
    if max <= 0.0 {
        return String::new();
    }
    "#".repeat(((value / max) * 20.0).round() as usize)
}

fn print_sm_heatmap(units: &UnitProfile) {
    let max = units.sms.iter().map(|u| u.stats.issued).max().unwrap_or(0) as f64;
    let rows: Vec<Vec<String>> = units
        .sms
        .iter()
        .map(|u| {
            vec![
                format!("{}", u.sm),
                format!("{}", u.stats.issued),
                format!("{:.3}", u.stats.ipc()),
                format!("{:.1}", u.stats.avg_active_lanes()),
                format!(
                    "{:.1}",
                    100.0 * u.stats.stalls.fraction(StallReason::MemLatency)
                ),
                format!("{:.1}", 100.0 * u.l1.miss_rate()),
                format!("{}", u.req_injected),
                format!("{}", u.rep_delivered),
                bar(u.stats.issued as f64, max),
            ]
        })
        .collect();
    println!("== per-SM heatmap (issued warp-instructions)");
    println!(
        "{}",
        render_table(
            &[
                "sm",
                "issued",
                "ipc",
                "lanes",
                "mem_stall%",
                "l1_miss%",
                "req_pkts",
                "rep_pkts",
                "load"
            ],
            &rows
        )
    );
}

fn print_mem_heatmap(units: &UnitProfile) {
    let max = units
        .partitions
        .iter()
        .map(|p| p.dram.requests)
        .max()
        .unwrap_or(0) as f64;
    let rows: Vec<Vec<String>> = units
        .partitions
        .iter()
        .map(|p| {
            let banks_hot = p.banks.iter().filter(|&&(req, _)| req > 0).count();
            vec![
                format!("{}", p.partition),
                format!("{}", p.l2.accesses()),
                format!("{:.1}", 100.0 * p.l2.miss_rate()),
                format!("{}", p.dram.requests),
                format!("{:.1}", 100.0 * p.dram.row_hit_rate()),
                format!("{}/{}", banks_hot, p.banks.len()),
                format!("{}", p.req_delivered),
                format!("{}", p.rep_injected),
                bar(p.dram.requests as f64, max),
            ]
        })
        .collect();
    println!("== per-partition heatmap (L2 slice + DRAM channel)");
    println!(
        "{}",
        render_table(
            &[
                "part", "l2_acc", "l2_miss%", "dram_req", "row_hit%", "banks", "req_pkts",
                "rep_pkts", "load"
            ],
            &rows
        )
    );
}

// ---- exports ---------------------------------------------------------------

fn write_outputs(
    tag: &str,
    abbrev: &str,
    scale: Scale,
    cdp: bool,
    stats: &RunStats,
    profile: &ProfileReport,
) {
    let doc = JsonWriter::object(|w| {
        w.str("workload", abbrev)
            .str("scale", scale.tag())
            .bool("cdp", cdp)
            .f64("ipc", stats.ipc())
            .raw("profile", &profile.to_json());
    });
    write_json_doc(&format!("prof_{tag}"), &doc);

    let sm_rows: Vec<Vec<String>> = profile
        .units
        .sms
        .iter()
        .map(|u| {
            vec![
                format!("{}", u.sm),
                format!("{}", u.stats.cycles),
                format!("{}", u.stats.issued),
                format!("{}", u.stats.thread_instrs),
                format!("{}", u.stats.stalls.total()),
                format!("{}", u.stats.offchip_txns),
                format!("{}", u.l1.accesses()),
                format!("{}", u.l1.hits()),
                format!("{}", u.req_injected),
                format!("{}", u.rep_delivered),
            ]
        })
        .collect();
    Table::new(
        format!("prof_{tag}_sm"),
        [
            "sm",
            "cycles",
            "issued",
            "thread_instrs",
            "stall_cycles",
            "offchip_txns",
            "l1_accesses",
            "l1_hits",
            "req_injected",
            "rep_delivered",
        ],
        sm_rows,
    )
    .write_csv();

    let mem_rows: Vec<Vec<String>> = profile
        .units
        .partitions
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.partition),
                format!("{}", p.l2.accesses()),
                format!("{}", p.l2.hits()),
                format!("{}", p.dram.requests),
                format!("{}", p.dram.row_hits),
                format!("{}", p.dram.data_cycles),
                format!("{}", p.req_delivered),
                format!("{}", p.rep_injected),
            ]
        })
        .collect();
    Table::new(
        format!("prof_{tag}_mem"),
        [
            "partition",
            "l2_accesses",
            "l2_hits",
            "dram_requests",
            "dram_row_hits",
            "dram_data_cycles",
            "req_delivered",
            "rep_injected",
        ],
        mem_rows,
    )
    .write_csv();

    let bank_rows: Vec<Vec<String>> = profile
        .units
        .partitions
        .iter()
        .flat_map(|p| {
            p.banks.iter().enumerate().map(|(b, &(req, hits))| {
                vec![
                    format!("{}", p.partition),
                    format!("{b}"),
                    format!("{req}"),
                    format!("{hits}"),
                ]
            })
        })
        .collect();
    Table::new(
        format!("prof_{tag}_banks"),
        ["partition", "bank", "requests", "row_hits"],
        bank_rows,
    )
    .write_csv();
}

// ---- diff mode -------------------------------------------------------------

fn diff_main(mut args: Args) -> i32 {
    let mut paths = Vec::new();
    let mut limit = 40usize;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--limit" => limit = args.value(cli::positive),
            p if !p.starts_with('-') => paths.push(a),
            _ => args.usage(),
        }
    }
    if paths.len() != 2 {
        args.usage();
    }
    let load = |p: &str| -> Json {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            std::process::exit(2);
        });
        Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("{p} is not valid JSON: {e}");
            std::process::exit(2);
        })
    };
    let (a, b) = (load(&paths[0]), load(&paths[1]));
    let (mut la, mut lb) = (Vec::new(), Vec::new());
    collect_leaves(&a, String::new(), &mut la);
    collect_leaves(&b, String::new(), &mut lb);
    let ma: HashMap<&str, f64> = la.iter().map(|(p, v)| (p.as_str(), *v)).collect();
    let mb: HashMap<&str, f64> = lb.iter().map(|(p, v)| (p.as_str(), *v)).collect();

    // Changed leaves present in both documents, largest absolute delta first.
    let mut changed: Vec<(&str, f64, f64)> = la
        .iter()
        .filter_map(|(p, va)| {
            let vb = *mb.get(p.as_str())?;
            (vb != *va).then_some((p.as_str(), *va, vb))
        })
        .collect();
    changed.sort_by(|x, y| {
        (y.2 - y.1)
            .abs()
            .partial_cmp(&(x.2 - x.1).abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.0.cmp(y.0))
    });
    let only_a = la
        .iter()
        .filter(|(p, _)| !mb.contains_key(p.as_str()))
        .count();
    let only_b = lb
        .iter()
        .filter(|(p, _)| !ma.contains_key(p.as_str()))
        .count();

    println!(
        "diff {} vs {}: {} numeric leaves compared, {} changed ({} only in a, {} only in b)",
        paths[0],
        paths[1],
        la.len().min(lb.len()),
        changed.len(),
        only_a,
        only_b
    );
    if changed.is_empty() {
        println!("no counter changes.");
        return 0;
    }
    let rows: Vec<Vec<String>> = changed
        .iter()
        .take(limit)
        .map(|&(p, va, vb)| {
            let delta = vb - va;
            let rel = if va != 0.0 {
                format!("{:+.2}%", 100.0 * delta / va)
            } else {
                "from 0".to_string()
            };
            vec![
                p.to_string(),
                trim_num(va),
                trim_num(vb),
                trim_num(delta),
                rel,
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["counter", "a", "b", "delta", "rel"], &rows)
    );
    if changed.len() > limit {
        println!(
            "... and {} more (raise with --limit)",
            changed.len() - limit
        );
    }
    0
}

/// Collect every numeric leaf with a `a.b[3].c`-style path.
fn collect_leaves(v: &Json, path: String, out: &mut Vec<(String, f64)>) {
    match v {
        Json::Num(n) => out.push((path, *n)),
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                collect_leaves(item, format!("{path}[{i}]"), out);
            }
        }
        Json::Obj(fields) => {
            for (k, item) in fields {
                let child = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                collect_leaves(item, child, out);
            }
        }
        _ => {}
    }
}

/// Render a number without a trailing `.0` for integers.
fn trim_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}
