//! Time-resolved profiling: per-kernel counter scoping, interval samples,
//! and a structured event trace for one benchmark (Smith-Waterman), in
//! both the plain and the CDP (device-launch) variants.
//!
//! ```text
//! cargo run --release --example profiling
//! ```
//!
//! Exports two machine-readable files (both validated by re-parsing
//! before this example exits, so CI catches malformed output):
//!
//! * `results/profiling_stats.json` — the full [`ProfileReport`] per
//!   variant: end-of-run counters, per-kernel deltas, interval samples.
//! * `results/profiling_trace.json` — Chrome-trace timeline; load it at
//!   <https://ui.perfetto.dev> (one process row per variant, one thread
//!   row per CDP nesting depth).

use ggpu_kernels::{benchmark, Scale};
use ggpu_sim::json::{Json, JsonWriter};
use ggpu_sim::{chrome_trace_json, GpuConfig, ProfileReport, TraceEvent};

fn main() {
    // Profiling is opt-in: interval sampling via `sample_interval_cycles`,
    // the event timeline via `trace`. Both default to off, in which case
    // the simulator's counters are bit-identical to a non-profiled run.
    let mut config = GpuConfig::rtx3070();
    config.sample_interval_cycles = 10_000;
    config.trace = true;

    let bench = benchmark(Scale::Tiny, "SW").expect("SW is a suite benchmark");
    let mut profiles: Vec<(String, ProfileReport)> = Vec::new();
    for cdp in [false, true] {
        let label = if cdp { "SW-CDP" } else { "SW" }.to_string();
        let result = bench.run(&config, cdp);
        assert!(result.verified, "{label}: device output must match oracle");
        let profile = *result.profile.expect("profiling was enabled");

        println!("== {label} ==");
        println!(
            "per-kernel records ({} kernels, {} CDP children):",
            profile.kernels.len(),
            profile.kernels.iter().filter(|k| k.is_cdp_child()).count()
        );
        for k in &profile.kernels {
            let role = if k.is_cdp_child() {
                format!(
                    "child of grid {} (depth {})",
                    k.parent.expect("child"),
                    k.depth
                )
            } else {
                "host-launched".to_string()
            };
            println!(
                "  grid {:3} {:12} [{role}] launch={} start={} retire={} instrs={} ipc={:.3}",
                k.grid,
                k.kernel,
                k.launch_cycle,
                k.start_cycle,
                k.retire_cycle,
                k.stats.sm.issued,
                k.ipc(),
            );
        }
        println!(
            "interval samples: {} windows of {} cycles ({} dropped)",
            profile.samples.len(),
            config.sample_interval_cycles,
            profile.samples_dropped
        );
        for s in profile.samples.iter().take(5) {
            println!(
                "  [{:6}..{:6}] ipc={:.3} occupancy={:.2} l1_miss={:.1}% dram_util={:.1}%",
                s.start_cycle,
                s.end_cycle,
                s.ipc(),
                s.occupancy(),
                s.l1_miss_rate() * 100.0,
                s.dram_utilization() * 100.0,
            );
        }
        println!(
            "trace events: {} ({} dropped)\n",
            profile.events.len(),
            profile.events_dropped
        );
        assert!(
            !profile.samples.is_empty(),
            "{label}: sampling must produce at least one window"
        );
        if cdp {
            assert!(
                profile.kernels.iter().any(|k| k.is_cdp_child()),
                "CDP run must record device-launched children"
            );
        }
        profiles.push((label, profile));
    }

    std::fs::create_dir_all("results").expect("create results/");

    // Combined stats export: one ProfileReport per variant, keyed by label.
    let mut w = JsonWriter::new();
    w.begin_obj();
    for (label, p) in &profiles {
        w.raw(label, &p.to_json());
    }
    w.end_obj();
    let stats_doc = w.finish();
    Json::parse(&stats_doc).expect("profiling_stats.json must be well-formed");
    std::fs::write("results/profiling_stats.json", &stats_doc).expect("write stats");
    println!(
        "wrote results/profiling_stats.json ({} bytes)",
        stats_doc.len()
    );

    // Combined timeline: one Chrome-trace process per variant.
    let logs: Vec<(String, &[TraceEvent])> = profiles
        .iter()
        .map(|(label, p)| (label.clone(), p.events.as_slice()))
        .collect();
    let trace_doc = chrome_trace_json(&logs);
    Json::parse(&trace_doc).expect("profiling_trace.json must be well-formed");
    std::fs::write("results/profiling_trace.json", &trace_doc).expect("write trace");
    println!(
        "wrote results/profiling_trace.json ({} bytes)",
        trace_doc.len()
    );
    println!("open https://ui.perfetto.dev and drag the trace file in to view the timeline");
}
