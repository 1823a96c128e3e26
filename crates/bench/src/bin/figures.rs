//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [names...] [--scale tiny|small|paper] [--threads N] [--json] [--trace]
//! figures all --scale small
//! figures fig2 --threads 4          # shard the cycle engine over 4 workers
//! figures --trace --scale tiny      # profiling run, Chrome-trace export only
//! ```
//!
//! `--threads N` (equivalently the `GGPU_SIM_THREADS` environment variable)
//! sets the engine's worker-thread count. Results are bit-identical for any
//! value — it is purely a wall-clock knob.
//!
//! Every table/figure is also written to `results/<name>.csv`
//! (override the directory with `GGPU_RESULTS_DIR`). `--json` and
//! `--trace` run the profiling mode — all benchmarks with interval
//! sampling and event tracing on — exporting `results/profile_<scale>.json`
//! and/or `results/trace_<scale>.json` (Perfetto-loadable).

use ggpu_bench::figures;
use ggpu_kernels::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut names = Vec::new();
    let mut json = false;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = match it.next().map(|s| s.as_str()) {
                    Some("tiny") => Scale::Tiny,
                    Some("small") | None => Scale::Small,
                    Some("paper") => Scale::Paper,
                    Some(other) => {
                        eprintln!("unknown scale {other}");
                        std::process::exit(2);
                    }
                };
            }
            "--threads" => {
                // Every GpuConfig in the harness is seeded from rtx3070(),
                // which reads GGPU_SIM_THREADS, so the flag just sets it.
                match it.next().and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => std::env::set_var("GGPU_SIM_THREADS", n.to_string()),
                    _ => {
                        eprintln!("--threads expects a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--json" => json = true,
            "--trace" => trace = true,
            name => names.push(name.to_string()),
        }
    }
    if json || trace {
        figures::profile(scale, json, trace);
    }
    if names.is_empty() {
        if json || trace {
            return;
        }
        eprintln!(
            "usage: figures [all|table1|table2|table3|fig2..fig22|profile]... \
             [--scale tiny|small|paper] [--threads N] [--json] [--trace]"
        );
        let known: Vec<&str> = figures::EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!("experiments: {}", known.join(" "));
        std::process::exit(2);
    }
    for name in names {
        if let Err(e) = figures::run(&name, scale) {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}
