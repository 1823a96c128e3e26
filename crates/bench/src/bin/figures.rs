//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [names...] [--scale tiny|small|paper] [--json] [--trace]
//! figures all --scale small
//! figures --trace --scale tiny      # profiling run, Chrome-trace export only
//! ```
//!
//! Every table/figure is also written to `results/<name>.csv`
//! (override the directory with `GGPU_RESULTS_DIR`). `--json` and
//! `--trace` run the profiling mode — all benchmarks with interval
//! sampling and event tracing on — exporting `results/profile_<scale>.json`
//! and/or `results/trace_<scale>.json` (Perfetto-loadable). Every name is
//! checked before anything runs, and all of them read one run ledger, so a
//! point two figures share is simulated once.

use ggpu_bench::cli::Args;
use ggpu_bench::figures;
use ggpu_kernels::Scale;

fn main() {
    let known: Vec<&str> = figures::EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    let mut args = Args::from_env(format!(
        "usage: figures [all|table1|table2|table3|fig2..fig22|profile]... \
         [--scale tiny|small|paper] [--json] [--trace]\nexperiments: {}",
        known.join(" ")
    ));
    let mut scale = Scale::Small;
    let mut names = Vec::new();
    let mut json = false;
    let mut trace = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => scale = args.value(Scale::from_tag),
            "--json" => json = true,
            "--trace" => trace = true,
            flag if flag.starts_with("--") => args.usage(),
            _ => names.push(a),
        }
    }
    if names.is_empty() && !(json || trace) {
        args.usage();
    }
    if let Err(e) = figures::run(&names, scale, json, trace) {
        eprintln!("{e}");
        std::process::exit(2);
    }
}
