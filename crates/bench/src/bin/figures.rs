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
//! and/or `results/trace_<scale>.json` (Perfetto-loadable).

use ggpu_bench::figures;
use ggpu_kernels::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: figures [all|table1|table2|table3|fig2..fig22|profile]... \
         [--scale tiny|small|paper] [--json] [--trace]"
    );
    let known: Vec<&str> = figures::EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    eprintln!("experiments: {}", known.join(" "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut names = Vec::new();
    let mut json = false;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => match it.next().and_then(|s| Scale::from_tag(s)) {
                Some(s) => scale = s,
                None => usage(),
            },
            "--json" => json = true,
            "--trace" => trace = true,
            flag if flag.starts_with("--") => usage(),
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
        usage();
    }
    for name in names {
        if let Err(e) = figures::run(&name, scale) {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}
