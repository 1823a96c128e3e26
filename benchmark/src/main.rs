//! `ggpu-benchmark` — the repository's performance benchmark.
//!
//! Four workloads, each stressing a different layer of the simulator,
//! timed from outside through the crates' public functions. See
//! `benchmark/README.md` for the metric and workload tables, the protocol
//! and the noise measurements behind it.
//!
//! ```text
//! ggpu-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ggpu-benchmark agree [--runs N] [--seconds S] [--workload NAME] [--manifest PATH]
//! ggpu-benchmark manifest
//! ```

mod agree;
mod alloc;
mod dp;
mod gate;
mod metrics;
mod probes;
mod run;
mod serve;
mod suite;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use ggpu_bench::measure::provenance;
use ggpu_sim::json::JsonWriter;

use crate::metrics::{result_json, MetricDef, END_TO_END, PER_LAYER};
use crate::run::{Opts, Report};
use crate::workload::{Entry, CATALOG};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u64 = 25;

const USAGE: &str = "usage:
  ggpu-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out-dir DIR]
  ggpu-benchmark agree [--runs N] [--seconds S] [--workload NAME] [--manifest PATH]
  ggpu-benchmark manifest
workloads: dense_dp sparse_cdp mem_pressure serve_mix (all four when --workload is omitted)";

/// Flags shared by the run and `agree` forms. Every flag takes a value
/// except `--smoke`.
struct Args {
    workload: Option<&'static Entry>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
    runs: usize,
    manifest: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        runs: 2,
        manifest: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value `{value}`");
        match flag.as_str() {
            "--workload" => {
                let entry = CATALOG.iter().find(|e| e.name == value).ok_or_else(bad)?;
                a.workload = Some(entry);
            }
            // Any 64-bit integer is a seed; a negative one by its bits.
            "--seed" => {
                a.seed = value
                    .parse::<u64>()
                    .or_else(|_| value.parse::<i64>().map(|v| v as u64))
                    .map_err(|_| bad())?
            }
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad())?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => {
                a.runs = value.parse().map_err(|_| bad())?;
                if a.runs < 2 {
                    return Err(format!("{flag}: at least 2"));
                }
            }
            "--out-dir" => a.out_dir = PathBuf::from(value),
            "--manifest" => a.manifest = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(a)
}

fn selected(a: &Args) -> Vec<&'static Entry> {
    a.workload
        .map_or_else(|| CATALOG.iter().collect(), |e| vec![e])
}

/// `BENCHMARK.json`, from the same tables the program prints from.
fn manifest() -> String {
    fn metric_list(w: &mut JsonWriter, key: &str, table: &[MetricDef], bounded: bool) {
        w.begin_arr_key(key);
        for d in table {
            let mut m = JsonWriter::new();
            m.begin_obj();
            m.str("name", d.name)
                .str("unit", d.unit)
                .str("better", d.better.tag());
            if bounded {
                m.f64("bound", d.bound);
            }
            m.end_obj();
            w.elem_raw(&m.finish());
        }
        w.end_arr();
    }
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.begin_arr_key("command");
    for word in [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ] {
        w.elem_raw(&format!("\"{word}\""));
    }
    w.end_arr();
    w.begin_arr_key("paths");
    w.elem_raw("\"benchmark\"");
    w.end_arr();
    w.u64("run_seconds", RUN_SECONDS);
    w.begin_arr_key("workloads");
    for e in &CATALOG {
        let mut m = JsonWriter::new();
        m.begin_obj();
        m.str("name", e.name).str("why", e.why);
        m.end_obj();
        w.elem_raw(&m.finish());
    }
    w.end_arr();
    metric_list(&mut w, "end_to_end", END_TO_END, true);
    metric_list(&mut w, "per_layer", PER_LAYER, false);
    w.end_obj();
    w.finish()
}

/// Print one workload's metrics by name with their units, the operation
/// counts, the provenance line, and last the machine-readable line.
fn print_report(r: &Report, a: &Args, prov: &provenance::Provenance) {
    println!(
        "== {} ({}) ==",
        r.workload,
        if a.trace {
            "per-layer, traced run"
        } else {
            "end-to-end"
        }
    );
    for d in r.table {
        println!(
            "{:<32} {:>20} {}",
            d.name,
            ggpu_sim::json::num(r.values.get(d.name)),
            d.unit
        );
    }
    for v in &r.gate.violations {
        println!("VIOLATION: {v}");
    }
    println!(
        "attempted {} failed {} correct: {}",
        r.gate.attempted,
        r.gate.failed,
        r.gate.correct()
    );
    println!(
        "provenance: commit={} dirty={} rustc=\"{}\" nproc={} seed={} passes={} sim_threads={}(pinned) harness.pass_spread={:.3}{}",
        prov.git_commit,
        prov.git_dirty,
        prov.rustc,
        prov.host_parallelism,
        a.seed,
        r.passes,
        workload::SIM_THREADS,
        r.pass_spread,
        if a.smoke { " smoke" } else { "" },
    );
    let totals: Vec<String> = r.pass_totals.iter().map(|s| format!("{s:.3}")).collect();
    println!("untraced passes (s): {}", totals.join(" "));
    println!(
        "{}",
        result_json(
            r.table,
            &r.values,
            r.gate.correct(),
            r.gate.attempted,
            r.gate.failed
        )
    );
}

fn run_workloads(a: &Args) -> ExitCode {
    let prov = provenance::collect();
    let opts = Opts {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        smoke: a.smoke,
        out_dir: a.out_dir.clone(),
    };
    let mut all_correct = true;
    for entry in selected(a) {
        match run::run(entry, &opts) {
            Ok(report) => {
                all_correct &= report.gate.correct();
                print_report(&report, a, &prov);
            }
            Err(e) => {
                eprintln!(
                    "{}: cannot write under {}: {e}",
                    entry.name,
                    a.out_dir.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, flags) = match argv.first().map(String::as_str) {
        Some(c @ ("agree" | "manifest")) => (c, &argv[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => ("run", &argv[..]),
    };
    let args = match parse(flags) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        "manifest" => {
            println!("{}", manifest());
            ExitCode::SUCCESS
        }
        "agree" => agree::run(&selected(&args), args.runs, args.seconds, &args.manifest),
        _ => run_workloads(&args),
    }
}
