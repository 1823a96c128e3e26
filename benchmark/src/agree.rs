//! `ggpu-benchmark agree`: does the benchmark agree with itself?
//!
//! Two sets of `--runs` invocations per workload, alternating A B A B,
//! run `i` of either set at seed `i`. Per metric × workload the set
//! medians must lie within the metric's bound in `BENCHMARK.json`, each
//! set's quartile spread within it too, and an exact (simulated) metric
//! must read the same to the digit in both runs of a seed.

use std::path::Path;
use std::process::{Command, ExitCode};

use ggpu_bench::measure::stats::median;
use ggpu_sim::json::Json;

use crate::metrics::END_TO_END;
use crate::workload::Entry;

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), so the spread printed here is the
/// one the driver computes.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Quartile distance as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// One invocation of this program; the end-to-end metrics of its last
/// output line, in table order.
fn invoke(entry: &Entry, seed: usize, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", entry.name, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc =
        Json::parse(last).map_err(|e| format!("{}: last line is not JSON: {e}", entry.name))?;
    if !out.status.success() || doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{} seed {seed}: run failed:\n{stdout}", entry.name));
    }
    END_TO_END
        .iter()
        .map(|d| {
            doc.get("metrics")
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: no metric {}", entry.name, d.name))
        })
        .collect()
}

/// The bound `BENCHMARK.json` gives each end-to-end metric, in table order.
fn bounds(manifest: &Path) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let listed = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    END_TO_END
        .iter()
        .map(|d| {
            listed
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(d.name))
                .and_then(|m| m.get("bound"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: no bound for {}", manifest.display(), d.name))
        })
        .collect()
}

pub fn run(entries: &[&'static Entry], runs: usize, seconds: f64, manifest: &Path) -> ExitCode {
    match compare(entries, runs, seconds, manifest) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn compare(
    entries: &[&'static Entry],
    runs: usize,
    seconds: f64,
    manifest: &Path,
) -> Result<bool, String> {
    let bounds = bounds(manifest)?;
    let mut agreed = true;
    println!(
        "{:<13} {:<19} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B worse", "iqr A", "iqr B", "bound"
    );
    for entry in entries {
        // [set][run][metric]
        let mut sets = [Vec::new(), Vec::new()];
        for seed in 1..=runs {
            for set in &mut sets {
                set.push(invoke(entry, seed, seconds)?);
            }
        }
        // Every run made, in the order made, for the headline metric.
        for (label, set) in ["A", "B"].iter().zip(&sets) {
            let runs: Vec<String> = set.iter().map(|run| format!("{:.4}", run[0])).collect();
            println!(
                "{:<13} {} by run, set {label}: {}",
                entry.name,
                END_TO_END[0].name,
                runs.join(" ")
            );
        }
        for (m, (def, bound)) in END_TO_END.iter().zip(&bounds).enumerate() {
            let column = |set: &Vec<Vec<f64>>| set.iter().map(|run| run[m]).collect::<Vec<f64>>();
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            let (med_a, med_b) = (median(&a), median(&b));
            let sign = if def.better == crate::metrics::Better::Lower {
                1.0
            } else {
                -1.0
            };
            let worse = sign * (med_b - med_a) / med_a;
            let (iqr_a, iqr_b) = (spread(&a), spread(&b));
            let verdict = if def.exact && a != b {
                "MISS: exact metric differs at one seed"
            } else if worse > *bound {
                "MISS: medians apart"
            } else if def.name != "setup_s" && iqr_a.max(iqr_b) > *bound {
                "MISS: spread over the bound"
            } else if def.name != "setup_s" && iqr_a.max(iqr_b) > bound / 3.0 {
                "ok (spread over a third of the bound)"
            } else {
                "ok"
            };
            agreed &= !verdict.starts_with("MISS");
            println!(
                "{:<13} {:<19} {:>14.6} {:>14.6} {:>+7.2}% {:>7.2}% {:>7.2}% {:>6}  {verdict}",
                entry.name,
                def.name,
                med_a,
                med_b,
                100.0 * worse,
                100.0 * iqr_a,
                100.0 * iqr_b,
                bound,
            );
        }
    }
    Ok(agreed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3.0, 1.0], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
