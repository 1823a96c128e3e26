//! Runs the built program in `--smoke` mode and holds its output to the
//! contract: one JSON result line per workload with exactly the agreed
//! keys, every metric of `BENCHMARK.json` printed by name with its unit,
//! exact metrics identical from run to run, and `BENCHMARK.json` itself
//! equal to what the program's own tables generate.

use std::path::{Path, PathBuf};
use std::process::Command;

use ggpu_sim::json::Json;

const EXE: &str = env!("CARGO_BIN_EXE_ggpu-benchmark");

/// Simulated metrics: the same at every run of one seed.
const EXACT: [&str; 4] = [
    "sim_kernel_cycles",
    "sim_lat_p50_cycles",
    "sim_lat_p95_cycles",
    "served_frac",
];

fn manifest_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn manifest() -> Json {
    let text = std::fs::read_to_string(manifest_path()).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric under `key`.
fn listed(manifest: &Json, key: &str) -> Vec<(String, String)> {
    let field = |m: &Json, f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn smoke(trace: &str) -> String {
    let out = Command::new(EXE)
        .args(["--smoke", "--seed", "11", "--trace", trace, "--out-dir"])
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out"))
        .output()
        .expect("the program starts");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(out.status.success(), "smoke run failed:\n{stdout}");
    stdout
}

/// The JSON result line of each workload, in catalog order.
fn results(stdout: &str) -> Vec<Json> {
    stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("result line parses"))
        .collect()
}

fn check_results(stdout: &str, expected: &[(String, String)]) {
    let results = results(stdout);
    assert_eq!(results.len(), 4, "one result line per workload");
    assert!(stdout.lines().last().expect("output").starts_with('{'));
    for r in &results {
        let Json::Obj(fields) = r else {
            panic!("result is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)));
        assert!(
            r.get("attempted")
                .and_then(Json::as_u64)
                .expect("attempted")
                >= 1
        );
        assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0));
        let Some(Json::Obj(metrics)) = r.get("metrics") else {
            panic!("metrics is not an object")
        };
        let got: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.clone(), unit.to_string())
            })
            .collect();
        assert_eq!(
            got, expected,
            "metric names and units follow BENCHMARK.json"
        );
    }
    // The same names and units in the human-readable part.
    for (name, unit) in expected {
        let printed = stdout.lines().filter(|l| {
            let mut words = l.split_whitespace();
            words.next() == Some(name) && words.last() == Some(unit)
        });
        assert_eq!(
            printed.count(),
            4,
            "`{name} <value> {unit}` once per workload"
        );
    }
    assert_eq!(stdout.matches("provenance: commit=").count(), 4);
}

#[test]
fn end_to_end_output_follows_the_manifest_and_exact_metrics_repeat() {
    let expected = listed(&manifest(), "end_to_end");
    let (first, second) = (smoke("0"), smoke("0"));
    check_results(&first, &expected);
    for (a, b) in results(&first).iter().zip(&results(&second)) {
        for name in EXACT {
            let value = |r: &Json| r.get("metrics").and_then(|m| m.get(name)).cloned();
            assert!(value(a).is_some(), "{name}");
            assert_eq!(
                value(a),
                value(b),
                "{name} differs between two runs of one seed"
            );
        }
    }
}

#[test]
fn traced_output_follows_the_manifest_and_writes_a_trace() {
    check_results(&smoke("1"), &listed(&manifest(), "per_layer"));
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    for workload in ["dense_dp", "sparse_cdp", "mem_pressure", "serve_mix"] {
        let trace = std::fs::read_to_string(dir.join(format!("{workload}.trace.json")))
            .expect("trace written");
        let doc = Json::parse(&trace).expect("trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert!(events
            .iter()
            .any(|e| e.get("cat").and_then(Json::as_str) == Some("sim")));
        let table = std::fs::read_to_string(dir.join(format!("{workload}.layers.txt")))
            .expect("layer table written");
        assert!(table.contains("share"), "{table}");
    }
}

#[test]
fn benchmark_json_is_what_the_program_generates() {
    let out = Command::new(EXE)
        .arg("manifest")
        .output()
        .expect("the program starts");
    let generated = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("manifest parses");
    assert_eq!(
        generated,
        manifest(),
        "regenerate BENCHMARK.json with `ggpu-benchmark manifest`"
    );
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds"],
    ] {
        let out = Command::new(EXE)
            .args(args)
            .output()
            .expect("the program starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
