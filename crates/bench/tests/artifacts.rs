//! End-to-end checks on the files the harness binaries write: the
//! committed `results/` artifacts are pinned byte-for-byte, and the
//! throwaway smoke artifacts have the shape their consumers rely on.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use ggpu_core::json::Json;

/// Run harness binary `exe` with the space-separated `args`, writing into
/// a fresh results directory, and return that directory. Panics unless it
/// exits 0.
fn run_into(dir_name: &str, exe: &str, args: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(dir_name);
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(exe)
        .args(args.split(' '))
        .env("GGPU_RESULTS_DIR", &dir)
        .output()
        .expect("spawn harness binary");
    assert!(
        out.status.success(),
        "{exe} {args} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    dir
}

fn parse(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).expect("artifact written");
    Json::parse(&text).expect("artifact is well-formed JSON")
}

/// Regenerate the committed serving, attribution and scaling artifacts with
/// the commands `results/README.md` documents and require the same bytes. A
/// counter or field added to an export without regenerating `results/`
/// fails here instead of leaving stale files behind — and so does a host
/// driver that allocates, transfers or launches differently.
#[test]
fn committed_artifacts_are_regenerated_byte_for_byte() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let soak = run_into(
        "pin-soak",
        env!("CARGO_BIN_EXE_ggpu-stat"),
        "faults --jobs 36 --tag soak --trace",
    );
    let prof = run_into(
        "pin-prof",
        env!("CARGO_BIN_EXE_ggpu-prof"),
        "SW --scale tiny",
    );
    let scale = run_into(
        "pin-scale",
        env!("CARGO_BIN_EXE_ggpu-scale"),
        "--jobs 32 --devices 1,2 --tag smoke",
    );
    for (dir, file) in [
        (&scale, "scaling_smoke.json"),
        (&scale, "scaling_smoke.csv"),
        (&soak, "serve_soak.json"),
        (&soak, "serve_soak_latency.csv"),
        (&soak, "serve_soak_requests.csv"),
        (&soak, "serve_soak_trace.json"),
        (&prof, "prof_sw.json"),
        (&prof, "prof_sw_sm.csv"),
        (&prof, "prof_sw_mem.csv"),
        (&prof, "prof_sw_banks.csv"),
    ] {
        let fresh = std::fs::read(dir.join(file)).expect("regenerated artifact");
        let pinned = std::fs::read(committed.join(file)).expect("committed artifact");
        assert!(
            fresh == pinned,
            "results/{file} is stale: regenerate it (see results/README.md)"
        );
    }
}

/// The 2-device scaling smoke: every workload has a point per device
/// count, sharding used the fabric, the CSV has one row per point, and
/// the node trace has one process per device with kernel slices.
#[test]
fn scaling_smoke_artifacts_have_the_expected_shape() {
    let dir = run_into(
        "scale-smoke",
        env!("CARGO_BIN_EXE_ggpu-scale"),
        "--jobs 32 --devices 1,2 --trace --tag smoke",
    );
    let doc = parse(&dir.join("scaling_smoke.json"));
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("workload").and_then(Json::as_str))
        .collect();
    assert_eq!(names, ["sw", "fm", "phmm"]);
    for w in workloads {
        let class = w.get("class").and_then(Json::as_str).expect("class");
        assert!(matches!(class, "fabric_bound" | "compute_bound"), "{class}");
        let points = w.get("points").and_then(Json::as_arr).expect("points");
        let devices: Vec<u64> = points
            .iter()
            .filter_map(|p| p.get("devices").and_then(Json::as_u64))
            .collect();
        assert_eq!(devices, [1, 2]);
        let wide = &points[1];
        let per_device = wide.get("per_device_cycles").and_then(Json::as_arr);
        assert_eq!(per_device.map(<[Json]>::len), Some(2));
        let p2p_bytes = wide.get("p2p_bytes").and_then(Json::as_u64);
        assert!(p2p_bytes > Some(0), "sharding must use the fabric");
    }

    let csv = std::fs::read_to_string(dir.join("scaling_smoke.csv")).expect("csv");
    assert_eq!(
        csv.lines().count(),
        1 + 3 * 2,
        "header + workload x devices"
    );

    let trace = parse(&dir.join("scaling_trace.json"));
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let pids: BTreeSet<u64> = events
        .iter()
        .filter_map(|e| e.get("pid").and_then(Json::as_u64))
        .collect();
    assert_eq!(pids, BTreeSet::from([0, 1]), "one process per device");
    let has_ph = |e: &Json, ph: &str| e.get("ph").and_then(Json::as_str) == Some(ph);
    assert!(events.iter().any(|e| has_ph(e, "M")), "metadata rows");
    assert!(events.iter().any(|e| {
        has_ph(e, "X")
            && e.get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| n.contains('#'))
    }));
}

/// An unknown experiment name is an error (exit status 2), not a printed
/// warning followed by success.
#[test]
fn figures_exits_2_on_an_unknown_experiment() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig99", "--scale", "tiny"])
        .output()
        .expect("spawn figures");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment: fig99"), "{stderr}");
}

/// Every harness binary answers an argument it does not understand — an
/// unknown flag (the removed `--threads` among them), a flag missing its
/// value, a value of the wrong type — with its usage text on stderr and
/// exit status 2, before it runs or writes anything.
#[test]
fn a_bad_argument_is_a_usage_error_in_every_binary() {
    let binaries = [
        (env!("CARGO_BIN_EXE_figures"), "fig2", "--scale"),
        (env!("CARGO_BIN_EXE_ggpu-stat"), "faults", "--jobs"),
        (env!("CARGO_BIN_EXE_ggpu-prof"), "SW", "--top"),
        (env!("CARGO_BIN_EXE_ggpu-scale"), "--trace", "--jobs"),
    ];
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bad-args");
    let _ = std::fs::remove_dir_all(&dir);
    for (exe, good, valued) in binaries {
        for bad in [
            format!("{good} --threads 4"),
            format!("{good} --no-such-flag"),
            format!("{good} {valued}"),
            format!("{good} {valued} many"),
            format!("{valued} 0 {good}"),
        ] {
            let out = Command::new(exe)
                .args(bad.split(' '))
                .env("GGPU_RESULTS_DIR", &dir)
                .output()
                .expect("spawn harness binary");
            assert_eq!(out.status.code(), Some(2), "{exe} {bad}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.starts_with("usage: "), "{exe} {bad}: {stderr}");
            assert!(out.stdout.is_empty(), "{exe} {bad} ran before refusing");
        }
    }
    assert!(!dir.exists(), "a refused invocation wrote results");
}

/// `results/README.md` marks every entry *committed* or *generated by* a
/// command. The committed ones exist, and are exactly the files
/// `.gitignore` un-ignores and git tracks — so an artifact cannot be indexed
/// but lost to the ignore rule, or tracked but undocumented.
#[test]
fn results_index_matches_the_tracked_artifacts() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let index = std::fs::read_to_string(root.join("results/README.md")).expect("index");
    let mut committed = BTreeSet::from(["README.md".to_string()]);
    for entry in index.lines().filter(|l| l.starts_with("* `")) {
        let (names, status) = entry.split_once(" — ").expect("entry has a status");
        if status.starts_with("*committed*") {
            committed.extend(names.split('`').skip(1).step_by(2).map(String::from));
        } else {
            assert!(status.starts_with("*generated by `"), "unmarked: {entry}");
        }
    }
    for file in &committed {
        assert!(
            root.join("results").join(file).is_file(),
            "results/{file} is indexed as committed but missing"
        );
    }

    let ignore = std::fs::read_to_string(root.join(".gitignore")).expect(".gitignore");
    let unignored: BTreeSet<String> = ignore
        .lines()
        .filter_map(|l| l.strip_prefix("!/results/"))
        .map(String::from)
        .collect();
    assert_eq!(committed, unignored, "index vs .gitignore `!` lines");

    // Outside a git checkout (a source tarball) there is no tracked set.
    let git = Command::new("git")
        .args(["ls-files", "results"])
        .current_dir(&root)
        .output();
    if let Some(out) = git
        .ok()
        .filter(|o| o.status.success() && !o.stdout.is_empty())
    {
        let tracked: BTreeSet<String> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|l| l.strip_prefix("results/"))
            .map(String::from)
            .collect();
        assert_eq!(committed, tracked, "index vs `git ls-files results`");
    }
}
