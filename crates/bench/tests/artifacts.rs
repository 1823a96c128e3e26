//! End-to-end checks on the harness binaries: the committed `results/`
//! artifacts are pinned byte-for-byte and indexed, and a bad invocation
//! is refused before anything runs.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

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

/// Regenerate the committed serving and attribution artifacts with
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
    for (dir, file) in [
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

/// An unknown experiment name is an error (exit status 2), not a printed
/// warning followed by success — and it is refused before anything runs,
/// wherever it stands among the names and flags.
#[test]
fn figures_exits_2_on_an_unknown_experiment() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("unknown-experiment");
    let _ = std::fs::remove_dir_all(&dir);
    for args in [
        "fig99 --scale tiny",
        "fig3 fig99 --scale tiny",
        "--json fig99 --scale small",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args.split(' '))
            .env("GGPU_RESULTS_DIR", &dir)
            .output()
            .expect("spawn figures");
        assert_eq!(out.status.code(), Some(2), "{args}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown experiment: fig99"), "{stderr}");
        assert!(out.stdout.is_empty(), "figures {args} ran before refusing");
    }
    assert!(!dir.exists(), "a refused invocation wrote results");
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
