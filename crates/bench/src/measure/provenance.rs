//! Provenance stamping for measurements.
//!
//! A throughput number with no record of *what* was measured is noise:
//! the commit, whether the tree was dirty, the compiler, and the host's
//! core count all move the needle, so every report carries this stamp.

use std::process::Command;

/// The environment a record was measured in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// `git rev-parse HEAD` of the workspace, or `"unknown"` outside a
    /// repository (e.g. a source tarball).
    pub git_commit: String,
    /// Whether the working tree had uncommitted changes — a dirty
    /// measurement cannot be reproduced from its commit alone.
    pub git_dirty: bool,
    /// `rustc -V` of the toolchain on `PATH`, or `"unknown"`.
    pub rustc: String,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: u64,
    /// Seconds since the Unix epoch at measurement time.
    pub unix_time: u64,
}

fn cmd_stdout(program: &str, args: &[&str]) -> Option<String> {
    // Anchor git at the compiled-in crate directory so provenance
    // resolves the workspace repo regardless of the invocation cwd.
    let out = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Collect the provenance stamp for a run. Never fails: fields that
/// cannot be determined degrade to `"unknown"` / `false`.
pub fn collect() -> Provenance {
    Provenance {
        git_commit: cmd_stdout("git", &["rev-parse", "HEAD"])
            .unwrap_or_else(|| "unknown".to_string()),
        git_dirty: cmd_stdout("git", &["status", "--porcelain"])
            .map(|s| !s.is_empty())
            .unwrap_or(false),
        rustc: cmd_stdout("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_degrades_but_never_panics() {
        let p = collect();
        assert!(p.host_parallelism >= 1);
        assert!(!p.git_commit.is_empty());
        assert!(!p.rustc.is_empty());
    }
}
