//! # ggpu-bench — the Genomics-GPU figure/table regeneration harness
//!
//! The [`figures`] module regenerates every table (I-III) and figure
//! (2-22) of the paper; the `figures` binary exposes them as subcommands:
//!
//! ```text
//! cargo run --release -p ggpu-bench --bin figures -- all --scale small
//! cargo run --release -p ggpu-bench --bin figures -- fig12 fig13 fig14
//! ```
//!
//! Host-time measurement lives in the stand-alone `benchmark/` crate; the
//! [`measure`] module keeps the two helpers it imports from here (the
//! median, a provenance stamp).
//!
//! The [`export`] module is the one table/CSV/JSON artifact writer and
//! [`cli`] the one argument walker all the harness binaries share.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod cli;
pub mod export;
pub mod figures;
pub mod measure;

use std::path::PathBuf;

/// Directory machine-readable outputs (CSV/JSON) land in.
///
/// `GGPU_RESULTS_DIR` overrides; the default is the workspace-root
/// `results/` directory, resolved against the compiled-in crate path so
/// every binary agrees on one location regardless of the invocation cwd.
pub(crate) fn results_dir() -> PathBuf {
    std::env::var_os("GGPU_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"))
}
