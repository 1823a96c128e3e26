//! # ggpu-core — the names `benchmark/` imports
//!
//! Each name has its home in `ggpu-kernels` or `ggpu-sim`; this crate only
//! re-exports the five that the stand-alone `benchmark/` crate imports
//! through it, and goes once that crate imports them from their homes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub use ggpu_kernels::{benchmark, Benchmark, Scale};
pub use ggpu_sim::{GpuConfig, RunStats};
