//! Genomics-GPU umbrella package: it hosts the workspace-level `tests/` and
//! `examples/`, which drive the `ggpu-*` crates; it has no items of its own.

#![warn(unreachable_pub)]
