//! The two helpers `benchmark/` imports from this crate: the median and
//! a provenance stamp. The measurement system itself is `benchmark/` (see
//! its README).

pub mod provenance;
pub mod stats;
