//! The two measurement helpers `benchmark/` and the harness binaries share:
//! robust summary statistics and a provenance stamp. The measurement
//! system itself is `benchmark/` (see its README).

pub mod provenance;
pub mod stats;
