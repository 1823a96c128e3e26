//! # ggpu-mem — cache hierarchy and DRAM models
//!
//! Timing models for the Genomics-GPU simulator's memory system:
//!
//! * [`Cache`] — a set-associative, LRU cache with MSHRs, used for the
//!   per-SM L1 data cache, the constant cache, the texture cache, and the
//!   per-partition L2 slices. Configurations mirror Table I of the paper
//!   (e.g. `128KB, 256-way, 128B lines` for L1).
//! * [`Dram`] — a multi-bank DRAM channel with open-row tracking and three
//!   schedulers ([`DramScheduler::FrFcfs`], [`DramScheduler::Fifo`],
//!   [`DramScheduler::OoO`]) matching the paper's Figure 16 sweep, plus the
//!   efficiency/utilization counters behind Figures 17 and 18.
//!
//! These models are *timing only*: functional data lives in the simulator's
//! flat memory image. A cache tracks tags, an MSHR merges outstanding
//! misses, and DRAM returns completion timestamps.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

/// Declare a struct of plain `u64` event counters whose field list is
/// written exactly once. Besides the struct (with the usual value-type
/// derives) this generates the three operations every aggregation,
/// profiling window and export is built from, so a counter added to the
/// declaration reaches all of them — and every artifact — by construction:
///
/// * `merge(&mut self, &Self)` — field-wise sum (unit → device → node);
/// * `delta_since(&self, &Self) -> Self` — field-wise saturating
///   difference, the window between two snapshots;
/// * `for_each_field(&self, FnMut(&'static str, u64))` — the fields by
///   name, in declaration order (the order JSON exports emit them in).
///
/// All three are straight-line field code: no allocation, no `dyn`.
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: u64, )+
        }

        impl $name {
            /// Field-wise accumulation of `other` into `self`.
            pub fn merge(&mut self, other: &Self) {
                $( self.$field += other.$field; )+
            }

            /// Field-wise counter delta since the earlier snapshot `base`
            /// (saturating, so a reset in between yields zeros rather than
            /// wrapping).
            pub fn delta_since(&self, base: &Self) -> Self {
                Self {
                    $( $field: self.$field.saturating_sub(base.$field), )+
                }
            }

            /// Visit every counter as `(name, value)`, in declaration order.
            pub fn for_each_field(&self, mut f: impl FnMut(&'static str, u64)) {
                $( f(stringify!($field), self.$field); )+
            }
        }
    };
}

mod cache;
mod dram;

pub use cache::{Cache, CacheConfig, CacheOutcome, CacheStats};
pub use dram::{Dram, DramConfig, DramScheduler, DramStats};

/// Line size shared by every cache level, per Table I (128-byte lines).
pub const LINE_BYTES: u64 = 128;

#[cfg(test)]
mod tests {
    use super::DramStats;

    #[test]
    fn counter_set_operations_cover_every_field_in_declaration_order() {
        let one = DramStats {
            requests: 1,
            row_hits: 2,
            data_cycles: 3,
            active_cycles: 4,
            rejected: 5,
        };
        let mut two = one;
        two.merge(&one);
        let mut seen = Vec::new();
        two.for_each_field(|name, v| seen.push((name, v)));
        assert_eq!(
            seen,
            [
                ("requests", 2),
                ("row_hits", 4),
                ("data_cycles", 6),
                ("active_cycles", 8),
                ("rejected", 10)
            ]
        );
        assert_eq!(two.delta_since(&one), one);
        assert_eq!(one.delta_since(&two), DramStats::default());
    }
}
