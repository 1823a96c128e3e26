//! # ggpu-kernels — the ten Genomics-GPU benchmarks on the simulator
//!
//! Each benchmark of the paper's Table III is implemented as device kernels
//! in the `ggpu-isa` instruction set plus a host driver, in both non-CDP
//! and CDP (CUDA-Dynamic-Parallelism) variants:
//!
//! | Abbrev | Benchmark | Module |
//! |--------|-----------|--------|
//! | SW | Smith-Waterman local alignment | [`pairwise`] |
//! | NW | Needleman-Wunsch global alignment (shared-memory rows) | [`pairwise`] |
//! | STAR | Center-star multiple sequence alignment | [`star`] |
//! | GG / GL / GKSW / GSG | GASAL2 global / local / KSW-extension / semi-global | [`pairwise`] |
//! | CLUSTER | Greedy incremental alignment-based clustering | [`cluster`] |
//! | PairHMM | Pair-HMM forward algorithm | [`pairhmm`] |
//! | NvB | FM-index read alignment (NvBowtie-style) | [`nvb`] |
//!
//! [`all_benchmarks`], [`benchmark`] and [`BENCHMARKS`] are the registry
//! every harness and example starts from; [`KernelResources::sram_usage`]
//! is Figure 6's SRAM-utilization computation.
//!
//! Every run validates the device results against the CPU reference
//! implementations in `ggpu-genomics` before reporting statistics, so a
//! figure regenerated by `ggpu-bench` is backed by a functionally correct
//! kernel, not just a timing model.
//!
//! The order of a kernel's u64 parameter words is declared once, as the
//! field order of the argument block beside its emitter; [`host`] holds
//! what every driver repeats around a launch (DESIGN.md, "Kernel ABI and
//! host drivers").

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

/// Declare a kernel's argument block from `word: "meaning"` rows: a struct
/// of parameter words whose field order *is* the kernel ABI, and a slot enum
/// naming each word's index for the emitter's parameter loads. The word type
/// is `u64` on the host; a kernel building a child's block uses `Operand`.
/// `after N` numbers the slots from `N`, for words that follow another block.
macro_rules! arg_block {
    ($(#[$doc:meta])* $name:ident / $slot:ident { $($rows:tt)* }) => {
        arg_block! { $(#[$doc])* $name / $slot after 0 { $($rows)* } }
    };
    ($(#[$doc:meta])* $name:ident / $slot:ident after $base:tt {
        $first:ident: $first_doc:literal, $($field:ident: $fdoc:literal,)*
    }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name<T = u64> {
            #[doc = $first_doc] pub $first: T,
            $(#[doc = $fdoc] pub $field: T,)*
        }

        /// Parameter-word index of each field of the argument block.
        #[allow(non_camel_case_types, missing_docs)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $slot { $first = $base as isize, $($field,)* }

        impl $slot {
            /// Words in the block.
            pub const COUNT: usize = [Self::$first, $(Self::$field,)*].len();

            /// Emit the load of this parameter word into a fresh register.
            pub(crate) fn ld(self, b: &mut ggpu_isa::KernelBuilder) -> ggpu_isa::Reg {
                let r = b.reg();
                b.ld_param(r, self as u32);
                r
            }
        }

        impl<T> $name<T> {
            /// The parameter words in ABI order.
            pub fn words(self) -> [T; $slot::COUNT] {
                [self.$first, $(self.$field,)*]
            }
        }
    };
}

pub mod cluster;
pub mod dp;
pub mod host;
pub mod nvb;
pub mod pairhmm;
pub mod pairwise;
pub mod star;
pub mod traceback;

use ggpu_isa::Kernel;
use ggpu_sim::{Gpu, GpuConfig, ProfileReport, RunStats};
use ggpu_sm::SmConfig;

/// Workload scale: `Tiny` keeps unit tests fast; `Small` is the default
/// for regenerating figures; `Paper` mirrors Table III's published input
/// sizes (slow under simulation — minutes per benchmark).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Seconds-long unit-test workloads.
    Tiny,
    /// Default figure-generation workloads.
    Small,
    /// Table III shapes (slow).
    Paper,
}

impl Scale {
    /// Every scale, smallest first.
    pub(crate) const ALL: [Scale; 3] = [Scale::Tiny, Scale::Small, Scale::Paper];

    /// Stable lower-case name, as accepted by `--scale` and used in result
    /// file names.
    pub fn tag(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    /// Inverse of [`Scale::tag`].
    pub fn from_tag(tag: &str) -> Option<Scale> {
        Scale::ALL.into_iter().find(|s| s.tag() == tag)
    }
}

/// Result of one benchmark execution.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// All device/host counters collected during the run.
    pub stats: RunStats,
    /// Kernel-execution cycles (excludes PCI time).
    pub kernel_cycles: u64,
    /// Whether the device output matched the CPU reference.
    pub verified: bool,
    /// Always 1: one thread ticks one device. Kept until `benchmark/`
    /// stops checking it.
    #[doc(hidden)]
    pub sim_threads: usize,
    /// Simulated cycles the engine elided via idle-cycle fast-forward
    /// ([`ggpu_sim::Gpu::fast_forward_skipped_cycles`]); all counters fully
    /// account for these cycles, so this measures engine efficiency only.
    pub fast_forward_skipped_cycles: u64,
    /// Human-readable summary of what ran.
    pub detail: String,
    /// Time-resolved profile (per-kernel records, interval samples, event
    /// trace, attribution), present when the run's [`GpuConfig`] turned
    /// the device's recorder on (tracing, interval sampling or per-PC
    /// attribution; see [`Gpu::profiling_enabled`]); `None` otherwise.
    pub profile: Option<Box<ProfileReport>>,
}

impl BenchResult {
    /// What every benchmark reports once its device work is done: the
    /// device's counters, its profile if profiling was on, and the
    /// benchmark's own verdict and summary line.
    pub(crate) fn collect(gpu: &mut Gpu, verified: bool, detail: String) -> Self {
        let profile = gpu
            .profiling_enabled()
            .then(|| Box::new(gpu.take_profile()));
        let stats = gpu.stats();
        BenchResult {
            kernel_cycles: stats.host.kernel_cycles,
            verified,
            sim_threads: 1,
            fast_forward_skipped_cycles: gpu.fast_forward_skipped_cycles(),
            detail,
            stats,
            profile,
        }
    }
}

/// Static properties printed in Table III.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Full benchmark name.
    pub name: &'static str,
    /// Abbreviation used across the figures.
    pub abbrev: &'static str,
    /// Input description (the paper's dataset, with our substitution).
    pub input: String,
    /// Grid dimensions (paper configuration).
    pub grid: (u32, u32, u32),
    /// CTA dimensions (paper configuration).
    pub cta: (u32, u32, u32),
    /// Whether the kernel uses shared memory.
    pub shared_memory: bool,
    /// Whether the kernel uses constant memory.
    pub constant_memory: bool,
    /// Concurrent CTAs per SM under the baseline configuration.
    pub ctas_per_core: u32,
}

/// Static per-kernel resource usage (what `-Xptxas -v` reports on real
/// hardware), feeding the paper's Figure 6 SRAM-utilization analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelResources {
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// Static shared memory per CTA, bytes.
    pub smem_per_cta: u32,
    /// Constant-memory footprint, bytes.
    pub cmem_bytes: u32,
    /// Threads per CTA of the main kernel.
    pub threads_per_cta: u32,
}

impl KernelResources {
    /// The resources `kernel` declares, launched with `threads_per_cta`.
    pub(crate) fn of(kernel: &Kernel, threads_per_cta: u32) -> Self {
        KernelResources {
            regs_per_thread: kernel.regs_per_thread,
            smem_per_cta: kernel.smem_per_cta,
            cmem_bytes: kernel.cmem_bytes,
            threads_per_cta,
        }
    }

    /// Figure 6's SRAM utilization under `sm`: the fraction of each
    /// on-chip SRAM structure occupied by the concurrently resident CTAs.
    pub fn sram_usage(&self, sm: &SmConfig) -> SramUsage {
        let ctas = sm.max_resident_ctas(
            self.threads_per_cta,
            self.regs_per_thread,
            self.smem_per_cta,
        );
        let regs_used = self.regs_per_thread as u64 * self.threads_per_cta as u64 * ctas as u64;
        let smem_used = self.smem_per_cta as u64 * ctas as u64;
        SramUsage {
            resident_ctas: ctas,
            registers: (regs_used as f64 / sm.registers as f64).min(1.0),
            shared: (smem_used as f64 / sm.smem_bytes as f64).min(1.0),
            constant: (self.cmem_bytes as f64 / 64.0 / 1024.0).min(1.0),
        }
    }
}

/// SRAM utilization of one benchmark (Figure 6), from
/// [`KernelResources::sram_usage`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramUsage {
    /// Concurrent CTAs per SM under the occupancy rules.
    pub resident_ctas: u32,
    /// Register-file utilization in `[0, 1]`.
    pub registers: f64,
    /// Shared-memory utilization in `[0, 1]`.
    pub shared: f64,
    /// Constant-memory utilization in `[0, 1]` (single image; constant
    /// memory is not replicated per CTA).
    pub constant: f64,
}

/// A runnable Genomics-GPU benchmark.
pub trait Benchmark {
    /// Abbreviation (`SW`, `NW`, ...).
    fn abbrev(&self) -> &'static str;
    /// Full name.
    fn name(&self) -> &'static str;
    /// Table III row.
    fn table3(&self) -> Table3Row;
    /// Static resource usage of the main kernel.
    fn resources(&self) -> KernelResources;
    /// Execute on a fresh simulated GPU and verify against the CPU
    /// reference.
    fn run(&self, config: &GpuConfig, cdp: bool) -> BenchResult;
}

/// All ten benchmarks at `scale`, in Table III order.
pub fn all_benchmarks(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(pairwise::PairwiseBench::sw(scale)),
        Box::new(pairwise::PairwiseBench::nw(scale, true)),
        Box::new(star::StarBench::new(scale)),
        Box::new(pairwise::PairwiseBench::gasal_global(scale)),
        Box::new(pairwise::PairwiseBench::gasal_local(scale)),
        Box::new(pairwise::PairwiseBench::gasal_ksw(scale)),
        Box::new(pairwise::PairwiseBench::gasal_semiglobal(scale)),
        Box::new(cluster::ClusterBench::new(scale)),
        Box::new(pairhmm::PairHmmBench::new(scale, true)),
        Box::new(nvb::NvbBench::new(scale)),
    ]
}

/// Abbreviations of the ten benchmarks in Table III order.
pub const BENCHMARKS: [&str; 10] = [
    "SW", "NW", "STAR", "GG", "GL", "GKSW", "GSG", "CLUSTER", "PairHMM", "NvB",
];

/// Look up one benchmark by its abbreviation.
pub fn benchmark(scale: Scale, abbrev: &str) -> Option<Box<dyn Benchmark>> {
    all_benchmarks(scale)
        .into_iter()
        .find(|b| b.abbrev() == abbrev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_ten_benchmarks() {
        let all = all_benchmarks(Scale::Tiny);
        assert_eq!(all.len(), 10);
        let abbrevs: Vec<&str> = all.iter().map(|b| b.abbrev()).collect();
        assert_eq!(abbrevs, BENCHMARKS);
    }

    #[test]
    fn benchmark_lookup() {
        assert!(benchmark(Scale::Tiny, "SW").is_some());
        assert!(benchmark(Scale::Tiny, "PairHMM").is_some());
        assert!(benchmark(Scale::Tiny, "XXX").is_none());
    }

    #[test]
    fn sram_usage_is_sane_for_all() {
        let sm = SmConfig::default();
        for b in all_benchmarks(Scale::Tiny) {
            let u = b.resources().sram_usage(&sm);
            assert!(u.resident_ctas >= 1, "{}", b.abbrev());
            assert!((0.0..=1.0).contains(&u.registers));
            assert!((0.0..=1.0).contains(&u.shared));
            assert!((0.0..=1.0).contains(&u.constant));
            // Table III: shared-memory users actually occupy shared memory.
            if b.table3().shared_memory {
                assert!(u.shared > 0.0, "{} should use smem", b.abbrev());
            }
        }
    }

    #[test]
    fn table3_rows_match_paper_shapes() {
        for b in all_benchmarks(Scale::Tiny) {
            let row = b.table3();
            assert!(row.constant_memory, "{}: all rows use const", row.abbrev);
            assert!(row.grid.0 >= 1 && row.cta.0 >= 32);
        }
        let nvb = benchmark(Scale::Tiny, "NvB").unwrap().table3();
        assert_eq!(nvb.grid, (2048, 1, 1));
        assert_eq!(nvb.cta, (256, 1, 1));
    }
}
