//! # ggpu-genomics — CPU reference genome-analysis algorithms
//!
//! One CPU implementation per algorithm: the functional oracle the
//! simulated-GPU kernels in `ggpu-kernels` are validated against, which is
//! also what Figure 2 times as the CPU side.
//!
//! * Alignment — Needleman-Wunsch global (linear/affine), Smith-Waterman
//!   local, semi-global, and KSW2-style extension alignment with z-drop
//!   (SW / NW / GG / GL / GSG / GKSW; [`nw_score`] is also the oracle of
//!   STAR's pair and centre phases and of CLUSTER's threshold loop). The
//!   NW and semi-global tracebacks are the reference the score-only
//!   functions are property-tested against and the GG-TB kernel's oracle.
//! * [`PairHmm`] — GATK-style Pair-HMM forward algorithm (PairHMM).
//! * Suffix array and BWT (what NvB's `FmTables` are built from) and a
//!   checkpointed [`FmIndex`], the reference `FmTables` is unit-tested
//!   against.
//! * Match/mismatch and BLOSUM62 substitution scores, gap models.
//! * Seeded synthetic genomes, mutated copies and sequence families
//!   standing in for the paper's datasets (see DESIGN.md); every input
//!   the suite runs comes from these generators.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod align;
mod fmindex;
mod pairhmm;
mod scoring;
mod seq;
mod synth;

pub use align::{
    ksw_extend, nw_align, nw_score, semiglobal_align, semiglobal_score, sw_score, Alignment,
    CigarOp, KswResult,
};
pub use fmindex::{bwt_from_sa, suffix_array, FmIndex, SENTINEL};
pub use pairhmm::{phred_to_error, PairHmm};
pub use scoring::{blosum62_index_matrix, GapModel, IndexedMatrix, Simple, SubstScore};
pub use seq::{complement, decode_base, encode_base, DnaSeq, ParseSeqError};
pub use synth::{mutate, random_genome, sequence_family};
