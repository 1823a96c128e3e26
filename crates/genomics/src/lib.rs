//! # ggpu-genomics — CPU reference genome-analysis algorithms
//!
//! One CPU implementation per algorithm: the functional oracle the
//! simulated-GPU kernels in `ggpu-kernels` are validated against, which is
//! also what Figure 2 times as the CPU side.
//!
//! * [`align`] — Needleman-Wunsch global (linear/affine/banded),
//!   Smith-Waterman local, semi-global, and KSW2-style extension alignment
//!   with z-drop (SW / NW / GG / GL / GSG / GKSW; `nw_score` is also the
//!   oracle of STAR's pair and centre phases and of CLUSTER's threshold
//!   loop). The traceback variants are the reference the score-only
//!   functions are property-tested against and the GG-TB kernel's oracle.
//! * [`pairhmm`] — GATK-style Pair-HMM forward algorithm (PairHMM).
//! * [`fmindex`] — suffix array and BWT (what NvB's `FmTables` are built
//!   from) and a checkpointed [`FmIndex`], the reference `FmTables` is
//!   unit-tested against.
//! * [`scoring`] — match/mismatch and BLOSUM62 substitution scores, gap
//!   models.
//! * [`io`] — FASTA/FASTQ parsing: the only bytes that come from outside
//!   the program (`data/`).
//! * [`synth`] — seeded synthetic genomes, mutated copies and sequence
//!   families standing in for the paper's datasets (see DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod align;
pub mod fmindex;
pub mod io;
pub mod pairhmm;
pub mod scoring;
pub mod seq;
pub mod synth;

pub use align::{
    ksw_extend, nw_align, nw_align_banded, nw_score, semiglobal_align, semiglobal_score, sw_align,
    sw_score, Alignment, CigarOp, KswResult,
};
pub use fmindex::FmIndex;
pub use io::{parse_fasta, parse_fastq, FastaRecord, FastqRecord};
pub use pairhmm::{phred_to_error, PairHmm};
pub use scoring::{blosum62_index_matrix, GapModel, IndexedMatrix, Simple, SubstScore};
pub use seq::{complement, decode_base, encode_base, DnaSeq, ParseSeqError};
pub use synth::{mutate, random_genome, sequence_family};
