//! Pairwise sequence alignment: global (Needleman-Wunsch), local
//! (Smith-Waterman), semi-global, and KSW2-style extension alignment with
//! z-drop.
//!
//! All algorithms operate on symbol slices (2-bit DNA codes or ASCII amino
//! acids) and are generic over a [`SubstScore`](crate::SubstScore).

mod ksw;
mod nw;
mod semiglobal;
mod sw;

pub use ksw::{ksw_extend, KswResult};
pub use nw::{nw_align, nw_score};
pub use semiglobal::{semiglobal_align, semiglobal_score};
pub use sw::sw_score;

/// One CIGAR operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CigarOp {
    /// Alignment match or mismatch (`M`).
    Match,
    /// Insertion to the query relative to the target (`I`).
    Ins,
    /// Deletion from the query relative to the target (`D`).
    Del,
}

/// A pairwise alignment: score, CIGAR, and aligned coordinate ranges
/// (half-open) on the query and target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Alignment score.
    pub score: i32,
    /// Run-length encoded CIGAR.
    pub cigar: Vec<(CigarOp, u32)>,
    /// Aligned query range `[start, end)`.
    pub query: (usize, usize),
    /// Aligned target range `[start, end)`.
    pub target: (usize, usize),
}

impl Alignment {
    /// Number of query symbols consumed by the CIGAR.
    pub fn query_len(&self) -> usize {
        self.cigar
            .iter()
            .filter(|(op, _)| matches!(op, CigarOp::Match | CigarOp::Ins))
            .map(|(_, n)| *n as usize)
            .sum()
    }

    /// Number of target symbols consumed by the CIGAR.
    pub fn target_len(&self) -> usize {
        self.cigar
            .iter()
            .filter(|(op, _)| matches!(op, CigarOp::Match | CigarOp::Del))
            .map(|(_, n)| *n as usize)
            .sum()
    }
}

/// Push an op onto a run-length CIGAR, merging adjacent runs.
pub(crate) fn push_op(cigar: &mut Vec<(CigarOp, u32)>, op: CigarOp) {
    match cigar.last_mut() {
        Some((last, n)) if *last == op => *n += 1,
        _ => cigar.push((op, 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cigar_lengths() {
        let a = Alignment {
            score: 5,
            cigar: vec![(CigarOp::Match, 3), (CigarOp::Ins, 1), (CigarOp::Del, 2)],
            query: (0, 4),
            target: (0, 5),
        };
        assert_eq!(a.query_len(), 4);
        assert_eq!(a.target_len(), 5);
    }

    #[test]
    fn push_op_merges_runs() {
        let mut c = Vec::new();
        push_op(&mut c, CigarOp::Match);
        push_op(&mut c, CigarOp::Match);
        push_op(&mut c, CigarOp::Ins);
        push_op(&mut c, CigarOp::Match);
        assert_eq!(
            c,
            vec![(CigarOp::Match, 2), (CigarOp::Ins, 1), (CigarOp::Match, 1)]
        );
    }
}
