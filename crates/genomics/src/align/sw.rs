//! Smith-Waterman local alignment with affine gaps.

use crate::scoring::{GapModel, SubstScore};

const NEG_INF: i32 = i32::MIN / 4;

/// Local alignment score only (two-row Gotoh with a zero floor).
pub fn sw_score(query: &[u8], target: &[u8], subst: &impl SubstScore, gaps: GapModel) -> i32 {
    let (open, extend) = affine(gaps);
    let m = target.len();
    let mut h_prev = vec![0i32; m + 1];
    let mut e_prev = vec![NEG_INF; m + 1];
    let mut h = vec![0i32; m + 1];
    let mut e = vec![0i32; m + 1];
    let mut best = 0;
    for &qc in query {
        let mut f = NEG_INF;
        h[0] = 0;
        for j in 1..=m {
            e[j] = (e_prev[j] - extend).max(h_prev[j] - open - extend);
            f = (f - extend).max(h[j - 1] - open - extend);
            let diag = h_prev[j - 1] + subst.score(qc, target[j - 1]);
            h[j] = diag.max(e[j]).max(f).max(0);
            best = best.max(h[j]);
        }
        std::mem::swap(&mut h_prev, &mut h);
        std::mem::swap(&mut e_prev, &mut e);
    }
    best
}

fn affine(gaps: GapModel) -> (i32, i32) {
    match gaps {
        GapModel::Affine { open, extend } => (open, extend),
        GapModel::Linear { penalty } => (0, penalty),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::Simple;
    use crate::seq::DnaSeq;

    fn dna(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    const SUB: Simple = Simple {
        matches: 2,
        mismatch: -3,
    };
    const GAPS: GapModel = GapModel::Affine { open: 5, extend: 2 };

    #[test]
    fn finds_embedded_match() {
        // Query CCC GTACGT AAA vs target TT GTACGT GG: local region GTACGT.
        let q = dna("CCCGTACGTAAA");
        let t = dna("TTGTACGTGG");
        assert_eq!(sw_score(q.codes(), t.codes(), &SUB, GAPS), 12);
    }

    #[test]
    fn disjoint_sequences_score_low() {
        let q = dna("AAAAAAAA");
        let t = dna("TTTTTTTT");
        assert_eq!(sw_score(q.codes(), t.codes(), &SUB, GAPS), 0);
    }

    #[test]
    fn local_beats_global_on_partial_overlap() {
        // Local alignment of partially overlapping sequences scores the
        // overlap; SW's signature property per the paper's description.
        let q = dna("AAAACGTACGT");
        let t = dna("CGTACGTTTTT");
        let local = sw_score(q.codes(), t.codes(), &SUB, GAPS);
        assert_eq!(local, 14, "overlap CGTACGT = 7 matches");
    }

    #[test]
    fn gap_in_local_alignment() {
        let q = dna("GGGACGTTACGTGGG");
        let t = dna("ACGTACGT");
        let cheap = GapModel::Affine { open: 2, extend: 1 };
        // Aligns ACGT[T]ACGT against ACGTACGT with one insertion:
        // 8 matches - (open 2 + extend 1) = 13, beating any ungapped run.
        assert_eq!(sw_score(q.codes(), t.codes(), &SUB, cheap), 8 * 2 - 3);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(sw_score(&[], &[], &SUB, GAPS), 0);
        assert_eq!(sw_score(&[], dna("ACGT").codes(), &SUB, GAPS), 0);
    }
}
