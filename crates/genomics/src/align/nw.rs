//! Needleman-Wunsch global alignment (linear and affine gaps).

use crate::scoring::{GapModel, SubstScore};

use super::{push_op, Alignment, CigarOp};

const NEG_INF: i32 = i32::MIN / 4;

/// Global alignment score only (no traceback) under `gaps`.
pub fn nw_score(query: &[u8], target: &[u8], subst: &impl SubstScore, gaps: GapModel) -> i32 {
    match gaps {
        GapModel::Linear { penalty } => nw_score_linear(query, target, subst, penalty),
        GapModel::Affine { open, extend } => {
            // Two-row Gotoh.
            let m = target.len();
            let mut h_prev = vec![0i32; m + 1];
            let mut e_prev = vec![NEG_INF; m + 1];
            #[allow(clippy::needless_range_loop)] // j is also the gap length
            for j in 1..=m {
                h_prev[j] = -(open + extend * j as i32);
            }
            let mut h = vec![0i32; m + 1];
            let mut e = vec![0i32; m + 1];
            for (i, &qc) in query.iter().enumerate() {
                h[0] = -(open + extend * (i as i32 + 1));
                let mut f = NEG_INF;
                for j in 1..=m {
                    e[j] = (e_prev[j] - extend).max(h_prev[j] - open - extend);
                    f = (f - extend).max(h[j - 1] - open - extend);
                    let diag = h_prev[j - 1] + subst.score(qc, target[j - 1]);
                    h[j] = diag.max(e[j]).max(f);
                }
                std::mem::swap(&mut h_prev, &mut h);
                std::mem::swap(&mut e_prev, &mut e);
            }
            h_prev[m]
        }
    }
}

fn nw_score_linear(query: &[u8], target: &[u8], subst: &impl SubstScore, penalty: i32) -> i32 {
    let m = target.len();
    let mut prev: Vec<i32> = (0..=m as i32).map(|j| -penalty * j).collect();
    let mut cur = vec![0i32; m + 1];
    for (i, &qc) in query.iter().enumerate() {
        cur[0] = -penalty * (i as i32 + 1);
        for j in 1..=m {
            cur[j] = (prev[j - 1] + subst.score(qc, target[j - 1]))
                .max(prev[j] - penalty)
                .max(cur[j - 1] - penalty);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

/// Full global alignment with traceback (affine gaps via Gotoh).
pub fn nw_align(query: &[u8], target: &[u8], subst: &impl SubstScore, gaps: GapModel) -> Alignment {
    let n = query.len();
    let m = target.len();
    let (open, extend) = match gaps {
        GapModel::Affine { open, extend } => (open, extend),
        GapModel::Linear { penalty } => (0, penalty),
    };
    let w = m + 1;
    let idx = |i: usize, j: usize| i * w + j;
    let mut h = vec![NEG_INF; (n + 1) * w];
    let mut e = vec![NEG_INF; (n + 1) * w]; // gap in query (Del from target view)
    let mut f = vec![NEG_INF; (n + 1) * w]; // gap in target (Ins)
    h[0] = 0;
    for j in 1..=m {
        e[idx(0, j)] = -(open + extend * j as i32);
        h[idx(0, j)] = e[idx(0, j)];
    }
    for i in 1..=n {
        f[idx(i, 0)] = -(open + extend * i as i32);
        h[idx(i, 0)] = f[idx(i, 0)];
        for j in 1..=m {
            let ii = idx(i, j);
            e[ii] = (e[ii - 1] - extend).max(h[ii - 1] - open - extend);
            f[ii] = (f[ii - w] - extend).max(h[ii - w] - open - extend);
            let diag = h[ii - w - 1].saturating_add(subst.score(query[i - 1], target[j - 1]));
            h[ii] = diag.max(e[ii]).max(f[ii]);
        }
    }

    // Traceback from (n, m).
    let mut cigar_rev: Vec<(CigarOp, u32)> = Vec::new();
    let (mut i, mut j) = (n, m);
    // Track whether we are inside an E (deletion) or F (insertion) run.
    let mut state = 0u8; // 0=H, 1=E, 2=F
    while i > 0 || j > 0 {
        let ii = idx(i, j);
        match state {
            0 => {
                if i > 0 && j > 0 {
                    let diag = h[idx(i - 1, j - 1)]
                        .saturating_add(subst.score(query[i - 1], target[j - 1]));
                    if h[ii] == diag {
                        push_op(&mut cigar_rev, CigarOp::Match);
                        i -= 1;
                        j -= 1;
                        continue;
                    }
                }
                if j > 0 && h[ii] == e[ii] {
                    state = 1;
                } else if i > 0 {
                    state = 2;
                } else {
                    state = 1;
                }
            }
            1 => {
                // Deletion (consume target).
                push_op(&mut cigar_rev, CigarOp::Del);
                let from_open = h[ii - 1] - open - extend;
                if e[ii] != from_open && j > 1 {
                    // stay in E
                } else {
                    state = 0;
                }
                j -= 1;
            }
            _ => {
                // Insertion (consume query).
                push_op(&mut cigar_rev, CigarOp::Ins);
                let from_open = h[ii - w] - open - extend;
                if f[ii] != from_open && i > 1 {
                    // stay in F
                } else {
                    state = 0;
                }
                i -= 1;
            }
        }
    }
    cigar_rev.reverse();
    Alignment {
        score: h[idx(n, m)],
        cigar: cigar_rev,
        query: (0, n),
        target: (0, m),
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
    fn identical_sequences_score_perfect() {
        let s = dna("ACGTACGT");
        let a = nw_align(s.codes(), s.codes(), &SUB, GAPS);
        assert_eq!(a.score, 16);
        assert_eq!(a.cigar, vec![(CigarOp::Match, 8)]);
        assert_eq!(nw_score(s.codes(), s.codes(), &SUB, GAPS), 16);
    }

    #[test]
    fn single_mismatch() {
        let a = nw_align(dna("ACGT").codes(), dna("AGGT").codes(), &SUB, GAPS);
        assert_eq!(a.score, 3 * 2 - 3);
        assert_eq!(a.cigar, vec![(CigarOp::Match, 4)]);
    }

    #[test]
    fn single_gap() {
        // ACGT vs ACT: one deletion of G.
        let a = nw_align(dna("ACGT").codes(), dna("ACT").codes(), &SUB, GAPS);
        assert_eq!(a.score, 3 * 2 - (5 + 2));
        assert_eq!(a.query_len(), 4);
        assert_eq!(a.target_len(), 3);
        // CIGAR consumes one more query symbol than target.
        let ins: u32 = a
            .cigar
            .iter()
            .filter(|(op, _)| *op == CigarOp::Ins)
            .map(|(_, n)| *n)
            .sum();
        assert_eq!(ins, 1);
    }

    #[test]
    fn affine_prefers_one_long_gap() {
        // Removing "GG" should be one gap of length 2, not two gaps.
        let q = dna("AAAAGGTTTT");
        let t = dna("AAAATTTT");
        let a = nw_align(q.codes(), t.codes(), &SUB, GAPS);
        assert_eq!(a.score, 8 * 2 - (5 + 2 * 2));
        let ins_runs = a.cigar.iter().filter(|(op, _)| *op == CigarOp::Ins).count();
        assert_eq!(ins_runs, 1, "CIGAR {:?}", a.cigar);
    }

    #[test]
    fn score_matches_traceback_score() {
        let q = dna("ACGTAGCTAGCTTACG");
        let t = dna("ACGTTAGCTAGTTACG");
        let a = nw_align(q.codes(), t.codes(), &SUB, GAPS);
        assert_eq!(a.score, nw_score(q.codes(), t.codes(), &SUB, GAPS));
        assert_eq!(a.query_len(), q.len());
        assert_eq!(a.target_len(), t.len());
    }

    #[test]
    fn linear_gap_model() {
        let gaps = GapModel::Linear { penalty: 2 };
        let a = nw_score(dna("ACGT").codes(), dna("ACT").codes(), &SUB, gaps);
        assert_eq!(a, 3 * 2 - 2);
    }

    #[test]
    fn empty_sequences() {
        let a = nw_align(&[], &[], &SUB, GAPS);
        assert_eq!(a.score, 0);
        assert!(a.cigar.is_empty());
        let b = nw_align(dna("ACG").codes(), &[], &SUB, GAPS);
        assert_eq!(b.score, -(5 + 3 * 2));
        assert_eq!(b.cigar, vec![(CigarOp::Ins, 3)]);
    }
}
