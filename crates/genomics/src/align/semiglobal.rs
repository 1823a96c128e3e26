//! Semi-global alignment: the whole query aligns, but gaps at the
//! beginning and end of the *target* are free (GASAL2's semi-global mode,
//! used to place a read inside a longer reference window).

use crate::scoring::{GapModel, SubstScore};

use super::{push_op, Alignment, CigarOp};

const NEG_INF: i32 = i32::MIN / 4;

/// Semi-global score only.
pub fn semiglobal_score(
    query: &[u8],
    target: &[u8],
    subst: &impl SubstScore,
    gaps: GapModel,
) -> i32 {
    semiglobal_align(query, target, subst, gaps).score
}

/// Semi-global alignment with traceback. [`Alignment::target`] reports the
/// spanned target window; the query range is always `(0, query.len())`.
pub fn semiglobal_align(
    query: &[u8],
    target: &[u8],
    subst: &impl SubstScore,
    gaps: GapModel,
) -> Alignment {
    let (open, extend) = match gaps {
        GapModel::Affine { open, extend } => (open, extend),
        GapModel::Linear { penalty } => (0, penalty),
    };
    let n = query.len();
    let m = target.len();
    let w = m + 1;
    let idx = |i: usize, j: usize| i * w + j;
    let mut h = vec![NEG_INF; (n + 1) * w];
    let mut e = vec![NEG_INF; (n + 1) * w];
    let mut f = vec![NEG_INF; (n + 1) * w];
    // Free leading target gaps: whole first row is zero.
    for j in 0..=m {
        h[idx(0, j)] = 0;
    }
    for i in 1..=n {
        // Query must align fully: leading query gaps cost.
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
    // Free trailing target gaps: best cell anywhere in the last row.
    let mut best = NEG_INF;
    let mut best_j = 0;
    for j in 0..=m {
        if h[idx(n, j)] > best {
            best = h[idx(n, j)];
            best_j = j;
        }
    }

    // Traceback from (n, best_j) to row 0.
    let mut cigar: Vec<(CigarOp, u32)> = Vec::new();
    let (mut i, mut j) = (n, best_j);
    let mut state = 0u8;
    while i > 0 {
        let ii = idx(i, j);
        match state {
            0 => {
                if j > 0 {
                    let diag = h[idx(i - 1, j - 1)]
                        .saturating_add(subst.score(query[i - 1], target[j - 1]));
                    if h[ii] == diag {
                        push_op(&mut cigar, CigarOp::Match);
                        i -= 1;
                        j -= 1;
                        continue;
                    }
                }
                if j > 0 && h[ii] == e[ii] {
                    state = 1;
                } else {
                    state = 2;
                }
            }
            1 => {
                push_op(&mut cigar, CigarOp::Del);
                let from_open = h[ii - 1] - open - extend;
                if e[ii] == from_open || j <= 1 {
                    state = 0;
                }
                j -= 1;
            }
            _ => {
                push_op(&mut cigar, CigarOp::Ins);
                let from_open = h[ii - w] - open - extend;
                if f[ii] == from_open || i <= 1 {
                    state = 0;
                }
                i -= 1;
            }
        }
    }
    cigar.reverse();
    Alignment {
        score: best,
        cigar,
        query: (0, n),
        target: (j, best_j),
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
    fn read_placed_inside_reference_window() {
        let read = dna("ACGTACGT");
        let window = dna("TTTTTACGTACGTTTTT");
        let a = semiglobal_align(read.codes(), window.codes(), &SUB, GAPS);
        assert_eq!(a.score, 16, "full-length free placement");
        assert_eq!(a.cigar, vec![(CigarOp::Match, 8)]);
        assert_eq!(a.target, (5, 13));
    }

    #[test]
    fn query_end_gaps_are_charged() {
        // Query longer than target: must pay for the overhang.
        let read = dna("AAACGTACGTAA");
        let window = dna("CGTACGT");
        let a = semiglobal_align(read.codes(), window.codes(), &SUB, GAPS);
        assert!(a.score < 14, "overhang must cost, got {}", a.score);
        assert_eq!(a.query_len(), read.len());
    }

    #[test]
    fn mismatch_in_middle() {
        let read = dna("ACGAACGT");
        let window = dna("GGACGTACGTGG");
        let a = semiglobal_align(read.codes(), window.codes(), &SUB, GAPS);
        assert_eq!(a.score, 7 * 2 - 3);
    }

    #[test]
    fn score_function_agrees() {
        let read = dna("ACGTAC");
        let window = dna("TTACGTACTT");
        assert_eq!(
            semiglobal_score(read.codes(), window.codes(), &SUB, GAPS),
            semiglobal_align(read.codes(), window.codes(), &SUB, GAPS).score
        );
    }

    #[test]
    fn empty_query_is_free() {
        let a = semiglobal_align(&[], dna("ACGT").codes(), &SUB, GAPS);
        assert_eq!(a.score, 0);
        assert!(a.cigar.is_empty());
    }
}
