//! Property-based tests over the genomics substrate's core invariants.

use ggpu_genomics::{
    ksw_extend, nw_align, nw_score, semiglobal_align, sw_align, sw_score, DnaSeq, FmIndex,
    GapModel, PairHmm, Simple,
};
use proptest::prelude::*;

const SUB: Simple = Simple {
    matches: 2,
    mismatch: -3,
};
const GAPS: GapModel = GapModel::Affine { open: 5, extend: 2 };

fn dna_codes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..4, 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nw_score_is_symmetric(q in dna_codes(40), t in dna_codes(40)) {
        // Global alignment with a symmetric substitution matrix is
        // symmetric in its arguments.
        prop_assert_eq!(nw_score(&q, &t, &SUB, GAPS), nw_score(&t, &q, &SUB, GAPS));
    }

    #[test]
    fn nw_self_alignment_is_perfect(q in dna_codes(60)) {
        prop_assert_eq!(nw_score(&q, &q, &SUB, GAPS), 2 * q.len() as i32);
    }

    #[test]
    fn nw_traceback_consumes_both_sequences(q in dna_codes(40), t in dna_codes(40)) {
        let a = nw_align(&q, &t, &SUB, GAPS);
        prop_assert_eq!(a.query_len(), q.len());
        prop_assert_eq!(a.target_len(), t.len());
        prop_assert_eq!(a.score, nw_score(&q, &t, &SUB, GAPS));
    }

    #[test]
    fn sw_score_nonnegative_and_bounded(q in dna_codes(40), t in dna_codes(40)) {
        let s = sw_score(&q, &t, &SUB, GAPS);
        prop_assert!(s >= 0);
        prop_assert!(s <= 2 * q.len().min(t.len()) as i32);
    }

    #[test]
    fn sw_at_least_nw(q in dna_codes(40), t in dna_codes(40)) {
        // A local alignment can always do at least as well as a global one.
        prop_assert!(sw_score(&q, &t, &SUB, GAPS) >= nw_score(&q, &t, &SUB, GAPS));
    }

    #[test]
    fn sw_traceback_range_matches_cigar(q in dna_codes(40), t in dna_codes(40)) {
        let a = sw_align(&q, &t, &SUB, GAPS);
        prop_assert_eq!(a.query.1 - a.query.0, a.query_len());
        prop_assert_eq!(a.target.1 - a.target.0, a.target_len());
    }

    #[test]
    fn semiglobal_at_least_global(q in dna_codes(30), t in dna_codes(30)) {
        // Free target-end gaps can only help.
        let sg = semiglobal_align(&q, &t, &SUB, GAPS).score;
        prop_assert!(sg >= nw_score(&q, &t, &SUB, GAPS));
    }

    #[test]
    fn ksw_scores_bounded_and_monotone_in_band(q in dna_codes(30), t in dna_codes(30)) {
        let narrow = ksw_extend(&q, &t, &SUB, GAPS, 2, i32::MAX);
        let wide = ksw_extend(&q, &t, &SUB, GAPS, usize::MAX, i32::MAX);
        prop_assert!(wide.score >= narrow.score, "wider band can't hurt");
        prop_assert!(wide.score >= 0);
        prop_assert!(wide.query_end <= q.len());
        prop_assert!(wide.target_end <= t.len());
    }

    #[test]
    fn revcomp_is_involutive(codes in dna_codes(100)) {
        let s = DnaSeq::from_codes(codes);
        prop_assert_eq!(s.revcomp().revcomp(), s);
    }

    #[test]
    fn fmindex_count_matches_naive(genome in dna_codes(300), pat in dna_codes(6)) {
        let g = DnaSeq::from_codes(genome.clone());
        let fm = FmIndex::new(&g);
        let naive = if pat.len() > genome.len() { 0 } else {
            (0..=genome.len() - pat.len())
                .filter(|&i| genome[i..i + pat.len()] == pat[..])
                .count()
        };
        prop_assert_eq!(fm.count(&DnaSeq::from_codes(pat)), naive);
    }

    #[test]
    fn fmindex_find_positions_contain_pattern(genome in dna_codes(200), start in 0usize..150, len in 3usize..8) {
        prop_assume!(start + len <= genome.len());
        let g = DnaSeq::from_codes(genome.clone());
        let fm = FmIndex::new(&g);
        let pat = g.slice(start, len);
        let hits = fm.find(&pat);
        prop_assert!(hits.contains(&start), "own position must be found");
        for h in hits {
            prop_assert_eq!(&genome[h..h + len], pat.codes());
        }
    }

    #[test]
    fn pairhmm_likelihoods_are_probabilities(read in dna_codes(12), hap in dna_codes(20)) {
        let hmm = PairHmm::default();
        let quals = vec![30u8; read.len()];
        let lk = hmm.forward(&read, &quals, &hap);
        // log10 of a probability: must be <= 0 and finite for nonempty inputs.
        prop_assert!(lk <= 1e-9, "got log10 likelihood {lk}");
        prop_assert!(lk.is_finite());
    }

    #[test]
    fn pairhmm_prefers_the_true_haplotype(hap in dna_codes(24), start in 0usize..12) {
        prop_assume!(hap.len() >= 16 && start + 8 <= hap.len());
        let read: Vec<u8> = hap[start..start + 8].to_vec();
        let other: Vec<u8> = hap.iter().map(|&c| (c + 2) % 4).collect();
        let hmm = PairHmm::default();
        let quals = vec![35u8; read.len()];
        let true_lk = hmm.forward(&read, &quals, &hap);
        let wrong_lk = hmm.forward(&read, &quals, &other);
        prop_assert!(true_lk > wrong_lk);
    }
}
