//! Pair Hidden Markov Model forward algorithm (GATK-HaplotypeCaller
//! style), computing the likelihood that a read was sequenced from a
//! candidate haplotype.

/// Pair-HMM transition parameters.
///
/// The model has three states — match (M), insertion-in-read (X) and
/// deletion-from-read (Y) — with the standard GATK transition structure:
/// gap open `delta`, gap extension `epsilon`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairHmm {
    /// Gap-open probability (M→X, M→Y).
    pub gap_open: f64,
    /// Gap-extension probability (X→X, Y→Y).
    pub gap_ext: f64,
}

impl Default for PairHmm {
    /// GATK-like defaults: gap open 1e-3, extension 0.1.
    fn default() -> Self {
        PairHmm {
            gap_open: 1e-3,
            gap_ext: 0.1,
        }
    }
}

/// Convert a Phred base quality to an error probability.
#[inline]
pub fn phred_to_error(q: u8) -> f64 {
    10f64.powf(-(q as f64) / 10.0)
}

impl PairHmm {
    /// Forward-algorithm likelihood `log10 P(read | haplotype)`.
    ///
    /// `read` and `hap` are symbol slices (2-bit codes); `quals` are Phred
    /// base qualities, one per read base.
    ///
    /// # Panics
    ///
    /// Panics if `quals.len() != read.len()`.
    pub fn forward(&self, read: &[u8], quals: &[u8], hap: &[u8]) -> f64 {
        assert_eq!(read.len(), quals.len(), "one quality per read base");
        let n = read.len();
        let m = hap.len();
        if n == 0 || m == 0 {
            return f64::NEG_INFINITY;
        }
        let t_mm = 1.0 - 2.0 * self.gap_open;
        let t_mx = self.gap_open;
        let t_my = self.gap_open;
        let t_xx = self.gap_ext;
        let t_xm = 1.0 - self.gap_ext;
        let t_yy = self.gap_ext;
        let t_ym = 1.0 - self.gap_ext;

        // Row-wise DP with scaling to avoid underflow on long reads.
        let w = m + 1;
        let mut m_prev = vec![0f64; w];
        let mut x_prev = vec![0f64; w];
        let mut y_prev = vec![0f64; w];
        let mut m_cur = vec![0f64; w];
        let mut x_cur = vec![0f64; w];
        let mut y_cur = vec![0f64; w];
        // Free start anywhere in the haplotype: probability mass enters
        // through the Y (deletion) state of row 0.
        let init = 1.0 / m as f64;
        y_prev.iter_mut().for_each(|y| *y = init);
        let mut log_scale = 0f64;

        for i in 1..=n {
            let err = phred_to_error(quals[i - 1]);
            m_cur[0] = 0.0;
            x_cur[0] = 0.0;
            y_cur[0] = 0.0;
            for j in 1..=m {
                let prior = if read[i - 1] == hap[j - 1] {
                    1.0 - err
                } else {
                    err / 3.0
                };
                m_cur[j] =
                    prior * (t_mm * m_prev[j - 1] + t_xm * x_prev[j - 1] + t_ym * y_prev[j - 1]);
                x_cur[j] = t_mx * m_prev[j] + t_xx * x_prev[j];
                y_cur[j] = t_my * m_cur[j - 1] + t_yy * y_cur[j - 1];
            }
            // Rescale the row to keep values in range.
            let row_max = m_cur
                .iter()
                .chain(x_cur.iter())
                .chain(y_cur.iter())
                .fold(0f64, |a, &b| a.max(b));
            if row_max > 0.0 && !(1e-100..=1e100).contains(&row_max) {
                let inv = 1.0 / row_max;
                for v in m_cur
                    .iter_mut()
                    .chain(x_cur.iter_mut())
                    .chain(y_cur.iter_mut())
                {
                    *v *= inv;
                }
                log_scale += row_max.log10();
            }
            std::mem::swap(&mut m_prev, &mut m_cur);
            std::mem::swap(&mut x_prev, &mut x_cur);
            std::mem::swap(&mut y_prev, &mut y_cur);
        }

        // Free end anywhere: sum M and X mass over the final row.
        let total: f64 = (1..=m).map(|j| m_prev[j] + x_prev[j]).sum();
        if total <= 0.0 {
            f64::NEG_INFINITY
        } else {
            total.log10() + log_scale
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::DnaSeq;

    fn dna(s: &str) -> Vec<u8> {
        s.parse::<DnaSeq>().unwrap().codes().to_vec()
    }

    #[test]
    fn phred_conversion() {
        assert!((phred_to_error(10) - 0.1).abs() < 1e-12);
        assert!((phred_to_error(30) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn perfect_match_beats_mismatch() {
        let hmm = PairHmm::default();
        let read = dna("ACGTACGTACGT");
        let quals = vec![30u8; read.len()];
        let hap_exact = dna("TTTTACGTACGTACGTTTTT");
        let hap_mut = dna("TTTTACGAACGTACGTTTTT"); // one substitution
        let exact = hmm.forward(&read, &quals, &hap_exact);
        let with_mismatch = hmm.forward(&read, &quals, &hap_mut);
        assert!(exact > with_mismatch, "{exact} vs {with_mismatch}");
    }

    #[test]
    fn lower_quality_softens_mismatch_penalty() {
        let hmm = PairHmm::default();
        let read = dna("ACGTACGTACGT");
        let hap = dna("ACGAACGTACGT"); // mismatch at position 3
        let mut quals_high = vec![40u8; read.len()];
        let mut quals_low = quals_high.clone();
        quals_high[3] = 40;
        quals_low[3] = 5; // the mismatched base is low-confidence
        let high = hmm.forward(&read, &quals_high, &hap);
        let low = hmm.forward(&read, &quals_low, &hap);
        assert!(
            low > high,
            "low-quality mismatch should be likelier: {low} vs {high}"
        );
    }

    #[test]
    fn indel_haplotype_scores_below_exact() {
        let hmm = PairHmm::default();
        let read = dna("ACGTACGTACGTACGT");
        let quals = vec![30u8; read.len()];
        let exact = hmm.forward(&read, &quals, &dna("ACGTACGTACGTACGT"));
        let del = hmm.forward(&read, &quals, &dna("ACGTACGACGTACGT"));
        assert!(exact > del);
        // But an indel is far better than a random haplotype.
        let random = hmm.forward(&read, &quals, &dna("GGGGGGGGGGGGGGGG"));
        assert!(del > random);
    }

    #[test]
    fn long_reads_do_not_underflow() {
        let hmm = PairHmm::default();
        let read: Vec<u8> = (0..2000).map(|i| (i % 4) as u8).collect();
        let quals = vec![30u8; read.len()];
        let lk = hmm.forward(&read, &quals, &read.clone());
        assert!(lk.is_finite(), "got {lk}");
    }

    #[test]
    fn empty_inputs_are_impossible() {
        let hmm = PairHmm::default();
        assert_eq!(hmm.forward(&[], &[], &dna("ACGT")), f64::NEG_INFINITY);
        assert_eq!(hmm.forward(&dna("AC"), &[0, 0], &[]), f64::NEG_INFINITY);
    }
}
