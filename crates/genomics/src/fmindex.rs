//! FM-index over 2-bit DNA: suffix array (prefix doubling), Burrows-Wheeler
//! transform, rank (Occ) structure, backward search, and locate — the
//! substrate under the NvBowtie-style read mapper.

/// Sentinel symbol appended to the text (sorts before A/C/G/T).
pub const SENTINEL: u8 = 4;

/// Build the suffix array of `text` (values `0..=4`) by prefix doubling.
///
/// `O(n log² n)`; fine for the megabase-scale synthetic references this
/// suite uses.
pub fn suffix_array(text: &[u8]) -> Vec<u32> {
    let n = text.len();
    if n == 0 {
        return Vec::new();
    }
    let mut sa: Vec<u32> = (0..n as u32).collect();
    let mut rank: Vec<i64> = text.iter().map(|&c| c as i64).collect();
    let mut tmp = vec![0i64; n];
    let mut k = 1usize;
    while k < n {
        let key = |i: u32| {
            let i = i as usize;
            let second = if i + k < n { rank[i + k] } else { -1 };
            (rank[i], second)
        };
        sa.sort_unstable_by_key(|&i| key(i));
        tmp[sa[0] as usize] = 0;
        for w in 1..n {
            let prev = sa[w - 1];
            let cur = sa[w];
            tmp[cur as usize] = tmp[prev as usize] + if key(cur) == key(prev) { 0 } else { 1 };
        }
        rank.copy_from_slice(&tmp);
        if rank[sa[n - 1] as usize] as usize == n - 1 {
            break;
        }
        k *= 2;
    }
    sa
}

/// Burrows-Wheeler transform from a text and its suffix array.
pub fn bwt_from_sa(text: &[u8], sa: &[u32]) -> Vec<u8> {
    sa.iter()
        .map(|&i| {
            if i == 0 {
                text[text.len() - 1]
            } else {
                text[i as usize - 1]
            }
        })
        .collect()
}

/// Occ checkpoint spacing.
const OCC_BLOCK: usize = 64;
/// SA sampling rate for locate.
const SA_SAMPLE: usize = 8;

/// An FM-index over a 2-bit DNA text.
///
/// ```
/// use ggpu_genomics::{DnaSeq, FmIndex};
/// let genome: DnaSeq = "ACGTACGTTACG".parse().unwrap();
/// let fm = FmIndex::new(&genome);
/// let hits = fm.find(&"ACG".parse::<DnaSeq>().unwrap());
/// assert_eq!(hits, vec![0, 4, 9]);
/// ```
#[derive(Debug, Clone)]
pub struct FmIndex {
    bwt: Vec<u8>,
    /// `c_table[c]` = number of symbols strictly smaller than `c` in the
    /// text (over the 5-symbol alphabet with the sentinel).
    c_table: [usize; 6],
    /// Occ checkpoints every `OCC_BLOCK` positions, for symbols 0..5.
    checkpoints: Vec<[u32; 5]>,
    /// Sampled suffix array: entries at SA positions divisible by
    /// `SA_SAMPLE`, keyed densely.
    sa_samples: Vec<(u32, u32)>,
    text_len: usize,
}

impl FmIndex {
    /// Index a DNA sequence (the sentinel is appended internally).
    pub fn new(seq: &crate::seq::DnaSeq) -> Self {
        let mut text = seq.codes().to_vec();
        text.push(SENTINEL);
        Self::from_text(text)
    }

    fn from_text(text: Vec<u8>) -> Self {
        let sa = suffix_array(&text);
        let bwt = bwt_from_sa(&text, &sa);
        let n = bwt.len();

        let mut counts = [0usize; 6];
        for &c in &text {
            counts[c as usize + 1] += 1;
        }
        let mut c_table = [0usize; 6];
        for c in 1..6 {
            c_table[c] = c_table[c - 1] + counts[c];
        }

        let mut checkpoints = Vec::with_capacity(n / OCC_BLOCK + 2);
        let mut running = [0u32; 5];
        for (i, &c) in bwt.iter().enumerate() {
            if i.is_multiple_of(OCC_BLOCK) {
                checkpoints.push(running);
            }
            running[c as usize] += 1;
        }
        checkpoints.push(running);

        let mut sa_samples = Vec::new();
        for (pos, &s) in sa.iter().enumerate() {
            if (s as usize).is_multiple_of(SA_SAMPLE) {
                sa_samples.push((pos as u32, s));
            }
        }
        sa_samples.sort_unstable();

        FmIndex {
            bwt,
            c_table,
            checkpoints,
            sa_samples,
            text_len: n,
        }
    }

    /// Number of occurrences of symbol `c` in `bwt[0..pos)`.
    pub(crate) fn occ(&self, c: u8, pos: usize) -> usize {
        let block = pos / OCC_BLOCK;
        let mut count = self.checkpoints[block][c as usize] as usize;
        for &b in &self.bwt[block * OCC_BLOCK..pos] {
            if b == c {
                count += 1;
            }
        }
        count
    }

    /// One LF-mapping step from BWT row `row`.
    fn lf(&self, row: usize) -> usize {
        let c = self.bwt[row];
        self.c_table[c as usize] + self.occ(c, row)
    }

    /// Backward search: the SA interval `[lo, hi)` of suffixes prefixed by
    /// `pattern` (2-bit codes). Empty interval when absent.
    pub fn backward_search(&self, pattern: &[u8]) -> (usize, usize) {
        let mut lo = 0usize;
        let mut hi = self.text_len;
        for &c in pattern.iter().rev() {
            debug_assert!(c < 4);
            lo = self.c_table[c as usize] + self.occ(c, lo);
            hi = self.c_table[c as usize] + self.occ(c, hi);
            if lo >= hi {
                return (0, 0);
            }
        }
        (lo, hi)
    }

    /// Count occurrences of `pattern`.
    pub fn count(&self, pattern: &crate::seq::DnaSeq) -> usize {
        let (lo, hi) = self.backward_search(pattern.codes());
        hi - lo
    }

    /// Text position of the suffix at SA row `row`, via sampled SA +
    /// LF-stepping.
    pub(crate) fn locate_row(&self, row: usize) -> usize {
        let mut r = row;
        let mut steps = 0usize;
        loop {
            if let Ok(i) = self
                .sa_samples
                .binary_search_by_key(&(r as u32), |&(p, _)| p)
            {
                return (self.sa_samples[i].1 as usize + steps) % self.text_len;
            }
            r = self.lf(r);
            steps += 1;
        }
    }

    /// All text positions where `pattern` occurs, sorted.
    pub fn find(&self, pattern: &crate::seq::DnaSeq) -> Vec<usize> {
        let (lo, hi) = self.backward_search(pattern.codes());
        let mut out: Vec<usize> = (lo..hi).map(|r| self.locate_row(r)).collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::DnaSeq;

    fn dna(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    #[test]
    fn suffix_array_of_banana_like_text() {
        // text "ACCA$"-ish in codes: [0,1,1,0,4]
        let text = vec![0u8, 1, 1, 0, 4];
        let sa = suffix_array(&text);
        // Suffixes sorted: positions by lexicographic order.
        let mut expected: Vec<u32> = (0..5).collect();
        expected.sort_by_key(|&i| text[i as usize..].to_vec());
        assert_eq!(sa, expected);
    }

    #[test]
    fn suffix_array_matches_naive_on_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let n = rng.gen_range(1..200);
            let mut text: Vec<u8> = (0..n).map(|_| rng.gen_range(0..4)).collect();
            text.push(SENTINEL);
            let sa = suffix_array(&text);
            let mut expected: Vec<u32> = (0..text.len() as u32).collect();
            expected.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
            assert_eq!(sa, expected, "n={n}");
        }
    }

    #[test]
    fn count_and_find() {
        let genome = dna("ACGTACGTTACG");
        let fm = FmIndex::new(&genome);
        assert_eq!(fm.count(&dna("ACG")), 3);
        assert_eq!(fm.find(&dna("ACG")), vec![0, 4, 9]);
        assert_eq!(fm.count(&dna("ACGT")), 2);
        assert_eq!(fm.count(&dna("TTT")), 0);
        assert_eq!(fm.find(&dna("TTT")), Vec::<usize>::new());
    }

    #[test]
    fn find_agrees_with_naive_scan() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let genome_codes: Vec<u8> = (0..500).map(|_| rng.gen_range(0..4)).collect();
        let genome = crate::seq::DnaSeq::from_codes(genome_codes.clone());
        let fm = FmIndex::new(&genome);
        for _ in 0..20 {
            let len = rng.gen_range(2..12);
            let start = rng.gen_range(0..genome_codes.len() - len);
            let pat = genome.slice(start, len);
            let naive: Vec<usize> = (0..=genome_codes.len() - len)
                .filter(|&i| &genome_codes[i..i + len] == pat.codes())
                .collect();
            assert_eq!(fm.find(&pat), naive, "pattern {pat}");
        }
    }

    #[test]
    fn whole_text_occurs_once() {
        let genome = dna("ACGGCTAGCATCG");
        let fm = FmIndex::new(&genome);
        assert_eq!(fm.find(&genome), vec![0]);
    }

    #[test]
    fn single_base_counts() {
        let genome = dna("AACCGGTTAA");
        let fm = FmIndex::new(&genome);
        assert_eq!(fm.count(&dna("A")), 4);
        assert_eq!(fm.count(&dna("C")), 2);
        assert_eq!(fm.count(&dna("G")), 2);
        assert_eq!(fm.count(&dna("T")), 2);
    }

    #[test]
    fn empty_pattern_matches_everything() {
        let genome = dna("ACGT");
        let fm = FmIndex::new(&genome);
        let (lo, hi) = fm.backward_search(&[]);
        assert_eq!(hi - lo, 5); // 4 bases + sentinel
    }
}
