//! Substitution scoring and gap penalty models.

/// Substitution scorer over sequence symbols (2-bit DNA codes or residue
/// indices, depending on the implementation).
pub trait SubstScore {
    /// Score of aligning symbol `a` against symbol `b`.
    fn score(&self, a: u8, b: u8) -> i32;
}

/// Simple match/mismatch scoring (DNA-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Simple {
    /// Score for `a == b`.
    pub matches: i32,
    /// Score for `a != b` (typically negative).
    pub mismatch: i32,
}

impl Simple {
    /// The GASAL2 / KSW2 default: +1 / -4... scaled variant +2/-3 is also
    /// common; this constructor takes both explicitly.
    pub fn new(matches: i32, mismatch: i32) -> Self {
        Simple { matches, mismatch }
    }
}

impl Default for Simple {
    /// match=+2, mismatch=-3 (BWA-ish defaults).
    fn default() -> Self {
        Simple {
            matches: 2,
            mismatch: -3,
        }
    }
}

impl SubstScore for Simple {
    #[inline]
    fn score(&self, a: u8, b: u8) -> i32 {
        if a == b {
            self.matches
        } else {
            self.mismatch
        }
    }
}

/// Gap penalty model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapModel {
    /// Cost `penalty` per gapped base (penalty is positive; subtracted).
    Linear {
        /// Per-base gap cost (positive).
        penalty: i32,
    },
    /// Affine `open + extend * len` (both positive; subtracted).
    Affine {
        /// Cost to open a gap (positive).
        open: i32,
        /// Cost per gapped base (positive).
        extend: i32,
    },
}

impl Default for GapModel {
    /// Affine open=5, extend=2 (common NGS defaults).
    fn default() -> Self {
        GapModel::Affine { open: 5, extend: 2 }
    }
}

/// Packed 20×20 BLOSUM62 scores, residues in `ARNDCQEGHILKMFPSTWYV` order.
#[rustfmt::skip]
const B62: [[i8; 20]; 20] = [
    // A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V
    [  4, -1, -2, -2,  0, -1, -1,  0, -2, -1, -1, -1, -1, -2, -1,  1,  0, -3, -2,  0], // A
    [ -1,  5,  0, -2, -3,  1,  0, -2,  0, -3, -2,  2, -1, -3, -2, -1, -1, -3, -2, -3], // R
    [ -2,  0,  6,  1, -3,  0,  0,  0,  1, -3, -3,  0, -2, -3, -2,  1,  0, -4, -2, -3], // N
    [ -2, -2,  1,  6, -3,  0,  2, -1, -1, -3, -4, -1, -3, -3, -1,  0, -1, -4, -3, -3], // D
    [  0, -3, -3, -3,  9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1], // C
    [ -1,  1,  0,  0, -3,  5,  2, -2,  0, -3, -2,  1,  0, -3, -1,  0, -1, -2, -1, -2], // Q
    [ -1,  0,  0,  2, -4,  2,  5, -2,  0, -3, -3,  1, -2, -3, -1,  0, -1, -3, -2, -2], // E
    [  0, -2,  0, -1, -3, -2, -2,  6, -2, -4, -4, -2, -3, -3, -2,  0, -2, -2, -3, -3], // G
    [ -2,  0,  1, -1, -3,  0,  0, -2,  8, -3, -3, -1, -2, -1, -2, -1, -2, -2,  2, -3], // H
    [ -1, -3, -3, -3, -1, -3, -3, -4, -3,  4,  2, -3,  1,  0, -3, -2, -1, -3, -1,  3], // I
    [ -1, -2, -3, -4, -1, -2, -3, -4, -3,  2,  4, -2,  2,  0, -3, -2, -1, -2, -1,  1], // L
    [ -1,  2,  0, -1, -3,  1,  1, -2, -1, -3, -2,  5, -1, -3, -1,  0, -1, -3, -2, -2], // K
    [ -1, -1, -2, -3, -1,  0, -2, -3, -2,  1,  2, -1,  5,  0, -2, -1, -1, -1, -1,  1], // M
    [ -2, -3, -3, -3, -2, -3, -3, -3, -1,  0,  0, -3,  0,  6, -4, -2, -2,  1,  3, -1], // F
    [ -1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4,  7, -1, -1, -4, -3, -2], // P
    [  1, -1,  1,  0, -1,  0,  0,  0, -1, -2, -2,  0, -1, -2, -1,  4,  1, -3, -2, -2], // S
    [  0, -1,  0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1,  1,  5, -2, -2,  0], // T
    [ -3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1,  1, -4, -3, -2, 11,  2, -3], // W
    [ -2, -2, -2, -3, -2, -1, -2, -3,  2, -1, -1, -2, -1,  3, -3, -2, -2,  2,  7, -1], // Y
    [  0, -3, -3, -3, -1, -2, -2, -3, -3,  3,  1, -2,  1, -1, -2, -2,  0, -3, -1,  4], // V
];

/// The BLOSUM62 table indexed by residue *indices* (0..20 in
/// `ARNDCQEGHILKMFPSTWYV` order) rather than ASCII — the encoding shared
/// with the GPU kernels, whose constant memory holds this matrix.
pub fn blosum62_index_matrix() -> [[i8; 20]; 20] {
    B62
}

/// Substitution scorer over index-encoded residues (0..20), backed by an
/// explicit matrix. Out-of-range symbols score the `default` penalty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexedMatrix {
    /// The 20×20 score table.
    pub table: [[i8; 20]; 20],
    /// Score for any symbol outside 0..20.
    pub default: i32,
}

impl IndexedMatrix {
    /// BLOSUM62 over index-encoded residues.
    pub fn blosum62() -> Self {
        IndexedMatrix {
            table: B62,
            default: -1,
        }
    }
}

impl SubstScore for IndexedMatrix {
    fn score(&self, a: u8, b: u8) -> i32 {
        match (self.table.get(a as usize), b) {
            (Some(row), b) if (b as usize) < 20 => row[b as usize] as i32,
            _ => self.default,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_scoring() {
        let s = Simple::new(1, -4);
        assert_eq!(s.score(0, 0), 1);
        assert_eq!(s.score(0, 3), -4);
    }

    #[test]
    fn blosum62_is_symmetric() {
        let m = IndexedMatrix::blosum62();
        for a in 0..20u8 {
            for b in 0..20u8 {
                assert_eq!(m.score(a, b), m.score(b, a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn blosum62_spot_checks() {
        // Indices in `ARNDCQEGHILKMFPSTWYV` order: A=0, R=1, W=17.
        let m = IndexedMatrix::blosum62();
        assert_eq!(m.score(17, 17), 11);
        assert_eq!(m.score(0, 0), 4);
        assert_eq!(m.score(0, 1), -1);
        assert_eq!(m.score(25, 0), -1, "out of range uses default");
        assert_eq!(m.score(0, 25), -1, "out of range uses default");
        assert_eq!(m.table, blosum62_index_matrix());
    }
}
