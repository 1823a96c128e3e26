//! Nucleotide sequences and their 2-bit encoding.

use std::fmt;

/// 2-bit DNA codes: A=0, C=1, G=2, T=3.
pub(crate) const DNA_ALPHABET: [u8; 4] = [b'A', b'C', b'G', b'T'];

/// Encode an ASCII nucleotide to its 2-bit code; `None` for non-ACGT
/// (including N).
#[inline]
pub fn encode_base(c: u8) -> Option<u8> {
    match c.to_ascii_uppercase() {
        b'A' => Some(0),
        b'C' => Some(1),
        b'G' => Some(2),
        b'T' | b'U' => Some(3),
        _ => None,
    }
}

/// Decode a 2-bit code to ASCII.
///
/// # Panics
///
/// Panics if `code > 3`.
#[inline]
pub fn decode_base(code: u8) -> u8 {
    DNA_ALPHABET[code as usize]
}

/// Complement of a 2-bit code.
#[inline]
pub fn complement(code: u8) -> u8 {
    3 - code
}

/// A DNA sequence stored as 2-bit codes (one per byte).
///
/// ```
/// use ggpu_genomics::DnaSeq;
/// let s: DnaSeq = "ACGT".parse().unwrap();
/// assert_eq!(s.len(), 4);
/// assert_eq!(s.revcomp().to_string(), "ACGT"); // ACGT is its own revcomp
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DnaSeq {
    codes: Vec<u8>,
}

/// Error parsing a DNA string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSeqError {
    /// Byte offset of the offending character.
    pub position: usize,
    /// The character that was not a nucleotide.
    pub found: char,
}

impl fmt::Display for ParseSeqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid nucleotide {:?} at position {}",
            self.found, self.position
        )
    }
}

impl std::error::Error for ParseSeqError {}

impl DnaSeq {
    /// From raw 2-bit codes.
    ///
    /// # Panics
    ///
    /// Panics if any code exceeds 3.
    pub fn from_codes(codes: Vec<u8>) -> Self {
        assert!(codes.iter().all(|&c| c < 4), "invalid 2-bit code");
        DnaSeq { codes }
    }

    /// The 2-bit codes.
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Length in bases.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when empty (clippy's `len_without_is_empty` pairs it with
    /// [`DnaSeq::len`]).
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Subsequence `[start, start+len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, len: usize) -> DnaSeq {
        DnaSeq {
            codes: self.codes[start..start + len].to_vec(),
        }
    }

    /// Reverse complement.
    pub fn revcomp(&self) -> DnaSeq {
        DnaSeq {
            codes: self.codes.iter().rev().map(|&c| complement(c)).collect(),
        }
    }
}

impl std::str::FromStr for DnaSeq {
    type Err = ParseSeqError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut codes = Vec::with_capacity(s.len());
        for (i, b) in s.bytes().enumerate() {
            match encode_base(b) {
                Some(c) => codes.push(c),
                None => {
                    return Err(ParseSeqError {
                        position: i,
                        found: b as char,
                    })
                }
            }
        }
        Ok(DnaSeq { codes })
    }
}

impl fmt::Display for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &c in &self.codes {
            write!(f, "{}", decode_base(c) as char)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for (i, &b) in DNA_ALPHABET.iter().enumerate() {
            assert_eq!(encode_base(b), Some(i as u8));
            assert_eq!(decode_base(i as u8), b);
        }
        assert_eq!(encode_base(b'a'), Some(0));
        assert_eq!(encode_base(b'u'), Some(3));
        assert_eq!(encode_base(b'N'), None);
    }

    #[test]
    fn parse_and_display() {
        let s: DnaSeq = "ACGTACGT".parse().unwrap();
        assert_eq!(s.to_string(), "ACGTACGT");
        assert_eq!(s.len(), 8);
        let err = "ACGN".parse::<DnaSeq>().unwrap_err();
        assert_eq!(err.position, 3);
        assert_eq!(err.found, 'N');
    }

    #[test]
    fn revcomp() {
        let s: DnaSeq = "AACGTT".parse().unwrap();
        assert_eq!(s.revcomp().to_string(), "AACGTT");
        let s2: DnaSeq = "AAAC".parse().unwrap();
        assert_eq!(s2.revcomp().to_string(), "GTTT");
        // Double revcomp is identity.
        assert_eq!(s2.revcomp().revcomp(), s2);
    }

    #[test]
    fn slicing() {
        let s: DnaSeq = "ACGTACGT".parse().unwrap();
        assert_eq!(s.slice(2, 4).to_string(), "GTAC");
    }

    #[test]
    #[should_panic(expected = "invalid 2-bit code")]
    fn bad_codes_panic() {
        let _ = DnaSeq::from_codes(vec![4]);
    }
}
