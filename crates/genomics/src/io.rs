//! FASTA / FASTQ parsing.

use std::fmt;

/// One FASTA record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastaRecord {
    /// Header line without the leading `>`.
    pub id: String,
    /// Sequence letters (ASCII, possibly multi-line in the source).
    pub seq: Vec<u8>,
}

/// One FASTQ record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastqRecord {
    /// Header line without the leading `@`.
    pub id: String,
    /// Sequence letters (ASCII).
    pub seq: Vec<u8>,
    /// Phred+33 quality characters, same length as `seq`.
    pub qual: Vec<u8>,
}

impl FastqRecord {
    /// Phred quality values (0-based, i.e. ASCII minus 33).
    pub fn phred(&self) -> Vec<u8> {
        self.qual.iter().map(|&q| q.saturating_sub(33)).collect()
    }
}

/// Errors from the FASTA/FASTQ parsers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseFastxError {
    /// Record at this line lacked the expected marker (`>` or `@`).
    BadHeader {
        /// 1-based line number.
        line: usize,
    },
    /// A FASTQ record was truncated.
    Truncated {
        /// 1-based line number where input ended.
        line: usize,
    },
    /// FASTQ `+` separator missing.
    MissingPlus {
        /// 1-based line number.
        line: usize,
    },
    /// FASTQ quality string length mismatch.
    QualLength {
        /// 1-based line number of the record header.
        line: usize,
    },
    /// A sequence line contained a byte that is not an IUPAC nucleotide
    /// code, `*`, or `-`.
    BadSequenceChar {
        /// 1-based line number.
        line: usize,
        /// The offending byte.
        byte: u8,
    },
    /// A FASTQ quality line contained a byte outside the printable
    /// Phred+33 range (`!`..=`~`).
    BadQualityChar {
        /// 1-based line number.
        line: usize,
        /// The offending byte.
        byte: u8,
    },
}

impl fmt::Display for ParseFastxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseFastxError::BadHeader { line } => write!(f, "bad record header at line {line}"),
            ParseFastxError::Truncated { line } => write!(f, "truncated record at line {line}"),
            ParseFastxError::MissingPlus { line } => {
                write!(f, "missing '+' separator at line {line}")
            }
            ParseFastxError::QualLength { line } => {
                write!(f, "quality length mismatch for record at line {line}")
            }
            ParseFastxError::BadSequenceChar { line, byte } => write!(
                f,
                "invalid sequence character {} at line {line}",
                printable(*byte)
            ),
            ParseFastxError::BadQualityChar { line, byte } => write!(
                f,
                "invalid quality character {} at line {line}",
                printable(*byte)
            ),
        }
    }
}

fn printable(b: u8) -> String {
    if b.is_ascii_graphic() {
        format!("'{}'", b as char)
    } else {
        format!("0x{b:02x}")
    }
}

impl std::error::Error for ParseFastxError {}

/// Whether `b` is acceptable in a sequence line. The IUPAC nucleotide and
/// amino-acid alphabets (with their ambiguity codes) jointly cover every
/// ASCII letter, so any letter is accepted in either case, plus `*`
/// (stop / unknown) and `-` (gap). Digits, punctuation, and non-ASCII
/// bytes — the signature of truncated or binary input — are rejected.
fn is_sequence_byte(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'*' || b == b'-'
}

/// Whether `b` is a printable Phred+33 quality character.
fn is_quality_byte(b: u8) -> bool {
    (b'!'..=b'~').contains(&b)
}

fn validate_seq_line(bytes: &[u8], line: usize) -> Result<(), ParseFastxError> {
    match bytes.iter().find(|&&b| !is_sequence_byte(b)) {
        Some(&byte) => Err(ParseFastxError::BadSequenceChar { line, byte }),
        None => Ok(()),
    }
}

/// Parse FASTA text (multi-line sequences supported).
///
/// # Errors
///
/// Returns [`ParseFastxError::BadHeader`] if the first non-empty line of a
/// record does not start with `>`.
pub fn parse_fasta(text: &str) -> Result<Vec<FastaRecord>, ParseFastxError> {
    let mut records = Vec::new();
    let mut current: Option<FastaRecord> = None;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('>') {
            if let Some(rec) = current.take() {
                records.push(rec);
            }
            current = Some(FastaRecord {
                id: rest.trim().to_string(),
                seq: Vec::new(),
            });
        } else {
            match current.as_mut() {
                Some(rec) => {
                    let bytes: Vec<u8> =
                        line.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
                    validate_seq_line(&bytes, i + 1)?;
                    rec.seq.extend(bytes);
                }
                None => return Err(ParseFastxError::BadHeader { line: i + 1 }),
            }
        }
    }
    if let Some(rec) = current {
        records.push(rec);
    }
    Ok(records)
}

/// Parse FASTQ text (4-line records).
///
/// # Errors
///
/// Returns a [`ParseFastxError`] describing the first malformed record.
pub fn parse_fastq(text: &str) -> Result<Vec<FastqRecord>, ParseFastxError> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let mut records = Vec::new();
    while let Some((i, header)) = lines.next() {
        let id = header
            .strip_prefix('@')
            .ok_or(ParseFastxError::BadHeader { line: i + 1 })?
            .trim()
            .to_string();
        let (si, seq) = lines
            .next()
            .ok_or(ParseFastxError::Truncated { line: i + 2 })?;
        let (pi, plus) = lines
            .next()
            .ok_or(ParseFastxError::Truncated { line: i + 3 })?;
        if !plus.starts_with('+') {
            return Err(ParseFastxError::MissingPlus { line: pi + 1 });
        }
        let (qi, qual) = lines
            .next()
            .ok_or(ParseFastxError::Truncated { line: i + 4 })?;
        let seq: Vec<u8> = seq.trim().bytes().collect();
        let qual: Vec<u8> = qual.trim().bytes().collect();
        validate_seq_line(&seq, si + 1)?;
        if let Some(&byte) = qual.iter().find(|&&b| !is_quality_byte(b)) {
            return Err(ParseFastxError::BadQualityChar { line: qi + 1, byte });
        }
        if seq.len() != qual.len() {
            return Err(ParseFastxError::QualLength { line: i + 1 });
        }
        records.push(FastqRecord { id, seq, qual });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fasta_multiline_and_blank_lines() {
        let text = ">a description\nACGT\nACGT\n\n>b\nTT\n";
        let recs = parse_fasta(text).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, "a description");
        assert_eq!(recs[0].seq, b"ACGTACGT");
        assert_eq!(recs[1].seq, b"TT");
    }

    #[test]
    fn fasta_rejects_headerless_sequence() {
        let err = parse_fasta("ACGT\n").unwrap_err();
        assert_eq!(err, ParseFastxError::BadHeader { line: 1 });
    }

    #[test]
    fn fastq_parses_a_record() {
        let recs = vec![FastqRecord {
            id: "read1".into(),
            seq: b"ACGT".to_vec(),
            qual: b"IIII".to_vec(),
        }];
        assert_eq!(parse_fastq("@read1\nACGT\n+\nIIII\n").unwrap(), recs);
    }

    #[test]
    fn fastq_phred_conversion() {
        let r = FastqRecord {
            id: "r".into(),
            seq: b"AC".to_vec(),
            qual: b"I!".to_vec(), // 'I' = 40, '!' = 0
        };
        assert_eq!(r.phred(), vec![40, 0]);
    }

    #[test]
    fn fastq_error_cases() {
        assert!(matches!(
            parse_fastq("ACGT\n"),
            Err(ParseFastxError::BadHeader { .. })
        ));
        assert!(matches!(
            parse_fastq("@r\nACGT\n"),
            Err(ParseFastxError::Truncated { .. })
        ));
        assert!(matches!(
            parse_fastq("@r\nACGT\nXXXX\nIIII\n"),
            Err(ParseFastxError::MissingPlus { .. })
        ));
        assert!(matches!(
            parse_fastq("@r\nACGT\n+\nII\n"),
            Err(ParseFastxError::QualLength { .. })
        ));
    }

    #[test]
    fn empty_inputs() {
        assert!(parse_fasta("").unwrap().is_empty());
        assert!(parse_fastq("").unwrap().is_empty());
    }

    #[test]
    fn fasta_rejects_garbage_sequence_byte() {
        let err = parse_fasta(">a\nAC1T\n").unwrap_err();
        assert_eq!(
            err,
            ParseFastxError::BadSequenceChar {
                line: 2,
                byte: b'1'
            }
        );
        assert_eq!(err.to_string(), "invalid sequence character '1' at line 2");
        // Non-printable bytes are reported in hex.
        let err = parse_fasta(">a\nAC\u{7f}T\n").unwrap_err();
        assert_eq!(err.to_string(), "invalid sequence character 0x7f at line 2");
    }

    #[test]
    fn fasta_accepts_iupac_gaps_and_lowercase() {
        let recs = parse_fasta(">a\nacgtn-RYSWKM\nBDHVU*\n").unwrap();
        assert_eq!(recs[0].seq, b"acgtn-RYSWKMBDHVU*");
    }

    #[test]
    fn fastq_rejects_bad_sequence_and_quality_bytes() {
        let err = parse_fastq("@r\nAC?T\n+\nIIII\n").unwrap_err();
        assert_eq!(
            err,
            ParseFastxError::BadSequenceChar {
                line: 2,
                byte: b'?'
            }
        );
        // A quality byte below '!' (here a tab embedded mid-string) faults.
        let err = parse_fastq("@r\nACGT\n+\nII\tI\n").unwrap_err();
        assert_eq!(
            err,
            ParseFastxError::BadQualityChar {
                line: 4,
                byte: b'\t'
            }
        );
        assert_eq!(err.to_string(), "invalid quality character 0x09 at line 4");
    }

    #[test]
    fn fastq_reports_first_bad_line_in_later_records() {
        let text = "@r1\nACGT\n+\nIIII\n@r2\nACG5\n+\nIIII\n";
        let err = parse_fastq(text).unwrap_err();
        assert_eq!(
            err,
            ParseFastxError::BadSequenceChar {
                line: 6,
                byte: b'5'
            }
        );
    }
}
