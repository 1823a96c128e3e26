//! The bundled mini-datasets — the only bytes this repository reads from
//! outside the program — parse correctly, and the reads belong to the
//! genome under the suite's own FM tables.

use ggpu_genomics::{parse_fasta, parse_fastq, DnaSeq};
use ggpu_kernels::nvb::FmTables;

fn dna(ascii: &[u8]) -> DnaSeq {
    std::str::from_utf8(ascii)
        .expect("ascii")
        .parse()
        .expect("ACGT only")
}

#[test]
fn mini_proteins_parse() {
    let text = std::fs::read_to_string("data/mini_proteins.fasta").expect("dataset present");
    let recs = parse_fasta(&text).expect("valid FASTA");
    assert_eq!(recs.len(), 5);
    assert!(recs.iter().all(|r| r.seq.len() == 40));
    assert_eq!(
        recs.iter().filter(|r| r.id.starts_with("family1")).count(),
        3
    );
}

#[test]
fn mini_reads_parse_with_qualities() {
    let text = std::fs::read_to_string("data/mini_reads.fastq").expect("dataset present");
    let recs = parse_fastq(&text).expect("valid FASTQ");
    assert_eq!(recs.len(), 3);
    for r in &recs {
        assert_eq!(r.seq.len(), 20);
        assert_eq!(r.qual.len(), 20);
        assert!(r.phred().iter().all(|&q| q <= 60));
    }
    // The third read has a degraded tail ('5' = Q20 vs 'I' = Q40).
    assert!(recs[2].phred()[19] < recs[2].phred()[0]);
}

/// Every bundled read's 12-base seed has a non-empty suffix-array interval
/// in the bundled genome: all three reads come from it.
#[test]
fn mini_reads_map_onto_mini_genome() {
    let gtext = std::fs::read_to_string("data/mini_genome.fasta").expect("dataset present");
    let genome = dna(&parse_fasta(&gtext).expect("valid FASTA")[0].seq);
    assert_eq!(genome.len(), 120);
    let tables = FmTables::build(genome.codes());

    let rtext = std::fs::read_to_string("data/mini_reads.fastq").expect("dataset present");
    let reads = parse_fastq(&rtext).expect("valid FASTQ");
    assert_eq!(reads.len(), 3);
    for r in &reads {
        let (lo, hi) = tables.backward_search(&dna(&r.seq).codes()[..12]);
        assert!(lo < hi, "{}: seed not found in the genome", r.id);
    }
}
