//! Synthetic data generation: random genomes, mutated variants and
//! sequence families.
//!
//! These generators stand in for the paper's datasets (hg19 + SRR493095
//! reads, `query_batch.fasta`, `testData.fasta`): the microarchitectural
//! behaviour of the kernels depends on workload *shape* (sequence counts,
//! lengths, divergence), which these reproduce.

use rand::Rng;

use crate::seq::DnaSeq;

/// Uniform random genome of `len` bases.
pub fn random_genome(len: usize, rng: &mut impl Rng) -> DnaSeq {
    DnaSeq::from_codes((0..len).map(|_| rng.gen_range(0..4u8)).collect())
}

/// Copy `seq` with random substitutions and indels at the given rates —
/// used to make related sequence families (MSA and clustering inputs).
pub fn mutate(seq: &DnaSeq, sub_rate: f64, indel_rate: f64, rng: &mut impl Rng) -> DnaSeq {
    let mut out = Vec::with_capacity(seq.len() + 8);
    for &c in seq.codes() {
        let r: f64 = rng.gen();
        if r < indel_rate / 2.0 {
            // Deletion: skip the base.
            continue;
        } else if r < indel_rate {
            // Insertion: emit a random base, then the original.
            out.push(rng.gen_range(0..4u8));
            out.push(c);
        } else if r < indel_rate + sub_rate {
            out.push((c + rng.gen_range(1..4u8)) % 4);
        } else {
            out.push(c);
        }
    }
    if out.is_empty() {
        out.push(rng.gen_range(0..4u8));
    }
    DnaSeq::from_codes(out)
}

/// A family of `n` sequences derived from one random ancestor (each child
/// mutated independently) — the shape of the STAR/CLUSTER datasets.
pub fn sequence_family(
    n: usize,
    len: usize,
    sub_rate: f64,
    indel_rate: f64,
    rng: &mut impl Rng,
) -> Vec<DnaSeq> {
    let ancestor = random_genome(len, rng);
    (0..n)
        .map(|i| {
            if i == 0 {
                ancestor.clone()
            } else {
                mutate(&ancestor, sub_rate, indel_rate, rng)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn random_genome_has_requested_length_and_alphabet() {
        let g = random_genome(1000, &mut rng(1));
        assert_eq!(g.len(), 1000);
        assert!(g.codes().iter().all(|&c| c < 4));
        // All four bases should appear in 1000 random draws.
        for base in 0..4u8 {
            assert!(g.codes().contains(&base), "missing base {base}");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        assert_eq!(
            random_genome(100, &mut rng(5)),
            random_genome(100, &mut rng(5))
        );
        assert_ne!(
            random_genome(100, &mut rng(5)),
            random_genome(100, &mut rng(6))
        );
    }

    #[test]
    fn mutate_zero_rates_is_identity() {
        let g = random_genome(200, &mut rng(2));
        assert_eq!(mutate(&g, 0.0, 0.0, &mut rng(3)), g);
    }

    #[test]
    fn mutate_changes_roughly_sub_rate() {
        let g = random_genome(10_000, &mut rng(4));
        let m = mutate(&g, 0.1, 0.0, &mut rng(5));
        assert_eq!(m.len(), g.len());
        let diffs = g
            .codes()
            .iter()
            .zip(m.codes())
            .filter(|(a, b)| a != b)
            .count();
        assert!((800..1200).contains(&diffs), "got {diffs} diffs");
    }

    #[test]
    fn family_members_resemble_ancestor() {
        let fam = sequence_family(5, 500, 0.02, 0.002, &mut rng(6));
        assert_eq!(fam.len(), 5);
        for s in &fam[1..] {
            assert!((450..550).contains(&s.len()));
        }
    }
}
