//! The three pipelines the service serves: Smith–Waterman over a length
//! bucket, FM-index read mapping against resident tables, and Pair-HMM
//! forward likelihoods.
//!
//! What the service must agree on with the kernel to run it lives here: the
//! kernel configuration (threads per CTA chosen to fit shared memory), the
//! slab layout, and the launch shape and argument words for `n` jobs. What a
//! result word means is beside each kernel
//! ([`ggpu_kernels::nvb::unpack_hit`],
//! [`ggpu_kernels::pairhmm::log_likelihood`]; an SW word is the i64 score).
//! Slab allocation, the device, streams and failure handling stay with
//! [`crate::Service`].

use ggpu_isa::LaunchDims;
use ggpu_kernels::dp::{DpArgs, DpKernelCfg, DpMode};
use ggpu_kernels::nvb::{FmArgs, FmDevice};
use ggpu_kernels::pairhmm::{PairHmmArgs, PairHmmKernelCfg, RowStorage};

use crate::{FM_READ_LEN, PHMM_HAP_LEN, PHMM_READ_LEN};

/// Most threads per CTA a pairwise / Pair-HMM kernel is compiled for.
const SW_TPC_CAP: u32 = 64;
const PHMM_TPC_CAP: u32 = 32;

/// Pad symbol for SW queries (outside the `0..4` base alphabet).
const PAD_Q: u8 = 4;
/// Pad symbol for SW targets — distinct from [`PAD_Q`], so a pad column
/// never matches a base or another pad and no positive local alignment can
/// include one.
const PAD_T: u8 = 5;

/// Largest thread count (a power of two, at most `cap`) whose shared-
/// memory rows fit the per-SM budget.
fn pick_tpc(row_bytes: u32, smem_bytes: u32, cap: u32) -> u32 {
    let mut tpc = cap.max(1).next_power_of_two();
    while tpc > 1 && row_bytes.saturating_mul(tpc) > smem_bytes {
        tpc /= 2;
    }
    tpc
}

/// Launch shape for `n` jobs: at most four CTAs (one per SM of the test
/// device), a grid-stride loop covers the rest.
fn dims_for(n: u64, tpc: u32) -> LaunchDims {
    let ctas = n.div_ceil(tpc as u64).clamp(1, 4) as u32;
    LaunchDims::linear(ctas, tpc)
}

/// Copy `src` into the next `stride`-sized lane of `dst`, padded with
/// `pad`.
fn pack(dst: &mut Vec<u8>, src: &[u8], stride: usize, pad: u8) {
    debug_assert!(src.len() <= stride);
    dst.extend_from_slice(src);
    dst.resize(dst.len() + (stride - src.len()), pad);
}

/// The SW kernel for pairs up to `bucket` bases — local alignment, rows in
/// shared memory — on SMs with `smem_bytes` of it, at most [`SW_TPC_CAP`]
/// threads per CTA. Bind [`ggpu_kernels::dp::scoring_const_data`].
pub(crate) fn sw_cfg(bucket: u32, smem_bytes: u32) -> DpKernelCfg {
    let mut cfg = DpKernelCfg {
        rows_in_smem: true,
        ..DpKernelCfg::new(DpMode::Local, bucket, 0)
    };
    cfg.threads_per_cta = pick_tpc(cfg.row_bytes(), smem_bytes, SW_TPC_CAP);
    cfg
}

/// Lay `(query, target)` pairs out as the `[query, target, lengths]` slabs
/// of [`sw_launch`]. Every sequence is padded to the bucket and every pair
/// runs the full padded stride, which scores identically: pad columns
/// cannot score.
pub(crate) fn sw_encode<'a>(
    bucket: u32,
    pairs: impl IntoIterator<Item = (&'a [u8], &'a [u8])>,
) -> [Vec<u8>; 3] {
    let pairs = pairs.into_iter();
    let (n, stride) = (pairs.size_hint().0, bucket as usize);
    let [mut q, mut t, mut lens] = [stride, stride, 4].map(|b| Vec::with_capacity(n * b));
    for (query, target) in pairs {
        pack(&mut q, query, stride, PAD_Q);
        pack(&mut t, target, stride, PAD_T);
        lens.extend_from_slice(&bucket.to_le_bytes());
    }
    [q, t, lens]
}

/// Launch shape and argument words for the first `n` pairs of the
/// `[query, target, lengths]` slabs, one i64 score per pair into `out`.
pub(crate) fn sw_launch(
    cfg: &DpKernelCfg,
    [q, t, lens]: [u64; 3],
    out: u64,
    n: u64,
) -> (LaunchDims, Vec<u64>) {
    let dims = dims_for(n, cfg.threads_per_cta);
    let args = DpArgs {
        q,
        t,
        out,
        n_pairs: n,
        stride: dims.total_threads(),
        lens,
        ..Default::default()
    };
    (dims, args.words().to_vec())
}

/// Launch shape and argument words of the FM search kernel
/// ([`ggpu_kernels::nvb::build_fm_search_kernel`]) for the first `n` reads
/// of the `reads` slab (contiguous at [`FM_READ_LEN`]) against `tables`, one
/// packed hit per read into `out`. The kernel writes `out` only for
/// mappable reads, so the host zeroes it first.
pub(crate) fn fm_launch(reads: u64, tables: &FmDevice, out: u64, n: u64) -> (LaunchDims, Vec<u64>) {
    // No per-thread rows: nothing bounds the CTA but the warp size.
    let dims = dims_for(n, 32);
    let args = FmArgs {
        reads,
        occ: tables.occ.0,
        out,
        n_reads: n,
        read_offset: 0,
        stride: dims.total_threads(),
        sa: tables.sa.0,
        text: tables.text.0,
        read_len: FM_READ_LEN as u64,
        scratch: 0,
    };
    (dims, args.words().to_vec())
}

/// The Pair-HMM kernel for [`PHMM_READ_LEN`] × [`PHMM_HAP_LEN`] pairs, rows
/// in shared memory (no per-launch scratch), sized like [`sw_cfg`] with at
/// most [`PHMM_TPC_CAP`] threads per CTA. Bind
/// [`ggpu_kernels::pairhmm::phred_const_data`].
pub(crate) fn pairhmm_cfg(smem_bytes: u32) -> PairHmmKernelCfg {
    let mut cfg = PairHmmKernelCfg {
        read_len: PHMM_READ_LEN,
        hap_len: PHMM_HAP_LEN,
        rows: RowStorage::Shared,
        threads_per_cta: 0,
    };
    cfg.threads_per_cta = pick_tpc(cfg.row_bytes(), smem_bytes, PHMM_TPC_CAP);
    cfg
}

/// Launch shape and argument words for the first `n` pairs of the
/// `[reads, quals, haps]` slabs (each contiguous at its fixed length), one
/// likelihood word per pair into `out`.
pub(crate) fn pairhmm_launch(
    cfg: &PairHmmKernelCfg,
    [reads, quals, haps]: [u64; 3],
    out: u64,
    n: u64,
) -> (LaunchDims, Vec<u64>) {
    let dims = dims_for(n, cfg.threads_per_cta);
    let args = PairHmmArgs {
        reads,
        haps,
        out,
        n_pairs: n,
        stride: dims.total_threads(),
        quals,
        ..Default::default()
    };
    (dims, args.words().to_vec())
}

#[cfg(test)]
mod tests {
    //! Each pipeline's encode → launch → decode agrees with the CPU oracle.

    use ggpu_genomics::{random_genome, sw_score, GapModel, PairHmm, Simple};
    use ggpu_isa::{Kernel, Program};
    use ggpu_kernels::dp::{build_dp_kernel, scoring_const_data};
    use ggpu_kernels::host::{read_u64s, upload};
    use ggpu_kernels::nvb::{build_fm_search_kernel, unpack_hit, FmTables};
    use ggpu_kernels::pairhmm::{
        build_pairhmm_kernel, log_likelihood, phred_const_data, GAP_EXT_P, GAP_OPEN_P,
    };
    use ggpu_kernels::pairwise::{GAP_EXTEND, GAP_OPEN, MATCH, MISMATCH};
    use ggpu_sim::{Gpu, GpuConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// Run one pipeline launch on a fresh test device: upload `slabs`,
    /// launch what `launch(slab addresses, out)` says, and read the `N`
    /// result words.
    fn run_pipeline(
        kernel: Kernel,
        const_data: Vec<u8>,
        slabs: &[Vec<u8>],
        launch: impl FnOnce(&mut Gpu, &[u64], u64) -> (LaunchDims, Vec<u64>),
    ) -> Vec<u64> {
        let mut program = Program::new();
        let k = program.add(kernel);
        let mut gpu = Gpu::new(program, GpuConfig::test_small());
        gpu.bind_constants(k, const_data);
        let addrs: Vec<u64> = slabs.iter().map(|s| upload(&mut gpu, s).0).collect();
        let out = upload(&mut gpu, &[0u8; N * 8]);
        let (dims, words) = launch(&mut gpu, &addrs, out.0);
        gpu.run_kernel(k, dims, &words);
        read_u64s(&mut gpu, out, N)
    }

    // 67 jobs: more than one CTA of every pipeline (64 SW threads, 32 FM
    // and Pair-HMM threads), not a multiple of any CTA size.
    const N: usize = 67;

    #[test]
    fn served_sw_agrees_with_the_cpu_on_ragged_pairs() {
        let mut rng = StdRng::seed_from_u64(11);
        let smem = GpuConfig::test_small().sm.smem_bytes;
        let cfg = sw_cfg(24, smem);
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..N)
            .map(|_| {
                let (ql, tl) = (rng.gen_range(1..=24), rng.gen_range(1..=24));
                (
                    random_genome(ql, &mut rng).codes().to_vec(),
                    random_genome(tl, &mut rng).codes().to_vec(),
                )
            })
            .collect();
        let slabs = sw_encode(24, pairs.iter().map(|(q, t)| (&q[..], &t[..])));
        let got = run_pipeline(
            build_dp_kernel("sw", &cfg),
            scoring_const_data(&cfg),
            &slabs,
            |_, s, out| sw_launch(&cfg, [s[0], s[1], s[2]], out, N as u64),
        );
        let subst = Simple::new(MATCH, MISMATCH);
        let gaps = GapModel::Affine {
            open: GAP_OPEN,
            extend: GAP_EXTEND,
        };
        for ((q, t), word) in pairs.iter().zip(got) {
            assert_eq!(
                word as i64,
                sw_score(q, t, &subst, gaps) as i64,
                "{q:?} {t:?}"
            );
        }
    }

    #[test]
    fn served_fm_agrees_with_the_cpu_on_mappable_and_unmappable_reads() {
        let mut rng = StdRng::seed_from_u64(12);
        let genome = random_genome(700, &mut rng);
        let tables = FmTables::build(genome.codes());
        let len = FM_READ_LEN as usize;
        let reads: Vec<Vec<u8>> = (0..N)
            .map(|i| {
                if i % 3 == 0 {
                    random_genome(len, &mut rng).codes().to_vec()
                } else {
                    let s = rng.gen_range(0..700 - len);
                    genome.codes()[s..s + len].to_vec()
                }
            })
            .collect();
        let got = run_pipeline(
            build_fm_search_kernel("fm"),
            tables.const_data(),
            &[reads.concat()],
            |gpu, s, out| {
                let resident = tables.upload(gpu).expect("tables fit");
                fm_launch(s[0], &resident, out, N as u64)
            },
        );
        let mapped = got.iter().filter(|&&w| w != 0).count();
        assert!((N / 2..N).contains(&mapped), "{mapped} of {N} mapped");
        for (read, word) in reads.iter().zip(got) {
            assert_eq!(unpack_hit(word), unpack_hit(tables.map_read(read)));
        }
    }

    #[test]
    fn served_pairhmm_agrees_with_the_cpu() {
        let mut rng = StdRng::seed_from_u64(13);
        let smem = GpuConfig::test_small().sm.smem_bytes;
        let cfg = pairhmm_cfg(smem);
        let (read_len, hap_len) = (PHMM_READ_LEN as usize, PHMM_HAP_LEN as usize);
        let jobs: Vec<[Vec<u8>; 3]> = (0..N)
            .map(|_| {
                let hap = random_genome(hap_len, &mut rng).codes().to_vec();
                let s = rng.gen_range(0..=hap_len - read_len);
                let quals = (0..read_len).map(|_| rng.gen_range(15..45u8)).collect();
                [hap[s..s + read_len].to_vec(), quals, hap]
            })
            .collect();
        let slab =
            |i: usize| -> Vec<u8> { jobs.iter().flat_map(|j| j[i].iter().copied()).collect() };
        let got = run_pipeline(
            build_pairhmm_kernel("phmm", &cfg),
            phred_const_data(),
            &[slab(0), slab(1), slab(2)],
            |_, s, out| pairhmm_launch(&cfg, [s[0], s[1], s[2]], out, N as u64),
        );
        let hmm = PairHmm {
            gap_open: GAP_OPEN_P,
            gap_ext: GAP_EXT_P,
        };
        for ([read, quals, hap], word) in jobs.iter().zip(got) {
            let (got, want) = (log_likelihood(word), hmm.forward(read, quals, hap));
            assert!(
                got.is_finite() && (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "{got} vs {want}"
            );
        }
    }
}
