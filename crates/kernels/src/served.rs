//! The three pipelines `ggpu-serve` serves and `ggpu-scale` shards:
//! Smith–Waterman over a length bucket, FM-index read mapping against
//! resident tables, and Pair-HMM forward likelihoods.
//!
//! What the two hosts must agree on to run the same kernel lives here: the
//! kernel configuration (threads per CTA chosen to fit shared memory), the
//! slab layout, and the launch shape and argument words for `n` jobs. What a
//! result word means is beside each kernel ([`crate::nvb::unpack_hit`],
//! [`crate::pairhmm::log_likelihood`]; an SW word is the i64 score). Slab
//! allocation, devices, streams and failure handling stay with the host.

use ggpu_isa::LaunchDims;

use crate::dp::{DpArgs, DpKernelCfg, DpMode};
use crate::nvb::{FmArgs, FmDevice};
use crate::pairhmm::{PairHmmArgs, PairHmmKernelCfg, RowStorage};

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
/// shared memory — on SMs with `smem_bytes` of it, at most `tpc_cap`
/// threads per CTA. Bind [`crate::dp::scoring_const_data`].
pub fn sw_cfg(bucket: u32, smem_bytes: u32, tpc_cap: u32) -> DpKernelCfg {
    let mut cfg = DpKernelCfg {
        rows_in_smem: true,
        ..DpKernelCfg::new(DpMode::Local, bucket, 0)
    };
    cfg.threads_per_cta = pick_tpc(cfg.row_bytes(), smem_bytes, tpc_cap);
    cfg
}

/// Lay `(query, target)` pairs out as the `[query, target, lengths]` slabs
/// of [`sw_launch`]. Every sequence is padded to the bucket and every pair
/// runs the full padded stride, which scores identically: pad columns
/// cannot score.
pub fn sw_encode<'a>(
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
pub fn sw_launch(
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
/// ([`crate::nvb::build_fm_search_kernel`]) for the first `n` reads of the
/// `reads` slab (contiguous at `read_len`) against `tables`, one packed hit
/// per read into `out`. The kernel writes `out` only for mappable reads, so
/// the host zeroes it first.
pub fn fm_launch(
    read_len: u32,
    reads: u64,
    tables: &FmDevice,
    out: u64,
    n: u64,
) -> (LaunchDims, Vec<u64>) {
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
        read_len: read_len as u64,
        scratch: 0,
    };
    (dims, args.words().to_vec())
}

/// The Pair-HMM kernel for `read_len` × `hap_len` pairs, rows in shared
/// memory (no per-launch scratch), sized like [`sw_cfg`]. Bind
/// [`crate::pairhmm::phred_const_data`].
pub fn pairhmm_cfg(read_len: u32, hap_len: u32, smem_bytes: u32, tpc_cap: u32) -> PairHmmKernelCfg {
    let mut cfg = PairHmmKernelCfg {
        read_len,
        hap_len,
        rows: RowStorage::Shared,
        threads_per_cta: 0,
    };
    cfg.threads_per_cta = pick_tpc(cfg.row_bytes(), smem_bytes, tpc_cap);
    cfg
}

/// Launch shape and argument words for the first `n` pairs of the
/// `[reads, quals, haps]` slabs (each contiguous at its fixed length), one
/// likelihood word per pair into `out`.
pub fn pairhmm_launch(
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
