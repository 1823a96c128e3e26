//! The kernel ABI as the outside sees it: the word order of every public
//! argument block is pinned (`benchmark/` and device-side parameter blocks
//! depend on it), every block is as long as its kernel reads, and each
//! served pipeline's encode → launch → decode agrees with the CPU oracle.

use ggpu_genomics::{random_genome, sw_score, GapModel, PairHmm, Simple};
use ggpu_isa::{Kernel, LaunchDims, Program};
use ggpu_kernels::dp::{
    build_dp_kernel, build_dp_parent, scoring_const_data, DpArgs, DpKernelCfg, DpMode,
    DpParentArgs, DpParentSlot, DpSlot, DP_PARAM_WORDS,
};
use ggpu_kernels::host::{read_u64s, upload};
use ggpu_kernels::nvb::{build_fm_search_kernel, unpack_hit, FmArgs, FmSlot, FmTables};
use ggpu_kernels::pairhmm::{
    build_pairhmm_kernel, log_likelihood, phred_const_data, PairHmmArgs, PairHmmSlot, GAP_EXT_P,
    GAP_OPEN_P,
};
use ggpu_kernels::pairwise::{GAP_EXTEND, GAP_OPEN, MATCH, MISMATCH};
use ggpu_kernels::served;
use ggpu_kernels::traceback::{
    build_traceback_kernel, TracebackArgs, TracebackKernelCfg, TracebackSlot,
};
use ggpu_sim::{Gpu, GpuConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A block's `Debug` lists its words by name in ABI order.
fn order<T: std::fmt::Debug + Default>() -> String {
    format!("{:?}", T::default()).replace(": 0", "")
}

#[test]
fn argument_word_order_is_pinned() {
    assert_eq!(
        order::<DpArgs>(),
        "DpArgs { q, t, out, n_pairs, pair_offset, stride, lens, t_len, idx }"
    );
    assert_eq!(
        order::<FmArgs>(),
        "FmArgs { reads, occ, out, n_reads, read_offset, stride, sa, text, read_len, scratch }"
    );
    assert_eq!(
        order::<PairHmmArgs>(),
        "PairHmmArgs { reads, haps, out, n_pairs, pair_offset, stride, quals, scratch, unused }"
    );
    assert_eq!(
        order::<TracebackArgs>(),
        "TracebackArgs { q, t, out_scores, n_pairs, pair_offset, stride, lens, out_ops, out_ops_len }"
    );
    assert_eq!(
        order::<DpParentArgs>(),
        "DpParentArgs { scratch, chunk, child_cta }"
    );
    assert_eq!(DpParentSlot::scratch as u32, DP_PARAM_WORDS);
    // The slot names the emitters load through index the same words.
    let fm = FmArgs {
        sa: 7,
        ..Default::default()
    };
    assert_eq!(fm.words()[FmSlot::sa as usize], 7);
}

#[test]
fn every_block_is_as_long_as_its_kernel_reads() {
    for (mode, rows_in_smem, shared_target) in [
        (DpMode::Local, false, false),
        (DpMode::Extend { zdrop: 10 }, true, true),
    ] {
        let cfg = DpKernelCfg {
            rows_in_smem,
            shared_target,
            ..DpKernelCfg::new(mode, 16, 32)
        };
        let k = build_dp_kernel("dp", &cfg);
        assert_eq!(k.param_words_required(), DP_PARAM_WORDS as usize);
    }
    assert_eq!(DP_PARAM_WORDS as usize, DpSlot::COUNT);
    let parent = build_dp_parent("parent", 0);
    let parent_words = DpSlot::COUNT + DpParentSlot::COUNT;
    assert_eq!(parent.param_words_required(), parent_words);
    let fm = build_fm_search_kernel("fm");
    assert_eq!(fm.param_words_required(), FmSlot::COUNT);
    let tb = TracebackKernelCfg {
        max_len: 16,
        matches: MATCH,
        mismatch: MISMATCH,
        open: GAP_OPEN,
        extend: GAP_EXTEND,
    };
    let tb = build_traceback_kernel("tb", &tb);
    assert_eq!(tb.param_words_required(), TracebackSlot::COUNT);
    // Pair-HMM is driven by the DP parent, which copies nine words and
    // rewrites the three it owns by `DpSlot`: the block is DP-sized, those
    // three sit where `DpArgs` has them, and the kernel reads all but the
    // trailing pad.
    assert_eq!(PairHmmSlot::COUNT, DpSlot::COUNT);
    assert_eq!(PairHmmSlot::n_pairs as u32, DpSlot::n_pairs as u32);
    assert_eq!(PairHmmSlot::pair_offset as u32, DpSlot::pair_offset as u32);
    assert_eq!(PairHmmSlot::stride as u32, DpSlot::stride as u32);
    let phmm = build_pairhmm_kernel("phmm", &served::pairhmm_cfg(8, 10, 1 << 16, 32));
    assert_eq!(phmm.param_words_required(), PairHmmSlot::unused as usize);
}

/// Run one pipeline launch on a fresh test device: upload `slabs`, launch
/// what `launch(slab addresses, out)` says, and read the `N` result words.
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

// 37 jobs: more than one CTA, not a multiple of any CTA size.
const N: usize = 37;

#[test]
fn served_sw_agrees_with_the_cpu_on_ragged_pairs() {
    let mut rng = StdRng::seed_from_u64(11);
    let smem = GpuConfig::test_small().sm.smem_bytes;
    let cfg = served::sw_cfg(24, smem, 16);
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..N)
        .map(|_| {
            let (ql, tl) = (rng.gen_range(1..=24), rng.gen_range(1..=24));
            (
                random_genome(ql, &mut rng).codes().to_vec(),
                random_genome(tl, &mut rng).codes().to_vec(),
            )
        })
        .collect();
    let slabs = served::sw_encode(24, pairs.iter().map(|(q, t)| (&q[..], &t[..])));
    let got = run_pipeline(
        build_dp_kernel("sw", &cfg),
        scoring_const_data(&cfg),
        &slabs,
        |_, s, out| served::sw_launch(&cfg, [s[0], s[1], s[2]], out, N as u64),
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
    let reads: Vec<Vec<u8>> = (0..N)
        .map(|i| {
            if i % 3 == 0 {
                random_genome(14, &mut rng).codes().to_vec()
            } else {
                let s = rng.gen_range(0..700 - 14);
                genome.codes()[s..s + 14].to_vec()
            }
        })
        .collect();
    let got = run_pipeline(
        build_fm_search_kernel("fm"),
        tables.const_data(),
        &[reads.concat()],
        |gpu, s, out| {
            let resident = tables.upload(gpu).expect("tables fit");
            served::fm_launch(14, s[0], &resident, out, N as u64)
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
    let cfg = served::pairhmm_cfg(9, 13, smem, 16);
    let jobs: Vec<[Vec<u8>; 3]> = (0..N)
        .map(|_| {
            let hap = random_genome(13, &mut rng).codes().to_vec();
            let s = rng.gen_range(0..=4usize);
            let quals = (0..9).map(|_| rng.gen_range(15..45u8)).collect();
            [hap[s..s + 9].to_vec(), quals, hap]
        })
        .collect();
    let slab = |i: usize| -> Vec<u8> { jobs.iter().flat_map(|j| j[i].iter().copied()).collect() };
    let got = run_pipeline(
        build_pairhmm_kernel("phmm", &cfg),
        phred_const_data(),
        &[slab(0), slab(1), slab(2)],
        |_, s, out| served::pairhmm_launch(&cfg, [s[0], s[1], s[2]], out, N as u64),
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
