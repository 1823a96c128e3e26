//! The kernel ABI as the outside sees it: the word order of every public
//! argument block is pinned (`benchmark/` and device-side parameter blocks
//! depend on it), and every block is as long as its kernel reads.

use ggpu_kernels::dp::{
    build_dp_kernel, build_dp_parent, DpArgs, DpKernelCfg, DpMode, DpParentArgs, DpParentSlot,
    DpSlot, DP_PARAM_WORDS,
};
use ggpu_kernels::nvb::{build_fm_search_kernel, FmArgs, FmSlot};
use ggpu_kernels::pairhmm::{
    build_pairhmm_kernel, PairHmmArgs, PairHmmKernelCfg, PairHmmSlot, RowStorage,
};
use ggpu_kernels::pairwise::{GAP_EXTEND, GAP_OPEN, MATCH, MISMATCH};
use ggpu_kernels::traceback::{
    build_traceback_kernel, TracebackArgs, TracebackKernelCfg, TracebackSlot,
};

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
    let phmm = PairHmmKernelCfg {
        read_len: 8,
        hap_len: 10,
        rows: RowStorage::Shared,
        threads_per_cta: 32,
    };
    let phmm = build_pairhmm_kernel("phmm", &phmm);
    assert_eq!(phmm.param_words_required(), PairHmmSlot::unused as usize);
}
