//! Parameterized dynamic-programming alignment kernel emitter.
//!
//! One emitter covers six of the suite's benchmarks — SW, NW, and the four
//! GASAL2 modes (GG/GL/GKSW/GSG) — which differ only in initialization,
//! cell recurrence clamping, score extraction, and where the DP rows live
//! (local memory for SW/GASAL2, shared memory for NW, matching the
//! memory-space mix of Figure 9 in the paper). It is also reused by the
//! STAR benchmark (pairwise phases) and CLUSTER (shared-target rounds).
//!
//! The launch arguments are [`DpArgs`] (and [`DpParentArgs`] for the CDP
//! parent); their field order is the kernel ABI.
//!
//! Scoring parameters (match, mismatch, gap open, gap extend) are read
//! from **constant memory** (i64 words 0-3), matching Table III's
//! "Constant Memory? YES" for every benchmark; bind them with
//! [`scoring_const_data`].

use ggpu_isa::{
    AluOp, CmpOp, Kernel, KernelBuilder, Operand, Reg, ScalarType, Space, SpecialReg, Width,
};

use crate::host::i64_bytes;
use crate::pairwise::{GAP_EXTEND, GAP_OPEN, MATCH, MISMATCH};

/// Negative infinity inside kernels (far below any reachable score).
pub(crate) const KERNEL_NEG_INF: i64 = -1_000_000_000;

arg_block! {
    /// Launch arguments of a [`build_dp_kernel`] kernel.
    DpArgs / DpSlot {
        q: "Queries, one byte per base, `max_len` stride.",
        t: "Targets, same layout (or the single shared target).",
        out: "i64 score per pair.",
        n_pairs: "Pairs strictly below this index are processed.",
        pair_offset: "First pair this grid handles (CDP children).",
        stride: "Pair increment per loop iteration: host grids pass the total thread count, CDP \
            children `n_pairs` so each thread does one pair.",
        lens: "u32 per-sequence lengths, or 0 for uniform `max_len`.",
        t_len: "Target length when built with `shared_target` (ignored otherwise).",
        idx: "u32 pair→sequence indirection (0 = identity), CLUSTER's candidate lists.",
    }
}

/// Number of u64 words in the DP kernel ABI.
pub const DP_PARAM_WORDS: u32 = DpSlot::COUNT as u32;

/// DP flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpMode {
    /// Global alignment score (NW / GASAL2-GLOBAL).
    Global,
    /// Local alignment score with zero floor (SW / GASAL2-LOCAL).
    Local,
    /// Semi-global: free gaps at both target ends (GASAL2-SEMIGLOBAL).
    SemiGlobal,
    /// Extension with z-drop early exit (GASAL2-KSW).
    Extend {
        /// Z-drop threshold.
        zdrop: i32,
    },
}

/// Compile-time configuration of a DP kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpKernelCfg {
    /// Alignment flavor.
    pub mode: DpMode,
    /// Maximum (buffer-stride) sequence length.
    pub max_len: u32,
    /// Keep DP rows in shared memory (NW style) instead of local memory
    /// (SW / GASAL2 style).
    pub rows_in_smem: bool,
    /// Threads per CTA (needed to slice shared memory when
    /// `rows_in_smem`).
    pub threads_per_cta: u32,
    /// Match score (positive).
    pub matches: i32,
    /// Mismatch score (negative).
    pub mismatch: i32,
    /// Gap-open penalty (positive).
    pub open: i32,
    /// Gap-extend penalty (positive).
    pub extend: i32,
    /// All pairs align against one shared target at [`DpArgs::t`] whose
    /// length is [`DpArgs::t_len`] (STAR phase 2, CLUSTER rounds).
    pub shared_target: bool,
    /// Score substitutions through a 20×20 matrix held in constant memory
    /// (BLOSUM62 for the protein STAR benchmark) instead of
    /// match/mismatch. Symbols are residue indices 0..20.
    pub subst_matrix: Option<[[i8; 20]; 20]>,
}

impl DpKernelCfg {
    /// The suite's DNA scoring ([`crate::pairwise::MATCH`] and friends),
    /// rows in local memory, one target per pair; callers override what
    /// differs with struct-update syntax.
    pub fn new(mode: DpMode, max_len: u32, threads_per_cta: u32) -> Self {
        DpKernelCfg {
            mode,
            max_len,
            rows_in_smem: false,
            threads_per_cta,
            matches: MATCH,
            mismatch: MISMATCH,
            open: GAP_OPEN,
            extend: GAP_EXTEND,
            shared_target: false,
            subst_matrix: None,
        }
    }

    /// Bytes of row storage per thread: two rows of `(max_len+1)` i64s.
    pub fn row_bytes(&self) -> u32 {
        2 * (self.max_len + 1) * 8
    }
}

/// Constant-memory image binding the scoring parameters (four i64 words —
/// match, mismatch, gap open, gap extend).
pub fn scoring_const_data(cfg: &DpKernelCfg) -> Vec<u8> {
    let mut words: Vec<i64> = [cfg.matches, cfg.mismatch, cfg.open, cfg.extend]
        .map(i64::from)
        .to_vec();
    if let Some(table) = &cfg.subst_matrix {
        // Rows padded to a 32-entry stride so the kernel's address
        // arithmetic is a shift: offset = 32 + (q*32 + t)*8.
        for row in table {
            words.extend(row.iter().map(|&x| x as i64));
            words.extend([0; 12]);
        }
    }
    i64_bytes(&words)
}

/// Registers holding kernel-wide values inside the emitter.
struct DpRegs {
    q_base: Reg,
    t_base: Reg,
    out_base: Reg,
    len_base: Reg,
    t_len: Reg,
    idx_base: Reg,
    c_mat: Reg,
    c_mis: Reg,
    c_open: Reg,
    c_ext: Reg,
    /// open + extend, precomputed.
    c_oe: Reg,
}

/// Emit the DP kernel under `cfg`.
pub fn build_dp_kernel(name: &str, cfg: &DpKernelCfg) -> Kernel {
    let mut b = KernelBuilder::new(name);
    let row_bytes = cfg.row_bytes();
    let row_h_off: i64;
    let row_space: Space;
    if cfg.rows_in_smem {
        let base = b.alloc_smem(row_bytes * cfg.threads_per_cta);
        row_h_off = base as i64;
        row_space = Space::Shared;
    } else {
        b.set_local_bytes(row_bytes);
        row_h_off = 0;
        row_space = Space::Local;
    }
    b.set_cmem_bytes(if cfg.subst_matrix.is_some() {
        32 + 20 * 32 * 8
    } else {
        32
    });
    let e_off = (cfg.max_len as i64 + 1) * 8;

    // ---- parameters ----
    let q_base = DpSlot::q.ld(&mut b);
    let t_base = DpSlot::t.ld(&mut b);
    let out_base = DpSlot::out.ld(&mut b);
    let n_pairs = DpSlot::n_pairs.ld(&mut b);
    let pair_off = DpSlot::pair_offset.ld(&mut b);
    let stride = DpSlot::stride.ld(&mut b);
    let len_base = DpSlot::lens.ld(&mut b);
    let t_len = DpSlot::t_len.ld(&mut b);
    let idx_base = DpSlot::idx.ld(&mut b);

    // ---- scoring constants from constant memory ----
    let c_mat = b.reg();
    b.ld(Space::Const, Width::B64, c_mat, Operand::imm(0), 0);
    let c_mis = b.reg();
    b.ld(Space::Const, Width::B64, c_mis, Operand::imm(0), 8);
    let c_open = b.reg();
    b.ld(Space::Const, Width::B64, c_open, Operand::imm(0), 16);
    let c_ext = b.reg();
    b.ld(Space::Const, Width::B64, c_ext, Operand::imm(0), 24);
    let c_oe = b.reg();
    b.iadd(c_oe, c_open, Operand::reg(c_ext));

    let regs = DpRegs {
        q_base,
        t_base,
        out_base,
        len_base,
        t_len,
        idx_base,
        c_mat,
        c_mis,
        c_open,
        c_ext,
        c_oe,
    };

    let tid = b.global_tid();
    let pair = b.reg();
    b.iadd(pair, tid, Operand::reg(pair_off));

    // Per-thread row base: shared rows are sliced by the in-CTA thread id.
    let row_base = b.reg();
    if cfg.rows_in_smem {
        let tic = b.reg();
        b.sreg(tic, SpecialReg::TidX);
        b.imul(row_base, tic, Operand::imm(row_bytes as i64));
        b.iadd(row_base, row_base, Operand::imm(row_h_off));
    } else {
        b.mov(row_base, Operand::imm(row_h_off));
    }

    // ---- strided pair loop ----
    b.while_loop(
        |b| b.cmp_s(CmpOp::Lt, Operand::reg(pair), Operand::reg(n_pairs)),
        |b| {
            emit_one_pair(b, cfg, row_space, row_base, e_off, &regs, pair);
            b.iadd(pair, pair, Operand::reg(stride));
        },
    );
    b.exit();
    let mut k = b.finish();
    // Model realistic compiler register pressure for occupancy purposes.
    k.regs_per_thread = k.regs_per_thread.max(40);
    k.validate().expect("dp kernel must validate");
    k
}

fn emit_one_pair(
    b: &mut KernelBuilder,
    cfg: &DpKernelCfg,
    row_space: Space,
    row_base: Reg,
    e_off: i64,
    r: &DpRegs,
    pair: Reg,
) {
    let max_len = cfg.max_len as i64;

    // Resolve the sequence id (CLUSTER candidate-list indirection).
    let sid = b.reg();
    let have_idx = b.cmp_s(CmpOp::Ne, Operand::reg(r.idx_base), Operand::imm(0));
    b.if_then_else(
        have_idx,
        |b| {
            let ia = b.reg();
            b.imul(ia, pair, Operand::imm(4));
            b.iadd(ia, ia, Operand::reg(r.idx_base));
            b.ld(Space::Global, Width::B32, sid, ia, 0);
        },
        |b| b.mov(sid, Operand::reg(pair)),
    );

    // Sequence pointers.
    let qp = b.reg();
    b.imul(qp, sid, Operand::imm(max_len));
    b.iadd(qp, qp, Operand::reg(r.q_base));
    let tp = b.reg();
    if cfg.shared_target {
        b.mov(tp, Operand::reg(r.t_base));
    } else {
        b.imul(tp, sid, Operand::imm(max_len));
        b.iadd(tp, tp, Operand::reg(r.t_base));
    }

    // Effective lengths: query from the length table, target either shared
    // (`t_len`) or equal to the query length (pairwise benchmarks).
    let qlen = b.reg();
    let have_lens = b.cmp_s(CmpOp::Ne, Operand::reg(r.len_base), Operand::imm(0));
    b.if_then_else(
        have_lens,
        |b| {
            let la = b.reg();
            b.imul(la, sid, Operand::imm(4));
            b.iadd(la, la, Operand::reg(r.len_base));
            b.ld(Space::Global, Width::B32, qlen, la, 0);
        },
        |b| b.mov(qlen, Operand::imm(max_len)),
    );
    let tlen = b.reg();
    if cfg.shared_target {
        b.mov(tlen, Operand::reg(r.t_len));
    } else {
        b.mov(tlen, Operand::reg(qlen));
    }

    // ---- init row 0 (cells 0..=tlen) ----
    let init_cell = |b: &mut KernelBuilder, j: Reg, addr: Reg| {
        let h0 = b.reg();
        match cfg.mode {
            DpMode::Global | DpMode::Extend { .. } => {
                // h[j] = -(open + ext*j), except h[0] = 0.
                b.imul(h0, j, Operand::reg(r.c_ext));
                b.iadd(h0, h0, Operand::reg(r.c_open));
                b.isub(h0, Operand::imm(0), Operand::reg(h0));
                let is0 = b.cmp_s(CmpOp::Eq, Operand::reg(j), Operand::imm(0));
                b.sel(h0, is0, Operand::imm(0), Operand::reg(h0));
            }
            DpMode::Local | DpMode::SemiGlobal => b.mov(h0, Operand::imm(0)),
        }
        b.st(row_space, Width::B64, Operand::reg(h0), addr, 0);
        b.st(
            row_space,
            Width::B64,
            Operand::imm(KERNEL_NEG_INF),
            addr,
            e_off,
        );
    };
    let addr = b.reg();
    b.for_range(Operand::imm(0), Operand::reg(tlen), 1, |b, j| {
        b.imul(addr, j, Operand::imm(8));
        b.iadd(addr, addr, Operand::reg(row_base));
        init_cell(b, j, addr);
    });
    {
        // Final cell j == tlen.
        b.imul(addr, tlen, Operand::imm(8));
        b.iadd(addr, addr, Operand::reg(row_base));
        init_cell(b, tlen, addr);
    }

    // ---- main loops ----
    let best = b.reg();
    b.mov(best, Operand::imm(0));
    let dropped = b.reg();
    b.mov(dropped, Operand::imm(0));
    let i = b.reg();
    b.mov(i, Operand::imm(1));

    b.while_loop(
        |b| {
            let c1 = b.cmp_s(CmpOp::Le, Operand::reg(i), Operand::reg(qlen));
            let c2 = b.cmp_s(CmpOp::Eq, Operand::reg(dropped), Operand::imm(0));
            let both = b.reg();
            b.iand(both, c1, Operand::reg(c2));
            both
        },
        |b| {
            // qc = q[i-1]
            let qa = b.reg();
            b.iadd(qa, qp, Operand::reg(i));
            let qc = b.reg();
            b.ld(Space::Global, Width::B8, qc, qa, -1);

            // hdiag = rowH[0]; hleft = column-0 value for this row.
            let hdiag = b.reg();
            b.ld(row_space, Width::B64, hdiag, row_base, 0);
            let hleft = b.reg();
            match cfg.mode {
                DpMode::Global | DpMode::Extend { .. } | DpMode::SemiGlobal => {
                    b.imul(hleft, i, Operand::reg(r.c_ext));
                    b.iadd(hleft, hleft, Operand::reg(r.c_open));
                    b.isub(hleft, Operand::imm(0), Operand::reg(hleft));
                }
                DpMode::Local => b.mov(hleft, Operand::imm(0)),
            }
            b.st(row_space, Width::B64, Operand::reg(hleft), row_base, 0);

            let f = b.reg();
            b.mov(f, Operand::imm(KERNEL_NEG_INF));
            let rowbest = b.reg();
            b.mov(rowbest, Operand::imm(KERNEL_NEG_INF));

            let j = b.reg();
            b.mov(j, Operand::imm(1));
            b.while_loop(
                |b| b.cmp_s(CmpOp::Le, Operand::reg(j), Operand::reg(tlen)),
                |b| {
                    let ja = b.reg();
                    b.imul(ja, j, Operand::imm(8));
                    b.iadd(ja, ja, Operand::reg(row_base));
                    // NOTE: this score-only kernel labels the two gap
                    // states opposite to the Gotoh/CPU convention (`e`
                    // here is the vertical gap). Scores are unaffected —
                    // max{E, F} is symmetric — but anything that needs
                    // true directions must follow `traceback.rs`, which
                    // uses the CPU convention.
                    // old = rowH[j]; eold = rowE[j]
                    let old = b.reg();
                    b.ld(row_space, Width::B64, old, ja, 0);
                    let eold = b.reg();
                    b.ld(row_space, Width::B64, eold, ja, e_off);
                    // e = max(eold - ext, old - (open + ext))
                    let e = b.reg();
                    b.isub(e, Operand::reg(eold), Operand::reg(r.c_ext));
                    let t1 = b.reg();
                    b.isub(t1, Operand::reg(old), Operand::reg(r.c_oe));
                    b.imax(e, e, Operand::reg(t1));
                    // f = max(f - ext, hleft - (open + ext))
                    b.isub(f, Operand::reg(f), Operand::reg(r.c_ext));
                    let t2 = b.reg();
                    b.isub(t2, Operand::reg(hleft), Operand::reg(r.c_oe));
                    b.imax(f, f, Operand::reg(t2));
                    // substitution score
                    let ta = b.reg();
                    b.iadd(ta, tp, Operand::reg(j));
                    let tc = b.reg();
                    b.ld(Space::Global, Width::B8, tc, ta, -1);
                    let sub = b.reg();
                    if cfg.subst_matrix.is_some() {
                        // sub = const[32 + (qc*32 + tc)*8] (BLOSUM62 row).
                        let ma = b.reg();
                        b.ishl(ma, qc, Operand::imm(5));
                        b.iadd(ma, ma, Operand::reg(tc));
                        b.ishl(ma, ma, Operand::imm(3));
                        b.ld(Space::Const, Width::B64, sub, ma, 32);
                    } else {
                        let eq = b.reg();
                        b.setp(
                            eq,
                            CmpOp::Eq,
                            ScalarType::S64,
                            Operand::reg(qc),
                            Operand::reg(tc),
                        );
                        b.sel(sub, eq, Operand::reg(r.c_mat), Operand::reg(r.c_mis));
                    }
                    // h = max(hdiag + sub, e, f) [, 0 for Local]
                    let h = b.reg();
                    b.iadd(h, hdiag, Operand::reg(sub));
                    b.imax(h, h, Operand::reg(e));
                    b.imax(h, h, Operand::reg(f));
                    if cfg.mode == DpMode::Local {
                        b.imax(h, h, Operand::imm(0));
                    }
                    // rotate
                    b.mov(hdiag, Operand::reg(old));
                    b.st(row_space, Width::B64, Operand::reg(h), ja, 0);
                    b.st(row_space, Width::B64, Operand::reg(e), ja, e_off);
                    b.mov(hleft, Operand::reg(h));
                    match cfg.mode {
                        DpMode::Local | DpMode::Extend { .. } => {
                            b.imax(best, best, Operand::reg(h));
                        }
                        _ => {}
                    }
                    if matches!(cfg.mode, DpMode::Extend { .. }) {
                        b.imax(rowbest, rowbest, Operand::reg(h));
                    }
                    b.iadd(j, j, Operand::imm(1));
                },
            );

            if let DpMode::Extend { zdrop } = cfg.mode {
                // dropped |= rowbest < best - zdrop
                let lim = b.reg();
                b.isub(lim, Operand::reg(best), Operand::imm(zdrop as i64));
                let is_drop = b.cmp_s(CmpOp::Lt, Operand::reg(rowbest), Operand::reg(lim));
                b.ior(dropped, dropped, Operand::reg(is_drop));
            }
            b.iadd(i, i, Operand::imm(1));
        },
    );

    // ---- score extraction ----
    let score = b.reg();
    match cfg.mode {
        DpMode::Global => {
            let la = b.reg();
            b.imul(la, tlen, Operand::imm(8));
            b.iadd(la, la, Operand::reg(row_base));
            b.ld(row_space, Width::B64, score, la, 0);
        }
        DpMode::Local | DpMode::Extend { .. } => b.mov(score, Operand::reg(best)),
        DpMode::SemiGlobal => {
            b.mov(score, Operand::imm(KERNEL_NEG_INF));
            let j = b.reg();
            b.mov(j, Operand::imm(0));
            b.while_loop(
                |b| b.cmp_s(CmpOp::Le, Operand::reg(j), Operand::reg(tlen)),
                |b| {
                    let ja = b.reg();
                    b.imul(ja, j, Operand::imm(8));
                    b.iadd(ja, ja, Operand::reg(row_base));
                    let v = b.reg();
                    b.ld(row_space, Width::B64, v, ja, 0);
                    b.imax(score, score, Operand::reg(v));
                    b.iadd(j, j, Operand::imm(1));
                },
            );
        }
    }
    let oa = b.reg();
    b.imul(oa, pair, Operand::imm(8));
    b.iadd(oa, oa, Operand::reg(r.out_base));
    b.st(Space::Global, Width::B64, Operand::reg(score), oa, 0);
}

arg_block! {
    /// Launch arguments of a [`build_dp_parent`] kernel, after the nine words
    /// of its child: a [`DpArgs`] or a [`crate::pairhmm::PairHmmArgs`], which
    /// keep `n_pairs`, `pair_offset` and `stride` in the same slots. The
    /// parent overwrites those three per child grid and passes the rest on.
    DpParentArgs / DpParentSlot after (DpSlot::COUNT) {
        scratch: "One child parameter block ([`DP_PARAM_WORDS`] words) per parent thread.",
        chunk: "Pairs per parent thread, i.e. per child grid.",
        child_cta: "Child CTA size.",
    }
}

/// Store `words` as a child parameter block at `block`, in ABI order.
pub(crate) fn st_param_block<const N: usize>(
    b: &mut KernelBuilder,
    block: Reg,
    words: [Operand; N],
) {
    for (i, w) in words.into_iter().enumerate() {
        b.st(Space::Global, Width::B64, w, block, i as i64 * 8);
    }
}

/// Emit a CDP parent kernel: each parent thread owns a `chunk` of pairs,
/// writes a child parameter block into its scratch slot, launches the child
/// grid (one pair per thread), and synchronizes. Arguments: the child's, then
/// [`DpParentArgs`].
pub fn build_dp_parent(name: &str, child_kernel: u32) -> Kernel {
    let mut b = KernelBuilder::new(name);
    let n_pairs = DpSlot::n_pairs.ld(&mut b);
    let pair_offset = DpSlot::pair_offset.ld(&mut b);
    let scratch = DpParentSlot::scratch.ld(&mut b);
    let chunk = DpParentSlot::chunk.ld(&mut b);
    let child_cta = DpParentSlot::child_cta.ld(&mut b);

    let tid = b.global_tid();
    let start = b.reg();
    b.imul(start, tid, Operand::reg(chunk));
    b.iadd(start, start, Operand::reg(pair_offset));

    let active = b.cmp_s(CmpOp::Lt, Operand::reg(start), Operand::reg(n_pairs));
    b.if_then(active, |b| {
        // limit = min(n_pairs, start + chunk)
        let limit = b.reg();
        b.iadd(limit, start, Operand::reg(chunk));
        b.imin(limit, limit, Operand::reg(n_pairs));
        // Parameter block: DP_PARAM_WORDS words at scratch + tid*72.
        let pb = b.reg();
        b.imul(pb, tid, Operand::imm(DP_PARAM_WORDS as i64 * 8));
        b.iadd(pb, pb, Operand::reg(scratch));
        // Copy the pass-through words, then the three this child differs in:
        // a stride of `n_pairs` is larger than any pair id, so each child
        // thread does one pair.
        let at = |slot: DpSlot| slot as i64 * 8;
        for slot in [
            DpSlot::q,
            DpSlot::t,
            DpSlot::out,
            DpSlot::lens,
            DpSlot::t_len,
            DpSlot::idx,
        ] {
            let v = slot.ld(b);
            b.st(Space::Global, Width::B64, Operand::reg(v), pb, at(slot));
        }
        for (slot, v) in [
            (DpSlot::n_pairs, limit),
            (DpSlot::pair_offset, start),
            (DpSlot::stride, n_pairs),
        ] {
            b.st(Space::Global, Width::B64, Operand::reg(v), pb, at(slot));
        }
        // grid = ceil(chunk / child_cta)
        let grid = b.reg();
        b.iadd(grid, chunk, Operand::reg(child_cta));
        b.isub(grid, Operand::reg(grid), Operand::imm(1));
        b.alu(
            AluOp::IDiv,
            grid,
            Operand::reg(grid),
            Operand::reg(child_cta),
        );
        b.launch(
            child_kernel,
            Operand::reg(grid),
            Operand::reg(child_cta),
            Operand::reg(pb),
            DP_PARAM_WORDS,
        );
        b.dsync();
    });
    b.exit();
    let mut k = b.finish();
    k.regs_per_thread = k.regs_per_thread.max(32);
    k.validate().expect("dp parent must validate");
    k
}
