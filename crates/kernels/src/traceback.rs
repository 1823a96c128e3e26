//! Global alignment **with traceback** — GASAL2's "with traceback" mode.
//!
//! The forward pass mirrors the score-only DP kernel but additionally
//! records per-cell direction bits in a local-memory matrix; a backward
//! walk then reconstructs the alignment as per-column CIGAR operations
//! written to global memory. Tie-breaking matches
//! `ggpu_genomics::nw_align` exactly (diagonal ≥ E ≥ F; gap runs exit on
//! "came from open" ties), so device CIGARs are validated byte-for-byte
//! against the CPU traceback.
//!
//! Direction byte per cell: bits 0-1 = H source (0 diag, 1 E, 2 F),
//! bit 2 = E opened here, bit 3 = F opened here.
//!
//! Launch arguments are [`TracebackArgs`]; scoring constants as in the DP
//! kernel.

use ggpu_isa::{
    CmpOp, Kernel, KernelBuilder, KernelId, LaunchDims, Operand, Program, Reg, ScalarType, Space,
    Width,
};
use ggpu_sim::{Gpu, GpuConfig};

use crate::dp::{build_dp_kernel, scoring_const_data, DpArgs, DpKernelCfg, DpMode, KERNEL_NEG_INF};
use crate::host::{read_i64s, read_u32s, upload, upload_u32s};
use crate::{BenchResult, Scale};

arg_block! {
    /// Launch arguments of a [`build_traceback_kernel`] kernel.
    TracebackArgs / TracebackSlot {
        q: "Queries, one byte per base, `max_len` stride.",
        t: "Targets, same layout.",
        out_scores: "i64 score per pair.",
        n_pairs: "Pairs strictly below this index are processed.",
        pair_offset: "First pair this grid handles.",
        stride: "Pair increment per loop iteration (the total thread count).",
        lens: "u32 per-pair lengths, or 0 for uniform `max_len`.",
        out_ops: "u8 CIGAR op per column, `2*max_len` stride per pair.",
        out_ops_len: "u32 op count per pair.",
    }
}

/// CIGAR op codes written by the kernel (per column).
pub(crate) const OP_MATCH: u8 = 0;
/// Insertion (consumes query).
pub(crate) const OP_INS: u8 = 1;
/// Deletion (consumes target).
pub(crate) const OP_DEL: u8 = 2;

/// Configuration of the traceback kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracebackKernelCfg {
    /// Maximum (buffer-stride) sequence length.
    pub max_len: u32,
    /// Match score (positive).
    pub matches: i32,
    /// Mismatch score (negative).
    pub mismatch: i32,
    /// Gap-open penalty (positive).
    pub open: i32,
    /// Gap-extend penalty (positive).
    pub extend: i32,
}

impl TracebackKernelCfg {
    /// Local bytes per thread: two DP rows (i64) plus the direction matrix
    /// (1 byte per cell).
    pub(crate) fn local_bytes(&self) -> u32 {
        let rows = 2 * (self.max_len + 1) * 8;
        let dirs = (self.max_len + 1) * (self.max_len + 1);
        rows + dirs
    }
}

/// Emit the global-alignment-with-traceback kernel.
#[allow(clippy::too_many_lines)]
pub fn build_traceback_kernel(name: &str, cfg: &TracebackKernelCfg) -> Kernel {
    let max_len = cfg.max_len as i64;
    let row_h_off = 0i64;
    let e_off = (max_len + 1) * 8;
    let dir_off = 2 * (max_len + 1) * 8;
    let dir_w = max_len + 1;

    let mut b = KernelBuilder::new(name);
    b.set_local_bytes(cfg.local_bytes());
    b.set_cmem_bytes(32);

    let q_base = TracebackSlot::q.ld(&mut b);
    let t_base = TracebackSlot::t.ld(&mut b);
    let out_scores = TracebackSlot::out_scores.ld(&mut b);
    let n_pairs = TracebackSlot::n_pairs.ld(&mut b);
    let pair_off = TracebackSlot::pair_offset.ld(&mut b);
    let stride = TracebackSlot::stride.ld(&mut b);
    let len_base = TracebackSlot::lens.ld(&mut b);
    let out_ops = TracebackSlot::out_ops.ld(&mut b);
    let out_ops_len = TracebackSlot::out_ops_len.ld(&mut b);

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

    let tid = b.global_tid();
    let pair = b.reg();
    b.iadd(pair, tid, Operand::reg(pair_off));

    b.while_loop(
        |b| b.cmp_s(CmpOp::Lt, Operand::reg(pair), Operand::reg(n_pairs)),
        |b| {
            let qp = b.reg();
            b.imul(qp, pair, Operand::imm(max_len));
            b.iadd(qp, qp, Operand::reg(q_base));
            let tp = b.reg();
            b.imul(tp, pair, Operand::imm(max_len));
            b.iadd(tp, tp, Operand::reg(t_base));
            let len = b.reg();
            let have = b.cmp_s(CmpOp::Ne, Operand::reg(len_base), Operand::imm(0));
            b.if_then_else(
                have,
                |b| {
                    let la = b.reg();
                    b.imul(la, pair, Operand::imm(4));
                    b.iadd(la, la, Operand::reg(len_base));
                    b.ld(Space::Global, Width::B32, len, la, 0);
                },
                |b| b.mov(len, Operand::imm(max_len)),
            );

            // ---- init row 0 ----
            let addr = b.reg();
            let init_one = |b: &mut KernelBuilder, j: Reg| {
                b.imul(addr, j, Operand::imm(8));
                b.iadd(addr, addr, Operand::imm(row_h_off));
                let h0 = b.reg();
                b.imul(h0, j, Operand::reg(c_ext));
                b.iadd(h0, h0, Operand::reg(c_open));
                b.isub(h0, Operand::imm(0), Operand::reg(h0));
                let is0 = b.cmp_s(CmpOp::Eq, Operand::reg(j), Operand::imm(0));
                b.sel(h0, is0, Operand::imm(0), Operand::reg(h0));
                b.st(Space::Local, Width::B64, Operand::reg(h0), addr, 0);
                b.st(
                    Space::Local,
                    Width::B64,
                    Operand::imm(KERNEL_NEG_INF),
                    addr,
                    e_off,
                );
            };
            b.for_range(Operand::imm(0), Operand::reg(len), 1, |b, j| init_one(b, j));
            init_one(b, len);

            // ---- forward pass with direction recording ----
            let i = b.reg();
            b.mov(i, Operand::imm(1));
            b.while_loop(
                |b| b.cmp_s(CmpOp::Le, Operand::reg(i), Operand::reg(len)),
                |b| {
                    let qa = b.reg();
                    b.iadd(qa, qp, Operand::reg(i));
                    let qc = b.reg();
                    b.ld(Space::Global, Width::B8, qc, qa, -1);
                    let hdiag = b.reg();
                    b.ld(Space::Local, Width::B64, hdiag, Operand::imm(row_h_off), 0);
                    let hleft = b.reg();
                    b.imul(hleft, i, Operand::reg(c_ext));
                    b.iadd(hleft, hleft, Operand::reg(c_open));
                    b.isub(hleft, Operand::imm(0), Operand::reg(hleft));
                    b.st(
                        Space::Local,
                        Width::B64,
                        Operand::reg(hleft),
                        Operand::imm(row_h_off),
                        0,
                    );
                    let f = b.reg();
                    b.mov(f, Operand::imm(KERNEL_NEG_INF));
                    let f_opened = b.reg();
                    b.mov(f_opened, Operand::imm(1));

                    let j = b.reg();
                    b.mov(j, Operand::imm(1));
                    b.while_loop(
                        |b| b.cmp_s(CmpOp::Le, Operand::reg(j), Operand::reg(len)),
                        |b| {
                            let ja = b.reg();
                            b.imul(ja, j, Operand::imm(8));
                            let old = b.reg();
                            b.ld(Space::Local, Width::B64, old, ja, row_h_off);
                            // Gotoh state names follow the CPU traceback:
                            // E is the *horizontal* gap (deletion, consumes
                            // target, carried across j in a register), F is
                            // the *vertical* gap (insertion, kept in the row
                            // array at (i-1, j)).
                            let fold = b.reg();
                            b.ld(Space::Local, Width::B64, fold, ja, e_off);
                            // f = max(fold-ext, old-oe); opened on ties.
                            let f_ext = b.reg();
                            b.isub(f_ext, Operand::reg(fold), Operand::reg(c_ext));
                            let f_open = b.reg();
                            b.isub(f_open, Operand::reg(old), Operand::reg(c_oe));
                            let frow = b.reg();
                            b.imax(frow, f_open, Operand::reg(f_ext));
                            let f_opened_here =
                                b.cmp_s(CmpOp::Ge, Operand::reg(f_open), Operand::reg(f_ext));
                            // e = max(e-ext, hleft-oe); opened on ties.
                            let e_ext = b.reg();
                            b.isub(e_ext, Operand::reg(f), Operand::reg(c_ext));
                            let e_open = b.reg();
                            b.isub(e_open, Operand::reg(hleft), Operand::reg(c_oe));
                            b.imax(f, e_open, Operand::reg(e_ext));
                            let eo = b.cmp_s(CmpOp::Ge, Operand::reg(e_open), Operand::reg(e_ext));
                            b.mov(f_opened, Operand::reg(eo));
                            // diag + sub
                            let ta = b.reg();
                            b.iadd(ta, tp, Operand::reg(j));
                            let tc = b.reg();
                            b.ld(Space::Global, Width::B8, tc, ta, -1);
                            let eq = b.reg();
                            b.setp(
                                eq,
                                CmpOp::Eq,
                                ScalarType::S64,
                                Operand::reg(qc),
                                Operand::reg(tc),
                            );
                            let sub = b.reg();
                            b.sel(sub, eq, Operand::reg(c_mat), Operand::reg(c_mis));
                            let diag = b.reg();
                            b.iadd(diag, hdiag, Operand::reg(sub));
                            // h = max(diag, e, f) with the CPU tie order
                            // (diag, then horizontal E, then vertical F).
                            let h = b.reg();
                            b.imax(h, diag, Operand::reg(f));
                            b.imax(h, h, Operand::reg(frow));
                            let is_diag = b.cmp_s(CmpOp::Eq, Operand::reg(h), Operand::reg(diag));
                            let is_e = b.cmp_s(CmpOp::Eq, Operand::reg(h), Operand::reg(f));
                            let hdir = b.reg();
                            b.sel(hdir, is_e, Operand::imm(1), Operand::imm(2));
                            b.sel(hdir, is_diag, Operand::imm(0), Operand::reg(hdir));
                            // dir byte = hdir | e_opened<<2 | f_opened<<3
                            let dirb = b.reg();
                            b.ishl(dirb, f_opened, Operand::imm(2));
                            b.ior(dirb, dirb, Operand::reg(hdir));
                            let fbit = b.reg();
                            b.ishl(fbit, f_opened_here, Operand::imm(3));
                            b.ior(dirb, dirb, Operand::reg(fbit));
                            let da = b.reg();
                            b.imul(da, i, Operand::imm(dir_w));
                            b.iadd(da, da, Operand::reg(j));
                            b.st(Space::Local, Width::B8, Operand::reg(dirb), da, dir_off);
                            // rotate
                            b.mov(hdiag, Operand::reg(old));
                            b.st(Space::Local, Width::B64, Operand::reg(h), ja, row_h_off);
                            b.st(Space::Local, Width::B64, Operand::reg(frow), ja, e_off);
                            b.mov(hleft, Operand::reg(h));
                            b.iadd(j, j, Operand::imm(1));
                        },
                    );
                    b.iadd(i, i, Operand::imm(1));
                },
            );

            // Final score: h[len].
            let score = b.reg();
            {
                let la = b.reg();
                b.imul(la, len, Operand::imm(8));
                b.ld(Space::Local, Width::B64, score, la, row_h_off);
                let oa = b.reg();
                b.imul(oa, pair, Operand::imm(8));
                b.iadd(oa, oa, Operand::reg(out_scores));
                b.st(Space::Global, Width::B64, Operand::reg(score), oa, 0);
            }

            // ---- backward walk (mirrors ggpu_genomics::nw_align) ----
            let ops_base = b.reg();
            b.imul(ops_base, pair, Operand::imm(2 * max_len));
            b.iadd(ops_base, ops_base, Operand::reg(out_ops));
            let nops = b.reg();
            b.mov(nops, Operand::imm(0));
            let ti = b.reg();
            b.mov(ti, Operand::reg(len));
            let tj = b.reg();
            b.mov(tj, Operand::reg(len));
            let state = b.reg();
            b.mov(state, Operand::imm(0)); // 0=H, 1=E, 2=F
            b.while_loop(
                |b| {
                    let c1 = b.cmp_s(CmpOp::Gt, Operand::reg(ti), Operand::imm(0));
                    let c2 = b.cmp_s(CmpOp::Gt, Operand::reg(tj), Operand::imm(0));
                    let any = b.reg();
                    b.ior(any, c1, Operand::reg(c2));
                    any
                },
                |b| {
                    // Load the direction byte (only valid for ti>0 && tj>0).
                    let da = b.reg();
                    b.imul(da, ti, Operand::imm(dir_w));
                    b.iadd(da, da, Operand::reg(tj));
                    let dirb = b.reg();
                    b.ld(Space::Local, Width::B8, dirb, da, dir_off);
                    let hdir = b.reg();
                    b.iand(hdir, dirb, Operand::imm(3));

                    // Border handling, as in the CPU traceback.
                    let i0 = b.cmp_s(CmpOp::Eq, Operand::reg(ti), Operand::imm(0));
                    let j0 = b.cmp_s(CmpOp::Eq, Operand::reg(tj), Operand::imm(0));
                    // eff_state: if state==0 then (border or hdir decides)
                    let eff = b.reg();
                    let in_h = b.cmp_s(CmpOp::Eq, Operand::reg(state), Operand::imm(0));
                    b.if_then_else(
                        in_h,
                        |b| {
                            // In H: borders force a gap state; otherwise hdir.
                            b.mov(eff, Operand::reg(hdir));
                            b.sel(eff, j0, Operand::imm(2), Operand::reg(eff)); // j==0 → F (Ins)
                            b.sel(eff, i0, Operand::imm(1), Operand::reg(eff)); // i==0 → E (Del)
                        },
                        |b| b.mov(eff, Operand::reg(state)),
                    );

                    let op = b.reg();
                    let is_diag = b.cmp_s(CmpOp::Eq, Operand::reg(eff), Operand::imm(0));
                    b.if_then_else(
                        is_diag,
                        |b| {
                            b.mov(op, Operand::imm(OP_MATCH as i64));
                            b.isub(ti, Operand::reg(ti), Operand::imm(1));
                            b.isub(tj, Operand::reg(tj), Operand::imm(1));
                            b.mov(state, Operand::imm(0));
                        },
                        |b| {
                            let is_e = b.cmp_s(CmpOp::Eq, Operand::reg(eff), Operand::imm(1));
                            b.if_then_else(
                                is_e,
                                |b| {
                                    // Deletion: consume target.
                                    b.mov(op, Operand::imm(OP_DEL as i64));
                                    // Stay in E unless opened here or j<=1.
                                    let opened = b.reg();
                                    b.ishr(opened, dirb, Operand::imm(2));
                                    b.iand(opened, opened, Operand::imm(1));
                                    let j_small =
                                        b.cmp_s(CmpOp::Le, Operand::reg(tj), Operand::imm(1));
                                    let exit = b.reg();
                                    b.ior(exit, opened, Operand::reg(j_small));
                                    // On the i==0 border the direction byte is
                                    // garbage: always exit to H (it re-derives
                                    // E from the border rule next step).
                                    let i0b = b.cmp_s(CmpOp::Eq, Operand::reg(ti), Operand::imm(0));
                                    b.ior(exit, exit, Operand::reg(i0b));
                                    b.sel(state, exit, Operand::imm(0), Operand::imm(1));
                                    b.isub(tj, Operand::reg(tj), Operand::imm(1));
                                },
                                |b| {
                                    // Insertion: consume query.
                                    b.mov(op, Operand::imm(OP_INS as i64));
                                    let opened = b.reg();
                                    b.ishr(opened, dirb, Operand::imm(3));
                                    b.iand(opened, opened, Operand::imm(1));
                                    let i_small =
                                        b.cmp_s(CmpOp::Le, Operand::reg(ti), Operand::imm(1));
                                    let exit = b.reg();
                                    b.ior(exit, opened, Operand::reg(i_small));
                                    let j0b = b.cmp_s(CmpOp::Eq, Operand::reg(tj), Operand::imm(0));
                                    b.ior(exit, exit, Operand::reg(j0b));
                                    b.sel(state, exit, Operand::imm(0), Operand::imm(2));
                                    b.isub(ti, Operand::reg(ti), Operand::imm(1));
                                },
                            );
                        },
                    );
                    // Append op (reversed order for now).
                    let oa = b.reg();
                    b.iadd(oa, ops_base, Operand::reg(nops));
                    b.st(Space::Global, Width::B8, Operand::reg(op), oa, 0);
                    b.iadd(nops, nops, Operand::imm(1));
                },
            );

            // Reverse the op string in place.
            let lo = b.reg();
            b.mov(lo, Operand::imm(0));
            let hi = b.reg();
            b.isub(hi, Operand::reg(nops), Operand::imm(1));
            b.while_loop(
                |b| b.cmp_s(CmpOp::Lt, Operand::reg(lo), Operand::reg(hi)),
                |b| {
                    let la = b.reg();
                    b.iadd(la, ops_base, Operand::reg(lo));
                    let ha = b.reg();
                    b.iadd(ha, ops_base, Operand::reg(hi));
                    let x = b.reg();
                    b.ld(Space::Global, Width::B8, x, la, 0);
                    let y = b.reg();
                    b.ld(Space::Global, Width::B8, y, ha, 0);
                    b.st(Space::Global, Width::B8, Operand::reg(y), la, 0);
                    b.st(Space::Global, Width::B8, Operand::reg(x), ha, 0);
                    b.iadd(lo, lo, Operand::imm(1));
                    b.isub(hi, Operand::reg(hi), Operand::imm(1));
                },
            );
            // Store op count.
            let na = b.reg();
            b.imul(na, pair, Operand::imm(4));
            b.iadd(na, na, Operand::reg(out_ops_len));
            b.st(Space::Global, Width::B32, Operand::reg(nops), na, 0);

            b.iadd(pair, pair, Operand::reg(stride));
        },
    );
    b.exit();
    let mut k = b.finish();
    k.regs_per_thread = k.regs_per_thread.max(48);
    k.validate().expect("traceback kernel must validate");
    k
}

/// The "GASAL2 with traceback" extension benchmark: global alignment of a
/// read batch returning full CIGARs, validated against the CPU traceback.
#[derive(Debug, Clone)]
pub struct TracebackBench {
    max_len: u32,
    n_pairs: usize,
    queries: Vec<u8>,
    targets: Vec<u8>,
    lens: Vec<u32>,
    expected_scores: Vec<i64>,
    expected_ops: Vec<Vec<u8>>,
    dims: LaunchDims,
}

/// Upload a workload, run traceback kernel `k` over it once, and read back
/// the scores and each pair's op string.
fn run_traceback_kernel(
    gpu: &mut Gpu,
    k: KernelId,
    max_len: u32,
    dims: LaunchDims,
    (q, t, lens): (&[u8], &[u8], &[u32]),
) -> (Vec<i64>, Vec<Vec<u8>>) {
    let n = lens.len();
    let ops_stride = 2 * max_len as usize;
    let qb = upload(gpu, q);
    let tb = upload(gpu, t);
    let lb = upload_u32s(gpu, lens);
    let sb = gpu.malloc(n as u64 * 8);
    let ob = gpu.malloc((n * ops_stride) as u64);
    let nb = gpu.malloc(n as u64 * 4);
    let args = TracebackArgs {
        q: qb.0,
        t: tb.0,
        out_scores: sb.0,
        n_pairs: n as u64,
        pair_offset: 0,
        stride: dims.total_threads(),
        lens: lb.0,
        out_ops: ob.0,
        out_ops_len: nb.0,
    };
    gpu.run_kernel(k, dims, &args.words());
    let scores = read_i64s(gpu, sb, n);
    let raw_ops = gpu.memcpy_d2h(ob, n * ops_stride);
    let ops = read_u32s(gpu, nb, n)
        .into_iter()
        .enumerate()
        .map(|(p, count)| raw_ops[p * ops_stride..p * ops_stride + count as usize].to_vec())
        .collect();
    (scores, ops)
}

impl TracebackBench {
    /// Build an instance at `scale`.
    pub fn new(scale: Scale) -> Self {
        use ggpu_genomics::{mutate, nw_align, random_genome, CigarOp, GapModel, Simple};
        use rand::{Rng, SeedableRng};
        let (n_pairs, max_len, dims) = match scale {
            Scale::Tiny => (64usize, 20u32, LaunchDims::linear(2, 32)),
            Scale::Small => (2048, 28, LaunchDims::linear(10, 128)),
            Scale::Paper => (10240, 64, LaunchDims::linear(40, 128)),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(606);
        let mut queries = vec![0u8; n_pairs * max_len as usize];
        let mut targets = vec![0u8; n_pairs * max_len as usize];
        let mut lens = Vec::with_capacity(n_pairs);
        for p in 0..n_pairs {
            let len = rng.gen_range(max_len - 8..=max_len) as usize;
            let qs = random_genome(len, &mut rng);
            let ts = mutate(&qs, 0.1, 0.05, &mut rng);
            let tl = ts.len().min(len);
            queries[p * max_len as usize..p * max_len as usize + len].copy_from_slice(qs.codes());
            targets[p * max_len as usize..p * max_len as usize + tl]
                .copy_from_slice(&ts.codes()[..tl]);
            lens.push(len as u32);
        }
        let subst = Simple::new(2, -3);
        let gaps = GapModel::Affine { open: 5, extend: 2 };
        let mut expected_scores = Vec::with_capacity(n_pairs);
        let mut expected_ops = Vec::with_capacity(n_pairs);
        for (p, &plen) in lens.iter().enumerate() {
            let base = p * max_len as usize;
            let len = plen as usize;
            let aln = nw_align(
                &queries[base..base + len],
                &targets[base..base + len],
                &subst,
                gaps,
            );
            expected_scores.push(aln.score as i64);
            let mut ops = Vec::new();
            for &(op, count) in &aln.cigar {
                let code = match op {
                    CigarOp::Match => OP_MATCH,
                    CigarOp::Ins => OP_INS,
                    CigarOp::Del => OP_DEL,
                };
                ops.extend(std::iter::repeat_n(code, count as usize));
            }
            expected_ops.push(ops);
        }
        TracebackBench {
            max_len,
            n_pairs,
            queries,
            targets,
            lens,
            expected_scores,
            expected_ops,
            dims,
        }
    }

    /// The DP configuration with this instance's scoring: the score-only
    /// baseline's kernel, and the constant image both kernels bind.
    fn score_cfg(&self) -> DpKernelCfg {
        DpKernelCfg::new(DpMode::Global, self.max_len, self.dims.threads_per_cta())
    }

    /// Run the *score-only* DP kernel on this instance's exact inputs and
    /// launch shape — the baseline the traceback cost is measured against.
    pub fn run_score_only(&self, config: &GpuConfig) -> BenchResult {
        let dcfg = self.score_cfg();
        let mut program = Program::new();
        let k = program.add(build_dp_kernel("GG-score", &dcfg));
        let mut gpu = Gpu::new(program, config.clone());
        gpu.bind_constants(k, scoring_const_data(&dcfg));
        let n = self.n_pairs;
        let qb = upload(&mut gpu, &self.queries);
        let tb = upload(&mut gpu, &self.targets);
        let lb = upload_u32s(&mut gpu, &self.lens);
        let sb = gpu.malloc(n as u64 * 8);
        let args = DpArgs {
            q: qb.0,
            t: tb.0,
            out: sb.0,
            n_pairs: n as u64,
            stride: self.dims.total_threads(),
            lens: lb.0,
            ..Default::default()
        };
        gpu.run_kernel(k, self.dims, &args.words());
        let scores = read_i64s(&mut gpu, sb, n);
        BenchResult::collect(
            &mut gpu,
            scores == self.expected_scores,
            format!("GG score-only on the traceback workload ({n} pairs)"),
        )
    }

    /// Run on the simulator; verifies scores and CIGARs byte-for-byte.
    pub fn run(&self, config: &GpuConfig) -> BenchResult {
        let cfg = TracebackKernelCfg {
            max_len: self.max_len,
            matches: 2,
            mismatch: -3,
            open: 5,
            extend: 2,
        };
        let mut program = Program::new();
        let k = program.add(build_traceback_kernel("GG-TB", &cfg));
        let mut gpu = Gpu::new(program, config.clone());
        gpu.bind_constants(k, scoring_const_data(&self.score_cfg()));
        let (scores, ops) = run_traceback_kernel(
            &mut gpu,
            k,
            self.max_len,
            self.dims,
            (&self.queries, &self.targets, &self.lens),
        );
        BenchResult::collect(
            &mut gpu,
            scores == self.expected_scores && ops == self.expected_ops,
            format!("GG-TB: {} pairs with full CIGAR traceback", self.n_pairs),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_genomics::{mutate, nw_align, random_genome, CigarOp, GapModel, Simple};
    use rand::SeedableRng;

    const MAX_LEN: u32 = 20;

    fn run_traceback(q: &[u8], t: &[u8], lens: &[u32]) -> (Vec<i64>, Vec<Vec<u8>>) {
        let cfg = TracebackKernelCfg {
            max_len: MAX_LEN,
            matches: 2,
            mismatch: -3,
            open: 5,
            extend: 2,
        };
        let mut program = Program::new();
        let k = program.add(build_traceback_kernel("tb", &cfg));
        let mut gpu = Gpu::new(program, GpuConfig::test_small());
        // Reuse the DP const layout (match/mismatch/open/extend words).
        let dcfg = DpKernelCfg::new(DpMode::Global, MAX_LEN, 32);
        gpu.bind_constants(k, scoring_const_data(&dcfg));
        run_traceback_kernel(
            &mut gpu,
            k,
            MAX_LEN,
            LaunchDims::linear(1, 32),
            (q, t, lens),
        )
    }

    fn cpu_column_ops(q: &[u8], t: &[u8]) -> (i64, Vec<u8>) {
        let subst = Simple::new(2, -3);
        let gaps = GapModel::Affine { open: 5, extend: 2 };
        let aln = nw_align(q, t, &subst, gaps);
        let mut ops = Vec::new();
        for &(op, count) in &aln.cigar {
            let code = match op {
                CigarOp::Match => OP_MATCH,
                CigarOp::Ins => OP_INS,
                CigarOp::Del => OP_DEL,
            };
            ops.extend(std::iter::repeat_n(code, count as usize));
        }
        (aln.score as i64, ops)
    }

    fn make_workload(n: usize, seed: u64) -> (Vec<u8>, Vec<u8>, Vec<u32>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut q = vec![0u8; n * MAX_LEN as usize];
        let mut t = vec![0u8; n * MAX_LEN as usize];
        let mut lens = Vec::new();
        for p in 0..n {
            use rand::Rng;
            let len = rng.gen_range(4..=MAX_LEN) as usize;
            let qs = random_genome(len, &mut rng);
            let ts = mutate(&qs, 0.15, 0.1, &mut rng);
            let tl = ts.len().min(len);
            q[p * MAX_LEN as usize..p * MAX_LEN as usize + len].copy_from_slice(qs.codes());
            t[p * MAX_LEN as usize..p * MAX_LEN as usize + tl].copy_from_slice(&ts.codes()[..tl]);
            lens.push(len as u32);
        }
        (q, t, lens)
    }

    #[test]
    fn traceback_matches_cpu_cigar_exactly() {
        for seed in [1u64, 2, 3] {
            let (q, t, lens) = make_workload(24, seed);
            let (scores, ops) = run_traceback(&q, &t, &lens);
            for (p, &len) in lens.iter().enumerate() {
                let base = p * MAX_LEN as usize;
                let (want_score, want_ops) =
                    cpu_column_ops(&q[base..base + len as usize], &t[base..base + len as usize]);
                assert_eq!(scores[p], want_score, "seed {seed} pair {p}: score");
                assert_eq!(ops[p], want_ops, "seed {seed} pair {p}: ops");
            }
        }
    }

    #[test]
    fn identical_pair_is_all_matches() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let s = random_genome(MAX_LEN as usize, &mut rng);
        let mut q = vec![0u8; MAX_LEN as usize];
        q.copy_from_slice(s.codes());
        let (scores, ops) = run_traceback(&q, &q.clone(), &[MAX_LEN]);
        assert_eq!(scores[0], 2 * MAX_LEN as i64);
        assert_eq!(ops[0], vec![OP_MATCH; MAX_LEN as usize]);
    }

    #[test]
    fn ops_consume_both_sequences() {
        let (q, t, lens) = make_workload(16, 42);
        let (_, ops) = run_traceback(&q, &t, &lens);
        for (p, &len) in lens.iter().enumerate() {
            let consumed_q = ops[p].iter().filter(|&&o| o != OP_DEL).count();
            let consumed_t = ops[p].iter().filter(|&&o| o != OP_INS).count();
            assert_eq!(consumed_q, len as usize, "pair {p} query");
            assert_eq!(consumed_t, len as usize, "pair {p} target");
        }
    }
}

#[cfg(test)]
mod bench_tests {
    use super::*;

    #[test]
    fn traceback_bench_validates() {
        let b = TracebackBench::new(Scale::Tiny);
        let r = b.run(&GpuConfig {
            n_sms: 8,
            ..GpuConfig::test_small()
        });
        assert!(r.verified, "{}", r.detail);
        assert!(r.kernel_cycles > 0);
    }
}
