//! STAR — center-star multiple sequence alignment.
//!
//! Two phases on the GPU:
//!
//! 1. **Pairwise phase**: all `n·(n-1)/2` ordered pairs are scored with the
//!    global-alignment DP kernel.
//! 2. **Center phase**: the per-sequence score sums select the center
//!    (first maximum), and every sequence is aligned to it with the
//!    shared-target DP kernel.
//!
//! Sequences are index-encoded **proteins** scored with BLOSUM62 held in
//! constant memory (the paper's STAR input is `protein.txt`).
//!
//! The non-CDP driver round-trips through the host between phases (copy
//! scores back, reduce, relaunch). The CDP driver instead launches a
//! single-thread *orchestrator* kernel that runs phase 1 as a child grid,
//! reduces on-device, and launches phase 2 directly — removing the host
//! round-trip, which is exactly why the paper's Figure 2 shows CDP cutting
//! STAR's time by more than half.

use ggpu_isa::{CmpOp, Kernel, KernelBuilder, LaunchDims, Operand, Program, Space, Width};
use ggpu_sim::{Gpu, GpuConfig};
use rand::SeedableRng;

use ggpu_genomics::{blosum62_index_matrix, nw_score, GapModel, IndexedMatrix};
use rand::Rng;

use crate::dp::{
    build_dp_kernel, scoring_const_data, st_param_block, DpArgs, DpKernelCfg, DpMode,
    DP_PARAM_WORDS,
};
use crate::host::{batch_ranges, per_batch, read_i64s, u64_words, upload, upload_u32s};
use crate::pairwise::{GAP_EXTEND, GAP_OPEN};
use crate::{BenchResult, Benchmark, KernelResources, Scale, Table3Row};

arg_block! {
    /// Launch arguments of the on-device orchestrator (CDP variant).
    StarArgs / StarSlot {
        seqs: "All sequences, `seq_len` stride.",
        pair_q: "Phase-1 queries, one per pair.",
        pair_t: "Phase-1 targets, one per pair.",
        pair_scores: "i64 phase-1 score per pair.",
        n_pairs: "Number of pairs.",
        pair_a: "u32 first sequence of each pair.",
        pair_b: "u32 second sequence of each pair.",
        sums: "Zeroed i64 score sum per sequence.",
        final_scores: "i64 phase-2 score per sequence.",
        center_out: "The chosen center, one u64.",
        n_seqs: "Number of sequences.",
        seq_len: "Sequence length.",
        scratch: "One child parameter block per phase-1 batch plus one for phase 2.",
        per_batch: "Phase-1 pairs per child grid.",
    }
}

/// What both STAR phases compute: the device's answer in `run`, the CPU's
/// in [`StarBench::cpu_oracle`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StarOracle {
    /// Global-alignment score of every sequence pair, in pair-table order.
    pub pair_scores: Vec<i64>,
    /// The sequence with the first maximal sum of pair scores.
    pub center: usize,
    /// Score of every sequence against the centre.
    pub final_scores: Vec<i64>,
}

/// The STAR benchmark instance.
#[derive(Debug, Clone)]
pub struct StarBench {
    n_seqs: usize,
    seq_len: u32,
    /// Concatenated sequences, `seq_len` stride.
    seqs: Vec<u8>,
    /// Pair tables: pair p aligns seq `pair_a[p]` against seq `pair_b[p]`.
    pair_a: Vec<u32>,
    pair_b: Vec<u32>,
    /// Phase-1 expanded buffers (query/target per pair).
    pair_q: Vec<u8>,
    pair_t: Vec<u8>,
    expected: StarOracle,
    dims: LaunchDims,
    /// Phase-1 host launches (the original CMSA issues many small grids).
    batches: usize,
}

/// The sequence whose pair scores sum highest; the first one on a tie
/// (strictly-greater argmax), matching the device reduction.
fn first_max_center(n_seqs: usize, pair_a: &[u32], pair_b: &[u32], pair_scores: &[i64]) -> usize {
    let mut sums = vec![0i64; n_seqs];
    for (p, &score) in pair_scores.iter().enumerate() {
        sums[pair_a[p] as usize] += score;
        sums[pair_b[p] as usize] += score;
    }
    let mut center = 0usize;
    for (i, &s) in sums.iter().enumerate() {
        if s > sums[center] {
            center = i;
        }
    }
    center
}

impl StarBench {
    /// Build a STAR instance at `scale`.
    pub fn new(scale: Scale) -> Self {
        let (n_seqs, seq_len, dims, batches) = match scale {
            Scale::Tiny => (10usize, 16u32, LaunchDims::linear(2, 32), 4usize),
            Scale::Small => (20, 24, LaunchDims::linear(4, 64), 6),
            Scale::Paper => (48, 48, LaunchDims::linear(12, 256), 8),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(777);
        // A family of related proteins (index-encoded residues) mutated
        // from one ancestor.
        let ancestor: Vec<u8> = (0..seq_len).map(|_| rng.gen_range(0..20u8)).collect();
        let mut seqs = vec![0u8; n_seqs * seq_len as usize];
        for i in 0..n_seqs {
            let row = &mut seqs[i * seq_len as usize..(i + 1) * seq_len as usize];
            row.copy_from_slice(&ancestor);
            if i > 0 {
                for r in row.iter_mut() {
                    if rng.gen_bool(0.08) {
                        *r = rng.gen_range(0..20u8);
                    }
                }
            }
        }

        // Pair tables and expanded buffers.
        let mut pair_a = Vec::new();
        let mut pair_b = Vec::new();
        for a in 0..n_seqs as u32 {
            for b in a + 1..n_seqs as u32 {
                pair_a.push(a);
                pair_b.push(b);
            }
        }
        let n_pairs = pair_a.len();
        let mut pair_q = vec![0u8; n_pairs * seq_len as usize];
        let mut pair_t = vec![0u8; n_pairs * seq_len as usize];
        for p in 0..n_pairs {
            let (a, b) = (pair_a[p] as usize, pair_b[p] as usize);
            pair_q[p * seq_len as usize..(p + 1) * seq_len as usize]
                .copy_from_slice(&seqs[a * seq_len as usize..(a + 1) * seq_len as usize]);
            pair_t[p * seq_len as usize..(p + 1) * seq_len as usize]
                .copy_from_slice(&seqs[b * seq_len as usize..(b + 1) * seq_len as usize]);
        }

        let mut bench = StarBench {
            n_seqs,
            seq_len,
            seqs,
            pair_a,
            pair_b,
            pair_q,
            pair_t,
            expected: StarOracle::default(),
            dims,
            batches,
        };
        bench.expected = bench.cpu_oracle();
        bench
    }

    /// Both phases on the CPU (`nw_score` under BLOSUM62 over residue
    /// indices, like the kernel). The constructor stores the result and
    /// `run` verifies device output against it; Figure 2 times this call.
    pub fn cpu_oracle(&self) -> StarOracle {
        let subst = IndexedMatrix::blosum62();
        let gaps = GapModel::Affine {
            open: GAP_OPEN,
            extend: GAP_EXTEND,
        };
        let sl = self.seq_len as usize;
        let seq_of = |i: usize| &self.seqs[i * sl..(i + 1) * sl];
        let pair_scores: Vec<i64> = self
            .pair_a
            .iter()
            .zip(&self.pair_b)
            .map(|(&a, &b)| nw_score(seq_of(a as usize), seq_of(b as usize), &subst, gaps) as i64)
            .collect();
        let center = first_max_center(self.n_seqs, &self.pair_a, &self.pair_b, &pair_scores);
        let final_scores = (0..self.n_seqs)
            .map(|i| nw_score(seq_of(i), seq_of(center), &subst, gaps) as i64)
            .collect();
        StarOracle {
            pair_scores,
            center,
            final_scores,
        }
    }

    fn phase1_cfg(&self) -> DpKernelCfg {
        DpKernelCfg {
            subst_matrix: Some(blosum62_index_matrix()),
            ..DpKernelCfg::new(DpMode::Global, self.seq_len, self.dims.threads_per_cta())
        }
    }

    fn phase2_cfg(&self) -> DpKernelCfg {
        DpKernelCfg {
            shared_target: true,
            ..self.phase1_cfg()
        }
    }

    /// Build the on-device orchestrator kernel (CDP variant); arguments
    /// are [`StarArgs`].
    fn build_orchestrator(&self, phase1: u32, phase2: u32) -> Kernel {
        let mut b = KernelBuilder::new("STAR-orchestrator");
        let tid = b.global_tid();
        let is0 = b.cmp_s(CmpOp::Eq, Operand::reg(tid), Operand::imm(0));
        b.if_then(is0, |b| {
            let seqs = StarSlot::seqs.ld(b);
            let pair_q = StarSlot::pair_q.ld(b);
            let pair_t = StarSlot::pair_t.ld(b);
            let pscores = StarSlot::pair_scores.ld(b);
            let n_pairs = StarSlot::n_pairs.ld(b);
            let pair_a = StarSlot::pair_a.ld(b);
            let pair_b = StarSlot::pair_b.ld(b);
            let sums = StarSlot::sums.ld(b);
            let fscores = StarSlot::final_scores.ld(b);
            let center_out = StarSlot::center_out.ld(b);
            let n_seqs = StarSlot::n_seqs.ld(b);
            let seq_len = StarSlot::seq_len.ld(b);
            let scratch = StarSlot::scratch.ld(b);
            let per_batch = StarSlot::per_batch.ld(b);

            // ---- phase 1: one child grid per batch of pairs, all
            // launched back-to-back, one sync (no host round-trips) ----
            let start = b.reg();
            b.mov(start, Operand::imm(0));
            let pb1 = b.reg();
            b.mov(pb1, Operand::reg(scratch));
            b.while_loop(
                |b| b.cmp_s(CmpOp::Lt, Operand::reg(start), Operand::reg(n_pairs)),
                |b| {
                    let limit = b.reg();
                    b.iadd(limit, start, Operand::reg(per_batch));
                    b.imin(limit, limit, Operand::reg(n_pairs));
                    let child_args = DpArgs {
                        q: Operand::reg(pair_q),
                        t: Operand::reg(pair_t),
                        out: Operand::reg(pscores),
                        n_pairs: Operand::reg(limit),
                        pair_offset: Operand::reg(start),
                        stride: Operand::reg(n_pairs),
                        lens: Operand::imm(0),
                        t_len: Operand::imm(0),
                        idx: Operand::imm(0),
                    };
                    st_param_block(b, pb1, child_args.words());
                    let grid = b.reg();
                    b.iadd(grid, per_batch, Operand::imm(63));
                    b.alu(
                        ggpu_isa::AluOp::IDiv,
                        grid,
                        Operand::reg(grid),
                        Operand::imm(64),
                    );
                    b.launch(
                        phase1,
                        Operand::reg(grid),
                        Operand::imm(64),
                        Operand::reg(pb1),
                        DP_PARAM_WORDS,
                    );
                    b.iadd(start, start, Operand::reg(per_batch));
                    b.iadd(pb1, pb1, Operand::imm(DP_PARAM_WORDS as i64 * 8));
                },
            );
            b.dsync();

            // ---- reduce: per-sequence sums ----
            b.for_range(Operand::imm(0), Operand::reg(n_pairs), 1, |b, p| {
                let sa = b.reg();
                b.imul(sa, p, Operand::imm(8));
                b.iadd(sa, sa, Operand::reg(pscores));
                let s = b.reg();
                b.ld(Space::Global, Width::B64, s, sa, 0);
                for tbl in [pair_a, pair_b] {
                    let ia = b.reg();
                    b.imul(ia, p, Operand::imm(4));
                    b.iadd(ia, ia, Operand::reg(tbl));
                    let idx = b.reg();
                    b.ld(Space::Global, Width::B32, idx, ia, 0);
                    let su = b.reg();
                    b.imul(su, idx, Operand::imm(8));
                    b.iadd(su, su, Operand::reg(sums));
                    let cur = b.reg();
                    b.ld(Space::Global, Width::B64, cur, su, 0);
                    b.iadd(cur, cur, Operand::reg(s));
                    b.st(Space::Global, Width::B64, Operand::reg(cur), su, 0);
                }
            });

            // ---- argmax (first maximum) ----
            let center = b.reg();
            b.mov(center, Operand::imm(0));
            let bestsum = b.reg();
            b.mov(bestsum, Operand::imm(i64::MIN / 4));
            b.for_range(Operand::imm(0), Operand::reg(n_seqs), 1, |b, i| {
                let su = b.reg();
                b.imul(su, i, Operand::imm(8));
                b.iadd(su, su, Operand::reg(sums));
                let v = b.reg();
                b.ld(Space::Global, Width::B64, v, su, 0);
                let gt = b.cmp_s(CmpOp::Gt, Operand::reg(v), Operand::reg(bestsum));
                b.if_then(gt, |b| {
                    b.mov(bestsum, Operand::reg(v));
                    b.mov(center, Operand::reg(i));
                });
            });
            b.st(
                Space::Global,
                Width::B64,
                Operand::reg(center),
                center_out,
                0,
            );

            // ---- phase 2: align everything to the center ----
            let center_ptr = b.reg();
            b.imul(center_ptr, center, Operand::reg(seq_len));
            b.iadd(center_ptr, center_ptr, Operand::reg(seqs));
            let pb2 = b.reg();
            b.mov(pb2, Operand::reg(pb1));
            let child_args = DpArgs {
                q: Operand::reg(seqs),
                t: Operand::reg(center_ptr),
                out: Operand::reg(fscores),
                n_pairs: Operand::reg(n_seqs),
                pair_offset: Operand::imm(0),
                stride: Operand::reg(n_seqs),
                lens: Operand::imm(0),
                t_len: Operand::reg(seq_len),
                idx: Operand::imm(0),
            };
            st_param_block(b, pb2, child_args.words());
            let grid2 = b.reg();
            b.iadd(grid2, n_seqs, Operand::imm(63));
            b.alu(
                ggpu_isa::AluOp::IDiv,
                grid2,
                Operand::reg(grid2),
                Operand::imm(64),
            );
            b.launch(
                phase2,
                Operand::reg(grid2),
                Operand::imm(64),
                Operand::reg(pb2),
                DP_PARAM_WORDS,
            );
            b.dsync();
        });
        b.exit();
        let k = b.finish();
        k.validate().expect("orchestrator must validate");
        k
    }
}

impl Benchmark for StarBench {
    fn abbrev(&self) -> &'static str {
        "STAR"
    }

    fn name(&self) -> &'static str {
        "Center Star Algorithm"
    }

    fn table3(&self) -> Table3Row {
        Table3Row {
            name: self.name(),
            abbrev: self.abbrev(),
            input: "protein.txt [synthetic sequence family]".into(),
            grid: (12, 1, 1),
            cta: (256, 1, 1),
            shared_memory: false,
            constant_memory: true,
            ctas_per_core: 4,
        }
    }

    fn resources(&self) -> KernelResources {
        KernelResources::of(
            &build_dp_kernel("STAR-pairs", &self.phase1_cfg()),
            self.dims.threads_per_cta(),
        )
    }

    fn run(&self, config: &GpuConfig, cdp: bool) -> BenchResult {
        let n_pairs = self.pair_a.len();
        let mut program = Program::new();
        let phase1 = program.add(build_dp_kernel("STAR-pairs", &self.phase1_cfg()));
        let phase2 = program.add(build_dp_kernel("STAR-center", &self.phase2_cfg()));
        let orch = if cdp {
            Some(program.add(self.build_orchestrator(phase1.0, phase2.0)))
        } else {
            None
        };
        let mut gpu = Gpu::new(program, config.clone());
        gpu.bind_constants(phase1, scoring_const_data(&self.phase1_cfg()));
        gpu.bind_constants(phase2, scoring_const_data(&self.phase2_cfg()));

        let sl = self.seq_len as u64;
        let seqs = upload(&mut gpu, &self.seqs);
        let pq = upload(&mut gpu, &self.pair_q);
        let pt = upload(&mut gpu, &self.pair_t);
        let pscores = gpu.malloc(n_pairs as u64 * 8);
        let fscores = gpu.malloc(self.n_seqs as u64 * 8);
        let pa = upload_u32s(&mut gpu, &self.pair_a);
        let pb = upload_u32s(&mut gpu, &self.pair_b);
        let sums = gpu.malloc(self.n_seqs as u64 * 8);
        let center_out = gpu.malloc(8);
        let scratch = gpu.malloc((self.batches as u64 + 2) * DP_PARAM_WORDS as u64 * 8);

        let got = if let Some(orch) = orch {
            // CDP: one host launch does everything.
            let args = StarArgs {
                seqs: seqs.0,
                pair_q: pq.0,
                pair_t: pt.0,
                pair_scores: pscores.0,
                n_pairs: n_pairs as u64,
                pair_a: pa.0,
                pair_b: pb.0,
                sums: sums.0,
                final_scores: fscores.0,
                center_out: center_out.0,
                n_seqs: self.n_seqs as u64,
                seq_len: sl,
                scratch: scratch.0,
                per_batch: per_batch(n_pairs, self.batches) as u64,
            };
            gpu.launch(orch, LaunchDims::linear(1, 32), &args.words());
            gpu.synchronize();
            // Read in place, without a PCIe transfer.
            let peek = |ptr, n: usize| -> Vec<i64> {
                u64_words(&gpu.memory().read_slice(ptr, n * 8))
                    .map(|w| w as i64)
                    .collect()
            };
            StarOracle {
                pair_scores: peek(pscores, n_pairs),
                center: gpu.memory().read_u64(center_out) as usize,
                final_scores: peek(fscores, self.n_seqs),
            }
        } else {
            // Non-CDP: CMSA-style batched phase-1 launches, then a host
            // round-trip before phase 2.
            let stride = self.dims.total_threads();
            for batch in batch_ranges(n_pairs, self.batches) {
                let args = DpArgs {
                    q: pq.0,
                    t: pt.0,
                    out: pscores.0,
                    n_pairs: batch.end as u64,
                    pair_offset: batch.start as u64,
                    stride,
                    ..Default::default()
                };
                gpu.launch(phase1, self.dims, &args.words());
                gpu.synchronize();
            }
            let pair_scores = read_i64s(&mut gpu, pscores, n_pairs);
            let center = first_max_center(self.n_seqs, &self.pair_a, &self.pair_b, &pair_scores);
            let args = DpArgs {
                q: seqs.0,
                t: seqs.0 + center as u64 * sl,
                out: fscores.0,
                n_pairs: self.n_seqs as u64,
                stride,
                t_len: sl,
                ..Default::default()
            };
            gpu.launch(phase2, self.dims, &args.words());
            gpu.synchronize();
            StarOracle {
                pair_scores,
                center,
                final_scores: read_i64s(&mut gpu, fscores, self.n_seqs),
            }
        };

        BenchResult::collect(
            &mut gpu,
            got == self.expected,
            format!(
                "STAR: {} seqs x {} bases, {} pairs, center {}, cdp={}",
                self.n_seqs, self.seq_len, n_pairs, got.center, cdp
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GpuConfig {
        GpuConfig {
            n_sms: 8,
            ..GpuConfig::test_small()
        }
    }

    #[test]
    fn the_public_oracle_is_what_run_verifies_against() {
        let b = StarBench::new(Scale::Tiny);
        assert_eq!(b.cpu_oracle(), b.expected);
        for cdp in [false, true] {
            let r = b.run(&cfg(), cdp);
            assert!(r.verified, "{}", r.detail);
        }
    }

    #[test]
    fn star_validates_non_cdp() {
        let b = StarBench::new(Scale::Tiny);
        let r = b.run(&cfg(), false);
        assert!(r.verified, "{}", r.detail);
        // Four phase-1 batches + one phase-2 launch.
        assert_eq!(r.stats.host.kernel_launches, 5);
    }

    #[test]
    fn star_validates_cdp_with_single_host_launch() {
        let b = StarBench::new(Scale::Tiny);
        let r = b.run(&cfg(), true);
        assert!(r.verified, "{}", r.detail);
        assert_eq!(r.stats.host.kernel_launches, 1);
        assert_eq!(r.stats.sm.device_launches, 5, "all grids from device");
    }

    #[test]
    fn star_cdp_beats_non_cdp() {
        // Under realistic launch/PCIe overheads (the RTX 3070 baseline),
        // CDP saves the host round-trip between phases and must win
        // end-to-end — the paper's Figure 2 observation for STAR.
        let realistic = GpuConfig {
            n_sms: 8,
            n_partitions: 2,
            ..GpuConfig::rtx3070()
        };
        let b = StarBench::new(Scale::Tiny);
        let no = b.run(&realistic, false);
        let yes = b.run(&realistic, true);
        let no_total = no.stats.total_cycles();
        let yes_total = yes.stats.total_cycles();
        assert!(
            yes_total < no_total,
            "CDP {yes_total} should beat non-CDP {no_total}"
        );
    }
}
