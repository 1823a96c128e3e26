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

use crate::dp::{build_dp_kernel, scoring_const_data, DpKernelCfg, DpMode, DP_PARAM_WORDS};
use crate::pairwise::{GAP_EXTEND, GAP_OPEN, MATCH, MISMATCH};
use crate::{BenchResult, Benchmark, Scale, Table3Row};

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
    expected_center: usize,
    expected_pair_scores: Vec<i64>,
    expected_final_scores: Vec<i64>,
    dims: LaunchDims,
    /// Phase-1 host launches (the original CMSA issues many small grids).
    batches: usize,
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

        // CPU oracle (BLOSUM62 over residue indices, like the kernel).
        let subst = IndexedMatrix::blosum62();
        let gaps = GapModel::Affine {
            open: GAP_OPEN,
            extend: GAP_EXTEND,
        };
        let seq_of = |i: usize| &seqs[i * seq_len as usize..(i + 1) * seq_len as usize];
        let expected_pair_scores: Vec<i64> = (0..n_pairs)
            .map(|p| {
                nw_score(
                    seq_of(pair_a[p] as usize),
                    seq_of(pair_b[p] as usize),
                    &subst,
                    gaps,
                ) as i64
            })
            .collect();
        let mut sums = vec![0i64; n_seqs];
        for p in 0..n_pairs {
            sums[pair_a[p] as usize] += expected_pair_scores[p];
            sums[pair_b[p] as usize] += expected_pair_scores[p];
        }
        // First maximum (strictly-greater argmax), matching the device
        // reduction.
        let mut expected_center = 0usize;
        for (i, &s) in sums.iter().enumerate() {
            if s > sums[expected_center] {
                expected_center = i;
            }
        }
        let expected_final_scores: Vec<i64> = (0..n_seqs)
            .map(|i| nw_score(seq_of(i), seq_of(expected_center), &subst, gaps) as i64)
            .collect();

        StarBench {
            n_seqs,
            seq_len,
            seqs,
            pair_a,
            pair_b,
            pair_q,
            pair_t,
            expected_center,
            expected_pair_scores,
            expected_final_scores,
            dims,
            batches,
        }
    }

    fn phase1_cfg(&self) -> DpKernelCfg {
        DpKernelCfg {
            mode: DpMode::Global,
            max_len: self.seq_len,
            rows_in_smem: false,
            threads_per_cta: self.dims.threads_per_cta(),
            matches: MATCH,
            mismatch: MISMATCH,
            open: GAP_OPEN,
            extend: GAP_EXTEND,
            shared_target: false,
            subst_matrix: Some(blosum62_index_matrix()),
        }
    }

    fn phase2_cfg(&self) -> DpKernelCfg {
        DpKernelCfg {
            shared_target: true,
            ..self.phase1_cfg()
        }
    }

    /// Build the on-device orchestrator kernel (CDP variant).
    ///
    /// ABI (u64 words): 0 `seqs`, 1 `pair_q`, 2 `pair_t`, 3 `pair_scores`,
    /// 4 `n_pairs`, 5 `pair_a`, 6 `pair_b`, 7 `sums` (zeroed i64 per seq),
    /// 8 `final_scores`, 9 `center_out`, 10 `n_seqs`, 11 `seq_len`,
    /// 12 `scratch` (one child parameter block per phase-1 batch plus one
    /// for phase 2), 13 `per_batch` (phase-1 pairs per child grid).
    fn build_orchestrator(&self, phase1: u32, phase2: u32) -> Kernel {
        let mut b = KernelBuilder::new("STAR-orchestrator");
        let tid = b.global_tid();
        let is0 = b.cmp_s(CmpOp::Eq, Operand::reg(tid), Operand::imm(0));
        b.if_then(is0, |b| {
            let seqs = b.reg();
            b.ld_param(seqs, 0);
            let pair_q = b.reg();
            b.ld_param(pair_q, 1);
            let pair_t = b.reg();
            b.ld_param(pair_t, 2);
            let pscores = b.reg();
            b.ld_param(pscores, 3);
            let n_pairs = b.reg();
            b.ld_param(n_pairs, 4);
            let pair_a = b.reg();
            b.ld_param(pair_a, 5);
            let pair_b = b.reg();
            b.ld_param(pair_b, 6);
            let sums = b.reg();
            b.ld_param(sums, 7);
            let fscores = b.reg();
            b.ld_param(fscores, 8);
            let center_out = b.reg();
            b.ld_param(center_out, 9);
            let n_seqs = b.reg();
            b.ld_param(n_seqs, 10);
            let seq_len = b.reg();
            b.ld_param(seq_len, 11);
            let scratch = b.reg();
            b.ld_param(scratch, 12);
            let per_batch = b.reg();
            b.ld_param(per_batch, 13);

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
                    b.st(Space::Global, Width::B64, Operand::reg(pair_q), pb1, 0);
                    b.st(Space::Global, Width::B64, Operand::reg(pair_t), pb1, 8);
                    b.st(Space::Global, Width::B64, Operand::reg(pscores), pb1, 16);
                    b.st(Space::Global, Width::B64, Operand::reg(limit), pb1, 24);
                    b.st(Space::Global, Width::B64, Operand::reg(start), pb1, 32);
                    b.st(Space::Global, Width::B64, Operand::reg(n_pairs), pb1, 40);
                    b.st(Space::Global, Width::B64, Operand::imm(0), pb1, 48);
                    b.st(Space::Global, Width::B64, Operand::imm(0), pb1, 56);
                    b.st(Space::Global, Width::B64, Operand::imm(0), pb1, 64);
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
            b.st(Space::Global, Width::B64, Operand::reg(seqs), pb2, 0);
            b.st(Space::Global, Width::B64, Operand::reg(center_ptr), pb2, 8);
            b.st(Space::Global, Width::B64, Operand::reg(fscores), pb2, 16);
            b.st(Space::Global, Width::B64, Operand::reg(n_seqs), pb2, 24);
            b.st(Space::Global, Width::B64, Operand::imm(0), pb2, 32);
            b.st(Space::Global, Width::B64, Operand::reg(n_seqs), pb2, 40);
            b.st(Space::Global, Width::B64, Operand::imm(0), pb2, 48);
            b.st(Space::Global, Width::B64, Operand::reg(seq_len), pb2, 56);
            b.st(Space::Global, Width::B64, Operand::imm(0), pb2, 64);
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

    fn resources(&self) -> crate::KernelResources {
        let k = build_dp_kernel("STAR-pairs", &self.phase1_cfg());
        crate::KernelResources {
            regs_per_thread: k.regs_per_thread,
            smem_per_cta: k.smem_per_cta,
            cmem_bytes: k.cmem_bytes,
            threads_per_cta: self.dims.threads_per_cta(),
        }
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
        let seqs = gpu.malloc(self.seqs.len() as u64);
        let pq = gpu.malloc(self.pair_q.len() as u64);
        let pt = gpu.malloc(self.pair_t.len() as u64);
        let pscores = gpu.malloc(n_pairs as u64 * 8);
        let fscores = gpu.malloc(self.n_seqs as u64 * 8);
        let pa = gpu.malloc(n_pairs as u64 * 4);
        let pb = gpu.malloc(n_pairs as u64 * 4);
        let sums = gpu.malloc(self.n_seqs as u64 * 8);
        let center_out = gpu.malloc(8);
        let per_batch = n_pairs.div_ceil(self.batches).max(1);
        let scratch = gpu.malloc((self.batches as u64 + 2) * DP_PARAM_WORDS as u64 * 8);

        gpu.memcpy_h2d(seqs, &self.seqs);
        gpu.memcpy_h2d(pq, &self.pair_q);
        gpu.memcpy_h2d(pt, &self.pair_t);
        let a_bytes: Vec<u8> = self.pair_a.iter().flat_map(|v| v.to_le_bytes()).collect();
        let b_bytes: Vec<u8> = self.pair_b.iter().flat_map(|v| v.to_le_bytes()).collect();
        gpu.memcpy_h2d(pa, &a_bytes);
        gpu.memcpy_h2d(pb, &b_bytes);

        let (center, final_scores, pair_scores) = if let Some(orch) = orch {
            // CDP: one host launch does everything.
            gpu.launch(
                orch,
                LaunchDims::linear(1, 32),
                &[
                    seqs.0,
                    pq.0,
                    pt.0,
                    pscores.0,
                    n_pairs as u64,
                    pa.0,
                    pb.0,
                    sums.0,
                    fscores.0,
                    center_out.0,
                    self.n_seqs as u64,
                    sl,
                    scratch.0,
                    per_batch as u64,
                ],
            );
            gpu.synchronize();
            let center = gpu.memory().read_u64(center_out) as usize;
            let f = read_i64s(&mut gpu, fscores.0, self.n_seqs);
            let p = read_i64s(&mut gpu, pscores.0, n_pairs);
            (center, f, p)
        } else {
            // Non-CDP: CMSA-style batched phase-1 launches, then a host
            // round-trip before phase 2.
            let stride = self.dims.total_threads();
            let mut start = 0usize;
            while start < n_pairs {
                let end = (start + per_batch).min(n_pairs);
                gpu.launch(
                    phase1,
                    self.dims,
                    &[
                        pq.0,
                        pt.0,
                        pscores.0,
                        end as u64,
                        start as u64,
                        stride,
                        0,
                        0,
                        0,
                    ],
                );
                gpu.synchronize();
                start = end;
            }
            let raw = gpu.memcpy_d2h(pscores, n_pairs * 8);
            let pair_scores: Vec<i64> = raw
                .chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().expect("8B")))
                .collect();
            let mut sums_host = vec![0i64; self.n_seqs];
            for p in 0..n_pairs {
                sums_host[self.pair_a[p] as usize] += pair_scores[p];
                sums_host[self.pair_b[p] as usize] += pair_scores[p];
            }
            let mut center = 0usize;
            for (i, &s) in sums_host.iter().enumerate() {
                if s > sums_host[center] {
                    center = i;
                }
            }
            gpu.launch(
                phase2,
                self.dims,
                &[
                    seqs.0,
                    seqs.0 + center as u64 * sl,
                    fscores.0,
                    self.n_seqs as u64,
                    0,
                    stride,
                    0,
                    sl,
                    0,
                ],
            );
            gpu.synchronize();
            let raw = gpu.memcpy_d2h(fscores, self.n_seqs * 8);
            let f: Vec<i64> = raw
                .chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().expect("8B")))
                .collect();
            (center, f, pair_scores)
        };

        let verified = center == self.expected_center
            && final_scores == self.expected_final_scores
            && pair_scores == self.expected_pair_scores;
        BenchResult::collect(
            &mut gpu,
            verified,
            format!(
                "STAR: {} seqs x {} bases, {} pairs, center {}, cdp={}",
                self.n_seqs, self.seq_len, n_pairs, center, cdp
            ),
        )
    }
}

fn read_i64s(gpu: &mut Gpu, addr: u64, n: usize) -> Vec<i64> {
    let raw = gpu.memory().read_slice(ggpu_sim::DevicePtr(addr), n * 8);
    raw.chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().expect("8B")))
        .collect()
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
