//! CLUSTER — greedy incremental alignment-based sequence clustering
//! (nGIA-style).
//!
//! The greedy loop walks sequences longest-first; each unassigned sequence
//! becomes a representative and a scoring kernel aligns every remaining
//! candidate against it (shared-target DP with shared-memory rows, as
//! Table III's CLUSTER row uses shared memory). Candidates whose score
//! clears a per-sequence threshold join the cluster.
//!
//! * **Non-CDP**: the host runs the loop — one kernel launch plus a score
//!   read-back per round, with the candidate list shrinking every round
//!   (the source of CLUSTER's W1-4-dominated warp occupancy in Figure 10).
//! * **CDP**: a single-thread driver kernel runs the whole loop on-device,
//!   launching one child grid per round.

use ggpu_isa::{CmpOp, Kernel, KernelBuilder, LaunchDims, Operand, Program, Space, Width};
use ggpu_sim::{Gpu, GpuConfig};
use rand::{Rng, SeedableRng};

use ggpu_genomics::{nw_score, sequence_family, GapModel, Simple};

use crate::dp::{
    build_dp_kernel, scoring_const_data, st_param_block, DpArgs, DpKernelCfg, DpMode,
    DP_PARAM_WORDS,
};
use crate::host::{i64_bytes, read_i64s, read_u32s, u32_bytes, upload, upload_u32s};
use crate::pairwise::{GAP_EXTEND, GAP_OPEN, MATCH, MISMATCH};
use crate::{BenchResult, Benchmark, KernelResources, Scale, Table3Row};

arg_block! {
    /// Launch arguments of the on-device greedy driver (CDP variant).
    ClusterArgs / ClusterSlot {
        seqs: "All sequences, `max_len` stride.",
        lens: "u32 length per sequence.",
        order: "u32 longest-first processing order.",
        thresholds: "i64 score threshold per sequence.",
        rep_of: "u32 representative per sequence, initialised to `0xFFFF_FFFF`.",
        scores: "i64 score scratch, one per sequence.",
        n_seqs: "Number of sequences.",
        max_len: "Sequence stride.",
        scratch: "The child parameter block.",
        child_cta: "Child CTA size.",
    }
}

/// Identity threshold of the benchmark.
pub(crate) const IDENTITY: f64 = 0.82;

/// The CLUSTER benchmark instance.
#[derive(Debug, Clone)]
pub struct ClusterBench {
    n_seqs: usize,
    max_len: u32,
    seqs: Vec<u8>,
    lens: Vec<u32>,
    /// Longest-first processing order.
    order: Vec<u32>,
    /// Per-sequence score thresholds (precomputed from `IDENTITY`).
    thresholds: Vec<i64>,
    /// Expected representative per sequence.
    expected_rep: Vec<u32>,
    dims: LaunchDims,
}

impl ClusterBench {
    /// Build a CLUSTER instance at `scale`.
    pub fn new(scale: Scale) -> Self {
        let (n_families, family_size, max_len, dims) = match scale {
            Scale::Tiny => (3usize, 4usize, 20u32, LaunchDims::linear(1, 64)),
            Scale::Small => (6, 6, 28, LaunchDims::linear(2, 128)),
            Scale::Paper => (16, 8, 48, LaunchDims::linear(128, 128)),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        let n_seqs = n_families * family_size;
        let mut seqs = vec![0u8; n_seqs * max_len as usize];
        let mut lens = Vec::with_capacity(n_seqs);
        let mut i = 0usize;
        for _ in 0..n_families {
            let len = rng.gen_range(max_len - 6..=max_len);
            let family = sequence_family(family_size, len as usize, 0.04, 0.0, &mut rng);
            for s in family {
                let l = s.len().min(max_len as usize);
                seqs[i * max_len as usize..i * max_len as usize + l]
                    .copy_from_slice(&s.codes()[..l]);
                lens.push(l as u32);
                i += 1;
            }
        }

        // Longest-first stable order and score thresholds.
        let mut order: Vec<u32> = (0..n_seqs as u32).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(lens[i as usize]));
        let thresholds: Vec<i64> = lens
            .iter()
            .map(|&l| (IDENTITY * MATCH as f64 * l as f64) as i64)
            .collect();

        // CPU oracle: the same greedy loop with the same scoring kernel
        // semantics (full NW score of candidate vs representative).
        let subst = Simple::new(MATCH, MISMATCH);
        let gaps = GapModel::Affine {
            open: GAP_OPEN,
            extend: GAP_EXTEND,
        };
        let seq_of =
            |i: usize| &seqs[i * max_len as usize..i * max_len as usize + lens[i] as usize];
        let mut expected_rep = vec![u32::MAX; n_seqs];
        for &oi in &order {
            let oi = oi as usize;
            if expected_rep[oi] != u32::MAX {
                continue;
            }
            expected_rep[oi] = oi as u32;
            for &cj in &order {
                let cj = cj as usize;
                if expected_rep[cj] != u32::MAX {
                    continue;
                }
                let s = nw_score(seq_of(cj), seq_of(oi), &subst, gaps) as i64;
                if s >= thresholds[cj] {
                    expected_rep[cj] = oi as u32;
                }
            }
        }

        ClusterBench {
            n_seqs,
            max_len,
            seqs,
            lens,
            order,
            thresholds,
            expected_rep,
            dims,
        }
    }

    fn kernel_cfg(&self) -> DpKernelCfg {
        DpKernelCfg {
            rows_in_smem: true,
            shared_target: true,
            ..DpKernelCfg::new(DpMode::Global, self.max_len, self.dims.threads_per_cta())
        }
    }

    /// On-device greedy driver (CDP variant); arguments are
    /// [`ClusterArgs`].
    fn build_driver(&self, child: u32) -> Kernel {
        let mut b = KernelBuilder::new("CLUSTER-driver");
        let tid = b.global_tid();
        let is0 = b.cmp_s(CmpOp::Eq, Operand::reg(tid), Operand::imm(0));
        b.if_then(is0, |b| {
            let seqs = ClusterSlot::seqs.ld(b);
            let lens = ClusterSlot::lens.ld(b);
            let order = ClusterSlot::order.ld(b);
            let thr = ClusterSlot::thresholds.ld(b);
            let rep_of = ClusterSlot::rep_of.ld(b);
            let scores = ClusterSlot::scores.ld(b);
            let n_seqs = ClusterSlot::n_seqs.ld(b);
            let max_len = ClusterSlot::max_len.ld(b);
            let scratch = ClusterSlot::scratch.ld(b);
            let child_cta = ClusterSlot::child_cta.ld(b);

            const UNASSIGNED: i64 = 0xFFFF_FFFF;
            b.for_range(Operand::imm(0), Operand::reg(n_seqs), 1, |b, oi| {
                // idx = order[oi]
                let oa = b.reg();
                b.imul(oa, oi, Operand::imm(4));
                b.iadd(oa, oa, Operand::reg(order));
                let idx = b.reg();
                b.ld(Space::Global, Width::B32, idx, oa, 0);
                // skip when already assigned
                let ra = b.reg();
                b.imul(ra, idx, Operand::imm(4));
                b.iadd(ra, ra, Operand::reg(rep_of));
                let cur = b.reg();
                b.ld(Space::Global, Width::B32, cur, ra, 0);
                let free = b.cmp_s(CmpOp::Eq, Operand::reg(cur), Operand::imm(UNASSIGNED));
                b.if_then(free, |b| {
                    // claim as representative
                    b.st(Space::Global, Width::B32, Operand::reg(idx), ra, 0);
                    // child params: score every sequence against seq[idx]
                    let tgt = b.reg();
                    b.imul(tgt, idx, Operand::reg(max_len));
                    b.iadd(tgt, tgt, Operand::reg(seqs));
                    let tl_addr = b.reg();
                    b.imul(tl_addr, idx, Operand::imm(4));
                    b.iadd(tl_addr, tl_addr, Operand::reg(lens));
                    let tlen = b.reg();
                    b.ld(Space::Global, Width::B32, tlen, tl_addr, 0);
                    let child_args = DpArgs {
                        q: Operand::reg(seqs),
                        t: Operand::reg(tgt),
                        out: Operand::reg(scores),
                        n_pairs: Operand::reg(n_seqs),
                        pair_offset: Operand::imm(0),
                        stride: Operand::reg(n_seqs),
                        lens: Operand::reg(lens),
                        t_len: Operand::reg(tlen),
                        idx: Operand::imm(0),
                    };
                    st_param_block(b, scratch, child_args.words());
                    let grid = b.reg();
                    b.iadd(grid, n_seqs, Operand::reg(child_cta));
                    b.isub(grid, Operand::reg(grid), Operand::imm(1));
                    b.alu(
                        ggpu_isa::AluOp::IDiv,
                        grid,
                        Operand::reg(grid),
                        Operand::reg(child_cta),
                    );
                    b.launch(
                        child,
                        Operand::reg(grid),
                        Operand::reg(child_cta),
                        Operand::reg(scratch),
                        DP_PARAM_WORDS,
                    );
                    b.dsync();
                    // assign unassigned candidates clearing their threshold
                    b.for_range(Operand::imm(0), Operand::reg(n_seqs), 1, |b, j| {
                        let rj = b.reg();
                        b.imul(rj, j, Operand::imm(4));
                        b.iadd(rj, rj, Operand::reg(rep_of));
                        let cr = b.reg();
                        b.ld(Space::Global, Width::B32, cr, rj, 0);
                        let unass = b.cmp_s(CmpOp::Eq, Operand::reg(cr), Operand::imm(UNASSIGNED));
                        b.if_then(unass, |b| {
                            let sa = b.reg();
                            b.imul(sa, j, Operand::imm(8));
                            b.iadd(sa, sa, Operand::reg(scores));
                            let s = b.reg();
                            b.ld(Space::Global, Width::B64, s, sa, 0);
                            let ta = b.reg();
                            b.imul(ta, j, Operand::imm(8));
                            b.iadd(ta, ta, Operand::reg(thr));
                            let t = b.reg();
                            b.ld(Space::Global, Width::B64, t, ta, 0);
                            let ok = b.cmp_s(CmpOp::Ge, Operand::reg(s), Operand::reg(t));
                            b.if_then(ok, |b| {
                                b.st(Space::Global, Width::B32, Operand::reg(idx), rj, 0);
                            });
                        });
                    });
                });
            });
        });
        b.exit();
        let k = b.finish();
        k.validate().expect("cluster driver must validate");
        k
    }
}

impl Benchmark for ClusterBench {
    fn abbrev(&self) -> &'static str {
        "CLUSTER"
    }

    fn name(&self) -> &'static str {
        "Greedy Incremental Alignment-based"
    }

    fn table3(&self) -> Table3Row {
        Table3Row {
            name: self.name(),
            abbrev: self.abbrev(),
            input: "testData.fasta [synthetic sequence families]".into(),
            grid: (128, 1, 1),
            cta: (128, 1, 1),
            shared_memory: true,
            constant_memory: true,
            ctas_per_core: 12,
        }
    }

    fn resources(&self) -> KernelResources {
        KernelResources::of(
            &build_dp_kernel("CLUSTER-score", &self.kernel_cfg()),
            self.dims.threads_per_cta(),
        )
    }

    fn run(&self, config: &GpuConfig, cdp: bool) -> BenchResult {
        let cfg = self.kernel_cfg();
        let mut program = Program::new();
        let child = program.add(build_dp_kernel("CLUSTER-score", &cfg));
        let driver = if cdp {
            Some(program.add(self.build_driver(child.0)))
        } else {
            None
        };
        let mut gpu = Gpu::new(program, config.clone());
        gpu.bind_constants(child, scoring_const_data(&cfg));

        let n = self.n_seqs;
        let seqs = upload(&mut gpu, &self.seqs);
        let lens = upload_u32s(&mut gpu, &self.lens);
        let order = gpu.malloc(n as u64 * 4);
        let thr = gpu.malloc(n as u64 * 8);
        let rep_of = upload(&mut gpu, &vec![0xFF; n * 4]);
        let scores = gpu.malloc(n as u64 * 8);
        let scratch = gpu.malloc(DP_PARAM_WORDS as u64 * 8);

        let got_rep: Vec<u32> = if let Some(driver) = driver {
            gpu.memcpy_h2d(order, &u32_bytes(&self.order));
            gpu.memcpy_h2d(thr, &i64_bytes(&self.thresholds));
            let args = ClusterArgs {
                seqs: seqs.0,
                lens: lens.0,
                order: order.0,
                thresholds: thr.0,
                rep_of: rep_of.0,
                scores: scores.0,
                n_seqs: n as u64,
                max_len: self.max_len as u64,
                scratch: scratch.0,
                child_cta: 64,
            };
            gpu.launch(driver, LaunchDims::linear(1, 32), &args.words());
            gpu.synchronize();
            read_u32s(&mut gpu, rep_of, n)
        } else {
            // Host-driven greedy loop: one kernel + read-back per round.
            let mut rep = vec![u32::MAX; n];
            for &oi in &self.order {
                let oi = oi as usize;
                if rep[oi] != u32::MAX {
                    continue;
                }
                rep[oi] = oi as u32;
                // Candidate list: unassigned sequences, in order.
                let cands: Vec<u32> = self
                    .order
                    .iter()
                    .copied()
                    .filter(|&j| rep[j as usize] == u32::MAX)
                    .collect();
                if cands.is_empty() {
                    break;
                }
                let idx = upload_u32s(&mut gpu, &cands);
                let args = DpArgs {
                    q: seqs.0,
                    t: seqs.0 + oi as u64 * self.max_len as u64,
                    out: scores.0,
                    n_pairs: cands.len() as u64,
                    pair_offset: 0,
                    stride: self.dims.total_threads(),
                    lens: lens.0,
                    t_len: self.lens[oi] as u64,
                    idx: idx.0,
                };
                gpu.launch(child, self.dims, &args.words());
                gpu.synchronize();
                let round = read_i64s(&mut gpu, scores, cands.len());
                for (&j, s) in cands.iter().zip(round) {
                    if s >= self.thresholds[j as usize] {
                        rep[j as usize] = oi as u32;
                    }
                }
            }
            rep
        };

        let verified = got_rep == self.expected_rep;
        BenchResult::collect(
            &mut gpu,
            verified,
            format!(
                "CLUSTER: {} seqs, {} clusters, cdp={}",
                n,
                self.expected_rep
                    .iter()
                    .enumerate()
                    .filter(|(i, &r)| r == *i as u32)
                    .count(),
                cdp
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
    fn cluster_oracle_groups_families() {
        let b = ClusterBench::new(Scale::Tiny);
        let n_clusters = b
            .expected_rep
            .iter()
            .enumerate()
            .filter(|(i, &r)| r == *i as u32)
            .count();
        // Families were generated at 4% divergence against an 82% identity
        // threshold: expect roughly one cluster per family.
        assert!(
            (2..=6).contains(&n_clusters),
            "got {n_clusters} clusters for 3 families"
        );
    }

    #[test]
    fn cluster_validates_non_cdp() {
        let b = ClusterBench::new(Scale::Tiny);
        let r = b.run(&cfg(), false);
        assert!(r.verified, "{}", r.detail);
        // One launch per round.
        assert!(r.stats.host.kernel_launches >= 2);
    }

    #[test]
    fn cluster_validates_cdp() {
        let b = ClusterBench::new(Scale::Tiny);
        let r = b.run(&cfg(), true);
        assert!(r.verified, "{}", r.detail);
        assert_eq!(r.stats.host.kernel_launches, 1);
        assert!(r.stats.sm.device_launches >= 2);
    }

    #[test]
    fn cluster_uses_shared_memory_rows() {
        let b = ClusterBench::new(Scale::Tiny);
        let r = b.run(&cfg(), false);
        assert!(r.stats.sm.space_count(ggpu_isa::Space::Shared) > 0);
    }
}
