//! PairHMM — the Pair-HMM forward algorithm on the GPU.
//!
//! One (read, haplotype) pair per thread, double-precision state rows in
//! shared memory (or local memory for the Figure 7 no-shared-memory
//! variant), and a Phred→error-probability lookup table in constant
//! memory. The recurrence matches `ggpu_genomics::PairHmm::forward`
//! operation-for-operation so results validate against the CPU oracle to
//! floating-point tolerance.
//!
//! Launch arguments are [`PairHmmArgs`].

use ggpu_isa::{
    AluOp, CmpOp, Kernel, KernelBuilder, LaunchDims, Operand, Program, Reg, Space, SpecialReg,
    Width,
};
use ggpu_sim::{Gpu, GpuConfig};
use rand::{Rng, SeedableRng};

use ggpu_genomics::{phred_to_error, random_genome, PairHmm};

use crate::dp::build_dp_parent;
use crate::host::{batch_ranges, launch_dp_parent, read_u64s, upload};
use crate::{BenchResult, Benchmark, KernelResources, Scale, Table3Row};

arg_block! {
    /// Launch arguments of a [`build_pairhmm_kernel`] kernel. `n_pairs`,
    /// `pair_offset` and `stride` sit in the slots [`crate::dp::DpArgs`]
    /// gives them, so the shared CDP parent drives this kernel too.
    PairHmmArgs / PairHmmSlot {
        reads: "Reads, `read_len` bytes per pair.",
        haps: "Haplotypes, `hap_len` bytes per pair.",
        out: "f64 bits of the total likelihood per pair ([`log_likelihood`]).",
        n_pairs: "Pairs strictly below this index are processed.",
        pair_offset: "First pair this grid handles (CDP children).",
        stride: "Pair increment per loop iteration.",
        quals: "Phred qualities, `read_len` bytes per pair.",
        scratch: "Global row arena ([`RowStorage::GlobalScratch`]; unused otherwise).",
        unused: "Never read: pads the block to the nine words the CDP parent copies.",
    }
}

/// The log10 likelihood a result word encodes.
pub fn log_likelihood(word: u64) -> f64 {
    let total = f64::from_bits(word);
    if total > 0.0 {
        total.log10()
    } else {
        f64::NEG_INFINITY
    }
}

/// Gap-open probability (matches the CPU default).
pub const GAP_OPEN_P: f64 = 1e-3;
/// Gap-extension probability.
pub const GAP_EXT_P: f64 = 0.1;

/// Constant-memory image: 64 f64 error probabilities indexed by Phred
/// quality.
pub fn phred_const_data() -> Vec<u8> {
    (0..64u8)
        .flat_map(|q| phred_to_error(q).to_bits().to_le_bytes())
        .collect()
}

/// Where the DP state rows live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowStorage {
    /// On-chip shared memory, sliced per thread (the tuned kernel).
    Shared,
    /// Per-pair arenas in global memory — the naive "ported from CPU
    /// without shared memory" layout whose cost Figure 7 quantifies.
    GlobalScratch,
}

/// Compile-time kernel configuration.
#[derive(Debug, Clone, Copy)]
pub struct PairHmmKernelCfg {
    /// Read length (uniform).
    pub read_len: u32,
    /// Haplotype length (uniform).
    pub hap_len: u32,
    /// Row storage.
    pub rows: RowStorage,
    /// Threads per CTA (for shared-memory slicing).
    pub threads_per_cta: u32,
}

impl PairHmmKernelCfg {
    /// Bytes of row storage per thread: six rows (prev+cur × M/X/Y) of
    /// `(hap_len+1)` f64s.
    pub(crate) fn row_bytes(&self) -> u32 {
        6 * (self.hap_len + 1) * 8
    }
}

/// Emit the PairHMM forward kernel.
pub fn build_pairhmm_kernel(name: &str, cfg: &PairHmmKernelCfg) -> Kernel {
    let mut b = KernelBuilder::new(name);
    let row_bytes = cfg.row_bytes();
    let (row_space, base_off) = match cfg.rows {
        RowStorage::Shared => {
            let base = b.alloc_smem(row_bytes * cfg.threads_per_cta);
            (Space::Shared, base as i64)
        }
        RowStorage::GlobalScratch => (Space::Global, 0i64),
    };
    b.set_cmem_bytes(64 * 8);
    let stripe = (cfg.hap_len as i64 + 1) * 8; // one row
                                               // Layout: [m0 x0 y0 m1 x1 y1], prev/cur toggled by a 3-row offset.
    let half = 3 * stripe;

    let reads = PairHmmSlot::reads.ld(&mut b);
    let haps = PairHmmSlot::haps.ld(&mut b);
    let out = PairHmmSlot::out.ld(&mut b);
    let n_pairs = PairHmmSlot::n_pairs.ld(&mut b);
    let pair_off = PairHmmSlot::pair_offset.ld(&mut b);
    let stride = PairHmmSlot::stride.ld(&mut b);
    let quals = PairHmmSlot::quals.ld(&mut b);
    let scratch = PairHmmSlot::scratch.ld(&mut b);

    let tid = b.global_tid();
    let pair = b.reg();
    b.iadd(pair, tid, Operand::reg(pair_off));

    let row_base = b.reg();
    match cfg.rows {
        RowStorage::Shared => {
            let tic = b.reg();
            b.sreg(tic, SpecialReg::TidX);
            b.imul(row_base, tic, Operand::imm(row_bytes as i64));
            b.iadd(row_base, row_base, Operand::imm(base_off));
        }
        RowStorage::GlobalScratch => {
            // Recomputed per pair inside the loop.
            b.mov(row_base, Operand::reg(scratch));
        }
    }

    // Transition constants.
    let t_mm = Operand::f64imm(1.0 - 2.0 * GAP_OPEN_P);
    let t_mx = Operand::f64imm(GAP_OPEN_P);
    let t_my = Operand::f64imm(GAP_OPEN_P);
    let t_xx = Operand::f64imm(GAP_EXT_P);
    let t_xm = Operand::f64imm(1.0 - GAP_EXT_P);
    let t_yy = Operand::f64imm(GAP_EXT_P);
    let t_ym = Operand::f64imm(1.0 - GAP_EXT_P);
    let hap_len = cfg.hap_len as i64;
    let read_len = cfg.read_len as i64;
    let init_y = Operand::f64imm(1.0 / cfg.hap_len as f64);

    b.while_loop(
        |b| b.cmp_s(CmpOp::Lt, Operand::reg(pair), Operand::reg(n_pairs)),
        |b| {
            if cfg.rows == RowStorage::GlobalScratch {
                // Per-pair arena in the global scratch buffer.
                b.imul(row_base, pair, Operand::imm(row_bytes as i64));
                b.iadd(row_base, row_base, Operand::reg(scratch));
            }
            let rp = b.reg();
            b.imul(rp, pair, Operand::imm(read_len));
            b.iadd(rp, rp, Operand::reg(reads));
            let qp = b.reg();
            b.imul(qp, pair, Operand::imm(read_len));
            b.iadd(qp, qp, Operand::reg(quals));
            let hp = b.reg();
            b.imul(hp, pair, Operand::imm(hap_len));
            b.iadd(hp, hp, Operand::reg(haps));

            // prev = row_base, cur = row_base + half (toggle each i).
            let prev = b.reg();
            b.mov(prev, Operand::reg(row_base));
            let cur = b.reg();
            b.iadd(cur, row_base, Operand::imm(half));

            // init prev rows: m = x = 0, y = 1/hap_len.
            let addr = b.reg();
            b.for_range(Operand::imm(0), Operand::imm(hap_len + 1), 1, |b, j| {
                b.imul(addr, j, Operand::imm(8));
                b.iadd(addr, addr, Operand::reg(prev));
                b.st(row_space, Width::B64, Operand::f64imm(0.0), addr, 0);
                b.st(row_space, Width::B64, Operand::f64imm(0.0), addr, stripe);
                b.st(row_space, Width::B64, init_y, addr, 2 * stripe);
            });

            b.for_range(Operand::imm(1), Operand::imm(read_len + 1), 1, |b, i| {
                // err = const_table[qual[i-1]]
                let qa = b.reg();
                b.iadd(qa, qp, Operand::reg(i));
                let q = b.reg();
                b.ld(Space::Global, Width::B8, q, qa, -1);
                let ca = b.reg();
                b.imul(ca, q, Operand::imm(8));
                let err = b.reg();
                b.ld(Space::Const, Width::B64, err, ca, 0);
                let one_m_err = b.reg();
                b.alu(
                    AluOp::DSub,
                    one_m_err,
                    Operand::f64imm(1.0),
                    Operand::reg(err),
                );
                let err_3 = b.reg();
                b.alu(AluOp::DDiv, err_3, Operand::reg(err), Operand::f64imm(3.0));
                let rc = b.reg();
                let ra = b.reg();
                b.iadd(ra, rp, Operand::reg(i));
                b.ld(Space::Global, Width::B8, rc, ra, -1);

                // cur[0] = 0 for m, x, y.
                b.st(row_space, Width::B64, Operand::f64imm(0.0), cur, 0);
                b.st(row_space, Width::B64, Operand::f64imm(0.0), cur, stripe);
                b.st(row_space, Width::B64, Operand::f64imm(0.0), cur, 2 * stripe);

                b.for_range(Operand::imm(1), Operand::imm(hap_len + 1), 1, |b, j| {
                    let pj = b.reg(); // prev + j*8
                    b.imul(pj, j, Operand::imm(8));
                    b.iadd(pj, pj, Operand::reg(prev));
                    let cj = b.reg(); // cur + j*8
                    b.imul(cj, j, Operand::imm(8));
                    b.iadd(cj, cj, Operand::reg(cur));

                    // prior
                    let ha = b.reg();
                    b.iadd(ha, hp, Operand::reg(j));
                    let hc = b.reg();
                    b.ld(Space::Global, Width::B8, hc, ha, -1);
                    let eq = b.reg();
                    b.setp(
                        eq,
                        CmpOp::Eq,
                        ggpu_isa::ScalarType::S64,
                        Operand::reg(rc),
                        Operand::reg(hc),
                    );
                    let prior = b.reg();
                    b.sel(prior, eq, Operand::reg(one_m_err), Operand::reg(err_3));

                    // m = prior * (tMM*m_prev[j-1] + tXM*x_prev[j-1] + tYM*y_prev[j-1])
                    let load = |b: &mut KernelBuilder, basereg: Reg, off: i64| -> Reg {
                        let v = b.reg();
                        b.ld(row_space, Width::B64, v, basereg, off);
                        v
                    };
                    let mp = load(b, pj, -8);
                    let xp = load(b, pj, stripe - 8);
                    let yp = load(b, pj, 2 * stripe - 8);
                    let acc = b.reg();
                    b.alu(AluOp::DMul, acc, Operand::reg(mp), t_mm);
                    let t = b.reg();
                    b.alu(AluOp::DMul, t, Operand::reg(xp), t_xm);
                    b.alu(AluOp::DAdd, acc, Operand::reg(acc), Operand::reg(t));
                    b.alu(AluOp::DMul, t, Operand::reg(yp), t_ym);
                    b.alu(AluOp::DAdd, acc, Operand::reg(acc), Operand::reg(t));
                    let m = b.reg();
                    b.alu(AluOp::DMul, m, Operand::reg(prior), Operand::reg(acc));
                    b.st(row_space, Width::B64, Operand::reg(m), cj, 0);

                    // x = tMX*m_prev[j] + tXX*x_prev[j]
                    let mpj = load(b, pj, 0);
                    let xpj = load(b, pj, stripe);
                    let x = b.reg();
                    b.alu(AluOp::DMul, x, Operand::reg(mpj), t_mx);
                    b.alu(AluOp::DMul, t, Operand::reg(xpj), t_xx);
                    b.alu(AluOp::DAdd, x, Operand::reg(x), Operand::reg(t));
                    b.st(row_space, Width::B64, Operand::reg(x), cj, stripe);

                    // y = tMY*m_cur[j-1] + tYY*y_cur[j-1]
                    let mc = load(b, cj, -8);
                    let yc = load(b, cj, 2 * stripe - 8);
                    let y = b.reg();
                    b.alu(AluOp::DMul, y, Operand::reg(mc), t_my);
                    b.alu(AluOp::DMul, t, Operand::reg(yc), t_yy);
                    b.alu(AluOp::DAdd, y, Operand::reg(y), Operand::reg(t));
                    b.st(row_space, Width::B64, Operand::reg(y), cj, 2 * stripe);
                });

                // toggle prev/cur
                let tmp = b.reg();
                b.mov(tmp, Operand::reg(prev));
                b.mov(prev, Operand::reg(cur));
                b.mov(cur, Operand::reg(tmp));
            });

            // total = sum_j (m_prev[j] + x_prev[j]), j in 1..=hap_len
            let total = b.reg();
            b.mov(total, Operand::f64imm(0.0));
            b.for_range(Operand::imm(1), Operand::imm(hap_len + 1), 1, |b, j| {
                let pj = b.reg();
                b.imul(pj, j, Operand::imm(8));
                b.iadd(pj, pj, Operand::reg(prev));
                let m = b.reg();
                b.ld(row_space, Width::B64, m, pj, 0);
                let x = b.reg();
                b.ld(row_space, Width::B64, x, pj, stripe);
                b.alu(AluOp::DAdd, total, Operand::reg(total), Operand::reg(m));
                b.alu(AluOp::DAdd, total, Operand::reg(total), Operand::reg(x));
            });
            let oa = b.reg();
            b.imul(oa, pair, Operand::imm(8));
            b.iadd(oa, oa, Operand::reg(out));
            b.st(Space::Global, Width::B64, Operand::reg(total), oa, 0);

            b.iadd(pair, pair, Operand::reg(stride));
        },
    );
    b.exit();
    let mut k = b.finish();
    k.regs_per_thread = k.regs_per_thread.max(56);
    k.validate().expect("pairhmm kernel must validate");
    k
}

/// The PairHMM benchmark instance.
#[derive(Debug, Clone)]
pub struct PairHmmBench {
    read_len: u32,
    hap_len: u32,
    n_pairs: usize,
    rows: RowStorage,
    reads: Vec<u8>,
    quals: Vec<u8>,
    haps: Vec<u8>,
    /// CPU log10 likelihood per pair.
    expected: Vec<f64>,
    dims: LaunchDims,
    batches: usize,
}

impl PairHmmBench {
    /// Build a PairHMM instance; `smem` selects shared-memory rows
    /// (Figure 7 compares both layouts).
    pub fn new(scale: Scale, smem: bool) -> Self {
        let (n_pairs, read_len, hap_len, dims, batches) = match scale {
            Scale::Tiny => (128usize, 10u32, 14u32, LaunchDims::linear(2, 32), 2usize),
            Scale::Small => (1024, 16, 20, LaunchDims::linear(4, 64), 4),
            Scale::Paper => (19200, 128, 128, LaunchDims::linear(150, 128), 8),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(31415);
        let mut reads = vec![0u8; n_pairs * read_len as usize];
        let mut quals = vec![0u8; n_pairs * read_len as usize];
        let mut haps = vec![0u8; n_pairs * hap_len as usize];
        for p in 0..n_pairs {
            let hap = random_genome(hap_len as usize, &mut rng);
            haps[p * hap_len as usize..(p + 1) * hap_len as usize].copy_from_slice(hap.codes());
            // Read drawn from the haplotype with occasional errors.
            let start = rng.gen_range(0..=(hap_len - read_len) as usize);
            for i in 0..read_len as usize {
                let mut base = hap.codes()[start + i];
                let q: u8 = rng.gen_range(15..45);
                if rng.gen_bool(0.03) {
                    base = (base + rng.gen_range(1..4u8)) % 4;
                }
                reads[p * read_len as usize + i] = base;
                quals[p * read_len as usize + i] = q;
            }
        }
        let hmm = PairHmm {
            gap_open: GAP_OPEN_P,
            gap_ext: GAP_EXT_P,
        };
        let expected: Vec<f64> = (0..n_pairs)
            .map(|p| {
                hmm.forward(
                    &reads[p * read_len as usize..(p + 1) * read_len as usize],
                    &quals[p * read_len as usize..(p + 1) * read_len as usize],
                    &haps[p * hap_len as usize..(p + 1) * hap_len as usize],
                )
            })
            .collect();
        PairHmmBench {
            read_len,
            hap_len,
            n_pairs,
            rows: if smem {
                RowStorage::Shared
            } else {
                RowStorage::GlobalScratch
            },
            reads,
            quals,
            haps,
            expected,
            dims,
            batches,
        }
    }

    fn kernel_cfg(&self) -> PairHmmKernelCfg {
        PairHmmKernelCfg {
            read_len: self.read_len,
            hap_len: self.hap_len,
            rows: self.rows,
            threads_per_cta: self.dims.threads_per_cta(),
        }
    }
}

impl Benchmark for PairHmmBench {
    fn abbrev(&self) -> &'static str {
        "PairHMM"
    }

    fn name(&self) -> &'static str {
        "Pair Hidden Markov Model"
    }

    fn table3(&self) -> Table3Row {
        Table3Row {
            name: self.name(),
            abbrev: self.abbrev(),
            input: "Synthetic_data(128_128) [synthetic read/hap pairs]".into(),
            grid: (150, 1, 1),
            cta: (128, 1, 1),
            shared_memory: self.rows == RowStorage::Shared,
            constant_memory: true,
            ctas_per_core: 10,
        }
    }

    fn resources(&self) -> KernelResources {
        KernelResources::of(
            &build_pairhmm_kernel("PairHMM", &self.kernel_cfg()),
            self.dims.threads_per_cta(),
        )
    }

    fn run(&self, config: &GpuConfig, cdp: bool) -> BenchResult {
        let mut program = Program::new();
        let child = program.add(build_pairhmm_kernel("PairHMM", &self.kernel_cfg()));
        let parent = if cdp {
            Some(program.add(build_dp_parent("PairHMM-parent", child.0)))
        } else {
            None
        };
        let mut gpu = Gpu::new(program, config.clone());
        gpu.bind_constants(child, phred_const_data());

        let n = self.n_pairs;
        let reads = upload(&mut gpu, &self.reads);
        let quals = upload(&mut gpu, &self.quals);
        let haps = upload(&mut gpu, &self.haps);
        let out = gpu.malloc(n as u64 * 8);
        let scratch = if self.rows == RowStorage::GlobalScratch {
            gpu.malloc(n as u64 * self.kernel_cfg().row_bytes() as u64)
                .0
        } else {
            0
        };

        for batch in batch_ranges(n, self.batches) {
            let args = PairHmmArgs {
                reads: reads.0,
                haps: haps.0,
                out: out.0,
                n_pairs: batch.end as u64,
                pair_offset: batch.start as u64,
                // The CDP parent sets each child's stride itself.
                stride: if cdp { 0 } else { self.dims.total_threads() },
                quals: quals.0,
                scratch,
                unused: 0,
            };
            match parent {
                // One full, correctly-sliced CTA per child grid.
                Some(pk) => {
                    launch_dp_parent(&mut gpu, pk, args.words(), self.dims.threads_per_cta())
                }
                None => {
                    gpu.launch(child, self.dims, &args.words());
                }
            }
            gpu.synchronize();
        }

        let verified = read_u64s(&mut gpu, out, n)
            .into_iter()
            .zip(&self.expected)
            .all(|(word, &want)| {
                let got = log_likelihood(word);
                got.is_finite() && (got - want).abs() <= 1e-9 * want.abs().max(1.0)
            });
        BenchResult::collect(
            &mut gpu,
            verified,
            format!(
                "PairHMM: {} pairs ({}x{}), rows={:?}, cdp={}",
                n, self.read_len, self.hap_len, self.rows, cdp
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
    fn pairhmm_validates_smem() {
        let b = PairHmmBench::new(Scale::Tiny, true);
        let r = b.run(&cfg(), false);
        assert!(r.verified, "{}", r.detail);
        assert!(r.stats.sm.space_count(ggpu_isa::Space::Shared) > 0);
        // Figure 8: PairHMM is FP-heavy.
        assert!(r.stats.sm.class_count(ggpu_isa::InstrClass::Fp) > 0);
        // Constant memory used for the Phred table.
        assert!(r.stats.sm.space_count(ggpu_isa::Space::Const) > 0);
    }

    #[test]
    fn pairhmm_validates_local_rows() {
        let b = PairHmmBench::new(Scale::Tiny, false);
        let r = b.run(&cfg(), false);
        assert!(r.verified, "{}", r.detail);
        assert_eq!(r.stats.sm.space_count(ggpu_isa::Space::Shared), 0);
    }

    #[test]
    fn pairhmm_validates_cdp() {
        let b = PairHmmBench::new(Scale::Tiny, true);
        let r = b.run(&cfg(), true);
        assert!(r.verified, "{}", r.detail);
        assert!(r.stats.sm.device_launches > 0);
    }

    #[test]
    fn smem_variant_is_faster() {
        // Figure 7: shared-memory rows dramatically outperform local rows.
        let smem = PairHmmBench::new(Scale::Tiny, true).run(&cfg(), false);
        let nosmem = PairHmmBench::new(Scale::Tiny, false).run(&cfg(), false);
        assert!(
            smem.kernel_cycles < nosmem.kernel_cycles,
            "smem {} should beat no-smem {}",
            smem.kernel_cycles,
            nosmem.kernel_cycles
        );
    }
}
