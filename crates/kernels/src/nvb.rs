//! NvB — NvBowtie-style FM-index read alignment.
//!
//! The host builds the FM-index tables (suffix array, BWT, full Occ table,
//! C counts) with the `ggpu-genomics` substrate and uploads them to device
//! memory; the C table and text length live in constant memory. Each
//! thread runs an exact backward search for its read — a chain of
//! data-dependent random Occ lookups, which is why the paper measures very
//! high L1/L2 miss rates for NvB — then verifies up to `MAX_HITS`
//! candidate positions by rescoring the read against the reference, read
//! through the **texture** path.
//!
//! * **Non-CDP**: verification runs inline after the search.
//! * **CDP**: the search kernel launches a small child verification grid
//!   per read (one thread per candidate), producing the storm of tiny
//!   kernels behind NvB's "functional done" stalls in Figure 5.
//!
//! Reads are processed in batches staged over PCIe, giving NvB its high
//! kernel *and* PCI counts in Figure 4.

use ggpu_isa::{
    AtomOp, CmpOp, Kernel, KernelBuilder, KernelId, LaunchDims, Operand, Program, Space, Width,
};
use ggpu_sim::{DevicePtr, Gpu, GpuConfig, GpuNode, SimError};
use rand::{Rng, SeedableRng};

use ggpu_genomics::fmindex::{bwt_from_sa, suffix_array, SENTINEL};
use ggpu_genomics::random_genome;

use crate::dp::st_param_block;
use crate::host::{batch_ranges, read_u64s, try_upload, u32_bytes};
use crate::{BenchResult, Benchmark, KernelResources, Scale, Table3Row};

arg_block! {
    /// Launch arguments of the search kernel (both variants); constant
    /// memory holds [`FmTables::const_data`].
    FmArgs / FmSlot {
        reads: "Reads, `read_len` bytes each.",
        occ: "Occ table ([`FmTables::occ`]).",
        out: "Packed best hit per read ([`unpack_hit`]); written only for mappable reads.",
        n_reads: "Reads strictly below this index are processed.",
        read_offset: "First read this grid handles.",
        stride: "Read increment per loop iteration (the total thread count).",
        sa: "Suffix array ([`FmTables::sa`]).",
        text: "Reference text ([`FmTables::text`]).",
        read_len: "Read length.",
        scratch: "One [`VerifyArgs`] block per read (CDP variant; unused otherwise).",
    }
}

arg_block! {
    /// Launch arguments of the verification child kernel (CDP variant),
    /// one thread per candidate row; written by the search kernel.
    VerifyArgs / VerifySlot {
        sa: "Suffix array.",
        text: "Reference text.",
        reads: "Reads.",
        out: "Packed best hit per read.",
        read_idx: "The read to verify.",
        lo: "First candidate SA row.",
        read_len: "Read length.",
    }
}

/// Addresses of one device's copy of the FM tables.
#[derive(Debug, Clone, Copy)]
pub struct FmDevice {
    /// Reference text.
    pub text: DevicePtr,
    /// Occ table.
    pub occ: DevicePtr,
    /// Suffix array.
    pub sa: DevicePtr,
}

/// Split a packed mapping result into `(match_count, position)`; the
/// inverse of the packing [`FmTables::map_read`] documents.
pub fn unpack_hit(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// Maximum candidate positions verified per read.
pub const MAX_HITS: u64 = 8;

/// Flattened FM-index tables ready for device upload.
#[derive(Debug, Clone)]
pub struct FmTables {
    /// Text (genome + sentinel), one symbol per byte.
    pub text: Vec<u8>,
    /// Suffix array (u32 per entry).
    pub sa: Vec<u32>,
    /// Full Occ table: `occ[c][i]` = count of symbol `c` in `bwt[0..i]`,
    /// flattened as `c * (n+1) + i`, u32 entries, for c in 0..5.
    pub occ: Vec<u32>,
    /// C table: symbols strictly smaller than `c` (6 entries).
    pub c_table: [u32; 6],
}

impl FmTables {
    /// Build all tables for a genome (2-bit codes).
    pub fn build(genome: &[u8]) -> Self {
        let mut text = genome.to_vec();
        text.push(SENTINEL);
        let sa = suffix_array(&text);
        let bwt = bwt_from_sa(&text, &sa);
        let n = bwt.len();
        let mut occ = vec![0u32; 5 * (n + 1)];
        let mut running = [0u32; 5];
        for (i, &c) in bwt.iter().enumerate() {
            for s in 0..5 {
                occ[s * (n + 1) + i] = running[s];
            }
            running[c as usize] += 1;
        }
        for s in 0..5 {
            occ[s * (n + 1) + n] = running[s];
        }
        let mut counts = [0u32; 6];
        for &c in &text {
            counts[c as usize + 1] += 1;
        }
        let mut c_table = [0u32; 6];
        for c in 1..6 {
            c_table[c] = c_table[c - 1] + counts[c];
        }
        FmTables {
            text,
            sa,
            occ,
            c_table,
        }
    }

    /// Constant-memory image: C[0..5] then text length (u64 words).
    pub fn const_data(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(7 * 8);
        for c in self.c_table {
            v.extend_from_slice(&(c as u64).to_le_bytes());
        }
        v.extend_from_slice(&(self.text.len() as u64).to_le_bytes());
        v
    }

    /// Upload text, Occ and SA, in that order: three allocations, three
    /// PCIe transfers (the index build cost the paper excludes).
    pub fn upload(&self, gpu: &mut Gpu) -> Result<FmDevice, SimError> {
        Ok(FmDevice {
            text: try_upload(gpu, &self.text)?,
            occ: try_upload(gpu, &u32_bytes(&self.occ))?,
            sa: try_upload(gpu, &u32_bytes(&self.sa))?,
        })
    }

    /// Make the tables resident on every device of `node` and bind
    /// [`FmTables::const_data`] to `kernel` there: uploaded once to device
    /// 0 over PCIe, then replicated to each peer over the inter-GPU fabric
    /// — the broadcast that makes FM mapping fabric-bound — and landed
    /// before any kernel can read them.
    pub fn upload_to_node(
        &self,
        node: &mut GpuNode,
        kernel: KernelId,
    ) -> Result<Vec<FmDevice>, SimError> {
        let first = self.upload(node.device_mut(0))?;
        let mut devices = vec![first];
        for d in 1..node.n_devices() {
            let mut peer = first;
            for (ptr, len) in [
                (&mut peer.text, self.text.len()),
                (&mut peer.occ, self.occ.len() * 4),
                (&mut peer.sa, self.sa.len() * 4),
            ] {
                let dst = node.device_mut(d).try_malloc(len as u64)?;
                node.try_p2p_copy(0, *ptr, d, dst, len)?;
                *ptr = dst;
            }
            devices.push(peer);
        }
        for d in 0..node.n_devices() {
            node.device_mut(d).bind_constants(kernel, self.const_data());
        }
        if devices.len() > 1 {
            for r in node.try_sync_all() {
                r?;
            }
        }
        Ok(devices)
    }

    /// CPU backward search over these tables: SA interval of `pattern`.
    pub fn backward_search(&self, pattern: &[u8]) -> (usize, usize) {
        let n = self.text.len();
        let (mut lo, mut hi) = (0usize, n);
        for &c in pattern.iter().rev() {
            let c = c as usize;
            lo = self.c_table[c] as usize + self.occ[c * (n + 1) + lo] as usize;
            hi = self.c_table[c] as usize + self.occ[c * (n + 1) + hi] as usize;
            if lo >= hi {
                return (0, 0);
            }
        }
        (lo, hi)
    }

    /// CPU replica of the device mapping rule: best packed
    /// `(match_count << 32) | position` over the first `MAX_HITS` SA rows,
    /// or 0 when the read has no exact full-length hit interval.
    pub fn map_read(&self, read: &[u8]) -> u64 {
        let (lo, hi) = self.backward_search(read);
        if lo >= hi {
            return 0;
        }
        let mut best = 0u64;
        for row in lo..hi.min(lo + MAX_HITS as usize) {
            let pos = self.sa[row] as u64;
            let mut score = 0u64;
            for (i, &c) in read.iter().enumerate() {
                let t = self.text.get(pos as usize + i).copied().unwrap_or(SENTINEL);
                if t == c {
                    score += 1;
                }
            }
            let packed = (score << 32) | pos;
            if packed > best {
                best = packed;
            }
        }
        best
    }
}

/// Emit the verification child kernel (CDP variant); arguments are
/// [`VerifyArgs`].
fn build_verify_kernel() -> Kernel {
    let mut b = KernelBuilder::new("NvB-verify");
    let sa = VerifySlot::sa.ld(&mut b);
    let text = VerifySlot::text.ld(&mut b);
    let reads = VerifySlot::reads.ld(&mut b);
    let out = VerifySlot::out.ld(&mut b);
    let ridx = VerifySlot::read_idx.ld(&mut b);
    let lo = VerifySlot::lo.ld(&mut b);
    let read_len = VerifySlot::read_len.ld(&mut b);

    let tid = b.global_tid();
    let row = b.reg();
    b.iadd(row, lo, Operand::reg(tid));
    // pos = sa[row]
    let pa = b.reg();
    b.imul(pa, row, Operand::imm(4));
    b.iadd(pa, pa, Operand::reg(sa));
    let pos = b.reg();
    b.ld(Space::Global, Width::B32, pos, pa, 0);
    // rescore the read against the reference via the texture path
    let rp = b.reg();
    b.imul(rp, ridx, Operand::reg(read_len));
    b.iadd(rp, rp, Operand::reg(reads));
    let score = b.reg();
    b.mov(score, Operand::imm(0));
    b.for_range(Operand::imm(0), Operand::reg(read_len), 1, |b, i| {
        let ra = b.reg();
        b.iadd(ra, rp, Operand::reg(i));
        let rc = b.reg();
        b.ld(Space::Global, Width::B8, rc, ra, 0);
        let ta = b.reg();
        b.iadd(ta, text, Operand::reg(pos));
        b.iadd(ta, ta, Operand::reg(i));
        let tc = b.reg();
        b.ld(Space::Tex, Width::B8, tc, ta, 0);
        let eq = b.reg();
        b.setp(
            eq,
            CmpOp::Eq,
            ggpu_isa::ScalarType::S64,
            Operand::reg(rc),
            Operand::reg(tc),
        );
        b.iadd(score, score, Operand::reg(eq));
    });
    // packed = (score << 32) | pos; atomic max into out[read]
    let packed = b.reg();
    b.ishl(packed, score, Operand::imm(32));
    b.ior(packed, packed, Operand::reg(pos));
    let oa = b.reg();
    b.imul(oa, ridx, Operand::imm(8));
    b.iadd(oa, oa, Operand::reg(out));
    let old = b.reg();
    b.atom(
        AtomOp::Max,
        Space::Global,
        old,
        oa,
        Operand::reg(packed),
        Operand::imm(0),
    );
    b.exit();
    let k = b.finish();
    k.validate().expect("verify kernel must validate");
    k
}

/// Emit the search kernel; arguments are [`FmArgs`].
fn build_search_kernel(name: &str, cdp_child: Option<u32>) -> Kernel {
    let mut b = KernelBuilder::new(name);
    b.set_cmem_bytes(7 * 8);
    let reads = FmSlot::reads.ld(&mut b);
    let occ = FmSlot::occ.ld(&mut b);
    let out = FmSlot::out.ld(&mut b);
    let n_reads = FmSlot::n_reads.ld(&mut b);
    let roff = FmSlot::read_offset.ld(&mut b);
    let stride = FmSlot::stride.ld(&mut b);
    let sa = FmSlot::sa.ld(&mut b);
    let text = FmSlot::text.ld(&mut b);
    let read_len = FmSlot::read_len.ld(&mut b);
    let scratch = FmSlot::scratch.ld(&mut b);

    let n_plus1 = b.reg();
    b.ld(Space::Const, Width::B64, n_plus1, Operand::imm(0), 48);
    b.iadd(n_plus1, n_plus1, Operand::imm(1));

    let tid = b.global_tid();
    let r = b.reg();
    b.iadd(r, tid, Operand::reg(roff));

    b.while_loop(
        |b| b.cmp_s(CmpOp::Lt, Operand::reg(r), Operand::reg(n_reads)),
        |b| {
            let rp = b.reg();
            b.imul(rp, r, Operand::reg(read_len));
            b.iadd(rp, rp, Operand::reg(reads));

            // Backward search.
            let lo = b.reg();
            b.mov(lo, Operand::imm(0));
            let hi = b.reg();
            b.ld(Space::Const, Width::B64, hi, Operand::imm(0), 48); // text len
            let k = b.reg();
            b.isub(k, Operand::reg(read_len), Operand::imm(1));
            let alive = b.reg();
            b.mov(alive, Operand::imm(1));
            b.while_loop(
                |b| {
                    let c1 = b.cmp_s(CmpOp::Ge, Operand::reg(k), Operand::imm(0));
                    let both = b.reg();
                    b.iand(both, c1, Operand::reg(alive));
                    both
                },
                |b| {
                    let ca = b.reg();
                    b.iadd(ca, rp, Operand::reg(k));
                    let c = b.reg();
                    b.ld(Space::Global, Width::B8, c, ca, 0);
                    // C[c] from constant memory.
                    let cc_a = b.reg();
                    b.imul(cc_a, c, Operand::imm(8));
                    let cc = b.reg();
                    b.ld(Space::Const, Width::B64, cc, cc_a, 0);
                    // occ base for symbol c.
                    let ob = b.reg();
                    b.imul(ob, c, Operand::reg(n_plus1));
                    for bound in [lo, hi] {
                        let oa = b.reg();
                        b.iadd(oa, ob, Operand::reg(bound));
                        b.imul(oa, oa, Operand::imm(4));
                        b.iadd(oa, oa, Operand::reg(occ));
                        let o = b.reg();
                        b.ld(Space::Global, Width::B32, o, oa, 0);
                        b.iadd(o, o, Operand::reg(cc));
                        b.mov(bound, Operand::reg(o));
                    }
                    let dead = b.cmp_s(CmpOp::Ge, Operand::reg(lo), Operand::reg(hi));
                    b.if_then(dead, |b| b.mov(alive, Operand::imm(0)));
                    b.isub(k, Operand::reg(k), Operand::imm(1));
                },
            );

            // hits = alive ? min(hi - lo, MAX_HITS) : 0
            let hits = b.reg();
            b.isub(hits, Operand::reg(hi), Operand::reg(lo));
            b.imin(hits, hits, Operand::imm(MAX_HITS as i64));
            let none = b.cmp_s(CmpOp::Eq, Operand::reg(alive), Operand::imm(0));
            b.sel(hits, none, Operand::imm(0), Operand::reg(hits));

            let have = b.cmp_s(CmpOp::Gt, Operand::reg(hits), Operand::imm(0));
            match cdp_child {
                Some(child) => {
                    // Launch a verification child per read.
                    b.if_then(have, |b| {
                        let pb = b.reg();
                        b.imul(pb, r, Operand::imm(VerifySlot::COUNT as i64 * 8));
                        b.iadd(pb, pb, Operand::reg(scratch));
                        let args = VerifyArgs {
                            sa,
                            text,
                            reads,
                            out,
                            read_idx: r,
                            lo,
                            read_len,
                        };
                        st_param_block(b, pb, args.words().map(Operand::reg));
                        b.launch(
                            child,
                            Operand::imm(1),
                            Operand::reg(hits),
                            Operand::reg(pb),
                            VerifySlot::COUNT as u32,
                        );
                        b.dsync();
                    });
                }
                None => {
                    // Inline verification of each candidate.
                    b.if_then(have, |b| {
                        let best = b.reg();
                        b.mov(best, Operand::imm(0));
                        b.for_range(Operand::imm(0), Operand::reg(hits), 1, |b, h| {
                            let row = b.reg();
                            b.iadd(row, lo, Operand::reg(h));
                            let pa = b.reg();
                            b.imul(pa, row, Operand::imm(4));
                            b.iadd(pa, pa, Operand::reg(sa));
                            let pos = b.reg();
                            b.ld(Space::Global, Width::B32, pos, pa, 0);
                            let score = b.reg();
                            b.mov(score, Operand::imm(0));
                            b.for_range(Operand::imm(0), Operand::reg(read_len), 1, |b, i| {
                                let ra = b.reg();
                                b.iadd(ra, rp, Operand::reg(i));
                                let rc = b.reg();
                                b.ld(Space::Global, Width::B8, rc, ra, 0);
                                let ta = b.reg();
                                b.iadd(ta, text, Operand::reg(pos));
                                b.iadd(ta, ta, Operand::reg(i));
                                let tc = b.reg();
                                b.ld(Space::Tex, Width::B8, tc, ta, 0);
                                let eq = b.reg();
                                b.setp(
                                    eq,
                                    CmpOp::Eq,
                                    ggpu_isa::ScalarType::S64,
                                    Operand::reg(rc),
                                    Operand::reg(tc),
                                );
                                b.iadd(score, score, Operand::reg(eq));
                            });
                            let packed = b.reg();
                            b.ishl(packed, score, Operand::imm(32));
                            b.ior(packed, packed, Operand::reg(pos));
                            b.imax(best, best, Operand::reg(packed));
                        });
                        let oa = b.reg();
                        b.imul(oa, r, Operand::imm(8));
                        b.iadd(oa, oa, Operand::reg(out));
                        b.st(Space::Global, Width::B64, Operand::reg(best), oa, 0);
                    });
                }
            }
            b.iadd(r, r, Operand::reg(stride));
        },
    );
    b.exit();
    let mut k = b.finish();
    k.regs_per_thread = k.regs_per_thread.max(48);
    k.validate().expect("search kernel must validate");
    k
}

/// Emit the non-CDP FM-index search kernel for embedding in an external
/// host program (the served FM pipeline is built from this). Same
/// [`FmArgs`] as the benchmark's kernel, with [`FmTables::const_data`] bound
/// as constant memory.
pub fn build_fm_search_kernel(name: &str) -> Kernel {
    build_search_kernel(name, None)
}

/// The NvB benchmark instance.
#[derive(Debug, Clone)]
pub struct NvbBench {
    genome_len: usize,
    read_len: u32,
    n_reads: usize,
    tables: FmTables,
    reads: Vec<u8>,
    expected: Vec<u64>,
    dims: LaunchDims,
    batches: usize,
}

impl NvbBench {
    /// Build an NvB instance at `scale`.
    pub fn new(scale: Scale) -> Self {
        let (genome_len, n_reads, read_len, dims, batches) = match scale {
            Scale::Tiny => (
                2_000usize,
                192usize,
                16u32,
                LaunchDims::linear(2, 32),
                3usize,
            ),
            Scale::Small => (16_000, 2048, 20, LaunchDims::linear(8, 64), 4),
            Scale::Paper => (1 << 18, 1 << 14, 32, LaunchDims::linear(2048, 256), 16),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(8899);
        let genome = random_genome(genome_len, &mut rng);
        let tables = FmTables::build(genome.codes());
        let mut reads = vec![0u8; n_reads * read_len as usize];
        for r in 0..n_reads {
            let dst = &mut reads[r * read_len as usize..(r + 1) * read_len as usize];
            if rng.gen_bool(0.85) {
                // Genuine read: exact substring.
                let start = rng.gen_range(0..genome_len - read_len as usize);
                dst.copy_from_slice(&genome.codes()[start..start + read_len as usize]);
            } else {
                // Contaminant: random bases (usually unmappable).
                for b in dst.iter_mut() {
                    *b = rng.gen_range(0..4u8);
                }
            }
        }
        let expected: Vec<u64> = (0..n_reads)
            .map(|r| tables.map_read(&reads[r * read_len as usize..(r + 1) * read_len as usize]))
            .collect();
        NvbBench {
            genome_len,
            read_len,
            n_reads,
            tables,
            reads,
            expected,
            dims,
            batches,
        }
    }
}

impl Benchmark for NvbBench {
    fn abbrev(&self) -> &'static str {
        "NvB"
    }

    fn name(&self) -> &'static str {
        "NVBIO (NvBowtie)"
    }

    fn table3(&self) -> Table3Row {
        Table3Row {
            name: self.name(),
            abbrev: self.abbrev(),
            input: "hg19.fa, SRR493095.fastq [synthetic genome + reads]".into(),
            grid: (2048, 1, 1),
            cta: (256, 1, 1),
            shared_memory: false,
            constant_memory: true,
            ctas_per_core: 6,
        }
    }

    fn resources(&self) -> KernelResources {
        KernelResources::of(
            &build_search_kernel("NvB-search", None),
            self.dims.threads_per_cta(),
        )
    }

    fn run(&self, config: &GpuConfig, cdp: bool) -> BenchResult {
        let mut program = Program::new();
        let search = if cdp {
            let child = program.add(build_verify_kernel());
            program.add(build_search_kernel("NvB-search-cdp", Some(child.0)))
        } else {
            program.add(build_search_kernel("NvB-search", None))
        };
        let mut gpu = Gpu::new(program, config.clone());
        gpu.bind_constants(search, self.tables.const_data());

        let n = self.n_reads;
        let tables = self.tables.upload(&mut gpu).expect("FM tables fit");
        let reads = gpu.malloc(self.reads.len() as u64);
        let out = gpu.malloc(n as u64 * 8);
        let scratch = gpu.malloc((n * VerifySlot::COUNT * 8) as u64);

        // Reads staged per batch, results copied back per batch.
        for batch in batch_ranges(n, self.batches) {
            let rs = batch.start * self.read_len as usize;
            let re = batch.end * self.read_len as usize;
            gpu.memcpy_h2d(reads.offset(rs as u64), &self.reads[rs..re]);
            let args = FmArgs {
                reads: reads.0,
                occ: tables.occ.0,
                out: out.0,
                n_reads: batch.end as u64,
                read_offset: batch.start as u64,
                stride: self.dims.total_threads(),
                sa: tables.sa.0,
                text: tables.text.0,
                read_len: self.read_len as u64,
                scratch: scratch.0,
            };
            gpu.launch(search, self.dims, &args.words());
            gpu.synchronize();
            let _ = gpu.memcpy_d2h(out.offset(batch.start as u64 * 8), batch.len() * 8);
        }

        let got = read_u64s(&mut gpu, out, n);
        let verified = got == self.expected;
        BenchResult::collect(
            &mut gpu,
            verified,
            format!(
                "NvB: {} reads x {}bp vs {}bp genome, {} batches, cdp={}",
                n, self.read_len, self.genome_len, self.batches, cdp
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
    fn fm_tables_match_fmindex_search() {
        use ggpu_genomics::{DnaSeq, FmIndex};
        let genome: DnaSeq = "ACGTACGTTACGACGT".parse().unwrap();
        let tables = FmTables::build(genome.codes());
        let fm = FmIndex::new(&genome);
        for pat in ["ACG", "CGT", "TTT", "ACGT"] {
            let p: DnaSeq = pat.parse().unwrap();
            let (lo, hi) = tables.backward_search(p.codes());
            let (flo, fhi) = fm.backward_search(p.codes());
            assert_eq!((lo, hi), (flo, fhi), "pattern {pat}");
        }
    }

    #[test]
    fn map_read_finds_origin() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let genome = random_genome(500, &mut rng);
        let tables = FmTables::build(genome.codes());
        let read = &genome.codes()[100..120];
        let packed = tables.map_read(read);
        assert_eq!(packed >> 32, 20, "perfect score");
        assert_eq!(packed & 0xFFFF_FFFF, 100);
    }

    #[test]
    fn nvb_validates_non_cdp() {
        let b = NvbBench::new(Scale::Tiny);
        let r = b.run(&cfg(), false);
        assert!(r.verified, "{}", r.detail);
        // NvB batches reads: many kernels AND many memcpys.
        assert_eq!(r.stats.host.kernel_launches, 3);
        assert!(r.stats.host.pci_count >= 9);
        // Texture path exercised by verification.
        assert!(r.stats.sm.space_count(ggpu_isa::Space::Tex) > 0);
    }

    #[test]
    fn nvb_validates_cdp() {
        let b = NvbBench::new(Scale::Tiny);
        let r = b.run(&cfg(), true);
        assert!(r.verified, "{}", r.detail);
        assert!(
            r.stats.sm.device_launches > 10,
            "one child per mapped read, got {}",
            r.stats.sm.device_launches
        );
    }

    #[test]
    fn nvb_has_high_l1_miss_rate() {
        // The Occ lookups are data-dependent random accesses over a table
        // much larger than L1 — the paper's defining NvB property.
        let b = NvbBench::new(Scale::Tiny);
        let mut small_l1 = cfg();
        small_l1.sm.l1.bytes = 16 * 1024;
        let r = b.run(&small_l1, false);
        assert!(
            r.stats.l1.miss_rate() > 0.2,
            "expected high miss rate, got {:.3}",
            r.stats.l1.miss_rate()
        );
    }
}
