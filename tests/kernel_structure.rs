//! Structural checks on every generated device kernel: they validate,
//! disassemble to the expected instruction families, and declare sane
//! static resources.

use ggpu_isa::{InstrClass, Kernel};
use ggpu_kernels::dp::{build_dp_kernel, build_dp_parent, DpKernelCfg, DpMode};
use ggpu_kernels::{all_benchmarks, Scale};

fn dp_cfg(mode: DpMode) -> DpKernelCfg {
    DpKernelCfg::new(mode, 24, 64)
}

fn class_counts(k: &Kernel) -> [usize; 5] {
    let mut c = [0usize; 5];
    for i in &k.instrs {
        let idx = match i.class() {
            InstrClass::Int => 0,
            InstrClass::Fp => 1,
            InstrClass::LdSt => 2,
            InstrClass::Sfu => 3,
            InstrClass::Ctrl => 4,
        };
        c[idx] += 1;
    }
    c
}

#[test]
fn dp_kernels_validate_in_every_mode() {
    for mode in [
        DpMode::Global,
        DpMode::Local,
        DpMode::SemiGlobal,
        DpMode::Extend { zdrop: 20 },
    ] {
        let k = build_dp_kernel("t", &dp_cfg(mode));
        k.validate().expect("kernel must validate");
        let c = class_counts(&k);
        assert!(c[0] > 20, "{mode:?}: integer ops expected");
        assert!(c[2] > 5, "{mode:?}: memory ops expected");
        assert!(c[4] > 3, "{mode:?}: control flow expected");
        // Static instruction stream stays compact (it's a loop, not an
        // unrolled matrix).
        assert!(k.instrs.len() < 400, "{mode:?}: {} instrs", k.instrs.len());
    }
}

#[test]
fn dp_kernel_disassembles_with_expected_mnemonics() {
    let k = build_dp_kernel("t", &dp_cfg(DpMode::Global));
    let d = k.disassemble();
    for needle in [
        "ld.param",
        "ld.const",
        "ld.global",
        "st.local",
        "bra",
        "exit",
    ] {
        assert!(d.contains(needle), "missing `{needle}` in:\n{d}");
    }
}

#[test]
fn smem_variant_declares_shared_memory() {
    let mut cfg = dp_cfg(DpMode::Global);
    cfg.rows_in_smem = true;
    let k = build_dp_kernel("t", &cfg);
    assert_eq!(k.smem_per_cta, cfg.row_bytes() * cfg.threads_per_cta);
    assert!(k.disassemble().contains("ld.shared"));
    let k2 = build_dp_kernel("t", &dp_cfg(DpMode::Global));
    assert_eq!(k2.smem_per_cta, 0);
    assert_eq!(
        k2.local_bytes_per_thread,
        dp_cfg(DpMode::Global).row_bytes()
    );
}

#[test]
fn matrix_mode_reads_const_scores() {
    let mut cfg = dp_cfg(DpMode::Global);
    cfg.subst_matrix = Some(ggpu_genomics::blosum62_index_matrix());
    let k = build_dp_kernel("t", &cfg);
    k.validate().expect("valid");
    assert_eq!(k.cmem_bytes, 32 + 20 * 32 * 8);
    // Matrix mode drops the match/mismatch select in the inner loop.
    let plain = build_dp_kernel("t", &dp_cfg(DpMode::Global));
    assert!(k.cmem_bytes > plain.cmem_bytes);
}

#[test]
fn parent_kernel_launches_and_syncs() {
    let parent = build_dp_parent("p", 0);
    parent.validate().expect("valid");
    let d = parent.disassemble();
    assert!(d.contains("launch k0"));
    assert!(d.contains("cudaDeviceSynchronize"));
}

#[test]
fn every_benchmark_reports_resources() {
    for b in all_benchmarks(Scale::Tiny) {
        let r = b.resources();
        assert!(
            (16..=255).contains(&r.regs_per_thread),
            "{}: {} regs",
            b.abbrev(),
            r.regs_per_thread
        );
        assert!(r.threads_per_cta >= 32, "{}", b.abbrev());
        assert!(r.cmem_bytes > 0, "{}: all benchmarks use const", b.abbrev());
        if b.table3().shared_memory {
            assert!(r.smem_per_cta > 0, "{}", b.abbrev());
        } else {
            assert_eq!(r.smem_per_cta, 0, "{}", b.abbrev());
        }
    }
}

#[test]
fn paper_scale_instances_construct() {
    // Paper-shaped workloads must at least build. Constructing a benchmark
    // computes its CPU oracle, which for the pairwise benchmarks at Paper
    // scale costs tens of seconds — sample the cheaper ones here.
    use ggpu_kernels::{cluster::ClusterBench, nvb::NvbBench, star::StarBench, Benchmark};
    let star = StarBench::new(Scale::Paper);
    assert_eq!(star.table3().grid, (12, 1, 1));
    let cluster = ClusterBench::new(Scale::Paper);
    assert_eq!(cluster.table3().grid, (128, 1, 1));
    let nvb = NvbBench::new(Scale::Paper);
    assert_eq!(nvb.table3().grid, (2048, 1, 1));
    let _ = (star.resources(), cluster.resources(), nvb.resources());
}
