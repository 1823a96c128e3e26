//! Cross-crate behavioural tests: the simulator's microarchitectural knobs
//! must move the genomics workloads in the directions the paper reports.

use ggpu_icnt::Topology;
use ggpu_kernels::{benchmark, Scale};
use ggpu_mem::DramScheduler;
use ggpu_sim::GpuConfig;

fn cfg() -> GpuConfig {
    GpuConfig {
        n_sms: 8,
        ..GpuConfig::test_small()
    }
}

#[test]
fn mesh_is_not_faster_than_crossbar() {
    // Figure 20: other topologies perform at or below the local crossbar.
    let b = benchmark(Scale::Tiny, "GL").expect("GL exists");
    let xbar = b.run(&cfg(), false);
    let mut mesh_cfg = cfg();
    mesh_cfg.icnt.topology = Topology::Mesh;
    let mesh = b.run(&mesh_cfg, false);
    assert!(xbar.verified && mesh.verified);
    assert!(
        mesh.kernel_cycles >= xbar.kernel_cycles,
        "mesh {} vs xbar {}",
        mesh.kernel_cycles,
        xbar.kernel_cycles
    );
}

#[test]
fn router_latency_hurts_mesh() {
    // Figure 21: adding router pipeline delay degrades performance.
    let b = benchmark(Scale::Tiny, "NvB").expect("NvB exists");
    let mut base = cfg();
    base.icnt.topology = Topology::Mesh;
    let mut slow = base.clone();
    slow.icnt.router_delay = 16;
    let r0 = b.run(&base, false);
    let r16 = b.run(&slow, false);
    assert!(r0.verified && r16.verified);
    assert!(
        r16.kernel_cycles > r0.kernel_cycles,
        "+16 cycle routers must cost time ({} vs {})",
        r16.kernel_cycles,
        r0.kernel_cycles
    );
}

#[test]
fn narrow_flits_hurt_bandwidth() {
    // Figure 22: 8-byte flits are drastically slower than 40-byte flits.
    let b = benchmark(Scale::Tiny, "NvB").expect("NvB exists");
    let mut wide = cfg();
    wide.icnt.topology = Topology::Mesh;
    let mut narrow = wide.clone();
    narrow.icnt.flit_bytes = 8;
    let rw = b.run(&wide, false);
    let rn = b.run(&narrow, false);
    assert!(rw.verified && rn.verified);
    assert!(
        rn.kernel_cycles > rw.kernel_cycles,
        "8B flits must be slower ({} vs {})",
        rn.kernel_cycles,
        rw.kernel_cycles
    );
}

#[test]
fn fifo_controller_not_faster_than_frfcfs() {
    // Figure 16: FIFO shows slowdowns of up to ~15%, never speedups.
    let b = benchmark(Scale::Tiny, "GL").expect("GL exists");
    let fr = b.run(&cfg(), false);
    let mut fifo_cfg = cfg();
    fifo_cfg.dram.scheduler = DramScheduler::Fifo;
    let fifo = b.run(&fifo_cfg, false);
    assert!(fr.verified && fifo.verified);
    assert!(fifo.kernel_cycles as f64 >= fr.kernel_cycles as f64 * 0.99);
}

#[test]
fn perfect_memory_never_slower() {
    // Figure 15's premise.
    for abbrev in ["SW", "GKSW", "NvB"] {
        let b = benchmark(Scale::Tiny, abbrev).expect("exists");
        let real = b.run(&cfg(), false);
        let mut pcfg = cfg();
        pcfg.sm.perfect_memory = true;
        let perfect = b.run(&pcfg, false);
        assert!(real.verified && perfect.verified);
        assert!(
            perfect.kernel_cycles <= real.kernel_cycles,
            "{abbrev}: perfect {} vs real {}",
            perfect.kernel_cycles,
            real.kernel_cycles
        );
    }
}

#[test]
fn disabling_l1_degrades_performance() {
    // Figure 12: "performance degrades when the cache size is very small".
    let b = benchmark(Scale::Tiny, "GKSW").expect("exists");
    let base = b.run(&cfg(), false);
    let no_l1 = b.run(&cfg().with_cache_sizes(0, 128 * 1024), false);
    assert!(base.verified && no_l1.verified);
    assert!(
        no_l1.kernel_cycles > base.kernel_cycles,
        "no-L1 {} should exceed baseline {}",
        no_l1.kernel_cycles,
        base.kernel_cycles
    );
}

#[test]
fn memory_space_mix_matches_paper() {
    // Figure 9's headline facts.
    use ggpu_isa::Space;
    let c = cfg();
    // GASAL2: local dominates.
    let gl = benchmark(Scale::Tiny, "GL").expect("GL").run(&c, false);
    assert!(gl.stats.sm.space_count(Space::Local) > gl.stats.sm.space_count(Space::Global));
    // NW and PairHMM: shared dominates.
    for name in ["NW", "PairHMM"] {
        let r = benchmark(Scale::Tiny, name).expect("exists").run(&c, false);
        let shared = r.stats.sm.space_count(Space::Shared);
        let others: u64 = [Space::Tex, Space::Local, Space::Global]
            .iter()
            .map(|&s| r.stats.sm.space_count(s))
            .sum();
        assert!(
            shared > others,
            "{name}: shared {shared} vs others {others}"
        );
    }
    // NvB touches the texture path.
    let nvb = benchmark(Scale::Tiny, "NvB").expect("NvB").run(&c, false);
    assert!(nvb.stats.sm.space_count(Space::Tex) > 0);
}

#[test]
fn integer_instructions_dominate() {
    // Figure 8: integer instructions exceed 60% for the DP kernels.
    use ggpu_isa::InstrClass;
    let r = benchmark(Scale::Tiny, "SW").expect("SW").run(&cfg(), false);
    let total: u64 = [
        InstrClass::Int,
        InstrClass::Fp,
        InstrClass::LdSt,
        InstrClass::Sfu,
        InstrClass::Ctrl,
    ]
    .iter()
    .map(|&c| r.stats.sm.class_count(c))
    .sum();
    let int_frac = r.stats.sm.class_count(InstrClass::Int) as f64 / total as f64;
    assert!(int_frac > 0.6, "int fraction {int_frac:.2}");
}
