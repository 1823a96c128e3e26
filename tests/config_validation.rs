//! A `GpuConfig` is input: every value either fails `GpuConfig::validate`
//! with a typed `InvalidConfig` naming its field, or builds a device that
//! runs a kernel to a verified result or a typed error. Nothing panics and
//! nothing runs away.

use ggpu_icnt::Topology;
use ggpu_isa::{KernelBuilder, KernelId, LaunchDims, Operand, Program, Space, SpecialReg, Width};
use ggpu_mem::DramScheduler;
use ggpu_serve::{ServeConfig, Service};
use ggpu_sim::{Gpu, GpuConfig, SimError};
use ggpu_sm::SchedPolicy;
use proptest::prelude::*;

const CTAS: u32 = 3;
const THREADS: u32 = 64;
const N: usize = (CTAS * THREADS) as usize;

/// A run that needs more cycles than this has run away: the kernel takes a
/// few thousand, and the watchdog ends a stall after `watchdog_cycles`.
const CYCLE_BOUND: u64 = 10_000_000;

/// `out[i] = 3 * in[i] + i`, each value passing through the thread's
/// shared-memory slot: global loads and stores, shared memory, ALU.
fn program() -> Program {
    let mut b = KernelBuilder::new("triple");
    let slots = b.alloc_smem(THREADS * 8);
    let tid = b.global_tid();
    let (src, dst) = (b.reg(), b.reg());
    b.ld_param(src, 0);
    b.ld_param(dst, 1);
    let off = b.reg();
    b.imul(off, tid, Operand::imm(8));
    let a = b.reg();
    b.iadd(a, off, Operand::reg(src));
    let x = b.reg();
    b.ld(Space::Global, Width::B64, x, a, 0);
    b.imul(x, x, Operand::imm(3));
    b.iadd(x, x, Operand::reg(tid));
    let slot = b.reg();
    b.sreg(slot, SpecialReg::TidX);
    b.imul(slot, slot, Operand::imm(8));
    b.iadd(slot, slot, Operand::imm(slots as i64));
    b.st(Space::Shared, Width::B64, Operand::reg(x), slot, 0);
    let y = b.reg();
    b.ld(Space::Shared, Width::B64, y, slot, 0);
    b.iadd(a, off, Operand::reg(dst));
    b.st(Space::Global, Width::B64, Operand::reg(y), a, 0);
    b.exit();
    let mut p = Program::new();
    p.add(b.finish());
    p
}

fn input() -> Vec<u64> {
    (0..N as u64).map(|i| i * 7 + 1).collect()
}

fn bytes(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Build a device under `config` and run [`program`]: `Ok` with the device
/// output, or the typed error the build, an allocation, a copy or the
/// launch returned.
fn run(config: GpuConfig) -> Result<Vec<u64>, SimError> {
    let mut gpu = Gpu::try_new(program(), config)?;
    let src = gpu.try_malloc(N as u64 * 8)?;
    let dst = gpu.try_malloc(N as u64 * 8)?;
    gpu.try_memcpy_h2d(src, &bytes(&input()))?;
    let ran = gpu.try_run_kernel(
        KernelId(0),
        LaunchDims::linear(CTAS, THREADS),
        &[src.0, dst.0],
    );
    assert!(
        gpu.cycle() < CYCLE_BOUND,
        "ran to cycle {} ({ran:?})",
        gpu.cycle()
    );
    ran?;
    let out = gpu.try_memcpy_d2h(dst, N * 8)?;
    Ok(out
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect())
}

fn expected() -> Vec<u64> {
    input()
        .iter()
        .enumerate()
        .map(|(i, x)| 3 * x + i as u64)
        .collect()
}

#[test]
fn the_baselines_validate_and_verify() {
    for c in [GpuConfig::rtx3070(), GpuConfig::test_small()] {
        assert_eq!(c.validate(), Ok(()));
    }
    assert_eq!(run(GpuConfig::test_small()), Ok(expected()));
}

/// A change to the baseline configuration.
type Edit = fn(&mut GpuConfig);

/// Before validation each of these panicked, divided by zero, spun to the
/// watchdog or ran to cycle 2·10⁹ — or, for `line = 96`, was silently
/// accepted. Each row now comes back as `InvalidConfig` naming its field.
#[test]
fn each_config_that_used_to_panic_or_hang_names_its_field() {
    let probes: [(&str, Edit); 11] = [
        ("n_sms", |c| c.n_sms = 0),
        ("n_partitions", |c| c.n_partitions = 0),
        ("sm.max_ctas", |c| c.sm.max_ctas = 0),
        ("sm.l1.ways", |c| c.sm.l1.ways = 0),
        ("sm.l1.line", |c| c.sm.l1.line = 96),
        ("l2_slice.ways", |c| c.l2_slice.ways = 0),
        ("l2_slice.line", |c| c.l2_slice.line = 0),
        ("l2_slice.line", |c| c.l2_slice.line = 96),
        ("dram.queue_size", |c| c.dram.queue_size = 0),
        ("icnt.flit_bytes", |c| c.icnt.flit_bytes = 0),
        // The first failing rule wins when several fields are bad.
        ("n_sms", |c| {
            c.n_sms = 0;
            c.icnt.flit_bytes = 0;
        }),
    ];
    for (field, edit) in probes {
        let mut c = GpuConfig::test_small();
        edit(&mut c);
        match run(c) {
            Err(SimError::InvalidConfig { field: got, why }) => {
                assert_eq!(got, field, "{why}");
                assert!(!why.is_empty());
            }
            other => panic!("{field}: expected InvalidConfig, got {other:?}"),
        }
    }
}

#[test]
#[should_panic(expected = "invalid configuration: `icnt.flit_bytes`")]
fn gpu_new_panics_with_the_typed_message() {
    let mut c = GpuConfig::test_small();
    c.icnt.flit_bytes = 0;
    let _ = Gpu::new(program(), c);
}

#[test]
fn the_service_rejects_an_invalid_device_config() {
    let mut cfg = ServeConfig::test_small();
    cfg.gpu.n_partitions = 0;
    match Service::new(cfg) {
        Err(SimError::InvalidConfig { field, .. }) => assert_eq!(field, "n_partitions"),
        Err(e) => panic!("expected InvalidConfig, got {e}"),
        Ok(_) => panic!("expected InvalidConfig, got a service"),
    }
}

/// Every settable value a draw can change, with the values it picks from:
/// zero, one, sizes no figure uses, and the baseline's own.
const FIELDS: &[(&str, &[u64])] = &[
    ("n_sms", &[0, 1, 3, 4]),
    ("n_partitions", &[0, 1, 2, 3, 5]),
    ("sm.max_ctas", &[0, 1, 2, 32]),
    ("sm.max_threads", &[0, 1, 33, 64, 100, 1536]),
    ("sm.registers", &[0, 1, 640, 65536]),
    ("sm.smem_bytes", &[0, 1, 511, 512, 102_400]),
    ("sm.l1.bytes", &[0, 1, 128, 3000, 131_072]),
    ("sm.l1.ways", &[0, 1, 3, 256, 1000]),
    ("sm.l1.line", &[0, 1, 64, 96, 128, 256]),
    ("sm.l1.mshr_entries", &[0, 1, 2, 64]),
    ("l2_slice.bytes", &[0, 1, 128, 5000, 524_288]),
    ("l2_slice.ways", &[0, 1, 3, 16, 999]),
    ("l2_slice.line", &[0, 1, 96, 128, 129]),
    ("l2_slice.mshr_entries", &[0, 1, 3, 64]),
    ("dram.queue_size", &[0, 1, 2, 32]),
    ("dram.scheduler", &[0, 1, 2, 3]),
    ("icnt.topology", &[0, 1, 2, 3]),
    ("icnt.flit_bytes", &[0, 1, 7, 40, 255]),
    ("icnt.router_delay", &[0, 1, 16, 99]),
    ("sm.policy", &[0, 1, 2, 3]),
    ("kernel_launch_overhead", &[0, 1, 3000]),
    ("cdp_launch_overhead", &[0, 1, 500]),
    ("watchdog_cycles", &[0, 1, 100, 50_000]),
    ("memory_limit", &[0, 1, 4096, 8 << 30]),
    ("cdp_max_depth", &[0, 1, 24]),
    ("sample_interval_cycles", &[0, 1, 7, 1000]),
];

fn set(c: &mut GpuConfig, field: &str, v: u64) {
    let (small, index) = (v as u32, v as usize);
    match field {
        "n_sms" => c.n_sms = index,
        "n_partitions" => c.n_partitions = index,
        "sm.max_ctas" => c.sm.max_ctas = small,
        "sm.max_threads" => c.sm.max_threads = small,
        "sm.registers" => c.sm.registers = small,
        "sm.smem_bytes" => c.sm.smem_bytes = small,
        "sm.l1.bytes" => c.sm.l1.bytes = v,
        "sm.l1.ways" => c.sm.l1.ways = small,
        "sm.l1.line" => c.sm.l1.line = v,
        "sm.l1.mshr_entries" => c.sm.l1.mshr_entries = small,
        "l2_slice.bytes" => c.l2_slice.bytes = v,
        "l2_slice.ways" => c.l2_slice.ways = small,
        "l2_slice.line" => c.l2_slice.line = v,
        "l2_slice.mshr_entries" => c.l2_slice.mshr_entries = small,
        "dram.queue_size" => c.dram.queue_size = index,
        "dram.scheduler" => {
            c.dram.scheduler = [
                DramScheduler::FrFcfs,
                DramScheduler::Fifo,
                DramScheduler::OoO(0),
                DramScheduler::OoO(3),
            ][index]
        }
        "icnt.topology" => {
            c.icnt.topology = [
                Topology::LocalXbar,
                Topology::Mesh,
                Topology::FatTree,
                Topology::Butterfly,
            ][index]
        }
        "icnt.flit_bytes" => c.icnt.flit_bytes = small,
        "icnt.router_delay" => c.icnt.router_delay = v,
        "sm.policy" => {
            c.sm.policy = [
                SchedPolicy::Lrr,
                SchedPolicy::Gto,
                SchedPolicy::Old,
                SchedPolicy::TwoLevel,
            ][index]
        }
        "kernel_launch_overhead" => c.kernel_launch_overhead = v,
        "cdp_launch_overhead" => c.cdp_launch_overhead = v,
        "watchdog_cycles" => c.watchdog_cycles = v,
        "memory_limit" => c.memory_limit = v,
        "cdp_max_depth" => c.cdp_max_depth = small,
        "sample_interval_cycles" => c.sample_interval_cycles = v,
        _ => unreachable!("{field} is not in FIELDS"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_config_is_rejected_verified_or_a_typed_error(
        edits in prop::collection::vec((0..FIELDS.len(), 0usize..64), 1..=4),
        fast_forward in 0u8..4,
    ) {
        let mut c = GpuConfig::test_small();
        // Mostly the default engine; a quarter of the draws tick every cycle.
        c.fast_forward = fast_forward > 0;
        for &(f, pick) in &edits {
            let (field, values) = FIELDS[f];
            set(&mut c, field, values[pick % values.len()]);
        }
        let valid = c.validate();
        let short_watchdog = c.watchdog_cycles < GpuConfig::test_small().watchdog_cycles;
        match run(c) {
            Ok(out) => {
                prop_assert_eq!(&valid, &Ok(()));
                prop_assert_eq!(out, expected(), "a run that completes is correct");
            }
            Err(SimError::InvalidConfig { field, .. }) => {
                prop_assert!(valid.is_err(), "only validate rejects a config");
                prop_assert!(FIELDS.iter().any(|&(f, _)| f == field), "unknown field {}", field);
            }
            // The kernel never stalls for the default watchdog's 50 000
            // cycles: only a shortened watchdog may fire.
            Err(e @ SimError::Deadlock(_)) => {
                prop_assert!(valid.is_ok() && short_watchdog, "{}", e);
            }
            // Launch and memory errors are typed outcomes too.
            Err(e) => prop_assert_eq!(&valid, &Ok(()), "{}", e),
        }
    }
}
