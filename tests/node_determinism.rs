//! Node-level determinism: a multi-GPU [`GpuNode`] run is bit-identical —
//! same per-device statistics, kernel records, trace events, and merged
//! result bytes — regardless of host parallelism (parallel vs serial
//! device threads). Also pins the
//! telescoping contract (per-device counters sum exactly to node totals)
//! and device-scoped fault isolation (a stream fault on one device leaves
//! every other device's run untouched).

use ggpu_isa::{KernelBuilder, KernelId, LaunchDims, Operand, Program, Space, Width};
use ggpu_sim::{
    shard_ranges, GpuNode, KernelRecord, LaunchOptions, NodeConfig, NodeStats, TraceEvent,
};

const N_ITEMS: usize = 512;

/// Kernel: out[tid] = base + tid * 3, with a short data-dependent loop so
/// the grids exercise scheduling, not just one store.
fn work_program() -> (Program, KernelId) {
    let mut b = KernelBuilder::new("node-work");
    let tid = b.global_tid();
    let base = b.reg();
    b.ld_param(base, 1);
    let v = b.reg();
    b.imul(v, tid, Operand::imm(3));
    b.iadd(v, v, Operand::reg(base));
    let out = b.reg();
    b.ld_param(out, 0);
    let addr = b.reg();
    b.imul(addr, tid, Operand::imm(8));
    b.iadd(addr, addr, Operand::reg(out));
    b.st(Space::Global, Width::B64, Operand::reg(v), addr, 0);
    b.exit();
    let mut p = Program::new();
    let k = p.add(b.finish());
    (p, k)
}

/// Kernel: a single thread stores far out of bounds (guest fault).
fn oob_program() -> (Program, KernelId, KernelId) {
    let (mut p, _) = work_program();
    let mut b = KernelBuilder::new("oob");
    let out = b.reg();
    b.ld_param(out, 0);
    b.st(Space::Global, Width::B64, Operand::imm(1), out, 1 << 30);
    b.exit();
    let bad = p.add(b.finish());
    (p, KernelId(0), bad)
}

/// One full sharded run: per-device compute over `shard_ranges`, results
/// gathered to device 0 over the fabric, read back merged. Returns
/// everything observable about the run.
#[allow(clippy::type_complexity)]
fn run_sharded(
    n_devices: usize,
    parallel_hosts: bool,
) -> (
    NodeStats,
    Vec<u8>,
    Vec<Vec<KernelRecord>>,
    Vec<Vec<TraceEvent>>,
) {
    let (p, k) = work_program();
    let mut cfg = NodeConfig::test_small(n_devices).with_parallel_hosts(parallel_hosts);
    cfg.gpu = cfg.gpu.with_kernel_records(true);
    cfg.gpu.trace = true;
    let mut node = GpuNode::new(p, cfg);

    let shards = shard_ranges(N_ITEMS, n_devices);
    let gather = node.device_mut(0).malloc(N_ITEMS as u64 * 8);
    let mut outs = Vec::new();
    for (d, shard) in shards.iter().enumerate() {
        let n = shard.len() as u64;
        let out = node.device_mut(d).malloc(n * 8);
        let ctas = n.div_ceil(32).max(1) as u32;
        // The shard's global base rides in as a parameter so the merged
        // bytes are position-dependent (a wrong merge order would show).
        node.device_mut(d).launch(
            k,
            LaunchDims::linear(ctas, 32),
            &[out.0, shard.start as u64 * 3],
        );
        outs.push(out);
    }
    node.sync_all();
    for (d, shard) in shards.iter().enumerate().skip(1) {
        node.p2p_copy(
            d,
            outs[d],
            0,
            ggpu_sim::DevicePtr(gather.0 + shard.start as u64 * 8),
            shard.len() * 8,
        );
    }
    node.sync_all();
    let head = shards[0].len() * 8;
    let first = node.device_mut(0).memcpy_d2h(outs[0], head);
    let mut merged = first;
    let rest = node.device_mut(0).memcpy_d2h(
        ggpu_sim::DevicePtr(gather.0 + head as u64),
        N_ITEMS * 8 - head,
    );
    merged.extend_from_slice(&rest);

    let stats = node.stats();
    let records = (0..n_devices)
        .map(|d| node.device(d).kernel_records().to_vec())
        .collect();
    let traces = (0..n_devices)
        .map(|d| node.device(d).trace_events().to_vec())
        .collect();
    (stats, merged, records, traces)
}

#[test]
fn two_and_four_device_runs_are_bit_identical_across_host_parallelism() {
    for n_devices in [2usize, 4] {
        let baseline = run_sharded(n_devices, false);
        let run = run_sharded(n_devices, true);
        assert_eq!(
            baseline.0, run.0,
            "stats diverge at {n_devices} devices with parallel hosts"
        );
        assert_eq!(baseline.1, run.1, "merged result bytes diverge");
        assert_eq!(baseline.2, run.2, "kernel records diverge");
        assert_eq!(baseline.3, run.3, "trace events diverge");
    }
}

#[test]
fn merged_shards_match_expected_values() {
    let (stats, merged, records, _) = run_sharded(4, true);
    for (i, chunk) in merged.chunks_exact(8).enumerate() {
        let v = u64::from_le_bytes(chunk.try_into().unwrap());
        assert_eq!(v, i as u64 * 3, "item {i} merged out of order");
    }
    assert_eq!(stats.devices.len(), 4);
    for (d, recs) in records.iter().enumerate() {
        assert_eq!(recs.len(), 1, "one grid per device");
        assert_eq!(
            ggpu_sim::grid_device(recs[0].grid),
            d,
            "grid handle encodes its device"
        );
    }
}

#[test]
fn per_device_counters_telescope_to_node_totals() {
    let (stats, _, _, _) = run_sharded(4, true);
    let total = stats.total();
    macro_rules! telescopes {
        ($($field:tt)*) => {
            assert_eq!(
                stats.devices.iter().map(|d| d.$($field)*).sum::<u64>(),
                total.$($field)*,
                stringify!($($field)*)
            );
        };
    }
    telescopes!(host.kernel_launches);
    telescopes!(host.pci_count);
    telescopes!(host.h2d_bytes);
    telescopes!(host.d2h_bytes);
    telescopes!(host.p2p_sends);
    telescopes!(host.p2p_recvs);
    telescopes!(host.p2p_bytes_out);
    telescopes!(host.p2p_bytes_in);
    telescopes!(host.p2p_cycles);
    telescopes!(sm.issued);
    telescopes!(l1.read_access);
    telescopes!(l2.read_access);
    telescopes!(dram.requests);
    telescopes!(icnt_req.packets);
    // Every byte sent over the fabric landed on some device.
    assert_eq!(total.host.p2p_bytes_out, total.host.p2p_bytes_in);
    assert!(total.host.p2p_sends > 0, "the workload used the fabric");
}

#[test]
fn stream_fault_on_one_device_leaves_others_untouched() {
    let run = |inject: bool| {
        let (p, good, bad) = oob_program();
        let mut cfg = NodeConfig::test_small(2);
        cfg.gpu = cfg
            .gpu
            .with_stream_isolation(true)
            .with_kernel_records(true);
        let mut node = GpuNode::new(p, cfg);
        let s0 = node.device_mut(0).create_stream();
        let out0 = node.device_mut(0).malloc(64 * 8);
        let out1 = node.device_mut(1).malloc(64 * 8);
        let kernel0 = if inject { bad } else { good };
        node.device_mut(0)
            .try_launch_on(
                kernel0,
                LaunchDims::linear(2, 32),
                &[out0.0, 0],
                LaunchOptions {
                    stream: s0,
                    deadline: None,
                },
            )
            .expect("launch");
        node.device_mut(1)
            .launch(good, LaunchDims::linear(2, 32), &[out1.0, 0]);
        let results = node.try_sync_all();
        (node, s0, out1, results)
    };

    let (mut faulted, s0, out1, results) = run(true);
    // Device 0's fault is scoped to its stream; the node-wide sync itself
    // succeeds on both devices under stream isolation.
    for r in &results {
        assert!(r.is_ok(), "stream-isolated fault must not fail the sync");
    }
    assert!(
        faulted.device(0).stream_fault(s0).is_some(),
        "device 0's stream carries the fault"
    );
    assert!(faulted.device(1).stream_fault(s0).is_none());
    let bytes_faulted = faulted.device_mut(1).memcpy_d2h(out1, 64 * 8);

    let (mut clean, _, out1c, _) = run(false);
    let bytes_clean = clean.device_mut(1).memcpy_d2h(out1c, 64 * 8);
    assert_eq!(
        bytes_faulted, bytes_clean,
        "device 1's results must not depend on device 0's fault"
    );
    assert_eq!(
        faulted.stats().devices[1],
        clean.stats().devices[1],
        "device 1's counters must not depend on device 0's fault"
    );
}
