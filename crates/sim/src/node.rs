//! # Multi-GPU node: devices joined by a second-level fabric.
//!
//! A [`GpuNode`] owns N [`Gpu`] instances (each the full sharded,
//! port-decoupled engine) and a node-level `ggpu-icnt` network — the same
//! flit/flow model the on-chip interconnects use, instantiated a second
//! time with one endpoint pair per device, 16-byte flits and a fixed link
//! latency — carrying explicit peer-to-peer copies between device memories.
//!
//! ## Determinism protocol
//!
//! The node is bit-identical at any host parallelism because fabric
//! traffic only ever moves at *host-serial* points:
//!
//! 1. [`GpuNode::try_p2p_copy`] runs on the host thread between device
//!    syncs. It resolves the transfer against a monotone **fabric clock**
//!    (the max of the participating devices' cycle counters and all prior
//!    fabric activity), so link contention is a pure function of the call
//!    order — which the host program fixes.
//! 2. The payload is queued into the destination's inbound
//!    [`ggpu_icnt::DeliveryQueue`] stamped with an arrival on the
//!    *destination's own* clock. The destination applies it in the serial
//!    post phase of exactly that cycle (its fast-forward is vetoed past
//!    the arrival), so device memory evolves identically whether the
//!    devices later simulate on one host thread or eight.
//! 3. [`GpuNode::try_sync_all`] runs the devices to completion — on
//!    parallel host threads when [`NodeConfig::parallel_hosts`] is set —
//!    and merges results in device-index order. Devices exchange no state
//!    while running (all fabric traffic was resolved in steps 1–2), so
//!    the parallel and serial paths are bit-identical by construction.
//!
//! Faults stay device-scoped: a P2P copy whose source device is faulted
//! returns that device's sticky error, and one whose source or destination
//! range is not allocated memory returns [`SimError::InvalidCopy`] — either
//! way before the fabric, a transfer counter or a byte of memory is
//! touched. A stream fault inside one device's sync leaves every other
//! device's result untouched.
//!
//! ## Example
//!
//! ```
//! use ggpu_sim::{shard_ranges, GpuNode, NodeConfig};
//! use ggpu_isa::Program;
//!
//! let mut node = GpuNode::new(Program::new(), NodeConfig::test_small(2));
//! let a = node.device_mut(0).malloc(64);
//! let b = node.device_mut(1).malloc(64);
//! node.device_mut(0).memcpy_h2d(a, &[7u8; 64]);
//! node.p2p_copy(0, a, 1, b, 64);
//! node.sync_all();
//! assert_eq!(node.device_mut(1).memcpy_d2h(b, 64), vec![7u8; 64]);
//! assert_eq!(shard_ranges(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
//! ```

use std::ops::Range;

use ggpu_icnt::{Icnt, IcntConfig, IcntStats};
use ggpu_isa::Program;

use crate::config::GpuConfig;
use crate::device::Gpu;
use crate::error::SimError;
use crate::memory::DevicePtr;
use crate::stats::RunStats;
use crate::trace::{chrome_trace_json, CopyDir, TraceEvent};

/// Shift giving each device a disjoint grid-handle namespace
/// (`device << 40 | per-device counter`), so kernel records from different
/// devices never collide when merged into one report.
const GRID_BASE_SHIFT: u32 = 40;

/// Flit width of the inter-GPU fabric — an NVLink-ish point-to-point
/// network with crossbar reachability: narrower than the on-chip 40 B,
/// inter-package links serialize more.
const FABRIC_FLIT_BYTES: u32 = 16;

/// Fixed cycles added to every fabric transfer on top of the network model
/// (the NVLink-style serdes/protocol cost that the flit model's 1-cycle hops
/// don't capture).
const FABRIC_LINK_LATENCY: u64 = 700;

/// Configuration for a [`GpuNode`].
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Number of devices in the node.
    pub n_devices: usize,
    /// Per-device configuration (every device is identical).
    pub gpu: GpuConfig,
    /// Simulate devices on parallel host threads in
    /// [`GpuNode::try_sync_all`]. Purely a wall-clock decision: results
    /// are bit-identical either way (see the module docs).
    pub parallel_hosts: bool,
}

impl NodeConfig {
    /// A node of `n` devices with the given per-device configuration and
    /// parallel host simulation.
    pub fn new(n_devices: usize, gpu: GpuConfig) -> Self {
        NodeConfig {
            n_devices,
            gpu,
            parallel_hosts: true,
        }
    }

    /// A small node for tests: `n` × [`GpuConfig::test_small`] devices.
    pub fn test_small(n_devices: usize) -> Self {
        Self::new(n_devices, GpuConfig::test_small())
    }

    /// Toggle parallel host simulation (builder style).
    pub fn with_parallel_hosts(mut self, on: bool) -> Self {
        self.parallel_hosts = on;
        self
    }
}

/// Node-level statistics: per-device [`RunStats`] plus the fabric's
/// aggregate counters. Per-device counters telescope exactly to
/// [`NodeStats::total`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// One entry per device, in device-index order.
    pub devices: Vec<RunStats>,
    /// Inter-GPU fabric counters.
    pub fabric: IcntStats,
}

impl NodeStats {
    /// The node total: every per-device counter merged with
    /// [`RunStats::merge`] (sums, except `sm.cycles` which merges as a
    /// max — the devices run concurrently).
    pub fn total(&self) -> RunStats {
        let mut total = RunStats::default();
        for d in &self.devices {
            total.merge(d);
        }
        total
    }
}

/// N GPUs joined by an explicit inter-GPU fabric.
///
/// See the module docs for the determinism protocol. Devices are driven
/// through [`GpuNode::device_mut`] exactly as a single [`Gpu`] would be;
/// the node adds peer-to-peer copies ([`GpuNode::try_p2p_copy`]), a
/// node-wide sync ([`GpuNode::try_sync_all`]), merged statistics
/// ([`GpuNode::stats`]), and a per-device-pid Chrome trace
/// ([`GpuNode::chrome_trace`]).
#[derive(Debug)]
pub struct GpuNode {
    devices: Vec<Gpu>,
    fabric: Icnt,
    fabric_clock: u64,
    parallel_hosts: bool,
}

impl GpuNode {
    /// Build a node of `config.n_devices` identical devices all loaded
    /// with `program`.
    ///
    /// # Panics
    ///
    /// Panics if `config.n_devices` is zero.
    pub fn new(program: Program, config: NodeConfig) -> Self {
        assert!(config.n_devices > 0, "a node needs at least one device");
        let devices = (0..config.n_devices)
            .map(|d| {
                let mut gpu = Gpu::new(program.clone(), config.gpu.clone());
                gpu.set_grid_base((d as u64) << GRID_BASE_SHIFT);
                gpu
            })
            .collect();
        GpuNode {
            devices,
            fabric: Icnt::new(
                IcntConfig {
                    flit_bytes: FABRIC_FLIT_BYTES,
                    ..IcntConfig::default()
                },
                config.n_devices,
                config.n_devices,
            ),
            fabric_clock: 0,
            parallel_hosts: config.parallel_hosts,
        }
    }

    /// Number of devices in the node.
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// Device `d`, immutable.
    pub fn device(&self, d: usize) -> &Gpu {
        &self.devices[d]
    }

    /// Device `d`, mutable — the handle through which kernels are
    /// launched and memory managed, exactly as on a single [`Gpu`].
    pub fn device_mut(&mut self, d: usize) -> &mut Gpu {
        &mut self.devices[d]
    }

    /// Iterate over the devices in index order.
    pub fn devices(&self) -> impl Iterator<Item = &Gpu> + '_ {
        self.devices.iter()
    }

    /// Copy `len` bytes from device `src`'s memory at `sptr` into device
    /// `dst`'s memory at `dptr`, over the fabric.
    ///
    /// Returns the modelled transfer latency in cycles. The source is
    /// charged immediately (counters and trace event); the payload lands
    /// in the destination's memory when its own clock reaches
    /// `dst.cycle() + latency` — i.e. during the next
    /// [`GpuNode::try_sync_all`] (or `tick`) that advances past the
    /// arrival. P2P transfers run the same fault-injection hooks as PCIe
    /// memcpys and share their transfer counter on the source device.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either index is out of range.
    pub fn try_p2p_copy(
        &mut self,
        src: usize,
        sptr: DevicePtr,
        dst: usize,
        dptr: DevicePtr,
        len: usize,
    ) -> Result<u64, SimError> {
        assert_ne!(src, dst, "P2P copy needs two distinct devices");
        // Monotone fabric clock: never behind either participant, never
        // behind prior fabric traffic — contention is a pure function of
        // host call order.
        let now = self
            .fabric_clock
            .max(self.devices[src].cycle())
            .max(self.devices[dst].cycle());
        // Nothing touches the fabric, the transfer counter or either memory
        // until the source is healthy and both ends name allocated memory.
        if let Some(f) = self.devices[src].fault() {
            return Err(f.clone());
        }
        self.devices[src].check_copy(CopyDir::P2P, sptr, len)?;
        self.devices[dst].check_copy(CopyDir::P2P, dptr, len)?;
        let bytes = self.devices[src].p2p_read(sptr, len)?;
        let packet = u32::try_from(len).unwrap_or(u32::MAX);
        let from = self.fabric.src_node(src);
        let to = self.fabric.dst_node(dst);
        let arrival = self.fabric.send(from, to, packet, now);
        let latency = (arrival - now) + FABRIC_LINK_LATENCY;
        self.fabric_clock = now;
        self.devices[src].p2p_charge_out(len as u64, latency);
        let dst_arrival = self.devices[dst].cycle() + latency;
        self.devices[dst].p2p_queue_inbound(dst_arrival, dptr, latency, bytes);
        Ok(latency)
    }

    /// Copy between device memories over the fabric.
    ///
    /// # Panics
    ///
    /// Panics where [`GpuNode::try_p2p_copy`] would return an error.
    pub fn p2p_copy(
        &mut self,
        src: usize,
        sptr: DevicePtr,
        dst: usize,
        dptr: DevicePtr,
        len: usize,
    ) {
        self.try_p2p_copy(src, sptr, dst, dptr, len)
            .unwrap_or_else(|e| panic!("p2p_copy failed: {e}"));
    }

    /// Run every device to completion, in parallel host threads when
    /// configured, returning each device's result in device-index order.
    ///
    /// A fault on one device (its `Err`) does not disturb the others:
    /// each device syncs independently, and all fabric traffic was
    /// already resolved before the devices started running.
    pub fn try_sync_all(&mut self) -> Vec<Result<u64, SimError>> {
        if self.parallel_hosts && self.devices.len() > 1 {
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .devices
                    .iter_mut()
                    .map(|g| s.spawn(move || g.try_synchronize()))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("device thread panicked"))
                    .collect()
            })
        } else {
            self.devices.iter_mut().map(Gpu::try_synchronize).collect()
        }
    }

    /// Run every device to completion.
    ///
    /// # Panics
    ///
    /// Panics if any device faults or deadlocks.
    pub fn sync_all(&mut self) {
        for (d, r) in self.try_sync_all().into_iter().enumerate() {
            if let Err(e) = r {
                panic!("device {d} sync failed: {e}");
            }
        }
    }

    /// Whether any device still has work pending.
    pub fn busy(&self) -> bool {
        self.devices.iter().any(Gpu::busy)
    }

    /// Node-level statistics: per-device [`RunStats`] (telescoping to
    /// [`NodeStats::total`]) plus fabric counters.
    pub fn stats(&self) -> NodeStats {
        NodeStats {
            devices: self.devices.iter().map(Gpu::stats).collect(),
            fabric: *self.fabric.stats(),
        }
    }

    /// One Chrome trace for the whole node: device `d`'s events render
    /// under pid `d` (process label `gpu<d>`), with kernels and P2P/PCIe
    /// transfers on the same per-device thread rows a single-device trace
    /// uses. Requires [`GpuConfig::trace`] on the devices.
    pub fn chrome_trace(&self) -> String {
        let logs: Vec<(String, &[TraceEvent])> = self
            .devices
            .iter()
            .enumerate()
            .map(|(d, g)| (format!("gpu{d}"), g.trace_events()))
            .collect();
        chrome_trace_json(&logs)
    }
}

/// The device index a grid handle was issued by, for any grid launched
/// through a [`GpuNode`] (handles embed their device:
/// `device << 40 | per-device counter`). Grids from a standalone
/// [`Gpu`] map to device 0.
pub fn grid_device(grid: u64) -> usize {
    (grid >> GRID_BASE_SHIFT) as usize
}

/// Partition `n_items` into `n_shards` contiguous ranges in order, sizes
/// differing by at most one (the remainder spreads over the first
/// shards). Shards beyond `n_items` come back empty, so callers can
/// always index `ranges[d]` for device `d`. This is the node's work
/// partitioner: contiguous-in-order shards make the merged result
/// (concatenation in device-index order) identical to the unsharded run.
///
/// # Panics
///
/// Panics if `n_shards` is zero.
pub fn shard_ranges(n_items: usize, n_shards: usize) -> Vec<Range<usize>> {
    assert!(n_shards > 0, "cannot shard over zero shards");
    let base = n_items / n_shards;
    let rem = n_items % n_shards;
    let mut out = Vec::with_capacity(n_shards);
    let mut start = 0;
    for s in 0..n_shards {
        let len = base + usize::from(s < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultPlan;
    use ggpu_isa::{KernelBuilder, LaunchDims, Operand, Space, Width};

    fn double_program() -> (Program, ggpu_isa::KernelId) {
        let mut b = KernelBuilder::new("double");
        let tid = b.global_tid();
        let v = b.reg();
        b.imul(v, tid, Operand::imm(2));
        let base = b.reg();
        b.ld_param(base, 0);
        let a = b.reg();
        b.imul(a, tid, Operand::imm(8));
        b.iadd(a, a, Operand::reg(base));
        b.st(Space::Global, Width::B64, Operand::reg(v), a, 0);
        b.exit();
        let mut p = Program::new();
        let k = p.add(b.finish());
        (p, k)
    }

    #[test]
    fn shard_ranges_cover_exactly_once() {
        for n_items in [0usize, 1, 7, 64, 1000] {
            for n_shards in [1usize, 2, 3, 4, 7] {
                let ranges = shard_ranges(n_items, n_shards);
                assert_eq!(ranges.len(), n_shards);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous in order");
                    next = r.end;
                }
                assert_eq!(next, n_items, "covers all items");
                let max = ranges.iter().map(|r| r.len()).max().unwrap();
                let min = ranges.iter().map(|r| r.len()).min().unwrap();
                assert!(max - min <= 1, "balanced within one");
            }
        }
    }

    #[test]
    fn p2p_roundtrip_delivers_payload() {
        let (p, _) = double_program();
        let mut node = GpuNode::new(p, NodeConfig::test_small(2));
        let a = node.device_mut(0).malloc(256);
        let b = node.device_mut(1).malloc(256);
        let data: Vec<u8> = (0..=255).collect();
        node.device_mut(0).memcpy_h2d(a, &data);
        let latency = node.try_p2p_copy(0, a, 1, b, 256).expect("p2p");
        assert!(latency >= 700, "link latency floor, got {latency}");
        // Not yet visible: the payload is in flight on the fabric.
        assert!(node.device(1).busy());
        node.sync_all();
        assert_eq!(node.device_mut(1).memcpy_d2h(b, 256), data);
        let s = node.stats();
        assert_eq!(s.devices[0].host.p2p_sends, 1);
        assert_eq!(s.devices[0].host.p2p_bytes_out, 256);
        assert_eq!(s.devices[1].host.p2p_recvs, 1);
        assert_eq!(s.devices[1].host.p2p_bytes_in, 256);
        assert_eq!(s.fabric.packets, 1);
        let total = s.total();
        assert_eq!(total.host.p2p_sends, 1);
        assert_eq!(total.host.p2p_recvs, 1);
    }

    #[test]
    fn p2p_shares_memcpy_fault_counter() {
        let (p, _) = double_program();
        let mut cfg = NodeConfig::test_small(2);
        // Transfer #1 on device 0 is the P2P read (transfer #0 is the H2D).
        cfg.gpu.fault_plan = FaultPlan {
            drop_memcpy: Some(1),
            ..FaultPlan::default()
        };
        let mut node = GpuNode::new(p, cfg);
        let a = node.device_mut(0).malloc(64);
        let b = node.device_mut(1).malloc(64);
        node.device_mut(0).memcpy_h2d(a, &[9u8; 64]);
        let err = node.try_p2p_copy(0, a, 1, b, 64).unwrap_err();
        match err {
            SimError::MemcpyDropped { index, dir } => {
                assert_eq!(index, 1);
                assert_eq!(dir, CopyDir::P2P);
            }
            other => panic!("expected MemcpyDropped, got {other}"),
        }
        // Non-sticky: the same copy succeeds on retry, and the
        // destination never saw the dropped transfer.
        node.try_p2p_copy(0, a, 1, b, 64).expect("retry");
        node.sync_all();
        assert_eq!(node.device_mut(1).memcpy_d2h(b, 64), vec![9u8; 64]);
    }

    #[test]
    fn sharded_kernel_matches_single_device() {
        let n_items = 1024u64;
        // Single device, whole problem.
        let (p, k) = double_program();
        let mut gpu = Gpu::new(p, GpuConfig::test_small());
        let out = gpu.malloc(n_items * 8);
        gpu.run_kernel(k, LaunchDims::linear((n_items / 32) as u32, 32), &[out.0]);
        let reference = gpu.memcpy_d2h(out, (n_items * 8) as usize);

        // Two devices, half each, merged in device-index order.
        let (p, k) = double_program();
        let mut node = GpuNode::new(p, NodeConfig::test_small(2));
        let shards = shard_ranges(n_items as usize, 2);
        let mut merged = Vec::new();
        for (d, r) in shards.iter().enumerate() {
            let n = r.len() as u64;
            let out = node.device_mut(d).malloc(n * 8);
            node.device_mut(d)
                .launch(k, LaunchDims::linear((n / 32) as u32, 32), &[out.0]);
            node.sync_all();
            let bytes = node.device_mut(d).memcpy_d2h(out, (n * 8) as usize);
            // Shard d computes tids 0..n; rebase to the global index.
            for (i, chunk) in bytes.chunks_exact(8).enumerate() {
                let v = u64::from_le_bytes(chunk.try_into().unwrap());
                merged.push(((r.start as u64 + i as u64) * 2, v + r.start as u64 * 2));
            }
        }
        for (i, chunk) in reference.chunks_exact(8).enumerate() {
            let want = u64::from_le_bytes(chunk.try_into().unwrap());
            assert_eq!(merged[i].1, want, "item {i}");
            assert_eq!(merged[i].0, want, "item {i} global value");
        }
    }

    #[test]
    fn parallel_and_serial_hosts_are_bit_identical() {
        let run = |parallel: bool| {
            let (p, k) = double_program();
            let mut node = GpuNode::new(p, NodeConfig::test_small(2).with_parallel_hosts(parallel));
            let mut outs = Vec::new();
            for d in 0..2 {
                let out = node.device_mut(d).malloc(256 * 8);
                node.device_mut(d)
                    .launch(k, LaunchDims::linear(8, 32), &[out.0]);
                outs.push(out);
            }
            node.sync_all();
            // Cross-copy results over the fabric and sync again.
            let x0 = node.device_mut(1).malloc(256 * 8);
            node.p2p_copy(0, outs[0], 1, x0, 256 * 8);
            node.sync_all();
            let stats = node.stats();
            let mem: Vec<Vec<u8>> = (0..2)
                .map(|d| node.device_mut(d).memcpy_d2h(outs[d], 256 * 8))
                .collect();
            (stats, mem)
        };
        let (s_ser, m_ser) = run(false);
        let (s_par, m_par) = run(true);
        assert_eq!(s_ser, s_par);
        assert_eq!(m_ser, m_par);
    }

    #[test]
    fn grid_handles_are_disjoint_across_devices() {
        let (p, k) = double_program();
        let mut cfg = NodeConfig::test_small(2);
        cfg.gpu.trace = true;
        let mut node = GpuNode::new(p, cfg);
        for d in 0..2 {
            let out = node.device_mut(d).malloc(64 * 8);
            node.device_mut(d)
                .launch(k, LaunchDims::linear(2, 32), &[out.0]);
        }
        node.sync_all();
        let g0 = node.device(0).kernel_records()[0].grid;
        let g1 = node.device(1).kernel_records()[0].grid;
        assert_ne!(g0, g1);
        assert_eq!(g1 >> GRID_BASE_SHIFT, 1);
    }
}
