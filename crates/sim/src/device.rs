//! The whole-GPU device: SM cluster, interconnect, L2 partitions, DRAM
//! channels, CTA dispatcher, CDP runtime, and the host API.
//!
//! A [`Gpu`] is three owners of state, held as plain fields and borrowed
//! disjointly by the cycle phases (DESIGN.md, "Engine architecture"):
//!
//! * [`lanes`] — the SM side of the ports: every core with its port pair,
//!   the awake-lane list and its lazily credited idle counters.
//! * [`memsys`] — the far side: networks, L2 slices, DRAM channels and
//!   what is in flight between them.
//! * the grid/stream ledger in this struct, edited by [`launch`] (grid
//!   validation/queueing, CTA dispatch, the CDP runtime, retirement) and
//!   [`memcpy`] (`malloc`, host and peer transfers, constant binding, the
//!   PCIe cost model), beside functional [`DeviceMemory`].
//!
//! [`engine`] composes them into the per-cycle loop, `synchronize`, the
//! watchdog and the kill path; [`fastforward`] jumps the spans in which
//! none of them can act. This file is the facade: construction, accessors,
//! statistics, and the profiling surface.
//!
//! One thread ticks one device; a [`crate::GpuNode`] may give each of its
//! devices a host thread of its own.

mod engine;
mod fastforward;
mod lanes;
mod launch;
mod memcpy;
mod memsys;

pub use self::launch::LaunchOptions;

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use ggpu_icnt::DeliveryQueue;
use ggpu_isa::{KernelId, Program};
use ggpu_sm::SmCore;

use crate::config::GpuConfig;
use crate::error::SimError;
use crate::memory::DeviceMemory;
use crate::profile::{
    IntervalSample, KernelPcProfile, KernelRecord, PcProfile, PcProfileRow, ProfileReport, Sampler,
    SmUnit, UnitProfile,
};
use crate::stats::{HostStats, RunStats};
use crate::trace::{TraceBuffer, TraceEvent, TraceEventKind};

use self::lanes::Lanes;
use self::launch::Grid;
use self::memcpy::InboundCopy;
use self::memsys::MemSystem;

/// Identifier of a host-side stream. Stream 0 is the default stream every
/// [`Gpu::launch`] targets; additional streams come from
/// [`Gpu::create_stream`]. Grids on different streams still execute one at
/// a time (the device arbitrates round-robin between stream queues), but
/// faults are scoped: a guest fault, deadlock, or deadline overrun poisons
/// only the owning stream, and [`Gpu::reset_stream`] recovers it while
/// other streams' results stay bit-identical to a fault-free run (under
/// [`GpuConfig::stream_isolation`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub usize);

impl StreamId {
    /// The default stream (CUDA's stream 0).
    pub const DEFAULT: StreamId = StreamId(0);
}

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream {}", self.0)
    }
}

/// Per-stream host state: the FIFO of queued grid handles and the stream's
/// sticky fault, if any.
#[derive(Debug, Default)]
struct StreamState {
    queue: VecDeque<u64>,
    fault: Option<SimError>,
}

/// Interval-sample ring capacity; once full, the oldest sample is evicted
/// (and counted in [`Gpu::samples_dropped`]).
const SAMPLE_RING_CAPACITY: usize = 4096;

/// Trace-buffer capacity in events (terminal fault/deadlock events are
/// retained past it).
const TRACE_CAPACITY: usize = 1 << 20;

/// The simulated GPU plus its host-side API.
///
/// A typical benchmark host program:
///
/// 1. [`Gpu::new`] with a [`Program`] and [`GpuConfig`],
/// 2. [`Gpu::malloc`] / [`Gpu::memcpy_h2d`] to stage inputs,
/// 3. [`Gpu::launch`] one or more grids, [`Gpu::synchronize`] to run them,
/// 4. [`Gpu::memcpy_d2h`] to fetch results, [`Gpu::stats`] for counters.
#[derive(Debug)]
pub struct Gpu {
    config: GpuConfig,
    program: Arc<Program>,
    /// One lane per SM (the core plus the port pair all its traffic
    /// crosses), which of them are awake, and the clock the sleeping ones
    /// are credited from (see DESIGN.md, "Sleeping SMs"). Between runs
    /// every sleeping lane is settled, so `&self` readers see current
    /// counters.
    lanes: Lanes,
    mem: DeviceMemory,
    /// Everything on the far side of the lanes' ports: networks, L2, DRAM.
    memsys: MemSystem,
    cycle: u64,
    /// Peer-to-peer payloads in flight *towards* this device over the node
    /// fabric, applied to memory in the serial post phase at their exact
    /// arrival cycle ([`crate::GpuNode::try_p2p_copy`] stamps them).
    pending_inbound: DeliveryQueue<InboundCopy>,
    /// Host streams; index 0 is the default stream (the legacy host queue).
    streams: Vec<StreamState>,
    /// Stream whose head grid currently owns the device (armed or running),
    /// `None` between host grids.
    active_stream: Option<usize>,
    /// Round-robin arbitration cursor over `streams`.
    stream_cursor: usize,
    /// Finished host grid awaiting canonical-idle retirement
    /// ([`GpuConfig::stream_isolation`] two-phase drain); `None` otherwise.
    draining: Option<u64>,
    device_queue: VecDeque<u64>,
    grids: HashMap<u64, Grid>,
    next_grid: u64,
    /// Retired local-memory arenas available for reuse, as `(size, base)`.
    /// Exact-size recycling keyed off the launch geometry keeps steady-state
    /// serving at zero allocations per batch (see
    /// [`crate::DeviceMemory::alloc_count`]).
    free_arenas: Vec<(u64, u64)>,
    const_bindings: HashMap<u32, Arc<Vec<u8>>>,
    dispatch_cursor: usize,
    /// Reused per-cycle scratch for the device-queue dispatch sweep.
    scratch_handles: Vec<u64>,
    /// Launch shapes `(kernel, threads per CTA)` no SM can currently place,
    /// valid for one dispatch sweep or one fast-forward scan.
    refused_shapes: Vec<(KernelId, u32)>,
    host: HostStats,
    /// Sticky device fault (CUDA semantics): once set, every device-touching
    /// API call returns it until [`Gpu::reset_fault`].
    fault: Option<SimError>,
    /// Last cycle at which the forward-progress watchdog observed activity.
    last_progress: u64,
    /// Cycles elided by idle-cycle fast-forward ([`GpuConfig::fast_forward`]).
    /// These cycles are fully accounted in every counter; this tracks how
    /// much simulated time the engine did not have to tick one-by-one.
    fast_forward_skipped_cycles: u64,
    /// PCIe transfers so far (H2D + D2H), for deterministic drop/poison
    /// injection on the memcpy path.
    memcpys_done: u64,
    /// Fault raised during the current cycle's merge (trap or CDP-limit
    /// violation), resolved against the owning stream at the end of
    /// `cycle_post`.
    pending_fault: Option<SimError>,
    /// The event trace buffer; `None` unless [`GpuConfig::trace`] is set,
    /// which keeps the disabled path at one branch per emission site.
    sink: Option<TraceBuffer>,
    /// Per-kernel records, in retire order (collected while profiling is
    /// enabled).
    records: Vec<KernelRecord>,
    /// Counter snapshot at the last retire boundary (or stats reset); the
    /// base of the next kernel record's delta.
    record_base: RunStats,
    /// Interval sampler, present only when
    /// [`GpuConfig::sample_interval_cycles`] is non-zero.
    sampler: Option<Sampler>,
}

impl Gpu {
    /// Build a GPU running `program` under `config`.
    pub fn new(program: Program, config: GpuConfig) -> Self {
        program
            .validate()
            .unwrap_or_else(|(name, e)| panic!("kernel `{name}` invalid: {e}"));
        let program = Arc::new(program);
        let lanes =
            Lanes::new((0..config.n_sms).map(|_| SmCore::new(config.sm, Arc::clone(&program))));
        let mut mem = DeviceMemory::new();
        mem.set_poison(config.fault_plan.poison);
        Gpu {
            lanes,
            mem,
            memsys: MemSystem::new(&config),
            cycle: 0,
            pending_inbound: DeliveryQueue::new(),
            streams: vec![StreamState::default()],
            active_stream: None,
            stream_cursor: 0,
            draining: None,
            device_queue: VecDeque::new(),
            grids: HashMap::new(),
            next_grid: 1,
            free_arenas: Vec::new(),
            const_bindings: HashMap::new(),
            dispatch_cursor: 0,
            scratch_handles: Vec::new(),
            refused_shapes: Vec::new(),
            host: HostStats::default(),
            fault: None,
            last_progress: 0,
            fast_forward_skipped_cycles: 0,
            memcpys_done: 0,
            pending_fault: None,
            sink: config.trace.then(|| TraceBuffer::new(TRACE_CAPACITY)),
            records: Vec::new(),
            record_base: RunStats::default(),
            sampler: (config.sample_interval_cycles > 0)
                .then(|| Sampler::new(config.sample_interval_cycles, SAMPLE_RING_CAPACITY)),
            config,
            program,
        }
    }

    /// The configuration the GPU was built with.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The program loaded on the device.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Current simulated cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Offset all future grid handles by `base` (`next_grid` becomes
    /// `base + 1`). A node calls this once per device at construction (with
    /// `device_index << 40`) so grid handles — the join key between kernel
    /// records, trace events, and serving telemetry — stay unique across
    /// every device in the node. Must be called before the first launch.
    pub fn set_grid_base(&mut self, base: u64) {
        debug_assert_eq!(self.next_grid, 1, "grid base must be set before launches");
        self.next_grid = base + 1;
    }

    /// Simulated cycles elided by idle-cycle fast-forward so far (see
    /// [`GpuConfig::fast_forward`]). Every skipped cycle is fully credited
    /// to the counters, so `stats()` is independent of this value; it
    /// measures engine efficiency, not workload behaviour.
    pub fn fast_forward_skipped_cycles(&self) -> u64 {
        self.fast_forward_skipped_cycles
    }

    /// Functional device memory (for test setup/inspection).
    pub fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    /// Mutable functional device memory.
    pub fn memory_mut(&mut self) -> &mut DeviceMemory {
        &mut self.mem
    }

    /// The sticky fault the device is currently in, if any. This is the
    /// *device-wide* fault (default-stream semantics); per-stream faults
    /// are reported by [`Gpu::stream_fault`].
    pub fn fault(&self) -> Option<&SimError> {
        self.fault.as_ref()
    }

    /// Clear the sticky fault state and return it. The device was already
    /// halted and drained when the fault was raised, so it is immediately
    /// ready for new launches (memory contents and statistics survive).
    ///
    /// Besides taking the fault, this scrubs recovery-relevant residue the
    /// halt could not know about: the default stream's own fault marker,
    /// CDP pending-launch entries whose grids are gone (drained but never
    /// retired), the watchdog's progress marker (so the next launch starts
    /// its stall count from zero instead of inheriting the hang's), and —
    /// when profiling — the record-delta base (so the next kernel record
    /// does not absorb the killed span's counters).
    pub fn reset_fault(&mut self) -> Option<SimError> {
        let err = self.fault.take();
        self.streams[0].fault = None;
        self.device_queue
            .retain(|h| self.grids.contains_key(h) && !self.grids[h].finished());
        self.last_progress = self.cycle;
        if self.profiling_enabled() {
            self.record_base = self.stats();
        }
        err
    }

    // ---- streams ----------------------------------------------------------

    /// Create a new host stream and return its id. Streams are never
    /// destroyed; a faulted stream is recycled with [`Gpu::reset_stream`].
    pub fn create_stream(&mut self) -> StreamId {
        self.streams.push(StreamState::default());
        StreamId(self.streams.len() - 1)
    }

    /// The sticky fault `stream` is in, if any. A faulted stream rejects
    /// new launches and holds no in-flight work (its grids were killed when
    /// the fault was raised); other streams keep running.
    pub fn stream_fault(&self, stream: StreamId) -> Option<&SimError> {
        self.streams.get(stream.0).and_then(|s| s.fault.as_ref())
    }

    /// Clear `stream`'s sticky fault and return it, restoring the stream to
    /// a usable state. The stream's in-flight work was already killed when
    /// the fault was raised; queued grids that never started were dropped
    /// with it. Resetting stream 0 also clears the device-wide fault (they
    /// are the same fault — the default stream keeps CUDA's device-sticky
    /// semantics).
    pub fn reset_stream(&mut self, stream: StreamId) -> Option<SimError> {
        if stream.0 == 0 {
            return self.reset_fault();
        }
        self.streams.get_mut(stream.0).and_then(|s| s.fault.take())
    }

    // ---- statistics -------------------------------------------------------

    /// Snapshot all counters. Mid-run callers settle the lanes first, so
    /// sleeping lanes are credited up to the current cycle.
    pub fn stats(&self) -> RunStats {
        let mut r = RunStats {
            host: self.host,
            ..RunStats::default()
        };
        for sm in self.lanes.all_cores() {
            r.sm.merge(sm.stats());
            r.l1.merge(sm.l1_stats());
        }
        self.memsys.stats_into(&mut r);
        r
    }

    /// Reset every statistic (not memory contents or cache tags), including
    /// per-kernel records, interval samples, and the trace buffer.
    pub fn reset_stats(&mut self) {
        self.host = HostStats::default();
        self.fast_forward_skipped_cycles = 0;
        for lane in self.lanes.all_mut() {
            let _ = lane.core.take_stats();
            lane.core.reset_cache_stats();
            lane.core.reset_pc_table();
        }
        self.memsys.reset_stats();
        self.records.clear();
        self.record_base = RunStats::default();
        if let Some(s) = &mut self.sampler {
            let interval = s.interval;
            let capacity = s.capacity;
            *s = Sampler::new(interval, capacity);
            s.last_boundary = self.cycle;
        }
        if let Some(b) = &mut self.sink {
            let _ = b.take();
        }
    }

    // ---- profiling --------------------------------------------------------

    /// Whether the profiling layer is collecting anything: tracing is on,
    /// interval sampling is on, per-PC attribution is on, and/or
    /// standalone kernel records are requested
    /// ([`GpuConfig::kernel_records`]). Per-kernel records are collected
    /// exactly while this is true. Profiling never changes simulated timing
    /// or [`Gpu::stats`] — with everything disabled the per-cycle cost is a
    /// single branch.
    pub fn profiling_enabled(&self) -> bool {
        self.trace_on()
            || self.sampler.is_some()
            || self.config.sm.attribution
            || self.config.kernel_records
    }

    /// Per-kernel counter records collected so far, in retire order.
    pub fn kernel_records(&self) -> &[KernelRecord] {
        &self.records
    }

    /// Completed interval samples currently in the ring, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &IntervalSample> + '_ {
        self.sampler.iter().flat_map(|s| s.ring.iter())
    }

    /// Samples evicted from the ring so far.
    pub fn samples_dropped(&self) -> u64 {
        self.sampler.as_ref().map_or(0, |s| s.dropped)
    }

    /// Events recorded by the trace buffer (empty when tracing is off).
    pub fn trace_events(&self) -> &[TraceEvent] {
        self.sink.as_ref().map_or(&[], TraceBuffer::events)
    }

    /// The code axis of attribution: per-PC counters merged across SMs in
    /// SM-index order and symbolicated against the loaded program. `None`
    /// unless the GPU was built with [`ggpu_sm::SmConfig::attribution`].
    pub fn pc_profile(&self) -> Option<PcProfile> {
        let mut merged: Option<ggpu_sm::PcTable> = None;
        for core in self.lanes.all_cores() {
            let t = core.pc_table()?;
            match &mut merged {
                Some(m) => m.merge(t),
                None => merged = Some(t.clone()),
            }
        }
        let merged = merged?;
        let kernels = self
            .program
            .iter()
            .map(|(kid, k)| KernelPcProfile {
                kernel_id: kid.0,
                kernel: k.name.clone(),
                rows: merged
                    .kernel(kid)
                    .iter()
                    .enumerate()
                    .map(|(pc, c)| PcProfileRow {
                        pc,
                        instr: k.instrs[pc].to_string(),
                        counters: *c,
                    })
                    .collect(),
            })
            .collect();
        Some(PcProfile {
            kernels,
            unattributed: *merged.unattributed(),
        })
    }

    /// The space axis of attribution: every counter resolved per hardware
    /// unit. Always available — these are the units' own live counters.
    pub fn unit_profile(&self) -> UnitProfile {
        let sms = self
            .lanes
            .all_cores()
            .enumerate()
            .map(|(sm, core)| {
                let (req_injected, rep_delivered) = self.memsys.sm_traffic(sm);
                SmUnit {
                    sm,
                    stats: core.stats().clone(),
                    l1: *core.l1_stats(),
                    req_injected,
                    rep_delivered,
                }
            })
            .collect();
        UnitProfile {
            sms,
            partitions: self.memsys.partition_profile(),
        }
    }

    /// Take everything the profiler has collected as one machine-readable
    /// [`ProfileReport`], leaving the profiler empty (subsequent records and
    /// samples start from the current counter values).
    pub fn take_profile(&mut self) -> ProfileReport {
        self.flush_sample();
        let stats = self.stats();
        let (samples, samples_dropped) = match &mut self.sampler {
            Some(s) => (
                std::mem::take(&mut s.ring).into_iter().collect(),
                std::mem::take(&mut s.dropped),
            ),
            None => (Vec::new(), 0),
        };
        let (events, events_dropped) = self
            .sink
            .as_mut()
            .map(TraceBuffer::take)
            .unwrap_or_default();
        self.record_base = stats.clone();
        ProfileReport {
            stats,
            clock_ghz: self.config.clock_ghz,
            kernels: std::mem::take(&mut self.records),
            samples,
            samples_dropped,
            events,
            events_dropped,
            pc: self.pc_profile(),
            units: self.unit_profile(),
        }
    }

    #[inline]
    fn trace_on(&self) -> bool {
        self.sink.is_some()
    }

    /// Record one event. Callers guard with [`Gpu::trace_on`] so the
    /// disabled path never constructs an event.
    fn emit(&mut self, kind: TraceEventKind) {
        if let Some(b) = &mut self.sink {
            b.event(TraceEvent {
                cycle: self.cycle,
                kind,
            });
        }
    }

    /// Display name for a kernel id.
    fn kernel_name(&self, id: KernelId) -> String {
        self.program
            .get(id)
            .map(|k| k.name.clone())
            .unwrap_or_else(|| format!("k{}", id.0))
    }

    /// Close the sampler's current window at this cycle (no-op when
    /// sampling is off or no cycles elapsed since the last boundary).
    fn flush_sample(&mut self) {
        if self.sampler.is_some() {
            let snap = self.stats();
            if let Some(s) = &mut self.sampler {
                s.close_window(self.cycle, &snap);
            }
        }
    }
}
