//! The lanes and who visits them: the awake-lane list with its lazily
//! credited idle counters, shared by every engine variant, and the
//! SM-sharded multi-threaded executor behind
//! [`crate::GpuConfig::sim_threads`].
//!
//! # Sleeping lanes
//!
//! Ticking an SM with nothing resident, no request in flight, an empty
//! reply port and nothing left to merge changes only its idle counters, and
//! by an amount that is a pure function of how many cycles went by and how
//! many of them saw the device busy. Such a lane leaves the [`WakeList`] at
//! the end of the post phase and is then visited by nothing — not the SM
//! phase, the merge, the fast-forward scan or `busy` — until CTA dispatch
//! wakes it. The device keeps the two running totals in an [`IdleClock`];
//! a sleeping lane remembers the reading it is credited up to and receives
//! the difference when it wakes or at a settle point (anything that reads
//! counters). DESIGN.md, "Sleeping SMs", has the invariant in full.
//!
//! # Why the threaded engine is deterministic
//!
//! Only the SM phase of a cycle runs concurrently, and during it every lane
//! touches exclusively its own core and ports while reading device memory
//! through an immutable snapshot (stores and global atomics are deferred to
//! per-SM [`ggpu_sm::MemOp`] logs). The serial pre/post phases — which do
//! all the cross-SM merging, waking and sleeping — always run on one
//! thread, in SM-index order. Scheduling can therefore change *when* a lane
//! computes its output, never *what* the output is or the order it is
//! merged in, so every counter, profile, and trace is bit-identical for any
//! thread count.
//!
//! # Shape
//!
//! `synchronize` with `sim_threads = N > 1` splits the lanes into N
//! contiguous shards. Worker threads (spawned once per `synchronize`, not
//! per cycle) own shards `1..N`; the main thread runs the serial sections
//! and ticks shard 0 itself. Each owner ticks the awake lanes of its shard
//! — a contiguous run of the ascending awake list. Two barriers fence each
//! **epoch** — one active cycle plus the dead span fast-forwarded behind it
//! (see [`super::fastforward`]), which the main thread retires inside the
//! post-phase while the workers are parked:
//!
//! ```text
//! main:    [busy? pre-phase]  A  [tick shard 0]  B  [post-phase, checks,
//!                                                    fast-forward span]
//! worker:                     A  [tick shard i]  B
//! ```
//!
//! Shards live in `Mutex`es and memory and the wake list in `RwLock`s
//! purely to satisfy the compiler's aliasing rules; the barriers already
//! order every access, so no lock is ever contended.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockWriteGuard};

use ggpu_isa::KernelId;
use ggpu_sm::{SmCore, SmPorts};

use crate::error::SimError;
use crate::memory::DeviceMemory;

use super::Gpu;

/// Device-wide running totals that a sleeping lane's per-cycle side effects
/// are a pure function of: cycles elapsed, and cycles elapsed while the
/// device was busy ([`Gpu::device_busy_at`]). Advanced by one per ticked
/// cycle and by the span per fast-forwarded span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct IdleClock {
    cycles: u64,
    busy_cycles: u64,
}

/// One SM "lane": the core plus the port pair all its traffic crosses.
#[derive(Debug)]
pub(super) struct SmLane {
    pub(super) core: SmCore,
    pub(super) ports: SmPorts,
    /// `None` while the lane is awake (ticked, merged and scanned every
    /// cycle). A sleeping lane holds the [`IdleClock`] reading up to which
    /// its idle cycles have been credited to its counters.
    credited_to: Option<IdleClock>,
}

impl SmLane {
    /// A lane with nothing resident, asleep since cycle 0.
    pub(super) fn new(core: SmCore) -> Self {
        SmLane {
            core,
            ports: SmPorts::new(),
            credited_to: Some(IdleClock::default()),
        }
    }

    /// Bring a sleeping lane's counters up to `clock`. No-op when awake.
    fn settle(&mut self, clock: IdleClock) {
        if let Some(at) = &mut self.credited_to {
            self.core
                .credit_idle(clock.cycles - at.cycles, clock.busy_cycles - at.busy_cycles);
            *at = clock;
        }
    }

    /// Nothing resident, nothing in flight, nothing to merge: ticking this
    /// lane can only bump its idle counters.
    fn can_sleep(&self) -> bool {
        self.core.is_idle()
            && !self.core.has_outstanding()
            && self.ports.replies.is_empty()
            && self.ports.out.is_empty()
    }
}

/// The awake-lane list (SM indices, ascending — the merge order) and the
/// clock sleeping lanes are credited from. Lives in the [`Gpu`] between
/// runs and is checked out with the lanes for the duration of one.
#[derive(Debug, Default)]
pub(super) struct WakeList {
    awake: Vec<usize>,
    clock: IdleClock,
}

impl WakeList {
    /// Awake SM indices, ascending.
    pub(super) fn awake(&self) -> &[usize] {
        &self.awake
    }

    /// Credit every sleeping lane up to the current clock, so that reading
    /// any lane's counters sees what ticking it every cycle would have
    /// produced. Lanes stay asleep.
    pub(super) fn settle<'l>(&self, lanes: impl Iterator<Item = &'l mut SmLane>) {
        for lane in lanes {
            lane.settle(self.clock);
        }
    }
}

/// Lane storage: one contiguous slice (serial path, indexed directly) or
/// one slice per locked shard (parallel path). In the sharded case global
/// SM index `i` maps to `shards[i / chunk][i % chunk]`, which is exact
/// because every shard except the last holds exactly `chunk` lanes.
enum Store<'a> {
    One(&'a mut [SmLane]),
    Sharded {
        shards: Vec<&'a mut [SmLane]>,
        chunk: usize,
    },
}

impl<'a> Store<'a> {
    fn get(&self, i: usize) -> &SmLane {
        match self {
            Store::One(lanes) => &lanes[i],
            Store::Sharded { shards, chunk } => &shards[i / chunk][i % chunk],
        }
    }

    fn get_mut(&mut self, i: usize) -> &mut SmLane {
        match self {
            Store::One(lanes) => &mut lanes[i],
            Store::Sharded { shards, chunk } => &mut shards[i / *chunk][i % *chunk],
        }
    }

    fn shards(&self) -> &[&'a mut [SmLane]] {
        match self {
            Store::One(lanes) => std::slice::from_ref(lanes),
            Store::Sharded { shards, .. } => shards,
        }
    }

    fn shards_mut(&mut self) -> &mut [&'a mut [SmLane]] {
        match self {
            Store::One(lanes) => std::slice::from_mut(lanes),
            Store::Sharded { shards, .. } => shards,
        }
    }
}

/// Uniform access to the lanes and their [`WakeList`] for the serial
/// phases of a cycle. Everything on the per-cycle path goes through the
/// awake list; only settle points and stream-wide resets visit every lane.
pub(super) struct LaneSet<'a> {
    store: Store<'a>,
    wake: &'a mut WakeList,
    len: usize,
}

impl<'a> LaneSet<'a> {
    /// The serial case: all lanes in one slice.
    pub(super) fn single(lanes: &'a mut [SmLane], wake: &'a mut WakeList) -> Self {
        LaneSet {
            len: lanes.len(),
            store: Store::One(lanes),
            wake,
        }
    }

    /// The parallel case: one slice per locked shard, each of `chunk` lanes
    /// (except possibly the last).
    fn sharded(
        guards: &'a mut [MutexGuard<'_, Vec<SmLane>>],
        chunk: usize,
        wake: &'a mut WakeList,
    ) -> Self {
        LaneSet {
            len: guards.iter().map(|g| g.len()).sum(),
            store: Store::Sharded {
                shards: guards.iter_mut().map(|g| g.as_mut_slice()).collect(),
                chunk,
            },
            wake,
        }
    }

    /// Number of lanes (SMs), awake or not.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// The lane at global SM index `i`.
    pub(super) fn lane(&self, i: usize) -> &SmLane {
        self.store.get(i)
    }

    /// The lane at global SM index `i`.
    pub(super) fn lane_mut(&mut self, i: usize) -> &mut SmLane {
        self.store.get_mut(i)
    }

    /// Every lane in SM-index order, sleeping ones included — for settle
    /// points and stream-wide resets, never the per-cycle path.
    pub(super) fn all_mut(&mut self) -> impl Iterator<Item = &mut SmLane> + use<'_, 'a> {
        self.store
            .shards_mut()
            .iter_mut()
            .flat_map(|s| s.iter_mut())
    }

    /// Every SM core in SM-index order. Sleeping lanes' counters are only
    /// current after [`LaneSet::settle`].
    pub(super) fn all_cores(&self) -> impl Iterator<Item = &SmCore> {
        self.store
            .shards()
            .iter()
            .flat_map(|s| s.iter())
            .map(|l| &l.core)
    }

    // ---- the awake list ---------------------------------------------------

    /// Awake SM indices, ascending.
    pub(super) fn awake(&self) -> &[usize] {
        &self.wake.awake
    }

    /// The awake lanes' cores, in [`LaneSet::awake`] order.
    pub(super) fn awake_cores(&self) -> impl Iterator<Item = &SmCore> {
        self.wake.awake.iter().map(|&i| &self.lane(i).core)
    }

    /// Wake lane `sm` (no-op if awake): credit its idle cycles up to now and
    /// put it back on the awake list. Must precede any change to the lane's
    /// state; the only caller is CTA dispatch.
    pub(super) fn wake(&mut self, sm: usize) {
        let clock = self.wake.clock;
        let lane = self.lane_mut(sm);
        if lane.credited_to.is_some() {
            lane.settle(clock);
            lane.credited_to = None;
            let at = self.wake.awake.partition_point(|&i| i < sm);
            self.wake.awake.insert(at, sm);
        }
    }

    /// Advance the idle clock over `cycles` cycles that all saw the same
    /// `device_busy`: the one ticked cycle about to run its SM phase, or a
    /// fast-forwarded span.
    pub(super) fn advance_clock(&mut self, cycles: u64, device_busy: bool) {
        self.wake.clock.cycles += cycles;
        if device_busy {
            self.wake.clock.busy_cycles += cycles;
        }
    }

    /// Put every awake lane that [`SmLane::can_sleep`] to sleep, crediting
    /// nothing: it was ticked through the current cycle.
    pub(super) fn sleep_idle(&mut self) {
        let LaneSet { store, wake, .. } = self;
        let clock = wake.clock;
        wake.awake.retain(|&i| {
            let lane = store.get_mut(i);
            if lane.can_sleep() {
                lane.credited_to = Some(clock);
            }
            lane.credited_to.is_none()
        });
    }

    /// See [`WakeList::settle`].
    pub(super) fn settle(&mut self) {
        let LaneSet { store, wake, .. } = self;
        wake.settle(store.shards_mut().iter_mut().flat_map(|s| s.iter_mut()));
    }

    /// Whether any SM could place a CTA of this launch shape right now.
    /// Sleeping lanes hold nothing, so they all answer alike and the lowest
    /// one speaks for the rest.
    pub(super) fn any_can_accept(&self, kernel: KernelId, threads: u32) -> bool {
        let awake = &self.wake.awake;
        // Ascending and distinct: the first position that does not hold its
        // own index is the lowest sleeping SM.
        let asleep = awake
            .iter()
            .enumerate()
            .find_map(|(i, &sm)| (sm != i).then_some(i))
            .unwrap_or(awake.len());
        self.awake_cores().any(|c| c.can_accept(kernel, threads))
            || (asleep < self.len && self.lane(asleep).core.can_accept(kernel, threads))
    }
}

/// The SM phase over one contiguous run of lanes starting at global SM
/// index `base`: tick the awake ones. Shared by the serial loop (`base` 0,
/// all lanes) and every shard owner of the parallel loop.
fn tick_awake(
    lanes: &mut [SmLane],
    base: usize,
    awake: &[usize],
    now: u64,
    mem: &DeviceMemory,
    device_busy: bool,
) {
    let from = awake.partition_point(|&sm| sm < base);
    for &sm in &awake[from..] {
        let Some(lane) = lanes.get_mut(sm - base) else {
            break;
        };
        lane.core.tick(now, mem, device_busy, &mut lane.ports);
    }
}

/// How a cycle's phases reach the lanes and memory: directly (serial) or
/// through the shard locks with the SM phase fanned out (parallel). The one
/// cycle composition, [`Gpu::step`], is written against this.
pub(super) trait Executor {
    /// Run `f` on the calling thread with every lane and device memory at
    /// rest.
    fn serial<R>(&mut self, f: impl FnOnce(&mut LaneSet<'_>, &mut DeviceMemory) -> R) -> R;

    /// Tick every awake lane at cycle `now` against memory as a read-only
    /// snapshot.
    fn sm_phase(&mut self, now: u64, device_busy: bool);
}

/// Every phase on the calling thread.
pub(super) struct SerialExec<'a> {
    pub(super) lanes: &'a mut [SmLane],
    pub(super) wake: &'a mut WakeList,
    pub(super) mem: &'a mut DeviceMemory,
}

impl Executor for SerialExec<'_> {
    fn serial<R>(&mut self, f: impl FnOnce(&mut LaneSet<'_>, &mut DeviceMemory) -> R) -> R {
        f(&mut LaneSet::single(self.lanes, self.wake), self.mem)
    }

    fn sm_phase(&mut self, now: u64, device_busy: bool) {
        tick_awake(self.lanes, 0, &self.wake.awake, now, self.mem, device_busy);
    }
}

/// Sense-reversing barrier. Spins briefly then yields, so it stays correct
/// and cheap even when the host has fewer cores than participants.
struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
    /// Spin briefly before yielding only when the host actually has a core
    /// per participant; on an oversubscribed host spinning just burns the
    /// quantum the other threads need.
    spin: bool,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        SpinBarrier {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total,
            spin: cores >= total,
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if self.spin && spins < 100 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Per-cycle values the serial pre-phase publishes to the workers.
struct CycleCtrl {
    now: AtomicU64,
    device_busy: AtomicBool,
    stop: AtomicBool,
}

/// Everything the main thread and the workers share for one `synchronize`.
struct Shared {
    shards: Vec<Mutex<Vec<SmLane>>>,
    /// Lanes per shard (the last may hold fewer).
    chunk: usize,
    wake: RwLock<WakeList>,
    mem: RwLock<DeviceMemory>,
    barrier: SpinBarrier,
    ctrl: CycleCtrl,
}

impl Shared {
    /// One shard owner's SM phase: tick the awake lanes of shard `i`.
    fn tick_shard(&self, i: usize) {
        let mut shard = self.shards[i].lock().expect("shard lock poisoned");
        let mem = self.mem.read().expect("memory lock poisoned");
        let wake = self.wake.read().expect("wake-list lock poisoned");
        tick_awake(
            &mut shard,
            i * self.chunk,
            &wake.awake,
            self.ctrl.now.load(Ordering::Acquire),
            &mem,
            self.ctrl.device_busy.load(Ordering::Acquire),
        );
    }
}

/// Every lock, held by the main thread across consecutive serial sections
/// and released only around the SM phase.
struct Held<'s> {
    shards: Vec<MutexGuard<'s, Vec<SmLane>>>,
    wake: RwLockWriteGuard<'s, WakeList>,
    mem: RwLockWriteGuard<'s, DeviceMemory>,
}

/// The main thread's side of the sharded loop: serial sections under all
/// locks (uncontended — the workers are parked at barrier A), the SM phase
/// between barriers A and B with this thread owning shard 0.
struct ParallelExec<'s> {
    shared: &'s Shared,
    held: Option<Held<'s>>,
}

impl Executor for ParallelExec<'_> {
    fn serial<R>(&mut self, f: impl FnOnce(&mut LaneSet<'_>, &mut DeviceMemory) -> R) -> R {
        let shared = self.shared;
        let held = self.held.get_or_insert_with(|| Held {
            shards: shared
                .shards
                .iter()
                .map(|s| s.lock().expect("shard lock poisoned"))
                .collect(),
            wake: shared.wake.write().expect("wake-list lock poisoned"),
            mem: shared.mem.write().expect("memory lock poisoned"),
        });
        let mut lanes = LaneSet::sharded(&mut held.shards, shared.chunk, &mut held.wake);
        f(&mut lanes, &mut held.mem)
    }

    fn sm_phase(&mut self, now: u64, device_busy: bool) {
        self.held = None;
        let shared = self.shared;
        shared.ctrl.now.store(now, Ordering::Release);
        shared
            .ctrl
            .device_busy
            .store(device_busy, Ordering::Release);
        shared.barrier.wait(); // A: shards released to their owners.
        shared.tick_shard(0);
        shared.barrier.wait(); // B: every shard has ticked.
    }
}

impl Gpu {
    /// The multi-threaded `synchronize` loop: [`Gpu::run`] with the SM
    /// phase fanned out across shards.
    pub(super) fn sync_parallel(
        &mut self,
        start: u64,
        threads: usize,
        lanes: &mut Vec<SmLane>,
        wake: &mut WakeList,
        mem: &mut DeviceMemory,
    ) -> Result<(), SimError> {
        let chunk = lanes.len().div_ceil(threads);
        let mut shards: Vec<Mutex<Vec<SmLane>>> = Vec::with_capacity(threads);
        {
            let mut drain = lanes.drain(..);
            loop {
                let shard: Vec<SmLane> = drain.by_ref().take(chunk).collect();
                if shard.is_empty() {
                    break;
                }
                shards.push(Mutex::new(shard));
            }
        }
        let shared = Shared {
            barrier: SpinBarrier::new(shards.len()),
            shards,
            chunk,
            wake: RwLock::new(std::mem::take(wake)),
            mem: RwLock::new(std::mem::take(mem)),
            ctrl: CycleCtrl {
                now: AtomicU64::new(0),
                device_busy: AtomicBool::new(false),
                stop: AtomicBool::new(false),
            },
        };

        let result = std::thread::scope(|scope| {
            for i in 1..shared.shards.len() {
                let shared = &shared;
                scope.spawn(move || worker_loop(shared, i));
            }
            let mut exec = ParallelExec {
                shared: &shared,
                held: None,
            };
            // Epoch batching: `run` fast-forwards the dead span behind each
            // cycle inside the post-phase serial section, while the workers
            // are parked at barrier A — so each barrier pair fences a whole
            // epoch (one active cycle plus its dead span), not one cycle.
            let result = self.run(start, &mut exec);
            drop(exec);
            shared.ctrl.stop.store(true, Ordering::Release);
            shared.barrier.wait(); // The workers' next A; they exit.
            result
        });

        for shard in shared.shards {
            lanes.append(&mut shard.into_inner().expect("shard lock poisoned"));
        }
        *wake = shared.wake.into_inner().expect("wake-list lock poisoned");
        *mem = shared.mem.into_inner().expect("memory lock poisoned");
        result
    }
}

/// Body of one worker thread: tick the awake lanes of shard `i` between
/// the barriers, every cycle, until the main thread raises `stop`.
fn worker_loop(shared: &Shared, i: usize) {
    loop {
        shared.barrier.wait(); // A
        if shared.ctrl.stop.load(Ordering::Acquire) {
            return;
        }
        shared.tick_shard(i);
        shared.barrier.wait(); // B
    }
}
