//! The cycle engine: the three phases of a cycle over the device's three
//! owners (lanes, memory system, grid/stream ledger), `synchronize`, the
//! watchdog, and fault/deadlock handling. It borrows the owners as fields
//! of [`Gpu`] and names no cache, DRAM channel or network.
//!
//! One device cycle has three strictly ordered phases, composed in exactly
//! one place ([`Gpu::step`]) for `synchronize` and for single-stepping
//! alike, all on the calling thread:
//!
//! 1. **Pre** ([`Gpu::cycle_pre`]) — the memory system ticks (replies due
//!    land in their SM's inbound port; `memsys.rs` has the order inside),
//!    then grids arm and CTAs dispatch, as far as anything is due — waking
//!    the lanes they land on.
//! 2. **SM** (`Lanes::tick_awake`) — every *awake* lane that is not parked
//!    ticks against a *read-only* snapshot of device memory, writing only
//!    its own core state and its own ports; stores and atomics go to a
//!    per-SM log.
//! 3. **Post** ([`Gpu::cycle_post`]) — each awake lane's output, if it
//!    produced any, is drained in SM-index order: deferred stores/atomics
//!    commit to memory, requests are sent into the memory system, CDP
//!    launches spawn, completed CTAs retire, and traps resolve. The (SM
//!    index, issue order) merge is what makes every counter, profile, and
//!    trace a function of the workload alone. Lanes left with nothing
//!    resident, in flight or to merge go to sleep.
//!
//! A sleeping lane is visited by none of the three; what ticking it would
//! have added to its counters is credited when it wakes or at a settle
//! point — anything that reads counters mid-run, and every exit from
//! `try_synchronize` / `tick` (DESIGN.md, "Sleeping SMs"). A *parked* lane
//! (fast-forward only: resident warps, none of which can issue before a
//! stored wake-up) is skipped by the SM phase until that wake-up or a
//! reply; it is credited when it resumes, before dispatch, a child grid's
//! retire or a kill touches its core, and at the same settle points, which
//! pass the end of the current cycle (`cycle + 1`) to say how far.
//!
//! "Is anything still in flight" has one vocabulary —
//! `MemSystem::is_idle`, `Lanes::{holds_work, outstanding_requests}`,
//! [`Gpu::arming_after`] — and [`Gpu::busy`], the drain check,
//! [`Gpu::progress`] and the deadlock report are each one expression over
//! it.
//!
//! The frame around the SM phase pays per event, not per cycle: what it
//! asks of the grid/stream ledger — `device_busy_at`, `arming_after`, the
//! active head's deadline in `sync_check`, whether `arm_and_dispatch` has
//! anything to do — is read off the ledger summary (`launch.rs`), which
//! only ledger events rebuild; `run` asks [`Gpu::busy`] once per iteration.

use ggpu_sm::{Trap, WarpReport, WarpWait};

use crate::error::{DeadlockReport, DeviceFault, SimError};
use crate::trace::TraceEventKind;

use super::Gpu;

/// Absolute backstop on simulated cycles per `synchronize`. The configurable
/// forward-progress watchdog ([`crate::GpuConfig::watchdog_cycles`])
/// normally fires long before this; the backstop only matters if a workload
/// keeps producing token progress (e.g. one instruction every few thousand
/// cycles) forever.
pub(super) const MAX_SYNC_CYCLES: u64 = 2_000_000_000;

impl Gpu {
    /// Whether any work remains on the device.
    pub fn busy(&self) -> bool {
        !self.grids.is_empty()
            || !self.memsys.is_idle()
            || !self.pending_inbound.is_empty()
            || self.lanes.holds_work()
    }

    /// Whether the forward-progress watchdog counts the cycle `now` as
    /// progress: `issued` instructions issued in it, the memory system is
    /// working, a P2P payload is inbound over the node fabric, or a grid is
    /// waiting out its launch overhead. Every term but `issued` is constant
    /// over a dead span, so fast-forward asks once for the whole span.
    pub(super) fn progress(&self, now: u64, issued: u64) -> bool {
        issued > 0
            || !self.memsys.is_idle()
            || !self.pending_inbound.is_empty()
            || self.arming_after(now)
    }

    /// Run the device until all launched grids complete; returns elapsed
    /// kernel cycles.
    ///
    /// When a warp raises a guest fault, the device drains in-flight work,
    /// enters the (sticky) fault state, and this returns the
    /// [`SimError::DeviceFault`]. When the forward-progress watchdog sees
    /// no activity for [`crate::GpuConfig::watchdog_cycles`] consecutive
    /// cycles, the device is halted the same way and this returns a
    /// [`SimError::Deadlock`] with a per-warp blocked-state report. Either
    /// way the `Gpu` stays usable after [`Gpu::reset_fault`].
    pub fn try_synchronize(&mut self) -> Result<u64, SimError> {
        if let Some(f) = self.fault.clone() {
            return Err(f);
        }
        let start = self.cycle;
        self.last_progress = self.cycle;
        let result = self.run(start);
        // Counters read between runs are current.
        self.lanes.settle(self.cycle + 1);
        let elapsed = self.cycle - start;
        self.host.kernel_cycles += elapsed;
        self.flush_sample();
        result.map(|()| elapsed)
    }

    /// Run the device until all launched grids complete; returns elapsed
    /// kernel cycles.
    ///
    /// # Panics
    ///
    /// Panics where [`Gpu::try_synchronize`] would return an error (guest
    /// fault or deadlock).
    pub fn synchronize(&mut self) -> u64 {
        self.try_synchronize()
            .unwrap_or_else(|e| panic!("synchronize failed: {e}"))
    }

    /// The `synchronize` loop: step while anything is busy, check for
    /// faults and hangs after every ticked cycle, and fast-forward the dead
    /// span behind it. `busy` is asked once per iteration: a jump changes
    /// none of its terms.
    fn run(&mut self, start: u64) -> Result<(), SimError> {
        if !self.busy() {
            return Ok(());
        }
        loop {
            self.step();
            if let Some(outcome) = self.sync_check(start) {
                return outcome;
            }
            if !self.busy() {
                return Ok(());
            }
            if self.config.fast_forward {
                self.try_fast_forward(start);
            }
        }
    }

    /// One device cycle — the only place the three phases are composed.
    fn step(&mut self) {
        let (now, device_busy) = self.cycle_pre();
        self.lanes.tick_awake(now, &self.mem, device_busy);
        self.cycle_post(now);
    }

    /// Post-cycle fault/watchdog check. `Some(Err(..))` ends the run; `None`
    /// continues it — including after a *non-default* stream was killed for
    /// a deadline overrun or a watchdog hang, in which case the remaining
    /// streams keep running and the fault is reported through
    /// [`Gpu::stream_fault`].
    fn sync_check(&mut self, start: u64) -> Option<Result<(), SimError>> {
        if let Some(f) = self.fault.clone() {
            return Some(Err(f));
        }
        // Deadline: the active grid overran its cycle budget (counted from
        // arm). Enforced here, on the watchdog's schedule, so a hung *and*
        // budgeted grid is killed by whichever trips first.
        if self.cycle >= self.summary().head_deadline {
            let h = self.active_grid_handle().expect("a deadline is the head's");
            let g = &self.grids[&h];
            let err = SimError::DeadlineExceeded {
                kernel: self.kernel_name(g.kernel),
                stream: g.stream,
                budget: g.deadline_budget.unwrap_or(0),
                cycle: self.cycle,
            };
            self.kill_active_stream(err);
            if let Some(f) = self.fault.clone() {
                return Some(Err(f));
            }
            return None;
        }
        let stalled = self.cycle - self.last_progress;
        if stalled >= self.config.watchdog_cycles || self.cycle - start >= MAX_SYNC_CYCLES {
            let err = SimError::Deadlock(Box::new(self.deadlock_report(stalled)));
            if self.trace_on() {
                self.emit(TraceEventKind::Deadlock {
                    stalled_for: stalled,
                    stream: self.active_stream.unwrap_or(0),
                });
            }
            self.kill_active_stream(err.clone());
            if self.fault.is_some() {
                return Some(Err(err));
            }
            return None;
        }
        None
    }

    /// Advance the device one cycle. No-op while the device is in the fault
    /// state (until [`Gpu::reset_fault`]).
    pub fn tick(&mut self) {
        if self.fault.is_some() {
            return;
        }
        self.step();
        self.lanes.settle(self.cycle + 1);
    }

    /// Pre-SM phase: the memory system delivers what is due, then CTAs
    /// dispatch. Returns `(now, device_busy)` for the SM phase.
    fn cycle_pre(&mut self) -> (u64, bool) {
        self.cycle += 1;
        let now = self.cycle;

        // 1–2. Due packets and the DRAM channels. Replies land in the
        // owning SM's inbound port and are consumed at the start of its
        // tick this same cycle.
        let lanes = &mut self.lanes;
        self.memsys.tick(now, |sm, id| lanes.deliver_reply(sm, id));

        // 3. CTA dispatch (children first, then the active host grid).
        self.arm_and_dispatch();

        // Sleeping lanes see this cycle through the clock; a lane dispatch
        // just woke was credited up to the previous cycle and ticks this one
        // itself.
        let device_busy = self.device_busy_at(now);
        self.lanes.advance_clock(1, device_busy);
        (now, device_busy)
    }

    /// Whether, from an idle SM's perspective, the device is mid-kernel at
    /// `now` — drives the `FunctionalDone` stall classification.
    ///
    /// Legacy mode counts every grid still before or inside dispatch or
    /// waiting out its arm window (queued host grids included). Under
    /// [`crate::GpuConfig::stream_isolation`] only grids inside their
    /// execution window count — an armed grid with CTAs left to place or
    /// not yet past its arm cycle, or a retiring grid's drain tail; a
    /// queued host grid on an inactive stream is *outside* any window — so
    /// the classification a grid observes never depends on what sits
    /// queued behind it on other streams. Both are read off the ledger
    /// summary.
    pub(super) fn device_busy_at(&self, now: u64) -> bool {
        let s = self.summary();
        if self.config.stream_isolation {
            self.draining.is_some() || !s.pending.is_empty() || now < s.last_arm
        } else {
            s.undispatched || now < s.last_arm
        }
    }

    /// Post-SM phase: drain every awake lane's output in SM-index
    /// order (the deterministic merge), then resolve faults, feed the
    /// watchdog, sample, and put the lanes that ran dry to sleep.
    fn cycle_post(&mut self, now: u64) {
        // 3b. Land due peer-to-peer payloads before the SM merge: the DMA
        // write commits at its exact arrival cycle, ahead of any same-cycle
        // SM store, so node-level memory state does not depend on how the
        // node schedules its devices.
        while let Some(copy) = self.pending_inbound.pop_due(now) {
            self.mem
                .write_slice(crate::memory::DevicePtr(copy.dst), &copy.bytes);
            self.host.p2p_recvs += 1;
            self.host.p2p_bytes_in += copy.bytes.len() as u64;
            if self.trace_on() {
                self.emit(TraceEventKind::Memcpy {
                    dir: crate::trace::CopyDir::P2P,
                    bytes: copy.bytes.len() as u64,
                    cycles: copy.cycles,
                });
            }
        }

        // 4. Merge the SM outputs of the lanes that produced any. Each
        // lane's buffers are swapped out, drained in place (retaining
        // capacity), and swapped back — the steady-state hot path allocates
        // nothing. Nothing in the loop wakes or sleeps a lane, so the awake
        // list is walked by position.
        let mut first_trap: Option<(usize, Trap)> = None;
        let mut issued = 0u64;
        for k in 0..self.lanes.awake().len() {
            let sm = self.lanes.awake()[k];
            let lane = self.lanes.lane_mut(sm);
            if lane.ports.out.is_empty() {
                continue;
            }
            let mut out = std::mem::take(&mut lane.ports.out);
            lane.core.commit_mem_ops(&mut self.mem, &mut out.mem_ops);
            for req in out.mem_requests.drain(..) {
                self.memsys.send(sm, req, now);
            }
            for l in out.launches.drain(..) {
                self.spawn_child(sm, l);
            }
            for c in out.completed.drain(..) {
                if let Some(g) = self.grids.get_mut(&c.grid_handle) {
                    g.done_ctas += 1;
                    if g.finished() {
                        if g.from_host && self.config.stream_isolation {
                            // Canonical boundary: hold the grid until its
                            // in-flight effects drain (finalized below).
                            self.draining = Some(c.grid_handle);
                        } else {
                            self.grid_done(c.grid_handle);
                        }
                    }
                }
            }
            for t in out.traps.drain(..) {
                if first_trap.is_none() {
                    first_trap = Some((sm, t));
                }
            }
            issued += out.issued;
            out.issued = 0;
            self.lanes.lane_mut(sm).ports.out = out;
        }

        // 5. Fault resolution: a CDP-limit fault raised in `spawn_child`
        // (taking precedence, as before) or the first trap of the cycle
        // kills the owning stream's in-flight work. On the default stream
        // this is the legacy device-wide sticky fault; on other streams
        // the device keeps serving its siblings.
        let mut raised = self.pending_fault.take();
        if raised.is_none() {
            if let Some((sm, t)) = first_trap {
                raised = Some(self.fault_from_trap(sm, &t));
                if self.trace_on() {
                    self.emit(TraceEventKind::Fault {
                        kind: t.kind,
                        kernel: self.kernel_name(t.kernel),
                        stream: self.active_stream.unwrap_or(0),
                    });
                }
            }
        }
        if let Some(err) = raised {
            self.kill_active_stream(err);
            return;
        }

        // 5b. Canonical host-grid retirement (stream isolation): finalize
        // the held grid only once every in-flight effect has drained, so
        // the next grid starts from a translation-invariant device state.
        if let Some(h) = self.draining {
            if self.memsys.is_idle() && self.lanes.outstanding_requests() == 0 {
                self.draining = None;
                self.memsys.close_rows();
                self.grid_done(h);
            }
        }

        // 6. Forward-progress watchdog bookkeeping.
        if self.progress(now, issued) {
            self.last_progress = now;
        }

        // 7. Interval sampling: close a window at each absolute multiple of
        // the sampling period. One branch when sampling is off.
        if self.config.sample_interval_cycles != 0
            && now.is_multiple_of(self.config.sample_interval_cycles)
        {
            self.flush_sample();
        }

        // 8. Lanes with nothing resident, in flight or left to merge sleep
        // until dispatch wakes them. (The fault path above returns with its
        // aborted lanes still awake; they sleep after their next cycle.)
        self.lanes.sleep_idle();
    }

    // ---- fault handling ---------------------------------------------------

    /// Compose the host-facing error for a warp trap raised on SM `sm`.
    fn fault_from_trap(&self, sm: usize, t: &Trap) -> SimError {
        SimError::DeviceFault(Box::new(DeviceFault {
            kind: t.kind,
            kernel: self.kernel_name(t.kernel),
            stream: self.active_stream.unwrap_or(0),
            sm,
            cta: Some(t.cta_linear),
            warp: Some(t.warp),
            warp_in_cta: Some(t.warp_in_cta),
            lane_mask: Some(t.lane_mask),
            pc: Some(t.pc),
            instr: t.instr.clone(),
            addr: t.addr,
            cycle: self.cycle,
        }))
    }

    /// Kill the active stream after a fault, deadline overrun, or watchdog
    /// hang: mark the stream faulted (mirrored into the device-wide sticky
    /// fault when it is the default stream), abort resident work on every
    /// SM, drop the stream's grids (in-flight and queued alike) and all
    /// in-flight packets, and drain the DRAM channels so the device returns
    /// to a clean idle state. Other streams' *queued* grids have not
    /// started and survive untouched; memory contents, cache tags, and
    /// statistics survive too.
    pub(super) fn kill_active_stream(&mut self, err: SimError) {
        let s = self.active_stream.unwrap_or(0);
        self.streams[s].fault = Some(err.clone());
        if s == 0 {
            // The default stream keeps CUDA's device-wide sticky semantics.
            self.fault = Some(err);
        }
        // Parked lanes are credited through this cycle before their warps
        // go. Sleeping lanes are aborted too: the abort also resets slot and
        // warp free lists, which decide where the next CTA lands.
        self.lanes.unpark_all(self.cycle + 1);
        for lane in self.lanes.all_mut() {
            lane.core.abort_workload();
        }
        self.device_queue.clear();
        self.grids.retain(|_, g| g.stream != s);
        self.streams[s].queue.clear();
        self.memsys.abort(self.cycle);
        if self.config.stream_isolation {
            // The kill is a canonical boundary like any other: survivors
            // resume from the same device state a fault-free run reaches.
            self.memsys.close_rows();
        }
        self.active_stream = None;
        self.draining = None;
        self.rebuild_summary();
        // Forward progress restarts now. Without this bump a recovered
        // device would inherit the dead stream's stall count and the
        // watchdog could spuriously re-fire on the next grid's first
        // cycles (the stale-progress recovery bug).
        self.last_progress = self.cycle;
        // Scope the killed span out of the next kernel record's delta (the
        // off-clock DRAM drain above included), mirroring a retire
        // boundary; otherwise the first record after recovery absorbs the
        // dead stream's counters.
        if let Some((now, r)) = self.recorder_at_now() {
            r.rebase(now);
        }
    }

    /// Snapshot everything a deadlock post-mortem needs. Must run *before*
    /// [`Gpu::kill_active_stream`] wipes the state it describes.
    fn deadlock_report(&self, stalled_for: u64) -> DeadlockReport {
        let lanes = &self.lanes;
        let mut warps: Vec<WarpReport> = Vec::new();
        for (&i, sm) in lanes.awake().iter().zip(lanes.awake_cores()) {
            warps.extend(
                sm.warp_report(i)
                    .into_iter()
                    .filter(|w| w.wait != WarpWait::Done),
            );
        }
        DeadlockReport {
            cycle: self.cycle,
            stalled_for,
            stream: self.active_stream.unwrap_or(0),
            warps,
            host_queue: self.streams.iter().map(|s| s.queue.len()).sum(),
            device_queue: self.device_queue.len(),
            events_in_flight: self.memsys.packets_in_flight(),
            outstanding_requests: lanes.outstanding_requests(),
            dram_queued: self.memsys.dram_occupancy(),
        }
    }
}
