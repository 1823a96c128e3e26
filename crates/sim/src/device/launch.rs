//! Grid lifecycle: launch validation and queueing, CTA dispatch across the
//! SM cluster, the CDP (device-side launch) runtime, and grid retirement.
//!
//! Every edit of the grid map and the stream queues happens here or in the
//! kill path, and each one — launch, CDP spawn, stream arbitration, arm, a
//! grid becoming fully dispatched, retire, kill — ends by rebuilding the
//! [`LedgerSummary`]. That rebuild is the one scan of the grid map; the
//! per-cycle readers (`arm_and_dispatch`, `device_busy_at`,
//! [`Gpu::arming_after`], `sync_check`'s deadline, fast-forward's dispatcher
//! candidate) read the summary, so the frame around a ticked cycle pays per
//! ledger event, not per cycle.

use std::sync::Arc;

use ggpu_isa::{FaultKind, Kernel, KernelId, LaunchDims};
use ggpu_sm::CtaConfig;

use crate::error::{DeviceFault, LaunchProblem, SimError};
use crate::memory::DeviceMemory;
use crate::profile::KernelRecord;
use crate::trace::TraceEventKind;

use super::{Gpu, StreamId};

/// CDP pending-launch queue capacity (as
/// `cudaLimitDevRuntimePendingLaunchCount`); a device-side launch that finds
/// the queue this deep faults with [`FaultKind::CdpQueueOverflow`]
/// ([`crate::FaultPlan::cdp_full_at`] forces that path in tests).
const CDP_QUEUE_LIMIT: usize = 2048;

/// Deepest CDP nesting level a child grid may run at (as
/// `cudaLimitDevRuntimeSyncDepth`); one deeper is [`FaultKind::CdpNestingExceeded`].
const CDP_MAX_DEPTH: u32 = 24;

/// Per-launch options for [`Gpu::try_launch_on`]: the target stream and an
/// optional execution deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchOptions {
    /// Stream to enqueue on (defaults to [`StreamId::DEFAULT`]).
    pub stream: StreamId,
    /// Cycle budget counted from when the grid is *armed* (reaches the head
    /// of its stream and finishes its launch-overhead window), so queueing
    /// behind other streams does not consume it. When the budget expires
    /// before the grid retires, the owning stream is killed with
    /// [`SimError::DeadlineExceeded`] — the watchdog machinery enforces it
    /// at the same point it checks forward progress.
    pub deadline: Option<u64>,
}

impl Default for LaunchOptions {
    fn default() -> Self {
        LaunchOptions {
            stream: StreamId::DEFAULT,
            deadline: None,
        }
    }
}

#[derive(Debug)]
pub(super) struct Grid {
    pub(super) kernel: KernelId,
    pub(super) dims: LaunchDims,
    pub(super) params: Arc<Vec<u64>>,
    pub(super) const_data: Arc<Vec<u8>>,
    pub(super) local_base: u64,
    pub(super) local_stride: u64,
    pub(super) next_cta: u64,
    pub(super) done_ctas: u64,
    /// `(sm, slot, parent grid handle)` for CDP children.
    pub(super) parent: Option<(usize, usize, u64)>,
    /// Earliest cycle CTAs may dispatch (launch overhead); `None` until the
    /// grid reaches the head of its queue.
    pub(super) armed_at: Option<u64>,
    pub(super) from_host: bool,
    /// Owning stream (0 = default; CDP children inherit the parent's).
    pub(super) stream: usize,
    /// Cycle budget from arm ([`LaunchOptions::deadline`]); `None` = none.
    pub(super) deadline_budget: Option<u64>,
    /// Absolute kill cycle, set when the grid arms.
    pub(super) deadline_at: Option<u64>,
    /// CDP nesting depth: 0 for host grids, parent + 1 for children.
    pub(super) depth: u32,
    /// Cycle at which the grid was enqueued.
    pub(super) launch_cycle: u64,
    /// Cycle at which the first CTA dispatched; `None` until then.
    pub(super) start_cycle: Option<u64>,
}

/// Bytes of the local-memory arena a grid of (validated) `dims` needs at
/// `stride` bytes per thread — whole warps, so a partial final warp still
/// has its lanes' slots — or `None` when the size does not fit in 64 bits.
fn arena_bytes(stride: u64, dims: LaunchDims) -> Option<u64> {
    stride
        .checked_mul(dims.num_ctas())?
        .checked_mul(dims.warps_per_cta() as u64)?
        .checked_mul(ggpu_isa::WARP_SIZE as u64)
}

impl Grid {
    pub(super) fn fully_dispatched(&self) -> bool {
        self.next_cta >= self.dims.num_ctas()
    }
    pub(super) fn finished(&self) -> bool {
        self.fully_dispatched() && self.done_ctas >= self.dims.num_ctas()
    }
}

/// What the per-cycle readers ask of the grid/stream ledger. Rebuilt from
/// the grid map and the stream queues at every ledger event and nowhere
/// else; a debug build checks it against a fresh rebuild on every read
/// ([`Gpu::summary`]). `u64::MAX` stands for "none" in the cycle fields.
#[derive(Debug, PartialEq, Eq)]
pub(super) struct LedgerSummary {
    /// Some grid still has CTAs to place, armed or not: it is before or
    /// inside dispatch.
    pub(super) undispatched: bool,
    /// The latest `armed_at` of any grid (0 when none has armed).
    pub(super) last_arm: u64,
    /// `(kernel, threads per CTA, armed_at)` of every armed grid with CTAs
    /// left to place, sorted and without repeats, so one launch shape's
    /// entries are adjacent.
    pub(super) pending: Vec<(KernelId, u32, u64)>,
    /// The earliest `armed_at` of a CDP child with CTAs left to place.
    pub(super) child_arm: u64,
    /// The earliest `deadline_at` of any grid.
    pub(super) deadline: u64,
    /// The active stream's head has not armed yet.
    pub(super) head_unarmed: bool,
    /// The active head's `armed_at` while it is armed with CTAs left to
    /// place.
    pub(super) head_arm: u64,
    /// The active head's `deadline_at`.
    pub(super) head_deadline: u64,
}

impl Default for LedgerSummary {
    /// The summary of a ledger without grids.
    fn default() -> Self {
        LedgerSummary {
            undispatched: false,
            last_arm: 0,
            pending: Vec::new(),
            child_arm: u64::MAX,
            deadline: u64::MAX,
            head_unarmed: false,
            head_arm: u64::MAX,
            head_deadline: u64::MAX,
        }
    }
}

impl Gpu {
    /// Validate a launch configuration against the program and the SM
    /// resource limits. Host and device-side launches both pass through
    /// here: a CTA no SM can ever hold must be refused at launch, not left
    /// queued for the watchdog to find.
    fn validate_launch(
        &self,
        kernel: KernelId,
        dims: LaunchDims,
        params: &[u64],
    ) -> Result<(), LaunchProblem> {
        let k = self
            .program
            .get(kernel)
            .ok_or(LaunchProblem::UnknownKernel)?;
        let ((gx, gy, gz), (cx, cy, cz)) = (dims.grid, dims.cta);
        if [gx, gy, gz, cx, cy, cz].contains(&0) {
            return Err(LaunchProblem::ZeroDimension);
        }
        // Checked products: past here `LaunchDims::{num_ctas,
        // threads_per_cta, total_threads}` cannot overflow.
        let sm = &self.config.sm;
        let tpc = cx.checked_mul(cy).and_then(|t| t.checked_mul(cz));
        let tpc = match tpc {
            Some(tpc) if tpc <= sm.max_threads => tpc,
            _ => {
                return Err(LaunchProblem::TooManyThreads {
                    requested: tpc.unwrap_or(u32::MAX),
                    limit: sm.max_threads,
                })
            }
        };
        (gx as u64 * gy as u64)
            .checked_mul(gz as u64)
            .and_then(|ctas| ctas.checked_mul(tpc as u64))
            .ok_or(LaunchProblem::GridTooLarge)?;
        let regs = k.regs_per_thread.saturating_mul(tpc);
        if regs > sm.registers {
            return Err(LaunchProblem::RegistersExceeded {
                requested: regs,
                limit: sm.registers,
            });
        }
        if k.smem_per_cta > sm.smem_bytes {
            return Err(LaunchProblem::SharedMemExceeded {
                requested: k.smem_per_cta,
                limit: sm.smem_bytes,
            });
        }
        let required = k.param_words_required();
        if params.len() < required {
            return Err(LaunchProblem::ParamCountMismatch {
                required,
                provided: params.len(),
            });
        }
        Ok(())
    }

    /// Validate a launch and build its grid — the one place a [`Grid`] is
    /// constructed. The result is a host grid on `stream`; `spawn_child`
    /// overwrites the fields that differ for a device-side launch.
    fn new_grid(
        &mut self,
        kernel: KernelId,
        dims: LaunchDims,
        params: Vec<u64>,
        stream: usize,
    ) -> Result<Grid, LaunchProblem> {
        self.validate_launch(kernel, dims, &params)?;
        let program = Arc::clone(&self.program);
        let k: &Kernel = program.kernel(kernel);
        let limit = self.config.memory_limit;
        let (local_base, local_stride) =
            Self::alloc_local_arena(&mut self.mem, &mut self.free_arenas, k, dims, limit)?;
        let const_data = self
            .const_bindings
            .get(&kernel.0)
            .cloned()
            .unwrap_or_else(|| Arc::new(Vec::new()));
        Ok(Grid {
            kernel,
            dims,
            params: Arc::new(params),
            const_data,
            local_base,
            local_stride,
            next_cta: 0,
            done_ctas: 0,
            parent: None,
            armed_at: None,
            from_host: true,
            stream,
            deadline_budget: None,
            deadline_at: None,
            depth: 0,
            launch_cycle: self.cycle,
            start_cycle: None,
        })
    }

    /// Enqueue a grid on the default stream (serialized with prior host
    /// launches) after validating the configuration. Returns the grid
    /// handle.
    pub fn try_launch(
        &mut self,
        kernel: KernelId,
        dims: LaunchDims,
        params: &[u64],
    ) -> Result<u64, SimError> {
        self.try_launch_on(kernel, dims, params, LaunchOptions::default())
    }

    /// Enqueue a grid on an explicit stream, optionally with a cycle-budget
    /// deadline (see [`LaunchOptions`]). Grids on one stream serialize in
    /// FIFO order; the device arbitrates round-robin between streams, one
    /// grid at a time. A device-wide sticky fault (default-stream
    /// semantics) rejects every launch; a *stream* fault rejects only
    /// launches onto that stream until [`Gpu::reset_stream`].
    pub fn try_launch_on(
        &mut self,
        kernel: KernelId,
        dims: LaunchDims,
        params: &[u64],
        opts: LaunchOptions,
    ) -> Result<u64, SimError> {
        if let Some(f) = self.fault().cloned() {
            return Err(f);
        }
        let stream = opts.stream.0;
        match self.streams.get(stream) {
            None => {
                return Err(SimError::InvalidLaunch {
                    kernel: self.kernel_name(kernel),
                    problem: LaunchProblem::UnknownStream {
                        requested: stream,
                        streams: self.streams.len(),
                    },
                })
            }
            Some(s) => {
                if let Some(f) = s.fault.clone() {
                    return Err(f);
                }
            }
        }
        let mut grid = self
            .new_grid(kernel, dims, params.to_vec(), stream)
            .map_err(|problem| SimError::InvalidLaunch {
                kernel: self.kernel_name(kernel),
                problem,
            })?;
        grid.deadline_budget = opts.deadline;
        let handle = self.next_grid;
        self.next_grid += 1;
        self.grids.insert(handle, grid);
        self.streams[stream].queue.push_back(handle);
        self.rebuild_summary();
        self.host.kernel_launches += 1;
        if self.trace_on() {
            self.emit(TraceEventKind::KernelLaunch {
                grid: handle,
                kernel: self.kernel_name(kernel),
                ctas: dims.num_ctas(),
                threads_per_cta: dims.threads_per_cta(),
                stream,
            });
        }
        Ok(handle)
    }

    /// Enqueue a grid on the default stream. Returns the grid handle.
    ///
    /// # Panics
    ///
    /// Panics where [`Gpu::try_launch`] would return an error (unknown
    /// kernel, invalid configuration, or a prior sticky fault).
    pub fn launch(&mut self, kernel: KernelId, dims: LaunchDims, params: &[u64]) -> u64 {
        self.try_launch(kernel, dims, params)
            .unwrap_or_else(|e| panic!("launch failed: {e}"))
    }

    /// Convenience: launch one grid and synchronize.
    pub fn try_run_kernel(
        &mut self,
        kernel: KernelId,
        dims: LaunchDims,
        params: &[u64],
    ) -> Result<u64, SimError> {
        self.try_launch(kernel, dims, params)?;
        self.try_synchronize()
    }

    /// Convenience: launch one grid and synchronize.
    ///
    /// # Panics
    ///
    /// Panics where [`Gpu::try_run_kernel`] would return an error.
    pub fn run_kernel(&mut self, kernel: KernelId, dims: LaunchDims, params: &[u64]) -> u64 {
        self.try_run_kernel(kernel, dims, params)
            .unwrap_or_else(|e| panic!("kernel failed: {e}"))
    }

    // ---- dispatch ---------------------------------------------------------

    /// Arbitrate, arm and dispatch, as far as the summary says anything is
    /// due this cycle: a CDP child or the active head armed with CTAs left
    /// to place, a head still to arm, or a queued host grid with no head.
    /// Otherwise it returns at once.
    pub(super) fn arm_and_dispatch(&mut self) {
        let now = self.cycle;
        let summary = self.summary();
        // Only a queued host grid can win arbitration, and it has not armed.
        let arbitrate =
            self.active_stream.is_none() && self.draining.is_none() && summary.undispatched;
        // With no child due, every queued child is armed in the future: the
        // CDP sweep would place nothing and its retain would keep every
        // entry, so it is skipped.
        let children_due = summary.child_arm <= now;
        debug_assert!(
            children_due
                || self
                    .device_queue
                    .iter()
                    .all(|h| self.grids.get(h).is_some_and(|g| !g.fully_dispatched())),
            "a skipped CDP sweep would have pruned the device queue"
        );
        if !arbitrate && !children_due && !summary.head_unarmed && summary.head_arm > now {
            return;
        }
        // Within one call SM resources only shrink, so a launch shape every
        // SM has refused stays refused until the next cycle.
        self.refused_shapes.clear();
        // CDP children dispatch immediately (after their overhead window).
        // The handle list is copied into reused scratch so the sweep does
        // not allocate per cycle.
        if children_due {
            let mut handles = std::mem::take(&mut self.scratch_handles);
            handles.clear();
            handles.extend(self.device_queue.iter().copied());
            for &h in &handles {
                self.dispatch_grid(h);
            }
            self.scratch_handles = handles;
            self.device_queue.retain(|h| {
                self.grids
                    .get(h)
                    .map(|g| !g.fully_dispatched())
                    .unwrap_or(false)
            });
        }

        // Host grids: one grid owns the device at a time. With a single
        // stream this degenerates to the legacy behaviour (the head of the
        // default stream runs); with several, the device round-robins
        // between non-faulted streams with queued work, switching only at
        // grid boundaries. Nothing activates while a finished grid is still
        // draining (stream-isolation two-phase retirement).
        if arbitrate {
            let n = self.streams.len();
            for i in 0..n {
                let s = (self.stream_cursor + i) % n;
                if self.streams[s].fault.is_none() && !self.streams[s].queue.is_empty() {
                    self.active_stream = Some(s);
                    self.stream_cursor = (s + 1) % n;
                    self.rebuild_summary();
                    break;
                }
            }
        }
        let Some(s) = self.active_stream else {
            return;
        };
        let head = *self.streams[s].queue.front().expect("active stream head");
        if self.summary().head_unarmed {
            let g = self.grids.get_mut(&head).expect("head grid exists");
            let armed = self.cycle + self.config.kernel_launch_overhead;
            g.armed_at = Some(armed);
            g.deadline_at = g.deadline_budget.map(|b| armed.saturating_add(b));
            self.rebuild_summary();
            // The locality loss across `cudaMemcpy` boundaries (§IV-G).
            for lane in self.lanes.all_mut() {
                lane.core.flush_caches();
            }
            self.memsys.flush_l2();
            if self.config.stream_isolation {
                // Canonical boundary: scheduler and dispatch cursors
                // restart so intra-grid decisions never depend on where
                // the previous grid left them.
                self.dispatch_cursor = 0;
                for lane in self.lanes.all_mut() {
                    lane.core.reset_schedulers();
                }
            }
        }
        if self.summary().head_arm <= now {
            self.dispatch_grid(head);
        }
    }

    /// The handle of the grid currently owning the device (the active
    /// stream's head), if any.
    pub(super) fn active_grid_handle(&self) -> Option<u64> {
        self.active_stream
            .and_then(|s| self.streams[s].queue.front().copied())
    }

    /// Whether any grid is still waiting out its launch overhead after
    /// cycle `now`.
    pub(super) fn arming_after(&self, now: u64) -> bool {
        self.summary().last_arm > now
    }

    /// The ledger summary. A debug build first checks that it equals a
    /// fresh rebuild, so every read audits the rebuild triggers.
    pub(super) fn summary(&self) -> &LedgerSummary {
        debug_assert_eq!(
            self.summary,
            self.summarize(Vec::new()),
            "a ledger event did not rebuild the summary"
        );
        &self.summary
    }

    /// Rebuild the summary after a ledger event.
    pub(super) fn rebuild_summary(&mut self) {
        let pending = std::mem::take(&mut self.summary.pending);
        self.summary = self.summarize(pending);
    }

    /// Summarise the grid map and the stream queues, reusing `pending`'s
    /// allocation: the one scan of the map.
    fn summarize(&self, mut pending: Vec<(KernelId, u32, u64)>) -> LedgerSummary {
        pending.clear();
        let mut s = LedgerSummary {
            pending,
            ..LedgerSummary::default()
        };
        for g in self.grids.values() {
            s.undispatched |= !g.fully_dispatched();
            if let Some(d) = g.deadline_at {
                s.deadline = s.deadline.min(d);
            }
            let Some(a) = g.armed_at else {
                continue;
            };
            s.last_arm = s.last_arm.max(a);
            if !g.fully_dispatched() {
                s.pending.push((g.kernel, g.dims.threads_per_cta(), a));
                if !g.from_host {
                    s.child_arm = s.child_arm.min(a);
                }
            }
        }
        s.pending.sort_unstable();
        s.pending.dedup();
        if let Some(g) = self.active_grid_handle().and_then(|h| self.grids.get(&h)) {
            s.head_unarmed = g.armed_at.is_none();
            if !g.fully_dispatched() {
                s.head_arm = g.armed_at.unwrap_or(u64::MAX);
            }
            s.head_deadline = g.deadline_at.unwrap_or(u64::MAX);
        }
        s
    }

    fn dispatch_grid(&mut self, handle: u64) {
        let Some(g) = self.grids.get_mut(&handle) else {
            return;
        };
        if g.armed_at.map(|t| self.cycle < t).unwrap_or(true) || g.fully_dispatched() {
            return;
        }
        // A grid whose shape every SM already refused this cycle would be
        // refused by every SM again; that sweep's only effect is advancing
        // the round-robin cursor by exactly `n_sms`, invisible modulo
        // `n_sms`, so it is skipped.
        let shape = (g.kernel, g.dims.threads_per_cta());
        if self.refused_shapes.contains(&shape) {
            return;
        }
        let total = g.dims.num_ctas();
        let n_sms = self.lanes.len();
        let mut failures = 0;
        while g.next_cta < total && failures < n_sms {
            let sm = self.dispatch_cursor % n_sms;
            self.dispatch_cursor += 1;
            if !self.lanes.lane(sm).core.can_accept(shape.0, shape.1) {
                failures += 1;
                continue;
            }
            // The one place a sleeping lane's state changes; a parked one
            // is credited up to this cycle first.
            self.lanes.wake(sm, self.cycle);
            let placed = self.lanes.lane_mut(sm).core.try_launch_cta(CtaConfig {
                kernel_id: g.kernel,
                grid_handle: handle,
                cta_linear: g.next_cta,
                dims: g.dims,
                params: Arc::clone(&g.params),
                const_data: Arc::clone(&g.const_data),
                local_base: g.local_base,
                local_stride: g.local_stride,
            });
            debug_assert!(placed, "can_accept and try_launch_cta disagree");
            g.next_cta += 1;
            failures = 0;
        }
        if failures == n_sms {
            self.refused_shapes.push(shape);
        }
        let fully_dispatched = g.fully_dispatched();
        if g.start_cycle.is_none() && g.next_cta > 0 {
            g.start_cycle = Some(self.cycle);
            let stream = g.stream;
            if self.trace_on() {
                self.emit(TraceEventKind::KernelStart {
                    grid: handle,
                    stream,
                });
            }
        }
        if fully_dispatched {
            self.rebuild_summary();
        }
    }

    /// Allocate a grid's local-memory arena, returning `(base, stride)`.
    ///
    /// The per-thread stride is rounded up to 8 bytes and the arena is sized
    /// in whole warps: the warp-interleaved layout places same-granule
    /// accesses of all 32 lanes adjacently, so an unaligned stride (or a
    /// partial final warp) would otherwise reach past the allocation and
    /// trip the architectural bounds check.
    ///
    /// Retired arenas are recycled by exact size: a steady-state serving
    /// harness allocates each launch geometry's arena once, then reuses it
    /// forever (the allocation count stays flat across shape changes). A
    /// recycled arena is zero-filled so a reused span is bit-identical to a
    /// fresh allocation — local memory is functionally uninitialized, and
    /// fresh allocations read as zero. A fresh arena counts against
    /// `memory_limit` like any other allocation (the size may come from a
    /// guest register: a CDP child's grid).
    fn alloc_local_arena(
        mem: &mut DeviceMemory,
        free_arenas: &mut Vec<(u64, u64)>,
        k: &Kernel,
        dims: LaunchDims,
        memory_limit: u64,
    ) -> Result<(u64, u64), LaunchProblem> {
        let local_stride = (k.local_bytes_per_thread as u64).next_multiple_of(8);
        if local_stride == 0 {
            return Ok((0, 0));
        }
        let size = arena_bytes(local_stride, dims).unwrap_or(u64::MAX);
        if let Some(i) = free_arenas.iter().position(|&(s, _)| s == size) {
            let (_, base) = free_arenas.swap_remove(i);
            mem.write_slice(crate::memory::DevicePtr(base), &vec![0u8; size as usize]);
            return Ok((base, local_stride));
        }
        let in_use = mem.allocated();
        if size.saturating_add(in_use) > memory_limit {
            return Err(LaunchProblem::LocalMemoryExceeded {
                requested: size,
                in_use,
                limit: memory_limit,
            });
        }
        Ok((mem.alloc(size).0, local_stride))
    }

    // ---- CDP runtime ------------------------------------------------------

    /// Process a device-side launch emitted by SM `parent_sm` during the
    /// current cycle's SM phase (runs in the post-phase merge, so children
    /// enqueue in deterministic SM-index order).
    pub(super) fn spawn_child(&mut self, parent_sm: usize, l: ggpu_sm::DeviceLaunch) {
        if self.fault().is_some() || self.pending_fault.is_some() {
            return;
        }
        let parent = self.grids.get(&l.parent_grid);
        let stream = parent.map(|g| g.stream).unwrap_or(0);
        let depth = parent.map(|g| g.depth).unwrap_or(0) + 1;
        let parent_kernel = parent.map(|g| g.kernel);
        let forced_full = self
            .config
            .fault_plan
            .cdp_full_at
            .is_some_and(|c| self.cycle >= c);
        let kernel = KernelId(l.kernel);
        let dims = LaunchDims::linear(l.grid_x, l.block_x);
        let admitted = if forced_full || self.device_queue.len() >= CDP_QUEUE_LIMIT {
            Err((FaultKind::CdpQueueOverflow, None))
        } else if depth > CDP_MAX_DEPTH {
            Err((FaultKind::CdpNestingExceeded, None))
        } else {
            self.new_grid(kernel, dims, l.params, stream)
                .map_err(|problem| (FaultKind::CdpInvalidLaunch, Some(problem)))
        };
        let mut grid = match admitted {
            Ok(grid) => grid,
            Err((kind, problem)) => {
                let mut instr =
                    format!("launch k{} grid {} block {}", l.kernel, l.grid_x, l.block_x);
                if let Some(problem) = problem {
                    instr.push_str(&format!(": {problem}"));
                }
                let kernel = parent_kernel
                    .and_then(|k| self.program.get(k))
                    .map(|k| k.name.clone())
                    .unwrap_or_else(|| "?".to_string());
                self.pending_fault = Some(SimError::DeviceFault(Box::new(DeviceFault {
                    kind,
                    kernel: kernel.clone(),
                    stream,
                    sm: parent_sm,
                    cta: None,
                    warp: None,
                    warp_in_cta: None,
                    lane_mask: None,
                    pc: None,
                    instr,
                    addr: None,
                    cycle: self.cycle,
                })));
                if self.trace_on() {
                    self.emit(TraceEventKind::Fault {
                        kind,
                        kernel,
                        stream,
                    });
                }
                return;
            }
        };
        grid.parent = Some((parent_sm, l.parent_slot, l.parent_grid));
        grid.armed_at = Some(self.cycle + self.config.cdp_launch_overhead);
        grid.from_host = false;
        grid.depth = depth;
        let handle = self.next_grid;
        self.next_grid += 1;
        self.grids.insert(handle, grid);
        self.device_queue.push_back(handle);
        self.rebuild_summary();
        if self.trace_on() {
            self.emit(TraceEventKind::CdpEnqueue {
                grid: handle,
                kernel: self.kernel_name(kernel),
                parent: l.parent_grid,
                depth,
                ctas: dims.num_ctas(),
                threads_per_cta: dims.threads_per_cta(),
                stream,
            });
        }
    }

    // ---- retirement -------------------------------------------------------

    pub(super) fn grid_done(&mut self, handle: u64) {
        let grid = match self.grids.remove(&handle) {
            Some(g) => g,
            None => return,
        };
        if grid.local_stride != 0 {
            // Return the retired grid's local arena to the exact-size free
            // list so the next launch with the same geometry reuses it.
            let size = arena_bytes(grid.local_stride, grid.dims).expect("sized at launch");
            self.free_arenas.push((size, grid.local_base));
        }
        if self.recorder.is_some() {
            // Per-kernel counter scoping by retire interval (the recorder
            // turns the snapshot into the delta since the last retire).
            self.lanes.settle(self.cycle + 1);
            let record = KernelRecord {
                grid: handle,
                kernel: self.kernel_name(grid.kernel),
                kernel_id: grid.kernel.0,
                ctas: grid.dims.num_ctas(),
                threads_per_cta: grid.dims.threads_per_cta(),
                parent: grid.parent.map(|(_, _, p)| p),
                depth: grid.depth,
                stream: grid.stream,
                launch_cycle: grid.launch_cycle,
                start_cycle: grid.start_cycle.unwrap_or(grid.launch_cycle),
                retire_cycle: self.cycle,
                stats: self.stats(),
            };
            if let Some(r) = &mut self.recorder {
                r.retire(record);
            }
        }
        if self.trace_on() {
            self.emit(TraceEventKind::KernelRetire {
                grid: handle,
                stream: grid.stream,
            });
        }
        if let Some((sm, slot, parent_handle)) = grid.parent {
            // No wake: the notification only reaches a CTA that is still
            // resident, and a lane with one is awake. It may release warps
            // parked on `Dsync`, so a parked lane is credited through this
            // cycle and unparked first.
            self.lanes.unpark(sm, self.cycle + 1);
            self.lanes
                .lane_mut(sm)
                .core
                .child_grid_done(slot, Some(parent_handle));
            if self.trace_on() {
                self.emit(TraceEventKind::CdpDrain {
                    parent: parent_handle,
                    child: handle,
                });
            }
        }
        if grid.from_host {
            let s = grid.stream;
            debug_assert_eq!(self.streams[s].queue.front(), Some(&handle));
            self.streams[s].queue.pop_front();
            debug_assert_eq!(self.active_stream, Some(s));
            self.active_stream = None;
        }
        self.rebuild_summary();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_size_is_whole_warps_and_never_wraps() {
        // 33 threads round up to two warps of 32 slots each.
        assert_eq!(arena_bytes(8, LaunchDims::linear(3, 33)), Some(8 * 3 * 64));
        // A guest-chosen `grid_x` at the top of its range still has a size
        // (for `memory_limit` to refuse) ...
        let huge = LaunchDims::linear(u32::MAX, 128);
        assert_eq!(
            arena_bytes(1024, huge),
            Some(1024 * (u32::MAX as u64) * 128)
        );
        // ... and a size past 64 bits is `None`, not a small wrapped number.
        let dims = LaunchDims {
            grid: (u32::MAX, u32::MAX, 1),
            cta: (1024, 1, 1),
        };
        assert_eq!(arena_bytes(1024, dims), None);
        assert_eq!(arena_bytes(u64::MAX / 2, LaunchDims::linear(1, 32)), None);
    }
}
