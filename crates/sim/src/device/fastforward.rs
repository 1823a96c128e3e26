//! Idle-cycle fast-forward: jump the device clock over provably-dead spans.
//!
//! Cycle-level workloads spend most of their cycles waiting — on DRAM
//! round-trips, launch-overhead windows, barriers, long-latency pipes. A
//! per-cycle engine pays the full pre/SM/post loop for every one of those
//! cycles even though nothing can change. After each ticked cycle the
//! engine instead asks every unit for a conservative *next event cycle*:
//! the earliest future cycle at which that unit could possibly change
//! architectural or counted state. If the minimum `T` over all units lies
//! strictly beyond the next cycle `c0`, cycles `c0 .. T-1` are a **dead
//! span**: every per-cycle side effect within it (stall counters, DRAM
//! utilisation, per-PC stall attribution, watchdog bookkeeping) is a pure
//! function of the state at `c0` repeated once per cycle. The engine
//! credits the whole span in O(1)-per-unit calls and sets the clock to
//! `T-1`, so the next loop iteration ticks `T` normally.
//!
//! # Why this is bit-identical
//!
//! Each candidate below bounds `T` so that the corresponding unit's
//! observable behaviour is provably constant over `[c0, T)`:
//!
//! * **SM wakes** — only awake lanes are asked. A sleeping lane has nothing
//!   resident and nothing in flight, so it has no timed wake-up at all
//!   (dispatch wakes it, and the dispatcher is bounded below); its share of
//!   the span reaches it through the idle clock. For an awake lane
//!   [`ggpu_sm::SmCore::next_wake`] is the minimum, over its warps, of the
//!   wake-up the SM's one readiness rule (`Warp::readiness`, the function
//!   the schedulers pick by) returns beside the wait kind: `c0` unless
//!   every live warp is blocked (barrier/CDP-join, scoreboard pending, or
//!   an issue-interval/operand boundary strictly beyond `c0`). Boundaries
//!   (`next_issue_at`, the earliest `reg_ready`) bound `T`, and scoreboard
//!   releases only happen via replies, which are network events — bounded
//!   below. Hence every warp's wait classification, and therefore the
//!   per-scheduler stall record, is constant over the span and
//!   [`ggpu_sm::SmCore::skip_cycles`] charges it once, through the routine
//!   `tick` charges a single cycle with.
//! * **Memory system** — `MemSystem::next_event` bounds `T` by the earliest
//!   packet due (so no delivery, and no reply-driven SM change, happens
//!   inside the span) and by each DRAM channel's earliest possible issue
//!   (`bus_free_at` with a non-empty queue) or completion; a non-empty
//!   overflow backlog replays every cycle and returns `c0`, vetoing the
//!   skip. What a skipped tick would still have done — count a
//!   DRAM-active cycle — `MemSystem::skip` credits for the span. The L2 and
//!   the network links are event-driven on absolute cycle numbers and have
//!   no per-cycle state.
//! * **Dispatcher** — pending stream arbitration (a healthy stream with
//!   queued work and no active host grid) or an unarmed selected head arms
//!   next cycle (state change), so both veto, as does an open drain window
//!   (its finalisation is a cycle_post decision); a grid armed in the
//!   future bounds `T` by its arm cycle, and a cycle budget bounds `T` by
//!   its expiry so the kill lands on the per-cycle engine's exact cycle;
//!   an armed, partially-dispatched grid vetoes only if some SM could
//!   actually accept a CTA ([`ggpu_sm::SmCore::can_accept`], asked of the
//!   awake lanes and of one sleeping lane on behalf of all — they hold
//!   nothing, so they answer alike — and once per launch shape, however
//!   many grids of that shape are queued) — otherwise the sweep fails on
//!   every SM each cycle, whose only effect is advancing the round-robin
//!   cursor by exactly `n_sms` (invisible modulo `n_sms`).
//! * **Sampler** — interval windows close at absolute multiples of the
//!   period, so the next boundary bounds `T`; the boundary cycle itself is
//!   ticked normally and flushes with counters identical to the per-cycle
//!   engine's (span side effects were credited before it).
//! * **Watchdog** — the deadlock deadline (`last_progress +
//!   watchdog_cycles`) and the absolute backstop bound `T`, so the ticked
//!   cycle at which `sync_check` fires — and the cycle stamped into the
//!   report — are unchanged. The progress predicate itself is constant
//!   over a dead span (its inputs — `MemSystem::is_idle`, an inbound P2P
//!   payload, pending arm windows — are exactly what the candidates
//!   freeze), so [`Gpu::progress`] is evaluated once at `c0` and applied to
//!   the whole span.
//!
//! Anything not listed (the memcpy engine) is purely event-driven on
//! absolute cycle numbers and has no per-cycle state.
//!
//! The span is credited in O(awake lanes): each awake lane in one
//! `skip_cycles` call, every sleeping lane by advancing the idle clock
//! ([`super::lanes`]) by the span — the same two totals a ticked cycle
//! advances by one, which is why a lane cannot tell how the cycles it slept
//! through were retired.

use super::Gpu;

impl Gpu {
    /// If the next cycle begins a dead span, credit the span to every unit
    /// (awake lanes directly, sleeping lanes through the idle clock) and
    /// advance the clock to its last cycle. No-op (the engine keeps
    /// ticking per-cycle) whenever any unit might act on the next cycle.
    ///
    /// Must run between `cycle_post`/`sync_check` of one cycle and
    /// `cycle_pre` of the next, with every lane and the device state at
    /// rest.
    pub(super) fn try_fast_forward(&mut self, start: u64) {
        if !self.busy() {
            // The loop is about to exit; a skip here would credit cycles
            // the per-cycle engine never runs.
            return;
        }
        let c0 = self.cycle + 1;
        let mut t = self
            .last_progress
            .saturating_add(self.config.watchdog_cycles)
            .min(start.saturating_add(super::engine::MAX_SYNC_CYCLES));

        // SM wakes, over the awake lanes (a sleeping lane has no timed
        // wake-up); pending replies in a port mean the SM consumes them on
        // the very next tick (cannot happen after a fully merged cycle, but
        // cheap to keep the invariant local).
        for k in 0..self.lanes.awake().len() {
            let lane = self.lanes.lane_mut(self.lanes.awake()[k]);
            if !lane.ports.replies.is_empty() {
                return;
            }
            let wake = lane.core.next_wake(c0);
            if wake <= c0 {
                return;
            }
            t = t.min(wake);
        }

        // Memory system: the earliest packet delivery (always strictly in
        // the future here: `cycle_pre` popped everything due at the current
        // cycle, and packets are pushed at least one cycle out) or DRAM
        // issue, completion or backlog replay.
        let next = self.memsys.next_event(c0);
        if next <= c0 {
            return;
        }
        t = t.min(next);

        // Earliest inbound peer-to-peer arrival over the node fabric: the
        // payload must land in `cycle_post` of its exact arrival cycle, so
        // the span may not jump past it.
        if let Some(due) = self.pending_inbound.next_due() {
            if due <= c0 {
                return;
            }
            t = t.min(due);
        }

        // Dispatcher. A retiring grid in its drain window finalises the
        // moment its residual traffic lands — a cycle_post decision the
        // span cannot reproduce — so drains veto outright (they are short:
        // the traffic is already in flight).
        if self.draining.is_some() {
            return;
        }
        // Stream arbitration picks (and arms) a new host grid next cycle
        // whenever the device is free and any healthy stream has queued
        // work; an already-selected head that has not armed yet does the
        // same. Both are state changes, so both veto.
        match self.active_stream {
            None => {
                if self
                    .streams
                    .iter()
                    .any(|s| s.fault.is_none() && !s.queue.is_empty())
                {
                    return;
                }
            }
            Some(s) => {
                let head = self.streams[s].queue.front();
                if head.is_some_and(|h| self.grids.get(h).is_some_and(|g| g.armed_at.is_none())) {
                    return;
                }
            }
        }
        // Nothing moves between the grids scanned here, so one refusal per
        // launch shape answers for every queued grid of that shape.
        let refused = &mut self.refused_shapes;
        refused.clear();
        for g in self.grids.values() {
            match g.armed_at {
                Some(a) if a > c0 => t = t.min(a),
                Some(_) if !g.fully_dispatched() => {
                    let shape = (g.kernel, g.dims.threads_per_cta());
                    if !refused.contains(&shape) {
                        if self.lanes.any_can_accept(shape.0, shape.1) {
                            return;
                        }
                        refused.push(shape);
                    }
                }
                _ => {}
            }
            // A cycle budget must expire on the exact cycle the per-cycle
            // engine would kill it on (the stamp lands in the error).
            if let Some(dl) = g.deadline_at {
                t = t.min(dl);
            }
        }

        // Next interval-sample boundary must be ticked so its window
        // closes at the exact per-cycle-engine counters.
        if self.config.sample_interval_cycles != 0 {
            t = t.min(c0.next_multiple_of(self.config.sample_interval_cycles));
        }

        if t <= c0 {
            return;
        }
        let span = t - c0;

        // The progress predicate and `device_busy` are constant over the
        // span (see module docs); evaluate both once at `c0`.
        let progress = self.progress(c0, 0);
        let device_busy = self.device_busy_at(c0);

        for k in 0..self.lanes.awake().len() {
            let sm = self.lanes.awake()[k];
            self.lanes
                .lane_mut(sm)
                .core
                .skip_cycles(c0, device_busy, span);
        }
        self.lanes.advance_clock(span, device_busy);
        self.memsys.skip(c0, span);
        self.cycle = t - 1;
        if progress {
            self.last_progress = t - 1;
        }
        self.fast_forward_skipped_cycles += span;
    }
}
