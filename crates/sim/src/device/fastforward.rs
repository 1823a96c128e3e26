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
//!   the span reaches it through the busy total. For an awake lane
//!   [`ggpu_sm::SmCore::next_wake`] is the minimum, over its warps, of the
//!   wake-up the SM's one readiness rule (`Warp::readiness`, the function
//!   the schedulers pick by) returns beside the wait kind: `c0` unless
//!   every live warp is blocked (barrier/CDP-join, scoreboard pending, or
//!   an issue-interval/operand boundary strictly beyond `c0`). Boundaries
//!   (`next_issue_at`, the earliest operand `ready_at`) bound `T`, and scoreboard
//!   releases only happen via replies, which are network events — bounded
//!   below. Hence every warp's wait classification, and therefore the
//!   per-scheduler stall record, is constant over the span and
//!   [`ggpu_sm::SmCore::skip_cycles`] charges it once, through the routine
//!   `tick` charges a single cycle with. The same argument holds for one
//!   lane on its own, so the scan also **parks** each awake lane it asks
//!   whose wake-up lies beyond `c0` ([`super::lanes`], "Parked lanes"),
//!   whether or not another unit vetoes the jump: the SM phase then passes
//!   it by until that wake-up or a reply. A parked lane answers the scan
//!   with the wake-up it stored, which is what `next_wake` would return
//!   again, and the scan stops at the first lane that must tick at `c0`,
//!   as it did before lanes parked, so parking never moves a jump.
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
//!   cursor by exactly `n_sms` (invisible modulo `n_sms`). All of this but
//!   the stream queues is read off the ledger summary (`launch.rs`): the
//!   head's arm state, the earliest deadline, and the armed launch shapes
//!   with CTAs left, with their arm cycles — the grid map is not scanned.
//! * **Sampler** — interval windows close at absolute multiples of the
//!   period, so the next boundary bounds `T`; the boundary cycle itself is
//!   ticked normally and flushes with counters identical to the per-cycle
//!   engine's (span side effects were credited before it).
//! * **Watchdog** — the deadlock deadline (`last_progress +
//!   watchdog_cycles`) and the absolute backstop bound `T`, so the ticked
//!   cycle at which `sync_check` fires — and the cycle stamped into the
//!   report — are unchanged. The progress predicate itself is constant
//!   over a dead span (its inputs — `MemSystem::is_idle` and pending arm
//!   windows — are exactly what the candidates freeze), so
//!   [`Gpu::progress`] is evaluated once at `c0` and applied to the whole
//!   span.
//!
//! Anything not listed (the memcpy engine) is purely event-driven on
//! absolute cycle numbers and has no per-cycle state.
//!
//! The span is credited in O(awake lanes): each awake lane that is not
//! parked in one `skip_cycles` call, every sleeping lane by counting the
//! span into the busy total ([`super::lanes`]) when the device is busy —
//! what a ticked cycle adds one at a time — and by the clock's own jump,
//! since a sleeping lane is credited `end - from` cycles; that is why a
//! lane cannot tell how the cycles it slept through were retired. A parked
//! lane is left alone: the span joins the cycles it is credited when it
//! resumes or a counter is read.

use super::Gpu;

impl Gpu {
    /// Park the awake lanes the scan reaches that cannot issue on the next
    /// cycle. Then, if that cycle begins a dead span, credit the span to
    /// every unit (unparked awake lanes directly, sleeping lanes through the
    /// busy total, parked lanes at their next credit) and advance the clock
    /// to its last cycle. The jump is a no-op (the engine keeps ticking
    /// per-cycle) whenever any unit might act on the next cycle.
    ///
    /// Must run between `cycle_post`/`sync_check` of one cycle and
    /// `cycle_pre` of the next, with every lane and the device state at
    /// rest.
    pub(super) fn try_fast_forward(&mut self, start: u64) {
        // The caller has checked that the device is busy: past the last
        // busy cycle a skip would credit cycles the per-cycle engine never
        // runs.
        let c0 = self.cycle + 1;
        let mut t = self
            .last_progress
            .saturating_add(self.config.watchdog_cycles)
            .min(start.saturating_add(super::engine::MAX_SYNC_CYCLES));

        // SM wakes, over the awake lanes (a sleeping lane has no timed
        // wake-up; a parked one answers with the wake-up it stored). The
        // first lane that must tick at `c0` ends the scan; the lanes after
        // it stay as they are until a later scan reaches them.
        let wake = self.lanes.park_idle(c0);
        if wake <= c0 {
            return;
        }
        t = t.min(wake);

        // Memory system: the earliest packet delivery (always strictly in
        // the future here: `cycle_pre` popped everything due at the current
        // cycle, and packets are pushed at least one cycle out) or DRAM
        // issue, completion or backlog replay.
        let next = self.memsys.next_event(c0);
        if next <= c0 {
            return;
        }
        t = t.min(next);

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
        let summary = self.summary();
        let arbitration_due = self.active_stream.is_none()
            && self
                .streams
                .iter()
                .any(|s| s.fault.is_none() && !s.queue.is_empty());
        if arbitration_due || summary.head_unarmed {
            return;
        }
        // A cycle budget must expire on the exact cycle the per-cycle
        // engine would kill it on (the stamp lands in the error).
        t = t.min(summary.deadline);
        // Nothing moves while the pending shapes are asked, so one refusal
        // answers for every entry of that shape, and they are adjacent.
        let mut refused = None;
        for &(kernel, threads, armed_at) in &summary.pending {
            if armed_at > c0 {
                t = t.min(armed_at);
            } else if refused != Some((kernel, threads)) {
                if self.lanes.any_can_accept(kernel, threads) {
                    return;
                }
                refused = Some((kernel, threads));
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

        self.lanes.skip_span(c0, device_busy, span);
        self.memsys.skip(c0, span);
        self.cycle = t - 1;
        if progress {
            self.last_progress = t - 1;
        }
        self.fast_forward_skipped_cycles += span;
    }
}
