//! DRAM channel model with open-row tracking and pluggable request
//! schedulers (Figures 16-18 of the paper).

use std::collections::VecDeque;

/// Request scheduling discipline of the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramScheduler {
    /// First-ready, first-come-first-serve: row hits first, then oldest.
    /// Scans the whole queue (the paper's baseline, queue-limited).
    FrFcfs,
    /// Strict in-order service of the queue head.
    Fifo,
    /// FR-FCFS over a reorder window of the given number of oldest entries
    /// (the paper's "OoO 128" uses 128).
    OoO(u32),
}

// GDDR6-flavoured channel geometry and timings of the RTX 3070 baseline.
// The paper's sweeps vary only the scheduler and the queue, so these are
// constants rather than fields of `DramConfig`.

/// Banks per channel.
const BANKS: usize = 16;
/// Row (page) size in bytes.
const ROW_BYTES: u64 = 2048;
/// Column-access latency (cycles) for a row hit.
const T_CL: u64 = 20;
/// Precharge latency (cycles).
const T_RP: u64 = 20;
/// Activate latency (cycles).
const T_RCD: u64 = 20;
/// Data-burst occupancy of the channel pins per request (cycles).
const BURST: u64 = 4;

/// The settable half of a DRAM channel: the request scheduler Figures
/// 16-18 sweep and the queue depth. Geometry and timings are fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Scheduler discipline.
    pub scheduler: DramScheduler,
    /// Request queue capacity; pushes beyond this are rejected (back-pressure).
    pub queue_size: usize,
}

impl Default for DramConfig {
    /// The RTX 3070 baseline: FR-FCFS over a 32-entry queue.
    fn default() -> Self {
        DramConfig {
            scheduler: DramScheduler::FrFcfs,
            queue_size: 32,
        }
    }
}

crate::counter_set! {
    /// Counters behind the paper's DRAM efficiency (Fig 17) and utilization
    /// (Fig 18) metrics.
    pub struct DramStats {
        /// Requests serviced.
        pub requests,
        /// Requests that hit an open row.
        pub row_hits,
        /// Cycles the data pins were transferring data.
        pub data_cycles,
        /// Cycles the controller had pending or in-flight requests.
        pub active_cycles,
        /// Requests rejected due to a full queue.
        pub rejected,
    }
}

impl DramStats {
    /// DRAM efficiency: data-pin cycles over controller-active cycles
    /// (Fig 17). Zero when never active.
    pub fn efficiency(&self) -> f64 {
        if self.active_cycles == 0 {
            0.0
        } else {
            self.data_cycles as f64 / self.active_cycles as f64
        }
    }

    /// DRAM utilization: data-pin cycles over `total_cycles` of the kernel
    /// (Fig 18).
    pub fn utilization(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            self.data_cycles as f64 / total_cycles as f64
        }
    }

    /// Row-hit rate over serviced requests.
    pub fn row_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.requests as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingReq {
    id: u64,
    addr: u64,
}

/// One DRAM channel: a request queue, per-bank open rows, and a shared data
/// bus. [`Dram::tick`] issues at most one request per cycle and returns the
/// id of the request that finished, if one did.
///
/// The bus is held from a request's issue to its completion, so at most one
/// request is ever in flight and no bank is still busy when the next one
/// issues. A channel's efficiency (Fig 17) is therefore capped by the
/// access latency, whatever the queue pressure: `BURST / (T_CL + BURST)` =
/// 4/24 on a stream of row hits, 4/44 on closed rows and 4/64 on row
/// conflicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dram {
    config: DramConfig,
    queue: Vec<PendingReq>,
    /// Overflow backlog: requests accepted by [`Dram::enqueue`] while the
    /// scheduler queue was full, replayed in arrival order as space opens.
    overflow: VecDeque<PendingReq>,
    open_rows: [Option<u64>; BANKS],
    bus_free_at: u64,
    /// Id of the request issued but not yet reported complete. It holds the
    /// bus, so it completes at `bus_free_at`.
    in_flight: Option<u64>,
    stats: DramStats,
    /// Per-bank (requests serviced, row hits) — the profiler's spatial
    /// attribution axis. Always maintained; two counter increments per
    /// serviced request.
    bank_stats: [(u64, u64); BANKS],
}

impl Dram {
    /// Build a channel from its configuration.
    pub fn new(config: DramConfig) -> Self {
        Dram {
            config,
            queue: Vec::new(),
            overflow: VecDeque::new(),
            open_rows: [None; BANKS],
            bus_free_at: 0,
            in_flight: None,
            stats: DramStats::default(),
            bank_stats: [(0, 0); BANKS],
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Reset statistics, keeping open-row state.
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
        for b in &mut self.bank_stats {
            *b = (0, 0);
        }
    }

    /// Per-bank `(requests, row_hits)` counters, indexed by bank. Summed
    /// over banks they reproduce the channel's aggregate `requests` and
    /// `row_hits`.
    pub fn bank_stats(&self) -> &[(u64, u64)] {
        &self.bank_stats
    }

    /// True when the channel has no queued, backlogged, or in-flight
    /// requests.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.overflow.is_empty() && self.in_flight.is_none()
    }

    /// True when [`Dram::tick`] at `now` would change nothing: the channel is
    /// idle and its data bus free.
    pub fn is_quiet(&self, now: u64) -> bool {
        self.is_idle() && self.bus_free_at <= now
    }

    /// Current channel occupancy: queued, backlogged, plus in-flight
    /// requests (deadlock diagnostics).
    pub fn queue_depth(&self) -> usize {
        self.queue.len() + self.overflow.len() + self.in_flight.is_some() as usize
    }

    /// Enqueue a request, never refusing it: when the scheduler queue is
    /// full the request parks in an internal overflow backlog and is
    /// replayed (in arrival order) as space opens on later ticks. This is
    /// the port the simulator's memory partitions feed.
    pub fn enqueue(&mut self, id: u64, addr: u64, now: u64) {
        if !self.push(id, addr, now) {
            self.overflow.push_back(PendingReq { id, addr });
        }
    }

    /// Drop the overflow backlog (device halt): backlogged requests never
    /// reached the scheduler queue and their waiters are gone.
    pub fn clear_overflow(&mut self) {
        self.overflow.clear();
    }

    /// Precharge every bank (close all open rows). Used at canonical kernel
    /// boundaries so the row-buffer state a grid starts from never depends
    /// on what ran before it. Only meaningful on an idle channel — by then
    /// the bus has already expired, so forgetting the open rows is the
    /// channel's entire residual state.
    pub fn close_rows(&mut self) {
        debug_assert!(self.is_idle(), "close_rows on a busy channel");
        self.open_rows = [None; BANKS];
    }

    /// Enqueue a request; returns `false` (and counts a rejection) when the
    /// queue is full, in which case the caller must retry later.
    pub fn push(&mut self, id: u64, addr: u64, now: u64) -> bool {
        if self.queue.len() >= self.config.queue_size {
            self.stats.rejected += 1;
            return false;
        }
        let _ = now;
        self.queue.push(PendingReq { id, addr });
        true
    }

    #[inline]
    fn bank_and_row(&self, addr: u64) -> (usize, u64) {
        let row_global = addr / ROW_BYTES;
        (
            (row_global % BANKS as u64) as usize,
            row_global / BANKS as u64,
        )
    }

    /// Advance one cycle: report the request whose data has fully
    /// transferred by `now`, if any, and possibly issue one queued request.
    pub fn tick(&mut self, now: u64) -> std::option::IntoIter<u64> {
        // Replay the overflow backlog while the scheduler queue has space
        // (each refused replay still counts as a rejection, like any push).
        while let Some(&PendingReq { id, addr }) = self.overflow.front() {
            if self.push(id, addr, now) {
                self.overflow.pop_front();
            } else {
                break;
            }
        }

        if !self.queue.is_empty() || self.in_flight.is_some() || self.bus_free_at > now {
            self.stats.active_cycles += 1;
        }

        // The completion is harvested first: it frees the bus it held.
        let done = if self.bus_free_at <= now {
            self.in_flight.take()
        } else {
            None
        };

        // Issue at most one request per cycle when the bus can accept it.
        if !self.queue.is_empty() && self.bus_free_at <= now {
            if let Some(idx) = self.pick(now) {
                debug_assert!(self.in_flight.is_none(), "two requests in flight");
                let req = self.queue.remove(idx);
                let (bank_idx, row) = self.bank_and_row(req.addr);
                let open_row = &mut self.open_rows[bank_idx];
                let row_hit = *open_row == Some(row);
                let latency = if row_hit {
                    T_CL
                } else if open_row.is_some() {
                    T_RP + T_RCD + T_CL
                } else {
                    T_RCD + T_CL
                };
                *open_row = Some(row);
                self.bus_free_at = now + latency + BURST;
                self.stats.requests += 1;
                self.bank_stats[bank_idx].0 += 1;
                if row_hit {
                    self.stats.row_hits += 1;
                    self.bank_stats[bank_idx].1 += 1;
                }
                self.stats.data_cycles += BURST;
                self.in_flight = Some(req.id);
            }
        }
        done.into_iter()
    }

    /// Conservative next cycle (≥ `c0`) at which [`Dram::tick`] could do
    /// observable work: issue a queued request once the bus frees, harvest
    /// an in-flight completion, or replay the overflow backlog. Returns
    /// `u64::MAX` when the channel has nothing scheduled.
    ///
    /// Used by the engine's idle-cycle fast-forward: every tick strictly
    /// before the returned cycle only increments `active_cycles`, which
    /// [`Dram::skip_cycles`] credits exactly.
    pub fn next_event_cycle(&self, c0: u64) -> u64 {
        if !self.overflow.is_empty() {
            // Backlog replay (and its per-tick rejection accounting when the
            // queue stays full) happens every cycle: never skip over it.
            return c0;
        }
        // Both the next issue and the in-flight completion wait for the bus.
        if self.queue.is_empty() && self.in_flight.is_none() {
            u64::MAX
        } else {
            self.bus_free_at.max(c0)
        }
    }

    /// Credit `span` fast-forwarded cycles starting at `c0` as if
    /// [`Dram::tick`] had run each one. Sound only when the engine has
    /// proven `next_event_cycle(c0) > c0 + span - 1`: then each skipped
    /// tick would only have evaluated the active-cycle condition, whose
    /// terms are all constant (or expire at a known cycle) over the span.
    pub fn skip_cycles(&mut self, c0: u64, span: u64) {
        debug_assert!(self.overflow.is_empty(), "skipped over a backlog replay");
        if !self.queue.is_empty() || self.in_flight.is_some() {
            self.stats.active_cycles += span;
        } else {
            // Idle channel still counts active while the bus drains.
            self.stats.active_cycles += span.min(self.bus_free_at.saturating_sub(c0));
        }
    }

    /// Choose the next request index according to the scheduler.
    fn pick(&self, _now: u64) -> Option<usize> {
        if self.queue.is_empty() {
            return None;
        }
        let window = match self.config.scheduler {
            DramScheduler::Fifo => 1,
            DramScheduler::FrFcfs => self.queue.len(),
            DramScheduler::OoO(n) => (n as usize).min(self.queue.len()),
        };
        // Queue is kept in arrival order; consider the oldest `window`.
        let mut best: Option<usize> = None;
        for i in 0..window {
            let (bank_idx, row) = self.bank_and_row(self.queue[i].addr);
            if self.open_rows[bank_idx] == Some(row) {
                // Oldest row hit wins immediately under FR-FCFS.
                return Some(i);
            }
            if best.is_none() {
                best = Some(i);
            }
        }
        // No row hit in the window: oldest request.
        best.or(Some(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One cache line: consecutive lines of a row are row hits.
    const LINE: u64 = crate::LINE_BYTES;

    fn drain(dram: &mut Dram, until: u64) -> Vec<(u64, u64)> {
        let mut done = Vec::new();
        for t in 0..until {
            for id in dram.tick(t) {
                done.push((id, t));
            }
        }
        done
    }

    #[test]
    fn single_request_latency_components() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        assert!(d.push(1, 0, 0));
        let done = drain(&mut d, 200);
        assert_eq!(done.len(), 1);
        // Cold bank: tRCD + tCL + burst = 20+20+4 = 44, issued at cycle 0.
        assert_eq!(done[0].1, 44);
        assert!(d.is_idle());
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        let cfg = DramConfig::default();
        // Same row twice.
        let mut d = Dram::new(cfg);
        d.push(1, 0, 0);
        d.push(2, 64, 0);
        let done = drain(&mut d, 400);
        let t_same = done[1].1 - done[0].1;

        // Two different rows in the same bank: row * banks * row_bytes apart.
        let mut d2 = Dram::new(cfg);
        d2.push(1, 0, 0);
        d2.push(2, ROW_BYTES * BANKS as u64, 0);
        let done2 = drain(&mut d2, 800);
        let t_conflict = done2[1].1 - done2[0].1;
        assert!(
            t_conflict > t_same,
            "conflict {t_conflict} should exceed row-hit {t_same}"
        );
    }

    #[test]
    fn frfcfs_prefers_row_hits_fifo_does_not() {
        let cfg = DramConfig::default();
        // Open row 0 of bank 0, then queue a conflicting row and a row hit.
        let conflict_addr = ROW_BYTES * BANKS as u64; // bank 0, row 1
        let mut fr = Dram::new(DramConfig {
            scheduler: DramScheduler::FrFcfs,
            ..cfg
        });
        fr.push(0, 0, 0);
        let _ = drain(&mut fr, 100);
        fr.push(1, conflict_addr, 100);
        fr.push(2, 64, 100); // row hit on open row 0
        let mut done = Vec::new();
        for t in 100..600 {
            for id in fr.tick(t) {
                done.push(id);
            }
        }
        assert_eq!(done, vec![2, 1], "FR-FCFS services the row hit first");

        let mut fifo = Dram::new(DramConfig {
            scheduler: DramScheduler::Fifo,
            ..cfg
        });
        fifo.push(0, 0, 0);
        let _ = drain(&mut fifo, 100);
        fifo.push(1, conflict_addr, 100);
        fifo.push(2, 64, 100);
        let mut done = Vec::new();
        for t in 100..600 {
            for id in fifo.tick(t) {
                done.push(id);
            }
        }
        assert_eq!(done, vec![1, 2], "FIFO services in arrival order");
    }

    #[test]
    fn enqueue_overflow_replays_in_order() {
        let mut d = Dram::new(DramConfig {
            queue_size: 2,
            ..DramConfig::default()
        });
        for i in 0..6u64 {
            d.enqueue(i, i * 64, 0);
        }
        assert!(!d.is_idle());
        assert_eq!(d.queue_depth(), 6);
        assert_eq!(d.stats().rejected, 4, "overflowed pushes count rejections");
        let done = drain(&mut d, 2_000);
        assert_eq!(done.len(), 6, "backlogged requests are eventually served");
        assert!(d.is_idle());
    }

    #[test]
    fn clear_overflow_drops_backlog_only() {
        let mut d = Dram::new(DramConfig {
            queue_size: 1,
            ..DramConfig::default()
        });
        d.enqueue(0, 0, 0);
        d.enqueue(1, 64, 0);
        assert_eq!(d.queue_depth(), 2);
        d.clear_overflow();
        assert_eq!(d.queue_depth(), 1);
        let done = drain(&mut d, 500);
        assert_eq!(done.len(), 1);
        assert!(d.is_idle());
    }

    #[test]
    fn close_rows_forgets_open_row_state() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        // Open row 0 of bank 0, then measure a same-row access: a row hit.
        d.push(0, 0, 0);
        let _ = drain(&mut d, 100);
        assert!(d.is_idle());
        d.push(1, 64, 100);
        let mut done = Vec::new();
        for t in 100..300 {
            for id in d.tick(t) {
                done.push((id, t));
            }
        }
        let t_hit = done[0].1 - 100;

        // Same sequence, but the rows are closed between the two accesses:
        // the second access now pays the activate latency again.
        let mut d2 = Dram::new(cfg);
        d2.push(0, 0, 0);
        let _ = drain(&mut d2, 100);
        d2.close_rows();
        d2.push(1, 64, 100);
        let mut done2 = Vec::new();
        for t in 100..300 {
            for id in d2.tick(t) {
                done2.push((id, t));
            }
        }
        let t_closed = done2[0].1 - 100;
        assert!(
            t_closed > t_hit,
            "closed-row access ({t_closed}) must be slower than a row hit ({t_hit})"
        );
        assert_eq!(t_closed - t_hit, T_RCD, "difference is the activate");
    }

    #[test]
    fn queue_backpressure() {
        let mut d = Dram::new(DramConfig {
            queue_size: 2,
            ..DramConfig::default()
        });
        assert!(d.push(0, 0, 0));
        assert!(d.push(1, 128, 0));
        assert!(!d.push(2, 256, 0));
        assert_eq!(d.stats().rejected, 1);
    }

    #[test]
    fn efficiency_and_utilization_counters() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        d.push(1, 0, 0);
        d.push(2, 64, 0);
        let _ = drain(&mut d, 300);
        let s = *d.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.row_hits, 1);
        assert_eq!(s.data_cycles, 2 * BURST);
        assert!(s.efficiency() > 0.0 && s.efficiency() <= 1.0);
        assert!(s.utilization(300) > 0.0 && s.utilization(300) < s.efficiency());
        assert_eq!(s.row_hit_rate(), 0.5);
    }

    #[test]
    fn bank_stats_telescope_to_channel_totals() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        // Bank 0 twice (second is a row hit) and bank 1 once.
        d.push(1, 0, 0);
        d.push(2, 64, 0);
        d.push(3, ROW_BYTES, 0);
        let _ = drain(&mut d, 500);
        let s = *d.stats();
        assert_eq!(s.requests, 3);
        let (req_sum, hit_sum) = d
            .bank_stats()
            .iter()
            .fold((0, 0), |(r, h), &(br, bh)| (r + br, h + bh));
        assert_eq!(req_sum, s.requests);
        assert_eq!(hit_sum, s.row_hits);
        assert_eq!(d.bank_stats()[0], (2, 1));
        assert_eq!(d.bank_stats()[1].0, 1);
        d.reset_stats();
        assert_eq!(d.bank_stats()[0], (0, 0));
    }

    #[test]
    fn ooo_window_bounds_reordering() {
        let cfg = DramConfig::default();
        // Open bank0/row0; then queue [conflict, hit]; with window=1 the
        // scheduler behaves like FIFO and cannot see the hit.
        let conflict_addr = ROW_BYTES * BANKS as u64;
        let mut d = Dram::new(DramConfig {
            scheduler: DramScheduler::OoO(1),
            ..cfg
        });
        d.push(0, 0, 0);
        let _ = drain(&mut d, 100);
        d.push(1, conflict_addr, 100);
        d.push(2, 64, 100);
        let mut done = Vec::new();
        for t in 100..700 {
            for id in d.tick(t) {
                done.push(id);
            }
        }
        assert_eq!(done, vec![1, 2]);
    }

    #[test]
    fn fast_forward_matches_per_tick_accounting() {
        let cfg = DramConfig::default();
        let mut per_tick = Dram::new(cfg);
        let mut skipping = Dram::new(cfg);
        for d in [&mut per_tick, &mut skipping] {
            d.push(1, 0, 0);
            d.push(2, ROW_BYTES, 0);
            d.push(3, ROW_BYTES * BANKS as u64, 0);
        }
        let mut done_a = Vec::new();
        for t in 0..300 {
            for id in per_tick.tick(t) {
                done_a.push((id, t));
            }
        }
        // Skipping run: tick only at event cycles, credit the gaps.
        let mut done_b = Vec::new();
        let mut now = 0u64;
        while now < 300 {
            for id in skipping.tick(now) {
                done_b.push((id, now));
            }
            let c0 = now + 1;
            let target = skipping.next_event_cycle(c0).min(300);
            if target > c0 {
                skipping.skip_cycles(c0, target - c0);
                now = target;
            } else {
                now = c0;
            }
        }
        assert_eq!(done_a, done_b, "completions must not shift");
        assert_eq!(per_tick.stats(), skipping.stats());
        assert_eq!(per_tick.bank_stats(), skipping.bank_stats());
    }

    #[test]
    fn a_quiet_channel_tick_changes_nothing() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        assert!(d.is_quiet(0));
        d.push(1, 0, 0);
        let done = drain(&mut d, 45);
        assert_eq!(done, [(1, 44)]);
        // Idle, but ticked at a cycle before the bus frees (as after a drain
        // off the device clock) it still counts an active cycle.
        assert!(d.is_idle() && !d.is_quiet(43));
        let mut early = d.clone();
        assert_eq!(early.tick(43).len(), 0);
        assert_ne!(early, d);
        // Quiet: a tick changes nothing, however many.
        let before = d.clone();
        for now in 44..200 {
            assert!(d.is_quiet(now));
            assert_eq!(d.tick(now).len(), 0);
        }
        assert_eq!(d, before);
    }

    /// Tick `d` every cycle from 0 until it is idle; each completion's cycle,
    /// checking that no tick reports more than one.
    fn completion_cycles(d: &mut Dram) -> Vec<u64> {
        let mut at = Vec::new();
        for t in 0..10_000 {
            let done = d.tick(t);
            assert!(done.len() <= 1, "two completions at cycle {t}");
            at.extend(done.map(|_| t));
            assert!(d.in_flight.is_none() || d.bus_free_at > t);
            if d.is_idle() {
                return at;
            }
        }
        panic!("the channel never drained");
    }

    #[test]
    fn a_saturated_row_hit_stream_is_capped_by_the_bus_hold() {
        // Sixteen columns of one row, all queued at once: the first opens
        // the row (tRCD + tCL + burst), every later one is a row hit that
        // issues the cycle the one before it completes (tCL + burst).
        let n = 16;
        let mut d = Dram::new(DramConfig::default());
        for i in 0..n {
            assert!(d.push(i, i * LINE, 0));
        }
        let at = completion_cycles(&mut d);
        let expect: Vec<u64> = (0..n).map(|i| 44 + 24 * i).collect();
        assert_eq!(at, expect);
        let s = *d.stats();
        assert_eq!((s.requests, s.row_hits), (n, n - 1));
        // The completion cycle is active too: 45 + 24 (n - 1) cycles carry
        // 4n data cycles, which tends to BURST / (T_CL + BURST) = 1/6.
        assert_eq!(s.data_cycles, BURST * n);
        assert_eq!(s.active_cycles, 45 + (T_CL + BURST) * (n - 1));
        assert!(s.efficiency() < BURST as f64 / (T_CL + BURST) as f64);
    }

    #[test]
    fn closed_rows_and_row_conflicts_space_completions_by_their_latency() {
        // A full queue of requests to sixteen closed banks: each pays an
        // activate, and none overlaps the one before it.
        let mut closed = Dram::new(DramConfig::default());
        for b in 0..BANKS as u64 {
            closed.push(b, b * ROW_BYTES, 0);
        }
        let at = completion_cycles(&mut closed);
        assert!(at.windows(2).all(|w| w[1] - w[0] == T_RCD + T_CL + BURST));
        // Sixteen rows of one bank: every request after the first is a
        // conflict (precharge, activate, column access).
        let mut conflicts = Dram::new(DramConfig::default());
        for i in 0..16u64 {
            conflicts.push(i, i * ROW_BYTES * BANKS as u64, 0);
        }
        let at = completion_cycles(&mut conflicts);
        assert!(at
            .windows(2)
            .all(|w| w[1] - w[0] == T_RP + T_RCD + T_CL + BURST));
        assert_eq!(conflicts.stats().row_hits, 0);
    }

    #[test]
    fn banks_overlap_but_bus_serializes_data() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        // Two different banks (consecutive rows map to consecutive banks).
        d.push(1, 0, 0);
        d.push(2, ROW_BYTES, 0);
        let done = drain(&mut d, 400);
        assert_eq!(done.len(), 2);
        // Second completes at least one burst after the first.
        assert!(done[1].1 >= done[0].1 + BURST);
    }
}
