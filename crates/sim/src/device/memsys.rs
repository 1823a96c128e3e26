//! The memory system: everything between a [`MemRequest`] leaving an SM's
//! out-port and its reply id landing in that SM's in-port — the request and
//! reply networks, the L2 slices, the DRAM channels, the packets in flight
//! between them and the loads parked on an L2 fill.
//!
//! The engine drives it through two calls a cycle. [`MemSystem::tick`] runs
//! in the pre phase and does, in this order: due packets pop in (time,
//! insertion) order — a reply goes to `deliver`, a request is looked up in
//! its partition's L2 slice on the spot; then the DRAM channels tick in
//! partition order, each completed fill installing its line and answering
//! the loads parked on it in the order they arrived. [`MemSystem::send`]
//! runs in the post phase, once per request in (SM index, issue order).
//! Link horizons, L2 LRU stamps, DRAM queue positions and the reply numbering
//! [`crate::FaultPlan::drop_reply`] counts by are all functions of that
//! order, so it is part of the results fence (`crates/bench/tests/
//! mem_modes.rs` pins it in every non-default mode, the unit tests below pin
//! the latency arithmetic).
//!
//! Nothing here has per-cycle state except the DRAM channels' active-cycle
//! counters, which is why fast-forward needs only [`MemSystem::next_event`]
//! and [`MemSystem::skip`]. For the same reason `tick` passes by a quiet
//! channel (`Dram::is_quiet`: nothing queued, backlogged or in flight and
//! its bus free), whose tick would change nothing; the order among the
//! channels that do tick is unchanged.

use std::collections::HashMap;

use ggpu_icnt::{DeliveryQueue, Icnt};
use ggpu_mem::{Cache, CacheOutcome, Dram, LINE_BYTES};
use ggpu_sm::{MemRequest, ReqKind};

use crate::config::{GpuConfig, L2_LATENCY};
use crate::profile::PartitionUnit;
use crate::stats::RunStats;

/// Payload bytes of each packet kind (the network adds its own header).
const LOAD_REQ_BYTES: u32 = 32;
const ATOMIC_REQ_BYTES: u32 = 40;
const STORE_REQ_BYTES: u32 = 8 + LINE_BYTES as u32;
const REPLY_BYTES: u32 = 8 + LINE_BYTES as u32;

/// Address-interleaving granule across memory partitions.
const PARTITION_STRIDE: u64 = 256;

/// A DRAM request's id is the L2 line it fills (`Dram` treats ids as opaque,
/// so what they encode cannot change what a channel decides). Pure write
/// traffic has nothing to do on completion and carries this id, which no
/// line — an address over [`LINE_BYTES`] — can equal.
const WRITE_ID: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Packet {
    /// A request arriving at its memory partition.
    Request {
        sm: usize,
        id: u64,
        addr: u64,
        kind: ReqKind,
    },
    /// A reply arriving back at its SM.
    Reply { sm: usize, id: u64 },
}

#[derive(Debug)]
pub(super) struct MemSystem {
    n_sms: usize,
    /// [`crate::FaultPlan::drop_reply`].
    drop_reply: Option<u64>,
    l2: Vec<Cache>,
    dram: Vec<Dram>,
    icnt_req: Icnt,
    icnt_rep: Icnt,
    /// In-flight network packets, popped in (time, insertion) order.
    packets: DeliveryQueue<Packet>,
    /// (partition, line) → (sm, request id) loads awaiting an L2 fill, in
    /// arrival order.
    waiters: HashMap<(usize, u64), Vec<(usize, u64)>>,
    /// Replies sent so far, for deterministic drop-the-Nth injection.
    replies_sent: u64,
}

impl MemSystem {
    pub(super) fn new(config: &GpuConfig) -> Self {
        let parts = config.n_partitions;
        MemSystem {
            n_sms: config.n_sms,
            drop_reply: config.fault_plan.drop_reply,
            l2: (0..parts).map(|_| Cache::new(config.l2_slice)).collect(),
            dram: (0..parts).map(|_| Dram::new(config.dram)).collect(),
            icnt_req: Icnt::new(config.icnt, config.n_sms, parts),
            icnt_rep: Icnt::new(config.icnt, config.n_sms, parts),
            packets: DeliveryQueue::new(),
            waiters: HashMap::new(),
            replies_sent: 0,
        }
    }

    fn partition_of(&self, addr: u64) -> usize {
        ((addr / PARTITION_STRIDE) % self.l2.len() as u64) as usize
    }

    /// Inject SM `sm`'s request into the request network at cycle `now`.
    pub(super) fn send(&mut self, sm: usize, req: MemRequest, now: u64) {
        let bytes = match req.kind {
            ReqKind::Load => LOAD_REQ_BYTES,
            ReqKind::Store => STORE_REQ_BYTES,
            ReqKind::Atomic => ATOMIC_REQ_BYTES,
        };
        let from = self.icnt_req.src_node(sm);
        let to = self.icnt_req.dst_node(self.partition_of(req.addr));
        let t = self.icnt_req.send(from, to, bytes, now);
        self.packets.push(
            t.max(now + 1),
            Packet::Request {
                sm,
                id: req.id,
                addr: req.addr,
                kind: req.kind,
            },
        );
    }

    /// Advance to cycle `now` (module docs give the order). `deliver(sm,
    /// id)` receives each reply due, to be consumed by the SM's tick this
    /// same cycle.
    pub(super) fn tick(&mut self, now: u64, mut deliver: impl FnMut(usize, u64)) {
        while let Some(packet) = self.packets.pop_due(now) {
            match packet {
                Packet::Request { sm, id, addr, kind } => self.l2_arrive(sm, id, addr, kind, now),
                Packet::Reply { sm, id } => deliver(sm, id),
            }
        }
        for part in 0..self.dram.len() {
            // A quiet channel's tick would change nothing, so it is passed
            // by.
            if self.dram[part].is_quiet(now) {
                continue;
            }
            for line in self.dram[part].tick(now) {
                if line == WRITE_ID {
                    continue;
                }
                self.l2[part].fill(line * LINE_BYTES, false);
                for (sm, id) in self.waiters.remove(&(part, line)).unwrap_or_default() {
                    self.reply(part, sm, id, now, 0);
                }
            }
        }
    }

    fn l2_arrive(&mut self, sm: usize, id: u64, addr: u64, kind: ReqKind, now: u64) {
        let part = self.partition_of(addr);
        if kind == ReqKind::Store {
            // Write-through L2: update on hit, stream to DRAM.
            let _ = self.l2[part].access(addr, true);
            self.dram[part].enqueue(WRITE_ID, addr, now);
            return;
        }
        // Load or atomic: the read path through L2.
        let line = addr / LINE_BYTES;
        match self.l2[part].access(addr, false) {
            CacheOutcome::Hit => self.reply(part, sm, id, now, L2_LATENCY),
            outcome => {
                self.waiters.entry((part, line)).or_default().push((sm, id));
                if outcome != CacheOutcome::MshrMerged {
                    self.dram[part].enqueue(line, addr, now);
                }
            }
        }
    }

    /// Send the reply to SM `sm`'s request `id` from partition `part`,
    /// entering the reply network `delay` cycles from `now`.
    fn reply(&mut self, part: usize, sm: usize, id: u64, now: u64, delay: u64) {
        let n = self.replies_sent;
        self.replies_sent += 1;
        if self.drop_reply == Some(n) {
            // Injected loss: the waiting warp never unblocks and the
            // watchdog reports the hang.
            return;
        }
        let from = self.icnt_rep.dst_node(part);
        let to = self.icnt_rep.src_node(sm);
        let t = self.icnt_rep.send(from, to, REPLY_BYTES, now + delay);
        self.packets.push(t.max(now + 1), Packet::Reply { sm, id });
    }

    /// No packet on either network and every DRAM channel idle. (A load
    /// parked on a fill has that fill's DRAM request behind it.)
    pub(super) fn is_idle(&self) -> bool {
        self.packets.is_empty() && self.dram.iter().all(Dram::is_idle)
    }

    /// Network packets in flight, requests plus replies.
    pub(super) fn packets_in_flight(&self) -> usize {
        self.packets.len()
    }

    /// Total occupancy (queued, backlogged, in flight) of the DRAM channels.
    pub(super) fn dram_occupancy(&self) -> usize {
        self.dram.iter().map(Dram::queue_depth).sum()
    }

    /// The earliest cycle at or after `c0` at which [`MemSystem::tick`]
    /// could do more than count a DRAM-active cycle: the next packet due
    /// (always beyond the cycle that sent it), or a channel's next issue,
    /// completion or backlog replay. `u64::MAX` when nothing is scheduled.
    pub(super) fn next_event(&self, c0: u64) -> u64 {
        let mut next = self.packets.next_due().unwrap_or(u64::MAX);
        for d in &self.dram {
            if next <= c0 {
                // Already a veto; on a busy memory system this is the
                // common answer and the channels need not be asked.
                break;
            }
            next = next.min(d.next_event_cycle(c0));
        }
        next
    }

    /// Credit the `span` cycles from `c0` as if [`MemSystem::tick`] had run
    /// each one. Sound only when `next_event(c0) >= c0 + span`.
    pub(super) fn skip(&mut self, c0: u64, span: u64) {
        for d in &mut self.dram {
            d.skip_cycles(c0, span);
        }
    }

    /// Invalidate every L2 slice.
    pub(super) fn flush_l2(&mut self) {
        for l2 in &mut self.l2 {
            l2.flush();
        }
    }

    /// Precharge every DRAM bank; the channels must be idle.
    pub(super) fn close_rows(&mut self) {
        for d in &mut self.dram {
            d.close_rows();
        }
    }

    /// Drop everything in flight after a stream was killed at cycle `now`:
    /// packets, parked loads and DRAM backlogs go, the L2 slices forget the
    /// misses those fills would have completed (tags and statistics stay),
    /// and the channels drain off the device clock with their completions
    /// discarded (the loads they would answer were just aborted). Bounded:
    /// one issue per cycle and bounded per-request latency, the cap is never
    /// the limiter.
    pub(super) fn abort(&mut self, now: u64) {
        self.packets.clear();
        self.waiters.clear();
        for l2 in &mut self.l2 {
            l2.release_mshrs();
        }
        for d in &mut self.dram {
            d.clear_overflow();
        }
        let mut t = now;
        while !self.dram.iter().all(Dram::is_idle) && t < now + 1_000_000 {
            t += 1;
            for d in &mut self.dram {
                let _ = d.tick(t);
            }
        }
    }

    /// Write the memory-side counters into `r`.
    pub(super) fn stats_into(&self, r: &mut RunStats) {
        r.icnt_req = *self.icnt_req.stats();
        r.icnt_rep = *self.icnt_rep.stats();
        for l2 in &self.l2 {
            r.l2.merge(l2.stats());
        }
        for d in &self.dram {
            r.dram.merge(d.stats());
        }
    }

    pub(super) fn reset_stats(&mut self) {
        for l2 in &mut self.l2 {
            l2.reset_stats();
        }
        for d in &mut self.dram {
            d.reset_stats();
        }
        self.icnt_req.reset_stats();
        self.icnt_rep.reset_stats();
    }

    /// `(request packets SM `sm` injected, reply packets delivered to it)`.
    pub(super) fn sm_traffic(&self, sm: usize) -> (u64, u64) {
        (
            self.icnt_req.injected_per_node()[sm],
            self.icnt_rep.delivered_per_node()[sm],
        )
    }

    /// Every partition's own counters, in partition order.
    pub(super) fn partition_profile(&self) -> Vec<PartitionUnit> {
        (0..self.l2.len())
            .map(|p| PartitionUnit {
                partition: p,
                l2: *self.l2[p].stats(),
                dram: *self.dram[p].stats(),
                banks: self.dram[p].bank_stats().to_vec(),
                req_delivered: self.icnt_req.delivered_per_node()[self.n_sms + p],
                rep_injected: self.icnt_rep.injected_per_node()[self.n_sms + p],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A line in partition 0, DRAM bank 2, row 0 of `test_small()`'s layout.
    const LINE_A: u64 = 4096;

    /// `ggpu-mem`'s DRAM row size, and a closed bank's service time:
    /// activate, column access, burst (20 + 20 + 4 cycles).
    const DRAM_ROW_BYTES: u64 = 2048;
    const DRAM_COLD: u64 = 44;

    /// `ggpu-icnt`'s per-packet header.
    const HEADER_BYTES: u32 = 8;

    fn req(id: u64, addr: u64, kind: ReqKind) -> MemRequest {
        MemRequest {
            id,
            addr,
            kind,
            tex: false,
        }
    }

    fn flits(c: &GpuConfig, bytes: u32) -> u64 {
        (bytes + HEADER_BYTES).div_ceil(c.icnt.flit_bytes) as u64
    }

    /// Uncontended latency across the local crossbar: an input and an output
    /// link, one hop cycle plus the router delay each, then the tail flits
    /// behind the head.
    fn wire(c: &GpuConfig, bytes: u32) -> u64 {
        2 * (1 + c.icnt.router_delay) + flits(c, bytes) - 1
    }

    /// Tick every cycle of `from..=to`; the `(cycle, sm, id)` replies.
    fn run(ms: &mut MemSystem, from: u64, to: u64) -> Vec<(u64, usize, u64)> {
        let mut replies = Vec::new();
        for now in from..=to {
            ms.tick(now, |sm, id| replies.push((now, sm, id)));
        }
        replies
    }

    fn stats(ms: &MemSystem) -> RunStats {
        let mut r = RunStats::default();
        ms.stats_into(&mut r);
        r
    }

    #[test]
    fn a_miss_a_merged_load_a_hit_and_an_atomic_reply_when_the_latencies_say() {
        let c = GpuConfig::test_small();
        let mut ms = MemSystem::new(&c);
        // Two SMs load the same line in the same cycle. The second request
        // queues behind the first's flits on the partition's port, finds the
        // miss outstanding and parks on it.
        ms.send(0, req(1, LINE_A, ReqKind::Load), 10);
        ms.send(1, req(2, LINE_A, ReqKind::Load), 10);
        // The miss goes to DRAM the cycle it arrives (arrivals run before the
        // channels) and the fill answers both loads the cycle it completes,
        // in arrival order: the second reply queues behind the first's flits.
        let filled = 10 + wire(&c, LOAD_REQ_BYTES) + DRAM_COLD;
        let first = filled + wire(&c, REPLY_BYTES);
        assert_eq!(
            run(&mut ms, 1, 99),
            [(first, 0, 1), (first + flits(&c, REPLY_BYTES), 1, 2)]
        );
        // The line is resident now: a hit pays the L2 latency, no DRAM.
        ms.send(0, req(3, LINE_A, ReqKind::Load), 100);
        let hit = 100 + wire(&c, LOAD_REQ_BYTES) + L2_LATENCY + wire(&c, REPLY_BYTES);
        assert_eq!(run(&mut ms, 100, 299), [(hit, 0, 3)]);
        // An atomic takes the read path with a wider request packet; its
        // line is in another bank, still closed.
        let other_bank = LINE_A + 2 * DRAM_ROW_BYTES;
        ms.send(2, req(4, other_bank, ReqKind::Atomic), 300);
        let atomic = 300 + wire(&c, ATOMIC_REQ_BYTES) + DRAM_COLD + wire(&c, REPLY_BYTES);
        assert_eq!(run(&mut ms, 300, 499), [(atomic, 2, 4)]);
        assert!(ms.is_idle());

        let s = stats(&ms);
        assert_eq!(
            (s.l2.read_access, s.l2.read_hit, s.l2.mshr_merged),
            (4, 1, 1)
        );
        assert_eq!((s.dram.requests, s.dram.row_hits), (2, 0));
        assert_eq!((s.icnt_req.packets, s.icnt_rep.packets), (4, 4));
    }

    #[test]
    fn a_store_is_one_dram_write_and_no_reply() {
        let c = GpuConfig::test_small();
        let mut ms = MemSystem::new(&c);
        ms.send(3, req(9, LINE_A, ReqKind::Store), 5);
        assert!(!ms.is_idle());
        assert_eq!(run(&mut ms, 1, 200), []);
        assert!(ms.is_idle());
        let s = stats(&ms);
        assert_eq!((s.l2.write_access, s.l2.read_access), (1, 0));
        assert_eq!(s.dram.requests, 1);
        assert_eq!((s.icnt_req.packets, s.icnt_rep.packets), (1, 0));
    }

    #[test]
    fn drop_reply_loses_exactly_the_second_reply() {
        let mut c = GpuConfig::test_small();
        c.fault_plan.drop_reply = Some(1);
        let mut ms = MemSystem::new(&c);
        // One fill answers three loads: replies 0, 1 and 2, in arrival order.
        for sm in 0..3 {
            ms.send(sm, req(sm as u64 + 1, LINE_A, ReqKind::Load), 10);
        }
        let answered: Vec<u64> = run(&mut ms, 1, 200).iter().map(|r| r.2).collect();
        assert_eq!(answered, [1, 3]);
        assert_eq!(stats(&ms).icnt_rep.packets, 2);
    }

    /// 200 requests from a fixed xorshift stream: bursts and idle gaps, all
    /// three kinds, few enough lines that hits and merges happen.
    fn stream(c: &GpuConfig) -> Vec<(u64, usize, MemRequest)> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut cycle = 1;
        (0..200)
            .map(|id| {
                cycle += match next() % 8 {
                    0 => 400,
                    n => n % 4,
                };
                let kind = match next() % 4 {
                    0 => ReqKind::Store,
                    1 => ReqKind::Atomic,
                    _ => ReqKind::Load,
                };
                let addr = LINE_A + (next() % 96) * 16 * LINE_BYTES;
                let sm = (next() % c.n_sms as u64) as usize;
                (cycle, sm, req(id, addr, kind))
            })
            .collect()
    }

    /// Feed [`stream`] through a fresh system, ticking every cycle or jumping
    /// with `next_event` / `skip` the way fast-forward does.
    fn drive(c: &GpuConfig, jump: bool) -> (Vec<(u64, usize, u64)>, RunStats, u64) {
        let mut ms = MemSystem::new(c);
        let stream = stream(c);
        let mut pending = stream.iter().peekable();
        let (mut replies, mut skipped, mut now) = (Vec::new(), 0, 0);
        while pending.peek().is_some() || !ms.is_idle() {
            now += 1;
            ms.tick(now, |sm, id| replies.push((now, sm, id)));
            while let Some(&(_, sm, req)) = pending.next_if(|r| r.0 == now) {
                ms.send(sm, req, now);
            }
            let c0 = now + 1;
            let next_send = pending.peek().map_or(u64::MAX, |r| r.0);
            let t = ms.next_event(c0).min(next_send);
            if jump && t > c0 && t < u64::MAX {
                ms.skip(c0, t - c0);
                skipped += t - c0;
                now = t - 1;
            }
        }
        (replies, stats(&ms), skipped)
    }

    #[test]
    fn jumping_with_next_event_and_skip_equals_ticking_every_cycle() {
        let mut tight = GpuConfig::test_small();
        // The overflow backlog replays every cycle and vetoes the jump.
        tight.dram.queue_size = 2;
        for (c, backlog) in [(GpuConfig::test_small(), false), (tight, true)] {
            let (replies, counters, _) = drive(&c, false);
            assert_eq!(counters.dram.rejected > 0, backlog);
            let (jumped_replies, jumped_counters, skipped) = drive(&c, true);
            assert_eq!(replies.len(), 200 - counters.l2.write_access as usize);
            assert!(counters.l2.read_hit > 0 && counters.l2.mshr_merged > 0);
            assert!(skipped > 1_000, "only {skipped} cycles were jumped");
            assert_eq!(replies, jumped_replies);
            assert_eq!(counters, jumped_counters);
        }
    }

    #[test]
    fn after_abort_the_system_is_idle_and_times_a_request_as_a_fresh_one() {
        let c = GpuConfig::test_small();
        let mut ms = MemSystem::new(&c);
        // A line made resident beforehand, in another bank.
        let resident = LINE_A + 2 * DRAM_ROW_BYTES;
        ms.send(2, req(0, resident, ReqKind::Load), 1);
        assert_eq!(run(&mut ms, 1, 99).len(), 1);
        ms.send(0, req(1, LINE_A, ReqKind::Load), 100);
        ms.send(1, req(2, LINE_A + 64 * LINE_BYTES, ReqKind::Store), 100);
        assert_eq!(run(&mut ms, 100, 110), [], "both are at DRAM, in flight");
        assert_eq!(ms.l2[0].outstanding(), 1);
        let before = stats(&ms).l2;
        ms.abort(110);
        assert!(ms.is_idle());
        assert_eq!((ms.packets_in_flight(), ms.dram_occupancy()), (0, 0));
        // The aborted load's miss is released with it (its fill was
        // discarded: left outstanding, the next load of the line would merge
        // into it and never be answered); counters and tags are untouched.
        assert!(ms.l2.iter().all(|l2| l2.outstanding() == 0));
        assert_eq!(stats(&ms).l2, before);
        ms.close_rows();
        // The aborted load is never answered, and its line is a fresh miss:
        // same partition, bank and row, closed again.
        assert_eq!(run(&mut ms, 111, 199), []);
        ms.send(0, req(3, LINE_A, ReqKind::Load), 200);
        let fresh = 200 + wire(&c, LOAD_REQ_BYTES) + DRAM_COLD + wire(&c, REPLY_BYTES);
        assert_eq!(run(&mut ms, 200, 399), [(fresh, 0, 3)]);
        // The line resident before the abort still hits.
        ms.send(2, req(4, resident, ReqKind::Load), 400);
        let hit = 400 + wire(&c, LOAD_REQ_BYTES) + L2_LATENCY + wire(&c, REPLY_BYTES);
        assert_eq!(run(&mut ms, 400, 599), [(hit, 2, 4)]);
    }
}
