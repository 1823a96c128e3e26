//! Per-PC attribution counters: the "code axis" of the profiler.
//!
//! When [`crate::SmConfig::attribution`] is set, every SM keeps a
//! [`PcTable`] — one [`PcCounters`] row per instruction of every kernel in
//! the program — and charges issues, stall cycles, L1 traffic, coalesced
//! transactions, replay cycles and off-chip requests to the PC that caused
//! them. Tables are per-SM and merge with field-wise sums; the device merges
//! them in SM index order, so the aggregate is deterministic.
//!
//! The counters are designed to *telescope*: summed over all PCs (plus the
//! [`PcTable::unattributed`] stall bucket) they reproduce the corresponding
//! [`crate::SmStats`] and L1 [`ggpu_mem::CacheStats`] aggregates exactly.

use ggpu_isa::{KernelId, Program};

use crate::stats::{StallBreakdown, StallReason};

/// Attribution counters for one static instruction (one PC of one kernel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcCounters {
    /// Warp-instructions issued from this PC.
    pub issues: u64,
    /// Thread-instructions executed (issues × active lanes).
    pub lanes: u64,
    /// Scheduler stall cycles charged to this PC (the representative
    /// blocked warp was parked here).
    pub stalls: StallBreakdown,
    /// L1 data-cache accesses (one per coalesced line probed).
    pub l1_accesses: u64,
    /// L1 data-cache hits.
    pub l1_hits: u64,
    /// Coalesced 128-byte memory transactions generated — the
    /// memory-divergence degree of the access pattern at this PC.
    pub mem_txns: u64,
    /// Extra issue-slot cycles spent replaying uncoalesced accesses
    /// (transactions beyond the first per access).
    pub replays: u64,
    /// Requests sent off-chip (L1 misses, write-throughs, atomics).
    pub offchip_txns: u64,
}

impl PcCounters {
    /// L1 miss rate at this PC, in `[0, 1]`; zero when the PC generated no
    /// L1 traffic.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            1.0 - self.l1_hits as f64 / self.l1_accesses as f64
        }
    }

    /// Mean coalesced transactions per issue — 1.0 is fully coalesced,
    /// 32.0 fully divergent; zero when nothing issued.
    pub fn avg_divergence(&self) -> f64 {
        if self.issues == 0 {
            0.0
        } else {
            self.mem_txns as f64 / self.issues as f64
        }
    }

    /// Accumulate another row into this one (field-wise sums).
    pub(crate) fn merge(&mut self, other: &PcCounters) {
        self.issues += other.issues;
        self.lanes += other.lanes;
        self.stalls.merge(&other.stalls);
        self.l1_accesses += other.l1_accesses;
        self.l1_hits += other.l1_hits;
        self.mem_txns += other.mem_txns;
        self.replays += other.replays;
        self.offchip_txns += other.offchip_txns;
    }
}

/// Per-PC counter table covering every kernel of a program, plus an
/// `unattributed` bucket for stall cycles with no representative PC.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PcTable {
    /// `kernels[kid][pc]` — one row per static instruction.
    kernels: Vec<Vec<PcCounters>>,
    /// Stall cycles that cannot be pinned on an instruction: functional-done
    /// and idle slots, plus (defensively) any stall whose representative
    /// warp has no resolvable PC.
    unattributed: StallBreakdown,
}

impl PcTable {
    /// Build an all-zero table sized for `program`.
    pub(crate) fn new(program: &Program) -> Self {
        PcTable {
            kernels: program
                .iter()
                .map(|(_, k)| vec![PcCounters::default(); k.instrs.len()])
                .collect(),
            unattributed: StallBreakdown::default(),
        }
    }

    #[inline]
    fn row(&mut self, kid: KernelId, pc: usize) -> Option<&mut PcCounters> {
        self.kernels.get_mut(kid.0 as usize)?.get_mut(pc)
    }

    /// Charge one issued warp-instruction with `lanes` active lanes.
    #[inline]
    pub(crate) fn record_issue(&mut self, kid: KernelId, pc: usize, lanes: u32) {
        if let Some(r) = self.row(kid, pc) {
            r.issues += 1;
            r.lanes += lanes as u64;
        }
    }

    /// Charge `cycles` identical scheduler stall cycles to the representative
    /// warp's PC — one for a ticked cycle, a whole skipped span when
    /// fast-forward credits it at once — falling back to the unattributed
    /// bucket when the PC is out of range.
    #[inline]
    pub(crate) fn record_stall_cycles(
        &mut self,
        kid: KernelId,
        pc: usize,
        reason: StallReason,
        cycles: u64,
    ) {
        match self.row(kid, pc) {
            Some(r) => r.stalls.add(reason, cycles),
            None => self.unattributed.add(reason, cycles),
        }
    }

    /// Charge stall cycles with no representative instruction (idle and
    /// functional-done slots).
    #[inline]
    pub(crate) fn record_unattributed(&mut self, reason: StallReason, cycles: u64) {
        self.unattributed.add(reason, cycles);
    }

    /// Charge L1 data-cache traffic: `accesses` probes of which `hits` hit.
    #[inline]
    pub(crate) fn record_l1(&mut self, kid: KernelId, pc: usize, accesses: u64, hits: u64) {
        if let Some(r) = self.row(kid, pc) {
            r.l1_accesses += accesses;
            r.l1_hits += hits;
        }
    }

    /// Charge `txns` coalesced transactions and the implied replay cycles
    /// (`txns - 1` extra issue-slot cycles when `txns > 1`).
    #[inline]
    pub(crate) fn record_txns(&mut self, kid: KernelId, pc: usize, txns: u64, replays: u64) {
        if let Some(r) = self.row(kid, pc) {
            r.mem_txns += txns;
            r.replays += replays;
        }
    }

    /// Charge `n` off-chip requests.
    #[inline]
    pub(crate) fn record_offchip(&mut self, kid: KernelId, pc: usize, n: u64) {
        if let Some(r) = self.row(kid, pc) {
            r.offchip_txns += n;
        }
    }

    /// Rows for one kernel (empty for unknown ids).
    pub fn kernel(&self, kid: KernelId) -> &[PcCounters] {
        self.kernels
            .get(kid.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Stall cycles with no representative PC.
    pub fn unattributed(&self) -> &StallBreakdown {
        &self.unattributed
    }

    /// Accumulate another table into this one. Tables must come from the
    /// same program; extra kernels/PCs in `other` are ignored (cannot occur
    /// between tables built by `PcTable::new` on one program).
    pub fn merge(&mut self, other: &PcTable) {
        for (ks, ko) in self.kernels.iter_mut().zip(&other.kernels) {
            for (s, o) in ks.iter_mut().zip(ko) {
                s.merge(o);
            }
        }
        self.unattributed.merge(&other.unattributed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_isa::KernelBuilder;

    /// Sum of a per-row counter over every PC of every kernel.
    fn total(t: &PcTable, f: impl Fn(&PcCounters) -> u64) -> u64 {
        t.kernels.iter().flatten().map(f).sum()
    }

    /// Sum of all per-PC stall breakdowns plus the unattributed bucket.
    fn total_stalls(t: &PcTable) -> StallBreakdown {
        let mut s = t.unattributed;
        for r in t.kernels.iter().flatten() {
            s.merge(&r.stalls);
        }
        s
    }

    fn two_kernel_program() -> Program {
        let mut p = Program::new();
        let mut a = KernelBuilder::new("a");
        a.exit();
        p.add(a.finish());
        let mut b = KernelBuilder::new("b");
        let r = b.reg();
        b.mov(r, ggpu_isa::Operand::imm(1));
        b.exit();
        p.add(b.finish());
        p
    }

    #[test]
    fn table_sized_from_program() {
        let t = PcTable::new(&two_kernel_program());
        assert_eq!(t.kernels.len(), 2);
        assert_eq!(t.kernel(KernelId(0)).len(), 1);
        assert_eq!(t.kernel(KernelId(1)).len(), 2);
        assert!(t.kernel(KernelId(9)).is_empty());
    }

    #[test]
    fn records_land_on_rows() {
        let mut t = PcTable::new(&two_kernel_program());
        t.record_issue(KernelId(1), 0, 32);
        t.record_issue(KernelId(1), 0, 16);
        t.record_l1(KernelId(1), 0, 4, 3);
        t.record_txns(KernelId(1), 0, 4, 3);
        t.record_offchip(KernelId(1), 0, 1);
        t.record_stall_cycles(KernelId(1), 1, StallReason::DataHazard, 1);
        let r = &t.kernel(KernelId(1))[0];
        assert_eq!(r.issues, 2);
        assert_eq!(r.lanes, 48);
        assert_eq!(r.l1_accesses, 4);
        assert_eq!(r.l1_hits, 3);
        assert!((r.l1_miss_rate() - 0.25).abs() < 1e-12);
        assert!((r.avg_divergence() - 2.0).abs() < 1e-12);
        assert_eq!(r.replays, 3);
        assert_eq!(r.offchip_txns, 1);
        assert_eq!(
            t.kernel(KernelId(1))[1].stalls.get(StallReason::DataHazard),
            1
        );
        assert_eq!(t.kernel(KernelId(0))[0], PcCounters::default());
    }

    #[test]
    fn out_of_range_stalls_fall_back_to_unattributed() {
        let mut t = PcTable::new(&two_kernel_program());
        t.record_stall_cycles(KernelId(0), 99, StallReason::MemLatency, 1);
        t.record_stall_cycles(KernelId(7), 0, StallReason::Barrier, 1);
        t.record_unattributed(StallReason::Idle, 5);
        assert_eq!(t.unattributed().get(StallReason::MemLatency), 1);
        assert_eq!(t.unattributed().get(StallReason::Barrier), 1);
        assert_eq!(t.unattributed().get(StallReason::Idle), 5);
        assert_eq!(total_stalls(&t).total(), 7);
    }

    #[test]
    fn merge_is_field_wise_sum() {
        let p = two_kernel_program();
        let mut a = PcTable::new(&p);
        let mut b = PcTable::new(&p);
        a.record_issue(KernelId(1), 1, 8);
        b.record_issue(KernelId(1), 1, 24);
        b.record_stall_cycles(KernelId(1), 0, StallReason::MemLatency, 1);
        b.record_unattributed(StallReason::Idle, 2);
        a.merge(&b);
        assert_eq!(a.kernel(KernelId(1))[1].issues, 2);
        assert_eq!(a.kernel(KernelId(1))[1].lanes, 32);
        assert_eq!(total(&a, |r| r.lanes), 32);
        assert_eq!(total_stalls(&a).get(StallReason::MemLatency), 1);
        assert_eq!(a.unattributed().get(StallReason::Idle), 2);
    }
}
