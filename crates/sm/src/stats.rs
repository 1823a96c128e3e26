//! Per-SM statistics: instruction mix, memory-space mix, warp occupancy and
//! the pipeline-stall breakdown of Figure 5.

use ggpu_isa::{InstrClass, Space, WARP_SIZE};

/// Why a scheduler slot issued nothing in a given cycle (Figure 5
/// categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallReason {
    /// All candidate warps are waiting on off-chip memory.
    MemLatency,
    /// All candidate warps are in a post-branch control-hazard window.
    ControlHazard,
    /// All candidate warps are waiting on an ALU result (RAW hazard).
    DataHazard,
    /// All candidate warps are parked at a CTA barrier or device sync.
    Barrier,
    /// The SM has no resident work but the device is busy setting up or
    /// draining a kernel (the paper's "functional done").
    FunctionalDone,
    /// The SM has no work at all.
    Idle,
}

impl StallReason {
    /// All reasons, in the order used for reporting.
    pub const ALL: [StallReason; 6] = [
        StallReason::MemLatency,
        StallReason::ControlHazard,
        StallReason::DataHazard,
        StallReason::Barrier,
        StallReason::FunctionalDone,
        StallReason::Idle,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StallReason::MemLatency => "mem_latency",
            StallReason::ControlHazard => "control_hazard",
            StallReason::DataHazard => "data_hazard",
            StallReason::Barrier => "barrier",
            StallReason::FunctionalDone => "functional_done",
            StallReason::Idle => "idle",
        }
    }

    fn index(self) -> usize {
        match self {
            StallReason::MemLatency => 0,
            StallReason::ControlHazard => 1,
            StallReason::DataHazard => 2,
            StallReason::Barrier => 3,
            StallReason::FunctionalDone => 4,
            StallReason::Idle => 5,
        }
    }
}

/// Scheduler-slot stall cycle counts by reason.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown([u64; 6]);

impl StallBreakdown {
    /// Record `cycles` of stall for `reason`.
    pub fn add(&mut self, reason: StallReason, cycles: u64) {
        self.0[reason.index()] += cycles;
    }

    /// Cycles stalled for `reason`.
    pub fn get(&self, reason: StallReason) -> u64 {
        self.0[reason.index()]
    }

    /// Total stall cycles.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Fraction of stalls attributed to `reason`; zero when no stalls.
    pub fn fraction(&self, reason: StallReason) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.get(reason) as f64 / t as f64
        }
    }

    /// Merge another breakdown into this one.
    pub fn merge(&mut self, other: &StallBreakdown) {
        for i in 0..6 {
            self.0[i] += other.0[i];
        }
    }

    /// Counter delta since `base` (per-reason saturating subtraction), for
    /// interval sampling and per-kernel counter scoping.
    pub fn delta_since(&self, base: &StallBreakdown) -> StallBreakdown {
        let mut d = StallBreakdown::default();
        for i in 0..6 {
            d.0[i] = self.0[i].saturating_sub(base.0[i]);
        }
        d
    }
}

fn class_index(c: InstrClass) -> usize {
    match c {
        InstrClass::Int => 0,
        InstrClass::Fp => 1,
        InstrClass::LdSt => 2,
        InstrClass::Sfu => 3,
        InstrClass::Ctrl => 4,
    }
}

fn space_index(s: Space) -> usize {
    match s {
        Space::Shared => 0,
        Space::Tex => 1,
        Space::Const => 2,
        Space::Param => 3,
        Space::Local => 4,
        Space::Global => 5,
    }
}

/// One field of [`SmStats`] as [`SmStats::for_each_field`] presents it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmField<'a> {
    /// A scalar counter.
    Count(u64),
    /// A keyed breakdown `(name, count)` in reporting order (instruction
    /// class, memory space, stall reason).
    Breakdown(&'a [(&'static str, u64)]),
    /// A positional histogram (warp occupancy by active lanes).
    Histogram(&'a [u64]),
}

/// Full per-SM counter set, merged across SMs by the device.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SmStats {
    /// Cycles this SM was clocked while the kernel ran.
    pub cycles: u64,
    /// Warp-instructions issued.
    pub issued: u64,
    /// Thread-instructions executed (issued × active lanes).
    pub thread_instrs: u64,
    /// Instruction mix by [`InstrClass`] (int, fp, ldst, sfu, ctrl).
    pub instr_mix: [u64; 5],
    /// Memory instructions by [`Space`] (shared, tex, const, param, local,
    /// global) — Figure 9.
    pub mem_space: [u64; 6],
    /// Warp-occupancy histogram: entry `i` counts issues with `i+1` active
    /// lanes — Figure 10.
    pub occupancy: [u64; WARP_SIZE],
    /// Stall breakdown — Figure 5.
    pub stalls: StallBreakdown,
    /// Extra cycles lost to shared-memory bank conflicts.
    pub bank_conflict_cycles: u64,
    /// Memory transactions sent off-chip.
    pub offchip_txns: u64,
    /// CTAs completed.
    pub ctas_completed: u64,
    /// Child-kernel launches issued (CDP).
    pub device_launches: u64,
}

impl SmStats {
    /// Record an issued warp-instruction.
    pub fn record_issue(&mut self, class: InstrClass, active_lanes: u32) {
        self.issued += 1;
        self.thread_instrs += active_lanes as u64;
        self.instr_mix[class_index(class)] += 1;
        if active_lanes >= 1 {
            self.occupancy[(active_lanes as usize - 1).min(WARP_SIZE - 1)] += 1;
        }
    }

    /// Record a memory instruction's space.
    pub fn record_mem(&mut self, space: Space) {
        self.mem_space[space_index(space)] += 1;
    }

    /// Instruction count for one class.
    pub fn class_count(&self, class: InstrClass) -> u64 {
        self.instr_mix[class_index(class)]
    }

    /// Memory-instruction count for one space.
    pub fn space_count(&self, space: Space) -> u64 {
        self.mem_space[space_index(space)]
    }

    /// Fraction of issued instructions in `class`; zero when nothing issued.
    /// Over all classes the fractions sum to exactly 1.0 (or 0.0 when idle).
    pub fn class_fraction(&self, class: InstrClass) -> f64 {
        let total: u64 = self.instr_mix.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.instr_mix[class_index(class)] as f64 / total as f64
        }
    }

    /// Fraction of memory instructions touching `space`; zero when no
    /// memory instructions were issued.
    pub fn space_fraction(&self, space: Space) -> f64 {
        let total: u64 = self.mem_space.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.mem_space[space_index(space)] as f64 / total as f64
        }
    }

    /// Mean active lanes per issued warp-instruction; zero when idle.
    pub fn avg_active_lanes(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.thread_instrs as f64 / self.issued as f64
        }
    }

    /// Visit every field as `(name, value)`, in declaration order — the
    /// one list full-struct exports (the `sm` block of the stats JSON) are
    /// driven by, so a counter added here reaches them without edits
    /// elsewhere.
    pub fn for_each_field(&self, mut f: impl FnMut(&'static str, SmField<'_>)) {
        f("cycles", SmField::Count(self.cycles));
        f("issued", SmField::Count(self.issued));
        f("thread_instrs", SmField::Count(self.thread_instrs));
        let mix = InstrClass::ALL.map(|c| (c.name(), self.class_count(c)));
        f("instr_mix", SmField::Breakdown(&mix));
        let spaces = Space::ALL.map(|s| (s.name(), self.space_count(s)));
        f("mem_space", SmField::Breakdown(&spaces));
        f("occupancy", SmField::Histogram(&self.occupancy));
        let stalls = StallReason::ALL.map(|r| (r.name(), self.stalls.get(r)));
        f("stalls", SmField::Breakdown(&stalls));
        f(
            "bank_conflict_cycles",
            SmField::Count(self.bank_conflict_cycles),
        );
        f("offchip_txns", SmField::Count(self.offchip_txns));
        f("ctas_completed", SmField::Count(self.ctas_completed));
        f("device_launches", SmField::Count(self.device_launches));
    }

    /// Counter delta since `base` (field-wise saturating subtraction).
    ///
    /// `cycles` subtracts directly: merged SM cycles are a max over SMs and
    /// therefore monotonically non-decreasing over a run, so the delta is
    /// the cycles elapsed in the window.
    pub fn delta_since(&self, base: &SmStats) -> SmStats {
        let mut d = SmStats {
            cycles: self.cycles.saturating_sub(base.cycles),
            issued: self.issued.saturating_sub(base.issued),
            thread_instrs: self.thread_instrs.saturating_sub(base.thread_instrs),
            stalls: self.stalls.delta_since(&base.stalls),
            bank_conflict_cycles: self
                .bank_conflict_cycles
                .saturating_sub(base.bank_conflict_cycles),
            offchip_txns: self.offchip_txns.saturating_sub(base.offchip_txns),
            ctas_completed: self.ctas_completed.saturating_sub(base.ctas_completed),
            device_launches: self.device_launches.saturating_sub(base.device_launches),
            ..SmStats::default()
        };
        for i in 0..5 {
            d.instr_mix[i] = self.instr_mix[i].saturating_sub(base.instr_mix[i]);
        }
        for i in 0..6 {
            d.mem_space[i] = self.mem_space[i].saturating_sub(base.mem_space[i]);
        }
        for i in 0..WARP_SIZE {
            d.occupancy[i] = self.occupancy[i].saturating_sub(base.occupancy[i]);
        }
        d
    }

    /// Instructions per cycle (warp-instructions / SM cycles).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.issued as f64 / self.cycles as f64
        }
    }

    /// Fraction of issues whose active-lane count falls within
    /// `[lo, hi]` (1-based, inclusive) — e.g. `occupancy_fraction(29, 32)`
    /// for the paper's W29-32 bucket.
    pub fn occupancy_fraction(&self, lo: u32, hi: u32) -> f64 {
        let total: u64 = self.occupancy.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let sum: u64 = (lo..=hi.min(WARP_SIZE as u32))
            .map(|w| self.occupancy[w as usize - 1])
            .sum();
        sum as f64 / total as f64
    }

    /// Merge another SM's counters into this one (device-level aggregation).
    pub fn merge(&mut self, other: &SmStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.issued += other.issued;
        self.thread_instrs += other.thread_instrs;
        for i in 0..5 {
            self.instr_mix[i] += other.instr_mix[i];
        }
        for i in 0..6 {
            self.mem_space[i] += other.mem_space[i];
        }
        for i in 0..WARP_SIZE {
            self.occupancy[i] += other.occupancy[i];
        }
        self.stalls.merge(&other.stalls);
        self.bank_conflict_cycles += other.bank_conflict_cycles;
        self.offchip_txns += other.offchip_txns;
        self.ctas_completed += other.ctas_completed;
        self.device_launches += other.device_launches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_breakdown_fractions() {
        let mut s = StallBreakdown::default();
        s.add(StallReason::MemLatency, 75);
        s.add(StallReason::Idle, 25);
        assert_eq!(s.total(), 100);
        assert_eq!(s.fraction(StallReason::MemLatency), 0.75);
        assert_eq!(s.get(StallReason::Idle), 25);
        assert_eq!(s.fraction(StallReason::Barrier), 0.0);
    }

    #[test]
    fn issue_recording() {
        let mut s = SmStats::default();
        s.record_issue(InstrClass::Int, 32);
        s.record_issue(InstrClass::Fp, 1);
        s.record_issue(InstrClass::LdSt, 16);
        s.record_mem(Space::Global);
        assert_eq!(s.issued, 3);
        assert_eq!(s.thread_instrs, 49);
        assert_eq!(s.class_count(InstrClass::Int), 1);
        assert_eq!(s.space_count(Space::Global), 1);
        assert_eq!(s.occupancy[31], 1);
        assert_eq!(s.occupancy[0], 1);
        assert_eq!(s.occupancy[15], 1);
    }

    #[test]
    fn occupancy_buckets() {
        let mut s = SmStats::default();
        for lanes in [1, 4, 29, 32, 32] {
            s.record_issue(InstrClass::Int, lanes);
        }
        assert!((s.occupancy_fraction(29, 32) - 0.6).abs() < 1e-12);
        assert!((s.occupancy_fraction(1, 4) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SmStats {
            cycles: 100,
            ..SmStats::default()
        };
        a.record_issue(InstrClass::Int, 32);
        let mut b = SmStats {
            cycles: 150,
            ..SmStats::default()
        };
        b.record_issue(InstrClass::Fp, 32);
        b.stalls.add(StallReason::MemLatency, 10);
        a.merge(&b);
        assert_eq!(a.cycles, 150);
        assert_eq!(a.issued, 2);
        assert_eq!(a.stalls.get(StallReason::MemLatency), 10);
    }

    #[test]
    fn delta_since_recovers_window() {
        let mut base = SmStats::default();
        base.record_issue(InstrClass::Int, 32);
        base.stalls.add(StallReason::MemLatency, 5);
        base.cycles = 100;
        let mut now = base.clone();
        now.record_issue(InstrClass::Fp, 16);
        now.record_mem(Space::Shared);
        now.stalls.add(StallReason::Barrier, 3);
        now.cycles = 180;
        let d = now.delta_since(&base);
        assert_eq!(d.cycles, 80);
        assert_eq!(d.issued, 1);
        assert_eq!(d.thread_instrs, 16);
        assert_eq!(d.class_count(InstrClass::Fp), 1);
        assert_eq!(d.class_count(InstrClass::Int), 0);
        assert_eq!(d.space_count(Space::Shared), 1);
        assert_eq!(d.stalls.get(StallReason::Barrier), 3);
        assert_eq!(d.stalls.get(StallReason::MemLatency), 0);
        assert_eq!(d.occupancy[15], 1);
        assert_eq!(d.occupancy[31], 0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut s = SmStats::default();
        assert_eq!(s.class_fraction(InstrClass::Int), 0.0);
        assert_eq!(s.space_fraction(Space::Global), 0.0);
        s.record_issue(InstrClass::Int, 32);
        s.record_issue(InstrClass::Fp, 32);
        s.record_issue(InstrClass::LdSt, 8);
        s.record_mem(Space::Global);
        s.record_mem(Space::Shared);
        let class_sum: f64 = InstrClass::ALL.iter().map(|&c| s.class_fraction(c)).sum();
        assert!((class_sum - 1.0).abs() < 1e-12);
        let space_sum: f64 = Space::ALL.iter().map(|&sp| s.space_fraction(sp)).sum();
        assert!((space_sum - 1.0).abs() < 1e-12);
        assert!((s.avg_active_lanes() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn ipc() {
        let mut s = SmStats::default();
        assert_eq!(s.ipc(), 0.0);
        s.cycles = 10;
        s.record_issue(InstrClass::Int, 32);
        s.record_issue(InstrClass::Int, 32);
        assert!((s.ipc() - 0.2).abs() < 1e-12);
    }
}
