//! Aggregated run statistics across the whole GPU plus the host model.

use ggpu_icnt::IcntStats;
use ggpu_mem::{CacheStats, DramStats};
use ggpu_sm::SmStats;

ggpu_mem::counter_set! {
    /// Host-side activity counters (the Figure 4 data).
    pub struct HostStats {
        /// Host kernel launches (`<<<>>>` invocations).
        pub kernel_launches,
        /// `cudaMemcpy` calls (PCI transactions).
        pub pci_count,
        /// Cycles spent in PCI transfers.
        pub pci_cycles,
        /// Cycles spent executing kernels (inside `synchronize`).
        pub kernel_cycles,
        /// Host→device bytes moved.
        pub h2d_bytes,
        /// Device→host bytes moved.
        pub d2h_bytes,
    }
}

impl HostStats {
    /// Average kernel time per launch in cycles.
    pub fn avg_kernel_cycles(&self) -> f64 {
        if self.kernel_launches == 0 {
            0.0
        } else {
            self.kernel_cycles as f64 / self.kernel_launches as f64
        }
    }

    /// Average PCI time per transfer in cycles.
    pub fn avg_pci_cycles(&self) -> f64 {
        if self.pci_count == 0 {
            0.0
        } else {
            self.pci_cycles as f64 / self.pci_count as f64
        }
    }
}

/// Snapshot of every counter in the machine after a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Host-side counters.
    pub host: HostStats,
    /// Merged SM counters (instruction mix, occupancy, stalls, ...).
    pub sm: SmStats,
    /// Merged L1 data-cache counters across SMs.
    pub l1: CacheStats,
    /// Merged L2 counters across partitions.
    pub l2: CacheStats,
    /// Merged DRAM counters across channels.
    pub dram: DramStats,
    /// Request-network counters.
    pub icnt_req: IcntStats,
    /// Reply-network counters.
    pub icnt_rep: IcntStats,
}

impl RunStats {
    /// Whole-GPU instructions per cycle over kernel-execution time.
    pub fn ipc(&self) -> f64 {
        if self.host.kernel_cycles == 0 {
            0.0
        } else {
            self.sm.issued as f64 / self.host.kernel_cycles as f64
        }
    }

    /// DRAM utilization over kernel cycles (Figure 18).
    pub fn dram_utilization(&self) -> f64 {
        self.dram.utilization(self.host.kernel_cycles)
    }

    /// End-to-end cycles (kernel + PCI).
    pub fn total_cycles(&self) -> u64 {
        self.host.kernel_cycles + self.host.pci_cycles
    }

    /// End-to-end time in seconds at [`crate::CLOCK_GHZ`].
    pub fn seconds(&self) -> f64 {
        self.total_cycles() as f64 / (crate::CLOCK_GHZ * 1e9)
    }

    /// Field-wise accumulation of another snapshot into this one — how
    /// `benchmark/` totals one pass: each job's [`RunStats`] merge in
    /// catalog order into the pass's counters. `sm.cycles` merges as a max
    /// (the same rule the device applies across its SMs); every other
    /// counter sums.
    pub fn merge(&mut self, other: &RunStats) {
        self.host.merge(&other.host);
        self.sm.merge(&other.sm);
        self.l1.merge(&other.l1);
        self.l2.merge(&other.l2);
        self.dram.merge(&other.dram);
        self.icnt_req.merge(&other.icnt_req);
        self.icnt_rep.merge(&other.icnt_rep);
    }

    /// Field-wise counter delta since an earlier snapshot `base`
    /// (saturating, so a reset between snapshots yields zeros rather than
    /// wrapping). This is the primitive behind per-kernel counter scoping
    /// and the interval sampler: every counter in the result covers exactly
    /// the window between the two snapshots.
    pub(crate) fn delta_since(&self, base: &RunStats) -> RunStats {
        RunStats {
            host: self.host.delta_since(&base.host),
            sm: self.sm.delta_since(&base.sm),
            l1: self.l1.delta_since(&base.l1),
            l2: self.l2.delta_since(&base.l2),
            dram: self.dram.delta_since(&base.dram),
            icnt_req: self.icnt_req.delta_since(&base.icnt_req),
            icnt_rep: self.icnt_rep.delta_since(&base.icnt_rep),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_averages() {
        let h = HostStats {
            kernel_launches: 4,
            pci_count: 2,
            pci_cycles: 100,
            kernel_cycles: 400,
            ..Default::default()
        };
        assert_eq!(h.avg_kernel_cycles(), 100.0);
        assert_eq!(h.avg_pci_cycles(), 50.0);
        assert_eq!(HostStats::default().avg_pci_cycles(), 0.0);
    }

    #[test]
    fn delta_since_is_windowed_and_saturating() {
        let mut base = RunStats::default();
        base.host.pci_count = 2;
        base.sm.issued = 100;
        base.l1.read_access = 10;
        base.dram.requests = 4;
        base.icnt_req.packets = 7;
        let mut now = base.clone();
        now.host.pci_count = 5;
        now.sm.issued = 260;
        now.l1.read_access = 25;
        now.dram.requests = 9;
        now.icnt_req.packets = 11;
        let d = now.delta_since(&base);
        assert_eq!(d.host.pci_count, 3);
        assert_eq!(d.sm.issued, 160);
        assert_eq!(d.l1.read_access, 15);
        assert_eq!(d.dram.requests, 5);
        assert_eq!(d.icnt_req.packets, 4);
        // A reset between snapshots saturates to zero instead of wrapping.
        let z = RunStats::default().delta_since(&base);
        assert_eq!(z.sm.issued, 0);
        assert_eq!(z.host.pci_count, 0);
    }

    #[test]
    fn run_stats_derived_metrics() {
        let mut r = RunStats::default();
        r.host.kernel_cycles = 1000;
        r.host.pci_cycles = 500;
        r.sm.issued = 2000;
        assert_eq!(r.ipc(), 2.0);
        assert_eq!(r.total_cycles(), 1500);
        assert!((r.seconds() - 1e-6).abs() < 1e-12);
    }
}
