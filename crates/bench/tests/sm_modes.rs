//! The results fence around the SM core's non-default modes.
//!
//! The default configuration (LRR, real memory, interleaved local memory,
//! 128 KB L1) is pinned byte-for-byte by `artifacts.rs` and `engine_sleep.rs`.
//! The modes the figures sweep — Fig 19's other three schedulers, Fig 15's
//! perfect memory, the `ablation` local-memory layout and the L1-off device —
//! were only ever checked for "completes" or "not slower". Here each of them
//! runs four workloads that between them touch every path of the SM's memory
//! pipeline (`NW`: shared rows and barriers; `GG`: local rows; `NvB`:
//! texture, constant and global atomics; `NvB` with CDP: device launches and
//! `Dsync`), and must
//!
//! * give `==` [`RunStats`] and per-PC tables with `fast_forward` on and off
//!   — which holds `SmCore::{next_wake, skip_cycles}` to the readiness rule
//!   `tick` schedules by, in every mode; and
//! * reproduce [`PINNED`], the counters the scheduler and the memory path
//!   decide, recorded from the build of commit `cc5c2db` (the parent of the
//!   PR that made the core say each decision once). A change that is meant
//!   to keep results reads the same numbers; one that is meant to change the
//!   model regenerates the table from the failure message and says so.

use ggpu_core::{GpuConfig, RunStats, Scale, SuiteRunner};
use ggpu_sim::PcProfile;
use ggpu_sm::{SchedPolicy, StallReason};

const WORKLOADS: [(&str, bool); 4] = [("NW", false), ("GG", false), ("NvB", false), ("NvB", true)];

const MODES: [&str; 6] = ["gto", "old", "2lv", "perfect", "flat_local", "no_l1"];

fn mode_cfg(mode: &str, fast_forward: bool) -> GpuConfig {
    let mut cfg = GpuConfig::test_small()
        .with_attribution(true)
        .with_fast_forward(fast_forward);
    match mode {
        "gto" => cfg.sm.policy = SchedPolicy::Gto,
        "old" => cfg.sm.policy = SchedPolicy::Old,
        "2lv" => cfg.sm.policy = SchedPolicy::TwoLevel,
        "perfect" => cfg.sm.perfect_memory = true,
        "flat_local" => cfg.sm.interleave_local = false,
        "no_l1" => cfg.sm.l1.bytes = 0,
        other => panic!("unknown mode {other}"),
    }
    cfg
}

fn run(abbrev: &str, cdp: bool, mode: &str, fast_forward: bool) -> (RunStats, u64, PcProfile) {
    let r = SuiteRunner::new(Scale::Tiny)
        .with_config(mode_cfg(mode, fast_forward))
        .run_one(abbrev, cdp);
    assert!(r.verified, "{abbrev} cdp={cdp} {mode} ff={fast_forward}");
    let pc = r.profile.expect("attribution was on").pc;
    (r.stats, r.kernel_cycles, pc.expect("attribution was on"))
}

/// `workload mode kernel_cycles issued mem ctrl data barrier fdone idle
/// offchip_txns bank_conflict_cycles`, one row per (workload, mode).
fn row(abbrev: &str, cdp: bool, mode: &str, stats: &RunStats, kernel_cycles: u64) -> String {
    let stalls: Vec<String> = StallReason::ALL
        .iter()
        .map(|&r| stats.sm.stalls.get(r).to_string())
        .collect();
    format!(
        "{abbrev}{} {mode} {kernel_cycles} {} {} {} {}",
        if cdp { "+cdp" } else { "" },
        stats.sm.issued,
        stalls.join(" "),
        stats.sm.offchip_txns,
        stats.sm.bank_conflict_cycles,
    )
}

#[test]
fn every_mode_is_fast_forward_invariant_and_reads_the_pinned_counters() {
    let mut actual = Vec::new();
    for (abbrev, cdp) in WORKLOADS {
        for mode in MODES {
            let (stats, cycles, pc) = run(abbrev, cdp, mode, true);
            let (stats_off, cycles_off, pc_off) = run(abbrev, cdp, mode, false);
            assert_eq!(stats, stats_off, "{abbrev} cdp={cdp} {mode}: RunStats");
            assert_eq!(cycles, cycles_off, "{abbrev} cdp={cdp} {mode}: cycles");
            assert_eq!(pc, pc_off, "{abbrev} cdp={cdp} {mode}: per-PC table");
            actual.push(row(abbrev, cdp, mode, &stats, cycles));
        }
    }
    let pinned: Vec<&str> = PINNED.lines().map(str::trim).collect();
    assert_eq!(
        actual,
        pinned,
        "counters moved; the table as this build computes it:\n{}",
        actual.join("\n")
    );
}

const PINNED: &str = "\
    NW gto 112704 42756 3536 83536 768752 0 3200 12 52 20196
    NW old 112704 42756 3536 83536 768752 0 3200 12 52 20196
    NW 2lv 112704 42756 3536 83536 768752 0 3200 12 52 20196
    NW perfect 108828 42756 0 83536 742720 0 3200 12 0 20196
    NW flat_local 112704 42756 3536 83536 768752 0 3200 12 52 20196
    NW no_l1 174948 42756 693008 83536 577232 0 3200 12 8412 20196
    GG gto 117368 42748 23312 83536 786464 0 3200 12 388 0
    GG old 117368 42748 23312 83536 786464 0 3200 12 388 0
    GG 2lv 117368 42748 23312 83536 786464 0 3200 12 388 0
    GG perfect 107660 42748 0 83536 733384 0 3200 12 0 0
    GG flat_local 213772 42748 2888 83536 1575688 0 3200 12 388 0
    GG no_l1 241042 42748 1395788 83536 402840 0 3200 12 21906 0
    NvB gto 27938 3747 111828 12282 90833 0 4800 18 1484 0
    NvB old 27938 3747 111828 12282 90833 0 4800 18 1484 0
    NvB 2lv 27938 3747 111828 12282 90833 0 4800 18 1484 0
    NvB perfect 12891 3747 0 12282 84669 0 4800 18 0 0
    NvB flat_local 27938 3747 111828 12282 90833 0 4800 18 1484 0
    NvB no_l1 41692 3747 249464 12282 63593 0 4800 18 5638 0
    NvB+cdp gto 34800 35469 237413 19923 78322 1636 5976 4001 2342 0
    NvB+cdp old 34922 35469 237580 20924 79101 1521 5976 2805 2342 0
    NvB+cdp 2lv 34747 35469 237451 20179 77856 1064 5976 4049 2342 0
    NvB+cdp perfect 13601 35469 0 13183 87817 469 5976 1378 0 0
    NvB+cdp flat_local 34747 35469 237451 20179 77856 1064 5976 4049 2342 0
    NvB+cdp no_l1 49898 35469 424030 10794 52202 2256 5976 1425 8624 0";
