//! Integration tests for the attribution profiler: per-PC (code axis) and
//! per-unit (space axis) counters must telescope exactly to the aggregate
//! [`RunStats`] and cost nothing when disabled. (That a profile is the same
//! bytes on every run is `crates/bench/tests/artifacts.rs`, against the
//! committed `results/prof_sw.json`.)

use ggpu_core::{benchmark, GpuConfig, ProfileReport, RunStats, Scale, StallReason};

/// Run the GG pairwise workload (CDP on, so child launches and parent
/// overlap exercise the attribution paths) with per-PC attribution.
fn profiled_run() -> (RunStats, ProfileReport) {
    let config = GpuConfig::rtx3070().with_attribution(true);
    let b = benchmark(Scale::Tiny, "GG").expect("GG is registered");
    let r = b.run(&config, true);
    assert!(r.verified, "GG must verify");
    let profile = *r.profile.expect("attribution enables profiling");
    (r.stats, profile)
}

#[test]
fn per_pc_counters_telescope_to_run_stats() {
    let (stats, profile) = profiled_run();
    let pc = profile.pc.as_ref().expect("attribution was on");

    assert_eq!(pc.total(|c| c.issues), stats.sm.issued, "issues telescope");
    assert_eq!(
        pc.total(|c| c.lanes),
        stats.sm.thread_instrs,
        "lanes telescope"
    );
    assert_eq!(
        pc.total(|c| c.offchip_txns),
        stats.sm.offchip_txns,
        "off-chip transactions telescope"
    );
    assert_eq!(
        pc.total(|c| c.l1_accesses),
        stats.l1.accesses(),
        "L1 accesses telescope"
    );
    assert_eq!(
        pc.total(|c| c.l1_hits),
        stats.l1.hits(),
        "L1 hits telescope"
    );
    for reason in StallReason::ALL {
        assert_eq!(
            pc.total(|c| c.stalls.get(reason)) + pc.unattributed.get(reason),
            stats.sm.stalls.get(reason),
            "stall {reason:?} telescopes"
        );
    }
}

#[test]
fn per_pc_counters_sum_to_kernel_record_deltas() {
    let (stats, profile) = profiled_run();
    // Retire intervals partition the run, so summed per-kernel record
    // deltas equal the run totals — the same totals the per-PC table
    // telescopes to. This pins the two scoping mechanisms to each other.
    let record_issued: u64 = profile.kernels.iter().map(|k| k.stats.sm.issued).sum();
    assert_eq!(record_issued, stats.sm.issued, "records partition the run");
    let pc = profile.pc.as_ref().expect("attribution was on");
    assert_eq!(
        pc.total(|c| c.issues),
        record_issued,
        "per-PC issues equal summed per-kernel record deltas"
    );
    assert!(
        profile.kernels.iter().any(|k| k.is_cdp_child()),
        "the CDP workload must produce child records"
    );
}

#[test]
fn per_unit_counters_telescope_to_run_stats() {
    let (stats, profile) = profiled_run();
    let units = &profile.units;

    let issued: u64 = units.sms.iter().map(|u| u.stats.issued).sum();
    assert_eq!(issued, stats.sm.issued, "SM issues");
    let l1: u64 = units.sms.iter().map(|u| u.l1.accesses()).sum();
    assert_eq!(l1, stats.l1.accesses(), "L1 accesses");
    let l2: u64 = units.partitions.iter().map(|p| p.l2.accesses()).sum();
    assert_eq!(l2, stats.l2.accesses(), "L2 accesses");
    let dram: u64 = units.partitions.iter().map(|p| p.dram.requests).sum();
    assert_eq!(dram, stats.dram.requests, "DRAM requests");
    let banks = || units.partitions.iter().flat_map(|p| p.banks.iter());
    let bank_reqs: u64 = banks().map(|&(req, _)| req).sum();
    assert_eq!(bank_reqs, stats.dram.requests, "bank requests");
    let row_hits: u64 = banks().map(|&(_, hits)| hits).sum();
    assert_eq!(row_hits, stats.dram.row_hits, "bank row hits");
    let req: u64 = units.sms.iter().map(|u| u.req_injected).sum();
    assert_eq!(req, stats.icnt_req.packets, "request packets");
    let req_del: u64 = units.partitions.iter().map(|p| p.req_delivered).sum();
    assert_eq!(req_del, stats.icnt_req.packets, "request deliveries");
    let rep: u64 = units.partitions.iter().map(|p| p.rep_injected).sum();
    assert_eq!(rep, stats.icnt_rep.packets, "reply packets");
    let rep_del: u64 = units.sms.iter().map(|u| u.rep_delivered).sum();
    assert_eq!(rep_del, stats.icnt_rep.packets, "reply deliveries");
}

#[test]
fn attribution_off_changes_nothing_and_costs_nothing() {
    let run = |attribution: bool| {
        let config = GpuConfig::rtx3070().with_attribution(attribution);
        let b = benchmark(Scale::Tiny, "GG").expect("GG is registered");
        b.run(&config, true)
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off.stats, on.stats, "attribution must not perturb timing");
    assert!(
        off.profile.is_none(),
        "no profiling layers on, so no profile is collected"
    );
    assert!(on.profile.expect("attribution is on").pc.is_some());
}
