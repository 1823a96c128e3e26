//! The results fence around the memory system's non-default modes — the
//! memory-side twin of `sm_modes.rs`.
//!
//! The default memory side (FR-FCFS, local crossbar, 40 B flits, 4 MB L2,
//! 32-entry DRAM queues, two partitions) is pinned byte-for-byte by
//! `artifacts.rs` and `engine_sleep.rs`. The modes Figs 12–22 sweep — the
//! other two DRAM schedulers, the other three topologies, router delay, flit
//! width, a small L2 behind a disabled L1 — and the two structural corners
//! (a DRAM queue small enough to spill into the overflow backlog, a single
//! partition) were only ever checked for "not faster". Here each of them runs
//! three workloads that between them put every kind of packet on the NoC
//! (`SW`: local and global rows; `NvB`: texture, constant and global atomics;
//! `STAR` with CDP: child grids' traffic and kernel-boundary flushes), and
//! must
//!
//! * give `==` [`RunStats`] with `fast_forward` on and off — which holds
//!   `MemSystem::{next_event, skip}` to what `MemSystem::tick` does cycle by
//!   cycle, in every mode; and
//! * reproduce [`PINNED`], every counter the path between an SM's out-port
//!   and its in-port decides, recorded from the build of commit `147b955`
//!   (the parent of the PR that gave that path one owner). A change that is
//!   meant to keep results reads the same numbers; one that is meant to
//!   change the model regenerates the table from the failure message and
//!   says so.

use ggpu_icnt::Topology;
use ggpu_kernels::{benchmark, Scale};
use ggpu_mem::DramScheduler;
use ggpu_sim::{GpuConfig, RunStats};

const WORKLOADS: [(&str, bool); 3] = [("SW", false), ("NvB", false), ("STAR", true)];

const MODES: [&str; 10] = [
    "fifo",
    "ooo128",
    "mesh",
    "fat_tree",
    "butterfly",
    "mesh_rd4",
    "flit8",
    "small_l2",
    "dram_q2",
    "one_part",
];

fn mode_cfg(mode: &str, fast_forward: bool) -> GpuConfig {
    let mut cfg = GpuConfig::test_small().with_fast_forward(fast_forward);
    match mode {
        "fifo" => cfg.dram.scheduler = DramScheduler::Fifo,
        "ooo128" => cfg.dram.scheduler = DramScheduler::OoO(128),
        "mesh" => cfg.icnt.topology = Topology::Mesh,
        "fat_tree" => cfg.icnt.topology = Topology::FatTree,
        "butterfly" => cfg.icnt.topology = Topology::Butterfly,
        "mesh_rd4" => {
            cfg.icnt.topology = Topology::Mesh;
            cfg.icnt.router_delay = 4;
        }
        "flit8" => cfg.icnt.flit_bytes = 8,
        // L1 off, small L2: misses and MSHR merges at the L2.
        "small_l2" => cfg = cfg.with_cache_sizes(0, 128 * 1024),
        // The overflow backlog and `rejected`.
        "dram_q2" => cfg.dram.queue_size = 2,
        "one_part" => cfg.n_partitions = 1,
        other => panic!("unknown mode {other}"),
    }
    cfg
}

fn run(abbrev: &str, cdp: bool, mode: &str, fast_forward: bool) -> (RunStats, u64) {
    let r = benchmark(Scale::Tiny, abbrev)
        .expect(abbrev)
        .run(&mode_cfg(mode, fast_forward), cdp);
    assert!(r.verified, "{abbrev} cdp={cdp} {mode} ff={fast_forward}");
    (r.stats, r.kernel_cycles)
}

/// `workload mode kernel_cycles | l2: read_access read_hit write_access
/// write_hit mshr_merged reservation_fails writebacks | dram: requests
/// row_hits data_cycles active_cycles rejected | req: packets flits
/// total_latency queueing | rep: the same four`, one row per (workload, mode).
fn row(abbrev: &str, cdp: bool, mode: &str, stats: &RunStats, kernel_cycles: u64) -> String {
    let mut out = format!(
        "{abbrev}{} {mode} {kernel_cycles}",
        if cdp { "+cdp" } else { "" }
    );
    let mut field = |_: &'static str, v: u64| out.push_str(&format!(" {v}"));
    stats.l2.for_each_field(&mut field);
    stats.dram.for_each_field(&mut field);
    stats.icnt_req.for_each_field(&mut field);
    stats.icnt_rep.for_each_field(&mut field);
    out
}

#[test]
fn every_mode_is_fast_forward_invariant_and_reads_the_pinned_counters() {
    let mut actual = Vec::new();
    for (abbrev, cdp) in WORKLOADS {
        for mode in MODES {
            let (stats, cycles) = run(abbrev, cdp, mode, true);
            let (stats_off, cycles_off) = run(abbrev, cdp, mode, false);
            assert_eq!(stats, stats_off, "{abbrev} cdp={cdp} {mode}: RunStats");
            assert_eq!(cycles, cycles_off, "{abbrev} cdp={cdp} {mode}: cycles");
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
    SW fifo 120690 44 0 344 0 0 0 0 388 360 1552 9882 5170 388 2840 4418 2610 44 352 220 0
    SW ooo128 120690 44 0 344 0 0 0 0 388 360 1552 9882 5055 388 2840 4418 2610 44 352 220 0
    SW mesh 120705 44 0 344 0 0 0 0 388 360 1552 9882 5056 388 5330 5056 2570 44 648 294 0
    SW fat_tree 120730 44 0 344 0 0 0 0 388 360 1552 9882 4856 388 8520 17140 13780 44 1056 396 0
    SW butterfly 120720 44 0 344 0 0 0 0 388 360 1552 9882 5055 388 7100 5582 2610 44 880 352 0
    SW mesh_rd4 120791 44 0 344 0 0 0 0 388 360 1552 9882 5064 388 5330 10285 1983 44 648 948 6
    SW flit8 120838 44 0 344 0 0 0 0 388 360 1552 9883 183 388 12824 203186 196386 44 1584 1028 192
    SW small_l2 244348 14516 14144 7012 6552 0 0 0 7384 7356 29536 181003 8096 21528 85128 153472 89380 14516 116128 142260 69680
    SW dram_q2 120690 44 0 344 0 0 0 0 388 360 1552 9882 9480 388 2840 4418 2610 44 352 220 0
    SW one_part 125054 44 0 344 0 0 0 0 388 374 1552 9599 7636 388 2840 15588 13780 44 352 220 0
    NvB fifo 27994 1472 426 12 0 147 0 0 911 798 3644 25885 0 1484 3040 13826 10822 1472 11776 38432 31072
    NvB ooo128 27938 1472 448 12 0 125 0 0 911 798 3644 25896 0 1484 3040 13460 10456 1472 11776 40239 32879
    NvB mesh 28271 1472 449 12 0 124 0 0 911 798 3644 25893 0 1484 5822 16582 10856 1472 22584 42402 32340
    NvB fat_tree 28929 1472 447 12 0 126 0 0 911 798 3644 25897 0 1484 9120 20854 11914 1472 35328 50503 37255
    NvB butterfly 28392 1472 450 12 0 123 0 0 911 798 3644 25898 0 1484 7600 18200 10744 1472 29440 43968 32192
    NvB mesh_rd4 30297 1472 456 12 0 117 0 0 911 798 3644 25902 0 1484 5822 39058 10572 1472 22584 66077 33431
    NvB flit8 35390 1472 480 12 0 93 0 0 911 798 3644 25931 0 1484 15152 67985 58925 1472 52992 159760 131792
    NvB small_l2 41692 5626 4609 12 0 118 0 0 911 798 3644 25914 0 5638 11348 73596 62284 5626 45008 239896 211766
    NvB dram_q2 28026 1472 443 12 0 130 0 0 911 798 3644 25891 16141 1484 3040 13426 10422 1472 11776 38777 31417
    NvB one_part 35550 1472 414 12 0 159 0 0 911 854 3644 23890 945 1484 3040 14027 11023 1472 11776 29441 22081
    STAR+cdp fifo 90294 26 0 279 90 4 0 0 301 213 1204 10293 3327 305 2284 2294 847 26 208 146 16
    STAR+cdp ooo128 89608 26 0 313 90 4 0 0 335 291 1340 9377 1893 339 2556 2515 898 26 208 146 16
    STAR+cdp mesh 89637 26 0 313 90 4 0 0 335 291 1340 9377 1886 339 4950 3167 914 26 408 196 16
    STAR+cdp fat_tree 89116 26 0 313 90 4 0 0 335 291 1340 9377 1892 339 7668 4175 1202 26 624 250 16
    STAR+cdp butterfly 89647 26 0 313 90 4 0 0 335 291 1340 9377 1893 339 6390 3619 985 26 520 224 16
    STAR+cdp mesh_rd4 89862 26 0 313 90 4 0 0 335 291 1340 9377 1871 339 4950 8507 998 26 408 609 21
    STAR+cdp flit8 89777 26 0 313 90 4 0 0 335 289 1340 9441 411 339 11528 56956 50853 26 936 659 165
    STAR+cdp small_l2 172402 5344 5186 2953 2759 4 0 0 3107 2551 12428 97508 2260 8297 34312 31681 6228 5344 42752 37783 11063
    STAR+cdp dram_q2 89934 26 0 279 90 4 0 0 301 230 1204 9613 6531 305 2284 2294 847 26 208 146 16
    STAR+cdp one_part 90641 26 0 279 90 4 0 0 301 279 1204 7924 3693 305 2284 2598 1151 26 208 146 16";
