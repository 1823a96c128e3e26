//! Time-resolved profiling: per-kernel records, interval samples,
//! attribution, and the machine-readable [`ProfileReport`] export.
//!
//! Records and samples are built on one primitive —
//! [`RunStats::delta_since`] between two whole-machine counter snapshots,
//! taken by the device's recorder — so every number in a record or sample
//! is a plain counter difference, not a separately maintained statistic.
//! Hot-path counters stay ordinary fields; the recorder only reads them at
//! kernel-retire and interval boundaries.

use ggpu_mem::{CacheStats, DramStats};
use ggpu_sm::{PcCounters, SmField, SmStats, StallBreakdown, StallReason};

use crate::json::JsonWriter;
use crate::stats::RunStats;
use crate::trace::TraceEvent;

/// Counter record for one kernel launch (host or CDP child).
///
/// Attribution is by *retire interval*: a record's [`KernelRecord::stats`]
/// delta covers every counter increment between the previous grid
/// retirement (or run start) and this grid's retirement. Retire intervals
/// partition the run, so per-kernel deltas always sum exactly to the run
/// totals — including when CDP children overlap their parent, in which
/// case concurrent parent activity is attributed to whichever grid retires
/// the window.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    /// Grid handle (unique per launch within a `Gpu`).
    pub grid: u64,
    /// Kernel name.
    pub kernel: String,
    /// Kernel id in the loaded program.
    pub kernel_id: u32,
    /// CTAs in the grid.
    pub ctas: u64,
    /// Threads per CTA.
    pub threads_per_cta: u32,
    /// `None` for host launches; `Some(parent grid handle)` for CDP
    /// children.
    pub parent: Option<u64>,
    /// CDP nesting depth (0 for host grids).
    pub depth: u32,
    /// Stream the grid was launched on (0 = default stream; CDP children
    /// inherit their parent's stream).
    pub stream: usize,
    /// Device cycle at which the grid was enqueued.
    pub launch_cycle: u64,
    /// Device cycle at which the first CTA dispatched (after launch
    /// overhead); equals `launch_cycle` if the grid retired without
    /// dispatching.
    pub start_cycle: u64,
    /// Device cycle at which the last CTA completed.
    pub retire_cycle: u64,
    /// Counter delta for this record's retire interval.
    pub stats: RunStats,
}

impl KernelRecord {
    /// Whether this record is a CDP child launch.
    pub fn is_cdp_child(&self) -> bool {
        self.parent.is_some()
    }

    /// Warp-instructions per cycle over the record's execution window
    /// (start to retire); zero for a degenerate window.
    pub fn ipc(&self) -> f64 {
        let window = self.retire_cycle.saturating_sub(self.start_cycle);
        if window == 0 {
            0.0
        } else {
            self.stats.sm.issued as f64 / window as f64
        }
    }

    /// Serialize as a standalone JSON object.
    pub fn to_json(&self) -> String {
        JsonWriter::object(|w| {
            w.u64("grid", self.grid)
                .str("kernel", &self.kernel)
                .u64("kernel_id", self.kernel_id as u64)
                .u64("ctas", self.ctas)
                .u64("threads_per_cta", self.threads_per_cta as u64)
                .str("origin", if self.is_cdp_child() { "cdp" } else { "host" })
                .opt_u64("parent", self.parent)
                .u64("depth", self.depth as u64)
                .u64("stream", self.stream as u64)
                .u64("launch_cycle", self.launch_cycle)
                .u64("start_cycle", self.start_cycle)
                .u64("retire_cycle", self.retire_cycle)
                .f64("ipc", self.ipc())
                .raw("stats", &run_stats_json(&self.stats));
        })
    }
}

/// One interval sample: the counter delta over `[start_cycle, end_cycle)`
/// plus derived rates.
///
/// Regular samples span exactly
/// [`crate::GpuConfig::sample_interval_cycles`]; the trailing sample of a
/// `synchronize` (flushed so that samples always sum to the aggregate
/// counters) may be shorter.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSample {
    /// First cycle covered (inclusive).
    pub start_cycle: u64,
    /// One past the last cycle covered.
    pub end_cycle: u64,
    /// Counter delta over the window.
    pub stats: RunStats,
}

impl IntervalSample {
    /// Window length in cycles.
    pub(crate) fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }

    /// Warp-instructions per cycle over the window.
    pub fn ipc(&self) -> f64 {
        let c = self.cycles();
        if c == 0 {
            0.0
        } else {
            self.stats.sm.issued as f64 / c as f64
        }
    }

    /// Mean active lanes per issued warp-instruction (SIMD occupancy),
    /// in `[0, 32]`.
    pub fn occupancy(&self) -> f64 {
        self.stats.sm.avg_active_lanes()
    }

    /// L1 miss rate over the window's accesses.
    pub fn l1_miss_rate(&self) -> f64 {
        self.stats.l1.miss_rate()
    }

    /// L2 miss rate over the window's accesses.
    pub(crate) fn l2_miss_rate(&self) -> f64 {
        self.stats.l2.miss_rate()
    }

    /// DRAM data-pin utilization over the window.
    pub fn dram_utilization(&self) -> f64 {
        self.stats.dram.utilization(self.cycles())
    }

    /// NoC utilization proxy: flits moved per cycle across both networks.
    pub(crate) fn noc_flits_per_cycle(&self) -> f64 {
        let c = self.cycles();
        if c == 0 {
            0.0
        } else {
            (self.stats.icnt_req.flits + self.stats.icnt_rep.flits) as f64 / c as f64
        }
    }

    /// Fraction of the window's stall cycles attributed to `reason`.
    pub(crate) fn stall_fraction(&self, reason: StallReason) -> f64 {
        self.stats.sm.stalls.fraction(reason)
    }

    /// Serialize as a standalone JSON object (derived rates plus the raw
    /// counter delta).
    pub(crate) fn to_json(&self) -> String {
        JsonWriter::object(|w| {
            w.u64("start_cycle", self.start_cycle)
                .u64("end_cycle", self.end_cycle)
                .f64("ipc", self.ipc())
                .f64("occupancy", self.occupancy())
                .f64("l1_miss_rate", self.l1_miss_rate())
                .f64("l2_miss_rate", self.l2_miss_rate())
                .f64("dram_utilization", self.dram_utilization())
                .f64("noc_flits_per_cycle", self.noc_flits_per_cycle());
            w.begin_obj_key("stall_fractions");
            for reason in StallReason::ALL {
                w.f64(reason.name(), self.stall_fraction(reason));
            }
            w.end_obj();
            w.raw("stats", &run_stats_json(&self.stats));
        })
    }
}

/// One instruction row in a kernel's annotated listing: a PC, its
/// disassembly, and every counter charged to it.
#[derive(Debug, Clone, PartialEq)]
pub struct PcProfileRow {
    /// Program counter (index into the kernel's instruction stream).
    pub pc: usize,
    /// Disassembled instruction at this PC.
    pub instr: String,
    /// Counters attributed to this PC, merged across SMs.
    pub counters: PcCounters,
}

/// Annotated listing for one kernel: every instruction with its merged
/// per-PC counters — the simulator's analogue of an nvprof source-level
/// profile.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPcProfile {
    /// Kernel id in the loaded program.
    pub kernel_id: u32,
    /// Kernel name.
    pub kernel: String,
    /// One row per PC, in program order.
    pub rows: Vec<PcProfileRow>,
}

impl KernelPcProfile {
    /// Total warp-instructions issued from this kernel's PCs.
    pub fn total_issues(&self) -> u64 {
        self.rows.iter().map(|r| r.counters.issues).sum()
    }

    /// Serialize as a standalone JSON object.
    pub(crate) fn to_json(&self) -> String {
        JsonWriter::object(|w| {
            w.u64("kernel_id", self.kernel_id as u64)
                .str("kernel", &self.kernel);
            w.arr_raw("rows", self.rows.iter().map(pc_row_json));
        })
    }
}

/// The code axis of attribution: per-PC counters for every kernel, plus
/// the stall cycles no instruction could be charged for (idle SMs, launch
/// overhead, dead warps).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PcProfile {
    /// One annotated listing per kernel, in kernel-id order.
    pub kernels: Vec<KernelPcProfile>,
    /// Stall cycles with no attributable (kernel, PC).
    pub unattributed: StallBreakdown,
}

impl PcProfile {
    /// Sum a per-PC counter over every kernel and PC.
    pub fn total<F: Fn(&PcCounters) -> u64>(&self, f: F) -> u64 {
        self.kernels
            .iter()
            .flat_map(|k| k.rows.iter())
            .map(|r| f(&r.counters))
            .sum()
    }

    /// Serialize as a standalone JSON object.
    pub(crate) fn to_json(&self) -> String {
        JsonWriter::object(|w| {
            w.arr_raw("kernels", self.kernels.iter().map(|k| k.to_json()));
            w.raw("unattributed", &stalls_json(&self.unattributed));
        })
    }
}

/// One SM's row in the space axis: its full counter set plus its network
/// endpoint traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct SmUnit {
    /// SM index.
    pub sm: usize,
    /// This SM's counters (issues, stalls, occupancy, ...).
    pub stats: SmStats,
    /// This SM's L1 data-cache counters.
    pub l1: CacheStats,
    /// Packets this SM injected into the request network.
    pub req_injected: u64,
    /// Packets the reply network delivered to this SM.
    pub rep_delivered: u64,
}

/// One memory partition's row in the space axis: L2 slice, DRAM channel
/// (with per-bank detail), and network endpoint traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionUnit {
    /// Partition index.
    pub partition: usize,
    /// L2 slice counters.
    pub l2: CacheStats,
    /// DRAM channel counters.
    pub dram: DramStats,
    /// Per-bank `(requests, row_hits)` within the channel.
    pub banks: Vec<(u64, u64)>,
    /// Packets the request network delivered to this partition.
    pub req_delivered: u64,
    /// Packets this partition injected into the reply network.
    pub rep_injected: u64,
}

/// The space axis of attribution: every counter resolved per hardware
/// unit (SM, L2 slice, DRAM channel/bank, network endpoint). Always
/// collected — these are the units' own counters, read at report time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitProfile {
    /// Per-SM rows, in SM-index order.
    pub sms: Vec<SmUnit>,
    /// Per-partition rows, in partition order.
    pub partitions: Vec<PartitionUnit>,
}

impl UnitProfile {
    /// Serialize as a standalone JSON object.
    pub(crate) fn to_json(&self) -> String {
        JsonWriter::object(|w| {
            w.arr_raw("sms", self.sms.iter().map(sm_unit_json));
            w.arr_raw(
                "partitions",
                self.partitions.iter().map(partition_unit_json),
            );
        })
    }
}

fn stalls_json(s: &StallBreakdown) -> String {
    JsonWriter::object(|w| {
        for reason in StallReason::ALL {
            w.u64(reason.name(), s.get(reason));
        }
    })
}

fn cache_json(c: &CacheStats) -> String {
    JsonWriter::object(|w| {
        c.for_each_field(w.u64_fields());
    })
}

fn pc_row_json(r: &PcProfileRow) -> String {
    let c = &r.counters;
    JsonWriter::object(|w| {
        w.u64("pc", r.pc as u64)
            .str("instr", &r.instr)
            .u64("issues", c.issues)
            .u64("lanes", c.lanes)
            .u64("l1_accesses", c.l1_accesses)
            .u64("l1_hits", c.l1_hits)
            .u64("mem_txns", c.mem_txns)
            .u64("replays", c.replays)
            .u64("offchip_txns", c.offchip_txns)
            .raw("stalls", &stalls_json(&c.stalls));
    })
}

fn sm_unit_json(u: &SmUnit) -> String {
    JsonWriter::object(|w| {
        w.u64("sm", u.sm as u64)
            .u64("cycles", u.stats.cycles)
            .u64("issued", u.stats.issued)
            .u64("thread_instrs", u.stats.thread_instrs)
            .u64("offchip_txns", u.stats.offchip_txns)
            .u64("ctas_completed", u.stats.ctas_completed)
            .f64("avg_active_lanes", u.stats.avg_active_lanes())
            .raw("stalls", &stalls_json(&u.stats.stalls))
            .raw("l1", &cache_json(&u.l1))
            .u64("req_injected", u.req_injected)
            .u64("rep_delivered", u.rep_delivered);
    })
}

fn partition_unit_json(p: &PartitionUnit) -> String {
    JsonWriter::object(|w| {
        w.u64("partition", p.partition as u64)
            .raw("l2", &cache_json(&p.l2));
        w.begin_obj_key("dram");
        p.dram.for_each_field(w.u64_fields());
        w.end_obj();
        w.arr_raw(
            "banks",
            p.banks.iter().map(|&(requests, row_hits)| {
                JsonWriter::object(|b| {
                    b.u64("requests", requests).u64("row_hits", row_hits);
                })
            }),
        );
        w.u64("req_delivered", p.req_delivered)
            .u64("rep_injected", p.rep_injected);
    })
}

/// Everything the profiler collected over a run, in one machine-readable
/// bundle: final counters, per-kernel records, interval samples, and the
/// event trace. Obtained from [`crate::Gpu::take_profile`].
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Final whole-run counters at the time the report was taken.
    pub stats: RunStats,
    /// One record per retired kernel launch, in retire order.
    pub kernels: Vec<KernelRecord>,
    /// Interval samples, oldest first.
    pub samples: Vec<IntervalSample>,
    /// Samples dropped after the sample log filled.
    pub samples_dropped: u64,
    /// The event trace (empty unless tracing was enabled).
    pub events: Vec<TraceEvent>,
    /// Events dropped after the event log filled.
    pub events_dropped: u64,
    /// Code-axis attribution (per-PC counters, symbolicated); `None`
    /// unless [`ggpu_sm::SmConfig::attribution`] was on.
    pub pc: Option<PcProfile>,
    /// Space-axis attribution (per-unit counters); always collected.
    pub units: UnitProfile,
}

impl ProfileReport {
    /// Serialize the full report (stats, kernels, samples, events) as one
    /// JSON document.
    pub fn to_json(&self) -> String {
        JsonWriter::object(|w| {
            w.f64("clock_ghz", crate::CLOCK_GHZ)
                .raw("stats", &run_stats_json(&self.stats));
            w.arr_raw("kernels", self.kernels.iter().map(|k| k.to_json()));
            w.arr_raw("samples", self.samples.iter().map(|s| s.to_json()));
            w.u64("samples_dropped", self.samples_dropped);
            w.arr_raw("events", self.events.iter().map(|e| e.to_json()));
            w.u64("events_dropped", self.events_dropped);
            match &self.pc {
                Some(p) => w.raw("pc_profile", &p.to_json()),
                None => w.raw("pc_profile", "null"),
            };
            w.raw("units", &self.units.to_json());
        })
    }

    /// Total observability records silently truncated: dropped interval
    /// samples plus dropped trace events. Harnesses surface this so a
    /// partial report is never mistaken for a complete one.
    pub fn dropped_total(&self) -> u64 {
        self.samples_dropped + self.events_dropped
    }
}

/// Serialize a [`RunStats`] snapshot (or delta) as a JSON object: every
/// raw counter, plus a `derived` block with the headline rates.
pub fn run_stats_json(s: &RunStats) -> String {
    JsonWriter::object(|w| {
        w.begin_obj_key("host");
        s.host.for_each_field(w.u64_fields());
        w.end_obj();

        w.begin_obj_key("sm");
        s.sm.for_each_field(|name, field| match field {
            SmField::Count(v) => {
                w.u64(name, v);
            }
            SmField::Breakdown(parts) => {
                w.begin_obj_key(name);
                for &(part, v) in parts {
                    w.u64(part, v);
                }
                w.end_obj();
            }
            SmField::Histogram(bins) => {
                w.begin_arr_key(name);
                for &v in bins {
                    w.elem_u64(v);
                }
                w.end_arr();
            }
        });
        w.end_obj();

        for (key, c) in [("l1", &s.l1), ("l2", &s.l2)] {
            w.begin_obj_key(key);
            c.for_each_field(w.u64_fields());
            w.end_obj();
        }

        w.begin_obj_key("dram");
        s.dram.for_each_field(w.u64_fields());
        w.end_obj();

        for (key, n) in [("icnt_req", &s.icnt_req), ("icnt_rep", &s.icnt_rep)] {
            w.begin_obj_key(key);
            n.for_each_field(w.u64_fields());
            w.end_obj();
        }

        w.begin_obj_key("derived");
        w.f64("ipc", s.ipc())
            .f64("l1_miss_rate", s.l1.miss_rate())
            .f64("l2_miss_rate", s.l2.miss_rate())
            .f64("dram_efficiency", s.dram.efficiency())
            .f64("dram_utilization", s.dram_utilization())
            .u64("total_cycles", s.total_cycles());
        w.end_obj();
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::trace::chrome_trace_json;

    #[test]
    fn run_stats_json_parses_with_all_sections() {
        let mut s = RunStats::default();
        s.host.kernel_cycles = 100;
        s.sm.issued = 250;
        let v = Json::parse(&run_stats_json(&s)).expect("well-formed");
        for key in [
            "host", "sm", "l1", "l2", "dram", "icnt_req", "icnt_rep", "derived",
        ] {
            assert!(v.get(key).is_some(), "missing {key}");
        }
        assert_eq!(
            v.get("sm")
                .and_then(|sm| sm.get("issued"))
                .and_then(Json::as_u64),
            Some(250)
        );
        assert_eq!(
            v.get("derived")
                .and_then(|d| d.get("ipc"))
                .and_then(Json::as_f64),
            Some(2.5)
        );
    }

    #[test]
    fn attribution_sections_serialize() {
        let counters = PcCounters {
            issues: 7,
            ..PcCounters::default()
        };
        let report = ProfileReport {
            pc: Some(PcProfile {
                kernels: vec![KernelPcProfile {
                    kernel_id: 0,
                    kernel: "k".to_string(),
                    rows: vec![PcProfileRow {
                        pc: 0,
                        instr: "exit".to_string(),
                        counters,
                    }],
                }],
                unattributed: StallBreakdown::default(),
            }),
            units: UnitProfile {
                sms: vec![SmUnit {
                    sm: 0,
                    stats: SmStats::default(),
                    l1: CacheStats::default(),
                    req_injected: 3,
                    rep_delivered: 2,
                }],
                partitions: vec![PartitionUnit {
                    partition: 0,
                    l2: CacheStats::default(),
                    dram: DramStats::default(),
                    banks: vec![(5, 4)],
                    req_delivered: 3,
                    rep_injected: 2,
                }],
            },
            ..Default::default()
        };
        assert_eq!(report.pc.as_ref().map(|p| p.total(|c| c.issues)), Some(7));
        let v = Json::parse(&report.to_json()).expect("well-formed");
        let pc = v.get("pc_profile").expect("pc_profile");
        let rows = pc
            .get("kernels")
            .and_then(Json::as_arr)
            .and_then(|ks| ks[0].get("rows"))
            .and_then(Json::as_arr)
            .expect("rows");
        assert_eq!(rows[0].get("issues").and_then(Json::as_u64), Some(7));
        let units = v.get("units").expect("units");
        let sms = units.get("sms").and_then(Json::as_arr).expect("sms");
        assert_eq!(sms[0].get("req_injected").and_then(Json::as_u64), Some(3));
        let parts = units
            .get("partitions")
            .and_then(Json::as_arr)
            .expect("partitions");
        let banks = parts[0].get("banks").and_then(Json::as_arr).expect("banks");
        assert_eq!(banks[0].get("requests").and_then(Json::as_u64), Some(5));
        // Attribution off: pc_profile serializes as an explicit null.
        let off = ProfileReport::default();
        let v = Json::parse(&off.to_json()).expect("well-formed");
        assert_eq!(v.get("pc_profile"), Some(&Json::Null));
    }

    #[test]
    fn profile_report_json_round_trips() {
        let report = ProfileReport {
            stats: RunStats::default(),
            kernels: vec![KernelRecord {
                grid: 1,
                kernel: "k".to_string(),
                kernel_id: 0,
                ctas: 4,
                threads_per_cta: 64,
                parent: None,
                depth: 0,
                stream: 0,
                launch_cycle: 0,
                start_cycle: 100,
                retire_cycle: 900,
                stats: RunStats::default(),
            }],
            samples: vec![IntervalSample {
                start_cycle: 0,
                end_cycle: 500,
                stats: RunStats::default(),
            }],
            samples_dropped: 0,
            events: Vec::new(),
            events_dropped: 0,
            ..Default::default()
        };
        let v = Json::parse(&report.to_json()).expect("well-formed");
        let kernels = v.get("kernels").and_then(Json::as_arr).expect("kernels");
        assert_eq!(kernels.len(), 1);
        assert_eq!(
            kernels[0].get("origin").and_then(Json::as_str),
            Some("host")
        );
        assert_eq!(kernels[0].get("parent"), Some(&Json::Null));
        let samples = v.get("samples").and_then(Json::as_arr).expect("samples");
        assert_eq!(
            samples[0].get("end_cycle").and_then(Json::as_u64),
            Some(500)
        );
        // The chrome trace is also well-formed JSON even when empty.
        let trace = chrome_trace_json(&[("t".to_string(), report.events.as_slice())]);
        Json::parse(&trace).expect("chrome trace well-formed");
    }
}
