//! The serving observability report: metrics, latency histograms, the
//! host event stream, batch spans, request trails, and a unified
//! host+device Chrome-trace export.
//!
//! The Chrome trace renders one Perfetto process per participant on one
//! cycle timeline: pid 0 holds the host rows (an admission-queue-depth
//! counter track, one row per worker, one row per tenant) and pid
//! `1 + d` holds device `d`'s rows (one row per stream built from
//! [`ggpu_sim::KernelRecord`]s, plus PCIe/P2P transfers and
//! fault/watchdog instants from the stream-annotated device trace). Host
//! events carry the grid handle and [`ggpu_sim::StreamId`], so a slow
//! request can be followed from admission through queue wait, batch
//! formation, stream launch, and the device kernel's start/retire —
//! including retries and stream resets on a faulted path.

use std::collections::{BTreeMap, BTreeSet};

use ggpu_sim::json::{quoted, JsonWriter};
use ggpu_sim::{grid_device, ChromeTrace, InstantScope, KernelRecord, TraceEvent, TraceEventKind};

use crate::histogram::{Histogram, LatencyStats};
use crate::metrics::ServeMetrics;
use crate::shape::ShapeKey;
use crate::telemetry::{BatchSpan, JobTrail, ServeEvent, ServeEventKind};

/// Everything the serving layer observed, in one exportable bundle.
/// Built by [`crate::Service::report`].
#[derive(Debug)]
pub struct ServeReport {
    /// Lifetime counters and gauges.
    pub metrics: ServeMetrics,
    /// Device clock in GHz (for cycle→time conversion in the trace).
    pub clock_ghz: f64,
    /// Latency histograms over every admitted job.
    pub global: LatencyStats,
    /// Latency histograms broken down per tenant.
    pub per_tenant: BTreeMap<u32, LatencyStats>,
    /// Latency histograms broken down per kernel shape.
    pub per_shape: BTreeMap<ShapeKey, LatencyStats>,
    /// End-to-end histograms per outcome class, as `(tag, histogram)` in
    /// a fixed order: done, shed, deadline_exceeded, failed.
    pub per_outcome: Vec<(&'static str, Histogram)>,
    /// The typed host event stream, in emission order.
    pub events: Vec<ServeEvent>,
    /// Host events dropped after the log filled.
    pub events_dropped: u64,
    /// One span per batch launch (launch → retire/fault-settle).
    pub spans: Vec<BatchSpan>,
    /// One trail per terminated job, in completion order.
    pub trails: Vec<JobTrail>,
    /// Admitted jobs not yet terminal when the report was taken.
    pub in_flight: u64,
    /// One log per device, in device-index order.
    pub devices: Vec<DeviceLog>,
}

/// One device's observability slice of a [`ServeReport`].
#[derive(Debug)]
pub struct DeviceLog {
    /// The device's stream-annotated event trace.
    pub events: Vec<TraceEvent>,
    /// Per-grid records (the join target of launch events); grid handles
    /// encode the device ([`ggpu_sim::grid_device`]).
    pub records: Vec<KernelRecord>,
}

impl ServeReport {
    /// The `n` slowest terminated jobs by end-to-end cycles (ties broken
    /// by job id, so the order is deterministic).
    pub fn slowest(&self, n: usize) -> Vec<&JobTrail> {
        let mut sorted: Vec<&JobTrail> = self.trails.iter().collect();
        sorted.sort_by(|a, b| b.e2e.cmp(&a.e2e).then(a.job.0.cmp(&b.job.0)));
        sorted.truncate(n);
        sorted
    }

    /// Every device's trace events, flattened in device-index order.
    pub fn device_events(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.devices.iter().flat_map(|d| d.events.iter())
    }

    /// Every device's kernel records, flattened in device-index order.
    pub fn device_records(&self) -> impl Iterator<Item = &KernelRecord> + '_ {
        self.devices.iter().flat_map(|d| d.records.iter())
    }

    /// Device events causally tied to a trail: events whose grid handle
    /// matches one of the trail's launches (grid handles are node-unique),
    /// or whose stream matches one of the trail's streams *on the same
    /// device* within the trail's lifetime window — stream ids repeat
    /// across devices, so stream matches are scoped to the devices the
    /// trail actually launched on.
    pub fn causal_device_events(&self, trail: &JobTrail) -> Vec<&TraceEvent> {
        let grids: BTreeSet<u64> = trail.grids.iter().map(|g| g.grid).collect();
        let streams: BTreeSet<(usize, usize)> = trail
            .grids
            .iter()
            .map(|g| (grid_device(g.grid), g.stream))
            .collect();
        self.devices
            .iter()
            .enumerate()
            .flat_map(|(d, log)| log.events.iter().map(move |ev| (d, ev)))
            .filter(|(d, ev)| {
                let (grid, stream) = match &ev.kind {
                    TraceEventKind::KernelLaunch { grid, stream, .. }
                    | TraceEventKind::CdpEnqueue { grid, stream, .. }
                    | TraceEventKind::KernelStart { grid, stream }
                    | TraceEventKind::KernelRetire { grid, stream } => (Some(*grid), *stream),
                    TraceEventKind::Fault { stream, .. }
                    | TraceEventKind::Deadlock { stream, .. } => (None, *stream),
                    _ => return false,
                };
                if let Some(g) = grid {
                    grids.contains(&g)
                } else {
                    streams.contains(&(*d, stream))
                        && ev.cycle >= trail.submit_cycle
                        && ev.cycle <= trail.complete_cycle
                }
            })
            .map(|(_, ev)| ev)
            .collect()
    }

    /// Serialize the whole report as one JSON document (hand-rolled via
    /// [`ggpu_sim::json`]; parse it back with [`ggpu_sim::json::Json`]).
    pub fn to_json(&self) -> String {
        JsonWriter::object(|w| {
            w.f64("clock_ghz", self.clock_ghz)
                .raw("metrics", &self.metrics.to_json())
                .u64("in_flight", self.in_flight)
                .u64("events_dropped", self.events_dropped);
            w.begin_obj_key("latency");
            w.raw("global", &self.global.to_json());
            w.begin_obj_key("per_tenant");
            for (t, stats) in &self.per_tenant {
                w.raw(&t.to_string(), &stats.to_json());
            }
            w.end_obj();
            w.begin_obj_key("per_shape");
            for (shape, stats) in &self.per_shape {
                w.raw(&shape.to_string(), &stats.to_json());
            }
            w.end_obj();
            w.begin_obj_key("per_outcome");
            for (tag, h) in &self.per_outcome {
                w.raw(tag, &h.to_json());
            }
            w.end_obj();
            w.end_obj();
            w.arr_raw("events", self.events.iter().map(|ev| ev.to_json()));
            w.arr_raw("batches", self.spans.iter().map(|span| span.to_json()));
            w.arr_raw("requests", self.trails.iter().map(trail_json));
            w.arr_raw("device_events", self.device_events().map(|ev| ev.to_json()));
            w.arr_raw("kernels", self.device_records().map(|r| r.to_json()));
        })
    }

    /// Render the unified host+device Chrome trace. Load at
    /// <https://ui.perfetto.dev>.
    pub fn chrome_trace(&self) -> String {
        let mut tr = ChromeTrace::new(self.clock_ghz, InstantScope::Thread);

        const HOST: usize = 0;
        // Device `d` renders as pid DEV0 + d.
        const DEV0: usize = 1;
        const TID_QUEUE: u64 = 0;
        const TID_WORKER0: u64 = 1;
        const TID_TENANT0: u64 = 100;

        tr.process_name(HOST, "ggpu-serve host");
        for d in 0..self.devices.len() {
            tr.process_name(DEV0 + d, &format!("device {d}"));
            tr.thread_name(DEV0 + d, 0, "transfers (pcie/p2p)");
        }
        tr.thread_name(HOST, TID_QUEUE, "admission queue");

        // --- host: queue-depth counter track -------------------------------
        for e in &self.events {
            let depth = match &e.kind {
                ServeEventKind::Admit { queue_depth, .. }
                | ServeEventKind::Shed { queue_depth, .. }
                | ServeEventKind::BatchAssign { queue_depth, .. } => *queue_depth,
                _ => continue,
            };
            tr.counter(
                HOST,
                TID_QUEUE,
                "queue_depth",
                e.cycle,
                &[("jobs", depth.to_string())],
            );
        }

        // --- host: one row per worker (batch spans + recovery instants) ----
        let mut workers: BTreeSet<usize> = BTreeSet::new();
        let mut batch_worker: BTreeMap<u64, usize> = BTreeMap::new();
        for span in &self.spans {
            workers.insert(span.worker);
            batch_worker.insert(span.batch, span.worker);
            let start = span.start_cycle.unwrap_or(span.launch_cycle);
            let name = format!(
                "batch {} {} x{}{}",
                span.batch,
                span.shape,
                span.jobs,
                if span.faulted { " FAULTED" } else { "" }
            );
            tr.slice(
                HOST,
                TID_WORKER0 + span.worker as u64,
                &name,
                span.launch_cycle,
                span.end_cycle.saturating_sub(span.launch_cycle),
                &[
                    ("batch", span.batch.to_string()),
                    ("grid", span.grid.to_string()),
                    ("stream", span.stream.to_string()),
                    ("attempt", span.attempt.to_string()),
                    ("jobs", span.jobs.to_string()),
                    ("launch_cycle", span.launch_cycle.to_string()),
                    ("start_cycle", start.to_string()),
                    ("end_cycle", span.end_cycle.to_string()),
                    ("faulted", span.faulted.to_string()),
                ],
            );
        }
        let worker_of = |batch: &u64| batch_worker.get(batch).copied().unwrap_or(0) as u64;
        for e in &self.events {
            match &e.kind {
                ServeEventKind::StreamReset {
                    worker,
                    old_stream,
                    new_stream,
                } => {
                    workers.insert(*worker);
                    tr.instant(
                        HOST,
                        TID_WORKER0 + *worker as u64,
                        &format!("stream reset {} -> {}", old_stream.0, new_stream.0),
                        e.cycle,
                        &[
                            ("old_stream", old_stream.0.to_string()),
                            ("new_stream", new_stream.0.to_string()),
                        ],
                    );
                }
                ServeEventKind::Retry {
                    batch,
                    attempt,
                    not_before_round,
                } => tr.instant(
                    HOST,
                    TID_WORKER0 + worker_of(batch),
                    &format!("retry batch {batch}"),
                    e.cycle,
                    &[
                        ("attempt", attempt.to_string()),
                        ("not_before_round", not_before_round.to_string()),
                    ],
                ),
                ServeEventKind::Split { batch, left, right } => tr.instant(
                    HOST,
                    TID_WORKER0 + worker_of(batch),
                    &format!("split batch {batch} -> {left}+{right}"),
                    e.cycle,
                    &[("batch", batch.to_string())],
                ),
                _ => {}
            }
        }
        for w_idx in &workers {
            tr.thread_name(
                HOST,
                TID_WORKER0 + *w_idx as u64,
                &format!("worker {w_idx}"),
            );
        }

        // --- host: one row per tenant (request lifecycles) -----------------
        let mut tenants: BTreeSet<u32> = BTreeSet::new();
        for t in &self.trails {
            tenants.insert(t.tenant.0);
            let mut args = vec![
                ("job", t.job.0.to_string()),
                ("shape", quoted(&t.shape.to_string())),
                ("priority", t.priority.0.to_string()),
                ("outcome", quoted(t.outcome.tag())),
                ("submit_cycle", t.submit_cycle.to_string()),
                ("complete_cycle", t.complete_cycle.to_string()),
                ("e2e_cycles", t.e2e.to_string()),
            ];
            if let Some(g) = t.grids.last() {
                args.push(("grid", g.grid.to_string()));
                args.push(("stream", g.stream.to_string()));
            }
            tr.slice(
                HOST,
                TID_TENANT0 + t.tenant.0 as u64,
                &format!("job {} [{}]", t.job.0, t.outcome.tag()),
                t.submit_cycle,
                t.e2e,
                &args,
            );
        }
        for t in &tenants {
            tr.thread_name(HOST, TID_TENANT0 + *t as u64, &format!("tenant {t}"));
        }

        // --- devices: one pid per device, one row per stream ----------------
        for (d, log) in self.devices.iter().enumerate() {
            let pid = DEV0 + d;
            let mut streams: BTreeSet<usize> = BTreeSet::new();
            for r in &log.records {
                streams.insert(r.stream);
                tr.slice(
                    pid,
                    1 + r.stream as u64,
                    &format!("{} #{}", r.kernel, r.grid),
                    r.start_cycle,
                    r.retire_cycle.saturating_sub(r.start_cycle),
                    &[
                        ("grid", r.grid.to_string()),
                        ("kernel", quoted(&r.kernel)),
                        ("stream", r.stream.to_string()),
                        ("ctas", r.ctas.to_string()),
                        ("launch_cycle", r.launch_cycle.to_string()),
                        ("retire_cycle", r.retire_cycle.to_string()),
                    ],
                );
            }
            // Faults, watchdog fires, and PCIe/P2P transfers from the trace.
            for e in &log.events {
                match &e.kind {
                    TraceEventKind::Memcpy { dir, bytes, cycles } => tr.slice(
                        pid,
                        0,
                        &format!("memcpy_{dir}"),
                        e.cycle,
                        *cycles,
                        &[("bytes", bytes.to_string())],
                    ),
                    TraceEventKind::Fault {
                        kind,
                        kernel,
                        stream,
                    } => {
                        streams.insert(*stream);
                        tr.instant(
                            pid,
                            1 + *stream as u64,
                            &format!("FAULT: {kind}"),
                            e.cycle,
                            &[("kernel", quoted(kernel)), ("stream", stream.to_string())],
                        );
                    }
                    TraceEventKind::Deadlock {
                        stalled_for,
                        stream,
                    } => {
                        streams.insert(*stream);
                        tr.instant(
                            pid,
                            1 + *stream as u64,
                            "DEADLOCK (watchdog)",
                            e.cycle,
                            &[("stalled_for", stalled_for.to_string())],
                        );
                    }
                    _ => {}
                }
            }
            for s in &streams {
                tr.thread_name(pid, 1 + *s as u64, &format!("stream {s}"));
            }
        }

        tr.finish()
    }
}

/// Serialize one trail as a JSON object.
fn trail_json(t: &JobTrail) -> String {
    JsonWriter::object(|w| {
        w.u64("job", t.job.0)
            .u64("tenant", t.tenant.0 as u64)
            .str("shape", &t.shape.to_string())
            .u64("priority", t.priority.0 as u64)
            .str("outcome", t.outcome.tag())
            .u64("submit_cycle", t.submit_cycle)
            .opt_u64("batch_assign_cycle", t.batch_assign_cycle)
            .opt_u64("first_launch_cycle", t.first_launch_cycle)
            .u64("complete_cycle", t.complete_cycle)
            .opt_u64("device_exec_cycles", t.device_exec)
            .u64("e2e_cycles", t.e2e);
        w.begin_arr_key("grids");
        for g in &t.grids {
            w.elem_raw(&format!(
                "{{\"grid\":{},\"stream\":{},\"worker\":{},\"launch_cycle\":{}}}",
                g.grid, g.stream, g.worker, g.launch_cycle
            ));
        }
        w.end_arr();
    })
}
