//! The serving observability report: metrics, latency summaries, the
//! host event stream, batch spans, request trails, and a unified
//! host+device Chrome-trace export. Spans and trails are folded from the
//! event log when the report is built, and the latency summaries from the
//! trails (exact, by nearest rank); nothing keeps them between reports.
//!
//! The Chrome trace renders one Perfetto process per participant on one
//! cycle timeline: pid 0 holds the host rows (an admission-queue-depth
//! counter track, one row per worker, one row per tenant) and pid 1
//! holds the device's rows (one row per stream built from
//! [`ggpu_sim::KernelRecord`]s, plus PCIe transfers and fault/watchdog
//! instants from the stream-annotated device trace). Host
//! events carry the grid handle and [`ggpu_sim::StreamId`], so a slow
//! request can be followed from admission through queue wait, batch
//! formation, stream launch, and the device kernel's start/retire —
//! including retries and stream resets on a faulted path.

use std::collections::{BTreeMap, BTreeSet};

use ggpu_sim::json::{quoted, JsonWriter};
use ggpu_sim::{ChromeTrace, InstantScope, KernelRecord, TraceEvent, TraceEventKind, CLOCK_GHZ};

use crate::latency::{LatencyStats, LatencySummary};
use crate::metrics::ServeMetrics;
use crate::shape::ShapeKey;
use crate::telemetry::{
    spans_and_trails, BatchSpan, JobTrail, OutcomeTag, ServeEvent, ServeEventKind,
};

/// Everything the serving layer observed, in one exportable bundle.
/// Built by [`crate::Service::report`].
#[derive(Debug)]
pub struct ServeReport {
    /// Lifetime counters and gauges.
    pub metrics: ServeMetrics,
    /// Latency summaries over every admitted job.
    pub global: LatencyStats,
    /// Latency summaries broken down per tenant.
    pub per_tenant: BTreeMap<u32, LatencyStats>,
    /// Latency summaries broken down per kernel shape.
    pub per_shape: BTreeMap<ShapeKey, LatencyStats>,
    /// End-to-end summaries per outcome class, as `(tag, summary)` in a
    /// fixed order: done, shed, deadline_exceeded, failed.
    pub per_outcome: Vec<(&'static str, LatencySummary)>,
    /// The typed host event stream, in emission order: every serving
    /// decision since the service was built (the log is not capped, since
    /// spans and trails are folded from it).
    pub events: Vec<ServeEvent>,
    /// One span per batch launch (launch → retire, or the stream reset
    /// that ended it), folded from the events.
    pub spans: Vec<BatchSpan>,
    /// One trail per terminated job, in completion order, folded from the
    /// events.
    pub trails: Vec<JobTrail>,
    /// Admitted jobs not yet terminal when the report was taken
    /// (`admitted` less the four terminal counters).
    pub in_flight: u64,
    /// The device's stream-annotated event trace.
    pub device_events: Vec<TraceEvent>,
    /// The device's per-grid records (the join target of launch events).
    pub device_records: Vec<KernelRecord>,
}

impl ServeReport {
    /// A report over the serve event log: spans and trails folded from
    /// `events` and joined to `device_records` by grid handle, and every
    /// latency summary computed from the trails.
    pub(crate) fn new(
        metrics: ServeMetrics,
        events: &[ServeEvent],
        device_events: Vec<TraceEvent>,
        device_records: Vec<KernelRecord>,
    ) -> Self {
        let grid_times = device_records
            .iter()
            .map(|r| (r.grid, (r.start_cycle, r.retire_cycle)))
            .collect();
        let (spans, trails) = spans_and_trails(events, &grid_times);
        let per_outcome = [
            OutcomeTag::Done,
            OutcomeTag::Shed,
            OutcomeTag::DeadlineExceeded,
            OutcomeTag::Failed,
        ]
        .map(|outcome| {
            let e2e = trails
                .iter()
                .filter(|t| t.outcome == outcome)
                .map(|t| t.e2e);
            (outcome.tag(), LatencySummary::new(e2e.collect()))
        })
        .into();
        ServeReport {
            metrics,
            global: LatencyStats::of(trails.iter()),
            per_tenant: per_key(&trails, |t| t.tenant.0),
            per_shape: per_key(&trails, |t| t.shape),
            per_outcome,
            events: events.to_vec(),
            spans,
            trails,
            in_flight: metrics.admitted
                - (metrics.completed + metrics.failed + metrics.deadline_exceeded + metrics.shed),
            device_events,
            device_records,
        }
    }

    /// The `n` slowest terminated jobs by end-to-end cycles (ties broken
    /// by job id, so the order is deterministic).
    pub fn slowest(&self, n: usize) -> Vec<&JobTrail> {
        let mut sorted: Vec<&JobTrail> = self.trails.iter().collect();
        sorted.sort_by(|a, b| b.e2e.cmp(&a.e2e).then(a.job.0.cmp(&b.job.0)));
        sorted.truncate(n);
        sorted
    }

    /// Device events causally tied to a trail: events whose grid handle
    /// matches one of the trail's launches, or whose stream matches one of
    /// the trail's streams within the trail's lifetime window.
    pub fn causal_device_events(&self, trail: &JobTrail) -> Vec<&TraceEvent> {
        let grids: BTreeSet<u64> = trail.grids.iter().map(|g| g.grid).collect();
        let streams: BTreeSet<usize> = trail.grids.iter().map(|g| g.stream).collect();
        self.device_events
            .iter()
            .filter(|ev| {
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
                    streams.contains(&stream)
                        && ev.cycle >= trail.submit_cycle
                        && ev.cycle <= trail.complete_cycle
                }
            })
            .collect()
    }

    /// Serialize the whole report as one JSON document (hand-rolled via
    /// [`ggpu_sim::json`]; parse it back with [`ggpu_sim::json::Json`]).
    pub fn to_json(&self) -> String {
        JsonWriter::object(|w| {
            w.f64("clock_ghz", CLOCK_GHZ)
                .raw("metrics", &self.metrics.to_json())
                .u64("in_flight", self.in_flight);
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
            for (tag, s) in &self.per_outcome {
                w.raw(tag, &s.to_json());
            }
            w.end_obj();
            w.end_obj();
            w.arr_raw("events", self.events.iter().map(|ev| ev.to_json()));
            w.arr_raw("batches", self.spans.iter().map(|span| span.to_json()));
            w.arr_raw("requests", self.trails.iter().map(trail_json));
            w.arr_raw(
                "device_events",
                self.device_events.iter().map(TraceEvent::to_json),
            );
            w.arr_raw(
                "kernels",
                self.device_records.iter().map(KernelRecord::to_json),
            );
        })
    }

    /// Render the unified host+device Chrome trace. Load at
    /// <https://ui.perfetto.dev>.
    pub fn chrome_trace(&self) -> String {
        let mut tr = ChromeTrace::new(InstantScope::Thread);

        const HOST: usize = 0;
        const DEVICE: usize = 1;
        const TID_QUEUE: u64 = 0;
        const TID_WORKER0: u64 = 1;
        const TID_TENANT0: u64 = 100;

        tr.process_name(HOST, "ggpu-serve host");
        tr.process_name(DEVICE, "device 0");
        tr.thread_name(DEVICE, 0, "transfers (pcie)");
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
                ServeEventKind::Split {
                    batch, left, right, ..
                } => tr.instant(
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

        // --- device: one row per stream -----------------------------------
        let mut streams: BTreeSet<usize> = BTreeSet::new();
        for r in &self.device_records {
            streams.insert(r.stream);
            tr.slice(
                DEVICE,
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
        // Faults, watchdog fires, and PCIe transfers from the trace.
        for e in &self.device_events {
            match &e.kind {
                TraceEventKind::Memcpy { dir, bytes, cycles } => tr.slice(
                    DEVICE,
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
                        DEVICE,
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
                        DEVICE,
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
            tr.thread_name(DEVICE, 1 + *s as u64, &format!("stream {s}"));
        }

        tr.finish()
    }
}

/// One [`LatencyStats`] per distinct `key` among `trails`, in key order.
fn per_key<K: Ord + Copy>(
    trails: &[JobTrail],
    key: impl Fn(&JobTrail) -> K,
) -> BTreeMap<K, LatencyStats> {
    let keys: BTreeSet<K> = trails.iter().map(&key).collect();
    keys.into_iter()
        .map(|k| (k, LatencyStats::of(trails.iter().filter(|t| key(t) == k))))
        .collect()
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
