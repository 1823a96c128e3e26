//! Request-lifecycle telemetry: a typed host event stream, per-job
//! latency tracks, and per-batch device spans.
//!
//! Every event is stamped with the device cycle at emission
//! ([`ggpu_sim::Gpu::cycle`]) — the same clock the device's
//! [`ggpu_sim::TraceEvent`] stream uses — so host events and device
//! kernel events join on one timeline. Launch events additionally carry
//! the worker's [`ggpu_sim::StreamId`] and the device grid handle, which
//! is the foreign key into [`ggpu_sim::KernelRecord`]s and the
//! stream-annotated device trace.
//!
//! Everything here is driven by deterministic cycle counts and service
//! decisions, so the event stream, the latency histograms, and the
//! per-batch spans are bit-identical from run to run.

use std::collections::{BTreeMap, HashMap};

use ggpu_sim::json::JsonWriter;
use ggpu_sim::StreamId;

use crate::histogram::LatencyStats;
use crate::job::{JobId, JobOutcome, Priority, Tenant};
use crate::shape::ShapeKey;

/// Why a submission was refused (the telemetry mirror of
/// [`crate::AdmitError`], collapsed to the three counter classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Queue full and the arrival outranked nobody.
    Overload,
    /// Tenant over its in-flight quota.
    Quota,
    /// No configured kernel shape fits the job.
    Shape,
}

impl RejectReason {
    /// Short machine-readable tag.
    pub fn tag(&self) -> &'static str {
        match self {
            RejectReason::Overload => "overload",
            RejectReason::Quota => "quota",
            RejectReason::Shape => "shape",
        }
    }
}

/// Terminal outcome class (the telemetry mirror of [`JobOutcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OutcomeTag {
    /// Finished with a result.
    Done,
    /// Evicted for a higher-priority arrival.
    Shed,
    /// Cycle budget exceeded on device.
    DeadlineExceeded,
    /// Failed after exhausting recovery.
    Failed,
}

impl OutcomeTag {
    /// Classify a terminal [`JobOutcome`].
    pub fn of(outcome: &JobOutcome) -> Self {
        match outcome {
            JobOutcome::Done(_) => OutcomeTag::Done,
            JobOutcome::Shed => OutcomeTag::Shed,
            JobOutcome::DeadlineExceeded => OutcomeTag::DeadlineExceeded,
            JobOutcome::Failed(_) => OutcomeTag::Failed,
        }
    }

    /// Short machine-readable tag.
    pub fn tag(&self) -> &'static str {
        match self {
            OutcomeTag::Done => "done",
            OutcomeTag::Shed => "shed",
            OutcomeTag::DeadlineExceeded => "deadline_exceeded",
            OutcomeTag::Failed => "failed",
        }
    }
}

/// What happened in the serving layer (see DESIGN.md §Serving
/// observability for the schema).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeEventKind {
    /// A job was offered to [`crate::Service::submit`].
    Submit {
        /// Submitting tenant.
        tenant: Tenant,
        /// Requested priority.
        priority: Priority,
    },
    /// The job passed admission and entered the queue.
    Admit {
        /// Assigned job id.
        job: JobId,
        /// Submitting tenant.
        tenant: Tenant,
        /// Classified kernel shape.
        shape: ShapeKey,
        /// Requested priority.
        priority: Priority,
        /// Queue depth after the push.
        queue_depth: u64,
    },
    /// The submission was refused at the door.
    Reject {
        /// Submitting tenant.
        tenant: Tenant,
        /// Which admission gate refused it.
        reason: RejectReason,
    },
    /// A queued job was shed to admit a higher-priority arrival.
    Shed {
        /// The evicted job.
        job: JobId,
        /// Its tenant.
        tenant: Tenant,
        /// Queue depth after the eviction.
        queue_depth: u64,
    },
    /// A queued job joined a batch.
    BatchAssign {
        /// The job.
        job: JobId,
        /// The batch it joined.
        batch: u64,
        /// Queue depth after the job left the queue.
        queue_depth: u64,
    },
    /// A batch's fused grid was enqueued on a worker's stream.
    Launch {
        /// The batch.
        batch: u64,
        /// Worker index.
        worker: usize,
        /// The worker's device stream.
        stream: StreamId,
        /// Device grid handle (foreign key into [`ggpu_sim::KernelRecord`]).
        grid: u64,
        /// Jobs fused into the grid.
        jobs: u64,
        /// Launch attempt (1 for the first try).
        attempt: u32,
    },
    /// A failed batch was parked for a backoff retry.
    Retry {
        /// The batch.
        batch: u64,
        /// Attempts so far.
        attempt: u32,
        /// Earliest round it may relaunch.
        not_before_round: u64,
    },
    /// A failed batch split into two halves.
    Split {
        /// The exhausted batch.
        batch: u64,
        /// New left-half batch id.
        left: u64,
        /// New right-half batch id.
        right: u64,
    },
    /// A faulted worker stream was reset and replaced.
    StreamReset {
        /// Worker index.
        worker: usize,
        /// The poisoned stream that was reset.
        old_stream: StreamId,
        /// The fresh replacement stream.
        new_stream: StreamId,
    },
    /// A job reached its terminal outcome.
    Complete {
        /// The job.
        job: JobId,
        /// Its tenant.
        tenant: Tenant,
        /// Outcome class.
        outcome: OutcomeTag,
    },
}

impl ServeEventKind {
    /// Short machine-readable tag for this event kind.
    pub fn tag(&self) -> &'static str {
        match self {
            ServeEventKind::Submit { .. } => "submit",
            ServeEventKind::Admit { .. } => "admit",
            ServeEventKind::Reject { .. } => "reject",
            ServeEventKind::Shed { .. } => "shed",
            ServeEventKind::BatchAssign { .. } => "batch_assign",
            ServeEventKind::Launch { .. } => "launch",
            ServeEventKind::Retry { .. } => "retry",
            ServeEventKind::Split { .. } => "split",
            ServeEventKind::StreamReset { .. } => "stream_reset",
            ServeEventKind::Complete { .. } => "complete",
        }
    }
}

/// One timestamped serving-layer event.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeEvent {
    /// Device cycle at emission (same clock as the device trace).
    pub cycle: u64,
    /// Scheduling round at emission (0 before the first round).
    pub round: u64,
    /// What happened.
    pub kind: ServeEventKind,
}

impl ServeEvent {
    /// Serialize as a standalone JSON object.
    pub fn to_json(&self) -> String {
        JsonWriter::object(|w| {
            w.u64("cycle", self.cycle)
                .u64("round", self.round)
                .str("event", self.kind.tag());
            match &self.kind {
                ServeEventKind::Submit { tenant, priority } => {
                    w.u64("tenant", tenant.0 as u64)
                        .u64("priority", priority.0 as u64);
                }
                ServeEventKind::Admit {
                    job,
                    tenant,
                    shape,
                    priority,
                    queue_depth,
                } => {
                    w.u64("job", job.0)
                        .u64("tenant", tenant.0 as u64)
                        .str("shape", &shape.to_string())
                        .u64("priority", priority.0 as u64)
                        .u64("queue_depth", *queue_depth);
                }
                ServeEventKind::Reject { tenant, reason } => {
                    w.u64("tenant", tenant.0 as u64).str("reason", reason.tag());
                }
                ServeEventKind::Shed {
                    job,
                    tenant,
                    queue_depth,
                } => {
                    w.u64("job", job.0)
                        .u64("tenant", tenant.0 as u64)
                        .u64("queue_depth", *queue_depth);
                }
                ServeEventKind::BatchAssign {
                    job,
                    batch,
                    queue_depth,
                } => {
                    w.u64("job", job.0)
                        .u64("batch", *batch)
                        .u64("queue_depth", *queue_depth);
                }
                ServeEventKind::Launch {
                    batch,
                    worker,
                    stream,
                    grid,
                    jobs,
                    attempt,
                } => {
                    w.u64("batch", *batch)
                        .u64("worker", *worker as u64)
                        .u64("stream", stream.0 as u64)
                        .u64("grid", *grid)
                        .u64("jobs", *jobs)
                        .u64("attempt", *attempt as u64);
                }
                ServeEventKind::Retry {
                    batch,
                    attempt,
                    not_before_round,
                } => {
                    w.u64("batch", *batch)
                        .u64("attempt", *attempt as u64)
                        .u64("not_before_round", *not_before_round);
                }
                ServeEventKind::Split { batch, left, right } => {
                    w.u64("batch", *batch)
                        .u64("left", *left)
                        .u64("right", *right);
                }
                ServeEventKind::StreamReset {
                    worker,
                    old_stream,
                    new_stream,
                } => {
                    w.u64("worker", *worker as u64)
                        .u64("old_stream", old_stream.0 as u64)
                        .u64("new_stream", new_stream.0 as u64);
                }
                ServeEventKind::Complete {
                    job,
                    tenant,
                    outcome,
                } => {
                    w.u64("job", job.0)
                        .u64("tenant", tenant.0 as u64)
                        .str("outcome", outcome.tag());
                }
            }
        })
    }
}

/// One grid launched for a job, with its device join keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridRef {
    /// Device grid handle.
    pub grid: u64,
    /// Stream it launched on.
    pub stream: usize,
    /// Worker that owned the launch.
    pub worker: usize,
    /// Cycle the host enqueued it.
    pub launch_cycle: u64,
}

/// The completed lifecycle of one admitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTrail {
    /// The job.
    pub job: JobId,
    /// Its tenant.
    pub tenant: Tenant,
    /// Its kernel shape.
    pub shape: ShapeKey,
    /// Its priority.
    pub priority: Priority,
    /// Cycle it was admitted.
    pub submit_cycle: u64,
    /// Cycle it first joined a batch (None: terminated from the queue).
    pub batch_assign_cycle: Option<u64>,
    /// Cycle its batch first launched.
    pub first_launch_cycle: Option<u64>,
    /// Cycle it reached its terminal outcome.
    pub complete_cycle: u64,
    /// Outcome class.
    pub outcome: OutcomeTag,
    /// Every grid launched on its behalf (including failed attempts),
    /// oldest first; capped at [`MAX_TRAIL_GRIDS`].
    pub grids: Vec<GridRef>,
    /// Device execution cycles of the final successful grid, when it
    /// retired with a [`ggpu_sim::KernelRecord`].
    pub device_exec: Option<u64>,
    /// End-to-end cycles (complete - submit).
    pub e2e: u64,
}

/// Grids retained per job trail (retries on a poisoned batch are capped
/// by the service's attempt/split ladder, so this bound is generous).
const MAX_TRAIL_GRIDS: usize = 32;

/// One batch launch as a host-side span: launch to retire (or to the
/// settle cycle when the stream faulted and no record exists).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSpan {
    /// Batch id.
    pub batch: u64,
    /// Worker index.
    pub worker: usize,
    /// Stream it ran on.
    pub stream: usize,
    /// Device grid handle.
    pub grid: u64,
    /// Kernel shape.
    pub shape: ShapeKey,
    /// Jobs fused into the grid.
    pub jobs: u64,
    /// Launch attempt (1-based).
    pub attempt: u32,
    /// Cycle the host enqueued the grid.
    pub launch_cycle: u64,
    /// Cycle the grid's first CTA dispatched (from its record), when known.
    pub start_cycle: Option<u64>,
    /// Retire cycle (from its record) or the settle cycle if it faulted.
    pub end_cycle: u64,
    /// Whether the stream came back faulted for this launch.
    pub faulted: bool,
}

impl BatchSpan {
    /// Serialize as a standalone JSON object.
    pub fn to_json(&self) -> String {
        JsonWriter::object(|w| {
            w.u64("batch", self.batch)
                .u64("worker", self.worker as u64)
                .u64("stream", self.stream as u64)
                .u64("grid", self.grid)
                .str("shape", &self.shape.to_string())
                .u64("jobs", self.jobs)
                .u64("attempt", self.attempt as u64)
                .u64("launch_cycle", self.launch_cycle)
                .opt_u64("start_cycle", self.start_cycle)
                .u64("end_cycle", self.end_cycle)
                .bool("faulted", self.faulted);
        })
    }
}

/// An in-flight job's accumulating lifecycle state.
#[derive(Debug, Clone)]
struct JobTrack {
    tenant: Tenant,
    shape: ShapeKey,
    priority: Priority,
    submit_cycle: u64,
    batch_assign_cycle: Option<u64>,
    first_launch_cycle: Option<u64>,
    grids: Vec<GridRef>,
}

/// The serving layer's telemetry state: bounded event log, per-job
/// tracks/trails, per-batch spans, grid timing joins, and the latency
/// histogram forest.
#[derive(Debug, Default)]
pub(crate) struct ServeTelemetry {
    events: Vec<ServeEvent>,
    capacity: usize,
    dropped: u64,
    round: u64,
    tracks: HashMap<JobId, JobTrack>,
    trails: Vec<JobTrail>,
    spans: Vec<BatchSpan>,
    /// Open spans: index into `spans` still awaiting an end cycle.
    open_spans: Vec<usize>,
    /// grid handle -> (start_cycle, retire_cycle), fed from KernelRecords.
    grid_times: HashMap<u64, (u64, u64)>,
    pub(crate) global: LatencyStats,
    pub(crate) per_tenant: BTreeMap<u32, LatencyStats>,
    pub(crate) per_shape: BTreeMap<ShapeKey, LatencyStats>,
    /// End-to-end histograms keyed by [`OutcomeTag`] order:
    /// done, shed, deadline_exceeded, failed.
    pub(crate) per_outcome: [crate::histogram::Histogram; 4],
}

fn outcome_slot(tag: OutcomeTag) -> usize {
    match tag {
        OutcomeTag::Done => 0,
        OutcomeTag::Shed => 1,
        OutcomeTag::DeadlineExceeded => 2,
        OutcomeTag::Failed => 3,
    }
}

impl ServeTelemetry {
    pub(crate) fn new(capacity: usize) -> Self {
        ServeTelemetry {
            capacity,
            ..Default::default()
        }
    }

    fn push(&mut self, cycle: u64, kind: ServeEventKind) {
        if self.events.len() < self.capacity {
            self.events.push(ServeEvent {
                cycle,
                round: self.round,
                kind,
            });
        } else {
            self.dropped += 1;
        }
    }

    pub(crate) fn events(&self) -> &[ServeEvent] {
        &self.events
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn trails(&self) -> &[JobTrail] {
        &self.trails
    }

    pub(crate) fn spans(&self) -> &[BatchSpan] {
        &self.spans
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.tracks.len()
    }

    pub(crate) fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    /// Ingest newly retired kernel records for grid start/retire joins,
    /// and close any open batch span whose grid now has a record.
    pub(crate) fn ingest_records(&mut self, records: &[ggpu_sim::KernelRecord]) {
        for r in records {
            self.grid_times
                .insert(r.grid, (r.start_cycle, r.retire_cycle));
        }
        self.open_spans.retain(|&i| {
            let span = &mut self.spans[i];
            if let Some(&(start, retire)) = self.grid_times.get(&span.grid) {
                span.start_cycle = Some(start);
                span.end_cycle = retire;
                false
            } else {
                true
            }
        });
    }

    pub(crate) fn on_submit(&mut self, cycle: u64, tenant: Tenant, priority: Priority) {
        self.push(cycle, ServeEventKind::Submit { tenant, priority });
    }

    pub(crate) fn on_reject(&mut self, cycle: u64, tenant: Tenant, reason: RejectReason) {
        self.push(cycle, ServeEventKind::Reject { tenant, reason });
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_admit(
        &mut self,
        cycle: u64,
        job: JobId,
        tenant: Tenant,
        shape: ShapeKey,
        priority: Priority,
        queue_depth: u64,
    ) {
        self.tracks.insert(
            job,
            JobTrack {
                tenant,
                shape,
                priority,
                submit_cycle: cycle,
                batch_assign_cycle: None,
                first_launch_cycle: None,
                grids: Vec::new(),
            },
        );
        self.push(
            cycle,
            ServeEventKind::Admit {
                job,
                tenant,
                shape,
                priority,
                queue_depth,
            },
        );
    }

    pub(crate) fn on_shed(&mut self, cycle: u64, job: JobId, tenant: Tenant, queue_depth: u64) {
        self.push(
            cycle,
            ServeEventKind::Shed {
                job,
                tenant,
                queue_depth,
            },
        );
    }

    pub(crate) fn on_batch_assign(&mut self, cycle: u64, job: JobId, batch: u64, queue_depth: u64) {
        if let Some(t) = self.tracks.get_mut(&job) {
            if t.batch_assign_cycle.is_none() {
                t.batch_assign_cycle = Some(cycle);
            }
        }
        self.push(
            cycle,
            ServeEventKind::BatchAssign {
                job,
                batch,
                queue_depth,
            },
        );
    }

    /// Record a launch: the event, the open batch span, and per-member
    /// grid refs. `members` are the batch's job ids.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_launch(
        &mut self,
        cycle: u64,
        batch: u64,
        worker: usize,
        stream: StreamId,
        grid: u64,
        shape: ShapeKey,
        attempt: u32,
        members: &[JobId],
    ) -> usize {
        for &job in members {
            if let Some(t) = self.tracks.get_mut(&job) {
                if t.first_launch_cycle.is_none() {
                    t.first_launch_cycle = Some(cycle);
                }
                if t.grids.len() < MAX_TRAIL_GRIDS {
                    t.grids.push(GridRef {
                        grid,
                        stream: stream.0,
                        worker,
                        launch_cycle: cycle,
                    });
                }
            }
        }
        self.push(
            cycle,
            ServeEventKind::Launch {
                batch,
                worker,
                stream,
                grid,
                jobs: members.len() as u64,
                attempt,
            },
        );
        let idx = self.spans.len();
        self.spans.push(BatchSpan {
            batch,
            worker,
            stream: stream.0,
            grid,
            shape,
            jobs: members.len() as u64,
            attempt,
            launch_cycle: cycle,
            start_cycle: None,
            end_cycle: cycle,
            faulted: false,
        });
        self.open_spans.push(idx);
        idx
    }

    /// Mark a launched span as faulted, ending at the settle cycle.
    pub(crate) fn on_span_faulted(&mut self, span: usize, cycle: u64) {
        if let Some(s) = self.spans.get_mut(span) {
            s.faulted = true;
            s.end_cycle = cycle;
        }
        self.open_spans.retain(|&i| i != span);
    }

    pub(crate) fn on_retry(&mut self, cycle: u64, batch: u64, attempt: u32, not_before_round: u64) {
        self.push(
            cycle,
            ServeEventKind::Retry {
                batch,
                attempt,
                not_before_round,
            },
        );
    }

    pub(crate) fn on_split(&mut self, cycle: u64, batch: u64, left: u64, right: u64) {
        self.push(cycle, ServeEventKind::Split { batch, left, right });
    }

    pub(crate) fn on_stream_reset(
        &mut self,
        cycle: u64,
        worker: usize,
        old_stream: StreamId,
        new_stream: StreamId,
    ) {
        self.push(
            cycle,
            ServeEventKind::StreamReset {
                worker,
                old_stream,
                new_stream,
            },
        );
    }

    /// Close a job's track into a trail, record its stage latencies into
    /// the histogram forest, and emit the Complete event.
    pub(crate) fn on_complete(&mut self, cycle: u64, job: JobId, tenant: Tenant, tag: OutcomeTag) {
        self.push(
            cycle,
            ServeEventKind::Complete {
                job,
                tenant,
                outcome: tag,
            },
        );
        let Some(track) = self.tracks.remove(&job) else {
            return;
        };
        let e2e = cycle.saturating_sub(track.submit_cycle);
        let queue_wait = track
            .batch_assign_cycle
            .map(|c| c.saturating_sub(track.submit_cycle));
        let batch_formation = match (track.batch_assign_cycle, track.first_launch_cycle) {
            (Some(a), Some(l)) => Some(l.saturating_sub(a)),
            _ => None,
        };
        let device_exec = if tag == OutcomeTag::Done {
            track
                .grids
                .last()
                .and_then(|g| self.grid_times.get(&g.grid))
                .map(|&(start, retire)| retire.saturating_sub(start))
        } else {
            None
        };
        for stats in [
            &mut self.global,
            self.per_tenant.entry(track.tenant.0).or_default(),
            self.per_shape.entry(track.shape).or_default(),
        ] {
            if let Some(v) = queue_wait {
                stats.queue_wait.record(v);
            }
            if let Some(v) = batch_formation {
                stats.batch_formation.record(v);
            }
            if let Some(v) = device_exec {
                stats.device_exec.record(v);
            }
            stats.e2e.record(e2e);
        }
        self.per_outcome[outcome_slot(tag)].record(e2e);
        self.trails.push(JobTrail {
            job,
            tenant: track.tenant,
            shape: track.shape,
            priority: track.priority,
            submit_cycle: track.submit_cycle,
            batch_assign_cycle: track.batch_assign_cycle,
            first_launch_cycle: track.first_launch_cycle,
            complete_cycle: cycle,
            outcome: tag,
            grids: track.grids,
            device_exec,
            e2e,
        });
    }
}
