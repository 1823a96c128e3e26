//! Request-lifecycle telemetry: the typed host event log, and the
//! per-job trails and per-batch spans folded from it.
//!
//! Every event is stamped with the device cycle at emission
//! ([`ggpu_sim::Gpu::cycle`]) — the same clock the device's
//! [`ggpu_sim::TraceEvent`] stream uses — so host events and device
//! kernel events join on one timeline. Launch events additionally carry
//! the worker's [`ggpu_sim::StreamId`] and the device grid handle, which
//! is the foreign key into [`ggpu_sim::KernelRecord`]s and the
//! stream-annotated device trace.
//!
//! The event log is the service's only telemetry state: its counters are
//! counted from the events as they are recorded, and trails and spans are
//! folded from the log when a report is taken ([`spans_and_trails`]),
//! together with whatever needs a device time (a span's start and
//! retire, a job's device-execution stage).
//!
//! Everything here is driven by deterministic cycle counts and service
//! decisions, so the event stream, the latency summaries, and the
//! per-batch spans are bit-identical from run to run.

use std::collections::HashMap;

use ggpu_sim::json::JsonWriter;
use ggpu_sim::StreamId;

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
    pub(crate) fn tag(&self) -> &'static str {
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
    pub(crate) fn of(outcome: &JobOutcome) -> Self {
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
        /// The jobs in the left half, in batch order.
        left_jobs: Vec<JobId>,
        /// The jobs in the right half, in batch order.
        right_jobs: Vec<JobId>,
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
    pub(crate) fn to_json(&self) -> String {
        JsonWriter::object(|w| {
            w.u64("cycle", self.cycle).u64("round", self.round);
            match &self.kind {
                ServeEventKind::Submit { tenant, priority } => {
                    w.str("event", "submit")
                        .u64("tenant", tenant.0 as u64)
                        .u64("priority", priority.0 as u64);
                }
                ServeEventKind::Admit {
                    job,
                    tenant,
                    shape,
                    priority,
                    queue_depth,
                } => {
                    w.str("event", "admit")
                        .u64("job", job.0)
                        .u64("tenant", tenant.0 as u64)
                        .str("shape", &shape.to_string())
                        .u64("priority", priority.0 as u64)
                        .u64("queue_depth", *queue_depth);
                }
                ServeEventKind::Reject { tenant, reason } => {
                    w.str("event", "reject")
                        .u64("tenant", tenant.0 as u64)
                        .str("reason", reason.tag());
                }
                ServeEventKind::Shed {
                    job,
                    tenant,
                    queue_depth,
                } => {
                    w.str("event", "shed")
                        .u64("job", job.0)
                        .u64("tenant", tenant.0 as u64)
                        .u64("queue_depth", *queue_depth);
                }
                ServeEventKind::BatchAssign {
                    job,
                    batch,
                    queue_depth,
                } => {
                    w.str("event", "batch_assign")
                        .u64("job", job.0)
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
                    w.str("event", "launch")
                        .u64("batch", *batch)
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
                    w.str("event", "retry")
                        .u64("batch", *batch)
                        .u64("attempt", *attempt as u64)
                        .u64("not_before_round", *not_before_round);
                }
                ServeEventKind::Split {
                    batch,
                    left,
                    right,
                    left_jobs,
                    right_jobs,
                } => {
                    w.str("event", "split")
                        .u64("batch", *batch)
                        .u64("left", *left)
                        .u64("right", *right);
                    for (key, jobs) in [("left_jobs", left_jobs), ("right_jobs", right_jobs)] {
                        w.arr_raw(key, jobs.iter().map(|j| j.0.to_string()));
                    }
                }
                ServeEventKind::StreamReset {
                    worker,
                    old_stream,
                    new_stream,
                } => {
                    w.str("event", "stream_reset")
                        .u64("worker", *worker as u64)
                        .u64("old_stream", old_stream.0 as u64)
                        .u64("new_stream", new_stream.0 as u64);
                }
                ServeEventKind::Complete {
                    job,
                    tenant,
                    outcome,
                } => {
                    w.str("event", "complete")
                        .u64("job", job.0)
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
    /// oldest first; capped at `MAX_TRAIL_GRIDS`.
    pub grids: Vec<GridRef>,
    /// Device execution cycles (start to retire) of a `Done` job's last
    /// grid, when it retired with a [`ggpu_sim::KernelRecord`].
    pub device_exec: Option<u64>,
    /// End-to-end cycles (complete - submit).
    pub e2e: u64,
}

/// Grids retained per job trail (retries on a poisoned batch are capped
/// by the service's attempt/split ladder, so this bound is generous).
const MAX_TRAIL_GRIDS: usize = 32;

/// One batch launch as a host-side span: launch to retire, or to the
/// stream reset when the stream faulted.
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
    /// The reset cycle if it faulted; otherwise the retire cycle from its
    /// record, or the launch cycle when it has none.
    pub end_cycle: u64,
    /// Whether the stream came back faulted for this launch.
    pub faulted: bool,
}

impl BatchSpan {
    /// Serialize as a standalone JSON object.
    pub(crate) fn to_json(&self) -> String {
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

/// The batch spans and job trails, folded in one pass over the serve
/// event log and joined to the device by grid handle (`grid_times`: grid
/// → first-CTA start, retire cycle).
///
/// A job's track opens at its `admit` and takes its first `batch_assign`
/// cycle. A batch's members are its `batch_assign`s, or the half a
/// `split` names. A `launch` gives each member its first-launch cycle and
/// a [`GridRef`], and opens a span; a `stream_reset` marks the last span
/// launched on its old stream as faulted, ending at the reset. A
/// `complete` closes the job's track into a trail, so trails are in
/// completion order. The join gives each span its grid's start and,
/// unless it faulted, its retire, and each `Done` trail the device time
/// of its last grid.
pub(crate) fn spans_and_trails(
    events: &[ServeEvent],
    grid_times: &HashMap<u64, (u64, u64)>,
) -> (Vec<BatchSpan>, Vec<JobTrail>) {
    // An open track is a trail whose completion fields are not yet set.
    let mut open: HashMap<JobId, JobTrail> = HashMap::new();
    let mut members: HashMap<u64, Vec<JobId>> = HashMap::new();
    let mut last_span: HashMap<StreamId, usize> = HashMap::new();
    let (mut spans, mut trails) = (Vec::new(), Vec::new());
    for &ServeEvent {
        cycle, ref kind, ..
    } in events
    {
        match kind {
            ServeEventKind::Admit {
                job,
                tenant,
                shape,
                priority,
                ..
            } => {
                let track = JobTrail {
                    job: *job,
                    tenant: *tenant,
                    shape: *shape,
                    priority: *priority,
                    submit_cycle: cycle,
                    batch_assign_cycle: None,
                    first_launch_cycle: None,
                    complete_cycle: cycle,
                    outcome: OutcomeTag::Done,
                    grids: Vec::new(),
                    device_exec: None,
                    e2e: 0,
                };
                open.insert(*job, track);
            }
            ServeEventKind::BatchAssign { job, batch, .. } => {
                members.entry(*batch).or_default().push(*job);
                let t = open.get_mut(job).expect("an assigned job is in flight");
                t.batch_assign_cycle.get_or_insert(cycle);
            }
            ServeEventKind::Split {
                left,
                right,
                left_jobs,
                right_jobs,
                ..
            } => {
                members.insert(*left, left_jobs.clone());
                members.insert(*right, right_jobs.clone());
            }
            ServeEventKind::Launch {
                batch,
                worker,
                stream,
                grid,
                jobs,
                attempt,
            } => {
                for job in &members[batch] {
                    let t = open.get_mut(job).expect("a launched job is in flight");
                    t.first_launch_cycle.get_or_insert(cycle);
                    if t.grids.len() < MAX_TRAIL_GRIDS {
                        t.grids.push(GridRef {
                            grid: *grid,
                            stream: stream.0,
                            worker: *worker,
                            launch_cycle: cycle,
                        });
                    }
                }
                last_span.insert(*stream, spans.len());
                spans.push(BatchSpan {
                    batch: *batch,
                    worker: *worker,
                    stream: stream.0,
                    grid: *grid,
                    shape: open[&members[batch][0]].shape,
                    jobs: *jobs,
                    attempt: *attempt,
                    launch_cycle: cycle,
                    start_cycle: None,
                    end_cycle: cycle,
                    faulted: false,
                });
            }
            ServeEventKind::StreamReset { old_stream, .. } => {
                if let Some(&i) = last_span.get(old_stream) {
                    spans[i].faulted = true;
                    spans[i].end_cycle = cycle;
                }
            }
            ServeEventKind::Complete { job, outcome, .. } => {
                if let Some(mut t) = open.remove(job) {
                    t.complete_cycle = cycle;
                    t.outcome = *outcome;
                    t.e2e = cycle.saturating_sub(t.submit_cycle);
                    trails.push(t);
                }
            }
            _ => {}
        }
    }
    for span in &mut spans {
        if let Some(&(start, retire)) = grid_times.get(&span.grid) {
            span.start_cycle = Some(start);
            if !span.faulted {
                span.end_cycle = retire;
            }
        }
    }
    for t in trails.iter_mut().filter(|t| t.outcome == OutcomeTag::Done) {
        t.device_exec = t
            .grids
            .last()
            .and_then(|g| grid_times.get(&g.grid))
            .map(|&(start, retire)| retire.saturating_sub(start));
    }
    (spans, trails)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three jobs, each its own batch on its own stream: one completes on
    /// a grid with a record, one fails on a grid whose stream was reset at
    /// 700, one completes on a grid whose record has not been taken.
    #[test]
    fn spans_and_trails_join_device_times_at_report_time() {
        let mut kinds = Vec::new();
        for job in 0..3 {
            let (id, stream) = (JobId(job), StreamId(job as usize + 1));
            kinds.push((
                0,
                ServeEventKind::Admit {
                    job: id,
                    tenant: Tenant(0),
                    shape: ShapeKey::Fm,
                    priority: Priority(0),
                    queue_depth: 1,
                },
            ));
            kinds.push((
                0,
                ServeEventKind::BatchAssign {
                    job: id,
                    batch: job,
                    queue_depth: 0,
                },
            ));
            kinds.push((
                10,
                ServeEventKind::Launch {
                    batch: job,
                    worker: job as usize,
                    stream,
                    grid: 100 + job,
                    jobs: 1,
                    attempt: 1,
                },
            ));
        }
        kinds.push((
            700,
            ServeEventKind::StreamReset {
                worker: 1,
                old_stream: StreamId(2),
                new_stream: StreamId(4),
            },
        ));
        for (job, outcome) in [OutcomeTag::Done, OutcomeTag::Failed, OutcomeTag::Done]
            .into_iter()
            .enumerate()
        {
            let job = JobId(job as u64);
            let tenant = Tenant(0);
            kinds.push((
                800,
                ServeEventKind::Complete {
                    job,
                    tenant,
                    outcome,
                },
            ));
        }
        let events: Vec<_> = kinds
            .into_iter()
            .map(|(cycle, kind)| ServeEvent {
                cycle,
                round: 1,
                kind,
            })
            .collect();
        // The faulted grid has a record too: the reset cycle still ends
        // its span, and a failed job has no device stage.
        let times = HashMap::from([(100, (20, 400)), (101, (30, 500))]);
        let (spans, trails) = spans_and_trails(&events, &times);
        let ends: Vec<_> = spans.iter().map(|s| (s.start_cycle, s.end_cycle)).collect();
        assert_eq!(ends, [(Some(20), 400), (Some(30), 700), (None, 10)]);
        let exec: Vec<_> = trails.iter().map(|t| t.device_exec).collect();
        assert_eq!(exec, [Some(380), None, None]);
    }
}
