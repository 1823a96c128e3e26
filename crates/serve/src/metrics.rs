//! Service counters: one cheap, copyable struct, counted from the serve
//! events as they are recorded.

use ggpu_sim::json::JsonWriter;

use crate::telemetry::{OutcomeTag, RejectReason, ServeEventKind};

/// Monotonic counters and saturation gauges over a [`crate::Service`]'s
/// lifetime. Every counter an event stands for is counted from that event
/// (`ServeMetrics::count`), so counters and the event log cannot
/// disagree; `rounds`, the streams created at build and the in-flight
/// batch gauge have no event and are set by the service itself.
///
/// # Conservation invariants
///
/// Admission is total — every submission is counted exactly once:
///
/// ```text
/// submitted == admitted + rejected_overload + rejected_quota + rejected_shape
/// ```
///
/// and every admitted job reaches exactly one terminal outcome once the
/// service drains ([`crate::Service::backlog`] == 0 and nothing is
/// launched):
///
/// ```text
/// admitted == completed + failed + deadline_exceeded + shed
/// ```
///
/// While work is in flight the right-hand side lags `admitted` by exactly
/// the number of admitted-but-unfinished jobs. Both invariants are
/// enforced by `conservation` tests in `crates/serve/tests` and by the
/// telemetry layer, whose end-to-end latency count telescopes to the
/// terminal-outcome sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Jobs offered to [`crate::Service::submit`].
    pub submitted: u64,
    /// Jobs that passed admission.
    pub admitted: u64,
    /// Submissions refused with [`crate::AdmitError::Overloaded`].
    pub rejected_overload: u64,
    /// Submissions refused with [`crate::AdmitError::QuotaExceeded`].
    pub rejected_quota: u64,
    /// Submissions refused for shape ([`crate::AdmitError::TooLarge`] or
    /// [`crate::AdmitError::UnsupportedShape`]).
    pub rejected_shape: u64,
    /// Queued jobs shed to admit higher-priority arrivals.
    pub shed: u64,
    /// Jobs finished with [`crate::JobOutcome::Done`].
    pub completed: u64,
    /// Jobs finished with [`crate::JobOutcome::Failed`].
    pub failed: u64,
    /// Jobs finished with [`crate::JobOutcome::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Fused grids launched (including retries).
    pub batches_launched: u64,
    /// Batches re-queued after a recoverable failure.
    pub retries: u64,
    /// Batches split in half after exhausting retries.
    pub splits: u64,
    /// Faulted worker streams reset via [`ggpu_sim::Gpu::reset_stream`].
    pub stream_resets: u64,
    /// Fresh streams created to replace killed ones.
    pub streams_created: u64,
    /// Scheduling rounds executed.
    pub rounds: u64,
    /// Jobs currently waiting in the admission queue (gauge).
    pub queue_depth: u64,
    /// High-water mark of `queue_depth` (saturation is invisible from
    /// monotonic counters alone).
    pub queue_depth_hwm: u64,
    /// Batches currently launched or parked for retry (gauge).
    pub inflight_batches: u64,
    /// High-water mark of `inflight_batches`.
    pub inflight_batches_hwm: u64,
}

impl ServeMetrics {
    /// Count one recorded event: the counter it stands for, and the queue
    /// depth (with its high-water mark) where it carries one. A stream
    /// reset also creates the stream that replaces the reset one; a shed
    /// job is counted at its `shed`, not at its `complete`.
    pub(crate) fn count(&mut self, kind: &ServeEventKind) {
        use ServeEventKind as K;
        match *kind {
            K::Submit { .. } => self.submitted += 1,
            K::Reject { reason, .. } => match reason {
                RejectReason::Overload => self.rejected_overload += 1,
                RejectReason::Quota => self.rejected_quota += 1,
                RejectReason::Shape => self.rejected_shape += 1,
            },
            K::Admit { queue_depth, .. } => {
                self.admitted += 1;
                self.gauge_queue_depth(queue_depth);
            }
            K::Shed { queue_depth, .. } => {
                self.shed += 1;
                self.gauge_queue_depth(queue_depth);
            }
            K::BatchAssign { queue_depth, .. } => self.gauge_queue_depth(queue_depth),
            K::Launch { .. } => self.batches_launched += 1,
            K::Retry { .. } => self.retries += 1,
            K::Split { .. } => self.splits += 1,
            K::StreamReset { .. } => {
                self.stream_resets += 1;
                self.streams_created += 1;
            }
            K::Complete { outcome, .. } => match outcome {
                OutcomeTag::Done => self.completed += 1,
                OutcomeTag::Failed => self.failed += 1,
                OutcomeTag::DeadlineExceeded => self.deadline_exceeded += 1,
                OutcomeTag::Shed => {}
            },
        }
    }

    /// Record the current queue depth, tracking the high-water mark.
    pub(crate) fn gauge_queue_depth(&mut self, depth: u64) {
        self.queue_depth = depth;
        self.queue_depth_hwm = self.queue_depth_hwm.max(depth);
    }

    /// Record the current in-flight batch count, tracking the high-water
    /// mark.
    pub(crate) fn gauge_inflight_batches(&mut self, n: u64) {
        self.inflight_batches = n;
        self.inflight_batches_hwm = self.inflight_batches_hwm.max(n);
    }

    /// Visit every field as `(name, value)`, in declaration order — the
    /// one list the JSON export and `ggpu-stat`'s table are driven by.
    pub fn for_each_field(&self, mut f: impl FnMut(&'static str, u64)) {
        f("submitted", self.submitted);
        f("admitted", self.admitted);
        f("rejected_overload", self.rejected_overload);
        f("rejected_quota", self.rejected_quota);
        f("rejected_shape", self.rejected_shape);
        f("shed", self.shed);
        f("completed", self.completed);
        f("failed", self.failed);
        f("deadline_exceeded", self.deadline_exceeded);
        f("batches_launched", self.batches_launched);
        f("retries", self.retries);
        f("splits", self.splits);
        f("stream_resets", self.stream_resets);
        f("streams_created", self.streams_created);
        f("rounds", self.rounds);
        f("queue_depth", self.queue_depth);
        f("queue_depth_hwm", self.queue_depth_hwm);
        f("inflight_batches", self.inflight_batches);
        f("inflight_batches_hwm", self.inflight_batches_hwm);
    }

    /// Serialize as a standalone JSON object (one key per field).
    pub(crate) fn to_json(self) -> String {
        JsonWriter::object(|w| {
            self.for_each_field(w.u64_fields());
        })
    }
}
