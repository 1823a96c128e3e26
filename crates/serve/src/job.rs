//! Typed alignment jobs: what a client submits and what it gets back.

/// Opaque job handle, unique per [`crate::Service`] instance, assigned at
/// admission in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {}", self.0)
    }
}

/// Tenant (client) identifier; admission quotas are per tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tenant(pub u32);

/// Job priority. Higher values are more important: under overload a
/// saturated queue sheds its *lowest*-priority entry to admit a strictly
/// higher-priority arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Priority(pub u8);

/// The alignment the job asks for. Sequences are 2-bit base codes
/// (`0..4`), one byte per base, as everywhere else in the suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// Smith–Waterman local alignment score of `query` vs `target`
    /// (affine gaps, the suite's standard DNA scoring).
    Pairwise {
        /// Query sequence codes.
        query: Vec<u8>,
        /// Target sequence codes.
        target: Vec<u8>,
    },
    /// Exact FM-index mapping of `read` against the service's reference
    /// genome; returns the best `(match_count, position)` candidate.
    FmMap {
        /// Read codes, [`crate::FM_READ_LEN`] of them.
        read: Vec<u8>,
    },
    /// Pair-HMM forward likelihood of `read`/`quals` against `hap`.
    PairHmm {
        /// Read codes, [`crate::PHMM_READ_LEN`] of them.
        read: Vec<u8>,
        /// Phred quality per read base (same length as `read`).
        quals: Vec<u8>,
        /// Haplotype codes, [`crate::PHMM_HAP_LEN`] of them.
        hap: Vec<u8>,
    },
}

/// A submitted job: payload plus scheduling attributes.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Handle assigned at admission.
    pub id: JobId,
    /// Owning tenant (quota accounting).
    pub tenant: Tenant,
    /// Shed order under overload.
    pub priority: Priority,
    /// Cycle budget for any grid carrying this job, enforced on-device by
    /// the watchdog machinery; `None` sets none (the watchdog's own
    /// forward-progress limit still applies). A fused batch runs under the
    /// *minimum* budget of its members.
    pub deadline: Option<u64>,
    /// The work itself.
    pub kind: JobKind,
}

/// Successful result payload, per job kind.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// Local alignment score.
    Score(i64),
    /// Best FM mapping: exact-match count and text position (both zero
    /// when the read is unmappable).
    Mapping {
        /// Matching bases at the reported position.
        score: u32,
        /// Position in the reference text.
        pos: u32,
    },
    /// log10 of the Pair-HMM forward likelihood (`-inf` when the
    /// probability underflows to zero).
    LogLik(f64),
}

/// Terminal state of a job, reported exactly once.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The job ran to completion.
    Done(JobOutput),
    /// Shed under overload to admit a higher-priority arrival (graceful
    /// degradation — the client should resubmit later).
    Shed,
    /// Every grid carrying the job overran its cycle budget, down to a
    /// singleton batch.
    DeadlineExceeded,
    /// Retries and batch-splitting were exhausted without a clean run;
    /// carries the last device error, rendered.
    Failed(String),
}
