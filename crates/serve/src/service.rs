//! The service proper: admission, batching, stream scheduling, recovery.

use std::collections::{BTreeMap, HashMap};

use ggpu_isa::{KernelId, Program};
use ggpu_kernels::dp::{build_dp_kernel, scoring_const_data, DpKernelCfg};
use ggpu_kernels::host::u64_words;
use ggpu_kernels::nvb::{build_fm_search_kernel, unpack_hit, FmDevice, FmTables};
use ggpu_kernels::pairhmm::{
    build_pairhmm_kernel, log_likelihood, phred_const_data, PairHmmKernelCfg,
};
use ggpu_sim::{DevicePtr, Gpu, KernelRecord, LaunchOptions, SimError, StreamId};

use crate::batch::Batch;
use crate::error::{AdmitError, ServiceDead};
use crate::job::{JobId, JobKind, JobOutcome, JobOutput, JobSpec, Priority, Tenant};
use crate::metrics::ServeMetrics;
use crate::queue::{AdmissionQueue, QueuedJob};
use crate::report::ServeReport;
use crate::served;
use crate::shape::{shape_of, ShapeKey};
use crate::telemetry::{OutcomeTag, RejectReason, ServeEvent, ServeEventKind};
use crate::{
    ServeConfig, FM_READ_LEN, MAX_BATCH, PAIRWISE_BUCKETS, PHMM_HAP_LEN, PHMM_READ_LEN,
    TENANT_QUOTA, WORKERS,
};

/// Launch attempts per batch before it splits (deadline overruns split
/// immediately — rerunning identical work in a deterministic simulator
/// would overrun identically).
const MAX_ATTEMPTS: u32 = 3;
/// Backoff after the first failure, in scheduling rounds.
const BACKOFF_BASE: u64 = 1;
/// Backoff ceiling, in rounds.
const BACKOFF_CAP: u64 = 8;

/// One worker: a stream on the device and private input/output slabs.
/// Slabs are allocated eagerly at build time and recycled across every
/// batch and shape, so the request path never allocates device memory —
/// overload surfaces as a typed admission error, not as OOM mid-flight.
#[derive(Clone, Copy)]
struct Worker {
    stream: StreamId,
    /// Input slabs, in the order the shape's pipeline lays them out.
    slabs: [DevicePtr; 3],
    out: DevicePtr,
}

/// The alignment service. See the crate docs for the architecture.
pub struct Service {
    cfg: ServeConfig,
    gpu: Gpu,
    /// One compiled pairwise kernel per length bucket (`max_len`).
    dp: Vec<(DpKernelCfg, KernelId)>,
    /// The FM kernel and the device's reference tables (uploaded once at
    /// build, shared read-only by every stream); `None` when FM serving is
    /// disabled.
    fm: Option<(KernelId, FmDevice)>,
    /// The Pair-HMM kernel.
    ph: (PairHmmKernelCfg, KernelId),
    workers: Vec<Worker>,
    queue: AdmissionQueue,
    parked: Vec<Batch>,
    inflight: HashMap<Tenant, usize>,
    outcomes: BTreeMap<JobId, JobOutcome>,
    /// Counted from `events`; `metrics.rounds` is the current round and
    /// `metrics.admitted` the next job id.
    metrics: ServeMetrics,
    /// Every serving decision, once, in order: the service's only
    /// telemetry state (see [`Service::record`]).
    events: Vec<ServeEvent>,
    next_batch: u64,
}

impl Service {
    /// Build the service: compile every configured kernel shape, upload
    /// the FM reference, create one stream and one slab set per worker.
    /// Every device byte the request path will ever touch is allocated
    /// here. A device configuration that fails `GpuConfig::validate` (with
    /// the service's own knobs forced) is returned as
    /// [`SimError::InvalidConfig`].
    pub fn new(cfg: ServeConfig) -> Result<Self, SimError> {
        let mut gcfg = cfg.gpu.clone();
        // The service owns the isolation contract: per-stream fault
        // scoping and canonical kernel boundaries are not optional here.
        gcfg.stream_isolation = true;
        gcfg.sample_interval_cycles = 0;
        // The unified host+device timeline needs the stream-annotated
        // device event trace, and the report joins spans and trails
        // against the per-grid records the trace switch keeps; the event
        // log is bounded, so this is a memory cap, not a correctness knob.
        gcfg.trace = true;
        let smem = gcfg.sm.smem_bytes;

        let mut program = Program::new();
        let dp: Vec<(DpKernelCfg, KernelId)> = PAIRWISE_BUCKETS
            .into_iter()
            .map(|bucket| {
                let kcfg = served::sw_cfg(bucket, smem);
                let name = format!("serve-sw-{bucket}");
                (kcfg, program.add(build_dp_kernel(&name, &kcfg)))
            })
            .collect();
        let fm_kernel =
            (!cfg.fm_genome.is_empty()).then(|| program.add(build_fm_search_kernel("serve-fm")));
        let ph_cfg = served::pairhmm_cfg(smem);
        let ph = (
            ph_cfg,
            program.add(build_pairhmm_kernel("serve-pairhmm", &ph_cfg)),
        );

        let mut gpu = Gpu::try_new(program, gcfg)?;
        for (kcfg, kernel) in &dp {
            gpu.bind_constants(*kernel, scoring_const_data(kcfg));
        }
        gpu.bind_constants(ph.1, phred_const_data());
        let fm = match fm_kernel {
            Some(kernel) => {
                let tables = FmTables::build(&cfg.fm_genome);
                let resident = tables.upload(&mut gpu)?;
                gpu.bind_constants(kernel, tables.const_data());
                Some((kernel, resident))
            }
            None => None,
        };

        // Slab sizing: the maximum any shape needs for a full batch.
        let nb = MAX_BATCH as u64;
        let lmax = PAIRWISE_BUCKETS[PAIRWISE_BUCKETS.len() - 1] as u64;
        let a_bytes = nb * lmax.max(FM_READ_LEN as u64).max(PHMM_READ_LEN as u64);
        let b_bytes = nb * lmax.max(PHMM_READ_LEN as u64);
        let c_bytes = nb * PHMM_HAP_LEN.max(4) as u64;
        let mut workers = Vec::new();
        let mut metrics = ServeMetrics::default();
        for _ in 0..WORKERS {
            workers.push(Worker {
                stream: gpu.create_stream(),
                slabs: [
                    gpu.try_malloc(a_bytes)?,
                    gpu.try_malloc(b_bytes)?,
                    gpu.try_malloc(c_bytes)?,
                ],
                out: gpu.try_malloc(nb * 8)?,
            });
            metrics.streams_created += 1;
        }

        Ok(Service {
            cfg,
            gpu,
            dp,
            fm,
            ph,
            workers,
            queue: AdmissionQueue::default(),
            parked: Vec::new(),
            inflight: HashMap::new(),
            outcomes: BTreeMap::new(),
            metrics,
            events: Vec::new(),
            next_batch: 0,
        })
    }

    /// The host-side clock: the device cycle counter. Deterministic and
    /// monotone, so telemetry timestamps order consistently.
    fn now(&self) -> u64 {
        self.gpu.cycle()
    }

    /// Record one serving decision: count it, and append it to the log
    /// stamped with the current cycle and round.
    fn record(&mut self, kind: ServeEventKind) {
        self.metrics.count(&kind);
        self.events.push(ServeEvent {
            cycle: self.now(),
            round: self.metrics.rounds,
            kind,
        });
    }

    /// Submit one job. Admission is synchronous and typed: the job is
    /// either queued (returning its [`JobId`]) or refused with an
    /// [`AdmitError`] that tells the client exactly why and what to do.
    pub fn submit(
        &mut self,
        tenant: Tenant,
        priority: Priority,
        deadline: Option<u64>,
        kind: JobKind,
    ) -> Result<JobId, AdmitError> {
        self.record(ServeEventKind::Submit { tenant, priority });
        let reject = |reason| ServeEventKind::Reject { tenant, reason };
        let shape = match shape_of(&kind, &self.cfg) {
            Ok(s) => s,
            Err(e) => {
                self.record(reject(RejectReason::Shape));
                return Err(e);
            }
        };
        let in_flight = self.inflight.get(&tenant).copied().unwrap_or(0);
        if in_flight >= TENANT_QUOTA {
            self.record(reject(RejectReason::Quota));
            return Err(AdmitError::QuotaExceeded {
                tenant,
                in_flight,
                quota: TENANT_QUOTA,
            });
        }
        if self.queue.len() >= self.cfg.queue_capacity {
            match self.queue.shed_for(priority) {
                Some(victim) => {
                    self.record(ServeEventKind::Shed {
                        job: victim.spec.id,
                        tenant: victim.spec.tenant,
                        queue_depth: self.queue.len() as u64,
                    });
                    self.finish(victim.spec.id, victim.spec.tenant, JobOutcome::Shed);
                }
                None => {
                    self.record(reject(RejectReason::Overload));
                    let per_round = (WORKERS * MAX_BATCH) as u64;
                    return Err(AdmitError::Overloaded {
                        retry_after_rounds: (self.queue.len() as u64 / per_round).max(1),
                    });
                }
            }
        }
        let id = JobId(self.metrics.admitted);
        *self.inflight.entry(tenant).or_insert(0) += 1;
        self.queue.push(QueuedJob {
            spec: JobSpec {
                id,
                tenant,
                priority,
                deadline,
                kind,
            },
            shape,
        });
        self.record(ServeEventKind::Admit {
            job: id,
            tenant,
            shape,
            priority,
            queue_depth: self.queue.len() as u64,
        });
        Ok(id)
    }

    /// Run one scheduling round: un-park batches whose backoff expired,
    /// fill the remaining workers from the admission queue, launch every
    /// batch on its worker's stream, synchronize once, then settle each
    /// stream — faulted streams are reset (and replaced with fresh ones)
    /// and their batches re-queued, healthy streams' results are decoded.
    pub fn run_round(&mut self) -> Result<(), ServiceDead> {
        self.metrics.rounds += 1;
        let mut work: Vec<Batch> = Vec::new();
        let mut still_parked = Vec::new();
        for b in std::mem::take(&mut self.parked) {
            if b.not_before <= self.metrics.rounds && work.len() < self.workers.len() {
                work.push(b);
            } else {
                still_parked.push(b);
            }
        }
        self.parked = still_parked;
        while work.len() < self.workers.len() {
            let jobs = self.queue.take_batch(MAX_BATCH);
            if jobs.is_empty() {
                break;
            }
            let batch = self.next_batch;
            self.next_batch += 1;
            let queue_depth = self.queue.len() as u64;
            for job in &jobs {
                self.record(ServeEventKind::BatchAssign {
                    job: job.spec.id,
                    batch,
                    queue_depth,
                });
            }
            work.push(Batch::new(batch, jobs));
        }
        self.metrics
            .gauge_inflight_batches((work.len() + self.parked.len()) as u64);
        if work.is_empty() {
            return Ok(());
        }

        let mut launched: Vec<(usize, Batch)> = Vec::new();
        let mut failed: Vec<(Batch, SimError)> = Vec::new();
        for (w, batch) in work.into_iter().enumerate() {
            match self.upload_and_launch(w, &batch) {
                Ok(grid) => {
                    self.record(ServeEventKind::Launch {
                        batch: batch.id,
                        worker: w,
                        stream: self.workers[w].stream,
                        grid,
                        jobs: batch.jobs.len() as u64,
                        attempt: batch.attempts + 1,
                    });
                    launched.push((w, batch));
                }
                // Host-side failure (e.g. a dropped PCIe transfer):
                // nothing reached the device for this batch.
                Err(e) => failed.push((batch, e)),
            }
        }
        if !launched.is_empty() {
            // Streams >= 1 never poison the device: a worker fault leaves
            // the result Ok and is read back per stream below.
            self.gpu.try_synchronize().map_err(|e| ServiceDead {
                error: e.to_string(),
            })?;
        }
        for (w, batch) in launched {
            let stream = self.workers[w].stream;
            if let Some(err) = self.gpu.stream_fault(stream).cloned() {
                // Recover the stream (proves the device survives), then
                // retire it — retries go out on a fresh stream. The reset
                // also ends the batch's span, as faulted.
                let _ = self.gpu.reset_stream(stream);
                self.workers[w].stream = self.gpu.create_stream();
                self.record(ServeEventKind::StreamReset {
                    worker: w,
                    old_stream: stream,
                    new_stream: self.workers[w].stream,
                });
                failed.push((batch, err));
            } else {
                match self.readback(w, &batch) {
                    Ok(outputs) => {
                        for (job, out) in batch.jobs.into_iter().zip(outputs) {
                            self.finish(job.spec.id, job.spec.tenant, JobOutcome::Done(out));
                        }
                    }
                    Err(e) => failed.push((batch, e)),
                }
            }
        }
        for (batch, err) in failed {
            self.batch_failed(batch, err);
        }
        self.metrics
            .gauge_inflight_batches(self.parked.len() as u64);
        Ok(())
    }

    /// Drive rounds until no queued or parked work remains (or the round
    /// cap trips, in which case leftovers fail loudly rather than hang).
    pub fn run_until_idle(&mut self, max_rounds: u64) -> Result<(), ServiceDead> {
        let mut rounds = 0u64;
        while !self.queue.is_empty() || !self.parked.is_empty() {
            rounds += 1;
            if rounds > max_rounds {
                for batch in std::mem::take(&mut self.parked) {
                    for job in batch.jobs {
                        self.finish(
                            job.spec.id,
                            job.spec.tenant,
                            JobOutcome::Failed("round cap reached with work pending".into()),
                        );
                    }
                }
                while !self.queue.is_empty() {
                    for job in self.queue.take_batch(usize::MAX) {
                        self.finish(
                            job.spec.id,
                            job.spec.tenant,
                            JobOutcome::Failed("round cap reached with work pending".into()),
                        );
                    }
                }
                // The one queue change no `queue_depth` event records.
                self.metrics.gauge_queue_depth(0);
                break;
            }
            self.run_round()?;
        }
        Ok(())
    }

    /// Drain all recorded outcomes, ordered by [`JobId`].
    pub fn take_outcomes(&mut self) -> Vec<(JobId, JobOutcome)> {
        std::mem::take(&mut self.outcomes).into_iter().collect()
    }

    /// The outcome of `id`, if it has terminated.
    pub fn outcome(&self, id: JobId) -> Option<&JobOutcome> {
        self.outcomes.get(&id)
    }

    /// Current counters.
    pub fn metrics(&self) -> ServeMetrics {
        self.metrics
    }

    /// Jobs admitted but not yet terminated (queued, parked, or running).
    pub fn backlog(&self) -> usize {
        self.queue.len() + self.parked.iter().map(|b| b.jobs.len()).sum::<usize>()
    }

    /// Device statistics (for soak assertions and dashboards).
    pub fn stats(&self) -> ggpu_sim::RunStats {
        self.gpu.stats()
    }

    /// Device-memory allocation count. Flat across rounds and shape
    /// changes once the service is built: slabs and local-memory arenas
    /// are recycled, never reallocated.
    pub fn device_alloc_count(&self) -> u64 {
        self.gpu.memory().alloc_count()
    }

    /// The device's per-grid records, stream-stamped.
    pub fn kernel_records(&self) -> &[KernelRecord] {
        self.gpu.kernel_records()
    }

    /// Snapshot everything the serving layer observed — counters, the
    /// latency summaries, the typed host event stream, batch
    /// spans, request trails, and the device's stream-annotated trace —
    /// as one exportable [`ServeReport`]. Spans and trails are folded from
    /// the event log here and joined to the kernel records by grid handle.
    /// Taking a report drains nothing; it can be called repeatedly.
    pub fn report(&self) -> ServeReport {
        ServeReport::new(
            self.metrics,
            &self.events,
            self.gpu.trace_events().to_vec(),
            self.kernel_records().to_vec(),
        )
    }

    /// Record a terminal outcome exactly once and release quota.
    fn finish(&mut self, id: JobId, tenant: Tenant, outcome: JobOutcome) {
        if let Some(n) = self.inflight.get_mut(&tenant) {
            *n = n.saturating_sub(1);
        }
        self.record(ServeEventKind::Complete {
            job: id,
            tenant,
            outcome: OutcomeTag::of(&outcome),
        });
        let prev = self.outcomes.insert(id, outcome);
        debug_assert!(prev.is_none(), "outcome recorded twice for {id}");
    }

    /// Capped exponential backoff, in rounds.
    fn backoff(attempts: u32) -> u64 {
        let shift = attempts.saturating_sub(1).min(32);
        BACKOFF_CAP.min(BACKOFF_BASE.saturating_mul(1u64 << shift))
    }

    /// Failure policy. Deadline overruns skip the retry ladder (the
    /// simulator is deterministic — the same batch would overrun again)
    /// and go straight to splitting; other errors retry with capped
    /// exponential backoff. When retries are spent the batch splits in
    /// half (partial results: the healthy half completes; a poisoned
    /// singleton converges to a terminal outcome). Splitting is skipped
    /// while the queue is saturated — amplifying load under overload
    /// would trade latency for collapse.
    fn batch_failed(&mut self, mut batch: Batch, err: SimError) {
        let deadline = matches!(err, SimError::DeadlineExceeded { .. });
        batch.attempts += 1;
        if !deadline && batch.attempts < MAX_ATTEMPTS {
            batch.not_before = self.metrics.rounds + Self::backoff(batch.attempts);
            self.record(ServeEventKind::Retry {
                batch: batch.id,
                attempt: batch.attempts,
                not_before_round: batch.not_before,
            });
            self.parked.push(batch);
            return;
        }
        if batch.jobs.len() > 1 && self.queue.len() < self.cfg.queue_capacity {
            let right = batch.jobs.split_off(batch.jobs.len() / 2);
            let (left_id, right_id) = (self.next_batch, self.next_batch + 1);
            self.next_batch += 2;
            let ids = |jobs: &[QueuedJob]| jobs.iter().map(|j| j.spec.id).collect();
            self.record(ServeEventKind::Split {
                batch: batch.id,
                left: left_id,
                right: right_id,
                left_jobs: ids(&batch.jobs),
                right_jobs: ids(&right),
            });
            for (id, half) in [(left_id, batch.jobs), (right_id, right)] {
                let mut b = Batch::new(id, half);
                b.not_before = self.metrics.rounds + 1;
                self.parked.push(b);
            }
            return;
        }
        for job in batch.jobs {
            let outcome = if deadline {
                JobOutcome::DeadlineExceeded
            } else {
                JobOutcome::Failed(err.to_string())
            };
            self.finish(job.spec.id, job.spec.tenant, outcome);
        }
    }

    /// Upload a batch into worker `w`'s slabs and launch its fused grid
    /// on the worker's stream, returning the device grid handle (the
    /// telemetry join key into kernel records and the device trace). Any
    /// error leaves the device clean — the grid was not enqueued.
    fn upload_and_launch(&mut self, w: usize, batch: &Batch) -> Result<u64, SimError> {
        let n = batch.jobs.len() as u64;
        let Worker { stream, slabs, out } = self.workers[w];
        let opts = LaunchOptions {
            stream,
            deadline: batch.cycle_budget(),
        };
        let slab_addrs = slabs.map(|p| p.0);
        let gpu = &mut self.gpu;
        let grid = match batch.shape {
            ShapeKey::Pairwise { bucket } => {
                let (kcfg, kernel) = self
                    .dp
                    .iter()
                    .find(|(c, _)| c.max_len == bucket)
                    .expect("bucket compiled at build");
                let pairs = batch.jobs.iter().map(|job| match &job.spec.kind {
                    JobKind::Pairwise { query, target } => (&query[..], &target[..]),
                    _ => unreachable!("shape-checked at admission"),
                });
                for (dst, slab) in slabs.into_iter().zip(served::sw_encode(bucket, pairs)) {
                    gpu.try_memcpy_h2d(dst, &slab)?;
                }
                let (dims, words) = served::sw_launch(kcfg, slab_addrs, out.0, n);
                gpu.try_launch_on(*kernel, dims, &words, opts)?
            }
            ShapeKey::Fm => {
                let (kernel, tables) = self.fm.as_ref().expect("FM shape admitted without pipe");
                let mut reads = Vec::new();
                for job in &batch.jobs {
                    let JobKind::FmMap { read } = &job.spec.kind else {
                        unreachable!("shape-checked at admission");
                    };
                    reads.extend_from_slice(read);
                }
                gpu.try_memcpy_h2d(slabs[0], &reads)?;
                // The kernel writes `out` only for mappable reads; zero
                // the slab so unmapped lanes read as "no hit" rather than
                // the previous batch's results.
                gpu.try_memcpy_h2d(out, &vec![0u8; (n * 8) as usize])?;
                let (dims, words) = served::fm_launch(slab_addrs[0], tables, out.0, n);
                gpu.try_launch_on(*kernel, dims, &words, opts)?
            }
            ShapeKey::PairHmm => {
                let (kcfg, kernel) = &self.ph;
                let mut encoded = [Vec::new(), Vec::new(), Vec::new()];
                for job in &batch.jobs {
                    let JobKind::PairHmm { read, quals, hap } = &job.spec.kind else {
                        unreachable!("shape-checked at admission");
                    };
                    for (slab, part) in encoded.iter_mut().zip([read, quals, hap]) {
                        slab.extend_from_slice(part);
                    }
                }
                for (dst, slab) in slabs.into_iter().zip(&encoded) {
                    gpu.try_memcpy_h2d(dst, slab)?;
                }
                let (dims, words) = served::pairhmm_launch(kcfg, slab_addrs, out.0, n);
                gpu.try_launch_on(*kernel, dims, &words, opts)?
            }
        };
        Ok(grid)
    }

    /// Copy a finished batch's results home and decode them. A dropped
    /// D2H transfer is retried once (the drop is per-transfer, not
    /// sticky) before counting as a batch failure.
    fn readback(&mut self, w: usize, batch: &Batch) -> Result<Vec<JobOutput>, SimError> {
        let out = self.workers[w].out;
        let bytes = batch.jobs.len() * 8;
        let gpu = &mut self.gpu;
        let raw = match gpu.try_memcpy_d2h(out, bytes) {
            Ok(raw) => raw,
            Err(SimError::MemcpyDropped { .. }) => gpu.try_memcpy_d2h(out, bytes)?,
            Err(e) => return Err(e),
        };
        let decode = |word| match batch.shape {
            ShapeKey::Pairwise { .. } => JobOutput::Score(word as i64),
            ShapeKey::Fm => {
                let (score, pos) = unpack_hit(word);
                JobOutput::Mapping { score, pos }
            }
            ShapeKey::PairHmm => JobOutput::LogLik(log_likelihood(word)),
        };
        Ok(u64_words(&raw).map(decode).collect())
    }
}
