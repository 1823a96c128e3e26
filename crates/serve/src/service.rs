//! The service proper: admission, batching, stream scheduling, recovery.

use std::collections::{BTreeMap, HashMap};

use ggpu_isa::{KernelId, Program};
use ggpu_kernels::dp::{build_dp_kernel, scoring_const_data, DpKernelCfg};
use ggpu_kernels::host::u64_words;
use ggpu_kernels::nvb::{build_fm_search_kernel, unpack_hit, FmDevice, FmTables};
use ggpu_kernels::pairhmm::{
    build_pairhmm_kernel, log_likelihood, phred_const_data, PairHmmKernelCfg,
};
use ggpu_kernels::served;
use ggpu_sim::{DevicePtr, Gpu, GpuNode, LaunchOptions, NodeConfig, SimError, StreamId};

use crate::batch::Batch;
use crate::error::{AdmitError, ServiceDead};
use crate::job::{JobId, JobKind, JobOutcome, JobOutput, JobSpec, Priority, Tenant};
use crate::metrics::ServeMetrics;
use crate::queue::{AdmissionQueue, QueuedJob};
use crate::report::{DeviceLog, ServeReport};
use crate::shape::{shape_of, ShapeKey};
use crate::telemetry::{OutcomeTag, RejectReason, ServeTelemetry};
use crate::ServeConfig;

/// Launch attempts per batch before it splits (deadline overruns split
/// immediately — rerunning identical work in a deterministic simulator
/// would overrun identically).
const MAX_ATTEMPTS: u32 = 3;
/// Backoff after the first failure, in scheduling rounds.
const BACKOFF_BASE: u64 = 1;
/// Backoff ceiling, in rounds.
const BACKOFF_CAP: u64 = 8;
/// Capacity of the telemetry event log ([`crate::ServeEvent`]s); further
/// events are dropped and counted, the device recorder's [`ggpu_sim::Log`]
/// rule.
const TELEMETRY_EVENTS: usize = 1 << 16;
/// Most threads per CTA a pairwise / Pair-HMM kernel is compiled for.
const SW_TPC_CAP: u32 = 64;
const PHMM_TPC_CAP: u32 = 32;

/// One worker: a device, a stream on it, and private input/output slabs.
/// Slabs are allocated eagerly at build time and recycled across every
/// batch and shape, so the request path never allocates device memory —
/// overload surfaces as a typed admission error, not as OOM mid-flight.
#[derive(Clone, Copy)]
struct Worker {
    device: usize,
    stream: StreamId,
    /// Input slabs, in the order the shape's pipeline lays them out.
    slabs: [DevicePtr; 3],
    out: DevicePtr,
}

/// The alignment service. See the crate docs for the architecture.
pub struct Service {
    cfg: ServeConfig,
    node: GpuNode,
    /// One compiled pairwise kernel per length bucket (`max_len`).
    dp: Vec<(DpKernelCfg, KernelId)>,
    /// The FM kernel and each device's copy of the reference tables
    /// (uploaded once at build, shared read-only by every stream); `None`
    /// when FM serving is disabled.
    fm: Option<(KernelId, Vec<FmDevice>)>,
    /// The Pair-HMM kernel; `None` when disabled.
    ph: Option<(PairHmmKernelCfg, KernelId)>,
    workers: Vec<Worker>,
    queue: AdmissionQueue,
    parked: Vec<Batch>,
    inflight: HashMap<Tenant, usize>,
    outcomes: BTreeMap<JobId, JobOutcome>,
    metrics: ServeMetrics,
    telemetry: ServeTelemetry,
    round: u64,
    next_job: u64,
    next_batch: u64,
}

impl Service {
    /// Build the service: compile every configured kernel shape, upload
    /// the FM reference, create one stream and one slab set per worker.
    /// Every device byte the request path will ever touch is allocated
    /// here. A device configuration that fails `GpuConfig::validate` (with
    /// the service's own knobs forced) is returned as
    /// [`SimError::InvalidConfig`] before anything is built.
    pub fn new(cfg: ServeConfig) -> Result<Self, SimError> {
        let mut gcfg = cfg.gpu.clone();
        // The service owns the isolation contract: per-stream fault
        // scoping and canonical kernel boundaries are not optional here.
        gcfg.stream_isolation = true;
        gcfg.flush_between_kernels = true;
        gcfg.sample_interval_cycles = 0;
        // The unified host+device timeline needs the stream-annotated
        // device event trace, and the report joins spans and trails
        // against the per-grid records the trace switch keeps; the event
        // log is bounded, so this is a memory cap, not a correctness knob.
        gcfg.trace = true;
        gcfg.validate()?;
        let smem = gcfg.sm.smem_bytes;

        let mut program = Program::new();
        let dp: Vec<(DpKernelCfg, KernelId)> = cfg
            .pairwise_buckets
            .iter()
            .map(|&bucket| {
                let kcfg = served::sw_cfg(bucket, smem, SW_TPC_CAP);
                let name = format!("serve-sw-{bucket}");
                (kcfg, program.add(build_dp_kernel(&name, &kcfg)))
            })
            .collect();
        let fm_kernel =
            (!cfg.fm_genome.is_empty()).then(|| program.add(build_fm_search_kernel("serve-fm")));
        let ph = (cfg.phmm_read_len > 0 && cfg.phmm_hap_len >= cfg.phmm_read_len).then(|| {
            let kcfg = served::pairhmm_cfg(cfg.phmm_read_len, cfg.phmm_hap_len, smem, PHMM_TPC_CAP);
            (
                kcfg,
                program.add(build_pairhmm_kernel("serve-pairhmm", &kcfg)),
            )
        });

        let n_devices = cfg.n_devices.max(1);
        let mut node = GpuNode::new(program, NodeConfig::new(n_devices, gcfg));
        for d in 0..n_devices {
            let dev = node.device_mut(d);
            for (kcfg, kernel) in &dp {
                dev.bind_constants(*kernel, scoring_const_data(kcfg));
            }
            if let Some((_, kernel)) = ph {
                dev.bind_constants(kernel, phred_const_data());
            }
        }
        let fm = match fm_kernel {
            Some(kernel) => {
                let tables = FmTables::build(&cfg.fm_genome);
                Some((kernel, tables.upload_to_node(&mut node, kernel)?))
            }
            None => None,
        };

        // Slab sizing: the maximum any shape needs for a full batch.
        let nb = cfg.max_batch.max(1) as u64;
        let lmax = cfg.pairwise_buckets.iter().copied().max().unwrap_or(0) as u64;
        let a_bytes = (nb * lmax)
            .max(nb * cfg.fm_read_len as u64)
            .max(nb * cfg.phmm_read_len as u64)
            .max(1);
        let b_bytes = (nb * lmax).max(nb * cfg.phmm_read_len as u64).max(1);
        let c_bytes = (nb * 4).max(nb * cfg.phmm_hap_len as u64).max(1);
        let mut workers = Vec::new();
        let mut metrics = ServeMetrics::default();
        for w in 0..cfg.workers.max(1) {
            let device = w % n_devices;
            let dev = node.device_mut(device);
            workers.push(Worker {
                device,
                stream: dev.create_stream(),
                slabs: [
                    dev.try_malloc(a_bytes)?,
                    dev.try_malloc(b_bytes)?,
                    dev.try_malloc(c_bytes)?,
                ],
                out: dev.try_malloc(nb * 8)?,
            });
            metrics.streams_created += 1;
        }

        let telemetry = ServeTelemetry::new(TELEMETRY_EVENTS);
        Ok(Service {
            cfg,
            node,
            dp,
            fm,
            ph,
            workers,
            queue: AdmissionQueue::default(),
            parked: Vec::new(),
            inflight: HashMap::new(),
            outcomes: BTreeMap::new(),
            metrics,
            telemetry,
            round: 0,
            next_job: 0,
            next_batch: 0,
        })
    }

    /// The host-side clock: the furthest-ahead device cycle counter.
    /// Deterministic (device clocks are) and monotone, so telemetry
    /// timestamps order consistently across devices.
    fn now(&self) -> u64 {
        self.node.devices().map(Gpu::cycle).max().unwrap_or(0)
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
        self.metrics.submitted += 1;
        let cycle = self.now();
        self.telemetry.on_submit(cycle, tenant, priority);
        let shape = match shape_of(&kind, &self.cfg) {
            Ok(s) => s,
            Err(e) => {
                self.metrics.rejected_shape += 1;
                self.telemetry.on_reject(cycle, tenant, RejectReason::Shape);
                return Err(e);
            }
        };
        let in_flight = self.inflight.get(&tenant).copied().unwrap_or(0);
        if in_flight >= self.cfg.tenant_quota {
            self.metrics.rejected_quota += 1;
            self.telemetry.on_reject(cycle, tenant, RejectReason::Quota);
            return Err(AdmitError::QuotaExceeded {
                tenant,
                in_flight,
                quota: self.cfg.tenant_quota,
            });
        }
        if self.queue.len() >= self.cfg.queue_capacity {
            match self.queue.shed_for(priority) {
                Some(victim) => {
                    self.metrics.shed += 1;
                    self.telemetry.on_shed(
                        cycle,
                        victim.spec.id,
                        victim.spec.tenant,
                        self.queue.len() as u64,
                    );
                    self.finish(victim.spec.id, victim.spec.tenant, JobOutcome::Shed);
                }
                None => {
                    self.metrics.rejected_overload += 1;
                    self.telemetry
                        .on_reject(cycle, tenant, RejectReason::Overload);
                    let per_round = (self.workers.len() * self.cfg.max_batch.max(1)) as u64;
                    return Err(AdmitError::Overloaded {
                        retry_after_rounds: (self.queue.len() as u64 / per_round.max(1)).max(1),
                    });
                }
            }
        }
        let id = JobId(self.next_job);
        self.next_job += 1;
        *self.inflight.entry(tenant).or_insert(0) += 1;
        self.metrics.admitted += 1;
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
        self.metrics.gauge_queue_depth(self.queue.len() as u64);
        self.telemetry
            .on_admit(cycle, id, tenant, shape, priority, self.queue.len() as u64);
        Ok(id)
    }

    /// Run one scheduling round: un-park batches whose backoff expired,
    /// fill the remaining workers from the admission queue, launch every
    /// batch on its worker's stream, synchronize once, then settle each
    /// stream — faulted streams are reset (and replaced with fresh ones)
    /// and their batches re-queued, healthy streams' results are decoded.
    pub fn run_round(&mut self) -> Result<(), ServiceDead> {
        self.round += 1;
        self.metrics.rounds += 1;
        self.telemetry.set_round(self.round);
        let mut work: Vec<Batch> = Vec::new();
        let mut still_parked = Vec::new();
        for b in std::mem::take(&mut self.parked) {
            if b.not_before <= self.round && work.len() < self.workers.len() {
                work.push(b);
            } else {
                still_parked.push(b);
            }
        }
        self.parked = still_parked;
        while work.len() < self.workers.len() {
            let jobs = self.queue.take_batch(self.cfg.max_batch.max(1));
            if jobs.is_empty() {
                break;
            }
            let id = self.next_batch;
            self.next_batch += 1;
            let cycle = self.now();
            let depth = self.queue.len() as u64;
            for job in &jobs {
                self.telemetry
                    .on_batch_assign(cycle, job.spec.id, id, depth);
            }
            work.push(Batch::new(id, jobs));
        }
        self.metrics.gauge_queue_depth(self.queue.len() as u64);
        if work.is_empty() {
            self.metrics
                .gauge_inflight_batches(self.parked.len() as u64);
            return Ok(());
        }
        self.metrics
            .gauge_inflight_batches((work.len() + self.parked.len()) as u64);

        let mut launched: Vec<(usize, Batch, usize)> = Vec::new();
        let mut failed: Vec<(Batch, SimError)> = Vec::new();
        for (w, batch) in work.into_iter().enumerate() {
            match self.upload_and_launch(w, &batch) {
                Ok(grid) => {
                    self.metrics.batches_launched += 1;
                    let members: Vec<JobId> = batch.jobs.iter().map(|j| j.spec.id).collect();
                    let span = self.telemetry.on_launch(
                        self.now(),
                        batch.id,
                        w,
                        self.workers[w].stream,
                        grid,
                        batch.shape,
                        batch.attempts + 1,
                        &members,
                    );
                    launched.push((w, batch, span));
                }
                // Host-side failure (e.g. a dropped PCIe transfer):
                // nothing reached the device for this batch.
                Err(e) => failed.push((batch, e)),
            }
        }
        if !launched.is_empty() {
            // Streams >= 1 never poison a device: a worker fault leaves
            // its device's result Ok and is read back per stream below.
            // Devices simulate concurrently; results come back in
            // device-index order.
            for r in self.node.try_sync_all() {
                r.map_err(|e| ServiceDead {
                    error: e.to_string(),
                })?;
            }
        }
        for (w, batch, span) in launched {
            let (device, stream) = (self.workers[w].device, self.workers[w].stream);
            if let Some(err) = self.node.device(device).stream_fault(stream).cloned() {
                // Recover the stream (proves the device survives), then
                // retire it — retries go out on a fresh stream. The fault
                // is scoped to this device; workers on other devices never
                // see it.
                let cycle = self.now();
                self.telemetry.on_span_faulted(span, cycle);
                let _ = self.node.device_mut(device).reset_stream(stream);
                self.metrics.stream_resets += 1;
                self.workers[w].stream = self.node.device_mut(device).create_stream();
                self.metrics.streams_created += 1;
                self.telemetry
                    .on_stream_reset(cycle, w, stream, self.workers[w].stream);
                failed.push((batch, err));
            } else {
                match self.readback(w, &batch) {
                    Ok(outputs) => {
                        for (job, out) in batch.jobs.into_iter().zip(outputs) {
                            self.metrics.completed += 1;
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
                        self.metrics.failed += 1;
                        self.finish(
                            job.spec.id,
                            job.spec.tenant,
                            JobOutcome::Failed("round cap reached with work pending".into()),
                        );
                    }
                }
                while !self.queue.is_empty() {
                    for job in self.queue.take_batch(usize::MAX) {
                        self.metrics.failed += 1;
                        self.finish(
                            job.spec.id,
                            job.spec.tenant,
                            JobOutcome::Failed("round cap reached with work pending".into()),
                        );
                    }
                }
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

    /// Node-total device statistics — every per-device counter merged
    /// with [`ggpu_sim::RunStats::merge`] (for soak assertions and
    /// dashboards). Identical to the single device's stats when
    /// `n_devices == 1`.
    pub fn stats(&self) -> ggpu_sim::RunStats {
        self.node.stats().total()
    }

    /// Device-memory allocation counts per device. Flat across rounds and
    /// shape changes once the service is built: slabs and local-memory
    /// arenas are recycled, never reallocated.
    pub fn device_alloc_counts(&self) -> Vec<u64> {
        self.node
            .devices()
            .map(|g| g.memory().alloc_count())
            .collect()
    }

    /// Per-grid records from every device, concatenated in device-index
    /// order (stream-stamped; grid handles encode the device).
    pub fn kernel_records(&self) -> Vec<ggpu_sim::KernelRecord> {
        self.node
            .devices()
            .flat_map(|g| g.kernel_records().iter().cloned())
            .collect()
    }

    /// Snapshot everything the serving layer observed — counters, the
    /// latency histogram forest, the typed host event stream, batch
    /// spans, request trails, and the device's stream-annotated trace —
    /// as one exportable [`ServeReport`]. Spans and trails get their
    /// device times here, from the kernel records; grid handles are
    /// node-unique, so the join needs no device disambiguation. Taking a
    /// report drains nothing; it can be called repeatedly.
    pub fn report(&self) -> ServeReport {
        let devices: Vec<DeviceLog> = self
            .node
            .devices()
            .map(|g| DeviceLog {
                events: g.trace_events().to_vec(),
                records: g.kernel_records().to_vec(),
            })
            .collect();
        let grid_times = devices
            .iter()
            .flat_map(|d| &d.records)
            .map(|r| (r.grid, (r.start_cycle, r.retire_cycle)))
            .collect();
        let (spans, trails) = self.telemetry.joined(&grid_times);
        ServeReport::new(
            self.metrics,
            self.telemetry.events(),
            spans,
            trails,
            self.telemetry.in_flight() as u64,
            devices,
        )
    }

    /// Record a terminal outcome exactly once and release quota.
    fn finish(&mut self, id: JobId, tenant: Tenant, outcome: JobOutcome) {
        if let Some(n) = self.inflight.get_mut(&tenant) {
            *n = n.saturating_sub(1);
        }
        self.telemetry
            .on_complete(self.now(), id, tenant, OutcomeTag::of(&outcome));
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
        let cycle = self.now();
        batch.attempts += 1;
        if !deadline && batch.attempts < MAX_ATTEMPTS {
            self.metrics.retries += 1;
            batch.not_before = self.round + Self::backoff(batch.attempts);
            self.telemetry
                .on_retry(cycle, batch.id, batch.attempts, batch.not_before);
            self.parked.push(batch);
            return;
        }
        if batch.jobs.len() > 1 && self.queue.len() < self.cfg.queue_capacity {
            self.metrics.splits += 1;
            let right = batch.jobs.split_off(batch.jobs.len() / 2);
            let (left_id, right_id) = (self.next_batch, self.next_batch + 1);
            self.next_batch += 2;
            self.telemetry.on_split(cycle, batch.id, left_id, right_id);
            for (id, half) in [(left_id, batch.jobs), (right_id, right)] {
                let mut b = Batch::new(id, half);
                b.not_before = self.round + 1;
                self.parked.push(b);
            }
            return;
        }
        for job in batch.jobs {
            let outcome = if deadline {
                self.metrics.deadline_exceeded += 1;
                JobOutcome::DeadlineExceeded
            } else {
                self.metrics.failed += 1;
                JobOutcome::Failed(err.to_string())
            };
            self.finish(job.spec.id, job.spec.tenant, outcome);
        }
    }

    /// Upload a batch into worker `w`'s slabs and launch its fused grid
    /// on the worker's stream (on the worker's device), returning the
    /// node-unique device grid handle (the telemetry join key into kernel
    /// records and the device trace). Any error leaves the device clean —
    /// the grid was not enqueued.
    fn upload_and_launch(&mut self, w: usize, batch: &Batch) -> Result<u64, SimError> {
        let n = batch.jobs.len() as u64;
        let Worker {
            device,
            stream,
            slabs,
            out,
        } = self.workers[w];
        let opts = LaunchOptions {
            stream,
            deadline: batch.cycle_budget(),
        };
        let slab_addrs = slabs.map(|p| p.0);
        let gpu = self.node.device_mut(device);
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
                let (dims, words) = served::fm_launch(
                    self.cfg.fm_read_len,
                    slab_addrs[0],
                    &tables[device],
                    out.0,
                    n,
                );
                gpu.try_launch_on(*kernel, dims, &words, opts)?
            }
            ShapeKey::PairHmm => {
                let (kcfg, kernel) = self
                    .ph
                    .as_ref()
                    .expect("PairHMM shape admitted without pipe");
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
        let (device, out) = (self.workers[w].device, self.workers[w].out);
        let bytes = batch.jobs.len() * 8;
        let gpu = self.node.device_mut(device);
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
