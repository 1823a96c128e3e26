//! Deterministic fault-injection soak for `ggpu-serve`.
//!
//! A seeded stream of mixed-shape alignment jobs is pushed through the
//! service while the fault plan injects a mid-run hang (dropped memory
//! reply) and a dropped PCIe transfer. The soak asserts the headline
//! serving invariants:
//!
//! * no panic and no device-wide fault — every injected fault stays
//!   scoped to the stream it hit;
//! * every admitted job reaches a terminal outcome, and every `Done`
//!   outcome matches the CPU oracle even when its batch rode a killed
//!   stream and was retried;
//! * the whole run — outcomes, metrics, and per-grid kernel records —
//!   is bit-identical from run to run, fault plan included;
//! * overload storms answer with typed `Overloaded` errors, never an
//!   allocation failure or abort;
//! * impossible cycle budgets degrade gracefully: the offending job gets
//!   `DeadlineExceeded`, its batch-mates still complete.

use ggpu_genomics::{random_genome, sw_score, GapModel, PairHmm, Simple};
use ggpu_kernels::nvb::FmTables;
use ggpu_kernels::pairhmm::{GAP_EXT_P, GAP_OPEN_P};
use ggpu_kernels::pairwise::{GAP_EXTEND, GAP_OPEN, MATCH, MISMATCH};
use ggpu_serve::{
    traffic, AdmitError, JobId, JobKind, JobOutcome, JobOutput, Priority, ServeConfig,
    ServeEventKind, Service, Tenant,
};
use ggpu_sim::FaultPlan;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};

const GENOME_LEN: usize = traffic::GENOME_LEN;
const FM_READ_LEN: usize = ggpu_serve::FM_READ_LEN as usize;
const PHMM_READ: usize = ggpu_serve::PHMM_READ_LEN as usize;
const PHMM_HAP: usize = ggpu_serve::PHMM_HAP_LEN as usize;

/// The CPU-side ground truth for one job.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expected {
    Score(i64),
    Mapping(u64),
    LogLik(f64),
}

struct Oracle {
    genome: Vec<u8>,
    tables: FmTables,
    hmm: PairHmm,
}

impl Oracle {
    fn new(seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let genome = random_genome(GENOME_LEN, &mut rng).codes().to_vec();
        let tables = FmTables::build(&genome);
        Oracle {
            genome,
            tables,
            hmm: PairHmm {
                gap_open: GAP_OPEN_P,
                gap_ext: GAP_EXT_P,
            },
        }
    }

    /// Generate the `i`-th job of the soak plus its expected result.
    /// Deterministic given the RNG state, independent of service state.
    fn gen_job(&self, rng: &mut rand::rngs::StdRng) -> (JobKind, Expected) {
        match rng.gen_range(0..3u32) {
            0 => {
                let ql = rng.gen_range(6..60usize);
                let tl = rng.gen_range(6..60usize);
                let q: Vec<u8> = (0..ql).map(|_| rng.gen_range(0..4u8)).collect();
                let t: Vec<u8> = (0..tl).map(|_| rng.gen_range(0..4u8)).collect();
                let subst = Simple::new(MATCH, MISMATCH);
                let gaps = GapModel::Affine {
                    open: GAP_OPEN,
                    extend: GAP_EXTEND,
                };
                let want = sw_score(&q, &t, &subst, gaps) as i64;
                (
                    JobKind::Pairwise {
                        query: q,
                        target: t,
                    },
                    Expected::Score(want),
                )
            }
            1 => {
                let read: Vec<u8> = if rng.gen_range(0..4u32) == 0 {
                    (0..FM_READ_LEN).map(|_| rng.gen_range(0..4u8)).collect()
                } else {
                    let s = rng.gen_range(0..GENOME_LEN - FM_READ_LEN);
                    self.genome[s..s + FM_READ_LEN].to_vec()
                };
                let want = self.tables.map_read(&read);
                (JobKind::FmMap { read }, Expected::Mapping(want))
            }
            _ => {
                let hap: Vec<u8> = (0..PHMM_HAP).map(|_| rng.gen_range(0..4u8)).collect();
                let s = rng.gen_range(0..=PHMM_HAP - PHMM_READ);
                let read = hap[s..s + PHMM_READ].to_vec();
                let quals: Vec<u8> = (0..PHMM_READ).map(|_| rng.gen_range(15..45u8)).collect();
                let want = self.hmm.forward(&read, &quals, &hap);
                (
                    JobKind::PairHmm { read, quals, hap },
                    Expected::LogLik(want),
                )
            }
        }
    }
}

fn soak_config(oracle: &Oracle, plan: FaultPlan) -> ServeConfig {
    let mut cfg = traffic::base_config(&oracle.genome);
    cfg.gpu.fault_plan = plan;
    cfg
}

/// Everything observable about one soak run, for bit-identity checks.
struct SoakRun {
    outcomes: Vec<(JobId, JobOutcome)>,
    metrics: ggpu_serve::ServeMetrics,
    /// `Debug` rendering of every per-grid kernel record (stream ids,
    /// cycle windows, and full per-grid stat deltas included).
    records: String,
    expected: Vec<(JobId, Expected)>,
    overloaded: u64,
}

/// Stream `n_jobs` seeded jobs through the service, interleaving
/// submission waves with scheduling rounds (re-offering anything the
/// bounded queue refused), then drain.
fn run_soak(seed: u64, n_jobs: usize, wave: usize, plan: FaultPlan) -> SoakRun {
    let oracle = Oracle::new(seed);
    let mut svc = Service::new(soak_config(&oracle, plan)).expect("build service");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut pending: VecDeque<(JobKind, Expected)> =
        (0..n_jobs).map(|_| oracle.gen_job(&mut rng)).collect();
    let mut expected = Vec::new();
    let mut overloaded = 0u64;
    let mut rounds = 0u64;
    while !pending.is_empty() {
        // Offer up to `wave` jobs per round; put back whatever the queue
        // refuses and let a scheduling round drain capacity.
        for _ in 0..wave {
            let Some((kind, want)) = pending.pop_front() else {
                break;
            };
            let tenant = Tenant(expected.len() as u32 % 5);
            // Uniform priority: a full queue must answer `Overloaded`
            // rather than shed (priority shedding is covered elsewhere).
            match svc.submit(tenant, Priority(1), None, kind.clone()) {
                Ok(id) => expected.push((id, want)),
                Err(AdmitError::Overloaded { .. }) => {
                    overloaded += 1;
                    pending.push_front((kind, want));
                    break;
                }
                Err(other) => panic!("unexpected admission error: {other}"),
            }
        }
        svc.run_round().expect("no device-wide fault mid-soak");
        rounds += 1;
        assert!(rounds < 2_000, "soak failed to make progress");
    }
    svc.run_until_idle(500)
        .expect("no device-wide fault at drain");
    assert_eq!(svc.backlog(), 0, "drain left work behind");
    let metrics = svc.metrics();
    let records = format!("{:?}", svc.kernel_records());
    SoakRun {
        outcomes: svc.take_outcomes(),
        metrics,
        records,
        expected,
        overloaded,
    }
}

fn assert_done_matches_oracle(run: &SoakRun) {
    assert_eq!(run.outcomes.len(), run.expected.len());
    for ((id, outcome), (xid, want)) in run.outcomes.iter().zip(&run.expected) {
        assert_eq!(id, xid);
        let JobOutcome::Done(out) = outcome else {
            panic!("{id}: expected Done, got {outcome:?}");
        };
        match (out, want) {
            (JobOutput::Score(got), Expected::Score(w)) => {
                assert_eq!(got, w, "{id}: wrong SW score");
            }
            (JobOutput::Mapping { score, pos }, Expected::Mapping(w)) => {
                let packed = ((*score as u64) << 32) | *pos as u64;
                assert_eq!(packed, *w, "{id}: wrong mapping");
            }
            (JobOutput::LogLik(got), Expected::LogLik(w)) => {
                assert!(
                    got.is_finite() && (got - w).abs() <= 1e-9 * w.abs().max(1.0),
                    "{id}: log-lik {got} != {w}"
                );
            }
            (got, want) => panic!("{id}: output kind mismatch: {got:?} vs {want:?}"),
        }
    }
}

/// The fault plan used by the isolation soaks: a dropped PCIe transfer
/// early in the run (slab upload — typed error, host retry) and a dropped
/// memory reply mid-run (grid hang — watchdog kill, stream reset, batch
/// retry). Both injections are one-shot, so retries succeed.
fn soak_plan() -> FaultPlan {
    FaultPlan {
        drop_memcpy: Some(7),
        drop_reply: Some(25),
        ..FaultPlan::default()
    }
}

#[test]
fn soak_faults_stay_stream_scoped_and_results_survive_recovery() {
    let run = run_soak(1001, 36, 6, soak_plan());
    // Every job terminal, every result correct — including the jobs whose
    // batches rode the killed stream and were retried on a fresh one.
    assert_done_matches_oracle(&run);
    let m = run.metrics;
    assert!(
        m.stream_resets >= 1,
        "the dropped reply must have killed (and recovered) a stream: {m:?}"
    );
    assert!(
        m.streams_created > 3,
        "recovery must have moved a worker to a fresh stream: {m:?}"
    );
    assert!(
        m.retries >= 1,
        "killed batches must have been retried: {m:?}"
    );
    assert_eq!(m.completed, 36);
    assert_eq!(m.failed + m.deadline_exceeded + m.shed, 0);
}

#[test]
fn soak_is_bit_identical_across_runs() {
    // Same seed, same fault plan, run twice: outcomes, serving metrics, and
    // every per-grid record (cycle windows and stat deltas) must match
    // bit-for-bit — a `HashMap` iteration order leaking into scheduling or
    // accounting shows up here. `poison_memcpy` is added so even a silently
    // corrupted payload corrupts *identically*.
    let plan = FaultPlan {
        poison_memcpy: Some(13),
        ..soak_plan()
    };
    let a = run_soak(2002, 30, 6, plan);
    let b = run_soak(2002, 30, 6, plan);
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.overloaded, b.overloaded);
    assert_eq!(a.records, b.records, "per-grid records diverged");
}

#[test]
fn overload_storm_is_typed_and_everything_admitted_completes() {
    // A queue of 24 fed 120 jobs six-at-a-time must refuse some
    // submissions with a typed error — and still finish every job it
    // admitted, with no panic and no allocation failure (all device
    // memory is pre-allocated at service build).
    let run = run_soak(3003, 120, 40, FaultPlan::default());
    assert!(
        run.overloaded > 0,
        "120 jobs through a 24-deep queue must hit backpressure"
    );
    assert_done_matches_oracle(&run);
}

/// Twelve jobs on one tenant, every third with a 5-cycle budget — launch
/// overhead alone exceeds it, so the grid is killed on device, the batch
/// splits, and only the doomed jobs end `DeadlineExceeded`. Returns the
/// drained service, the doomed ids and the others with their oracle.
fn run_impossible_deadlines() -> (Service, Vec<JobId>, Vec<(JobId, Expected)>) {
    let oracle = Oracle::new(4004);
    let mut svc = Service::new(soak_config(&oracle, FaultPlan::default())).expect("build service");
    let mut rng = rand::rngs::StdRng::seed_from_u64(4004 ^ 0x5eed);
    let mut doomed = Vec::new();
    let mut fine = Vec::new();
    for i in 0..12 {
        let (kind, want) = oracle.gen_job(&mut rng);
        if i % 3 == 0 {
            let id = svc
                .submit(Tenant(0), Priority(0), Some(5), kind)
                .expect("admit");
            doomed.push(id);
        } else {
            let id = svc
                .submit(Tenant(0), Priority(0), None, kind)
                .expect("admit");
            fine.push((id, want));
        }
    }
    svc.run_until_idle(500)
        .expect("deadline kills must stay stream-scoped");
    (svc, doomed, fine)
}

#[test]
fn impossible_deadlines_degrade_gracefully() {
    let (svc, doomed, fine) = run_impossible_deadlines();
    for id in &doomed {
        assert!(
            matches!(svc.outcome(*id), Some(JobOutcome::DeadlineExceeded)),
            "{id}: expected DeadlineExceeded, got {:?}",
            svc.outcome(*id)
        );
    }
    for (id, want) in &fine {
        let Some(JobOutcome::Done(out)) = svc.outcome(*id) else {
            panic!("{id}: batch-mates of doomed jobs must still complete");
        };
        if let (JobOutput::Score(got), Expected::Score(w)) = (out, want) {
            assert_eq!(got, w, "{id}: wrong score after batch split");
        }
    }
    let m = svc.metrics();
    assert_eq!(m.deadline_exceeded, doomed.len() as u64);
    assert!(m.splits >= 1, "deadline kill must split the batch: {m:?}");
    assert!(m.stream_resets >= doomed.len() as u64);
}

/// Each `split` names the jobs in its halves: together they are the
/// parent batch's members, every member's trail lists the parent's grid
/// before its half's, and each half's span carries its half's size and
/// the parent's shape.
#[test]
fn split_halves_name_their_jobs_and_trails_cross_the_split() {
    let (svc, _, _) = run_impossible_deadlines();
    let report = svc.report();
    let mut members: HashMap<u64, Vec<JobId>> = HashMap::new();
    // Each batch's launch grids, oldest first.
    let mut grids: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut splits = Vec::new();
    for ev in &report.events {
        match &ev.kind {
            ServeEventKind::BatchAssign { job, batch, .. } => {
                members.entry(*batch).or_default().push(*job)
            }
            ServeEventKind::Launch { batch, grid, .. } => {
                grids.entry(*batch).or_default().push(*grid)
            }
            ServeEventKind::Split {
                batch,
                left,
                right,
                left_jobs,
                right_jobs,
            } => {
                let halves = [left_jobs.clone(), right_jobs.clone()].concat();
                assert_eq!(halves, members[batch], "split {batch} lost or gained a job");
                assert!(!left_jobs.is_empty() && !right_jobs.is_empty());
                members.insert(*left, left_jobs.clone());
                members.insert(*right, right_jobs.clone());
                let parent_grid = *grids[batch].last().expect("a split batch launched");
                splits.push((*batch, parent_grid, [*left, *right]));
            }
            _ => {}
        }
    }
    assert!(!splits.is_empty(), "the deadline kill must split a batch");
    for (batch, parent_grid, halves) in splits {
        let parent_span = report.spans.iter().find(|s| s.grid == parent_grid).unwrap();
        for half in halves {
            let half_grid = grids[&half][0];
            for job in &members[&half] {
                let trail = report.trails.iter().find(|t| t.job == *job).unwrap();
                let at = |g: u64| trail.grids.iter().position(|r| r.grid == g);
                let (parent_at, half_at) = (at(parent_grid), at(half_grid));
                assert!(
                    parent_at.is_some() && parent_at < half_at,
                    "{job}: batch {batch}'s grid {parent_grid} must precede half {half}'s grid {half_grid} in {:?}",
                    trail.grids
                );
            }
            for span in report.spans.iter().filter(|s| s.batch == half) {
                assert_eq!(span.jobs, members[&half].len() as u64, "half {half}'s span");
                assert_eq!(span.shape, parent_span.shape, "half {half}'s span");
            }
        }
    }
}
