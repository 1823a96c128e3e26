//! Determinism and consistency of the serving telemetry layer.
//!
//! The same fault-injection soak as `tests/serve_soak.rs` — dropped PCIe
//! transfer, dropped memory reply (watchdog kill + stream reset) — is run
//! with telemetry enabled, and the exports are held to the same standard
//! as the device itself:
//!
//! * the JSON report, the unified host+device Chrome trace, and the raw
//!   `ServeEvent` stream are **bit-identical** from run to run;
//! * histogram bucket counts **telescope** exactly to the `ServeMetrics`
//!   terminal-outcome counters (per tenant, per shape, per outcome);
//! * a request's full path is reconstructible: its trail's grid handle
//!   joins to a device `KernelRecord` and to `KernelStart`/`KernelRetire`
//!   trace events on the same stream, inside the host launch window.

use ggpu_genomics::random_genome;
use ggpu_isa::{KernelBuilder, LaunchDims, Program};
use ggpu_serve::{
    AdmitError, JobKind, OutcomeTag, Priority, ServeConfig, ServeEventKind, ServeReport, Service,
    Tenant,
};
use ggpu_sim::json::Json;
use ggpu_sim::{chrome_trace_json, FaultPlan, GpuConfig, GpuNode, NodeConfig, TraceEventKind};
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

const GENOME_LEN: usize = 600;
const FM_READ_LEN: usize = 16;
const PHMM_READ: usize = 10;
const PHMM_HAP: usize = 14;

fn soak_config(genome: &[u8], plan: FaultPlan) -> ServeConfig {
    let mut cfg = ServeConfig::test_small();
    cfg.gpu = GpuConfig::test_small();
    cfg.gpu.watchdog_cycles = 10_000;
    cfg.gpu.fault_plan = plan;
    cfg.workers = 3;
    cfg.queue_capacity = 24;
    cfg.tenant_quota = 64;
    cfg.max_batch = 4;
    cfg.fm_genome = genome.to_vec();
    cfg.fm_read_len = FM_READ_LEN as u32;
    cfg.phmm_read_len = PHMM_READ as u32;
    cfg.phmm_hap_len = PHMM_HAP as u32;
    cfg
}

fn gen_job(genome: &[u8], rng: &mut rand::rngs::StdRng) -> JobKind {
    match rng.gen_range(0..3u32) {
        0 => {
            let ql = rng.gen_range(6..60usize);
            let tl = rng.gen_range(6..60usize);
            JobKind::Pairwise {
                query: (0..ql).map(|_| rng.gen_range(0..4u8)).collect(),
                target: (0..tl).map(|_| rng.gen_range(0..4u8)).collect(),
            }
        }
        1 => {
            let read: Vec<u8> = if rng.gen_range(0..4u32) == 0 {
                (0..FM_READ_LEN).map(|_| rng.gen_range(0..4u8)).collect()
            } else {
                let s = rng.gen_range(0..GENOME_LEN - FM_READ_LEN);
                genome[s..s + FM_READ_LEN].to_vec()
            };
            JobKind::FmMap { read }
        }
        _ => {
            let hap: Vec<u8> = (0..PHMM_HAP).map(|_| rng.gen_range(0..4u8)).collect();
            let s = rng.gen_range(0..=PHMM_HAP - PHMM_READ);
            let read = hap[s..s + PHMM_READ].to_vec();
            let quals: Vec<u8> = (0..PHMM_READ).map(|_| rng.gen_range(15..45u8)).collect();
            JobKind::PairHmm { read, quals, hap }
        }
    }
}

/// The PR 6 soak's fault plan: one dropped PCIe transfer (host retry) and
/// one dropped memory reply (grid hang → watchdog kill → stream reset).
fn soak_plan() -> FaultPlan {
    FaultPlan {
        drop_memcpy: Some(7),
        drop_reply: Some(25),
        ..FaultPlan::default()
    }
}

/// Stream `n_jobs` seeded jobs through a telemetry-observed service and
/// return the final report.
fn run_soak(seed: u64, n_jobs: usize, wave: usize) -> ServeReport {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let genome = random_genome(GENOME_LEN, &mut rng).codes().to_vec();
    let mut svc = Service::new(soak_config(&genome, soak_plan())).expect("build service");
    let mut gen_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut pending: VecDeque<JobKind> = (0..n_jobs)
        .map(|_| gen_job(&genome, &mut gen_rng))
        .collect();
    let mut submitted = 0usize;
    let mut rounds = 0u64;
    while !pending.is_empty() {
        for _ in 0..wave {
            let Some(kind) = pending.pop_front() else {
                break;
            };
            let tenant = Tenant(submitted as u32 % 5);
            match svc.submit(tenant, Priority(1), None, kind.clone()) {
                Ok(_) => submitted += 1,
                Err(AdmitError::Overloaded { .. }) => {
                    pending.push_front(kind);
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
    svc.report()
}

#[test]
fn telemetry_is_bit_identical_across_runs() {
    let a = run_soak(7001, 36, 6);
    let b = run_soak(7001, 36, 6);
    // The raw event stream first (the most granular view), then the full
    // serialized exports — any hash-iteration-order leak shows up here as
    // a one-byte diff.
    assert_eq!(a.events, b.events, "ServeEvent streams diverged");
    assert_eq!(a.to_json(), b.to_json(), "JSON reports diverged");
    assert_eq!(
        a.chrome_trace(),
        b.chrome_trace(),
        "unified Chrome traces diverged"
    );
}

#[test]
fn histograms_telescope_to_metrics_totals() {
    let r = run_soak(7002, 36, 6);
    let m = r.metrics;
    // Conservation at the metrics layer.
    assert_eq!(
        m.submitted,
        m.admitted + m.rejected_overload + m.rejected_quota + m.rejected_shape
    );
    let terminal = m.completed + m.failed + m.deadline_exceeded + m.shed;
    assert_eq!(m.admitted, terminal, "drained service must balance");

    // The e2e histogram records exactly one sample per admitted job, so
    // its count — and its per-bucket sum — telescopes to the terminal
    // total, globally and across every breakdown.
    assert_eq!(r.global.e2e.count(), terminal);
    let bucket_sum: u64 = r.global.e2e.nonzero_buckets().iter().map(|b| b.2).sum();
    assert_eq!(bucket_sum, terminal, "bucket counts must telescope");
    let tenant_sum: u64 = r.per_tenant.values().map(|s| s.e2e.count()).sum();
    assert_eq!(tenant_sum, terminal);
    let shape_sum: u64 = r.per_shape.values().map(|s| s.e2e.count()).sum();
    assert_eq!(shape_sum, terminal);

    // Per-outcome histograms match the individual counters.
    let by_tag = |tag: &str| {
        r.per_outcome
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, h)| h.count())
            .unwrap_or(0)
    };
    assert_eq!(by_tag("done"), m.completed);
    assert_eq!(by_tag("failed"), m.failed);
    assert_eq!(by_tag("deadline_exceeded"), m.deadline_exceeded);
    assert_eq!(by_tag("shed"), m.shed);

    // Stage histograms are subsets of e2e: a job only has queue-wait (and
    // later stages) once it actually reached that stage.
    assert!(r.global.queue_wait.count() <= terminal);
    assert!(r.global.device_exec.count() <= m.completed);
    // One trail per terminal outcome, and a quiescent report has no
    // in-flight jobs.
    assert_eq!(r.trails.len() as u64, terminal);
    assert_eq!(r.in_flight, 0);
}

#[test]
fn a_request_full_path_joins_host_and_device() {
    let r = run_soak(7003, 36, 6);
    // Pick a completed request that actually ran on device.
    let trail = r
        .trails
        .iter()
        .find(|t| t.outcome == OutcomeTag::Done && !t.grids.is_empty())
        .expect("soak must complete at least one job");
    let gref = trail.grids.last().expect("done job has a launch");

    // Host side: the launch event carries the same grid and stream.
    let launch = r
        .events
        .iter()
        .find(|e| matches!(&e.kind, ServeEventKind::Launch { grid, .. } if *grid == gref.grid))
        .expect("launch event for the trail's grid");
    if let ServeEventKind::Launch { stream, .. } = &launch.kind {
        assert_eq!(stream.0, gref.stream, "launch stream mismatch");
    }

    // Device side: the grid's kernel record exists, on the same stream,
    // launched at (or after) the host enqueue and retired before the job
    // completed.
    let rec = r
        .device_records()
        .find(|rec| rec.grid == gref.grid)
        .expect("kernel record for the trail's grid");
    assert_eq!(rec.stream, gref.stream);
    assert!(rec.launch_cycle >= gref.launch_cycle);
    assert!(rec.retire_cycle <= trail.complete_cycle);

    // And the stream-annotated device trace has its start/retire events.
    let mut started = false;
    let mut retired = false;
    for ev in r.device_events() {
        match ev.kind {
            TraceEventKind::KernelStart { grid, stream } if grid == gref.grid => {
                assert_eq!(stream, gref.stream);
                started = true;
            }
            TraceEventKind::KernelRetire { grid, stream } if grid == gref.grid => {
                assert_eq!(stream, gref.stream);
                retired = true;
            }
            _ => {}
        }
    }
    assert!(started && retired, "device trace must cover the grid");

    // The causal slice for this trail includes those device events.
    let causal = r.causal_device_events(trail);
    assert!(causal
        .iter()
        .any(|e| matches!(e.kind, TraceEventKind::KernelRetire { grid, .. } if grid == gref.grid)));
}

#[test]
fn report_json_parses_and_chrome_trace_is_well_formed() {
    let r = run_soak(7004, 24, 6);
    let doc = Json::parse(&r.to_json()).expect("report JSON must parse");
    let metrics = doc.get("metrics").expect("metrics key");
    assert_eq!(
        metrics.get("completed").and_then(Json::as_u64),
        Some(r.metrics.completed)
    );
    assert!(doc.get("latency").and_then(|l| l.get("global")).is_some());
    let events = doc.get("events").and_then(Json::as_arr).expect("events");
    assert_eq!(events.len(), r.events.len());

    let trace = Json::parse(&r.chrome_trace()).expect("chrome trace must parse");
    let tev = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    // Every event has the mandatory keys; the unified timeline has host
    // (pid 0) and device (pid 1) rows.
    let mut pids = std::collections::BTreeSet::new();
    for e in tev {
        assert!(e.get("name").is_some() && e.get("ph").is_some());
        pids.insert(e.get("pid").and_then(Json::as_u64).expect("pid"));
    }
    assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    // The faulted soak renders at least one job slice, one batch slice,
    // one kernel slice, and one fault instant.
    let names: Vec<String> = tev
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str).map(String::from))
        .collect();
    assert!(names.iter().any(|n| n.starts_with("job ")));
    assert!(names.iter().any(|n| n.starts_with("batch ")));
    assert!(names.iter().any(|n| n.contains('#')), "kernel slices");
    assert!(
        names.iter().any(|n| n.starts_with("stream reset")),
        "the dropped reply must surface a stream reset instant"
    );
}

/// Sim-, node- and serve-produced traces all come out of the one
/// `ChromeTrace` builder: each parses, has exactly the
/// `displayTimeUnit`/`traceEvents` envelope, and every event carries the
/// mandatory keys (instants with the producer's scope).
#[test]
fn sim_node_and_serve_traces_share_one_envelope() {
    let mut b = KernelBuilder::new("noop");
    b.exit();
    let mut program = Program::new();
    let kernel = program.add(b.finish());
    let mut cfg = NodeConfig::test_small(2);
    cfg.gpu.trace = true;
    let mut node = GpuNode::new(program, cfg);
    for d in 0..2 {
        node.device_mut(d)
            .try_launch(kernel, LaunchDims::linear(1, 32), &[])
            .expect("launch");
    }
    node.sync_all();
    let sim = chrome_trace_json(&[("gpu".to_string(), node.device(0).trace_events())]);
    let serve = run_soak(7004, 24, 6).chrome_trace();

    for (producer, doc, instant_scope) in [
        ("sim", sim, "g"),
        ("node", node.chrome_trace(), "g"),
        ("serve", serve, "t"),
    ] {
        let v = Json::parse(&doc).unwrap_or_else(|e| panic!("{producer} trace: {e}"));
        let Json::Obj(fields) = &v else {
            panic!("{producer} trace is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["displayTimeUnit", "traceEvents"], "{producer}");
        assert_eq!(v.get("displayTimeUnit").and_then(Json::as_str), Some("ms"));
        let events = v.get("traceEvents").and_then(Json::as_arr).expect("array");
        assert!(!events.is_empty(), "{producer} trace has events");
        for e in events {
            for key in ["name", "ph", "ts", "pid", "tid"] {
                assert!(e.get(key).is_some(), "{producer} event lacks `{key}`");
            }
            if e.get("ph").and_then(Json::as_str) == Some("i") {
                assert_eq!(e.get("s").and_then(Json::as_str), Some(instant_scope));
            }
        }
    }
}
