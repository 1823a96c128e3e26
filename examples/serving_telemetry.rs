//! End-to-end serving telemetry demo: follow one request from admission
//! to device retirement on a single unified timeline.
//!
//! A small mixed-shape workload runs through `ggpu-serve` with a fault
//! plan that drops a memory reply mid-run — the watchdog kills the hung
//! grid, the service resets the stream and retries. The example then
//! walks the [`ggpu_serve::ServeReport`]:
//!
//! 1. the conservation ledger (`submitted == admitted + rejected`,
//!    `admitted == terminal outcomes`),
//! 2. the per-stage latencies with their exact percentiles,
//! 3. the slowest request's trail, joined to the device events its grids
//!    caused (launch → deadlock → relaunch → retire),
//! 4. and exports the unified host+device Chrome trace —
//!    `serving_telemetry_trace.json`, loadable at
//!    <https://ui.perfetto.dev> — where the host rows (admission queue
//!    depth, workers, tenants) and the device rows (streams, PCIe) share
//!    one cycle timeline.
//!
//! Run with: `cargo run --release --example serving_telemetry`

use ggpu_genomics::random_genome;
use ggpu_serve::{JobKind, Priority, ServeConfig, Service, Tenant};
use ggpu_sim::{FaultPlan, GpuConfig};
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(97);
    let genome = random_genome(600, &mut rng).codes().to_vec();

    let mut cfg = ServeConfig::test_small();
    cfg.gpu = GpuConfig::test_small();
    cfg.gpu.watchdog_cycles = 10_000;
    // Drop the 25th memory reply: one grid hangs, the watchdog kills it,
    // the service recovers the stream and retries the batch.
    cfg.gpu.fault_plan = FaultPlan {
        drop_reply: Some(25),
        ..FaultPlan::default()
    };
    cfg.fm_genome = genome.clone();
    let mut svc = Service::new(cfg).expect("build service");

    println!("1. submitting 24 mixed-shape jobs from 3 tenants...");
    for i in 0..24u32 {
        let kind = match i % 3 {
            0 => JobKind::Pairwise {
                query: (0..40).map(|_| rng.gen_range(0..4u8)).collect(),
                target: (0..44).map(|_| rng.gen_range(0..4u8)).collect(),
            },
            1 => {
                let s = rng.gen_range(0..600 - 16);
                JobKind::FmMap {
                    read: genome[s..s + 16].to_vec(),
                }
            }
            _ => {
                let hap: Vec<u8> = (0..14).map(|_| rng.gen_range(0..4u8)).collect();
                JobKind::PairHmm {
                    read: hap[..10].to_vec(),
                    quals: vec![30; 10],
                    hap,
                }
            }
        };
        svc.submit(Tenant(i % 3), Priority(1), None, kind)
            .expect("admit");
    }
    svc.run_until_idle(200).expect("no device-wide fault");
    let report = svc.report();

    let m = report.metrics;
    println!(
        "2. conservation: {} submitted = {} admitted + {} rejected; \
         {} admitted = {}+{}+{}+{} terminal",
        m.submitted,
        m.admitted,
        m.rejected_overload + m.rejected_quota + m.rejected_shape,
        m.admitted,
        m.completed,
        m.failed,
        m.deadline_exceeded,
        m.shed
    );
    assert_eq!(
        m.submitted,
        m.admitted + m.rejected_overload + m.rejected_quota + m.rejected_shape
    );
    assert_eq!(
        m.admitted,
        m.completed + m.failed + m.deadline_exceeded + m.shed
    );
    println!(
        "   the injected hang cost {} stream reset(s) and {} retry(ies)",
        m.stream_resets, m.retries
    );

    println!("3. latency percentiles (cycles):");
    for (stage, s) in [
        ("queue_wait", &report.global.queue_wait),
        ("batch_formation", &report.global.batch_formation),
        ("device_exec", &report.global.device_exec),
        ("e2e", &report.global.e2e),
    ] {
        println!(
            "   {:>16}: n={:<3} p50={:<8} p90={:<8} p99={:<8} max={}",
            stage, s.count, s.p50, s.p90, s.p99, s.max
        );
    }

    let slowest = report.slowest(1)[0];
    println!(
        "4. slowest request: job {} (tenant {}, {}, {}) took {} cycles over {} launch(es)",
        slowest.job.0,
        slowest.tenant.0,
        slowest.shape,
        slowest.outcome.tag(),
        slowest.e2e,
        slowest.grids.len()
    );
    for ev in report.causal_device_events(slowest) {
        println!("   device: {:>14} @ cycle {}", ev.kind.tag(), ev.cycle);
    }

    let trace = report.chrome_trace();
    let path = "serving_telemetry_trace.json";
    std::fs::write(path, &trace).expect("write trace");
    println!(
        "5. wrote {path} ({} bytes) — load it at https://ui.perfetto.dev to see\n\
         \u{20}  the host rows (queue depth, workers, tenants) and device streams\n\
         \u{20}  on one timeline",
        trace.len()
    );
}
