//! `ggpu-stat` — the serving telemetry CLI.
//!
//! Drives a seeded traffic scenario through `ggpu-serve` and renders
//! everything the observability layer captured: the `ServeMetrics`
//! conservation ledger, per-stage latency histograms (queue wait, batch
//! formation, device execution, end-to-end) with p50/p90/p99/max broken
//! down per tenant and per kernel shape, and a top-N table of the
//! slowest requests with the device events causally tied to each.
//!
//! ```text
//! ggpu-stat [SCENARIO] [--jobs N] [--wave N] [--seed S] [--top N]
//!           [--trace] [--tag NAME]
//! scenarios: steady    well-provisioned queue, no faults (default)
//!            overload  burst arrivals into a shallow queue (backpressure)
//!            faults    the soak fault plan: dropped PCIe transfer +
//!                      dropped memory reply (watchdog kill, stream reset)
//! ```
//!
//! Machine-readable outputs land in `results/` (override the directory
//! with `GGPU_RESULTS_DIR`, the `<scenario>` part of the filenames with
//! `--tag`): `serve_<scenario>.json` (the full
//! [`ServeReport`]), `serve_<scenario>_latency.csv` (one row per
//! scope × stage), `serve_<scenario>_requests.csv` (one row per
//! terminated request), and — with `--trace` —
//! `serve_<scenario>_trace.json`, the unified host+device Chrome trace
//! (load at <https://ui.perfetto.dev>).

use std::collections::VecDeque;

use ggpu_bench::cli::{self, Args};
use ggpu_bench::export::{write_json_doc, Table};
use ggpu_core::json::JsonWriter;
use ggpu_core::render_table;
use ggpu_genomics::random_genome;
use ggpu_serve::traffic::{self, GENOME_LEN};
use ggpu_serve::{
    AdmitError, Histogram, JobKind, LatencyStats, Priority, ServeConfig, ServeReport, Service,
    Tenant,
};
use ggpu_sim::FaultPlan;
use rand::SeedableRng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    Steady,
    Overload,
    Faults,
}

impl Scenario {
    fn tag(self) -> &'static str {
        match self {
            Scenario::Steady => "steady",
            Scenario::Overload => "overload",
            Scenario::Faults => "faults",
        }
    }
}

const USAGE: &str = "usage: ggpu-stat [steady|overload|faults] [--jobs N] [--wave N] [--seed S]\n\
    \u{20}                [--top N] [--trace] [--tag NAME]";

fn main() {
    let mut args = Args::from_env(USAGE);
    let mut scenario = Scenario::Steady;
    let mut jobs = 48usize;
    let mut wave = 6usize;
    let mut seed = 42u64;
    let mut top = 5usize;
    let mut trace = false;
    let mut tag: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "steady" => scenario = Scenario::Steady,
            "overload" => scenario = Scenario::Overload,
            "faults" => scenario = Scenario::Faults,
            "--jobs" => jobs = args.value(cli::positive),
            "--wave" => wave = args.value(cli::positive),
            "--seed" => seed = args.value(|s| s.parse().ok()),
            "--top" => top = args.value(cli::positive),
            "--trace" => trace = true,
            "--tag" => tag = Some(args.value(cli::name)),
            _ => args.usage(),
        }
    }

    let report = run_scenario(scenario, seed, jobs, wave);
    println!(
        "ggpu-stat: scenario={} jobs={} wave={} seed={} clock={}GHz\n",
        scenario.tag(),
        jobs,
        wave,
        seed,
        report.clock_ghz
    );
    let tag = tag.as_deref().unwrap_or(scenario.tag());
    let latency = latency_table(tag, &report);
    print_metrics(&report);
    println!("== latency (cycles)\n{}", latency.text());
    print_slowest(&report, top);
    write_outputs(tag, seed, jobs, wave, &report, &latency, trace);
    let violations = verify_invariants(&report);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("INVARIANT VIOLATED: {v}");
        }
        std::process::exit(1);
    }
    println!("invariants: conservation ok, histograms telescope");
}

/// Check the `ServeMetrics` conservation ledger and that the latency
/// histograms telescope: every scoped breakdown (per tenant, per shape,
/// per outcome) must sum back to the global end-to-end histogram, both
/// in sample count and in total recorded cycles. Returns the list of
/// violations; the process exits non-zero if any.
fn verify_invariants(r: &ServeReport) -> Vec<String> {
    let mut bad = Vec::new();
    let m = r.metrics;
    let rejected = m.rejected_overload + m.rejected_quota + m.rejected_shape;
    if m.submitted != m.admitted + rejected {
        bad.push(format!(
            "conservation: submitted {} != admitted {} + rejected {}",
            m.submitted, m.admitted, rejected
        ));
    }
    let terminal = m.completed + m.failed + m.deadline_exceeded + m.shed;
    if m.admitted != terminal {
        bad.push(format!(
            "conservation: admitted {} != terminal {} (completed {} + failed {} + deadline {} + shed {})",
            m.admitted, terminal, m.completed, m.failed, m.deadline_exceeded, m.shed
        ));
    }
    let global = (r.global.e2e.count(), r.global.e2e.sum());
    if global.0 != terminal {
        bad.push(format!(
            "global e2e histogram has {} samples but {} requests terminated",
            global.0, terminal
        ));
    }
    let scopes: [(&str, (u64, u64)); 3] = [
        (
            "tenant",
            r.per_tenant.iter().fold((0, 0), |(c, s), (_, st)| {
                (c + st.e2e.count(), s + st.e2e.sum())
            }),
        ),
        (
            "shape",
            r.per_shape.iter().fold((0, 0), |(c, s), (_, st)| {
                (c + st.e2e.count(), s + st.e2e.sum())
            }),
        ),
        (
            "outcome",
            r.per_outcome
                .iter()
                .fold((0, 0), |(c, s), (_, h)| (c + h.count(), s + h.sum())),
        ),
    ];
    for (scope, (count, sum)) in scopes {
        if (count, sum) != global {
            bad.push(format!(
                "per-{scope} e2e histograms do not telescope to global: \
                 {count} samples / {sum} cycles vs {} / {}",
                global.0, global.1
            ));
        }
    }
    bad
}

/// Build the scenario's service configuration. All three share the soak
/// geometry ([`traffic::base_config`]: 3 workers, batch of 4, all three
/// kernel shapes enabled); they differ in queue bound and fault plan.
fn scenario_config(scenario: Scenario, genome: &[u8]) -> ServeConfig {
    let mut cfg = traffic::base_config(genome);
    match scenario {
        Scenario::Steady => {}
        Scenario::Overload => {
            cfg.queue_capacity = 8;
        }
        Scenario::Faults => {
            cfg.gpu.fault_plan = FaultPlan {
                drop_memcpy: Some(7),
                drop_reply: Some(25),
                ..FaultPlan::default()
            };
        }
    }
    cfg
}

/// Stream the scenario's traffic through a service and return the report.
/// Submissions the bounded queue refuses are re-offered next round — the
/// rejection still lands in the metrics, which is the point of the
/// overload scenario.
fn run_scenario(scenario: Scenario, seed: u64, jobs: usize, wave: usize) -> ServeReport {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let genome = random_genome(GENOME_LEN, &mut rng).codes().to_vec();
    let mut svc = Service::new(scenario_config(scenario, &genome)).expect("build service");
    let mut gen_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut pending: VecDeque<JobKind> = (0..jobs)
        .map(|_| traffic::gen_job(&genome, &mut gen_rng))
        .collect();
    let mut submitted = 0u32;
    let mut rounds = 0u64;
    while !pending.is_empty() {
        for _ in 0..wave {
            let Some(kind) = pending.pop_front() else {
                break;
            };
            match svc.submit(Tenant(submitted % 4), Priority(1), None, kind.clone()) {
                Ok(_) => submitted += 1,
                Err(AdmitError::Overloaded { .. }) => {
                    pending.push_front(kind);
                    break;
                }
                Err(e) => {
                    eprintln!("unexpected admission error: {e}");
                    std::process::exit(1);
                }
            }
        }
        svc.run_round().expect("device-wide fault");
        rounds += 1;
        if rounds > 10_000 {
            eprintln!("scenario failed to make progress after {rounds} rounds");
            std::process::exit(1);
        }
    }
    svc.run_until_idle(1_000).expect("device-wide fault");
    svc.report()
}

fn print_metrics(r: &ServeReport) {
    let m = r.metrics;
    let mut rows = Vec::new();
    m.for_each_field(|name, v| rows.push(vec![name.to_string(), v.to_string()]));
    println!("== serving metrics");
    println!("{}", render_table(&["counter", "value"], &rows));
    // The conservation ledger, stated explicitly so a glance at the
    // output verifies it.
    println!(
        "conservation: {} submitted = {} admitted + {} rejected; {} admitted = {} terminal\n",
        m.submitted,
        m.admitted,
        m.rejected_overload + m.rejected_quota + m.rejected_shape,
        m.admitted,
        m.completed + m.failed + m.deadline_exceeded + m.shed,
    );
}

/// One latency-table row: a histogram's count, quantiles, max and mean.
fn histogram_row(scope: &str, stage: &str, h: &Histogram) -> Vec<String> {
    vec![
        scope.to_string(),
        stage.to_string(),
        h.count().to_string(),
        h.percentile(50.0).to_string(),
        h.percentile(90.0).to_string(),
        h.percentile(99.0).to_string(),
        h.max().to_string(),
        format!("{:.1}", h.mean()),
    ]
}

fn stage_rows(scope: &str, stats: &LatencyStats, rows: &mut Vec<Vec<String>>) {
    for (stage, h) in [
        ("queue_wait", &stats.queue_wait),
        ("batch_formation", &stats.batch_formation),
        ("device_exec", &stats.device_exec),
        ("e2e", &stats.e2e),
    ] {
        rows.push(histogram_row(scope, stage, h));
    }
}

/// The latency table (`serve_<tag>_latency`): every scope × stage row —
/// global, per tenant, per shape, and the per-outcome end-to-end
/// histograms.
fn latency_table(tag: &str, r: &ServeReport) -> Table {
    let mut rows = Vec::new();
    stage_rows("global", &r.global, &mut rows);
    for (t, stats) in &r.per_tenant {
        stage_rows(&format!("tenant/{t}"), stats, &mut rows);
    }
    for (shape, stats) in &r.per_shape {
        stage_rows(&format!("shape/{shape}"), stats, &mut rows);
    }
    for (outcome, h) in r.per_outcome.iter().filter(|(_, h)| h.count() > 0) {
        rows.push(histogram_row(&format!("outcome/{outcome}"), "e2e", h));
    }
    Table::new(
        format!("serve_{tag}_latency"),
        [
            "scope", "stage", "count", "p50", "p90", "p99", "max", "mean",
        ],
        rows,
    )
}

fn print_slowest(r: &ServeReport, top: usize) {
    println!("== top {top} slowest requests");
    let rows: Vec<Vec<String>> = r
        .slowest(top)
        .iter()
        .map(|t| {
            vec![
                t.job.0.to_string(),
                t.tenant.0.to_string(),
                t.shape.to_string(),
                t.outcome.tag().to_string(),
                t.e2e.to_string(),
                t.batch_assign_cycle
                    .map(|c| (c - t.submit_cycle).to_string())
                    .unwrap_or_default(),
                t.device_exec.map(|c| c.to_string()).unwrap_or_default(),
                t.grids.len().to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "job",
                "tenant",
                "shape",
                "outcome",
                "e2e",
                "queue_wait",
                "dev_exec",
                "launches",
            ],
            &rows
        )
    );
    // The causal device slice for each: what the device did on this
    // request's grids/streams while it was alive.
    for t in r.slowest(top) {
        let causal = r.causal_device_events(t);
        let summary: Vec<String> = causal
            .iter()
            .take(12)
            .map(|e| format!("{}@{}", e.kind.tag(), e.cycle))
            .collect();
        println!(
            "job {} [{}] grids {:?}: {}{}",
            t.job.0,
            t.outcome.tag(),
            t.grids.iter().map(|g| g.grid).collect::<Vec<_>>(),
            summary.join(" "),
            if causal.len() > 12 {
                format!(" (+{} more)", causal.len() - 12)
            } else {
                String::new()
            }
        );
    }
    println!();
}

// ---- exports ---------------------------------------------------------------

fn write_outputs(
    tag: &str,
    seed: u64,
    jobs: usize,
    wave: usize,
    r: &ServeReport,
    latency: &Table,
    trace: bool,
) {
    let doc = JsonWriter::object(|w| {
        w.str("scenario", tag)
            .u64("seed", seed)
            .u64("jobs", jobs as u64)
            .u64("wave", wave as u64)
            .raw("report", &r.to_json());
    });
    write_json_doc(&format!("serve_{tag}"), &doc);
    latency.write_csv();

    let request_rows: Vec<Vec<String>> = r
        .trails
        .iter()
        .map(|t| {
            vec![
                t.job.0.to_string(),
                t.tenant.0.to_string(),
                t.shape.to_string(),
                t.priority.0.to_string(),
                t.outcome.tag().to_string(),
                t.submit_cycle.to_string(),
                t.batch_assign_cycle
                    .map(|c| c.to_string())
                    .unwrap_or_default(),
                t.first_launch_cycle
                    .map(|c| c.to_string())
                    .unwrap_or_default(),
                t.complete_cycle.to_string(),
                t.device_exec.map(|c| c.to_string()).unwrap_or_default(),
                t.e2e.to_string(),
                t.grids.len().to_string(),
            ]
        })
        .collect();
    Table::new(
        format!("serve_{tag}_requests"),
        [
            "job",
            "tenant",
            "shape",
            "priority",
            "outcome",
            "submit_cycle",
            "batch_assign_cycle",
            "first_launch_cycle",
            "complete_cycle",
            "device_exec_cycles",
            "e2e_cycles",
            "launches",
        ],
        request_rows,
    )
    .write_csv();

    if trace {
        write_json_doc(&format!("serve_{tag}_trace"), &r.chrome_trace());
    }
}
