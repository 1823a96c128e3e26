//! `ggpu-stat` — the serving telemetry CLI.
//!
//! Drives a seeded traffic scenario through `ggpu-serve` and renders
//! everything the observability layer captured: the `ServeMetrics`
//! conservation ledger, exact per-stage latencies (queue wait, batch
//! formation, device execution, end-to-end) with nearest-rank
//! p50/p90/p99 and max broken down per tenant and per kernel shape, and
//! a top-N table of the slowest requests with the device events causally
//! tied to each. It exits non-zero if the ledger does not balance, a
//! breakdown does not telescope to the global latencies, or a global
//! end-to-end quantile is not the nearest rank over the request list.
//!
//! ```text
//! ggpu-stat [SCENARIO] [--jobs N] [--seed S] [--trace] [--tag NAME]
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
use ggpu_bench::export::{render_table, write_json_doc, Table};
use ggpu_genomics::random_genome;
use ggpu_serve::traffic::{self, GENOME_LEN};
use ggpu_serve::{
    AdmitError, JobKind, LatencyStats, LatencySummary, Priority, ServeConfig, ServeReport, Service,
    Tenant,
};
use ggpu_sim::json::JsonWriter;
use ggpu_sim::{FaultPlan, CLOCK_GHZ};
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

const USAGE: &str =
    "usage: ggpu-stat [steady|overload|faults] [--jobs N] [--seed S] [--trace] [--tag NAME]";
/// Arrivals offered before each scheduling round.
const WAVE: usize = 6;
/// Rows in the slowest-requests table.
const TOP: usize = 5;

fn main() {
    let mut args = Args::from_env(USAGE);
    let mut scenario = Scenario::Steady;
    let mut jobs = 48usize;
    let mut seed = 42u64;
    let mut trace = false;
    let mut tag: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "steady" => scenario = Scenario::Steady,
            "overload" => scenario = Scenario::Overload,
            "faults" => scenario = Scenario::Faults,
            "--jobs" => jobs = args.value(cli::positive),
            "--seed" => seed = args.value(|s| s.parse().ok()),
            "--trace" => trace = true,
            "--tag" => tag = Some(args.value(cli::name)),
            _ => args.usage(),
        }
    }

    let report = run_scenario(scenario, seed, jobs);
    println!(
        "ggpu-stat: scenario={} jobs={} wave={} seed={} clock={}GHz\n",
        scenario.tag(),
        jobs,
        WAVE,
        seed,
        CLOCK_GHZ
    );
    let tag = tag.as_deref().unwrap_or(scenario.tag());
    let latency = latency_table(tag, &report);
    print_metrics(&report);
    println!("== latency (cycles)\n{}", latency.text());
    print_slowest(&report);
    write_outputs(tag, seed, jobs, &report, &latency, trace);
    let violations = verify_invariants(scenario, &report);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("INVARIANT VIOLATED: {v}");
        }
        std::process::exit(1);
    }
    println!("invariants: conservation ok, latencies telescope and are exact");
}

/// Check the `ServeMetrics` conservation ledger, that the latencies
/// telescope — every scoped breakdown (per tenant, per shape, per
/// outcome) must sum back to the global end-to-end latencies, both in
/// count and in total cycles — that the global end-to-end summary is
/// exact: its count, quantiles and max are the nearest rank over the
/// request list, and that the overload scenario did overload: some
/// arrival was refused or shed. Returns the list of violations; the
/// process exits non-zero if any.
fn verify_invariants(scenario: Scenario, r: &ServeReport) -> Vec<String> {
    let mut bad = Vec::new();
    let m = r.metrics;
    if scenario == Scenario::Overload && m.rejected_overload + m.shed == 0 {
        bad.push("overload: no arrival was refused or shed".to_string());
    }
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
    let global = (r.global.e2e.count, r.global.e2e.sum);
    if global.0 != terminal {
        bad.push(format!(
            "global e2e latencies have {} samples but {} requests terminated",
            global.0, terminal
        ));
    }
    let scopes: [(&str, (u64, u64)); 3] = [
        (
            "tenant",
            r.per_tenant
                .iter()
                .fold((0, 0), |(c, s), (_, st)| (c + st.e2e.count, s + st.e2e.sum)),
        ),
        (
            "shape",
            r.per_shape
                .iter()
                .fold((0, 0), |(c, s), (_, st)| (c + st.e2e.count, s + st.e2e.sum)),
        ),
        (
            "outcome",
            r.per_outcome
                .iter()
                .fold((0, 0), |(c, s), (_, e2e)| (c + e2e.count, s + e2e.sum)),
        ),
    ];
    for (scope, (count, sum)) in scopes {
        if (count, sum) != global {
            bad.push(format!(
                "per-{scope} e2e latencies do not telescope to global: \
                 {count} samples / {sum} cycles vs {} / {}",
                global.0, global.1
            ));
        }
    }
    // Exactness: rank ceil(q·n) of the request list's sorted e2e cycles.
    let mut e2e: Vec<u64> = r.trails.iter().map(|t| t.e2e).collect();
    e2e.sort_unstable();
    let n = e2e.len();
    let rank = |q: f64| {
        let i = ((q * n as f64).ceil() as usize).max(1) - 1;
        e2e.get(i).copied().unwrap_or(0)
    };
    let exact = (n as u64, rank(0.5), rank(0.9), rank(0.99), rank(1.0));
    let s = &r.global.e2e;
    let reported = (s.count, s.p50, s.p90, s.p99, s.max);
    if reported != exact {
        bad.push(format!(
            "global e2e (count, p50, p90, p99, max) {reported:?} is not the nearest \
             rank over the request list {exact:?}"
        ));
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
        // Shallower than one wave: every wave meets a full queue.
        Scenario::Overload => cfg.queue_capacity = 4,
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
fn run_scenario(scenario: Scenario, seed: u64, jobs: usize) -> ServeReport {
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
        for _ in 0..WAVE {
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

/// One latency-table row: a summary's count, quantiles, max and mean.
fn latency_row(scope: &str, stage: &str, s: &LatencySummary) -> Vec<String> {
    vec![
        scope.to_string(),
        stage.to_string(),
        s.count.to_string(),
        s.p50.to_string(),
        s.p90.to_string(),
        s.p99.to_string(),
        s.max.to_string(),
        format!("{:.1}", s.mean()),
    ]
}

fn stage_rows(scope: &str, stats: &LatencyStats, rows: &mut Vec<Vec<String>>) {
    for (stage, s) in [
        ("queue_wait", &stats.queue_wait),
        ("batch_formation", &stats.batch_formation),
        ("device_exec", &stats.device_exec),
        ("e2e", &stats.e2e),
    ] {
        rows.push(latency_row(scope, stage, s));
    }
}

/// The latency table (`serve_<tag>_latency`): every scope × stage row —
/// global, per tenant, per shape, and the per-outcome end-to-end
/// summaries.
fn latency_table(tag: &str, r: &ServeReport) -> Table {
    let mut rows = Vec::new();
    stage_rows("global", &r.global, &mut rows);
    for (t, stats) in &r.per_tenant {
        stage_rows(&format!("tenant/{t}"), stats, &mut rows);
    }
    for (shape, stats) in &r.per_shape {
        stage_rows(&format!("shape/{shape}"), stats, &mut rows);
    }
    for (outcome, e2e) in r.per_outcome.iter().filter(|(_, e2e)| e2e.count > 0) {
        rows.push(latency_row(&format!("outcome/{outcome}"), "e2e", e2e));
    }
    Table::new(
        format!("serve_{tag}_latency"),
        [
            "scope", "stage", "count", "p50", "p90", "p99", "max", "mean",
        ],
        rows,
    )
}

fn print_slowest(r: &ServeReport) {
    println!("== top {TOP} slowest requests");
    let rows: Vec<Vec<String>> = r
        .slowest(TOP)
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
    for t in r.slowest(TOP) {
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

fn write_outputs(tag: &str, seed: u64, jobs: usize, r: &ServeReport, latency: &Table, trace: bool) {
    let doc = JsonWriter::object(|w| {
        w.str("scenario", tag)
            .u64("seed", seed)
            .u64("jobs", jobs as u64)
            .u64("wave", WAVE as u64)
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
