//! `ggpu-scale` — per-workload multi-GPU scaling curves.
//!
//! Runs each workload sharded across 1, 2, and 4 simulated devices of a
//! [`ggpu_sim::GpuNode`] and measures how it scales. Inputs are staged on
//! device 0 over PCIe, scattered to peer devices over the inter-GPU
//! fabric ([`ggpu_sim::GpuNode::try_p2p_copy`]), computed shard-parallel,
//! and gathered back in device-index order — so the merged result bytes
//! are identical at every device count, which this binary asserts.
//!
//! ```text
//! ggpu-scale [--jobs N] [--seed S] [--devices 1,2,4] [--trace] [--tag NAME]
//! ```
//!
//! Workloads span the two scaling regimes the fabric model exposes:
//!
//! * `sw` — Smith–Waterman pairwise scoring at a long length bucket:
//!   heavy compute per transferred byte (compute-bound).
//! * `fm` — FM-index read mapping: the full reference (text + occ + SA)
//!   must be replicated to every peer device before any read maps, so
//!   fabric cycles grow with device count while per-device compute
//!   shrinks (fabric-bound).
//! * `phmm` — Pair-HMM forward likelihoods (compute-bound).
//!
//! Outputs land in `results/` (override with `GGPU_RESULTS_DIR`):
//! `scaling_curves.json` and `scaling_curves.csv`, one point per
//! workload × device count, each carrying the speedup over one device
//! and the fabric fraction that classifies the workload as
//! `fabric_bound` or `compute_bound`. With `--trace`, the node Chrome
//! trace of the widest run is written as `scaling_trace.json` (one pid
//! per device).
//!
//! The binary exits non-zero if sharded results diverge from the
//! single-device run or if per-device counters fail to telescope to the
//! node totals.

use ggpu_bench::cli::{self, Args};
use ggpu_bench::export::{write_json_doc, Table};
use ggpu_genomics::random_genome;
use ggpu_isa::{KernelId, LaunchDims, Program};
use ggpu_kernels::dp::{build_dp_kernel, scoring_const_data};
use ggpu_kernels::nvb::{build_fm_search_kernel, FmTables};
use ggpu_kernels::pairhmm::{build_pairhmm_kernel, phred_const_data};
use ggpu_kernels::served;
use ggpu_sim::json::JsonWriter;
use ggpu_sim::{shard_ranges, DevicePtr, GpuConfig, GpuNode, NodeConfig, RunStats};
use rand::{Rng, SeedableRng};

const SW_BUCKET: u32 = 48;
/// Threads per CTA, kept deliberately modest (with at most 4 CTAs per
/// launch) so a device's shard is covered by grid-stride rounds — the
/// scaling signal is rounds shrinking as devices are added, not idle
/// lanes filling up.
const SW_TPC: u32 = 16;
const FM_GENOME_LEN: usize = 8192;
const FM_READ_LEN: u32 = 24;
const PHMM_READ: u32 = 12;
const PHMM_HAP: u32 = 16;
const PHMM_TPC: u32 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Sw,
    Fm,
    PairHmm,
}

impl Workload {
    fn tag(self) -> &'static str {
        match self {
            Workload::Sw => "sw",
            Workload::Fm => "fm",
            Workload::PairHmm => "phmm",
        }
    }
}

/// One measured (workload, device-count) point.
struct Point {
    devices: usize,
    node_cycles: u64,
    kernel_cycles: u64,
    p2p_cycles: u64,
    p2p_bytes: u64,
    fabric_packets: u64,
    per_device_cycles: Vec<u64>,
    /// Raw result words, merged in device-index order.
    out: Vec<u8>,
}

impl Point {
    /// Kernel cycles averaged over devices — the parallel compute time
    /// on the critical path (per-device kernels overlap; fabric
    /// transfers serialize against the staging device).
    fn parallel_kernel_cycles(&self) -> u64 {
        self.kernel_cycles / self.devices.max(1) as u64
    }

    /// Share of critical-path cycles spent in fabric transfers.
    fn fabric_frac(&self) -> f64 {
        let busy = self.p2p_cycles + self.parallel_kernel_cycles();
        if busy == 0 {
            0.0
        } else {
            self.p2p_cycles as f64 / busy as f64
        }
    }
}

/// `--devices`: a comma-separated list of device counts, each at least 1.
fn device_list(s: &str) -> Option<Vec<usize>> {
    s.split(',').map(cli::positive).collect()
}

fn main() {
    let mut args = Args::from_env(
        "usage: ggpu-scale [--jobs N] [--seed S] [--devices 1,2,4] [--trace] [--tag NAME]",
    );
    let mut jobs = 256usize;
    let mut seed = 42u64;
    let mut device_counts = vec![1usize, 2, 4];
    let mut trace = false;
    let mut tag = String::from("curves");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" => jobs = args.value(cli::positive),
            "--seed" => seed = args.value(|s| s.parse().ok()),
            "--devices" => device_counts = args.value(device_list),
            "--trace" => trace = true,
            "--tag" => tag = args.value(cli::name),
            _ => args.usage(),
        }
    }
    device_counts.sort_unstable();
    device_counts.dedup();
    let max_devices = *device_counts.last().expect("at least one device count");
    if jobs < max_devices {
        eprintln!("--jobs {jobs} must be >= the widest device count {max_devices}");
        std::process::exit(2);
    }

    println!("ggpu-scale: jobs={jobs} seed={seed} devices={device_counts:?} trace={trace}\n");

    let workloads = [Workload::Sw, Workload::Fm, Workload::PairHmm];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json = JsonWriter::new();
    json.begin_obj();
    json.u64("seed", seed).u64("jobs", jobs as u64);
    json.begin_arr_key("workloads");
    let mut node_trace: Option<String> = None;
    for w in workloads {
        let mut points: Vec<Point> = Vec::new();
        for &n in &device_counts {
            let want_trace = trace && w == Workload::Sw && n == max_devices;
            let (point, tr) = run_workload(w, n, jobs, seed, want_trace);
            if let Some(t) = tr {
                node_trace = Some(t);
            }
            points.push(point);
        }
        // Sharding must not change the answer: the merged result bytes of
        // every multi-device run match the single-device run exactly.
        let base = &points[0];
        for p in &points[1..] {
            if p.out != base.out {
                eprintln!(
                    "INVARIANT VIOLATED: {} results at {} devices diverge from {} devices",
                    w.tag(),
                    p.devices,
                    base.devices
                );
                std::process::exit(1);
            }
        }
        let widest = points.last().expect("at least one point");
        let class = if widest.p2p_cycles > widest.parallel_kernel_cycles() {
            "fabric_bound"
        } else {
            "compute_bound"
        };
        json.begin_obj();
        json.str("workload", w.tag()).str("class", class);
        json.begin_arr_key("points");
        for p in &points {
            let speedup = base.node_cycles as f64 / p.node_cycles.max(1) as f64;
            let efficiency = speedup / p.devices as f64;
            rows.push(vec![
                w.tag().to_string(),
                p.devices.to_string(),
                p.node_cycles.to_string(),
                format!("{speedup:.3}"),
                format!("{efficiency:.3}"),
                p.kernel_cycles.to_string(),
                p.p2p_cycles.to_string(),
                p.p2p_bytes.to_string(),
                p.fabric_packets.to_string(),
                format!("{:.3}", p.fabric_frac()),
                class.to_string(),
            ]);
            json.begin_obj();
            json.u64("devices", p.devices as u64)
                .u64("node_cycles", p.node_cycles)
                .f64("speedup", speedup)
                .f64("efficiency", efficiency)
                .u64("kernel_cycles", p.kernel_cycles)
                .u64("p2p_cycles", p.p2p_cycles)
                .u64("p2p_bytes", p.p2p_bytes)
                .u64("fabric_packets", p.fabric_packets)
                .f64("fabric_frac", p.fabric_frac());
            json.begin_arr_key("per_device_cycles");
            for &c in &p.per_device_cycles {
                json.elem_u64(c);
            }
            json.end_arr();
            json.end_obj();
        }
        json.end_arr();
        json.end_obj();
    }
    json.end_arr();
    json.end_obj();

    let curves = Table::new(
        format!("scaling_{tag}"),
        [
            "workload",
            "devices",
            "node_cycles",
            "speedup",
            "efficiency",
            "kernel_cycles",
            "p2p_cycles",
            "p2p_bytes",
            "fabric_packets",
            "fabric_frac",
            "class",
        ],
        rows,
    );
    println!("== scaling curves\n{}", curves.text());
    write_json_doc(&format!("scaling_{tag}"), &json.finish());
    curves.write_csv();
    if let Some(t) = node_trace {
        write_json_doc("scaling_trace", &t);
    }
    println!("invariants: sharded results match single-device, per-device counters telescope");
}

/// Run one workload sharded over `n_devices` and measure the node.
/// Returns the point plus the node Chrome trace when requested.
fn run_workload(
    w: Workload,
    n_devices: usize,
    jobs: usize,
    seed: u64,
    want_trace: bool,
) -> (Point, Option<String>) {
    let mut gcfg = GpuConfig::test_small();
    gcfg.trace = want_trace;
    let smem = gcfg.sm.smem_bytes;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (w.tag().len() as u64) << 17);
    let bases = |rng: &mut rand::rngs::StdRng, n: usize| -> Vec<u8> {
        (0..n).map(|_| rng.gen_range(0..4u8)).collect()
    };

    let mut program = Program::new();
    match w {
        Workload::Sw => {
            let kcfg = served::sw_cfg(SW_BUCKET, smem, SW_TPC);
            let kernel = program.add(build_dp_kernel("scale-sw", &kcfg));
            // Long pairs: heavy compute per transferred byte.
            let stride = SW_BUCKET as usize;
            let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..jobs)
                .map(|_| {
                    let ql = rng.gen_range(stride / 2..=stride);
                    let tl = rng.gen_range(stride / 2..=stride);
                    (bases(&mut rng, ql), bases(&mut rng, tl))
                })
                .collect();
            let [q, t, lens] =
                served::sw_encode(SW_BUCKET, pairs.iter().map(|(q, t)| (&q[..], &t[..])));
            let mut node = GpuNode::new(program, NodeConfig::new(n_devices, gcfg));
            for d in 0..n_devices {
                node.device_mut(d)
                    .bind_constants(kernel, scoring_const_data(&kcfg));
            }
            run_sharded(
                &mut node,
                jobs,
                &[(&q, stride), (&t, stride), (&lens, 4)],
                false,
                kernel,
                |_, s, out, nd| served::sw_launch(&kcfg, [s[0].0, s[1].0, s[2].0], out.0, nd),
            )
        }
        Workload::Fm => {
            let kernel = program.add(build_fm_search_kernel("scale-fm"));
            let genome = random_genome(FM_GENOME_LEN, &mut rng).codes().to_vec();
            let tables = FmTables::build(&genome);
            let mut reads = Vec::with_capacity(jobs * FM_READ_LEN as usize);
            for _ in 0..jobs {
                let s = rng.gen_range(0..FM_GENOME_LEN - FM_READ_LEN as usize);
                reads.extend_from_slice(&genome[s..s + FM_READ_LEN as usize]);
            }
            let mut node = GpuNode::new(program, NodeConfig::new(n_devices, gcfg));
            // Replicating the reference to every peer is the broadcast cost
            // that makes FM fabric-bound.
            let tabs = tables
                .upload_to_node(&mut node, kernel)
                .expect("replicate the FM tables");
            run_sharded(
                &mut node,
                jobs,
                &[(&reads, FM_READ_LEN as usize)],
                true,
                kernel,
                |d, s, out, nd| served::fm_launch(FM_READ_LEN, s[0].0, &tabs[d], out.0, nd),
            )
        }
        Workload::PairHmm => {
            let kcfg = served::pairhmm_cfg(PHMM_READ, PHMM_HAP, smem, PHMM_TPC);
            let kernel = program.add(build_pairhmm_kernel("scale-phmm", &kcfg));
            let mut reads = Vec::new();
            let mut quals = Vec::new();
            let mut haps = Vec::new();
            for _ in 0..jobs {
                let hap = bases(&mut rng, PHMM_HAP as usize);
                let s = rng.gen_range(0..=(PHMM_HAP - PHMM_READ) as usize);
                reads.extend_from_slice(&hap[s..s + PHMM_READ as usize]);
                quals.extend((0..PHMM_READ).map(|_| rng.gen_range(15..45u8)));
                haps.extend_from_slice(&hap);
            }
            let mut node = GpuNode::new(program, NodeConfig::new(n_devices, gcfg));
            for d in 0..n_devices {
                node.device_mut(d)
                    .bind_constants(kernel, phred_const_data());
            }
            run_sharded(
                &mut node,
                jobs,
                &[
                    (&reads, PHMM_READ as usize),
                    (&quals, PHMM_READ as usize),
                    (&haps, PHMM_HAP as usize),
                ],
                false,
                kernel,
                |_, s, out, nd| served::pairhmm_launch(&kcfg, [s[0].0, s[1].0, s[2].0], out.0, nd),
            )
        }
    }
}

/// Scatter → compute → gather one workload across the node's devices.
///
/// `slabs` is the full per-job input data as `(bytes, per_job_stride)`;
/// each shard is a contiguous byte range of every slab. `launch` is the
/// workload's pipeline: the launch shape and parameter words for a device,
/// its shard's device-local slab pointers, its output pointer and its job
/// count. Results are merged in device-index order and read back from
/// device 0.
fn run_sharded(
    node: &mut GpuNode,
    jobs: usize,
    slabs: &[(&Vec<u8>, usize)],
    zero_out: bool,
    kernel: KernelId,
    launch: impl Fn(usize, &[DevicePtr], DevicePtr, u64) -> (LaunchDims, Vec<u64>),
) -> (Point, Option<String>) {
    let n_devices = node.n_devices();
    let shards = shard_ranges(jobs, n_devices);

    // Stage the full input on device 0 and allocate the merged output.
    let dev0_slabs: Vec<DevicePtr> = slabs
        .iter()
        .map(|(bytes, _)| {
            let p = node
                .device_mut(0)
                .try_malloc(bytes.len() as u64)
                .expect("alloc");
            node.device_mut(0).memcpy_h2d(p, bytes);
            p
        })
        .collect();
    let out0 = node
        .device_mut(0)
        .try_malloc(jobs as u64 * 8)
        .expect("alloc");
    if zero_out {
        node.device_mut(0).memcpy_h2d(out0, &vec![0u8; jobs * 8]);
    }

    // Scatter each peer's shard slice over the fabric.
    let mut dev_slabs: Vec<Vec<DevicePtr>> = vec![dev0_slabs.clone()];
    let mut dev_out: Vec<DevicePtr> = vec![out0];
    for (d, shard) in shards.iter().enumerate().skip(1) {
        let nd = shard.len();
        let mut ptrs = Vec::new();
        for (i, (_, stride)) in slabs.iter().enumerate() {
            let p = node
                .device_mut(d)
                .try_malloc((nd * stride) as u64)
                .expect("alloc");
            node.p2p_copy(
                0,
                DevicePtr(dev0_slabs[i].0 + (shard.start * stride) as u64),
                d,
                p,
                nd * stride,
            );
            ptrs.push(p);
        }
        let o = node.device_mut(d).try_malloc(nd as u64 * 8).expect("alloc");
        if zero_out {
            node.device_mut(d).memcpy_h2d(o, &vec![0u8; nd * 8]);
        }
        dev_slabs.push(ptrs);
        dev_out.push(o);
    }
    node.sync_all();

    // Shard-parallel compute.
    for (d, shard) in shards.iter().enumerate() {
        let nd = shard.len() as u64;
        if nd == 0 {
            continue;
        }
        let (dims, words) = launch(d, &dev_slabs[d], dev_out[d], nd);
        node.device_mut(d)
            .try_launch(kernel, dims, &words)
            .expect("launch");
    }
    node.sync_all();

    // Gather peer results into the merged slab in device-index order.
    for (d, shard) in shards.iter().enumerate().skip(1) {
        if shard.is_empty() {
            continue;
        }
        node.p2p_copy(
            d,
            dev_out[d],
            0,
            DevicePtr(out0.0 + (shard.start * 8) as u64),
            shard.len() * 8,
        );
    }
    node.sync_all();
    let out = node.device_mut(0).memcpy_d2h(out0, jobs * 8);

    let stats = node.stats();
    verify_telescoping(&stats);
    let total = stats.total();
    let point = Point {
        devices: n_devices,
        node_cycles: node.devices().map(ggpu_sim::Gpu::cycle).max().unwrap_or(0),
        kernel_cycles: total.host.kernel_cycles,
        p2p_cycles: total.host.p2p_cycles,
        p2p_bytes: total.host.p2p_bytes_out,
        fabric_packets: stats.fabric.packets,
        per_device_cycles: node.devices().map(ggpu_sim::Gpu::cycle).collect(),
        out,
    };
    let trace = node
        .device(0)
        .profiling_enabled()
        .then(|| node.chrome_trace());
    (point, trace)
}

/// Per-device counters must telescope exactly to the node totals: an
/// independent field-wise sum over `devices` equals `total()`.
fn verify_telescoping(stats: &ggpu_sim::NodeStats) {
    let mut sum = RunStats::default();
    for d in &stats.devices {
        sum.merge(d);
    }
    let total = stats.total();
    if sum != total {
        eprintln!("INVARIANT VIOLATED: per-device counters do not telescope to node totals");
        eprintln!("  summed: {sum:?}");
        eprintln!("  total:  {total:?}");
        std::process::exit(1);
    }
    let bytes_out: u64 = stats.devices.iter().map(|d| d.host.p2p_bytes_out).sum();
    let bytes_in: u64 = stats.devices.iter().map(|d| d.host.p2p_bytes_in).sum();
    if bytes_out != bytes_in {
        eprintln!("INVARIANT VIOLATED: fabric bytes out {bytes_out} != bytes in {bytes_in}");
        std::process::exit(1);
    }
}
