//! Layer probes: the fastest of K timed calls into a layer's public
//! functions, on fixed synthetic inputs. They cost a few seconds in all,
//! depend on no workload, and say what one operation of a layer costs on
//! this host, so a per-layer optimisation has a number to move before it
//! shows end to end.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ggpu_core::{benchmark, GpuConfig, Scale};
use ggpu_genomics::{random_genome, sw_score, GapModel, Simple};
use ggpu_icnt::{DeliveryQueue, Icnt, IcntConfig};
use ggpu_isa::{AtomOp, KernelBuilder, KernelId, LaunchDims, Operand, Program, Width, WARP_SIZE};
use ggpu_kernels::dp::build_dp_kernel;
use ggpu_kernels::nvb::FmTables;
use ggpu_kernels::pairwise::{GAP_EXTEND, GAP_OPEN, MATCH, MISMATCH};
use ggpu_mem::{Cache, Dram, DramConfig};
use ggpu_serve::{traffic, Priority, Service, Tenant};
use ggpu_sim::Gpu;
use ggpu_sm::{coalesce_lines, run_standalone, CtaConfig, GlobalMem, SmConfig, SmCore};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dp::DpShape;
use crate::metrics::Values;
use crate::workload::SIM_THREADS;

/// Fastest of `k` runs of `f`, in nanoseconds per unit of work; `f`
/// returns how many units it did.
fn fastest_ns(k: usize, mut f: impl FnMut() -> u64) -> f64 {
    (0..k)
        .map(|_| {
            let t = Instant::now();
            let units = f();
            t.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// A program holding one kernel that exits at once.
fn exit_program() -> (Program, KernelId) {
    let mut b = KernelBuilder::new("probe-exit");
    b.exit();
    let mut p = Program::new();
    let k = p.add(b.finish());
    (p, k)
}

/// Memory for an SM that never touches memory.
struct NoMem;

impl GlobalMem for NoMem {
    fn read(&self, _: u64, _: Width) -> u64 {
        0
    }
    fn write(&mut self, _: u64, _: Width, _: u64) {}
    fn atom(&mut self, _: AtomOp, _: u64, _: u64, _: u64) -> u64 {
        0
    }
}

fn isa(v: &mut Values, k: usize) {
    let cfg = DpShape::SW_SMALL.kernel_cfg();
    v.set(
        "isa.build_dp_kernel_us",
        fastest_ns(k * 20, || {
            let kernel = build_dp_kernel("probe-sw", black_box(&cfg));
            kernel.validate().expect("the DP emitter emits valid code");
            black_box(kernel);
            1
        }) / 1e3,
    );
}

fn sm(v: &mut Values, k: usize) {
    // One 64-thread CTA spinning a 2000-trip integer loop: interpreter
    // and scheduler cost with no memory system behind it.
    let mut b = KernelBuilder::new("probe-alu");
    let acc = b.reg();
    b.mov(acc, Operand::imm(1));
    b.for_range(Operand::imm(0), Operand::imm(2000), 1, |b, i| {
        b.imul(acc, acc, Operand::imm(3));
        b.iadd(acc, acc, Operand::reg(i));
        b.ixor(acc, acc, Operand::imm(0x55));
    });
    b.exit();
    let mut p = Program::new();
    let kernel_id = p.add(b.finish());
    let program = Arc::new(p);
    v.set(
        "sm.standalone_ns_per_instr",
        fastest_ns(k, || {
            let mut core = SmCore::new(SmConfig::default(), Arc::clone(&program));
            let placed = core.try_launch_cta(CtaConfig {
                kernel_id,
                grid_handle: 1,
                cta_linear: 0,
                dims: LaunchDims::linear(1, 64),
                params: Arc::new(Vec::new()),
                const_data: Arc::new(Vec::new()),
                local_base: 1 << 30,
                local_stride: 0,
            });
            assert!(placed, "an empty SM takes one CTA");
            run_standalone(&mut core, &mut NoMem, 10_000_000).expect("the ALU loop terminates");
            core.stats().issued
        }),
    );

    // A 32-lane access with a 136-byte stride: every lane its own line,
    // the worst case of the dedup scan.
    let mut addrs = [0u64; WARP_SIZE];
    for (lane, a) in addrs.iter_mut().enumerate() {
        *a = 0x1000 + lane as u64 * 136;
    }
    let mut lines = Vec::new();
    v.set(
        "sm.coalesce_ns",
        fastest_ns(k * 10, || {
            for _ in 0..1000 {
                coalesce_lines(black_box(&addrs), u32::MAX, 8, &mut lines);
                black_box(&lines);
            }
            1000
        }),
    );
}

fn mem(v: &mut Values, k: usize) {
    let l1 = SmConfig::default().l1;
    let mut cache = Cache::new(l1);
    // 64 resident lines, touched round-robin.
    for line in 0..64u64 {
        cache.access(line * l1.line, false);
        cache.fill(line * l1.line, false);
    }
    v.set(
        "mem.cache_hit_ns",
        fastest_ns(k * 10, || {
            for i in 0..4096u64 {
                black_box(cache.access((i % 64) * l1.line, false));
            }
            4096
        }),
    );
    // A stream of new lines: each access misses, allocates an MSHR, and
    // is filled before the next, evicting once the cache is full.
    let mut next = 1u64 << 20;
    v.set(
        "mem.cache_miss_fill_ns",
        fastest_ns(k * 10, || {
            for _ in 0..4096 {
                next += l1.line;
                black_box(cache.access(next, false));
                cache.fill(next, false);
            }
            4096
        }),
    );
    // One request pushed per cycle, addresses striding rows and banks,
    // ticked until the channel drains.
    v.set(
        "mem.dram_req_ns",
        fastest_ns(k, || {
            let mut dram = Dram::new(DramConfig::default());
            let (mut now, mut sent, mut done) = (0u64, 0u64, 0u64);
            while done < 4096 {
                if sent < 4096 && dram.push(sent, sent * 4160, now) {
                    sent += 1;
                }
                done += dram.tick(now).len() as u64;
                now += 1;
            }
            4096
        }),
    );
}

fn icnt(v: &mut Values, k: usize) {
    v.set(
        "icnt.send_ns",
        fastest_ns(k, || {
            let mut net = Icnt::new(IcntConfig::default(), 78, 8);
            for i in 0..8192usize {
                let (from, to) = (net.src_node(i % 78), net.dst_node(i % 8));
                black_box(net.send(from, to, 128, i as u64 / 4));
            }
            8192
        }),
    );
    v.set(
        "icnt.queue_op_ns",
        fastest_ns(k, || {
            let mut q = DeliveryQueue::new();
            let mut popped = 0u64;
            for now in 0..8192u64 {
                q.push(now + 40 + (now * 7) % 13, now);
                while let Some(item) = q.pop_due(now) {
                    popped += black_box(item) & 1;
                }
            }
            black_box(popped);
            8192
        }),
    );
}

fn sim(v: &mut Values, k: usize) {
    let big = GpuConfig::rtx3070().with_sim_threads(SIM_THREADS);
    let small = GpuConfig::test_small().with_sim_threads(SIM_THREADS);
    for (name, cfg) in [("sim.gpu_new_ms", &big), ("sim.gpu_new_small_ms", &small)] {
        v.set(
            name,
            fastest_ns(k, || {
                black_box(Gpu::new(exit_program().0, cfg.clone()));
                1
            }) / 1e6,
        );
    }

    let (program, kernel) = exit_program();
    let mut gpu = Gpu::new(program, big.clone());
    let data = vec![0xA5u8; 1 << 20];
    let dst = gpu.malloc(data.len() as u64);
    v.set(
        "sim.memcpy_h2d_ns_per_kb",
        fastest_ns(k, || {
            gpu.memcpy_h2d(dst, black_box(&data));
            1024
        }),
    );
    v.set(
        "sim.empty_kernel_us",
        fastest_ns(k * 5, || {
            gpu.launch(kernel, LaunchDims::linear(1, 32), &[]);
            black_box(gpu.synchronize());
            1
        }) / 1e3,
    );
    // The same launch with fast-forward off: nearly all of its cycles are
    // launch overhead with nothing resident, so this is what polling 78
    // idle SMs and 8 idle partitions costs per simulated cycle.
    let (program, kernel) = exit_program();
    let mut ticking = Gpu::new(program, big.clone().with_fast_forward(false));
    v.set(
        "sim.idle_cycle_ns",
        fastest_ns(k, || {
            ticking.launch(kernel, LaunchDims::linear(1, 32), &[]);
            ticking.synchronize()
        }),
    );

    // ROADMAP item 2's number: the engine at its default thread count
    // over the engine pinned to one thread, on SW/Tiny. Thread-noisy.
    let sw = benchmark(Scale::Tiny, "SW").expect("SW is in the suite");
    let default_cfg = GpuConfig::rtx3070();
    let mut threads = 0;
    let at_default = fastest_ns(k, || {
        threads = black_box(sw.run(&default_cfg, false)).sim_threads;
        1
    });
    let serial = fastest_ns(k, || {
        black_box(sw.run(&big, false));
        1
    });
    v.set("sim.default_over_serial", at_default / serial);
    v.set("sim.default_threads", threads as f64);
}

fn genomics(v: &mut Values, k: usize) {
    let mut rng = StdRng::seed_from_u64(7);
    let a = random_genome(256, &mut rng);
    let b = random_genome(256, &mut rng);
    let subst = Simple::new(MATCH, MISMATCH);
    let gaps = GapModel::Affine {
        open: GAP_OPEN,
        extend: GAP_EXTEND,
    };
    v.set(
        "genomics.sw_cell_ns",
        fastest_ns(k * 5, || {
            black_box(sw_score(black_box(a.codes()), b.codes(), &subst, gaps));
            256 * 256
        }),
    );
    let genome = random_genome(traffic::GENOME_LEN, &mut rng);
    v.set(
        "genomics.fm_build_us",
        fastest_ns(k * 5, || {
            black_box(FmTables::build(black_box(genome.codes())));
            1
        }) / 1e3,
    );
}

fn serve(v: &mut Values, k: usize) {
    let mut rng = StdRng::seed_from_u64(7);
    let genome = random_genome(traffic::GENOME_LEN, &mut rng)
        .codes()
        .to_vec();
    let mut cfg = traffic::base_config(&genome);
    cfg.gpu.sim_threads = SIM_THREADS;
    let new_service = || Service::new(cfg.clone()).expect("the base configuration is valid");
    v.set(
        "serve.service_new_ms",
        fastest_ns(k * 5, || {
            black_box(new_service());
            1
        }) / 1e6,
    );
    // 24 admissions fill the queue exactly; a fresh service each time so
    // none is refused.
    let jobs: Vec<_> = (0..24)
        .map(|_| traffic::gen_job(&genome, &mut rng))
        .collect();
    let mut loaded = None;
    let mut submit_ns = f64::INFINITY;
    for _ in 0..k * 5 {
        let mut svc = new_service();
        let pending = jobs.clone();
        let t = Instant::now();
        for (i, kind) in pending.into_iter().enumerate() {
            svc.submit(Tenant(i as u32 % traffic::TENANTS), Priority(1), None, kind)
                .expect("24 jobs fit a 24-deep queue");
        }
        submit_ns = submit_ns.min(t.elapsed().as_nanos() as f64 / 24.0);
        loaded = Some(svc);
    }
    v.set("serve.submit_ns", submit_ns);
    let mut svc = loaded.expect("the probe above ran");
    svc.run_until_idle(1000).expect("no device-wide fault");
    v.set(
        "serve.idle_round_us",
        fastest_ns(k * 5, || {
            for _ in 0..1000 {
                svc.run_round().expect("no device-wide fault");
            }
            1000
        }) / 1e3,
    );
    v.set(
        "serve.report_ms",
        fastest_ns(k * 5, || {
            black_box(svc.report());
            1
        }) / 1e6,
    );
}

/// Run every probe, `k` samples each (times a per-probe factor).
pub fn run(v: &mut Values, k: usize) {
    isa(v, k);
    sm(v, k);
    mem(v, k);
    icnt(v, k);
    sim(v, k);
    genomics(v, k);
    serve(v, k);
}
