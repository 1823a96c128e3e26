//! Functional tests for the serving layer: results match the CPU
//! oracles, admission control is typed, and priorities shed correctly.

use ggpu_genomics::{random_genome, sw_score, GapModel, PairHmm, Simple};
use ggpu_kernels::nvb::FmTables;
use ggpu_kernels::pairhmm::{GAP_EXT_P, GAP_OPEN_P};
use ggpu_kernels::pairwise::{GAP_EXTEND, GAP_OPEN, MATCH, MISMATCH};
use ggpu_serve::{
    AdmitError, JobKind, JobOutcome, JobOutput, Priority, ServeConfig, Service, Tenant, MAX_BATCH,
    TENANT_QUOTA, WORKERS,
};
use rand::{Rng, SeedableRng};

fn rand_seq(rng: &mut rand::rngs::StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0..4u8)).collect()
}

#[test]
fn pairwise_results_match_cpu_oracle() {
    let mut svc = Service::new(ServeConfig::test_small()).expect("build service");
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut expected = Vec::new();
    for _ in 0..12 {
        // Mixed lengths to exercise both buckets and in-bucket padding.
        let ql = rng.gen_range(8..60usize);
        let tl = rng.gen_range(8..60usize);
        let q = rand_seq(&mut rng, ql);
        let t = rand_seq(&mut rng, tl);
        let subst = Simple::new(MATCH, MISMATCH);
        let gaps = GapModel::Affine {
            open: GAP_OPEN,
            extend: GAP_EXTEND,
        };
        expected.push(sw_score(&q, &t, &subst, gaps) as i64);
        svc.submit(
            Tenant(0),
            Priority(0),
            None,
            JobKind::Pairwise {
                query: q,
                target: t,
            },
        )
        .expect("admit");
    }
    svc.run_until_idle(100).expect("no device-wide fault");
    let outcomes = svc.take_outcomes();
    assert_eq!(outcomes.len(), expected.len());
    for ((id, outcome), want) in outcomes.iter().zip(&expected) {
        match outcome {
            JobOutcome::Done(JobOutput::Score(s)) => {
                assert_eq!(s, want, "{id}: wrong SW score");
            }
            other => panic!("{id}: expected Done(Score), got {other:?}"),
        }
    }
    let m = svc.metrics();
    assert_eq!(m.completed, 12);
    assert_eq!(m.failed + m.deadline_exceeded + m.shed, 0);
}

#[test]
fn fm_mapping_matches_cpu_oracle() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(22);
    let genome = random_genome(600, &mut rng);
    let mut cfg = ServeConfig::test_small();
    cfg.fm_genome = genome.codes().to_vec();
    let tables = FmTables::build(genome.codes());
    let mut svc = Service::new(cfg).expect("build service");
    let mut expected = Vec::new();
    for i in 0..10 {
        let read: Vec<u8> = if i % 3 == 2 {
            rand_seq(&mut rng, 16) // usually unmappable
        } else {
            let start = rng.gen_range(0..600 - 16);
            genome.codes()[start..start + 16].to_vec()
        };
        expected.push(tables.map_read(&read));
        svc.submit(Tenant(1), Priority(0), None, JobKind::FmMap { read })
            .expect("admit");
    }
    svc.run_until_idle(100).expect("no device-wide fault");
    for ((id, outcome), want) in svc.take_outcomes().iter().zip(&expected) {
        match outcome {
            JobOutcome::Done(JobOutput::Mapping { score, pos }) => {
                let packed = ((*score as u64) << 32) | *pos as u64;
                assert_eq!(packed, *want, "{id}: wrong mapping");
            }
            other => panic!("{id}: expected Done(Mapping), got {other:?}"),
        }
    }
}

#[test]
fn pairhmm_likelihoods_match_cpu_oracle() {
    let mut svc = Service::new(ServeConfig::test_small()).expect("build service");
    let mut rng = rand::rngs::StdRng::seed_from_u64(33);
    let hmm = PairHmm {
        gap_open: GAP_OPEN_P,
        gap_ext: GAP_EXT_P,
    };
    let mut expected = Vec::new();
    for _ in 0..6 {
        let hap = rand_seq(&mut rng, 14);
        let start = rng.gen_range(0..=4usize);
        let read: Vec<u8> = hap[start..start + 10].to_vec();
        let quals: Vec<u8> = (0..10).map(|_| rng.gen_range(15..45u8)).collect();
        expected.push(hmm.forward(&read, &quals, &hap));
        svc.submit(
            Tenant(2),
            Priority(0),
            None,
            JobKind::PairHmm { read, quals, hap },
        )
        .expect("admit");
    }
    svc.run_until_idle(100).expect("no device-wide fault");
    for ((id, outcome), want) in svc.take_outcomes().iter().zip(&expected) {
        match outcome {
            JobOutcome::Done(JobOutput::LogLik(got)) => {
                assert!(
                    got.is_finite() && (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "{id}: log-lik {got} != {want}"
                );
            }
            other => panic!("{id}: expected Done(LogLik), got {other:?}"),
        }
    }
}

#[test]
fn overload_is_typed_and_sheds_by_priority() {
    let mut cfg = ServeConfig::test_small();
    cfg.queue_capacity = 4;
    let mut svc = Service::new(cfg).expect("build service");
    let job = |_p: u8| JobKind::Pairwise {
        query: vec![0, 1, 2, 3],
        target: vec![0, 1, 2, 3],
    };
    let low = svc
        .submit(Tenant(0), Priority(1), None, job(1))
        .expect("admit low");
    for _ in 0..3 {
        svc.submit(Tenant(0), Priority(2), None, job(2))
            .expect("admit");
    }
    // Queue full. Equal priority must be refused with a typed error...
    match svc.submit(Tenant(0), Priority(1), None, job(1)) {
        Err(AdmitError::Overloaded { retry_after_rounds }) => {
            assert!(retry_after_rounds >= 1);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // ...while a strictly higher priority sheds the lowest-priority job.
    let high = svc
        .submit(Tenant(0), Priority(5), None, job(5))
        .expect("high-priority arrival must be admitted");
    assert_eq!(svc.outcome(low), Some(&JobOutcome::Shed));
    svc.run_until_idle(100).expect("no device-wide fault");
    assert!(matches!(svc.outcome(high), Some(JobOutcome::Done(_))));
    let m = svc.metrics();
    assert_eq!(m.shed, 1);
    assert_eq!(m.rejected_overload, 1);
}

#[test]
fn quota_and_shape_rejections_are_typed() {
    // A queue deeper than the quota, so the quota is what refuses.
    let mut cfg = ServeConfig::test_small();
    cfg.queue_capacity = TENANT_QUOTA + 8;
    let mut svc = Service::new(cfg).expect("build service");
    let pair = || JobKind::Pairwise {
        query: vec![0, 1],
        target: vec![2, 3],
    };
    for i in 0..TENANT_QUOTA {
        svc.submit(Tenant(7), Priority(0), None, pair())
            .unwrap_or_else(|e| panic!("job {i} is within the quota: {e:?}"));
    }
    match svc.submit(Tenant(7), Priority(0), None, pair()) {
        Err(AdmitError::QuotaExceeded {
            tenant,
            in_flight,
            quota,
        }) => {
            assert_eq!(tenant, Tenant(7));
            assert_eq!((in_flight, quota), (TENANT_QUOTA, TENANT_QUOTA));
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    // Other tenants are unaffected.
    svc.submit(Tenant(8), Priority(0), None, pair())
        .expect("other tenant admits");
    // Oversized and malformed jobs are refused by shape.
    match svc.submit(
        Tenant(8),
        Priority(0),
        None,
        JobKind::Pairwise {
            query: vec![0; 1000],
            target: vec![1; 1000],
        },
    ) {
        Err(AdmitError::TooLarge { len: 1000, max: 64 }) => {}
        other => panic!("expected TooLarge, got {other:?}"),
    }
    match svc.submit(
        Tenant(8),
        Priority(0),
        None,
        JobKind::FmMap { read: vec![0; 16] },
    ) {
        Err(AdmitError::UnsupportedShape { .. }) => {} // no FM reference configured
        other => panic!("expected UnsupportedShape, got {other:?}"),
    }
    // Quota releases as jobs finish: after draining, tenant 7 can submit
    // again.
    svc.run_until_idle(100).expect("no device-wide fault");
    svc.submit(Tenant(7), Priority(0), None, pair())
        .expect("quota released after completion");
}

#[test]
fn metrics_conserve_submissions_and_track_saturation() {
    // Exercise every admission gate — overload, quota, shape, shedding —
    // then drain, and check the ServeMetrics conservation invariants:
    //   submitted == admitted + rejected_overload + rejected_quota
    //                + rejected_shape
    //   admitted  == completed + failed + deadline_exceeded + shed
    // The queue holds tenant 0's whole quota and one job more.
    let mut cfg = ServeConfig::test_small();
    cfg.queue_capacity = TENANT_QUOTA + 1;
    let mut svc = Service::new(cfg).expect("build service");
    let pair = |p: u8| JobKind::Pairwise {
        query: vec![p % 4; 8],
        target: vec![(p + 1) % 4; 8],
    };
    // Tenant 0 exhausts its quota (64 admitted, the next refused).
    for _ in 0..TENANT_QUOTA {
        svc.submit(Tenant(0), Priority(1), None, pair(0))
            .expect("admit within quota");
    }
    assert!(matches!(
        svc.submit(Tenant(0), Priority(1), None, pair(0)),
        Err(AdmitError::QuotaExceeded { .. })
    ));
    // Tenant 1 fills the queue (1 more slot), then overloads it.
    svc.submit(Tenant(1), Priority(1), None, pair(1))
        .expect("fill the last slot");
    assert!(matches!(
        svc.submit(Tenant(1), Priority(1), None, pair(1)),
        Err(AdmitError::Overloaded { .. })
    ));
    // A higher-priority arrival sheds the lowest-priority queued job.
    svc.submit(Tenant(2), Priority(9), None, pair(2))
        .expect("high priority must shed its way in");
    // A malformed job is refused by shape.
    assert!(matches!(
        svc.submit(
            Tenant(2),
            Priority(0),
            None,
            JobKind::Pairwise {
                query: vec![0; 1000],
                target: vec![1; 1000],
            },
        ),
        Err(AdmitError::TooLarge { .. })
    ));
    svc.run_until_idle(100).expect("no device-wide fault");
    assert_eq!(svc.backlog(), 0);

    let m = svc.metrics();
    assert_eq!(
        m.submitted,
        m.admitted + m.rejected_overload + m.rejected_quota + m.rejected_shape,
        "admission is not total: {m:?}"
    );
    assert_eq!(
        m.admitted,
        m.completed + m.failed + m.deadline_exceeded + m.shed,
        "a drained service must account every admitted job: {m:?}"
    );
    let quota = TENANT_QUOTA as u64;
    assert_eq!(m.submitted, quota + 5);
    assert_eq!(m.admitted, quota + 2);
    assert_eq!(m.rejected_quota, 1);
    assert_eq!(m.rejected_overload, 1);
    assert_eq!(m.rejected_shape, 1);
    assert_eq!(m.shed, 1);
    // Every admitted job reached exactly one terminal outcome.
    assert_eq!(svc.take_outcomes().len(), m.admitted as usize);

    // Saturation gauges: the queue hit its bound while filling, and both
    // gauges return to zero once drained.
    assert_eq!(
        m.queue_depth_hwm,
        quota + 1,
        "queue saturation went unrecorded"
    );
    assert_eq!(m.queue_depth, 0);
    assert!(m.inflight_batches_hwm >= 1);
    assert_eq!(m.inflight_batches, 0);
}

/// A round cap fails the queued jobs without a `queue_depth` event; the
/// queue-depth gauge still reads the empty queue, before and after the
/// next round.
#[test]
fn a_round_cap_drain_empties_the_queue_gauge() {
    let mut svc = Service::new(ServeConfig::test_small()).expect("build service");
    for _ in 0..20 {
        let kind = JobKind::Pairwise {
            query: vec![1; 20],
            target: vec![2; 20],
        };
        svc.submit(Tenant(0), Priority(0), None, kind)
            .expect("20 jobs fit a 32-deep queue and a quota of 64");
    }
    // One round launches a batch per worker; the cap fails the rest.
    svc.run_until_idle(1).expect("no device-wide fault");
    let m = svc.metrics();
    let rest = (20 - WORKERS * MAX_BATCH) as u64;
    assert_eq!(
        (svc.backlog(), m.failed),
        (0, rest),
        "the cap failed the rest"
    );
    assert_eq!(m.queue_depth, 0);
    svc.run_round().expect("no device-wide fault");
    assert_eq!(svc.metrics().queue_depth, 0);
}

#[test]
fn mixed_shapes_batch_separately_and_all_complete() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(44);
    let genome = random_genome(400, &mut rng);
    let mut cfg = ServeConfig::test_small();
    cfg.fm_genome = genome.codes().to_vec();
    let mut svc = Service::new(cfg).expect("build service");
    let mut n = 0;
    for i in 0..18 {
        let kind = match i % 3 {
            0 => JobKind::Pairwise {
                query: rand_seq(&mut rng, 20),
                target: rand_seq(&mut rng, 24),
            },
            1 => {
                let start = rng.gen_range(0..400 - 16);
                JobKind::FmMap {
                    read: genome.codes()[start..start + 16].to_vec(),
                }
            }
            _ => {
                let hap = rand_seq(&mut rng, 14);
                JobKind::PairHmm {
                    read: hap[..10].to_vec(),
                    quals: vec![30; 10],
                    hap,
                }
            }
        };
        svc.submit(Tenant(i % 4), Priority(0), None, kind)
            .expect("admit");
        n += 1;
    }
    svc.run_until_idle(200).expect("no device-wide fault");
    let outcomes = svc.take_outcomes();
    assert_eq!(outcomes.len(), n);
    assert!(outcomes
        .iter()
        .all(|(_, o)| matches!(o, JobOutcome::Done(_))));
    // Fused batching actually happened: fewer grids than jobs.
    let m = svc.metrics();
    assert!(m.batches_launched < n as u64);
    // Every grid record is stamped with a non-default stream.
    assert!(svc.kernel_records().iter().all(|r| r.stream >= 1));
}

#[test]
fn device_allocations_stay_flat_across_shape_changes() {
    // The request path must never allocate device memory: worker slabs
    // are built once in `Service::new` and recycled across every batch
    // and every shape. Run waves of each shape in rotation and pin the
    // per-device allocation counters after the first full rotation.
    let mut rng = rand::rngs::StdRng::seed_from_u64(55);
    let genome = random_genome(400, &mut rng);
    let mut cfg = ServeConfig::test_small();
    cfg.fm_genome = genome.codes().to_vec();
    let mut svc = Service::new(cfg).expect("build service");
    let wave = |svc: &mut Service, shape: usize, rng: &mut rand::rngs::StdRng| {
        for _ in 0..4 {
            let kind = match shape {
                0 => JobKind::Pairwise {
                    query: rand_seq(rng, 20),
                    target: rand_seq(rng, 24),
                },
                1 => JobKind::Pairwise {
                    // The other length bucket: a different kernel and
                    // different slab strides on the same worker slabs.
                    query: rand_seq(rng, 50),
                    target: rand_seq(rng, 60),
                },
                2 => {
                    let start = rng.gen_range(0..400 - 16);
                    JobKind::FmMap {
                        read: genome.codes()[start..start + 16].to_vec(),
                    }
                }
                _ => {
                    let hap = rand_seq(rng, 14);
                    JobKind::PairHmm {
                        read: hap[..10].to_vec(),
                        quals: vec![30; 10],
                        hap,
                    }
                }
            };
            svc.submit(Tenant(0), Priority(0), None, kind)
                .expect("admit");
        }
        svc.run_until_idle(200).expect("no device-wide fault");
    };
    // Warmup: every shape has executed at least once.
    for shape in 0..4 {
        wave(&mut svc, shape, &mut rng);
    }
    let warm = svc.device_alloc_count();
    // Keep rotating shapes: no shape change may allocate device memory.
    for round in 0..3 {
        for shape in 0..4 {
            wave(&mut svc, shape, &mut rng);
            assert_eq!(
                svc.device_alloc_count(),
                warm,
                "allocation count grew in round {round} after switching to shape {shape}"
            );
        }
    }
    assert!(
        matches!(svc.metrics().completed, n if n == 16 + 3 * 16),
        "all waves completed"
    );
}
