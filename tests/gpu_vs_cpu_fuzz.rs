//! Property test across the whole stack: random pairwise workloads are run
//! through the simulated-GPU DP kernel in every mode and must match the
//! CPU reference algorithms exactly.

use ggpu_isa::{LaunchDims, Program};
use ggpu_kernels::dp::{build_dp_kernel, scoring_const_data, DpArgs, DpKernelCfg, DpMode};
use ggpu_kernels::host::{read_i64s, upload, upload_u32s};
use ggpu_sim::{Gpu, GpuConfig};
use proptest::prelude::*;

use ggpu_genomics::{ksw_extend, nw_score, semiglobal_score, sw_score, GapModel, Simple};

const SUB: Simple = Simple {
    matches: 2,
    mismatch: -3,
};
const GAPS: GapModel = GapModel::Affine { open: 5, extend: 2 };
const MAX_LEN: u32 = 16;

/// Run `n_pairs` random pairs through the DP kernel under `mode`.
fn gpu_scores(mode: DpMode, rows_in_smem: bool, q: &[u8], t: &[u8], lens: &[u32]) -> Vec<i64> {
    let n = lens.len();
    let cfg = DpKernelCfg {
        rows_in_smem,
        matches: SUB.matches,
        mismatch: SUB.mismatch,
        ..DpKernelCfg::new(mode, MAX_LEN, 32)
    };
    let mut program = Program::new();
    let k = program.add(build_dp_kernel("fuzz", &cfg));
    let mut config = GpuConfig::test_small();
    config.n_sms = 2;
    let mut gpu = Gpu::new(program, config);
    gpu.bind_constants(k, scoring_const_data(&cfg));
    let dims = LaunchDims::linear(1, 32);
    let qb = upload(&mut gpu, q);
    let tb = upload(&mut gpu, t);
    let lb = upload_u32s(&mut gpu, lens);
    let ob = gpu.malloc(n as u64 * 8);
    let args = DpArgs {
        q: qb.0,
        t: tb.0,
        out: ob.0,
        n_pairs: n as u64,
        stride: dims.total_threads(),
        lens: lb.0,
        ..Default::default()
    };
    gpu.run_kernel(k, dims, &args.words());
    read_i64s(&mut gpu, ob, n)
}

fn cpu_score(mode: DpMode, q: &[u8], t: &[u8]) -> i64 {
    (match mode {
        DpMode::Global => nw_score(q, t, &SUB, GAPS),
        DpMode::Local => sw_score(q, t, &SUB, GAPS),
        DpMode::SemiGlobal => semiglobal_score(q, t, &SUB, GAPS),
        DpMode::Extend { zdrop } => ksw_extend(q, t, &SUB, GAPS, usize::MAX, zdrop).score,
    }) as i64
}

fn workload() -> impl Strategy<Value = (Vec<u8>, Vec<u8>, Vec<u32>)> {
    prop::collection::vec(
        (
            1u32..=MAX_LEN,
            prop::collection::vec(0u8..4, 2 * MAX_LEN as usize),
        ),
        1..6,
    )
    .prop_map(|pairs| {
        let n = pairs.len();
        let mut q = vec![0u8; n * MAX_LEN as usize];
        let mut t = vec![0u8; n * MAX_LEN as usize];
        let mut lens = Vec::with_capacity(n);
        for (p, (len, bases)) in pairs.into_iter().enumerate() {
            let len = len as usize;
            q[p * MAX_LEN as usize..p * MAX_LEN as usize + len].copy_from_slice(&bases[..len]);
            t[p * MAX_LEN as usize..p * MAX_LEN as usize + len]
                .copy_from_slice(&bases[MAX_LEN as usize..MAX_LEN as usize + len]);
            lens.push(len as u32);
        }
        (q, t, lens)
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn gpu_global_matches_cpu((q, t, lens) in workload()) {
        let got = gpu_scores(DpMode::Global, false, &q, &t, &lens);
        for (p, &len) in lens.iter().enumerate() {
            let base = p * MAX_LEN as usize;
            let want = cpu_score(DpMode::Global, &q[base..base + len as usize], &t[base..base + len as usize]);
            prop_assert_eq!(got[p], want, "pair {}", p);
        }
    }

    #[test]
    fn gpu_local_matches_cpu((q, t, lens) in workload()) {
        let got = gpu_scores(DpMode::Local, false, &q, &t, &lens);
        for (p, &len) in lens.iter().enumerate() {
            let base = p * MAX_LEN as usize;
            let want = cpu_score(DpMode::Local, &q[base..base + len as usize], &t[base..base + len as usize]);
            prop_assert_eq!(got[p], want, "pair {}", p);
        }
    }

    #[test]
    fn gpu_semiglobal_matches_cpu((q, t, lens) in workload()) {
        let got = gpu_scores(DpMode::SemiGlobal, false, &q, &t, &lens);
        for (p, &len) in lens.iter().enumerate() {
            let base = p * MAX_LEN as usize;
            let want = cpu_score(DpMode::SemiGlobal, &q[base..base + len as usize], &t[base..base + len as usize]);
            prop_assert_eq!(got[p], want, "pair {}", p);
        }
    }

    #[test]
    fn gpu_extend_matches_cpu((q, t, lens) in workload()) {
        let mode = DpMode::Extend { zdrop: 10 };
        let got = gpu_scores(mode, false, &q, &t, &lens);
        for (p, &len) in lens.iter().enumerate() {
            let base = p * MAX_LEN as usize;
            let want = cpu_score(mode, &q[base..base + len as usize], &t[base..base + len as usize]);
            prop_assert_eq!(got[p], want, "pair {}", p);
        }
    }

    #[test]
    fn smem_and_local_rows_agree((q, t, lens) in workload()) {
        // The row-storage location is a pure timing choice; results must
        // be identical.
        let local = gpu_scores(DpMode::Global, false, &q, &t, &lens);
        let smem = gpu_scores(DpMode::Global, true, &q, &t, &lens);
        prop_assert_eq!(local, smem);
    }
}
