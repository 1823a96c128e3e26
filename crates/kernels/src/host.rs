//! What every host driver repeats around a launch: typed slices onto the
//! device, result words back, the split of work over launches, and the one
//! CDP-parent launch.
//!
//! The helpers allocate and transfer in call order and nothing else, so a
//! driver's allocation order (device addresses, hence cache and partition
//! mapping) and transfer order (the `FaultPlan` memcpy counter) are exactly
//! the order of its calls here.

use std::ops::Range;

use ggpu_isa::{KernelId, LaunchDims};
use ggpu_sim::{DevicePtr, Gpu, SimError};

use crate::dp::{DpParentArgs, DpSlot, DP_PARAM_WORDS};

/// Little-endian image of a `u32` table (lengths, indices, FM tables).
pub fn u32_bytes(xs: &[u32]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Little-endian image of an `i64` table (scores, thresholds, constants).
pub fn i64_bytes(xs: &[i64]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Allocate `bytes.len()` device bytes and copy `bytes` in: one allocation,
/// one PCIe transfer.
pub fn try_upload(gpu: &mut Gpu, bytes: &[u8]) -> Result<DevicePtr, SimError> {
    let ptr = gpu.try_malloc(bytes.len() as u64)?;
    gpu.try_memcpy_h2d(ptr, bytes)?;
    Ok(ptr)
}

/// [`try_upload`], panicking where it would return an error.
pub fn upload(gpu: &mut Gpu, bytes: &[u8]) -> DevicePtr {
    try_upload(gpu, bytes).unwrap_or_else(|e| panic!("upload failed: {e}"))
}

/// [`upload`] of a `u32` table.
pub fn upload_u32s(gpu: &mut Gpu, xs: &[u32]) -> DevicePtr {
    upload(gpu, &u32_bytes(xs))
}

/// The u64 words of a result slab.
pub fn u64_words(raw: &[u8]) -> impl Iterator<Item = u64> + '_ {
    raw.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte word")))
}

/// Copy `n` u64 result words home (one PCIe transfer).
pub fn read_u64s(gpu: &mut Gpu, src: DevicePtr, n: usize) -> Vec<u64> {
    u64_words(&gpu.memcpy_d2h(src, n * 8)).collect()
}

/// Copy `n` i64 scores home (one PCIe transfer).
pub fn read_i64s(gpu: &mut Gpu, src: DevicePtr, n: usize) -> Vec<i64> {
    let words = read_u64s(gpu, src, n);
    words.into_iter().map(|w| w as i64).collect()
}

/// Copy `n` u32 entries home (one PCIe transfer).
pub fn read_u32s(gpu: &mut Gpu, src: DevicePtr, n: usize) -> Vec<u32> {
    gpu.memcpy_d2h(src, n * 4)
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte entry")))
        .collect()
}

/// Items per launch when `n` items are split over at most `batches`
/// launches (never zero, so a parent kernel can divide by it).
pub fn per_batch(n: usize, batches: usize) -> usize {
    n.div_ceil(batches).max(1)
}

/// The non-empty `start..end` ranges of that split, in order.
pub fn batch_ranges(n: usize, batches: usize) -> impl Iterator<Item = Range<usize>> {
    let per = per_batch(n, batches);
    (0..n).step_by(per).map(move |s| s..(s + per).min(n))
}

/// Launch a [`crate::dp::build_dp_parent`] kernel over the pairs
/// `pair_offset..n_pairs` of `child` (nine words in the child kernel's own
/// order; its stride slot is ignored): one parent thread per child grid,
/// each child one full CTA of `child_cta` threads so shared-memory slicing
/// and occupancy match the non-CDP launch. Allocates the parameter-block
/// scratch the parent writes.
pub fn launch_dp_parent(
    gpu: &mut Gpu,
    parent: KernelId,
    child: [u64; DP_PARAM_WORDS as usize],
    child_cta: u32,
) {
    let chunk = child_cta as u64;
    let n = child[DpSlot::n_pairs as usize] - child[DpSlot::pair_offset as usize];
    let pthreads = n.div_ceil(chunk) as u32;
    let scratch = gpu.malloc(pthreads as u64 * DP_PARAM_WORDS as u64 * 8);
    let own = DpParentArgs {
        scratch: scratch.0,
        chunk,
        child_cta: chunk,
    };
    gpu.launch(
        parent,
        LaunchDims::linear(pthreads.div_ceil(32).max(1), 32),
        &[&child[..], &own.words()].concat(),
    );
}
