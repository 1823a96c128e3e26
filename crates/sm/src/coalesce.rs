//! Memory-access coalescing and shared-memory bank-conflict analysis.

use ggpu_isa::WARP_SIZE;
use ggpu_mem::LINE_BYTES;

use crate::warp::lanes;

/// Number of shared-memory banks (4-byte interleave), as on real SMs.
const SMEM_BANKS: usize = 32;

/// Coalesce the active lanes' byte addresses into the set of distinct
/// 128-byte line transactions they touch, written into `out` (deduplicated,
/// order of first touch).
///
/// A fully coalesced warp access (32 consecutive 4-byte words) produces one
/// transaction; a strided access can produce up to 32.
pub fn coalesce_lines(addrs: &[u64; WARP_SIZE], mask: u32, width: u64, out: &mut Vec<u64>) {
    out.clear();
    for lane in lanes(mask) {
        let first = addrs[lane] / LINE_BYTES;
        // Saturating: a guest address in the last bytes of the address space
        // (a constant load is not bounds-checked) must not wrap to line 0.
        let last = addrs[lane].saturating_add(width - 1) / LINE_BYTES;
        for line in first..=last {
            if !out.contains(&line) {
                out.push(line);
            }
        }
    }
}

/// Shared-memory bank-conflict degree: the maximum number of *distinct*
/// words that map to the same bank across the active lanes. Lanes reading
/// the same word broadcast (no conflict). The access serializes over
/// `degree` cycles; a conflict-free access has degree 1.
pub(crate) fn bank_conflict_degree(addrs: &[u64; WARP_SIZE], mask: u32) -> u32 {
    let mut per_bank: [Vec<u64>; SMEM_BANKS] = Default::default();
    for lane in lanes(mask) {
        let word = addrs[lane] / 4;
        let bank = (word % SMEM_BANKS as u64) as usize;
        if !per_bank[bank].contains(&word) {
            per_bank[bank].push(word);
        }
    }
    per_bank
        .iter()
        .map(|v| v.len() as u32)
        .max()
        .unwrap_or(0)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::FULL_MASK;

    fn seq_addrs(base: u64, stride: u64) -> [u64; WARP_SIZE] {
        let mut a = [0; WARP_SIZE];
        for (i, slot) in a.iter_mut().enumerate() {
            *slot = base + i as u64 * stride;
        }
        a
    }

    #[test]
    fn fully_coalesced_is_one_line() {
        let addrs = seq_addrs(0, 4);
        let mut out = Vec::new();
        coalesce_lines(&addrs, FULL_MASK, 4, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn stride_128_is_32_lines() {
        let addrs = seq_addrs(0, 128);
        let mut out = Vec::new();
        coalesce_lines(&addrs, FULL_MASK, 4, &mut out);
        assert_eq!(out.len(), 32);
    }

    #[test]
    fn inactive_lanes_ignored() {
        let addrs = seq_addrs(0, 128);
        let mut out = Vec::new();
        coalesce_lines(&addrs, 0b11, 4, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut addrs = [0u64; WARP_SIZE];
        addrs[0] = 124; // 8-byte access crosses the 128B boundary
        let mut out = Vec::new();
        coalesce_lines(&addrs, 0b1, 8, &mut out);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn conflict_free_unit_stride() {
        let addrs = seq_addrs(0, 4);
        assert_eq!(bank_conflict_degree(&addrs, FULL_MASK), 1);
    }

    #[test]
    fn broadcast_is_conflict_free() {
        let addrs = [64u64; WARP_SIZE];
        assert_eq!(bank_conflict_degree(&addrs, FULL_MASK), 1);
    }

    #[test]
    fn stride_two_words_gives_two_way_conflict() {
        let addrs = seq_addrs(0, 8); // every other bank, two words per bank
        assert_eq!(bank_conflict_degree(&addrs, FULL_MASK), 2);
    }

    #[test]
    fn stride_32_words_is_fully_serialized() {
        let addrs = seq_addrs(0, 128); // all lanes hit bank 0
        assert_eq!(bank_conflict_degree(&addrs, FULL_MASK), 32);
    }

    #[test]
    fn empty_mask_degree_one() {
        let addrs = seq_addrs(0, 4);
        assert_eq!(bank_conflict_degree(&addrs, 0), 1);
    }
}
