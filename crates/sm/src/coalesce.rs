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
    let mut previous = None;
    let mut highest = None;
    for lane in lanes(mask) {
        let first = addrs[lane] / LINE_BYTES;
        // Saturating: a guest address in the last bytes of the address space
        // (a constant load is not bounds-checked) must not wrap to line 0.
        let last = addrs[lane].saturating_add(width - 1) / LINE_BYTES;
        // Neighbouring lanes mostly share a line: the previous lane already
        // recorded these.
        if previous == Some((first, last)) {
            continue;
        }
        previous = Some((first, last));
        for line in first..=last {
            // Addresses mostly ascend with the lane: a line above every
            // recorded one is new without a scan.
            if highest.is_none_or(|h| line > h) {
                highest = Some(line);
                out.push(line);
            } else if !out.contains(&line) {
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
    // Sorted, equal words are neighbours: one pass counts each bank's
    // distinct words. At most 32 words, on the stack.
    let mut words = [0u64; WARP_SIZE];
    let mut n = 0;
    for lane in lanes(mask) {
        words[n] = addrs[lane] / 4;
        n += 1;
    }
    let words = &mut words[..n];
    words.sort_unstable();
    let mut per_bank = [0u32; SMEM_BANKS];
    let mut previous = None;
    for &word in words.iter() {
        if previous != Some(word) {
            per_bank[(word % SMEM_BANKS as u64) as usize] += 1;
            previous = Some(word);
        }
    }
    per_bank.into_iter().max().unwrap_or(0).max(1)
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
        // Lane 1 starts in lane 0's line and ends in the next: sharing the
        // first line is not sharing the access.
        addrs[1] = 124;
        addrs[0] = 64;
        coalesce_lines(&addrs, 0b11, 8, &mut out);
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

    // ---- against the algorithms they replaced, kept here as references ----

    use proptest::prelude::*;

    /// `coalesce_lines` as it was: every lane scans the whole output.
    fn coalesce_reference(addrs: &[u64; WARP_SIZE], mask: u32, width: u64) -> Vec<u64> {
        let mut out = Vec::new();
        for lane in (0..WARP_SIZE).filter(|l| mask & (1 << l) != 0) {
            let first = addrs[lane] / LINE_BYTES;
            let last = addrs[lane].saturating_add(width - 1) / LINE_BYTES;
            for line in first..=last {
                if !out.contains(&line) {
                    out.push(line);
                }
            }
        }
        out
    }

    /// `bank_conflict_degree` as it was: a `Vec` of distinct words per bank.
    fn degree_reference(addrs: &[u64; WARP_SIZE], mask: u32) -> u32 {
        let mut per_bank: [Vec<u64>; SMEM_BANKS] = Default::default();
        for lane in (0..WARP_SIZE).filter(|l| mask & (1 << l) != 0) {
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

    /// Address rows of the shapes warps make: a base plus a per-lane stride
    /// (0 broadcasts, 4 and 8 coalesce, 136 is the probe's line-per-lane
    /// worst case), ascending or descending, with some lanes scattered near
    /// the base — repeats, accesses straddling a line, lines out of order —
    /// and sometimes the top of the address space.
    fn addr_row() -> BoxedStrategy<[u64; WARP_SIZE]> {
        let stride = prop_oneof![
            Just(0u64),
            Just(4u64),
            Just(8u64),
            Just(136u64),
            Just(128u64),
            0..600u64
        ];
        let scatter = prop::collection::vec((0..4u8, 0..2048u64), WARP_SIZE);
        (0..3u8, 0..1u64 << 20, stride, 0..2u8, scatter).prop_map(
            |(top, base, stride, descending, scatter)| {
                let base = if top == 0 {
                    u64::MAX - 4096 + base % 4096
                } else {
                    base
                };
                std::array::from_fn(|l| {
                    let step = if descending == 1 {
                        WARP_SIZE - 1 - l
                    } else {
                        l
                    } as u64;
                    match scatter[l] {
                        (0, off) => base.saturating_add(off),
                        _ => base.saturating_add(step * stride),
                    }
                })
            },
        )
    }

    fn mask() -> BoxedStrategy<u32> {
        prop_oneof![Just(FULL_MASK), Just(0u32), 0..=u32::MAX].boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn coalesce_lines_is_the_dedup_scan_it_replaced(
            addrs in addr_row(),
            mask in mask(),
            width in prop_oneof![Just(1u64), Just(2u64), Just(4u64), Just(8u64)],
        ) {
            let mut out = vec![99];
            coalesce_lines(&addrs, mask, width, &mut out);
            prop_assert_eq!(out, coalesce_reference(&addrs, mask, width));
        }

        #[test]
        fn bank_conflict_degree_is_the_per_bank_lists_it_replaced(
            addrs in addr_row(),
            mask in mask(),
        ) {
            prop_assert_eq!(bank_conflict_degree(&addrs, mask), degree_reference(&addrs, mask));
        }
    }

    #[test]
    fn the_probe_row_coalesces_to_a_line_per_lane() {
        // benchmark/'s `sm.coalesce_ns` input: a 136-byte stride.
        let addrs = seq_addrs(0x1000, 136);
        let mut out = Vec::new();
        coalesce_lines(&addrs, FULL_MASK, 8, &mut out);
        assert_eq!(out, coalesce_reference(&addrs, FULL_MASK, 8));
        assert!(out.len() >= 32);
    }
}
