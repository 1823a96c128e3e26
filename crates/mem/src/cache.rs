//! Set-associative LRU cache with miss-status holding registers.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::LINE_BYTES;

/// Trivial multiplicative hasher for line-address keys. Line addresses are
/// already well-distributed `u64`s, so one Fibonacci-style multiply beats the
/// default SipHash on the per-access MSHR and line-index probes without any
/// new dependency. Only keyed lookups are ever made (never iteration order),
/// so the hasher cannot affect determinism.
#[derive(Debug, Default, Clone)]
pub(crate) struct LineAddrHasher(u64);

impl Hasher for LineAddrHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// O(1) keyed MSHR tag store (line address → outstanding miss).
type MshrSet = HashSet<u64, BuildHasherDefault<LineAddrHasher>>;

/// Line address → the lowest way (an index into [`Cache`]'s line array)
/// holding that line valid.
type LineIndex = HashMap<u64, usize, BuildHasherDefault<LineAddrHasher>>;

/// Geometry of one cache. Every cache is write-through: a write hit
/// updates the line in place, and a write miss goes to the next level
/// without allocating (NVIDIA-style behaviour for global stores).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. A capacity of zero disables the cache
    /// (every access misses straight through).
    pub bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line: u64,
    /// Number of MSHR entries (distinct outstanding miss lines).
    pub mshr_entries: u32,
}

impl CacheConfig {
    /// Convenience constructor with 128-byte lines.
    pub const fn new(bytes: u64, ways: u32) -> Self {
        CacheConfig {
            bytes,
            ways,
            line: LINE_BYTES,
            mshr_entries: 64,
        }
    }

    /// Number of sets implied by the geometry (at least 1 when enabled).
    pub(crate) fn sets(&self) -> u64 {
        if self.bytes == 0 {
            0
        } else {
            (self.bytes / (self.ways as u64 * self.line)).max(1)
        }
    }
}

/// Outcome of a timing access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Data present; access completes at this level.
    Hit,
    /// Line absent; a fill request must be sent to the next level. If the
    /// victim was dirty its line address is returned for writeback.
    Miss {
        /// Dirty victim line address needing writeback, if any.
        writeback: Option<u64>,
    },
    /// Line absent but an MSHR for it is already outstanding; the access is
    /// merged and no new request goes to the next level.
    MshrMerged,
    /// The MSHR file is full; the access cannot be processed this cycle and
    /// the requester must retry (a structural stall).
    ReservationFail,
    /// Write miss: forwarded to the next level without allocation (counted
    /// as neither hit nor demand miss).
    Bypass,
}

crate::counter_set! {
    /// Hit/miss counters, split by read/write.
    pub struct CacheStats {
        /// Read accesses.
        pub read_access,
        /// Read hits.
        pub read_hit,
        /// Write accesses.
        pub write_access,
        /// Write hits.
        pub write_hit,
        /// Misses merged into an existing MSHR.
        pub mshr_merged,
        /// Accesses rejected because the MSHR file was full.
        pub reservation_fails,
        /// Dirty evictions (writebacks generated).
        pub writebacks,
    }
}

impl CacheStats {
    /// Total demand accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.read_access + self.write_access
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.read_hit + self.write_hit
    }

    /// Miss rate over all demand accesses, in `[0, 1]`; zero when idle.
    pub fn miss_rate(&self) -> f64 {
        let acc = self.accesses();
        if acc == 0 {
            0.0
        } else {
            1.0 - self.hits() as f64 / acc as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineState {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_use: u64,
}

/// A set-associative, LRU, write-through or write-back cache with MSHRs.
///
/// The cache is a pure timing model: [`Cache::access`] classifies an access
/// and [`Cache::fill`] installs a line when the lower level responds.
///
/// A lookup is one probe of a line index, not a scan of the set's ways. The
/// answer is the scan's: the *lowest* valid way holding the line. A set can
/// hold two valid copies of one line: `fill`'s LRU fallback installs a
/// second when an earlier fill has already validated the line's reserved
/// way — a fill with no miss outstanding (a local store), or the fill of a
/// request that found the MSHR file full and was sent on anyway. The index
/// then names the lower copy until it is evicted, when the entry is
/// repaired from the set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    config: CacheConfig,
    sets: u64,
    lines: Vec<LineState>,
    /// Every valid line's lowest way. Written only where a way changes
    /// validity or tag: the way a miss reserves, the two installs of
    /// [`Cache::fill`], and [`Cache::flush`]; a debug build checks the entry
    /// of every line `access` and `fill` touch against a scan of its set.
    index: LineIndex,
    /// Outstanding miss line addresses (tag-array side of the MSHR file),
    /// keyed for O(1) merge probes and fill releases.
    mshrs: MshrSet,
    stats: CacheStats,
    tick: u64,
    /// No line installed and no miss allocated since the last flush (or
    /// construction): every line is invalid and clean, no MSHR is held, and
    /// a flush would change nothing.
    flushed: bool,
}

impl Cache {
    /// Build a cache from its configuration.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Cache {
            config,
            sets,
            lines: vec![
                LineState {
                    tag: 0,
                    valid: false,
                    dirty: false,
                    last_use: 0,
                };
                (sets * config.ways as u64) as usize
            ],
            index: LineIndex::default(),
            mshrs: MshrSet::default(),
            stats: CacheStats::default(),
            tick: 0,
            flushed: true,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset statistics (e.g. between kernels), keeping cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidate all lines and clear MSHRs (used between kernel launches to
    /// model the locality loss the paper attributes to `cudaMemcpy`
    /// boundaries). Returns at once when nothing was installed or allocated
    /// since the last flush.
    pub fn flush(&mut self) {
        if self.flushed {
            return;
        }
        for l in &mut self.lines {
            l.valid = false;
            l.dirty = false;
        }
        self.index.clear();
        self.mshrs.clear();
        self.flushed = true;
    }

    /// Forget every outstanding miss, and nothing else: tags, LRU stamps and
    /// statistics stay. For an owner that has just discarded the fills those
    /// misses were waiting for (a killed workload) — left allocated, a later
    /// access to such a line would merge into a miss nobody will answer.
    pub fn release_mshrs(&mut self) {
        self.mshrs.clear();
    }

    /// Where line `laddr` lives: `(set, index of the set's first way, tag)`.
    #[inline]
    fn place(&self, laddr: u64) -> (u64, usize, u64) {
        let set = laddr % self.sets;
        (
            set,
            (set * self.config.ways as u64) as usize,
            laddr / self.sets,
        )
    }

    /// The way to replace in the set starting at `base`: the first invalid
    /// one, else the least recently used (the lowest way on a tie).
    fn victim(&self, base: usize) -> usize {
        let mut victim = base;
        let mut oldest = u64::MAX;
        for i in base..base + self.config.ways as usize {
            let line = &self.lines[i];
            if !line.valid {
                return i;
            }
            if line.last_use < oldest {
                oldest = line.last_use;
                victim = i;
            }
        }
        victim
    }

    /// The lowest valid way of the set starting at `base` holding `tag`, by
    /// a scan: the answer the index must give, asked only on the miss path
    /// (eviction repair) and by the debug audit.
    fn scan(&self, base: usize, tag: u64) -> Option<usize> {
        (base..base + self.config.ways as usize).find(|&i| {
            let line = &self.lines[i];
            line.valid && line.tag == tag
        })
    }

    /// Way `way` of `set` (first way `base`) has just stopped holding the
    /// valid line `tag`. If the index named it, name the next copy in the
    /// set, or drop the entry when there is none.
    fn evicted(&mut self, set: u64, base: usize, way: usize, tag: u64) {
        let laddr = tag * self.sets + set;
        if self.index.get(&laddr) == Some(&way) {
            match self.scan(base, tag) {
                Some(copy) => self.index.insert(laddr, copy),
                None => self.index.remove(&laddr),
            };
        }
    }

    /// Way `way` now holds line `laddr` valid; the index keeps the lowest
    /// such way.
    fn installed(&mut self, laddr: u64, way: usize) {
        self.index
            .entry(laddr)
            .and_modify(|lowest| *lowest = (*lowest).min(way))
            .or_insert(way);
    }

    /// Debug builds: line `laddr`'s index entry is what a scan of its set
    /// finds. O(ways) per call, so tests stay about as fast as the scan
    /// the index replaces.
    fn audit(&self, laddr: u64) {
        if cfg!(debug_assertions) {
            let (_, base, tag) = self.place(laddr);
            assert_eq!(
                self.index.get(&laddr).copied(),
                self.scan(base, tag),
                "the line index disagrees with a scan of the set of line {laddr:#x}"
            );
        }
    }

    /// Classify an access to `addr`.
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        self.tick += 1;
        if is_write {
            self.stats.write_access += 1;
        } else {
            self.stats.read_access += 1;
        }
        if self.config.bytes == 0 {
            // Disabled cache: everything misses through, nothing tracked.
            return CacheOutcome::Miss { writeback: None };
        }
        let laddr = addr / self.config.line;
        self.audit(laddr);

        // Lookup.
        if let Some(&way) = self.index.get(&laddr) {
            let line = &mut self.lines[way];
            line.last_use = self.tick;
            if is_write {
                self.stats.write_hit += 1;
            } else {
                self.stats.read_hit += 1;
            }
            return CacheOutcome::Hit;
        }

        // Write misses are forwarded without allocating.
        if is_write {
            return CacheOutcome::Bypass;
        }

        // Miss: merge into an outstanding MSHR when possible.
        if self.mshrs.contains(&laddr) {
            self.stats.mshr_merged += 1;
            return CacheOutcome::MshrMerged;
        }
        if self.mshrs.len() >= self.config.mshr_entries as usize {
            self.stats.reservation_fails += 1;
            return CacheOutcome::ReservationFail;
        }
        self.mshrs.insert(laddr);
        self.flushed = false;

        // Choose a victim now so a dirty writeback can be reported with the
        // miss (the line itself is installed by `fill`).
        let (set, base, tag) = self.place(laddr);
        let victim = self.victim(base);
        let old = self.lines[victim];
        let wb = if old.valid && old.dirty {
            self.stats.writebacks += 1;
            Some((old.tag * self.sets + set) * self.config.line)
        } else {
            None
        };
        // Reserve the way immediately (tag update; becomes valid on fill).
        self.lines[victim] = LineState {
            tag,
            valid: false,
            dirty: false,
            last_use: self.tick,
        };
        if old.valid {
            self.evicted(set, base, victim, old.tag);
        }
        CacheOutcome::Miss { writeback: wb }
    }

    /// Install the line containing `addr` (response from the lower level)
    /// and release its MSHR. Marks the line dirty when `dirty` is set; the
    /// simulator's write-through caches always pass `false`.
    pub fn fill(&mut self, addr: u64, dirty: bool) {
        if self.config.bytes == 0 {
            return;
        }
        self.tick += 1;
        self.flushed = false;
        let laddr = addr / self.config.line;
        let (set, base, tag) = self.place(laddr);
        self.mshrs.remove(&laddr);
        let valid = LineState {
            tag,
            valid: true,
            dirty,
            last_use: self.tick,
        };
        // Prefer the way reserved at miss time.
        let reserved = (base..base + self.config.ways as usize).find(|&i| {
            let line = &self.lines[i];
            line.tag == tag && !line.valid
        });
        if let Some(way) = reserved {
            self.lines[way] = valid;
            self.installed(laddr, way);
        } else {
            // Reservation was overwritten by a later miss to the same set;
            // fall back to LRU install (a second copy when the line is
            // already valid in another way).
            let victim = self.victim(base);
            let old = std::mem::replace(&mut self.lines[victim], valid);
            if old.valid {
                self.evicted(set, base, victim, old.tag);
            }
            self.installed(laddr, victim);
        }
        self.audit(laddr);
    }

    /// Number of outstanding MSHR entries.
    pub fn outstanding(&self) -> usize {
        self.mshrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 2 sets x 2 ways x 128B lines = 512B.
        Cache::new(CacheConfig {
            bytes: 512,
            ways: 2,
            line: 128,
            mshr_entries: 4,
        })
    }

    #[test]
    fn sets_geometry() {
        assert_eq!(CacheConfig::new(128 * 1024, 256).sets(), 4);
        assert_eq!(CacheConfig::new(0, 4).sets(), 0);
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = small_cache();
        assert!(matches!(
            c.access(0, false),
            CacheOutcome::Miss { writeback: None }
        ));
        c.fill(0, false);
        assert_eq!(c.access(0, false), CacheOutcome::Hit);
        assert_eq!(c.access(64, false), CacheOutcome::Hit); // same line
        assert_eq!(c.stats().read_hit, 2);
        assert!((c.stats().miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mshr_merges_and_fills_release() {
        let mut c = small_cache();
        assert!(matches!(c.access(0, false), CacheOutcome::Miss { .. }));
        assert_eq!(c.access(32, false), CacheOutcome::MshrMerged);
        assert_eq!(c.outstanding(), 1);
        c.fill(0, false);
        assert_eq!(c.outstanding(), 0);
        assert_eq!(c.access(0, false), CacheOutcome::Hit);
    }

    #[test]
    fn mshr_capacity_reservation_fail() {
        let mut c = small_cache();
        // 4 distinct lines fill the MSHR file.
        for i in 0..4u64 {
            assert!(matches!(
                c.access(i * 128, false),
                CacheOutcome::Miss { .. }
            ));
        }
        assert_eq!(c.access(4 * 128, false), CacheOutcome::ReservationFail);
        assert_eq!(c.stats().reservation_fails, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small_cache();
        // Set 0 is lines with (line_addr % 2 == 0): addrs 0, 256, 512.
        c.access(0, false);
        c.fill(0, false);
        c.access(256, false);
        c.fill(256, false);
        // Touch 0 so 256 is LRU.
        assert_eq!(c.access(0, false), CacheOutcome::Hit);
        c.access(512, false);
        c.fill(512, false);
        assert_eq!(c.access(0, false), CacheOutcome::Hit);
        assert!(matches!(c.access(256, false), CacheOutcome::Miss { .. }));
    }

    #[test]
    fn writeback_of_dirty_victim() {
        let mut c = small_cache();
        c.fill(0, true); // a dirty fill
        c.access(256, false);
        c.fill(256, false);
        // Evict line 0 (LRU) with a third line in set 0.
        match c.access(512, false) {
            CacheOutcome::Miss { writeback: Some(a) } => assert_eq!(a, 0),
            other => panic!("expected dirty writeback, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_through_bypasses_write_misses() {
        let mut c = small_cache();
        assert_eq!(c.access(0, true), CacheOutcome::Bypass);
        // No allocation happened.
        assert!(matches!(c.access(0, false), CacheOutcome::Miss { .. }));
        // But write hits are possible once the line is resident.
        c.fill(0, false);
        assert_eq!(c.access(0, true), CacheOutcome::Hit);
    }

    #[test]
    fn disabled_cache_always_misses() {
        let mut c = Cache::new(CacheConfig::new(0, 1));
        for i in 0..10 {
            assert!(matches!(c.access(i * 4, false), CacheOutcome::Miss { .. }));
        }
        assert_eq!(c.stats().miss_rate(), 1.0);
    }

    #[test]
    fn mshr_keyed_lookup_preserves_alloc_merge_release() {
        // Exercises the keyed MSHR store through an interleaved
        // alloc/merge/release sequence and checks it is observationally
        // identical to the linear-scan file it replaced: first touch of a
        // line allocates, later touches merge, capacity gates allocations
        // (merges still succeed at capacity), and fills release exactly
        // their own line regardless of alloc/fill ordering.
        let mut c = small_cache();
        for i in 0..4u64 {
            assert!(matches!(
                c.access(i * 128, false),
                CacheOutcome::Miss { .. }
            ));
            assert_eq!(c.access(i * 128 + 32, false), CacheOutcome::MshrMerged);
        }
        assert_eq!(c.outstanding(), 4);
        // At capacity: a new line fails reservation, existing lines merge.
        assert_eq!(c.access(4 * 128, false), CacheOutcome::ReservationFail);
        assert_eq!(c.access(2 * 128 + 64, false), CacheOutcome::MshrMerged);
        // Out-of-order fills release the matching entry only.
        c.fill(2 * 128, false);
        assert_eq!(c.outstanding(), 3);
        assert_eq!(c.access(2 * 128, false), CacheOutcome::Hit);
        // The freed entry is reusable by the line that failed before.
        assert!(matches!(
            c.access(4 * 128, false),
            CacheOutcome::Miss { .. }
        ));
        assert_eq!(c.outstanding(), 4);
        // Releasing a line never filled while outstanding is a no-op for
        // the other entries.
        c.fill(0, false);
        c.fill(128, false);
        c.fill(3 * 128, false);
        c.fill(4 * 128, false);
        assert_eq!(c.outstanding(), 0);
        assert_eq!(c.stats().mshr_merged, 5);
        assert_eq!(c.stats().reservation_fails, 1);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small_cache();
        c.access(0, false);
        c.fill(0, false);
        assert_eq!(c.access(0, false), CacheOutcome::Hit);
        c.flush();
        assert!(matches!(c.access(0, false), CacheOutcome::Miss { .. }));
    }

    #[test]
    fn a_flush_with_nothing_installed_since_the_last_is_skipped_and_changes_nothing() {
        let mut c = small_cache();
        // Resident lines, LRU stamps from a hit and an outstanding miss.
        c.access(0, false);
        c.fill(0, false);
        c.access(256, false);
        c.fill(256, false);
        assert_eq!(c.access(0, true), CacheOutcome::Hit);
        assert!(matches!(c.access(128, false), CacheOutcome::Miss { .. }));
        c.flush();
        assert_eq!(c.outstanding(), 0);
        // Write misses on a write-through cache move the LRU clock and the
        // counters but install nothing.
        assert_eq!(c.access(384, true), CacheOutcome::Bypass);
        assert_eq!(c.access(0, true), CacheOutcome::Bypass);
        assert!(c.flushed);
        let mut walked = c.clone();
        walked.flushed = false;
        walked.flush();
        c.flush();
        assert_eq!(c, walked);
        // A miss allocated since the last flush is not skipped.
        assert!(matches!(c.access(0, false), CacheOutcome::Miss { .. }));
        c.flush();
        assert_eq!(c.outstanding(), 0);
        assert!(matches!(c.access(0, false), CacheOutcome::Miss { .. }));
    }

    #[test]
    fn a_second_copy_from_the_fallback_fill_hits_the_lower_way_and_survives_its_eviction() {
        // One set of four ways (the tag is the line address). Line 8 is the
        // one that ends up twice.
        let mut c = Cache::new(CacheConfig {
            bytes: 4 * 128,
            ways: 4,
            line: 128,
            mshr_entries: 4,
        });
        let copies = |c: &Cache| -> Vec<usize> {
            (0..4)
                .filter(|&i| c.lines[i].valid && c.lines[i].tag == 8)
                .collect()
        };
        // A load miss reserves way a = 0.
        assert!(matches!(
            c.access(8 * 128, false),
            CacheOutcome::Miss { .. }
        ));
        // A local store misses past the L1 and fills: that validates way a.
        assert_eq!(c.access(8 * 128, true), CacheOutcome::Bypass);
        c.fill(8 * 128, false);
        assert_eq!(copies(&c), vec![0]);
        // Lines 1 and 2 take ways 1 and 2; the load's own fill then finds
        // no reserved way and installs a second copy in way b = 3.
        for line in [1, 2] {
            c.access(line * 128, false);
            c.fill(line * 128, false);
        }
        c.fill(8 * 128, false);
        assert_eq!(copies(&c), vec![0, 3], "two valid copies");
        assert_eq!(c.index.get(&8), Some(&0), "the index names the lower");
        // A lookup hits the lower copy: its LRU stamp moves, the other's not.
        let mut looked = c.clone();
        assert_eq!(looked.access(8 * 128, false), CacheOutcome::Hit);
        assert_eq!(looked.lines[0].last_use, looked.tick);
        assert_eq!(looked.lines[3].last_use, c.lines[3].last_use);
        // Untouched, way a is the least recently used once lines 1 and 2
        // are: the next miss evicts it, exposing the copy in way b.
        for line in [1, 2] {
            assert_eq!(c.access(line * 128, false), CacheOutcome::Hit);
        }
        assert!(matches!(
            c.access(5 * 128, false),
            CacheOutcome::Miss { .. }
        ));
        assert_eq!(c.lines[0].tag, 5, "way a was the victim");
        assert_eq!(copies(&c), vec![3]);
        assert_eq!(c.index.get(&8), Some(&3), "the entry moved to way b");
        assert_eq!(c.access(8 * 128, false), CacheOutcome::Hit);
        assert_eq!(c.lines[3].last_use, c.tick);
    }

    // ---- the line index against the way scan it replaced ---------------------

    use proptest::prelude::*;

    /// `Cache` as it was before the line index: every lookup scans the set.
    struct Reference {
        config: CacheConfig,
        sets: u64,
        lines: Vec<LineState>,
        mshrs: HashSet<u64>,
        stats: CacheStats,
        tick: u64,
    }

    impl Reference {
        fn new(config: CacheConfig) -> Self {
            let sets = config.sets();
            let line = LineState {
                tag: 0,
                valid: false,
                dirty: false,
                last_use: 0,
            };
            Reference {
                config,
                sets,
                lines: vec![line; (sets * config.ways as u64) as usize],
                mshrs: HashSet::new(),
                stats: CacheStats::default(),
                tick: 0,
            }
        }

        fn flush(&mut self) {
            for l in &mut self.lines {
                l.valid = false;
                l.dirty = false;
            }
            self.mshrs.clear();
        }

        fn locate(&self, addr: u64) -> (u64, u64, usize, u64) {
            let laddr = addr / self.config.line;
            let set = laddr % self.sets;
            let base = (set * self.config.ways as u64) as usize;
            (laddr, set, base, laddr / self.sets)
        }

        fn victim(&self, base: usize) -> usize {
            let mut victim = base;
            let mut oldest = u64::MAX;
            for i in base..base + self.config.ways as usize {
                let line = &self.lines[i];
                if !line.valid {
                    return i;
                }
                if line.last_use < oldest {
                    oldest = line.last_use;
                    victim = i;
                }
            }
            victim
        }

        fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
            self.tick += 1;
            if is_write {
                self.stats.write_access += 1;
            } else {
                self.stats.read_access += 1;
            }
            let (laddr, set, base, tag) = self.locate(addr);
            for i in 0..self.config.ways as usize {
                let line = &mut self.lines[base + i];
                if line.valid && line.tag == tag {
                    line.last_use = self.tick;
                    if is_write {
                        self.stats.write_hit += 1;
                    } else {
                        self.stats.read_hit += 1;
                    }
                    return CacheOutcome::Hit;
                }
            }
            if is_write {
                return CacheOutcome::Bypass;
            }
            if self.mshrs.contains(&laddr) {
                self.stats.mshr_merged += 1;
                return CacheOutcome::MshrMerged;
            }
            if self.mshrs.len() >= self.config.mshr_entries as usize {
                self.stats.reservation_fails += 1;
                return CacheOutcome::ReservationFail;
            }
            self.mshrs.insert(laddr);
            let victim = self.victim(base);
            let line = &mut self.lines[victim];
            let wb = if line.valid && line.dirty {
                self.stats.writebacks += 1;
                Some((line.tag * self.sets + set) * self.config.line)
            } else {
                None
            };
            *line = LineState {
                tag,
                valid: false,
                dirty: false,
                last_use: self.tick,
            };
            CacheOutcome::Miss { writeback: wb }
        }

        fn fill(&mut self, addr: u64, dirty: bool) {
            self.tick += 1;
            let (laddr, _, base, tag) = self.locate(addr);
            self.mshrs.remove(&laddr);
            let valid = LineState {
                tag,
                valid: true,
                dirty,
                last_use: self.tick,
            };
            for i in 0..self.config.ways as usize {
                let line = &mut self.lines[base + i];
                if line.tag == tag && !line.valid {
                    *line = valid;
                    return;
                }
            }
            let victim = self.victim(base);
            self.lines[victim] = valid;
        }
    }

    /// One operation on both caches, from `(kind, pick, flag)`.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// A read or write of one of the pool's lines.
        Access {
            line: u64,
            write: bool,
        },
        /// A clean or dirty fill of an outstanding miss (or of a pool line
        /// when none is outstanding).
        FillMiss {
            pick: usize,
            dirty: bool,
        },
        /// A fill of a pool line, whether or not a miss is outstanding for
        /// it: the local-store path.
        FillAny {
            line: u64,
            dirty: bool,
        },
        Flush,
        ReleaseMshrs,
    }

    fn op(lines: u64) -> BoxedStrategy<Op> {
        (0..16u8, 0..64usize, 0..2u8)
            .prop_map(move |(kind, pick, flag)| {
                let (line, flag) = (pick as u64 % lines, flag == 1);
                match kind {
                    0..=6 => Op::Access { line, write: flag },
                    7..=11 => Op::FillMiss { pick, dirty: flag },
                    12..=13 => Op::FillAny { line, dirty: flag },
                    14 => Op::Flush,
                    _ => Op::ReleaseMshrs,
                }
            })
            .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_indexed_cache_is_the_way_scan_it_replaced(
            sets in 1..5u64,
            ways in 1..9u32,
            mshr_entries in 1..5u32,
            // Lines beyond the capacity, at offsets within a line.
            extra in 1..9u64,
            offsets in prop::collection::vec(0..128u64, 8),
            ops in prop::collection::vec(op(64), 1..120),
        ) {
            let config = CacheConfig {
                bytes: sets * ways as u64 * 128,
                ways,
                line: 128,
                mshr_entries,
            };
            // A pool a few lines larger than the cache, so sets fill and evict.
            let pool = sets * ways as u64 + extra;
            let addr = |line: u64| (line % pool) * 128 + offsets[(line % 8) as usize];
            let (mut c, mut r) = (Cache::new(config), Reference::new(config));
            for (step, &op) in ops.iter().enumerate() {
                match op {
                    Op::Access { line, write } => {
                        prop_assert_eq!(c.access(addr(line), write), r.access(addr(line), write), "step {} {:?}", step, op);
                    }
                    Op::FillMiss { pick, dirty } => {
                        let mut misses: Vec<u64> = r.mshrs.iter().copied().collect();
                        misses.sort_unstable();
                        let at = match misses.get(pick % misses.len().max(1)) {
                            Some(&line) => line * 128,
                            None => addr(pick as u64),
                        };
                        c.fill(at, dirty);
                        r.fill(at, dirty);
                    }
                    Op::FillAny { line, dirty } => {
                        c.fill(addr(line), dirty);
                        r.fill(addr(line), dirty);
                    }
                    Op::Flush => {
                        c.flush();
                        r.flush();
                    }
                    Op::ReleaseMshrs => {
                        c.release_mshrs();
                        r.mshrs.clear();
                    }
                }
                prop_assert_eq!(&c.lines, &r.lines, "step {} {:?}", step, op);
                prop_assert_eq!(c.stats(), &r.stats, "step {} {:?}", step, op);
                prop_assert_eq!(c.mshrs.iter().copied().collect::<HashSet<u64>>(), r.mshrs.clone());
                prop_assert_eq!(c.tick, r.tick);
                // The whole index, not only the lines the debug audit touches:
                // exactly the valid lines, each at its lowest way.
                for (i, line) in c.lines.iter().enumerate().filter(|(_, l)| l.valid) {
                    let laddr = line.tag * c.sets + i as u64 / ways as u64;
                    let lowest = c.index.get(&laddr).copied();
                    prop_assert!(lowest.is_some_and(|way| way <= i), "step {} {:?}: line {:#x}", step, op, laddr);
                }
                for (&laddr, &way) in &c.index {
                    prop_assert!(c.lines[way].valid && c.lines[way].tag * c.sets + way as u64 / ways as u64 == laddr);
                }
            }
        }
    }
}
