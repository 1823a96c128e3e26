//! Set-associative LRU cache with miss-status holding registers.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use crate::LINE_BYTES;

/// Trivial multiplicative hasher for line-address keys. Line addresses are
/// already well-distributed `u64`s, so one Fibonacci-style multiply beats the
/// default SipHash on the per-access MSHR probe without any new dependency.
/// Only membership is ever queried (never iteration order), so the hasher
/// cannot affect determinism.
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

/// Write-handling policy of a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Writes go straight to the next level and do not allocate on miss
    /// (NVIDIA-style L1 behaviour for global stores).
    WriteThrough,
    /// Writes allocate and dirty the line; evictions of dirty lines produce
    /// writebacks (L2 behaviour).
    WriteBack,
}

/// Geometry and policy of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. A capacity of zero disables the cache
    /// (every access misses straight through).
    pub bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line: u64,
    /// Write policy.
    pub write_policy: WritePolicy,
    /// Number of MSHR entries (distinct outstanding miss lines).
    pub mshr_entries: u32,
}

impl CacheConfig {
    /// Convenience constructor with 128-byte lines.
    pub fn new(bytes: u64, ways: u32, write_policy: WritePolicy) -> Self {
        CacheConfig {
            bytes,
            ways,
            line: LINE_BYTES,
            write_policy,
            mshr_entries: 64,
        }
    }

    /// Number of sets implied by the geometry (at least 1 when enabled).
    pub fn sets(&self) -> u64 {
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
    /// Write-through store on a write-through cache: forwarded to the next
    /// level without allocation (counted as neither hit nor demand miss).
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

#[derive(Debug, Clone, Copy)]
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
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: u64,
    lines: Vec<LineState>,
    /// Outstanding miss line addresses (tag-array side of the MSHR file),
    /// keyed for O(1) merge probes and fill releases.
    mshrs: MshrSet,
    stats: CacheStats,
    tick: u64,
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
            mshrs: MshrSet::default(),
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
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
    /// boundaries).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
            l.dirty = false;
        }
        self.mshrs.clear();
    }

    /// Forget every outstanding miss, and nothing else: tags, LRU stamps and
    /// statistics stay. For an owner that has just discarded the fills those
    /// misses were waiting for (a killed workload) — left allocated, a later
    /// access to such a line would merge into a miss nobody will answer.
    pub fn release_mshrs(&mut self) {
        self.mshrs.clear();
    }

    /// Where the line holding `addr` lives: `(line address, set, index of
    /// the set's first way, tag)`.
    #[inline]
    fn locate(&self, addr: u64) -> (u64, u64, usize, u64) {
        let laddr = addr / self.config.line;
        let set = laddr % self.sets;
        let base = (set * self.config.ways as u64) as usize;
        (laddr, set, base, laddr / self.sets)
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
        let (laddr, set, base, tag) = self.locate(addr);

        // Lookup.
        for i in 0..self.config.ways as usize {
            let line = &mut self.lines[base + i];
            if line.valid && line.tag == tag {
                line.last_use = self.tick;
                if is_write {
                    self.stats.write_hit += 1;
                    match self.config.write_policy {
                        WritePolicy::WriteBack => line.dirty = true,
                        WritePolicy::WriteThrough => {}
                    }
                } else {
                    self.stats.read_hit += 1;
                }
                return CacheOutcome::Hit;
            }
        }

        // Write-through caches forward write misses without allocating.
        if is_write && self.config.write_policy == WritePolicy::WriteThrough {
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

        // Choose a victim now so a dirty writeback can be reported with the
        // miss (the line itself is installed by `fill`).
        let victim = self.victim(base);
        let wb = {
            let line = &mut self.lines[victim];
            let wb = if line.valid && line.dirty {
                self.stats.writebacks += 1;
                Some((line.tag * self.sets + set) * self.config.line)
            } else {
                None
            };
            // Reserve the way immediately (tag update; becomes valid on fill).
            line.tag = tag;
            line.valid = false;
            line.dirty = false;
            line.last_use = self.tick;
            wb
        };
        CacheOutcome::Miss { writeback: wb }
    }

    /// Install the line containing `addr` (response from the lower level)
    /// and release its MSHR. Marks the line dirty when `dirty` is set
    /// (write-allocate fills).
    pub fn fill(&mut self, addr: u64, dirty: bool) {
        if self.config.bytes == 0 {
            return;
        }
        self.tick += 1;
        let (laddr, _, base, tag) = self.locate(addr);
        self.mshrs.remove(&laddr);
        // Prefer the way reserved at miss time.
        for i in 0..self.config.ways as usize {
            let line = &mut self.lines[base + i];
            if line.tag == tag && !line.valid {
                line.valid = true;
                line.dirty = dirty;
                line.last_use = self.tick;
                return;
            }
        }
        // Reservation was overwritten by a later miss to the same set; fall
        // back to LRU install.
        let victim = self.victim(base);
        let line = &mut self.lines[victim];
        line.tag = tag;
        line.valid = true;
        line.dirty = dirty;
        line.last_use = self.tick;
    }

    /// Number of outstanding MSHR entries.
    pub fn outstanding(&self) -> usize {
        self.mshrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(policy: WritePolicy) -> Cache {
        // 2 sets x 2 ways x 128B lines = 512B.
        Cache::new(CacheConfig {
            bytes: 512,
            ways: 2,
            line: 128,
            write_policy: policy,
            mshr_entries: 4,
        })
    }

    #[test]
    fn sets_geometry() {
        assert_eq!(
            CacheConfig::new(128 * 1024, 256, WritePolicy::WriteThrough).sets(),
            4
        );
        assert_eq!(CacheConfig::new(0, 4, WritePolicy::WriteBack).sets(), 0);
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = small_cache(WritePolicy::WriteBack);
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
        let mut c = small_cache(WritePolicy::WriteBack);
        assert!(matches!(c.access(0, false), CacheOutcome::Miss { .. }));
        assert_eq!(c.access(32, false), CacheOutcome::MshrMerged);
        assert_eq!(c.outstanding(), 1);
        c.fill(0, false);
        assert_eq!(c.outstanding(), 0);
        assert_eq!(c.access(0, false), CacheOutcome::Hit);
    }

    #[test]
    fn mshr_capacity_reservation_fail() {
        let mut c = small_cache(WritePolicy::WriteBack);
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
        let mut c = small_cache(WritePolicy::WriteBack);
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
        let mut c = small_cache(WritePolicy::WriteBack);
        c.access(0, true);
        c.fill(0, true); // dirty fill (write-allocate)
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
        let mut c = small_cache(WritePolicy::WriteThrough);
        assert_eq!(c.access(0, true), CacheOutcome::Bypass);
        // No allocation happened.
        assert!(matches!(c.access(0, false), CacheOutcome::Miss { .. }));
        // But write hits are possible once the line is resident.
        c.fill(0, false);
        assert_eq!(c.access(0, true), CacheOutcome::Hit);
    }

    #[test]
    fn disabled_cache_always_misses() {
        let mut c = Cache::new(CacheConfig::new(0, 1, WritePolicy::WriteThrough));
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
        let mut c = small_cache(WritePolicy::WriteBack);
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
        let mut c = small_cache(WritePolicy::WriteBack);
        c.access(0, false);
        c.fill(0, false);
        assert_eq!(c.access(0, false), CacheOutcome::Hit);
        c.flush();
        assert!(matches!(c.access(0, false), CacheOutcome::Miss { .. }));
    }
}
