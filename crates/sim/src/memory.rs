//! Functional device memory: a flat byte image with a bump allocator.

use ggpu_isa::{AtomOp, FaultKind, Width};
use ggpu_sm::GlobalMem;

/// A typed device pointer returned by [`DeviceMemory::alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevicePtr(pub u64);

impl DevicePtr {
    /// Byte offset arithmetic.
    pub fn offset(self, bytes: u64) -> DevicePtr {
        DevicePtr(self.0 + bytes)
    }
}

impl std::fmt::Display for DevicePtr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// Flat functional memory image. Reads outside the written region return
/// zero; writes grow the image (capped only by host memory).
///
/// The functional `read`/`write` paths stay permissive (timing models probe
/// them freely); architectural bounds checking happens separately through
/// [`GlobalMem::check`], which the SM consults for every active lane before
/// any access and turns violations into guest faults.
///
/// The SM reaches this type through `&dyn GlobalMem`, once per
/// warp-instruction: the trait's `check_lanes` / `read_lanes` /
/// `write_lanes` are not overridden, because their default bodies are
/// compiled per implementation — inside them `check`, `read` and `write`
/// below are direct, inlined calls, and an access inside the image is a
/// bounds-checked sub-slice copy rather than a byte loop.
#[derive(Debug, Default)]
pub struct DeviceMemory {
    data: Vec<u8>,
    cursor: u64,
    /// Injected unmapped range (`[start, end)`); accesses overlapping it
    /// fault as illegal addresses.
    poison: Option<(u64, u64)>,
    /// Allocations performed so far (never decremented; arena recycling
    /// shows up as this staying flat while work continues).
    alloc_count: u64,
}

/// Allocation alignment for [`DeviceMemory::alloc`].
const ALLOC_ALIGN: u64 = 256;
/// Address zero is reserved so null pointers fault visibly (read as zero).
const BASE: u64 = 4096;

impl DeviceMemory {
    /// Fresh empty memory.
    pub fn new() -> Self {
        DeviceMemory {
            data: Vec::new(),
            cursor: BASE,
            poison: None,
            alloc_count: 0,
        }
    }

    /// Mark `[start, end)` as unmapped for fault injection (`None` clears).
    pub fn set_poison(&mut self, range: Option<(u64, u64)>) {
        self.poison = range;
    }

    /// One past the highest allocated address (the allocation frontier).
    pub fn frontier(&self) -> u64 {
        self.cursor
    }

    /// Allocate `bytes` of device memory (256-byte aligned).
    pub fn alloc(&mut self, bytes: u64) -> DevicePtr {
        let addr = self.cursor;
        self.cursor = (addr + bytes).div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        let end = (addr + bytes) as usize;
        if self.data.len() < end {
            self.data.resize(end, 0);
        }
        self.alloc_count += 1;
        DevicePtr(addr)
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.cursor - BASE
    }

    /// Total [`DeviceMemory::alloc`] calls so far. Monotone: recycling an
    /// arena does not allocate, so a steady-state harness sees this stay
    /// flat while throughput continues.
    pub fn alloc_count(&self) -> u64 {
        self.alloc_count
    }

    /// Whether `[addr, addr + len)` lies inside allocated memory: above the
    /// null page, below the allocation frontier, not wrapping the address
    /// space. The one range rule — guest accesses ([`GlobalMem::check`]) and
    /// host or peer copies both answer to it.
    pub(crate) fn in_bounds(&self, addr: u64, len: u64) -> bool {
        addr >= BASE && addr.checked_add(len).is_some_and(|end| end <= self.cursor)
    }

    /// `[addr, addr + len)` as an index range into the image, unless it
    /// wraps the address space.
    #[inline]
    fn image_range(&self, addr: u64, len: usize) -> Option<std::ops::Range<usize>> {
        let start = usize::try_from(addr).ok()?;
        Some(start..start.checked_add(len)?)
    }

    /// Copy a host slice into device memory.
    pub fn write_slice(&mut self, ptr: DevicePtr, bytes: &[u8]) {
        let start = ptr.0 as usize;
        let end = start + bytes.len();
        if self.data.len() < end {
            self.data.resize(end, 0);
        }
        self.data[start..end].copy_from_slice(bytes);
    }

    /// Copy device memory out to the host.
    pub fn read_slice(&self, ptr: DevicePtr, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let start = ptr.0 as usize;
        for (i, b) in out.iter_mut().enumerate() {
            *b = self.data.get(start + i).copied().unwrap_or(0);
        }
        out
    }

    /// Read one u64 (convenience for tests and harnesses).
    pub fn read_u64(&self, ptr: DevicePtr) -> u64 {
        let b = self.read_slice(ptr, 8);
        u64::from_le_bytes(b.try_into().expect("8 bytes"))
    }

    /// Write one u64.
    pub fn write_u64(&mut self, ptr: DevicePtr, v: u64) {
        self.write_slice(ptr, &v.to_le_bytes());
    }
}

impl GlobalMem for DeviceMemory {
    #[inline]
    fn check(&self, addr: u64, width: Width, _store: bool) -> Option<FaultKind> {
        let w = width.bytes();
        if !addr.is_multiple_of(w) {
            return Some(FaultKind::MisalignedAccess);
        }
        if !self.in_bounds(addr, w) {
            return Some(FaultKind::IllegalAddress);
        }
        if let Some((lo, hi)) = self.poison {
            if addr < hi && addr + w > lo {
                return Some(FaultKind::IllegalAddress);
            }
        }
        None
    }

    #[inline]
    fn read(&self, addr: u64, width: Width) -> u64 {
        let n = width.bytes() as usize;
        let mut bytes = [0u8; 8];
        match self.image_range(addr, n).and_then(|r| self.data.get(r)) {
            Some(src) => bytes[..n].copy_from_slice(src),
            // Partly or wholly outside the image: those bytes read zero.
            None => {
                for (i, b) in bytes[..n].iter_mut().enumerate() {
                    let at = addr
                        .checked_add(i as u64)
                        .and_then(|a| usize::try_from(a).ok());
                    *b = at.and_then(|a| self.data.get(a)).copied().unwrap_or(0);
                }
            }
        }
        u64::from_le_bytes(bytes)
    }

    #[inline]
    fn write(&mut self, addr: u64, width: Width, value: u64) {
        let n = width.bytes() as usize;
        let range = self
            .image_range(addr, n)
            .expect("a write the guest-fault check admitted fits the address space");
        if self.data.len() < range.end {
            self.data.resize(range.end, 0);
        }
        self.data[range].copy_from_slice(&value.to_le_bytes()[..n]);
    }

    fn atom(&mut self, op: AtomOp, addr: u64, src: u64, cas: u64) -> u64 {
        let old = GlobalMem::read(self, addr, Width::B64);
        let (new, o) = op.apply(old, src, cas);
        GlobalMem::write(self, addr, Width::B64, new);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = DeviceMemory::new();
        let a = m.alloc(100);
        let b = m.alloc(100);
        assert_eq!(a.0 % ALLOC_ALIGN, 0);
        assert_eq!(b.0 % ALLOC_ALIGN, 0);
        assert!(b.0 >= a.0 + 100);
        assert!(m.allocated() >= 200);
    }

    #[test]
    fn slice_roundtrip() {
        let mut m = DeviceMemory::new();
        let p = m.alloc(16);
        m.write_slice(p, &[1, 2, 3, 4]);
        assert_eq!(m.read_slice(p, 4), vec![1, 2, 3, 4]);
        assert_eq!(m.read_slice(p.offset(2), 2), vec![3, 4]);
    }

    #[test]
    fn u64_roundtrip_and_widths() {
        let mut m = DeviceMemory::new();
        let p = m.alloc(8);
        m.write_u64(p, 0x1122334455667788);
        assert_eq!(m.read_u64(p), 0x1122334455667788);
        assert_eq!(GlobalMem::read(&m, p.0, Width::B8), 0x88);
        assert_eq!(GlobalMem::read(&m, p.0 + 1, Width::B16), 0x6677);
        assert_eq!(GlobalMem::read(&m, p.0, Width::B32), 0x55667788);
    }

    #[test]
    fn unwritten_reads_zero() {
        let m = DeviceMemory::new();
        assert_eq!(GlobalMem::read(&m, 1 << 40, Width::B64), 0);
    }

    #[test]
    fn atomics_apply() {
        let mut m = DeviceMemory::new();
        let p = m.alloc(8);
        m.write_u64(p, 10);
        let old = m.atom(AtomOp::Add, p.0, 5, 0);
        assert_eq!(old, 10);
        assert_eq!(m.read_u64(p), 15);
    }

    #[test]
    fn device_ptr_display() {
        assert_eq!(DevicePtr(0x1000).to_string(), "0x1000");
    }

    #[test]
    fn check_rejects_null_unallocated_and_misaligned() {
        let mut m = DeviceMemory::new();
        let p = m.alloc(64);
        assert_eq!(m.check(p.0, Width::B64, false), None);
        assert_eq!(m.check(p.0 + 56, Width::B64, true), None);
        // Null page.
        assert_eq!(
            m.check(0, Width::B8, false),
            Some(FaultKind::IllegalAddress)
        );
        // Past the allocation frontier.
        assert_eq!(
            m.check(m.frontier(), Width::B32, false),
            Some(FaultKind::IllegalAddress)
        );
        // Misaligned within bounds.
        assert_eq!(
            m.check(p.0 + 1, Width::B32, false),
            Some(FaultKind::MisalignedAccess)
        );
        // Address-space wraparound.
        assert_eq!(
            m.check(u64::MAX - 3, Width::B64, false),
            Some(FaultKind::MisalignedAccess)
        );
    }

    #[test]
    fn in_bounds_is_the_allocated_range_and_never_wraps() {
        let mut m = DeviceMemory::new();
        let p = m.alloc(64);
        assert!(m.in_bounds(p.0, 64));
        assert!(m.in_bounds(m.frontier(), 0), "an empty range at the end");
        assert!(!m.in_bounds(p.0, m.frontier() - p.0 + 1), "one byte past");
        assert!(!m.in_bounds(BASE - 1, 1), "the null page");
        assert!(!m.in_bounds(0, 0));
        assert!(!m.in_bounds(u64::MAX - 2, 8), "wraps the address space");
        assert!(!m.in_bounds(p.0, u64::MAX));
    }

    #[test]
    fn poison_range_faults_inside_live_allocation() {
        let mut m = DeviceMemory::new();
        let p = m.alloc(256);
        assert_eq!(m.check(p.0 + 128, Width::B64, false), None);
        m.set_poison(Some((p.0 + 128, p.0 + 160)));
        assert_eq!(
            m.check(p.0 + 128, Width::B64, false),
            Some(FaultKind::IllegalAddress)
        );
        // Overlap from below.
        assert_eq!(
            m.check(p.0 + 124, Width::B32, true),
            None,
            "access ending at the poison start is fine"
        );
        assert_eq!(
            m.check(p.0 + 152, Width::B64, true),
            Some(FaultKind::IllegalAddress)
        );
        assert_eq!(m.check(p.0 + 160, Width::B64, false), None);
        m.set_poison(None);
        assert_eq!(m.check(p.0 + 128, Width::B64, false), None);
    }

    // ---- rows equal lanes, fast path equals the byte loop ------------------

    use ggpu_isa::{Row, WARP_SIZE};
    use proptest::prelude::*;

    /// The device memory's rules a byte and a lane at a time — `read` and
    /// `write` as they were before the sub-slice fast path — under the
    /// trait's default (per-lane) `*_lanes` bodies.
    struct Reference {
        data: Vec<u8>,
        frontier: u64,
        poison: Option<(u64, u64)>,
    }

    impl GlobalMem for Reference {
        fn check(&self, addr: u64, width: Width, _store: bool) -> Option<FaultKind> {
            let w = width.bytes();
            if !addr.is_multiple_of(w) {
                return Some(FaultKind::MisalignedAccess);
            }
            if addr < BASE || addr.checked_add(w).is_none_or(|end| end > self.frontier) {
                return Some(FaultKind::IllegalAddress);
            }
            match self.poison {
                Some((lo, hi)) if addr < hi && addr + w > lo => Some(FaultKind::IllegalAddress),
                _ => None,
            }
        }
        fn read(&self, addr: u64, width: Width) -> u64 {
            (0..width.bytes()).fold(0, |v, i| {
                let byte = addr.checked_add(i).and_then(|a| self.data.get(a as usize));
                v | (byte.copied().unwrap_or(0) as u64) << (8 * i)
            })
        }
        fn write(&mut self, addr: u64, width: Width, value: u64) {
            let end = (addr + width.bytes()) as usize;
            if self.data.len() < end {
                self.data.resize(end, 0);
            }
            for i in 0..width.bytes() {
                self.data[(addr + i) as usize] = (value >> (8 * i)) as u8;
            }
        }
        fn atom(&mut self, _: AtomOp, _: u64, _: u64, _: u64) -> u64 {
            unreachable!("not under test")
        }
    }

    /// Two allocations (the second's image ends 56 bytes short of the
    /// frontier), filled with `fill`, a poisoned window in the first.
    fn populated(fill: &[u8]) -> DeviceMemory {
        let mut m = DeviceMemory::new();
        let a = m.alloc(1000);
        m.alloc(200);
        let len = m.data.len() - a.0 as usize;
        let bytes: Vec<u8> = fill.iter().copied().cycle().take(len).collect();
        m.write_slice(a, &bytes);
        m.set_poison(Some((a.0 + 256, a.0 + 300)));
        m
    }

    /// A lane address of one of the classes the guest-fault check and the
    /// image distinguish, from `(class, offset)`.
    fn lane_addr(m: &DeviceMemory, width: Width, (class, off): (u8, u64)) -> u64 {
        let w = width.bytes();
        let image_end = m.data.len() as u64;
        match class {
            0 => BASE + off % (m.cursor - BASE) / w * w, // aligned, mostly in bounds
            1 => BASE + off % (m.cursor - BASE),         // any alignment
            2 => off % BASE,                             // the null page
            3 => m.cursor - 16 + off % 64,               // around the frontier
            4 => BASE + 240 + off % 80,                  // around the poisoned window
            5 => image_end - 16 + off % 32,              // straddling the image's end
            _ => u64::MAX - off % 16,                    // the top of the address space
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn lane_rows_equal_per_lane_accesses_of_the_byte_wise_reference(
            fill in prop::collection::vec(0..=255u8, 1..64),
            lanes in prop::collection::vec((0..7u8, 0..=u64::MAX), WARP_SIZE),
            values in prop::collection::vec(0..=u64::MAX, WARP_SIZE),
            mask in prop_oneof![Just(u32::MAX), Just(0u32), 0..=u32::MAX],
            width in prop_oneof![Just(Width::B8), Just(Width::B16), Just(Width::B32), Just(Width::B64)],
            store in 0..2u8,
        ) {
            let mut m = populated(&fill);
            let mut r = Reference { data: m.data.clone(), frontier: m.cursor, poison: m.poison };
            let addrs: Row = std::array::from_fn(|l| lane_addr(&m, width, lanes[l]));
            let values: Row = values.try_into().expect("32 lanes");

            // Through the trait object, as the SM calls them.
            let dev: &mut dyn GlobalMem = &mut m;
            let fault = dev.check_lanes(&addrs, mask, width, store == 1);
            prop_assert_eq!(fault, r.check_lanes(&addrs, mask, width, store == 1));
            prop_assert_eq!(dev.read_lanes(&addrs, mask, width), r.read_lanes(&addrs, mask, width));
            for &a in &addrs {
                prop_assert_eq!(dev.read(a, width), r.read(a, width), "address {:#x}", a);
            }
            // Only lanes the check admits ever reach a write.
            let admitted = mask & !fault.map_or(0, |(_, _, faulting)| faulting);
            dev.write_lanes(&addrs, &values, admitted, width);
            r.write_lanes(&addrs, &values, admitted, width);
            prop_assert_eq!(&m.data, &r.data);
        }
    }
}
