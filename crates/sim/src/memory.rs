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
/// [`GlobalMem::check`], which the SM consults per lane before any access
/// and turns violations into guest faults.
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

    fn read(&self, addr: u64, width: Width) -> u64 {
        let mut v = 0u64;
        for i in 0..width.bytes() {
            let b = self.data.get((addr + i) as usize).copied().unwrap_or(0);
            v |= (b as u64) << (8 * i);
        }
        v
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
}
