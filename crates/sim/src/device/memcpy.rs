//! Host-side memory API: `malloc`, PCIe transfers, and constant binding.
//!
//! Each operation comes in a fallible `try_*` flavour returning
//! `Result<_, SimError>` and a thin panicking wrapper keeping the original
//! signature. Guest faults and deadlocks are *sticky*: after one, every
//! `try_*` call returns the same error until [`Gpu::reset_fault`].

use std::sync::Arc;

use ggpu_isa::KernelId;

use crate::config::{PCIE_BYTES_PER_CYCLE, PCIE_LATENCY};
use crate::error::SimError;
use crate::memory::DevicePtr;
use crate::trace::{CopyDir, TraceEventKind};

use super::Gpu;

impl Gpu {
    /// Allocate device memory, failing when the configured capacity
    /// ([`crate::GpuConfig::memory_limit`]) would be exceeded.
    ///
    /// Allocation failure is *not* sticky (as in CUDA): the device stays
    /// usable and smaller allocations may still succeed.
    pub fn try_malloc(&mut self, bytes: u64) -> Result<DevicePtr, SimError> {
        if let Some(f) = self.fault().cloned() {
            return Err(f);
        }
        let in_use = self.mem.allocated();
        if bytes.saturating_add(in_use) > self.config.memory_limit {
            return Err(SimError::OutOfMemory {
                requested: bytes,
                in_use,
                limit: self.config.memory_limit,
            });
        }
        Ok(self.mem.alloc(bytes))
    }

    /// Allocate device memory.
    ///
    /// # Panics
    ///
    /// Panics where [`Gpu::try_malloc`] would return an error.
    pub fn malloc(&mut self, bytes: u64) -> DevicePtr {
        self.try_malloc(bytes)
            .unwrap_or_else(|e| panic!("malloc failed: {e}"))
    }

    /// The range rule every host copy answers to before anything is
    /// counted, charged or moved: `[ptr, ptr + len)` must be allocated
    /// device memory ([`crate::DeviceMemory`]'s `in_bounds`, the rule guest
    /// accesses trap on). Not sticky.
    fn check_copy(&self, dir: CopyDir, ptr: DevicePtr, len: usize) -> Result<(), SimError> {
        if self.mem.in_bounds(ptr.0, len as u64) {
            return Ok(());
        }
        Err(SimError::InvalidCopy {
            dir,
            addr: ptr.0,
            len: len as u64,
            frontier: self.mem.frontier(),
        })
    }

    /// Fault-plan hook shared by both copy directions: counts the
    /// transfer, and either drops it (a non-sticky, per-call error — the
    /// device stays usable) or flags its payload for corruption.
    ///
    /// Returns `Ok(poison)` where `poison` says whether every payload byte
    /// must be XORed with `0xA5` (a visible, involutive bit flip).
    fn memcpy_inject(&mut self, dir: CopyDir) -> Result<bool, SimError> {
        let index = self.memcpys_done;
        self.memcpys_done += 1;
        if self.config.fault_plan.drop_memcpy == Some(index) {
            return Err(SimError::MemcpyDropped { index, dir });
        }
        Ok(self.config.fault_plan.poison_memcpy == Some(index))
    }

    /// Copy host data to the device (one PCI transaction).
    pub fn try_memcpy_h2d(&mut self, dst: DevicePtr, data: &[u8]) -> Result<(), SimError> {
        if let Some(f) = self.fault().cloned() {
            return Err(f);
        }
        self.check_copy(CopyDir::H2D, dst, data.len())?;
        if self.memcpy_inject(CopyDir::H2D)? {
            // Corrupt the bytes as they cross the bus: the device-side
            // image differs from the host buffer.
            let twisted: Vec<u8> = data.iter().map(|b| b ^ 0xA5).collect();
            self.mem.write_slice(dst, &twisted);
        } else {
            self.mem.write_slice(dst, data);
        }
        let cost = PCIE_LATENCY + (data.len() as f64 / PCIE_BYTES_PER_CYCLE) as u64;
        self.host.pci_count += 1;
        self.host.h2d_bytes += data.len() as u64;
        self.host.pci_cycles += cost;
        if self.trace_on() {
            self.emit(TraceEventKind::Memcpy {
                dir: CopyDir::H2D,
                bytes: data.len() as u64,
                cycles: cost,
            });
        }
        Ok(())
    }

    /// Copy host data to the device (one PCI transaction).
    ///
    /// # Panics
    ///
    /// Panics when the device is in the fault state.
    pub fn memcpy_h2d(&mut self, dst: DevicePtr, data: &[u8]) {
        self.try_memcpy_h2d(dst, data)
            .unwrap_or_else(|e| panic!("memcpy_h2d failed: {e}"));
    }

    /// Copy device data back to the host (one PCI transaction).
    pub fn try_memcpy_d2h(&mut self, src: DevicePtr, len: usize) -> Result<Vec<u8>, SimError> {
        if let Some(f) = self.fault().cloned() {
            return Err(f);
        }
        self.check_copy(CopyDir::D2H, src, len)?;
        let poison = self.memcpy_inject(CopyDir::D2H)?;
        let cost = PCIE_LATENCY + (len as f64 / PCIE_BYTES_PER_CYCLE) as u64;
        self.host.pci_count += 1;
        self.host.d2h_bytes += len as u64;
        self.host.pci_cycles += cost;
        if self.trace_on() {
            self.emit(TraceEventKind::Memcpy {
                dir: CopyDir::D2H,
                bytes: len as u64,
                cycles: cost,
            });
        }
        let mut out = self.mem.read_slice(src, len);
        if poison {
            // Device memory is intact; only the bytes handed back over the
            // bus are corrupted.
            for b in &mut out {
                *b ^= 0xA5;
            }
        }
        Ok(out)
    }

    /// Copy device data back to the host (one PCI transaction).
    ///
    /// # Panics
    ///
    /// Panics when the device is in the fault state.
    pub fn memcpy_d2h(&mut self, src: DevicePtr, len: usize) -> Vec<u8> {
        self.try_memcpy_d2h(src, len)
            .unwrap_or_else(|e| panic!("memcpy_d2h failed: {e}"))
    }

    /// Bind a constant-memory image to a kernel (as `cudaMemcpyToSymbol`
    /// would); inherited by CDP children of the same kernel id.
    pub fn bind_constants(&mut self, kernel: KernelId, data: Vec<u8>) {
        self.const_bindings.insert(kernel.0, Arc::new(data));
    }
}
