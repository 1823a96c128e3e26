//! Host-side memory API: `malloc`, PCIe transfers, and constant binding.
//!
//! Each operation comes in a fallible `try_*` flavour returning
//! `Result<_, SimError>` and a thin panicking wrapper keeping the original
//! signature. Guest faults and deadlocks are *sticky*: after one, every
//! `try_*` call returns the same error until [`Gpu::reset_fault`].

use std::sync::Arc;

use ggpu_isa::KernelId;

use crate::error::SimError;
use crate::memory::DevicePtr;
use crate::trace::{CopyDir, TraceEventKind};

use super::Gpu;

/// A peer-to-peer payload in flight towards this device over the node
/// fabric, waiting in [`Gpu`]'s inbound delivery queue until its arrival
/// cycle. Applied to device memory in the post phase, so delivery
/// order — and therefore memory state — does not depend on how the node
/// schedules its devices.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct InboundCopy {
    /// Destination address in this device's memory.
    pub(super) dst: u64,
    /// Modelled fabric cycles the transfer took (for the trace).
    pub(super) cycles: u64,
    /// The payload.
    pub(super) bytes: Vec<u8>,
}

impl Gpu {
    /// Allocate device memory, failing when the configured capacity
    /// ([`crate::GpuConfig::memory_limit`]) would be exceeded.
    ///
    /// Allocation failure is *not* sticky (as in CUDA): the device stays
    /// usable and smaller allocations may still succeed.
    pub fn try_malloc(&mut self, bytes: u64) -> Result<DevicePtr, SimError> {
        if let Some(f) = self.fault.clone() {
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

    /// The range rule every host and peer copy answers to before anything
    /// is counted, charged or moved: `[ptr, ptr + len)` must be allocated
    /// device memory ([`crate::DeviceMemory`]'s `in_bounds`, the rule guest
    /// accesses trap on). Not sticky.
    pub(crate) fn check_copy(
        &self,
        dir: CopyDir,
        ptr: DevicePtr,
        len: usize,
    ) -> Result<(), SimError> {
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
        if let Some(f) = self.fault.clone() {
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
        let cost = self.config.pcie.latency
            + (data.len() as f64 / self.config.pcie.bytes_per_cycle) as u64;
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
        if let Some(f) = self.fault.clone() {
            return Err(f);
        }
        self.check_copy(CopyDir::D2H, src, len)?;
        let poison = self.memcpy_inject(CopyDir::D2H)?;
        let cost =
            self.config.pcie.latency + (len as f64 / self.config.pcie.bytes_per_cycle) as u64;
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

    // ---- node peer-to-peer hooks (driven by `crate::GpuNode`) -------------

    /// Source half of a node P2P copy, after the node has checked this
    /// device's sticky fault and both ranges: run the shared memcpy
    /// fault-injection hooks (P2P transfers share the drop/poison counter
    /// with PCIe transfers, in call order) and read the payload out of this
    /// device's memory. A poisoned transfer corrupts the payload as it
    /// enters the fabric — the destination receives the twisted bytes while
    /// the source image stays intact.
    pub(crate) fn p2p_read(&mut self, src: DevicePtr, len: usize) -> Result<Vec<u8>, SimError> {
        let poison = self.memcpy_inject(CopyDir::P2P)?;
        let mut bytes = self.mem.read_slice(src, len);
        if poison {
            for b in &mut bytes {
                *b ^= 0xA5;
            }
        }
        Ok(bytes)
    }

    /// Charge this device's outbound P2P counters for a transfer of `bytes`
    /// taking `cycles` fabric cycles, and emit the source-side trace event.
    pub(crate) fn p2p_charge_out(&mut self, bytes: u64, cycles: u64) {
        self.host.p2p_sends += 1;
        self.host.p2p_bytes_out += bytes;
        self.host.p2p_cycles += cycles;
        if self.trace_on() {
            self.emit(TraceEventKind::Memcpy {
                dir: CopyDir::P2P,
                bytes,
                cycles,
            });
        }
    }

    /// Destination half of a node P2P copy: queue the payload for delivery
    /// into this device's memory at `arrival` (its own cycle clock). The
    /// write lands in the post phase of that cycle; until then the
    /// pending payload keeps the device busy and vetoes fast-forward past
    /// the arrival.
    pub(crate) fn p2p_queue_inbound(
        &mut self,
        arrival: u64,
        dst: DevicePtr,
        cycles: u64,
        bytes: Vec<u8>,
    ) {
        self.pending_inbound.push(
            arrival.max(self.cycle + 1),
            InboundCopy {
                dst: dst.0,
                cycles,
                bytes,
            },
        );
    }
}
