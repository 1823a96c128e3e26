//! Guest-fault taxonomy.
//!
//! A [`FaultKind`] names the architectural reason a warp trapped. The ISA
//! crate owns the taxonomy so that both the SM model (which detects faults)
//! and the device model (which reports them to the host) agree on the
//! vocabulary without depending on each other.

use std::fmt;

/// The architectural class of a guest fault.
///
/// Mirrors the fault classes a real CUDA device reports through
/// `cudaErrorIllegalAddress` and friends, but split finer so diagnostics can
/// say *why* an access was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// An off-chip access touched an address outside any live allocation.
    IllegalAddress,
    /// An off-chip access was not naturally aligned for its width.
    MisalignedAccess,
    /// The program counter left the kernel's instruction stream.
    InvalidPc,
    /// A shared-memory access fell outside the CTA's allocation.
    SharedMemOverflow,
    /// A barrier was reached by a divergent subset of a warp.
    BarrierDivergence,
    /// A device-side launch found the pending-launch queue full.
    CdpQueueOverflow,
    /// A device-side launch exceeded the maximum nesting depth.
    CdpNestingExceeded,
    /// A device-side launch asked for a grid the device can never run: an
    /// unknown kernel, an empty grid, a CTA over an SM's thread, register or
    /// shared-memory limit, or too few parameter words.
    CdpInvalidLaunch,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::IllegalAddress => "illegal address",
            FaultKind::MisalignedAccess => "misaligned access",
            FaultKind::InvalidPc => "invalid program counter",
            FaultKind::SharedMemOverflow => "shared memory access out of bounds",
            FaultKind::BarrierDivergence => "barrier reached by divergent warp",
            FaultKind::CdpQueueOverflow => "device-side launch queue overflow",
            FaultKind::CdpNestingExceeded => "device-side launch nesting depth exceeded",
            FaultKind::CdpInvalidLaunch => "device-side launch configuration invalid",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        assert_eq!(FaultKind::IllegalAddress.to_string(), "illegal address");
        assert_eq!(
            FaultKind::CdpNestingExceeded.to_string(),
            "device-side launch nesting depth exceeded"
        );
    }
}
