//! Registers, operands, and special (read-only) registers.

use std::fmt;

/// An architectural register index within a thread's register file.
///
/// Registers are untyped 64-bit containers; the operating instruction decides
/// how the bits are interpreted (see [`crate::ScalarType`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u16);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A source operand: either a register or a 64-bit immediate.
///
/// Immediates are stored as `i64` and sign-extended into the 64-bit value
/// domain; floating-point immediates are passed as raw bit patterns via
/// [`Operand::f64imm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read the value of a register.
    Reg(Reg),
    /// A literal value (raw 64 bits, already encoded).
    Imm(u64),
}

impl Operand {
    /// Register operand.
    #[inline]
    pub fn reg(r: Reg) -> Self {
        Operand::Reg(r)
    }

    /// Signed integer immediate (sign-extended to 64 bits).
    #[inline]
    pub fn imm(v: i64) -> Self {
        Operand::Imm(v as u64)
    }

    /// `f64` immediate, stored as its bit pattern.
    #[inline]
    pub fn f64imm(v: f64) -> Self {
        Operand::Imm(v.to_bits())
    }

    /// The register read by this operand, if any.
    #[inline]
    pub(crate) fn as_reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            Operand::Imm(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{}", *v as i64),
        }
    }
}

/// Read-only per-thread special registers, mirroring PTX `%tid`, `%ctaid`,
/// `%ntid`, `%nctaid`, `%laneid` and `%warpid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialReg {
    /// Thread index within the CTA, x dimension.
    TidX,
    /// Thread index within the CTA, y dimension.
    TidY,
    /// Thread index within the CTA, z dimension.
    TidZ,
    /// CTA index within the grid, x dimension.
    CtaIdX,
    /// CTA index within the grid, y dimension.
    CtaIdY,
    /// CTA index within the grid, z dimension.
    CtaIdZ,
    /// CTA size, x dimension.
    NTidX,
    /// CTA size, y dimension.
    NTidY,
    /// CTA size, z dimension.
    NTidZ,
    /// Grid size in CTAs, x dimension.
    NCtaIdX,
    /// Grid size in CTAs, y dimension.
    NCtaIdY,
    /// Grid size in CTAs, z dimension.
    NCtaIdZ,
    /// Lane index within the warp (0..32).
    LaneId,
    /// Warp index within the CTA.
    WarpId,
}

impl fmt::Display for SpecialReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SpecialReg::TidX => "%tid.x",
            SpecialReg::TidY => "%tid.y",
            SpecialReg::TidZ => "%tid.z",
            SpecialReg::CtaIdX => "%ctaid.x",
            SpecialReg::CtaIdY => "%ctaid.y",
            SpecialReg::CtaIdZ => "%ctaid.z",
            SpecialReg::NTidX => "%ntid.x",
            SpecialReg::NTidY => "%ntid.y",
            SpecialReg::NTidZ => "%ntid.z",
            SpecialReg::NCtaIdX => "%nctaid.x",
            SpecialReg::NCtaIdY => "%nctaid.y",
            SpecialReg::NCtaIdZ => "%nctaid.z",
            SpecialReg::LaneId => "%laneid",
            SpecialReg::WarpId => "%warpid",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_immediate_encodings() {
        assert_eq!(Operand::imm(-1), Operand::Imm(u64::MAX));
        assert_eq!(Operand::f64imm(2.5), Operand::Imm(2.5f64.to_bits()));
    }

    #[test]
    fn operand_as_reg() {
        assert_eq!(Operand::reg(Reg(3)).as_reg(), Some(Reg(3)));
        assert_eq!(Operand::imm(7).as_reg(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Reg(12).to_string(), "r12");
        assert_eq!(Operand::imm(-5).to_string(), "-5");
        assert_eq!(SpecialReg::TidX.to_string(), "%tid.x");
        assert_eq!(SpecialReg::NCtaIdZ.to_string(), "%nctaid.z");
    }

    #[test]
    fn reg_into_operand() {
        let op: Operand = Reg(9).into();
        assert_eq!(op, Operand::Reg(Reg(9)));
    }
}
