//! ALU/SFU operations, comparisons, conversions, atomics, and the
//! instruction classes used by the paper's Figure 8 instruction-mix
//! breakdown.

use std::fmt;

use crate::WARP_SIZE;

/// One register across a warp: a value per lane.
pub type Row = [u64; WARP_SIZE];

/// `out[lane] = f(lane)` for the lanes of `mask`; what the other lanes hold
/// is unspecified, so a caller writes back under the same mask.
///
/// Dense (`sparse` unset, or a full mask) it is one straight loop over all 32
/// lanes, which costs less than testing the mask when `f` is a few machine
/// instructions and lets the loop vectorise. Sparse it visits the set bits
/// only, for the operations where an idle lane would cost real work.
#[inline(always)]
fn fill_row(mask: u32, sparse: bool, f: impl Fn(usize) -> u64) -> Row {
    let mut out = [0; WARP_SIZE];
    if sparse && mask != u32::MAX {
        let mut rest = mask;
        while rest != 0 {
            let lane = rest.trailing_zeros() as usize;
            out[lane] = f(lane);
            rest &= rest - 1;
        }
    } else {
        for (lane, o) in out.iter_mut().enumerate() {
            *o = f(lane);
        }
    }
    out
}

/// Coarse instruction classes, matching the categories of Figure 8 in the
/// paper (integer, floating point, load/store, special function, control).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Integer ALU (also covers moves, selects, predicates and conversions).
    Int,
    /// Single- or double-precision floating point.
    Fp,
    /// Memory loads/stores/atomics.
    LdSt,
    /// Special function unit (exp, log, sqrt, rcp).
    Sfu,
    /// Branches, barriers, exits and device-side launches.
    Ctrl,
}

impl InstrClass {
    /// All classes, in Figure 8's display order.
    pub const ALL: [InstrClass; 5] = [
        InstrClass::Int,
        InstrClass::Fp,
        InstrClass::LdSt,
        InstrClass::Sfu,
        InstrClass::Ctrl,
    ];

    /// Short lowercase name (what [`fmt::Display`] prints).
    pub fn name(self) -> &'static str {
        match self {
            InstrClass::Int => "int",
            InstrClass::Fp => "fp",
            InstrClass::LdSt => "ldst",
            InstrClass::Sfu => "sfu",
            InstrClass::Ctrl => "ctrl",
        }
    }
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Scalar interpretation of a 64-bit register value, used by comparisons and
/// conversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarType {
    /// Signed 64-bit integer.
    S64,
    /// Unsigned 64-bit integer.
    U64,
    /// IEEE-754 binary32 in the low 32 bits.
    F32,
    /// IEEE-754 binary64.
    F64,
}

/// Two-operand ALU and SFU operations.
///
/// Integer operations act on the full 64-bit value with wrapping semantics
/// (signed where noted); `F*` act on `f32` bit patterns in the low 32 bits
/// and `D*` on `f64` bit patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant meanings are given in the enum docs
pub enum AluOp {
    // -- integer --
    IAdd,
    ISub,
    IMul,
    /// Signed division; division by zero yields 0 (GPU-style, no trap).
    IDiv,
    /// Signed remainder; remainder by zero yields 0.
    IRem,
    /// Signed minimum.
    IMin,
    /// Signed maximum.
    IMax,
    IAnd,
    IOr,
    IXor,
    /// Logical shift left (count masked to 63).
    IShl,
    /// Logical shift right (count masked to 63).
    IShr,
    /// Arithmetic shift right (count masked to 63).
    ISar,
    // -- f32 --
    FAdd,
    FSub,
    FMul,
    FDiv,
    FMin,
    FMax,
    // -- f64 --
    DAdd,
    DSub,
    DMul,
    DDiv,
    DMin,
    DMax,
    // -- SFU (unary; second operand ignored) --
    /// `exp(a)` on f32.
    FExp,
    /// `ln(a)` on f32; `ln(x<=0)` yields negative infinity / NaN per IEEE.
    FLog,
    /// `sqrt(a)` on f32.
    FSqrt,
    /// `1/a` on f32.
    FRcp,
    /// `exp(a)` on f64.
    DExp,
    /// `ln(a)` on f64.
    DLog,
}

/// Hand every [`AluOp`] variant to `$m`, after any tokens that follow its
/// name — the one list the row form's dispatch and the tests' "every
/// operation" are both expanded from.
macro_rules! alu_ops {
    ($m:ident $($pre:tt)*) => {
        $m!($($pre)* IAdd ISub IMul IDiv IRem IMin IMax IAnd IOr IXor IShl IShr ISar
            FAdd FSub FMul FDiv FMin FMax DAdd DSub DMul DDiv DMin DMax
            FExp FLog FSqrt FRcp DExp DLog)
    };
}

impl AluOp {
    /// The instruction class this operation is accounted under.
    pub fn class(self) -> InstrClass {
        use AluOp::*;
        match self {
            IAdd | ISub | IMul | IDiv | IRem | IMin | IMax | IAnd | IOr | IXor | IShl | IShr
            | ISar => InstrClass::Int,
            FAdd | FSub | FMul | FDiv | FMin | FMax | DAdd | DSub | DMul | DDiv | DMin | DMax => {
                InstrClass::Fp
            }
            FExp | FLog | FSqrt | FRcp | DExp | DLog => InstrClass::Sfu,
        }
    }

    /// True for double-precision operations (which issue at reduced
    /// throughput on consumer GPUs such as the RTX 3070).
    pub fn is_f64(self) -> bool {
        use AluOp::*;
        matches!(self, DAdd | DSub | DMul | DDiv | DMin | DMax | DExp | DLog)
    }

    /// Division and the SFU functions: an idle lane would cost a divide or
    /// a libm call, so under a partial mask their row form visits the active
    /// lanes only. Every other operation is cheaper computed for all 32.
    #[inline]
    fn lane_is_costly(self) -> bool {
        use AluOp::*;
        matches!(
            self,
            IDiv | IRem | FDiv | DDiv | FExp | FLog | FSqrt | FRcp | DExp | DLog
        )
    }

    /// [`AluOp::eval`] for a whole warp: the operation is resolved once and
    /// the row computed in one loop. Lanes outside `mask` are unspecified —
    /// write the row back under the same mask: all 32 lanes are computed
    /// whatever the mask, except for division and the SFU functions, which
    /// visit only the set lanes of a partial mask. Every arm *is* the scalar
    /// `eval` with the operation a constant, so the scalar form stays the
    /// single definition of the semantics.
    pub fn eval_row(self, mask: u32, a: &Row, b: &Row) -> Row {
        macro_rules! arms {
            ($($op:ident)*) => {
                match self {
                    $(AluOp::$op => fill_row(mask, AluOp::$op.lane_is_costly(), |l| {
                        AluOp::$op.eval(a[l], b[l])
                    }),)*
                }
            };
        }
        alu_ops!(arms)
    }

    /// Evaluate the operation on raw 64-bit register values.
    #[inline(always)]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        use AluOp::*;
        #[inline]
        fn f(a: u64) -> f32 {
            f32::from_bits(a as u32)
        }
        #[inline]
        fn fb(v: f32) -> u64 {
            v.to_bits() as u64
        }
        #[inline]
        fn d(a: u64) -> f64 {
            f64::from_bits(a)
        }
        #[inline]
        fn db(v: f64) -> u64 {
            v.to_bits()
        }
        match self {
            IAdd => a.wrapping_add(b),
            ISub => a.wrapping_sub(b),
            IMul => a.wrapping_mul(b),
            IDiv => {
                if b == 0 {
                    0
                } else {
                    ((a as i64).wrapping_div(b as i64)) as u64
                }
            }
            IRem => {
                if b == 0 {
                    0
                } else {
                    ((a as i64).wrapping_rem(b as i64)) as u64
                }
            }
            IMin => (a as i64).min(b as i64) as u64,
            IMax => (a as i64).max(b as i64) as u64,
            IAnd => a & b,
            IOr => a | b,
            IXor => a ^ b,
            IShl => a.wrapping_shl((b & 63) as u32),
            IShr => a.wrapping_shr((b & 63) as u32),
            ISar => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
            FAdd => fb(f(a) + f(b)),
            FSub => fb(f(a) - f(b)),
            FMul => fb(f(a) * f(b)),
            FDiv => fb(f(a) / f(b)),
            FMin => fb(f(a).min(f(b))),
            FMax => fb(f(a).max(f(b))),
            DAdd => db(d(a) + d(b)),
            DSub => db(d(a) - d(b)),
            DMul => db(d(a) * d(b)),
            DDiv => db(d(a) / d(b)),
            DMin => db(d(a).min(d(b))),
            DMax => db(d(a).max(d(b))),
            FExp => fb(f(a).exp()),
            FLog => fb(f(a).ln()),
            FSqrt => fb(f(a).sqrt()),
            FRcp => fb(1.0 / f(a)),
            DExp => db(d(a).exp()),
            DLog => db(d(a).ln()),
        }
    }

    /// Mnemonic used in disassembly.
    pub fn mnemonic(self) -> &'static str {
        use AluOp::*;
        match self {
            IAdd => "add.s64",
            ISub => "sub.s64",
            IMul => "mul.s64",
            IDiv => "div.s64",
            IRem => "rem.s64",
            IMin => "min.s64",
            IMax => "max.s64",
            IAnd => "and.b64",
            IOr => "or.b64",
            IXor => "xor.b64",
            IShl => "shl.b64",
            IShr => "shr.u64",
            ISar => "shr.s64",
            FAdd => "add.f32",
            FSub => "sub.f32",
            FMul => "mul.f32",
            FDiv => "div.f32",
            FMin => "min.f32",
            FMax => "max.f32",
            DAdd => "add.f64",
            DSub => "sub.f64",
            DMul => "mul.f64",
            DDiv => "div.f64",
            DMin => "min.f64",
            DMax => "max.f64",
            FExp => "ex2.f32",
            FLog => "lg2.f32",
            FSqrt => "sqrt.f32",
            FRcp => "rcp.f32",
            DExp => "ex2.f64",
            DLog => "lg2.f64",
        }
    }
}

/// Comparison predicates for [`crate::Instr::SetP`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Every [`CmpOp`] variant, as [`alu_ops`].
macro_rules! cmp_ops {
    ($m:ident $($pre:tt)*) => {
        $m!($($pre)* Eq Ne Lt Le Gt Ge)
    };
}

/// Every [`ScalarType`] variant, as [`alu_ops`].
macro_rules! scalar_types {
    ($m:ident $($pre:tt)*) => {
        $m!($($pre)* S64 U64 F32 F64)
    };
}

impl CmpOp {
    /// [`CmpOp::eval`] for a whole warp, as 0 / 1 per lane: comparison and
    /// type are resolved once, every lane is computed (see
    /// [`AluOp::eval_row`]).
    pub fn eval_row(self, ty: ScalarType, a: &Row, b: &Row) -> Row {
        macro_rules! by_type {
            ($cmp:ident: $($t:ident)*) => {
                match ty {
                    $(ScalarType::$t => fill_row(u32::MAX, false, |l| {
                        CmpOp::$cmp.eval(ScalarType::$t, a[l], b[l]) as u64
                    }),)*
                }
            };
        }
        macro_rules! arms {
            ($($cmp:ident)*) => {
                match self {
                    $(CmpOp::$cmp => scalar_types!(by_type $cmp:),)*
                }
            };
        }
        cmp_ops!(arms)
    }

    /// Evaluate the comparison on raw values interpreted as `ty`.
    #[inline(always)]
    pub fn eval(self, ty: ScalarType, a: u64, b: u64) -> bool {
        use std::cmp::Ordering;
        let ord = match ty {
            ScalarType::S64 => (a as i64).cmp(&(b as i64)),
            ScalarType::U64 => a.cmp(&b),
            ScalarType::F32 => {
                let (x, y) = (f32::from_bits(a as u32), f32::from_bits(b as u32));
                match x.partial_cmp(&y) {
                    Some(o) => o,
                    // NaN: only Ne is true, like IEEE unordered comparisons.
                    None => return self == CmpOp::Ne,
                }
            }
            ScalarType::F64 => {
                let (x, y) = (f64::from_bits(a), f64::from_bits(b));
                match x.partial_cmp(&y) {
                    Some(o) => o,
                    None => return self == CmpOp::Ne,
                }
            }
        };
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// Mnemonic suffix used in disassembly.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }
}

/// Conversions between register interpretations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CvtKind {
    /// Signed integer to `f32`.
    I2F,
    /// Signed integer to `f64`.
    I2D,
    /// `f32` to signed integer (round toward zero; saturates at i64 bounds).
    F2I,
    /// `f64` to signed integer (round toward zero; saturates at i64 bounds).
    D2I,
    /// `f32` to `f64`.
    F2D,
    /// `f64` to `f32`.
    D2F,
}

/// Every [`CvtKind`] variant, as [`alu_ops`].
macro_rules! cvt_kinds {
    ($m:ident $($pre:tt)*) => {
        $m!($($pre)* I2F I2D F2I D2I F2D D2F)
    };
}

impl CvtKind {
    /// [`CvtKind::eval`] for a whole warp: the conversion is resolved once,
    /// every lane is computed (see [`AluOp::eval_row`]).
    pub fn eval_row(self, a: &Row) -> Row {
        macro_rules! arms {
            ($($kind:ident)*) => {
                match self {
                    $(CvtKind::$kind => fill_row(u32::MAX, false, |l| CvtKind::$kind.eval(a[l])),)*
                }
            };
        }
        cvt_kinds!(arms)
    }

    /// Evaluate the conversion on a raw 64-bit value.
    #[inline(always)]
    pub fn eval(self, a: u64) -> u64 {
        match self {
            CvtKind::I2F => ((a as i64) as f32).to_bits() as u64,
            CvtKind::I2D => ((a as i64) as f64).to_bits(),
            CvtKind::F2I => (f32::from_bits(a as u32) as i64) as u64,
            CvtKind::D2I => (f64::from_bits(a) as i64) as u64,
            CvtKind::F2D => ((f32::from_bits(a as u32)) as f64).to_bits(),
            CvtKind::D2F => ((f64::from_bits(a)) as f32).to_bits() as u64,
        }
    }

    /// Mnemonic used in disassembly.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CvtKind::I2F => "cvt.f32.s64",
            CvtKind::I2D => "cvt.f64.s64",
            CvtKind::F2I => "cvt.s64.f32",
            CvtKind::D2I => "cvt.s64.f64",
            CvtKind::F2D => "cvt.f64.f32",
            CvtKind::D2F => "cvt.f32.f64",
        }
    }
}

/// Atomic read-modify-write operations on global or shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomOp {
    /// Atomic add; returns the old value.
    Add,
    /// Atomic signed minimum; returns the old value.
    Min,
    /// Atomic signed maximum; returns the old value.
    Max,
    /// Atomic exchange; returns the old value.
    Exch,
    /// Compare-and-swap: the instruction's `src` is the new value, the
    /// `compare` operand is held in the extra field of [`crate::Instr::Atom`].
    Cas,
}

impl AtomOp {
    /// Apply the RMW operation, returning `(new_value, old_value)`.
    ///
    /// For [`AtomOp::Cas`], `extra` is the compare value; for all other
    /// operations it is ignored.
    pub fn apply(self, old: u64, src: u64, extra: u64) -> (u64, u64) {
        let new = match self {
            AtomOp::Add => old.wrapping_add(src),
            AtomOp::Min => (old as i64).min(src as i64) as u64,
            AtomOp::Max => (old as i64).max(src as i64) as u64,
            AtomOp::Exch => src,
            AtomOp::Cas => {
                if old == extra {
                    src
                } else {
                    old
                }
            }
        };
        (new, old)
    }

    /// Mnemonic used in disassembly.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AtomOp::Add => "atom.add",
            AtomOp::Min => "atom.min",
            AtomOp::Max => "atom.max",
            AtomOp::Exch => "atom.exch",
            AtomOp::Cas => "atom.cas",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_arithmetic_wraps_and_signs() {
        assert_eq!(AluOp::IAdd.eval(u64::MAX, 1), 0);
        assert_eq!(AluOp::ISub.eval(0, 1), u64::MAX);
        assert_eq!(AluOp::IMul.eval(3, (-4i64) as u64) as i64, -12);
        assert_eq!(AluOp::IDiv.eval((-9i64) as u64, 2) as i64, -4);
        assert_eq!(AluOp::IRem.eval((-9i64) as u64, 2) as i64, -1);
        assert_eq!(AluOp::IMin.eval((-3i64) as u64, 2) as i64, -3);
        assert_eq!(AluOp::IMax.eval((-3i64) as u64, 2) as i64, 2);
    }

    #[test]
    fn division_by_zero_is_zero_not_trap() {
        assert_eq!(AluOp::IDiv.eval(5, 0), 0);
        assert_eq!(AluOp::IRem.eval(5, 0), 0);
    }

    #[test]
    fn shifts_mask_count() {
        assert_eq!(AluOp::IShl.eval(1, 64), 1); // 64 & 63 == 0
        assert_eq!(AluOp::IShr.eval(0x8000_0000_0000_0000, 63), 1);
        assert_eq!(AluOp::ISar.eval((-8i64) as u64, 1) as i64, -4);
    }

    #[test]
    fn f32_ops_roundtrip_through_bits() {
        let a = 2.0f32.to_bits() as u64;
        let b = 0.5f32.to_bits() as u64;
        assert_eq!(f32::from_bits(AluOp::FAdd.eval(a, b) as u32), 2.5);
        assert_eq!(f32::from_bits(AluOp::FMul.eval(a, b) as u32), 1.0);
        assert_eq!(f32::from_bits(AluOp::FDiv.eval(a, b) as u32), 4.0);
        assert_eq!(f32::from_bits(AluOp::FMax.eval(a, b) as u32), 2.0);
    }

    #[test]
    fn f64_ops() {
        let a = 3.0f64.to_bits();
        let b = 1.5f64.to_bits();
        assert_eq!(f64::from_bits(AluOp::DAdd.eval(a, b)), 4.5);
        assert_eq!(f64::from_bits(AluOp::DMin.eval(a, b)), 1.5);
        assert!(AluOp::DAdd.is_f64());
        assert!(!AluOp::FAdd.is_f64());
    }

    #[test]
    fn sfu_ops() {
        let e = AluOp::FExp.eval(1.0f32.to_bits() as u64, 0);
        assert!((f32::from_bits(e as u32) - std::f32::consts::E).abs() < 1e-6);
        let s = AluOp::FSqrt.eval(9.0f32.to_bits() as u64, 0);
        assert_eq!(f32::from_bits(s as u32), 3.0);
        assert_eq!(AluOp::FExp.class(), InstrClass::Sfu);
    }

    #[test]
    fn classes() {
        assert_eq!(AluOp::IAdd.class(), InstrClass::Int);
        assert_eq!(AluOp::FAdd.class(), InstrClass::Fp);
        assert_eq!(AluOp::DMul.class(), InstrClass::Fp);
    }

    #[test]
    fn comparisons_signed_unsigned_float() {
        let neg1 = (-1i64) as u64;
        assert!(CmpOp::Lt.eval(ScalarType::S64, neg1, 0));
        assert!(!CmpOp::Lt.eval(ScalarType::U64, neg1, 0));
        assert!(CmpOp::Gt.eval(ScalarType::U64, neg1, 0));
        let a = 1.0f32.to_bits() as u64;
        let b = 2.0f32.to_bits() as u64;
        assert!(CmpOp::Le.eval(ScalarType::F32, a, b));
        assert!(CmpOp::Ge.eval(ScalarType::F64, 2.0f64.to_bits(), 2.0f64.to_bits()));
    }

    #[test]
    fn nan_comparisons_are_unordered() {
        let nan = f32::NAN.to_bits() as u64;
        let one = 1.0f32.to_bits() as u64;
        assert!(!CmpOp::Eq.eval(ScalarType::F32, nan, one));
        assert!(!CmpOp::Lt.eval(ScalarType::F32, nan, one));
        assert!(CmpOp::Ne.eval(ScalarType::F32, nan, one));
    }

    #[test]
    fn conversions() {
        assert_eq!(
            f32::from_bits(CvtKind::I2F.eval((-3i64) as u64) as u32),
            -3.0
        );
        assert_eq!(CvtKind::F2I.eval(2.9f32.to_bits() as u64) as i64, 2);
        assert_eq!(CvtKind::D2I.eval((-2.9f64).to_bits()) as i64, -2);
        let d = CvtKind::F2D.eval(0.5f32.to_bits() as u64);
        assert_eq!(f64::from_bits(d), 0.5);
    }

    #[test]
    fn atomics() {
        assert_eq!(AtomOp::Add.apply(10, 5, 0), (15, 10));
        assert_eq!(AtomOp::Min.apply((-2i64) as u64, 3, 0).0 as i64, -2);
        assert_eq!(AtomOp::Exch.apply(1, 9, 0), (9, 1));
        assert_eq!(AtomOp::Cas.apply(7, 9, 7), (9, 7)); // matched: swapped
        assert_eq!(AtomOp::Cas.apply(7, 9, 8), (7, 7)); // unmatched: unchanged
    }

    // ---- rows equal lanes: every row form against the scalar `eval` ----

    use proptest::prelude::*;

    macro_rules! all {
        ($ty:ident: $($v:ident)*) => { [$($ty::$v),*] };
    }

    /// Operands where integer, shift, division and float semantics have
    /// their corners: 0, ±1, the i64 extremes (`MIN / -1`, divisor 0), shift
    /// counts of 64 and beyond, ±0.0, ±inf, NaNs with payloads and denormals
    /// in both float widths.
    fn edges() -> Vec<u64> {
        let mut v = vec![
            0,
            1,
            u64::MAX, // -1
            i64::MIN as u64,
            i64::MAX as u64,
            63,
            64,
            65,
            200,
        ];
        let f32s = [
            0.0f32,
            -0.0,
            1.0,
            -2.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 4.0, // denormal
            f32::MAX,
        ];
        v.extend(f32s.iter().map(|f| f.to_bits() as u64));
        v.extend([0x7FC0_0001u64, 0xFFC1_2345, 0x7F80_0001]); // f32 NaN payloads
        let f64s = [
            0.0f64,
            -0.0,
            1.0,
            -2.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            9.3e18, // beyond i64
        ];
        v.extend(f64s.iter().map(|f| f.to_bits()));
        v.extend([0x7FF8_0000_0000_0001u64, 0xFFF0_0000_0BAD_F00D]); // f64 NaN payloads
        v
    }

    /// Every check of one `(mask, a, b)` draw: each row form, in the lanes
    /// of `mask`, is the scalar form of that lane.
    fn rows_equal_lanes(mask: u32, a: &Row, b: &Row) {
        let active = (0..WARP_SIZE).filter(|l| mask & (1 << l) != 0);
        for op in alu_ops!(all AluOp:) {
            let row = op.eval_row(mask, a, b);
            for l in active.clone() {
                assert_eq!(row[l], op.eval(a[l], b[l]), "{op:?} lane {l}");
            }
        }
        for cmp in cmp_ops!(all CmpOp:) {
            for ty in scalar_types!(all ScalarType:) {
                let row = cmp.eval_row(ty, a, b);
                for l in active.clone() {
                    assert_eq!(
                        row[l],
                        cmp.eval(ty, a[l], b[l]) as u64,
                        "{cmp:?} {ty:?} {l}"
                    );
                }
            }
        }
        for kind in cvt_kinds!(all CvtKind:) {
            let row = kind.eval_row(a);
            for l in active.clone() {
                assert_eq!(row[l], kind.eval(a[l]), "{kind:?} lane {l}");
            }
        }
    }

    #[test]
    fn rows_equal_lanes_on_every_pair_of_edge_operands() {
        let edges = edges();
        let pairs: Vec<(u64, u64)> = edges
            .iter()
            .flat_map(|&a| edges.iter().map(move |&b| (a, b)))
            .collect();
        for (i, chunk) in pairs.chunks(WARP_SIZE).enumerate() {
            let (mut a, mut b) = ([0; WARP_SIZE], [0; WARP_SIZE]);
            for (l, &(x, y)) in chunk.iter().enumerate() {
                (a[l], b[l]) = (x, y);
            }
            // Full, partial (alternating halves) and empty masks in turn.
            for mask in [u32::MAX, 0x5555_5555 << (i % 2), 0] {
                rows_equal_lanes(mask, &a, &b);
            }
        }
    }

    /// A lane operand: an edge value half the time, any bit pattern otherwise.
    fn operand() -> BoxedStrategy<u64> {
        let edges = edges();
        (0..2 * edges.len(), 0..=u64::MAX)
            .prop_map(move |(pick, any)| edges.get(pick).copied().unwrap_or(any))
    }

    fn row() -> BoxedStrategy<Row> {
        prop::collection::vec(operand(), WARP_SIZE).prop_map(|v| v.try_into().expect("32 lanes"))
    }

    proptest! {
        #[test]
        fn rows_equal_lanes_on_random_operands_and_masks(
            a in row(),
            b in row(),
            partial in 0..=u32::MAX,
            shape in 0..3u8,
        ) {
            let mask = [u32::MAX, 0, partial][shape as usize];
            rows_equal_lanes(mask, &a, &b);
        }
    }
}
