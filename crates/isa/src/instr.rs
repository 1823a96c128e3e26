//! The instruction set proper: memory spaces, access widths, and [`Instr`].

use std::fmt;

use crate::op::{AluOp, AtomOp, CmpOp, CvtKind, InstrClass, ScalarType};
use crate::reg::{Operand, Reg, SpecialReg};

/// GPU memory spaces, matching the categories of Figure 9 in the paper
/// (shared / texture / constant / parameter / local / global).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Off-chip global memory, cached in L1/L2.
    Global,
    /// Per-thread local memory (register spill space); physically resides in
    /// global memory and is cached, but addresses are thread-relative.
    Local,
    /// Per-CTA on-chip scratchpad with 32 banks.
    Shared,
    /// Read-only constant memory, served by the per-SM constant cache.
    Const,
    /// Kernel parameter buffer (written by the launch, read-only on device).
    Param,
    /// Read-only texture path; modelled as global data through the texture
    /// cache.
    Tex,
}

impl Space {
    /// All spaces, in Figure 9's display order.
    pub const ALL: [Space; 6] = [
        Space::Shared,
        Space::Tex,
        Space::Const,
        Space::Param,
        Space::Local,
        Space::Global,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Space::Global => "global",
            Space::Local => "local",
            Space::Shared => "shared",
            Space::Const => "const",
            Space::Param => "param",
            Space::Tex => "tex",
        }
    }
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Access width of a load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 1 byte, zero-extended on load.
    B8,
    /// 2 bytes, zero-extended on load.
    B16,
    /// 4 bytes, zero-extended on load.
    B32,
    /// 8 bytes.
    B64,
}

impl Width {
    /// Size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Width::B8 => 1,
            Width::B16 => 2,
            Width::B32 => 4,
            Width::B64 => 8,
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.bytes() * 8)
    }
}

/// A single machine instruction.
///
/// Program counters are indices into [`crate::Kernel::instrs`]. Conditional
/// branches carry their immediate post-dominator (`reconv`) so the SIMT
/// stack can reconverge diverged warps; the [`crate::KernelBuilder`]
/// structured-control-flow helpers compute these automatically.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = op(a, b)` — integer, floating-point or SFU operation.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First source.
        a: Operand,
        /// Second source (ignored by unary SFU ops).
        b: Operand,
    },
    /// Fused multiply-add: `dst = a * b + c` (f32 when `f64` is false).
    Fma {
        /// Double precision if true.
        f64: bool,
        /// Destination register.
        dst: Reg,
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Operand,
    },
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = cond != 0 ? if_true : if_false`.
    Sel {
        /// Destination register.
        dst: Reg,
        /// Condition register (non-zero selects `if_true`).
        cond: Reg,
        /// Value when the condition holds.
        if_true: Operand,
        /// Value when it does not.
        if_false: Operand,
    },
    /// `pred = (a <cmp> b)` under interpretation `ty`; writes 1 or 0.
    SetP {
        /// Destination predicate register.
        pred: Reg,
        /// Comparison.
        cmp: CmpOp,
        /// How the operands are interpreted.
        ty: ScalarType,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Type conversion `dst = cvt(src)`.
    Cvt {
        /// Conversion kind.
        kind: CvtKind,
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// Read a special register.
    Sreg {
        /// Destination register.
        dst: Reg,
        /// Which special register to read.
        sreg: SpecialReg,
    },
    /// Load `width` bytes from `space` at `addr + offset` into `dst`.
    Ld {
        /// Memory space.
        space: Space,
        /// Access width.
        width: Width,
        /// Destination register.
        dst: Reg,
        /// Base address operand.
        addr: Operand,
        /// Constant byte offset.
        offset: i64,
    },
    /// Store `width` bytes of `src` to `space` at `addr + offset`.
    St {
        /// Memory space.
        space: Space,
        /// Access width.
        width: Width,
        /// Value to store.
        src: Operand,
        /// Base address operand.
        addr: Operand,
        /// Constant byte offset.
        offset: i64,
    },
    /// Atomic read-modify-write on `space` (global or shared); `dst`
    /// receives the old value. 64-bit only.
    Atom {
        /// RMW operation.
        op: AtomOp,
        /// Memory space (global or shared).
        space: Space,
        /// Receives the previous value.
        dst: Reg,
        /// Address operand.
        addr: Operand,
        /// Operand value (the new value for CAS).
        src: Operand,
        /// Compare value for CAS; ignored otherwise.
        cas_cmp: Operand,
    },
    /// CTA-wide barrier (`__syncthreads`).
    Bar,
    /// Branch to `target`. If `pred` is set, only lanes whose predicate
    /// matches `expect` take the branch; `reconv` is the reconvergence PC
    /// pushed on divergence.
    Bra {
        /// Optional (register, expected-truth) predicate guard.
        pred: Option<(Reg, bool)>,
        /// Branch target PC.
        target: usize,
        /// Immediate post-dominator for divergence handling.
        reconv: usize,
    },
    /// Device-side kernel launch (CUDA Dynamic Parallelism).
    ///
    /// Enqueues `grid_x` CTAs of `block_x` threads of kernel `kernel` with a
    /// parameter block previously written to global memory at `params_ptr`
    /// (`param_words` consecutive u64 words). Each active lane issues one
    /// launch.
    Launch {
        /// Kernel id within the [`crate::Program`].
        kernel: u32,
        /// Grid size in CTAs (x dimension).
        grid_x: Operand,
        /// CTA size in threads (x dimension).
        block_x: Operand,
        /// Global-memory address of the parameter block.
        params_ptr: Operand,
        /// Number of u64 parameter words to copy.
        param_words: u32,
    },
    /// Wait for all child kernels launched by this thread's CTA to complete
    /// (`cudaDeviceSynchronize` on device).
    Dsync,
    /// Thread exit.
    Exit,
}

impl Instr {
    /// The accounting class of this instruction (Figure 8 categories).
    pub fn class(&self) -> InstrClass {
        match self {
            Instr::Alu { op, .. } => op.class(),
            Instr::Fma { .. } => InstrClass::Fp,
            Instr::Mov { .. }
            | Instr::Sel { .. }
            | Instr::SetP { .. }
            | Instr::Cvt { .. }
            | Instr::Sreg { .. } => InstrClass::Int,
            Instr::Ld { .. } | Instr::St { .. } | Instr::Atom { .. } => InstrClass::LdSt,
            Instr::Bar | Instr::Bra { .. } | Instr::Launch { .. } | Instr::Dsync | Instr::Exit => {
                InstrClass::Ctrl
            }
        }
    }

    /// Destination register written by the instruction, if any.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Instr::Alu { dst, .. }
            | Instr::Fma { dst, .. }
            | Instr::Mov { dst, .. }
            | Instr::Sel { dst, .. }
            | Instr::Cvt { dst, .. }
            | Instr::Sreg { dst, .. }
            | Instr::Ld { dst, .. }
            | Instr::Atom { dst, .. } => Some(*dst),
            Instr::SetP { pred, .. } => Some(*pred),
            _ => None,
        }
    }

    /// Source registers read by the instruction.
    pub fn srcs(&self) -> Vec<Reg> {
        self.src_array().into_iter().flatten().collect()
    }

    /// Source registers as a fixed array (allocation-free variant of
    /// [`Instr::srcs`] for scheduler hot paths).
    pub fn src_array(&self) -> [Option<Reg>; 3] {
        match self {
            Instr::Alu { a, b, .. } | Instr::SetP { a, b, .. } => [a.as_reg(), b.as_reg(), None],
            Instr::Fma { a, b, c, .. } => [a.as_reg(), b.as_reg(), c.as_reg()],
            Instr::Mov { src, .. } | Instr::Cvt { src, .. } => [src.as_reg(), None, None],
            Instr::Sel {
                cond,
                if_true,
                if_false,
                ..
            } => [Some(*cond), if_true.as_reg(), if_false.as_reg()],
            Instr::Ld { addr, .. } => [addr.as_reg(), None, None],
            Instr::St { src, addr, .. } => [src.as_reg(), addr.as_reg(), None],
            Instr::Atom {
                addr, src, cas_cmp, ..
            } => [addr.as_reg(), src.as_reg(), cas_cmp.as_reg()],
            Instr::Bra { pred, .. } => [pred.map(|(r, _)| r), None, None],
            Instr::Launch {
                grid_x,
                block_x,
                params_ptr,
                ..
            } => [grid_x.as_reg(), block_x.as_reg(), params_ptr.as_reg()],
            Instr::Sreg { .. } | Instr::Bar | Instr::Dsync | Instr::Exit => [None, None, None],
        }
    }

    /// The memory space accessed, if this is a memory instruction.
    pub fn mem_space(&self) -> Option<Space> {
        match self {
            Instr::Ld { space, .. } | Instr::St { space, .. } | Instr::Atom { space, .. } => {
                Some(*space)
            }
            _ => None,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Alu { op, dst, a, b } => write!(f, "{} {dst}, {a}, {b}", op.mnemonic()),
            Instr::Fma { f64, dst, a, b, c } => {
                write!(
                    f,
                    "fma.{} {dst}, {a}, {b}, {c}",
                    if *f64 { "f64" } else { "f32" }
                )
            }
            Instr::Mov { dst, src } => write!(f, "mov {dst}, {src}"),
            Instr::Sel {
                dst,
                cond,
                if_true,
                if_false,
            } => write!(f, "selp {dst}, {if_true}, {if_false}, {cond}"),
            Instr::SetP {
                pred,
                cmp,
                ty,
                a,
                b,
            } => {
                write!(f, "setp.{}.{ty:?} {pred}, {a}, {b}", cmp.mnemonic())
            }
            Instr::Cvt { kind, dst, src } => write!(f, "{} {dst}, {src}", kind.mnemonic()),
            Instr::Sreg { dst, sreg } => write!(f, "mov {dst}, {sreg}"),
            Instr::Ld {
                space,
                width,
                dst,
                addr,
                offset,
            } => write!(f, "ld.{space}.{width} {dst}, [{addr}+{offset}]"),
            Instr::St {
                space,
                width,
                src,
                addr,
                offset,
            } => write!(f, "st.{space}.{width} [{addr}+{offset}], {src}"),
            Instr::Atom {
                op,
                space,
                dst,
                addr,
                src,
                ..
            } => write!(f, "{}.{space} {dst}, [{addr}], {src}", op.mnemonic()),
            Instr::Bar => write!(f, "bar.sync 0"),
            Instr::Bra {
                pred,
                target,
                reconv,
            } => match pred {
                Some((r, true)) => write!(f, "@{r} bra {target} (reconv {reconv})"),
                Some((r, false)) => write!(f, "@!{r} bra {target} (reconv {reconv})"),
                None => write!(f, "bra {target}"),
            },
            Instr::Launch {
                kernel,
                grid_x,
                block_x,
                params_ptr,
                param_words,
            } => write!(
                f,
                "launch k{kernel}<<<{grid_x},{block_x}>>>([{params_ptr}] x{param_words})"
            ),
            Instr::Dsync => write!(f, "cudaDeviceSynchronize"),
            Instr::Exit => write!(f, "exit"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_and_accessors() {
        let ld = Instr::Ld {
            space: Space::Global,
            width: Width::B32,
            dst: Reg(1),
            addr: Operand::reg(Reg(2)),
            offset: 4,
        };
        assert_eq!(ld.class(), InstrClass::LdSt);
        assert_eq!(ld.mem_space(), Some(Space::Global));
        assert_eq!(ld.dst(), Some(Reg(1)));
        assert_eq!(ld.srcs(), vec![Reg(2)]);

        let bar = Instr::Bar;
        assert_eq!(bar.class(), InstrClass::Ctrl);
        assert_eq!(bar.mem_space(), None);
        assert_eq!(bar.dst(), None);
    }

    #[test]
    fn srcs_cover_all_operands() {
        let fma = Instr::Fma {
            f64: false,
            dst: Reg(0),
            a: Operand::reg(Reg(1)),
            b: Operand::reg(Reg(2)),
            c: Operand::imm(3),
        };
        assert_eq!(fma.srcs(), vec![Reg(1), Reg(2)]);

        let st = Instr::St {
            space: Space::Shared,
            width: Width::B64,
            src: Operand::reg(Reg(5)),
            addr: Operand::reg(Reg(6)),
            offset: 0,
        };
        assert_eq!(st.srcs(), vec![Reg(5), Reg(6)]);
    }

    #[test]
    fn width_bytes() {
        assert_eq!(Width::B8.bytes(), 1);
        assert_eq!(Width::B64.bytes(), 8);
    }

    #[test]
    fn display_is_nonempty() {
        let instrs = [
            Instr::Bar,
            Instr::Exit,
            Instr::Dsync,
            Instr::Mov {
                dst: Reg(0),
                src: Operand::imm(1),
            },
            Instr::Bra {
                pred: Some((Reg(1), false)),
                target: 7,
                reconv: 9,
            },
        ];
        for i in &instrs {
            assert!(!i.to_string().is_empty());
        }
    }
}
