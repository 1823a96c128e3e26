//! Kernels, launch dimensions, and programs.

use std::fmt;

use crate::instr::{Instr, Space};
use crate::{MAX_REGS, WARP_SIZE};

/// Identifier of a kernel within a [`Program`]; this is what device-side
/// [`Instr::Launch`] instructions reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(pub u32);

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// Grid and CTA dimensions of a launch, as in Table III of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchDims {
    /// Grid size in CTAs (x, y, z).
    pub grid: (u32, u32, u32),
    /// CTA size in threads (x, y, z).
    pub cta: (u32, u32, u32),
}

impl LaunchDims {
    /// One-dimensional launch of `grid_x` CTAs with `cta_x` threads each.
    pub fn linear(grid_x: u32, cta_x: u32) -> Self {
        LaunchDims {
            grid: (grid_x, 1, 1),
            cta: (cta_x, 1, 1),
        }
    }

    /// Total number of CTAs in the grid.
    pub fn num_ctas(&self) -> u64 {
        self.grid.0 as u64 * self.grid.1 as u64 * self.grid.2 as u64
    }

    /// Threads per CTA.
    pub fn threads_per_cta(&self) -> u32 {
        self.cta.0 * self.cta.1 * self.cta.2
    }

    /// Warps per CTA (rounded up).
    pub fn warps_per_cta(&self) -> u32 {
        self.threads_per_cta().div_ceil(WARP_SIZE as u32)
    }

    /// Total threads in the grid.
    pub fn total_threads(&self) -> u64 {
        self.num_ctas() * self.threads_per_cta() as u64
    }
}

impl fmt::Display for LaunchDims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<<<({},{},{}),({},{},{})>>>",
            self.grid.0, self.grid.1, self.grid.2, self.cta.0, self.cta.1, self.cta.2
        )
    }
}

/// Errors produced by [`Kernel::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A branch target or reconvergence PC is outside the program.
    BranchOutOfRange {
        /// Instruction index of the offending branch.
        pc: usize,
        /// The out-of-range target.
        target: usize,
    },
    /// A register index is >= the declared register count.
    RegOutOfRange {
        /// Instruction index.
        pc: usize,
        /// The offending register index.
        reg: u16,
    },
    /// The kernel contains no `Exit` instruction.
    NoExit,
    /// The kernel declares more registers per thread than the ISA allows.
    TooManyRegs {
        /// Declared register count.
        declared: u32,
    },
    /// An atomic targets a space other than global or shared.
    BadAtomicSpace {
        /// Instruction index.
        pc: usize,
        /// The invalid space.
        space: Space,
    },
    /// A store targets a space the device can only read (parameter,
    /// constant or texture memory).
    StoreToReadOnly {
        /// Instruction index.
        pc: usize,
        /// The read-only space.
        space: Space,
    },
    /// A device-side launch names a kernel id absent from the program.
    ///
    /// Only [`Program::validate`] can detect this; a lone
    /// [`Kernel::validate`] has no kernel-id namespace to check against.
    LaunchTargetOutOfRange {
        /// Instruction index of the offending launch.
        pc: usize,
        /// The out-of-range kernel id.
        kernel: u32,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::BranchOutOfRange { pc, target } => {
                write!(f, "branch at pc {pc} targets out-of-range pc {target}")
            }
            ValidateError::RegOutOfRange { pc, reg } => {
                write!(f, "instruction at pc {pc} uses undeclared register r{reg}")
            }
            ValidateError::NoExit => write!(f, "kernel has no exit instruction"),
            ValidateError::TooManyRegs { declared } => {
                write!(
                    f,
                    "kernel declares {declared} registers per thread (max {MAX_REGS})"
                )
            }
            ValidateError::BadAtomicSpace { pc, space } => {
                write!(f, "atomic at pc {pc} targets non-atomic space {space}")
            }
            ValidateError::StoreToReadOnly { pc, space } => {
                write!(f, "store at pc {pc} targets read-only space {space}")
            }
            ValidateError::LaunchTargetOutOfRange { pc, kernel } => {
                write!(f, "launch at pc {pc} targets unknown kernel k{kernel}")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// An assembled device function.
///
/// Static resource usage (`regs_per_thread`, `smem_per_cta`, `cmem_bytes`)
/// determines how many CTAs fit on an SM concurrently — the same quantities
/// the paper extracts with `-Xptxas -v` for its Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Human-readable kernel name.
    pub name: String,
    /// The instruction stream; PCs index into this.
    pub instrs: Vec<Instr>,
    /// Architectural registers used per thread.
    pub regs_per_thread: u32,
    /// Static shared memory per CTA, in bytes.
    pub smem_per_cta: u32,
    /// Constant-memory footprint, in bytes.
    pub cmem_bytes: u32,
    /// Per-thread local-memory footprint, in bytes.
    pub local_bytes_per_thread: u32,
}

impl Kernel {
    /// Check structural invariants: branch targets in range, registers within
    /// the declared budget, at least one `Exit`, atomics only on global or
    /// shared memory, stores only to global, local or shared memory.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`ValidateError`].
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.regs_per_thread > MAX_REGS as u32 {
            return Err(ValidateError::TooManyRegs {
                declared: self.regs_per_thread,
            });
        }
        let n = self.instrs.len();
        let mut has_exit = false;
        for (pc, instr) in self.instrs.iter().enumerate() {
            if let Instr::Bra { target, reconv, .. } = instr {
                if *target >= n {
                    return Err(ValidateError::BranchOutOfRange {
                        pc,
                        target: *target,
                    });
                }
                if *reconv > n {
                    return Err(ValidateError::BranchOutOfRange {
                        pc,
                        target: *reconv,
                    });
                }
            }
            if let Instr::Atom { space, .. } = instr {
                if !matches!(space, Space::Global | Space::Shared) {
                    return Err(ValidateError::BadAtomicSpace { pc, space: *space });
                }
            }
            if let Instr::St { space, .. } = instr {
                if matches!(space, Space::Param | Space::Const | Space::Tex) {
                    return Err(ValidateError::StoreToReadOnly { pc, space: *space });
                }
            }
            let check = |r: crate::Reg| -> Result<(), ValidateError> {
                if (r.0 as u32) >= self.regs_per_thread {
                    Err(ValidateError::RegOutOfRange { pc, reg: r.0 })
                } else {
                    Ok(())
                }
            };
            if let Some(d) = instr.dst() {
                check(d)?;
            }
            for s in instr.srcs() {
                check(s)?;
            }
            if matches!(instr, Instr::Exit) {
                has_exit = true;
            }
        }
        if !has_exit {
            return Err(ValidateError::NoExit);
        }
        Ok(())
    }

    /// Number of u64 parameter words this kernel statically reads.
    ///
    /// Derived by scanning the instruction stream for parameter loads at
    /// immediate addresses (the form [`crate::KernelBuilder::ld_param`]
    /// emits): the answer is one past the highest parameter word touched.
    /// Parameter loads through a register base cannot be bounded statically
    /// and are ignored. Used by the device model to reject launches that
    /// supply fewer parameters than the kernel will read.
    pub fn param_words_required(&self) -> usize {
        self.instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Ld {
                    space: Space::Param,
                    addr: crate::Operand::Imm(base),
                    offset,
                    ..
                } => {
                    let byte = (*base as i64).saturating_add(*offset).max(0) as u64;
                    Some((byte / 8) as usize + 1)
                }
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Render the kernel as pseudo-assembly, one instruction per line with
    /// PC prefixes. Useful for debugging and documentation.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "// {} (regs={}, smem={}B, cmem={}B, local={}B/thread)",
            self.name,
            self.regs_per_thread,
            self.smem_per_cta,
            self.cmem_bytes,
            self.local_bytes_per_thread
        );
        for (pc, i) in self.instrs.iter().enumerate() {
            let _ = writeln!(s, "{pc:5}: {i}");
        }
        s
    }
}

/// A set of kernels sharing one id namespace.
///
/// Device-side launches ([`Instr::Launch`]) name their child kernel by
/// [`KernelId`], so any kernel that launches children must live in the same
/// program as those children.
#[derive(Debug, Clone, Default)]
pub struct Program {
    kernels: Vec<Kernel>,
}

impl Program {
    /// Create an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a kernel, returning its id.
    pub fn add(&mut self, kernel: Kernel) -> KernelId {
        let id = KernelId(self.kernels.len() as u32);
        self.kernels.push(kernel);
        id
    }

    /// Look up a kernel by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by [`Program::add`] on this program.
    pub fn kernel(&self, id: KernelId) -> &Kernel {
        &self.kernels[id.0 as usize]
    }

    /// Look up a kernel by id, returning `None` when absent.
    pub fn get(&self, id: KernelId) -> Option<&Kernel> {
        self.kernels.get(id.0 as usize)
    }

    /// Number of kernels in the program.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// True when the program holds no kernels.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Iterate over `(id, kernel)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (KernelId, &Kernel)> {
        self.kernels
            .iter()
            .enumerate()
            .map(|(i, k)| (KernelId(i as u32), k))
    }

    /// Validate every kernel in the program, plus the cross-kernel invariant
    /// that every device-side launch targets a kernel present in the program.
    ///
    /// # Errors
    ///
    /// Returns the first kernel's name and error.
    pub fn validate(&self) -> Result<(), (String, ValidateError)> {
        let n = self.kernels.len() as u32;
        for k in &self.kernels {
            k.validate().map_err(|e| (k.name.clone(), e))?;
            for (pc, instr) in k.instrs.iter().enumerate() {
                if let Instr::Launch { kernel, .. } = instr {
                    if *kernel >= n {
                        return Err((
                            k.name.clone(),
                            ValidateError::LaunchTargetOutOfRange {
                                pc,
                                kernel: *kernel,
                            },
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{Operand, Reg};
    use crate::Width;

    fn trivial_kernel() -> Kernel {
        Kernel {
            name: "t".into(),
            instrs: vec![Instr::Exit],
            regs_per_thread: 1,
            smem_per_cta: 0,
            cmem_bytes: 0,
            local_bytes_per_thread: 0,
        }
    }

    #[test]
    fn launch_dims_math() {
        let d = LaunchDims::linear(40, 128);
        assert_eq!(d.num_ctas(), 40);
        assert_eq!(d.threads_per_cta(), 128);
        assert_eq!(d.warps_per_cta(), 4);
        assert_eq!(d.total_threads(), 5120);
        // Non-multiple-of-32 CTA rounds warps up.
        assert_eq!(LaunchDims::linear(1, 33).warps_per_cta(), 2);
    }

    #[test]
    fn validate_accepts_trivial() {
        assert!(trivial_kernel().validate().is_ok());
    }

    #[test]
    fn validate_rejects_missing_exit() {
        let mut k = trivial_kernel();
        k.instrs = vec![Instr::Bar];
        assert_eq!(k.validate(), Err(ValidateError::NoExit));
    }

    #[test]
    fn validate_rejects_bad_branch() {
        let mut k = trivial_kernel();
        k.instrs = vec![
            Instr::Bra {
                pred: None,
                target: 99,
                reconv: 0,
            },
            Instr::Exit,
        ];
        assert!(matches!(
            k.validate(),
            Err(ValidateError::BranchOutOfRange { pc: 0, target: 99 })
        ));
    }

    #[test]
    fn validate_rejects_undeclared_reg() {
        let mut k = trivial_kernel();
        k.instrs = vec![
            Instr::Mov {
                dst: Reg(5),
                src: Operand::imm(0),
            },
            Instr::Exit,
        ];
        assert!(matches!(
            k.validate(),
            Err(ValidateError::RegOutOfRange { pc: 0, reg: 5 })
        ));
    }

    #[test]
    fn validate_rejects_const_atomic() {
        let mut k = trivial_kernel();
        k.regs_per_thread = 3;
        k.instrs = vec![
            Instr::Atom {
                op: crate::AtomOp::Add,
                space: Space::Const,
                dst: Reg(0),
                addr: Operand::reg(Reg(1)),
                src: Operand::imm(1),
                cas_cmp: Operand::imm(0),
            },
            Instr::Exit,
        ];
        assert!(matches!(
            k.validate(),
            Err(ValidateError::BadAtomicSpace { .. })
        ));
    }

    #[test]
    fn validate_rejects_stores_to_read_only_spaces() {
        let store_to = |space| {
            let mut k = trivial_kernel();
            k.instrs = vec![
                Instr::St {
                    space,
                    width: crate::Width::B64,
                    src: Operand::imm(7),
                    addr: Operand::reg(Reg(0)),
                    offset: 0,
                },
                Instr::Exit,
            ];
            k.validate()
        };
        for space in [Space::Param, Space::Const, Space::Tex] {
            assert_eq!(
                store_to(space),
                Err(ValidateError::StoreToReadOnly { pc: 0, space }),
                "{space}"
            );
        }
        for space in [Space::Global, Space::Local, Space::Shared] {
            assert_eq!(store_to(space), Ok(()), "{space}");
        }
    }

    #[test]
    fn program_roundtrip() {
        let mut p = Program::new();
        assert!(p.is_empty());
        let id = p.add(trivial_kernel());
        assert_eq!(p.len(), 1);
        assert_eq!(p.kernel(id).name, "t");
        assert!(p.get(KernelId(7)).is_none());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn program_validate_rejects_unknown_launch_target() {
        let mut p = Program::new();
        let mut k = trivial_kernel();
        k.instrs = vec![
            Instr::Launch {
                kernel: 5,
                grid_x: Operand::imm(1),
                block_x: Operand::imm(32),
                params_ptr: Operand::imm(0),
                param_words: 0,
            },
            Instr::Exit,
        ];
        p.add(k);
        assert!(matches!(
            p.validate(),
            Err((
                _,
                ValidateError::LaunchTargetOutOfRange { pc: 0, kernel: 5 }
            ))
        ));
    }

    #[test]
    fn param_words_required_scans_param_loads() {
        let mut k = trivial_kernel();
        k.regs_per_thread = 2;
        assert_eq!(k.param_words_required(), 0);
        k.instrs = vec![
            Instr::Ld {
                space: Space::Param,
                width: Width::B64,
                dst: Reg(0),
                addr: Operand::imm(0),
                offset: 16,
            },
            Instr::Ld {
                space: Space::Param,
                width: Width::B64,
                dst: Reg(1),
                addr: Operand::imm(0),
                offset: 0,
            },
            Instr::Exit,
        ];
        assert_eq!(k.param_words_required(), 3);
    }

    #[test]
    fn disassembly_mentions_every_pc() {
        let mut k = trivial_kernel();
        k.regs_per_thread = 2;
        k.instrs = vec![
            Instr::Ld {
                space: Space::Global,
                width: Width::B32,
                dst: Reg(0),
                addr: Operand::reg(Reg(1)),
                offset: 0,
            },
            Instr::Exit,
        ];
        let d = k.disassemble();
        assert!(d.contains("0:"));
        assert!(d.contains("1:"));
        assert!(d.contains("ld.global"));
    }
}
