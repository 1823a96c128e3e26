//! # ggpu-isa — the Genomics-GPU simulator instruction set
//!
//! This crate defines the PTX-like register ISA that every benchmark kernel
//! in the Genomics-GPU suite is written in, together with the data structures
//! that describe kernels and their launches:
//!
//! * [`Instr`] — the instruction set: integer/floating-point/SFU ALU ops,
//!   loads and stores over six memory spaces ([`Space`]), predicated
//!   branches carrying SIMT reconvergence points, CTA barriers, atomics,
//!   and the CUDA-Dynamic-Parallelism pair [`Instr::Launch`] /
//!   [`Instr::Dsync`].
//! * [`Kernel`] — an assembled device function plus its static resource
//!   declaration (registers/thread, shared memory/CTA, constant memory),
//!   which drives occupancy and the paper's Figure 6 (SRAM utilization).
//! * [`KernelBuilder`] — a structured assembler. Control flow is emitted
//!   through `if_then` / `if_then_else` / `while_loop` so that divergence is
//!   always well-nested and the SIMT reconvergence stack in `ggpu-sm` can
//!   reconverge at immediate post-dominators.
//! * [`Program`] — a set of kernels sharing a kernel-id namespace, which is
//!   what device-side launches index into.
//!
//! The crate is purely descriptive: evaluation helpers live here
//! ([`AluOp::eval`], [`CmpOp::eval`]) so they can be unit-tested in
//! isolation, but all timing lives in `ggpu-sm`/`ggpu-sim`.
//!
//! ## Example
//!
//! ```
//! use ggpu_isa::{KernelBuilder, Operand, Space, Width, SpecialReg};
//!
//! // out[tid] = tid * 2
//! let mut b = KernelBuilder::new("double");
//! let tid = b.reg();
//! b.sreg(tid, SpecialReg::TidX);
//! let v = b.reg();
//! b.imul(v, tid, Operand::imm(2));
//! let addr = b.reg();
//! b.imul(addr, tid, Operand::imm(8));
//! let base = b.reg();
//! b.ld_param(base, 0);
//! b.iadd(addr, addr, Operand::reg(base));
//! b.st(Space::Global, Width::B64, Operand::reg(v), addr, 0);
//! let kernel = b.finish();
//! assert!(kernel.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod fault;
mod instr;
mod kernel;
mod op;
mod reg;

pub use builder::KernelBuilder;
pub use fault::FaultKind;
pub use instr::{Instr, Space, Width};
pub use kernel::{Kernel, KernelId, LaunchDims, Program, ValidateError};
pub use op::{AluOp, AtomOp, CmpOp, CvtKind, InstrClass, Row, ScalarType};
pub use reg::{Operand, Reg, SpecialReg};

/// Number of threads in a warp. Fixed at 32, matching Table I of the paper.
pub const WARP_SIZE: usize = 32;

/// Hard cap on architectural registers per thread.
pub const MAX_REGS: u16 = 255;
