//! Structured assembler for [`Kernel`]s.
//!
//! The builder allocates virtual registers, resolves labels, and — most
//! importantly — emits *structured* control flow (`if_then`, `if_then_else`,
//! `while_loop`, `for_range`) whose divergent branches always carry correct
//! immediate-post-dominator reconvergence points for the SIMT stack.

use crate::instr::{Instr, Space, Width};
use crate::kernel::Kernel;
use crate::op::{AluOp, AtomOp, CmpOp, ScalarType};
use crate::reg::{Operand, Reg, SpecialReg};
use crate::MAX_REGS;

/// A forward-referenceable code label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Label(usize);

#[derive(Debug, Clone, Copy)]
enum PatchSlot {
    Target,
    Reconv,
}

/// Builder/assembler for a [`Kernel`]. See the crate-level docs for an
/// end-to-end example.
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    instrs: Vec<Instr>,
    next_reg: u16,
    labels: Vec<Option<usize>>,
    patches: Vec<(usize, PatchSlot, Label)>,
    smem_cursor: u32,
    local_bytes: u32,
    cmem_bytes: u32,
    regs_override: Option<u32>,
}

impl KernelBuilder {
    /// Start building a kernel called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            instrs: Vec::new(),
            next_reg: 0,
            labels: Vec::new(),
            patches: Vec::new(),
            smem_cursor: 0,
            local_bytes: 0,
            cmem_bytes: 0,
            regs_override: None,
        }
    }

    // ---- resources ----------------------------------------------------

    /// Allocate a fresh virtual register.
    ///
    /// # Panics
    ///
    /// Panics if more than `MAX_REGS` registers are allocated.
    pub fn reg(&mut self) -> Reg {
        assert!(self.next_reg < MAX_REGS, "kernel uses too many registers");
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Allocate `bytes` of static shared memory, returning the byte offset
    /// (8-byte aligned).
    pub fn alloc_smem(&mut self, bytes: u32) -> u32 {
        let off = self.smem_cursor;
        self.smem_cursor = off + bytes.div_ceil(8) * 8;
        off
    }

    /// Declare the per-thread local-memory footprint in bytes.
    pub fn set_local_bytes(&mut self, bytes: u32) -> &mut Self {
        self.local_bytes = bytes;
        self
    }

    /// Declare the constant-memory footprint in bytes (bound by the host at
    /// run time).
    pub fn set_cmem_bytes(&mut self, bytes: u32) -> &mut Self {
        self.cmem_bytes = bytes;
        self
    }

    /// Override the reported registers-per-thread (e.g. to model compiler
    /// register pressure beyond the virtual registers actually used).
    pub fn set_regs_per_thread(&mut self, regs: u32) -> &mut Self {
        self.regs_override = Some(regs);
        self
    }

    // ---- labels and raw emission ---------------------------------------

    /// Create an unbound label.
    pub(crate) fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the current PC.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub(crate) fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.instrs.len());
    }

    /// Current PC (index of the next emitted instruction).
    pub(crate) fn pc(&self) -> usize {
        self.instrs.len()
    }

    /// Emit a raw instruction.
    pub(crate) fn push(&mut self, instr: Instr) {
        self.instrs.push(instr);
    }

    // ---- ALU convenience wrappers --------------------------------------

    /// Emit `dst = op(a, b)`.
    pub fn alu(&mut self, op: AluOp, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.push(Instr::Alu {
            op,
            dst,
            a: a.into(),
            b: b.into(),
        });
    }

    /// Integer add.
    pub fn iadd(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.alu(AluOp::IAdd, dst, a, b);
    }

    /// Integer subtract.
    pub fn isub(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.alu(AluOp::ISub, dst, a, b);
    }

    /// Integer multiply.
    pub fn imul(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.alu(AluOp::IMul, dst, a, b);
    }

    /// Signed minimum.
    pub fn imin(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.alu(AluOp::IMin, dst, a, b);
    }

    /// Signed maximum.
    pub fn imax(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.alu(AluOp::IMax, dst, a, b);
    }

    /// Bitwise and.
    pub fn iand(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.alu(AluOp::IAnd, dst, a, b);
    }

    /// Bitwise or.
    pub fn ior(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.alu(AluOp::IOr, dst, a, b);
    }

    /// Bitwise xor.
    pub fn ixor(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.alu(AluOp::IXor, dst, a, b);
    }

    /// Shift left.
    pub fn ishl(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.alu(AluOp::IShl, dst, a, b);
    }

    /// Logical shift right.
    pub fn ishr(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.alu(AluOp::IShr, dst, a, b);
    }

    /// Move.
    pub fn mov(&mut self, dst: Reg, src: impl Into<Operand>) {
        self.push(Instr::Mov {
            dst,
            src: src.into(),
        });
    }

    /// Select: `dst = cond != 0 ? t : f`.
    pub fn sel(&mut self, dst: Reg, cond: Reg, t: impl Into<Operand>, f: impl Into<Operand>) {
        self.push(Instr::Sel {
            dst,
            cond,
            if_true: t.into(),
            if_false: f.into(),
        });
    }

    /// Set predicate: `pred = a <cmp> b` under `ty`.
    pub fn setp(
        &mut self,
        pred: Reg,
        cmp: CmpOp,
        ty: ScalarType,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) {
        self.push(Instr::SetP {
            pred,
            cmp,
            ty,
            a: a.into(),
            b: b.into(),
        });
    }

    /// Signed-integer comparison into a fresh predicate register.
    pub fn cmp_s(&mut self, cmp: CmpOp, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let p = self.reg();
        self.setp(p, cmp, ScalarType::S64, a, b);
        p
    }

    /// Read a special register.
    pub fn sreg(&mut self, dst: Reg, sreg: SpecialReg) {
        self.push(Instr::Sreg { dst, sreg });
    }

    /// Compute the global 1-D thread index `ctaid.x * ntid.x + tid.x` into a
    /// fresh register.
    pub fn global_tid(&mut self) -> Reg {
        let tid = self.reg();
        self.sreg(tid, SpecialReg::TidX);
        let ctaid = self.reg();
        self.sreg(ctaid, SpecialReg::CtaIdX);
        let ntid = self.reg();
        self.sreg(ntid, SpecialReg::NTidX);
        let g = self.reg();
        self.imul(g, ctaid, Operand::reg(ntid));
        self.iadd(g, g, Operand::reg(tid));
        g
    }

    // ---- memory ---------------------------------------------------------

    /// Load.
    pub fn ld(
        &mut self,
        space: Space,
        width: Width,
        dst: Reg,
        addr: impl Into<Operand>,
        offset: i64,
    ) {
        self.push(Instr::Ld {
            space,
            width,
            dst,
            addr: addr.into(),
            offset,
        });
    }

    /// Store.
    pub fn st(
        &mut self,
        space: Space,
        width: Width,
        src: impl Into<Operand>,
        addr: impl Into<Operand>,
        offset: i64,
    ) {
        self.push(Instr::St {
            space,
            width,
            src: src.into(),
            addr: addr.into(),
            offset,
        });
    }

    /// Load the `word`-th 64-bit kernel parameter.
    pub fn ld_param(&mut self, dst: Reg, word: u32) {
        self.ld(
            Space::Param,
            Width::B64,
            dst,
            Operand::imm(0),
            (word as i64) * 8,
        );
    }

    /// Atomic operation (old value into `dst`).
    #[allow(clippy::too_many_arguments)]
    pub fn atom(
        &mut self,
        op: AtomOp,
        space: Space,
        dst: Reg,
        addr: impl Into<Operand>,
        src: impl Into<Operand>,
        cas_cmp: impl Into<Operand>,
    ) {
        self.push(Instr::Atom {
            op,
            space,
            dst,
            addr: addr.into(),
            src: src.into(),
            cas_cmp: cas_cmp.into(),
        });
    }

    // ---- control flow ---------------------------------------------------

    /// CTA barrier.
    pub fn bar(&mut self) {
        self.push(Instr::Bar);
    }

    /// Thread exit.
    pub fn exit(&mut self) {
        self.push(Instr::Exit);
    }

    /// `cudaDeviceSynchronize()` (wait for child kernels).
    pub fn dsync(&mut self) {
        self.push(Instr::Dsync);
    }

    /// Device-side child-kernel launch (CDP).
    pub fn launch(
        &mut self,
        kernel: u32,
        grid_x: impl Into<Operand>,
        block_x: impl Into<Operand>,
        params_ptr: impl Into<Operand>,
        param_words: u32,
    ) {
        self.push(Instr::Launch {
            kernel,
            grid_x: grid_x.into(),
            block_x: block_x.into(),
            params_ptr: params_ptr.into(),
            param_words,
        });
    }

    /// Unconditional branch to `label`.
    pub(crate) fn bra(&mut self, label: Label) {
        let pc = self.pc();
        self.patches.push((pc, PatchSlot::Target, label));
        // Unconditional branches never diverge; reconv is set to the target
        // during patching purely so it is in range.
        self.patches.push((pc, PatchSlot::Reconv, label));
        self.push(Instr::Bra {
            pred: None,
            target: usize::MAX,
            reconv: usize::MAX,
        });
    }

    /// Conditional branch: lanes where `pred`'s truth equals `expect` jump
    /// to `label`; the rest fall through. `reconv` is the reconvergence
    /// label for the SIMT stack.
    pub(crate) fn bra_if(&mut self, pred: Reg, expect: bool, label: Label, reconv: Label) {
        let pc = self.pc();
        self.patches.push((pc, PatchSlot::Target, label));
        self.patches.push((pc, PatchSlot::Reconv, reconv));
        self.push(Instr::Bra {
            pred: Some((pred, expect)),
            target: usize::MAX,
            reconv: usize::MAX,
        });
    }

    /// Structured `if pred { then }`.
    pub fn if_then(&mut self, pred: Reg, then: impl FnOnce(&mut Self)) {
        let end = self.label();
        self.bra_if(pred, false, end, end);
        then(self);
        self.bind(end);
    }

    /// Structured `if pred { then } else { els }`.
    pub fn if_then_else(
        &mut self,
        pred: Reg,
        then: impl FnOnce(&mut Self),
        els: impl FnOnce(&mut Self),
    ) {
        let l_else = self.label();
        let l_end = self.label();
        self.bra_if(pred, false, l_else, l_end);
        then(self);
        self.bra(l_end);
        self.bind(l_else);
        els(self);
        self.bind(l_end);
    }

    /// Structured `while cond { body }`. `cond` computes and returns a
    /// predicate register each iteration.
    pub fn while_loop(
        &mut self,
        cond: impl FnOnce(&mut Self) -> Reg,
        body: impl FnOnce(&mut Self),
    ) {
        let head = self.label();
        let end = self.label();
        self.bind(head);
        let pred = cond(self);
        self.bra_if(pred, false, end, end);
        body(self);
        self.bra(head);
        self.bind(end);
    }

    /// Structured counted loop: `for i in (start..end).step_by(step)`.
    ///
    /// Allocates the induction register, passes it to `body`, and returns it
    /// (it holds `end` or the first value `>= end` afterwards).
    pub fn for_range(
        &mut self,
        start: impl Into<Operand>,
        end: impl Into<Operand>,
        step: i64,
        body: impl FnOnce(&mut Self, Reg),
    ) -> Reg {
        let i = self.reg();
        let start = start.into();
        let end = end.into();
        self.mov(i, start);
        self.while_loop(
            |b| b.cmp_s(CmpOp::Lt, Operand::reg(i), end),
            |b| {
                body(b, i);
                b.iadd(i, i, Operand::imm(step));
            },
        );
        i
    }

    // ---- finish -----------------------------------------------------------

    /// Resolve labels and produce the [`Kernel`].
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    pub fn finish(mut self) -> Kernel {
        for (pc, slot, label) in &self.patches {
            let target = self.labels[label.0].expect("label referenced but never bound");
            match (&mut self.instrs[*pc], slot) {
                (Instr::Bra { target: t, .. }, PatchSlot::Target) => *t = target,
                (Instr::Bra { reconv: r, .. }, PatchSlot::Reconv) => *r = target,
                _ => unreachable!("patch slot on non-branch instruction"),
            }
        }
        // A label bound at the very end of the instruction stream must still
        // be a valid PC; ensure the program ends with Exit so such branches
        // land on a real instruction.
        if !matches!(self.instrs.last(), Some(Instr::Exit)) {
            self.instrs.push(Instr::Exit);
        }
        Kernel {
            name: self.name,
            instrs: self.instrs,
            regs_per_thread: self
                .regs_override
                .map(|o| o.max(self.next_reg as u32))
                .unwrap_or(self.next_reg.max(1) as u32),
            smem_per_cta: self.smem_cursor,
            cmem_bytes: self.cmem_bytes,
            local_bytes_per_thread: self.local_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_appends_exit_and_counts_regs() {
        let mut b = KernelBuilder::new("k");
        let r = b.reg();
        b.mov(r, Operand::imm(1));
        let k = b.finish();
        assert!(matches!(k.instrs.last(), Some(Instr::Exit)));
        assert_eq!(k.regs_per_thread, 1);
        assert!(k.validate().is_ok());
    }

    #[test]
    fn if_then_reconverges_at_end() {
        let mut b = KernelBuilder::new("k");
        let p = b.reg();
        b.mov(p, Operand::imm(1));
        let r = b.reg();
        b.if_then(p, |b| b.mov(r, Operand::imm(2)));
        b.exit();
        let k = b.finish();
        // instrs: mov p; bra !p -> 3 (reconv 3); mov r; exit
        match &k.instrs[1] {
            Instr::Bra {
                pred,
                target,
                reconv,
            } => {
                assert_eq!(*pred, Some((p, false)));
                assert_eq!(*target, 3);
                assert_eq!(*reconv, 3);
            }
            other => panic!("expected branch, got {other}"),
        }
        assert!(k.validate().is_ok());
    }

    #[test]
    fn if_then_else_layout() {
        let mut b = KernelBuilder::new("k");
        let p = b.reg();
        let r = b.reg();
        b.mov(p, Operand::imm(0));
        b.if_then_else(
            p,
            |b| b.mov(r, Operand::imm(1)),
            |b| b.mov(r, Operand::imm(2)),
        );
        b.exit();
        let k = b.finish();
        // 0: mov p
        // 1: bra !p -> 4 (reconv 5)
        // 2: mov r, 1
        // 3: bra 5
        // 4: mov r, 2
        // 5: exit
        match &k.instrs[1] {
            Instr::Bra { target, reconv, .. } => {
                assert_eq!(*target, 4);
                assert_eq!(*reconv, 5);
            }
            other => panic!("expected branch, got {other}"),
        }
        match &k.instrs[3] {
            Instr::Bra { pred, target, .. } => {
                assert_eq!(*pred, None);
                assert_eq!(*target, 5);
            }
            other => panic!("expected branch, got {other}"),
        }
        assert!(k.validate().is_ok());
    }

    #[test]
    fn while_loop_branches_back() {
        let mut b = KernelBuilder::new("k");
        let i = b.reg();
        b.mov(i, Operand::imm(0));
        b.while_loop(
            |b| b.cmp_s(CmpOp::Lt, Operand::reg(i), Operand::imm(10)),
            |b| b.iadd(i, i, Operand::imm(1)),
        );
        b.exit();
        let k = b.finish();
        assert!(k.validate().is_ok());
        // Find the back-edge: an unconditional branch to the loop head (pc 1).
        let back = k
            .instrs
            .iter()
            .filter_map(|ins| match ins {
                Instr::Bra {
                    pred: None, target, ..
                } => Some(*target),
                _ => None,
            })
            .any(|t| t == 1);
        assert!(back, "missing loop back-edge:\n{}", k.disassemble());
    }

    #[test]
    fn for_range_structure_validates() {
        let mut b = KernelBuilder::new("k");
        let acc = b.reg();
        b.mov(acc, Operand::imm(0));
        b.for_range(Operand::imm(0), Operand::imm(8), 2, |b, i| {
            b.iadd(acc, acc, Operand::reg(i));
        });
        b.exit();
        let k = b.finish();
        assert!(k.validate().is_ok());
    }

    #[test]
    fn smem_allocation_is_aligned() {
        let mut b = KernelBuilder::new("k");
        assert_eq!(b.alloc_smem(3), 0);
        assert_eq!(b.alloc_smem(16), 8);
        assert_eq!(b.alloc_smem(1), 24);
        b.exit();
        assert_eq!(b.finish().smem_per_cta, 32);
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut b = KernelBuilder::new("k");
        let l = b.label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut b = KernelBuilder::new("k");
        let l = b.label();
        b.bra(l);
        let _ = b.finish();
    }

    #[test]
    fn global_tid_emits_expected_sequence() {
        let mut b = KernelBuilder::new("k");
        let g = b.global_tid();
        b.exit();
        let k = b.finish();
        assert_eq!(g, Reg(3));
        assert_eq!(k.regs_per_thread, 4);
        assert!(k.validate().is_ok());
    }

    #[test]
    fn resource_overrides() {
        let mut b = KernelBuilder::new("k");
        b.set_regs_per_thread(64);
        b.set_local_bytes(256);
        b.set_cmem_bytes(1024);
        b.exit();
        let k = b.finish();
        assert_eq!(k.regs_per_thread, 64);
        assert_eq!(k.local_bytes_per_thread, 256);
        assert_eq!(k.cmem_bytes, 1024);
    }
}
