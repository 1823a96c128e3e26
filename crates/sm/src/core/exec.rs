//! Functional execution stage of the SM: instruction issue plus the
//! load/store/atomic paths with coalescing and guest-fault checks.
//!
//! Everything here is a pure function of SM-local state plus the cycle-start
//! memory snapshot (`&dyn GlobalMem`, reads only): functional stores and
//! global atomics are **deferred** into [`TickOutput::mem_ops`] and committed
//! by the device after every SM has ticked, in deterministic merge order —
//! SM index first, then issue order within the SM — so the order SMs tick
//! in cannot change a result.

use std::sync::Arc;

use ggpu_isa::{AtomOp, FaultKind, Instr, Kernel, Operand, Reg, Space, Width, WARP_SIZE};
use ggpu_mem::{CacheOutcome, LINE_BYTES};

use crate::coalesce::{bank_conflict_degree, coalesce_lines};
use crate::ports::{CompletedCta, DeviceLaunch, MemOp, MemRequest, ReqKind, TickOutput};
use crate::warp::{lanes, WarpBlock};

use super::{GlobalMem, RespRoute, SmCore};

impl SmCore {
    /// Issue one instruction from warp `widx`.
    #[allow(clippy::too_many_lines)]
    pub(super) fn issue(
        &mut self,
        widx: usize,
        now: u64,
        gmem: &dyn GlobalMem,
        out: &mut TickOutput,
    ) {
        let program = Arc::clone(&self.program);
        let (slot_idx, kid, entry) = {
            let w = self.warps[widx].as_mut().expect("issuing dead warp");
            let entry = w.reconverge().expect("issuing finished warp");
            (w.cta_slot, self.slots[w.cta_slot].cfg.kernel_id, entry)
        };
        let kernel: &Kernel = program.kernel(kid);
        let Some(instr) = kernel.instrs.get(entry.pc).cloned() else {
            // The PC fell off the end of the instruction stream (possible
            // for hand-built kernels whose last path misses `Exit`).
            self.trap(
                widx,
                slot_idx,
                FaultKind::InvalidPc,
                entry.pc,
                entry.mask,
                None,
                out,
            );
            return;
        };
        let mask = entry.mask;
        let nlanes = mask.count_ones();
        let pc = entry.pc;
        let lat = self.config.lat;
        // Predecoded result latency for the directly-executed arms below —
        // no per-issue re-match of the op class.
        let meta = self.decoded[kid.0 as usize][pc];

        self.stats.record_issue(instr.class(), nlanes);
        out.issued += 1;
        if let Some(space) = instr.mem_space() {
            self.stats.record_mem(space);
        }
        if let Some(t) = self.pc_stats.as_deref_mut() {
            t.record_issue(kid, pc, nlanes);
        }

        // Default post-issue state; overridden below where needed.
        {
            let w = self.warps[widx]
                .as_mut()
                .expect("scheduled warp is resident");
            w.next_issue_at = now + 1;
            w.issue_block_is_control = false;
        }

        match instr {
            Instr::Alu { op, dst, a, b } => {
                let w = self.warps[widx]
                    .as_mut()
                    .expect("scheduled warp is resident");
                for lane in lanes(mask) {
                    let av = Self::opval(w, a, lane);
                    let bv = Self::opval(w, b, lane);
                    w.write(dst, lane, op.eval(av, bv));
                }
                w.reg_ready[dst.0 as usize] = now + meta.lat;
                if meta.f64_pen {
                    w.next_issue_at = now + lat.f64_interval;
                }
                w.advance_pc();
            }
            Instr::Fma { f64, dst, a, b, c } => {
                let w = self.warps[widx]
                    .as_mut()
                    .expect("scheduled warp is resident");
                for lane in lanes(mask) {
                    let av = Self::opval(w, a, lane);
                    let bv = Self::opval(w, b, lane);
                    let cv = Self::opval(w, c, lane);
                    let r = if f64 {
                        let x = f64::from_bits(av);
                        let y = f64::from_bits(bv);
                        let z = f64::from_bits(cv);
                        x.mul_add(y, z).to_bits()
                    } else {
                        let x = f32::from_bits(av as u32);
                        let y = f32::from_bits(bv as u32);
                        let z = f32::from_bits(cv as u32);
                        x.mul_add(y, z).to_bits() as u64
                    };
                    w.write(dst, lane, r);
                }
                w.reg_ready[dst.0 as usize] = now + meta.lat;
                if meta.f64_pen {
                    w.next_issue_at = now + lat.f64_interval;
                }
                w.advance_pc();
            }
            Instr::Mov { dst, src } => {
                let w = self.warps[widx]
                    .as_mut()
                    .expect("scheduled warp is resident");
                for lane in lanes(mask) {
                    let v = Self::opval(w, src, lane);
                    w.write(dst, lane, v);
                }
                w.reg_ready[dst.0 as usize] = now + meta.lat;
                w.advance_pc();
            }
            Instr::Sel {
                dst,
                cond,
                if_true,
                if_false,
            } => {
                let w = self.warps[widx]
                    .as_mut()
                    .expect("scheduled warp is resident");
                for lane in lanes(mask) {
                    let c = w.read(cond, lane);
                    let v = if c != 0 {
                        Self::opval(w, if_true, lane)
                    } else {
                        Self::opval(w, if_false, lane)
                    };
                    w.write(dst, lane, v);
                }
                w.reg_ready[dst.0 as usize] = now + meta.lat;
                w.advance_pc();
            }
            Instr::SetP {
                pred,
                cmp,
                ty,
                a,
                b,
            } => {
                let w = self.warps[widx]
                    .as_mut()
                    .expect("scheduled warp is resident");
                for lane in lanes(mask) {
                    let av = Self::opval(w, a, lane);
                    let bv = Self::opval(w, b, lane);
                    w.write(pred, lane, cmp.eval(ty, av, bv) as u64);
                }
                w.reg_ready[pred.0 as usize] = now + meta.lat;
                w.advance_pc();
            }
            Instr::Cvt { kind, dst, src } => {
                let w = self.warps[widx]
                    .as_mut()
                    .expect("scheduled warp is resident");
                for lane in lanes(mask) {
                    let v = Self::opval(w, src, lane);
                    w.write(dst, lane, kind.eval(v));
                }
                w.reg_ready[dst.0 as usize] = now + meta.lat;
                w.advance_pc();
            }
            Instr::Sreg { dst, sreg } => {
                let cfg = &self.slots[slot_idx].cfg;
                let w = self.warps[widx]
                    .as_mut()
                    .expect("scheduled warp is resident");
                let wic = w.warp_in_cta;
                for lane in lanes(mask) {
                    w.write(dst, lane, Self::sreg_value(cfg, wic, lane, sreg));
                }
                w.reg_ready[dst.0 as usize] = now + meta.lat;
                w.advance_pc();
            }
            Instr::Ld {
                space,
                width,
                dst,
                addr,
                offset,
            } => {
                self.exec_load(
                    widx, slot_idx, pc, space, width, dst, addr, offset, now, gmem, out,
                );
            }
            Instr::St {
                space,
                width,
                src,
                addr,
                offset,
            } => {
                self.exec_store(
                    widx, slot_idx, pc, space, width, src, addr, offset, now, gmem, out,
                );
            }
            Instr::Atom {
                op,
                space,
                dst,
                addr,
                src,
                cas_cmp,
            } => {
                self.exec_atomic(
                    widx, slot_idx, pc, op, space, dst, addr, src, cas_cmp, now, gmem, out,
                );
            }
            Instr::Bar => {
                if self.config.trap_divergent_barrier
                    && self.warps[widx]
                        .as_ref()
                        .map(|w| w.stack.len() > 1)
                        .unwrap_or(false)
                {
                    self.trap(
                        widx,
                        slot_idx,
                        FaultKind::BarrierDivergence,
                        pc,
                        mask,
                        None,
                        out,
                    );
                    return;
                }
                {
                    let w = self.warps[widx]
                        .as_mut()
                        .expect("scheduled warp is resident");
                    w.advance_pc();
                    w.block = WarpBlock::Barrier;
                }
                let slot = &mut self.slots[slot_idx];
                slot.barrier_count += 1;
                if slot.barrier_count >= slot.running {
                    slot.barrier_count = 0;
                    let mut warps = std::mem::take(&mut self.scratch_warps);
                    warps.extend_from_slice(&slot.warps);
                    for &wi in &warps {
                        if let Some(w) = self.warps[wi].as_mut() {
                            if w.block == WarpBlock::Barrier {
                                w.block = WarpBlock::None;
                            }
                        }
                    }
                    warps.clear();
                    self.scratch_warps = warps;
                }
            }
            Instr::Bra {
                pred,
                target,
                reconv,
            } => {
                let w = self.warps[widx]
                    .as_mut()
                    .expect("scheduled warp is resident");
                let taken = match pred {
                    None => mask,
                    Some((r, expect)) => {
                        let mut t = 0u32;
                        for lane in lanes(mask) {
                            let v = w.read(r, lane) != 0;
                            if v == expect {
                                t |= 1 << lane;
                            }
                        }
                        t
                    }
                };
                w.branch(taken, target, pc + 1, reconv);
                w.next_issue_at = now + lat.branch;
                w.issue_block_is_control = true;
            }
            Instr::Launch {
                kernel,
                grid_x,
                block_x,
                params_ptr,
                param_words,
            } => {
                let mut launches = Vec::new();
                {
                    let w = self.warps[widx]
                        .as_mut()
                        .expect("scheduled warp is resident");
                    for lane in lanes(mask) {
                        let gx = Self::opval(w, grid_x, lane).max(1) as u32;
                        let bx = Self::opval(w, block_x, lane).max(1) as u32;
                        let ptr = Self::opval(w, params_ptr, lane);
                        launches.push((gx, bx, ptr));
                    }
                    w.advance_pc();
                    // Device-side launch overhead occupies the warp.
                    w.next_issue_at = now + lat.cmem_miss.max(100);
                    w.issue_block_is_control = true;
                }
                // Parameter-block reads fault like any other global access.
                for &(_, _, ptr) in &launches {
                    for i in 0..param_words as u64 {
                        if let Some(k) = gmem.check(ptr + i * 8, Width::B64, false) {
                            self.trap(widx, slot_idx, k, pc, mask, Some(ptr + i * 8), out);
                            return;
                        }
                    }
                }
                let parent_grid = self.slots[slot_idx].cfg.grid_handle;
                for (gx, bx, ptr) in launches {
                    let mut params = Vec::with_capacity(param_words as usize);
                    for i in 0..param_words {
                        params.push(gmem.read(ptr + i as u64 * 8, Width::B64));
                    }
                    out.launches.push(DeviceLaunch {
                        kernel,
                        grid_x: gx,
                        block_x: bx,
                        params,
                        parent_slot: slot_idx,
                        parent_grid,
                    });
                    self.slots[slot_idx].children += 1;
                    self.stats.device_launches += 1;
                }
            }
            Instr::Dsync => {
                let children = self.slots[slot_idx].children;
                let w = self.warps[widx]
                    .as_mut()
                    .expect("scheduled warp is resident");
                w.advance_pc();
                if children > 0 {
                    w.block = WarpBlock::Dsync;
                }
            }
            Instr::Exit => {
                {
                    let w = self.warps[widx]
                        .as_mut()
                        .expect("scheduled warp is resident");
                    w.done = true;
                }
                self.live_warps -= 1;
                let slot = &mut self.slots[slot_idx];
                slot.running -= 1;
                if slot.running == 0 {
                    // CTA complete: free resources.
                    slot.live = false;
                    self.used_threads -= slot.threads;
                    self.used_regs -= slot.regs;
                    self.used_smem -= slot.smem_bytes;
                    self.used_slots -= 1;
                    self.stats.ctas_completed += 1;
                    let grid_handle = slot.cfg.grid_handle;
                    let warps = std::mem::take(&mut slot.warps);
                    slot.smem = Vec::new();
                    for wi in warps {
                        self.warps[wi] = None;
                        self.free_warps.push(wi);
                    }
                    self.free_slots.push(slot_idx);
                    out.completed.push(CompletedCta {
                        grid_handle,
                        slot: slot_idx,
                    });
                } else if slot.barrier_count >= slot.running && slot.barrier_count > 0 {
                    // Remaining warps were all parked at a barrier: release
                    // them rather than deadlocking.
                    slot.barrier_count = 0;
                    let mut warps = std::mem::take(&mut self.scratch_warps);
                    warps.extend_from_slice(&slot.warps);
                    for &wi in &warps {
                        if let Some(w) = self.warps[wi].as_mut() {
                            if w.block == WarpBlock::Barrier {
                                w.block = WarpBlock::None;
                            }
                        }
                    }
                    warps.clear();
                    self.scratch_warps = warps;
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_load(
        &mut self,
        widx: usize,
        slot_idx: usize,
        pc: usize,
        space: Space,
        width: Width,
        dst: Reg,
        addr: Operand,
        offset: i64,
        now: u64,
        gmem: &dyn GlobalMem,
        out: &mut TickOutput,
    ) {
        let lat = self.config.lat;
        match space {
            Space::Param => {
                let params = Arc::clone(&self.slots[slot_idx].cfg.params);
                let w = self.warps[widx]
                    .as_mut()
                    .expect("scheduled warp is resident");
                for lane in lanes(w.reconverge().expect("divergence stack entry").mask) {
                    let a = Self::opval(w, addr, lane).wrapping_add(offset as u64);
                    let v = Self::param_read(&params, a, width);
                    w.write(dst, lane, v);
                }
                w.reg_ready[dst.0 as usize] = now + lat.param;
                w.advance_pc();
            }
            Space::Const => {
                let cdata = Arc::clone(&self.slots[slot_idx].cfg.const_data);
                let mask;
                {
                    let w = self.warps[widx]
                        .as_mut()
                        .expect("scheduled warp is resident");
                    mask = w.reconverge().expect("divergence stack entry").mask;
                    for lane in lanes(mask) {
                        let a = Self::opval(w, addr, lane).wrapping_add(offset as u64);
                        self.scratch_addrs[lane] = a;
                        let v = Self::bytes_read(&cdata, a, width);
                        w.write(dst, lane, v);
                    }
                }
                // Constant cache timing: a miss pays a fixed refill penalty.
                let mut lines = std::mem::take(&mut self.scratch_lines);
                coalesce_lines(&self.scratch_addrs, mask, width.bytes(), &mut lines);
                let mut l = lat.cmem_hit;
                for &line in &lines {
                    match self.cc.access(line * LINE_BYTES, false) {
                        CacheOutcome::Hit => {}
                        _ => {
                            self.cc.fill(line * LINE_BYTES, false);
                            l = lat.cmem_miss;
                        }
                    }
                }
                self.scratch_lines = lines;
                let w = self.warps[widx]
                    .as_mut()
                    .expect("scheduled warp is resident");
                w.reg_ready[dst.0 as usize] = now + l;
                w.advance_pc();
            }
            Space::Shared => {
                let mask;
                {
                    let w = self.warps[widx]
                        .as_mut()
                        .expect("scheduled warp is resident");
                    mask = w.reconverge().expect("divergence stack entry").mask;
                    for lane in lanes(mask) {
                        self.scratch_addrs[lane] =
                            Self::opval(w, addr, lane).wrapping_add(offset as u64);
                    }
                }
                if let Some((a, fl)) = Self::check_shared_lanes(
                    &self.scratch_addrs,
                    mask,
                    width,
                    self.slots[slot_idx].smem.len(),
                ) {
                    self.trap(
                        widx,
                        slot_idx,
                        FaultKind::SharedMemOverflow,
                        pc,
                        fl,
                        Some(a),
                        out,
                    );
                    return;
                }
                let degree = bank_conflict_degree(&self.scratch_addrs, mask) as u64;
                self.stats.bank_conflict_cycles += degree - 1;
                let slot = &self.slots[slot_idx];
                let mut vals = [0u64; WARP_SIZE];
                for lane in lanes(mask) {
                    vals[lane] = Self::bytes_read(&slot.smem, self.scratch_addrs[lane], width);
                }
                let w = self.warps[widx]
                    .as_mut()
                    .expect("scheduled warp is resident");
                for lane in lanes(mask) {
                    w.write(dst, lane, vals[lane]);
                }
                w.reg_ready[dst.0 as usize] = now + lat.smem + (degree - 1);
                w.advance_pc();
            }
            Space::Global | Space::Local | Space::Tex => {
                let mask;
                {
                    let cfg = &self.slots[slot_idx].cfg;
                    let w = self.warps[widx]
                        .as_mut()
                        .expect("scheduled warp is resident");
                    mask = w.reconverge().expect("divergence stack entry").mask;
                    let wic = w.warp_in_cta;
                    for lane in lanes(mask) {
                        let mut a = Self::opval(w, addr, lane).wrapping_add(offset as u64);
                        if space == Space::Local {
                            a = Self::local_addr(self.config.interleave_local, cfg, wic, lane, a);
                        }
                        self.scratch_addrs[lane] = a;
                    }
                }
                // Guest-fault check on the raw per-lane addresses, before
                // coalescing and before any functional access.
                if let Some((k, a, fl)) =
                    Self::check_lanes(gmem, &self.scratch_addrs, mask, width, false)
                {
                    self.trap(widx, slot_idx, k, pc, fl, Some(a), out);
                    return;
                }
                // Functional read from the cycle-start snapshot.
                let mut vals = [0u64; WARP_SIZE];
                for lane in lanes(mask) {
                    vals[lane] = gmem.read(self.scratch_addrs[lane], width);
                }
                {
                    let w = self.warps[widx]
                        .as_mut()
                        .expect("scheduled warp is resident");
                    for lane in lanes(mask) {
                        w.write(dst, lane, vals[lane]);
                    }
                }
                // Timing.
                let mut lines = std::mem::take(&mut self.scratch_lines);
                coalesce_lines(&self.scratch_addrs, mask, width.bytes(), &mut lines);
                if self.config.perfect_memory {
                    let w = self.warps[widx]
                        .as_mut()
                        .expect("scheduled warp is resident");
                    w.reg_ready[dst.0 as usize] = now + lat.l1_hit;
                } else {
                    let tex = space == Space::Tex;
                    let mut misses = 0u16;
                    let mut hits = 0u64;
                    let mut offchip = 0u64;
                    for &line in &lines {
                        let cache = if tex { &mut self.tc } else { &mut self.l1 };
                        match cache.access(line * LINE_BYTES, false) {
                            CacheOutcome::Hit => hits += 1,
                            CacheOutcome::MshrMerged => {
                                misses += 1;
                                self.waiters
                                    .entry((tex, line))
                                    .or_default()
                                    .push((widx, dst));
                            }
                            _ => {
                                misses += 1;
                                offchip += 1;
                                let id = self.next_req_id;
                                self.next_req_id += 1;
                                self.outstanding
                                    .insert(id, RespRoute::LoadFill { tex, line });
                                self.waiters
                                    .entry((tex, line))
                                    .or_default()
                                    .push((widx, dst));
                                out.mem_requests.push(MemRequest {
                                    id,
                                    addr: line * LINE_BYTES,
                                    kind: ReqKind::Load,
                                    tex,
                                });
                                self.stats.offchip_txns += 1;
                            }
                        }
                    }
                    // The LSU processes one coalesced transaction per
                    // cycle: an uncoalesced access occupies the warp's
                    // issue slot for `lines` cycles even when it hits.
                    let serialize = lines.len().saturating_sub(1) as u64;
                    if let Some(t) = self.pc_stats.as_deref_mut() {
                        let kid = self.slots[slot_idx].cfg.kernel_id;
                        if !tex {
                            t.record_l1(kid, pc, lines.len() as u64, hits);
                        }
                        t.record_txns(kid, pc, lines.len() as u64, serialize);
                        t.record_offchip(kid, pc, offchip);
                    }
                    let w = self.warps[widx]
                        .as_mut()
                        .expect("scheduled warp is resident");
                    if misses == 0 {
                        w.reg_ready[dst.0 as usize] = now + lat.l1_hit + serialize;
                    } else {
                        w.reg_pending[dst.0 as usize] += misses;
                    }
                    w.next_issue_at = w.next_issue_at.max(now + 1 + serialize);
                }
                self.scratch_lines = lines;
                let w = self.warps[widx]
                    .as_mut()
                    .expect("scheduled warp is resident");
                w.advance_pc();
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_store(
        &mut self,
        widx: usize,
        slot_idx: usize,
        pc: usize,
        space: Space,
        width: Width,
        src: Operand,
        addr: Operand,
        offset: i64,
        now: u64,
        gmem: &dyn GlobalMem,
        out: &mut TickOutput,
    ) {
        let lat = self.config.lat;
        let _ = lat;
        match space {
            Space::Param | Space::Const | Space::Tex => {
                debug_assert!(false, "store to read-only space {space}");
                let w = self.warps[widx]
                    .as_mut()
                    .expect("scheduled warp is resident");
                w.advance_pc();
            }
            Space::Shared => {
                let mask;
                let mut vals = [0u64; WARP_SIZE];
                {
                    let w = self.warps[widx]
                        .as_mut()
                        .expect("scheduled warp is resident");
                    mask = w.reconverge().expect("divergence stack entry").mask;
                    for lane in lanes(mask) {
                        self.scratch_addrs[lane] =
                            Self::opval(w, addr, lane).wrapping_add(offset as u64);
                        vals[lane] = Self::opval(w, src, lane);
                    }
                }
                if let Some((a, fl)) = Self::check_shared_lanes(
                    &self.scratch_addrs,
                    mask,
                    width,
                    self.slots[slot_idx].smem.len(),
                ) {
                    self.trap(
                        widx,
                        slot_idx,
                        FaultKind::SharedMemOverflow,
                        pc,
                        fl,
                        Some(a),
                        out,
                    );
                    return;
                }
                let degree = bank_conflict_degree(&self.scratch_addrs, mask) as u64;
                self.stats.bank_conflict_cycles += degree - 1;
                let slot = &mut self.slots[slot_idx];
                for lane in lanes(mask) {
                    Self::bytes_write(&mut slot.smem, self.scratch_addrs[lane], width, vals[lane]);
                }
                let w = self.warps[widx]
                    .as_mut()
                    .expect("scheduled warp is resident");
                w.next_issue_at = now + 1 + (degree - 1);
                w.advance_pc();
            }
            Space::Global | Space::Local => {
                let mask;
                let mut vals = [0u64; WARP_SIZE];
                {
                    let cfg = &self.slots[slot_idx].cfg;
                    let w = self.warps[widx]
                        .as_mut()
                        .expect("scheduled warp is resident");
                    mask = w.reconverge().expect("divergence stack entry").mask;
                    let wic = w.warp_in_cta;
                    for lane in lanes(mask) {
                        let mut a = Self::opval(w, addr, lane).wrapping_add(offset as u64);
                        if space == Space::Local {
                            a = Self::local_addr(self.config.interleave_local, cfg, wic, lane, a);
                        }
                        self.scratch_addrs[lane] = a;
                        vals[lane] = Self::opval(w, src, lane);
                    }
                }
                if let Some((k, a, fl)) =
                    Self::check_lanes(gmem, &self.scratch_addrs, mask, width, true)
                {
                    self.trap(widx, slot_idx, k, pc, fl, Some(a), out);
                    return;
                }
                // Functional write is deferred: logged in issue order and
                // applied by the device after every SM has ticked.
                for lane in lanes(mask) {
                    out.mem_ops.push(MemOp::Store {
                        addr: self.scratch_addrs[lane],
                        width,
                        value: vals[lane],
                    });
                }
                if !self.config.perfect_memory {
                    let mut lines = std::mem::take(&mut self.scratch_lines);
                    coalesce_lines(&self.scratch_addrs, mask, width.bytes(), &mut lines);
                    let mut hits = 0u64;
                    let mut offchip = 0u64;
                    for &line in &lines {
                        let outcome = self.l1.access(line * LINE_BYTES, true);
                        if outcome == CacheOutcome::Hit {
                            hits += 1;
                        }
                        // Thread-private local stores are absorbed by the L1
                        // when resident (write-back behaviour on real GPUs);
                        // global stores write through.
                        if space == Space::Local {
                            match outcome {
                                CacheOutcome::Hit => continue,
                                _ => self.l1.fill(line * LINE_BYTES, false),
                            }
                        }
                        let id = self.next_req_id;
                        self.next_req_id += 1;
                        out.mem_requests.push(MemRequest {
                            id,
                            addr: line * LINE_BYTES,
                            kind: ReqKind::Store,
                            tex: false,
                        });
                        self.stats.offchip_txns += 1;
                        offchip += 1;
                    }
                    let serialize = lines.len().saturating_sub(1) as u64;
                    if let Some(t) = self.pc_stats.as_deref_mut() {
                        let kid = self.slots[slot_idx].cfg.kernel_id;
                        t.record_l1(kid, pc, lines.len() as u64, hits);
                        t.record_txns(kid, pc, lines.len() as u64, serialize);
                        t.record_offchip(kid, pc, offchip);
                    }
                    self.scratch_lines = lines;
                    let w = self.warps[widx]
                        .as_mut()
                        .expect("scheduled warp is resident");
                    w.next_issue_at = w.next_issue_at.max(now + 1 + serialize);
                }
                let w = self.warps[widx]
                    .as_mut()
                    .expect("scheduled warp is resident");
                w.advance_pc();
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_atomic(
        &mut self,
        widx: usize,
        slot_idx: usize,
        pc: usize,
        op: AtomOp,
        space: Space,
        dst: Reg,
        addr: Operand,
        src: Operand,
        cas_cmp: Operand,
        now: u64,
        gmem: &dyn GlobalMem,
        out: &mut TickOutput,
    ) {
        let lat = self.config.lat;
        let mask;
        let mut addrs = [0u64; WARP_SIZE];
        let mut srcs = [0u64; WARP_SIZE];
        let mut cmps = [0u64; WARP_SIZE];
        {
            let w = self.warps[widx]
                .as_mut()
                .expect("scheduled warp is resident");
            mask = w.reconverge().expect("divergence stack entry").mask;
            for lane in lanes(mask) {
                addrs[lane] = Self::opval(w, addr, lane);
                srcs[lane] = Self::opval(w, src, lane);
                cmps[lane] = Self::opval(w, cas_cmp, lane);
            }
        }
        match space {
            Space::Shared => {
                if let Some((a, fl)) = Self::check_shared_lanes(
                    &addrs,
                    mask,
                    Width::B64,
                    self.slots[slot_idx].smem.len(),
                ) {
                    self.trap(
                        widx,
                        slot_idx,
                        FaultKind::SharedMemOverflow,
                        pc,
                        fl,
                        Some(a),
                        out,
                    );
                    return;
                }
                let slot = &mut self.slots[slot_idx];
                let mut olds = [0u64; WARP_SIZE];
                for lane in lanes(mask) {
                    let old = Self::bytes_read(&slot.smem, addrs[lane], Width::B64);
                    let (new, o) = op.apply(old, srcs[lane], cmps[lane]);
                    Self::bytes_write(&mut slot.smem, addrs[lane], Width::B64, new);
                    olds[lane] = o;
                }
                let w = self.warps[widx]
                    .as_mut()
                    .expect("scheduled warp is resident");
                for lane in lanes(mask) {
                    w.write(dst, lane, olds[lane]);
                }
                w.reg_ready[dst.0 as usize] = now + lat.smem + nlanes_extra(mask);
                w.advance_pc();
            }
            _ => {
                // Global atomics execute at the memory partition; lanes are
                // applied in lane order (deterministic serialization).
                if let Some((k, a, fl)) = Self::check_lanes(gmem, &addrs, mask, Width::B64, true) {
                    self.trap(widx, slot_idx, k, pc, fl, Some(a), out);
                    return;
                }
                // Deferred: applied at end-of-cycle commit in (SM index,
                // issue order); the old value is written back to the warp's
                // destination register there. Reads of `dst` are gated by
                // reg_ready/reg_pending below, which never allow a read
                // before now + 1, so the commit-time write-back is
                // indistinguishable from an issue-time one.
                for lane in lanes(mask) {
                    out.mem_ops.push(MemOp::Atomic {
                        op,
                        addr: addrs[lane],
                        src: srcs[lane],
                        cas: cmps[lane],
                        warp: widx,
                        dst,
                        lane,
                    });
                }
                if self.config.perfect_memory {
                    let w = self.warps[widx]
                        .as_mut()
                        .expect("scheduled warp is resident");
                    w.reg_ready[dst.0 as usize] = now + lat.l1_hit;
                } else {
                    // One round-trip per distinct line.
                    let mut lines = std::mem::take(&mut self.scratch_lines);
                    coalesce_lines(&addrs, mask, 8, &mut lines);
                    {
                        let w = self.warps[widx]
                            .as_mut()
                            .expect("scheduled warp is resident");
                        w.reg_pending[dst.0 as usize] += lines.len() as u16;
                    }
                    for &line in &lines {
                        let id = self.next_req_id;
                        self.next_req_id += 1;
                        self.outstanding.insert(
                            id,
                            RespRoute::Atomic {
                                warp: widx,
                                reg: dst,
                            },
                        );
                        out.mem_requests.push(MemRequest {
                            id,
                            addr: line * LINE_BYTES,
                            kind: ReqKind::Atomic,
                            tex: false,
                        });
                        self.stats.offchip_txns += 1;
                    }
                    if let Some(t) = self.pc_stats.as_deref_mut() {
                        let kid = self.slots[slot_idx].cfg.kernel_id;
                        t.record_txns(kid, pc, lines.len() as u64, 0);
                        t.record_offchip(kid, pc, lines.len() as u64);
                    }
                    self.scratch_lines = lines;
                }
                let w = self.warps[widx]
                    .as_mut()
                    .expect("scheduled warp is resident");
                w.advance_pc();
            }
        }
    }
}

/// Serialization overhead for multi-lane shared atomics.
fn nlanes_extra(mask: u32) -> u64 {
    (mask.count_ones() as u64).saturating_sub(1)
}
