//! Functional execution stage of the SM: [`SmCore::issue`] borrows the
//! warp, its CTA slot and the instruction once and executes it; loads, stores
//! and atomics to every space go through the one memory pipeline,
//! [`SmCore::mem_access`].
//!
//! The cost is per warp-instruction, as the model is: a register-writing
//! instruction resolves its operation once and computes one 32-lane row
//! (`ggpu_isa`'s `eval_row` forms, generated from the scalar `eval`s that
//! define the semantics), written back under the active mask by
//! [`Warp::write_row`](crate::warp::Warp::write_row); a memory instruction
//! makes one call into [`GlobalMem`] per stage, not one per lane.
//!
//! Everything here is a pure function of SM-local state plus the cycle-start
//! memory snapshot (`&dyn GlobalMem`, reads only): functional stores and
//! global atomics are **deferred** into [`TickOutput::mem_ops`] and committed
//! by the device after every SM has ticked, in deterministic merge order —
//! SM index first, then issue order within the SM — so the order SMs tick
//! in cannot change a result. The order of that log, and of the request ids
//! and [`MemRequest`]s a cycle emits, is therefore part of the results.

use ggpu_isa::{AtomOp, FaultKind, Instr, Operand, Reg, Space, Width, WARP_SIZE};
use ggpu_mem::{CacheOutcome, LINE_BYTES};

use crate::coalesce::{bank_conflict_degree, coalesce_lines};
use crate::config::lat;
use crate::ports::{CompletedCta, DeviceLaunch, MemOp, MemRequest, ReqKind, TickOutput};
use crate::warp::{active_row, lanes, SimtEntry, WarpBlock};

use super::{GlobalMem, RespRoute, SmCore};

/// What a memory instruction does at its lane addresses.
#[derive(Clone, Copy)]
enum Access {
    Load(Reg),
    Store(Operand),
    Atomic {
        op: AtomOp,
        dst: Reg,
        src: Operand,
        cas: Operand,
    },
}

/// A decoded `Ld` / `St` / `Atom`: one row of the memory pipeline's input.
#[derive(Clone, Copy)]
struct MemInstr {
    access: Access,
    space: Space,
    width: Width,
    addr: Operand,
    offset: i64,
}

pub(super) fn fma(f64: bool, a: u64, b: u64, c: u64) -> u64 {
    if f64 {
        f64::from_bits(a)
            .mul_add(f64::from_bits(b), f64::from_bits(c))
            .to_bits()
    } else {
        let (x, y, z) = (a as u32, b as u32, c as u32);
        f32::from_bits(x)
            .mul_add(f32::from_bits(y), f32::from_bits(z))
            .to_bits() as u64
    }
}

impl SmCore {
    /// Issue one instruction from warp `widx`.
    pub(super) fn issue(
        &mut self,
        widx: usize,
        now: u64,
        gmem: &dyn GlobalMem,
        out: &mut TickOutput,
    ) {
        let w = self.warps[widx]
            .as_mut()
            .expect("scheduled warp is resident");
        w.forget_readiness();
        let entry = w.reconverge().expect("issuing finished warp");
        let SimtEntry { pc, mask, .. } = entry;
        let slot_idx = w.cta_slot;
        let slot = &mut self.slots[slot_idx];
        let kid = slot.cfg.kernel_id;
        let Some(instr) = self.program.kernel(kid).instrs.get(pc) else {
            // The PC fell off the end of the instruction stream (possible
            // for hand-built kernels whose last path misses `Exit`).
            return self.trap(widx, pc, FaultKind::InvalidPc, mask, None, out);
        };
        // Predecoded result latency for the directly-executed arms below —
        // no per-issue re-match of the op class.
        let meta = self.decoded[kid.0 as usize][pc];
        let nlanes = mask.count_ones();

        self.stats.record_issue(meta.class, nlanes);
        out.issued += 1;
        if let Some(space) = meta.space {
            self.stats.record_mem(space);
        }
        if let Some(t) = self.pc_stats.as_deref_mut() {
            t.record_issue(kid, pc, nlanes);
        }

        // Default post-issue state; overridden below where needed.
        w.next_issue_at = now + 1;
        w.issue_block_is_control = false;

        // The directly executed, register-writing instructions each compute
        // one row — operation resolved once per warp-instruction, operands
        // read as rows — and share the masked write-back and the epilogue
        // below the match; every other arm returns.
        let (dst, row) = match *instr {
            Instr::Alu { op, dst, a, b } => (dst, op.eval_row(mask, &w.row(a), &w.row(b))),
            Instr::Fma { f64, dst, a, b, c } => {
                let (a, b, c) = (w.row(a), w.row(b), w.row(c));
                // Without hardware FMA a lane is a libm call: active lanes only.
                (dst, active_row(mask, |l| fma(f64, a[l], b[l], c[l])))
            }
            Instr::Mov { dst, src } => (dst, w.row(src)),
            Instr::Sel {
                dst,
                cond,
                if_true,
                if_false,
            } => {
                let (cond, t, f) = (w.row(Operand::Reg(cond)), w.row(if_true), w.row(if_false));
                (
                    dst,
                    std::array::from_fn(|l| if cond[l] != 0 { t[l] } else { f[l] }),
                )
            }
            Instr::SetP {
                pred,
                cmp,
                ty,
                a,
                b,
            } => (pred, cmp.eval_row(ty, &w.row(a), &w.row(b))),
            Instr::Cvt { kind, dst, src } => (dst, kind.eval_row(&w.row(src))),
            Instr::Sreg { dst, sreg } => (dst, Self::sreg_row(&slot.cfg, w.warp_in_cta, sreg)),
            Instr::Ld {
                space,
                width,
                dst,
                addr,
                offset,
            } => {
                let m = MemInstr {
                    access: Access::Load(dst),
                    space,
                    width,
                    addr,
                    offset,
                };
                return self.mem_access(widx, entry, m, now, gmem, out);
            }
            Instr::St {
                space,
                width,
                src,
                addr,
                offset,
            } => {
                let m = MemInstr {
                    access: Access::Store(src),
                    space,
                    width,
                    addr,
                    offset,
                };
                return self.mem_access(widx, entry, m, now, gmem, out);
            }
            Instr::Atom {
                op,
                space,
                dst,
                addr,
                src,
                cas_cmp: cas,
            } => {
                let m = MemInstr {
                    access: Access::Atomic { op, dst, src, cas },
                    space,
                    width: Width::B64,
                    addr,
                    offset: 0,
                };
                return self.mem_access(widx, entry, m, now, gmem, out);
            }
            Instr::Bar => {
                // Real GPUs leave a barrier under divergence undefined; a
                // typed fault catches the `__syncthreads()`-under-divergence
                // bug deterministically instead of emulating one outcome.
                if w.stack.len() > 1 {
                    return self.trap(widx, pc, FaultKind::BarrierDivergence, mask, None, out);
                }
                w.advance_pc();
                w.block = WarpBlock::Barrier;
                slot.barrier_count += 1;
                return self.release_barrier(slot_idx);
            }
            Instr::Bra {
                pred,
                target,
                reconv,
            } => {
                // `Warp::branch` keeps the active lanes of `taken` only.
                let taken = match pred {
                    None => mask,
                    Some((r, expect)) => {
                        let p = &w.regs[r.0 as usize];
                        (0..WARP_SIZE).fold(0, |t, l| t | u32::from((p[l] != 0) == expect) << l)
                    }
                };
                w.branch(taken, target, pc + 1, reconv);
                w.next_issue_at = now + lat::BRANCH;
                w.issue_block_is_control = true;
                return;
            }
            Instr::Launch {
                kernel,
                grid_x,
                block_x,
                params_ptr,
                param_words,
            } => {
                w.advance_pc();
                // Device-side launch overhead occupies the warp.
                w.next_issue_at = now + lat::DEVICE_LAUNCH;
                w.issue_block_is_control = true;
                // Parameter-block reads fault like any other global access;
                // every lane's block is checked before any launch is emitted.
                let (grid_x, block_x, ptrs) = (w.row(grid_x), w.row(block_x), w.row(params_ptr));
                let block = |lane: usize| {
                    (0..param_words as u64).map(move |i| ptrs[lane].wrapping_add(i * 8))
                };
                for lane in lanes(mask) {
                    for a in block(lane) {
                        if let Some(k) = gmem.check(a, Width::B64, false) {
                            return self.trap(widx, pc, k, mask, Some(a), out);
                        }
                    }
                }
                for lane in lanes(mask) {
                    out.launches.push(DeviceLaunch {
                        kernel,
                        grid_x: grid_x[lane].max(1) as u32,
                        block_x: block_x[lane].max(1) as u32,
                        params: block(lane).map(|a| gmem.read(a, Width::B64)).collect(),
                        parent_slot: slot_idx,
                        parent_grid: slot.cfg.grid_handle,
                    });
                    slot.children += 1;
                    self.stats.device_launches += 1;
                }
                return;
            }
            Instr::Dsync => {
                w.advance_pc();
                if slot.children > 0 {
                    w.block = WarpBlock::Dsync;
                }
                return;
            }
            Instr::Exit => {
                w.done = true;
                self.live_warps -= 1;
                slot.running -= 1;
                if slot.running > 0 {
                    // The remaining warps may now all be parked at a
                    // barrier: release them rather than deadlocking.
                    return self.release_barrier(slot_idx);
                }
                // CTA complete: free resources.
                slot.live = false;
                self.used_threads -= slot.threads;
                self.used_regs -= slot.regs;
                self.used_smem -= slot.smem_bytes;
                self.used_slots -= 1;
                self.stats.ctas_completed += 1;
                slot.smem = Vec::new();
                for wi in std::mem::take(&mut slot.warps) {
                    self.warps[wi] = None;
                    self.free_warps.push(wi);
                }
                self.free_slots.push(slot_idx);
                out.completed.push(CompletedCta {
                    grid_handle: slot.cfg.grid_handle,
                    slot: slot_idx,
                });
                return;
            }
        };
        w.write_row(dst, mask, &row);
        w.reg_ready[dst.0 as usize] = now + meta.lat;
        if meta.f64_pen {
            w.next_issue_at = now + lat::F64_INTERVAL;
        }
        w.advance_pc();
    }

    /// Release the warps of CTA `slot_idx` parked at its barrier once every
    /// warp still running has arrived — the arrival that completes it
    /// (`Bar`), or an `Exit` that leaves only parked warps behind.
    fn release_barrier(&mut self, slot_idx: usize) {
        let slot = &mut self.slots[slot_idx];
        if slot.barrier_count == 0 || slot.barrier_count < slot.running {
            return;
        }
        slot.barrier_count = 0;
        for &wi in &slot.warps {
            if let Some(w) = self.warps[wi].as_mut() {
                if w.block == WarpBlock::Barrier {
                    w.block = WarpBlock::None;
                    w.forget_readiness();
                }
            }
        }
    }

    /// The memory pipeline every load, store and atomic goes through:
    ///
    /// 1. **lane addresses** — the address operand's row plus `offset`, one
    ///    row add (lanes outside the mask carry garbage nobody reads);
    /// 2. **guest-fault check**, one per space class — the extent the SM
    ///    knows (the CTA's shared allocation; a thread's `local_stride`
    ///    bytes of local memory, checked on the thread-relative address
    ///    *before* the remap into the grid's arena so the remap arithmetic
    ///    can neither overflow nor reach a neighbour's arena), then for
    ///    everything off-chip the device's own rule in one call,
    ///    [`GlobalMem::check_lanes`] on the raw lane addresses; a fault
    ///    traps the warp before any functional effect;
    /// 3. **functional effect** — loads read a row (shared memory, or the
    ///    cycle-start snapshot through one [`GlobalMem::read_lanes`]),
    ///    shared stores and atomics apply at once, an off-chip store appends
    ///    one [`MemOp::Store`] row to the log and an off-chip atomic one
    ///    [`MemOp::Atomic`] per lane in lane order;
    /// 4. **timing** — shared: bank-conflict serialization; off-chip: the
    ///    coalesced lines walk the L1/texture lookup, misses and
    ///    write-throughs take request ids and become [`MemRequest`]s in line
    ///    order, and the access is charged to its PC.
    ///
    /// Parameter and constant loads leave after stage 1 as two short arms of
    /// their own: neither can fault and neither leaves the SM.
    /// [`ggpu_isa::Kernel::validate`] admits stores only to global, local and
    /// shared memory and atomics only to global and shared; in a stream that
    /// skipped it, any other combination is treated as a global access.
    fn mem_access(
        &mut self,
        widx: usize,
        entry: SimtEntry,
        m: MemInstr,
        now: u64,
        gmem: &dyn GlobalMem,
        out: &mut TickOutput,
    ) {
        let SimtEntry { pc, mask, .. } = entry;
        let w = self.warps[widx]
            .as_mut()
            .expect("scheduled warp is resident");
        let slot = &mut self.slots[w.cta_slot];
        let kid = slot.cfg.kernel_id;
        let shared = m.space == Space::Shared;
        let atomic = matches!(m.access, Access::Atomic { .. });

        // 1. Lane addresses: one row add. Lanes outside `mask` hold whatever
        // their registers give; every consumer below goes by `mask`.
        let mut addrs = w.row(m.addr);
        for a in &mut addrs {
            *a = a.wrapping_add(m.offset as u64);
        }

        match (m.space, m.access) {
            (Space::Param, Access::Load(dst)) => {
                let row = active_row(mask, |l| {
                    Self::param_read(&slot.cfg.params, addrs[l], m.width)
                });
                w.write_row(dst, mask, &row);
                w.reg_ready[dst.0 as usize] = now + lat::PARAM;
                return w.advance_pc();
            }
            (Space::Const, Access::Load(dst)) => {
                let row = active_row(mask, |l| {
                    Self::bytes_read(&slot.cfg.const_data, addrs[l], m.width)
                });
                w.write_row(dst, mask, &row);
                // Constant cache timing: a miss pays a fixed refill penalty.
                coalesce_lines(&addrs, mask, m.width.bytes(), &mut self.scratch_lines);
                let mut l = lat::CMEM_HIT;
                for &line in &self.scratch_lines {
                    if self.cc.access(line * LINE_BYTES, false) != CacheOutcome::Hit {
                        self.cc.fill(line * LINE_BYTES, false);
                        l = lat::CMEM_MISS;
                    }
                }
                w.reg_ready[dst.0 as usize] = now + l;
                return w.advance_pc();
            }
            _ => {}
        }

        // 2. Guest-fault check: the extent the SM knows, then the device's.
        let extent = match m.space {
            Space::Shared => Some((slot.smem.len() as u64, FaultKind::SharedMemOverflow)),
            Space::Local => Some((slot.cfg.local_stride, FaultKind::IllegalAddress)),
            _ => None,
        };
        let mut fault = extent.and_then(|(len, kind)| {
            Self::check_extent_lanes(&addrs, mask, m.width, len).map(|(a, fl)| (kind, a, fl))
        });
        if fault.is_none() && !shared {
            if m.space == Space::Local {
                let interleave = self.config.interleave_local;
                Self::local_row(interleave, &slot.cfg, w.warp_in_cta, &mut addrs);
            }
            let store = !matches!(m.access, Access::Load(_));
            fault = gmem.check_lanes(&addrs, mask, m.width, store);
        }
        if let Some((kind, a, faulting)) = fault {
            return self.trap(widx, pc, kind, faulting, Some(a), out);
        }

        // 3. Functional effect. Off-chip writes are deferred: logged in issue
        // order and applied by the device after every SM has ticked. A global
        // atomic's old value is written back to `dst` at that commit; reads
        // of `dst` are gated by `reg_ready`/`reg_pending` below, which never
        // allow one before `now + 1`, so the commit-time write-back is
        // indistinguishable from an issue-time one.
        let dst = match m.access {
            Access::Load(dst) => {
                let row = if shared {
                    active_row(mask, |l| Self::bytes_read(&slot.smem, addrs[l], m.width))
                } else {
                    gmem.read_lanes(&addrs, mask, m.width)
                };
                w.write_row(dst, mask, &row);
                Some(dst)
            }
            Access::Store(src) => {
                let values = w.row(src);
                if shared {
                    for lane in lanes(mask) {
                        Self::bytes_write(&mut slot.smem, addrs[lane], m.width, values[lane]);
                    }
                } else {
                    out.mem_ops.push(MemOp::Store {
                        addrs,
                        values,
                        mask,
                        width: m.width,
                    });
                }
                None
            }
            // Lanes apply in lane order (deterministic serialization).
            Access::Atomic { op, dst, src, cas } => {
                let (srcs, cass) = (w.row(src), w.row(cas));
                for lane in lanes(mask) {
                    let (addr, src, cas) = (addrs[lane], srcs[lane], cass[lane]);
                    if shared {
                        let old = Self::bytes_read(&slot.smem, addr, m.width);
                        let (new, old) = op.apply(old, src, cas);
                        Self::bytes_write(&mut slot.smem, addr, m.width, new);
                        w.write(dst, lane, old);
                    } else {
                        out.mem_ops.push(MemOp::Atomic {
                            op,
                            addr,
                            src,
                            cas,
                            warp: widx,
                            dst,
                            lane,
                        });
                    }
                }
                Some(dst)
            }
        };

        // 4. Timing.
        if shared {
            // A load or store serializes over its bank-conflict degree, an
            // atomic over its lanes.
            let extra = if atomic {
                (mask.count_ones() as u64).saturating_sub(1)
            } else {
                let conflicts = bank_conflict_degree(&addrs, mask) as u64 - 1;
                self.stats.bank_conflict_cycles += conflicts;
                conflicts
            };
            match dst {
                Some(dst) => w.reg_ready[dst.0 as usize] = now + lat::SMEM + extra,
                None => w.next_issue_at = now + 1 + extra,
            }
        } else if self.config.perfect_memory {
            if let Some(dst) = dst {
                w.reg_ready[dst.0 as usize] = now + lat::L1_HIT;
            }
        } else {
            coalesce_lines(&addrs, mask, m.width.bytes(), &mut self.scratch_lines);
            let tex = m.space == Space::Tex;
            let (mut hits, mut misses, mut offchip) = (0u64, 0u16, 0u64);
            for &line in &self.scratch_lines {
                let addr = line * LINE_BYTES;
                let (kind, route) = match m.access {
                    Access::Load(dst) => {
                        let cache = if tex { &mut self.tc } else { &mut self.l1 };
                        let outcome = cache.access(addr, false);
                        if outcome == CacheOutcome::Hit {
                            hits += 1;
                            continue;
                        }
                        misses += 1;
                        let waiters = if tex {
                            &mut self.tex_waiters
                        } else {
                            &mut self.l1_waiters
                        };
                        waiters.park(line, (widx, dst));
                        if outcome == CacheOutcome::MshrMerged {
                            continue;
                        }
                        (ReqKind::Load, Some(RespRoute::LoadFill { tex, line }))
                    }
                    Access::Store(_) => {
                        let hit = self.l1.access(addr, true) == CacheOutcome::Hit;
                        hits += hit as u64;
                        // Thread-private local stores are absorbed by the L1
                        // when resident (write-back behaviour on real GPUs);
                        // global stores write through.
                        if m.space == Space::Local {
                            if hit {
                                continue;
                            }
                            self.l1.fill(addr, false);
                        }
                        (ReqKind::Store, None)
                    }
                    // Global atomics execute at the memory partition: one
                    // round-trip per distinct line, past the L1.
                    Access::Atomic { dst, .. } => {
                        misses += 1;
                        let route = RespRoute::Atomic {
                            warp: widx,
                            reg: dst,
                        };
                        (ReqKind::Atomic, Some(route))
                    }
                };
                let id = self.requests.issue(route);
                out.mem_requests.push(MemRequest {
                    id,
                    addr,
                    kind,
                    tex,
                });
                self.stats.offchip_txns += 1;
                offchip += 1;
            }
            // The LSU processes one coalesced transaction per cycle: an
            // uncoalesced load or store occupies the warp's issue slot for
            // `lines` cycles even when it hits.
            let lines = self.scratch_lines.len() as u64;
            let serialize = if atomic { 0 } else { lines.saturating_sub(1) };
            if let Some(t) = self.pc_stats.as_deref_mut() {
                if !tex && !atomic {
                    t.record_l1(kid, pc, lines, hits);
                }
                t.record_txns(kid, pc, lines, serialize);
                t.record_offchip(kid, pc, offchip);
            }
            if let Some(dst) = dst {
                if misses == 0 {
                    w.reg_ready[dst.0 as usize] = now + lat::L1_HIT + serialize;
                } else {
                    w.reg_pending[dst.0 as usize] += misses;
                }
            }
            w.next_issue_at = w.next_issue_at.max(now + 1 + serialize);
        }
        w.advance_pc();
    }
}
