//! The reference interpreter ([`DispatchMode::Match`](crate::machine::DispatchMode)):
//! the oracle the threaded loop is tested against, and where that loop
//! lands when the instruction budget ends inside a basic block.
//!
//! It knows the *primitive* instructions only, and charges per slot, which
//! makes it the oracle for the block charges too. A superinstruction has no
//! arm here and never gets one: its slot is charged as the table says and
//! then its [`Instr::expansion`] runs through the primitive arms, so the
//! differential suites check a fused handler against the op's definition.
//! The walk relies on what `fused_instructions_cost_their_expansion` pins:
//! no part changes the frame, yields or launches, and only the last may
//! branch. `Call`'s frame push, `Launch` and `Atomic` are the functions the
//! handlers call, as `bin_op` and `ExecEnv::load` are; the loop, the
//! accounting, operand decoding and stack plumbing are this file's own.

use crate::bytecode::*;
use crate::error::ExecError;
use crate::machine::{budget_exhausted, fall_off_end, BlockCtx, ExecEnv, Thread, ThreadStatus};
use crate::ops::{
    atomic, bin_op, intrinsic1, intrinsic2, launch, pop, push_frame, special, un_op, NOT_A_LEADER,
};
use crate::trace::BlockTrace;
use crate::value::Value;

/// Runs one thread until it returns, reaches a barrier, or errors.
pub(crate) fn run_thread_match(
    env: &mut ExecEnv<'_>,
    thread: &mut Thread,
    block: &BlockCtx,
    shared: &mut [Value],
    btrace: &mut BlockTrace,
) -> Result<(), ExecError> {
    let tables = env.tables;
    let t = thread;
    'frames: loop {
        let table = &tables[t.frame.func as usize].ops;
        let origins = &env.module.functions[t.frame.func as usize].origins;
        loop {
            let pc = t.frame.pc;
            let Some(op) = table.get(pc) else {
                if fall_off_end(t) {
                    continue 'frames;
                }
                return Ok(());
            };
            t.frame.pc = pc + 1;
            let width = op.instr.width() as u64;
            let cycles = op.instr.cost(env.cost);
            t.cycles += cycles;
            t.instructions += width;
            t.origin_cycles.add(origins[pc], cycles);
            if *env.instr_budget < width {
                return Err(budget_exhausted());
            }
            *env.instr_budget -= width;
            env.profile.ops += 1;
            env.profile.blocks += (op.charge != NOT_A_LEADER) as u64;

            // A fused slot was charged as one; it runs as its definition.
            // Only a fused op is wider than one, so a primitive is not asked
            // (the call was an eighth of this loop's time on an unfused program).
            let expansion = if width > 1 {
                op.instr.expansion()
            } else {
                None
            };
            let parts = expansion
                .as_deref()
                .unwrap_or(std::slice::from_ref(&op.instr));
            for &instr in parts {
                match instr {
                    Instr::PushInt(v) => t.stack.push(Value::Int(v)),
                    Instr::PushFloat(v) => t.stack.push(Value::Float(v)),
                    Instr::LoadLocal(slot) => {
                        let v = t.frame.locals[slot as usize];
                        t.stack.push(v);
                    }
                    Instr::StoreLocal(slot) => {
                        let v = pop(&mut t.stack)?;
                        t.frame.locals[slot as usize] = v;
                    }
                    Instr::LoadMem => {
                        let addr = pop(&mut t.stack)?.as_int();
                        let v = env.load(addr, shared)?;
                        t.stack.push(v);
                    }
                    Instr::StoreMem => {
                        let v = pop(&mut t.stack)?;
                        let addr = pop(&mut t.stack)?.as_int();
                        env.store(addr, v, shared)?;
                    }
                    Instr::Bin(kind) => {
                        let b = pop(&mut t.stack)?;
                        let a = pop(&mut t.stack)?;
                        t.stack.push(bin_op(kind, a, b)?);
                    }
                    Instr::Un(kind) => {
                        let a = pop(&mut t.stack)?;
                        t.stack.push(un_op(kind, a));
                    }
                    Instr::CastInt => {
                        let a = pop(&mut t.stack)?;
                        t.stack.push(Value::Int(a.as_int()));
                    }
                    Instr::CastFloat => {
                        let a = pop(&mut t.stack)?;
                        t.stack.push(Value::Float(a.as_float()));
                    }
                    Instr::Jump(target) => t.frame.pc = target as usize,
                    Instr::JumpIfZero(target) => {
                        if !pop(&mut t.stack)?.is_truthy() {
                            t.frame.pc = target as usize;
                        }
                    }
                    Instr::JumpIfNonZero(target) => {
                        if pop(&mut t.stack)?.is_truthy() {
                            t.frame.pc = target as usize;
                        }
                    }
                    Instr::Call(id, nargs) => {
                        push_frame(t, env.module, id, nargs as usize)?;
                        continue 'frames;
                    }
                    Instr::Ret => {
                        let v = pop(&mut t.stack)?;
                        if t.pop_frame() {
                            t.stack.push(v);
                            continue 'frames;
                        }
                        t.status = ThreadStatus::Done;
                        return Ok(());
                    }
                    Instr::RetVoid => {
                        if fall_off_end(t) {
                            continue 'frames;
                        }
                        return Ok(());
                    }
                    Instr::Launch(id, nargs) => launch(env, t, block, btrace, id, nargs as usize)?,
                    Instr::Sync => {
                        t.status = ThreadStatus::AtBarrier;
                        return Ok(());
                    }
                    // Functional no-op; the cycle cost was already charged.
                    Instr::Fence => {}
                    Instr::Atomic(kind) => atomic(env, &mut t.stack, shared, kind)?,
                    Instr::Intrinsic(i) => {
                        let v = match i {
                            Intrinsic::Min | Intrinsic::Max | Intrinsic::Pow => {
                                let b = pop(&mut t.stack)?;
                                let a = pop(&mut t.stack)?;
                                intrinsic2(i, a, b)
                            }
                            _ => {
                                let a = pop(&mut t.stack)?;
                                intrinsic1(i, a)
                            }
                        };
                        t.stack.push(v);
                    }
                    Instr::ReadSpecial(sp) => {
                        let d = special(sp, t, block);
                        t.stack.push(env.dim3s.intern(d));
                    }
                    Instr::ReadSpecialComp(sp, lane) => {
                        t.stack
                            .push(Value::Int(special(sp, t, block)[lane as usize]));
                    }
                    Instr::MakeDim3 => {
                        let z = pop(&mut t.stack)?.as_int();
                        let y = pop(&mut t.stack)?.as_int();
                        let x = pop(&mut t.stack)?.as_int();
                        t.stack.push(env.dim3s.intern([x, y, z]));
                    }
                    Instr::Dim3Member(lane) => {
                        let d = env.dim3s.resolve(pop(&mut t.stack)?);
                        t.stack.push(Value::Int(d[lane as usize]));
                    }
                    Instr::Dim3SetMember(lane) => {
                        let v = pop(&mut t.stack)?.as_int();
                        let mut d = env.dim3s.resolve(pop(&mut t.stack)?);
                        d[lane as usize] = v;
                        t.stack.push(env.dim3s.intern(d));
                    }
                    Instr::Pop => {
                        pop(&mut t.stack)?;
                    }
                    Instr::Dup => {
                        let v = *t
                            .stack
                            .last()
                            .ok_or_else(|| ExecError::new("stack underflow on dup"))?;
                        t.stack.push(v);
                    }
                    Instr::Swap => {
                        let n = t.stack.len();
                        if n < 2 {
                            return Err(ExecError::new("stack underflow on swap"));
                        }
                        t.stack.swap(n - 1, n - 2);
                    }
                    // Every primitive has an arm above. What is left is a
                    // fused op, and no expansion holds one.
                    _ => unreachable!("`{:?}` expands to a non-primitive", op.instr),
                }
            }
        }
    }
}
