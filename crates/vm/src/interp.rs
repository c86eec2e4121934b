//! The IR interpreter.
//!
//! A straightforward block-at-a-time interpreter with exact phi (parallel
//! copy) semantics, a bounds-checked linear memory, recursive calls, fuel
//! limiting, and cycle accounting against the PPC405 [`cost`](crate::cost)
//! model. Every block
//! execution is recorded into a [`Profile`], which is the raw material for
//! the paper's coverage, kernel, and break-even analyses.
//!
//! Arithmetic semantics are shared with the constant folder
//! ([`jitise_ir::passes::constfold`]) so that optimized and unoptimized
//! code compute identical results — a property the proptest suite checks.

use crate::ci::CiBinding;
use crate::cost;
use crate::mem::Memory;
use crate::predecode::{PredecodedModule, VmTier};
use crate::profile::{BlockKey, Profile};
use crate::value::Value;
use jitise_base::{Error, Result};
use jitise_ir::passes::constfold::{fold_cmp, fold_float_bin, fold_int_bin, fold_un};
use jitise_ir::{
    BlockId, ExtFunc, FuncId, Function, Imm, InstKind, Module, Operand, Terminator, Type,
};
use jitise_telemetry::{names, Telemetry, Value as TelValue};
use std::sync::Arc;

/// Executes loaded custom instructions (CIs) on behalf of the VM.
///
/// The Woolcano architecture model implements this. A CI's value comes
/// from its frozen datapath (`CiSemantics`, the hardware's functional
/// model) and its cost is the *hardware* cycle count; a call also marks
/// the slot as used for LRU eviction.
///
/// Both tiers call [`Self::exec_custom`] per executed CI unless the
/// handler binds: before each fast-tier run the VM calls [`Self::bind`],
/// and if that returns a [`CiBinding`] the run executes the bound slots'
/// lowered programs itself, without calling the handler, then returns the
/// binding through [`Self::retire`] on both the Ok and the Err path.
/// Slots missing from the binding still go through `exec_custom`. The
/// interpreter tier never binds: `exec_custom` stays the reference.
pub trait CustomHandler {
    /// Executes the custom instruction in `slot`; returns the result value
    /// and the cycles to charge.
    fn exec_custom(&self, slot: u32, args: &[Value]) -> Result<(Value, u64)>;

    /// The loaded CIs as lowered programs for one fast-tier run, or `None`
    /// (the default) to be called per CI. A handler that binds must not
    /// change its slots until the matching [`Self::retire`], so it serves
    /// one bound run at a time: while a fast-tier run is bound, no other
    /// VM may run against the same handler (the Woolcano model panics in
    /// `retire` when a CI call, an install or another bind came in
    /// between).
    fn bind(&self) -> Option<CiBinding> {
        None
    }

    /// Ends a bound run: applies the effects of the run's calls that the
    /// binding recorded (see [`CiBinding::last_calls`]).
    fn retire(&self, _binding: CiBinding) {}
}

/// Alloca stack size in bytes.
pub const STACK_BYTES: u32 = 1 << 20;

/// Maximum call depth.
pub const MAX_CALL_DEPTH: u32 = 256;

/// Dynamic-instruction budget of [`Interpreter::new`]; exceeding it is an
/// error (guards against runaway loops in generated workloads).
pub const DEFAULT_MAX_STEPS: u64 = 500_000_000;

/// Result of one program execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// Return value of the entry function.
    pub ret: Option<Value>,
    /// Total cycles charged.
    pub cycles: u64,
    /// Dynamic instructions executed.
    pub steps: u64,
}

/// The virtual machine.
pub struct Interpreter<'m> {
    pub(crate) module: &'m Module,
    /// Linear memory (public for test setup and result inspection).
    pub mem: Memory,
    pub(crate) profile: Profile,
    pub(crate) custom: Option<&'m dyn CustomHandler>,
    /// Dynamic-instruction budget.
    pub(crate) max_steps: u64,
    telemetry: Telemetry,
    pub(crate) steps: u64,
    pub(crate) cycles: u64,
    pub(crate) blocks: u64,
    /// Custom instructions executed (both tiers count a call once it
    /// returns `Ok`).
    pub(crate) ci_calls: u64,
    /// The handler's binding for the fast-tier run in progress.
    pub(crate) ci_binding: Option<CiBinding>,
    tier: VmTier,
    predecoded: Option<Arc<PredecodedModule>>,
    /// Recycled fast-tier call frames (see [`crate::predecode::Frame`]).
    pub(crate) fast_frames: Vec<crate::predecode::Frame>,
    /// Dense fast-tier profile rows, `[func][block]`, merged into
    /// `profile` when the outermost fast frame exits.
    pub(crate) fast_prof: Vec<Vec<crate::predecode::BlockStat>>,
    /// `(func, block)` indices with nonzero rows in `fast_prof`.
    pub(crate) fast_prof_touched: Vec<(u32, u32)>,
}

impl<'m> Interpreter<'m> {
    /// Creates a VM for `module` with the [`DEFAULT_MAX_STEPS`] budget.
    pub fn new(module: &'m Module) -> Self {
        Self::with_max_steps(module, DEFAULT_MAX_STEPS)
    }

    /// Creates a VM that fails a run once it executes more than
    /// `max_steps` dynamic instructions.
    pub fn with_max_steps(module: &'m Module, max_steps: u64) -> Self {
        Interpreter {
            module,
            mem: Memory::for_module(module, STACK_BYTES),
            profile: Profile::new(),
            custom: None,
            max_steps,
            telemetry: Telemetry::disabled(),
            steps: 0,
            cycles: 0,
            blocks: 0,
            ci_calls: 0,
            ci_binding: None,
            tier: VmTier::Interp,
            predecoded: None,
            fast_frames: Vec::new(),
            fast_prof: Vec::new(),
            fast_prof_touched: Vec::new(),
        }
    }

    /// Selects the execution tier. The fast tier pre-decodes the module on
    /// first use (or reuses a representation installed with
    /// [`Interpreter::set_predecoded`]) and is bit-identical to the
    /// interpreter in results, cycles, steps, profile, and error strings.
    pub fn set_tier(&mut self, tier: VmTier) {
        self.tier = tier;
    }

    /// The currently selected execution tier.
    pub fn tier(&self) -> VmTier {
        self.tier
    }

    /// Installs a shared pre-decoded representation (built with
    /// [`PredecodedModule::build`] from the *same* module)
    /// and switches to the fast tier. Lets long-lived runtimes pay the
    /// decode cost once per module instead of once per VM instance.
    pub fn set_predecoded(&mut self, pd: Arc<PredecodedModule>) {
        assert!(
            pd.matches(self.module),
            "predecoded representation does not match this module"
        );
        self.predecoded = Some(pd);
        self.tier = VmTier::Fast;
    }

    /// Installs a custom-instruction handler (the Woolcano model).
    pub fn set_custom_handler(&mut self, h: &'m dyn CustomHandler) {
        self.custom = Some(h);
    }

    /// Attaches a telemetry handle: each [`Interpreter::run_func`] records
    /// a `vm.run` span (simulated duration = charged cycles at the core
    /// clock) and retires instruction/block counters.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The profile accumulated so far.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Takes the profile, resetting the accumulator.
    pub fn take_profile(&mut self) -> Profile {
        std::mem::take(&mut self.profile)
    }

    /// Runs a function by name.
    pub fn run(&mut self, name: &str, args: &[Value]) -> Result<ExecOutcome> {
        let fid = self
            .module
            .func_by_name(name)
            .ok_or_else(|| Error::Vm(format!("no function named {name}")))?;
        self.run_func(fid, args)
    }

    /// Runs a function by id.
    pub fn run_func(&mut self, fid: FuncId, args: &[Value]) -> Result<ExecOutcome> {
        let start_steps = self.steps;
        let start_cycles = self.cycles;
        let start_blocks = self.blocks;
        let start_ci_calls = self.ci_calls;
        let mut span = self.telemetry.span("vm.run");
        let ret = match self.tier {
            VmTier::Interp => self.exec_func(fid, args, 0)?,
            VmTier::Fast => {
                let pd = match &self.predecoded {
                    Some(pd) => Arc::clone(pd),
                    None => {
                        let pd = Arc::new(PredecodedModule::build(self.module));
                        self.predecoded = Some(Arc::clone(&pd));
                        pd
                    }
                };
                self.ci_binding = self.custom.and_then(|h| h.bind());
                let ret = crate::predecode::exec_fast(self, &pd, fid, args, 0);
                if let (Some(h), Some(binding)) = (self.custom, self.ci_binding.take()) {
                    h.retire(binding);
                }
                ret?
            }
        };
        let out = ExecOutcome {
            ret,
            cycles: self.cycles - start_cycles,
            steps: self.steps - start_steps,
        };
        if self.telemetry.is_enabled() {
            span.set_sim_time(cost::cycles_to_time(out.cycles));
            span.field("func", TelValue::Str(self.module.func(fid).name.clone()));
            span.field("steps", TelValue::U64(out.steps));
            span.field("cycles", TelValue::U64(out.cycles));
            let ci_calls = self.ci_calls - start_ci_calls;
            span.field("ci_calls", TelValue::U64(ci_calls));
            self.telemetry.add(names::VM_INSTRUCTIONS, out.steps);
            self.telemetry
                .add(names::VM_BLOCKS, self.blocks - start_blocks);
            self.telemetry.add(names::VM_CI_CALLS, ci_calls);
        }
        Ok(out)
    }

    fn exec_func(&mut self, fid: FuncId, args: &[Value], depth: u32) -> Result<Option<Value>> {
        if depth >= MAX_CALL_DEPTH {
            return Err(Error::Vm(format!(
                "call depth limit {} exceeded",
                MAX_CALL_DEPTH
            )));
        }
        let f = self.module.func(fid);
        if args.len() != f.params.len() {
            return Err(Error::Vm(format!(
                "{}: expected {} args, got {}",
                f.name,
                f.params.len(),
                args.len()
            )));
        }
        let stack_mark = self.mem.stack_mark();
        let mut regs: Vec<Option<Value>> = vec![None; f.insts.len()];
        let mut cur = f.entry();
        let mut prev: Option<BlockId> = None;

        let ret = loop {
            let mut block_cycles: u64 = 0;
            let mut block_insts: u64 = 0;

            // ---- phi resolution (parallel copy semantics) ----
            let block = f.block(cur);
            let mut phi_end = 0usize;
            if let Some(from) = prev {
                let mut phi_writes: Vec<(usize, Value)> = Vec::new();
                for (i, &iid) in block.insts.iter().enumerate() {
                    if let InstKind::Phi(incoming) = &f.inst(iid).kind {
                        // Phi moves are dynamic instructions: they charge
                        // `steps` (and the fuel guard) exactly like
                        // straight-line code, so `ExecOutcome::steps` always
                        // equals `Profile::total_insts`.
                        self.steps += 1;
                        block_insts += 1;
                        if self.steps > self.max_steps {
                            return Err(Error::Vm(format!(
                                "step budget {} exhausted in {}",
                                self.max_steps, f.name
                            )));
                        }
                        let op = incoming
                            .iter()
                            .find(|(b, _)| *b == from)
                            .map(|(_, op)| *op)
                            .ok_or_else(|| {
                                Error::Vm(format!(
                                    "{}: phi in {} has no incoming edge from {}",
                                    f.name,
                                    block.name,
                                    f.block(from).name
                                ))
                            })?;
                        let v = self.eval_operand(f, &regs, args, op)?;
                        phi_writes.push((iid.idx(), v.normalize(f.inst(iid).ty)));
                        phi_end = i + 1;
                        block_cycles += cost::inst_cycles(&f.inst(iid).kind);
                    } else {
                        break;
                    }
                }
                for (idx, v) in phi_writes {
                    regs[idx] = Some(v);
                }
            } else {
                // Entry block: skip leading phis (verifier guarantees none
                // with incoming edges; tolerate empty ones).
                while phi_end < block.insts.len() {
                    let iid = block.insts[phi_end];
                    if matches!(f.inst(iid).kind, InstKind::Phi(_)) {
                        phi_end += 1;
                    } else {
                        break;
                    }
                }
            }

            // ---- straight-line instructions ----
            for &iid in &block.insts[phi_end..] {
                let inst = f.inst(iid);
                self.steps += 1;
                block_insts += 1;
                if self.steps > self.max_steps {
                    return Err(Error::Vm(format!(
                        "step budget {} exhausted in {}",
                        self.max_steps, f.name
                    )));
                }
                let mut extra_cycles = 0u64;
                let result: Option<Value> = match &inst.kind {
                    InstKind::Bin(op, a, b) => {
                        let va = self.eval_operand(f, &regs, args, *a)?;
                        let vb = self.eval_operand(f, &regs, args, *b)?;
                        if op.is_float() {
                            let r = fold_float_bin(*op, va.as_f(), vb.as_f()).expect("float binop");
                            Some(Value::F(r).normalize(inst.ty))
                        } else {
                            let r = fold_int_bin(*op, inst.ty, va.as_i(), vb.as_i()).ok_or_else(
                                || Error::Vm(format!("{}: division by zero", f.name)),
                            )?;
                            Some(Value::I(r))
                        }
                    }
                    InstKind::Un(op, a) => {
                        let va = self.eval_operand(f, &regs, args, *a)?;
                        let src_ty = jitise_ir::verify::operand_ty(f, *a);
                        let imm = value_to_imm(va, src_ty);
                        let out = fold_un(*op, inst.ty, &imm).ok_or_else(|| {
                            Error::Vm(format!("{}: invalid cast of {va:?}", f.name))
                        })?;
                        Some(Value::from_imm(out))
                    }
                    InstKind::Cmp(op, a, b) => {
                        let va = self.eval_operand(f, &regs, args, *a)?;
                        let vb = self.eval_operand(f, &regs, args, *b)?;
                        let ty = jitise_ir::verify::operand_ty(f, *a);
                        let (ia, ib) = (value_to_imm(va, ty), value_to_imm(vb, ty));
                        Some(Value::I(fold_cmp(*op, ty, &ia, &ib) as i64))
                    }
                    InstKind::Select(c, a, b) => {
                        let vc = self.eval_operand(f, &regs, args, *c)?;
                        let chosen = if vc.as_bool() { *a } else { *b };
                        // Normalize like the float Bin path: an arm operand
                        // may carry more precision than `inst.ty` (e.g. an
                        // f64 constant feeding an F32 select).
                        Some(
                            self.eval_operand(f, &regs, args, chosen)?
                                .normalize(inst.ty),
                        )
                    }
                    InstKind::Load(p) => {
                        let addr = self.eval_operand(f, &regs, args, *p)?.as_ptr();
                        Some(self.mem.load(inst.ty, addr)?)
                    }
                    InstKind::Store(v, p) => {
                        let val = self.eval_operand(f, &regs, args, *v)?;
                        let addr = self.eval_operand(f, &regs, args, *p)?.as_ptr();
                        let val_ty = jitise_ir::verify::operand_ty(f, *v);
                        self.mem.store(val_ty, addr, val)?;
                        None
                    }
                    InstKind::Gep {
                        base,
                        index,
                        elem_bytes,
                    } => {
                        let b = self.eval_operand(f, &regs, args, *base)?.as_ptr();
                        let i = self.eval_operand(f, &regs, args, *index)?.as_i();
                        let addr = (b as i64).wrapping_add(i.wrapping_mul(*elem_bytes as i64));
                        Some(Value::I(addr as u32 as i64))
                    }
                    InstKind::Alloca(bytes) => Some(Value::I(self.mem.alloca(*bytes)? as i64)),
                    InstKind::GlobalAddr(g) => Some(Value::I(self.mem.global_addr(g.idx()) as i64)),
                    InstKind::Call(callee, call_args) => {
                        let mut vals = Vec::with_capacity(call_args.len());
                        for a in call_args {
                            vals.push(self.eval_operand(f, &regs, args, *a)?);
                        }
                        self.exec_func(*callee, &vals, depth + 1)?
                    }
                    InstKind::CallExt(ef, call_args) => {
                        let mut vals = Vec::with_capacity(call_args.len());
                        for a in call_args {
                            vals.push(self.eval_operand(f, &regs, args, *a)?);
                        }
                        Some(Value::F(eval_ext(*ef, &vals)?))
                    }
                    InstKind::Custom(slot, call_args) => {
                        let handler = self.custom.ok_or_else(|| {
                            Error::Vm("custom instruction without handler".into())
                        })?;
                        let mut vals = Vec::with_capacity(call_args.len());
                        for a in call_args {
                            vals.push(self.eval_operand(f, &regs, args, *a)?);
                        }
                        let (v, hw_cycles) = handler.exec_custom(*slot, &vals)?;
                        self.ci_calls += 1;
                        extra_cycles = hw_cycles;
                        Some(v)
                    }
                    InstKind::Phi(_) => {
                        return Err(Error::Vm(format!(
                            "{}: phi after non-phi instruction",
                            f.name
                        )));
                    }
                };
                if let Some(v) = result {
                    regs[iid.idx()] = Some(v);
                }
                block_cycles += cost::inst_cycles(&inst.kind) + extra_cycles;
            }

            // ---- terminator ----
            let term = block.terminator();
            let next = match term {
                Terminator::Br(t) => {
                    block_cycles += cost::branch_cycles();
                    Some(*t)
                }
                Terminator::CondBr(c, a, b) => {
                    block_cycles += cost::branch_cycles();
                    let vc = self.eval_operand(f, &regs, args, *c)?;
                    Some(if vc.as_bool() { *a } else { *b })
                }
                Terminator::Switch(v, cases, default) => {
                    block_cycles += cost::branch_cycles() + cases.len() as u64 / 2;
                    let val = self.eval_operand(f, &regs, args, *v)?.as_i();
                    Some(
                        cases
                            .iter()
                            .find(|(k, _)| *k == val)
                            .map(|(_, b)| *b)
                            .unwrap_or(*default),
                    )
                }
                Terminator::Ret(v) => {
                    let out = match v {
                        Some(op) => Some(self.eval_operand(f, &regs, args, *op)?),
                        None => None,
                    };
                    self.cycles += block_cycles;
                    self.blocks += 1;
                    self.profile
                        .record(BlockKey::new(fid, cur), block_cycles, block_insts);
                    break out;
                }
            };
            self.cycles += block_cycles;
            self.blocks += 1;
            self.profile
                .record(BlockKey::new(fid, cur), block_cycles, block_insts);
            prev = Some(cur);
            cur = next.expect("non-ret terminator has target");
        };
        self.mem.stack_release(stack_mark);
        Ok(ret)
    }

    fn eval_operand(
        &self,
        f: &Function,
        regs: &[Option<Value>],
        args: &[Value],
        op: Operand,
    ) -> Result<Value> {
        match op {
            Operand::Const(imm) => Ok(Value::from_imm(imm)),
            Operand::Arg(i) => Ok(args[i as usize]),
            Operand::Inst(id) => regs[id.idx()].ok_or_else(|| {
                Error::Vm(format!(
                    "{}: read of undefined value %{} (unreachable-path artifact)",
                    f.name, id.0
                ))
            }),
        }
    }
}

pub(crate) fn value_to_imm(v: Value, ty: Type) -> Imm {
    match v {
        Value::I(x) => Imm::int(if ty.is_int() { ty } else { Type::I64 }, x),
        Value::F(x) => {
            if ty == Type::F32 {
                Imm::f32(x as f32)
            } else {
                Imm::f64(x)
            }
        }
    }
}

pub(crate) fn eval_ext(f: ExtFunc, args: &[Value]) -> Result<f64> {
    let arg = |i: usize| -> Result<f64> {
        args.get(i)
            .map(|v| v.as_f())
            .ok_or_else(|| Error::Vm(format!("{}: missing argument {i}", f.name())))
    };
    Ok(match f {
        ExtFunc::Sqrt => arg(0)?.sqrt(),
        ExtFunc::Sin => arg(0)?.sin(),
        ExtFunc::Cos => arg(0)?.cos(),
        ExtFunc::Atan => arg(0)?.atan(),
        ExtFunc::Exp => arg(0)?.exp(),
        ExtFunc::Log => arg(0)?.ln(),
        ExtFunc::Pow => arg(0)?.powf(arg(1)?),
        ExtFunc::Fabs => arg(0)?.abs(),
        ExtFunc::Floor => arg(0)?.floor(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_ir::{CmpOp, FunctionBuilder, Global, Operand as Op};

    fn module_of(f: Function) -> Module {
        let mut m = Module::new("t");
        m.add_func(f);
        m
    }

    #[test]
    fn arithmetic_and_return() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32, Type::I32], Type::I32);
        let s = b.add(Op::Arg(0), Op::Arg(1));
        let p = b.mul(s, Op::ci32(10));
        b.ret(p);
        let m = module_of(b.finish());
        let mut vm = Interpreter::new(&m);
        let out = vm.run("main", &[Value::I(3), Value::I(4)]).unwrap();
        assert_eq!(out.ret, Some(Value::I(70)));
        assert!(out.cycles > 0);
        assert_eq!(out.steps, 2);
    }

    #[test]
    fn loop_sums_correctly() {
        // sum of 0..n via counted loop with memory accumulator.
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let cell = b.alloca(4);
        b.store(Op::ci32(0), cell);
        b.counted_loop("i", Op::ci32(0), Op::Arg(0), |b, i| {
            let acc = b.load(Type::I32, cell);
            let acc2 = b.add(acc, i);
            b.store(acc2, cell);
        });
        let out = b.load(Type::I32, cell);
        b.ret(out);
        let m = module_of(b.finish());
        let mut vm = Interpreter::new(&m);
        let out = vm.run("main", &[Value::I(100)]).unwrap();
        assert_eq!(out.ret, Some(Value::I(4950)));
    }

    #[test]
    fn phi_parallel_copy_semantics() {
        // Swap pattern: (a, b) <- (b, a) each iteration; classic test that
        // phis read pre-transition values.
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let header = b.new_block("header");
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        let pre = b.current();
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I32);
        let a = b.phi(Type::I32);
        let bb = b.phi(Type::I32);
        b.add_incoming(i, pre, Op::ci32(0));
        b.add_incoming(a, pre, Op::ci32(1));
        b.add_incoming(bb, pre, Op::ci32(2));
        let c = b.cmp(CmpOp::Slt, i, Op::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.add(i, Op::ci32(1));
        b.add_incoming(i, body, i2);
        b.add_incoming(a, body, bb); // a <- b
        b.add_incoming(bb, body, a); // b <- a (must use OLD a)
        b.br(header);
        b.switch_to(exit);
        let r = b.shl(a, Op::ci32(8));
        let r2 = b.or(r, bb);
        b.ret(r2);
        let m = module_of(b.finish());
        let mut vm = Interpreter::new(&m);
        // After 1 iteration: a=2,b=1 -> 0x201.
        let out = vm.run("main", &[Value::I(1)]).unwrap();
        assert_eq!(out.ret, Some(Value::I(0x201)));
        // After 2 iterations: swapped back -> 0x102.
        let mut vm = Interpreter::new(&m);
        let out = vm.run("main", &[Value::I(2)]).unwrap();
        assert_eq!(out.ret, Some(Value::I(0x102)));
    }

    #[test]
    fn globals_and_memory() {
        let mut m = Module::new("t");
        let g = m.add_global(Global::of_i32("tbl", &[5, 6, 7]));
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let base = b.global_addr(g);
        let p = b.gep(base, Op::Arg(0), 4);
        let v = b.load(Type::I32, p);
        b.ret(v);
        m.add_func(b.finish());
        let mut vm = Interpreter::new(&m);
        assert_eq!(
            vm.run("main", &[Value::I(2)]).unwrap().ret,
            Some(Value::I(7))
        );
    }

    #[test]
    fn recursive_calls() {
        // fact(n) = n<=1 ? 1 : n*fact(n-1), via two mutually visible funcs.
        let mut m = Module::new("t");
        // Reserve id 0 for fact so it can self-reference.
        let mut b = FunctionBuilder::new("fact", vec![Type::I32], Type::I32);
        let then_b = b.new_block("base");
        let else_b = b.new_block("rec");
        let c = b.cmp(CmpOp::Sle, Op::Arg(0), Op::ci32(1));
        b.cond_br(c, then_b, else_b);
        b.switch_to(then_b);
        b.ret(Op::ci32(1));
        b.switch_to(else_b);
        let nm1 = b.sub(Op::Arg(0), Op::ci32(1));
        let sub = b.call(FuncId(0), vec![nm1], Type::I32);
        let r = b.mul(Op::Arg(0), sub);
        b.ret(r);
        m.add_func(b.finish());
        let mut vm = Interpreter::new(&m);
        assert_eq!(
            vm.run("fact", &[Value::I(10)]).unwrap().ret,
            Some(Value::I(3_628_800))
        );
    }

    #[test]
    fn float_and_ext_functions() {
        let mut b = FunctionBuilder::new("main", vec![Type::F64], Type::F64);
        let sq = b.fmul(Op::Arg(0), Op::Arg(0));
        let root = b.call_ext(ExtFunc::Sqrt, vec![sq]);
        b.ret(root);
        let m = module_of(b.finish());
        let mut vm = Interpreter::new(&m);
        let out = vm.run("main", &[Value::F(-3.0)]).unwrap();
        assert_eq!(out.ret, Some(Value::F(3.0)));
    }

    #[test]
    fn division_by_zero_traps() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let d = b.sdiv(Op::ci32(1), Op::Arg(0));
        b.ret(d);
        let m = module_of(b.finish());
        let mut vm = Interpreter::new(&m);
        let err = vm.run("main", &[Value::I(0)]).unwrap_err();
        assert!(err.to_string().contains("division by zero"));
    }

    #[test]
    fn fuel_limit_stops_infinite_loop() {
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let spin = b.new_block("spin");
        b.br(spin);
        b.switch_to(spin);
        let _ = b.add(Op::ci32(1), Op::ci32(1));
        b.br(spin);
        let m = module_of(b.finish());
        let mut vm = Interpreter::with_max_steps(&m, 10_000);
        let err = vm.run("main", &[]).unwrap_err();
        assert!(err.to_string().contains("step budget"));
    }

    #[test]
    fn phi_steps_match_profile_total_insts() {
        // Phi-heavy loop: the swap pattern executes 3 phi moves per
        // iteration. `ExecOutcome::steps` must count them, i.e. equal
        // `Profile::total_insts` exactly (terminators are excluded from
        // both — see DESIGN.md §15).
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let header = b.new_block("header");
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        let pre = b.current();
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I32);
        let a = b.phi(Type::I32);
        let bb = b.phi(Type::I32);
        b.add_incoming(i, pre, Op::ci32(0));
        b.add_incoming(a, pre, Op::ci32(1));
        b.add_incoming(bb, pre, Op::ci32(2));
        let c = b.cmp(CmpOp::Slt, i, Op::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.add(i, Op::ci32(1));
        b.add_incoming(i, body, i2);
        b.add_incoming(a, body, bb);
        b.add_incoming(bb, body, a);
        b.br(header);
        b.switch_to(exit);
        let r = b.add(a, bb);
        b.ret(r);
        let m = module_of(b.finish());
        let mut vm = Interpreter::new(&m);
        let out = vm.run("main", &[Value::I(25)]).unwrap();
        assert_eq!(
            out.steps,
            vm.profile().total_insts(),
            "every dynamic instruction (phis included) must appear in both"
        );
        // Per-iteration: 3 phi moves + 1 cmp in the header, 1 add in the
        // body; 26 header entries (3 phis + cmp each), 25 body entries.
        assert_eq!(out.steps, 26 * 4 + 25 + 1);
    }

    #[test]
    fn phi_only_spin_loop_trips_max_steps() {
        // A loop whose body is nothing but a phi move must still be
        // stopped by the fuel guard.
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let spin = b.new_block("spin");
        let pre = b.current();
        b.br(spin);
        b.switch_to(spin);
        let x = b.phi(Type::I32);
        b.add_incoming(x, pre, Op::ci32(0));
        b.add_incoming(x, spin, x);
        b.br(spin);
        let m = module_of(b.finish());
        let mut vm = Interpreter::with_max_steps(&m, 1_000);
        let err = vm.run("main", &[]).unwrap_err();
        assert!(
            err.to_string().contains("step budget"),
            "phi-only loop must hit the step budget, got: {err}"
        );
    }

    #[test]
    fn select_normalizes_to_result_type() {
        // An F32 select whose arms carry f64 precision must round the
        // chosen value through f32, like every other F32-producing op.
        for (cond, arm) in [(1, 0.1f64), (0, 0.2f64)] {
            let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::F32);
            let s = Op::Inst(b.push(
                InstKind::Select(
                    Op::Arg(0),
                    Op::Const(Imm::f64(0.1)),
                    Op::Const(Imm::f64(0.2)),
                ),
                Type::F32,
            ));
            b.ret(s);
            let m = module_of(b.finish());
            let mut vm = Interpreter::new(&m);
            let out = vm.run("main", &[Value::I(cond)]).unwrap();
            assert_eq!(out.ret, Some(Value::F(arm as f32 as f64)));
            assert_ne!(out.ret, Some(Value::F(arm)), "f64 precision must not leak");
        }
    }

    #[test]
    fn terminators_excluded_from_steps_but_charged_cycles() {
        // "Dynamic instruction" excludes terminators (DESIGN.md §15): a
        // chain of empty blocks executes zero steps and records zero
        // profile insts, yet still charges branch cycles.
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let b1 = b.new_block("b1");
        let b2 = b.new_block("b2");
        b.br(b1);
        b.switch_to(b1);
        b.br(b2);
        b.switch_to(b2);
        b.ret_void();
        let m = module_of(b.finish());
        let mut vm = Interpreter::new(&m);
        let out = vm.run("main", &[]).unwrap();
        assert_eq!(out.steps, 0);
        assert_eq!(vm.profile().total_insts(), 0);
        assert_eq!(out.cycles, 2 * cost::branch_cycles());
        assert_eq!(out.cycles, vm.profile().total_cycles());
    }

    #[test]
    fn profile_records_block_frequencies() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        b.counted_loop("i", Op::ci32(0), Op::Arg(0), |_, _| {});
        b.ret(Op::ci32(0));
        let m = module_of(b.finish());
        let mut vm = Interpreter::new(&m);
        vm.run("main", &[Value::I(50)]).unwrap();
        let p = vm.profile();
        // entry once, header 51 times, body 50 times, exit once.
        assert_eq!(p.count(BlockKey::new(FuncId(0), BlockId(0))), 1);
        assert_eq!(p.count(BlockKey::new(FuncId(0), BlockId(1))), 51);
        assert_eq!(p.count(BlockKey::new(FuncId(0), BlockId(2))), 50);
        assert_eq!(p.count(BlockKey::new(FuncId(0), BlockId(3))), 1);
    }

    #[test]
    fn switch_dispatch() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let c1 = b.new_block("c1");
        let c2 = b.new_block("c2");
        let d = b.new_block("d");
        b.switch(Op::Arg(0), vec![(1, c1), (2, c2)], d);
        b.switch_to(c1);
        b.ret(Op::ci32(100));
        b.switch_to(c2);
        b.ret(Op::ci32(200));
        b.switch_to(d);
        b.ret(Op::ci32(-1));
        let m = module_of(b.finish());
        for (input, expect) in [(1, 100), (2, 200), (9, -1)] {
            let mut vm = Interpreter::new(&m);
            assert_eq!(
                vm.run("main", &[Value::I(input)]).unwrap().ret,
                Some(Value::I(expect))
            );
        }
    }

    #[test]
    fn custom_handler_invoked() {
        struct Doubler;
        impl CustomHandler for Doubler {
            fn exec_custom(&self, slot: u32, args: &[Value]) -> Result<(Value, u64)> {
                assert_eq!(slot, 3);
                Ok((Value::I(args[0].as_i() * 2), 7))
            }
        }
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let r = Op::Inst(b.push(InstKind::Custom(3, vec![Op::Arg(0)]), Type::I32));
        b.ret(r);
        let m = module_of(b.finish());
        let handler = Doubler;
        let mut vm = Interpreter::new(&m);
        vm.set_custom_handler(&handler);
        let out = vm.run("main", &[Value::I(21)]).unwrap();
        assert_eq!(out.ret, Some(Value::I(42)));

        // Without a handler the same program must error.
        let mut vm = Interpreter::new(&m);
        assert!(vm.run("main", &[Value::I(21)]).is_err());
    }

    /// What a retired binding reported: its calls and `last_calls`.
    type Retired = (u64, Vec<(u32, u64)>);

    /// A handler that binds slot 0 (`x * 2`) but not slot 1, and counts
    /// what the VM asks of it.
    #[derive(Default)]
    struct Binder {
        per_call: std::cell::Cell<u64>,
        binds: std::cell::Cell<u64>,
        retired: std::cell::RefCell<Vec<Retired>>,
    }

    impl CustomHandler for Binder {
        fn exec_custom(&self, slot: u32, args: &[Value]) -> Result<(Value, u64)> {
            self.per_call.set(self.per_call.get() + 1);
            match slot {
                0 => Ok((Value::I(((args[0].as_i() * 2) << 32) >> 32), 5)),
                1 => Ok((Value::I(args[0].as_i() + 1), 3)),
                _ => Err(Error::Arch(format!("no CI loaded in slot {slot}"))),
            }
        }

        fn bind(&self) -> Option<CiBinding> {
            self.binds.set(self.binds.get() + 1);
            let mut b = crate::ci::CiProgramBuilder::new(&[Type::I32]);
            let x = b.input(0).unwrap();
            let two = b.constant(jitise_ir::Imm::i32(2));
            let y = b.bin(jitise_ir::BinOp::Mul, Type::I32, x, two).unwrap();
            let mut binding = CiBinding::new(9);
            binding.insert(0, Arc::new(b.finish(y)), 5);
            Some(binding)
        }

        fn retire(&self, binding: CiBinding) {
            assert_eq!(binding.token(), 9);
            let last = binding.last_calls().collect();
            self.retired.borrow_mut().push((binding.calls(), last));
        }
    }

    /// `main(n)`: `n` iterations of `acc = ci0(acc) + ci1(i)`, then a call
    /// to `slot` (a trap when unloaded).
    fn ci_loop(slot: u32) -> Module {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let cell = b.alloca(4);
        b.store(Op::ci32(1), cell);
        b.counted_loop("i", Op::ci32(0), Op::Arg(0), |b, i| {
            let acc = b.load(Type::I32, cell);
            let d = Op::Inst(b.push(InstKind::Custom(0, vec![acc]), Type::I32));
            let e = Op::Inst(b.push(InstKind::Custom(1, vec![i]), Type::I32));
            let s = b.add(d, e);
            b.store(s, cell);
        });
        let acc = b.load(Type::I32, cell);
        let r = Op::Inst(b.push(InstKind::Custom(slot, vec![acc]), Type::I32));
        b.ret(r);
        module_of(b.finish())
    }

    #[test]
    fn fast_tier_runs_bound_cis_without_the_handler() {
        let m = ci_loop(0);
        let run = |tier: VmTier| {
            let h = Binder::default();
            let mut vm = Interpreter::new(&m);
            vm.set_tier(tier);
            vm.set_custom_handler(&h);
            let out = vm.run("main", &[Value::I(10)]).unwrap();
            (out, vm.ci_calls, h)
        };
        let (slow, slow_calls, hi) = run(VmTier::Interp);
        let (fast, fast_calls, hf) = run(VmTier::Fast);
        assert_eq!(slow, fast);
        assert_eq!((slow_calls, fast_calls), (21, 21));
        // The interpreter never binds; the fast tier binds once and only
        // the unbound slot 1 reaches the handler.
        assert_eq!((hi.binds.get(), hi.per_call.get()), (0, 21));
        assert_eq!((hf.binds.get(), hf.per_call.get()), (1, 10));
        // 11 bound calls into slot 0; the last was the 11th.
        assert_eq!(*hf.retired.borrow(), vec![(11, vec![(0, 11)])]);
    }

    #[test]
    fn bound_run_retires_on_the_error_path() {
        let m = ci_loop(2);
        let h = Binder::default();
        let mut vm = Interpreter::new(&m);
        vm.set_tier(VmTier::Fast);
        vm.set_custom_handler(&h);
        let err = vm.run("main", &[Value::I(4)]).unwrap_err();
        assert!(err.to_string().contains("no CI loaded in slot 2"), "{err}");
        assert_eq!(*h.retired.borrow(), vec![(4, vec![(0, 4)])]);
        assert!(vm.ci_binding.is_none());
    }

    /// `peek(off)` loads the byte at `table + off`, `poke(off, v)` stores
    /// `v` there and loads it back, and `fresh()` loads the last word of a
    /// new 64-byte alloca. `table` is the first global, at the null guard.
    fn probe_module() -> Module {
        let mut m = Module::new("probe");
        let table = m.add_global(Global::of_i32("table", &[7, 9]));
        let mut peek = FunctionBuilder::new("peek", vec![Type::I32], Type::I8);
        let base = peek.global_addr(table);
        let p = peek.gep(base, Op::Arg(0), 1);
        let v = peek.load(Type::I8, p);
        peek.ret(v);
        m.add_func(peek.finish());
        let mut poke = FunctionBuilder::new("poke", vec![Type::I32, Type::I8], Type::I8);
        let base = poke.global_addr(table);
        let p = poke.gep(base, Op::Arg(0), 1);
        poke.store(Op::Arg(1), p);
        let v = poke.load(Type::I8, p);
        poke.ret(v);
        m.add_func(poke.finish());
        let mut fresh = FunctionBuilder::new("fresh", vec![], Type::I64);
        let p = fresh.alloca(64);
        let last = fresh.gep(p, Op::ci32(7), 8);
        let v = fresh.load(Type::I64, last);
        fresh.ret(v);
        m.add_func(fresh.finish());
        m
    }

    /// Memory that grows on first touch looks, on both tiers, like memory
    /// zeroed up front: never-stored stack bytes read 0, the last byte
    /// below the limit holds a store, and one byte past the limit and the
    /// null page trap with the messages of eagerly zeroed memory.
    #[test]
    fn lazily_grown_memory_is_tier_identical() {
        let m = probe_module();
        // `table` sits at 0x1000 and ends at 0x1008; the stack starts at
        // the next 16-byte boundary and holds `STACK_BYTES`.
        let limit: i64 = 0x1010 + STACK_BYTES as i64;
        let off = |addr: i64| Value::I(addr - 0x1000);
        for tier in [VmTier::Interp, VmTier::Fast] {
            let mut vm = Interpreter::new(&m);
            vm.set_tier(tier);
            assert_eq!(vm.mem.size() as i64, limit);
            let ret = |out: Result<ExecOutcome>| out.map(|o| o.ret);
            assert_eq!(ret(vm.run("fresh", &[])), Ok(Some(Value::I(0))));
            assert_eq!(
                ret(vm.run("peek", &[off(limit - 1)])),
                Ok(Some(Value::I(0)))
            );
            assert_eq!(
                ret(vm.run("poke", &[off(limit - 1), Value::I(-3)])),
                Ok(Some(Value::I(-3)))
            );
            assert_eq!(
                ret(vm.run("peek", &[off(limit - 1)])),
                Ok(Some(Value::I(-3)))
            );
            assert_eq!(ret(vm.run("peek", &[off(0x1004)])), Ok(Some(Value::I(9))));
            let past = "vm: out-of-bounds access at 0x101010+1 (mem size 0x101010)";
            for (f, args) in [
                ("peek", vec![off(limit)]),
                ("poke", vec![off(limit), Value::I(1)]),
            ] {
                let err = vm.run(f, &args).unwrap_err();
                assert_eq!(err.to_string(), past, "{f} on {tier:?}");
            }
            let err = vm.run("peek", &[off(0xff8)]).unwrap_err();
            assert_eq!(err.to_string(), "vm: null-page access at 0xff8", "{tier:?}");
            assert_eq!(vm.mem.size() as i64, limit);
        }
    }

    #[test]
    fn stack_released_between_calls() {
        let mut m = Module::new("t");
        let mut leaf = FunctionBuilder::new("leaf", vec![], Type::I32);
        let p = leaf.alloca(1024);
        leaf.store(Op::ci32(7), p);
        let v = leaf.load(Type::I32, p);
        leaf.ret(v);
        let leaf_id = m.add_func(leaf.finish());
        let mut main = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let cell = main.alloca(4);
        main.store(Op::ci32(0), cell);
        main.counted_loop("i", Op::ci32(0), Op::Arg(0), |b, _| {
            let r = b.call(leaf_id, vec![], Type::I32);
            let acc = b.load(Type::I32, cell);
            let acc2 = b.add(acc, r);
            b.store(acc2, cell);
        });
        let out = main.load(Type::I32, cell);
        main.ret(out);
        m.add_func(main.finish());
        let mut vm = Interpreter::new(&m);
        // 10_000 calls x 1 KiB would overflow a 1 MiB stack if frames leaked.
        let out = vm.run("main", &[Value::I(10_000)]).unwrap();
        assert_eq!(out.ret, Some(Value::I(70_000)));
    }
}
