//! Custom-instruction semantics.
//!
//! When a candidate becomes hardware, the architecture still needs a
//! functional model to *execute* it (our substitute for the real FPGA
//! datapath, which is functionally identical by construction — the
//! datapath generator instantiates one core per IR operation). A
//! [`CiSemantics`] is the candidate's data-flow recipe frozen at patch
//! time: member operations in topological order with operands remapped to
//! CI input ports, earlier members, or baked-in constants.
//!
//! Evaluation reuses the constant-folding kernels so hardware, interpreter
//! and optimizer semantics can never diverge. [`CiSemantics::eval`] is the
//! reference; [`CiSemantics::lower`] decodes the same datapath once per
//! install into the fast tier's typed [`CiProgram`].

use jitise_base::{Error, Result};
use jitise_ir::passes::constfold::{fold_cmp, fold_float_bin, fold_int_bin, fold_un};
use jitise_ir::{BinOp, CmpOp, Dfg, Function, Imm, InstKind, Operand, Type, UnOp};
use jitise_ise::Candidate;
use jitise_vm::{CiProgram, CiProgramBuilder, CiRef, Value};

/// An operand of a frozen CI operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CiArg {
    /// The n-th CI input port.
    Input(u32),
    /// The result of an earlier member operation.
    Node(u32),
    /// A baked-in constant.
    Const(Imm),
}

/// One frozen member operation.
#[derive(Debug, Clone, PartialEq)]
pub enum CiOp {
    /// Binary ALU op.
    Bin(BinOp, Type, CiArg, CiArg),
    /// Unary / cast op; the `Type` pair is (result, source).
    Un(UnOp, Type, Type, CiArg),
    /// Comparison (operand type recorded for signedness).
    Cmp(CmpOp, Type, CiArg, CiArg),
    /// 2:1 mux.
    Select(CiArg, CiArg, CiArg),
}

/// The frozen datapath of one custom instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct CiSemantics {
    /// Operations in topological order.
    pub ops: Vec<CiOp>,
    /// Type of each input port, in port order (one entry per port).
    pub input_tys: Vec<Type>,
    /// Which op produces the CI result (index into `ops`).
    pub output_op: u32,
}

impl CiSemantics {
    /// Freezes a single-output candidate into executable semantics.
    ///
    /// Fails for multi-output candidates (the IR's `Custom` instruction
    /// returns one value; the Woolcano patcher only offloads single-output
    /// candidates, which is all MAXMISO produces).
    pub fn freeze(f: &Function, dfg: &Dfg, cand: &Candidate) -> Result<CiSemantics> {
        if cand.outputs != 1 {
            return Err(Error::Arch(format!(
                "cannot freeze candidate with {} outputs into a 1-result CI",
                cand.outputs
            )));
        }
        // Input port table, in first-appearance order (must match the
        // operand order the patcher emits).
        let mut inputs: Vec<Operand> = Vec::new();
        let member_pos = |def: jitise_ir::InstId| -> Option<u32> {
            cand.insts.iter().position(|&i| i == def).map(|p| p as u32)
        };

        let mut ops = Vec::with_capacity(cand.nodes.len());
        for &iid in &cand.insts {
            let inst = f.inst(iid);
            let mut arg_of = |op: Operand| -> CiArg {
                match op {
                    Operand::Const(imm) => CiArg::Const(imm),
                    other => {
                        if let Operand::Inst(def) = other {
                            if let Some(pos) = member_pos(def) {
                                return CiArg::Node(pos);
                            }
                        }
                        match inputs.iter().position(|&o| o == other) {
                            Some(i) => CiArg::Input(i as u32),
                            None => {
                                inputs.push(other);
                                CiArg::Input((inputs.len() - 1) as u32)
                            }
                        }
                    }
                }
            };
            let op = match &inst.kind {
                InstKind::Bin(op, a, b) => CiOp::Bin(*op, inst.ty, arg_of(*a), arg_of(*b)),
                InstKind::Un(op, a) => {
                    let src_ty = jitise_ir::verify::operand_ty(f, *a);
                    CiOp::Un(*op, inst.ty, src_ty, arg_of(*a))
                }
                InstKind::Cmp(op, a, b) => {
                    let ty = jitise_ir::verify::operand_ty(f, *a);
                    CiOp::Cmp(*op, ty, arg_of(*a), arg_of(*b))
                }
                InstKind::Select(c, a, b) => CiOp::Select(arg_of(*c), arg_of(*a), arg_of(*b)),
                other => {
                    return Err(Error::Arch(format!(
                        "hardware-infeasible op {other:?} in candidate"
                    )))
                }
            };
            ops.push(op);
        }

        // The output op: the member whose value escapes.
        let member_set: std::collections::HashSet<u32> = cand.nodes.iter().copied().collect();
        let mut output_op = None;
        for (pos, &n) in cand.nodes.iter().enumerate() {
            let node = &dfg.nodes[n as usize];
            let feeds_outside = node.succs.iter().any(|&s| !member_set.contains(&s));
            if node.escapes || feeds_outside {
                output_op = Some(pos as u32);
            }
        }
        let output_op = output_op.ok_or_else(|| Error::Arch("candidate has no output".into()))?;

        Ok(CiSemantics {
            ops,
            input_tys: inputs
                .iter()
                .map(|&op| jitise_ir::verify::operand_ty(f, op))
                .collect(),
            output_op,
        })
    }

    /// The input operands (in port order) the patcher must pass at the
    /// call site. Recomputed the same way `freeze` discovered them.
    pub fn input_operands(f: &Function, cand: &Candidate) -> Vec<Operand> {
        let mut inputs: Vec<Operand> = Vec::new();
        for &iid in &cand.insts {
            for op in f.inst(iid).operands() {
                match op {
                    Operand::Const(_) => {}
                    other => {
                        let from_member =
                            other.as_inst().is_some_and(|def| cand.insts.contains(&def));
                        if !from_member && !inputs.contains(&other) {
                            inputs.push(other);
                        }
                    }
                }
            }
        }
        inputs
    }

    /// Lowers the datapath into the fast tier's typed program, which
    /// evaluates bit-identically to [`Self::eval`] with the same error
    /// strings. `None` when operand references or operand types are ones
    /// the program cannot represent exactly (never for a frozen candidate
    /// of verified IR); such a CI keeps the per-call path.
    pub fn lower(&self) -> Option<CiProgram> {
        let mut b = CiProgramBuilder::new(&self.input_tys);
        let mut nodes: Vec<CiRef> = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            let mut arg = |a: CiArg| match a {
                CiArg::Input(i) => b.input(i),
                CiArg::Node(n) => nodes.get(n as usize).copied(),
                CiArg::Const(imm) => Some(b.constant(imm)),
            };
            let node = match op {
                CiOp::Bin(o, ty, x, y) => {
                    let (x, y) = (arg(*x)?, arg(*y)?);
                    b.bin(*o, *ty, x, y)?
                }
                CiOp::Un(o, ty, src_ty, x) => {
                    let x = arg(*x)?;
                    b.un(*o, *ty, *src_ty, x)
                }
                CiOp::Cmp(o, ty, x, y) => {
                    let (x, y) = (arg(*x)?, arg(*y)?);
                    b.cmp(*o, *ty, x, y)?
                }
                CiOp::Select(c, x, y) => {
                    let (c, x, y) = (arg(*c)?, arg(*x)?, arg(*y)?);
                    b.select(c, x, y)?
                }
            };
            nodes.push(node);
        }
        let output = *nodes.get(self.output_op as usize)?;
        Some(b.finish(output))
    }

    /// Evaluates the CI on input values.
    pub fn eval(&self, args: &[Value]) -> Result<Value> {
        if args.len() != self.input_tys.len() {
            return Err(Error::Arch(format!(
                "CI expects {} inputs, got {}",
                self.input_tys.len(),
                args.len()
            )));
        }
        let mut results: Vec<Value> = Vec::with_capacity(self.ops.len());
        let get = |arg: CiArg, results: &[Value]| -> Value {
            match arg {
                CiArg::Input(i) => args[i as usize],
                CiArg::Node(n) => results[n as usize],
                CiArg::Const(imm) => Value::from_imm(imm),
            }
        };
        for op in &self.ops {
            let v = match op {
                CiOp::Bin(b, ty, a1, a2) => {
                    let (x, y) = (get(*a1, &results), get(*a2, &results));
                    if b.is_float() {
                        Value::F(fold_float_bin(*b, x.as_f(), y.as_f()).expect("float binop"))
                            .normalize(*ty)
                    } else {
                        let r = fold_int_bin(*b, *ty, x.as_i(), y.as_i()).ok_or_else(|| {
                            Error::Arch("division by zero in custom instruction".into())
                        })?;
                        Value::I(r)
                    }
                }
                CiOp::Un(u, ty, src_ty, a) => {
                    let x = get(*a, &results);
                    let imm = match x {
                        Value::I(v) => {
                            Imm::int(if src_ty.is_int() { *src_ty } else { Type::I64 }, v)
                        }
                        Value::F(v) => {
                            if *src_ty == Type::F32 {
                                Imm::f32(v as f32)
                            } else {
                                Imm::f64(v)
                            }
                        }
                    };
                    let out = fold_un(*u, *ty, &imm)
                        .ok_or_else(|| Error::Arch("invalid cast in CI".into()))?;
                    Value::from_imm(out)
                }
                CiOp::Cmp(c, ty, a1, a2) => {
                    let (x, y) = (get(*a1, &results), get(*a2, &results));
                    let to_imm = |v: Value| match v {
                        Value::I(i) => Imm::int(if ty.is_int() { *ty } else { Type::I64 }, i),
                        Value::F(fl) => {
                            if *ty == Type::F32 {
                                Imm::f32(fl as f32)
                            } else {
                                Imm::f64(fl)
                            }
                        }
                    };
                    Value::I(fold_cmp(*c, *ty, &to_imm(x), &to_imm(y)) as i64)
                }
                CiOp::Select(c, a, b) => {
                    if get(*c, &results).as_bool() {
                        get(*a, &results)
                    } else {
                        get(*b, &results)
                    }
                }
            };
            results.push(v);
        }
        Ok(results[self.output_op as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_ir::{BlockId, FuncId, FunctionBuilder, Operand as Op};
    use jitise_vm::BlockKey;

    fn freeze_first(build: impl FnOnce(&mut FunctionBuilder)) -> (Function, CiSemantics) {
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        build(&mut b);
        let f = b.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let cand = jitise_ise::maxmiso(&f, &dfg, BlockKey::new(FuncId(0), BlockId(0)), 2)
            .candidates
            .remove(0);
        let sem = CiSemantics::freeze(&f, &dfg, &cand).unwrap();
        (f, sem)
    }

    #[test]
    fn freeze_and_eval_matches_direct_computation() {
        let (_, sem) = freeze_first(|b| {
            let x = b.add(Op::Arg(0), Op::Arg(1));
            let y = b.mul(x, Op::ci32(3));
            let z = b.xor(y, x);
            b.ret(z);
        });
        assert_eq!(sem.input_tys.len(), 2);
        assert_eq!(sem.ops.len(), 3);
        let out = sem.eval(&[Value::I(5), Value::I(7)]).unwrap();
        let x = 5 + 7;
        let y = x * 3;
        assert_eq!(out, Value::I((y ^ x) as i64));
    }

    #[test]
    fn constants_are_baked_in() {
        let (_, sem) = freeze_first(|b| {
            let x = b.mul(Op::Arg(0), Op::ci32(10));
            let y = b.add(x, Op::ci32(100));
            b.ret(y);
        });
        assert_eq!(sem.input_tys.len(), 1);
        assert_eq!(sem.eval(&[Value::I(4)]).unwrap(), Value::I(140));
    }

    #[test]
    fn repeated_input_uses_one_port() {
        let (_, sem) = freeze_first(|b| {
            let x = b.mul(Op::Arg(0), Op::Arg(0));
            let y = b.add(x, Op::Arg(0));
            b.ret(y);
        });
        assert_eq!(sem.input_tys.len(), 1);
        assert_eq!(sem.eval(&[Value::I(6)]).unwrap(), Value::I(42));
    }

    #[test]
    fn select_and_cmp_semantics() {
        let (_, sem) = freeze_first(|b| {
            let c = b.cmp(CmpOp::Slt, Op::Arg(0), Op::Arg(1));
            let big = b.select(c, Op::Arg(1), Op::Arg(0));
            let r = b.shl(big, Op::ci32(1));
            b.ret(r);
        });
        assert_eq!(sem.eval(&[Value::I(3), Value::I(9)]).unwrap(), Value::I(18));
        assert_eq!(sem.eval(&[Value::I(9), Value::I(3)]).unwrap(), Value::I(18));
    }

    #[test]
    fn wrong_arity_rejected() {
        let (_, sem) = freeze_first(|b| {
            let x = b.add(Op::Arg(0), Op::Arg(1));
            let y = b.mul(x, Op::ci32(3));
            b.ret(y);
        });
        assert!(sem.eval(&[Value::I(1)]).is_err());
    }

    #[test]
    fn division_by_zero_traps_in_hw_model() {
        let (_, sem) = freeze_first(|b| {
            let x = b.sdiv(Op::Arg(0), Op::Arg(1));
            let y = b.add(x, Op::ci32(1));
            b.ret(y);
        });
        assert!(sem.eval(&[Value::I(10), Value::I(0)]).is_err());
        assert_eq!(sem.eval(&[Value::I(10), Value::I(2)]).unwrap(), Value::I(6));
    }

    #[test]
    fn input_operand_order_matches_ports() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        let x = b.mul(Op::Arg(1), Op::ci32(3)); // arg1 first!
        let y = b.add(x, Op::Arg(0));
        b.ret(y);
        let f = b.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let cand = jitise_ise::maxmiso(&f, &dfg, BlockKey::new(FuncId(0), BlockId(0)), 2)
            .candidates
            .remove(0);
        let sem = CiSemantics::freeze(&f, &dfg, &cand).unwrap();
        let inputs = CiSemantics::input_operands(&f, &cand);
        assert_eq!(inputs, vec![Op::Arg(1), Op::Arg(0)]);
        // eval with (arg1, arg0) order: arg1=2, arg0=5 -> 2*3+5 = 11.
        assert_eq!(sem.eval(&[Value::I(2), Value::I(5)]).unwrap(), Value::I(11));
    }
}
