//! Binary patching (the *adaptation phase*).
//!
//! "the application binary is modified such that the newly available
//! custom instructions are used" (§III). Patching replaces a candidate's
//! member instructions inside its basic block with one
//! [`jitise_ir::InstKind::Custom`] invocation whose operands are the
//! candidate's external inputs, and rewires every consumer of the
//! candidate's output to the new instruction.

use crate::semantics::CiSemantics;
use jitise_base::{Error, Result};
use jitise_ir::{Dfg, Function, Inst, InstId, InstKind, Operand};
use jitise_ise::Candidate;

/// Outcome of patching one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchReport {
    /// The new custom instruction's id.
    pub custom_inst: InstId,
    /// Instructions removed from the block.
    pub removed: usize,
    /// The slot the custom instruction invokes.
    pub slot: u32,
}

/// Replaces `cand`'s members in `f` with a `Custom(slot, inputs)`
/// instruction.
///
/// Requirements (checked): the candidate is single-output and its members
/// are all still present, in order, in the block. The root (output) member
/// position receives the custom instruction so program order is preserved.
pub fn patch_candidate(f: &mut Function, cand: &Candidate, slot: u32) -> Result<PatchReport> {
    if cand.outputs != 1 {
        return Err(Error::Arch(
            "only single-output candidates can be patched".into(),
        ));
    }
    let block_id = cand.key.block;
    // All members must be attached to the block.
    {
        let block = f.block(block_id);
        for &iid in &cand.insts {
            if !block.insts.contains(&iid) {
                return Err(Error::Arch(format!(
                    "member {iid:?} not in block (already patched?)"
                )));
            }
        }
    }

    // The output member: the one whose value is used outside the set.
    let uses = f.use_counts();
    let member_set: std::collections::HashSet<InstId> = cand.insts.iter().copied().collect();
    let mut internal_uses: std::collections::HashMap<InstId, u32> = Default::default();
    for &iid in &cand.insts {
        for op in f.inst(iid).operands() {
            if let Operand::Inst(def) = op {
                if member_set.contains(&def) {
                    *internal_uses.entry(def).or_insert(0) += 1;
                }
            }
        }
    }
    let root = cand
        .insts
        .iter()
        .copied()
        .find(|&iid| uses[iid.idx()] > internal_uses.get(&iid).copied().unwrap_or(0))
        .or_else(|| cand.insts.last().copied())
        .ok_or_else(|| Error::Arch("empty candidate".into()))?;

    // Build the invocation.
    let inputs = CiSemantics::input_operands(f, cand);
    let result_ty = f.inst(root).ty;
    let custom = Inst {
        kind: InstKind::Custom(slot, inputs),
        ty: result_ty,
    };
    let custom_id = InstId(f.insts.len() as u32);
    f.insts.push(custom);

    // Splice: replace root with the custom instruction, drop other members.
    let block = f.block_mut(block_id);
    let mut removed = 0usize;
    let mut replaced = false;
    let mut new_insts = Vec::with_capacity(block.insts.len());
    for &iid in &block.insts {
        if iid == root {
            new_insts.push(custom_id);
            replaced = true;
            removed += 1;
        } else if member_set.contains(&iid) {
            removed += 1;
        } else {
            new_insts.push(iid);
        }
    }
    debug_assert!(replaced, "root must be in the block");
    block.insts = new_insts;

    // Rewire all uses of the root to the custom result.
    let map: std::collections::HashMap<InstId, Operand> =
        [(root, Operand::Inst(custom_id))].into_iter().collect();
    jitise_ir::passes::substitute_operands(f, &map);

    Ok(PatchReport {
        custom_inst: custom_id,
        removed,
        slot,
    })
}

/// Convenience: freeze semantics and patch in one step, returning both.
pub fn freeze_and_patch(
    f: &mut Function,
    dfg: &Dfg,
    cand: &Candidate,
    slot: u32,
) -> Result<(CiSemantics, PatchReport)> {
    let sem = CiSemantics::freeze(f, dfg, cand)?;
    let report = patch_candidate(f, cand, slot)?;
    Ok((sem, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_ir::verify::verify_function;
    use jitise_ir::{BlockId, FuncId, FunctionBuilder, Operand as Op, Type};
    use jitise_vm::BlockKey;

    fn build_and_patch() -> (Function, CiSemantics, PatchReport) {
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        let p = b.alloca(4);
        let x = b.add(Op::Arg(0), Op::Arg(1));
        let y = b.mul(x, Op::ci32(3));
        let z = b.xor(y, x);
        b.store(z, p);
        let back = b.load(Type::I32, p);
        b.ret(back);
        let mut f = b.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let cand = jitise_ise::maxmiso(&f, &dfg, BlockKey::new(FuncId(0), BlockId(0)), 2)
            .candidates
            .remove(0);
        let (sem, rep) = freeze_and_patch(&mut f, &dfg, &cand, 2).unwrap();
        (f, sem, rep)
    }

    #[test]
    fn patch_preserves_structure() {
        let (f, _, rep) = build_and_patch();
        assert_eq!(rep.removed, 3);
        assert_eq!(rep.slot, 2);
        assert!(verify_function(&f).is_ok());
        // Block now: alloca, custom, store, load = 4 instructions.
        assert_eq!(f.block(BlockId(0)).len(), 4);
        // Exactly one custom instruction present.
        let customs = f
            .block(BlockId(0))
            .insts
            .iter()
            .filter(|&&iid| matches!(f.inst(iid).kind, InstKind::Custom(..)))
            .count();
        assert_eq!(customs, 1);
    }

    #[test]
    fn consumers_rewired_to_custom() {
        let (f, _, rep) = build_and_patch();
        // The store's value operand must now be the custom result.
        let store = f
            .block(BlockId(0))
            .insts
            .iter()
            .find(|&&iid| matches!(f.inst(iid).kind, InstKind::Store(..)))
            .copied()
            .unwrap();
        match &f.inst(store).kind {
            InstKind::Store(Operand::Inst(v), _) => assert_eq!(*v, rep.custom_inst),
            other => panic!("unexpected store shape {other:?}"),
        }
    }

    #[test]
    fn double_patch_rejected() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let x = b.add(Op::Arg(0), Op::ci32(1));
        let y = b.mul(x, Op::ci32(3));
        b.ret(y);
        let mut f = b.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let cand = jitise_ise::maxmiso(&f, &dfg, BlockKey::new(FuncId(0), BlockId(0)), 2)
            .candidates
            .remove(0);
        patch_candidate(&mut f, &cand, 0).unwrap();
        let err = patch_candidate(&mut f, &cand, 0).unwrap_err();
        assert!(err.to_string().contains("already patched"));
    }

    #[test]
    fn patched_function_computes_same_result() {
        use jitise_vm::{CustomHandler, Interpreter, Value};
        // Original.
        let build = || {
            let mut b = FunctionBuilder::new("main", vec![Type::I32, Type::I32], Type::I32);
            let x = b.add(Op::Arg(0), Op::Arg(1));
            let y = b.mul(x, Op::ci32(3));
            let z = b.xor(y, x);
            b.ret(z);
            b.finish()
        };
        let mut m_orig = jitise_ir::Module::new("t");
        m_orig.add_func(build());
        let mut vm = Interpreter::new(&m_orig);
        let expect = vm.run("main", &[Value::I(11), Value::I(31)]).unwrap().ret;

        // Patched.
        let mut f = build();
        let dfg = Dfg::build(&f, BlockId(0));
        let cand = jitise_ise::maxmiso(&f, &dfg, BlockKey::new(FuncId(0), BlockId(0)), 2)
            .candidates
            .remove(0);
        let (sem, rep) = freeze_and_patch(&mut f, &dfg, &cand, 0).unwrap();
        let mut m_patched = jitise_ir::Module::new("t");
        m_patched.add_func(f);

        struct H(CiSemantics);
        impl CustomHandler for H {
            fn exec_custom(&self, _slot: u32, args: &[Value]) -> jitise_base::Result<(Value, u64)> {
                Ok((self.0.eval(args)?, 2))
            }
        }
        let h = H(sem);
        let mut vm = Interpreter::new(&m_patched);
        vm.set_custom_handler(&h);
        let got = vm.run("main", &[Value::I(11), Value::I(31)]).unwrap();
        assert_eq!(got.ret, expect);
        let _ = rep;
    }
}
