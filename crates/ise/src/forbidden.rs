//! Hardware-feasibility policy.
//!
//! §V-D: "even these larger blocks include a sizable number of the
//! hardware-infeasible instructions, such as, accesses to global variables
//! or memory, which cannot be included in a hardware custom instruction."
//!
//! The policy below mirrors the standard ISE literature (and the paper's
//! Woolcano constraints): anything touching memory, the call stack, global
//! state, or control flow cannot go into a datapath-only custom
//! instruction. Pure arithmetic — including multi-cycle division — can.

use jitise_ir::{Dfg, Opcode};

/// True if `op` must stay on the CPU. Integer division and remainder are
/// allowed: they are large but implementable datapath blocks, and the
/// paper's PivPav library contains dividers ("the implementation of the
/// shift operator is trivial in contrast to a division"). Floating-point
/// operations are allowed because Woolcano instantiates FP cores in the
/// fabric.
pub fn is_forbidden(op: Opcode) -> bool {
    match op {
        // Memory and global state.
        Opcode::Load | Opcode::Store | Opcode::Alloca | Opcode::GlobalAddr => true,
        // Address arithmetic is pure arithmetic, but its value is a
        // pointer consumed by loads/stores that stay on the CPU; fusing
        // it buys nothing and complicates register transfer, so the
        // standard policy forbids it as well.
        Opcode::Gep => true,
        // Control flow and calls.
        Opcode::Call | Opcode::CallExt | Opcode::Phi => true,
        // Already-customized instructions can't nest.
        Opcode::Custom => true,
        Opcode::Bin(_) | Opcode::Un(_) | Opcode::Cmp(_) | Opcode::Select => false,
    }
}

/// Per-node forbidden mask for a DFG.
pub fn mask(dfg: &Dfg) -> Vec<bool> {
    dfg.nodes.iter().map(|n| is_forbidden(n.opcode)).collect()
}

/// Fraction of a DFG's nodes that are forbidden.
pub fn forbidden_frac(dfg: &Dfg) -> f64 {
    if dfg.is_empty() {
        return 0.0;
    }
    let n = mask(dfg).iter().filter(|&&b| b).count();
    n as f64 / dfg.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_ir::{BinOp, BlockId, CmpOp, FunctionBuilder, Operand as Op, Type, UnOp};

    #[test]
    fn memory_and_control_forbidden() {
        for op in [
            Opcode::Load,
            Opcode::Store,
            Opcode::Gep,
            Opcode::Alloca,
            Opcode::GlobalAddr,
            Opcode::Call,
            Opcode::CallExt,
            Opcode::Phi,
            Opcode::Custom,
        ] {
            assert!(is_forbidden(op), "{op:?} must be forbidden");
        }
    }

    #[test]
    fn arithmetic_allowed() {
        for op in [
            Opcode::Bin(BinOp::Add),
            Opcode::Bin(BinOp::Mul),
            Opcode::Bin(BinOp::SDiv),
            Opcode::Bin(BinOp::FAdd),
            Opcode::Un(UnOp::SExt),
            Opcode::Cmp(CmpOp::Slt),
            Opcode::Select,
        ] {
            assert!(!is_forbidden(op), "{op:?} must be allowed");
        }
    }

    #[test]
    fn mask_over_dfg() {
        let mut b = FunctionBuilder::new("f", vec![Type::Ptr, Type::I32], Type::I32);
        let v = b.load(Type::I32, Op::Arg(0)); // forbidden
        let w = b.add(v, Op::Arg(1)); // allowed
        let x = b.mul(w, w); // allowed
        b.store(x, Op::Arg(0)); // forbidden
        b.ret(x);
        let f = b.finish();
        let dfg = jitise_ir::Dfg::build(&f, BlockId(0));
        assert_eq!(mask(&dfg), vec![true, false, false, true]);
        assert!((forbidden_frac(&dfg) - 0.5).abs() < 1e-9);
    }
}
