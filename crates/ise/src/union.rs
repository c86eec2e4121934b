//! UnionMISO clustering (baseline).
//!
//! The third identification algorithm family the paper's precursor work [9]
//! studies: start from MaxMISOs and greedily merge clusters that share
//! inputs, producing multi-output candidates that trade more register-file
//! ports for fewer, larger instructions. Merging is constrained by the same
//! port limits as the exact enumeration.

use crate::candidate::Candidate;
use crate::maxmiso::maxmiso;
use crate::singlecut::PortConstraints;
use jitise_ir::{Dfg, Function};
use jitise_vm::BlockKey;

/// Result of UnionMISO clustering.
#[derive(Debug, Clone)]
pub struct UnionMisoResult {
    /// Final candidates after merging, largest first.
    pub candidates: Vec<Candidate>,
    /// Number of merge operations performed.
    pub merges: usize,
}

/// Number of shared external inputs between two candidates.
fn shared_inputs(f: &Function, a: &Candidate, b: &Candidate) -> usize {
    use jitise_ir::Operand;
    let externals = |c: &Candidate| -> Vec<Operand> {
        let mut v = Vec::new();
        for &iid in &c.insts {
            for op in f.inst(iid).operands() {
                if op.is_const() {
                    continue;
                }
                if let Operand::Inst(def) = op {
                    if c.insts.contains(&def) {
                        continue;
                    }
                }
                if !v.contains(&op) {
                    v.push(op);
                }
            }
        }
        v
    };
    let ea = externals(a);
    externals(b).iter().filter(|op| ea.contains(op)).count()
}

/// Runs MAXMISO and then greedily merges MISO pairs of the same block that
/// share at least one input, while the merged candidate stays convex and
/// within `ports`.
pub fn union_miso(
    f: &Function,
    dfg: &Dfg,
    key: BlockKey,
    ports: PortConstraints,
    min_size: usize,
) -> UnionMisoResult {
    let base = maxmiso(f, dfg, key, 1);
    let mut clusters: Vec<Candidate> = base.candidates;
    let mut merges = 0usize;

    loop {
        let mut best_pair: Option<(usize, usize, usize)> = None; // (i, j, shared)
        for i in 0..clusters.len() {
            for j in i + 1..clusters.len() {
                let shared = shared_inputs(f, &clusters[i], &clusters[j]);
                if shared == 0 {
                    continue;
                }
                // Trial merge.
                let mut nodes = clusters[i].nodes.clone();
                nodes.extend_from_slice(&clusters[j].nodes);
                let merged = Candidate::from_nodes(f, dfg, key, nodes);
                if merged.inputs <= ports.max_inputs
                    && merged.outputs <= ports.max_outputs
                    && merged.is_convex(dfg)
                    && best_pair.map(|(_, _, s)| shared > s).unwrap_or(true)
                {
                    best_pair = Some((i, j, shared));
                }
            }
        }
        match best_pair {
            Some((i, j, _)) => {
                let b = clusters.remove(j);
                let a = clusters.remove(i);
                let mut nodes = a.nodes;
                nodes.extend(b.nodes);
                clusters.push(Candidate::from_nodes(f, dfg, key, nodes));
                merges += 1;
            }
            None => break,
        }
    }

    clusters.retain(|c| c.len() >= min_size);
    clusters.sort_by_key(|c| std::cmp::Reverse(c.len()));
    UnionMisoResult {
        candidates: clusters,
        merges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_ir::{BlockId, FuncId, FunctionBuilder, Operand as Op, Type};

    fn key() -> BlockKey {
        BlockKey::new(FuncId(0), BlockId(0))
    }

    #[test]
    fn merges_misos_sharing_inputs() {
        // Two independent chains both consuming arg0: two MaxMISOs (both
        // escape), mergeable into one 2-output candidate.
        let mut bld = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let next = bld.new_block("next");
        let a = bld.add(Op::Arg(0), Op::ci32(1));
        let b = bld.mul(a, Op::ci32(3));
        let c = bld.xor(Op::Arg(0), Op::ci32(7));
        let d = bld.sub(c, Op::ci32(2));
        bld.br(next);
        bld.switch_to(next);
        let s = bld.add(b, d);
        bld.ret(s);
        let f = bld.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let res = union_miso(&f, &dfg, key(), PortConstraints::default(), 1);
        assert_eq!(res.merges, 1);
        assert_eq!(res.candidates.len(), 1);
        let big = &res.candidates[0];
        assert_eq!(big.len(), 4);
        assert_eq!(big.outputs, 2);
        assert_eq!(big.inputs, 1, "arg0 is the single shared input");
    }

    #[test]
    fn respects_output_limit() {
        // Three chains sharing arg0 with 1 output each: merging all three
        // would need 3 outputs; with max_outputs = 2 only one merge happens.
        let mut bld = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let next = bld.new_block("next");
        let mut outs = Vec::new();
        for k in 0..3 {
            let x = bld.add(Op::Arg(0), Op::ci32(k));
            let y = bld.mul(x, Op::ci32(3 + k));
            outs.push(y);
        }
        bld.br(next);
        bld.switch_to(next);
        let s1 = bld.add(outs[0], outs[1]);
        let s2 = bld.add(s1, outs[2]);
        bld.ret(s2);
        let f = bld.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let res = union_miso(
            &f,
            &dfg,
            key(),
            PortConstraints {
                max_inputs: 4,
                max_outputs: 2,
            },
            1,
        );
        assert_eq!(res.merges, 1);
        assert_eq!(res.candidates.len(), 2);
        assert!(res.candidates.iter().all(|c| c.outputs <= 2));
    }

    #[test]
    fn no_shared_inputs_no_merge() {
        let mut bld = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        let next = bld.new_block("next");
        let a = bld.add(Op::Arg(0), Op::ci32(1));
        let b = bld.mul(Op::Arg(1), Op::ci32(3));
        bld.br(next);
        bld.switch_to(next);
        let s = bld.add(a, b);
        bld.ret(s);
        let f = bld.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let res = union_miso(&f, &dfg, key(), PortConstraints::default(), 1);
        assert_eq!(res.merges, 0);
        assert_eq!(res.candidates.len(), 2);
    }
}
