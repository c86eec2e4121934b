//! The MAXMISO identification algorithm.
//!
//! The paper selects MAXMISO (maximal multiple-input single-output
//! subgraphs, Alippi et al.) for just-in-time use because it runs in
//! **linear time** — "the MAXMISO linear complexity ISE algorithm" (§III).
//!
//! Construction: walk the DFG in reverse topological order. A valid
//! (non-forbidden) node becomes the **root** of a new MaxMISO when its
//! value escapes the cone — it is consumed outside the block, by a
//! forbidden node, by no one, or by members of *different* MISOs. A node
//! whose consumers all lie in one existing MISO is absorbed into it.
//!
//! Resulting properties (checked by the property-test suite):
//!
//! * MISOs are **disjoint** — each valid node belongs to exactly one;
//! * each MISO has a **single output** (the root);
//! * each MISO is **convex**;
//! * each MISO is **maximal** — absorbing any additional producer would
//!   violate single-output, validity, or disjointness.

use crate::candidate::Candidate;
use crate::forbidden::mask;
use jitise_ir::{Dfg, Function};
use jitise_vm::BlockKey;

/// Identification result for one block.
#[derive(Debug, Clone)]
pub struct MaxMisoResult {
    /// The identified candidates, in root order.
    pub candidates: Vec<Candidate>,
    /// Nodes examined (equals the block size; kept for algorithm-cost
    /// reporting in the benches).
    pub nodes_examined: usize,
}

/// Runs MAXMISO on one block.
///
/// `min_size` drops trivial candidates (a single add gains nothing over the
/// native instruction; the paper's candidates average 6.5–7.3 instructions).
pub fn maxmiso(f: &Function, dfg: &Dfg, key: BlockKey, min_size: usize) -> MaxMisoResult {
    let n = dfg.len();
    let forbidden = mask(dfg);
    // miso_of[node] = root node index of the MISO it belongs to.
    let mut miso_of: Vec<Option<u32>> = vec![None; n];

    // Reverse topological order = reverse instruction order.
    for i in (0..n).rev() {
        if forbidden[i] {
            continue;
        }
        let node = &dfg.nodes[i];
        let mut root_of_all: Option<u32> = None;
        let mut absorbable = !node.escapes && !node.succs.is_empty();
        for &s in &node.succs {
            let s = s as usize;
            if forbidden[s] {
                absorbable = false;
                break;
            }
            match (miso_of[s], root_of_all) {
                (Some(r), None) => root_of_all = Some(r),
                (Some(r), Some(prev)) if r == prev => {}
                _ => {
                    absorbable = false;
                    break;
                }
            }
        }
        if absorbable {
            // All consumers valid and in one MISO: join it.
            miso_of[i] = root_of_all;
        } else {
            // Become a root.
            miso_of[i] = Some(i as u32);
        }
    }

    // Group nodes by root.
    let mut groups: std::collections::BTreeMap<u32, Vec<u32>> = std::collections::BTreeMap::new();
    for (i, root) in miso_of.iter().enumerate() {
        if let Some(r) = root {
            groups.entry(*r).or_default().push(i as u32);
        }
    }

    let candidates = groups
        .into_values()
        .filter(|nodes| nodes.len() >= min_size)
        .map(|nodes| Candidate::from_nodes(f, dfg, key, nodes))
        // Cones rooted at dead values (no consumer anywhere) would
        // synthesize hardware driving nothing; -O3 removes such code, but
        // unoptimized input can still contain it.
        .filter(|c| c.outputs >= 1)
        .collect();

    MaxMisoResult {
        candidates,
        nodes_examined: n,
    }
}

/// Runs MAXMISO over every block of a function.
pub fn maxmiso_function(f: &Function, fid: jitise_ir::FuncId, min_size: usize) -> Vec<Candidate> {
    let mut out = Vec::new();
    for (dfg, bid) in Dfg::build_all(f).iter().zip(f.block_ids()) {
        let key = BlockKey::new(fid, bid);
        out.extend(maxmiso(f, dfg, key, min_size).candidates);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_ir::{BlockId, FuncId, FunctionBuilder, Operand as Op, Type};

    fn key() -> BlockKey {
        BlockKey::new(FuncId(0), BlockId(0))
    }

    fn run(f: &Function, min_size: usize) -> Vec<Candidate> {
        let dfg = Dfg::build(f, BlockId(0));
        maxmiso(f, &dfg, key(), min_size).candidates
    }

    #[test]
    fn single_chain_is_one_miso() {
        // a -> b -> c, only c escapes: one MaxMISO {a, b, c}.
        let mut bld = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let a = bld.add(Op::Arg(0), Op::ci32(1));
        let b = bld.mul(a, Op::ci32(3));
        let c = bld.xor(b, Op::ci32(7));
        bld.ret(c);
        let f = bld.finish();
        let cands = run(&f, 1);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].nodes, vec![0, 1, 2]);
        assert_eq!(cands[0].outputs, 1);
    }

    #[test]
    fn diamond_is_one_miso() {
        // a feeds b and c which feed d: consumers of a are b,c — different
        // nodes but do they end in the same MISO? b and c both absorb into
        // d's MISO, then a sees both consumers in the same MISO -> joins.
        let mut bld = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let a = bld.add(Op::Arg(0), Op::ci32(1));
        let b = bld.mul(a, Op::ci32(3));
        let c = bld.xor(a, Op::ci32(7));
        let d = bld.add(b, c);
        bld.ret(d);
        let f = bld.finish();
        let cands = run(&f, 1);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].nodes, vec![0, 1, 2, 3]);
        assert!(cands[0].is_convex(&Dfg::build(&f, BlockId(0))));
    }

    #[test]
    fn escaping_interior_value_splits() {
        // a feeds b, and a also escapes (returned via second use): a must
        // be its own root; b is a separate MISO.
        let mut bld = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let next = bld.new_block("next");
        let a = bld.add(Op::Arg(0), Op::ci32(1));
        let b = bld.mul(a, Op::ci32(3));
        let _ = b;
        bld.br(next);
        bld.switch_to(next);
        let c = bld.add(a, b); // uses both from entry block
        bld.ret(c);
        let f = bld.finish();
        let cands = run(&f, 1);
        // a escapes, b escapes -> two singleton MISOs.
        assert_eq!(cands.len(), 2);
        assert!(cands.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn forbidden_node_breaks_cone() {
        // a -> load -> c : load is forbidden, so a and c are separate.
        let mut bld = FunctionBuilder::new("f", vec![Type::Ptr, Type::I32], Type::I32);
        let a = bld.gep(Op::Arg(0), Op::Arg(1), 4); // forbidden (gep)
        let v = bld.load(Type::I32, a); // forbidden
        let c = bld.add(v, Op::ci32(1));
        let d = bld.mul(c, c);
        bld.ret(d);
        let f = bld.finish();
        let cands = run(&f, 1);
        assert_eq!(cands.len(), 1);
        // Only {c, d} forms a MISO.
        assert_eq!(cands[0].nodes, vec![2, 3]);
    }

    #[test]
    fn min_size_filters() {
        let mut bld = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let a = bld.add(Op::Arg(0), Op::ci32(1));
        bld.ret(a);
        let f = bld.finish();
        assert_eq!(run(&f, 1).len(), 1);
        assert_eq!(run(&f, 2).len(), 0);
    }

    #[test]
    fn disjointness_and_coverage() {
        // Random-ish block: every valid node must appear in exactly one
        // MISO when min_size = 1.
        let mut bld = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        let a = bld.add(Op::Arg(0), Op::Arg(1));
        let b = bld.mul(a, a);
        let c = bld.sub(b, Op::Arg(0));
        let d = bld.xor(a, c);
        let p = bld.alloca(4); // forbidden
        bld.store(d, p); // forbidden
        let e = bld.load(Type::I32, p); // forbidden
        let g = bld.add(e, d);
        bld.ret(g);
        let f = bld.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let cands = maxmiso(&f, &dfg, key(), 1).candidates;
        let mut seen = vec![0u32; dfg.len()];
        for c in &cands {
            for &n in &c.nodes {
                seen[n as usize] += 1;
            }
            assert_eq!(c.outputs, 1, "every MISO has a single output");
            assert!(c.is_convex(&dfg));
        }
        let forbidden = mask(&dfg);
        for (i, &cnt) in seen.iter().enumerate() {
            if forbidden[i] {
                assert_eq!(cnt, 0, "forbidden node {i} must not be covered");
            } else {
                assert_eq!(cnt, 1, "valid node {i} must be covered exactly once");
            }
        }
    }

    #[test]
    fn runs_over_whole_function() {
        let mut bld = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        bld.counted_loop("i", Op::ci32(0), Op::Arg(0), |b, i| {
            let x = b.mul(i, i);
            let y = b.add(x, i);
            let z = b.xor(y, x);
            let p = b.alloca(4);
            b.store(z, p);
        });
        bld.ret(Op::ci32(0));
        let f = bld.finish();
        let cands = maxmiso_function(&f, FuncId(0), 2);
        assert!(!cands.is_empty());
        // The x,y,z chain in the body must be found.
        assert!(cands.iter().any(|c| c.len() == 3));
    }
}
