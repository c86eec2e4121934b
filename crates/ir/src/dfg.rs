//! Per-basic-block data-flow graphs.
//!
//! The ISE algorithms (paper §III, *Candidate Search*) "search the data flow
//! graphs for suitable instruction patterns". A [`Dfg`] is the data-flow
//! view of one basic block: one node per instruction, a producer→consumer
//! edge for every same-block operand reference, and explicit *external
//! input* / *output* annotations.
//!
//! An instruction's value is an **output** of the block if it is consumed by
//! another block, by the terminator, or if the instruction has a side effect
//! (its node can never be absorbed into a consumer's cone). Operands coming
//! from other blocks, from function arguments, or from constants are
//! **external inputs** — although constants are tracked separately because a
//! hardware implementation bakes them into the datapath for free.

use crate::function::{BlockId, Function, InstId};
use crate::inst::{InstKind, Opcode, Operand};
use crate::types::Type;

/// A node of the data-flow graph: one instruction of the block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfgNode {
    /// The instruction this node represents.
    pub inst: InstId,
    /// Flat opcode (what the PivPav database keys on).
    pub opcode: Opcode,
    /// Result type.
    pub ty: Type,
    /// Same-block operand producers (indices into [`Dfg::nodes`]).
    pub preds: Vec<u32>,
    /// Same-block consumers (indices into [`Dfg::nodes`]).
    pub succs: Vec<u32>,
    /// Number of operands arriving from outside the block (instruction
    /// results from other blocks + function arguments).
    pub ext_inputs: u32,
    /// Number of constant operands.
    pub const_inputs: u32,
    /// True if the node's value escapes the block (see [`Escapes`]).
    pub escapes: bool,
}

/// The data-flow graph of one basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfg {
    /// The block this graph was built from.
    pub block: BlockId,
    /// Nodes in instruction order. Because the IR is SSA and same-block
    /// operands must be defined earlier, this order is a topological order
    /// of the graph.
    pub nodes: Vec<DfgNode>,
}

/// Function-wide escape facts, indexed by [`InstId`]: an instruction's
/// value escapes its block if any terminator uses it, any phi uses it
/// (a phi consumes its operands "around the loop", even in the defining
/// block), or a non-phi instruction of another block uses it.
///
/// One pass over the function's attached instructions computes the facts
/// for every block at once; instructions detached from all blocks (left in
/// the arena by the optimizer) are not scanned as consumers.
#[derive(Debug, Clone)]
pub struct Escapes(Vec<bool>);

impl Escapes {
    /// Computes the escape facts of every instruction of `f`.
    pub fn of(f: &Function) -> Escapes {
        let mut home: Vec<Option<BlockId>> = vec![None; f.insts.len()];
        for b in f.block_ids() {
            for &iid in &f.block(b).insts {
                home[iid.idx()] = Some(b);
            }
        }
        let mut escapes = vec![false; f.insts.len()];
        for b in f.block_ids() {
            let blk = f.block(b);
            for &iid in &blk.insts {
                let inst = f.inst(iid);
                let is_phi = matches!(inst.kind, InstKind::Phi(_));
                for op in inst.operands() {
                    if let Operand::Inst(def) = op {
                        if is_phi || home[def.idx()] != Some(b) {
                            escapes[def.idx()] = true;
                        }
                    }
                }
            }
            for op in blk.term.iter().flat_map(|t| t.operands()) {
                if let Operand::Inst(def) = op {
                    escapes[def.idx()] = true;
                }
            }
        }
        Escapes(escapes)
    }

    /// True if `inst`'s value escapes its block.
    pub fn contains(&self, inst: InstId) -> bool {
        self.0[inst.idx()]
    }
}

impl Dfg {
    /// Builds the DFG of `block` in `f`.
    ///
    /// Escape facts are function-wide, so one call costs O(function); code
    /// that builds several blocks of one function uses [`Dfg::build_all`]
    /// or computes [`Escapes::of`] once and calls [`Dfg::build_with`].
    pub fn build(f: &Function, block: BlockId) -> Dfg {
        Dfg::build_with(f, block, &Escapes::of(f))
    }

    /// Builds the DFG of `block` in `f` from the function's precomputed
    /// escape facts, in O(block).
    pub fn build_with(f: &Function, block: BlockId, escapes: &Escapes) -> Dfg {
        let blk = f.block(block);
        // Map from InstId -> node index within this block.
        let mut node_of = std::collections::HashMap::with_capacity(blk.insts.len());
        for (i, &iid) in blk.insts.iter().enumerate() {
            node_of.insert(iid, i as u32);
        }

        let mut nodes: Vec<DfgNode> = blk
            .insts
            .iter()
            .map(|&iid| {
                let inst = f.inst(iid);
                DfgNode {
                    inst: iid,
                    opcode: inst.opcode(),
                    ty: inst.ty,
                    preds: Vec::new(),
                    succs: Vec::new(),
                    ext_inputs: 0,
                    const_inputs: 0,
                    escapes: escapes.contains(iid),
                }
            })
            .collect();

        // Intra-block edges + external/const input counts.
        for (i, &iid) in blk.insts.iter().enumerate() {
            let inst = f.inst(iid);
            // Phi operands are *control-flow* inputs: even when an incoming
            // value is produced in this block (loop latches), the value
            // travels around the back edge, so it is external by nature.
            let is_phi = matches!(inst.kind, InstKind::Phi(_));
            for op in inst.operands() {
                match op {
                    Operand::Inst(def) => match node_of.get(&def) {
                        Some(&j) if !is_phi => {
                            nodes[i].preds.push(j);
                            nodes[j as usize].succs.push(i as u32);
                        }
                        _ => nodes[i].ext_inputs += 1,
                    },
                    Operand::Arg(_) => nodes[i].ext_inputs += 1,
                    Operand::Const(_) => nodes[i].const_inputs += 1,
                }
            }
        }

        Dfg { block, nodes }
    }

    /// Builds the DFGs of all blocks of a function, in O(function).
    pub fn build_all(f: &Function) -> Vec<Dfg> {
        let escapes = Escapes::of(f);
        f.block_ids()
            .map(|b| Dfg::build_with(f, b, &escapes))
            .collect()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the block had no instructions.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Indices of nodes with no intra-block consumers.
    pub fn sinks(&self) -> Vec<u32> {
        (0..self.nodes.len() as u32)
            .filter(|&i| self.nodes[i as usize].succs.is_empty())
            .collect()
    }

    /// Critical-path length in nodes (longest chain), a crude ILP measure.
    pub fn depth(&self) -> usize {
        let mut depth = vec![1usize; self.nodes.len()];
        let mut best = 0;
        for i in 0..self.nodes.len() {
            for &p in &self.nodes[i].preds {
                depth[i] = depth[i].max(depth[p as usize] + 1);
            }
            best = best.max(depth[i]);
        }
        best
    }

    /// Available instruction-level parallelism: nodes / critical-path depth.
    pub fn ilp(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.len() as f64 / self.depth() as f64
    }

    /// Checks that a node set is *convex*: no data-flow path from a member
    /// leaves the set and re-enters it. Convexity is required for a set to
    /// be implementable as one atomic custom instruction.
    pub fn is_convex(&self, members: &[bool]) -> bool {
        debug_assert_eq!(members.len(), self.nodes.len());
        // A path out-and-back-in exists iff some member node is reachable
        // from a non-member successor of a member. Nodes are in topological
        // order, so a forward DP suffices: mark nodes reachable from any
        // "escaped" frontier and check membership.
        let n = self.nodes.len();
        let mut tainted = vec![false; n];
        for i in 0..n {
            let via_nonmember_pred = self.nodes[i].preds.iter().any(|&p| {
                !members[p as usize] && (tainted[p as usize] || has_member_pred(self, p, members))
            });
            if members[i] && via_nonmember_pred {
                return false;
            }
            if !members[i] {
                tainted[i] = self.nodes[i]
                    .preds
                    .iter()
                    .any(|&p| members[p as usize] || tainted[p as usize]);
            }
        }
        return true;

        fn has_member_pred(dfg: &Dfg, node: u32, members: &[bool]) -> bool {
            dfg.nodes[node as usize]
                .preds
                .iter()
                .any(|&p| members[p as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::Operand as Op;

    /// entry: a = arg0+1; b = a*2; c = a+b; ret c
    fn chain_fn() -> Function {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let a = b.add(Op::Arg(0), Op::ci32(1));
        let b2 = b.mul(a, Op::ci32(2));
        let c = b.add(a, b2);
        b.ret(c);
        b.finish()
    }

    #[test]
    fn edges_and_inputs() {
        let f = chain_fn();
        let dfg = Dfg::build(&f, BlockId(0));
        assert_eq!(dfg.len(), 3);
        // a: 1 ext input (arg0), 1 const.
        assert_eq!(dfg.nodes[0].ext_inputs, 1);
        assert_eq!(dfg.nodes[0].const_inputs, 1);
        // a feeds b and c.
        assert_eq!(dfg.nodes[0].succs, vec![1, 2]);
        // c is consumed by the terminator -> escapes.
        assert!(dfg.nodes[2].escapes);
        assert!(!dfg.nodes[0].escapes);
        assert!(!dfg.nodes[1].escapes);
    }

    #[test]
    fn depth_and_ilp() {
        let f = chain_fn();
        let dfg = Dfg::build(&f, BlockId(0));
        // a -> b -> c is the longest chain.
        assert_eq!(dfg.depth(), 3);
        assert!((dfg.ilp() - 1.0).abs() < 1e-9);
        assert_eq!(dfg.sinks(), vec![2]);
    }

    #[test]
    fn cross_block_escape() {
        let mut b = FunctionBuilder::new("g", vec![Type::I32], Type::I32);
        let next = b.new_block("next");
        let v = b.add(Op::Arg(0), Op::ci32(5));
        b.br(next);
        b.switch_to(next);
        let w = b.mul(v, v); // uses v from the entry block
        b.ret(w);
        let f = b.finish();
        let dfg0 = Dfg::build(&f, BlockId(0));
        assert!(dfg0.nodes[0].escapes, "v is used in another block");
        let dfg1 = Dfg::build(&f, BlockId(1));
        // w has 2 external inputs (v twice).
        assert_eq!(dfg1.nodes[0].ext_inputs, 2);
    }

    #[test]
    fn phi_operands_are_external() {
        let mut b = FunctionBuilder::new("l", vec![Type::I32], Type::I32);
        let i = b.counted_loop("i", Op::ci32(0), Op::Arg(0), |b, i| {
            let sq = b.mul(i, i);
            let _ = sq;
        });
        b.ret(i);
        let f = b.finish();
        // Header block (1) holds the phi; its incoming latch value is
        // defined in the body but must not create an intra-block edge.
        let header = Dfg::build(&f, BlockId(1));
        let phi = &header.nodes[0];
        assert_eq!(phi.opcode, Opcode::Phi);
        assert!(phi.preds.is_empty());
        assert!(phi.escapes, "phi value is used by cmp and outside");
    }

    #[test]
    fn convexity() {
        // Diamond inside one block: a; b = f(a); c = g(a); d = b+c.
        let mut bld = FunctionBuilder::new("c", vec![Type::I32], Type::I32);
        let a = bld.add(Op::Arg(0), Op::ci32(1)); // node 0
        let b = bld.mul(a, Op::ci32(3)); // node 1
        let c = bld.xor(a, Op::ci32(7)); // node 2
        let d = bld.add(b, c); // node 3
        bld.ret(d);
        let f = bld.finish();
        let dfg = Dfg::build(&f, BlockId(0));

        // {a, b, c, d} convex.
        assert!(dfg.is_convex(&[true, true, true, true]));
        // {a, d} NOT convex: a -> b(out) -> d re-enters.
        assert!(!dfg.is_convex(&[true, false, false, true]));
        // {a, b} convex.
        assert!(dfg.is_convex(&[true, true, false, false]));
        // {b, d} not convex? path b->d direct; c is outside feeding d but
        // no member->nonmember->member path exists (a is not a member).
        assert!(dfg.is_convex(&[false, true, false, true]));
        // Empty set trivially convex.
        assert!(dfg.is_convex(&[false, false, false, false]));
    }

    #[test]
    fn build_all_covers_blocks() {
        let mut b = FunctionBuilder::new("m", vec![Type::I32], Type::I32);
        b.counted_loop("i", Op::ci32(0), Op::Arg(0), |_, _| {});
        b.ret(Op::ci32(0));
        let f = b.finish();
        let dfgs = Dfg::build_all(&f);
        assert_eq!(dfgs.len(), f.num_blocks());
    }
}
