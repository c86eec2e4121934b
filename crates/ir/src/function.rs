//! Functions and basic blocks.

use crate::inst::{Inst, Operand, Terminator};
use crate::types::Type;

/// Index of an instruction in a function's instruction arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

/// Index of a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl InstId {
    /// Index as usize.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl BlockId {
    /// Index as usize.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A basic block: a straight-line instruction sequence plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Debug name (e.g. `entry`, `loop.body`).
    pub name: String,
    /// Instructions in execution order (ids into [`Function::insts`]).
    pub insts: Vec<InstId>,
    /// The terminator. `None` only transiently during construction; a
    /// verified function always has one.
    pub term: Option<Terminator>,
}

impl Block {
    /// Terminator, panicking if the block is unterminated.
    pub fn terminator(&self) -> &Terminator {
        self.term
            .as_ref()
            .expect("block has no terminator (unfinished construction?)")
    }

    /// Number of instructions (excluding the terminator).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the block has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// A function: parameters, a return type, an instruction arena, and a CFG
/// of basic blocks. Block 0 is the entry block.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Parameter types.
    pub params: Vec<Type>,
    /// Return type (`Void` for procedures).
    pub ret: Type,
    /// Instruction arena. Blocks reference instructions by [`InstId`];
    /// instructions removed by passes stay in the arena but are detached
    /// from all blocks.
    pub insts: Vec<Inst>,
    /// Basic blocks. Index 0 is the entry.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Creates an empty function with a single unterminated entry block.
    pub fn new(name: impl Into<String>, params: Vec<Type>, ret: Type) -> Self {
        Function {
            name: name.into(),
            params,
            ret,
            insts: Vec::new(),
            blocks: vec![Block {
                name: "entry".into(),
                insts: Vec::new(),
                term: None,
            }],
        }
    }

    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Immutable instruction access.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.idx()]
    }

    /// Mutable instruction access.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.idx()]
    }

    /// Immutable block access.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.idx()]
    }

    /// Mutable block access.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.idx()]
    }

    /// Ids of all blocks.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Total number of instructions attached to blocks (the paper's `ins`
    /// column counts these, not arena slots).
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Appends an instruction to the arena and to the given block,
    /// returning its id.
    pub fn push_inst(&mut self, block: BlockId, inst: Inst) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(inst);
        self.blocks[block.idx()].insts.push(id);
        id
    }

    /// Predecessor lists for every block.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for bid in self.block_ids() {
            if let Some(term) = &self.block(bid).term {
                for succ in term.successors() {
                    preds[succ.idx()].push(bid);
                }
            }
        }
        preds
    }

    /// Reverse post-order of blocks reachable from the entry.
    pub fn rpo(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::with_capacity(self.blocks.len());
        // Iterative DFS with an explicit stack of (block, next-succ-index).
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry(), 0)];
        visited[self.entry().idx()] = true;
        while let Some(&mut (bid, ref mut next)) = stack.last_mut() {
            let succs = self
                .block(bid)
                .term
                .as_ref()
                .map(|t| t.successors())
                .unwrap_or_default();
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if !visited[s.idx()] {
                    visited[s.idx()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(bid);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// Blocks unreachable from the entry.
    pub fn unreachable_blocks(&self) -> Vec<BlockId> {
        let reachable: std::collections::HashSet<BlockId> = self.rpo().into_iter().collect();
        self.block_ids()
            .filter(|b| !reachable.contains(b))
            .collect()
    }

    /// The block containing each instruction (None for detached arena
    /// entries). O(n) scan; used by the verifier and the DFG builder.
    pub fn inst_blocks(&self) -> Vec<Option<BlockId>> {
        let mut owner = vec![None; self.insts.len()];
        for bid in self.block_ids() {
            for &iid in &self.block(bid).insts {
                owner[iid.idx()] = Some(bid);
            }
        }
        owner
    }

    /// Use-counts of every instruction result (uses in instructions and
    /// terminators of attached blocks).
    pub fn use_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.insts.len()];
        let mut bump = |op: Operand| {
            if let Operand::Inst(id) = op {
                counts[id.idx()] += 1;
            }
        };
        for bid in self.block_ids() {
            for &iid in &self.block(bid).insts {
                for op in self.inst(iid).operands() {
                    bump(op);
                }
            }
            if let Some(term) = &self.block(bid).term {
                for op in term.operands() {
                    bump(op);
                }
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Imm, InstKind};

    fn simple_fn() -> Function {
        // entry: x = 1+2; br b1
        // b1: ret x
        let mut f = Function::new("t", vec![], Type::I32);
        let x = f.push_inst(
            BlockId(0),
            Inst {
                kind: InstKind::Bin(
                    BinOp::Add,
                    Operand::Const(Imm::i32(1)),
                    Operand::Const(Imm::i32(2)),
                ),
                ty: Type::I32,
            },
        );
        f.blocks.push(Block {
            name: "b1".into(),
            insts: vec![],
            term: Some(Terminator::Ret(Some(Operand::Inst(x)))),
        });
        f.block_mut(BlockId(0)).term = Some(Terminator::Br(BlockId(1)));
        f
    }

    #[test]
    fn counts() {
        let f = simple_fn();
        assert_eq!(f.num_blocks(), 2);
        assert_eq!(f.num_insts(), 1);
        assert_eq!(f.use_counts()[0], 1);
    }

    #[test]
    fn predecessors_and_rpo() {
        let f = simple_fn();
        let preds = f.predecessors();
        assert!(preds[0].is_empty());
        assert_eq!(preds[1], vec![BlockId(0)]);
        assert_eq!(f.rpo(), vec![BlockId(0), BlockId(1)]);
    }

    #[test]
    fn unreachable_detection() {
        let mut f = simple_fn();
        f.blocks.push(Block {
            name: "dead".into(),
            insts: vec![],
            term: Some(Terminator::Ret(None)),
        });
        assert_eq!(f.unreachable_blocks(), vec![BlockId(2)]);
    }

    #[test]
    fn inst_owner_map() {
        let f = simple_fn();
        let owners = f.inst_blocks();
        assert_eq!(owners[0], Some(BlockId(0)));
    }

    #[test]
    fn rpo_on_diamond() {
        // entry -> a, b; a -> join; b -> join.
        let mut f = Function::new("d", vec![], Type::Void);
        for name in ["a", "b", "join"] {
            f.blocks.push(Block {
                name: name.into(),
                insts: vec![],
                term: None,
            });
        }
        f.block_mut(BlockId(0)).term = Some(Terminator::CondBr(
            Operand::Const(Imm::bool(true)),
            BlockId(1),
            BlockId(2),
        ));
        f.block_mut(BlockId(1)).term = Some(Terminator::Br(BlockId(3)));
        f.block_mut(BlockId(2)).term = Some(Terminator::Br(BlockId(3)));
        f.block_mut(BlockId(3)).term = Some(Terminator::Ret(None));
        let rpo = f.rpo();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(*rpo.last().unwrap(), BlockId(3));
        // join must come after both a and b.
        let pos = |b: BlockId| rpo.iter().position(|&x| x == b).unwrap();
        assert!(pos(BlockId(3)) > pos(BlockId(1)));
        assert!(pos(BlockId(3)) > pos(BlockId(2)));
    }
}
