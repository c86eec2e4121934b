//! The original per-block DFG builder, kept verbatim as a test oracle.
//!
//! For every block it rescans the whole function to find consumers in
//! other blocks, so building all of a function's DFGs costs
//! O(blocks × instructions). The production builder computes the same
//! escape facts once per function; this copy is test-only and must not be
//! "fixed".

use jitise_ir::{BlockId, Dfg, DfgNode, Function, InstKind, Operand};

/// Builds the DFG of `block` in `f` exactly as the original builder did.
pub fn build(f: &Function, block: BlockId) -> Dfg {
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
                escapes: false,
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

    // Escape analysis: values used by the terminator of this block or
    // by any instruction outside this block.
    if let Some(term) = &blk.term {
        for op in term.operands() {
            if let Operand::Inst(def) = op {
                if let Some(&j) = node_of.get(&def) {
                    nodes[j as usize].escapes = true;
                }
            }
        }
    }
    for other in f.block_ids() {
        if other == block {
            // Phis in this very block consume values "around the loop";
            // treat those as escaping too.
            for &iid in &f.block(other).insts {
                if let InstKind::Phi(incoming) = &f.inst(iid).kind {
                    for (_, op) in incoming {
                        if let Operand::Inst(def) = op {
                            if let Some(&j) = node_of.get(def) {
                                nodes[j as usize].escapes = true;
                            }
                        }
                    }
                }
            }
            continue;
        }
        for &iid in &f.block(other).insts {
            for op in f.inst(iid).operands() {
                if let Operand::Inst(def) = op {
                    if let Some(&j) = node_of.get(&def) {
                        nodes[j as usize].escapes = true;
                    }
                }
            }
        }
        if let Some(term) = &f.block(other).term {
            for op in term.operands() {
                if let Operand::Inst(def) = op {
                    if let Some(&j) = node_of.get(&def) {
                        nodes[j as usize].escapes = true;
                    }
                }
            }
        }
    }

    Dfg { block, nodes }
}
