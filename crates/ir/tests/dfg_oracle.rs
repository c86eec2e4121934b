//! DFG builder oracle: `Dfg::build`, `Dfg::build_all` and `Dfg::build_with`
//! (one escape pass per function) must produce exactly the graphs of the
//! original builder, which rescanned the whole function for every block:
//! the same nodes, the same `preds`/`succs` order, the same input counts
//! and escape flags. `support/reference_dfg.rs` is a verbatim copy of that
//! builder.

#[path = "support/reference_dfg.rs"]
mod reference;

use jitise_base::rng::SplitMix64;
use jitise_ir::passes::{optimize_function, OptLevel};
use jitise_ir::{
    BinOp, Block, BlockId, CmpOp, Dfg, Escapes, Function, FunctionBuilder, Inst, InstId, InstKind,
    Operand as Op, Terminator, Type,
};
use proptest::prelude::*;

/// Compares every block's DFG from all three production entry points
/// against the reference.
fn check(f: &Function) -> Result<(), TestCaseError> {
    let escapes = Escapes::of(f);
    let all = Dfg::build_all(f);
    prop_assert_eq!(all.len(), f.num_blocks());
    for (b, from_all) in f.block_ids().zip(&all) {
        let want = reference::build(f, b);
        prop_assert_eq!(&Dfg::build(f, b), &want, "build, block {}", b.0);
        prop_assert_eq!(from_all, &want, "build_all, block {}", b.0);
        prop_assert_eq!(
            &Dfg::build_with(f, b, &escapes),
            &want,
            "build_with, block {}",
            b.0
        );
    }
    Ok(())
}

/// A random operand for an instruction of block `b`: an argument, a
/// constant, or a value defined so far in this block or an earlier one.
fn operand(rng: &mut SplitMix64, defined: &[Vec<Op>], b: usize) -> Op {
    match rng.next_index(4) {
        0 => Op::Arg(rng.next_index(2) as u32),
        1 => Op::ci32(rng.next_index(100) as i32),
        _ => own_or_any(rng, &defined[..=b], b),
    }
}

/// A random value defined in any of `blocks`, if there is one.
fn any_value(rng: &mut SplitMix64, blocks: &[Vec<Op>]) -> Option<Op> {
    let all: Vec<Op> = blocks.iter().flatten().copied().collect();
    (!all.is_empty()).then(|| all[rng.next_index(all.len())])
}

/// A value of block `b` half the time (uses by the block's own terminator
/// or own phis), otherwise a value of any block.
fn own_or_any(rng: &mut SplitMix64, defined: &[Vec<Op>], b: usize) -> Op {
    if !defined[b].is_empty() && rng.chance(0.5) {
        defined[b][rng.next_index(defined[b].len())]
    } else {
        any_value(rng, defined).unwrap_or(Op::Arg(1))
    }
}

/// A random multi-block function exercising every escape rule:
/// cross-block uses, uses by a block's own terminator and by other blocks'
/// terminators, phis fed by same-block values (self-loop latches) and by
/// other blocks, side-effecting stores, and arena instructions detached
/// from every block that still name attached values. The IR need not
/// verify: the builders only read operand structure.
fn random_function(seed: u64) -> Function {
    let mut rng = SplitMix64::new(seed);
    let nblocks = 1 + rng.next_index(6);
    let mut f = Function::new("oracle", vec![Type::I32, Type::I32], Type::I32);
    for i in 1..nblocks {
        f.blocks.push(Block {
            name: format!("b{i}"),
            insts: Vec::new(),
            term: None,
        });
    }
    let block = |rng: &mut SplitMix64| BlockId(rng.next_index(nblocks) as u32);

    // Phis first (incoming edges are added once every value exists), then
    // the block bodies.
    let mut defined: Vec<Vec<Op>> = vec![Vec::new(); nblocks];
    let mut phis: Vec<(InstId, usize)> = Vec::new();
    for b in 0..nblocks {
        let bid = BlockId(b as u32);
        for _ in 0..rng.next_index(3) {
            let phi = Inst {
                kind: InstKind::Phi(Vec::new()),
                ty: Type::I32,
            };
            let id = f.push_inst(bid, phi);
            phis.push((id, b));
            defined[b].push(Op::Inst(id));
        }
        for _ in 0..rng.next_index(12) {
            let a = operand(&mut rng, &defined, b);
            let c = operand(&mut rng, &defined, b);
            let (kind, ty) = match rng.next_index(5) {
                0 => (InstKind::Store(a, c), Type::Void),
                1 => (InstKind::Cmp(CmpOp::Slt, a, c), Type::I1),
                2 => {
                    let s = operand(&mut rng, &defined, b);
                    (InstKind::Select(s, a, c), Type::I32)
                }
                3 => (InstKind::Bin(BinOp::Mul, a, c), Type::I32),
                _ => (InstKind::Bin(BinOp::Add, a, c), Type::I32),
            };
            let id = f.push_inst(bid, Inst { kind, ty });
            if ty != Type::Void {
                defined[b].push(Op::Inst(id));
            }
        }
    }

    for (phi, b) in phis {
        let incoming: Vec<(BlockId, Op)> = (0..1 + rng.next_index(3))
            .map(|_| (block(&mut rng), own_or_any(&mut rng, &defined, b)))
            .collect();
        f.inst_mut(phi).kind = InstKind::Phi(incoming);
    }
    for b in 0..nblocks {
        let v = own_or_any(&mut rng, &defined, b);
        let term = match rng.next_index(5) {
            0 => Terminator::Br(block(&mut rng)),
            1 => Terminator::CondBr(v, block(&mut rng), block(&mut rng)),
            2 => Terminator::Switch(v, vec![(1, block(&mut rng))], block(&mut rng)),
            3 => Terminator::Ret(None),
            _ => Terminator::Ret(Some(v)),
        };
        f.blocks[b].term = Some(term);
    }

    // Arena instructions attached to no block: fresh ones naming attached
    // values, and attached ones unlinked the way dead-code elimination
    // does.
    for _ in 0..rng.next_index(3) {
        let a = any_value(&mut rng, &defined).unwrap_or(Op::Arg(0));
        f.insts.push(Inst {
            kind: InstKind::Phi(vec![(BlockId(0), a)]),
            ty: Type::I32,
        });
        f.insts.push(Inst {
            kind: InstKind::Bin(BinOp::Add, a, a),
            ty: Type::I32,
        });
    }
    if rng.chance(0.3) {
        let b = rng.next_index(nblocks);
        if !f.blocks[b].insts.is_empty() {
            let at = rng.next_index(f.blocks[b].insts.len());
            f.blocks[b].insts.remove(at);
        }
    }
    f
}

/// A verifying function with a counted loop, cross-block uses and fodder
/// for the optimizer, run through `-O3` so the arena keeps the
/// instructions the passes detached.
fn optimized_function(seed: u64) -> Function {
    let mut rng = SplitMix64::new(seed);
    let mut b = FunctionBuilder::new("opt", vec![Type::I32, Type::I32], Type::I32);
    let k = rng.next_index(50) as i32;
    let pre = b.add(Op::Arg(0), Op::ci32(k));
    let dead = b.mul(pre, Op::ci32(1));
    let _ = b.add(dead, Op::ci32(0));
    let steps = rng.next_index(6);
    let i = b.counted_loop("i", Op::ci32(0), Op::Arg(1), |b, i| {
        let mut v = b.add(i, pre);
        for s in 0..steps {
            v = match s % 3 {
                0 => b.mul(v, Op::ci32(1)),
                1 => b.xor(v, i),
                _ => b.add(v, Op::ci32(0)),
            };
        }
        let cond = b.cmp(CmpOp::Slt, v, pre);
        let _ = b.select(cond, v, pre);
    });
    let out = b.add(i, pre);
    b.ret(out);
    let mut f = b.finish();
    optimize_function(&mut f, OptLevel::O3);
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_functions_match_reference(seed in any::<u64>()) {
        check(&random_function(seed))?;
    }

    #[test]
    fn optimized_functions_match_reference(seed in any::<u64>()) {
        let f = optimized_function(seed);
        check(&f)?;
    }
}

/// The generators reach every escape rule and leave detached
/// instructions, so the properties above are not vacuous.
#[test]
fn generators_cover_every_escape_rule() {
    let (mut own_term, mut other_term, mut own_phi, mut detached) = (0, 0, 0, 0);
    for seed in 0..256u64 {
        let f = random_function(seed);
        let home = |id: InstId| f.block_ids().find(|&b| f.block(b).insts.contains(&id));
        for b in f.block_ids() {
            let blk = f.block(b);
            for op in blk.term.iter().flat_map(|t| t.operands()) {
                if let Some(def) = op.as_inst() {
                    match home(def) {
                        Some(h) if h == b => own_term += 1,
                        Some(_) => other_term += 1,
                        None => {}
                    }
                }
            }
            for &iid in &blk.insts {
                if let InstKind::Phi(incoming) = &f.inst(iid).kind {
                    own_phi += incoming
                        .iter()
                        .filter(|(_, op)| op.as_inst().and_then(home) == Some(b))
                        .count();
                }
            }
        }
        let opt = optimized_function(seed);
        detached += usize::from(opt.insts.len() > opt.num_insts());
    }
    assert!(own_term > 0 && other_term > 0 && own_phi > 0 && detached > 0);
}
