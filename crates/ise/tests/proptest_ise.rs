//! Property tests for the ISE algorithms on randomized DFGs: MAXMISO
//! structural invariants, SingleCut feasibility guarantees, candidate
//! signature stability, and pruning-filter algebra.

use jitise_ir::{BlockId, Dfg, FuncId, Function, FunctionBuilder, Operand as Op, Type};
use jitise_ise::forbidden::mask;
use jitise_ise::{maxmiso, prune, single_cut, Candidate, PortConstraints, PruneFilter};
use jitise_vm::{BlockKey, Profile};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct GraphSpec {
    ops: Vec<(u8, u8, u8)>,
    mem_every: u8,
}

fn graph() -> impl Strategy<Value = GraphSpec> {
    (
        prop::collection::vec((0u8..8, any::<u8>(), any::<u8>()), 1..30),
        1u8..8,
    )
        .prop_map(|(ops, mem_every)| GraphSpec { ops, mem_every })
}

fn build(spec: &GraphSpec) -> Function {
    let mut b = FunctionBuilder::new("g", vec![Type::I32, Type::I32], Type::I32);
    let cell = b.alloca(4);
    let mut vals = vec![Op::Arg(0), Op::Arg(1)];
    for (i, &(sel, ai, bi)) in spec.ops.iter().enumerate() {
        let a = vals[ai as usize % vals.len()];
        let c = vals[bi as usize % vals.len()];
        let v = match sel {
            0 => b.add(a, c),
            1 => b.sub(a, c),
            2 => b.mul(a, c),
            3 => b.xor(a, c),
            4 => b.and(a, c),
            5 => b.or(a, c),
            6 => b.shl(a, Op::ci32(3)),
            _ => b.mul(a, Op::ci32(5)),
        };
        vals.push(v);
        if i % spec.mem_every as usize == spec.mem_every as usize - 1 {
            // Forbidden breaker, like real code's memory traffic.
            b.store(v, cell);
            let r = b.load(Type::I32, cell);
            vals.push(r);
        }
    }
    b.ret(*vals.last().unwrap());
    b.finish()
}

fn key() -> BlockKey {
    BlockKey::new(FuncId(0), BlockId(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn maxmiso_partitions_valid_nodes(spec in graph()) {
        let f = build(&spec);
        let dfg = Dfg::build(&f, BlockId(0));
        let res = maxmiso(&f, &dfg, key(), 1);
        let forbidden = mask(&dfg);
        let mut covered = vec![0u8; dfg.len()];
        for c in &res.candidates {
            prop_assert_eq!(c.outputs, 1);
            prop_assert!(c.is_convex(&dfg));
            for &n in &c.nodes {
                covered[n as usize] += 1;
            }
        }
        // A node is *observable* if its value reaches an escape or a
        // forbidden consumer (dead cones are dropped by maxmiso, as -O3
        // would drop them from real input).
        let mut observable = vec![false; dfg.len()];
        for i in (0..dfg.len()).rev() {
            let node = &dfg.nodes[i];
            observable[i] = node.escapes
                || node.succs.iter().any(|&s| {
                    forbidden[s as usize] || observable[s as usize]
                });
        }
        for (i, &cnt) in covered.iter().enumerate() {
            // (a) forbidden nodes are never covered; (b) disjointness;
            // (c) observable valid nodes are covered exactly once. A valid
            // node observable only through *dead* cones may legitimately be
            // covered (it roots a kept MISO feeding the dead nodes) or not
            // (it sits inside a dropped dead cone), so only one-sided
            // bounds hold there.
            if forbidden[i] {
                prop_assert_eq!(cnt, 0, "forbidden node {} covered", i);
            } else {
                prop_assert!(cnt <= 1, "node {} in {} MISOs", i, cnt);
                if observable[i] {
                    prop_assert_eq!(cnt, 1, "observable node {} uncovered", i);
                }
            }
        }
    }

    #[test]
    fn maxmiso_maximality(spec in graph()) {
        // Growing any candidate by one upstream producer must violate an
        // invariant (single output / validity / disjointness).
        let f = build(&spec);
        let dfg = Dfg::build(&f, BlockId(0));
        let res = maxmiso(&f, &dfg, key(), 1);
        let forbidden = mask(&dfg);
        for c in &res.candidates {
            let member: std::collections::HashSet<u32> = c.nodes.iter().copied().collect();
            for &n in &c.nodes {
                for &p in &dfg.nodes[n as usize].preds {
                    if member.contains(&p) || forbidden[p as usize] {
                        continue;
                    }
                    // Candidate grown by p: must now have >1 output or lose
                    // convexity — p's value must still escape somewhere.
                    let mut grown: Vec<u32> = c.nodes.clone();
                    grown.push(p);
                    let g = Candidate::from_nodes(&f, &dfg, key(), grown);
                    prop_assert!(
                        g.outputs > 1 || !g.is_convex(&dfg),
                        "MISO {:?} grew by {} without violating invariants",
                        c.nodes, p
                    );
                }
            }
        }
    }

    #[test]
    fn singlecut_respects_ports(spec in graph()) {
        let f = build(&spec);
        let dfg = Dfg::build(&f, BlockId(0));
        prop_assume!(dfg.len() <= 22); // keep the exponential search bounded
        let ports = PortConstraints { max_inputs: 3, max_outputs: 1 };
        let res = single_cut(&f, &dfg, key(), ports, 1);
        for c in &res.candidates {
            prop_assert!(c.inputs <= 3);
            prop_assert!(c.outputs <= 1);
            prop_assert!(c.is_convex(&dfg));
        }
    }

    #[test]
    fn signatures_stable_and_order_independent(spec in graph()) {
        let f = build(&spec);
        let dfg = Dfg::build(&f, BlockId(0));
        let res = maxmiso(&f, &dfg, key(), 2);
        for c in &res.candidates {
            let sig = c.signature(&f, &dfg);
            let mut shuffled = c.nodes.clone();
            shuffled.reverse();
            let c2 = Candidate::from_nodes(&f, &dfg, key(), shuffled);
            prop_assert_eq!(sig, c2.signature(&f, &dfg));
        }
    }

    #[test]
    fn prune_coverage_and_cap_hold(
        weights in prop::collection::vec(1u64..1000, 1..20),
        cap in 1usize..6,
        coverage in 0.1f64..1.0,
    ) {
        // Synthetic module: one block per weight.
        let mut b = FunctionBuilder::new("m", vec![Type::I32], Type::I32);
        let blocks: Vec<BlockId> = (1..weights.len()).map(|i| b.new_block(format!("b{i}"))).collect();
        let mut v = b.add(Op::Arg(0), Op::ci32(1));
        for &blk in &blocks {
            b.br(blk);
            b.switch_to(blk);
            v = b.add(v, Op::ci32(1));
        }
        b.ret(v);
        let mut module = jitise_ir::Module::new("m");
        module.add_func(b.finish());

        let mut profile = Profile::new();
        for (i, &w) in weights.iter().enumerate() {
            profile.record(BlockKey::new(FuncId(0), BlockId(i as u32)), w, 1);
        }
        let filter = PruneFilter { coverage, max_blocks: cap };
        let r = prune(&module, &profile, filter);
        prop_assert!(r.blocks.len() <= cap);
        // Either the cap binds, or coverage is met.
        prop_assert!(
            r.blocks.len() == cap || r.time_covered >= coverage - 1e-9,
            "kept {} of cap {}, covered {:.3} of {:.3}",
            r.blocks.len(), cap, r.time_covered, coverage
        );
        // Selected blocks are the hottest ones: no unselected block is
        // strictly hotter than a selected one.
        let selected_min = r
            .blocks
            .iter()
            .map(|k| profile.block_cycles(*k))
            .min()
            .unwrap_or(0);
        for (i, _) in weights.iter().enumerate() {
            let k = BlockKey::new(FuncId(0), BlockId(i as u32));
            if !r.blocks.contains(&k) {
                prop_assert!(profile.block_cycles(k) <= selected_min);
            }
        }
    }
}
