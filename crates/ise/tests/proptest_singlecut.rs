//! Single-cut enumeration vs. brute force.
//!
//! On random small DFGs (≤ 12 valid nodes, so 2^n subsets stay cheap) a
//! brute-force subset enumerator computes the exact set of maximal
//! feasible cuts; `single_cut_with` must reproduce it bit-for-bit with the
//! branch-and-bound port bound on *and* off — the bound may only skip
//! subtrees that cannot contain a feasible leaf. Graphs include
//! `cmp`/`select` pairs on purpose: a select has three producers, the
//! shape that breaks the naive "one output absorbed per remaining node"
//! slack argument (see the singlecut module docs).

use jitise_ir::{BlockId, CmpOp, Dfg, FuncId, Function, FunctionBuilder, Operand as Op, Type};
use jitise_ise::forbidden::mask;
use jitise_ise::{single_cut_with, Candidate, PortConstraints};
use jitise_vm::BlockKey;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct GraphSpec {
    ops: Vec<(u8, u8, u8)>,
    mem_every: u8,
}

fn graph() -> impl Strategy<Value = GraphSpec> {
    (
        prop::collection::vec((0u8..10, any::<u8>(), any::<u8>()), 1..10),
        2u8..8,
    )
        .prop_map(|(ops, mem_every)| GraphSpec { ops, mem_every })
}

/// Builds a single-block function: binary ops, the occasional
/// `cmp`+`select` pair, and store/load forbidden breakers.
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
            7 => b.mul(a, Op::ci32(5)),
            _ => {
                let cond = b.cmp(CmpOp::Slt, a, c);
                b.select(cond, a, c)
            }
        };
        vals.push(v);
        if i % spec.mem_every as usize == spec.mem_every as usize - 1 {
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

/// The ground truth: enumerate every subset of the valid nodes, keep the
/// feasible ones (convex, within ports, at least `min_size`), then keep
/// only those with no feasible strict superset.
fn brute_force(f: &Function, dfg: &Dfg, ports: PortConstraints, min_size: usize) -> Vec<Vec<u32>> {
    let forbidden = mask(dfg);
    let valid: Vec<u32> = (0..dfg.len() as u32)
        .filter(|&i| !forbidden[i as usize])
        .collect();
    let mut feasible: Vec<Vec<u32>> = Vec::new();
    for bits in 1u32..(1u32 << valid.len()) {
        let nodes: Vec<u32> = valid
            .iter()
            .enumerate()
            .filter(|&(q, _)| bits & (1 << q) != 0)
            .map(|(_, &v)| v)
            .collect();
        if nodes.len() < min_size {
            continue;
        }
        let cand = Candidate::from_nodes(f, dfg, key(), nodes.clone());
        if cand.is_convex(dfg)
            && cand.inputs <= ports.max_inputs
            && cand.outputs <= ports.max_outputs
        {
            feasible.push(nodes);
        }
    }
    let mut maximal: Vec<Vec<u32>> = feasible
        .iter()
        .filter(|s| {
            !feasible
                .iter()
                .any(|t| t.len() > s.len() && s.iter().all(|x| t.contains(x)))
        })
        .cloned()
        .collect();
    maximal.sort();
    maximal
}

fn sorted_nodes(candidates: &[Candidate]) -> Vec<Vec<u32>> {
    let mut v: Vec<Vec<u32>> = candidates.iter().map(|c| c.nodes.clone()).collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn singlecut_matches_brute_force_bound_on_and_off(
        spec in graph(),
        max_inputs in 2u32..5,
        max_outputs in 1u32..3,
        min_size in 1usize..3,
    ) {
        let f = build(&spec);
        let dfg = Dfg::build(&f, BlockId(0));
        let forbidden = mask(&dfg);
        let valid = forbidden.iter().filter(|&&x| !x).count();
        prop_assume!(valid <= 12);
        let ports = PortConstraints { max_inputs, max_outputs };

        let expected = brute_force(&f, &dfg, ports, min_size);
        let with = single_cut_with(
            &f, &dfg, key(), ports, min_size, true, u64::MAX,
        );
        let without = single_cut_with(
            &f, &dfg, key(), ports, min_size, false, u64::MAX,
        );
        prop_assert!(!with.cap_hit && !without.cap_hit);
        prop_assert_eq!(&sorted_nodes(&with.candidates), &expected,
            "bound on diverged from brute force");
        prop_assert_eq!(&sorted_nodes(&without.candidates), &expected,
            "bound off diverged from brute force");
        // The bound may only remove work, never leaves.
        prop_assert!(with.explored <= without.explored);
    }
}
