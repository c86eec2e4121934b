//! Exact single-cut enumeration (baseline).
//!
//! The paper contrasts MAXMISO with "leading state-of-the-art algorithms
//! for this purpose [which] have an exponential algorithmic complexity"
//! (§II). This module implements that baseline: an Atasu-style exact
//! enumeration of convex cuts under input/output port constraints, with
//! branch-and-bound pruning. It is exponential in the block size — the
//! `ise_algorithms` bench demonstrates the gap that motivates the paper's
//! choice of MAXMISO + pruning.
//!
//! # The branch-and-bound output bound
//!
//! Nodes are decided in topological order, so when the search stands at
//! position `pos` every member's consumers that could ever absorb one of
//! its outputs lie in the *remaining* positions. For a partial member set
//! `S` and any superset `T` reachable from this branch:
//!
//! * an output of `S` disappears in `T` only when **all** of its outside
//!   consumers join, so each absorbed output maps to at least one future
//!   node `v` that consumes it — `v` can absorb at most `pred(v)` outputs,
//!   where `pred(v)` counts `v`'s non-forbidden same-block producers;
//! * `v` itself contributes one output the moment it joins unless it is
//!   dead (no consumer anywhere) — a contribution that may later vanish,
//!   but only by being counted against a *later* node's `pred` budget.
//!
//! Hence `out(T) >= out(S) - Σ_{v ∈ remaining} max(pred(v) - own(v), 0)`
//! with `own(v) = 1` unless `v` is dead, and the branch is hopeless when
//! `out(S)` exceeds `max_outputs` plus that suffix slack. The per-node
//! `pred(v)` term matters: a `select` has three producers and can absorb
//! three outputs while adding one, so the naive "one per remaining node"
//! slack would wrongly prune sets that a select later repairs. Distinct
//! external *inputs* only ever grow along an include path (a producer's
//! membership is always decided before any consumer joins), so
//! `inputs > max_inputs` prunes soundly with no slack at all.
//!
//! The previous bound compared `outputs` against `max_outputs +
//! chosen.len()` — already-chosen nodes cannot absorb anything (each
//! member contributes at most one output), so that bound was vacuously
//! true and never pruned. On fan-out-heavy blocks the search then
//! exhausted [`EXPLORATION_CAP`] before reaching any feasible leaf and
//! silently dropped every maximal cut; see
//! `old_bound_loses_maximal_cut_to_the_cap` below.

use crate::candidate::{Candidate, OperandKey};
use crate::forbidden::mask;
use jitise_ir::{Dfg, Function, InstId, Operand};
use jitise_vm::BlockKey;
use std::collections::HashMap;

/// Port constraints of the target architecture's register-file interface.
///
/// Woolcano's FCB interface provides a small number of read/write ports per
/// custom instruction; 4-in/2-out is the classic ISE configuration.
#[derive(Debug, Clone, Copy)]
pub struct PortConstraints {
    /// Maximum distinct value inputs.
    pub max_inputs: u32,
    /// Maximum outputs.
    pub max_outputs: u32,
}

impl Default for PortConstraints {
    fn default() -> Self {
        PortConstraints {
            max_inputs: 4,
            max_outputs: 2,
        }
    }
}

/// Result of the exact enumeration.
#[derive(Debug, Clone)]
pub struct SingleCutResult {
    /// All maximal feasible cuts found, largest first.
    pub candidates: Vec<Candidate>,
    /// Number of subsets explored (search-space size measure for the
    /// benches; grows exponentially with block size).
    pub explored: u64,
    /// True if the exploration cap stopped the search early — the result
    /// is then a *subset* of the maximal cuts, not the full answer.
    pub cap_hit: bool,
}

/// Hard cap on explored subsets; beyond this the search aborts and returns
/// what it has (the paper notes runtimes "ranging from seconds to days" —
/// we bound the pain). Truncation is never silent: [`SingleCutResult::cap_hit`]
/// reports it and the search driver surfaces it in telemetry.
pub const EXPLORATION_CAP: u64 = 2_000_000;

/// Enumerates convex, forbidden-free cuts of `dfg` satisfying `ports`,
/// keeping only maximal ones (no feasible strict superset found).
pub fn single_cut(
    f: &Function,
    dfg: &Dfg,
    key: BlockKey,
    ports: PortConstraints,
    min_size: usize,
) -> SingleCutResult {
    single_cut_with(f, dfg, key, ports, min_size, true, EXPLORATION_CAP)
}

/// [`single_cut`] with the port bound and exploration cap exposed.
///
/// `port_bound = false` disables the input/output branch-and-bound (leaving
/// only convexity pruning — the effective behaviour of the old, vacuous
/// bound); the final candidate set is identical either way, only the
/// explored count differs. The property-test suite relies on this to check
/// the bound against brute force, and the regression tests use a small
/// `cap` to demonstrate what the cap silently cost before the fix.
pub fn single_cut_with(
    f: &Function,
    dfg: &Dfg,
    key: BlockKey,
    ports: PortConstraints,
    min_size: usize,
    port_bound: bool,
    cap: u64,
) -> SingleCutResult {
    let n = dfg.len();
    let forbidden = mask(dfg);
    let valid: Vec<u32> = (0..n as u32).filter(|&i| !forbidden[i as usize]).collect();

    // Suffix sums of per-node absorption capacity (see module docs):
    // slack_after[q] bounds how many outputs the nodes at positions >= q
    // can still absorb, net of their own contributions.
    let mut slack_after = vec![0u32; valid.len() + 1];
    for q in (0..valid.len()).rev() {
        let node = &dfg.nodes[valid[q] as usize];
        let preds = node
            .preds
            .iter()
            .filter(|&&p| !forbidden[p as usize])
            .count() as u32;
        let own = (node.escapes || !node.succs.is_empty()) as u32;
        slack_after[q] = slack_after[q + 1] + preds.saturating_sub(own);
    }

    let node_of: HashMap<InstId, u32> = dfg
        .nodes
        .iter()
        .enumerate()
        .map(|(i, nd)| (nd.inst, i as u32))
        .collect();

    let mut search = CutSearch {
        f,
        dfg,
        key,
        valid: &valid,
        ports,
        min_size,
        port_bound,
        cap,
        node_of,
        members: vec![false; n],
        chosen: Vec::new(),
        member_succs: vec![0u32; n],
        outputs: 0,
        inputs: 0,
        input_refs: HashMap::new(),
        slack_after,
        best: Vec::new(),
        explored: 0,
        cap_hit: false,
    };
    search.recurse(0);
    let CutSearch {
        mut best,
        explored,
        cap_hit,
        ..
    } = search;

    // Keep only maximal sets (no other found set strictly contains them).
    best.sort_by_key(|s| std::cmp::Reverse(s.len()));
    let mut maximal: Vec<Vec<u32>> = Vec::new();
    'outer: for s in best {
        for m in &maximal {
            if s.iter().all(|x| m.contains(x)) && s.len() < m.len() {
                continue 'outer;
            }
        }
        if !maximal.contains(&s) {
            maximal.push(s);
        }
    }

    SingleCutResult {
        candidates: maximal
            .into_iter()
            .map(|nodes| Candidate::from_nodes(f, dfg, key, nodes))
            .collect(),
        explored,
        cap_hit,
    }
}

/// Depth-first enumeration state. Input/output counts are maintained
/// incrementally on include/undo so the hot bound check costs O(degree)
/// instead of a full [`Candidate::from_nodes`] reconstruction per node.
struct CutSearch<'a> {
    f: &'a Function,
    dfg: &'a Dfg,
    /// Only the leaf's debug cross-check against `Candidate::from_nodes`
    /// reads this; release builds never construct candidates mid-search.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    key: BlockKey,
    valid: &'a [u32],
    ports: PortConstraints,
    min_size: usize,
    port_bound: bool,
    cap: u64,
    node_of: HashMap<InstId, u32>,
    members: Vec<bool>,
    chosen: Vec<u32>,
    /// Per node: how many of its same-block consumers are members.
    member_succs: Vec<u32>,
    /// Members whose value escapes or feeds a non-member.
    outputs: u32,
    /// Distinct external value inputs of the member set.
    inputs: u32,
    /// Reference counts behind `inputs` (distinctness by operand identity,
    /// exactly as [`Candidate::from_nodes`] counts).
    input_refs: HashMap<OperandKey, u32>,
    slack_after: Vec<u32>,
    best: Vec<Vec<u32>>,
    explored: u64,
    cap_hit: bool,
}

impl CutSearch<'_> {
    fn recurse(&mut self, pos: usize) {
        if self.cap_hit {
            return;
        }
        self.explored += 1;
        if self.explored > self.cap {
            self.cap_hit = true;
            return;
        }
        if pos == self.valid.len() {
            self.leaf();
            return;
        }
        // Branch 1: include. Convexity violations never heal by adding
        // *later* nodes (the violating path's intermediates are already
        // decided as excluded), and the port bound is sound per the module
        // docs — so a failed check prunes the whole subtree.
        let v = self.valid[pos];
        self.include(v);
        let convex = self.dfg.is_convex(&self.members);
        let ports_ok = !self.port_bound
            || (self.inputs <= self.ports.max_inputs
                && self.outputs <= self.ports.max_outputs + self.slack_after[pos + 1]);
        if convex && ports_ok {
            self.recurse(pos + 1);
        }
        self.undo(v);
        // Branch 2: exclude.
        self.recurse(pos + 1);
    }

    fn leaf(&mut self) {
        if self.chosen.len() < self.min_size {
            return;
        }
        if self.inputs <= self.ports.max_inputs && self.outputs <= self.ports.max_outputs {
            // Every include passed a convexity check and excludes don't
            // change the set, so the leaf set is convex by construction.
            debug_assert!(self.dfg.is_convex(&self.members));
            #[cfg(debug_assertions)]
            {
                let cand = Candidate::from_nodes(self.f, self.dfg, self.key, self.chosen.clone());
                debug_assert_eq!(cand.inputs, self.inputs, "incremental input count drifted");
                debug_assert_eq!(
                    cand.outputs, self.outputs,
                    "incremental output count drifted"
                );
            }
            self.best.push(self.chosen.clone());
        }
    }

    /// Adds `v` to the member set, updating I/O counts. `v`'s consumers all
    /// lie at later positions, so none is a member yet: `v` is an output
    /// exactly if it escapes or has any same-block consumer.
    fn include(&mut self, v: u32) {
        let dfg = self.dfg;
        let vi = v as usize;
        for &p in &dfg.nodes[vi].preds {
            let pi = p as usize;
            if !self.members[pi] {
                continue;
            }
            self.member_succs[pi] += 1;
            let fully_absorbed =
                !dfg.nodes[pi].escapes && self.member_succs[pi] == dfg.nodes[pi].succs.len() as u32;
            if fully_absorbed {
                self.outputs -= 1;
            }
        }
        self.members[vi] = true;
        self.chosen.push(v);
        debug_assert_eq!(self.member_succs[vi], 0);
        if dfg.nodes[vi].escapes || !dfg.nodes[vi].succs.is_empty() {
            self.outputs += 1;
        }
        let inst = self.f.inst(dfg.nodes[vi].inst);
        for op in inst.operands() {
            if let Some(k) = self.external_key(op) {
                let cnt = self.input_refs.entry(k).or_insert(0);
                *cnt += 1;
                if *cnt == 1 {
                    self.inputs += 1;
                }
            }
        }
    }

    /// Exact inverse of [`Self::include`]. Nodes are undone in LIFO order,
    /// so `v`'s consumers have already been removed when `v` is.
    fn undo(&mut self, v: u32) {
        let dfg = self.dfg;
        let vi = v as usize;
        let inst = self.f.inst(dfg.nodes[vi].inst);
        for op in inst.operands() {
            if let Some(k) = self.external_key(op) {
                let cnt = self.input_refs.get_mut(&k).expect("ref-counted input");
                *cnt -= 1;
                if *cnt == 0 {
                    self.input_refs.remove(&k);
                    self.inputs -= 1;
                }
            }
        }
        debug_assert_eq!(self.member_succs[vi], 0);
        if dfg.nodes[vi].escapes || !dfg.nodes[vi].succs.is_empty() {
            self.outputs -= 1;
        }
        self.members[vi] = false;
        self.chosen.pop();
        for &p in &dfg.nodes[vi].preds {
            let pi = p as usize;
            if !self.members[pi] {
                continue;
            }
            let was_absorbed =
                !dfg.nodes[pi].escapes && self.member_succs[pi] == dfg.nodes[pi].succs.len() as u32;
            if was_absorbed {
                self.outputs += 1;
            }
            self.member_succs[pi] -= 1;
        }
    }

    /// The operand's identity if it is an external value input of the
    /// current member set (`None` for constants and member-internal edges).
    fn external_key(&self, op: Operand) -> Option<OperandKey> {
        match op {
            Operand::Const(_) => None,
            Operand::Arg(i) => Some(OperandKey::Arg(i)),
            Operand::Inst(def) => {
                let from_member = self
                    .node_of
                    .get(&def)
                    .is_some_and(|&idx| self.members[idx as usize]);
                if from_member {
                    None
                } else {
                    Some(OperandKey::Inst(def.0))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_ir::{BlockId, FuncId, FunctionBuilder, Operand as Op, Type};

    fn key() -> BlockKey {
        BlockKey::new(FuncId(0), BlockId(0))
    }

    fn run(f: &Function, ports: PortConstraints, min: usize) -> SingleCutResult {
        let dfg = Dfg::build(f, BlockId(0));
        single_cut(f, &dfg, key(), ports, min)
    }

    /// One producer fanned out to `consumers` escaping consumers: the shape
    /// on which only the (fixed) output bound keeps exploration polynomial.
    fn wide_fanout(consumers: usize) -> Function {
        let mut bld = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        let a = bld.add(Op::Arg(0), Op::Arg(1));
        let sink = bld.alloca(4);
        for i in 0..consumers {
            let c = bld.xor(a, Op::ci32(i as i32));
            bld.store(c, sink);
        }
        bld.ret(a);
        bld.finish()
    }

    #[test]
    fn finds_full_chain_when_ports_allow() {
        let mut bld = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let a = bld.add(Op::Arg(0), Op::ci32(1));
        let b = bld.mul(a, Op::ci32(3));
        let c = bld.xor(b, Op::ci32(7));
        bld.ret(c);
        let f = bld.finish();
        let res = run(&f, PortConstraints::default(), 2);
        // The maximal cut is the whole chain.
        assert!(res.candidates.iter().any(|c| c.len() == 3));
        assert!(res.explored > 0);
        assert!(!res.cap_hit);
    }

    #[test]
    fn respects_input_constraint() {
        // Node with 5 distinct external inputs cannot fit 4-in ports as a
        // whole.
        let mut bld = FunctionBuilder::new(
            "f",
            vec![Type::I32, Type::I32, Type::I32, Type::I32, Type::I32],
            Type::I32,
        );
        let s1 = bld.add(Op::Arg(0), Op::Arg(1));
        let s2 = bld.add(Op::Arg(2), Op::Arg(3));
        let s3 = bld.add(s1, s2);
        let s4 = bld.add(s3, Op::Arg(4));
        bld.ret(s4);
        let f = bld.finish();
        let res = run(
            &f,
            PortConstraints {
                max_inputs: 4,
                max_outputs: 1,
            },
            2,
        );
        for c in &res.candidates {
            assert!(c.inputs <= 4, "candidate {:?} violates inputs", c.nodes);
        }
        // The full graph (5 inputs) must NOT be a candidate.
        assert!(!res.candidates.iter().any(|c| c.len() == 4));
        // But a 3-node subgraph with 4 inputs is.
        assert!(res.candidates.iter().any(|c| c.len() == 3));
    }

    #[test]
    fn all_candidates_convex_and_feasible() {
        let mut bld = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        let a = bld.add(Op::Arg(0), Op::Arg(1));
        let b = bld.mul(a, a);
        let p = bld.alloca(4);
        bld.store(b, p);
        let v = bld.load(Type::I32, p);
        let c = bld.xor(v, a);
        let d = bld.sub(c, b);
        bld.ret(d);
        let f = bld.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let res = run(&f, PortConstraints::default(), 1);
        let forbidden = mask(&dfg);
        for c in &res.candidates {
            assert!(c.is_convex(&dfg));
            assert!(c.inputs <= 4 && c.outputs <= 2);
            assert!(c.nodes.iter().all(|&n| !forbidden[n as usize]));
        }
    }

    #[test]
    fn exploration_grows_with_block_size() {
        // Independent dead nodes: every subset is convex with zero outputs,
        // so neither convexity nor the port bound can prune and the search
        // space is the full 2^n. (On chain graphs pruning cuts exploration
        // to polynomial — also asserted.)
        let build_independent = |n: usize| {
            let mut bld = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
            for i in 0..n {
                let _ = bld.xor(Op::Arg(0), Op::ci32(i as i32));
            }
            bld.ret(Op::Arg(0));
            bld.finish()
        };
        let small = run(&build_independent(6), PortConstraints::default(), 2).explored;
        let large = run(&build_independent(12), PortConstraints::default(), 2).explored;
        assert!(
            large > small * 16,
            "exponential growth expected: {small} -> {large}"
        );

        // Chain graphs: convexity + port pruning keeps exploration far
        // below the exponential upper bound.
        let build_chain = |n: usize| {
            let mut bld = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
            let mut v = bld.add(Op::Arg(0), Op::ci32(1));
            for i in 0..n {
                v = if i % 2 == 0 {
                    bld.mul(v, Op::ci32(3))
                } else {
                    bld.xor(v, Op::ci32(5))
                };
            }
            bld.ret(v);
            bld.finish()
        };
        let chain = run(&build_chain(12), PortConstraints::default(), 2).explored;
        assert!(
            chain < large / 2,
            "convexity pruning must beat the unprunable case: {chain} vs {large}"
        );
    }

    #[test]
    fn maximality_filter_removes_subsets() {
        let mut bld = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let a = bld.add(Op::Arg(0), Op::ci32(1));
        let b = bld.mul(a, Op::ci32(2));
        bld.ret(b);
        let f = bld.finish();
        let res = run(&f, PortConstraints::default(), 1);
        // {a}, {b} are subsets of {a,b}; only maximal {a,b} (and any
        // non-nested sets) survive.
        assert!(res.candidates.iter().any(|c| c.len() == 2));
        for c in &res.candidates {
            if c.len() == 1 {
                // A singleton may only survive if it is not contained in a
                // larger candidate — here both are contained.
                panic!("non-maximal singleton {:?} survived", c.nodes);
            }
        }
    }

    /// The headline regression: with the old (vacuously true) output
    /// bound, a wide fan-out block drives the enumeration through the
    /// exploration cap before it ever backtracks far enough to reach a
    /// feasible leaf — every maximal cut is silently lost. The fixed bound
    /// prunes infeasible-output branches immediately and finds them all
    /// within a tiny fraction of the same budget.
    #[test]
    fn old_bound_loses_maximal_cut_to_the_cap() {
        let f = wide_fanout(16);
        let dfg = Dfg::build(&f, BlockId(0));
        let ports = PortConstraints::default();
        let cap = 50_000; // 2^18 unpruned subsets >> cap >> pruned search

        let old = single_cut_with(&f, &dfg, key(), ports, 2, false, cap);
        assert!(old.cap_hit, "old bound must blow through the cap");
        assert!(
            old.candidates.is_empty(),
            "old bound reached no feasible leaf before the cap: {:?}",
            old.candidates.iter().map(|c| &c.nodes).collect::<Vec<_>>()
        );

        let fixed = single_cut_with(&f, &dfg, key(), ports, 2, true, cap);
        assert!(!fixed.cap_hit, "fixed bound stays under the same cap");
        // {producer, consumer} pairs are the maximal 2-output cuts.
        assert!(
            fixed
                .candidates
                .iter()
                .any(|c| c.nodes.contains(&0) && c.len() == 2),
            "fixed bound must recover the maximal producer/consumer cut"
        );
        assert!(fixed.explored < old.explored);
    }

    /// Bound on vs off must agree on the candidates whenever neither hits
    /// the cap — the bound only skips subtrees that cannot contain a
    /// feasible leaf.
    #[test]
    fn bound_only_prunes_infeasible_subtrees() {
        let f = wide_fanout(8);
        let dfg = Dfg::build(&f, BlockId(0));
        let ports = PortConstraints::default();
        let with = single_cut_with(&f, &dfg, key(), ports, 2, true, u64::MAX);
        let without = single_cut_with(&f, &dfg, key(), ports, 2, false, u64::MAX);
        assert!(!with.cap_hit && !without.cap_hit);
        let nodes = |r: &SingleCutResult| {
            let mut v: Vec<Vec<u32>> = r.candidates.iter().map(|c| c.nodes.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(nodes(&with), nodes(&without));
        assert!(with.explored <= without.explored);
    }

    #[test]
    fn cap_hit_is_reported_not_silent() {
        let f = wide_fanout(12);
        let dfg = Dfg::build(&f, BlockId(0));
        let res = single_cut_with(&f, &dfg, key(), PortConstraints::default(), 2, false, 100);
        assert!(res.cap_hit);
        assert_eq!(res.explored, 101, "counts stop right past the cap");
    }
}
