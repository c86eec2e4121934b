//! Property-based cross-crate equivalence tests:
//!
//! * the `-O3` pass pipeline preserves interpreter results on randomized
//!   programs;
//! * MAXMISO invariants hold on randomized data-flow graphs;
//! * freezing + patching a candidate preserves program results under the
//!   Woolcano custom-instruction handler, and a patched run on a real
//!   `Woolcano` is tier-identical in outcome, error string and LRU state
//!   (the fast tier runs bound, lowered CIs; the interpreter calls per CI).

use jitise::ir::passes::{optimize_function, OptLevel};
use jitise::ir::{
    BinOp, BlockId, CmpOp, Dfg, FuncId, FunctionBuilder, Module, Operand as Op, Type,
};
use jitise::ise::{maxmiso, ForbiddenPolicy};
use jitise::vm::{
    BlockKey, CostModel, CustomHandler, ExecOutcome, Interpreter, RunConfig, Value, VmTier,
};
use jitise::woolcano::{freeze_and_patch, Woolcano};
use jitise_store::testfix::tiny_bitstream;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A recipe for one random straight-line+loop integer program.
#[derive(Debug, Clone)]
struct ProgramRecipe {
    ops: Vec<(u8, i32)>,
    loop_iters: u8,
}

fn recipe_strategy() -> impl Strategy<Value = ProgramRecipe> {
    (prop::collection::vec((0u8..7, -50i32..50), 1..24), 1u8..12)
        .prop_map(|(ops, loop_iters)| ProgramRecipe { ops, loop_iters })
}

/// Builds a module from a recipe. The program folds a value through the
/// op sequence inside a counted loop, with a memory cell in the middle so
/// DCE/CSE have real work without removing everything.
fn build(recipe: &ProgramRecipe) -> Module {
    let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
    let cell = b.alloca(4);
    b.store(Op::ci32(17), cell);
    b.counted_loop(
        "i",
        Op::ci32(0),
        Op::ci32(recipe.loop_iters as i32),
        |b, i| {
            let mut v = b.load(Type::I32, cell);
            v = b.add(v, i);
            for &(op, k) in &recipe.ops {
                let kc = Op::ci32(k);
                v = match op {
                    0 => b.add(v, kc),
                    1 => b.sub(v, kc),
                    2 => b.mul(v, kc),
                    3 => b.xor(v, kc),
                    4 => b.and(v, Op::ci32(k | 0xff)),
                    5 => b.or(v, kc),
                    _ => {
                        let c = b.cmp(CmpOp::Slt, v, kc);
                        b.select(c, kc, v)
                    }
                };
                // Sprinkle folding material.
                v = b.add(v, Op::ci32(0));
            }
            b.store(v, cell);
        },
    );
    let out = b.load(Type::I32, cell);
    b.ret(out);
    let mut m = Module::new("prop");
    m.add_func(b.finish());
    m
}

fn run_module(m: &Module, arg: i64) -> Option<Value> {
    let mut vm = Interpreter::new(m);
    vm.run("main", &[Value::I(arg)]).expect("program runs").ret
}

/// The largest single-output MAXMISO candidate of function 0.
fn largest_candidate(m: &Module) -> Option<(BlockId, jitise::ise::Candidate)> {
    let f = m.func(FuncId(0));
    let mut best: Option<(BlockId, jitise::ise::Candidate)> = None;
    for bid in f.block_ids() {
        let dfg = Dfg::build(f, bid);
        for c in maxmiso(
            f,
            &dfg,
            BlockKey::new(FuncId(0), bid),
            &ForbiddenPolicy::default(),
            2,
        )
        .candidates
        {
            if c.outputs == 1
                && best
                    .as_ref()
                    .map(|(_, b)| c.len() > b.len())
                    .unwrap_or(true)
            {
                best = Some((bid, c));
            }
        }
    }
    best
}

/// What a patched run leaves behind: its outcome (or error string) and the
/// machine's LRU state (`clock`, per-slot `last_use`).
type PatchedRun = (Result<ExecOutcome, String>, (u64, Vec<Option<u64>>));

/// Runs `patched` on `tier` against a fresh 4-slot `Woolcano` loaded by
/// `install` (which installs the CI the patch references in slot 0).
fn run_on_woolcano(
    patched: &Module,
    tier: VmTier,
    arg: i64,
    install: &dyn Fn(&Woolcano),
) -> PatchedRun {
    let machine = Woolcano::new(4);
    install(&machine);
    let mut vm = Interpreter::new(patched);
    vm.set_tier(tier);
    vm.set_custom_handler(&machine);
    let out = vm.run("main", &[Value::I(arg)]).map_err(|e| e.to_string());
    (out, machine.lru_state())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn o3_preserves_program_results(recipe in recipe_strategy(), arg in -100i64..100) {
        let base = build(&recipe);
        let mut optimized = base.clone();
        jitise::ir::passes::optimize_module(&mut optimized, OptLevel::O3);
        jitise::ir::verify::verify_module(&optimized).expect("optimized module verifies");
        prop_assert_eq!(run_module(&base, arg), run_module(&optimized, arg));
        // O3 never grows the program.
        prop_assert!(optimized.num_insts() <= base.num_insts());
    }

    #[test]
    fn maxmiso_invariants_on_random_blocks(recipe in recipe_strategy()) {
        let m = build(&recipe);
        let f = m.func(FuncId(0));
        for bid in f.block_ids() {
            let dfg = Dfg::build(f, bid);
            let policy = ForbiddenPolicy::default();
            let result = maxmiso(f, &dfg, BlockKey::new(FuncId(0), bid), &policy, 1);
            let forbidden = policy.mask(&dfg);
            let mut covered = vec![0u32; dfg.len()];
            for cand in &result.candidates {
                prop_assert_eq!(cand.outputs, 1, "single output");
                prop_assert!(cand.is_convex(&dfg), "convex");
                for &n in &cand.nodes {
                    prop_assert!(!forbidden[n as usize], "no forbidden nodes");
                    covered[n as usize] += 1;
                }
            }
            for (i, &c) in covered.iter().enumerate() {
                prop_assert!(c <= 1, "node {} in {} MISOs", i, c);
                if !forbidden[i] {
                    prop_assert_eq!(c, 1, "valid node {} uncovered", i);
                }
            }
        }
    }

    #[test]
    fn patching_preserves_results(recipe in recipe_strategy(), arg in -100i64..100) {
        let base = build(&recipe);
        let mut patched = base.clone();
        // Find the largest candidate anywhere and patch it.
        let f0 = patched.func(FuncId(0)).clone();
        let best = largest_candidate(&patched);
        prop_assume!(best.is_some());
        let (bid, cand) = best.unwrap();
        let dfg = Dfg::build(&f0, bid);
        let (sem, _) = freeze_and_patch(patched.func_mut(FuncId(0)), &dfg, &cand, 0)
            .expect("patch");
        jitise::ir::verify::verify_module(&patched).expect("patched verifies");

        struct H(jitise::woolcano::CiSemantics);
        impl CustomHandler for H {
            fn exec_custom(&self, _s: u32, args: &[Value]) -> jitise::base::Result<(Value, u64)> {
                Ok((self.0.eval(args)?, 1))
            }
        }
        let h = H(sem);
        let mut vm = Interpreter::new(&patched);
        vm.set_custom_handler(&h);
        let got = vm.run("main", &[Value::I(arg)]).expect("patched runs").ret;
        prop_assert_eq!(run_module(&base, arg), got.clone());

        // On a real Woolcano both tiers leave the same outcome and the
        // same LRU state; the slot is touched once per executed CI.
        let install = |m: &Woolcano| {
            let slot = m.install(&f0, &dfg, &cand, 2, tiny_bitstream(1)).expect("install");
            assert_eq!(slot, 0, "the patch references slot 0");
        };
        let interp = run_on_woolcano(&patched, VmTier::Interp, arg, &install);
        let fast = run_on_woolcano(&patched, VmTier::Fast, arg, &install);
        prop_assert_eq!(&interp, &fast);
        let out = interp.0.expect("patched runs on the machine");
        prop_assert_eq!(out.ret, got);
        prop_assert!(interp.1 .0 > 1, "the patched loop executed its CI");
    }

    #[test]
    fn optimizer_is_idempotent(recipe in recipe_strategy()) {
        let mut m = build(&recipe);
        jitise::ir::passes::optimize_module(&mut m, OptLevel::O3);
        let once = m.clone();
        let reports = jitise::ir::passes::optimize_module(&mut m, OptLevel::O3);
        // A second run must converge immediately (no oscillation).
        for r in &reports {
            prop_assert!(r.iterations <= 2, "second O3 run iterated {}", r.iterations);
        }
        prop_assert_eq!(m.num_insts(), once.num_insts());
    }
}

// ---------------------------------------------------------------------------
// Fast-tier differential suite: the pre-decoded dispatch tier must be
// bit-identical to the reference interpreter in results, cycles, steps,
// per-block profiles, and error strings — on success paths AND on traps
// (division by zero, fuel exhaustion, out-of-bounds memory).
// ---------------------------------------------------------------------------

/// A control-flow-heavy module exercising everything the fast tier decodes
/// specially: a cross-function call, a switch with duplicate case targets,
/// selects (including an f64 round-trip), loop phis, and memory traffic.
/// `oob` routes the switch default through an out-of-bounds load.
fn build_tiered(recipe: &ProgramRecipe, oob: bool) -> Module {
    let mut m = Module::new("tiered");

    let mut h = FunctionBuilder::new("helper", vec![Type::I64], Type::I64);
    let x = Op::Arg(0);
    let t = h.mul(x, Op::ci64(3));
    let t = h.add(t, Op::ci64(7));
    let t = h.xor(t, x);
    h.ret(t);
    let helper = m.add_func(h.finish());

    let mut b = FunctionBuilder::new("main", vec![Type::I64], Type::I64);
    let arg = Op::Arg(0);
    let cell = b.alloca(8);
    b.store(Op::ci64(17), cell);
    let c0 = b.new_block("case.call");
    let c1 = b.new_block("case.select");
    let cdiv = b.new_block("case.div");
    let cdef = b.new_block("default");
    let join = b.new_block("join");
    // Cases 1 and 2 share a target: the decoder must dedup the edge.
    b.switch(arg, vec![(0, c0), (1, c1), (2, c1), (3, cdiv)], cdef);

    b.switch_to(c0);
    let x0 = b.call(helper, vec![arg], Type::I64);
    b.br(join);

    b.switch_to(c1);
    let cnd = b.cmp(CmpOp::Slt, arg, Op::ci64(2));
    let s = b.select(cnd, Op::ci64(5), arg);
    let f = b.sitofp(arg, Type::F64);
    let g = b.fmul(f, Op::cf64(1.5));
    let xi = b.fptosi(g, Type::I64);
    let x1 = b.add(s, xi);
    b.br(join);

    b.switch_to(cdiv);
    // Traps with "division by zero" when the selector is exactly 3.
    let d = b.sub(arg, Op::ci64(3));
    let x2 = b.sdiv(Op::ci64(100), d);
    b.br(join);

    b.switch_to(cdef);
    let x3 = if oob {
        // 8 MiB past a 1 MiB stack: an out-of-bounds load.
        let wild = b.gep(cell, Op::ci64(1 << 20), 8);
        b.load(Type::I64, wild)
    } else {
        b.srem(arg, Op::ci64(7))
    };
    b.br(join);

    b.switch_to(join);
    let merged = b.phi(Type::I64);
    b.add_incoming(merged, c0, x0);
    b.add_incoming(merged, c1, x1);
    b.add_incoming(merged, cdiv, x2);
    b.add_incoming(merged, cdef, x3);
    let cell2 = b.alloca(4);
    b.store(Op::ci32(17), cell2);
    b.counted_loop(
        "i",
        Op::ci32(0),
        Op::ci32(recipe.loop_iters as i32),
        |b, i| {
            let mut v = b.load(Type::I32, cell2);
            v = b.add(v, i);
            for &(op, k) in &recipe.ops {
                let kc = Op::ci32(k);
                v = match op {
                    0 => b.add(v, kc),
                    1 => b.sub(v, kc),
                    2 => b.mul(v, kc),
                    3 => b.xor(v, kc),
                    4 => b.and(v, Op::ci32(k | 0xff)),
                    5 => b.or(v, kc),
                    _ => {
                        let c = b.cmp(CmpOp::Slt, v, kc);
                        b.select(c, kc, v)
                    }
                };
            }
            b.store(v, cell2);
        },
    );
    let folded = b.load(Type::I32, cell2);
    let folded = b.sext(folded, Type::I64);
    let out = b.add(folded, merged);
    b.ret(out);
    m.add_func(b.finish());
    m
}

/// Runs `main` on both tiers and asserts every observable agrees:
/// `Ok` outcomes compare `ret`/`cycles`/`steps`, `Err` outcomes compare
/// the exact error string, and per-block profiles must be equal either way.
fn assert_tiers_agree(m: &Module, args: &[Value], max_steps: u64) -> Result<(), TestCaseError> {
    let run = |tier: VmTier| {
        let cfg = RunConfig {
            max_steps,
            ..RunConfig::default()
        };
        let mut vm = Interpreter::with_config(m, CostModel::ppc405(), cfg);
        vm.set_tier(tier);
        let r = vm.run("main", args).map_err(|e| e.to_string());
        (r, vm.take_profile())
    };
    let (ri, pi) = run(VmTier::Interp);
    let (rf, pf) = run(VmTier::Fast);
    prop_assert_eq!(ri, rf, "outcome diverged between tiers");
    prop_assert_eq!(pi, pf, "profile diverged between tiers");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fast_tier_matches_interpreter(
        recipe in recipe_strategy(),
        sel in -4i64..8,
        fuel in any::<bool>(),
        oob in any::<bool>(),
    ) {
        let m = build_tiered(&recipe, oob);
        jitise::ir::verify::verify_module(&m).expect("tiered module verifies");
        // A tiny budget trips "step budget ... exhausted" mid-loop; the
        // trap point and the partial profile must agree across tiers.
        let max_steps = if fuel { 120 } else { RunConfig::default().max_steps };
        assert_tiers_agree(&m, &[Value::I(sel)], max_steps)?;

        // The optimized module reshapes blocks and phis; the tiers must
        // still agree on it.
        let mut o = m.clone();
        jitise::ir::passes::optimize_module(&mut o, OptLevel::O3);
        assert_tiers_agree(&o, &[Value::I(sel)], max_steps)?;
    }
}

/// A CI that divides by `5 - i` inside a loop traps at `i = 5`. Both tiers
/// must report the same error and leave the same LRU state: the five
/// calls before the trap are retired (clock 1 + 5), the trapping call and
/// an installed but never called slot are not.
#[test]
fn patched_trap_is_tier_identical() {
    let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
    let cell = b.alloca(4);
    b.store(Op::ci32(7), cell);
    b.counted_loop("i", Op::ci32(0), Op::Arg(0), |b, i| {
        let v = b.load(Type::I32, cell);
        let d = b.sub(Op::ci32(5), i);
        let q = b.sdiv(Op::ci32(1000), d);
        let u = b.add(q, v);
        let w = b.xor(u, Op::ci32(0x55));
        b.store(w, cell);
    });
    let out = b.load(Type::I32, cell);
    b.ret(out);
    let mut base = Module::new("trap");
    base.add_func(b.finish());

    let mut patched = base.clone();
    let f0 = patched.func(FuncId(0)).clone();
    let (bid, cand) = largest_candidate(&patched).expect("loop-body candidate");
    let dfg = Dfg::build(&f0, bid);
    assert!(cand.len() >= 3, "the division sits inside the CI");
    freeze_and_patch(patched.func_mut(FuncId(0)), &dfg, &cand, 0).expect("patch");

    // A second CI in slot 1 that the module never calls.
    let mut d = FunctionBuilder::new("decoy", vec![Type::I32], Type::I32);
    let x = d.mul(Op::Arg(0), Op::ci32(3));
    let y = d.add(x, Op::ci32(1));
    d.ret(y);
    let mut decoy = Module::new("decoy");
    decoy.add_func(d.finish());
    let (dbid, dcand) = largest_candidate(&decoy).expect("decoy candidate");
    let ddfg = Dfg::build(decoy.func(FuncId(0)), dbid);

    let install = |m: &Woolcano| {
        assert_eq!(
            m.install(&f0, &dfg, &cand, 2, tiny_bitstream(1)).unwrap(),
            0
        );
        let df = decoy.func(FuncId(0));
        assert_eq!(
            m.install(df, &ddfg, &dcand, 2, tiny_bitstream(2)).unwrap(),
            1
        );
    };
    for n in [3i64, 9] {
        let interp = run_on_woolcano(&patched, VmTier::Interp, n, &install);
        let fast = run_on_woolcano(&patched, VmTier::Fast, n, &install);
        assert_eq!(interp, fast, "n = {n}");
        let calls = n.min(5) as u64;
        let last_use = vec![Some(2 + calls), Some(2), None, None];
        assert_eq!(interp.1, (2 + calls, last_use), "n = {n}");
        if n > 5 {
            let err = interp.0.unwrap_err();
            assert!(
                err.contains("division by zero in custom instruction"),
                "{err}"
            );
        } else {
            assert_eq!(interp.0.unwrap().ret, run_module(&base, n));
        }
    }
}

#[test]
fn tier_trap_sanity() {
    // One deterministic instance per trap class, debuggable without
    // proptest shrinking.
    let recipe = ProgramRecipe {
        ops: vec![(0, 3), (2, 5)],
        loop_iters: 5,
    };
    let full = RunConfig::default().max_steps;
    let m = build_tiered(&recipe, false);
    for sel in [-4, 0, 1, 2, 5] {
        assert_tiers_agree(&m, &[Value::I(sel)], full).unwrap();
    }
    // Division by zero (selector 3), fuel exhaustion, out-of-bounds load.
    assert_tiers_agree(&m, &[Value::I(3)], full).unwrap();
    assert_tiers_agree(&m, &[Value::I(0)], 40).unwrap();
    let moob = build_tiered(&recipe, true);
    assert_tiers_agree(&moob, &[Value::I(6)], full).unwrap();
}

#[test]
fn sanity_fixed_program() {
    // One deterministic instance to keep failures debuggable without
    // proptest shrinking.
    let recipe = ProgramRecipe {
        ops: vec![(0, 3), (2, 5), (3, 9), (6, 20)],
        loop_iters: 7,
    };
    let base = build(&recipe);
    let mut optimized = base.clone();
    let f = optimized.func_mut(FuncId(0));
    optimize_function(f, OptLevel::O3);
    assert_eq!(run_module(&base, 5), run_module(&optimized, 5));
    // Quieten the unused-import lint for BinOp, used only in debug paths.
    let _ = BinOp::Add;
}
