//! Property tests for the VM: interpreter determinism, profile/cycle
//! accounting consistency, memory round-trips, and the coverage
//! classifier's algebraic properties.

use jitise_ir::{CmpOp, FunctionBuilder, Module, Operand as Op, Type};
use jitise_vm::cost::cycles_to_time;
use jitise_vm::coverage::{classify, CoverageClass};
use jitise_vm::kernel::kernel;
use jitise_vm::{BlockKey, Interpreter, Profile, Value};
use proptest::prelude::*;

fn looped_module(ops: &[(u8, i32)]) -> Module {
    let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
    let cell = b.alloca(4);
    b.store(Op::ci32(3), cell);
    b.counted_loop("i", Op::ci32(0), Op::Arg(0), |b, i| {
        let mut v = b.load(Type::I32, cell);
        v = b.xor(v, i);
        for &(sel, k) in ops {
            let kc = Op::ci32(k);
            v = match sel % 6 {
                0 => b.add(v, kc),
                1 => b.sub(v, kc),
                2 => b.mul(v, kc),
                3 => b.and(v, Op::ci32(k | 0x3f)),
                4 => b.or(v, kc),
                _ => {
                    let c = b.cmp(CmpOp::Slt, v, kc);
                    b.select(c, kc, v)
                }
            };
        }
        b.store(v, cell);
    });
    let out = b.load(Type::I32, cell);
    b.ret(out);
    let mut m = Module::new("p");
    m.add_func(b.finish());
    m
}

fn run(m: &Module, n: i64) -> (Option<Value>, u64, Profile) {
    let mut vm = Interpreter::new(m);
    let out = vm.run("main", &[Value::I(n)]).expect("runs");
    let p = vm.take_profile();
    (out.ret, out.cycles, p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn interpreter_is_deterministic(
        ops in prop::collection::vec((0u8..6, -30i32..30), 1..12),
        n in 0i64..60,
    ) {
        let m = looped_module(&ops);
        let (r1, c1, _) = run(&m, n);
        let (r2, c2, _) = run(&m, n);
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(c1, c2);
    }

    #[test]
    fn profile_cycles_match_execution_cycles(
        ops in prop::collection::vec((0u8..6, -30i32..30), 1..12),
        n in 0i64..60,
    ) {
        let m = looped_module(&ops);
        let (_, cycles, profile) = run(&m, n);
        prop_assert_eq!(profile.total_cycles(), cycles);
        // Block counts: header executes n+1 times, body n times.
        let header = profile.count(BlockKey::new(jitise_ir::FuncId(0), jitise_ir::BlockId(1)));
        let body = profile.count(BlockKey::new(jitise_ir::FuncId(0), jitise_ir::BlockId(2)));
        prop_assert_eq!(header, body + 1);
        prop_assert_eq!(body, n as u64);
    }

    #[test]
    fn more_iterations_cost_more(
        ops in prop::collection::vec((0u8..6, -30i32..30), 1..8),
        n in 1i64..40,
    ) {
        let m = looped_module(&ops);
        let (_, c_small, _) = run(&m, n);
        let (_, c_big, _) = run(&m, n * 2);
        prop_assert!(c_big > c_small);
    }

    #[test]
    fn coverage_partition_and_live_detection(
        ops in prop::collection::vec((0u8..6, -30i32..30), 1..8),
        n in 2i64..40,
    ) {
        let m = looped_module(&ops);
        let (_, _, p1) = run(&m, n);
        let (_, _, p2) = run(&m, n + 1);
        let report = classify(&m, &[p1, p2]);
        let total = report.live_frac + report.dead_frac + report.const_frac;
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Loop body varies with input -> live.
        prop_assert_eq!(
            report.class_of(BlockKey::new(jitise_ir::FuncId(0), jitise_ir::BlockId(2))),
            CoverageClass::Live
        );
    }

    #[test]
    fn kernel_threshold_monotone(
        ops in prop::collection::vec((0u8..6, -30i32..30), 1..8),
        n in 5i64..60,
    ) {
        let m = looped_module(&ops);
        let (_, _, p) = run(&m, n);
        let k50 = kernel(&m, &p, 0.5);
        let k90 = kernel(&m, &p, 0.9);
        prop_assert!(k90.kernel_insts >= k50.kernel_insts);
        prop_assert!(k90.time_frac >= 0.9);
        prop_assert!(k90.time_frac >= k50.time_frac);
    }

    #[test]
    fn scaled_profiles_preserve_time_ratios(
        ops in prop::collection::vec((0u8..6, -30i32..30), 1..8),
        n in 1i64..40,
        factor in 2u64..50,
    ) {
        let m = looped_module(&ops);
        let (_, _, p) = run(&m, n);
        let s = p.scaled(factor);
        prop_assert_eq!(s.total_cycles(), p.total_cycles() * factor);
        prop_assert_eq!(s.total_insts(), p.total_insts() * factor);
        // Time conversion truncates to whole nanoseconds, so the scaled
        // time may differ from the naive product by up to `factor` ns.
        let scaled_ns = cycles_to_time(s.total_cycles()).as_nanos();
        let naive_ns = cycles_to_time(p.total_cycles()).as_nanos() * factor;
        prop_assert!(scaled_ns.abs_diff(naive_ns) <= factor);
    }
}
