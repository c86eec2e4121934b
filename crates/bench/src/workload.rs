//! Seeded, deterministic workload builders for the `bench` search topic.
//!
//! The shape IS the config: `BENCH_search.json` records the knob values,
//! so the gate refuses to compare different shapes.

use jitise_ir::{FunctionBuilder, Module, Operand as Op, Type};
use jitise_vm::{Interpreter, Profile, Value};

/// A module with `loops` hot loops, each a ~14-op feasible body: enough
/// blocks for search-worker lanes to matter and enough per-block
/// enumeration for the identification memo to matter.
pub fn search_module(loops: i32) -> Module {
    let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
    let cell = b.alloca(4);
    b.store(Op::ci32(1), cell);
    for k in 0..loops {
        b.counted_loop(&format!("i{k}"), Op::ci32(0), Op::Arg(0), |b, i| {
            let acc = b.load(Type::I32, cell);
            let x = b.mul(acc, i);
            let y = b.mul(x, Op::ci32(3 + k));
            let z = b.add(y, i);
            let s = b.sub(z, Op::ci32(k));
            let t = b.xor(s, Op::ci32(0x5a ^ k));
            let u = b.and(t, Op::ci32(0xffff));
            let v = b.or(u, Op::ci32(1));
            let w = b.shl(v, Op::ci32(1));
            let q = b.add(w, x);
            let r = b.xor(q, z);
            let e = b.add(r, s);
            let g = b.mul(e, Op::ci32(7));
            let h = b.xor(g, i);
            b.store(h, cell);
        });
    }
    let out = b.load(Type::I32, cell);
    b.ret(out);
    let mut m = Module::new("searchbench");
    m.add_func(b.finish());
    m
}

/// Profiles [`search_module`] by interpreting `iters` loop iterations.
pub fn search_profile(m: &Module, iters: i64) -> Profile {
    let mut vm = Interpreter::new(m);
    vm.run("main", &[Value::I(iters)]).unwrap();
    vm.take_profile()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_module_scales_with_loops() {
        let small = search_module(2);
        let large = search_module(6);
        assert!(large.num_blocks() > small.num_blocks());
        assert!(large.num_insts() > small.num_insts());
    }

    #[test]
    fn search_profile_sees_hot_blocks() {
        let m = search_module(2);
        let p = search_profile(&m, 50);
        assert!(
            !p.hottest_blocks().is_empty(),
            "loop bodies must register as hot"
        );
    }
}
