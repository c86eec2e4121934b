//! Shared test fixtures for the jitise-core test modules.

use jitise_ir::{FunctionBuilder, Module, Operand as Op, Type};

/// A module with one hot, multiply-heavy counted loop — the canonical
/// specialization target used across the pipeline and runtime tests.
pub fn hot_module() -> Module {
    let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
    let cell = b.alloca(4);
    b.store(Op::ci32(1), cell);
    b.counted_loop("i", Op::ci32(0), Op::Arg(0), |b, i| {
        let acc = b.load(Type::I32, cell);
        let x = b.mul(acc, i);
        let y = b.mul(x, Op::ci32(3));
        let z = b.add(y, i);
        let w = b.xor(z, Op::ci32(0x5a));
        b.store(w, cell);
    });
    let out = b.load(Type::I32, cell);
    b.ret(out);
    let mut m = Module::new("hot");
    m.add_func(b.finish());
    m
}
