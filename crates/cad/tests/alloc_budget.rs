//! Allocation guard for the fixed host cost of a CAD job and a VM start.
//!
//! A counting global allocator tallies the heap allocations (`alloc`,
//! `alloc_zeroed` and `realloc`) that one `run_flow` on a fixed seeded
//! core and one `Interpreter::new` on a fixed module make on the calling
//! thread. The counts are exact for a given build of the code, so a return
//! of per-net or per-tile `Vec`s in place, route or `check_connected`, or of
//! an up-front zero-filled VM stack, fails here on any machine.

use jitise_cad::{run_flow, Fabric, FlowOptions};
use jitise_ir::{BlockId, Dfg, FuncId, FunctionBuilder, Global, Module, Operand as Op, Type};
use jitise_pivpav::{create_project, CadProject, CircuitDb, NetlistCache};
use jitise_vm::{BlockKey, Interpreter, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// bookkeeping touches only `const`-initialized thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`; returns its result, the allocations it made on this thread
/// and the size of the largest one.
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, usize) {
    let before = ALLOCS.with(Cell::get);
    LARGEST.with(|l| l.set(0));
    let out = f();
    (
        out,
        ALLOCS.with(Cell::get) - before,
        LARGEST.with(Cell::get),
    )
}

/// The CAD project of a fixed 9-operation datapath (adds, logic, shifts
/// and two multiplies, so the core uses DSP sites): 352 cells on 358 nets
/// after top-level synthesis.
fn fixed_core() -> CadProject {
    let mut b = FunctionBuilder::new("core", vec![Type::I32, Type::I32], Type::I32);
    let s = b.add(Op::Arg(0), Op::Arg(1));
    let x = b.xor(s, Op::ci32(0x5a5a));
    let m = b.mul(x, Op::Arg(1));
    let h = b.lshr(m, Op::ci32(3));
    let a = b.and(h, Op::ci32(0x0fff));
    let d = b.sub(a, Op::Arg(0));
    let o = b.or(d, s);
    let q = b.mul(o, o);
    let t = b.shl(q, Op::ci32(2));
    b.ret(t);
    let f = b.finish();
    let dfg = Dfg::build(&f, BlockId(0));
    let cand = jitise_ise::maxmiso(&f, &dfg, BlockKey::new(FuncId(0), BlockId(0)), 2)
        .candidates
        .remove(0);
    let db = CircuitDb::build();
    let cache = NetlistCache::new();
    create_project(&db, &cache, &f, &dfg, &cand)
        .expect("project builds")
        .0
}

/// A module with an initialized global table and a function that stores
/// to the stack and reads the table back.
fn fixed_module() -> Module {
    let mut m = Module::new("alloc");
    let table = m.add_global(Global::of_i32("table", &[3, 1, 4, 1, 5, 9, 2, 6]));
    let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
    let cell = b.alloca(4);
    b.store(Op::Arg(0), cell);
    let base = b.global_addr(table);
    let at = b.gep(base, Op::ci32(5), 4);
    let entry = b.load(Type::I32, at);
    let arg = b.load(Type::I32, cell);
    let sum = b.add(entry, arg);
    b.ret(sum);
    m.add_func(b.finish());
    m
}

/// Allocations one CAD job may make. With packed net, terminal, column
/// and adjacency tables this core takes 922 (synthesis 392, place 26,
/// route 471, `check_connected` 9, bitgen 19); with a `Vec` per net, per
/// cell and per tile it took 4,522.
const CAD_JOB_BUDGET: u64 = 1_000;

/// Allocations `Interpreter::new` may make, and the largest one. The VM's
/// memory starts as its initialized globals (4,128 bytes here) and grows
/// on first touch, so no allocation comes near the 1 MiB stack it used to
/// zero up front.
const VM_START_BUDGET: u64 = 4;
const VM_START_LARGEST: usize = 64 << 10;

#[test]
fn cad_job_and_vm_start_stay_within_their_allocation_budgets() {
    let fabric = Fabric::pr_region();
    let project = fixed_core();
    let opts = FlowOptions::fast();
    let (report, cad_allocs, _) = measure(|| run_flow(&fabric, &project, &opts));
    let report = report.expect("the fixed core implements");
    assert!(report.bitstream.verify());
    println!("cad job: {cad_allocs} allocations");

    let module = fixed_module();
    let (mut vm, vm_allocs, vm_largest) = measure(|| Interpreter::new(&module));
    println!("vm start: {vm_allocs} allocations, largest {vm_largest} bytes");
    let out = vm.run("main", &[Value::I(10)]).expect("module runs");
    assert_eq!(out.ret, Some(Value::I(19)));

    assert!(
        cad_allocs <= CAD_JOB_BUDGET,
        "one CAD job made {cad_allocs} allocations, budget {CAD_JOB_BUDGET}"
    );
    assert!(
        vm_allocs <= VM_START_BUDGET,
        "Interpreter::new made {vm_allocs} allocations, budget {VM_START_BUDGET}"
    );
    assert!(
        vm_largest <= VM_START_LARGEST,
        "Interpreter::new made a {vm_largest}-byte allocation, limit {VM_START_LARGEST}"
    );
}
