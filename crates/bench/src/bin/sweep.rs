//! Reproduces the **in-text §V-C candidate-complexity sweep**: mapping
//! times of 40–456 s, place-and-route times of 56–728 s, a PAR/map ratio
//! growing from 1.4× (small candidates) to 2.5× (large/complex ones), and
//! the near-constant bitgen time.
//!
//! Usage: `cargo run --release -p jitise-bench --bin sweep`

use jitise_base::table::{fnum, TextTable};
use jitise_cad::{run_flow, Fabric, FlowOptions};
use jitise_core::EvalContext;
use jitise_ir::{BlockId, Dfg, FuncId, FunctionBuilder, Operand as Op, Type};
use jitise_ise::Candidate;
use jitise_pivpav::create_project;
use jitise_vm::BlockKey;

/// Builds a candidate of `n` operations with the given operator mix.
fn candidate_of(n: usize, heavy: bool) -> (jitise_ir::Function, Dfg, Candidate) {
    let mut b = FunctionBuilder::new("sweep", vec![Type::I32, Type::I32], Type::I32);
    let mut v = b.add(Op::Arg(0), Op::Arg(1));
    for i in 1..n {
        v = if heavy {
            match i % 3 {
                0 => b.mul(v, Op::Arg(0)),
                1 => b.sdiv(v, Op::ci32(7)),
                _ => b.mul(v, Op::ci32(3)),
            }
        } else {
            match i % 3 {
                0 => b.add(v, Op::Arg(1)),
                1 => b.xor(v, Op::ci32(0x55)),
                _ => b.shl(v, Op::ci32(1)),
            }
        };
    }
    b.ret(v);
    let f = b.finish();
    let dfg = Dfg::build(&f, BlockId(0));
    let cand = jitise_ise::maxmiso(&f, &dfg, BlockKey::new(FuncId(0), BlockId(0)), 2)
        .candidates
        .remove(0);
    (f, dfg, cand)
}

fn main() {
    println!("=== §V-C sweep: map / PAR runtimes vs candidate complexity ===\n");
    let ctx = EvalContext::new();
    let fabric = Fabric::pr_region();

    let mut t = TextTable::new(vec![
        "candidate",
        "ops",
        "complexity",
        "map[s]",
        "par[s]",
        "par/map",
        "bitgen[s]",
        "fmax[MHz]",
    ]);
    let mut min_map = f64::MAX;
    let mut max_map: f64 = 0.0;
    let mut min_par = f64::MAX;
    let mut max_par: f64 = 0.0;
    let mut min_ratio = f64::MAX;
    let mut max_ratio: f64 = 0.0;

    let shapes: Vec<(String, usize, bool)> = vec![
        ("tiny-logic".into(), 3, false),
        ("small-logic".into(), 6, false),
        ("medium-logic".into(), 12, false),
        ("large-logic".into(), 24, false),
        ("small-arith".into(), 4, true),
        ("medium-arith".into(), 8, true),
        ("large-arith".into(), 16, true),
        ("huge-arith".into(), 28, true),
    ];
    for (name, ops, heavy) in shapes {
        let (f, dfg, cand) = candidate_of(ops, heavy);
        let (project, _) = create_project(&ctx.db, &ctx.netlists, &f, &dfg, &cand).unwrap();
        let r = run_flow(&fabric, &project, &FlowOptions::fast()).unwrap();
        let map_s = r.map.as_secs_f64();
        let par_s = r.par.as_secs_f64();
        let ratio = par_s / map_s;
        min_map = min_map.min(map_s);
        max_map = max_map.max(map_s);
        min_par = min_par.min(par_s);
        max_par = max_par.max(par_s);
        min_ratio = min_ratio.min(ratio);
        max_ratio = max_ratio.max(ratio);
        t.row(vec![
            name,
            ops.to_string(),
            fnum(r.complexity, 0),
            fnum(map_s, 1),
            fnum(par_s, 1),
            fnum(ratio, 2),
            fnum(r.bitgen.as_secs_f64(), 1),
            fnum(r.timing.fmax_mhz, 0),
        ]);
    }
    println!("{}", t.render());

    println!("\n--- paper vs measured ranges ---");
    let mut pt = TextTable::new(vec!["quantity", "paper", "measured"]);
    pt.row(vec![
        "map range [s]".to_string(),
        "40 - 456".to_string(),
        format!("{:.0} - {:.0}", min_map, max_map),
    ]);
    pt.row(vec![
        "PAR range [s]".to_string(),
        "56 - 728".to_string(),
        format!("{:.0} - {:.0}", min_par, max_par),
    ]);
    pt.row(vec![
        "PAR/map ratio".to_string(),
        "1.4 - 2.5".to_string(),
        format!("{:.2} - {:.2}", min_ratio, max_ratio),
    ]);
    println!("{}", pt.render());
}
