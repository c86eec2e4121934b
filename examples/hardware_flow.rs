//! Hardware flow walkthrough: follow one custom-instruction candidate all
//! the way from IR to configuration bitstream — datapath VHDL, netlist
//! extraction, top-level synthesis, placement, routing, timing, bitgen —
//! printing the artifacts at every stage (paper Fig. 2, phases 2 and 3).
//!
//! Run with: `cargo run --release --example hardware_flow`

use jitise::cad::{run_flow, Fabric, FlowOptions};
use jitise::ir::{BlockId, Dfg, FuncId, FunctionBuilder, Operand as Op, Type};
use jitise::ise::maxmiso;
use jitise::pivpav::{create_project, CircuitDb, NetlistCache};
use jitise::vm::BlockKey;

fn main() {
    // A small fixed-point filter kernel: y = clamp((a*13 + b*7) >> 4 ^ b).
    let mut b = FunctionBuilder::new("kernel", vec![Type::I32, Type::I32], Type::I32);
    let m1 = b.mul(Op::Arg(0), Op::ci32(13));
    let m2 = b.mul(Op::Arg(1), Op::ci32(7));
    let s = b.add(m1, m2);
    let sh = b.ashr(s, Op::ci32(4));
    let x = b.xor(sh, Op::Arg(1));
    b.ret(x);
    let f = b.finish();
    println!(
        "--- candidate source ---\n{}",
        jitise::ir::printer::print_function(&f)
    );

    let dfg = Dfg::build(&f, BlockId(0));
    let cand = maxmiso(&f, &dfg, BlockKey::new(FuncId(0), BlockId(0)), 2)
        .candidates
        .remove(0);
    println!(
        "MAXMISO candidate: {} ops, {} inputs, {} output(s), signature {:016x}",
        cand.len(),
        cand.inputs,
        cand.outputs,
        cand.signature(&f, &dfg)
    );

    // Phase 2: Netlist Generation (PivPav).
    let db = CircuitDb::build();
    let cache = NetlistCache::new();
    let (project, c2v) = create_project(&db, &cache, &f, &dfg, &cand).expect("project");
    println!("\n--- generated structural VHDL ---\n{}", project.vhdl_text);
    println!(
        "C2V: generate {} + extract {} + project {} = {}",
        c2v.generate_vhdl,
        c2v.extract_netlists,
        c2v.create_project,
        c2v.total()
    );
    println!(
        "component netlists: {} (total {} cells)",
        project.netlists.len(),
        project
            .netlists
            .iter()
            .map(|n| n.cells.len())
            .sum::<usize>()
    );

    // Phase 3: Instruction Implementation (FPGA CAD flow).
    let fabric = Fabric::pr_region();
    let report = run_flow(&fabric, &project, &FlowOptions::default()).expect("flow");
    println!("\n--- tool-flow report ---");
    println!("syntax     {}", report.syntax);
    println!(
        "xst        {}  (flattened to {} slices)",
        report.xst, report.slices
    );
    println!("translate  {}", report.translate);
    println!(
        "map        {}  (complexity {:.0})",
        report.map, report.complexity
    );
    println!(
        "par        {}  (wirelength {} hops)",
        report.par, report.wirelength
    );
    println!("bitgen     {}", report.bitgen);
    println!("total      {}", report.total());
    println!(
        "timing: critical path {:.2} ns -> fmax {:.0} MHz (meets 300 MHz CPU clock: {})",
        report.timing.critical_path_ns, report.timing.fmax_mhz, report.timing.meets_300mhz
    );
    println!(
        "bitstream: {} bytes in {} frames, CRC {:08x}, verifies: {}",
        report.bitstream.len(),
        report.bitstream.frames,
        report.bitstream.crc,
        report.bitstream.verify()
    );
}
