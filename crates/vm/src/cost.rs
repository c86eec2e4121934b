//! PowerPC-405 cycle-cost model.
//!
//! Woolcano's base CPU is the PowerPC 405 hard core embedded in the Xilinx
//! Virtex-4 FX (§I). The PPC405 is a simple 5-stage in-order scalar core:
//! most integer operations are single-cycle, multiplies take a few cycles,
//! divides are long-latency, and there is **no hardware FPU** — floating
//! point is software-emulated. The per-opcode costs below follow the
//! PPC405 user manual's latencies for the integer core and typical
//! soft-float library costs for floating point (tens to hundreds of
//! cycles — the asymmetry behind the paper's float-kernel speedups).
//!
//! The same cost table is what the PivPav estimator uses for the *software*
//! side of its HW/SW comparison, so estimation and measurement are
//! consistent by construction (as they are in the paper, where both derive
//! from profiling data).

use jitise_base::SimTime;
use jitise_ir::{BinOp, ExtFunc, InstKind, Opcode, UnOp};

/// Core clock of the PPC405 in the Virtex-4 FX100 (speed grade -10).
pub const PPC405_CLOCK_HZ: u64 = 300_000_000;

/// Period of one custom-instruction cycle in ns. Woolcano clocks its CIs
/// with the CPU clock, so 300 MHz gives 3.33 ns.
pub const CI_PERIOD_NS: f64 = 1e9 / PPC405_CLOCK_HZ as f64;

/// Cycles to issue a custom instruction and read back its result over
/// Woolcano's FCB interface (§II).
pub const FCB_OVERHEAD_CYCLES: u64 = 3;

/// Cycles for one dynamic instruction.
pub fn inst_cycles(kind: &InstKind) -> u64 {
    match kind {
        InstKind::Bin(op, ..) => match op {
            BinOp::Add | BinOp::Sub | BinOp::And | BinOp::Or | BinOp::Xor => 1,
            BinOp::Shl | BinOp::LShr | BinOp::AShr => 1,
            BinOp::Mul => 4,
            BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem => 35,
            // The PPC405 has NO hardware FPU: floating point is
            // software-emulated (integer sequences), which is precisely
            // why float kernels gain so much from hardware CIs in the
            // paper (whetstone: 17.78x ceiling).
            BinOp::FAdd | BinOp::FSub => 40,
            BinOp::FMul => 45,
            BinOp::FDiv => 150,
        },
        InstKind::Un(op, ..) => match op {
            UnOp::Neg | UnOp::Not => 1,
            UnOp::Trunc | UnOp::ZExt | UnOp::SExt => 1,
            UnOp::FNeg => 8,
            UnOp::FpToSi | UnOp::SiToFp => 30,
            UnOp::FpExt | UnOp::FpTrunc => 15,
        },
        InstKind::Cmp(op, ..) => {
            if op.is_float() {
                25
            } else {
                1
            }
        }
        InstKind::Select(..) => 2,
        // Cache-hit latencies; the PPC405 D-cache is 2-cycle load-use.
        InstKind::Load(..) => 2,
        InstKind::Store(..) => 2,
        InstKind::Gep { .. } => 1,
        InstKind::Alloca(..) => 2,
        InstKind::GlobalAddr(..) => 1,
        // Call overhead (prologue/epilogue, link register).
        InstKind::Call(..) => 8,
        InstKind::CallExt(ef, ..) => ext_cycles(*ef),
        // Phis are resolved at block entry; charge the move.
        InstKind::Phi(..) => 1,
        // Custom instruction cost is charged by the CustomHandler, not
        // here; the base cost is the FCB/APU issue overhead.
        InstKind::Custom(..) => 0,
    }
}

/// Cycles for a libm call on this core (soft-float polynomial evaluation
/// on an integer-only CPU — hundreds of cycles each).
pub fn ext_cycles(f: ExtFunc) -> u64 {
    match f {
        ExtFunc::Fabs | ExtFunc::Floor => 20,
        ExtFunc::Sqrt => 250,
        ExtFunc::Sin | ExtFunc::Cos => 600,
        ExtFunc::Atan => 700,
        ExtFunc::Exp | ExtFunc::Log => 500,
        ExtFunc::Pow => 900,
    }
}

/// Cycles charged per taken control-flow transfer (branch resolution in
/// the PPC405 pipeline).
pub const fn branch_cycles() -> u64 {
    2
}

/// Software cycles for the flat opcode, used by the ISE estimator when
/// pricing a candidate's software execution. Uses representative
/// instances of each opcode class.
pub fn opcode_cycles(op: Opcode) -> u64 {
    use jitise_ir::Operand;
    let dummy = Operand::ci32(0);
    let kind = match op {
        Opcode::Bin(b) => InstKind::Bin(b, dummy, dummy),
        Opcode::Un(u) => InstKind::Un(u, dummy),
        Opcode::Cmp(c) => InstKind::Cmp(c, dummy, dummy),
        Opcode::Select => InstKind::Select(dummy, dummy, dummy),
        Opcode::Load => InstKind::Load(dummy),
        Opcode::Store => InstKind::Store(dummy, dummy),
        Opcode::Gep => InstKind::Gep {
            base: dummy,
            index: dummy,
            elem_bytes: 4,
        },
        Opcode::Alloca => InstKind::Alloca(4),
        Opcode::GlobalAddr => InstKind::GlobalAddr(jitise_ir::GlobalId(0)),
        Opcode::Call => InstKind::Call(jitise_ir::FuncId(0), vec![]),
        Opcode::CallExt => InstKind::CallExt(ExtFunc::Sqrt, vec![]),
        Opcode::Phi => InstKind::Phi(vec![]),
        Opcode::Custom => InstKind::Custom(0, vec![]),
    };
    inst_cycles(&kind)
}

/// Converts a cycle count to simulated time at the PPC405 clock.
pub fn cycles_to_time(cycles: u64) -> SimTime {
    // ns = cycles * 1e9 / hz, computed in u128 to avoid overflow.
    let ns = (cycles as u128 * 1_000_000_000u128) / PPC405_CLOCK_HZ as u128;
    SimTime::from_nanos(ns as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_ir::Operand;

    #[test]
    fn relative_costs_sane() {
        let cycles = |op| inst_cycles(&InstKind::Bin(op, Operand::ci32(0), Operand::ci32(0)));
        let (add, mul, div) = (cycles(BinOp::Add), cycles(BinOp::Mul), cycles(BinOp::SDiv));
        assert!(add < mul && mul < div, "add < mul < div must hold");
        let fdiv = inst_cycles(&InstKind::Bin(
            BinOp::FDiv,
            Operand::cf64(0.0),
            Operand::cf64(0.0),
        ));
        assert!(fdiv > mul);
    }

    #[test]
    fn cycles_to_time_at_300mhz() {
        // 300 cycles at 300 MHz = 1 µs.
        assert_eq!(cycles_to_time(300), SimTime::from_micros(1));
        // 3e8 cycles = 1 s.
        assert_eq!(cycles_to_time(300_000_000), SimTime::from_secs(1));
        assert_eq!(CI_PERIOD_NS, 1e9 / 300e6);
    }

    #[test]
    fn ext_costs_ordered() {
        assert!(ext_cycles(ExtFunc::Fabs) < ext_cycles(ExtFunc::Sqrt));
        assert!(ext_cycles(ExtFunc::Sqrt) < ext_cycles(ExtFunc::Pow));
    }

    #[test]
    fn opcode_cycles_covers_all_classes() {
        for op in [
            Opcode::Select,
            Opcode::Load,
            Opcode::Store,
            Opcode::Gep,
            Opcode::Alloca,
            Opcode::GlobalAddr,
            Opcode::Call,
            Opcode::CallExt,
            Opcode::Phi,
        ] {
            // Must not panic and must be bounded.
            assert!(opcode_cycles(op) <= 1_000);
        }
        assert_eq!(opcode_cycles(Opcode::Custom), 0);
    }
}
