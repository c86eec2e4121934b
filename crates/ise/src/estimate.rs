//! Candidate performance estimation.
//!
//! "The estimation data are computed by our PivPav tool and they represent
//! the performance difference for every candidate when executed in software
//! or in hardware" (§III). This module defines the estimator interface and
//! a self-contained default implementation; the `jitise-pivpav` crate
//! provides the database-backed estimator with full area/power metrics.

use crate::candidate::Candidate;
use jitise_ir::{BinOp, Dfg, Function, Opcode, UnOp};
use jitise_vm::cost::{inst_cycles, CI_PERIOD_NS, FCB_OVERHEAD_CYCLES};

/// Hardware/software cost estimate for one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateEstimate {
    /// Software cycles per execution on the base CPU.
    pub sw_cycles: u64,
    /// Hardware cycles per execution as a custom instruction, including
    /// the CI invocation overhead.
    pub hw_cycles: u64,
    /// Block executions observed in the profile.
    pub exec_count: u64,
    /// Estimated LUT cost.
    pub luts: u32,
    /// Estimated flip-flop cost.
    pub ffs: u32,
    /// Estimated DSP-slice cost.
    pub dsps: u32,
}

impl CandidateEstimate {
    /// Cycles saved per execution (0 if hardware is slower).
    pub fn saved_per_exec(&self) -> u64 {
        self.sw_cycles.saturating_sub(self.hw_cycles)
    }

    /// Total cycles saved over the profiled run — the selection *merit*.
    pub fn merit(&self) -> u64 {
        self.saved_per_exec() * self.exec_count
    }

    /// Local speedup of the candidate region.
    pub fn local_speedup(&self) -> f64 {
        if self.hw_cycles == 0 {
            return self.sw_cycles as f64;
        }
        self.sw_cycles as f64 / self.hw_cycles as f64
    }

    /// True if hardware beats software for this candidate.
    pub fn is_profitable(&self) -> bool {
        self.hw_cycles < self.sw_cycles
    }
}

/// Estimates the HW/SW cost of candidates.
///
/// `Sync` because the search driver fans estimation out across worker
/// lanes that share one `&dyn Estimator`.
pub trait Estimator: Sync {
    /// Produces an estimate; `exec_count` is the profiled execution
    /// frequency of the candidate's block.
    fn estimate(
        &self,
        f: &Function,
        dfg: &Dfg,
        cand: &Candidate,
        exec_count: u64,
    ) -> CandidateEstimate;
}

/// Combinational delay (ns) of one operator instance on a Virtex-4-class
/// fabric. These figures follow the scaling of typical synthesized cores:
/// a ripple/carry-chain 32-bit adder ≈ 2.5 ns, wide multipliers a few ns
/// through DSP48 cascades, dividers tens of ns (usually pipelined).
pub fn hw_delay_ns(op: Opcode, bits: u32) -> f64 {
    let w = bits.max(1) as f64;
    match op {
        Opcode::Bin(b) => match b {
            BinOp::Add | BinOp::Sub => 1.2 + 0.04 * w,
            BinOp::And | BinOp::Or | BinOp::Xor => 0.6,
            BinOp::Shl | BinOp::LShr | BinOp::AShr => 1.0 + 0.015 * w, // barrel shifter
            BinOp::Mul => 2.8 + 0.05 * w,                              // DSP48 path
            BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem => 8.0 + 0.5 * w,
            BinOp::FAdd | BinOp::FSub => 6.0 + 0.02 * w,
            BinOp::FMul => 7.0 + 0.03 * w,
            BinOp::FDiv => 18.0 + 0.2 * w,
        },
        Opcode::Un(u) => match u {
            UnOp::Neg => 1.2 + 0.04 * w,
            UnOp::Not => 0.4,
            UnOp::Trunc | UnOp::ZExt | UnOp::SExt => 0.0, // wiring only
            UnOp::FNeg => 0.4,                            // sign-bit flip
            UnOp::FpToSi | UnOp::SiToFp => 5.0,
            UnOp::FpExt | UnOp::FpTrunc => 2.0,
        },
        Opcode::Cmp(c) => {
            if c.is_float() {
                4.0
            } else {
                1.0 + 0.03 * w
            }
        }
        Opcode::Select => 0.8, // LUT mux
        // Forbidden classes never reach the estimator, but return a large
        // sentinel instead of panicking so exploratory callers survive.
        _ => 1_000.0,
    }
}

/// Rough LUT/FF/DSP cost of one operator instance.
pub fn hw_area(op: Opcode, bits: u32) -> (u32, u32, u32) {
    let w = bits.max(1);
    match op {
        Opcode::Bin(b) => match b {
            BinOp::Add | BinOp::Sub => (w, 0, 0),
            BinOp::And | BinOp::Or | BinOp::Xor => (w / 2 + 1, 0, 0),
            BinOp::Shl | BinOp::LShr | BinOp::AShr => (w * 3, 0, 0),
            BinOp::Mul => (w / 2, 0, (w / 17 + 1).max(1)),
            BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem => (w * w / 4 + 8, w, 0),
            BinOp::FAdd | BinOp::FSub => (350, 120, 0),
            BinOp::FMul => (150, 100, 4),
            BinOp::FDiv => (700, 300, 0),
        },
        Opcode::Un(u) => match u {
            UnOp::Neg => (w, 0, 0),
            UnOp::Not => (w / 2 + 1, 0, 0),
            UnOp::Trunc | UnOp::ZExt | UnOp::SExt => (0, 0, 0),
            UnOp::FNeg => (1, 0, 0),
            UnOp::FpToSi | UnOp::SiToFp => (200, 60, 0),
            UnOp::FpExt | UnOp::FpTrunc => (60, 20, 0),
        },
        Opcode::Cmp(c) => {
            if c.is_float() {
                (120, 0, 0)
            } else {
                (w / 2 + 2, 0, 0)
            }
        }
        Opcode::Select => (w, 0, 0),
        _ => (10_000, 10_000, 100),
    }
}

/// A database-free estimator: hardware latency is the DFG critical path
/// through [`hw_delay_ns`] clocked at [`CI_PERIOD_NS`], plus a fixed
/// invocation overhead; software cost comes from the PPC405
/// [`inst_cycles`].
#[derive(Debug, Clone)]
pub struct DepthEstimator {
    /// Fixed cycles to issue a CI and retrieve results over the FCB/APU
    /// interface ([`FCB_OVERHEAD_CYCLES`] by default; the design-space
    /// example sweeps it).
    pub invoke_overhead: u64,
}

impl Default for DepthEstimator {
    fn default() -> Self {
        DepthEstimator {
            invoke_overhead: FCB_OVERHEAD_CYCLES,
        }
    }
}

impl Estimator for DepthEstimator {
    fn estimate(
        &self,
        f: &Function,
        dfg: &Dfg,
        cand: &Candidate,
        exec_count: u64,
    ) -> CandidateEstimate {
        // Software: straight-line cost of the member instructions.
        let sw_cycles: u64 = cand
            .insts
            .iter()
            .map(|&iid| inst_cycles(&f.inst(iid).kind))
            .sum();

        // Hardware: longest delay path through the member nodes.
        let member = cand.mask(dfg);
        let mut arrival = vec![0.0f64; dfg.len()];
        let mut critical: f64 = 0.0;
        let (mut luts, mut ffs, mut dsps) = (0u32, 0u32, 0u32);
        for (i, node) in dfg.nodes.iter().enumerate() {
            if !member[i] {
                continue;
            }
            let input_arrival = node
                .preds
                .iter()
                .filter(|&&p| member[p as usize])
                .map(|&p| arrival[p as usize])
                .fold(0.0, f64::max);
            let delay = hw_delay_ns(node.opcode, node.ty.bits());
            arrival[i] = input_arrival + delay;
            critical = critical.max(arrival[i]);
            let (l, ff, d) = hw_area(node.opcode, node.ty.bits());
            luts += l;
            ffs += ff;
            dsps += d;
        }
        let hw_cycles = (critical / CI_PERIOD_NS).ceil() as u64 + self.invoke_overhead;

        CandidateEstimate {
            sw_cycles,
            hw_cycles,
            exec_count,
            luts,
            ffs,
            dsps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_ir::{BlockId, CmpOp, FuncId, FunctionBuilder, Operand as Op, Type};
    use jitise_vm::BlockKey;

    fn estimate_of(build: impl FnOnce(&mut FunctionBuilder)) -> CandidateEstimate {
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        build(&mut b);
        let f = b.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let nodes: Vec<u32> = (0..dfg.len() as u32).collect();
        let cand = Candidate::from_nodes(&f, &dfg, BlockKey::new(FuncId(0), BlockId(0)), nodes);
        DepthEstimator::default().estimate(&f, &dfg, &cand, 1000)
    }

    #[test]
    fn parallel_graph_beats_serial_in_hw() {
        // Serial: 4 dependent adds. Parallel: 4 independent adds + tree.
        let serial = estimate_of(|b| {
            let mut v = b.add(Op::Arg(0), Op::Arg(1));
            for _ in 0..3 {
                v = b.add(v, Op::Arg(1));
            }
            b.ret(v);
        });
        let parallel = estimate_of(|b| {
            let a = b.add(Op::Arg(0), Op::Arg(1));
            let c = b.add(Op::Arg(0), Op::ci32(1));
            let d = b.add(Op::Arg(1), Op::ci32(2));
            let e = b.add(Op::Arg(0), Op::ci32(3));
            let x = b.xor(a, c);
            let y = b.xor(d, e);
            let z = b.or(x, y);
            b.ret(z);
        });
        // Same ballpark software cost, but HW favors the parallel shape.
        assert!(parallel.hw_cycles <= serial.hw_cycles + 1);
        assert!(serial.sw_cycles >= 4);
    }

    #[test]
    fn multiplier_chain_is_profitable() {
        // On the PPC405 a mul is 4 cycles; three dependent muls = 12 sw
        // cycles vs a couple of HW cycles + overhead.
        let e = estimate_of(|b| {
            let x = b.mul(Op::Arg(0), Op::Arg(1));
            let y = b.mul(x, Op::Arg(0));
            let z = b.mul(y, Op::Arg(1));
            b.ret(z);
        });
        assert!(e.is_profitable(), "{e:?}");
        assert!(e.merit() > 0);
        assert!(e.local_speedup() > 1.0);
        assert!(e.dsps >= 3, "multipliers consume DSP slices");
    }

    #[test]
    fn single_add_is_not_profitable() {
        // 1 sw cycle vs invocation overhead: hardware loses.
        let e = estimate_of(|b| {
            let x = b.add(Op::Arg(0), Op::Arg(1));
            b.ret(x);
        });
        assert!(!e.is_profitable());
        assert_eq!(e.saved_per_exec(), 0);
        assert_eq!(e.merit(), 0);
    }

    #[test]
    fn area_accumulates() {
        let e = estimate_of(|b| {
            let x = b.add(Op::Arg(0), Op::Arg(1));
            let c = b.cmp(CmpOp::Slt, x, Op::ci32(10));
            let s = b.select(c, x, Op::Arg(1));
            b.ret(s);
        });
        assert!(e.luts > 0);
        assert_eq!(e.dsps, 0);
    }

    #[test]
    fn delay_tables_monotone_in_width() {
        assert!(hw_delay_ns(Opcode::Bin(BinOp::Add), 64) > hw_delay_ns(Opcode::Bin(BinOp::Add), 8));
        let (l64, ..) = hw_area(Opcode::Bin(BinOp::Add), 64);
        let (l8, ..) = hw_area(Opcode::Bin(BinOp::Add), 8);
        assert!(l64 > l8);
    }

    #[test]
    fn exec_count_scales_merit() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        let x = b.mul(Op::Arg(0), Op::Arg(1));
        let y = b.mul(x, x);
        b.ret(y);
        let f = b.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let cand =
            Candidate::from_nodes(&f, &dfg, BlockKey::new(FuncId(0), BlockId(0)), vec![0, 1]);
        let est = DepthEstimator::default();
        let e1 = est.estimate(&f, &dfg, &cand, 10);
        let e2 = est.estimate(&f, &dfg, &cand, 1000);
        assert_eq!(e1.saved_per_exec(), e2.saved_per_exec());
        assert_eq!(e2.merit(), e1.merit() * 100);
    }
}
