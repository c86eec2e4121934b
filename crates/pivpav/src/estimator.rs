//! Database-backed candidate estimator.
//!
//! Implements [`jitise_ise::Estimator`] using the circuit database's
//! measured per-core delays and areas instead of the closed-form formulas
//! of the default estimator. This is the estimator the paper's tool flow
//! uses: "The estimation data are computed by our PivPav tool" (§III).

use crate::db::CircuitDb;
use jitise_ir::{Dfg, Function};
use jitise_ise::{Candidate, CandidateEstimate, Estimator};
use jitise_vm::CostModel;

/// PivPav estimator: software side from the CPU cost model, hardware side
/// from database core metrics along the candidate's critical path.
#[derive(Debug)]
pub struct PivPavEstimator {
    /// The circuit database.
    pub db: CircuitDb,
    /// Base CPU model.
    pub cost: CostModel,
    /// CI clock period (ns).
    pub ci_period_ns: f64,
    /// FCB/APU invocation overhead in cycles.
    pub invoke_overhead: u64,
}

impl PivPavEstimator {
    /// Estimator with the default database and Woolcano parameters.
    pub fn new() -> Self {
        Self::with_db(CircuitDb::build())
    }

    /// Estimator over `db` with the default Woolcano parameters.
    pub fn with_db(db: CircuitDb) -> Self {
        PivPavEstimator {
            db,
            cost: CostModel::ppc405(),
            ci_period_ns: 1e9 / 300e6,
            invoke_overhead: 3,
        }
    }
}

impl Default for PivPavEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl Estimator for PivPavEstimator {
    fn estimate(
        &self,
        f: &Function,
        dfg: &Dfg,
        cand: &Candidate,
        exec_count: u64,
    ) -> CandidateEstimate {
        let sw_cycles: u64 = cand
            .insts
            .iter()
            .map(|&iid| self.cost.inst_cycles(&f.inst(iid).kind))
            .sum();

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
            // Database lookup; forbidden opcodes never appear in candidates
            // so a miss is a bug worth surfacing loudly in debug builds.
            let (delay, l, ff, d) = match self.db.lookup(node.opcode, node.ty) {
                Some(core) => (
                    core.metrics.delay_ns,
                    core.metrics.luts,
                    core.metrics.ffs,
                    core.metrics.dsps,
                ),
                None => {
                    debug_assert!(false, "no core for {:?}", node.opcode);
                    (1_000.0, 10_000, 10_000, 100)
                }
            };
            arrival[i] = input_arrival + delay;
            critical = critical.max(arrival[i]);
            luts += l;
            ffs += ff;
            dsps += d;
        }
        let hw_cycles = (critical / self.ci_period_ns).ceil() as u64 + self.invoke_overhead;

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
    use jitise_ir::{BlockId, FuncId, FunctionBuilder, Operand as Op, Type};
    use jitise_ise::{DepthEstimator, ForbiddenPolicy};
    use jitise_vm::BlockKey;

    fn mul_chain() -> (Function, Dfg, Candidate) {
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        let x = b.mul(Op::Arg(0), Op::Arg(1));
        let y = b.mul(x, Op::Arg(0));
        let z = b.add(y, Op::ci32(5));
        b.ret(z);
        let f = b.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let c = jitise_ise::maxmiso(
            &f,
            &dfg,
            BlockKey::new(FuncId(0), BlockId(0)),
            &ForbiddenPolicy::default(),
            2,
        )
        .candidates
        .remove(0);
        (f, dfg, c)
    }

    #[test]
    fn estimates_profitable_mul_chain() {
        let est = PivPavEstimator::new();
        let (f, dfg, c) = mul_chain();
        let e = est.estimate(&f, &dfg, &c, 100);
        assert!(e.is_profitable(), "{e:?}");
        assert!(e.dsps >= 2);
        assert_eq!(e.exec_count, 100);
    }

    #[test]
    fn agrees_in_shape_with_depth_estimator() {
        // Same candidate: the two estimators may differ in constants but
        // must agree on profitability ordering for mul chains vs single
        // adds.
        let (f, dfg, c) = mul_chain();
        let db_est = PivPavEstimator::new().estimate(&f, &dfg, &c, 10);
        let formula_est = DepthEstimator::default().estimate(&f, &dfg, &c, 10);
        assert_eq!(db_est.sw_cycles, formula_est.sw_cycles);
        assert!(db_est.is_profitable() == formula_est.is_profitable());
    }

    #[test]
    fn hw_latency_respects_critical_path() {
        // A wide-but-shallow candidate must have lower hw latency than a
        // deep chain of the same operators.
        let est = PivPavEstimator::new();

        let mut b = FunctionBuilder::new("deep", vec![Type::I32], Type::I32);
        let mut v = b.mul(Op::Arg(0), Op::Arg(0));
        for _ in 0..3 {
            v = b.mul(v, Op::Arg(0));
        }
        b.ret(v);
        let fd = b.finish();
        let dfgd = Dfg::build(&fd, BlockId(0));
        let cd = Candidate::from_nodes(
            &fd,
            &dfgd,
            BlockKey::new(FuncId(0), BlockId(0)),
            (0..4).collect(),
        );

        let mut b = FunctionBuilder::new("wide", vec![Type::I32, Type::I32], Type::I32);
        let a = b.mul(Op::Arg(0), Op::Arg(1));
        let c = b.mul(Op::Arg(0), Op::Arg(0));
        let d = b.mul(Op::Arg(1), Op::Arg(1));
        let e = b.add(a, c);
        let g = b.add(e, d);
        b.ret(g);
        let fw = b.finish();
        let dfgw = Dfg::build(&fw, BlockId(0));
        let cw = Candidate::from_nodes(
            &fw,
            &dfgw,
            BlockKey::new(FuncId(0), BlockId(0)),
            (0..5).collect(),
        );

        let deep = est.estimate(&fd, &dfgd, &cd, 1);
        let wide = est.estimate(&fw, &dfgw, &cw, 1);
        assert!(
            wide.hw_cycles < deep.hw_cycles,
            "wide {} vs deep {}",
            wide.hw_cycles,
            deep.hw_cycles
        );
    }
}
