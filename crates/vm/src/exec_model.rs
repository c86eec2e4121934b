//! VM-vs-native execution time model.
//!
//! Table I compares each application's runtime on the virtual machine
//! (dynamic translation) against a statically compiled native binary. The
//! paper observes overheads of ~1 % for small embedded applications, ~14 %
//! on average for scientific ones — and, interestingly, *negative* overhead
//! for 179.art and 473.astar, where runtime information let the VM beat
//! static compilation.
//!
//! This module models exactly those effects on top of a measured
//! [`Profile`]:
//!
//! * cold blocks are **interpreted** (per-instruction dispatch cost) until
//!   they reach the hot threshold,
//! * hot blocks are **JIT-compiled** (one-time per-instruction compile
//!   cost) and then run at native speed times a *quality factor* — below
//!   1.0 when runtime information (value profiles, alias freedom) lets the
//!   JIT produce better code than the static compiler.

use crate::cost::cycles_to_time;
use crate::profile::Profile;
use jitise_base::SimTime;
use jitise_ir::Module;

/// Parameters of the dynamic-translation model.
#[derive(Debug, Clone)]
pub struct ExecModel {
    /// Dispatch cycles per interpreted dynamic instruction.
    pub dispatch_cycles: u64,
    /// Block executions before JIT compilation kicks in.
    pub hot_threshold: u64,
    /// One-time compile cycles per static instruction of a hot block.
    pub compile_cycles_per_inst: u64,
    /// Multiplier on native cycles for JIT-compiled code (< 1.0 means the
    /// JIT beats static compilation, as for 179.art in the paper).
    pub jit_quality: f64,
}

impl Default for ExecModel {
    fn default() -> Self {
        ExecModel {
            dispatch_cycles: 12,
            hot_threshold: 50,
            compile_cycles_per_inst: 800,
            jit_quality: 1.0,
        }
    }
}

/// VM / native runtimes and their ratio for one profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecTimes {
    /// Native (statically compiled) runtime.
    pub native: SimTime,
    /// VM (dynamically translated) runtime.
    pub vm: SimTime,
    /// `vm / native` — Table I's `Ratio` column.
    pub ratio: f64,
}

impl ExecModel {
    /// Computes VM and native runtimes from a profile.
    pub fn times(&self, module: &Module, profile: &Profile) -> ExecTimes {
        let native_cycles = profile.total_cycles();

        let mut interp_extra: u128 = 0; // dispatch overhead on cold executions
        let mut compile_extra: u128 = 0; // one-time JIT compilation
        let mut interp_native: u128 = 0; // native-cycle share spent while cold

        for key in profile.keys() {
            let count = profile.count(key);
            let block = module.func(key.func).block(key.block);
            let size = block.len() as u64;
            let cycles = profile.block_cycles(key);
            let cold_execs = count.min(self.hot_threshold);
            interp_extra += (cold_execs * size) as u128 * self.dispatch_cycles as u128;
            if count > self.hot_threshold {
                compile_extra += (size * self.compile_cycles_per_inst) as u128;
                // The cold fraction of this block's native cycles ran at
                // interpreter quality (no JIT bonus/penalty).
                interp_native += (cycles as u128 * cold_execs as u128) / count.max(1) as u128;
            } else {
                interp_native += cycles as u128;
            }
        }

        let hot_native = native_cycles as u128 - interp_native.min(native_cycles as u128);
        let vm_cycles = interp_native as f64
            + hot_native as f64 * self.jit_quality
            + interp_extra as f64
            + compile_extra as f64;

        let native = cycles_to_time(native_cycles);
        let vm = cycles_to_time(vm_cycles.round() as u64);
        ExecTimes {
            native,
            vm,
            ratio: if native_cycles == 0 {
                1.0
            } else {
                vm_cycles / native_cycles as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::BlockKey;
    use jitise_ir::{BlockId, FuncId, FunctionBuilder, Operand as Op, Type};

    fn looped_module_and_profile(iters: u64) -> (Module, Profile) {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        b.counted_loop("i", Op::ci32(0), Op::Arg(0), |b, i| {
            let _ = b.mul(i, i);
        });
        b.ret(Op::ci32(0));
        let mut m = Module::new("t");
        m.add_func(b.finish());
        let mut p = Profile::new();
        p.record(BlockKey::new(FuncId(0), BlockId(0)), 5, 1);
        for _ in 0..iters {
            p.record(BlockKey::new(FuncId(0), BlockId(1)), 4, 2);
            p.record(BlockKey::new(FuncId(0), BlockId(2)), 8, 2);
        }
        (m, p)
    }

    #[test]
    fn hot_code_amortizes_overhead() {
        let model = ExecModel::default();
        let (m, cold) = looped_module_and_profile(10);
        let (_, hot) = looped_module_and_profile(1_000_000);
        let cold_times = model.times(&m, &cold);
        let hot_times = model.times(&m, &hot);
        // Short runs are dominated by interpretation: large ratio.
        assert!(cold_times.ratio > 2.0, "cold ratio {}", cold_times.ratio);
        // Long runs amortize to near 1.0.
        assert!(
            hot_times.ratio < 1.05,
            "hot ratio {} should approach 1",
            hot_times.ratio
        );
        assert!(hot_times.vm >= hot_times.native);
    }

    #[test]
    fn quality_below_one_can_beat_native() {
        let model = ExecModel {
            jit_quality: 0.90,
            ..Default::default()
        };
        let (m, hot) = looped_module_and_profile(1_000_000);
        let t = model.times(&m, &hot);
        assert!(
            t.ratio < 1.0,
            "VM should beat native with quality 0.9, got {}",
            t.ratio
        );
        assert!(t.vm < t.native);
    }

    #[test]
    fn empty_profile_is_neutral() {
        let (m, _) = looped_module_and_profile(1);
        let t = ExecModel::default().times(&m, &Profile::new());
        assert_eq!(t.ratio, 1.0);
        assert_eq!(t.native, SimTime::ZERO);
    }

    #[test]
    fn dispatch_scales_cold_cost() {
        let (m, cold) = looped_module_and_profile(10);
        let slow = ExecModel {
            dispatch_cycles: 40,
            ..Default::default()
        }
        .times(&m, &cold);
        let fast = ExecModel {
            dispatch_cycles: 4,
            ..Default::default()
        }
        .times(&m, &cold);
        assert!(slow.ratio > fast.ratio);
    }
}
