//! The Woolcano reconfigurable ASIP.
//!
//! The architecture model: a PowerPC-405 base core (the VM's cost model)
//! augmented with runtime-reconfigurable custom instructions loaded through
//! the ICAP controller. It implements [`jitise_vm::CustomHandler`], so a
//! patched binary executes on the ordinary interpreter with CI opcodes
//! dispatched to loaded slots — functionally the hardware datapath,
//! cost-wise the implemented design's timing.

use crate::reconfig::ReconfigController;
use crate::semantics::CiSemantics;
use jitise_base::{Error, Result, SimTime};
use jitise_cad::{Bitstream, InstallTier, TimingReport};
use jitise_ir::{Dfg, Function};
use jitise_ise::Candidate;
use jitise_telemetry::{names, Telemetry, Value as TelValue};
use jitise_vm::cost::{CI_PERIOD_NS, FCB_OVERHEAD_CYCLES};
use jitise_vm::{CiBinding, CustomHandler, Value};
use std::sync::Mutex;

/// The Woolcano machine.
///
/// The machine is `Sync`, but it serves one fast-tier run at a time: the
/// run binds the slot file for its whole duration
/// ([`CustomHandler::bind`]), and an install, a per-call CI execution or a
/// second bind before the run's [`CustomHandler::retire`] makes that
/// `retire` panic ("CI slot file changed while a run was bound"), because
/// the run's deferred LRU touches could no longer be ordered. VMs on
/// several threads may share one machine only if they never run while a
/// fast-tier run on it is in progress.
#[derive(Debug)]
pub struct Woolcano {
    /// Reconfiguration controller (interior mutability: the interpreter
    /// holds a shared handler reference).
    controller: Mutex<ReconfigController>,
    /// Observability handle (disabled by default).
    telemetry: Telemetry,
}

impl Woolcano {
    /// A machine with `slots` CI sites.
    pub fn new(slots: usize) -> Woolcano {
        Woolcano::with_telemetry(slots, Telemetry::disabled())
    }

    /// A machine that records `woolcano.install` spans and ICAP counters
    /// (`icap.bytes`, `icap.loads`, `icap.evictions`) to `telemetry`.
    pub fn with_telemetry(slots: usize, telemetry: Telemetry) -> Woolcano {
        Woolcano {
            controller: Mutex::new(ReconfigController::new(slots)),
            telemetry,
        }
    }

    /// Hardware cycles a timing report implies at the base-core clock:
    /// critical path clocked at [`CI_PERIOD_NS`] plus the
    /// [`FCB_OVERHEAD_CYCLES`] interface overhead. A diagnostic view — the
    /// pipeline installs CIs with the PivPav estimator's latency, which is
    /// calibrated to the real cores, whereas the scaled-down stand-in
    /// netlists' STA is only shape-accurate (see DESIGN.md §1).
    pub fn ci_cycles(&self, timing: &TimingReport) -> u64 {
        (timing.critical_path_ns / CI_PERIOD_NS).ceil().max(1.0) as u64 + FCB_OVERHEAD_CYCLES
    }

    /// Loads an implemented candidate into a slot: freezes semantics,
    /// verifies and transfers the bitstream, and returns the slot index.
    /// `hw_cycles` is the CI's execution latency in CPU cycles (interface
    /// overhead included), normally the estimator's `hw_cycles`.
    pub fn install(
        &self,
        f: &Function,
        dfg: &Dfg,
        cand: &Candidate,
        hw_cycles: u64,
        bitstream: Bitstream,
    ) -> Result<u32> {
        self.install_tiered(f, dfg, cand, hw_cycles, bitstream, InstallTier::Full)
    }

    /// [`Self::install`] at an explicit tier: the overlay fast path passes
    /// [`InstallTier::Overlay`] with the assembled descriptor and the
    /// overlay-clock `hw_cycles`; the background upgrade later swaps the
    /// slot via [`Self::upgrade`].
    pub fn install_tiered(
        &self,
        f: &Function,
        dfg: &Dfg,
        cand: &Candidate,
        hw_cycles: u64,
        bitstream: Bitstream,
        tier: InstallTier,
    ) -> Result<u32> {
        let semantics = CiSemantics::freeze(f, dfg, cand)?;
        let signature = cand.signature(f, dfg);
        let mut span = self.telemetry.span("woolcano.install");
        let bytes = bitstream.len() as u64;
        let mut ctl = self.controller.lock().expect("controller lock");
        let (loads0, evictions0, time0) = (ctl.loads, ctl.evictions, ctl.total_reconfig_time);
        let slot = ctl.load_tiered(signature, semantics, hw_cycles, bitstream, tier)?;
        let (loads1, evictions1, time1) = (ctl.loads, ctl.evictions, ctl.total_reconfig_time);
        drop(ctl);
        if self.telemetry.is_enabled() {
            self.telemetry.add(names::ICAP_LOADS, loads1 - loads0);
            self.telemetry
                .add(names::ICAP_EVICTIONS, evictions1 - evictions0);
            if loads1 > loads0 {
                self.telemetry.add(names::ICAP_BYTES, bytes);
            }
            span.set_sim_time(SimTime::from_nanos(time1.as_nanos() - time0.as_nanos()));
            span.field("slot", TelValue::U64(slot as u64));
            span.field("signature", TelValue::U64(signature));
            span.field("tier", TelValue::Str(tier.name().into()));
        }
        Ok(slot)
    }

    /// Atomically upgrades an installed overlay CI to its fully routed
    /// bitstream (CRC-verified before the slot is touched — a corrupt
    /// upgrade leaves the overlay serving). Returns the slot index.
    pub fn upgrade(&self, signature: u64, hw_cycles: u64, bitstream: Bitstream) -> Result<u32> {
        let mut span = self.telemetry.span("woolcano.upgrade");
        let bytes = bitstream.len() as u64;
        let mut ctl = self.controller.lock().expect("controller lock");
        let (upgrades0, time0) = (ctl.upgrades, ctl.total_reconfig_time);
        let slot = ctl.upgrade(signature, hw_cycles, bitstream)?;
        let (upgrades1, time1) = (ctl.upgrades, ctl.total_reconfig_time);
        drop(ctl);
        if self.telemetry.is_enabled() {
            if upgrades1 > upgrades0 {
                self.telemetry
                    .add(names::ICAP_UPGRADES, upgrades1 - upgrades0);
                self.telemetry.add(names::ICAP_BYTES, bytes);
            }
            span.set_sim_time(SimTime::from_nanos(time1.as_nanos() - time0.as_nanos()));
            span.field("slot", TelValue::U64(slot as u64));
            span.field("signature", TelValue::U64(signature));
        }
        Ok(slot)
    }

    /// Slot of an already-loaded CI, by signature.
    pub fn slot_of(&self, signature: u64) -> Option<u32> {
        self.controller.lock().expect("lock").slot_of(signature)
    }

    /// Accumulated reconfiguration time (ICAP transfers).
    pub fn total_reconfig_time(&self) -> SimTime {
        self.controller.lock().expect("lock").total_reconfig_time
    }

    /// `(loads, evictions, occupied, capacity)` of the slot file.
    pub fn slot_stats(&self) -> (u64, u64, usize, usize) {
        let c = self.controller.lock().expect("lock");
        (c.loads, c.evictions, c.occupied(), c.capacity())
    }

    /// The slot file's LRU state (see [`ReconfigController::lru_state`]).
    pub fn lru_state(&self) -> (u64, Vec<Option<u64>>) {
        self.controller.lock().expect("lock").lru_state()
    }
}

impl CustomHandler for Woolcano {
    fn exec_custom(&self, slot: u32, args: &[Value]) -> Result<(Value, u64)> {
        let mut ctl = self.controller.lock().expect("lock");
        let ci = ctl
            .get(slot)
            .ok_or_else(|| Error::Arch(format!("no CI loaded in slot {slot}")))?;
        let value = ci.semantics.eval(args)?;
        let cycles = ci.hw_cycles;
        ctl.touch(slot);
        Ok((value, cycles))
    }

    /// Copies every slot's lowered program and latency under one lock.
    /// One bound run at a time (see [`Woolcano`]).
    fn bind(&self) -> Option<CiBinding> {
        self.controller.lock().expect("lock").bind()
    }

    /// Applies the run's touches under one more lock.
    fn retire(&self, binding: CiBinding) {
        self.controller.lock().expect("lock").retire(binding);
    }
}

/// Measured base-vs-ASIP comparison for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupMeasurement {
    /// Cycles on the unmodified base CPU.
    pub base_cycles: u64,
    /// Cycles on the specialized ASIP.
    pub asip_cycles: u64,
    /// `base / asip`.
    pub speedup: f64,
}

/// Runs `entry(args)` on both the base module and the patched module (the
/// latter with `machine` handling CI opcodes) and reports the measured
/// speedup. Results must agree — a mismatch is an architecture-model bug
/// and returns an error.
pub fn measure_speedup(
    base: &jitise_ir::Module,
    patched: &jitise_ir::Module,
    machine: &Woolcano,
    entry: &str,
    args: &[Value],
) -> Result<SpeedupMeasurement> {
    let mut vm = jitise_vm::Interpreter::new(base);
    let base_out = vm.run(entry, args)?;
    let mut vm2 = jitise_vm::Interpreter::new(patched);
    vm2.set_custom_handler(machine);
    let asip_out = vm2.run(entry, args)?;
    if base_out.ret != asip_out.ret {
        return Err(Error::Arch(format!(
            "specialized binary diverged: base {:?} vs asip {:?}",
            base_out.ret, asip_out.ret
        )));
    }
    Ok(SpeedupMeasurement {
        base_cycles: base_out.cycles,
        asip_cycles: asip_out.cycles,
        speedup: base_out.cycles as f64 / asip_out.cycles.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patch::freeze_and_patch;
    use jitise_ir::{BlockId, FuncId, FunctionBuilder, Module, Operand as Op, Type};
    use jitise_vm::BlockKey;

    /// Build a hot-loop module; return (module, candidate context).
    fn hot_module() -> Module {
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

    fn implement_first_candidate(m: &mut Module, machine: &Woolcano) {
        // Find the multiply-chain candidate in the loop body.
        let f = m.func(FuncId(0)).clone();
        let mut best: Option<(BlockId, Candidate)> = None;
        for bid in f.block_ids() {
            let dfg = Dfg::build(&f, bid);
            for c in jitise_ise::maxmiso(&f, &dfg, BlockKey::new(FuncId(0), bid), 3).candidates {
                if best
                    .as_ref()
                    .map(|(_, b)| c.len() > b.len())
                    .unwrap_or(true)
                {
                    best = Some((bid, c));
                }
            }
        }
        let (bid, cand) = best.expect("candidate in the loop");
        let dfg = Dfg::build(&f, bid);

        // Implement it through the real CAD flow on a real netlist.
        let db = jitise_pivpav::CircuitDb::build();
        let cache = jitise_pivpav::NetlistCache::new();
        let (project, _) = jitise_pivpav::create_project(&db, &cache, &f, &dfg, &cand).unwrap();
        let fabric = jitise_cad::Fabric::pr_region();
        let report =
            jitise_cad::run_flow(&fabric, &project, &jitise_cad::FlowOptions::fast()).unwrap();

        let func = m.func_mut(FuncId(0));
        let (_sem, patch) = freeze_and_patch(func, &dfg, &cand, 0).unwrap();
        // Install with the slot the patcher referenced.
        let hw = machine.ci_cycles(&report.timing).min(8);
        let slot = machine
            .install(&f, &dfg, &cand, hw, report.bitstream)
            .unwrap();
        assert_eq!(slot, patch.slot, "first load lands in slot 0");
    }

    #[test]
    fn end_to_end_speedup_on_hot_loop() {
        let base = hot_module();
        let mut patched = base.clone();
        let machine = Woolcano::new(4);
        implement_first_candidate(&mut patched, &machine);
        let m = measure_speedup(&base, &patched, &machine, "main", &[Value::I(20_000)]).unwrap();
        assert!(
            m.speedup > 1.0,
            "hardware should win: {} vs {} cycles",
            m.base_cycles,
            m.asip_cycles
        );
        let (loads, _, occupied, _) = machine.slot_stats();
        assert_eq!((loads, occupied), (1, 1));
        assert!(machine.total_reconfig_time() > SimTime::ZERO);
    }

    #[test]
    fn results_identical_base_vs_asip() {
        // measure_speedup itself asserts equality; run a few inputs.
        let base = hot_module();
        let mut patched = base.clone();
        let machine = Woolcano::new(4);
        implement_first_candidate(&mut patched, &machine);
        for n in [0i64, 1, 7, 333] {
            measure_speedup(&base, &patched, &machine, "main", &[Value::I(n)]).unwrap();
        }
    }

    /// Installs `x * tag + 1` (one i32 input) on `machine` through a tiny
    /// real CAD flow; returns the slot.
    fn install_scaled(machine: &Woolcano, tag: i32) -> u32 {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let x = b.mul(Op::Arg(0), Op::ci32(tag));
        let y = b.add(x, Op::ci32(1));
        b.ret(y);
        let f = b.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let key = BlockKey::new(FuncId(0), BlockId(0));
        let cand = jitise_ise::maxmiso(&f, &dfg, key, 2).candidates.remove(0);
        let fabric = jitise_cad::Fabric::tiny();
        let nl = jitise_pivpav::netlist::synthesize_core("c", 4, 8, 0, 0, tag as u64);
        let p = jitise_cad::place(&fabric, &nl, jitise_cad::PlaceEffort::fast(), 1).unwrap();
        let r = jitise_cad::route(&fabric, &nl, &p, jitise_cad::RouteEffort::fast()).unwrap();
        let bs = jitise_cad::bitgen(&fabric, &nl, &p, &r, true);
        machine.install(&f, &dfg, &cand, 4, bs).unwrap()
    }

    #[test]
    fn bound_fast_run_leaves_the_per_call_lru_state() {
        // main(n): n iterations of acc = ci0(acc) + ci1(i), then ci0(acc):
        // slot 1's last call is the loop's last, slot 0's the final one.
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let cell = b.alloca(4);
        b.store(Op::ci32(1), cell);
        b.counted_loop("i", Op::ci32(0), Op::Arg(0), |b, i| {
            let acc = b.load(Type::I32, cell);
            let d = Op::Inst(b.push(jitise_ir::InstKind::Custom(0, vec![acc]), Type::I32));
            let e = Op::Inst(b.push(jitise_ir::InstKind::Custom(1, vec![i]), Type::I32));
            let s = b.add(d, e);
            b.store(s, cell);
        });
        let acc = b.load(Type::I32, cell);
        let r = Op::Inst(b.push(jitise_ir::InstKind::Custom(0, vec![acc]), Type::I32));
        b.ret(r);
        let mut m = Module::new("two_cis");
        m.add_func(b.finish());

        let run = |tier: jitise_vm::VmTier| {
            let machine = Woolcano::new(3);
            assert_eq!(install_scaled(&machine, 3), 0);
            assert_eq!(install_scaled(&machine, 5), 1);
            let mut vm = jitise_vm::Interpreter::new(&m);
            vm.set_tier(tier);
            vm.set_custom_handler(&machine);
            let out = vm.run("main", &[Value::I(6)]).unwrap();
            (out, machine.lru_state())
        };
        let interp = run(jitise_vm::VmTier::Interp);
        assert_eq!(interp, run(jitise_vm::VmTier::Fast));
        // Installs leave clock 2; then 13 calls, slot 1 last at call 12.
        assert_eq!(interp.1, (15, vec![Some(15), Some(14), None]));
    }

    #[test]
    fn missing_slot_errors() {
        let machine = Woolcano::new(2);
        let err = machine.exec_custom(1, &[]).unwrap_err();
        assert!(err.to_string().contains("no CI loaded"));
    }

    #[test]
    fn ci_cycles_from_timing() {
        let machine = Woolcano::new(1);
        let t = TimingReport {
            critical_path_ns: 10.0,
            fmax_mhz: 100.0,
            critical_cells: 5,
            meets_300mhz: false,
        };
        // 10 ns at 300 MHz = 3 cycles; + 3 overhead = 6.
        assert_eq!(machine.ci_cycles(&t), 6);
    }
}
