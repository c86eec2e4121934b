//! Partial-reconfiguration controller and CI slot file.
//!
//! Woolcano loads custom-instruction bitstreams at runtime "using partial
//! reconfiguration" (§I) through the Virtex-4's ICAP port. This module
//! models the slot file (a bounded set of reconfigurable instruction
//! sites) and the reconfiguration latency (bitstream size / ICAP
//! bandwidth), and enforces bitstream integrity (CRC) before activation.
//!
//! Each install also lowers the CI into the fast tier's typed program, so
//! a run can [`ReconfigController::bind`] every loaded slot once and apply
//! its LRU touches at [`ReconfigController::retire`] instead of per call.

use crate::semantics::CiSemantics;
use jitise_base::{Error, Result, SimTime};
use jitise_cad::{Bitstream, InstallTier};
use jitise_vm::{CiBinding, CiProgram};
use std::sync::Arc;

/// ICAP throughput: 32-bit word per cycle at 100 MHz = 400 MB/s
/// theoretical; sustained practice is lower.
pub const ICAP_BYTES_PER_SEC: u64 = 100_000_000;

/// One loaded custom instruction.
#[derive(Debug, Clone)]
pub struct LoadedCi {
    /// Slot index (the opcode space the patcher references).
    pub slot: u32,
    /// Candidate signature (bitstream-cache key, identity of the CI).
    pub signature: u64,
    /// Functional model.
    pub semantics: CiSemantics,
    /// The functional model lowered for the fast tier, once per install
    /// (`None` if [`CiSemantics::lower`] declined it).
    program: Option<Arc<CiProgram>>,
    /// Hardware latency in CPU cycles (from the implemented design's
    /// timing plus the FCB interface overhead).
    pub hw_cycles: u64,
    /// The configuration bitstream.
    pub bitstream: Bitstream,
    /// Which artifact currently backs the slot: an overlay assembly or
    /// the fully routed design (see [`Self::hw_cycles`] — the two tiers
    /// differ only in timing, never in semantics).
    pub tier: InstallTier,
    /// Load counter for LRU eviction.
    last_use: u64,
}

/// The reconfiguration controller: slot management + ICAP timing.
#[derive(Debug)]
pub struct ReconfigController {
    slots: Vec<Option<LoadedCi>>,
    clock: u64,
    /// Bumped by every change to the slots or their LRU state and by every
    /// bind, so [`Self::retire`] can tell that nothing moved while bound.
    epoch: u64,
    /// Accumulated reconfiguration time.
    pub total_reconfig_time: SimTime,
    /// Number of loads performed.
    pub loads: u64,
    /// Number of evictions.
    pub evictions: u64,
    /// Number of overlay→full tier swaps performed.
    pub upgrades: u64,
}

impl ReconfigController {
    /// A controller with `num_slots` CI sites (Woolcano's FCB exposes a
    /// small fixed set of user-defined-instruction opcodes).
    pub fn new(num_slots: usize) -> Self {
        ReconfigController {
            slots: (0..num_slots).map(|_| None).collect(),
            clock: 0,
            epoch: 0,
            total_reconfig_time: SimTime::ZERO,
            loads: 0,
            evictions: 0,
            upgrades: 0,
        }
    }

    /// Reconfiguration latency for a bitstream.
    pub fn reconfig_time(bitstream: &Bitstream) -> SimTime {
        let ns = bitstream.len() as u128 * 1_000_000_000u128 / ICAP_BYTES_PER_SEC as u128;
        SimTime::from_nanos(ns as u64)
    }

    /// Loads a fully routed CI ([`InstallTier::Full`]), evicting the
    /// least-recently-used slot if full. Returns the slot index.
    pub fn load(
        &mut self,
        signature: u64,
        semantics: CiSemantics,
        hw_cycles: u64,
        bitstream: Bitstream,
    ) -> Result<u32> {
        self.load_tiered(
            signature,
            semantics,
            hw_cycles,
            bitstream,
            InstallTier::Full,
        )
    }

    /// Loads a CI at an explicit tier, evicting the least-recently-used
    /// slot if full. Returns the slot index. A same-signature reload is a
    /// free refresh and does *not* change the installed tier — upgrades go
    /// through [`Self::upgrade`], which swaps atomically.
    pub fn load_tiered(
        &mut self,
        signature: u64,
        semantics: CiSemantics,
        hw_cycles: u64,
        bitstream: Bitstream,
        tier: InstallTier,
    ) -> Result<u32> {
        if !bitstream.verify() {
            return Err(Error::Arch(format!(
                "bitstream CRC failure for CI {signature:#018x}"
            )));
        }
        self.clock += 1;
        self.epoch += 1;
        // Already loaded? Refresh and return.
        if let Some(slot) = self.slot_of(signature) {
            self.slots[slot as usize]
                .as_mut()
                .expect("occupied")
                .last_use = self.clock;
            return Ok(slot);
        }
        // Free slot or LRU victim.
        let slot = match self.slots.iter().position(|s| s.is_none()) {
            Some(i) => i,
            None => {
                let victim = self
                    .slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.as_ref().map(|c| c.last_use).unwrap_or(0))
                    .map(|(i, _)| i)
                    .ok_or_else(|| Error::Arch("controller has zero slots".into()))?;
                self.evictions += 1;
                victim
            }
        };
        self.total_reconfig_time += Self::reconfig_time(&bitstream);
        self.loads += 1;
        let program = semantics.lower().map(Arc::new);
        self.slots[slot] = Some(LoadedCi {
            slot: slot as u32,
            signature,
            semantics,
            program,
            hw_cycles,
            bitstream,
            tier,
            last_use: self.clock,
        });
        Ok(slot as u32)
    }

    /// Atomically swaps an installed overlay CI for its fully routed
    /// upgrade. The CRC check runs *before* the slot is touched: a
    /// corrupted upgrade bitstream leaves the overlay installed and
    /// serving (still correct, just slower) — there is no window where the
    /// slot is empty or holds unverified configuration. Charges one ICAP
    /// transfer for the upgrade bitstream. A slot already at
    /// [`InstallTier::Full`] is left unchanged (idempotent; no transfer).
    pub fn upgrade(&mut self, signature: u64, hw_cycles: u64, bitstream: Bitstream) -> Result<u32> {
        if !bitstream.verify() {
            return Err(Error::Arch(format!(
                "upgrade bitstream CRC failure for CI {signature:#018x}"
            )));
        }
        let slot = self.slot_of(signature).ok_or_else(|| {
            Error::Arch(format!("upgrade target CI {signature:#018x} not installed"))
        })?;
        let ci = self.slots[slot as usize].as_mut().expect("occupied");
        if ci.tier == InstallTier::Full {
            return Ok(slot);
        }
        self.total_reconfig_time += Self::reconfig_time(&bitstream);
        self.clock += 1;
        self.epoch += 1;
        ci.bitstream = bitstream;
        ci.hw_cycles = hw_cycles;
        ci.tier = InstallTier::Full;
        ci.last_use = self.clock;
        self.upgrades += 1;
        Ok(slot)
    }

    /// Slot currently holding the CI with `signature`.
    pub fn slot_of(&self, signature: u64) -> Option<u32> {
        self.slots
            .iter()
            .position(|s| s.as_ref().map(|c| c.signature) == Some(signature))
            .map(|i| i as u32)
    }

    /// The CI in a slot.
    pub fn get(&self, slot: u32) -> Option<&LoadedCi> {
        self.slots.get(slot as usize).and_then(|s| s.as_ref())
    }

    /// Marks a slot as used (LRU bookkeeping on execution).
    pub fn touch(&mut self, slot: u32) {
        self.clock += 1;
        self.epoch += 1;
        if let Some(Some(ci)) = self.slots.get_mut(slot as usize) {
            ci.last_use = self.clock;
        }
    }

    /// Binds every loaded slot's lowered program and latency for one run,
    /// or `None` if some loaded CI has no program (the run then calls per
    /// CI). Until [`Self::retire`], the slots must not change and no other
    /// run may bind: one bound run at a time.
    pub fn bind(&mut self) -> Option<CiBinding> {
        let mut binding = CiBinding::new(self.epoch + 1);
        for ci in self.slots.iter().flatten() {
            binding.insert(ci.slot, Arc::clone(ci.program.as_ref()?), ci.hw_cycles);
        }
        self.epoch += 1;
        Some(binding)
    }

    /// Applies a bound run's touches. The run's `n` calls, touched one by
    /// one, would advance `clock` by `n` and leave each called slot with
    /// `last_use = clock₀ + k`, `k` the 1-based index of its last call;
    /// this sets exactly that in one step.
    ///
    /// # Panics
    /// If an install, upgrade, touch or another bind happened since
    /// `binding` was made: the deferred touches would then be misordered.
    pub fn retire(&mut self, binding: CiBinding) {
        assert_eq!(
            self.epoch,
            binding.token(),
            "CI slot file changed while a run was bound to it"
        );
        let clock0 = self.clock;
        self.clock += binding.calls();
        for (slot, k) in binding.last_calls() {
            if let Some(Some(ci)) = self.slots.get_mut(slot as usize) {
                ci.last_use = clock0 + k;
            }
        }
    }

    /// The LRU state: the use clock and each slot's last use (`None` for
    /// an empty slot).
    pub fn lru_state(&self) -> (u64, Vec<Option<u64>>) {
        let uses = self.slots.iter().map(|s| s.as_ref().map(|ci| ci.last_use));
        (self.clock, uses.collect())
    }

    /// Number of occupied slots.
    pub fn occupied(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_ir::{BlockId, Dfg, FuncId, FunctionBuilder, Operand as Op, Type};
    use jitise_ise::ForbiddenPolicy;
    use jitise_vm::BlockKey;

    fn dummy_ci(tag: i32) -> (u64, CiSemantics, Bitstream) {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let x = b.mul(Op::Arg(0), Op::ci32(tag));
        let y = b.add(x, Op::ci32(1));
        b.ret(y);
        let f = b.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let cand = jitise_ise::maxmiso(
            &f,
            &dfg,
            BlockKey::new(FuncId(0), BlockId(0)),
            &ForbiddenPolicy::default(),
            2,
        )
        .candidates
        .remove(0);
        let sig = cand.signature(&f, &dfg);
        let sem = CiSemantics::freeze(&f, &dfg, &cand).unwrap();
        // A tiny real bitstream via the CAD flow's pieces.
        let fabric = jitise_cad::Fabric::tiny();
        let nl = jitise_pivpav::netlist::synthesize_core("c", 4, 8, 0, 0, tag as u64);
        let p = jitise_cad::place(&fabric, &nl, jitise_cad::PlaceEffort::fast(), 1).unwrap();
        let r = jitise_cad::route(&fabric, &nl, &p, jitise_cad::RouteEffort::fast()).unwrap();
        let bs = jitise_cad::bitgen(&fabric, &nl, &p, &r, true);
        (sig, sem, bs)
    }

    #[test]
    fn load_and_execute_slot() {
        let mut ctl = ReconfigController::new(4);
        let (sig, sem, bs) = dummy_ci(3);
        let slot = ctl.load(sig, sem, 5, bs).unwrap();
        assert_eq!(ctl.occupied(), 1);
        assert_eq!(ctl.slot_of(sig), Some(slot));
        let ci = ctl.get(slot).unwrap();
        assert_eq!(
            ci.semantics.eval(&[jitise_vm::Value::I(10)]).unwrap(),
            jitise_vm::Value::I(31)
        );
        assert!(ctl.total_reconfig_time > SimTime::ZERO);
    }

    #[test]
    fn reload_same_signature_is_free() {
        let mut ctl = ReconfigController::new(2);
        let (sig, sem, bs) = dummy_ci(3);
        let s1 = ctl.load(sig, sem.clone(), 5, bs.clone()).unwrap();
        let t1 = ctl.total_reconfig_time;
        let s2 = ctl.load(sig, sem, 5, bs).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(ctl.total_reconfig_time, t1, "no second ICAP transfer");
        assert_eq!(ctl.loads, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut ctl = ReconfigController::new(2);
        let (s1, sem1, bs1) = dummy_ci(1);
        let (s2, sem2, bs2) = dummy_ci(2);
        let (s3, sem3, bs3) = dummy_ci(5);
        ctl.load(s1, sem1, 5, bs1).unwrap();
        ctl.load(s2, sem2, 5, bs2).unwrap();
        // Touch s1 so s2 becomes LRU.
        let slot1 = ctl.slot_of(s1).unwrap();
        ctl.touch(slot1);
        ctl.load(s3, sem3, 5, bs3).unwrap();
        assert_eq!(ctl.evictions, 1);
        assert!(ctl.slot_of(s1).is_some(), "recently used survives");
        assert!(ctl.slot_of(s2).is_none(), "LRU evicted");
        assert!(ctl.slot_of(s3).is_some());
    }

    #[test]
    fn corrupt_bitstream_rejected() {
        let mut ctl = ReconfigController::new(2);
        let (sig, sem, mut bs) = dummy_ci(7);
        let n = bs.bytes.len();
        bs.bytes[n / 2] ^= 0x01;
        assert!(ctl.load(sig, sem, 5, bs).is_err());
        assert_eq!(ctl.occupied(), 0);
    }

    #[test]
    fn upgrade_swaps_tier_and_charges_one_transfer() {
        let mut ctl = ReconfigController::new(2);
        let (sig, sem, bs) = dummy_ci(3);
        let slot = ctl
            .load_tiered(sig, sem, 20, bs.clone(), InstallTier::Overlay)
            .unwrap();
        assert_eq!(ctl.get(slot).unwrap().tier, InstallTier::Overlay);
        let t_overlay = ctl.total_reconfig_time;

        let slot2 = ctl.upgrade(sig, 6, bs.clone()).unwrap();
        assert_eq!(slot, slot2, "upgrade swaps in place");
        let ci = ctl.get(slot).unwrap();
        assert_eq!(ci.tier, InstallTier::Full);
        assert_eq!(ci.hw_cycles, 6, "upgrade installs the full-tier timing");
        assert!(ctl.total_reconfig_time > t_overlay, "upgrade pays ICAP");
        assert_eq!(ctl.upgrades, 1);

        // Idempotent: upgrading a full slot is a no-op without a transfer.
        let t_full = ctl.total_reconfig_time;
        ctl.upgrade(sig, 6, bs).unwrap();
        assert_eq!(ctl.total_reconfig_time, t_full);
        assert_eq!(ctl.upgrades, 1);
    }

    #[test]
    fn failed_upgrade_leaves_overlay_slot_untouched() {
        let mut ctl = ReconfigController::new(2);
        let (sig, sem, bs) = dummy_ci(4);
        let slot = ctl
            .load_tiered(sig, sem, 20, bs.clone(), InstallTier::Overlay)
            .unwrap();
        let before = ctl.get(slot).unwrap().clone();
        let t0 = ctl.total_reconfig_time;

        let mut bad = bs;
        let n = bad.bytes.len();
        bad.bytes[n / 2] ^= 0x01;
        assert!(ctl.upgrade(sig, 6, bad).is_err());

        let after = ctl.get(slot).unwrap();
        assert_eq!(after.tier, InstallTier::Overlay);
        assert_eq!(after.hw_cycles, before.hw_cycles);
        assert_eq!(after.bitstream, before.bitstream);
        assert_eq!(ctl.total_reconfig_time, t0, "no charge for rejected swap");
        assert_eq!(ctl.upgrades, 0);
    }

    #[test]
    fn upgrade_of_uninstalled_signature_errors() {
        let mut ctl = ReconfigController::new(2);
        let (sig, _, bs) = dummy_ci(5);
        assert!(ctl.upgrade(sig, 6, bs).is_err());
    }

    #[test]
    fn bind_copies_every_slot_and_retire_of_an_idle_run_changes_nothing() {
        let mut ctl = ReconfigController::new(3);
        let (s1, sem1, bs1) = dummy_ci(1);
        let (s2, sem2, bs2) = dummy_ci(2);
        ctl.load(s1, sem1, 5, bs1).unwrap();
        ctl.load(s2, sem2, 5, bs2).unwrap();
        let before = ctl.lru_state();
        assert_eq!(before, (2, vec![Some(1), Some(2), None]));
        let binding = ctl.bind().expect("every loaded CI lowers");
        assert_eq!(binding.calls(), 0);
        ctl.retire(binding);
        assert_eq!(ctl.lru_state(), before);
    }

    #[test]
    #[should_panic(expected = "CI slot file changed while a run was bound")]
    fn install_between_bind_and_retire_trips_the_assertion() {
        let mut ctl = ReconfigController::new(2);
        let (s1, sem1, bs1) = dummy_ci(1);
        let (s2, sem2, bs2) = dummy_ci(2);
        ctl.load(s1, sem1, 5, bs1).unwrap();
        let binding = ctl.bind().unwrap();
        ctl.load(s2, sem2, 5, bs2).unwrap();
        ctl.retire(binding);
    }

    #[test]
    #[should_panic(expected = "CI slot file changed while a run was bound")]
    fn second_bind_before_retire_trips_the_assertion() {
        let mut ctl = ReconfigController::new(2);
        let (s1, sem1, bs1) = dummy_ci(1);
        ctl.load(s1, sem1, 5, bs1).unwrap();
        let first = ctl.bind().unwrap();
        let _second = ctl.bind().unwrap();
        ctl.retire(first);
    }

    #[test]
    fn reconfig_time_scales_with_size() {
        let (_, _, bs) = dummy_ci(9);
        let t = ReconfigController::reconfig_time(&bs);
        let expect = bs.len() as f64 / ICAP_BYTES_PER_SEC as f64;
        assert!((t.as_secs_f64() - expect).abs() < 1e-6);
    }
}
