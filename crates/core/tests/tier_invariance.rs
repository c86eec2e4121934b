//! Tier invariance for the adaptive runtime (DESIGN.md §15).
//!
//! The fast dispatch tier is allowed to change exactly one thing: host
//! wall-clock. Every observable of an adaptive or storm session — run
//! results, cycle accounting, specialization reports, phase decisions,
//! simulated overhead — must be bit-identical whichever tier executes the
//! workload. These tests run full sessions once on the reference
//! interpreter and once on the production fast tier (selected through
//! `EvalContext::vm_tier`) and compare the outcome fingerprints (which
//! fold in results, cycles, reports, and degradation state).

use jitise_apps::{build_phased, App, PhasedSpec};
use jitise_core::{
    run_adaptive, run_storm, BitstreamCache, EvalContext, PhasePolicy, PhaseSegment, StormOptions,
};
use jitise_vm::{Value, VmTier};

/// A context on the given tier; everything else at its default.
fn context(tier: VmTier) -> EvalContext {
    let mut ctx = EvalContext::new();
    ctx.vm_tier = tier;
    ctx
}

fn adaptive_fingerprint(tier: VmTier) -> String {
    let app = App::build("adpcm").expect("paper app");
    let outcome = run_adaptive(
        &context(tier),
        &BitstreamCache::new(),
        &app.module,
        app.entry,
        &app.datasets[0].args,
        4,
        2,
    )
    .expect("session terminates");
    outcome.fingerprint()
}

#[test]
fn adaptive_session_is_tier_invariant() {
    assert_eq!(
        adaptive_fingerprint(VmTier::Interp),
        adaptive_fingerprint(VmTier::Fast),
        "fast tier changed an adaptive-session observable"
    );
}

fn storm_fingerprint(tier: VmTier) -> String {
    let m = build_phased(&PhasedSpec {
        seed: 7,
        kernels: 2,
        hot_iters: 120,
        ..PhasedSpec::default()
    });
    let schedule = vec![
        PhaseSegment::new(vec![Value::I(0), Value::I(2)], 6),
        PhaseSegment::new(vec![Value::I(1), Value::I(2)], 8),
    ];
    let options = StormOptions {
        policy: PhasePolicy {
            window: 2,
            cold_share: 0.2,
            hysteresis: 2,
            cooldown: 2,
            max_respecs: 3,
        },
        ready_after_runs: 2,
        ..StormOptions::default()
    };
    let outcome = run_storm(
        &context(tier),
        &BitstreamCache::new(),
        &m,
        "main",
        &schedule,
        &options,
    )
    .expect("storm terminates");
    outcome.fingerprint()
}

#[test]
fn storm_session_is_tier_invariant() {
    assert_eq!(
        storm_fingerprint(VmTier::Interp),
        storm_fingerprint(VmTier::Fast),
        "fast tier changed a storm-session observable"
    );
}
