//! Differential property tests for the two-tier overlay path
//! (DESIGN.md §17).
//!
//! The overlay tier is allowed to change exactly two things: when a
//! candidate first goes live (milliseconds instead of the full CAD
//! makespan) and how many cycles it saves while serving (the degraded
//! fabric is honest about being slower). It must change *nothing*
//! observable about program behaviour:
//!
//! 1. an adaptive session with the overlay enabled returns **bit-identical
//!    answers** to the same session without it and to a software-only
//!    interpreter pass, over random phased workloads;
//! 2. the same holds for a full storm session (evictions,
//!    re-specializations, upgrades racing phase changes), and the storm's
//!    answers survive an upgrade-swap fault plan unchanged.

use jitise_apps::{build_phased, PhasedSpec};
use jitise_cad::OverlayLibrary;
use jitise_core::{
    run_adaptive_with, run_storm, AdaptiveOptions, BitstreamCache, EvalContext, PhasePolicy,
    PhaseSegment, StormOptions,
};
use jitise_faults::{FaultInjector, FaultPlan, FaultSite};
use jitise_vm::{Interpreter, Value};
use std::sync::Arc;

use proptest::prelude::*;

fn module_of(seed: u64, kernels: u32, hot_iters: i32) -> jitise_ir::Module {
    build_phased(&PhasedSpec {
        seed,
        kernels,
        hot_iters,
        ..PhasedSpec::default()
    })
}

/// Software-only reference answers for one argument set.
fn software_answer(m: &jitise_ir::Module, args: &[Value]) -> Option<Value> {
    Interpreter::new(m).run("main", args).unwrap().ret
}

fn adaptive_opts(ctx: &EvalContext, overlay: bool) -> AdaptiveOptions {
    AdaptiveOptions {
        overlay: overlay.then(|| Arc::new(OverlayLibrary::from_db(&ctx.db))),
        ..AdaptiveOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn adaptive_overlay_answers_match_full_and_software(
        seed in 0u64..1_000,
        kernels in 1u32..3,
        hot_iters in 60i32..160,
        sel in 0i64..2,
    ) {
        let m = module_of(seed, kernels, hot_iters);
        let args = [Value::I(sel), Value::I(2)];
        let want = software_answer(&m, &args);

        let run = |overlay: bool| {
            let ctx = EvalContext::new();
            run_adaptive_with(
                &ctx,
                &BitstreamCache::new(),
                &m,
                "main",
                &args,
                4,
                2,
                &adaptive_opts(&ctx, overlay),
            )
            .expect("session terminates")
        };
        let full = run(false);
        let two_tier = run(true);

        // Answers: overlay == full-CAD-only == software, run by run.
        prop_assert_eq!(&full.results, &two_tier.results);
        for (i, got) in two_tier.results.iter().enumerate() {
            prop_assert_eq!(got, &want, "run {i} diverged from software");
        }

        // The fast path actually engaged whenever the session specialized.
        if let Some(r) = &two_tier.report {
            prop_assert!(r.overlay_installs >= 1);
            prop_assert_eq!(r.upgrades + r.upgrades_failed, r.overlay_installs);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn storm_overlay_answers_match_software_even_under_swap_faults(
        seed in 0u64..1_000,
        phase_a in 4u32..8,
        phase_b in 4u32..8,
        swap_rate in 0.0f64..1.0,
    ) {
        let m = module_of(seed, 2, 120);
        let schedule = vec![
            PhaseSegment::new(vec![Value::I(0), Value::I(2)], phase_a),
            PhaseSegment::new(vec![Value::I(1), Value::I(2)], phase_b),
        ];
        let mut want = Vec::new();
        for s in &schedule {
            for _ in 0..s.runs {
                want.push(software_answer(&m, &s.args));
            }
        }

        let run = |overlay: bool, swap_rate: f64| {
            let ctx = EvalContext::new();
            let options = StormOptions {
                base: AdaptiveOptions {
                    faults: FaultInjector::from_plan(
                        FaultPlan::none(seed).with_rate(FaultSite::UpgradeSwap, swap_rate),
                    ),
                    ..adaptive_opts(&ctx, overlay)
                },
                policy: PhasePolicy {
                    window: 2,
                    cold_share: 0.2,
                    hysteresis: 2,
                    cooldown: 2,
                    max_respecs: 3,
                },
                ready_after_runs: 2,
            };
            run_storm(&ctx, &BitstreamCache::new(), &m, "main", &schedule, &options)
                .expect("storm terminates")
        };

        let full = run(false, 0.0);
        let clean = run(true, 0.0);
        let faulty = run(true, swap_rate);

        prop_assert_eq!(&full.results, &clean.results);
        prop_assert_eq!(&clean.results, &faulty.results);
        for (i, got) in faulty.results.iter().enumerate() {
            prop_assert_eq!(got, &want[i], "run {i} diverged from software");
        }
    }
}
