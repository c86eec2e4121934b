//! Property tests for the phase-storm contract (DESIGN.md §14):
//!
//! 1. a phase-changing workload run under the full storm machinery —
//!    windowed phase detection, benefit-scored eviction, bounded
//!    re-specialization — produces **bit-identical program outputs** to a
//!    software-only interpreter pass, and its cycle accounting never
//!    charges a run more than software execution would;
//! 2. the whole storm is **bit-identical across CAD worker counts** for a
//!    fixed seed (only the simulated overhead may differ);
//! 3. a **crash mid-storm** loses nothing committed: the recovered store
//!    equals the post-eviction committed prefix, and a warm restart from
//!    it completes a second storm correctly.

use jitise_apps::{build_phased, PhasedSpec};
use jitise_core::{
    run_storm, AdaptiveOptions, BitstreamCache, EvalContext, PhasePolicy, PhaseSegment,
    StormOptions,
};
use jitise_faults::{CrashSwitch, StoreCrash};
use jitise_store::{Store, StoreOptions, TempDir};
use jitise_vm::{Interpreter, Value};
use proptest::prelude::*;
use std::sync::Arc;

fn storm_opts(cad_workers: usize, store: Option<Arc<Store>>) -> StormOptions {
    StormOptions {
        base: AdaptiveOptions {
            cad_workers,
            store,
            ..AdaptiveOptions::default()
        },
        policy: PhasePolicy {
            window: 2,
            cold_share: 0.2,
            hysteresis: 2,
            cooldown: 2,
            max_respecs: 3,
        },
        ready_after_runs: 2,
    }
}

fn schedule_of(phase_a: u32, phase_b: u32, scale: i64) -> Vec<PhaseSegment> {
    vec![
        PhaseSegment::new(vec![Value::I(0), Value::I(scale)], phase_a),
        PhaseSegment::new(vec![Value::I(1), Value::I(scale)], phase_b),
    ]
}

/// Per-run software-only reference: return values and cycle counts.
fn software_reference(
    m: &jitise_ir::Module,
    schedule: &[PhaseSegment],
) -> (Vec<Option<Value>>, Vec<u64>) {
    let mut rets = Vec::new();
    let mut cycles = Vec::new();
    for s in schedule {
        for _ in 0..s.runs {
            let mut vm = Interpreter::new(m);
            let out = vm.run("main", &s.args).unwrap();
            rets.push(out.ret);
            cycles.push(out.cycles);
        }
    }
    (rets, cycles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn storm_is_software_equivalent_and_lane_invariant(
        seed in any::<u64>(),
        phase_a in 5u32..8,
        phase_b in 7u32..10,
        scale in 1i64..3,
    ) {
        let m = build_phased(&PhasedSpec {
            seed,
            kernels: 2,
            hot_iters: 120,
            ..PhasedSpec::default()
        });
        let schedule = schedule_of(phase_a, phase_b, scale);
        let (want_rets, want_cycles) = software_reference(&m, &schedule);

        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let out = run_storm(&ctx, &cache, &m, "main", &schedule, &storm_opts(1, None)).unwrap();

        // 1. Outputs bit-identical to software; cycle accounting never
        //    exceeds software (custom instructions only save cycles).
        prop_assert_eq!(&out.results, &want_rets, "storm changed a workload answer");
        prop_assert_eq!(out.run_cycles.len(), want_cycles.len());
        prop_assert_eq!(out.run_cycles[0], want_cycles[0], "profiling run is pure software");
        for (got, want) in out.run_cycles.iter().zip(&want_cycles) {
            prop_assert!(got <= want, "a specialized run got slower: {got} > {want}");
        }

        // 2. Bit-identical across CAD lanes.
        let ctx2 = EvalContext::new();
        let cache2 = BitstreamCache::new();
        let out2 =
            run_storm(&ctx2, &cache2, &m, "main", &schedule, &storm_opts(4, None)).unwrap();
        prop_assert_eq!(out.fingerprint(), out2.fingerprint());
    }
}

/// A crash killing the store mid-storm must leave exactly the committed
/// prefix — including any journaled evictions — and a warm restart from
/// the survivor must serve that post-eviction state.
#[test]
fn warm_restart_mid_storm_recovers_post_eviction_prefix() {
    let m = build_phased(&PhasedSpec {
        kernels: 2,
        hot_iters: 120,
        ..PhasedSpec::default()
    });
    let schedule = schedule_of(8, 12, 2);
    let (want_rets, _) = software_reference(&m, &schedule);

    // Dry pass: measure the bytes a full healthy storm journals, and
    // prove the scenario actually evicts.
    let dry_dir = TempDir::new("storm-dry");
    let dry_store = Arc::new(Store::open(dry_dir.path()).unwrap());
    let ctx = EvalContext::new();
    let cache = BitstreamCache::new();
    let dry = run_storm(
        &ctx,
        &cache,
        &m,
        "main",
        &schedule,
        &storm_opts(1, Some(Arc::clone(&dry_store))),
    )
    .unwrap();
    assert!(dry.evictions >= 1, "scenario must journal evictions");
    assert!(dry.respecs >= 1);
    let total_bytes = dry_store.bytes_written();
    drop(dry_store);

    // Crash run: the store dies at 60% of the byte stream — after the
    // initial install's entries, inside the eviction/respec tail.
    let crash_dir = TempDir::new("storm-crash");
    let store = Arc::new(
        Store::open_with(
            crash_dir.path(),
            StoreOptions {
                crash: CrashSwitch::armed(StoreCrash {
                    after_bytes: total_bytes * 6 / 10,
                }),
                ..StoreOptions::default()
            },
        )
        .unwrap(),
    );
    let ctx = EvalContext::new();
    let cache = BitstreamCache::new();
    let out = run_storm(
        &ctx,
        &cache,
        &m,
        "main",
        &schedule,
        &storm_opts(1, Some(Arc::clone(&store))),
    )
    .unwrap();
    // The store's death never leaks into execution.
    assert_eq!(out.results, want_rets);
    assert!(
        out.degraded.is_none(),
        "store crash must not degrade execution"
    );
    // In-memory fold == acknowledged prefix, by the store's append
    // contract; capture it as the ground truth for recovery.
    let committed = store.state().fingerprint();
    drop(store);

    // Restart: recovery must restore exactly the committed prefix (post-
    // eviction for every eviction whose tombstone reached the log).
    let survivor = Arc::new(Store::open(crash_dir.path()).unwrap());
    assert_eq!(
        survivor.state().fingerprint(),
        committed,
        "recovered store must equal the committed (post-eviction) prefix"
    );

    // And a second storm warm-restarted from the survivor still computes
    // the right answers.
    let ctx = EvalContext::new();
    let cache = BitstreamCache::new();
    let again = run_storm(
        &ctx,
        &cache,
        &m,
        "main",
        &schedule,
        &storm_opts(1, Some(survivor)),
    )
    .unwrap();
    assert_eq!(again.results, want_rets);
}
