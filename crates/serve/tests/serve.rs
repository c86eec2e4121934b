//! Integration tests for the multi-tenant serve runtime (DESIGN.md §16):
//!
//! 1. a fixed-seed fleet run is **bit-identical across CAD pool widths**
//!    (only the lane-dependent timing post-pass may differ);
//! 2. **every** tenant — admitted, deferred, shed, or degraded — computes
//!    exactly the software-only reference answers;
//! 3. per-tenant deadline budgets degrade only the exhausted tenant;
//! 4. a **crash storm** — store death mid-serve plus burst CAD faults —
//!    recovers to exactly the committed prefix on warm restart, with no
//!    cross-tenant corruption, and the service keeps serving;
//! 5. the production fast VM tier is **bit-identical to the reference
//!    interpreter** at fleet scale.

use jitise_base::SimTime;
use jitise_core::DegradedReason;
use jitise_core::EvalContext;
use jitise_faults::{Bursts, CrashSwitch, FaultInjector, FaultPlan, StoreCrash};
use jitise_serve::{fleet, run_serve, workload_module, Admission, ServeConfig, ServeOutcome};
use jitise_store::{Store, StoreOptions, TempDir};
use jitise_vm::{Interpreter, Value, VmTier};
use std::sync::Arc;

/// A small overloaded fleet: four slots and a two-deep defer queue under
/// ~100µs arrivals with ~600µs residency. Enough tenants execute that the
/// shared cache gets hits (the (workload, selector) combo cycle is
/// `distinct_workloads × kernels = 6`), while the tail still defers and
/// sheds.
fn small_config(seed: u64, cad_workers: usize, store: Option<Arc<Store>>) -> ServeConfig {
    ServeConfig {
        seed,
        tenants: 16,
        cad_workers,
        max_active: 4,
        defer_capacity: 2,
        arrival_spacing_us: 100,
        service_model_us: 600,
        runs_per_tenant: 3,
        distinct_workloads: 3,
        hot_iters: 60,
        store,
        ..ServeConfig::default()
    }
}

/// Software-only reference answers for every tenant in `config`'s fleet.
fn software_reference(config: &ServeConfig) -> Vec<Vec<Option<Value>>> {
    let specs = fleet(
        config.seed,
        config.tenants,
        config.arrival_spacing_us,
        config.service_model_us,
        config.distinct_workloads,
        config.kernels,
    );
    specs
        .iter()
        .map(|spec| {
            let m = workload_module(
                spec,
                config.kernels,
                config.hot_iters,
                config.near_duplicate,
            );
            let args = [Value::I(spec.sel), Value::I(2)];
            (0..config.runs_per_tenant)
                .map(|_| Interpreter::new(&m).run("main", &args).unwrap().ret)
                .collect()
        })
        .collect()
}

fn assert_all_results_correct(out: &ServeOutcome, config: &ServeConfig) {
    let want = software_reference(config);
    for t in &out.tenants {
        assert_eq!(
            t.results, want[t.id as usize],
            "tenant {} ({:?}, degraded {:?}) changed a workload answer",
            t.id, t.admission, t.degraded
        );
    }
}

#[test]
fn fixed_seed_run_is_bit_identical_across_pool_widths() {
    // A fresh EvalContext per run: the netlist cache inside it is shared
    // infrastructure, and carrying a warm one into the next run would
    // (legitimately) change C2V charges.
    let outs: Vec<ServeOutcome> = [1usize, 2, 8]
        .iter()
        .map(|&w| run_serve(&EvalContext::new(), &small_config(2011, w, None)).unwrap())
        .collect();

    // The scenario must actually exercise all three admission outcomes
    // and the shared cache.
    assert!(outs[0].admitted >= 1, "no tenant admitted at arrival");
    assert!(outs[0].deferred >= 1, "defer queue never used");
    assert!(outs[0].shed >= 1, "load shedding never triggered");
    assert!(outs[0].cache_hits >= 1, "shared cache never hit");

    let fp = outs[0].fingerprint();
    for out in &outs[1..] {
        assert_eq!(out.fingerprint(), fp, "pool width leaked into outcome");
    }
    // The timing post-pass is where pool width is allowed to show.
    assert_eq!(outs[0].timing.cad_workers, 1);
    assert_eq!(outs[2].timing.cad_workers, 8);
    assert_eq!(outs[0].timing.pool_jobs, outs[2].timing.pool_jobs);
    assert!(
        outs[2].timing.makespan <= outs[0].timing.makespan,
        "more lanes must not lengthen the pool schedule"
    );
}

#[test]
fn every_tenant_computes_software_reference_answers() {
    let config = small_config(2011, 2, None);
    let out = run_serve(&EvalContext::new(), &config).unwrap();
    assert!(out.shed >= 1, "shed path not exercised");
    assert!(out.deferred >= 1, "deferred path not exercised");
    assert_all_results_correct(&out, &config);

    // Shed tenants never touch the shared pipeline.
    for t in &out.tenants {
        if t.admission == Admission::Shed {
            assert_eq!(t.cache_hits, 0);
            assert_eq!(t.fresh, 0);
            assert_eq!(t.cpu_time, SimTime::ZERO);
            assert_eq!(
                t.speedup_bits,
                1f64.to_bits(),
                "shed must run software-only"
            );
        }
    }
}

#[test]
fn deadline_exhaustion_degrades_only_that_tenant_tier() {
    // A 1µs CAD budget: every tenant that reaches specialization blows
    // it and must fall back to software-only — correctly.
    let config = ServeConfig {
        deadline: SimTime::from_micros(1),
        ..small_config(2011, 2, None)
    };
    let out = run_serve(&EvalContext::new(), &config).unwrap();
    let exceeded = out
        .tenants
        .iter()
        .filter(|t| t.degraded == Some(DegradedReason::DeadlineExceeded))
        .count();
    assert!(exceeded >= 1, "deadline path not exercised");
    let mut rescued = 0usize;
    for t in &out.tenants {
        if t.admission.admitted_at_us().is_some() {
            match &t.degraded {
                Some(DegradedReason::DeadlineExceeded) => {
                    assert_eq!(
                        t.speedup_bits,
                        1f64.to_bits(),
                        "degraded must be software-only"
                    );
                }
                None => {
                    // The only way to meet a 1µs budget is to do no CAD
                    // work at all: an earlier tenant with the same
                    // workload already committed the bitstreams, and the
                    // shared cache rescued this one from the deadline.
                    assert_eq!(t.fresh, 0, "tenant {} did CAD work under 1µs?", t.id);
                    assert!(t.cache_hits >= 1, "tenant {} met 1µs with no hits", t.id);
                    rescued += 1;
                }
                other => panic!("unexpected degradation {other:?} for tenant {}", t.id),
            }
        }
    }
    assert!(rescued >= 1, "shared cache never rescued a later tenant");
    assert_all_results_correct(&out, &config);

    // The degradation is still lane-invariant (fresh context: a warm
    // netlist cache would legitimately change C2V charges).
    let out8 = run_serve(
        &EvalContext::new(),
        &ServeConfig {
            cad_workers: 8,
            ..config.clone()
        },
    )
    .unwrap();
    assert_eq!(out.fingerprint(), out8.fingerprint());
}

/// The production fast VM tier (the `EvalContext` default) must leave
/// every lane-invariant fleet observable bit-identical to the reference
/// interpreter: answers, cycle-derived speedups, cache hits, admission.
#[test]
fn fleet_is_bit_identical_across_vm_tiers() {
    let config = small_config(2011, 2, None);
    let fast_ctx = EvalContext::new();
    assert_eq!(
        fast_ctx.vm_tier,
        VmTier::Fast,
        "fast is the production tier"
    );
    let fast = run_serve(&fast_ctx, &config).unwrap();
    let mut oracle_ctx = EvalContext::new();
    oracle_ctx.vm_tier = VmTier::Interp;
    let oracle = run_serve(&oracle_ctx, &config).unwrap();
    assert!(fast.cache_hits >= 1, "shared cache never hit");
    assert_eq!(
        fast.fingerprint(),
        oracle.fingerprint(),
        "the fast tier changed a fleet observable"
    );
}

/// Acceptance criterion for two-tier installation at fleet scale: with
/// the overlay enabled, the whole lane-invariant outcome — overlay
/// installs, upgrades, answers — is bit-identical across pool widths.
#[test]
fn overlay_fleet_is_bit_identical_across_pool_widths() {
    let config_for = |w: usize| {
        let ctx = EvalContext::new();
        let overlay = Some(Arc::new(jitise_cad::OverlayLibrary::from_db(&ctx.db)));
        (
            ctx,
            ServeConfig {
                overlay,
                ..small_config(2011, w, None)
            },
        )
    };
    let outs: Vec<ServeOutcome> = [1usize, 2, 8]
        .iter()
        .map(|&w| {
            let (ctx, config) = config_for(w);
            run_serve(&ctx, &config).unwrap()
        })
        .collect();
    assert!(
        outs[0].overlay_installs >= 1,
        "the two-tier path must engage"
    );
    assert!(outs[0].upgrades >= 1, "background upgrades must land");
    let fp = outs[0].fingerprint();
    for out in &outs[1..] {
        assert_eq!(out.fingerprint(), fp, "pool width leaked into outcome");
    }
    let (_, config) = config_for(2);
    assert_all_results_correct(&outs[1], &config);
}

/// The seeded cache-thrash scenario (ROADMAP item 5): near-duplicate
/// kernels give every workload distinct same-shaped signatures, and a
/// tiny shared cache forces them to fight over a few slots. Answers stay
/// correct and the fleet stays lane-invariant; the thrash shows up as
/// capacity evictions and lost hits.
#[test]
fn near_duplicate_thrash_fleet_stays_correct_and_deterministic() {
    let thrash_config = |w: usize| ServeConfig {
        near_duplicate: true,
        cache_capacity: 2,
        ..small_config(2011, w, None)
    };
    let out = run_serve(&EvalContext::new(), &thrash_config(2)).unwrap();
    assert!(
        out.evictions >= 1,
        "a two-slot cache under thrash must evict"
    );
    assert_all_results_correct(&out, &thrash_config(2));

    let out8 = run_serve(&EvalContext::new(), &thrash_config(8)).unwrap();
    assert_eq!(
        out.fingerprint(),
        out8.fingerprint(),
        "thrash must stay lane-invariant"
    );

    // The calm control — same fleet, ample cache, no near-duplicates —
    // keeps more of its hits.
    let calm = run_serve(&EvalContext::new(), &small_config(2011, 2, None)).unwrap();
    assert!(calm.evictions == 0, "the control must not thrash");
}

/// The full crash storm: burst CAD faults (keyed per tenant epoch) while
/// the store dies mid-serve. Execution must not notice the store's
/// death, non-faulted tenants must be byte-equal to a fault-free run,
/// and a warm restart must recover exactly the committed prefix.
#[test]
fn crash_storm_mid_serve_recovers_committed_prefix() {
    let storm = FaultInjector::from_plan(FaultPlan::uniform(0.08, 77).with_bursts(Bursts {
        period: 5,
        width: 2,
        boost: 6.0,
        calm: 0.2,
    }));
    let calm_config = small_config(4242, 2, None);
    let calm = run_serve(&EvalContext::new(), &calm_config).unwrap();

    // Dry pass under the storm to size the journal.
    let dry_dir = TempDir::new("serve-dry");
    let dry_store = Arc::new(Store::open(dry_dir.path()).unwrap());
    let dry_config = ServeConfig {
        faults: storm.clone(),
        ..small_config(4242, 2, Some(Arc::clone(&dry_store)))
    };
    let dry = run_serve(&EvalContext::new(), &dry_config).unwrap();
    assert!(dry.degraded >= 1, "storm must degrade at least one tenant");
    assert!(
        dry.degraded < dry.admitted + dry.deferred,
        "storm must leave some tenants healthy"
    );
    let total_bytes = dry_store.bytes_written();
    assert!(total_bytes > 0, "storm run must journal commits");
    drop(dry_store);

    // Crash run: the store dies at 60% of the byte stream, mid-fleet.
    let crash_dir = TempDir::new("serve-crash");
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
    let config = ServeConfig {
        faults: storm,
        ..small_config(4242, 2, Some(Arc::clone(&store)))
    };
    let out = run_serve(&EvalContext::new(), &config).unwrap();

    // 1. No tenant's answers change — not from CAD faults, not from the
    //    store's death.
    assert_all_results_correct(&out, &config);

    // 2. Fault isolation: admission is fault-blind, answers are
    //    fault-blind, and a tenant the storm left fully alone — no
    //    degradation, no failed candidates, no retries — is byte-equal
    //    to the fault-free run. (A non-degraded tenant can still lose
    //    individual candidates to the storm, which legitimately shrinks
    //    its speedup — but never changes its answers.)
    let mut untouched = 0usize;
    for (t, c) in out.tenants.iter().zip(&calm.tenants) {
        assert_eq!(t.id, c.id);
        assert_eq!(t.admission, c.admission, "faults must not alter admission");
        assert_eq!(t.results, c.results, "cross-tenant corruption at {}", t.id);
        if t.degraded.is_none() && t.failed == 0 && t.retries == 0 && t.fresh == c.fresh {
            assert_eq!(t.speedup_bits, c.speedup_bits, "tenant {} perturbed", t.id);
            untouched += 1;
        }
    }
    assert!(untouched >= 1, "storm must leave some tenant fully alone");

    // 3. The in-memory fold is the committed ground truth; recovery must
    //    restore exactly it.
    let committed = store.state().fingerprint();
    drop(store);
    let survivor = Arc::new(Store::open(crash_dir.path()).unwrap());
    assert_eq!(
        survivor.state().fingerprint(),
        committed,
        "recovered store must equal the committed prefix"
    );

    // 4. The service keeps serving: a warm restart from the survivor
    //    runs a fresh fault-free fleet correctly and reuses the
    //    journaled work.
    let again_config = small_config(4242, 2, Some(survivor));
    let again = run_serve(&EvalContext::new(), &again_config).unwrap();
    assert_all_results_correct(&again, &again_config);
    // The journal hydrates both the cache (hits) and the quarantine
    // (skips), so the robust claim is about *work*: a warm fleet never
    // re-generates more bitstreams than the cold fault-free one.
    assert!(
        again.fresh <= calm.fresh && again.cache_hits >= 1,
        "warm restart must not lose committed cache value \
         (fresh {} vs cold {}, hits {})",
        again.fresh,
        calm.fresh,
        again.cache_hits
    );
}
