//! Determinism suite for the multi-worker CAD scheduler (DESIGN.md §10).
//!
//! The contract: for any `cad_workers` count, with or without fault
//! injection, a specialization run must leave every observable identical —
//! report fingerprint, patched module, bitstream-cache state, quarantine
//! contents, telemetry counters, and the canonical (order-independent)
//! event journal. Only the `makespan` may change, and it may only shrink.

use jitise_apps::App;
use jitise_base::SimTime;
use jitise_core::{specialize, BitstreamCache, SpecializeConfig};
use jitise_faults::{FaultInjector, FaultPlan};
use jitise_ir::Module;
use jitise_pivpav::{CircuitDb, NetlistCache, PivPavEstimator};
use jitise_telemetry::Telemetry;
use jitise_woolcano::Woolcano;

/// Everything observable about one specialization run, frozen for
/// comparison across worker counts.
struct Artifacts {
    fingerprint: String,
    module: Module,
    cache_bytes: Vec<u8>,
    quarantine: Vec<u64>,
    counters: Vec<(String, u64)>,
    journal: String,
    candidates: usize,
    cpu_time: SimTime,
    makespan: SimTime,
}

/// One full specialization of `app` on fresh caches with `workers` CAD
/// lanes and an optional fault plan.
fn run(app_name: &str, workers: usize, plan: Option<FaultPlan>) -> Artifacts {
    let app = App::build(app_name).expect("paper app");
    let profile = app.profile_all_datasets().remove(0);
    let db = CircuitDb::build();
    let netlists = NetlistCache::new();
    let bitstreams = BitstreamCache::new();
    let estimator = PivPavEstimator::new();
    let tel = Telemetry::enabled();
    let cfg = SpecializeConfig {
        telemetry: tel.clone(),
        faults: plan
            .map(FaultInjector::from_plan)
            .unwrap_or_else(FaultInjector::disabled),
        cad_workers: workers,
        ..SpecializeConfig::default()
    };
    let mut module = app.module.clone();
    let machine = Woolcano::new(512);
    let report = specialize(
        &mut module,
        &profile,
        &machine,
        &estimator,
        &db,
        &netlists,
        &bitstreams,
        &cfg,
    )
    .expect("specialization never aborts the run");
    assert_eq!(
        report.cpu_time,
        report.sum_time + report.fault_time(),
        "cpu_time is the full charged total"
    );
    assert!(report.makespan <= report.cpu_time);
    assert_eq!(report.cad_workers, workers.max(1));
    let snap = tel.snapshot();
    Artifacts {
        fingerprint: report.fingerprint(),
        module,
        cache_bytes: bitstreams.to_bytes(),
        quarantine: cfg.quarantine.signatures(),
        counters: snap.counters.clone(),
        journal: snap.canonical_journal(),
        candidates: report.candidates.len() + report.failed.len(),
        cpu_time: report.cpu_time,
        makespan: report.makespan,
    }
}

fn assert_schedule_oblivious(app_name: &str, plan: Option<FaultPlan>) {
    let base = run(app_name, 1, plan.clone());
    assert_eq!(
        base.makespan, base.cpu_time,
        "one lane: the makespan is the sequential total"
    );
    for workers in [2usize, 4, 8] {
        let par = run(app_name, workers, plan.clone());
        assert_eq!(base.fingerprint, par.fingerprint, "workers={workers}");
        assert_eq!(base.module, par.module, "patched module, workers={workers}");
        assert_eq!(
            base.cache_bytes, par.cache_bytes,
            "bitstream-cache state, workers={workers}"
        );
        assert_eq!(
            base.quarantine, par.quarantine,
            "quarantine contents, workers={workers}"
        );
        assert_eq!(base.counters, par.counters, "counters, workers={workers}");
        assert_eq!(
            base.journal, par.journal,
            "canonical journal, workers={workers}"
        );
        assert_eq!(base.cpu_time, par.cpu_time, "cpu_time, workers={workers}");
        assert!(par.makespan <= par.cpu_time, "workers={workers}");
    }
}

#[test]
fn fault_free_run_is_identical_for_any_worker_count() {
    assert_schedule_oblivious("adpcm", None);
    assert_schedule_oblivious("sor", None);
}

#[test]
fn faulty_run_is_identical_for_any_worker_count() {
    // A moderate uniform rate exercises flow deaths, poisoned cache reads,
    // corrupted ICAP transfers, retries, and quarantining — all of which
    // must settle identically regardless of lane count.
    assert_schedule_oblivious("adpcm", Some(FaultPlan::uniform(0.35, 9)));
}

#[test]
fn persistent_faults_quarantine_identically_in_parallel() {
    let mut plan = FaultPlan::uniform(0.6, 23);
    plan.persistent_frac = 1.0;
    assert_schedule_oblivious("sor", Some(plan));
}

#[test]
fn four_workers_strictly_beat_the_sequential_total() {
    let seq = run("adpcm", 1, None);
    let par = run("adpcm", 4, None);
    assert!(
        par.candidates >= 2,
        "need at least two candidates to overlap, got {}",
        par.candidates
    );
    assert_eq!(seq.cpu_time, par.cpu_time);
    assert!(
        par.makespan < seq.cpu_time,
        "4 lanes must shorten the critical path: makespan {} vs cpu {}",
        par.makespan,
        seq.cpu_time
    );
}
