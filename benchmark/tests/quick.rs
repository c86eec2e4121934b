//! A quick run of every workload (one set-up, warm-up, timed and traced
//! iteration each), twice: every answer must check out, and the exact
//! metrics (SimTime quantities and counts) must repeat bit for bit.

use jitise_benchmark::harness::Plan;
use jitise_benchmark::layers::LAYER_METRICS;
use jitise_benchmark::report::{Kind, WorkloadResult};
use jitise_benchmark::{run_workload, DEFAULT_SEED};
use std::path::PathBuf;

fn quick(name: &str, pass: u32) -> WorkloadResult {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("quick-{name}-{pass}"));
    std::fs::create_dir_all(&work).unwrap();
    let r = run_workload(name, DEFAULT_SEED, &Plan::quick(), &work).expect("known workload");
    let _ = std::fs::remove_dir_all(&work);
    r
}

fn exact(r: &WorkloadResult) -> Vec<(String, u64)> {
    r.per_layer
        .iter()
        .filter(|m| m.kind == Kind::Exact)
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect()
}

/// Runs `name` twice and checks correctness and determinism.
fn check(name: &str) -> WorkloadResult {
    let first = quick(name, 1);
    assert!(first.correct(), "{name}: {:?}", first.failures);
    assert_eq!(first.failed_frac(), 0.0);
    assert_eq!(first.per_layer.len(), LAYER_METRICS.len());
    for m in &first.end_to_end {
        assert!(m.value > 0.0, "{name}: {} must be positive", m.name);
    }
    let second = quick(name, 2);
    assert!(second.correct(), "{name}: {:?}", second.failures);
    assert_eq!(
        exact(&first),
        exact(&second),
        "{name}: exact metrics differ"
    );
    first
}

fn layer(r: &WorkloadResult, name: &str) -> f64 {
    r.metric(name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .value
}

#[test]
fn paper_sweep_is_correct_and_place_route_dominates() {
    let r = check("paper-sweep");
    let par = layer(&r, "cad.place_s") + layer(&r, "cad.route_s");
    for other in [
        "vm.busy_s",
        "ise.busy_s",
        "pivpav.c2v_s",
        "core.dispatch_s",
        "core.finalize_s",
        "woolcano.install_s",
    ] {
        assert!(par > layer(&r, other), "place+route {par} vs {other}");
    }
    assert!(layer(&r, "cad.jobs") > 0.0);
}

#[test]
fn adaptive_warm_is_correct_and_all_hits() {
    let r = check("adaptive-warm");
    assert_eq!(layer(&r, "cad.jobs"), 0.0);
    assert_eq!(layer(&r, "core.cache_hit_frac"), 1.0);
}

#[test]
fn serve_fleet_is_correct() {
    let r = check("serve-fleet");
    assert!(layer(&r, "serve.deferred") > 0.0);
    assert!(layer(&r, "core.evictions") > 0.0);
}

#[test]
fn storm_churn_is_correct() {
    let r = check("storm-churn");
    assert!(layer(&r, "core.respecs") > 0.0);
    assert!(layer(&r, "core.evictions") > 0.0);
}
