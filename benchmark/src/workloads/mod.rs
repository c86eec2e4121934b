//! The four workloads. Each builds its inputs from the seed and computes
//! its software-only oracle answers at construction, before set-up.
//!
//! Every workload pins `cad_workers = 2` and `search_workers = 1` and
//! leaves every other knob at the entry point's default (including
//! `vm_tier` and `overlay`), so a change of default shows in the numbers.

mod adaptive;
mod serve;
mod storm;
mod sweep;

use crate::harness::{timed, Tally, Workload};
use jitise_base::rng::SplitMix64;
use jitise_ir::Module;
use jitise_store::{Store, StoreOptions};
use jitise_telemetry::Telemetry;
use jitise_vm::{Interpreter, Value};
use std::path::Path;
use std::sync::Arc;

/// CAD worker lanes of every workload (the benchmark host has two CPUs).
pub const CAD_WORKERS: usize = 2;
/// Candidate-search lanes of every workload.
pub const SEARCH_WORKERS: usize = 1;

/// Workload names, in the order `run` executes them.
pub const NAMES: [&str; 4] = ["paper-sweep", "adaptive-warm", "serve-fleet", "storm-churn"];

/// Builds workload `name` for `seed`; stores go under `work`.
pub fn build(name: &str, seed: u64, work: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper-sweep" => Box::new(sweep::PaperSweep::new(seed)),
        "adaptive-warm" => Box::new(adaptive::AdaptiveWarm::new(seed, work)),
        "serve-fleet" => Box::new(serve::ServeFleet::new(seed, work)),
        "storm-churn" => Box::new(storm::StormChurn::new(seed, work)),
        _ => return None,
    })
}

/// `names` in a seed-determined order.
fn shuffled(names: &[&'static str], seed: u64) -> Vec<&'static str> {
    let mut v = names.to_vec();
    SplitMix64::new(seed).shuffle(&mut v);
    v
}

/// The software-only answer and cycle count of one run: the oracle every
/// workload's answers are checked against.
fn software_run(module: &Module, entry: &str, args: &[Value]) -> (Option<Value>, u64) {
    let out = Interpreter::new(module)
        .run(entry, args)
        .unwrap_or_else(|e| panic!("software oracle run of `{entry}` failed: {e}"));
    (out.ret, out.cycles)
}

/// An empty store at `dir` (any previous one removed) that records into
/// `tel`.
fn fresh_store(dir: &Path, tel: &Telemetry) -> Arc<Store> {
    let _ = std::fs::remove_dir_all(dir);
    let options = StoreOptions {
        telemetry: tel.clone(),
        ..StoreOptions::default()
    };
    Arc::new(Store::open_with(dir, options).expect("store opens"))
}

/// Closes `store`, reopens its directory and checks that recovery
/// restores exactly the live state. Returns the recovery's seconds.
fn reopen(store: Arc<Store>, tally: &mut Tally, workload: &str) -> f64 {
    let live = store.fingerprint();
    let dir = store.dir().to_path_buf();
    drop(store);
    let (recovered, t) = timed(|| Store::open(&dir));
    tally.check(recovered.is_ok_and(|s| s.fingerprint() == live), || {
        format!("{workload}: recovered store differs from the live state")
    });
    t.wall_s
}
