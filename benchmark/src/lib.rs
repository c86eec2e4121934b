//! # jitise-benchmark — the repository's end-to-end benchmark
//!
//! Four workloads drive the JIT specialization runtime through its public
//! entry points (`evaluate_app`, `run_adaptive_with`, `run_serve`,
//! `run_storm`), check every answer against software-only oracles, and
//! report host end-to-end metrics (telemetry off) plus a per-layer
//! breakdown from one traced iteration. See `README.md` for the workloads,
//! the metric tables and how to compare two sets of runs.

pub mod compare;
pub mod env;
pub mod harness;
pub mod layers;
pub mod report;
pub mod stats;
pub mod workloads;

use harness::Plan;
use report::WorkloadResult;
use std::path::Path;

/// Default workload seed (the paper's year).
pub const DEFAULT_SEED: u64 = 2011;
/// Default time budget of the timed phase, in seconds.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// Runs one workload in this process. Its stores live under `work`,
/// which must exist. `None` for an unknown workload name.
pub fn run_workload(name: &str, seed: u64, plan: &Plan, work: &Path) -> Option<WorkloadResult> {
    let env = env::capture(work);
    let mut workload = workloads::build(name, seed, work)?;
    Some(harness::run(name, seed, env, workload.as_mut(), plan))
}
