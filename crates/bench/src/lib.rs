//! # jitise-bench — evaluation harness
//!
//! Table-reproduction binaries (`table1` … `table4`, `sweep`) and the
//! `trace` telemetry driver. The table binaries print the same rows and
//! columns as the paper's tables, with measured values side by side with
//! the published ones; `EXPERIMENTS.md` archives their output.
//!
//! The `bench` binary is the perf-trajectory harness: it runs seeded
//! deterministic workloads for eight topics (candidate search, CAD, VM,
//! store, pipeline, storm, serve, overlay) and writes one
//! schema-versioned `BENCH_<topic>.json` artifact per topic (see
//! [`schema`]); `bench --check` gates a fresh run against committed
//! baselines. [`runner`] measures host time, [`workload`] builds the
//! synthetic search workload.

pub mod runner;
pub mod schema;
pub mod workload;

use jitise_apps::{App, Domain};
use jitise_core::{evaluate_app, AppEvaluation, EvalContext};

/// Mean of a selector over a slice.
pub fn mean_of<T, F: Fn(&T) -> f64>(xs: &[T], f: F) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().map(f).sum::<f64>() / xs.len() as f64
}

/// Evaluates every app of a domain (or all if `None`), in table order.
pub fn evaluate_domain(ctx: &EvalContext, domain: Option<Domain>) -> Vec<(App, AppEvaluation)> {
    jitise_apps::PAPER_APPS
        .iter()
        .filter(|p| domain.map(|d| p.domain == d).unwrap_or(true))
        .map(|p| {
            let app = App::build(p.name).expect("registry complete");
            let ev = evaluate_app(ctx, &app);
            (app, ev)
        })
        .collect()
}

/// The tables' RATIO row: scientific average over embedded average.
pub fn ratio_row(sci: f64, emb: f64) -> f64 {
    if emb == 0.0 {
        return 0.0;
    }
    sci / emb
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_helper() {
        let xs = [1.0f64, 2.0, 3.0];
        assert_eq!(mean_of(&xs, |x| *x), 2.0);
        assert_eq!(mean_of::<f64, _>(&[], |x| *x), 0.0);
    }

    #[test]
    fn ratio_helper() {
        assert_eq!(ratio_row(10.0, 2.0), 5.0);
        assert_eq!(ratio_row(1.0, 0.0), 0.0);
    }
}
