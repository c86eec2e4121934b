//! Sweep-level CAD oracle: the flat netlist of every fresh CAD job of the
//! 14-app paper sweep, built as the benchmark's CAD replay builds it, must
//! place exactly as the placer that rescanned every pin per move and route
//! exactly as the router with full per-sink Dijkstra arrays. The two
//! references are shared with `jitise-cad`'s proptest oracles.

#[path = "../../cad/tests/support/reference_place.rs"]
mod reference_place;
#[path = "../../cad/tests/support/reference_route.rs"]
mod reference_route;

use jitise_apps::{App, PAPER_APPS};
use jitise_cad::{place, route, synthesize_top};
use jitise_core::{EvalContext, SpecializeConfig};
use jitise_ir::Dfg;
use jitise_ise::candidate_search;
use jitise_pivpav::{create_project_with, Netlist, NetlistCache};
use jitise_telemetry::Telemetry;
use std::collections::HashSet;

/// The flat netlist of every candidate the sweep implements, in sweep
/// order: the first selected candidate of each signature (later ones hit
/// the shared bitstream cache).
fn sweep_jobs(ctx: &EvalContext, cfg: &SpecializeConfig) -> Vec<(String, Netlist)> {
    let netlists = NetlistCache::new();
    let mut seen = HashSet::new();
    let mut jobs = Vec::new();
    for p in PAPER_APPS {
        let app = App::build(p.name).expect("paper app");
        let raw = app.profile_all_datasets_tier(ctx.vm_tier);
        let profile = raw[0].scaled(app.time_scale(&raw[0]));
        let search = candidate_search(&app.module, &profile, &ctx.estimator, &cfg.search);
        for s in &search.selection.selected {
            let cand = &s.candidate;
            let f = app.module.func(cand.key.func);
            let dfg = Dfg::build(f, cand.key.block);
            let sig = cand.signature(f, &dfg);
            if !seen.insert(sig) {
                continue;
            }
            let (project, _) =
                create_project_with(&ctx.db, &netlists, f, &dfg, cand, &Telemetry::disabled())
                    .expect("selected candidates have projects");
            let flat = synthesize_top(&project).expect("projects synthesize");
            jobs.push((format!("{} {sig:016x}", p.name), flat));
        }
    }
    jobs
}

#[test]
fn sweep_cad_jobs_match_reference() {
    let ctx = EvalContext::new();
    let cfg = SpecializeConfig::default();
    let (fabric, flow) = (&cfg.fabric, &cfg.flow);
    let jobs = sweep_jobs(&ctx, &cfg);
    assert!(jobs.len() > 250, "only {} CAD jobs", jobs.len());
    let mut nets = 0;
    for (job, nl) in &jobs {
        let got = place(fabric, nl, flow.place_effort, flow.seed).expect("job fits");
        let want =
            reference_place::place(fabric, nl, flow.place_effort, flow.seed).expect("job fits");
        assert!(got == want, "{job}: placement differs from the reference");
        let got = route(fabric, nl, &got, flow.route_effort).expect("placement matches");
        let want = reference_route::route(fabric, nl, &want, flow.route_effort)
            .expect("placement matches");
        assert!(got == want, "{job}: routes differ from the reference");
        nets += got.nets.iter().filter(|n| !n.edges.is_empty()).count();
    }
    assert!(nets > 10_000, "only {nets} routed nets");
}
