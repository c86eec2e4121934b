//! `paper-sweep`: the paper's Table I–III protocol. `evaluate_app` over
//! the 14 paper applications (in a seed-determined order) with a fresh
//! `EvalContext` per iteration, so every cache starts cold.
//!
//! The warm-up and traced iterations run the same protocol decomposed
//! into its public steps (profiling, unpruned search, `begin`, `execute`
//! per job on the benchmark's own two-thread pool, `finalize`,
//! break-even), which is where the per-layer times come from. Each app's
//! report fingerprint must equal the one `evaluate_app` produced, and its
//! patched binary, run on the loaded machine, must return the software
//! answer. The traced iteration also replays the CAD stages of every
//! fresh job and checks each bitstream against the cache.

use super::{shuffled, software_run, CAD_WORKERS, SEARCH_WORKERS};
use crate::harness::{timed, Tally, Timing, Traced, Workload};
use crate::layers::{from_spans, Layers};
use crate::stats::{geomean, nearest_rank};
use jitise_apps::{App, PAPER_APPS};
use jitise_base::SimTime;
use jitise_cad::{analyze, bitgen, place, route, synthesize_top, Bitstream, Fabric};
use jitise_core::{
    break_even_basis, break_even_scaled, evaluate_app, CadJob, CadJobResult, EvalContext,
    SpecializeConfig, SpecializeReport, SpecializeSession,
};
use jitise_ir::{Dfg, Module};
use jitise_ise::{candidate_search, PruneFilter, SearchConfig};
use jitise_pivpav::{create_project_with, NetlistCache};
use jitise_telemetry::Telemetry;
use jitise_vm::coverage::classify;
use jitise_vm::{Interpreter, Value};
use jitise_woolcano::Woolcano;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

pub struct PaperSweep {
    order: Vec<&'static str>,
    /// Software answer of each app on its first dataset.
    oracle: Vec<Option<Value>>,
    apps: Vec<App>,
    /// Report fingerprint of each app in the first iteration.
    fingerprints: Vec<Option<String>>,
}

impl PaperSweep {
    pub fn new(seed: u64) -> PaperSweep {
        let names: Vec<&'static str> = PAPER_APPS.iter().map(|p| p.name).collect();
        let order = shuffled(&names, seed);
        let oracle = order
            .iter()
            .map(|name| {
                let app = App::build(name).expect("paper app");
                software_run(&app.module, app.entry, &app.datasets[0].args).0
            })
            .collect();
        PaperSweep {
            order,
            oracle,
            apps: Vec::new(),
            fingerprints: Vec::new(),
        }
    }

    /// Checks an app's report against the first iteration's fingerprint.
    fn check_report(&mut self, tally: &mut Tally, i: usize, report: &SpecializeReport, ok: bool) {
        let fp = report.fingerprint();
        let same = *self.fingerprints[i].get_or_insert_with(|| fp.clone()) == fp;
        let name = self.order[i];
        tally.check(ok && report.failed.is_empty() && same, || {
            format!(
                "paper-sweep {name}: answer {}, {} failed candidates, fingerprint {}",
                if ok { "correct" } else { "wrong" },
                report.failed.len(),
                if same { "equal" } else { "differs" }
            )
        });
    }
}

fn context() -> EvalContext {
    let mut ctx = EvalContext::new();
    ctx.cad_workers = CAD_WORKERS;
    ctx.search_workers = SEARCH_WORKERS;
    ctx
}

/// What the exact metrics need from one app's evaluation.
#[derive(Clone)]
struct AppSummary {
    makespan_s: f64,
    cache_hits: usize,
    candidates: usize,
    asip_ratio_pruned: f64,
    break_even_s: Option<f64>,
}

impl AppSummary {
    fn new(report: &SpecializeReport, asip_ratio_pruned: f64, break_even: Option<SimTime>) -> Self {
        AppSummary {
            makespan_s: report.makespan.as_secs_f64(),
            cache_hits: report.cache_hits,
            candidates: report.candidates.len(),
            asip_ratio_pruned,
            break_even_s: break_even.map(SimTime::as_secs_f64),
        }
    }
}

/// Exact metrics shared by the `evaluate_app` and decomposed iterations.
fn sweep_exact(apps: &[AppSummary]) -> Layers {
    let mut l = Layers::default();
    let hits: usize = apps.iter().map(|a| a.cache_hits).sum();
    let candidates: usize = apps.iter().map(|a| a.candidates).sum();
    let speedups: Vec<f64> = apps.iter().map(|a| a.asip_ratio_pruned).collect();
    l.set("sim_overhead_s", apps.iter().map(|a| a.makespan_s).sum());
    l.set("sim_speedup", geomean(&speedups));
    l.set("core.cache_hits", hits as f64);
    l.set(
        "core.cache_hit_frac",
        hits as f64 / candidates.max(1) as f64,
    );
    l.set(
        "core.sim_break_even_s",
        apps.iter().filter_map(|a| a.break_even_s).sum(),
    );
    l
}

/// Host timings of the CAD pool: per job, queue wait and run time.
struct Pool {
    wait_s: Vec<f64>,
    run_s: Vec<f64>,
    wall_s: f64,
}

/// Executes every job on `CAD_WORKERS` threads pulling from one queue.
fn run_pool(session: &SpecializeSession<'_>, jobs: &[CadJob]) -> (Vec<CadJobResult>, Pool) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let done: Vec<(CadJobResult, f64, f64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CAD_WORKERS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let wait = start.elapsed().as_secs_f64();
                        let (r, t) = timed(|| session.execute(job));
                        mine.push((r, wait, t.wall_s));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("CAD pool worker panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut results = Vec::with_capacity(done.len());
    let mut pool = Pool {
        wait_s: Vec::new(),
        run_s: Vec::new(),
        wall_s,
    };
    for (r, wait, run) in done {
        results.push(r);
        pool.wait_s.push(wait);
        pool.run_s.push(run);
    }
    (results, pool)
}

/// One app's `evaluate_app`, split at its public steps.
struct Decomposed {
    report: SpecializeReport,
    summary: AppSummary,
    job_signatures: HashSet<u64>,
    vm: Timing,
    vm_runs: usize,
    vm_steps: u64,
    unpruned: Timing,
    unpruned_identified: usize,
    unpruned_selected: usize,
    begin: Timing,
    pool: Pool,
    finalize: Timing,
}

/// `evaluate_app` step by step (the kernel and execution-time models it
/// also computes do not feed the report and are skipped). Also returns
/// the patched module and the loaded machine, for the answer check.
fn decompose(
    ctx: &EvalContext,
    app: &App,
    tel: &Telemetry,
) -> Result<(Decomposed, Module, Woolcano), String> {
    let (raw, vm) = timed(|| app.profile_all_datasets_tier(ctx.vm_tier));
    let scale = app.time_scale(&raw[0]);
    let profile = raw[0].scaled(scale);
    let coverage = classify(&app.module, &raw);

    let unpruned_cfg = SearchConfig {
        filter: PruneFilter::none(),
        workers: ctx.search_workers,
        memo: ctx.search_memo.clone(),
        ..SearchConfig::default()
    };
    let (unpruned_out, unpruned) =
        timed(|| candidate_search(&app.module, &profile, &ctx.estimator, &unpruned_cfg));

    let mut specialized = app.module.clone();
    let machine = Woolcano::with_telemetry(512, tel.clone());
    let cfg = SpecializeConfig {
        search: SearchConfig {
            workers: ctx.search_workers,
            memo: ctx.search_memo.clone(),
            ..SearchConfig::default()
        },
        telemetry: tel.clone(),
        cad_workers: ctx.cad_workers,
        vm_tier: ctx.vm_tier,
        overlay: ctx.overlay.clone(),
        ..SpecializeConfig::default()
    };
    let ((session, jobs), begin) = timed(|| {
        SpecializeSession::begin(
            &specialized,
            &profile,
            &machine,
            &ctx.estimator,
            &ctx.db,
            &ctx.netlists,
            &ctx.bitstreams,
            &cfg,
        )
    });
    let job_signatures = jobs.iter().map(CadJob::signature).collect();
    let (results, pool) = run_pool(&session, &jobs);
    let (report, finalize) = timed(|| session.finalize(&mut specialized, results));
    let report = report.map_err(|e| format!("{}: finalize failed: {e}", app.name))?;
    let basis = break_even_basis(ctx, &coverage, &profile, &report);
    let summary = AppSummary::new(
        &report,
        report.search.asip_ratio,
        break_even_scaled(basis.inputs),
    );
    let d = Decomposed {
        report,
        summary,
        job_signatures,
        vm,
        vm_runs: raw.len(),
        vm_steps: raw.iter().map(|p| p.total_insts()).sum(),
        unpruned,
        unpruned_identified: unpruned_out.identified,
        unpruned_selected: unpruned_out.selection.selected.len(),
        begin,
        pool,
        finalize,
    };
    Ok((d, specialized, machine))
}

/// Host seconds of the CAD stages the flow's spans lump together.
#[derive(Default)]
struct Replay {
    place_s: f64,
    route_s: f64,
    sta_s: f64,
}

/// Re-runs the CAD stages of `pristine`'s fresh jobs with the pipeline's
/// own flow settings, timing placement, routing and timing analysis
/// apart, and checks each bitstream against the one the cache holds.
fn replay(
    ctx: &EvalContext,
    netlists: &NetlistCache,
    pristine: &Module,
    d: &Decomposed,
    out: &mut Replay,
    tally: &mut Tally,
) {
    let SpecializeConfig { flow, fabric, .. } = SpecializeConfig::default();
    let mut seen = HashSet::new();
    for s in &d.report.search.selection.selected {
        let cand = &s.candidate;
        let f = pristine.func(cand.key.func);
        let dfg = Dfg::build(f, cand.key.block);
        let sig = cand.signature(f, &dfg);
        if !d.job_signatures.contains(&sig) || !seen.insert(sig) {
            continue;
        }
        let bits = replay_one(ctx, netlists, &fabric, &flow, f, &dfg, cand, out);
        let cached = ctx.bitstreams.get(sig).map(|c| c.bitstream);
        tally.check(
            bits.is_ok() && bits.as_ref().ok() == cached.as_ref(),
            || format!("CAD replay of candidate {sig:016x}: {bits:?} vs cache"),
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn replay_one(
    ctx: &EvalContext,
    netlists: &NetlistCache,
    fabric: &Fabric,
    flow: &jitise_cad::FlowOptions,
    f: &jitise_ir::Function,
    dfg: &Dfg,
    cand: &jitise_ise::Candidate,
    out: &mut Replay,
) -> Result<Bitstream, String> {
    let (project, _) = create_project_with(&ctx.db, netlists, f, dfg, cand, &Telemetry::disabled())
        .map_err(|e| e.to_string())?;
    let flat = synthesize_top(&project).map_err(|e| e.to_string())?;
    let (placement, t) = timed(|| place(fabric, &flat, flow.place_effort, flow.seed));
    out.place_s += t.wall_s;
    let placement = placement.map_err(|e| e.to_string())?;
    let (routed, t) = timed(|| route(fabric, &flat, &placement, flow.route_effort));
    out.route_s += t.wall_s;
    let routed = routed.map_err(|e| e.to_string())?;
    let (_, t) = timed(|| analyze(fabric, &flat, &placement, &routed));
    out.sta_s += t.wall_s;
    Ok(bitgen(fabric, &flat, &placement, &routed, flow.eapr))
}

impl PaperSweep {
    /// Runs the decomposed sweep; with `trace` on, records spans and
    /// replays the CAD stages.
    fn decomposed(&mut self, tally: &mut Tally, trace: bool) -> Traced {
        let tel = if trace {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        // Each app is checked as soon as it finishes (outside the timed
        // calls), so the patched binaries are not all alive at once.
        let (ctx, mut timing) = timed(context);
        let mut runs: Vec<(usize, Decomposed)> = Vec::new();
        for i in 0..self.apps.len() {
            let (run, t) = timed(|| decompose(&ctx, &self.apps[i], &tel));
            timing += t;
            match run {
                Ok((d, specialized, machine)) => {
                    let app = &self.apps[i];
                    let mut vm = Interpreter::new(&specialized);
                    vm.set_custom_handler(&machine);
                    let answer = vm.run(app.entry, &app.datasets[0].args).map(|o| o.ret);
                    let answered = answer.as_ref().ok() == Some(&self.oracle[i]);
                    self.check_report(tally, i, &d.report, answered);
                    runs.push((i, d));
                }
                Err(e) => tally.check(false, || format!("paper-sweep: {e}")),
            }
        }
        let snap = tel.snapshot();
        let summaries: Vec<AppSummary> = runs.iter().map(|(_, d)| d.summary.clone()).collect();
        let mut l = sweep_exact(&summaries);
        if !trace {
            return Traced {
                timing,
                attributed_s: 0.0,
                layers: l,
            };
        }

        from_spans(&snap, &mut l);
        let pruned_search_s = l.get("ise.busy_s");
        let sum = |f: &dyn Fn(&Decomposed) -> f64| runs.iter().map(|(_, d)| f(d)).sum::<f64>();
        let vm_s = sum(&|d| d.vm.wall_s);
        let steps = sum(&|d| d.vm_steps as f64);
        l.set("vm.runs", sum(&|d| d.vm_runs as f64));
        l.set("vm.steps", steps);
        l.set("vm.busy_s", vm_s);
        l.set("vm.minsts_per_s", steps / vm_s.max(1e-9) / 1e6);
        l.add("ise.searches", runs.len() as f64);
        l.add("ise.busy_s", sum(&|d| d.unpruned.wall_s));
        l.add("ise.identified", sum(&|d| d.unpruned_identified as f64));
        l.add("ise.selected", sum(&|d| d.unpruned_selected as f64));

        let run_s: Vec<f64> = runs
            .iter()
            .flat_map(|(_, d)| d.pool.run_s.clone())
            .collect();
        let wait_s: Vec<f64> = runs
            .iter()
            .flat_map(|(_, d)| d.pool.wait_s.clone())
            .collect();
        let cad_s: f64 = run_s.iter().sum();
        let failed = sum(&|d| d.report.failed.len() as f64);
        l.set("cad.jobs", run_s.len() as f64);
        l.set("cad.busy_s", cad_s);
        l.set("cad.job_p50_s", nearest_rank(&run_s, 0.50));
        l.set("cad.job_p95_s", nearest_rank(&run_s, 0.95));
        l.set("cad.ok_frac", 1.0 - failed / run_s.len().max(1) as f64);

        let begin_s = sum(&|d| d.begin.wall_s);
        let finalize_s = sum(&|d| d.finalize.wall_s);
        l.set("core.dispatch_s", begin_s - pruned_search_s);
        l.set("core.queue_wait_p50_s", nearest_rank(&wait_s, 0.50));
        l.set("core.queue_wait_p95_s", nearest_rank(&wait_s, 0.95));
        l.set(
            "core.lane_busy_frac",
            cad_s / (CAD_WORKERS as f64 * sum(&|d| d.pool.wall_s)).max(1e-9),
        );
        l.set("core.finalize_s", finalize_s);

        let mut stages = Replay::default();
        let netlists = NetlistCache::new();
        for (i, d) in &runs {
            replay(
                &ctx,
                &netlists,
                &self.apps[*i].module,
                d,
                &mut stages,
                tally,
            );
        }
        l.set("cad.place_s", stages.place_s);
        l.set("cad.route_s", stages.route_s);
        l.set("cad.sta_s", stages.sta_s);

        Traced {
            timing,
            // Disjoint timers: `begin` holds the pruned search and C2V,
            // `finalize` the ICAP installs.
            attributed_s: vm_s + sum(&|d| d.unpruned.wall_s) + begin_s + cad_s + finalize_s,
            layers: l,
        }
    }
}

impl Workload for PaperSweep {
    fn setup(&mut self, _tally: &mut Tally) {
        self.apps = self
            .order
            .iter()
            .map(|name| App::build(name).expect("paper app"))
            .collect();
        self.fingerprints = vec![None; self.apps.len()];
    }

    fn iterate(&mut self, tally: &mut Tally) -> (Timing, Layers) {
        if self.fingerprints.iter().all(Option::is_none) {
            // The first iteration runs decomposed: it fixes the reference
            // fingerprints and checks the patched binaries' answers.
            let t = self.decomposed(tally, false);
            return (t.timing, t.layers);
        }
        let (ctx, mut timing) = timed(context);
        let mut summaries = Vec::new();
        for i in 0..self.apps.len() {
            let app = &self.apps[i];
            let (ev, t) = timed(|| catch_unwind(AssertUnwindSafe(|| evaluate_app(&ctx, app))));
            timing += t;
            match ev {
                Ok(ev) => {
                    self.check_report(tally, i, &ev.report, true);
                    summaries.push(AppSummary::new(
                        &ev.report,
                        ev.asip_ratio_pruned,
                        ev.break_even,
                    ));
                }
                Err(_) => tally.check(false, || {
                    format!("{}: evaluate_app panicked", self.order[i])
                }),
            }
        }
        (timing, sweep_exact(&summaries))
    }

    fn traced(&mut self, tally: &mut Tally) -> Traced {
        self.decomposed(tally, true)
    }
}
