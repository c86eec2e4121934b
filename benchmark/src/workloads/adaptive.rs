//! `adaptive-warm`: a restarted JIT runtime whose bitstream library is
//! already stored. Set-up runs one cold pass of every app that journals
//! into a `Store`, then reopens the store (recovery). Each iteration runs
//! `run_adaptive_with` (8 runs, swap after 2) per app against a fresh
//! `BitstreamCache` that the session hydrates from the recovered store,
//! so every candidate is a cache hit, no CAD job runs, and the VM is
//! about all of the wall.

use super::{fresh_store, shuffled, software_run, CAD_WORKERS, SEARCH_WORKERS};
use crate::harness::{timed, Tally, Timing, Traced, Workload};
use crate::layers::{from_spans, Layers};
use crate::stats::geomean;
use jitise_apps::App;
use jitise_core::{
    run_adaptive_with, AdaptiveOptions, AdaptiveOutcome, BitstreamCache, EvalContext,
};
use jitise_store::{Store, StoreOptions};
use jitise_telemetry::Telemetry;
use jitise_vm::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const APPS: [&str; 6] = ["adpcm", "fft", "sor", "whetstone", "179.art", "429.mcf"];
const TOTAL_RUNS: u32 = 8;
const READY_AFTER: u32 = 2;

pub struct AdaptiveWarm {
    order: Vec<&'static str>,
    oracle: Vec<Option<Value>>,
    dir: PathBuf,
    apps: Vec<App>,
    ctx: Option<EvalContext>,
    store: Option<Arc<Store>>,
}

fn options(store: &Arc<Store>) -> AdaptiveOptions {
    AdaptiveOptions {
        cad_workers: CAD_WORKERS,
        search_workers: SEARCH_WORKERS,
        store: Some(Arc::clone(store)),
        ..AdaptiveOptions::default()
    }
}

impl AdaptiveWarm {
    pub fn new(seed: u64, work: &Path) -> AdaptiveWarm {
        let order = shuffled(&APPS, seed);
        let oracle = order
            .iter()
            .map(|name| {
                let app = App::build(name).expect("paper app");
                software_run(&app.module, app.entry, &app.datasets[0].args).0
            })
            .collect();
        AdaptiveWarm {
            order,
            oracle,
            dir: work.join("adaptive-store"),
            apps: Vec::new(),
            ctx: None,
            store: None,
        }
    }

    /// One session per app against a fresh cache hydrated from the store.
    fn sessions(&self, ctx: &EvalContext) -> Vec<jitise_base::Result<AdaptiveOutcome>> {
        let store = self.store.as_ref().expect("set-up ran");
        self.apps
            .iter()
            .map(|app| {
                run_adaptive_with(
                    ctx,
                    &BitstreamCache::new(),
                    &app.module,
                    app.entry,
                    &app.datasets[0].args,
                    TOTAL_RUNS,
                    READY_AFTER,
                    &options(store),
                )
            })
            .collect()
    }

    fn check(&self, tally: &mut Tally, outs: &[jitise_base::Result<AdaptiveOutcome>]) -> Layers {
        let mut speedups = Vec::new();
        let (mut overhead, mut hits, mut candidates, mut fresh) = (0.0, 0, 0, 0);
        for (i, out) in outs.iter().enumerate() {
            let name = self.order[i];
            let want = &self.oracle[i];
            match out {
                Ok(o) => {
                    let answers_ok = o.results.len() == TOTAL_RUNS as usize
                        && o.results.iter().all(|r| r == want);
                    tally.check(
                        answers_ok && o.degraded.is_none() && o.report.is_some(),
                        || {
                            format!(
                                "adaptive-warm {name}: degraded {:?}, answers ok {answers_ok}",
                                o.degraded
                            )
                        },
                    );
                    speedups.push(o.observed_speedup);
                    overhead += o.overhead.as_secs_f64();
                    if let Some(r) = &o.report {
                        hits += r.cache_hits;
                        candidates += r.candidates.len();
                        fresh += r.candidates.iter().filter(|c| !c.cache_hit).count();
                    }
                }
                Err(e) => tally.check(false, || format!("adaptive-warm {name}: {e}")),
            }
        }
        let mut l = Layers::default();
        l.set("sim_overhead_s", overhead);
        l.set("sim_speedup", geomean(&speedups));
        l.set("core.cache_hits", hits as f64);
        l.set(
            "core.cache_hit_frac",
            hits as f64 / candidates.max(1) as f64,
        );
        l.set("cad.jobs", fresh as f64);
        l.set("cad.ok_frac", 1.0);
        l
    }
}

impl Workload for AdaptiveWarm {
    fn setup(&mut self, tally: &mut Tally) {
        self.store = None;
        self.apps = self
            .order
            .iter()
            .map(|name| App::build(name).expect("paper app"))
            .collect();
        let ctx = EvalContext::new();
        let cold = fresh_store(&self.dir, &Telemetry::disabled());
        for app in &self.apps {
            let out = run_adaptive_with(
                &ctx,
                &BitstreamCache::new(),
                &app.module,
                app.entry,
                &app.datasets[0].args,
                2,
                1,
                &options(&cold),
            );
            tally.check(out.as_ref().is_ok_and(|o| o.degraded.is_none()), || {
                format!("adaptive-warm cold pass of {}: failed", app.name)
            });
        }
        let journaled = cold.fingerprint();
        drop(cold);
        let store = Store::open(&self.dir).expect("store recovers");
        tally.check(store.fingerprint() == journaled, || {
            "adaptive-warm: recovered store differs from the journaled state".into()
        });
        self.store = Some(Arc::new(store));
        self.ctx = Some(ctx);
    }

    fn iterate(&mut self, tally: &mut Tally) -> (Timing, Layers) {
        let ctx = self.ctx.as_ref().expect("set-up ran");
        let (outs, timing) = timed(|| self.sessions(ctx));
        (timing, self.check(tally, &outs))
    }

    fn traced(&mut self, tally: &mut Tally) -> Traced {
        let tel = Telemetry::enabled();
        // Reopen the store with telemetry: the recovery a restarted
        // runtime pays, timed on its own. Sessions journal their fault
        // totals, so compare against the state just before closing.
        let live = self.store.take().expect("set-up ran").fingerprint();
        let (store, recover) = timed(|| {
            Store::open_with(
                &self.dir,
                StoreOptions {
                    telemetry: tel.clone(),
                    ..StoreOptions::default()
                },
            )
        });
        let store = store.expect("store recovers");
        tally.check(store.fingerprint() == live, || {
            "adaptive-warm: reopened store differs from the live state".into()
        });
        self.store = Some(Arc::new(store));

        let mut ctx = self.ctx.take().expect("set-up ran");
        ctx.telemetry = tel.clone();
        let (outs, timing) = timed(|| self.sessions(&ctx));
        ctx.telemetry = Telemetry::disabled();
        self.ctx = Some(ctx);

        let mut l = self.check(tally, &outs);
        let attributed_s = from_spans(&tel.snapshot(), &mut l);
        l.set("store.recover_s", recover.wall_s);
        l.set(
            "store.bytes_written",
            self.store.as_ref().map_or(0, |s| s.bytes_written()) as f64,
        );
        Traced {
            timing,
            attributed_s,
            layers: l,
        }
    }
}
