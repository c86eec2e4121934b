//! `storm-churn`: the write side of the cache and store that
//! `adaptive-warm` only reads. `run_storm` on a phased module with four
//! near-duplicate kernels (seeded by the workload seed): kernel 0 for 8
//! runs, then three rotations of 10 runs per kernel, 118 runs in all.
//! Every rotation is a phase change, so the session detects it, evicts
//! the benefit-less CIs (journaling tombstones), re-inserts and
//! re-specializes synchronously.

use super::{fresh_store, reopen, software_run, CAD_WORKERS, SEARCH_WORKERS};
use crate::harness::{timed, Tally, Timing, Traced, Workload};
use crate::layers::{from_spans, Layers};
use jitise_apps::{build_phased, PhasedSpec};
use jitise_core::{
    run_storm, AdaptiveOptions, BitstreamCache, EvalContext, PhasePolicy, PhaseSegment,
    StormOptions, StormOutcome,
};
use jitise_ir::Module;
use jitise_pivpav::NetlistCache;
use jitise_store::Store;
use jitise_telemetry::Telemetry;
use jitise_vm::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const KERNELS: i64 = 4;

pub struct StormChurn {
    seed: u64,
    schedule: Vec<PhaseSegment>,
    /// Software answer and cycles of every run, in schedule order.
    oracle: Vec<(Option<Value>, u64)>,
    dir: PathBuf,
    module: Option<Module>,
    ctx: Option<EvalContext>,
}

fn spec(seed: u64) -> PhasedSpec {
    PhasedSpec {
        seed,
        kernels: KERNELS as u32,
        hot_iters: 240,
        near_duplicate: true,
        ..PhasedSpec::default()
    }
}

impl StormChurn {
    pub fn new(seed: u64, work: &Path) -> StormChurn {
        let args = |k: i64| vec![Value::I(k), Value::I(2)];
        let mut schedule = vec![PhaseSegment::new(args(0), 8)];
        for rotation in 0..3 {
            for k in 0..KERNELS {
                if rotation > 0 || k > 0 {
                    schedule.push(PhaseSegment::new(args(k), 10));
                }
            }
        }
        let module = build_phased(&spec(seed));
        let per_kernel: Vec<_> = (0..KERNELS)
            .map(|k| software_run(&module, "main", &args(k)))
            .collect();
        let oracle = schedule
            .iter()
            .flat_map(|s| {
                let k = match s.args[0] {
                    Value::I(k) => k as usize,
                    _ => unreachable!("kernel selectors are integers"),
                };
                std::iter::repeat_n(per_kernel[k], s.runs as usize)
            })
            .collect();
        StormChurn {
            seed,
            schedule,
            oracle,
            dir: work.join("storm-store"),
            module: None,
            ctx: None,
        }
    }

    /// One storm session against fresh caches and a fresh store.
    fn session(
        &mut self,
        tel: &Telemetry,
    ) -> (jitise_base::Result<StormOutcome>, Arc<Store>, Timing) {
        let ctx = self.ctx.as_mut().expect("set-up ran");
        ctx.netlists = NetlistCache::new();
        ctx.telemetry = tel.clone();
        let store = fresh_store(&self.dir, tel);
        let options = StormOptions {
            base: AdaptiveOptions {
                cad_workers: CAD_WORKERS,
                search_workers: SEARCH_WORKERS,
                store: Some(Arc::clone(&store)),
                ..AdaptiveOptions::default()
            },
            policy: PhasePolicy {
                window: 2,
                cold_share: 0.2,
                hysteresis: 2,
                cooldown: 2,
                max_respecs: 64,
            },
            ready_after_runs: 2,
            ..StormOptions::default()
        };
        let module = self.module.as_ref().expect("set-up ran");
        let ctx = self.ctx.as_ref().expect("set-up ran");
        let (out, timing) = timed(|| {
            run_storm(
                ctx,
                &BitstreamCache::new(),
                module,
                "main",
                &self.schedule,
                &options,
            )
        });
        (out, store, timing)
    }

    fn check(
        &self,
        tally: &mut Tally,
        out: &jitise_base::Result<StormOutcome>,
        store: &Store,
    ) -> Layers {
        let mut l = Layers::default();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                tally.check(false, || format!("storm-churn: run_storm failed: {e}"));
                return l;
            }
        };
        tally.check(out.results.len() == self.oracle.len(), || {
            format!(
                "storm-churn: {} runs, expected {}",
                out.results.len(),
                self.oracle.len()
            )
        });
        for (i, (got, (want, _))) in out.results.iter().zip(&self.oracle).enumerate() {
            tally.check(got == want, || {
                format!("storm-churn run {i}: {got:?} != {want:?}")
            });
        }
        tally.check(out.degraded_events == 0, || {
            format!("storm-churn: {} degraded transitions", out.degraded_events)
        });
        let software: u64 = self.oracle.iter().map(|&(_, c)| c).sum();
        let hardware: u64 = out.run_cycles.iter().sum();
        let hits: usize = out.reports.iter().map(|r| r.cache_hits).sum();
        let candidates: usize = out.reports.iter().map(|r| r.candidates.len()).sum();
        let fresh = candidates - hits;
        let failed: usize = out.reports.iter().map(|r| r.failed.len()).sum();
        l.set("sim_overhead_s", out.overhead.as_secs_f64());
        l.set("sim_speedup", software as f64 / hardware.max(1) as f64);
        l.set("core.cache_hits", hits as f64);
        l.set(
            "core.cache_hit_frac",
            hits as f64 / candidates.max(1) as f64,
        );
        l.set("core.evictions", out.evictions as f64);
        l.set("core.respecs", out.respecs as f64);
        l.set("core.phases_detected", out.phases_detected as f64);
        l.set("cad.jobs", fresh as f64);
        l.set("cad.ok_frac", 1.0 - failed as f64 / fresh.max(1) as f64);
        l.set("store.bytes_written", store.bytes_written() as f64);
        l
    }
}

impl Workload for StormChurn {
    fn setup(&mut self, _tally: &mut Tally) {
        self.module = Some(build_phased(&spec(self.seed)));
        let mut ctx = EvalContext::new();
        ctx.cad_workers = CAD_WORKERS;
        self.ctx = Some(ctx);
    }

    fn iterate(&mut self, tally: &mut Tally) -> (Timing, Layers) {
        let (out, store, timing) = self.session(&Telemetry::disabled());
        (timing, self.check(tally, &out, &store))
    }

    fn traced(&mut self, tally: &mut Tally) -> Traced {
        let tel = Telemetry::enabled();
        let (out, store, timing) = self.session(&tel);
        let mut l = self.check(tally, &out, &store);
        let attributed_s = from_spans(&tel.snapshot(), &mut l);
        l.set("store.recover_s", reopen(store, tally, "storm-churn"));
        Traced {
            timing,
            attributed_s,
            layers: l,
        }
    }
}
