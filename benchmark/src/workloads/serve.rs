//! `serve-fleet`: the mixed multi-tenant path. `run_serve` with 200
//! tenants on an open-loop arrival schedule against 12 active slots and an
//! 8-deep defer queue, six shared workloads, the default 64-entry shared
//! cache (FIFO evictions) and a store attached. Cross-tenant sharing
//! (search memo, dedup, shared cache reads), admission and the evictor
//! all show here.
//!
//! The fleet seed is fixed. How much CAD work a fleet needs is a sharp
//! function of its seed: whether the FIFO evictor thrashes decides between
//! about 160 and about 360 fresh implementations (0.54–0.92 s per fleet
//! over ten seeds on the reference host), far beyond any usable bound. So
//! `--seed` does not change this workload's inputs.

use super::{fresh_store, reopen, software_run, CAD_WORKERS};
use crate::harness::{timed, Tally, Timing, Traced, Workload};
use crate::layers::{from_spans, Layers};
use crate::stats::geomean;
use jitise_core::EvalContext;
use jitise_pivpav::NetlistCache;
use jitise_serve::{fleet, run_serve, workload_module, ServeConfig, ServeOutcome};
use jitise_store::Store;
use jitise_telemetry::Telemetry;
use jitise_vm::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const FLEET_SEED: u64 = 2011;

pub struct ServeFleet {
    config: ServeConfig,
    /// Software answer of each tenant's workload, by tenant id.
    oracle: Vec<Option<Value>>,
    dir: PathBuf,
    ctx: Option<EvalContext>,
}

impl ServeFleet {
    pub fn new(_seed: u64, work: &Path) -> ServeFleet {
        let config = ServeConfig {
            seed: FLEET_SEED,
            tenants: 200,
            cad_workers: CAD_WORKERS,
            max_active: 12,
            defer_capacity: 8,
            arrival_spacing_us: 100,
            service_model_us: 2_000,
            runs_per_tenant: 3,
            distinct_workloads: 6,
            hot_iters: 100,
            ..ServeConfig::default()
        };
        // Tenants share workloads: compute each distinct answer once.
        let mut answers = HashMap::new();
        let oracle = fleet(
            config.seed,
            config.tenants,
            config.arrival_spacing_us,
            config.service_model_us,
            config.distinct_workloads,
            config.kernels,
        )
        .iter()
        .map(|spec| {
            *answers
                .entry((spec.workload_seed, spec.sel))
                .or_insert_with(|| {
                    let m = workload_module(
                        spec,
                        config.kernels,
                        config.hot_iters,
                        config.near_duplicate,
                    );
                    software_run(&m, "main", &[Value::I(spec.sel), Value::I(2)]).0
                })
        })
        .collect();
        ServeFleet {
            config,
            oracle,
            dir: work.join("serve-store"),
            ctx: None,
        }
    }

    /// One fleet against a fresh store and a cold netlist cache (a warm
    /// one legitimately changes netlist-generation charges).
    fn fleet(
        &mut self,
        tel: &Telemetry,
    ) -> (jitise_base::Result<ServeOutcome>, Arc<Store>, Timing) {
        let ctx = self.ctx.as_mut().expect("set-up ran");
        ctx.netlists = NetlistCache::new();
        let store = fresh_store(&self.dir, tel);
        let config = ServeConfig {
            store: Some(Arc::clone(&store)),
            telemetry: tel.clone(),
            ..self.config.clone()
        };
        let (out, timing) = timed(|| run_serve(ctx, &config));
        (out, store, timing)
    }

    fn check(
        &self,
        tally: &mut Tally,
        out: &jitise_base::Result<ServeOutcome>,
        store: &Store,
    ) -> Layers {
        let mut l = Layers::default();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                tally.check(false, || format!("serve-fleet: run_serve failed: {e}"));
                return l;
            }
        };
        tally.check(out.tenants.len() == self.oracle.len(), || {
            format!(
                "serve-fleet: {} tenants, expected {}",
                out.tenants.len(),
                self.oracle.len()
            )
        });
        for (t, want) in out.tenants.iter().zip(&self.oracle) {
            let answers_ok = t.results.len() == self.config.runs_per_tenant as usize
                && t.results.iter().all(|r| r == want);
            tally.check(answers_ok && t.degraded.is_none(), || {
                format!(
                    "serve-fleet tenant {}: degraded {:?}, answers ok {answers_ok}",
                    t.id, t.degraded
                )
            });
        }
        tally.check(
            out.store_fingerprint.as_deref() == Some(&store.fingerprint()),
            || "serve-fleet: outcome's store fingerprint differs from the store".into(),
        );
        let speedups: Vec<f64> = out
            .tenants
            .iter()
            .map(|t| f64::from_bits(t.speedup_bits))
            .collect();
        let failed: u32 = out.tenants.iter().map(|t| t.failed).sum();
        l.set("sim_overhead_s", out.timing.makespan.as_secs_f64());
        l.set("sim_speedup", geomean(&speedups));
        l.set("core.cache_hits", out.cache_hits as f64);
        l.set(
            "core.cache_hit_frac",
            out.cache_hits as f64 / (out.cache_hits + out.fresh).max(1) as f64,
        );
        l.set("core.evictions", out.evictions as f64);
        l.set("cad.jobs", out.fresh as f64);
        l.set("cad.ok_frac", 1.0 - failed as f64 / out.fresh.max(1) as f64);
        l.set("serve.admitted", out.admitted as f64);
        l.set("serve.deferred", out.deferred as f64);
        l.set(
            "serve.shed_frac",
            out.shed as f64 / out.tenants.len().max(1) as f64,
        );
        l.set("serve.degraded", out.degraded as f64);
        l.set("serve.pool_jobs", out.timing.pool_jobs as f64);
        l.set("serve.max_queue_depth", out.timing.max_queue_depth as f64);
        l.set(
            "serve.max_rounds_waited",
            out.timing.max_rounds_waited as f64,
        );
        l.set("store.bytes_written", store.bytes_written() as f64);
        l
    }
}

impl Workload for ServeFleet {
    fn setup(&mut self, _tally: &mut Tally) {
        let mut ctx = EvalContext::new();
        ctx.cad_workers = CAD_WORKERS;
        self.ctx = Some(ctx);
    }

    fn iterate(&mut self, tally: &mut Tally) -> (Timing, Layers) {
        let (out, store, timing) = self.fleet(&Telemetry::disabled());
        (timing, self.check(tally, &out, &store))
    }

    fn traced(&mut self, tally: &mut Tally) -> Traced {
        let tel = Telemetry::enabled();
        let (out, store, timing) = self.fleet(&tel);
        let mut l = self.check(tally, &out, &store);
        let attributed_s = from_spans(&tel.snapshot(), &mut l);
        l.set("store.recover_s", reopen(store, tally, "serve-fleet"));
        Traced {
            timing,
            attributed_s,
            layers: l,
        }
    }
}
