//! The per-layer metric set and the readers that fill it.
//!
//! Every workload reports the same list, in the same order, so results
//! line up across workloads. A layer a workload does not exercise, or
//! that the benchmark cannot observe from outside on that workload,
//! reads 0 (see the README's metric table for the source of each value).
//! Values come from three places: the outcome structs the entry points
//! return (exact), the benchmark's own timers around the public calls it
//! makes, and the leaf spans of a `Telemetry::enabled()` handle passed in
//! through existing config fields. `pipeline.candidate` and
//! `pipeline.specialize` are never read: their self time includes
//! queueing and is known to be wrong.

use crate::report::{Better, Kind, Metric};
use crate::stats::nearest_rank;
use jitise_telemetry::{names, Snapshot, Value};
use std::collections::BTreeMap;

use Better::{Higher, Lower};
use Kind::{Exact, Host};

/// Name, unit, direction and kind of every per-layer metric.
pub const LAYER_METRICS: &[(&str, &str, Better, Kind)] = &[
    ("vm.runs", "count", Lower, Exact),
    ("vm.steps", "count", Lower, Exact),
    ("vm.busy_s", "s", Lower, Host),
    ("vm.minsts_per_s", "Minst/s", Higher, Host),
    ("ise.searches", "count", Lower, Exact),
    ("ise.busy_s", "s", Lower, Host),
    ("ise.identified", "count", Higher, Exact),
    ("ise.selected", "count", Higher, Exact),
    ("pivpav.projects", "count", Lower, Exact),
    ("pivpav.c2v_s", "s", Lower, Host),
    ("cad.jobs", "count", Lower, Exact),
    ("cad.busy_s", "s", Lower, Host),
    ("cad.job_p50_s", "s", Lower, Host),
    ("cad.job_p95_s", "s", Lower, Host),
    ("cad.xst_s", "s", Lower, Host),
    ("cad.par_s", "s", Lower, Host),
    ("cad.place_s", "s", Lower, Host),
    ("cad.route_s", "s", Lower, Host),
    ("cad.sta_s", "s", Lower, Host),
    ("cad.bitgen_s", "s", Lower, Host),
    ("cad.placer_moves", "count", Lower, Exact),
    ("cad.router_iterations", "count", Lower, Exact),
    ("cad.wirelength", "count", Lower, Exact),
    ("cad.ok_frac", "ratio", Higher, Exact),
    ("core.dispatch_s", "s", Lower, Host),
    ("core.queue_wait_p50_s", "s", Lower, Host),
    ("core.queue_wait_p95_s", "s", Lower, Host),
    ("core.lane_busy_frac", "ratio", Higher, Host),
    ("core.finalize_s", "s", Lower, Host),
    ("core.cache_hits", "count", Higher, Exact),
    ("core.cache_hit_frac", "ratio", Higher, Exact),
    ("core.evictions", "count", Lower, Exact),
    ("core.respecs", "count", Lower, Exact),
    ("core.phases_detected", "count", Lower, Exact),
    ("core.sim_break_even_s", "s", Lower, Exact),
    ("woolcano.installs", "count", Lower, Exact),
    ("woolcano.install_s", "s", Lower, Host),
    ("store.records", "count", Lower, Exact),
    ("store.bytes_written", "bytes", Lower, Exact),
    ("store.recover_s", "s", Lower, Host),
    ("serve.admitted", "count", Higher, Exact),
    ("serve.deferred", "count", Lower, Exact),
    ("serve.shed_frac", "ratio", Lower, Exact),
    ("serve.degraded", "count", Lower, Exact),
    ("serve.pool_jobs", "count", Lower, Exact),
    ("serve.max_queue_depth", "count", Lower, Exact),
    ("serve.max_rounds_waited", "count", Lower, Exact),
    ("sim_overhead_s", "s", Lower, Exact),
    ("sim_speedup", "ratio", Higher, Exact),
    ("trace.overhead_frac", "ratio", Lower, Host),
    ("trace.unattributed_frac", "ratio", Lower, Host),
];

fn spec(name: &str) -> &'static (&'static str, &'static str, Better, Kind) {
    LAYER_METRICS
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"))
}

/// A partially filled per-layer metric set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets one metric.
    ///
    /// # Panics
    /// If `name` is not in [`LAYER_METRICS`].
    pub fn set(&mut self, name: &str, value: f64) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
        self.0.insert(spec(name).0, value + 0.0);
    }

    /// Adds to one metric.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(spec(name).0).or_default() += value;
    }

    /// The value of `name` (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The exact metrics set so far; two iterations of the same code and
    /// seed must produce equal ones.
    pub fn exact(&self) -> Vec<(&'static str, f64)> {
        self.0
            .iter()
            .filter(|(name, _)| spec(name).3 == Exact)
            .map(|(&n, &v)| (n, v))
            .collect()
    }

    /// The full list, in [`LAYER_METRICS`] order, unset metrics as 0.
    pub fn into_metrics(self) -> Vec<Metric> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit, better, kind)| {
                let value = self.get(name);
                match kind {
                    Host => Metric::host(name, unit, better, value),
                    Exact => Metric::exact(name, unit, better, value),
                }
            })
            .collect()
    }
}

const CAD_STAGE_SPANS: [&str; 6] = [
    "cad.syntax",
    "cad.xst",
    "cad.translate",
    "cad.map",
    "cad.par",
    "cad.bitgen",
];

fn span_s(snap: &Snapshot, name: &str) -> f64 {
    snap.spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.host_ns() as f64 * 1e-9)
        .sum()
}

fn span_count(snap: &Snapshot, name: &str) -> f64 {
    snap.spans.iter().filter(|s| s.name == name).count() as f64
}

/// Host seconds of each CAD job: the `cad.*` stage spans of one flow run
/// share the span that opened them, so grouping by parent yields one
/// total per job.
fn cad_job_seconds(snap: &Snapshot) -> Vec<f64> {
    let mut jobs: BTreeMap<Option<u64>, f64> = BTreeMap::new();
    for s in snap
        .spans
        .iter()
        .filter(|s| CAD_STAGE_SPANS.contains(&s.name))
    {
        *jobs.entry(s.parent).or_default() += s.host_ns() as f64 * 1e-9;
    }
    jobs.into_values().collect()
}

/// Fills the metrics readable from a traced iteration's leaf spans and
/// counters: VM, candidate search, netlist generation, the CAD stages,
/// ICAP installs and store appends. Returns the seconds attributed to
/// those layers (disjoint spans only).
pub fn from_spans(snap: &Snapshot, l: &mut Layers) -> f64 {
    let vm_s = span_s(snap, "vm.run");
    let steps = snap.counter(names::VM_INSTRUCTIONS) as f64;
    l.set("vm.runs", span_count(snap, "vm.run"));
    l.set("vm.steps", steps);
    l.set("vm.busy_s", vm_s);
    l.set("vm.minsts_per_s", steps / vm_s.max(1e-9) / 1e6);

    let ise_s = span_s(snap, "ise.search");
    l.set("ise.searches", span_count(snap, "ise.search"));
    l.set("ise.busy_s", ise_s);
    l.set(
        "ise.identified",
        snap.counter(names::CANDIDATES_IDENTIFIED) as f64,
    );
    l.set(
        "ise.selected",
        snap.counter(names::CANDIDATES_SELECTED) as f64,
    );

    let c2v_s = span_s(snap, "pivpav.c2v");
    l.set("pivpav.projects", span_count(snap, "pivpav.c2v"));
    l.set("pivpav.c2v_s", c2v_s);

    let jobs = cad_job_seconds(snap);
    let cad_s: f64 = jobs.iter().sum();
    l.set("cad.busy_s", cad_s);
    l.set("cad.job_p50_s", nearest_rank(&jobs, 0.50));
    l.set("cad.job_p95_s", nearest_rank(&jobs, 0.95));
    l.set("cad.xst_s", span_s(snap, "cad.xst"));
    l.set("cad.par_s", span_s(snap, "cad.par"));
    l.set("cad.bitgen_s", span_s(snap, "cad.bitgen"));
    l.set("cad.placer_moves", snap.counter(names::PLACER_MOVES) as f64);
    l.set(
        "cad.router_iterations",
        snap.counter(names::ROUTER_ITERATIONS) as f64,
    );
    let wirelength: u64 = snap
        .spans
        .iter()
        .filter(|s| s.name == "cad.par")
        .flat_map(|s| &s.fields)
        .filter_map(|(k, v)| match (k, v) {
            (&"wirelength", Value::U64(w)) => Some(*w),
            _ => None,
        })
        .sum();
    l.set("cad.wirelength", wirelength as f64);

    let install_s = span_s(snap, "woolcano.install");
    l.set("woolcano.installs", span_count(snap, "woolcano.install"));
    l.set("woolcano.install_s", install_s);
    l.set(
        "store.records",
        snap.counter(names::STORE_RECORDS_APPENDED) as f64,
    );

    vm_s + ise_s + c2v_s + cad_s + install_s
}
