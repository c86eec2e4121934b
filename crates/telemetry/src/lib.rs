//! Structured observability for the ASIP specialization process.
//!
//! The specialization pipeline spans five crates and two clocks: real host
//! time spent by the tools themselves, and [`SimTime`] — the simulated
//! runtime of the modeled CAD flow, interpreter, and ICAP reconfiguration.
//! Reasoning about where a specialization run "spends its time" therefore
//! needs both clocks side by side, attributed to the pipeline phase that
//! incurred them.
//!
//! This crate provides the three pieces the rest of the workspace threads
//! through its hot paths:
//!
//! * **Spans** ([`Telemetry::span`]) — hierarchical regions with a host
//!   wall-clock duration and an optional simulated duration. Parenting is
//!   explicit (via [`Span::child`] and [`Telemetry::under`]) so traces
//!   stitch correctly across the background specialization worker thread.
//! * **Metrics** ([`Telemetry::add`], [`Telemetry::gauge`],
//!   [`Telemetry::observe`]) — named monotonic counters, last-value
//!   gauges, and fixed-bucket power-of-two histograms.
//! * **Journal** ([`Telemetry::event`]) — timestamped structured events.
//!
//! A [`Snapshot`] freezes everything recorded so far and exports it as
//! JSON-lines, human-readable text, or a Chrome-trace file loadable in
//! `chrome://tracing` / Perfetto (see [`snapshot::Snapshot`]). A
//! [`Profiler`] folds a snapshot's span tree into per-stage self-time
//! rollups and collapsed stacks for flamegraph tooling.
//!
//! # Cost model
//!
//! [`Telemetry`] is a cheap-clone handle. [`Telemetry::disabled`] carries
//! no allocation at all: every recording method starts with a single
//! `Option` check and returns immediately, so instrumented code paths pay
//! one branch when observability is off. All recording is thread-safe.
//!
//! ```
//! use jitise_base::SimTime;
//! use jitise_telemetry::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! {
//!     let mut span = tel.span("cad.map");
//!     span.set_sim_time(SimTime::from_secs(42));
//! }
//! tel.add("cache.hits", 1);
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("cache.hits"), 1);
//! assert_eq!(snap.phase_totals()["cad.map"].sim, SimTime::from_secs(42));
//! ```

mod journal;
mod metrics;
mod profiler;
mod snapshot;
mod span;

pub use journal::{EventRecord, Value};
pub use metrics::{sorted_quantile, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use profiler::{Profiler, StackLine, StackWeight, StageRollup};
pub use snapshot::{PhaseTotal, Snapshot};
pub use span::{Span, SpanRecord};

use jitise_base::sync::Mutex;
use jitise_base::SimTime;
use journal::Journal;
use metrics::MetricsRegistry;
use span::SpanStore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

/// Canonical metric and span names used across the workspace.
///
/// Instrumentation sites and the reconciliation logic in `jitise-bench`
/// both refer to these constants so the two cannot drift apart.
pub mod names {
    /// Bitstream-cache lookups that returned a cached CI (§VI-A).
    pub const BITSTREAM_CACHE_HITS: &str = "bitstream_cache.hits";
    /// Bitstream-cache lookups that fell through to the CAD flow.
    pub const BITSTREAM_CACHE_MISSES: &str = "bitstream_cache.misses";
    /// Netlist-cache hits inside PivPav project creation (§III).
    pub const NETLIST_CACHE_HITS: &str = "netlist_cache.hits";
    /// Netlist-cache misses (operator had to be characterized).
    pub const NETLIST_CACHE_MISSES: &str = "netlist_cache.misses";
    /// Candidate patterns enumerated by the identification stage.
    pub const CANDIDATES_IDENTIFIED: &str = "ise.candidates_identified";
    /// Candidates discarded by the pre-estimation filter stack.
    pub const CANDIDATES_PRUNED: &str = "ise.candidates_pruned";
    /// Candidates accepted by final selection.
    pub const CANDIDATES_SELECTED: &str = "ise.candidates_selected";
    /// Selected candidates that were only marginally profitable.
    pub const CANDIDATES_MARGINAL: &str = "ise.candidates_marginal";
    /// Instructions retired by the jitise-vm interpreter.
    pub const VM_INSTRUCTIONS: &str = "vm.instructions_retired";
    /// Basic-block executions observed by the profiler.
    pub const VM_BLOCKS: &str = "vm.blocks_executed";
    /// Custom instructions executed by the VM (either tier).
    pub const VM_CI_CALLS: &str = "vm.ci_calls";
    /// Nets ripped up and re-routed by the PathFinder router.
    pub const ROUTER_RIPUPS: &str = "router.ripups";
    /// Negotiated-congestion router iterations.
    pub const ROUTER_ITERATIONS: &str = "router.iterations";
    /// Simulated-annealing placer moves proposed.
    pub const PLACER_MOVES: &str = "placer.moves";
    /// Simulated-annealing placer moves accepted.
    pub const PLACER_ACCEPTS: &str = "placer.accepts";
    /// Bitstream bytes streamed through the ICAP port.
    pub const ICAP_BYTES: &str = "icap.bytes";
    /// Partial bitstreams loaded into Woolcano slots.
    pub const ICAP_LOADS: &str = "icap.loads";
    /// CIs evicted from Woolcano slots to make room.
    pub const ICAP_EVICTIONS: &str = "icap.evictions";
    /// Overlay slots atomically swapped to their fully routed upgrade.
    pub const ICAP_UPGRADES: &str = "icap.upgrades";
    /// Overlay fast-path installs (candidates serving before full CAD).
    pub const OVERLAY_INSTALLS: &str = "overlay.installs";
    /// Background upgrades abandoned after exhausting swap retries.
    pub const OVERLAY_UPGRADES_FAILED: &str = "overlay.upgrades_failed";
    /// Faults fired by the deterministic injector (every firing counts,
    /// including repeat firings of one persistent fault across retries).
    pub const FAULTS_INJECTED: &str = "faults.injected";
    /// Candidate implementation retries (attempts beyond the first).
    pub const PIPELINE_RETRIES: &str = "pipeline.retries";
    /// Candidates whose implementation failed (including quarantine skips).
    pub const CANDIDATES_FAILED: &str = "pipeline.candidates_failed";
    /// Candidates newly quarantined after exhausting their retry budget.
    pub const CANDIDATES_QUARANTINED: &str = "pipeline.candidates_quarantined";
    /// Bitstream-cache entries dropped because they failed CRC on read.
    pub const BITSTREAM_CACHE_POISONED: &str = "bitstream_cache.poisoned";
    /// Adaptive sessions degraded to software-only execution.
    pub const RUNTIME_DEGRADED: &str = "runtime.degraded";
    /// Persistent-store recoveries performed (one per `Store::open`).
    pub const STORE_RECOVERIES: &str = "store.recoveries";
    /// Records replayed from snapshot + WAL during recovery.
    pub const STORE_RECORDS_RECOVERED: &str = "store.records_recovered";
    /// Torn tail records dropped during recovery (writer died mid-write).
    pub const STORE_TORN_TAILS: &str = "store.torn_tails_dropped";
    /// WAL records dropped during recovery because their CRC failed.
    pub const STORE_CRC_DROPS: &str = "store.crc_dropped";
    /// Snapshot compactions performed (WAL folded into an atomic image).
    pub const STORE_COMPACTIONS: &str = "store.compactions";
    /// Records durably appended to the store's WAL.
    pub const STORE_RECORDS_APPENDED: &str = "store.records_appended";
    /// Store appends that failed (dead or crashed store); the pipeline
    /// keeps running — persistence is best-effort, never load-bearing.
    pub const STORE_APPEND_FAILURES: &str = "store.append_failures";
    /// File syncs the store issued: WAL writes, and each compaction's
    /// snapshot temp file and directory.
    pub const STORE_SYNCS: &str = "store.syncs";
    /// Warm restarts: sessions hydrated from a recovered store.
    pub const STORE_WARM_RESTARTS: &str = "store.warm_restarts";
    /// Blocks whose single-cut enumeration was truncated by the
    /// exploration cap (the candidate set is a lower bound there).
    pub const SINGLECUT_CAP_HIT: &str = "ise.singlecut.cap_hit";
    /// Identification lookups answered from the search memo.
    pub const SEARCH_MEMO_HITS: &str = "ise.search_memo.hits";
    /// Identification lookups the search memo had to compute.
    pub const SEARCH_MEMO_MISSES: &str = "ise.search_memo.misses";
    /// Memo entries discarded because a block's content changed.
    pub const SEARCH_MEMO_INVALIDATIONS: &str = "ise.search_memo.invalidations";
    /// Phase changes declared by the storm runtime's detector (installed
    /// CIs stopped earning their windowed cycle share).
    pub const RUNTIME_PHASE_DETECTED: &str = "runtime.phase.detected";
    /// Bitstream-cache entries evicted by the storm runtime's
    /// benefit-scored policy after a phase change.
    pub const RUNTIME_EVICTIONS: &str = "runtime.evict.count";
    /// Re-specializations performed against a post-phase-change profile.
    pub const RUNTIME_RESPECS: &str = "runtime.respec.count";
    /// Tenants admitted by the serve runtime (granted an active slot,
    /// immediately or after a deferral).
    pub const SERVE_ADMITTED: &str = "serve.admitted";
    /// Tenants parked in the bounded defer queue before admission.
    pub const SERVE_DEFERRED: &str = "serve.deferred";
    /// Tenants shed at arrival (defer queue full): software-only, never
    /// specialized.
    pub const SERVE_SHED: &str = "serve.shed";
    /// Admitted tenants that fell back to software-only execution
    /// (worker faults or deadline exhaustion; see `DegradedReason`).
    pub const SERVE_DEGRADED: &str = "serve.degraded";
    /// Time from a tenant's arrival to its first post-swap (sped-up)
    /// workload run, in simulated microseconds — the fleet's
    /// time-to-first-speedup histogram (p50/p99 in the serve artifact).
    pub const SERVE_TTFS_US: &str = "serve.ttfs_us";
    /// Shared-bitstream-cache entries evicted by the serve runtime's
    /// capacity policy (journaled as store tombstones).
    pub const SERVE_CACHE_EVICTIONS: &str = "serve.cache.evictions";
}

pub(crate) struct Inner {
    epoch: Instant,
    next_span_id: AtomicU64,
    spans: SpanStore,
    metrics: MetricsRegistry,
    journal: Journal,
    threads: Mutex<ThreadTable>,
}

#[derive(Default)]
struct ThreadTable {
    ids: HashMap<ThreadId, u32>,
    names: Vec<String>,
}

impl Inner {
    fn new() -> Self {
        Inner {
            epoch: Instant::now(),
            next_span_id: AtomicU64::new(1),
            spans: SpanStore::default(),
            metrics: MetricsRegistry::default(),
            journal: Journal::default(),
            threads: Mutex::new(ThreadTable::default()),
        }
    }

    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Maps the calling thread to a small stable integer id.
    pub(crate) fn thread_id(&self) -> u32 {
        let current = std::thread::current();
        let mut table = self.threads.lock();
        if let Some(&tid) = table.ids.get(&current.id()) {
            return tid;
        }
        let tid = table.names.len() as u32;
        let name = current
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{tid}"));
        table.ids.insert(current.id(), tid);
        table.names.push(name);
        tid
    }
}

/// Cheap-clone observability handle threaded through the pipeline.
///
/// A handle is either *enabled* (shares one recording core with all its
/// clones) or *disabled* (a pure no-op: no allocation, one branch per
/// call). Code under instrumentation never needs to distinguish the two.
#[derive(Clone)]
pub struct Telemetry {
    pub(crate) inner: Option<Arc<Inner>>,
    /// Span id new top-level spans of this handle are parented under.
    pub(crate) parent: Option<u64>,
}

impl Default for Telemetry {
    /// The default handle is disabled, so adding a `Telemetry` field to a
    /// config struct leaves existing call sites and behavior unchanged.
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("parent", &self.parent)
            .finish()
    }
}

impl Telemetry {
    /// A recording handle with a fresh epoch and empty stores.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner::new())),
            parent: None,
        }
    }

    /// The no-op handle. All recording methods return immediately.
    pub fn disabled() -> Self {
        Telemetry {
            inner: None,
            parent: None,
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span. It closes (and is recorded) when the guard drops.
    ///
    /// The span is parented under whatever this handle is scoped to — the
    /// root by default, or the span passed to [`Telemetry::under`].
    pub fn span(&self, name: &'static str) -> Span {
        Span::open(self.clone(), name, self.parent)
    }

    /// A handle whose new spans are parented under `span`.
    ///
    /// This is how traces stitch across threads and crate boundaries: the
    /// caller opens a span, then passes `tel.under(&span)` down.
    pub fn under(&self, span: &Span) -> Telemetry {
        Telemetry {
            inner: self.inner.clone(),
            parent: span.id(),
        }
    }

    /// Increments counter `name` by `delta`.
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.add(name, delta);
        }
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.gauge(name, value);
        }
    }

    /// Records `value` into histogram `name` (power-of-two buckets).
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.observe(name, value);
        }
    }

    /// Appends a structured event to the journal.
    pub fn event(&self, name: &'static str, fields: &[(&'static str, Value)]) {
        if let Some(inner) = &self.inner {
            let record = EventRecord {
                ts_ns: inner.now_ns(),
                tid: inner.thread_id(),
                name,
                fields: fields.to_vec(),
            };
            inner.journal.push(record);
        }
    }

    /// Appends an event carrying one simulated-time field.
    pub fn event_sim(&self, name: &'static str, sim: SimTime) {
        self.event(name, &[("sim_ns", Value::U64(sim.as_nanos()))]);
    }

    /// Freezes everything recorded so far. Disabled handles yield an
    /// empty snapshot.
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            Some(inner) => Snapshot::capture(inner),
            None => Snapshot::empty(),
        }
    }

    pub(crate) fn alloc_span_id(&self) -> Option<u64> {
        self.inner
            .as_ref()
            .map(|inner| inner.next_span_id.fetch_add(1, Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        let mut span = tel.span("x");
        span.set_sim_time(SimTime::from_secs(1));
        span.field("k", Value::U64(3));
        drop(span);
        tel.add("c", 1);
        tel.gauge("g", 2.0);
        tel.observe("h", 3);
        tel.event("e", &[("a", Value::Bool(true))]);
        let snap = tel.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.events.is_empty());
        assert!(snap.counters.is_empty());
        assert_eq!(snap.counter("c"), 0);
    }

    #[test]
    fn spans_nest_and_record_both_clocks() {
        let tel = Telemetry::enabled();
        let parent_id;
        {
            let parent = tel.span("pipeline.specialize");
            parent_id = parent.id().unwrap();
            let scoped = tel.under(&parent);
            let mut child = scoped.span("cad.map");
            child.set_sim_time(SimTime::from_millis(7));
        }
        let snap = tel.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let child = snap.spans.iter().find(|s| s.name == "cad.map").unwrap();
        assert_eq!(child.parent, Some(parent_id));
        assert_eq!(child.sim_ns, Some(7_000_000));
        assert!(child.end_ns >= child.start_ns);
        let parent = snap
            .spans
            .iter()
            .find(|s| s.name == "pipeline.specialize")
            .unwrap();
        assert_eq!(parent.parent, None);
        assert_eq!(parent.sim_ns, None);
    }

    #[test]
    fn explicit_child_parenting() {
        let tel = Telemetry::enabled();
        {
            let a = tel.span("a");
            let _b = a.child("b");
        }
        let snap = tel.snapshot();
        let a = snap.spans.iter().find(|s| s.name == "a").unwrap();
        let b = snap.spans.iter().find(|s| s.name == "b").unwrap();
        assert_eq!(b.parent, Some(a.id));
    }

    #[test]
    fn spans_stitch_across_threads() {
        let tel = Telemetry::enabled();
        {
            let root = tel.span("run_adaptive");
            let worker_tel = tel.under(&root);
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let mut s = worker_tel.span("worker.specialize");
                    s.set_sim_time(SimTime::from_secs(3));
                });
            });
        }
        let snap = tel.snapshot();
        let root = snap
            .spans
            .iter()
            .find(|s| s.name == "run_adaptive")
            .unwrap();
        let worker = snap
            .spans
            .iter()
            .find(|s| s.name == "worker.specialize")
            .unwrap();
        assert_eq!(worker.parent, Some(root.id));
        assert_ne!(worker.tid, root.tid, "worker ran on its own thread");
        assert_eq!(snap.threads.len(), 2);
    }

    #[test]
    fn counters_gauges_histograms() {
        let tel = Telemetry::enabled();
        tel.add(names::VM_INSTRUCTIONS, 10);
        tel.add(names::VM_INSTRUCTIONS, 5);
        tel.gauge("speedup", 1.25);
        tel.gauge("speedup", 2.5);
        tel.observe("candidate.nodes", 1);
        tel.observe("candidate.nodes", 3);
        tel.observe("candidate.nodes", 300);
        let snap = tel.snapshot();
        assert_eq!(snap.counter(names::VM_INSTRUCTIONS), 15);
        assert_eq!(snap.gauges, vec![("speedup".into(), 2.5)]);
        let hist = &snap.histograms[0];
        assert_eq!(hist.count, 3);
        assert_eq!(hist.sum, 304);
        assert_eq!(hist.min, 1);
        assert_eq!(hist.max, 300);
    }

    #[test]
    fn events_carry_fields_in_order() {
        let tel = Telemetry::enabled();
        tel.event(
            "cache.lookup",
            &[("hit", Value::Bool(true)), ("signature", Value::U64(42))],
        );
        tel.event_sim("reconfig", SimTime::from_micros(9));
        let snap = tel.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].name, "cache.lookup");
        assert_eq!(snap.events[0].fields[0].0, "hit");
        assert_eq!(snap.events[1].fields[0], ("sim_ns", Value::U64(9_000)));
    }

    #[test]
    fn clones_share_one_core() {
        let tel = Telemetry::enabled();
        let other = tel.clone();
        other.add("shared", 2);
        tel.add("shared", 3);
        assert_eq!(tel.snapshot().counter("shared"), 5);
    }
}
