//! The ASIP specialization process (ASIP-SP, paper Fig. 2).
//!
//! Orchestrates the three phases over one profiled application:
//!
//! 1. **Candidate Search** — pruning, MAXMISO identification, PivPav
//!    estimation, selection (`jitise-ise` + `jitise-pivpav`);
//! 2. **Netlist Generation** — datapath VHDL, netlist extraction, CAD
//!    project creation (`jitise-pivpav`);
//! 3. **Instruction Implementation** — the FPGA CAD flow down to a partial
//!    bitstream (`jitise-cad`);
//!
//! followed by the **adaptation phase**: bitstreams are loaded into the
//! Woolcano slot file and the binary is patched to use the new custom
//! instructions (`jitise-woolcano`).
//!
//! The bitstream cache short-circuits phases 2–3 per candidate (§VI-A).
//!
//! ## The multi-worker CAD scheduler
//!
//! Phase 3 dominates the specialization overhead by minutes per candidate,
//! and candidates with distinct signatures are independent — so the
//! pipeline can farm their tool flows out to
//! [`SpecializeConfig::cad_workers`] OS threads. The run is split into
//! three stages (see `DESIGN.md` §10):
//!
//! * **dispatch** (serial, selection order) — quarantine checks, duplicate
//!   signature dedup, the attempt-1 cache probe, and phase 2 (netlist
//!   generation). These all touch shared state whose *outcome* depends on
//!   processing order, so they stay in selection order to keep every cache
//!   decision identical for any worker count;
//! * **pool** — phase 3 (and any retries) for the dispatched candidates
//!   runs on the worker pool, in any completion order;
//! * **finalize** (serial, selection order) — ICAP installs (one
//!   reconfiguration port), IR patching, quarantine updates, and report
//!   accounting.
//!
//! Simulated time is charged to a per-worker-lane schedule: the report's
//! `cpu_time` (total tool time, invariant across worker counts) and
//! `makespan` (critical path across [`SpecializeConfig::cad_workers`]
//! lanes) replace the single sequential total. Every other observable —
//! report fingerprint, patched module, caches, quarantine, canonical
//! telemetry journal — is bit-identical for any worker count.
//!
//! The three stages are also exposed directly as [`SpecializeSession`]
//! (`begin` → `execute` per job → `finalize`), so a caller can decide
//! where and when each CAD job runs (the benchmark's decomposed sweep
//! times every stage on its own pool); [`specialize`] is that session
//! driven end-to-end with the in-process pool, and every runtime driver
//! uses it.

use crate::cache::BitstreamCache;
use jitise_base::par::parallel_map_indexed;
use jitise_base::{Error, Result, SimTime};
use jitise_cad::{
    map_overlay, run_flow_accounted, Fabric, FlowOptions, InstallTier, OverlayLibrary,
};
use jitise_faults::{backoff_for, FaultInjector, FaultKind, FaultSite, Quarantine, MAX_ATTEMPTS};
use jitise_ir::{Dfg, Escapes, FuncId, Function, Module};
use jitise_ise::{candidate_search, Candidate, SearchConfig, SearchOutcome};
use jitise_pivpav::{
    create_project_with, C2vTiming, CadProject, CircuitDb, NetlistCache, PivPavEstimator,
};
use jitise_store::{CiRecord, FaultTotals, Record, Store};
use jitise_telemetry::{names, Span, Telemetry, Value as TelValue};
use jitise_vm::{BlockKey, Profile, VmTier};
use jitise_woolcano::{patch_candidate, ReconfigController, Woolcano};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Configuration of the whole specialization process.
pub struct SpecializeConfig {
    /// Candidate-search configuration (filter, algorithm, budget).
    pub search: SearchConfig,
    /// CAD flow options.
    pub flow: FlowOptions,
    /// The PR-region fabric.
    pub fabric: Fabric,
    /// Observability handle; propagated into the search and flow configs
    /// (their own `telemetry` fields are overridden when this is enabled).
    pub telemetry: Telemetry,
    /// Fault injection handle (disabled by default; zero overhead). The
    /// pipeline re-scopes it per `(candidate signature, attempt)` and
    /// overrides `flow.faults` with the scoped handle.
    pub faults: FaultInjector,
    /// Signatures that exhausted their retries; quarantined candidates are
    /// skipped without burning tool time. Share one `Arc` across sessions
    /// to persist the blacklist.
    pub quarantine: Arc<Quarantine>,
    /// CAD worker lanes for phases 2–3. `1` (the default) reproduces the
    /// fully sequential pipeline. Higher counts implement independent
    /// candidates concurrently — ICAP installs and IR patching stay
    /// serialized in selection order — and shrink the report's `makespan`
    /// while leaving every other observable bit-identical.
    pub cad_workers: usize,
    /// Optional crash-consistent store. When set, every *freshly*
    /// generated candidate, every newly quarantined signature, and the
    /// session's fault totals are journaled at commit time (the serial
    /// finalize pass), so a warm restart recovers them. Journaling is
    /// fire-and-forget: a dead store never fails the pipeline (append
    /// failures are counted by the store's own telemetry), and `None`
    /// (the default) is byte-identical to a storeless run.
    pub store: Option<Arc<Store>>,
    /// Unused: kept only for source compatibility. The pipeline never
    /// executes the workload; every driver reads its execution tier from
    /// `EvalContext::vm_tier`.
    pub vm_tier: VmTier,
    /// Overlay cell library for the two-tier install fast path (DESIGN.md
    /// §17). `Some` makes every cache-missing candidate assemble a
    /// millisecond-scale overlay implementation at dispatch and install it
    /// immediately; the full CAD flow still runs on the worker pool and
    /// atomically upgrades the slot at finalize. `None` (the default) is
    /// byte-identical to the full-only pipeline.
    pub overlay: Option<Arc<OverlayLibrary>>,
}

impl Default for SpecializeConfig {
    fn default() -> Self {
        SpecializeConfig {
            search: SearchConfig::default(),
            flow: FlowOptions::fast(),
            fabric: Fabric::pr_region(),
            telemetry: Telemetry::disabled(),
            faults: FaultInjector::disabled(),
            quarantine: Arc::new(Quarantine::new()),
            cad_workers: 1,
            store: None,
            vm_tier: VmTier::Interp,
            overlay: None,
        }
    }
}

/// Per-candidate implementation record.
#[derive(Debug, Clone)]
pub struct CandidateOutcome {
    /// The candidate's block.
    pub key: BlockKey,
    /// Instructions covered.
    pub size: usize,
    /// Candidate signature.
    pub signature: u64,
    /// True if served from the bitstream cache.
    pub cache_hit: bool,
    /// Netlist-generation (C2V) time — zero on a cache hit.
    pub c2v: SimTime,
    /// Constant flow stages (Syn + Xst + Tra + Bitgen) — zero on a hit.
    pub const_stages: SimTime,
    /// Map time.
    pub map: SimTime,
    /// PAR time.
    pub par: SimTime,
    /// CI slot assigned.
    pub slot: u32,
    /// Estimated cycles saved per block execution.
    pub saved_per_exec: u64,
    /// Block executions in the profile.
    pub exec_count: u64,
    /// Attempts taken (1 = first try succeeded).
    pub attempts: u32,
    /// Simulated time burned by this candidate's *failed* attempts
    /// (wasted tool time + failed ICAP transfers + retry backoff). Zero
    /// when `attempts == 1`. Not part of [`Self::total`].
    pub time_lost: SimTime,
    /// Tier the slot serves when the session finishes: `Full` on the
    /// full-only path or after a successful upgrade swap, `Overlay` when
    /// the fast path installed and the background upgrade never landed.
    pub tier: InstallTier,
    /// Overlay assembly time charged on the fast path (zero on the
    /// full-only path and on an overlay cache hit). Not part of
    /// [`Self::total`] — it is overhead the overlay *adds*, not work a
    /// cache hit saves.
    pub overlay_time: SimTime,
    /// True iff an overlay install was later swapped to the full artifact.
    pub upgraded: bool,
    /// Estimated cycles saved per block execution while serving from the
    /// overlay tier (degraded clock ⇒ at most [`Self::saved_per_exec`];
    /// zero on the full-only path or when the overlay is no faster than
    /// software). Feeds the two-tier break-even model.
    pub overlay_saved_per_exec: u64,
}

impl CandidateOutcome {
    /// Total generation time for this candidate (what a cache hit saves).
    pub fn total(&self) -> SimTime {
        self.c2v + self.const_stages + self.map + self.par
    }
}

/// A candidate whose implementation failed after exhausting its retries
/// (or was skipped because its signature is quarantined). Failure is
/// isolated: the pipeline records it here and moves on.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedCandidate {
    /// The candidate's block.
    pub key: BlockKey,
    /// Instructions covered.
    pub size: usize,
    /// Candidate signature.
    pub signature: u64,
    /// Attempts burned (0 = skipped via the quarantine list).
    pub attempts: u32,
    /// The last error observed.
    pub error: String,
    /// Simulated time wasted on this candidate (tool time of failed flow
    /// runs + failed ICAP transfers + retry backoff).
    pub time_lost: SimTime,
    /// True if the signature is on the quarantine list.
    pub quarantined: bool,
}

/// Result of one specialization run.
pub struct SpecializeReport {
    /// Candidate-search phase outcome (Table II left half).
    pub search: SearchOutcome,
    /// Per-candidate implementation outcomes.
    pub candidates: Vec<CandidateOutcome>,
    /// Aggregate constant-stage time (Table II `const` column = C2V +
    /// Syn + Xst + Tra + Bitgen over all candidates).
    pub const_time: SimTime,
    /// Aggregate map time (Table II `map`).
    pub map_time: SimTime,
    /// Aggregate PAR time (Table II `par`).
    pub par_time: SimTime,
    /// Total overhead (Table II `sum`).
    pub sum_time: SimTime,
    /// Total ICAP reconfiguration time (adaptation phase).
    pub reconfig_time: SimTime,
    /// Cache hits during this run.
    pub cache_hits: usize,
    /// Candidates that failed after exhausting retries (or were skipped
    /// as quarantined). Never aborts the run.
    pub failed: Vec<FailedCandidate>,
    /// Retries performed across all candidates (attempts beyond each
    /// candidate's first).
    pub retries: u64,
    /// Constant-stage tool time (C2V + Syn + Xst + Tra + Bitgen) burned by
    /// failed attempts. Kept out of `const_time` so the Table II columns
    /// describe successful work only.
    pub fault_const_time: SimTime,
    /// Map time burned by failed attempts.
    pub fault_map_time: SimTime,
    /// PAR time burned by failed attempts.
    pub fault_par_time: SimTime,
    /// ICAP transfer time burned by failed (CRC-rejected) loads.
    pub fault_icap_time: SimTime,
    /// Simulated retry-backoff waits.
    pub backoff_time: SimTime,
    /// Total tool time charged across all candidates, successful and
    /// failed (`sum_time + fault_time()`). Invariant across worker counts.
    pub cpu_time: SimTime,
    /// Critical-path tool time under the per-lane schedule: each
    /// candidate's charge goes to the least-loaded of `cad_workers` lanes
    /// in selection order. Equals `cpu_time` at one worker and never
    /// exceeds it. This is the overhead a wall clock would see, and what
    /// break-even analysis amortizes.
    pub makespan: SimTime,
    /// Worker-lane count the makespan was scheduled over (echo of
    /// [`SpecializeConfig::cad_workers`], clamped to at least 1).
    pub cad_workers: usize,
    /// Overlay fast-path installs performed (fresh assemblies plus
    /// rehydrated overlay cache hits). Zero without an overlay library.
    pub overlay_installs: usize,
    /// Overlay slots successfully upgraded to the full artifact.
    pub upgrades: usize,
    /// Overlay slots whose upgrade swap exhausted its retries and kept
    /// serving the overlay tier.
    pub upgrades_failed: usize,
    /// Total overlay assembly time charged on the fast path. Part of
    /// `cpu_time` (the invariant is `cpu_time = sum_time + fault_time() +
    /// overlay_time`); zero without an overlay library.
    pub overlay_time: SimTime,
}

impl SpecializeReport {
    /// Total simulated time lost to faults (wasted tool time + failed
    /// ICAP transfers + backoff).
    pub fn fault_time(&self) -> SimTime {
        self.fault_const_time
            + self.fault_map_time
            + self.fault_par_time
            + self.fault_icap_time
            + self.backoff_time
    }

    /// Deterministic digest of every observable field. Two runs are
    /// byte-identical iff their fingerprints match — the `pipeline` bench
    /// topic's chaos section uses this to prove a zero-rate injector is
    /// observationally transparent, and the parallel-determinism suite to
    /// prove the scheduler is schedule-oblivious. `makespan` and
    /// `cad_workers` are deliberately excluded: they vary with the lane
    /// count by design.
    pub fn fingerprint(&self) -> String {
        format!(
            "sel={} ratio={:016x} hits={} retries={} const={} map={} par={} sum={} \
             cpu={} reconfig={} f_const={} f_map={} f_par={} f_icap={} backoff={} \
             ovl={} upg={} upgf={} ovl_ns={} candidates={:?} failed={:?}",
            self.search.selection.selected.len(),
            self.search.asip_ratio.to_bits(),
            self.cache_hits,
            self.retries,
            self.const_time.as_nanos(),
            self.map_time.as_nanos(),
            self.par_time.as_nanos(),
            self.sum_time.as_nanos(),
            self.cpu_time.as_nanos(),
            self.reconfig_time.as_nanos(),
            self.fault_const_time.as_nanos(),
            self.fault_map_time.as_nanos(),
            self.fault_par_time.as_nanos(),
            self.fault_icap_time.as_nanos(),
            self.backoff_time.as_nanos(),
            self.overlay_installs,
            self.upgrades,
            self.upgrades_failed,
            self.overlay_time.as_nanos(),
            self.candidates,
            self.failed,
        )
    }
}

/// Simulated time burned by one candidate's failed attempts, split the way
/// the report splits its fault columns.
#[derive(Debug, Clone, Copy, Default)]
struct Loss {
    constant: SimTime,
    map: SimTime,
    par: SimTime,
    icap: SimTime,
    backoff: SimTime,
}

impl Loss {
    fn absorb(&mut self, other: Loss) {
        self.constant += other.constant;
        self.map += other.map;
        self.par += other.par;
        self.icap += other.icap;
        self.backoff += other.backoff;
    }

    fn total(&self) -> SimTime {
        self.constant + self.map + self.par + self.icap + self.backoff
    }
}

/// One candidate's generated (or cache-served) implementation, carried
/// across install retries so an ICAP failure never regenerates it.
struct Produced {
    entry: CiRecord,
    cache_hit: bool,
    c2v: SimTime,
    const_stages: SimTime,
    map: SimTime,
    par: SimTime,
}

/// Counts an injected fault and journals its `fault.injected` event.
pub(crate) fn note_fault(tel: &Telemetry, site: FaultSite, kind: FaultKind) {
    tel.add(names::FAULTS_INJECTED, 1);
    tel.event(
        "fault.injected",
        &[
            ("site", TelValue::Str(site.name().into())),
            ("kind", TelValue::Str(kind.name().into())),
        ],
    );
}

/// The records of one commit unit (a finalize, an eviction sweep), which
/// the store appends as one batch: one write and one sync.
pub(crate) struct Journal<'a> {
    store: Option<&'a Store>,
    records: Vec<Record>,
}

impl<'a> Journal<'a> {
    pub(crate) fn new(store: Option<&'a Store>) -> Journal<'a> {
        Journal {
            store,
            records: Vec::new(),
        }
    }

    /// Queues the record `make` builds from the store, when there is one.
    pub(crate) fn push(&mut self, make: impl FnOnce(&Store) -> Record) {
        if let Some(store) = self.store {
            self.records.push(make(store));
        }
    }

    /// Appends the queued records as one batch under one `store.append`
    /// span. Fire-and-forget: a dead store must never fail the caller; its
    /// append failures are already counted by the store's own telemetry.
    pub(crate) fn commit(self, tel: &Telemetry) {
        if let Some(store) = self.store.filter(|_| !self.records.is_empty()) {
            let _span = tel.span("store.append");
            let _ = store.append_all(self.records);
        }
    }
}

/// What an attempt-scoped bitstream-cache probe found.
enum Probe {
    /// A CRC-validated full-tier hit: generation is complete.
    Hit(Produced),
    /// A CRC-validated *overlay-tier* entry — the fast-path commit of a
    /// session that never finished (or never started) its upgrade. Not a
    /// finished implementation: the dispatcher reuses it as the fast path
    /// and still schedules the full flow.
    Overlay(CiRecord),
    /// Miss, or a poisoned entry that was just evicted.
    Miss,
}

/// Attempt-scoped bitstream-cache probe; the injector may corrupt the hit
/// in flight, in which case the poisoned entry is evicted and counted.
fn probe_cache(
    bitstream_cache: &BitstreamCache,
    inj: &FaultInjector,
    signature: u64,
    tel: &Telemetry,
) -> Probe {
    let Some(mut hit) = bitstream_cache.get(signature) else {
        return Probe::Miss;
    };
    if let Some(kind) = inj.corrupt(FaultSite::CacheEntry, &mut hit.bitstream.bytes) {
        note_fault(tel, FaultSite::CacheEntry, kind);
    }
    if hit.bitstream.verify() {
        if hit.tier == InstallTier::Overlay {
            return Probe::Overlay(hit);
        }
        return Probe::Hit(Produced {
            entry: hit,
            cache_hit: true,
            c2v: SimTime::ZERO,
            const_stages: SimTime::ZERO,
            map: SimTime::ZERO,
            par: SimTime::ZERO,
        });
    }
    // Poisoned entry: evict it and regenerate from scratch.
    bitstream_cache.remove(signature);
    tel.add(names::BITSTREAM_CACHE_POISONED, 1);
    tel.event("cache.poisoned", &[("signature", TelValue::U64(signature))]);
    Probe::Miss
}

/// Phase 3 (the CAD flow) on an already-created project, then the cache
/// insert. On failure returns the simulated tool time the attempt wasted.
fn implement_project(
    bitstream_cache: &BitstreamCache,
    config: &SpecializeConfig,
    inj: &FaultInjector,
    project: &CadProject,
    c2v: C2vTiming,
    signature: u64,
    tel: &Telemetry,
) -> std::result::Result<Produced, (Error, Loss)> {
    let mut flow_cfg = config.flow.clone();
    flow_cfg.telemetry = tel.clone();
    flow_cfg.faults = inj.clone();
    let flow = run_flow_accounted(&config.fabric, project, &flow_cfg).map_err(|fe| {
        let loss = Loss {
            // The netlist-generation work preceding the dead flow is
            // wasted too (its netlists stay cached, so a retry re-derives
            // them cheaply — but the time was spent).
            constant: fe.spent.constant + c2v.total(),
            map: fe.spent.map,
            par: fe.spent.par,
            ..Loss::default()
        };
        (fe.error, loss)
    })?;
    let entry = CiRecord {
        signature,
        bitstream: flow.bitstream.clone(),
        timing: flow.timing.clone(),
        generation_time: c2v.total() + flow.total(),
        tier: InstallTier::Full,
    };
    bitstream_cache.put(entry.clone());
    Ok(Produced {
        entry,
        cache_hit: false,
        c2v: c2v.total(),
        const_stages: flow.constant_share(),
        map: flow.map,
        par: flow.par,
    })
}

/// Salt folded into the fault scope of overlay fast-path installs so they
/// draw from a different deterministic stream than the candidate's full
/// generation/install attempts (which share the unsalted signature).
const OVERLAY_SCOPE_SALT: u64 = 0x006f_7665_726c_6179; // "overlay"

/// Dispatch-time state of one candidate's overlay fast path: the assembled
/// (or cache-rehydrated) overlay entry, ready to install at finalize.
struct OverlayPrep {
    /// Overlay-tier cache entry (descriptor bitstream + degraded timing).
    entry: CiRecord,
    /// Assembly time to charge — zero when rehydrated from the cache.
    assembly: SimTime,
    /// True iff the entry came out of the bitstream cache (a warm restart
    /// rehydrated the overlay commit of an interrupted session).
    cache_hit: bool,
    /// Execution cycles under the overlay clock model.
    hw_cycles: u64,
}

/// Where an ICAP transfer lands in the slot file.
#[derive(Clone, Copy)]
enum Transfer<'c> {
    /// A fresh slot for the candidate, serving at `tier`.
    Install {
        pf: &'c Function,
        dfg: &'c Dfg,
        cand: &'c Candidate,
        tier: InstallTier,
    },
    /// The atomic swap of an overlay slot (keyed by signature) to the full
    /// artifact.
    Upgrade(u64),
}

/// Moves `entry`'s bitstream over the ICAP. An install may be corrupted
/// in flight at [`FaultSite::IcapTransfer`], an upgrade swap at its own
/// site [`FaultSite::UpgradeSwap`]; the controller's CRC check rejects
/// either. A rejected transfer still occupied the port for the full
/// bitstream length; the controller refuses to count it, so the fault
/// ledger is charged its reconfiguration time. A rejected swap leaves the
/// overlay slot serving.
fn transfer(
    entry: &CiRecord,
    inj: &FaultInjector,
    machine: &Woolcano,
    hw_cycles: u64,
    to: Transfer<'_>,
    tel: &Telemetry,
) -> std::result::Result<u32, (Error, Loss)> {
    let site = match to {
        Transfer::Install { .. } => FaultSite::IcapTransfer,
        Transfer::Upgrade(_) => FaultSite::UpgradeSwap,
    };
    let mut bitstream = entry.bitstream.clone();
    if let Some(kind) = inj.corrupt(site, &mut bitstream.bytes) {
        note_fault(tel, site, kind);
    }
    match to {
        Transfer::Install {
            pf,
            dfg,
            cand,
            tier,
        } => machine.install_tiered(pf, dfg, cand, hw_cycles, bitstream, tier),
        Transfer::Upgrade(signature) => machine.upgrade(signature, hw_cycles, bitstream),
    }
    .map_err(|e| {
        let loss = Loss {
            icap: ReconfigController::reconfig_time(&entry.bitstream),
            ..Loss::default()
        };
        (e, loss)
    })
}

/// The bounded retry loop of every candidate step — generation, overlay
/// install, upgrade swap and install (CAD crashes, poisoned cache
/// entries, ICAP transfer corruption): tries `attempt` from `first` up to
/// [`MAX_ATTEMPTS`], charging each failure's waste to `loss` and each
/// retry's [`backoff_for`] too (simulated, never slept), counting the
/// retry and journaling a `candidate.retry` event. Returns the last
/// attempt number with the success or the last error.
fn with_retries<T>(
    tel: &Telemetry,
    signature: u64,
    first: u32,
    loss: &mut Loss,
    retries: &mut u64,
    mut attempt_at: impl FnMut(u32) -> std::result::Result<T, (Error, Loss)>,
) -> (u32, std::result::Result<T, Error>) {
    let mut attempt = first;
    loop {
        let e = match attempt_at(attempt) {
            Ok(t) => return (attempt, Ok(t)),
            Err((e, waste)) => {
                loss.absorb(waste);
                e
            }
        };
        if attempt >= MAX_ATTEMPTS {
            return (attempt, Err(e));
        }
        let backoff = backoff_for(attempt);
        loss.backoff += backoff;
        *retries += 1;
        tel.add(names::PIPELINE_RETRIES, 1);
        tel.event(
            "candidate.retry",
            &[
                ("signature", TelValue::U64(signature)),
                ("attempt", TelValue::U64(attempt as u64)),
                ("backoff_ns", TelValue::U64(backoff.as_nanos())),
                ("error", TelValue::Str(e.to_string())),
            ],
        );
        attempt += 1;
    }
}

/// Attempt-1 state a dispatched candidate carries to its worker. The
/// serial pre-pass already probed the cache (miss) and ran phase 2 —
/// netlist-cache miss accounting is order-sensitive, so it must happen in
/// selection order. With the project created the worker starts with the
/// tool flow; a failed creation is charged as a plain attempt-1 failure.
type FirstAttempt = std::result::Result<Box<(CadProject, C2vTiming)>, Error>;

/// What the bounded generation retry loop yielded for one candidate.
struct Generated {
    /// The implementation (or the cache hit), or the last error when
    /// every attempt failed.
    result: std::result::Result<Produced, Error>,
    /// Attempt generation succeeded at; `MAX_ATTEMPTS` on exhaustion. The
    /// install loop continues the attempt numbering from here.
    attempt: u32,
    /// Fault ledger accumulated so far (failed flows + backoff).
    loss: Loss,
    /// Retries burned (attempts beyond the first).
    retries: u64,
}

/// The generation retry loop for one candidate: attempts `1..=max` of
/// cache probe + phases 2–3, charging failures and backoff to the loss
/// ledger. `first` carries dispatch-time attempt-1 state (cache already
/// probed, project already created); `None` makes every attempt probe the
/// cache and create the project itself — the duplicate-signature path. A
/// poisoned cache entry is evicted and counted, then regeneration proceeds
/// within the same attempt. Installing is *not* part of this loop: the
/// caller resumes the attempt numbering at [`Generated::attempt`] on the
/// serial side.
#[allow(clippy::too_many_arguments)]
fn run_generation(
    db: &CircuitDb,
    netlist_cache: &NetlistCache,
    bitstream_cache: &BitstreamCache,
    config: &SpecializeConfig,
    pf: &Function,
    dfg: &Dfg,
    cand: &Candidate,
    signature: u64,
    mut first: Option<&FirstAttempt>,
    tel: &Telemetry,
) -> Generated {
    let mut loss = Loss::default();
    let mut retries = 0u64;
    let (attempt, result) = with_retries(tel, signature, 1, &mut loss, &mut retries, |attempt| {
        let inj = config.faults.scope(signature, attempt);
        let created;
        let (project, c2v) = match first.take() {
            Some(Ok(pair)) => (&pair.0, pair.1),
            Some(Err(e)) => return Err((e.clone(), Loss::default())),
            None => {
                // An overlay-tier entry is deliberately *not* a hit here:
                // generation means producing the full artifact, so the
                // overlay commit of a crashed twin falls through to
                // regeneration (and is overwritten).
                if let Probe::Hit(hit) = probe_cache(bitstream_cache, &inj, signature, tel) {
                    return Ok(hit);
                }
                // Phase 2: Netlist Generation.
                created = create_project_with(db, netlist_cache, pf, dfg, cand, tel)
                    .map_err(|e| (e, Loss::default()))?;
                (&created.0, created.1)
            }
        };
        // Phase 3: Instruction Implementation.
        implement_project(bitstream_cache, config, &inj, project, c2v, signature, tel)
    });
    Generated {
        result,
        attempt,
        loss,
        retries,
    }
}

/// A quarantined signature is skipped outright: it exhausted its retries
/// in an earlier run (or earlier in this one) and would only burn tool
/// time again. Closes the candidate's span as a zero-time failure and
/// returns the quarantine reason; `None` when the signature is clear.
fn quarantine_skip(
    config: &SpecializeConfig,
    tel: &Telemetry,
    signature: u64,
    span: &mut Span,
) -> Option<String> {
    if !config.quarantine.contains(signature) {
        return None;
    }
    let reason = config
        .quarantine
        .reason(signature)
        .unwrap_or_else(|| "unknown".into());
    tel.add(names::CANDIDATES_FAILED, 1);
    tel.event(
        "candidate.quarantine_skip",
        &[("signature", TelValue::U64(signature))],
    );
    span.set_sim_time(SimTime::ZERO);
    span.field("failed", TelValue::Bool(true));
    span.field("attempts", TelValue::U64(0));
    Some(reason)
}

/// Greedy lane schedule: each charge is placed on the least-loaded of
/// `lanes` lanes (lowest index on ties), in selection order. Returns the
/// maximum lane load — the modeled critical path ("makespan") of running
/// the candidates on `lanes` CAD workers. One lane degenerates to the
/// plain sum; the result never exceeds it.
fn lane_makespan(lanes: usize, charges: &[SimTime]) -> SimTime {
    let mut load = vec![SimTime::ZERO; lanes.max(1)];
    for &charge in charges {
        if let Some(min) = load.iter_mut().min_by_key(|l| **l) {
            *min += charge;
        }
    }
    load.into_iter().max().unwrap_or(SimTime::ZERO)
}

/// How the dispatch pre-pass settled one selected candidate.
enum Disposition {
    /// Signature was quarantined before the run: recorded at dispatch,
    /// charged nothing.
    Skip(String),
    /// Settled entirely at dispatch (a clean attempt-1 cache hit).
    Resolved(Generated),
    /// Phases 2–3 handed to the worker pool; index into the job list.
    Pool(usize),
    /// Same signature as an earlier candidate of this run. Deferred to the
    /// finalize pass (after its twin settled) and resolved inline there —
    /// the per-signature in-flight dedup that keeps cache timing identical
    /// to the sequential schedule.
    Dup,
}

/// One selected candidate, as staged by the dispatch pre-pass.
struct Prepared {
    cand: Candidate,
    saved_per_exec: u64,
    exec_count: u64,
    hw_cycles: u64,
    dfg: Arc<Dfg>,
    signature: u64,
    disposition: Disposition,
    /// Overlay fast-path state, when the library is enabled and the
    /// candidate mapped (or rehydrated) onto it. `None` means full-only.
    overlay: Option<OverlayPrep>,
}

/// A pool job: everything a worker needs to run the generation loop for
/// one prepared candidate. [`SpecializeSession::begin`] hands these out;
/// whoever owns the session decides where and when each one runs — the
/// in-process pool in [`specialize`], or an external pool — and feeds
/// every result back to [`SpecializeSession::finalize`]. Execution is
/// order-free by construction: all order-sensitive decisions already
/// happened at dispatch.
pub struct CadJob {
    prep: usize,
    pool: usize,
    first: FirstAttempt,
    tel: Telemetry,
    signature: u64,
}

impl CadJob {
    /// The candidate signature this job implements — the stable identity
    /// an external scheduler can key queues and fault scopes by.
    pub fn signature(&self) -> u64 {
        self.signature
    }
}

/// The opaque result of executing one [`CadJob`]; hand the full set back
/// to [`SpecializeSession::finalize`] in any order.
pub struct CadJobResult {
    pool: usize,
    generated: Generated,
}

/// A specialization run split open at its stage boundaries.
///
/// [`specialize`] is this session driven start-to-finish with an
/// in-process worker pool. A caller that owns its own pool or scheduling
/// policy drives the stages itself:
///
/// 1. [`SpecializeSession::begin`] — phase 1 (candidate search) plus the
///    serial dispatch pre-pass (quarantine checks, duplicate dedup, the
///    attempt-1 cache probe, phase 2), yielding the pool-able jobs;
/// 2. [`SpecializeSession::execute`] — phases 2–3 retries + the tool flow
///    for one job; `&self`, thread-safe, any order, any thread;
/// 3. [`SpecializeSession::finalize`] — the serial adaptation phase (ICAP
///    installs, IR patching, accounting, store journaling) and the report.
///
/// The determinism contract is unchanged: every observable of the
/// finalized report is a pure function of the inputs, independent of how
/// the owner interleaved `execute` calls.
pub struct SpecializeSession<'a> {
    machine: &'a Woolcano,
    db: &'a CircuitDb,
    netlist_cache: &'a NetlistCache,
    bitstream_cache: &'a BitstreamCache,
    config: &'a SpecializeConfig,
    pristine: Module,
    search: SearchOutcome,
    prepared: Vec<Prepared>,
    spans: Vec<Option<Span>>,
    root: Span,
    tel: Telemetry,
    job_count: usize,
}

/// Runs the complete ASIP specialization process on `module` (profiled by
/// `profile`), patching the module in place and loading the machine.
///
/// Returns the report; the specialized module and loaded `machine` are the
/// adaptation-phase outputs.
#[allow(clippy::too_many_arguments)]
pub fn specialize(
    module: &mut Module,
    profile: &Profile,
    machine: &Woolcano,
    estimator: &PivPavEstimator,
    db: &CircuitDb,
    netlist_cache: &NetlistCache,
    bitstream_cache: &BitstreamCache,
    config: &SpecializeConfig,
) -> Result<SpecializeReport> {
    let (session, jobs) = SpecializeSession::begin(
        module,
        profile,
        machine,
        estimator,
        db,
        netlist_cache,
        bitstream_cache,
        config,
    );
    // ---- Pool: phases 2–3 retries + the tool flow, any completion order ----
    let results = parallel_map_indexed(config.cad_workers, &jobs, |_, job| session.execute(job));
    session.finalize(module, results)
}

impl<'a> SpecializeSession<'a> {
    /// Phase 1 and the serial dispatch pre-pass; returns the session plus
    /// the pool jobs. Every job must be passed through [`Self::execute`]
    /// exactly once before [`Self::finalize`].
    #[allow(clippy::too_many_arguments)]
    pub fn begin(
        module: &Module,
        profile: &Profile,
        machine: &'a Woolcano,
        estimator: &PivPavEstimator,
        db: &'a CircuitDb,
        netlist_cache: &'a NetlistCache,
        bitstream_cache: &'a BitstreamCache,
        config: &'a SpecializeConfig,
    ) -> (SpecializeSession<'a>, Vec<CadJob>) {
        let root = config.telemetry.span("pipeline.specialize");
        let tel = config.telemetry.under(&root);

        // ---- Phase 1: Candidate Search ----
        let search = if tel.is_enabled() {
            let mut search_cfg = config.search.clone();
            search_cfg.telemetry = tel.clone();
            candidate_search(module, profile, estimator, &search_cfg)
        } else {
            candidate_search(module, profile, estimator, &config.search)
        };

        // Snapshot the pristine functions: semantics freezing and signatures
        // must see the unpatched IR even while we patch candidate by candidate.
        let pristine = module.clone();

        // ---- Dispatch pre-pass (serial, selection order) ----
        // Quarantine checks, duplicate dedup, the attempt-1 cache probe, and
        // phase 2 all observe shared state whose outcome depends on processing
        // order; running them here, in selection order, makes every hit/miss
        // decision identical for any worker count. Only the order-free tool
        // flow leaves this thread.
        let selected = &search.selection.selected;
        let mut prepared: Vec<Prepared> = Vec::with_capacity(selected.len());
        let mut spans: Vec<Option<Span>> = Vec::with_capacity(selected.len());
        let mut jobs: Vec<CadJob> = Vec::new();
        let mut dispatched: HashSet<u64> = HashSet::new();
        // Many candidates share a block: build each block's DFG once, from one
        // escape pass per function.
        let mut escapes: HashMap<FuncId, Escapes> = HashMap::new();
        let mut dfgs: HashMap<BlockKey, Arc<Dfg>> = HashMap::new();

        for s in selected {
            let cand = s.candidate.clone();
            let pf = pristine.func(cand.key.func);
            let dfg = Arc::clone(dfgs.entry(cand.key).or_insert_with(|| {
                let escapes = escapes
                    .entry(cand.key.func)
                    .or_insert_with(|| Escapes::of(pf));
                Arc::new(Dfg::build_with(pf, cand.key.block, escapes))
            }));
            let signature = cand.signature(pf, &dfg);
            let mut cand_span = tel.span("pipeline.candidate");
            let cand_tel = tel.under(&cand_span);
            cand_span.field("signature", TelValue::U64(signature));
            cand_span.field("size", TelValue::U64(cand.len() as u64));

            let mut overlay: Option<OverlayPrep> = None;
            let disposition = if let Some(reason) =
                quarantine_skip(config, &cand_tel, signature, &mut cand_span)
            {
                Disposition::Skip(reason)
            } else if !dispatched.insert(signature) {
                Disposition::Dup
            } else {
                let inj = config.faults.scope(signature, 1);
                match probe_cache(bitstream_cache, &inj, signature, &cand_tel) {
                    Probe::Hit(hit) => Disposition::Resolved(Generated {
                        result: Ok(hit),
                        attempt: 1,
                        loss: Loss::default(),
                        retries: 0,
                    }),
                    probe => {
                        // A rehydrated overlay commit (a warm restart after a
                        // crash mid-upgrade) serves as the fast path for free;
                        // the full flow still goes to the pool. With the
                        // overlay disabled the entry is ignored and the full
                        // regeneration overwrites it.
                        if let (Probe::Overlay(entry), Some(_)) = (probe, &config.overlay) {
                            overlay = Some(OverlayPrep {
                                hw_cycles: machine.ci_cycles(&entry.timing),
                                entry,
                                assembly: SimTime::ZERO,
                                cache_hit: true,
                            });
                        }
                        // Phase 2 stays on this thread: netlist extraction time
                        // is charged by first-touch misses, which must be
                        // observed in selection order to stay
                        // schedule-oblivious.
                        let project =
                            create_project_with(db, netlist_cache, pf, &dfg, &cand, &cand_tel);
                        // The overlay fast path assembles here too: cell
                        // mapping is a pure function of the project, and its
                        // outcome gates finalize decisions, so it stays in
                        // dispatch order. An unmappable candidate falls back
                        // to full-only.
                        if let (Ok((project, _)), None, Some(lib)) =
                            (&project, &overlay, &config.overlay)
                        {
                            overlay = match map_overlay(lib, project) {
                                Ok(m) => Some(OverlayPrep {
                                    hw_cycles: machine.ci_cycles(&m.timing),
                                    entry: CiRecord {
                                        signature,
                                        bitstream: m.bitstream,
                                        timing: m.timing,
                                        generation_time: m.assembly_time,
                                        tier: InstallTier::Overlay,
                                    },
                                    assembly: m.assembly_time,
                                    cache_hit: false,
                                }),
                                Err(e) => {
                                    cand_tel.event(
                                        "overlay.unmapped",
                                        &[
                                            ("signature", TelValue::U64(signature)),
                                            ("error", TelValue::Str(e.to_string())),
                                        ],
                                    );
                                    None
                                }
                            };
                        }
                        jobs.push(CadJob {
                            prep: prepared.len(),
                            pool: jobs.len(),
                            first: project.map(Box::new),
                            tel: cand_tel,
                            signature,
                        });
                        Disposition::Pool(jobs.len() - 1)
                    }
                }
            };
            // A skipped candidate's span closes at dispatch; every other one
            // stays open until its finalize turn.
            spans.push(match disposition {
                Disposition::Skip(_) => None,
                _ => Some(cand_span),
            });
            prepared.push(Prepared {
                cand,
                saved_per_exec: s.estimate.saved_per_exec(),
                exec_count: s.estimate.exec_count,
                hw_cycles: s.estimate.hw_cycles,
                dfg,
                signature,
                disposition,
                overlay,
            });
        }

        let job_count = jobs.len();
        (
            SpecializeSession {
                machine,
                db,
                netlist_cache,
                bitstream_cache,
                config,
                pristine,
                search,
                prepared,
                spans,
                root,
                tel,
                job_count,
            },
            jobs,
        )
    }

    /// Runs phases 2–3 (with retries) for one job. Thread-safe (`&self`):
    /// the owner may call this from any worker thread, in any order —
    /// nothing order-sensitive happens here.
    pub fn execute(&self, job: &CadJob) -> CadJobResult {
        let prep = &self.prepared[job.prep];
        let pf = self.pristine.func(prep.cand.key.func);
        CadJobResult {
            pool: job.pool,
            generated: run_generation(
                self.db,
                self.netlist_cache,
                self.bitstream_cache,
                self.config,
                pf,
                &prep.dfg,
                &prep.cand,
                prep.signature,
                Some(&job.first),
                &job.tel,
            ),
        }
    }

    /// The serial adaptation phase: ICAP installs, IR patching, store
    /// journaling, and report accounting, in selection order. `results`
    /// must contain exactly one [`CadJobResult`] per job handed out by
    /// [`Self::begin`] (any order).
    pub fn finalize(
        self,
        module: &mut Module,
        results: Vec<CadJobResult>,
    ) -> Result<SpecializeReport> {
        let SpecializeSession {
            machine,
            db,
            netlist_cache,
            bitstream_cache,
            config,
            pristine,
            search,
            prepared,
            spans,
            mut root,
            tel,
            job_count,
        } = self;
        // Slot every pool result back at its dispatch position; arrival order
        // carries no information.
        assert_eq!(
            results.len(),
            job_count,
            "finalize needs exactly one result per dispatched job"
        );
        let mut pooled: Vec<Option<Generated>> = (0..job_count).map(|_| None).collect();
        for r in results {
            assert!(
                pooled[r.pool].is_none(),
                "job result delivered twice for pool slot {}",
                r.pool
            );
            pooled[r.pool] = Some(r.generated);
        }

        // ---- Finalize (serial, selection order) ----
        // The single ICAP port and the IR patcher impose a serial adaptation
        // phase anyway; doing all result accounting here too makes the report
        // independent of worker completion order.
        let mut outcomes = Vec::with_capacity(prepared.len());
        let mut failed: Vec<FailedCandidate> = Vec::new();
        let mut const_time = SimTime::ZERO;
        let mut map_time = SimTime::ZERO;
        let mut par_time = SimTime::ZERO;
        let mut cache_hits = 0usize;
        let mut retries = 0u64;
        let mut newly_quarantined = 0u64;
        let mut fault = Loss::default();
        let mut charges: Vec<SimTime> = Vec::with_capacity(prepared.len());
        let mut overlay_installs = 0usize;
        let mut upgrades = 0usize;
        let mut upgrades_failed = 0usize;
        let mut total_overlay_time = SimTime::ZERO;
        // Every record this session commits, appended as one batch.
        let mut journal = Journal::new(config.store.as_deref());

        for (prep, mut cand_span) in prepared.into_iter().zip(spans) {
            let Prepared {
                cand,
                saved_per_exec,
                exec_count,
                hw_cycles,
                dfg,
                signature,
                disposition,
                overlay: overlay_prep,
            } = prep;
            let pf = pristine.func(cand.key.func);
            let cand_tel = match &cand_span {
                Some(span) => tel.under(span),
                None => tel.clone(),
            };

            let generated = match disposition {
                Disposition::Skip(reason) => Err(reason),
                Disposition::Resolved(g) => Ok(g),
                Disposition::Pool(idx) => {
                    Ok(pooled[idx].take().expect("pool result consumed once"))
                }
                // The twin settled at its own finalize turn. Re-check the
                // quarantine — it may have grown this run — then run the
                // generation loop inline: in the common case a clean hit on
                // the entry the twin just cached.
                Disposition::Dup => {
                    let span = cand_span.as_mut().expect("a duplicate keeps its span");
                    match quarantine_skip(config, &cand_tel, signature, span) {
                        Some(reason) => Err(reason),
                        None => Ok(run_generation(
                            db,
                            netlist_cache,
                            bitstream_cache,
                            config,
                            pf,
                            &dfg,
                            &cand,
                            signature,
                            None,
                            &cand_tel,
                        )),
                    }
                }
            };
            let Generated {
                result,
                mut attempt,
                mut loss,
                retries: gen_retries,
            } = match generated {
                Ok(g) => g,
                Err(reason) => {
                    failed.push(FailedCandidate {
                        key: cand.key,
                        size: cand.len(),
                        signature,
                        attempts: 0,
                        error: format!("quarantined: {reason}"),
                        time_lost: SimTime::ZERO,
                        quarantined: true,
                    });
                    charges.push(SimTime::ZERO);
                    continue;
                }
            };
            retries += gen_retries;
            let (mut produced, error) = match result {
                Ok(p) => (Some(p), None),
                Err(e) => (None, Some(e)),
            };

            // ---- Overlay fast path (DESIGN.md §17) ----
            // Installed serially before the background result is applied: in
            // deployment the candidate serves at millisecond latency while the
            // full flow is still in flight. A failed overlay install falls back
            // to the full-only path; a fresh overlay commit is journaled so a
            // crash before the upgrade rehydrates the overlay tier.
            let mut overlay_time = SimTime::ZERO;
            let mut overlay_saved_per_exec = 0u64;
            let mut overlay_slot: Option<(u32, OverlayPrep)> = None;
            if let Some(op) = overlay_prep {
                let to = Transfer::Install {
                    pf,
                    dfg: &dfg,
                    cand: &cand,
                    tier: InstallTier::Overlay,
                };
                let (_, installed) =
                    with_retries(&cand_tel, signature, 1, &mut loss, &mut retries, |a| {
                        let inj = config.faults.scope(signature ^ OVERLAY_SCOPE_SALT, a);
                        transfer(&op.entry, &inj, machine, op.hw_cycles, to, &cand_tel)
                    });
                match installed {
                    Ok(slot) => {
                        // Savings under the overlay clock: the software cycles
                        // (`saved_per_exec + hw_cycles`) minus the overlay's
                        // own cycle count — floored at zero for candidates the
                        // degraded fabric cannot beat.
                        overlay_saved_per_exec = saved_per_exec
                            .saturating_add(hw_cycles)
                            .saturating_sub(op.hw_cycles);
                        overlay_time = op.assembly;
                        overlay_installs += 1;
                        tel.add(names::OVERLAY_INSTALLS, 1);
                        cand_tel.event(
                            "overlay.installed",
                            &[
                                ("signature", TelValue::U64(signature)),
                                ("slot", TelValue::U64(slot as u64)),
                            ],
                        );
                        // Journal the overlay commit ahead of the full one:
                        // a journal cut between the two must rehydrate this
                        // tier.
                        if !op.cache_hit {
                            journal.push(|_| Record::CacheEntry(op.entry.clone()));
                        }
                        overlay_slot = Some((slot, op));
                    }
                    Err(e) => {
                        // The assembly work is wasted along with the dead
                        // transfers; full-only fallback.
                        loss.constant += op.assembly;
                        cand_tel.event(
                            "overlay.install_failed",
                            &[
                                ("signature", TelValue::U64(signature)),
                                ("error", TelValue::Str(e.to_string())),
                            ],
                        );
                    }
                }
            }
            total_overlay_time += overlay_time;

            // Adaptation: the ICAP install — or, on the two-tier path, the
            // upgrade swap — serialized here behind the single reconfiguration
            // port, continuing the attempt numbering where generation stopped.
            // Generation survives an install failure: only the transfer is
            // re-attempted.
            let mut tier = InstallTier::Full;
            let mut upgraded = false;
            let to = match overlay_slot {
                Some(_) => Transfer::Upgrade(signature),
                None => Transfer::Install {
                    pf,
                    dfg: &dfg,
                    cand: &cand,
                    tier: InstallTier::Full,
                },
            };
            let result: std::result::Result<u32, Error> = match error {
                // The background generation exhausted its retries while the
                // overlay serves correct answers: the candidate *succeeds* at
                // the overlay tier. The generation waste stays on the fault
                // ledger, and the overlay entry is committed to the in-memory
                // cache so the next session rehydrates the fast path instead
                // of starting cold.
                Some(e) if overlay_slot.is_some() => {
                    let (oslot, op) = overlay_slot.expect("overlay installed");
                    tier = InstallTier::Overlay;
                    cand_tel.event(
                        "overlay.retained",
                        &[
                            ("signature", TelValue::U64(signature)),
                            ("error", TelValue::Str(e.to_string())),
                        ],
                    );
                    bitstream_cache.put(op.entry);
                    Ok(oslot)
                }
                Some(e) => Err(e),
                None => {
                    let p = produced.as_ref().expect("generation succeeded");
                    let moved;
                    (attempt, moved) = with_retries(
                        &cand_tel,
                        signature,
                        attempt,
                        &mut loss,
                        &mut retries,
                        |a| {
                            let inj = config.faults.scope(signature, a);
                            transfer(&p.entry, &inj, machine, hw_cycles, to, &cand_tel)
                        },
                    );
                    match (moved, overlay_slot) {
                        (Ok(slot), overlay) => {
                            upgraded = overlay.is_some();
                            upgrades += upgraded as usize;
                            Ok(slot)
                        }
                        // Swap abandoned: the overlay keeps serving. The full
                        // artifact stays cached (and journaled below), so the
                        // next session upgrades from a clean start.
                        (Err(e), Some((oslot, _))) => {
                            tier = InstallTier::Overlay;
                            upgrades_failed += 1;
                            tel.add(names::OVERLAY_UPGRADES_FAILED, 1);
                            cand_tel.event(
                                "overlay.upgrade_abandoned",
                                &[
                                    ("signature", TelValue::U64(signature)),
                                    ("error", TelValue::Str(e.to_string())),
                                ],
                            );
                            Ok(oslot)
                        }
                        (Err(e), None) => Err(e),
                    }
                }
            };

            // Patching is deterministic IR surgery: an error there is not
            // retryable, but it is still isolated to this candidate.
            let result: std::result::Result<u32, Error> = result.and_then(|slot| {
                patch_candidate(module.func_mut(cand.key.func), &cand, slot).map(|_| slot)
            });

            match result {
                Ok(slot) => {
                    // `produced` is absent on the overlay-retained path (the
                    // background generation failed and the overlay serves).
                    let (p_cache_hit, p_c2v, p_const, p_map, p_par) = match produced.take() {
                        Some(p) => {
                            if p.cache_hit {
                                cache_hits += 1;
                                tel.add(names::BITSTREAM_CACHE_HITS, 1);
                            } else {
                                tel.add(names::BITSTREAM_CACHE_MISSES, 1);
                                // Commit the freshly generated implementation
                                // to the persistent store (cache hits were
                                // journaled by the session that generated
                                // them).
                                journal.push(|_| Record::CacheEntry(p.entry.clone()));
                            }
                            const_time += p.c2v + p.const_stages;
                            map_time += p.map;
                            par_time += p.par;
                            (p.cache_hit, p.c2v, p.const_stages, p.map, p.par)
                        }
                        None => (
                            false,
                            SimTime::ZERO,
                            SimTime::ZERO,
                            SimTime::ZERO,
                            SimTime::ZERO,
                        ),
                    };
                    fault.absorb(loss);
                    let charge = p_c2v + p_const + p_map + p_par + loss.total() + overlay_time;
                    if let Some(mut span) = cand_span.take() {
                        span.set_sim_time(charge);
                        span.field("cache_hit", TelValue::Bool(p_cache_hit));
                        span.field("slot", TelValue::U64(slot as u64));
                        span.field("attempts", TelValue::U64(attempt as u64));
                        span.field("tier", TelValue::Str(tier.name().into()));
                        span.field("upgraded", TelValue::Bool(upgraded));
                    }
                    charges.push(charge);
                    outcomes.push(CandidateOutcome {
                        key: cand.key,
                        size: cand.len(),
                        signature,
                        cache_hit: p_cache_hit,
                        c2v: p_c2v,
                        const_stages: p_const,
                        map: p_map,
                        par: p_par,
                        slot,
                        saved_per_exec,
                        exec_count,
                        attempts: attempt,
                        time_lost: loss.total(),
                        tier,
                        overlay_time,
                        upgraded,
                        overlay_saved_per_exec,
                    });
                }
                Err(e) => {
                    // Exhausted: everything this candidate burned — including
                    // a successful generation whose install then failed — is
                    // wasted time, charged to the fault ledger so the journal
                    // still reconciles exactly.
                    if let Some(p) = produced.take() {
                        loss.constant += p.c2v + p.const_stages;
                        loss.map += p.map;
                        loss.par += p.par;
                    }
                    let error = e.to_string();
                    let newly = config.quarantine.insert(signature, &error);
                    tel.add(names::CANDIDATES_FAILED, 1);
                    if newly {
                        tel.add(names::CANDIDATES_QUARANTINED, 1);
                        cand_tel.event(
                            "candidate.quarantined",
                            &[
                                ("signature", TelValue::U64(signature)),
                                ("error", TelValue::Str(error.clone())),
                            ],
                        );
                        newly_quarantined += 1;
                        journal.push(|_| Record::Quarantine {
                            signature,
                            reason: error.clone(),
                        });
                    }
                    cand_tel.event(
                        "candidate.failed",
                        &[
                            ("signature", TelValue::U64(signature)),
                            ("attempts", TelValue::U64(attempt as u64)),
                            ("error", TelValue::Str(error.clone())),
                        ],
                    );
                    fault.absorb(loss);
                    if let Some(mut span) = cand_span.take() {
                        // `overlay_time` is non-zero here only when patching
                        // failed after a successful overlay install; the charge
                        // keeps the lane ledger reconciling exactly.
                        span.set_sim_time(loss.total() + overlay_time);
                        span.field("failed", TelValue::Bool(true));
                        span.field("attempts", TelValue::U64(attempt as u64));
                    }
                    charges.push(loss.total() + overlay_time);
                    failed.push(FailedCandidate {
                        key: cand.key,
                        size: cand.len(),
                        signature,
                        attempts: attempt,
                        error,
                        time_lost: loss.total(),
                        quarantined: newly,
                    });
                }
            }
        }

        let sum_time = const_time + map_time + par_time;
        let cpu_time: SimTime = charges.iter().copied().sum();
        debug_assert_eq!(cpu_time, sum_time + fault.total() + total_overlay_time);

        // The cumulative fault-ledger totals (latest-wins on replay) end the
        // session's batch.
        journal.push(|store| {
            let prior = store.totals();
            Record::FaultTotals(FaultTotals {
                sessions: prior.sessions + 1,
                retries: prior.retries + retries,
                quarantined: prior.quarantined + newly_quarantined,
                fault_time_ns: prior.fault_time_ns.saturating_add(fault.total().as_nanos()),
            })
        });
        journal.commit(&tel);
        let lanes = config.cad_workers.max(1);
        let makespan = lane_makespan(lanes, &charges);
        root.set_sim_time(cpu_time);
        root.field("candidates", TelValue::U64(outcomes.len() as u64));
        root.field("cache_hits", TelValue::U64(cache_hits as u64));
        root.field("failed", TelValue::U64(failed.len() as u64));
        root.field("retries", TelValue::U64(retries));
        root.field("cad_workers", TelValue::U64(lanes as u64));
        root.field("makespan_ns", TelValue::U64(makespan.as_nanos()));
        root.field("overlay_installs", TelValue::U64(overlay_installs as u64));
        root.field("upgrades", TelValue::U64(upgrades as u64));
        drop(root);
        Ok(SpecializeReport {
            search,
            candidates: outcomes,
            const_time,
            map_time,
            par_time,
            sum_time,
            reconfig_time: machine.total_reconfig_time(),
            cache_hits,
            failed,
            retries,
            fault_const_time: fault.constant,
            fault_map_time: fault.map,
            fault_par_time: fault.par,
            fault_icap_time: fault.icap,
            backoff_time: fault.backoff,
            cpu_time,
            makespan,
            cad_workers: lanes,
            overlay_installs,
            upgrades,
            upgrades_failed,
            overlay_time: total_overlay_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfix::hot_module;
    use jitise_vm::{Interpreter, Value};

    fn run_profile(m: &Module, n: i64) -> Profile {
        let mut vm = Interpreter::new(m);
        vm.run("main", &[Value::I(n)]).unwrap();
        vm.take_profile()
    }

    struct Ctx {
        db: CircuitDb,
        netlists: NetlistCache,
        bitstreams: BitstreamCache,
        estimator: PivPavEstimator,
    }

    impl Ctx {
        fn new() -> Ctx {
            Ctx {
                db: CircuitDb::build(),
                netlists: NetlistCache::new(),
                bitstreams: BitstreamCache::new(),
                estimator: PivPavEstimator::new(),
            }
        }

        fn specialize(&self, m: &mut Module, p: &Profile, machine: &Woolcano) -> SpecializeReport {
            specialize(
                m,
                p,
                machine,
                &self.estimator,
                &self.db,
                &self.netlists,
                &self.bitstreams,
                &SpecializeConfig::default(),
            )
            .unwrap()
        }
    }

    #[test]
    fn full_pipeline_speeds_up_and_preserves_semantics() {
        let ctx = Ctx::new();
        let base = hot_module();
        let mut m = base.clone();
        let profile = run_profile(&m, 5_000);
        let machine = Woolcano::new(16);
        let report = ctx.specialize(&mut m, &profile, &machine);
        assert!(!report.candidates.is_empty());
        assert!(report.sum_time > SimTime::ZERO);
        assert_eq!(report.cache_hits, 0);
        // Constant stages dominated by bitgen (paper: 85 %).
        assert!(report.const_time.as_secs_f64() > 150.0);

        let meas =
            jitise_woolcano::measure_speedup(&base, &m, &machine, "main", &[Value::I(5_000)])
                .unwrap();
        assert!(meas.speedup > 1.0, "speedup {}", meas.speedup);
    }

    #[test]
    fn cache_hit_skips_generation() {
        let ctx = Ctx::new();
        // First app run populates the cache.
        let mut m1 = hot_module();
        let p1 = run_profile(&m1, 2_000);
        let machine1 = Woolcano::new(16);
        let r1 = ctx.specialize(&mut m1, &p1, &machine1);
        assert_eq!(r1.cache_hits, 0);
        let first_sum = r1.sum_time;

        // Same program again: every candidate hits.
        let mut m2 = hot_module();
        let p2 = run_profile(&m2, 2_000);
        let machine2 = Woolcano::new(16);
        let r2 = ctx.specialize(&mut m2, &p2, &machine2);
        assert_eq!(r2.cache_hits, r2.candidates.len());
        assert_eq!(r2.sum_time, SimTime::ZERO, "all generation skipped");
        assert!(first_sum > SimTime::ZERO);

        // And the cached-bitstream machine still computes correctly.
        let base = hot_module();
        let meas =
            jitise_woolcano::measure_speedup(&base, &m2, &machine2, "main", &[Value::I(999)])
                .unwrap();
        assert!(meas.speedup > 1.0);
    }

    #[test]
    fn report_times_are_consistent() {
        let ctx = Ctx::new();
        let mut m = hot_module();
        let p = run_profile(&m, 2_000);
        let machine = Woolcano::new(16);
        let r = ctx.specialize(&mut m, &p, &machine);
        let per_cand: SimTime = r.candidates.iter().map(|c| c.total()).sum();
        assert_eq!(per_cand, r.sum_time);
        assert_eq!(r.sum_time, r.const_time + r.map_time + r.par_time);
        assert_eq!(r.cpu_time, r.sum_time + r.fault_time() + r.overlay_time);
        assert_eq!(r.overlay_time, SimTime::ZERO, "no overlay library");
        assert_eq!(r.overlay_installs, 0);
        assert_eq!(r.upgrades, 0);
        assert_eq!(r.makespan, r.cpu_time, "one lane: makespan is the sum");
        assert_eq!(r.cad_workers, 1);
        assert!(r.reconfig_time > SimTime::ZERO);
        assert!(r.failed.is_empty());
        assert_eq!(r.retries, 0);
        assert_eq!(r.fault_time(), SimTime::ZERO);
    }

    #[test]
    fn lane_makespan_schedules_greedily() {
        let c = SimTime::from_secs;
        let charges = [c(4), c(3), c(2), c(1)];
        assert_eq!(lane_makespan(1, &charges), c(10));
        // Two lanes: 4 | 3, then 2 joins the 3-lane, 1 the 4-lane.
        assert_eq!(lane_makespan(2, &charges), c(5));
        assert_eq!(lane_makespan(4, &charges), c(4));
        assert_eq!(lane_makespan(8, &charges), c(4), "idle lanes are free");
        assert_eq!(lane_makespan(0, &charges), c(10), "clamped to one lane");
        assert_eq!(lane_makespan(3, &[]), SimTime::ZERO);
    }

    #[test]
    fn worker_count_leaves_everything_but_makespan_identical() {
        let run = |workers: usize| {
            let ctx = Ctx::new();
            let mut m = hot_module();
            let p = run_profile(&m, 2_000);
            let machine = Woolcano::new(16);
            let cfg = SpecializeConfig {
                cad_workers: workers,
                ..SpecializeConfig::default()
            };
            let r = specialize_with(&ctx, &mut m, &p, &machine, &cfg);
            (r, m)
        };
        let (r1, m1) = run(1);
        let (r4, m4) = run(4);
        assert_eq!(r1.fingerprint(), r4.fingerprint());
        assert_eq!(m1, m4, "patched modules identical");
        assert_eq!(r1.cpu_time, r4.cpu_time);
        assert!(r4.makespan <= r4.cpu_time);
        if r4.candidates.len() >= 2 {
            assert!(
                r4.makespan < r4.cpu_time,
                "two lanes must overlap: makespan {} cpu {}",
                r4.makespan,
                r4.cpu_time
            );
        }
    }

    use jitise_faults::{FaultPlan, FaultSite};

    fn faulty_config(plan: FaultPlan) -> SpecializeConfig {
        SpecializeConfig {
            faults: FaultInjector::from_plan(plan),
            ..SpecializeConfig::default()
        }
    }

    fn specialize_with(
        ctx: &Ctx,
        m: &mut Module,
        p: &Profile,
        machine: &Woolcano,
        config: &SpecializeConfig,
    ) -> SpecializeReport {
        specialize(
            m,
            p,
            machine,
            &ctx.estimator,
            &ctx.db,
            &ctx.netlists,
            &ctx.bitstreams,
            config,
        )
        .unwrap()
    }

    #[test]
    fn zero_rate_injector_leaves_report_byte_identical() {
        let mk = || {
            let ctx = Ctx::new();
            let m = hot_module();
            let p = run_profile(&m, 2_000);
            let machine = Woolcano::new(16);
            (ctx, m, p, machine)
        };
        let (ctx_a, mut m_a, p_a, machine_a) = mk();
        let base = ctx_a.specialize(&mut m_a, &p_a, &machine_a);
        let (ctx_b, mut m_b, p_b, machine_b) = mk();
        let cfg = faulty_config(FaultPlan::uniform(0.0, 42));
        let zeroed = specialize_with(&ctx_b, &mut m_b, &p_b, &machine_b, &cfg);
        assert_eq!(base.fingerprint(), zeroed.fingerprint());
        assert_eq!(m_a, m_b, "patched modules identical");
    }

    #[test]
    fn persistent_fault_isolates_and_quarantines_candidate() {
        let ctx = Ctx::new();
        let base = hot_module();
        let mut m = base.clone();
        let p = run_profile(&m, 2_000);
        let machine = Woolcano::new(16);
        let mut plan = FaultPlan::none(7).with_rate(FaultSite::CadMap, 1.0);
        plan.persistent_frac = 1.0; // every fault is persistent
        let cfg = faulty_config(plan);
        let r = specialize_with(&ctx, &mut m, &p, &machine, &cfg);
        assert!(r.candidates.is_empty(), "every candidate fails");
        assert!(!r.failed.is_empty());
        for f in &r.failed {
            assert!(f.quarantined);
            assert_eq!(f.attempts, MAX_ATTEMPTS);
            assert!(f.error.contains("injected"));
            assert!(f.time_lost > SimTime::ZERO);
        }
        assert_eq!(r.retries, r.failed.len() as u64 * (MAX_ATTEMPTS as u64 - 1));
        assert_eq!(cfg.quarantine.len(), r.failed.len());
        assert!(
            r.fault_map_time > SimTime::ZERO,
            "map ran before each death"
        );
        assert!(r.backoff_time > SimTime::ZERO);
        assert_eq!(r.sum_time, SimTime::ZERO, "no successful generation");
        assert_eq!(r.cpu_time, r.fault_time(), "all charged time is waste");

        // The unpatched module still computes the original answer.
        let mut vm_base = Interpreter::new(&base);
        let want = vm_base.run("main", &[Value::I(500)]).unwrap();
        let mut vm = Interpreter::new(&m);
        let got = vm.run("main", &[Value::I(500)]).unwrap();
        assert_eq!(want.ret, got.ret);

        // A second session sharing the quarantine skips without tool time.
        let mut m2 = hot_module();
        let p2 = run_profile(&m2, 2_000);
        let machine2 = Woolcano::new(16);
        let cfg2 = SpecializeConfig {
            quarantine: Arc::clone(&cfg.quarantine),
            ..SpecializeConfig::default()
        };
        let r2 = specialize_with(&ctx, &mut m2, &p2, &machine2, &cfg2);
        assert!(r2.candidates.is_empty());
        assert!(r2.failed.iter().all(|f| f.attempts == 0 && f.quarantined));
        assert_eq!(r2.fault_time(), SimTime::ZERO, "skip burns nothing");
        assert_eq!(r2.makespan, SimTime::ZERO, "skips occupy no lane");
    }

    #[test]
    fn transient_fault_retries_then_succeeds() {
        let ctx = Ctx::new();
        let base = hot_module();
        let mut m = base.clone();
        let p = run_profile(&m, 5_000);
        let machine = Woolcano::new(16);
        let mut plan = FaultPlan::none(11).with_rate(FaultSite::CadMap, 1.0);
        plan.persistent_frac = 0.0; // every fault clears within the budget
        let cfg = faulty_config(plan);
        let r = specialize_with(&ctx, &mut m, &p, &machine, &cfg);
        assert!(
            r.failed.is_empty(),
            "transients always clear: {:?}",
            r.failed
        );
        assert!(!r.candidates.is_empty());
        assert!(r.candidates.iter().all(|c| c.attempts > 1));
        assert!(r.retries > 0);
        assert!(r.fault_map_time > SimTime::ZERO);
        assert!(r.backoff_time > SimTime::ZERO);
        assert!(cfg.quarantine.is_empty());

        let meas =
            jitise_woolcano::measure_speedup(&base, &m, &machine, "main", &[Value::I(5_000)])
                .unwrap();
        assert!(meas.speedup > 1.0, "speedup {}", meas.speedup);
    }

    #[test]
    fn icap_corruption_is_caught_and_retried_without_regeneration() {
        let ctx = Ctx::new();
        let base = hot_module();
        let mut m = base.clone();
        let p = run_profile(&m, 2_000);
        let machine = Woolcano::new(16);
        let mut plan = FaultPlan::none(13).with_rate(FaultSite::IcapTransfer, 1.0);
        plan.persistent_frac = 0.0;
        let cfg = faulty_config(plan);
        let r = specialize_with(&ctx, &mut m, &p, &machine, &cfg);
        assert!(r.failed.is_empty(), "{:?}", r.failed);
        for c in &r.candidates {
            assert!(c.attempts > 1, "first transfer was corrupted");
            assert!(!c.cache_hit);
            assert!(c.total() > SimTime::ZERO, "generation time still reported");
        }
        assert!(r.fault_icap_time > SimTime::ZERO, "dead transfers ledgered");
        assert_eq!(
            r.fault_const_time + r.fault_map_time + r.fault_par_time,
            SimTime::ZERO,
            "generation ran exactly once per candidate"
        );

        let meas =
            jitise_woolcano::measure_speedup(&base, &m, &machine, "main", &[Value::I(2_000)])
                .unwrap();
        assert!(meas.speedup > 1.0);
    }

    #[test]
    fn poisoned_cache_entry_is_evicted_and_regenerated() {
        let ctx = Ctx::new();
        // Populate the cache fault-free.
        let mut m1 = hot_module();
        let p1 = run_profile(&m1, 2_000);
        let machine1 = Woolcano::new(16);
        let r1 = ctx.specialize(&mut m1, &p1, &machine1);
        assert_eq!(r1.cache_hits, 0);

        // Second run: every cache read comes back corrupted (transient, so
        // only attempt 1 is poisoned — but regeneration happens within the
        // same attempt and replaces the entry).
        let base = hot_module();
        let mut m2 = base.clone();
        let p2 = run_profile(&m2, 2_000);
        let machine2 = Woolcano::new(16);
        let mut plan = FaultPlan::none(17).with_rate(FaultSite::CacheEntry, 1.0);
        plan.persistent_frac = 0.0;
        let cfg = faulty_config(plan);
        let r2 = specialize_with(&ctx, &mut m2, &p2, &machine2, &cfg);
        assert!(r2.failed.is_empty(), "{:?}", r2.failed);
        assert_eq!(r2.cache_hits, 0, "poisoned hits do not count as hits");
        assert!(r2.sum_time > SimTime::ZERO, "regeneration happened");
        assert!(r2.candidates.iter().all(|c| !c.cache_hit));

        let meas =
            jitise_woolcano::measure_speedup(&base, &m2, &machine2, "main", &[Value::I(999)])
                .unwrap();
        assert!(meas.speedup > 1.0);
    }

    fn overlay_config(ctx: &Ctx) -> SpecializeConfig {
        SpecializeConfig {
            overlay: Some(Arc::new(OverlayLibrary::from_db(&ctx.db))),
            ..SpecializeConfig::default()
        }
    }

    #[test]
    fn overlay_two_tier_installs_then_upgrades_to_full() {
        let ctx = Ctx::new();
        let base = hot_module();
        let mut m = base.clone();
        let p = run_profile(&m, 5_000);
        let machine = Woolcano::new(16);
        let cfg = overlay_config(&ctx);
        let r = specialize_with(&ctx, &mut m, &p, &machine, &cfg);
        assert!(!r.candidates.is_empty());
        assert!(r.failed.is_empty(), "{:?}", r.failed);
        assert_eq!(r.overlay_installs, r.candidates.len());
        assert_eq!(r.upgrades, r.candidates.len());
        assert_eq!(r.upgrades_failed, 0);
        for c in &r.candidates {
            assert_eq!(c.tier, InstallTier::Full, "background upgrade landed");
            assert!(c.upgraded);
            assert!(c.overlay_time > SimTime::ZERO, "fresh assembly charged");
        }
        // The install-latency headline: assembling and installing the
        // overlay is orders of magnitude cheaper than the full CAD flow.
        assert!(
            r.sum_time.as_nanos() > 100 * r.overlay_time.as_nanos(),
            "overlay {} vs full {}",
            r.overlay_time,
            r.sum_time
        );
        assert_eq!(r.cpu_time, r.sum_time + r.fault_time() + r.overlay_time);

        let meas =
            jitise_woolcano::measure_speedup(&base, &m, &machine, "main", &[Value::I(5_000)])
                .unwrap();
        assert!(meas.speedup > 1.0, "speedup {}", meas.speedup);
    }

    #[test]
    fn upgrade_swap_fault_keeps_overlay_serving() {
        let ctx = Ctx::new();
        let base = hot_module();
        let mut m = base.clone();
        let p = run_profile(&m, 2_000);
        let machine = Woolcano::new(16);
        let mut plan = FaultPlan::none(19).with_rate(FaultSite::UpgradeSwap, 1.0);
        plan.persistent_frac = 1.0; // every swap transfer dies
        let cfg = SpecializeConfig {
            faults: FaultInjector::from_plan(plan),
            ..overlay_config(&ctx)
        };
        let r = specialize_with(&ctx, &mut m, &p, &machine, &cfg);
        assert!(r.failed.is_empty(), "overlay keeps serving: {:?}", r.failed);
        assert!(!r.candidates.is_empty());
        assert_eq!(r.upgrades, 0);
        assert_eq!(r.upgrades_failed, r.candidates.len());
        for c in &r.candidates {
            assert_eq!(c.tier, InstallTier::Overlay, "swap never landed");
            assert!(!c.upgraded);
        }
        assert!(r.fault_icap_time > SimTime::ZERO, "dead swaps ledgered");
        assert!(
            r.sum_time > SimTime::ZERO,
            "full generation still succeeded"
        );
        assert!(
            cfg.quarantine.is_empty(),
            "a serving slot never quarantines"
        );

        // The overlay tier computes the same answers as software.
        jitise_woolcano::measure_speedup(&base, &m, &machine, "main", &[Value::I(777)]).unwrap();
    }

    #[test]
    fn worker_count_invariance_holds_with_overlay() {
        let run = |workers: usize| {
            let ctx = Ctx::new();
            let mut m = hot_module();
            let p = run_profile(&m, 2_000);
            let machine = Woolcano::new(16);
            let cfg = SpecializeConfig {
                cad_workers: workers,
                ..overlay_config(&ctx)
            };
            let r = specialize_with(&ctx, &mut m, &p, &machine, &cfg);
            (r.fingerprint(), m)
        };
        let (f1, m1) = run(1);
        let (f2, m2) = run(2);
        let (f8, m8) = run(8);
        assert_eq!(f1, f2);
        assert_eq!(f1, f8);
        assert_eq!(m1, m2, "patched modules identical");
        assert_eq!(m1, m8);
    }

    #[test]
    fn overlay_cache_entry_rehydrates_fast_path_and_upgrades() {
        let ctx = Ctx::new();
        // Session 1: generation is persistently dead; the overlay serves
        // and its entry is committed to the cache at the overlay tier.
        let mut m1 = hot_module();
        let p1 = run_profile(&m1, 2_000);
        let machine1 = Woolcano::new(16);
        let mut plan = FaultPlan::none(23).with_rate(FaultSite::CadMap, 1.0);
        plan.persistent_frac = 1.0;
        let cfg1 = SpecializeConfig {
            faults: FaultInjector::from_plan(plan),
            ..overlay_config(&ctx)
        };
        let r1 = specialize_with(&ctx, &mut m1, &p1, &machine1, &cfg1);
        assert!(r1.failed.is_empty(), "{:?}", r1.failed);
        assert!(!r1.candidates.is_empty());
        assert!(r1.candidates.iter().all(|c| c.tier == InstallTier::Overlay));
        assert_eq!(r1.sum_time, SimTime::ZERO, "no full generation landed");
        assert!(r1.overlay_time > SimTime::ZERO);
        assert!(
            cfg1.quarantine.is_empty(),
            "served candidates never quarantine"
        );

        // Session 2 (fault-free, shared caches): the overlay entry serves
        // the fast path for free — no re-assembly — and the full flow
        // finishes the upgrade.
        let mut m2 = hot_module();
        let p2 = run_profile(&m2, 2_000);
        let machine2 = Woolcano::new(16);
        let cfg2 = overlay_config(&ctx);
        let r2 = specialize_with(&ctx, &mut m2, &p2, &machine2, &cfg2);
        assert!(r2.failed.is_empty(), "{:?}", r2.failed);
        assert_eq!(r2.overlay_installs, r2.candidates.len());
        assert_eq!(r2.upgrades, r2.candidates.len());
        assert!(r2.candidates.iter().all(|c| c.tier == InstallTier::Full));
        assert_eq!(r2.overlay_time, SimTime::ZERO, "rehydrated: no assembly");
        assert!(r2.sum_time > SimTime::ZERO, "the full flow still ran");
    }
}
