//! The concurrent JIT runtime.
//!
//! Fig. 1's right half: the application executes on the VM while the ASIP
//! specialization process runs *concurrently* ("this process is performed
//! concurrently with the execution of the application. As soon as it is
//! completed … the adaptation phase occurs where [the] ASIP architecture
//! is reconfigured and the application binary is modified").
//!
//! One session core models exactly that: the main thread keeps executing
//! the workload run after run; a background worker profiles-and-
//! specializes; on completion the main loop hot-swaps to the specialized
//! binary and the loaded Woolcano machine. [`run_storm`] runs the core
//! with its phase detector on; [`run_adaptive_with`] is the same core over
//! one segment with the detector off. §VI-B's observation that one can
//! "run the FPGA tool concurrently" is realized by the worker pool.
//!
//! The runtime never depends on the worker's health: a dead, panicked, or
//! stalled worker degrades the session to software-only execution
//! (correct results, speedup 1.0) instead of hanging or crashing the
//! application — see [`DegradedReason`] and DESIGN.md §9.

use crate::cache::BitstreamCache;
use crate::evaluation::EvalContext;
use crate::pipeline::{note_fault, specialize, Journal, SpecializeConfig, SpecializeReport};
use jitise_base::hash::SigHasher;
use jitise_base::{Error, Result, SimTime};
use jitise_cad::OverlayLibrary;
use jitise_faults::{FaultInjector, FaultSite, Quarantine};
use jitise_ir::Module;
use jitise_ise::SearchConfig;
use jitise_store::{Record, Store, StoreState};
use jitise_telemetry::{names, Telemetry, Value as TelValue};
use jitise_vm::{BlockKey, HotnessWindow, Interpreter, PredecodedModule, Profile, Value, VmTier};
use jitise_woolcano::Woolcano;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// Why a session fell back to software-only execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradedReason {
    /// The worker thread died (or was killed) without reporting.
    WorkerDisconnected,
    /// The worker missed the watchdog deadline and was abandoned.
    WorkerStalled,
    /// Specialization itself returned an error.
    SpecializeFailed(String),
    /// The tenant's specialization exceeded its per-tenant deadline
    /// budget and the session fell back to software-only execution
    /// (multi-tenant serve runtime; see DESIGN.md §16). The single-
    /// session runtime never emits this — its wall-clock bound is the
    /// watchdog, reported as [`DegradedReason::WorkerStalled`].
    DeadlineExceeded,
}

/// Robustness knobs for [`run_adaptive_with`].
pub struct AdaptiveOptions {
    /// Wall-clock budget the main loop grants the worker before abandoning
    /// it and degrading to software-only execution. This is *host* time —
    /// the one place the runtime must bound a real thread, not a simulated
    /// clock.
    pub watchdog: Duration,
    /// Fault injection handle, threaded through to the pipeline and used
    /// for worker stall/death injection (disabled by default).
    pub faults: FaultInjector,
    /// Quarantine list shared with the pipeline (and, if the caller keeps
    /// the `Arc`, across sessions).
    pub quarantine: Arc<Quarantine>,
    /// CAD worker lanes for the specialization pipeline (default 1 = the
    /// sequential pipeline). More lanes shrink the simulated adaptation
    /// overhead; every other observable stays bit-identical.
    pub cad_workers: usize,
    /// Candidate-search worker lanes inside the specialization worker
    /// (default 1 = sequential search). Changes only wall-clock, never
    /// results.
    pub search_workers: usize,
    /// Optional crash-consistent store (opened/recovered by the caller).
    /// At session start its recovered cache entries hydrate the bitstream
    /// cache (a warm restart: they count as cache hits) and its recovered
    /// quarantine signatures are honored; during the session every fresh
    /// implementation and quarantine decision is journaled back. `None`
    /// (the default) leaves the session byte-identical to today.
    pub store: Option<Arc<Store>>,
    /// Optional overlay cell library enabling two-tier installation in
    /// every specialization this session runs (initial install and storm
    /// re-specializations alike): candidates go live on a millisecond
    /// cell-assembly overlay while the full CAD flow runs as a background
    /// upgrade (DESIGN.md §17). `None` (the default) keeps the session
    /// byte-identical to the full-only pipeline.
    pub overlay: Option<Arc<OverlayLibrary>>,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            watchdog: Duration::from_secs(30),
            faults: FaultInjector::disabled(),
            quarantine: Arc::new(Quarantine::new()),
            cad_workers: 1,
            search_workers: 1,
            store: None,
            overlay: None,
        }
    }
}

impl AdaptiveOptions {
    /// The pipeline configuration of every specialization a session runs:
    /// the background worker's and each storm re-specialization's.
    fn specialize_config(&self, telemetry: Telemetry, faults: FaultInjector) -> SpecializeConfig {
        SpecializeConfig {
            search: SearchConfig {
                workers: self.search_workers,
                ..SearchConfig::default()
            },
            telemetry,
            faults,
            quarantine: Arc::clone(&self.quarantine),
            cad_workers: self.cad_workers,
            store: self.store.clone(),
            overlay: self.overlay.clone(),
            ..SpecializeConfig::default()
        }
    }
}

/// Outcome of an adaptive execution session.
pub struct AdaptiveOutcome {
    /// Workload runs executed before the specialized binary was ready.
    pub runs_before: u32,
    /// Runs executed after adaptation.
    pub runs_after: u32,
    /// Average cycles per run before adaptation.
    pub cycles_before: u64,
    /// Average cycles per run after adaptation.
    pub cycles_after: u64,
    /// Observed speedup (before / after).
    pub observed_speedup: f64,
    /// The specialization report from the worker; `None` when the session
    /// degraded before the worker reported.
    pub report: Option<SpecializeReport>,
    /// Why the session fell back to software-only execution, if it did.
    pub degraded: Option<DegradedReason>,
    /// Return value of every workload run, in order (profiling run first).
    /// Degraded or not, these must match a fault-free session: the
    /// workload's answers are never allowed to change.
    pub results: Vec<Option<Value>>,
    /// Simulated specialization overhead (what a real deployment would
    /// wait for; the worker's wall time is irrelevant here). This is the
    /// pipeline's makespan: with one CAD lane, the sum of all tool time
    /// plus the fault ledger — wasted tool time and retry backoff are real
    /// waiting — and with more lanes, the critical path.
    pub overhead: SimTime,
}

impl AdaptiveOutcome {
    /// Deterministic digest of every observable field (see
    /// [`SpecializeReport::fingerprint`]).
    pub fn fingerprint(&self) -> String {
        format!(
            "rb={} ra={} cb={} ca={} sp={:016x} ov={} degraded={:?} results={:?} report={}",
            self.runs_before,
            self.runs_after,
            self.cycles_before,
            self.cycles_after,
            self.observed_speedup.to_bits(),
            self.overhead.as_nanos(),
            self.degraded,
            self.results,
            self.report
                .as_ref()
                .map(|r| r.fingerprint())
                .unwrap_or_else(|| "none".into()),
        )
    }
}

/// Sets the cancel flag when dropped, releasing a stalled worker so
/// `thread::scope` can join it — on *every* exit path, including panics.
struct CancelGuard(Arc<AtomicBool>);

impl Drop for CancelGuard {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// A specialized binary, its loaded machine and the report that made it.
type Specialized = (Module, Woolcano, SpecializeReport);

fn wait_for_worker(
    rx: &Receiver<Result<Specialized>>,
    watchdog: Duration,
) -> std::result::Result<Specialized, DegradedReason> {
    match rx.recv_timeout(watchdog) {
        Ok(Ok(t)) => Ok(t),
        Ok(Err(e)) => Err(DegradedReason::SpecializeFailed(e.to_string())),
        Err(RecvTimeoutError::Timeout) => Err(DegradedReason::WorkerStalled),
        Err(RecvTimeoutError::Disconnected) => Err(DegradedReason::WorkerDisconnected),
    }
}

fn note_degraded(tel: &Telemetry, reason: DegradedReason) -> DegradedReason {
    tel.add(names::RUNTIME_DEGRADED, 1);
    tel.event(
        "runtime.degraded",
        &[("reason", TelValue::Str(format!("{reason:?}")))],
    );
    reason
}

/// Specializes a copy of `module` onto a fresh machine. A panic anywhere
/// in the pipeline comes back as `Err(message)` instead of tearing down
/// the process.
fn specialize_copy(
    ctx: &EvalContext,
    cache: &BitstreamCache,
    module: &Module,
    profile: &Profile,
    config: &SpecializeConfig,
) -> std::result::Result<Result<Specialized>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut m = module.clone();
        let machine = Woolcano::with_telemetry(512, config.telemetry.clone());
        specialize(
            &mut m,
            profile,
            &machine,
            &ctx.estimator,
            &ctx.db,
            &ctx.netlists,
            cache,
            config,
        )
        .map(|report| (m, machine, report))
    }))
    .map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "unknown panic".into()
        }
    })
}

/// Warm restart: hydrates the bitstream cache and the quarantine from the
/// store's recovered state before any specialization work, and returns
/// that state. The recovered entries then count as ordinary cache hits, so
/// a session after a restart pays zero regeneration overhead (§VI-A's
/// break-even improves exactly as if the process had never died). Because
/// evictions are journaled, the recovered state is the *post-eviction*
/// cache: a restart does not resurrect CIs a session already retired.
/// `event` names the journal event of the driver that restarted.
pub fn hydrate(
    store: &Store,
    cache: &BitstreamCache,
    quarantine: &Quarantine,
    tel: &Telemetry,
    event: &'static str,
) -> StoreState {
    let state = store.state();
    if !state.is_empty() {
        let absorbed = cache.absorb_store(&state);
        let mut quarantined = 0u64;
        for (sig, reason) in &state.quarantine {
            quarantined += quarantine.insert(*sig, reason) as u64;
        }
        tel.add(names::STORE_WARM_RESTARTS, 1);
        tel.event(
            event,
            &[
                ("entries_absorbed", TelValue::U64(absorbed as u64)),
                ("quarantine_absorbed", TelValue::U64(quarantined)),
            ],
        );
    }
    state
}

/// The worker-fault gate every specialization passes first: an injected
/// worker death, then an injected stall, drawn on the worker scope of the
/// session's entry point, so the decisions are deterministic per (plan
/// seed, workload, epoch, tenant). Returns the degradation a firing fault
/// causes.
pub fn worker_fault(
    faults: &FaultInjector,
    entry: &str,
    tel: &Telemetry,
) -> Option<DegradedReason> {
    let mut h = SigHasher::new();
    h.write_str("runtime.worker");
    h.write_str(entry);
    let inj = faults.scope(h.finish(), 1);
    for (site, reason) in [
        (FaultSite::WorkerDeath, DegradedReason::WorkerDisconnected),
        (FaultSite::WorkerStall, DegradedReason::WorkerStalled),
    ] {
        if let Some(kind) = inj.decide(site) {
            note_fault(tel, site, kind);
            return Some(reason);
        }
    }
    None
}

/// Evicts each of `signatures` from the bitstream cache and journals the
/// removed ones' [`Record::Evict`] tombstones as one batch, so a
/// crash-restart rehydrates the post-eviction cache. Returns the removed
/// signatures, in order; the uncached ones are skipped.
pub fn evict(
    cache: &BitstreamCache,
    store: Option<&Store>,
    tel: &Telemetry,
    signatures: impl IntoIterator<Item = u64>,
) -> Vec<u64> {
    let mut journal = Journal::new(store);
    let evicted: Vec<u64> = signatures
        .into_iter()
        .filter(|&signature| cache.remove(signature))
        .collect();
    for &signature in &evicted {
        journal.push(|_| Record::Evict { signature });
    }
    journal.commit(tel);
    evicted
}

/// Runs `total_runs` executions of `entry(args)`, specializing in the
/// background after the first (profiling) run and hot-swapping when ready.
///
/// `ready_after_runs` models the tool-flow latency in units of workload
/// runs: the swap happens once specialization has finished *and* at least
/// that many runs have completed (deterministic tests set it explicitly).
///
/// Equivalent to [`run_adaptive_with`] under [`AdaptiveOptions::default`].
pub fn run_adaptive(
    ctx: &EvalContext,
    cache: &BitstreamCache,
    module: &Module,
    entry: &str,
    args: &[Value],
    total_runs: u32,
    ready_after_runs: u32,
) -> Result<AdaptiveOutcome> {
    run_adaptive_with(
        ctx,
        cache,
        module,
        entry,
        args,
        total_runs,
        ready_after_runs,
        &AdaptiveOptions::default(),
    )
}

/// Builds a workload VM on the session's execution tier. On the fast tier
/// the module is pre-decoded once (memoized in `pd`) and the decoded form
/// is shared by every subsequent run of the same binary — the whole point
/// of paying the decode: the adaptive loop executes each module many times.
fn tiered_vm<'m>(
    module: &'m Module,
    tier: VmTier,
    pd: &mut Option<Arc<PredecodedModule>>,
) -> Interpreter<'m> {
    let mut vm = Interpreter::new(module);
    if tier == VmTier::Fast {
        let pd = pd.get_or_insert_with(|| Arc::new(PredecodedModule::build(module)));
        vm.set_predecoded(Arc::clone(pd));
    }
    vm
}

/// Average cycles per run before the first swap and after it, and the
/// observed speedup (before / after). With no post-swap runs the after
/// average is the before one (speedup 1.0).
fn averages(run_cycles: &[u64], runs_before: usize) -> (u64, u64, f64) {
    let (before, after) = run_cycles.split_at(runs_before);
    let avg = |c: &[u64]| c.iter().sum::<u64>() / c.len().max(1) as u64;
    let before = avg(before);
    let after = if after.is_empty() { before } else { avg(after) };
    (before, after, before as f64 / after.max(1) as f64)
}

/// Per-session workload execution: runs the current binary and keeps the
/// per-run cycle and result accounting. The session core drives one, and
/// a multi-session runtime (`jitise-serve`, DESIGN.md §16) drives one per
/// tenant, so each tenant keeps exactly the accounting a dedicated
/// [`run_adaptive_with`] session would produce.
///
/// The profiling run charges the *profiled* cycle total and every later
/// run charges the run's own cycle count. A session never swaps back to
/// the base module, so its base-module runs are the leading ones. On the
/// fast tier the base module is pre-decoded once for the session and each
/// installed binary once per install.
pub struct WorkloadSession {
    tier: VmTier,
    base_pd: Option<Arc<PredecodedModule>>,
    spec_pd: Option<Arc<PredecodedModule>>,
    runs_before: usize,
    run_cycles: Vec<u64>,
    results: Vec<Option<Value>>,
}

impl WorkloadSession {
    /// A fresh session on the given execution tier; no runs yet.
    pub fn new(tier: VmTier) -> WorkloadSession {
        WorkloadSession {
            tier,
            base_pd: None,
            spec_pd: None,
            runs_before: 0,
            run_cycles: Vec::new(),
            results: Vec::new(),
        }
    }

    /// The profiling run: executes `entry(args)` on the unmodified
    /// module and returns the [`Profile`] that seeds specialization.
    pub fn profile_run(
        &mut self,
        module: &Module,
        entry: &str,
        args: &[Value],
        tel: &Telemetry,
    ) -> Result<Profile> {
        let profile = self.run(module, None, entry, args, tel)?;
        *self.run_cycles.last_mut().expect("one run") = profile.total_cycles();
        Ok(profile)
    }

    /// One run of `entry(args)` on the current binary: the specialized
    /// module on its loaded machine once `adapted`, else the base module.
    /// Returns the run's profile.
    pub fn run(
        &mut self,
        base: &Module,
        adapted: Option<&(Module, Woolcano)>,
        entry: &str,
        args: &[Value],
        tel: &Telemetry,
    ) -> Result<Profile> {
        let mut vm = match adapted {
            Some((m, machine)) => {
                let mut vm = tiered_vm(m, self.tier, &mut self.spec_pd);
                vm.set_custom_handler(machine);
                vm
            }
            None => tiered_vm(base, self.tier, &mut self.base_pd),
        };
        vm.set_telemetry(tel.clone());
        let out = vm.run(entry, args)?;
        self.runs_before += adapted.is_none() as usize;
        self.run_cycles.push(out.cycles);
        self.results.push(out.ret);
        Ok(vm.take_profile())
    }

    /// Observed speedup: pre-swap average over post-swap average.
    pub fn observed_speedup(&self) -> f64 {
        averages(&self.run_cycles, self.runs_before).2
    }

    /// Consumes the session, yielding the per-run return values.
    pub fn into_results(self) -> Vec<Option<Value>> {
        self.results
    }
}

/// [`run_adaptive`] with explicit robustness options. Workload runs
/// execute on `ctx.vm_tier`.
///
/// The session *always* terminates with correct workload results: a
/// worker that dies, panics, stalls past the watchdog, or fails
/// specialization degrades the session to software-only execution and
/// records the [`DegradedReason`] instead of propagating the failure.
#[allow(clippy::too_many_arguments)]
pub fn run_adaptive_with(
    ctx: &EvalContext,
    cache: &BitstreamCache,
    module: &Module,
    entry: &str,
    args: &[Value],
    total_runs: u32,
    ready_after_runs: u32,
    options: &AdaptiveOptions,
) -> Result<AdaptiveOutcome> {
    let mut root = ctx.telemetry.span("runtime.adaptive");
    let tel = ctx.telemetry.under(&root);
    let schedule = [PhaseSegment::new(args.to_vec(), total_runs)];
    let (mut out, runs_before) = run_session(
        ctx,
        cache,
        module,
        entry,
        &schedule,
        ready_after_runs,
        options,
        None,
        &tel,
    )?;
    let (cycles_before, cycles_after, observed_speedup) = averages(&out.run_cycles, runs_before);
    let outcome = AdaptiveOutcome {
        runs_before: runs_before as u32,
        runs_after: (out.run_cycles.len() - runs_before) as u32,
        cycles_before,
        cycles_after,
        observed_speedup,
        overhead: out.overhead,
        report: out.reports.pop(),
        degraded: out.degraded,
        results: out.results,
    };

    root.field("runs_before", TelValue::U64(outcome.runs_before as u64));
    root.field("runs_after", TelValue::U64(outcome.runs_after as u64));
    if let Some(reason) = &outcome.degraded {
        root.field("degraded", TelValue::Str(format!("{reason:?}")));
    }
    root.set_sim_time(outcome.overhead);
    drop(root);
    Ok(outcome)
}

/// One segment of a phased workload schedule: `runs` executions of the
/// session entry point with these arguments. A storm schedule is a list
/// of segments — the argument change *is* the phase change (e.g. the
/// kernel selector of [`jitise_apps::build_phased`]'s `main`).
#[derive(Debug, Clone)]
pub struct PhaseSegment {
    /// Arguments for every run in this segment.
    pub args: Vec<Value>,
    /// Number of workload runs in this segment.
    pub runs: u32,
}

impl PhaseSegment {
    /// Convenience constructor.
    pub fn new(args: Vec<Value>, runs: u32) -> PhaseSegment {
        PhaseSegment { args, runs }
    }
}

/// Phase-detector, eviction, and re-specialization policy (DESIGN.md §14).
///
/// All thresholds operate on exact integer cycle counts from the
/// [`HotnessWindow`], so decisions are bit-identical for a fixed seed
/// regardless of host or CAD worker count.
#[derive(Debug, Clone, Copy)]
pub struct PhasePolicy {
    /// Runs retained by the hotness window. The detector only trusts a
    /// full window, so this is also the minimum lag before a phase change
    /// can be noticed.
    pub window: usize,
    /// An installed CI set whose share of windowed cycles falls below
    /// this is "cold" — it has stopped earning its slot.
    pub cold_share: f64,
    /// Consecutive cold runs required before declaring a phase change.
    /// This is the anti-thrash hysteresis: a workload that alternates its
    /// hot set faster than the window keeps the installed share warm and
    /// never accumulates a streak.
    pub hysteresis: u32,
    /// Runs after any swap (install or re-specialization) before the
    /// detector re-arms — the backoff that stops a detect/respec loop
    /// from oscillating.
    pub cooldown: u32,
    /// Re-specialization attempts allowed per session. Once exhausted,
    /// further phase changes are detected and evicted but not re-
    /// specialized (the session stays correct, merely cold).
    pub max_respecs: u32,
}

impl Default for PhasePolicy {
    fn default() -> Self {
        PhasePolicy {
            window: 4,
            cold_share: 0.10,
            hysteresis: 3,
            cooldown: 4,
            max_respecs: 4,
        }
    }
}

/// Options for [`run_storm`].
pub struct StormOptions {
    /// The underlying robustness options (watchdog, faults, retry,
    /// quarantine, CAD/search lanes, store).
    pub base: AdaptiveOptions,
    /// Phase-detection and eviction policy.
    pub policy: PhasePolicy,
    /// Latency gate for the *initial* background specialization, in
    /// workload runs (as in [`run_adaptive`]).
    pub ready_after_runs: u32,
}

impl Default for StormOptions {
    fn default() -> Self {
        StormOptions {
            base: AdaptiveOptions::default(),
            policy: PhasePolicy::default(),
            ready_after_runs: 2,
        }
    }
}

/// Outcome of a storm session ([`run_storm`]).
#[derive(Default)]
pub struct StormOutcome {
    /// Return value of every workload run, in order. Degraded, evicted,
    /// re-specialized or not: these must match a software-only session.
    pub results: Vec<Option<Value>>,
    /// Simulated cycles of every run, in order (the speedup trajectory
    /// across phase changes).
    pub run_cycles: Vec<u64>,
    /// Phase changes declared by the detector.
    pub phases_detected: u32,
    /// Bitstream-cache entries evicted as zero-benefit.
    pub evictions: u64,
    /// Successful re-specializations (each one is also a hot-swap).
    pub respecs: u32,
    /// Phase changes that wanted a re-specialization but were denied by
    /// the `max_respecs` budget.
    pub respecs_denied: u32,
    /// Hot-swaps performed (initial install + re-specializations).
    pub swaps: u32,
    /// Degraded transitions observed (worker faults, failed respecs).
    /// Unlike [`AdaptiveOutcome`], a storm session survives degradation
    /// and may re-specialize successfully later, so this is a count.
    pub degraded_events: u32,
    /// The most recent degradation, if any.
    pub degraded: Option<DegradedReason>,
    /// Every specialization report, in chronological order (initial
    /// install first, then one per successful re-specialization).
    pub reports: Vec<SpecializeReport>,
    /// Total simulated specialization overhead (initial makespan + every
    /// respec makespan). Lane-dependent, hence excluded from
    /// [`Self::fingerprint`].
    pub overhead: SimTime,
}

impl StormOutcome {
    /// Deterministic digest of every observable that must be bit-identical
    /// for a fixed seed across `cad_workers` / `search_workers` settings.
    /// Deliberately excludes `overhead` (makespans shrink with more lanes;
    /// see [`SpecializeReport::fingerprint`], which excludes makespan for
    /// the same reason).
    pub fn fingerprint(&self) -> String {
        format!(
            "phases={} evict={} respec={} denied={} swaps={} dev={} degraded={:?} cycles={:?} results={:?} reports=[{}]",
            self.phases_detected,
            self.evictions,
            self.respecs,
            self.respecs_denied,
            self.swaps,
            self.degraded_events,
            self.degraded,
            self.run_cycles,
            self.results,
            self.reports
                .iter()
                .map(|r| r.fingerprint())
                .collect::<Vec<_>>()
                .join(" | "),
        )
    }
}

impl StormOutcome {
    /// Records a degraded transition: counted, noted, and kept as the most
    /// recent reason.
    fn degrade(&mut self, tel: &Telemetry, reason: DegradedReason) {
        self.degraded_events += 1;
        self.degraded = Some(note_degraded(tel, reason));
    }
}

/// Runs a phased workload schedule under the full storm machinery:
/// background initial specialization (as [`run_adaptive_with`]), a
/// windowed-hotness phase detector, benefit-scored eviction of cold CIs
/// from the bitstream cache (journaled to the store as
/// [`Record::Evict`] tombstones), and bounded synchronous
/// re-specialization from the window's aggregate profile.
///
/// Robustness contract: whatever the fault plan does — worker deaths and
/// stalls (burst-correlated or not), CAD failures, store crashes — the
/// session terminates with workload results bit-identical to a
/// software-only run. Degradation is survivable: a respec denied by a
/// fault burst can succeed at the next phase change.
pub fn run_storm(
    ctx: &EvalContext,
    cache: &BitstreamCache,
    module: &Module,
    entry: &str,
    schedule: &[PhaseSegment],
    options: &StormOptions,
) -> Result<StormOutcome> {
    assert!(!schedule.is_empty(), "storm schedule must not be empty");
    let mut root = ctx.telemetry.span("runtime.storm");
    let tel = ctx.telemetry.under(&root);
    let (outcome, _) = run_session(
        ctx,
        cache,
        module,
        entry,
        schedule,
        options.ready_after_runs,
        &options.base,
        Some(&options.policy),
        &tel,
    )?;

    root.field("phases", TelValue::U64(outcome.phases_detected as u64));
    root.field("evictions", TelValue::U64(outcome.evictions));
    root.field("respecs", TelValue::U64(outcome.respecs as u64));
    root.field("swaps", TelValue::U64(outcome.swaps as u64));
    if let Some(reason) = &outcome.degraded {
        root.field("degraded", TelValue::Str(format!("{reason:?}")));
    }
    root.set_sim_time(outcome.overhead);
    drop(root);
    Ok(outcome)
}

/// The one session core behind [`run_adaptive_with`] and [`run_storm`]:
/// the profiling run, the background worker, the initial-install gate and
/// the run loop, plus — when a [`PhasePolicy`] is given — the phase
/// detector, benefit-scored eviction and bounded re-specialization.
struct Session<'a> {
    ctx: &'a EvalContext,
    cache: &'a BitstreamCache,
    module: &'a Module,
    entry: &'a str,
    options: &'a AdaptiveOptions,
    /// The phase-detector policy; `None` switches the detector off.
    policy: Option<&'a PhasePolicy>,
    tel: &'a Telemetry,
    ws: WorkloadSession,
    /// The installed binary on its loaded machine; `None` until the first
    /// swap, and for the whole of a session whose install degraded.
    specialized: Option<(Module, Woolcano)>,
    /// (signature, block, saved_per_exec) of every installed CI — the set
    /// the detector and the eviction scorer watch.
    installed: Vec<(u64, BlockKey, u64)>,
    window: HotnessWindow,
    cold_streak: u32,
    cooldown_until: u32,
    respec_attempts: u32,
    /// The tallies; `results` and `run_cycles` are filled in at the end.
    out: StormOutcome,
}

/// Runs `schedule` through the session core. Returns the outcome and the
/// number of runs that executed on the base module.
#[allow(clippy::too_many_arguments)]
fn run_session<'a>(
    ctx: &'a EvalContext,
    cache: &'a BitstreamCache,
    module: &'a Module,
    entry: &'a str,
    schedule: &[PhaseSegment],
    ready_after_runs: u32,
    options: &'a AdaptiveOptions,
    policy: Option<&'a PhasePolicy>,
    tel: &'a Telemetry,
) -> Result<(StormOutcome, usize)> {
    let total_runs: u32 = schedule.iter().map(|s| s.runs).sum();
    assert!(total_runs >= 2, "need at least profiling + one more run");
    let mut run_args = schedule
        .iter()
        .flat_map(|s| std::iter::repeat_n(&s.args, s.runs as usize));
    if let Some(store) = &options.store {
        hydrate(
            store,
            cache,
            &options.quarantine,
            tel,
            "runtime.warm_restart",
        );
    }
    let mut session = Session {
        ctx,
        cache,
        module,
        entry,
        options,
        policy,
        tel,
        ws: WorkloadSession::new(ctx.vm_tier),
        specialized: None,
        installed: Vec::new(),
        window: HotnessWindow::new(policy.map_or(1, |p| p.window)),
        cold_streak: 0,
        cooldown_until: 0,
        respec_attempts: 0,
        out: StormOutcome::default(),
    };
    let profile = session
        .ws
        .profile_run(module, entry, run_args.next().expect("two runs"), tel)?;
    session.window.push(profile.clone());

    let cancel = Arc::new(AtomicBool::new(false));
    let (tx, rx) = sync_channel::<Result<Specialized>>(1);
    std::thread::scope(|scope| -> Result<()> {
        // Whatever happens below — success, error propagation, even a
        // panicking test assertion — the guard releases a stalled worker
        // so the scope can join it.
        let _release_worker = CancelGuard(Arc::clone(&cancel));

        // Background specialization worker. Its spans stitch under the
        // session's root span even though they run on another thread.
        let worker_cancel = Arc::clone(&cancel);
        scope.spawn(move || {
            let wspan = tel.span("runtime.worker");
            let wtel = tel.under(&wspan);
            let message = match worker_fault(&options.faults, entry, &wtel) {
                // An injected death: the worker exits without ever
                // reporting, which the main loop sees as a disconnected
                // channel.
                Some(DegradedReason::WorkerDisconnected) => return,
                // An injected stall: the worker hangs (a wedged CAD
                // tool) until the main loop abandons it and flips the
                // cancel flag. The hard cap keeps a lost flag from
                // hanging the scope.
                Some(_) => {
                    let cap = options
                        .watchdog
                        .saturating_mul(20)
                        .max(Duration::from_millis(100));
                    let start = std::time::Instant::now();
                    while !worker_cancel.load(Ordering::Relaxed) && start.elapsed() < cap {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    return;
                }
                None => {
                    let config = options.specialize_config(wtel.clone(), options.faults.clone());
                    specialize_copy(ctx, cache, module, &profile, &config)
                        .unwrap_or_else(|p| Err(Error::Arch(format!("worker panicked: {p}"))))
                }
            };
            drop(wspan);
            let _ = tx.send(message);
        });

        // Main loop: keep running the workload; swap when the worker is
        // done and the latency gate has passed. A degraded session stops
        // waiting and keeps executing the unmodified binary.
        let mut collected = false;
        for (run, args) in (1..).zip(run_args) {
            // The initial install gate (one-shot): block for the worker
            // the first time a swap is allowed.
            if !collected && run >= ready_after_runs {
                collected = true;
                match wait_for_worker(&rx, options.watchdog) {
                    Ok(spec) => {
                        session.install(run, spec);
                        tel.event("runtime.swap", &[("run", TelValue::U64(run as u64))]);
                    }
                    Err(reason) => session.out.degrade(tel, reason),
                }
            }
            let profile = session
                .ws
                .run(module, session.specialized.as_ref(), entry, args, tel)?;
            session.window.push(profile);
            if let Some(policy) = policy {
                session.detect(run, policy);
            }
        }
        // If the gate never opened (all runs before readiness), collect
        // the report now.
        if !collected {
            match wait_for_worker(&rx, options.watchdog) {
                Ok((_, _, report)) => {
                    session.out.overhead += report.makespan;
                    session.out.reports.push(report);
                }
                Err(reason) => session.out.degrade(tel, reason),
            }
        }
        Ok(())
    })?;

    let WorkloadSession {
        runs_before,
        run_cycles,
        results,
        ..
    } = session.ws;
    session.out.results = results;
    session.out.run_cycles = run_cycles;
    Ok((session.out, runs_before))
}

impl Session<'_> {
    /// Hot-swaps to a freshly specialized binary. The detector forgets the
    /// old window and re-arms after the cooldown, watching the new CI set.
    fn install(&mut self, run: u32, (module, machine, report): Specialized) {
        self.installed = report
            .candidates
            .iter()
            .map(|c| (c.signature, c.key, c.saved_per_exec))
            .collect();
        self.out.overhead += report.makespan;
        self.out.reports.push(report);
        self.out.swaps += 1;
        // The decode of the replaced binary is dropped with it.
        self.ws.spec_pd = None;
        self.specialized = Some((module, machine));
        self.window.clear();
        self.cold_streak = 0;
        self.cooldown_until = run + self.policy.map_or(0, |p| p.cooldown);
    }

    /// The phase detector after run `run`: it decides only with something
    /// installed, a full window, and past the post-swap cooldown. All
    /// thresholds are exact integer cycle counts, so decisions are
    /// bit-identical for a fixed seed on any host and lane count.
    fn detect(&mut self, run: u32, policy: &PhasePolicy) {
        let tel = self.tel;
        if self.specialized.is_none() || run < self.cooldown_until || !self.window.is_full() {
            return;
        }
        let keys: Vec<BlockKey> = self.installed.iter().map(|&(_, k, _)| k).collect();
        let share = self.window.cycles_share(&keys);
        if share < policy.cold_share {
            self.cold_streak += 1;
        } else {
            self.cold_streak = 0;
        }
        if self.cold_streak < policy.hysteresis {
            return;
        }

        // Phase change declared.
        self.cold_streak = 0;
        self.cooldown_until = run + policy.cooldown;
        self.out.phases_detected += 1;
        tel.add(names::RUNTIME_PHASE_DETECTED, 1);
        tel.event(
            "runtime.phase_change",
            &[
                ("run", TelValue::U64(run as u64)),
                ("share_permille", TelValue::U64((share * 1000.0) as u64)),
            ],
        );

        // Benefit-scored eviction: a CI whose windowed benefit (executions
        // × saved cycles per execution) is zero has stopped earning its
        // cache slot.
        let cold = self
            .installed
            .iter()
            .filter(|&&(_, key, saved)| self.window.count_of(key) * saved == 0)
            .map(|&(sig, _, _)| sig);
        for sig in evict(self.cache, self.options.store.as_deref(), tel, cold) {
            self.out.evictions += 1;
            tel.add(names::RUNTIME_EVICTIONS, 1);
            tel.event("runtime.evict", &[("signature", TelValue::U64(sig))]);
        }

        // Bounded re-specialization.
        if self.respec_attempts >= policy.max_respecs {
            self.out.respecs_denied += 1;
            tel.event(
                "runtime.respec_denied",
                &[("run", TelValue::U64(run as u64))],
            );
            return;
        }
        self.respec_attempts += 1;
        // Worker faults apply to respecs too, epoch-keyed by run so burst
        // plans can concentrate them into storm windows. A firing degrades
        // this respec (the old binary stays — cold but correct) without
        // blocking a later retry.
        let faults = self.options.faults.at_epoch(run as u64);
        if let Some(reason) = worker_fault(&faults, self.entry, tel) {
            self.out.degrade(tel, reason);
            return;
        }
        // Synchronous re-specialization from the window's aggregate — the
        // workload's *current* behavior, not its history. Runs on the main
        // thread for determinism; its simulated makespan is the price,
        // accounted in `overhead`.
        let rspan = tel.span("runtime.respec");
        let config = self.options.specialize_config(tel.under(&rspan), faults);
        let agg = self.window.aggregate();
        let spec = specialize_copy(self.ctx, self.cache, self.module, &agg, &config);
        drop(rspan);
        match spec {
            Ok(Ok(spec)) => {
                // Retire the old machine: every occupied slot is an
                // ICAP-level eviction.
                if let Some((_, old_machine)) = &self.specialized {
                    let (_, _, occupied, _) = old_machine.slot_stats();
                    tel.add(names::ICAP_EVICTIONS, occupied as u64);
                }
                self.install(run, spec);
                self.out.respecs += 1;
                tel.add(names::RUNTIME_RESPECS, 1);
                tel.event("runtime.respec", &[("run", TelValue::U64(run as u64))]);
            }
            Ok(Err(e)) => self
                .out
                .degrade(tel, DegradedReason::SpecializeFailed(e.to_string())),
            Err(p) => self.out.degrade(
                tel,
                DegradedReason::SpecializeFailed(format!("respec panicked: {p}")),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfix::hot_module;
    use jitise_faults::FaultPlan;

    #[test]
    fn adapts_and_speeds_up() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = hot_module();
        let out = run_adaptive(&ctx, &cache, &m, "main", &[Value::I(3_000)], 6, 2).unwrap();
        assert!(out.runs_after >= 1, "must run specialized at least once");
        assert!(
            out.observed_speedup > 1.0,
            "specialized runs must be faster: {}",
            out.observed_speedup
        );
        assert!(out.overhead > SimTime::ZERO);
        assert!(out.degraded.is_none());
        assert!(!out.report.as_ref().unwrap().candidates.is_empty());
        assert_eq!(out.results.len(), 6);
        assert!(out.results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn late_gate_still_returns_report() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = hot_module();
        // Gate beyond total runs: everything executes unspecialized, but
        // the report must still arrive.
        let out = run_adaptive(&ctx, &cache, &m, "main", &[Value::I(500)], 3, 99).unwrap();
        assert_eq!(out.runs_after, 0);
        assert_eq!(out.runs_before, 3);
        assert!((out.observed_speedup - 1.0).abs() < 1e-9);
        assert!(out.degraded.is_none());
        assert!(!out.report.as_ref().unwrap().candidates.is_empty());
    }

    #[test]
    fn second_session_hits_cache() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = hot_module();
        let first = run_adaptive(&ctx, &cache, &m, "main", &[Value::I(1_000)], 4, 2).unwrap();
        assert_eq!(first.report.as_ref().unwrap().cache_hits, 0);
        let second = run_adaptive(&ctx, &cache, &m, "main", &[Value::I(1_000)], 4, 2).unwrap();
        let report = second.report.as_ref().unwrap();
        assert_eq!(
            report.cache_hits,
            report.candidates.len(),
            "second session must be served from the bitstream cache"
        );
        assert_eq!(second.overhead, SimTime::ZERO);
    }

    fn degraded_options(site: FaultSite, watchdog_ms: u64) -> AdaptiveOptions {
        AdaptiveOptions {
            watchdog: Duration::from_millis(watchdog_ms),
            faults: FaultInjector::from_plan(FaultPlan::none(23).with_rate(site, 1.0)),
            ..AdaptiveOptions::default()
        }
    }

    fn software_results(m: &Module, n: i64, runs: usize) -> Vec<Option<Value>> {
        let mut vm = Interpreter::new(m);
        let want = vm.run("main", &[Value::I(n)]).unwrap().ret;
        vec![want; runs]
    }

    #[test]
    fn dead_worker_degrades_to_software_only() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = hot_module();
        let opts = degraded_options(FaultSite::WorkerDeath, 2_000);
        let out =
            run_adaptive_with(&ctx, &cache, &m, "main", &[Value::I(800)], 4, 2, &opts).unwrap();
        assert_eq!(out.degraded, Some(DegradedReason::WorkerDisconnected));
        assert!(out.report.is_none());
        assert_eq!(out.runs_after, 0);
        assert_eq!(out.runs_before, 4);
        assert!((out.observed_speedup - 1.0).abs() < 1e-9);
        assert_eq!(out.overhead, SimTime::ZERO);
        assert_eq!(out.results, software_results(&m, 800, 4));
    }

    #[test]
    fn stalled_worker_is_abandoned_by_the_watchdog() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = hot_module();
        let opts = degraded_options(FaultSite::WorkerStall, 200);
        let start = std::time::Instant::now();
        let out =
            run_adaptive_with(&ctx, &cache, &m, "main", &[Value::I(800)], 4, 2, &opts).unwrap();
        assert_eq!(out.degraded, Some(DegradedReason::WorkerStalled));
        assert!(out.report.is_none());
        assert_eq!(out.runs_before, 4);
        assert_eq!(out.results, software_results(&m, 800, 4));
        // One watchdog expiry plus the joined (cancelled) worker — never
        // the stall cap.
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn warm_restart_serves_recovered_entries_as_cache_hits() {
        use jitise_store::{Store, StoreOptions, TempDir};
        let tmp = TempDir::new("runtime-warm");
        let m = hot_module();

        // Session 1: fresh process, store-backed. Everything is a miss and
        // gets journaled.
        {
            let ctx = EvalContext::new();
            let cache = BitstreamCache::new();
            let store = Arc::new(Store::open_with(tmp.path(), StoreOptions::default()).unwrap());
            let opts = AdaptiveOptions {
                store: Some(Arc::clone(&store)),
                ..AdaptiveOptions::default()
            };
            let out = run_adaptive_with(&ctx, &cache, &m, "main", &[Value::I(1_000)], 4, 2, &opts)
                .unwrap();
            let report = out.report.as_ref().unwrap();
            assert_eq!(report.cache_hits, 0);
            assert!(!report.candidates.is_empty());
            assert!(
                !store.state().entries.is_empty(),
                "commits must be journaled"
            );
        }

        // Session 2: simulated process restart — fresh cache, fresh store
        // handle recovered from disk. Every candidate must be a cache hit
        // and the adaptation overhead must vanish.
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let store = Arc::new(Store::open_with(tmp.path(), StoreOptions::default()).unwrap());
        assert!(!store.recovery().wal_stale);
        let opts = AdaptiveOptions {
            store: Some(Arc::clone(&store)),
            ..AdaptiveOptions::default()
        };
        let out =
            run_adaptive_with(&ctx, &cache, &m, "main", &[Value::I(1_000)], 4, 2, &opts).unwrap();
        let report = out.report.as_ref().unwrap();
        assert_eq!(
            report.cache_hits,
            report.candidates.len(),
            "warm restart must serve every candidate from the recovered cache"
        );
        assert_eq!(out.overhead, SimTime::ZERO);
    }

    #[test]
    fn warm_restart_matches_session_seeded_with_recovered_cache() {
        use jitise_store::{Store, StoreOptions, TempDir};
        let tmp = TempDir::new("runtime-warm-ident");
        let m = hot_module();
        {
            let ctx = EvalContext::new();
            let cache = BitstreamCache::new();
            let store = Arc::new(Store::open_with(tmp.path(), StoreOptions::default()).unwrap());
            let opts = AdaptiveOptions {
                store: Some(store),
                ..AdaptiveOptions::default()
            };
            run_adaptive_with(&ctx, &cache, &m, "main", &[Value::I(700)], 4, 2, &opts).unwrap();
        }
        let store = Arc::new(Store::open_with(tmp.path(), StoreOptions::default()).unwrap());

        // Reference: a storeless session whose cache was seeded by hand
        // from the recovered state.
        let ctx = EvalContext::new();
        let seeded = BitstreamCache::new();
        seeded.absorb_store(&store.state());
        let want = run_adaptive(&ctx, &seeded, &m, "main", &[Value::I(700)], 4, 2).unwrap();

        // Warm restart through the store must be observationally identical.
        let ctx2 = EvalContext::new();
        let cache = BitstreamCache::new();
        let opts = AdaptiveOptions {
            store: Some(store),
            ..AdaptiveOptions::default()
        };
        let got =
            run_adaptive_with(&ctx2, &cache, &m, "main", &[Value::I(700)], 4, 2, &opts).unwrap();
        assert_eq!(
            got.report.as_ref().unwrap().fingerprint(),
            want.report.as_ref().unwrap().fingerprint(),
            "warm restart must be bit-identical to a hand-seeded session"
        );
        assert_eq!(got.fingerprint(), want.fingerprint());
    }

    fn overlay_lib(ctx: &EvalContext) -> Option<Arc<OverlayLibrary>> {
        Some(Arc::new(OverlayLibrary::from_db(&ctx.db)))
    }

    #[test]
    fn adaptive_overlay_session_installs_fast_then_upgrades() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = hot_module();
        let opts = AdaptiveOptions {
            overlay: overlay_lib(&ctx),
            ..AdaptiveOptions::default()
        };
        let out =
            run_adaptive_with(&ctx, &cache, &m, "main", &[Value::I(3_000)], 6, 2, &opts).unwrap();
        assert!(out.degraded.is_none());
        let report = out.report.as_ref().unwrap();
        assert!(!report.candidates.is_empty());
        assert_eq!(report.overlay_installs, report.candidates.len());
        assert_eq!(report.upgrades, report.candidates.len());
        assert!(report
            .candidates
            .iter()
            .all(|c| c.tier == jitise_cad::InstallTier::Full && c.upgraded));
        assert!(out.observed_speedup > 1.0);

        // Two-tier or not, the workload's answers never change.
        let ctx2 = EvalContext::new();
        let cache2 = BitstreamCache::new();
        let base = run_adaptive(&ctx2, &cache2, &m, "main", &[Value::I(3_000)], 6, 2).unwrap();
        assert_eq!(out.results, base.results);
    }

    #[test]
    fn warm_restart_rehydrates_overlay_tier_and_upgrades() {
        use jitise_store::{Store, StoreOptions, TempDir};
        let tmp = TempDir::new("runtime-warm-overlay");
        let m = hot_module();

        // Session 1: full generation is persistently dead, so every
        // candidate is served by the overlay and journaled at the overlay
        // tier.
        {
            let ctx = EvalContext::new();
            let cache = BitstreamCache::new();
            let store = Arc::new(Store::open_with(tmp.path(), StoreOptions::default()).unwrap());
            let mut plan = FaultPlan::none(29).with_rate(FaultSite::CadMap, 1.0);
            plan.persistent_frac = 1.0;
            let opts = AdaptiveOptions {
                store: Some(Arc::clone(&store)),
                faults: FaultInjector::from_plan(plan),
                overlay: overlay_lib(&ctx),
                ..AdaptiveOptions::default()
            };
            let out = run_adaptive_with(&ctx, &cache, &m, "main", &[Value::I(1_000)], 4, 2, &opts)
                .unwrap();
            assert!(out.degraded.is_none(), "the overlay must carry the session");
            let report = out.report.as_ref().unwrap();
            assert!(!report.candidates.is_empty());
            assert!(report
                .candidates
                .iter()
                .all(|c| c.tier == jitise_cad::InstallTier::Overlay));
            let state = store.state();
            assert!(!state.entries.is_empty(), "overlay commits must journal");
            assert!(
                state
                    .entries
                    .values()
                    .all(|r| r.tier == jitise_cad::InstallTier::Overlay),
                "the journal must record the overlay tier"
            );
        }

        // Session 2: simulated restart — fresh cache, store recovered from
        // disk, faults gone. The rehydrated overlay entries serve the fast
        // path with zero re-assembly and every candidate upgrades to Full.
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let store = Arc::new(Store::open_with(tmp.path(), StoreOptions::default()).unwrap());
        let opts = AdaptiveOptions {
            store: Some(Arc::clone(&store)),
            overlay: overlay_lib(&ctx),
            ..AdaptiveOptions::default()
        };
        let out =
            run_adaptive_with(&ctx, &cache, &m, "main", &[Value::I(1_000)], 4, 2, &opts).unwrap();
        let report = out.report.as_ref().unwrap();
        assert_eq!(report.overlay_installs, report.candidates.len());
        assert_eq!(report.upgrades, report.candidates.len());
        assert!(report
            .candidates
            .iter()
            .all(|c| c.tier == jitise_cad::InstallTier::Full));
        assert_eq!(
            report.overlay_time,
            SimTime::ZERO,
            "rehydrated entries need no re-assembly"
        );
        // The journal now carries the full-tier artifact for session 3.
        assert!(store
            .state()
            .entries
            .values()
            .all(|r| r.tier == jitise_cad::InstallTier::Full));
    }

    #[test]
    fn storeless_session_is_byte_identical_to_default() {
        let m = hot_module();
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let base = run_adaptive(&ctx, &cache, &m, "main", &[Value::I(900)], 4, 2).unwrap();

        let ctx2 = EvalContext::new();
        let cache2 = BitstreamCache::new();
        let opts = AdaptiveOptions {
            store: None,
            ..AdaptiveOptions::default()
        };
        let out =
            run_adaptive_with(&ctx2, &cache2, &m, "main", &[Value::I(900)], 4, 2, &opts).unwrap();
        assert_eq!(
            out.fingerprint(),
            base.fingerprint(),
            "store: None must leave the session untouched"
        );
    }

    #[test]
    fn degraded_session_matches_healthy_results() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = hot_module();
        let healthy = run_adaptive(&ctx, &cache, &m, "main", &[Value::I(600)], 4, 2).unwrap();
        let cache2 = BitstreamCache::new();
        let opts = degraded_options(FaultSite::WorkerDeath, 2_000);
        let degraded =
            run_adaptive_with(&ctx, &cache2, &m, "main", &[Value::I(600)], 4, 2, &opts).unwrap();
        assert_eq!(
            healthy.results, degraded.results,
            "degradation must never change workload answers"
        );
    }

    // ---- storm runtime ----

    use jitise_apps::{build_phased, PhasedSpec};

    fn storm_module(near_duplicate: bool) -> Module {
        build_phased(&PhasedSpec {
            kernels: 2,
            hot_iters: 120,
            near_duplicate,
            ..PhasedSpec::default()
        })
    }

    fn seg(sel: i64, runs: u32) -> PhaseSegment {
        PhaseSegment::new(vec![Value::I(sel), Value::I(2)], runs)
    }

    fn storm_options() -> StormOptions {
        StormOptions {
            policy: PhasePolicy {
                window: 2,
                cold_share: 0.2,
                hysteresis: 2,
                cooldown: 2,
                max_respecs: 2,
            },
            ready_after_runs: 2,
            ..StormOptions::default()
        }
    }

    fn software_schedule_results(m: &Module, schedule: &[PhaseSegment]) -> Vec<Option<Value>> {
        let mut out = Vec::new();
        for s in schedule {
            for _ in 0..s.runs {
                let mut vm = Interpreter::new(m);
                out.push(vm.run("main", &s.args).unwrap().ret);
            }
        }
        out
    }

    #[test]
    fn storm_detects_phase_change_evicts_and_respecializes() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = storm_module(false);
        let schedule = [seg(0, 8), seg(1, 12)];
        let out = run_storm(&ctx, &cache, &m, "main", &schedule, &storm_options()).unwrap();

        assert!(out.degraded.is_none(), "healthy storm must not degrade");
        assert!(out.phases_detected >= 1, "rotation must be detected");
        assert!(out.evictions >= 1, "cold CIs must be evicted");
        assert!(out.respecs >= 1, "a re-specialization must land");
        assert_eq!(out.swaps, 1 + out.respecs, "initial install + respecs");
        assert_eq!(out.reports.len() as u32, 1 + out.respecs);
        assert_eq!(out.run_cycles.len(), 20);

        // The workload's answers never change.
        assert_eq!(out.results, software_schedule_results(&m, &schedule));

        // Eviction pays off: after the respec, the new phase runs faster
        // than it did on the stale binary right after the phase change.
        let stale = out.run_cycles[8]; // first phase-B run, stale CIs
        let steady = *out.run_cycles.last().unwrap();
        assert!(
            steady < stale,
            "post-respec steady state ({steady}) must beat the stale binary ({stale})"
        );
    }

    #[test]
    fn storm_fingerprint_invariant_across_cad_workers() {
        let m = storm_module(false);
        let schedule = [seg(0, 6), seg(1, 8)];
        let fp = |lanes: usize| {
            let ctx = EvalContext::new();
            let cache = BitstreamCache::new();
            let opts = StormOptions {
                base: AdaptiveOptions {
                    cad_workers: lanes,
                    search_workers: lanes.min(2),
                    ..AdaptiveOptions::default()
                },
                ..storm_options()
            };
            run_storm(&ctx, &cache, &m, "main", &schedule, &opts)
                .unwrap()
                .fingerprint()
        };
        let base = fp(1);
        assert_eq!(base, fp(4), "cad_workers must never change observables");
    }

    #[test]
    fn storm_fingerprint_invariant_across_cad_workers_with_overlay() {
        let m = storm_module(false);
        let schedule = [seg(0, 6), seg(1, 8)];
        let fp = |lanes: usize| {
            let ctx = EvalContext::new();
            let cache = BitstreamCache::new();
            let opts = StormOptions {
                base: AdaptiveOptions {
                    cad_workers: lanes,
                    overlay: overlay_lib(&ctx),
                    ..AdaptiveOptions::default()
                },
                ..storm_options()
            };
            let out = run_storm(&ctx, &cache, &m, "main", &schedule, &opts).unwrap();
            assert!(
                out.reports.iter().any(|r| r.overlay_installs > 0),
                "the two-tier path must actually engage"
            );
            out.fingerprint()
        };
        let base = fp(1);
        assert_eq!(base, fp(2), "two lanes must not change observables");
        assert_eq!(base, fp(8), "eight lanes must not change observables");
    }

    #[test]
    fn storm_fingerprint_invariant_across_vm_tiers() {
        let m = storm_module(false);
        let schedule = [seg(0, 6), seg(1, 8)];
        let fp = |tier: VmTier| {
            let mut ctx = EvalContext::new();
            ctx.vm_tier = tier;
            let cache = BitstreamCache::new();
            run_storm(&ctx, &cache, &m, "main", &schedule, &storm_options())
                .unwrap()
                .fingerprint()
        };
        assert_eq!(
            fp(VmTier::Interp),
            fp(VmTier::Fast),
            "the fast tier must never change observables"
        );
    }

    #[test]
    fn adaptive_session_identical_on_fast_tier() {
        let m = hot_module();
        let run = |tier: VmTier| {
            let mut ctx = EvalContext::new();
            ctx.vm_tier = tier;
            let cache = BitstreamCache::new();
            run_adaptive(&ctx, &cache, &m, "main", &[Value::I(3_000)], 6, 2).unwrap()
        };
        let a = run(VmTier::Interp);
        let b = run(VmTier::Fast);
        assert_eq!(a.results, b.results);
        assert_eq!(a.cycles_before, b.cycles_before);
        assert_eq!(a.cycles_after, b.cycles_after);
        assert_eq!(
            a.report.as_ref().unwrap().fingerprint(),
            b.report.as_ref().unwrap().fingerprint()
        );
        assert!(b.runs_after >= 1, "fast tier must still hot-swap");
    }

    #[test]
    fn thrash_population_does_not_oscillate_the_installer() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = storm_module(true);
        // Near-duplicate kernels alternating every run: faster than the
        // window, so the installed share stays warm and hysteresis holds.
        let schedule: Vec<PhaseSegment> = (0..16).map(|i| seg(i % 2, 1)).collect();
        let opts = StormOptions {
            policy: PhasePolicy {
                window: 4,
                cold_share: 0.2,
                hysteresis: 2,
                cooldown: 2,
                max_respecs: 4,
            },
            ready_after_runs: 2,
            ..StormOptions::default()
        };
        let out = run_storm(&ctx, &cache, &m, "main", &schedule, &opts).unwrap();
        assert!(out.degraded.is_none());
        assert_eq!(out.swaps, 1, "thrash must not oscillate the installer");
        assert_eq!(out.phases_detected, 0);
        assert_eq!(out.respecs, 0);
        assert_eq!(out.evictions, 0);
        assert_eq!(out.results, software_schedule_results(&m, &schedule));
    }

    #[test]
    fn respec_budget_bounds_the_installer() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = storm_module(false);
        // Two real phase changes but a budget of zero: both are detected
        // (and evicted), neither re-specializes.
        let schedule = [seg(0, 8), seg(1, 8)];
        let opts = StormOptions {
            policy: PhasePolicy {
                max_respecs: 0,
                ..storm_options().policy
            },
            ..storm_options()
        };
        let out = run_storm(&ctx, &cache, &m, "main", &schedule, &opts).unwrap();
        assert!(out.phases_detected >= 1);
        assert_eq!(out.respecs, 0);
        assert!(out.respecs_denied >= 1);
        assert_eq!(out.swaps, 1);
        assert_eq!(out.results, software_schedule_results(&m, &schedule));
    }

    #[test]
    fn storm_journals_evictions_so_restart_sees_post_eviction_cache() {
        use jitise_store::{Store, StoreOptions, TempDir};
        let tmp = TempDir::new("storm-evict-journal");
        let m = storm_module(false);
        let schedule = [seg(0, 8), seg(1, 12)];

        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let store = Arc::new(Store::open_with(tmp.path(), StoreOptions::default()).unwrap());
        let opts = StormOptions {
            base: AdaptiveOptions {
                store: Some(Arc::clone(&store)),
                ..AdaptiveOptions::default()
            },
            ..storm_options()
        };
        let out = run_storm(&ctx, &cache, &m, "main", &schedule, &opts).unwrap();
        assert!(out.evictions >= 1, "need at least one journaled eviction");
        drop(store);

        // A fresh process recovering the store must reconstruct exactly
        // the live cache: evicted entries gone, respec entries present.
        let reopened = Store::open_with(tmp.path(), StoreOptions::default()).unwrap();
        let restored = BitstreamCache::new();
        restored.absorb_store(&reopened.state());
        assert_eq!(
            restored.to_bytes(),
            cache.to_bytes(),
            "recovered cache must equal the post-eviction live cache"
        );
    }

    #[test]
    fn respec_denied_by_worker_fault_keeps_session_correct() {
        let ctx = EvalContext::new();
        let cache = BitstreamCache::new();
        let m = storm_module(false);
        let schedule = [seg(0, 8), seg(1, 12)];
        // Worker deaths fire only inside a burst window positioned so the
        // initial worker (epoch 0) is calm but every respec epoch (run
        // numbers ≥ 10, where phase-B detection lands) is hot:
        // pos(epoch) = (epoch + 190) % 200, window = [0, 150).
        let plan = FaultPlan::none(190)
            .with_rate(FaultSite::WorkerDeath, 1.0)
            .with_bursts(jitise_faults::Bursts {
                period: 200,
                width: 150,
                boost: 1.0,
                calm: 0.0,
            });
        let opts = StormOptions {
            base: AdaptiveOptions {
                faults: FaultInjector::from_plan(plan),
                ..AdaptiveOptions::default()
            },
            ..storm_options()
        };
        let out = run_storm(&ctx, &cache, &m, "main", &schedule, &opts).unwrap();
        assert!(out.swaps >= 1, "initial install is outside the burst");
        assert!(out.phases_detected >= 1, "rotation still detected");
        assert_eq!(out.respecs, 0, "every respec attempt dies in the burst");
        assert_eq!(out.degraded, Some(DegradedReason::WorkerDisconnected));
        assert!(out.degraded_events >= 1);
        // Degraded mid-storm or not, answers stay bit-identical.
        assert_eq!(out.results, software_schedule_results(&m, &schedule));
    }
}
