//! # jitise-faults — deterministic fault injection for the ASIP-SP pipeline
//!
//! The paper's feasibility argument hinges on the JIT system surviving a
//! slow *or unreliable* runtime CAD flow: whenever specialization cannot
//! complete, the application must keep running on the plain PowerPC. This
//! crate provides the adversary that exercises that property — a seeded,
//! fully deterministic fault injector — plus the two policy pieces the
//! pipeline uses to absorb the faults it throws:
//!
//! * [`FaultPlan`] / [`FaultInjector`] — decide, as a *pure function* of
//!   `(seed, site, key, attempt)`, whether a fault fires at a given
//!   [`FaultSite`]. Determinism is total: no global state, no call-order
//!   dependence, identical decisions across threads and re-runs. A fault
//!   is either [`FaultKind::Transient`] (clears after a bounded number of
//!   retry attempts) or [`FaultKind::Persistent`] (fires on every attempt,
//!   forcing the quarantine path).
//! * [`MAX_ATTEMPTS`] / [`backoff_for`] — bounded retries with exponential
//!   backoff counted in simulated time (the tool re-run a real deployment
//!   would wait for).
//! * [`Quarantine`] — a thread-safe set of candidate signatures whose
//!   implementation failed persistently; the pipeline skips them outright
//!   instead of burning tool time on known-bad candidates.
//!
//! The disabled injector ([`FaultInjector::disabled`]) is a no-op handle
//! in the same style as `jitise_telemetry::Telemetry::disabled()`: one
//! `Option` check per call site, no allocation, and — the bar the
//! `pipeline` bench topic's chaos section enforces — a zero-rate plan is
//! *observationally transparent* (byte-identical reports to a run without
//! any injector).

use jitise_base::hash::SigHasher;
use jitise_base::sync::{Mutex, RwLock};
use jitise_base::SimTime;
use std::collections::HashMap;
use std::sync::Arc;

/// Where in the pipeline a fault can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Synthesis front-end (syntax check + XST) of the CAD flow.
    CadSynthesis,
    /// The map (slice packing) stage.
    CadMap,
    /// The placer.
    CadPlace,
    /// The router.
    CadRoute,
    /// Static timing analysis.
    CadTiming,
    /// ICAP bitstream transfer — fires as a bit-flip that must trip the
    /// reconfiguration controller's CRC check.
    IcapTransfer,
    /// A bitstream-cache entry read back corrupted (poisoned entry).
    CacheEntry,
    /// The background specialization worker hangs.
    WorkerStall,
    /// The background specialization worker dies without reporting.
    WorkerDeath,
    /// A persistent-store WAL record corrupted between the commit and the
    /// platters (silent media corruption): the in-session write succeeds,
    /// but recovery must CRC-drop the record instead of trusting it.
    StoreWal,
    /// The atomic tier swap that replaces an installed overlay CI with
    /// its fully routed upgrade: the ICAP transfer of the upgrade
    /// bitstream corrupts, the CRC check rejects it, and the slot keeps
    /// the overlay tier (still correct, just slower).
    UpgradeSwap,
}

impl FaultSite {
    /// Every site, in stable order (indexes [`FaultPlan`] rate storage).
    pub const ALL: [FaultSite; 11] = [
        FaultSite::CadSynthesis,
        FaultSite::CadMap,
        FaultSite::CadPlace,
        FaultSite::CadRoute,
        FaultSite::CadTiming,
        FaultSite::IcapTransfer,
        FaultSite::CacheEntry,
        FaultSite::WorkerStall,
        FaultSite::WorkerDeath,
        FaultSite::StoreWal,
        FaultSite::UpgradeSwap,
    ];

    /// Stable short name (telemetry fields, error messages).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::CadSynthesis => "cad.synthesis",
            FaultSite::CadMap => "cad.map",
            FaultSite::CadPlace => "cad.place",
            FaultSite::CadRoute => "cad.route",
            FaultSite::CadTiming => "cad.timing",
            FaultSite::IcapTransfer => "icap.transfer",
            FaultSite::CacheEntry => "cache.entry",
            FaultSite::WorkerStall => "worker.stall",
            FaultSite::WorkerDeath => "worker.death",
            FaultSite::StoreWal => "store.wal",
            FaultSite::UpgradeSwap => "upgrade.swap",
        }
    }

    fn index(self) -> usize {
        FaultSite::ALL
            .iter()
            .position(|&s| s == self)
            .expect("site in ALL")
    }
}

/// How long a fault lasts across retry attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Clears after a bounded number of attempts — retry succeeds.
    Transient,
    /// Fires on every attempt — retries are futile, quarantine the key.
    Persistent,
}

impl FaultKind {
    /// Stable short name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Persistent => "persistent",
        }
    }
}

/// Correlated fault windows overlaid on a plan's per-site rates.
///
/// Real outages cluster: a wedged license server or a failing disk takes
/// out a *window* of CAD runs, not an i.i.d. sprinkle. A burst plan
/// divides the session into epochs (the caller supplies the epoch — the
/// storm runtime uses the workload run index) and modulates every site's
/// base rate by where the epoch falls in the burst cycle: inside the
/// leading `width` epochs of each `period` the rate is multiplied by
/// `boost`, outside by `calm` (often `0.0` — dead quiet between storms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bursts {
    /// Epochs per burst cycle (≥ 1).
    pub period: u64,
    /// Leading epochs of each cycle during which the burst is active.
    pub width: u64,
    /// Rate multiplier inside a burst window.
    pub boost: f64,
    /// Rate multiplier outside the window.
    pub calm: f64,
}

/// A seeded description of which faults fire where.
///
/// Decisions are pure functions of `(seed, site, key, attempt)` — plus the
/// epoch when a [`Bursts`] overlay is armed; two plans with the same seed
/// and rates make identical decisions regardless of call order, thread, or
/// process.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Decision seed.
    pub seed: u64,
    /// Per-site fire probability in `[0, 1]`.
    rates: [f64; FaultSite::ALL.len()],
    /// Fraction of fired faults that are persistent (default 0.3).
    pub persistent_frac: f64,
    /// Optional correlated-burst overlay. `None` (the default) keeps every
    /// decision — and therefore every downstream artifact — byte-identical
    /// to a plan built before bursts existed.
    bursts: Option<Bursts>,
}

impl FaultPlan {
    /// A plan with every rate at zero (injects nothing).
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0.0; FaultSite::ALL.len()],
            persistent_frac: 0.3,
            bursts: None,
        }
    }

    /// A plan with the same fire probability at every site.
    pub fn uniform(rate: f64, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::none(seed);
        for r in plan.rates.iter_mut() {
            *r = rate.clamp(0.0, 1.0);
        }
        plan
    }

    /// Sets one site's rate (builder style).
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> FaultPlan {
        self.rates[site.index()] = rate.clamp(0.0, 1.0);
        self
    }

    /// Arms the correlated-burst overlay (builder style).
    pub fn with_bursts(mut self, bursts: Bursts) -> FaultPlan {
        self.bursts = Some(Bursts {
            period: bursts.period.max(1),
            width: bursts.width.min(bursts.period.max(1)),
            boost: bursts.boost.max(0.0),
            calm: bursts.calm.max(0.0),
        });
        self
    }

    /// The armed burst overlay, if any.
    pub fn bursts(&self) -> Option<Bursts> {
        self.bursts
    }

    /// The fire probability at `site`.
    pub fn rate(&self, site: FaultSite) -> f64 {
        self.rates[site.index()]
    }

    /// Deterministic uniform draw in `[0, 1)` from the plan seed and a
    /// salt/site/key triple.
    fn unit(&self, salt: u64, site: FaultSite, key: u64) -> f64 {
        let mut h = SigHasher::new();
        h.write_u64(self.seed)
            .write_u64(salt)
            .write_u64(site.index() as u64)
            .write_u64(key);
        (h.finish() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Does a fault fire at `site` for identity `key` on `attempt`
    /// (1-based)? Persistent faults fire on every attempt; transient
    /// faults fail the first `1..=MAX_TRANSIENT_FAILURES` attempts (the
    /// exact count drawn deterministically per key) and then clear.
    ///
    /// Equivalent to [`Self::decide_at`] with epoch 0; without a burst
    /// overlay the epoch is ignored entirely, so this path is unchanged.
    pub fn decide(&self, site: FaultSite, key: u64, attempt: u32) -> Option<FaultKind> {
        self.decide_at(site, key, attempt, 0)
    }

    /// [`Self::decide`] positioned at `epoch` for burst modulation. With
    /// no overlay armed the decision is independent of the epoch (and
    /// byte-identical to the pre-burst implementation). With an overlay,
    /// the site rate is scaled by the window multiplier and the epoch is
    /// folded into the draw identity, so each burst window draws a fresh
    /// — but still fully deterministic — set of victims.
    pub fn decide_at(
        &self,
        site: FaultSite,
        key: u64,
        attempt: u32,
        epoch: u64,
    ) -> Option<FaultKind> {
        let base = self.rate(site);
        let (rate, key) = match self.bursts {
            None => (base, key),
            Some(b) => {
                let period = b.period.max(1);
                // Per-seed phase offset so different seeds storm at
                // different session positions.
                let pos = (epoch + self.seed % period) % period;
                let mult = if pos < b.width { b.boost } else { b.calm };
                let mut h = SigHasher::new();
                h.write_u64(key)
                    .write_u64(0x0062_7572_7374 /* "burst" */)
                    .write_u64(epoch);
                ((base * mult).clamp(0.0, 1.0), h.finish())
            }
        };
        if rate <= 0.0 || self.unit(1, site, key) >= rate {
            return None;
        }
        if self.unit(2, site, key) < self.persistent_frac {
            return Some(FaultKind::Persistent);
        }
        let max = MAX_TRANSIENT_FAILURES;
        let fails = 1 + (self.unit(3, site, key) * max as f64) as u32;
        if attempt <= fails.min(max) {
            Some(FaultKind::Transient)
        } else {
            None
        }
    }
}

/// Cheap-clone injection handle threaded through the pipeline.
///
/// Like `Telemetry`, a handle is either *enabled* (shares one plan with
/// all clones) or *disabled* (a pure no-op). [`FaultInjector::scope`]
/// binds the key/attempt pair so that deep call sites (the CAD flow) only
/// name the [`FaultSite`].
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    plan: Option<Arc<FaultPlan>>,
    key: u64,
    attempt: u32,
    /// Burst-cycle position (the storm runtime sets it to the workload run
    /// index). Irrelevant — and zero — unless the plan has a burst overlay.
    epoch: u64,
    /// Tenant identity folded into every draw key. `None` (the default)
    /// keeps decisions byte-identical to a tenant-less injector; the serve
    /// runtime sets it per session so a tenant's fault schedule is a pure
    /// function of `(plan, tenant id, epoch, site, key, attempt)` —
    /// invariant under admission order and fleet size.
    tenant: Option<u64>,
}

/// Salt folding a tenant id into the draw-key space ("tnant").
const TENANT_SALT: u64 = 0x0074_6e61_6e74;

impl FaultInjector {
    /// The no-op handle: every decision is `None`.
    pub fn disabled() -> FaultInjector {
        FaultInjector::default()
    }

    /// An injector executing `plan`.
    pub fn from_plan(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan: Some(Arc::new(plan)),
            key: 0,
            attempt: 1,
            epoch: 0,
            tenant: None,
        }
    }

    /// Whether this handle can ever fire.
    pub fn is_enabled(&self) -> bool {
        self.plan.is_some()
    }

    /// A handle bound to `(key, attempt)` — the identity decisions are
    /// keyed by (candidate signature, retry attempt number, 1-based).
    /// The burst epoch and tenant binding are carried over.
    pub fn scope(&self, key: u64, attempt: u32) -> FaultInjector {
        FaultInjector {
            plan: self.plan.clone(),
            key,
            attempt,
            epoch: self.epoch,
            tenant: self.tenant,
        }
    }

    /// A handle positioned at a burst epoch (key/attempt/tenant carried
    /// over). A no-op unless the plan has a [`Bursts`] overlay.
    pub fn at_epoch(&self, epoch: u64) -> FaultInjector {
        FaultInjector {
            plan: self.plan.clone(),
            key: self.key,
            attempt: self.attempt,
            epoch,
            tenant: self.tenant,
        }
    }

    /// A handle whose fault stream is keyed by `tenant` (key/attempt/epoch
    /// carried over): every subsequent decision folds the tenant id into
    /// the draw identity, so two tenants sharing a plan draw disjoint
    /// deterministic fault schedules, and one tenant's schedule does not
    /// depend on who else is admitted, in what order, or how large the
    /// fleet is. A tenant-less handle is byte-identical to the pre-tenant
    /// implementation.
    pub fn for_tenant(&self, tenant: u64) -> FaultInjector {
        FaultInjector {
            plan: self.plan.clone(),
            key: self.key,
            attempt: self.attempt,
            epoch: self.epoch,
            tenant: Some(tenant),
        }
    }

    /// The draw key with the tenant binding (if any) folded in.
    fn effective_key(&self) -> u64 {
        match self.tenant {
            None => self.key,
            Some(t) => {
                let mut h = SigHasher::new();
                h.write_u64(self.key).write_u64(TENANT_SALT).write_u64(t);
                h.finish()
            }
        }
    }

    /// Does a fault fire at `site` under this handle's scope?
    pub fn decide(&self, site: FaultSite) -> Option<FaultKind> {
        self.plan
            .as_ref()
            .and_then(|p| p.decide_at(site, self.effective_key(), self.attempt, self.epoch))
    }

    /// If a fault fires at `site`, flips one deterministic bit in `bytes`
    /// and reports the kind. Empty input still counts as fired (the
    /// corruption then manifests as a structural decode error upstream).
    pub fn corrupt(&self, site: FaultSite, bytes: &mut [u8]) -> Option<FaultKind> {
        let kind = self.decide(site)?;
        if let Some(plan) = &self.plan {
            if !bytes.is_empty() {
                let mut h = SigHasher::new();
                h.write_u64(plan.seed)
                    .write_u64(4)
                    .write_u64(site.index() as u64)
                    .write_u64(self.effective_key())
                    .write_u64(self.attempt as u64);
                let bit = h.finish() as usize % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        Some(kind)
    }
}

/// A deterministic crash point for the persistent store: the backing
/// files stop accepting writes after exactly `after_bytes` further bytes
/// — mid-record, mid-snapshot, wherever the budget lands. This models a
/// process kill (power loss, OOM-kill, SIGKILL) at an arbitrary write
/// boundary; the `pipeline` bench topic's crash section sweeps
/// `after_bytes` across a full app session and asserts that recovery
/// always restores exactly the committed prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreCrash {
    /// Write budget in bytes; the write that would exceed it is truncated
    /// at the boundary and every later write is refused.
    pub after_bytes: u64,
}

#[derive(Debug)]
struct CrashState {
    remaining: Mutex<u64>,
    tripped: std::sync::atomic::AtomicBool,
}

/// Cheap-clone write-budget switch the store consults on every file
/// write. Disabled (the default) it admits everything; armed with a
/// [`StoreCrash`] it admits bytes until the budget runs dry, then "kills"
/// the store: the offending write is cut at the exact byte boundary and
/// all subsequent writes are refused, exactly as a dead process would
/// leave the file system.
#[derive(Debug, Clone, Default)]
pub struct CrashSwitch {
    state: Option<Arc<CrashState>>,
}

impl CrashSwitch {
    /// The no-op switch: every write is admitted in full.
    pub fn disabled() -> CrashSwitch {
        CrashSwitch::default()
    }

    /// A switch armed with a crash point.
    pub fn armed(plan: StoreCrash) -> CrashSwitch {
        CrashSwitch {
            state: Some(Arc::new(CrashState {
                remaining: Mutex::new(plan.after_bytes),
                tripped: std::sync::atomic::AtomicBool::new(false),
            })),
        }
    }

    /// Asks to write `want` bytes; returns how many may actually reach
    /// the file. A short return means the crash fired *during* this
    /// write: the caller must persist exactly that prefix and then treat
    /// the store as dead.
    pub fn admit(&self, want: usize) -> usize {
        let Some(state) = &self.state else {
            return want;
        };
        if state.tripped.load(std::sync::atomic::Ordering::Relaxed) {
            return 0;
        }
        let mut remaining = state.remaining.lock();
        let allowed = (*remaining).min(want as u64) as usize;
        *remaining -= allowed as u64;
        if allowed < want {
            state
                .tripped
                .store(true, std::sync::atomic::Ordering::Relaxed);
        }
        allowed
    }

    /// True once the crash has fired (some write was cut short).
    pub fn is_tripped(&self) -> bool {
        self.state
            .as_ref()
            .map(|s| s.tripped.load(std::sync::atomic::Ordering::Relaxed))
            .unwrap_or(false)
    }
}

/// Attempts per candidate, including the first. Three attempts with a 5 s
/// backoff that doubles per retry ([`backoff_for`]) cost little next to
/// the ~230 s of a full CAD run, so retrying a transient tool crash is
/// always cheaper than regenerating from scratch later.
pub const MAX_ATTEMPTS: u32 = 3;

/// Most attempts a transient fault keeps failing before it clears.
pub const MAX_TRANSIENT_FAILURES: u32 = 2;

// A transient fault must clear inside the retry budget: with every
// attempt used up by the fault, a transient fault would quarantine its
// candidate exactly like a persistent one.
const _: () = assert!(MAX_TRANSIENT_FAILURES < MAX_ATTEMPTS);

/// Simulated backoff before retry number `retry` (1-based):
/// `5 s * 2^(retry-1)`, saturating.
pub fn backoff_for(retry: u32) -> SimTime {
    let factor = 2u64.saturating_pow(retry.saturating_sub(1));
    SimTime::from_nanos(SimTime::from_secs(5).as_nanos().saturating_mul(factor))
}

/// Thread-safe set of candidate signatures that failed persistently.
///
/// Shared across specialization sessions (an `Arc<Quarantine>` in the
/// pipeline config) so a signature that exhausted its retries is never
/// re-attempted — the candidate simply stays in software.
#[derive(Debug, Default)]
pub struct Quarantine {
    inner: RwLock<HashMap<u64, String>>,
}

impl Quarantine {
    /// An empty quarantine.
    pub fn new() -> Quarantine {
        Quarantine::default()
    }

    /// Quarantines `signature` with a reason. Returns `true` if the
    /// signature was newly inserted.
    pub fn insert(&self, signature: u64, reason: &str) -> bool {
        let mut map = self.inner.write();
        if map.contains_key(&signature) {
            return false;
        }
        map.insert(signature, reason.to_string());
        true
    }

    /// Is `signature` quarantined?
    pub fn contains(&self, signature: u64) -> bool {
        self.inner.read().contains_key(&signature)
    }

    /// The recorded reason for a quarantined signature.
    pub fn reason(&self, signature: u64) -> Option<String> {
        self.inner.read().get(&signature).cloned()
    }

    /// All quarantined signatures, sorted — a deterministic view of the
    /// set, used to compare quarantine contents across runs.
    pub fn signatures(&self) -> Vec<u64> {
        let mut sigs: Vec<u64> = self.inner.read().keys().copied().collect();
        sigs.sort_unstable();
        sigs
    }

    /// Number of quarantined signatures.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True if nothing is quarantined.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let inj = FaultInjector::disabled();
        for site in FaultSite::ALL {
            assert_eq!(inj.decide(site), None);
            let mut bytes = vec![0u8; 16];
            assert_eq!(inj.corrupt(site, &mut bytes), None);
            assert_eq!(bytes, vec![0u8; 16]);
        }
    }

    #[test]
    fn zero_rate_plan_never_fires() {
        let plan = FaultPlan::uniform(0.0, 42);
        for site in FaultSite::ALL {
            for key in [0u64, 1, 0xdead_beef, u64::MAX] {
                for attempt in 1..5 {
                    assert_eq!(plan.decide(site, key, attempt), None);
                }
            }
        }
    }

    #[test]
    fn full_rate_plan_always_fires() {
        let plan = FaultPlan::uniform(1.0, 7);
        for site in FaultSite::ALL {
            assert!(plan.decide(site, 99, 1).is_some());
        }
    }

    #[test]
    fn decisions_are_deterministic_and_order_free() {
        let a = FaultPlan::uniform(0.5, 123);
        let b = FaultPlan::uniform(0.5, 123);
        // Query b in reverse order: decisions must still agree pointwise.
        let keys: Vec<u64> = (0..200).map(|k| k * 7919).collect();
        let from_a: Vec<_> = keys
            .iter()
            .map(|&k| a.decide(FaultSite::CadMap, k, 1))
            .collect();
        let from_b: Vec<_> = keys
            .iter()
            .rev()
            .map(|&k| b.decide(FaultSite::CadMap, k, 1))
            .collect();
        assert_eq!(
            from_a,
            from_b.into_iter().rev().collect::<Vec<_>>(),
            "same plan, same decisions, any order"
        );
    }

    #[test]
    fn persistent_faults_fire_on_every_attempt() {
        let plan = FaultPlan::uniform(1.0, 5).with_rate(FaultSite::CadMap, 1.0);
        let mut saw_persistent = false;
        for key in 0..500u64 {
            if plan.decide(FaultSite::CadMap, key, 1) == Some(FaultKind::Persistent) {
                saw_persistent = true;
                for attempt in 1..20 {
                    assert_eq!(
                        plan.decide(FaultSite::CadMap, key, attempt),
                        Some(FaultKind::Persistent)
                    );
                }
            }
        }
        assert!(saw_persistent, "with rate 1.0 some keys must be persistent");
    }

    #[test]
    fn transient_faults_clear_within_the_bound() {
        let plan = FaultPlan::uniform(1.0, 11);
        let bound = MAX_TRANSIENT_FAILURES;
        let mut saw_transient = false;
        for key in 0..500u64 {
            if plan.decide(FaultSite::CadRoute, key, 1) == Some(FaultKind::Transient) {
                saw_transient = true;
                assert_eq!(
                    plan.decide(FaultSite::CadRoute, key, bound + 1),
                    None,
                    "transient fault must clear after at most {bound} attempts"
                );
            }
        }
        assert!(saw_transient);
    }

    #[test]
    fn rates_scale_fire_frequency() {
        let lo = FaultPlan::uniform(0.1, 77);
        let hi = FaultPlan::uniform(0.9, 77);
        let count = |p: &FaultPlan| {
            (0..1000u64)
                .filter(|&k| p.decide(FaultSite::IcapTransfer, k, 1).is_some())
                .count()
        };
        let (nlo, nhi) = (count(&lo), count(&hi));
        assert!(nlo < nhi, "rate 0.1 fired {nlo}, rate 0.9 fired {nhi}");
        assert!((50..200).contains(&nlo), "~10% of 1000, got {nlo}");
        assert!((800..1000).contains(&nhi), "~90% of 1000, got {nhi}");
    }

    #[test]
    fn corrupt_flips_exactly_one_bit_deterministically() {
        let inj = FaultInjector::from_plan(FaultPlan::uniform(1.0, 3)).scope(9, 1);
        let mut a = vec![0xaau8; 32];
        let mut b = a.clone();
        assert!(inj.corrupt(FaultSite::IcapTransfer, &mut a).is_some());
        assert!(inj.corrupt(FaultSite::IcapTransfer, &mut b).is_some());
        assert_eq!(a, b, "same scope flips the same bit");
        let flipped: u32 = a
            .iter()
            .zip([0xaau8; 32].iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn backoff_grows_exponentially() {
        assert_eq!(backoff_for(1), SimTime::from_secs(5));
        assert_eq!(backoff_for(2), SimTime::from_secs(10));
        assert_eq!(backoff_for(3), SimTime::from_secs(20));
    }

    #[test]
    fn quarantine_inserts_once() {
        let q = Quarantine::new();
        assert!(q.is_empty());
        assert!(q.insert(42, "cad: injected"));
        assert!(!q.insert(42, "again"));
        assert!(q.contains(42));
        assert!(!q.contains(43));
        assert_eq!(q.len(), 1);
        assert_eq!(q.reason(42).as_deref(), Some("cad: injected"));
    }

    #[test]
    fn crash_switch_disabled_admits_everything() {
        let sw = CrashSwitch::disabled();
        assert_eq!(sw.admit(usize::MAX), usize::MAX);
        assert!(!sw.is_tripped());
    }

    #[test]
    fn crash_switch_cuts_at_the_exact_byte_boundary() {
        let sw = CrashSwitch::armed(StoreCrash { after_bytes: 10 });
        assert_eq!(sw.admit(4), 4);
        assert!(!sw.is_tripped());
        // 6 bytes left; a 9-byte write is cut to 6 and trips the switch.
        assert_eq!(sw.admit(9), 6);
        assert!(sw.is_tripped());
        // Dead store: nothing further is admitted.
        assert_eq!(sw.admit(1), 0);
        assert_eq!(sw.admit(0), 0);
    }

    #[test]
    fn crash_switch_exact_budget_write_succeeds_then_dies() {
        let sw = CrashSwitch::armed(StoreCrash { after_bytes: 8 });
        assert_eq!(sw.admit(8), 8);
        assert!(!sw.is_tripped(), "budget spent exactly is not a crash yet");
        assert_eq!(sw.admit(1), 0);
        assert!(sw.is_tripped());
    }

    #[test]
    fn crash_switch_clones_share_the_budget() {
        let sw = CrashSwitch::armed(StoreCrash { after_bytes: 5 });
        let other = sw.clone();
        assert_eq!(sw.admit(3), 3);
        assert_eq!(other.admit(3), 2);
        assert!(sw.is_tripped() && other.is_tripped());
    }

    #[test]
    fn zero_burst_plan_is_identical_to_today_at_every_epoch() {
        let plan = FaultPlan::uniform(0.5, 321);
        for site in [
            FaultSite::CadMap,
            FaultSite::WorkerDeath,
            FaultSite::StoreWal,
        ] {
            for key in 0..100u64 {
                let legacy = plan.decide(site, key, 1);
                for epoch in [0u64, 1, 7, 1000, u64::MAX] {
                    assert_eq!(
                        plan.decide_at(site, key, 1, epoch),
                        legacy,
                        "no overlay: epoch must be ignored"
                    );
                }
            }
        }
    }

    #[test]
    fn bursts_gate_faults_into_windows() {
        let plan = FaultPlan::uniform(0.4, 99).with_bursts(Bursts {
            period: 10,
            width: 3,
            boost: 2.0,
            calm: 0.0,
        });
        let offset = plan.seed % 10;
        let mut in_window = 0usize;
        let mut out_window = 0usize;
        for epoch in 0..200u64 {
            let fired = (0..50u64)
                .filter(|&k| plan.decide_at(FaultSite::CadRoute, k, 1, epoch).is_some())
                .count();
            if (epoch + offset) % 10 < 3 {
                in_window += fired;
            } else {
                assert_eq!(fired, 0, "calm=0 must be dead quiet outside the window");
                out_window += fired;
            }
        }
        assert!(in_window > 0, "boosted windows must fire");
        assert_eq!(out_window, 0);
    }

    #[test]
    fn burst_decisions_are_deterministic_and_vary_per_window() {
        let mk = || {
            FaultPlan::uniform(0.5, 7).with_bursts(Bursts {
                period: 4,
                width: 4,
                boost: 1.0,
                calm: 0.0,
            })
        };
        let (a, b) = (mk(), mk());
        let sample = |p: &FaultPlan, epoch: u64| -> Vec<Option<FaultKind>> {
            (0..100u64)
                .map(|k| p.decide_at(FaultSite::CadMap, k, 1, epoch))
                .collect()
        };
        assert_eq!(sample(&a, 5), sample(&b, 5), "same plan, same decisions");
        assert_ne!(
            sample(&a, 1),
            sample(&a, 2),
            "each epoch draws a fresh victim set"
        );
    }

    #[test]
    fn burst_persistent_faults_persist_within_an_epoch() {
        let plan = FaultPlan::uniform(1.0, 13).with_bursts(Bursts {
            period: 2,
            width: 2,
            boost: 1.0,
            calm: 0.0,
        });
        let mut saw = false;
        for key in 0..200u64 {
            if plan.decide_at(FaultSite::CadMap, key, 1, 3) == Some(FaultKind::Persistent) {
                saw = true;
                for attempt in 1..10 {
                    assert_eq!(
                        plan.decide_at(FaultSite::CadMap, key, attempt, 3),
                        Some(FaultKind::Persistent)
                    );
                }
            }
        }
        assert!(saw);
    }

    #[test]
    fn injector_epoch_threads_through_scope() {
        let plan = FaultPlan::uniform(0.6, 55).with_bursts(Bursts {
            period: 8,
            width: 2,
            boost: 1.5,
            calm: 0.0,
        });
        let inj = FaultInjector::from_plan(plan.clone()).at_epoch(11);
        let scoped = inj.scope(42, 2);
        assert_eq!(
            scoped.decide(FaultSite::CadPlace),
            plan.decide_at(FaultSite::CadPlace, 42, 2, 11),
            "scope() must carry the epoch"
        );
        assert_eq!(
            scoped.at_epoch(12).decide(FaultSite::CadPlace),
            plan.decide_at(FaultSite::CadPlace, 42, 2, 12),
            "at_epoch() must carry key/attempt"
        );
    }

    /// A tenant's fault stream is a pure function of `(plan, tenant id,
    /// epoch, site, key, attempt)`. Whatever the handle saw before
    /// `for_tenant` — other tenants' scopes, other epochs, any admission
    /// order — must not perturb the stream, and a fleet twice the size
    /// must see the same per-tenant schedule.
    #[test]
    fn tenant_streams_invariant_under_admission_order_and_fleet_size() {
        let plan = FaultPlan::uniform(0.5, 2011).with_bursts(Bursts {
            period: 6,
            width: 2,
            boost: 3.0,
            calm: 0.2,
        });
        let sample = |inj: &FaultInjector, tenant: u64| -> Vec<Option<FaultKind>> {
            let t = inj.for_tenant(tenant).at_epoch(tenant);
            let mut out = Vec::new();
            for site in FaultSite::ALL {
                for key in 0..20u64 {
                    for attempt in 1..4u32 {
                        out.push(t.scope(key * 7919, attempt).decide(site));
                    }
                }
            }
            out
        };

        // "Fleet A": tenants admitted 0, 1, 2 in order; "fleet B": a
        // larger fleet admitting in reverse, with unrelated scoping noise
        // on the handle before each tenant session starts.
        let fresh = FaultInjector::from_plan(plan.clone());
        let want: Vec<_> = (0..3u64).map(|t| sample(&fresh, t)).collect();
        let noisy = FaultInjector::from_plan(plan)
            .scope(0xdead_beef, 3)
            .at_epoch(999)
            .for_tenant(17);
        for t in (0..6u64).rev() {
            if t < 3 {
                assert_eq!(
                    sample(&noisy, t),
                    want[t as usize],
                    "tenant {t}: schedule must not depend on handle history, \
                     admission order, or fleet size"
                );
            } else {
                let _ = sample(&noisy, t); // extra tenants are just traffic
            }
        }

        // Distinct tenants draw distinct streams (same plan, same keys).
        assert_ne!(want[0], want[1], "tenants must not share a victim set");
    }

    /// `for_tenant` must change the stream; a handle that never binds a
    /// tenant stays byte-identical to the plan's direct decisions.
    #[test]
    fn tenantless_handle_matches_plan_directly() {
        let plan = FaultPlan::uniform(0.5, 77);
        let inj = FaultInjector::from_plan(plan.clone());
        for key in 0..100u64 {
            assert_eq!(
                inj.scope(key, 1).decide(FaultSite::CadMap),
                plan.decide(FaultSite::CadMap, key, 1),
                "no tenant bound: decisions must match the plan verbatim"
            );
        }
        let bound = inj.for_tenant(0);
        let diverged = (0..100u64).any(|key| {
            bound.scope(key, 1).decide(FaultSite::CadMap) != plan.decide(FaultSite::CadMap, key, 1)
        });
        assert!(diverged, "binding a tenant must re-key the stream");
    }

    #[test]
    fn quarantine_signatures_sorted() {
        let q = Quarantine::new();
        for sig in [9u64, 3, 7, 1] {
            q.insert(sig, "x");
        }
        assert_eq!(q.signatures(), vec![1, 3, 7, 9]);
    }
}
