//! Perf-trajectory harness: seeded deterministic workloads for eight
//! topics, one schema-versioned `BENCH_<topic>.json` artifact each, and a
//! regression gate (DESIGN.md §13).
//!
//! Topics:
//!
//! * `search`   — candidate-search wall-clock: cold/warm [`SearchMemo`],
//!   1/2/8 worker lanes, plus the modeled identification makespans, and
//!   the unpruned MAXMISO search of 444.namd (linear DFG construction);
//! * `cad`      — CAD schedule makespan vs `cad_workers`, charged tool
//!   time and the bitstream-cache image (every placement, route and
//!   timing) invariant across lanes;
//! * `vm`       — interpreter instructions/cycles per paper app and the
//!   sweep's host MIPS;
//! * `store`    — recovery time and committed-prefix accounting under a
//!   mid-write crash budget;
//! * `pipeline` — end-to-end `specialize()` + `run_adaptive()` session
//!   latency, modeled overhead, the session's CI executions, its
//!   degraded and warm-restart paths, a fault-rate chaos sweep over three
//!   apps (DESIGN.md §9), and a crash-point sweep over the session's
//!   journal (DESIGN.md §11);
//! * `storm`    — phase-storm resilience: `run_storm()` over a rotating
//!   hot set (detection, eviction, re-specialization counters, recovery
//!   quality), invariant across CAD lanes, plus a crash-storm run (burst
//!   faults + a store crash budget + phase churn in one session);
//! * `serve`    — multi-tenant service: admission/defer/shed counters,
//!   fleet time-to-first-speedup quantiles, shared-cache hit rate vs
//!   population, all bit-identical across `cad_workers`, plus a
//!   crash-storm recovery gate (store death mid-serve under burst CAD
//!   faults) and a seeded near-duplicate cache-thrash sweep;
//! * `overlay`  — two-tier installation (DESIGN.md §17): overlay
//!   install latency vs the full CAD flow across the paper sweep (gated
//!   ≥100×), the measured two-tier break-even collapse vs full-only
//!   deployment, and adaptive-session fingerprint invariance across
//!   CAD lanes with the overlay enabled.
//!
//! Every artifact records machine metadata, seed, config knobs, min /
//! median / p90 host nanoseconds next to the modeled SimTime numbers, and
//! the telemetry profiler's per-stage self-time breakdown (plus
//! deterministic collapsed stacks for flamegraph tools). Exact metrics
//! are bit-identical across same-seed runs; host metrics carry
//! repetitions.
//!
//! Usage:
//!
//! ```text
//! bench [--smoke] [--seed N] [--out DIR] [--folded] [topic ...]
//! bench --check FILE... [--against DIR|FILE] [--tolerance F] [--floor-ns F]
//! ```
//!
//! `--check` gates each baseline file against `--against` (a directory of
//! fresh artifacts, or one file), or — without `--against` — against a
//! live rerun of the topic at the baseline's recorded seed and scale.
//! Exits 1 on regression, 2 on usage/parse errors.

use jitise_apps::App;
use jitise_apps::{build_phased, PhasedSpec};
use jitise_base::hash::hash_bytes;
use jitise_base::SimTime;
use jitise_bench::runner::{measure_host, measure_host_cold};
use jitise_bench::schema::{check, BenchArtifact, CheckPolicy, CheckReport};
use jitise_bench::workload::{search_module, search_profile};
use jitise_core::{
    evaluate_app, run_adaptive_with, run_storm, AdaptiveOptions, AdaptiveOutcome, BitstreamCache,
    EvalContext, PhasePolicy, PhaseSegment, StormOptions,
};
use jitise_faults::{
    Bursts, CrashSwitch, FaultInjector, FaultPlan, FaultSite, Quarantine, StoreCrash,
};
use jitise_ise::{
    candidate_search, identify_makespan, Algorithm, DepthEstimator, PruneFilter, SearchConfig,
    SearchMemo,
};
use jitise_pivpav::PivPavEstimator;
use jitise_serve::{run_serve, ServeConfig};
use jitise_store::testfix::sample_entry;
use jitise_store::{Record, Store, StoreOptions, StoreState, TempDir};
use jitise_telemetry::{names, Profiler, Telemetry};
use jitise_vm::{CostModel, Interpreter, PredecodedModule, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

const TOPICS: [&str; 8] = [
    "search", "cad", "vm", "store", "pipeline", "storm", "serve", "overlay",
];
/// Default workload seed — the paper's year.
const DEFAULT_SEED: u64 = 2011;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args) {
        Ok(Cli::Bench(opts)) => run_bench(&opts),
        Ok(Cli::Check(opts)) => run_check(&opts),
        Err(msg) => {
            eprintln!("bench: {msg}");
            ExitCode::from(2)
        }
    }
}

enum Cli {
    Bench(BenchOpts),
    Check(CheckOpts),
}

struct BenchOpts {
    smoke: bool,
    seed: u64,
    out: PathBuf,
    folded: bool,
    topics: Vec<String>,
}

struct CheckOpts {
    baselines: Vec<PathBuf>,
    against: Option<PathBuf>,
    policy: CheckPolicy,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut smoke = false;
    let mut folded = false;
    let mut is_check = false;
    let mut seed = DEFAULT_SEED;
    let mut out = PathBuf::from(".");
    let mut against = None;
    let mut policy = CheckPolicy::default();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--folded" => folded = true,
            "--check" => is_check = true,
            "--seed" => {
                seed = value_of("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => out = PathBuf::from(value_of("--out")?),
            "--against" => against = Some(PathBuf::from(value_of("--against")?)),
            "--tolerance" => {
                policy.tolerance = value_of("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?;
            }
            "--floor-ns" => {
                policy.floor_ns = value_of("--floor-ns")?
                    .parse()
                    .map_err(|e| format!("--floor-ns: {e}"))?;
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => positional.push(other.to_string()),
        }
    }
    if is_check {
        if positional.is_empty() {
            return Err("--check needs at least one baseline file".into());
        }
        Ok(Cli::Check(CheckOpts {
            baselines: positional.iter().map(PathBuf::from).collect(),
            against,
            policy,
        }))
    } else {
        for t in &positional {
            if !TOPICS.contains(&t.as_str()) {
                return Err(format!(
                    "unknown topic `{t}` (known: {})",
                    TOPICS.join(", ")
                ));
            }
        }
        let topics = if positional.is_empty() {
            TOPICS.iter().map(|s| s.to_string()).collect()
        } else {
            positional
        };
        Ok(Cli::Bench(BenchOpts {
            smoke,
            seed,
            out,
            folded,
            topics,
        }))
    }
}

fn run_topic(topic: &str, seed: u64, smoke: bool) -> BenchArtifact {
    match topic {
        "search" => bench_search(seed, smoke),
        "cad" => bench_cad(seed, smoke),
        "vm" => bench_vm(seed, smoke),
        "store" => bench_store(seed, smoke),
        "pipeline" => bench_pipeline(seed, smoke),
        "storm" => bench_storm(seed, smoke),
        "serve" => bench_serve(seed, smoke),
        "overlay" => bench_overlay(seed, smoke),
        other => unreachable!("topic {other} was validated at parse time"),
    }
}

fn run_bench(opts: &BenchOpts) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("bench: create {}: {e}", opts.out.display());
        return ExitCode::from(2);
    }
    for topic in &opts.topics {
        eprintln!(
            "bench: running topic `{topic}` (seed {}, smoke {})",
            opts.seed, opts.smoke
        );
        let artifact = run_topic(topic, opts.seed, opts.smoke);
        let path = opts.out.join(format!("BENCH_{topic}.json"));
        if let Err(e) = std::fs::write(&path, artifact.to_pretty_string()) {
            eprintln!("bench: write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "wrote {} ({} metrics, {} profile stages)",
            path.display(),
            artifact.metrics.len(),
            artifact.profile.len()
        );
        if opts.folded {
            let folded = opts.out.join(format!("BENCH_{topic}.folded"));
            if let Err(e) = std::fs::write(&folded, &artifact.collapsed) {
                eprintln!("bench: write {}: {e}", folded.display());
                return ExitCode::from(2);
            }
            println!("wrote {}", folded.display());
        }
    }
    ExitCode::SUCCESS
}

fn run_check(opts: &CheckOpts) -> ExitCode {
    let mut failed = false;
    for path in &opts.baselines {
        let baseline = match read_artifact(path) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("bench: {e}");
                return ExitCode::from(2);
            }
        };
        let current = match &opts.against {
            Some(target) if target.is_dir() => {
                match read_artifact(&target.join(format!("BENCH_{}.json", baseline.topic))) {
                    Ok(a) => a,
                    Err(e) => {
                        eprintln!("bench: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            Some(file) => match read_artifact(file) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("bench: {e}");
                    return ExitCode::from(2);
                }
            },
            None => {
                eprintln!(
                    "bench: rerunning topic `{}` live (seed {}, smoke {})",
                    baseline.topic, baseline.seed, baseline.smoke
                );
                if !TOPICS.contains(&baseline.topic.as_str()) {
                    eprintln!("bench: baseline topic `{}` is unknown", baseline.topic);
                    return ExitCode::from(2);
                }
                run_topic(&baseline.topic, baseline.seed, baseline.smoke)
            }
        };
        failed |= !report_check(&baseline.topic, &check(&baseline, &current, &opts.policy));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("bench --check: no regressions");
        ExitCode::SUCCESS
    }
}

fn report_check(topic: &str, report: &CheckReport) -> bool {
    for note in &report.notes {
        println!("note: {note}");
    }
    for regression in &report.regressions {
        eprintln!("REGRESSION: {regression}");
    }
    if report.ok() {
        println!("{topic}: ok");
    }
    report.ok()
}

fn read_artifact(path: &Path) -> Result<BenchArtifact, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    BenchArtifact::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------- search

fn bench_search(seed: u64, smoke: bool) -> BenchArtifact {
    let (loops, iters, reps) = if smoke { (6, 200, 2) } else { (24, 2_000, 5) };
    let mut art = BenchArtifact::new("search", seed, smoke);
    art.config("loops", loops);
    art.config("iters", iters);
    art.config("algorithm", "singlecut");

    let module = search_module(loops);
    let profile = search_profile(&module, iters);
    let search = |workers: usize, memo: Option<Arc<SearchMemo>>| {
        let cfg = SearchConfig {
            filter: PruneFilter::none(),
            algorithm: Algorithm::SingleCut,
            workers,
            memo,
            ..SearchConfig::default()
        };
        candidate_search(&module, &profile, &DepthEstimator::default(), &cfg)
    };

    // Modeled (exact) axis: work units, per-lane makespans, fingerprint.
    let out = search(1, None);
    let total_work: u64 = out.identify_work.iter().map(|&(_, w)| w).sum();
    art.exact("search.identify.work", "units", total_work);
    art.exact("search.identified", "count", out.identified as u64);
    art.exact("search.fingerprint", "hash", out.fingerprint());
    for lanes in [1usize, 2, 8] {
        art.exact(
            &format!("search.identify.makespan.w{lanes}"),
            "units",
            identify_makespan(&out.identify_work, lanes),
        );
    }
    let memo = Arc::new(SearchMemo::new());
    let _ = search(1, Some(Arc::clone(&memo)));
    let cold_misses = memo.misses();
    let _ = search(1, Some(Arc::clone(&memo)));
    art.exact("search.memo.cold_misses", "count", cold_misses);
    art.exact("search.memo.warm_hits", "count", memo.hits());

    // Table I's unpruned MAXMISO search over the largest app, 444.namd
    // (4,072 blocks, 52k instructions): DFG construction must stay linear
    // in the function size, or this wall grows quadratically.
    let namd = App::build("444.namd").expect("444.namd is a paper app");
    let namd_profile = namd.scaled_profile();
    let estimator = PivPavEstimator::new();
    let unpruned = SearchConfig {
        filter: PruneFilter::none(),
        ..SearchConfig::default()
    };
    let unpruned_search = || candidate_search(&namd.module, &namd_profile, &estimator, &unpruned);
    art.exact(
        "search.unpruned_app.fingerprint",
        "hash",
        unpruned_search().fingerprint(),
    );
    let sample = measure_host(reps, || {
        let _ = unpruned_search();
    });
    art.push("search.unpruned_app.wall", "ns", sample.metric());

    // Host axis: cold (fresh memo every run) vs warm (pre-warmed, shared)
    // at 1 and 8 lanes.
    for lanes in [1usize, 8] {
        let sample = measure_host(reps, || {
            let _ = search(lanes, Some(Arc::new(SearchMemo::new())));
        });
        art.push(&format!("search.cold.w{lanes}.wall"), "ns", sample.metric());
        let warm = Arc::new(SearchMemo::new());
        let _ = search(lanes, Some(Arc::clone(&warm)));
        let sample = measure_host(reps, || {
            let _ = search(lanes, Some(Arc::clone(&warm)));
        });
        art.push(&format!("search.warm.w{lanes}.wall"), "ns", sample.metric());
    }

    // Instrumented pass for the profile section.
    let tel = Telemetry::enabled();
    let cfg = SearchConfig {
        filter: PruneFilter::none(),
        algorithm: Algorithm::SingleCut,
        workers: 2,
        telemetry: tel.clone(),
        ..SearchConfig::default()
    };
    let _ = candidate_search(&module, &profile, &DepthEstimator::default(), &cfg);
    art.set_profile(&Profiler::from_snapshot(&tel.snapshot()));
    art
}

// ------------------------------------------------------------------- cad

fn bench_cad(seed: u64, smoke: bool) -> BenchArtifact {
    let app_name = "adpcm";
    let lanes = [1usize, 2, 4, 8];
    let reps = if smoke { 2 } else { 3 };
    let mut art = BenchArtifact::new("cad", seed, smoke);
    art.config("app", app_name);
    art.config("lanes", "1,2,4,8");

    let mut fingerprint = None;
    let mut bitstreams = None;
    for lane in lanes {
        // Fresh context per lane: shared caches would zero later makespans.
        let mut ctx = EvalContext::new();
        ctx.cad_workers = lane;
        let app = App::build(app_name).expect("paper app");
        let ev = evaluate_app(&ctx, &app);
        art.exact(
            &format!("cad.makespan.w{lane}"),
            "sim_ns",
            ev.report.makespan.as_nanos(),
        );
        // Every bitstream encodes its cells' rows per column and its
        // routed tiles; the image also holds each candidate's timing.
        let image = hash_bytes(&ctx.bitstreams.to_bytes());
        if fingerprint.is_none() {
            fingerprint = Some(ev.report.fingerprint());
            bitstreams = Some(image);
            art.exact("cad.cpu_time", "sim_ns", ev.report.cpu_time.as_nanos());
            art.exact(
                "cad.fingerprint",
                "hash",
                hash_bytes(ev.report.fingerprint().as_bytes()),
            );
            art.exact("cad.bitstreams", "hash", image);
        } else {
            assert_eq!(
                fingerprint.as_deref(),
                Some(ev.report.fingerprint().as_str()),
                "report must be identical across lane counts"
            );
            assert_eq!(
                bitstreams,
                Some(image),
                "bitstreams must be identical across lane counts"
            );
        }
    }

    for lane in [1usize, 8] {
        let sample = measure_host(reps, || {
            let mut ctx = EvalContext::new();
            ctx.cad_workers = lane;
            let app = App::build(app_name).expect("paper app");
            let _ = evaluate_app(&ctx, &app);
        });
        art.push(&format!("cad.evaluate.w{lane}.wall"), "ns", sample.metric());
    }

    let tel = Telemetry::enabled();
    let mut ctx = EvalContext::with_telemetry(tel.clone());
    ctx.cad_workers = 2;
    let app = App::build(app_name).expect("paper app");
    let _ = evaluate_app(&ctx, &app);
    art.set_profile(&Profiler::from_snapshot(&tel.snapshot()));
    art
}

// -------------------------------------------------------------------- vm

fn bench_vm(seed: u64, smoke: bool) -> BenchArtifact {
    let apps: Vec<&'static str> = if smoke {
        vec!["adpcm", "sor", "fft"]
    } else {
        jitise_apps::PAPER_APPS.iter().map(|p| p.name).collect()
    };
    let reps = if smoke { 2 } else { 3 };
    let mut art = BenchArtifact::new("vm", seed, smoke);
    art.config("apps", apps.join(","));

    let built: Vec<App> = apps
        .iter()
        .map(|name| App::build(name).expect("paper app"))
        .collect();
    // Pre-decoded forms, built once per app — the fast tier's whole premise
    // is that the decode amortizes across runs, so it stays outside the
    // timed region (its one-time cost is reported separately below).
    let pds: Vec<Arc<PredecodedModule>> = built
        .iter()
        .map(|app| Arc::new(PredecodedModule::build(&app.module, &CostModel::ppc405())))
        .collect();

    let mut total_steps = 0u64;
    let mut total_cycles = 0u64;
    let mut fast_canon = String::new();
    for (app, pd) in built.iter().zip(&pds) {
        let mut vm = Interpreter::new(&app.module);
        let out = vm
            .run(app.entry, &app.datasets[0].args)
            .expect("paper app runs");
        let profile = vm.take_profile();
        // Corrected accounting: the dynamic-instruction count and the
        // profile total are the same number (DESIGN.md §15).
        assert_eq!(
            out.steps,
            profile.total_insts(),
            "{}: steps must equal profile total_insts",
            app.name
        );
        // Tier identity: the fast tier must agree on every observable.
        let mut fast = Interpreter::new(&app.module);
        fast.set_predecoded(Arc::clone(pd));
        let fout = fast
            .run(app.entry, &app.datasets[0].args)
            .expect("paper app runs (fast tier)");
        assert_eq!(out, fout, "{}: fast tier diverged on outcome", app.name);
        let fprofile = fast.take_profile();
        assert_eq!(
            profile, fprofile,
            "{}: fast tier diverged on profile",
            app.name
        );
        // Canonical fast-tier observables, folded into one exact metric so
        // the determinism rerun and the committed-baseline gate cover the
        // tier bit-for-bit (not just through in-process assertions).
        fast_canon.push_str(&format!(
            "{}:steps={} cycles={} ret={:?};",
            app.name, fout.steps, fout.cycles, fout.ret
        ));
        let mut rows: Vec<_> = fprofile
            .keys()
            .map(|k| (k.func.0, k.block.0, fprofile.count(k)))
            .collect();
        rows.sort_unstable();
        for (f, b, n) in rows {
            fast_canon.push_str(&format!("{f}.{b}={n},"));
        }
        art.exact(&format!("vm.{}.steps", app.name), "count", out.steps);
        art.exact(&format!("vm.{}.cycles", app.name), "count", out.cycles);
        total_steps += out.steps;
        total_cycles += out.cycles;
    }
    art.exact("vm.total.steps", "count", total_steps);
    art.exact("vm.total.cycles", "count", total_cycles);
    art.exact(
        "vm.fast.fingerprint",
        "hash",
        hash_bytes(fast_canon.as_bytes()),
    );

    let sample = measure_host(reps, || {
        for app in &built {
            let mut vm = Interpreter::new(&app.module);
            let _ = vm
                .run(app.entry, &app.datasets[0].args)
                .expect("paper app runs");
        }
    });
    // Derived from the min (best-case host throughput); informational.
    art.info(
        "vm.sweep.mips",
        "mips",
        total_steps as f64 / (sample.min_ns / 1e9) / 1e6,
    );
    art.push("vm.sweep.wall", "ns", sample.metric());

    // The same sweep on the pre-decoded fast tier (decode already paid).
    let fast_sample = measure_host(reps, || {
        for (app, pd) in built.iter().zip(&pds) {
            let mut vm = Interpreter::new(&app.module);
            vm.set_predecoded(Arc::clone(pd));
            let _ = vm
                .run(app.entry, &app.datasets[0].args)
                .expect("paper app runs (fast tier)");
        }
    });
    art.push("vm.fast.sweep.wall", "ns", fast_sample.metric());
    art.info(
        "vm.fast.sweep.mips",
        "mips",
        total_steps as f64 / (fast_sample.min_ns / 1e9) / 1e6,
    );
    art.info(
        "vm.fast.speedup",
        "ratio",
        sample.min_ns / fast_sample.min_ns.max(1.0),
    );
    // One-time decode cost for the whole app set, for context.
    let decode_sample = measure_host(reps, || {
        for app in &built {
            let _ = PredecodedModule::build(&app.module, &CostModel::ppc405());
        }
    });
    art.info("vm.fast.decode.wall_min_ns", "ns", decode_sample.min_ns);

    let tel = Telemetry::enabled();
    for app in &built {
        let mut vm = Interpreter::new(&app.module);
        vm.set_telemetry(tel.clone());
        let _ = vm
            .run(app.entry, &app.datasets[0].args)
            .expect("paper app runs");
    }
    art.set_profile(&Profiler::from_snapshot(&tel.snapshot()));
    art
}

// ----------------------------------------------------------------- store

fn bench_store(seed: u64, smoke: bool) -> BenchArtifact {
    let entries = if smoke { 64u64 } else { 512 };
    let reps = if smoke { 3 } else { 5 };
    let mut art = BenchArtifact::new("store", seed, smoke);
    art.config("entries", entries);

    let sig = |i: u64| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i);
    // Snapshot + live WAL tail: `entries` records folded into a compacted
    // snapshot, then half as many replayed from the log on recovery.
    let populate = |dir: &Path| {
        let store = Store::open(dir).expect("fresh store");
        for i in 0..entries {
            store
                .append(Record::CacheEntry(sample_entry(sig(i))))
                .expect("append");
        }
        store.compact().expect("compact");
        for i in 0..entries / 2 {
            store
                .append(Record::CacheEntry(sample_entry(sig(entries + i))))
                .expect("append");
        }
        (store.bytes_written(), store.syncs())
    };
    let dir = TempDir::new("bench-store");
    let (bytes, syncs) = populate(dir.path());
    art.exact("store.bytes_written", "bytes", bytes);
    art.exact("store.syncs", "count", syncs);

    let recovered = Store::open(dir.path()).expect("recovery");
    art.exact(
        "store.recovered.records",
        "count",
        recovered.recovery().records_recovered,
    );
    art.exact(
        "store.recovered.entries",
        "count",
        recovered.recovery().recovered_entries as u64,
    );
    art.exact(
        "store.recovered.fingerprint",
        "hash",
        hash_bytes(recovered.fingerprint().as_bytes()),
    );
    drop(recovered);

    // Host axis: cold recovery of the populated directory, and the full
    // populate pass (append + compact + append) on a fresh directory.
    let sample = measure_host_cold(reps, || {
        let _ = Store::open(dir.path()).expect("recovery");
    });
    art.push("store.recover.wall", "ns", sample.metric());
    let sample = measure_host_cold(reps, || {
        let fresh = TempDir::new("bench-store-pop");
        let _ = populate(fresh.path());
    });
    art.push("store.populate.wall", "ns", sample.metric());

    // Crash budget: die halfway through the byte stream of a fresh
    // population; the committed prefix is exactly what recovery restores.
    let budget = bytes / 2;
    art.config("crash_budget_bytes", budget);
    let crash_dir = TempDir::new("bench-store-crash");
    let mut acked = 0u64;
    if let Ok(store) = Store::open_with(
        crash_dir.path(),
        StoreOptions {
            crash: jitise_faults::CrashSwitch::armed(jitise_faults::StoreCrash {
                after_bytes: budget,
            }),
            ..StoreOptions::default()
        },
    ) {
        for i in 0..entries + entries / 2 {
            if store
                .append(Record::CacheEntry(sample_entry(sig(i))))
                .is_err()
            {
                break;
            }
            acked += 1;
        }
    }
    let survivor = Store::open(crash_dir.path()).expect("post-crash recovery");
    art.exact("store.crash.acked", "count", acked);
    art.exact(
        "store.crash.recovered.records",
        "count",
        survivor.recovery().records_recovered,
    );
    assert_eq!(
        survivor.recovery().records_recovered,
        acked,
        "recovered must equal the acknowledged prefix"
    );
    drop(survivor);

    // Instrumented pass: recovery span + a short append/compact tail.
    let tel = Telemetry::enabled();
    let store = Store::open_with(
        dir.path(),
        StoreOptions {
            telemetry: tel.clone(),
            ..StoreOptions::default()
        },
    )
    .expect("instrumented recovery");
    store
        .append(Record::CacheEntry(sample_entry(sig(u64::MAX))))
        .expect("append");
    store.compact().expect("compact");
    art.set_profile(&Profiler::from_snapshot(&tel.snapshot()));
    art
}

// -------------------------------------------------------------- pipeline

fn bench_pipeline(seed: u64, smoke: bool) -> BenchArtifact {
    let app_name = "adpcm";
    let total_runs = 4u32;
    let ready_after = 2u32;
    let reps = if smoke { 2 } else { 3 };
    let mut art = BenchArtifact::new("pipeline", seed, smoke);
    art.config("app", app_name);
    art.config("total_runs", total_runs);
    art.config("ready_after", ready_after);

    let app = App::build(app_name).expect("paper app");
    let session = |ctx: &EvalContext, cache: &BitstreamCache| {
        adaptive(
            ctx,
            cache,
            &app,
            total_runs,
            ready_after,
            &AdaptiveOptions::default(),
        )
    };

    let outcome = session(&EvalContext::new(), &BitstreamCache::new());
    let report = outcome.report.as_ref().expect("session specializes");
    art.exact("pipeline.makespan", "sim_ns", report.makespan.as_nanos());
    art.exact("pipeline.sum_time", "sim_ns", report.sum_time.as_nanos());
    art.exact(
        "pipeline.candidates",
        "count",
        report.candidates.len() as u64,
    );
    art.exact("pipeline.cache_hits", "count", report.cache_hits as u64);
    art.exact("pipeline.overhead", "sim_ns", outcome.overhead.as_nanos());
    art.exact(
        "pipeline.speedup_bits",
        "f64_bits",
        outcome.observed_speedup.to_bits(),
    );
    art.exact(
        "pipeline.fingerprint",
        "hash",
        hash_bytes(outcome.fingerprint().as_bytes()),
    );

    // Session paths the healthy run above never reaches: a dead worker, a
    // stalled one past the watchdog, pipeline faults as in CI's trace job,
    // a warm restart from a recovered store, and a latency gate that never
    // opens.
    let fingerprint = |runs: u32, ready: u32, options: &AdaptiveOptions| {
        let out = adaptive(
            &EvalContext::new(),
            &BitstreamCache::new(),
            &app,
            runs,
            ready,
            options,
        );
        hash_bytes(out.fingerprint().as_bytes())
    };
    let faulty = |plan: FaultPlan| AdaptiveOptions {
        faults: FaultInjector::from_plan(plan),
        ..AdaptiveOptions::default()
    };
    let worker_site = |site: FaultSite| faulty(FaultPlan::none(seed).with_rate(site, 1.0));
    let pipeline_sites = FaultPlan::uniform(0.4, 9)
        .with_rate(FaultSite::WorkerStall, 0.0)
        .with_rate(FaultSite::WorkerDeath, 0.0);
    // The stalled worker never reports, so the watchdog only sets how long
    // the session waits before it degrades.
    let stall = AdaptiveOptions {
        watchdog: std::time::Duration::from_millis(200),
        ..worker_site(FaultSite::WorkerStall)
    };
    for (name, options) in [
        (
            "pipeline.death.fingerprint",
            worker_site(FaultSite::WorkerDeath),
        ),
        ("pipeline.stall.fingerprint", stall),
        ("pipeline.faults.fingerprint", faulty(pipeline_sites)),
    ] {
        art.exact(name, "hash", fingerprint(total_runs, ready_after, &options));
    }
    let dir = TempDir::new("bench-pipeline-warm");
    let stored = |store: Store| AdaptiveOptions {
        store: Some(Arc::new(store)),
        ..AdaptiveOptions::default()
    };
    let cold = stored(Store::open(dir.path()).expect("fresh store"));
    let _ = fingerprint(total_runs, ready_after, &cold);
    drop(cold);
    let warm = stored(Store::open(dir.path()).expect("store recovery"));
    art.exact(
        "pipeline.warm.fingerprint",
        "hash",
        fingerprint(total_runs, ready_after, &warm),
    );
    art.exact(
        "pipeline.late_gate.fingerprint",
        "hash",
        fingerprint(total_runs, total_runs + 1, &AdaptiveOptions::default()),
    );
    pipeline_chaos(&mut art, seed, total_runs, ready_after);
    pipeline_crash(&mut art, &app, total_runs, ready_after);

    // Cold session: fresh caches every repetition. Warm session: the
    // bitstream cache persists, so specialization is all cache hits.
    let sample = measure_host(reps, || {
        let _ = session(&EvalContext::new(), &BitstreamCache::new());
    });
    art.push("pipeline.cold.wall", "ns", sample.metric());
    let warm_cache = BitstreamCache::new();
    let _ = session(&EvalContext::new(), &warm_cache);
    let sample = measure_host(reps, || {
        let _ = session(&EvalContext::new(), &warm_cache);
    });
    art.push("pipeline.warm.wall", "ns", sample.metric());

    let tel = Telemetry::enabled();
    let ctx = EvalContext::with_telemetry(tel.clone());
    let _ = session(&ctx, &BitstreamCache::new());
    let snap = tel.snapshot();
    // CI executions of the session's patched runs: the work the ASIP
    // ratio rests on, counted identically by both VM tiers.
    art.exact(
        "pipeline.ci_calls",
        "count",
        snap.counter(names::VM_CI_CALLS),
    );
    art.set_profile(&Profiler::from_snapshot(&snap));
    art
}

/// One adaptive session over `app`'s first dataset: `runs` runs with the
/// install gate at run `ready`.
fn adaptive(
    ctx: &EvalContext,
    cache: &BitstreamCache,
    app: &App,
    runs: u32,
    ready: u32,
    options: &AdaptiveOptions,
) -> AdaptiveOutcome {
    let args = &app.datasets[0].args;
    let out = run_adaptive_with(
        ctx,
        cache,
        &app.module,
        app.entry,
        args,
        runs,
        ready,
        options,
    );
    out.expect("session terminates")
}

/// Chaos sweep (DESIGN.md §9): adpcm, sor and fft under uniform plans
/// drawn from the topic seed at rates {0, 0.1, 0.5}, each session
/// journaling to a fresh store whose WAL the same plan corrupts. Worker
/// sites stay at rate 0, as in `pipeline.faults`, so no outcome races the
/// host-clock watchdog; death and stall have their own fingerprints.
fn pipeline_chaos(art: &mut BenchArtifact, seed: u64, runs: u32, ready: u32) {
    art.config("chaos_apps", "adpcm,sor,fft");
    art.config("chaos_rates", "0,0.1,0.5");
    for name in ["adpcm", "sor", "fft"] {
        let app = App::build(name).expect("paper app");
        let session = |faults: FaultInjector, store: Option<Arc<Store>>| {
            let tel = Telemetry::enabled();
            let ctx = EvalContext::with_telemetry(tel.clone());
            let options = AdaptiveOptions {
                faults,
                store,
                ..AdaptiveOptions::default()
            };
            let out = adaptive(&ctx, &BitstreamCache::new(), &app, runs, ready, &options);
            (out, tel.snapshot().counter(names::FAULTS_INJECTED))
        };
        let (clean, _) = session(FaultInjector::disabled(), None);
        for (ri, rate) in [0.0, 0.1, 0.5].into_iter().enumerate() {
            let plan = FaultPlan::uniform(rate, seed)
                .with_rate(FaultSite::WorkerStall, 0.0)
                .with_rate(FaultSite::WorkerDeath, 0.0);
            let dir = TempDir::new("bench-pipeline-chaos");
            let store = StoreOptions {
                faults: FaultInjector::from_plan(plan.clone()),
                ..StoreOptions::default()
            };
            let store = Store::open_with(dir.path(), store).expect("fresh store");
            let (out, injected) = session(FaultInjector::from_plan(plan), Some(Arc::new(store)));
            assert_eq!(
                out.results, clean.results,
                "{name} at {rate}: an answer changed"
            );
            if rate == 0.0 {
                assert_eq!(injected, 0, "{name}: a zero-rate plan injected a fault");
                assert_eq!(
                    out.fingerprint(),
                    clean.fingerprint(),
                    "{name}: a zero-rate plan is not transparent"
                );
            }
            // Corrupted records are CRC-dropped on reopen, never fatal.
            let store = Store::open(dir.path()).expect("the store reopens after a chaos session");
            let point = format!(
                "{} injected={injected} {:?}",
                out.fingerprint(),
                store.recovery()
            );
            art.exact(
                &format!("pipeline.chaos.{name}.r{ri}.fingerprint"),
                "hash",
                hash_bytes(point.as_bytes()),
            );
        }
    }
}

/// Crash-point sweep (DESIGN.md §11): the store dies at 16 strides across
/// the bytes `app`'s session journals, plus both endpoints. At every point
/// recovery succeeds and equals the acknowledged fold, the crashed session
/// equals the storeless one, and a warm restart from the survivor equals a
/// session seeded by hand from the recovered state and never pays more
/// overhead than the cold one (none at all once the whole journal landed).
fn pipeline_crash(art: &mut BenchArtifact, app: &App, runs: u32, ready: u32) {
    let session = |cache: &BitstreamCache, store: Option<Arc<Store>>, quarantine| {
        let options = AdaptiveOptions {
            store,
            quarantine,
            ..AdaptiveOptions::default()
        };
        adaptive(&EvalContext::new(), cache, app, runs, ready, &options)
    };
    let cold = session(&BitstreamCache::new(), None, Arc::default());
    let candidates = cold
        .report
        .as_ref()
        .expect("session specializes")
        .candidates
        .len();
    let probe_dir = TempDir::new("bench-pipeline-probe");
    let probe = Arc::new(Store::open(probe_dir.path()).expect("fresh store"));
    let probed = session(
        &BitstreamCache::new(),
        Some(Arc::clone(&probe)),
        Arc::default(),
    );
    assert_eq!(
        probed.fingerprint(),
        cold.fingerprint(),
        "a store-attached session must equal the storeless one"
    );
    let total = probe.bytes_written();
    art.config("crash_strides", 16);
    art.exact("pipeline.crash.journal_bytes", "bytes", total);
    art.exact("pipeline.crash.syncs", "count", probe.syncs());
    let mut points = String::new();
    for budget in (0..=total)
        .step_by((total / 16).max(1) as usize)
        .chain([total])
    {
        let dir = TempDir::new("bench-pipeline-crash");
        let crash = CrashSwitch::armed(StoreCrash {
            after_bytes: budget,
        });
        let options = StoreOptions {
            crash,
            ..StoreOptions::default()
        };
        // A budget inside the WAL header kills the open itself: nothing
        // was acknowledged.
        let acked = match Store::open_with(dir.path(), options) {
            Ok(store) => {
                let store = Arc::new(store);
                let out = session(
                    &BitstreamCache::new(),
                    Some(Arc::clone(&store)),
                    Arc::default(),
                );
                assert_eq!(
                    out.fingerprint(),
                    cold.fingerprint(),
                    "a store death at byte {budget} leaked into the session"
                );
                store.fingerprint()
            }
            Err(_) => StoreState::default().fingerprint(),
        };
        let recovered = Store::open(dir.path()).expect("recovery succeeds at every crash point");
        assert_eq!(
            recovered.fingerprint(),
            acked,
            "byte {budget}: recovered != acknowledged"
        );
        let recovery = recovered.recovery().clone();
        let state = recovered.state();
        let seeded = BitstreamCache::new();
        seeded.absorb_store(&state);
        let quarantine = Arc::new(Quarantine::new());
        for (sig, reason) in &state.quarantine {
            quarantine.insert(*sig, reason);
        }
        let reference = session(&seeded, None, quarantine);
        let warm_quarantine = Arc::new(Quarantine::new());
        let warm = session(
            &BitstreamCache::new(),
            Some(Arc::new(recovered)),
            Arc::clone(&warm_quarantine),
        );
        let report = warm.report.as_ref().expect("warm session specializes");
        assert_eq!(
            Some(report.fingerprint()),
            reference.report.as_ref().map(|r| r.fingerprint()),
            "byte {budget}: a warm restart must equal the hand-seeded session"
        );
        assert!(
            warm.overhead <= cold.overhead,
            "byte {budget}: warm overhead > cold"
        );
        assert!(
            budget < total || (warm.overhead == SimTime::ZERO && report.cache_hits == candidates),
            "a whole journal must restart all hits with zero overhead"
        );
        points.push_str(&format!(
            "{budget} {recovery:?} quarantine={} {};",
            warm_quarantine.len(),
            warm.fingerprint()
        ));
    }
    art.exact(
        "pipeline.crash.fingerprint",
        "hash",
        hash_bytes(points.as_bytes()),
    );
}

// ----------------------------------------------------------------- storm

fn bench_storm(seed: u64, smoke: bool) -> BenchArtifact {
    let (kernels, hot_iters, first_runs, phase_runs) = if smoke {
        (2u32, 120i32, 6u32, 10u32)
    } else {
        (3, 240, 8, 10)
    };
    let reps = if smoke { 2 } else { 3 };
    let mut art = BenchArtifact::new("storm", seed, smoke);
    art.config("kernels", kernels);
    art.config("hot_iters", hot_iters);
    art.config("phase_runs", phase_runs);

    let module = build_phased(&PhasedSpec {
        seed,
        kernels,
        hot_iters,
        ..PhasedSpec::default()
    });
    // Rotation schedule: every kernel gets a phase; each phase change
    // must be detected, the stale CIs evicted, and the new hot set
    // re-specialized.
    let mut schedule = vec![PhaseSegment::new(
        vec![Value::I(0), Value::I(2)],
        first_runs,
    )];
    for k in 1..kernels {
        schedule.push(PhaseSegment::new(
            vec![Value::I(k as i64), Value::I(2)],
            phase_runs,
        ));
    }
    let total_runs: u32 = schedule.iter().map(|s| s.runs).sum();
    let policy = PhasePolicy {
        window: 2,
        cold_share: 0.2,
        hysteresis: 2,
        cooldown: 2,
        max_respecs: kernels,
    };
    let storm_opts = |base: AdaptiveOptions| StormOptions {
        base,
        policy,
        ready_after_runs: 2,
    };
    let session = |ctx: &EvalContext, cache: &BitstreamCache, base: AdaptiveOptions| {
        run_storm(ctx, cache, &module, "main", &schedule, &storm_opts(base)).expect("storm runs")
    };

    // Exact axis: the storm must be bit-identical across CAD lanes.
    let mut fingerprint = None;
    let mut steady = 0u64;
    for lanes in [1usize, 2, 8] {
        let out = session(
            &EvalContext::new(),
            &BitstreamCache::new(),
            AdaptiveOptions {
                cad_workers: lanes,
                ..AdaptiveOptions::default()
            },
        );
        let fp = out.fingerprint();
        match &fingerprint {
            None => {
                assert!(out.degraded.is_none(), "healthy storm must not degrade");
                assert!(out.phases_detected >= 1, "rotation must be detected");
                assert!(out.evictions >= 1, "eviction must fire");
                assert!(out.respecs >= 1, "re-specialization must land");
                art.exact("storm.runs", "count", total_runs as u64);
                art.exact("storm.phases_detected", "count", out.phases_detected as u64);
                art.exact("storm.evictions", "count", out.evictions);
                art.exact("storm.respecs", "count", out.respecs as u64);
                art.exact("storm.respecs_denied", "count", out.respecs_denied as u64);
                art.exact("storm.degraded_events", "count", out.degraded_events as u64);
                art.exact("storm.swaps", "count", out.swaps as u64);
                art.exact("storm.fingerprint", "hash", hash_bytes(fp.as_bytes()));
                // The workload's answers never change: bit-identical to a
                // software-only interpreter pass.
                let mut software = Vec::new();
                for s in &schedule {
                    for _ in 0..s.runs {
                        let mut vm = Interpreter::new(&module);
                        software.push(vm.run("main", &s.args).expect("software run").ret);
                    }
                }
                assert_eq!(out.results, software, "storm must stay software-equivalent");
                steady = *out.run_cycles.last().expect("runs recorded");
                fingerprint = Some(fp);
            }
            Some(want) => assert_eq!(want, &fp, "storm must be bit-identical across cad_workers"),
        }
    }

    // Recovery quality: the steady state after the last phase change must
    // be within 10% of a fresh-start session that only ever saw that
    // phase (acceptance bound: ≤ 1100 permille).
    let fresh_schedule = [schedule.last().expect("schedule").clone()];
    let fresh = run_storm(
        &EvalContext::new(),
        &BitstreamCache::new(),
        &module,
        "main",
        &fresh_schedule,
        &storm_opts(AdaptiveOptions::default()),
    )
    .expect("fresh session");
    let fresh_steady = *fresh.run_cycles.last().expect("runs recorded");
    let permille = steady * 1000 / fresh_steady.max(1);
    assert!(
        permille <= 1100,
        "post-respec steady state must be within 10% of fresh-start ({permille} permille)"
    );
    art.exact("storm.recovery_permille", "permille", permille);

    // Crash-storm: burst-correlated CAD faults, a store that dies mid-
    // session, and the same phase churn — in one run. The session must
    // finish software-equivalent, and a restart must recover exactly the
    // committed (post-eviction) prefix.
    let plan = FaultPlan::none(seed)
        .with_rate(FaultSite::CadPlace, 0.25)
        .with_rate(FaultSite::CadRoute, 0.25)
        .with_bursts(Bursts {
            period: 6,
            width: 2,
            boost: 3.0,
            calm: 0.0,
        });
    let store_session = |crash: CrashSwitch, dir: &Path| {
        let store = Arc::new(
            Store::open_with(
                dir,
                StoreOptions {
                    crash,
                    ..StoreOptions::default()
                },
            )
            .expect("store opens"),
        );
        let out = session(
            &EvalContext::new(),
            &BitstreamCache::new(),
            AdaptiveOptions {
                faults: FaultInjector::from_plan(plan.clone()),
                store: Some(Arc::clone(&store)),
                ..AdaptiveOptions::default()
            },
        );
        (out, store)
    };
    // Dry pass fixes the deterministic crash budget at half the bytes a
    // full session journals.
    let dry_dir = TempDir::new("bench-storm-dry");
    let (_, dry_store) = store_session(CrashSwitch::disabled(), dry_dir.path());
    let budget = dry_store.bytes_written() / 2;
    art.config("crash_budget_bytes", budget);
    art.exact("storm.syncs", "count", dry_store.syncs());
    drop(dry_store);

    let crash_dir = TempDir::new("bench-storm-crash");
    let (out, store) = store_session(
        CrashSwitch::armed(StoreCrash {
            after_bytes: budget,
        }),
        crash_dir.path(),
    );
    assert!(
        out.degraded.is_none(),
        "a store crash must not degrade execution"
    );
    let live_fp = store.state().fingerprint();
    drop(store);
    let survivor = Store::open(crash_dir.path()).expect("post-crash recovery");
    assert_eq!(
        survivor.state().fingerprint(),
        live_fp,
        "recovery must restore exactly the committed prefix"
    );
    art.exact(
        "storm.crash.phases_detected",
        "count",
        out.phases_detected as u64,
    );
    art.exact("storm.crash.evictions", "count", out.evictions);
    art.exact("storm.crash.respecs", "count", out.respecs as u64);
    art.exact(
        "storm.crash.degraded_events",
        "count",
        out.degraded_events as u64,
    );
    art.exact(
        "storm.crash.recovered.records",
        "count",
        survivor.recovery().records_recovered,
    );
    art.exact(
        "storm.crash.recovered.fingerprint",
        "hash",
        hash_bytes(live_fp.as_bytes()),
    );
    art.exact(
        "storm.crash.fingerprint",
        "hash",
        hash_bytes(out.fingerprint().as_bytes()),
    );
    drop(survivor);

    // Host axis: one full healthy storm session per repetition.
    let sample = measure_host(reps, || {
        let _ = session(
            &EvalContext::new(),
            &BitstreamCache::new(),
            AdaptiveOptions::default(),
        );
    });
    art.push("storm.session.wall", "ns", sample.metric());

    // Instrumented pass for the profile section.
    let tel = Telemetry::enabled();
    let ctx = EvalContext::with_telemetry(tel.clone());
    let _ = session(&ctx, &BitstreamCache::new(), AdaptiveOptions::default());
    art.set_profile(&Profiler::from_snapshot(&tel.snapshot()));
    art
}

/// Serve scale: fleet size, admission slots, defer-queue depth, distinct
/// workload seeds, and kernel trip count.
fn serve_scale(smoke: bool) -> (u32, usize, usize, u32, i32) {
    if smoke {
        (16, 4, 2, 3, 60)
    } else {
        (200, 12, 8, 6, 100)
    }
}

fn bench_serve(seed: u64, smoke: bool) -> BenchArtifact {
    let (tenants, max_active, defer_capacity, distinct, hot_iters) = serve_scale(smoke);
    let reps = if smoke { 2 } else { 3 };
    let mut art = BenchArtifact::new("serve", seed, smoke);
    art.config("tenants", tenants);
    art.config("max_active", max_active as u64);
    art.config("defer_capacity", defer_capacity as u64);
    art.config("distinct_workloads", distinct);
    art.config("hot_iters", hot_iters);

    let config_for = |cad_workers: usize, fleet: u32| ServeConfig {
        seed,
        tenants: fleet,
        cad_workers,
        max_active,
        defer_capacity,
        arrival_spacing_us: 100,
        service_model_us: if smoke { 600 } else { 2_000 },
        runs_per_tenant: 3,
        distinct_workloads: distinct,
        hot_iters,
        ..ServeConfig::default()
    };

    // Exact axis: the whole fleet outcome must be bit-identical across
    // pool widths — admission, degradation, cache traffic, answers. A
    // fresh EvalContext per run: its netlist cache is shared
    // infrastructure, and a warm one legitimately changes C2V charges.
    let mut fingerprint = None;
    let mut full_hits = 0u64;
    for lanes in [1usize, 2, 8] {
        let out = run_serve(&EvalContext::new(), &config_for(lanes, tenants)).expect("serve runs");
        let fp = out.fingerprint();
        match &fingerprint {
            None => {
                assert!(out.admitted >= 1, "nothing admitted at arrival");
                assert!(out.deferred >= 1, "defer queue never used");
                assert!(out.shed >= 1, "load shedding never triggered");
                assert!(out.cache_hits >= 1, "shared cache never hit");
                art.exact("serve.admitted", "count", out.admitted as u64);
                art.exact("serve.deferred", "count", out.deferred as u64);
                art.exact("serve.shed", "count", out.shed as u64);
                art.exact("serve.degraded", "count", out.degraded as u64);
                art.exact("serve.cache_hits", "count", out.cache_hits);
                art.exact("serve.fresh", "count", out.fresh);
                art.exact("serve.fingerprint", "hash", hash_bytes(fp.as_bytes()));
                full_hits = out.cache_hits;
                fingerprint = Some(fp);
            }
            Some(want) => {
                assert_eq!(want, &fp, "serve must be bit-identical across cad_workers")
            }
        }
        // The DRR timing post-pass is deterministic per lane count;
        // record the fleet latency picture at each width.
        art.exact(
            &format!("serve.lanes{lanes}.ttfs_p50_us"),
            "us",
            out.timing.ttfs_p50_us,
        );
        art.exact(
            &format!("serve.lanes{lanes}.ttfs_p99_us"),
            "us",
            out.timing.ttfs_p99_us,
        );
        art.exact(
            &format!("serve.lanes{lanes}.queue_depth"),
            "count",
            out.timing.max_queue_depth as u64,
        );
        art.exact(
            &format!("serve.lanes{lanes}.pool_makespan"),
            "sim_ns",
            out.timing.makespan.as_nanos(),
        );
    }

    // Shared-cache hit rate vs tenant population: a fleet twice the size
    // revisits the same workload combos more often, so the absolute hit
    // count must grow with population.
    let half = run_serve(&EvalContext::new(), &config_for(2, tenants / 2)).expect("half fleet");
    let rate = |hits: u64, fresh: u64| hits * 1000 / (hits + fresh).max(1);
    art.exact("serve.half_fleet.cache_hits", "count", half.cache_hits);
    art.exact(
        "serve.half_fleet.hit_permille",
        "permille",
        rate(half.cache_hits, half.fresh),
    );
    assert!(
        full_hits >= half.cache_hits,
        "cache hits must not shrink as the population doubles ({} < {})",
        full_hits,
        half.cache_hits
    );

    // Crash-storm recovery gate: burst CAD faults (keyed per tenant
    // epoch) while the store dies at 60% of the byte stream. Recovery
    // must restore exactly the committed prefix, and every tenant's
    // answers stay correct (the engine's tests pin the per-tenant
    // details; here we gate the counters and the recovered fingerprint).
    let storm_plan = FaultPlan::uniform(0.08, seed ^ 0x73746f726d).with_bursts(Bursts {
        period: 5,
        width: 2,
        boost: 6.0,
        calm: 0.2,
    });
    let storm_config = |store: Option<Arc<Store>>| ServeConfig {
        faults: FaultInjector::from_plan(storm_plan.clone()),
        store,
        // A small capacity forces FIFO evictions, so the journal carries
        // Evict tombstones through the crash.
        cache_capacity: 8,
        ..config_for(2, tenants)
    };
    let dry_dir = TempDir::new("bench-serve-dry");
    let dry_store = Arc::new(Store::open(dry_dir.path()).expect("store opens"));
    let dry = run_serve(
        &EvalContext::new(),
        &storm_config(Some(Arc::clone(&dry_store))),
    )
    .expect("dry storm serve");
    assert!(dry.degraded >= 1, "storm must degrade at least one tenant");
    assert!(
        dry.degraded < dry.admitted + dry.deferred,
        "storm must leave some tenants healthy"
    );
    let budget = dry_store.bytes_written() * 6 / 10;
    art.config("crash_budget_bytes", budget);
    art.exact("serve.storm.degraded", "count", dry.degraded as u64);
    art.exact("serve.storm.evictions", "count", dry.evictions);
    art.exact("serve.syncs", "count", dry_store.syncs());
    drop(dry_store);

    let crash_dir = TempDir::new("bench-serve-crash");
    let store = Arc::new(
        Store::open_with(
            crash_dir.path(),
            StoreOptions {
                crash: CrashSwitch::armed(StoreCrash {
                    after_bytes: budget,
                }),
                ..StoreOptions::default()
            },
        )
        .expect("store opens"),
    );
    let out = run_serve(&EvalContext::new(), &storm_config(Some(Arc::clone(&store))))
        .expect("crash storm serve");
    // Every lane-invariant observable — admissions, degradations, and
    // all workload answers — must be byte-equal to the dry pass: the
    // store's death never leaks into execution.
    assert_eq!(
        out.tenants, dry.tenants,
        "the store's death must never leak into tenant outcomes"
    );
    let committed = store.state().fingerprint();
    drop(store);
    let survivor = Store::open(crash_dir.path()).expect("post-crash recovery");
    assert_eq!(
        survivor.state().fingerprint(),
        committed,
        "recovery must restore exactly the committed prefix"
    );
    art.exact(
        "serve.storm.recovered.records",
        "count",
        survivor.recovery().records_recovered,
    );
    art.exact(
        "serve.storm.recovered.fingerprint",
        "hash",
        hash_bytes(committed.as_bytes()),
    );
    drop(survivor);

    // Seeded cache-thrash sweep (ROADMAP item 5): near-duplicate kernels
    // give every workload distinct same-shaped signatures, and shrinking
    // the shared cache forces them to fight over the slots. The fleet
    // stays correct and lane-invariant (pinned by the serve tests); here
    // we record how the hit economy collapses as capacity drops.
    for capacity in [2usize, 8, 64] {
        let thrash = run_serve(
            &EvalContext::new(),
            &ServeConfig {
                near_duplicate: true,
                cache_capacity: capacity,
                ..config_for(2, tenants)
            },
        )
        .expect("thrash fleet");
        art.exact(
            &format!("serve.thrash.cap{capacity}.cache_hits"),
            "count",
            thrash.cache_hits,
        );
        art.exact(
            &format!("serve.thrash.cap{capacity}.fresh"),
            "count",
            thrash.fresh,
        );
        art.exact(
            &format!("serve.thrash.cap{capacity}.evictions"),
            "count",
            thrash.evictions,
        );
        art.exact(
            &format!("serve.thrash.cap{capacity}.hit_permille"),
            "permille",
            rate(thrash.cache_hits, thrash.fresh),
        );
        art.exact(
            &format!("serve.thrash.cap{capacity}.fingerprint"),
            "hash",
            hash_bytes(thrash.fingerprint().as_bytes()),
        );
        if capacity == 2 {
            assert!(
                thrash.evictions >= 1,
                "a two-slot cache under near-duplicate thrash must evict"
            );
        }
    }

    // Host axis: one full healthy fleet per repetition.
    let sample = measure_host(reps, || {
        let _ = run_serve(&EvalContext::new(), &config_for(2, tenants));
    });
    art.push("serve.fleet.wall", "ns", sample.metric());

    // Instrumented pass for the profile section.
    let tel = Telemetry::enabled();
    let ctx = EvalContext::with_telemetry(tel.clone());
    let mut cfg = config_for(2, tenants);
    cfg.telemetry = tel.clone();
    let _ = run_serve(&ctx, &cfg);
    art.set_profile(&Profiler::from_snapshot(&tel.snapshot()));
    art
}

// --------------------------------------------------------------- overlay

fn bench_overlay(seed: u64, smoke: bool) -> BenchArtifact {
    let apps: Vec<&'static str> = if smoke {
        vec!["adpcm", "sor", "fft"]
    } else {
        jitise_apps::PAPER_APPS.iter().map(|p| p.name).collect()
    };
    let reps = if smoke { 2 } else { 3 };
    let mut art = BenchArtifact::new("overlay", seed, smoke);
    art.config("apps", apps.join(","));

    // Two-tier sweep: every app evaluated with the overlay enabled. The
    // install-latency claim is the tentpole acceptance gate — assembling
    // candidates from pre-implemented cells must be ≥100× cheaper than
    // the full map/place/route flow, across the whole sweep.
    let ctx = EvalContext::new().with_overlay();
    let mut full_ns: u128 = 0;
    let mut overlay_ns: u128 = 0;
    let mut installs = 0u64;
    let mut upgrades = 0u64;
    let mut full_only_be_ns: u128 = 0;
    let mut two_tier_be_ns: u128 = 0;
    let mut amortizing = 0u64;
    for name in &apps {
        let app = App::build(name).expect("paper app");
        let ev = evaluate_app(&ctx, &app);
        // Cache hits and overlay-map fallbacks legitimately skip the
        // assembly step, so installs is bounded by — not equal to — the
        // candidate count.
        assert!(
            ev.report.overlay_installs <= ev.report.candidates.len(),
            "{name}: more overlay installs than candidates"
        );
        full_ns += ev.report.sum_time.as_nanos() as u128;
        overlay_ns += ev.report.overlay_time.as_nanos() as u128;
        installs += ev.report.overlay_installs as u64;
        upgrades += ev.report.upgrades as u64;
        art.exact(
            &format!("overlay.{name}.install_ns"),
            "sim_ns",
            ev.report.overlay_time.as_nanos(),
        );
        art.exact(
            &format!("overlay.{name}.full_cad_ns"),
            "sim_ns",
            ev.report.sum_time.as_nanos(),
        );
        // Break-even collapse, measured from the specialization request:
        // full-only waits out the whole CAD makespan before amortizing;
        // two-tier starts earning on the overlay immediately.
        if let (Some(be), Some(tt)) = (ev.break_even, ev.break_even_two_tier) {
            let full_only = ev.report.makespan + be;
            full_only_be_ns += full_only.as_nanos() as u128;
            two_tier_be_ns += tt.as_nanos() as u128;
            amortizing += 1;
            art.exact(
                &format!("overlay.{name}.break_even.full_only_ns"),
                "sim_ns",
                full_only.as_nanos(),
            );
            art.exact(
                &format!("overlay.{name}.break_even.two_tier_ns"),
                "sim_ns",
                tt.as_nanos(),
            );
            // Not asserted per-app: a candidate set that is slower on the
            // degraded overlay fabric than in software has
            // `overlay_saved_frac == 0`, and the two-tier number is then
            // honestly *worse* by the (tiny) assembly cost. The collapse
            // gate is sweep-wide, below.
        }
    }
    assert!(amortizing >= 1, "sweep must contain amortizing apps");
    assert!(
        two_tier_be_ns < full_only_be_ns,
        "two-tier break-even must collapse vs full-only across the sweep \
         ({two_tier_be_ns} vs {full_only_be_ns})"
    );
    assert!(installs >= 1, "sweep must engage the overlay fast path");
    let ratio = full_ns / overlay_ns.max(1);
    assert!(
        ratio >= 100,
        "overlay install must be >=100x cheaper than full CAD (got {ratio}x)"
    );
    art.exact("overlay.sweep.full_cad_ns", "sim_ns", full_ns as u64);
    art.exact("overlay.sweep.install_ns", "sim_ns", overlay_ns as u64);
    art.exact("overlay.sweep.latency_ratio", "ratio", ratio as u64);
    art.exact("overlay.sweep.installs", "count", installs);
    art.exact("overlay.sweep.upgrades", "count", upgrades);
    art.exact(
        "overlay.sweep.break_even.full_only_ns",
        "sim_ns",
        full_only_be_ns as u64,
    );
    art.exact(
        "overlay.sweep.break_even.two_tier_ns",
        "sim_ns",
        two_tier_be_ns as u64,
    );

    // Lane invariance with the overlay enabled: the adaptive session's
    // fingerprint must be bit-identical across CAD pool widths (fresh
    // context per run — the netlist cache legitimately changes charges).
    let app = App::build("adpcm").expect("paper app");
    let session = |lanes: usize| {
        let ctx = EvalContext::new();
        let opts = AdaptiveOptions {
            cad_workers: lanes,
            overlay: Some(Arc::new(jitise_cad::OverlayLibrary::from_db(&ctx.db))),
            ..AdaptiveOptions::default()
        };
        adaptive(&ctx, &BitstreamCache::new(), &app, 4, 2, &opts)
    };
    let mut fingerprint = None;
    for lanes in [1usize, 2, 8] {
        let out = session(lanes);
        // Everything observable except `overhead`: the makespan is the one
        // field that legitimately shrinks with more CAD lanes (see
        // `StormOutcome::fingerprint`, which excludes it for the same
        // reason).
        let fp = format!(
            "rb={} ra={} cb={} ca={} sp={:016x} degraded={:?} results={:?} report={}",
            out.runs_before,
            out.runs_after,
            out.cycles_before,
            out.cycles_after,
            out.observed_speedup.to_bits(),
            out.degraded,
            out.results,
            out.report
                .as_ref()
                .map(|r| r.fingerprint())
                .unwrap_or_else(|| "none".into()),
        );
        match &fingerprint {
            None => {
                let report = out.report.as_ref().expect("session specializes");
                assert!(report.overlay_installs >= 1, "two-tier path must engage");
                art.exact(
                    "overlay.session.installs",
                    "count",
                    report.overlay_installs as u64,
                );
                art.exact("overlay.session.upgrades", "count", report.upgrades as u64);
                art.exact(
                    "overlay.session.overlay_ns",
                    "sim_ns",
                    report.overlay_time.as_nanos(),
                );
                art.exact("overlay.fingerprint", "hash", hash_bytes(fp.as_bytes()));
                fingerprint = Some(fp);
            }
            Some(want) => assert_eq!(
                want, &fp,
                "overlay session must be bit-identical across cad_workers"
            ),
        }
    }

    // Host axis: one full overlay-enabled adaptive session per rep.
    let sample = measure_host(reps, || {
        let _ = session(2);
    });
    art.push("overlay.session.wall", "ns", sample.metric());

    // Instrumented pass for the profile section.
    let tel = Telemetry::enabled();
    let ctx = EvalContext::with_telemetry(tel.clone()).with_overlay();
    let app = App::build("sor").expect("paper app");
    let _ = evaluate_app(&ctx, &app);
    art.set_profile(&Profiler::from_snapshot(&tel.snapshot()));
    art
}
