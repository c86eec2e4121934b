//! End-to-end observability demo: runs the adaptive JIT session for one
//! application with telemetry enabled and exports the recorded journal.
//!
//! Usage: `cargo run --release -p jitise-bench --bin trace [app] [runs] [fault_rate] [seed]`
//!
//! Writes into `results/`:
//!
//! * `trace_<app>.jsonl` — the structured journal (spans, events,
//!   counters, gauges, histograms), one JSON object per line;
//! * `trace_<app>.chrome.json` — Chrome trace-event format; open in
//!   `chrome://tracing` or Perfetto to see the worker thread's CAD flow
//!   overlapping the main thread's workload runs;
//! * `trace_<app>.txt` — human-readable span tree + per-phase summary
//!   (also printed to stdout).
//!
//! The binary then reconciles the span journal against the
//! [`SpecializeReport`]: per-phase simulated-time totals must reproduce the
//! report's `const`/`map`/`par`/`sum` columns *exactly* (same `SimTime`
//! integers) — under faults, each column plus its fault-ledger share —
//! and the cache/retry/failure counters must match the report. Exits
//! non-zero on any mismatch, so it doubles as an integration check.
//!
//! With a non-zero `fault_rate`, pipeline-level faults (CAD stage crashes,
//! ICAP corruption, poisoned cache entries) are injected at that rate;
//! worker stall/death sites stay off so a report always arrives (the
//! `pipeline` bench topic gates those as `pipeline.death` and
//! `pipeline.stall`).

use jitise_apps::App;
use jitise_base::SimTime;
use jitise_core::{
    run_adaptive_with, AdaptiveOptions, BitstreamCache, EvalContext, SpecializeReport,
};
use jitise_faults::{FaultInjector, FaultPlan, FaultSite};
use jitise_telemetry::{names, Snapshot, Telemetry};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

/// Per-phase reconciliation: journal sim totals vs report columns. Under
/// faults, every journal total equals the report column plus the fault
/// ledger's share — the same integers, no tolerance.
fn reconcile(snap: &Snapshot, report: &SpecializeReport) -> Vec<(String, u64, u64, bool)> {
    let const_spans = [
        "pivpav.c2v",
        "cad.syntax",
        "cad.xst",
        "cad.translate",
        "cad.bitgen",
    ];
    let const_total: SimTime = const_spans.iter().map(|n| snap.sim_total(n)).sum();
    let mut rows = Vec::new();
    let mut push_time = |label: &str, journal: SimTime, report: SimTime| {
        rows.push((
            label.to_string(),
            journal.as_nanos(),
            report.as_nanos(),
            journal == report,
        ));
    };
    push_time(
        "const (c2v+syn+xst+tra+bitgen)",
        const_total,
        report.const_time + report.fault_const_time,
    );
    push_time(
        "map",
        snap.sim_total("cad.map"),
        report.map_time + report.fault_map_time,
    );
    push_time(
        "par",
        snap.sim_total("cad.par"),
        report.par_time + report.fault_par_time,
    );
    push_time(
        "sum (pipeline.candidate)",
        snap.sim_total("pipeline.candidate"),
        report.sum_time + report.fault_time(),
    );
    push_time(
        "reconfig (woolcano.install)",
        snap.sim_total("woolcano.install"),
        report.reconfig_time,
    );
    let mut push_count = |label: &str, journal: u64, report: u64| {
        rows.push((label.to_string(), journal, report, journal == report));
    };
    push_count(
        "bitstream cache hits",
        snap.counter(names::BITSTREAM_CACHE_HITS),
        report.cache_hits as u64,
    );
    push_count(
        "candidates (cache misses + hits)",
        snap.counter(names::BITSTREAM_CACHE_MISSES) + snap.counter(names::BITSTREAM_CACHE_HITS),
        report.candidates.len() as u64,
    );
    push_count(
        "retries",
        snap.counter(names::PIPELINE_RETRIES),
        report.retries,
    );
    push_count(
        "failed candidates",
        snap.counter(names::CANDIDATES_FAILED),
        report.failed.len() as u64,
    );
    push_count(
        "quarantined",
        snap.counter(names::CANDIDATES_QUARANTINED),
        report
            .failed
            .iter()
            .filter(|f| f.quarantined && f.attempts > 0)
            .count() as u64,
    );
    rows
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let app_name = argv.next().unwrap_or_else(|| "adpcm".to_string());
    let runs: u32 = argv.next().and_then(|s| s.parse().ok()).unwrap_or(4).max(2);
    let fault_rate: f64 = argv
        .next()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.0)
        .clamp(0.0, 1.0);
    let seed: u64 = argv.next().and_then(|s| s.parse().ok()).unwrap_or(1);

    let Some(app) = App::build(&app_name) else {
        eprintln!("unknown app `{app_name}`; try one of:");
        for p in jitise_apps::PAPER_APPS {
            eprintln!("  {}", p.name);
        }
        return ExitCode::FAILURE;
    };

    println!("=== jitise trace: {app_name} ({runs} workload runs, fault rate {fault_rate}) ===\n");
    let telemetry = Telemetry::enabled();
    let ctx = EvalContext::with_telemetry(telemetry.clone());
    let cache = BitstreamCache::new();
    let args = app.datasets[0].args.clone();

    // Pipeline-level sites only: a stalled/dead worker yields no report to
    // reconcile against.
    let plan = FaultPlan::uniform(fault_rate, seed)
        .with_rate(FaultSite::WorkerStall, 0.0)
        .with_rate(FaultSite::WorkerDeath, 0.0);
    let options = AdaptiveOptions {
        faults: FaultInjector::from_plan(plan),
        ..AdaptiveOptions::default()
    };

    let outcome = run_adaptive_with(
        &ctx,
        &cache,
        &app.module,
        app.entry,
        &args,
        runs,
        2,
        &options,
    )
    .expect("adaptive session");
    let snap = telemetry.snapshot();

    // ---- exports ----
    std::fs::create_dir_all("results").expect("mkdir results");
    let stem = format!("results/trace_{app_name}");
    let mut jsonl = BufWriter::new(File::create(format!("{stem}.jsonl")).expect("create jsonl"));
    snap.write_jsonl(&mut jsonl).expect("write jsonl");
    let mut chrome =
        BufWriter::new(File::create(format!("{stem}.chrome.json")).expect("create chrome"));
    snap.write_chrome_trace(&mut chrome).expect("write chrome");
    let mut text = Vec::new();
    snap.write_text(&mut text).expect("write text");

    // ---- reconciliation against the SpecializeReport ----
    let report = outcome
        .report
        .as_ref()
        .expect("pipeline-level faults always produce a report");
    let rows = reconcile(&snap, report);
    let mut rec = String::new();
    rec.push_str("\n--- journal vs SpecializeReport (exact integers) ---\n");
    rec.push_str(&format!(
        "{:<34} {:>20} {:>20}  ok\n",
        "quantity", "journal", "report"
    ));
    let mut all_ok = true;
    for (label, journal, report, ok) in &rows {
        all_ok &= ok;
        rec.push_str(&format!(
            "{label:<34} {journal:>20} {report:>20}  {}\n",
            if *ok { "OK" } else { "MISMATCH" }
        ));
    }
    rec.push_str(&format!(
        "\nobserved speedup {:.2}x after swap (runs before/after: {}/{}), overhead {}\n",
        outcome.observed_speedup, outcome.runs_before, outcome.runs_after, outcome.overhead
    ));
    if fault_rate > 0.0 {
        rec.push_str(&format!(
            "faults injected: {} (failed candidates {}, retries {}, time lost {})\n",
            snap.counter(names::FAULTS_INJECTED),
            report.failed.len(),
            report.retries,
            report.fault_time(),
        ));
    }
    rec.push_str(&format!(
        "vm instructions retired: {}\n",
        snap.counter(names::VM_INSTRUCTIONS)
    ));

    let mut txt_file = File::create(format!("{stem}.txt")).expect("create txt");
    txt_file.write_all(&text).expect("write txt");
    txt_file.write_all(rec.as_bytes()).expect("write txt");

    print!("{}", String::from_utf8_lossy(&text));
    print!("{rec}");
    println!(
        "\nwrote {stem}.jsonl, {stem}.chrome.json, {stem}.txt ({} spans, {} events)",
        snap.spans.len(),
        snap.events.len()
    );

    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("reconciliation FAILED");
        ExitCode::FAILURE
    }
}
