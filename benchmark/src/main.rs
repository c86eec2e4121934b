//! The `benchmark` command.
//!
//! ```text
//! benchmark run [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!               [--out DIR] [--quick]
//! benchmark compare A/ B/
//! ```
//!
//! `run` executes each workload in its own child process, one after
//! another, prints every metric with its unit, writes `<out>/<name>.json`
//! per workload, and ends with one JSON summary line. It exits non-zero
//! when any answer was wrong. `--trace 0` skips the traced iteration and
//! puts the end-to-end metrics in the summary line; `--trace 1` puts the
//! per-layer metrics there; without `--trace` the line has both.

use jitise_base::json::{Json, ObjBuilder};
use jitise_benchmark::compare::{compare, Verdict};
use jitise_benchmark::harness::Plan;
use jitise_benchmark::report::{Metric, WorkloadResult};
use jitise_benchmark::workloads::NAMES;
use jitise_benchmark::{env, run_workload, DEFAULT_SECONDS, DEFAULT_SEED};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Where `run` keeps its stores and, by default, its results.
const WORK_ROOT: &str = ".benchmark";

struct RunArgs {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: PathBuf,
    quick: bool,
}

fn usage() -> String {
    format!(
        "usage: benchmark run [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] \
         [--out DIR] [--quick]\n       benchmark compare A/ B/\nworkloads: {}",
        NAMES.join(", ")
    )
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: Path::new(WORK_ROOT).join("results"),
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                r.workloads.push(w.clone());
            }
            "--seed" => r.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                r.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(r.seconds > 0.0 && r.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                r.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--out" => r.out = PathBuf::from(value()?),
            "--quick" => r.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if r.workloads.is_empty() {
        r.workloads = NAMES.iter().map(|s| s.to_string()).collect();
    }
    Ok(r)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).map(|r| run(&r)),
        Some("worker") => parse_run(&args[1..]).map(|r| worker(&r)),
        Some("compare") if args.len() == 3 => {
            Ok(compare_dirs(Path::new(&args[1]), Path::new(&args[2])))
        }
        _ => Err(usage()),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("benchmark: {msg}");
        ExitCode::from(2)
    })
}

/// Runs every selected workload in its own child process.
fn run(r: &RunArgs) -> ExitCode {
    if env::nproc() < 2 {
        eprintln!(
            "benchmark: warning: {} CPU available; the workloads use two CAD lanes, so \
             host times will not be comparable to a two-CPU machine",
            env::nproc()
        );
    }
    if let Err(e) = std::fs::create_dir_all(&r.out) {
        eprintln!("benchmark: create {}: {e}", r.out.display());
        return ExitCode::from(2);
    }
    let exe = std::env::current_exe().expect("path of the running benchmark binary");
    let mut results = Vec::new();
    let mut ok = true;
    for w in &r.workloads {
        let path = r.out.join(format!("{w}.json"));
        let _ = std::fs::remove_file(&path);
        let mut cmd = Command::new(&exe);
        cmd.args(["worker", "--workload", w])
            .args(["--seed", &r.seed.to_string()])
            .args(["--seconds", &r.seconds.to_string()])
            .arg("--out")
            .arg(&r.out);
        if let Some(t) = r.trace {
            cmd.args(["--trace", if t { "1" } else { "0" }]);
        }
        if r.quick {
            cmd.arg("--quick");
        }
        let status = cmd.status();
        let result = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .and_then(|j| WorkloadResult::from_json(&j));
        match (status, result) {
            (Ok(s), Ok(res)) if s.success() => {
                ok &= res.correct();
                results.push(res);
            }
            (status, res) => {
                eprintln!(
                    "benchmark: workload {w} did not produce a result (exit {status:?}, {:?})",
                    res.err()
                );
                ok = false;
            }
        }
    }
    println!("{}", summary(&results, r.trace, ok).to_compact());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The last output line: correctness totals plus the selected metrics.
fn summary(results: &[WorkloadResult], trace: Option<bool>, ok: bool) -> Json {
    let mut metrics = ObjBuilder::new();
    for res in results {
        let chosen: Vec<&Metric> = match trace {
            Some(false) => res.end_to_end.iter().collect(),
            Some(true) => res.per_layer.iter().collect(),
            None => res.end_to_end.iter().chain(&res.per_layer).collect(),
        };
        for m in chosen {
            let key = if results.len() == 1 {
                m.name.clone()
            } else {
                format!("{}.{}", res.workload, m.name)
            };
            metrics = metrics.field(
                &key,
                ObjBuilder::new()
                    .field("value", Json::F64(m.value))
                    .field("unit", Json::Str(m.unit.clone()))
                    .build(),
            );
        }
    }
    ObjBuilder::new()
        .field("correct", Json::Bool(ok))
        .field(
            "attempted",
            Json::U64(results.iter().map(|r| r.attempted).sum()),
        )
        .field("failed", Json::U64(results.iter().map(|r| r.failed).sum()))
        .field("metrics", metrics.build())
        .build()
}

/// One workload, in this process (the child side of `run`).
fn worker(r: &RunArgs) -> ExitCode {
    let [name] = r.workloads.as_slice() else {
        eprintln!("benchmark: worker runs exactly one workload");
        return ExitCode::from(2);
    };
    let work = Path::new(WORK_ROOT)
        .join("work")
        .join(format!("{name}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("benchmark: create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let plan = if r.quick {
        Plan::quick()
    } else {
        Plan::full(r.seconds, r.trace != Some(false))
    };
    let result = run_workload(name, r.seed, &plan, &work).expect("workload names are validated");
    let _ = std::fs::remove_dir_all(&work);
    print_result(&result);
    let path = r.out.join(format!("{name}.json"));
    match std::fs::write(&path, result.to_json().to_pretty()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: write {}: {e}", path.display());
            ExitCode::from(2)
        }
    }
}

fn print_result(r: &WorkloadResult) {
    println!("== {} (seed {}) ==", r.workload, r.seed);
    println!(
        "env: nproc {}, cpu {}, kernel {}, store fs {}",
        r.env.nproc, r.env.cpu, r.env.kernel, r.env.store_fs
    );
    let it = &r.iterations;
    println!(
        "iterations: set-up {}, warm-up {}, timed {}, traced {}",
        it.setup, it.warmup, it.timed, it.traced
    );
    println!(
        "correct: {} (attempted {}, failed {}, failed_frac {})",
        if r.correct() { "yes" } else { "NO" },
        r.attempted,
        r.failed,
        r.failed_frac()
    );
    for f in &r.failures {
        println!("  failure: {f}");
    }
    for (title, list) in [("end-to-end", &r.end_to_end), ("per-layer", &r.per_layer)] {
        if list.is_empty() {
            continue;
        }
        println!("{title}:");
        for m in list {
            let spread = m
                .spread
                .as_ref()
                .map(|s| format!("  (n={}, q1 {:.6}, q3 {:.6})", s.n, s.q1, s.q3))
                .unwrap_or_default();
            println!("  {:<26} {:>16.6} {}{spread}", m.name, m.value, m.unit);
        }
    }
}

/// Every result file under `dir`, recursively.
fn load_dir(dir: &Path) -> Result<Vec<WorkloadResult>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            out.extend(load_dir(&path)?);
        } else if path.extension().is_some_and(|x| x == "json") {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            out.push(
                WorkloadResult::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))?,
            );
        }
    }
    Ok(out)
}

fn compare_dirs(a: &Path, b: &Path) -> ExitCode {
    let (ra, rb) = match (load_dir(a), load_dir(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = compare(&ra, &rb);
    println!(
        "{:<14} {:<26} {:<11} {:>5} {:>16} {:>16}  note",
        "workload", "metric", "verdict", "pairs", "median A", "median B"
    );
    for r in &rows {
        println!(
            "{:<14} {:<26} {:<11} {:>5} {:>16.6} {:>16.6}  {}",
            r.workload, r.metric, r.verdict, r.pairs, r.median_a, r.median_b, r.note
        );
    }
    let regressed = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .count();
    println!(
        "{} rows: {regressed} regressed, {} improved, {} unresolved",
        rows.len(),
        rows.iter()
            .filter(|r| r.verdict == Verdict::Improved)
            .count(),
        rows.iter()
            .filter(|r| r.verdict == Verdict::Unresolved)
            .count()
    );
    if regressed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
