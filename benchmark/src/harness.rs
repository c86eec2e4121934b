//! The measurement sequence every workload process runs:
//!
//! 1. set-up, timed at least three times (median reported as `setup_s`);
//! 2. one untimed warm-up iteration;
//! 3. timed iterations with telemetry off, closed loop (one thread calls
//!    the entry point, waits for it, calls again) until the next
//!    iteration would overrun the time budget;
//! 4. peak RSS;
//! 5. one traced iteration for the per-layer metrics.
//!
//! Every iteration checks its answers against the workload's oracles and
//! that its exact metrics (SimTime and counts) equal those of the first
//! iteration: the program is deterministic for a seed, so any difference
//! is a failure.

use crate::env;
use crate::layers::Layers;
use crate::report::{Better, Env, Iterations, Metric, Spread, WorkloadResult};
use crate::stats::quartiles;
use std::time::Instant;

/// Correctness bookkeeping: every checked operation counts once.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
}

/// Failure messages kept per result.
const MAX_FAILURES: usize = 16;

impl Tally {
    /// Counts one operation; a failed one records `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURES {
                self.failures.push(what());
            }
        }
    }
}

/// Wall and process-CPU seconds of one measured call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds over every thread of the process.
    pub cpu_s: f64,
}

impl std::ops::AddAssign for Timing {
    fn add_assign(&mut self, rhs: Timing) {
        self.wall_s += rhs.wall_s;
        self.cpu_s += rhs.cpu_s;
    }
}

/// Runs `f`, returning its value and how long it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let cpu = env::process_cpu_s();
    let start = Instant::now();
    let value = f();
    let timing = Timing {
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: env::process_cpu_s() - cpu,
    };
    (value, timing)
}

/// What a traced iteration measured.
pub struct Traced {
    /// Wall and CPU time of the traced calls (the same calls an untraced
    /// iteration times).
    pub timing: Timing,
    /// Seconds attributed to named layers (disjoint spans and timers).
    pub attributed_s: f64,
    /// The per-layer metrics.
    pub layers: Layers,
}

/// One benchmark workload: inputs and oracles built at construction, then
/// driven through the sequence in [`run`].
pub trait Workload {
    /// Builds the state the iterations run against. Timed and repeated;
    /// the last repetition's state is kept.
    fn setup(&mut self, tally: &mut Tally);

    /// One iteration with telemetry off. Checks every answer and returns
    /// the timing of the entry-point calls (checks excluded) plus the
    /// iteration's exact metrics.
    fn iterate(&mut self, tally: &mut Tally) -> (Timing, Layers);

    /// One iteration with telemetry on, plus the per-layer measurements
    /// the benchmark makes from outside.
    fn traced(&mut self, tally: &mut Tally) -> Traced;
}

/// Set-up keeps repeating (up to [`Plan::setup_max_reps`]) while its
/// repetitions have taken less than this many seconds in total.
const SETUP_BUDGET_S: f64 = 1.0;

/// How much of the sequence to run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Time budget of the timed phase, in seconds.
    pub seconds: f64,
    /// Minimum set-up repetitions.
    pub setup_reps: usize,
    /// Maximum set-up repetitions.
    pub setup_max_reps: usize,
    /// Run the warm-up iteration.
    pub warmup: bool,
    /// Stop the timed phase after this many iterations.
    pub max_timed: Option<usize>,
    /// Run the traced iteration.
    pub traced: bool,
}

impl Plan {
    /// The full sequence with a timed phase of `seconds`.
    pub fn full(seconds: f64, traced: bool) -> Plan {
        Plan {
            seconds,
            setup_reps: 3,
            setup_max_reps: 15,
            warmup: true,
            max_timed: None,
            traced,
        }
    }

    /// One set-up, warm-up, timed and traced iteration each: a
    /// correctness and determinism check, not a measurement.
    pub fn quick() -> Plan {
        Plan {
            seconds: 0.0,
            setup_reps: 1,
            setup_max_reps: 1,
            warmup: true,
            max_timed: Some(1),
            traced: true,
        }
    }
}

fn median_metric(name: &str, unit: &str, values: &[f64]) -> Metric {
    let (q1, med, q3) = quartiles(values);
    Metric {
        spread: Some(Spread {
            n: values.len(),
            q1,
            q3,
        }),
        ..Metric::host(name, unit, Better::Lower, med)
    }
}

/// Compares an iteration's exact metrics with the first iteration's (the
/// traced iteration reports more of them; only shared names compare).
fn check_exact(tally: &mut Tally, reference: &mut Option<Layers>, got: &Layers, phase: &str) {
    let Some(want) = reference else {
        *reference = Some(got.clone());
        return;
    };
    let diff: Vec<String> = want
        .exact()
        .into_iter()
        .filter(|&(name, value)| got.get(name).to_bits() != value.to_bits())
        .map(|(name, value)| format!("{name}: {value} vs {}", got.get(name)))
        .collect();
    tally.check(diff.is_empty(), || {
        format!(
            "{phase} iteration diverged from the first: {}",
            diff.join(", ")
        )
    });
}

/// Runs the sequence on `w` and assembles the result.
pub fn run(name: &str, seed: u64, env: Env, w: &mut dyn Workload, plan: &Plan) -> WorkloadResult {
    let mut tally = Tally::default();
    let mut reference = None;

    // Millisecond set-ups repeat until the median is stable; a set-up of
    // seconds runs the minimum count.
    let mut setup_s: Vec<f64> = Vec::new();
    while setup_s.len() < plan.setup_reps.max(1)
        || (setup_s.len() < plan.setup_max_reps && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        setup_s.push(timed(|| w.setup(&mut tally)).1.wall_s);
    }

    if plan.warmup {
        let (_, exact) = w.iterate(&mut tally);
        check_exact(&mut tally, &mut reference, &exact, "warm-up");
    }

    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let start = Instant::now();
    loop {
        let (t, exact) = w.iterate(&mut tally);
        check_exact(&mut tally, &mut reference, &exact, "timed");
        walls.push(t.wall_s);
        cpus.push(t.cpu_s);
        if plan.max_timed.is_some_and(|m| walls.len() >= m) {
            break;
        }
        // Closed loop within the budget: stop when one more iteration of
        // the average length would overrun it.
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (walls.len() + 1) as f64 / walls.len() as f64 > plan.seconds {
            break;
        }
    }
    let peak_rss = env::peak_rss_mb();

    let end_to_end = vec![
        median_metric("wall_s", "s", &walls),
        median_metric("cpu_s", "s", &cpus),
        median_metric("setup_s", "s", &setup_s),
        Metric::host("peak_rss_mb", "MB", Better::Lower, peak_rss),
    ];

    let mut per_layer = Vec::new();
    if plan.traced {
        let Traced {
            timing,
            attributed_s,
            mut layers,
        } = w.traced(&mut tally);
        check_exact(&mut tally, &mut reference, &layers, "traced");
        let untraced = end_to_end[0].value;
        layers.set("trace.overhead_frac", timing.wall_s / untraced - 1.0);
        layers.set(
            "trace.unattributed_frac",
            1.0 - attributed_s / timing.cpu_s.max(1e-9),
        );
        per_layer = layers.into_metrics();
    }

    WorkloadResult {
        workload: name.to_string(),
        seed,
        env,
        iterations: Iterations {
            setup: setup_s.len(),
            warmup: plan.warmup as usize,
            timed: walls.len(),
            traced: plan.traced as usize,
        },
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        end_to_end,
        per_layer,
    }
}
