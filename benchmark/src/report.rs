//! The benchmark's result model and its JSON form.
//!
//! One [`WorkloadResult`] per workload process. It carries the
//! environment, how many iterations ran, the correctness tally, and two
//! metric lists: end-to-end (host time and memory, measured with
//! telemetry off) and per-layer (one traced iteration). The JSON form
//! round-trips exactly, which is what `benchmark compare` relies on.

use jitise_base::json::{Json, ObjBuilder};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, failures).
    Lower,
    /// Larger is better (speedups, hit rates, throughput).
    Higher,
}

/// How a metric behaves across runs of the same code and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A host measurement: it varies from run to run, so comparisons need
    /// repeated runs and a spread test.
    Host,
    /// A SimTime quantity or a count: a pure function of code and seed, so
    /// two runs of the same code must agree bit for bit.
    Exact,
}

/// Sample size and quartiles behind a host metric that is a median.
#[derive(Debug, Clone, PartialEq)]
pub struct Spread {
    /// Samples the median was taken over.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

/// One named, unit-carrying measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `wall_s` or `cad.route_s`.
    pub name: String,
    /// Unit, e.g. `s`, `MB`, `count`.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Host measurement or exact quantity.
    pub kind: Kind,
    /// The value (the median, when `spread` is set).
    pub value: f64,
    /// Quartiles of the samples behind a median.
    pub spread: Option<Spread>,
}

impl Metric {
    /// A host-time (or other noisy host) measurement.
    pub fn host(name: &str, unit: &str, better: Better, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            better,
            kind: Kind::Host,
            value,
            spread: None,
        }
    }

    /// A deterministic quantity (SimTime or a count).
    pub fn exact(name: &str, unit: &str, better: Better, value: f64) -> Metric {
        Metric {
            kind: Kind::Exact,
            ..Metric::host(name, unit, better, value)
        }
    }

    fn to_json(&self) -> Json {
        let mut b = ObjBuilder::new()
            .field("name", Json::Str(self.name.clone()))
            .field("unit", Json::Str(self.unit.clone()))
            .field(
                "better",
                Json::Str(
                    match self.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    }
                    .into(),
                ),
            )
            .field(
                "kind",
                Json::Str(
                    match self.kind {
                        Kind::Host => "host",
                        Kind::Exact => "exact",
                    }
                    .into(),
                ),
            )
            .field("value", Json::F64(self.value));
        if let Some(s) = &self.spread {
            b = b
                .field("n", Json::U64(s.n as u64))
                .field("q1", Json::F64(s.q1))
                .field("q3", Json::F64(s.q3));
        }
        b.build()
    }

    fn from_json(j: &Json) -> Result<Metric, String> {
        let text = |k: &str| -> Result<String, String> {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("metric field `{k}` missing"))
        };
        let num = |k: &str| -> Result<f64, String> {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric field `{k}` missing"))
        };
        let better = match text("better")?.as_str() {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            other => return Err(format!("unknown direction `{other}`")),
        };
        let kind = match text("kind")?.as_str() {
            "host" => Kind::Host,
            "exact" => Kind::Exact,
            other => return Err(format!("unknown metric kind `{other}`")),
        };
        let spread = match j.get("n").and_then(Json::as_u64) {
            Some(n) => Some(Spread {
                n: n as usize,
                q1: num("q1")?,
                q3: num("q3")?,
            }),
            None => None,
        };
        Ok(Metric {
            name: text("name")?,
            unit: text("unit")?,
            better,
            kind,
            value: num("value")?,
            spread,
        })
    }
}

/// The machine a result was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu: String,
    /// Kernel name and release.
    pub kernel: String,
    /// File system type of the directory holding the stores' WALs.
    pub store_fs: String,
}

/// How many times each phase of the workload sequence ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Iterations {
    /// Timed set-up repetitions.
    pub setup: usize,
    /// Untimed warm-up iterations.
    pub warmup: usize,
    /// Timed iterations behind `wall_s` and `cpu_s`.
    pub timed: usize,
    /// Traced iterations behind the per-layer metrics.
    pub traced: usize,
}

/// Everything one workload process measured and checked.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Workload seed the inputs were generated from.
    pub seed: u64,
    /// Machine description.
    pub env: Env,
    /// Iteration counts.
    pub iterations: Iterations,
    /// Operations checked against the oracles.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics (telemetry off).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (the traced iteration); empty when not traced.
    pub per_layer: Vec<Metric>,
}

/// Schema tag written into every result file.
pub const SCHEMA: &str = "jitise-benchmark/1";

impl WorkloadResult {
    /// True when every checked operation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed operations over attempted operations.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Looks a metric up in either list.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// The JSON form written to `<out>/<workload>.json`.
    pub fn to_json(&self) -> Json {
        let list = |ms: &[Metric]| Json::Arr(ms.iter().map(Metric::to_json).collect());
        ObjBuilder::new()
            .field("schema", Json::Str(SCHEMA.into()))
            .field("workload", Json::Str(self.workload.clone()))
            .field("seed", Json::U64(self.seed))
            .field(
                "env",
                ObjBuilder::new()
                    .field("nproc", Json::U64(self.env.nproc as u64))
                    .field("cpu", Json::Str(self.env.cpu.clone()))
                    .field("kernel", Json::Str(self.env.kernel.clone()))
                    .field("store_fs", Json::Str(self.env.store_fs.clone()))
                    .build(),
            )
            .field(
                "iterations",
                ObjBuilder::new()
                    .field("setup", Json::U64(self.iterations.setup as u64))
                    .field("warmup", Json::U64(self.iterations.warmup as u64))
                    .field("timed", Json::U64(self.iterations.timed as u64))
                    .field("traced", Json::U64(self.iterations.traced as u64))
                    .build(),
            )
            .field("correct", Json::Bool(self.correct()))
            .field("attempted", Json::U64(self.attempted))
            .field("failed", Json::U64(self.failed))
            .field(
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            )
            .field("end_to_end", list(&self.end_to_end))
            .field("per_layer", list(&self.per_layer))
            .build()
    }

    /// Parses the JSON form back.
    pub fn from_json(j: &Json) -> Result<WorkloadResult, String> {
        if j.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} result"));
        }
        let obj = |k: &str| j.get(k).ok_or_else(|| format!("field `{k}` missing"));
        let uint = |o: &Json, k: &str| {
            o.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("field `{k}` missing"))
        };
        let text = |o: &Json, k: &str| {
            o.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("field `{k}` missing"))
        };
        let metrics = |k: &str| -> Result<Vec<Metric>, String> {
            obj(k)?
                .as_arr()
                .ok_or_else(|| format!("field `{k}` is not a list"))?
                .iter()
                .map(Metric::from_json)
                .collect()
        };
        let env = obj("env")?;
        let it = obj("iterations")?;
        Ok(WorkloadResult {
            workload: text(j, "workload")?,
            seed: uint(j, "seed")?,
            env: Env {
                nproc: uint(env, "nproc")? as usize,
                cpu: text(env, "cpu")?,
                kernel: text(env, "kernel")?,
                store_fs: text(env, "store_fs")?,
            },
            iterations: Iterations {
                setup: uint(it, "setup")? as usize,
                warmup: uint(it, "warmup")? as usize,
                timed: uint(it, "timed")? as usize,
                traced: uint(it, "traced")? as usize,
            },
            attempted: uint(j, "attempted")?,
            failed: uint(j, "failed")?,
            failures: obj("failures")?
                .as_arr()
                .ok_or("field `failures` is not a list")?
                .iter()
                .map(|f| f.as_str().map(str::to_string).ok_or("non-string failure"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}
