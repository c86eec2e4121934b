//! The `BENCH_<topic>.json` perf-artifact schema and the regression gate.
//!
//! The `bench` binary funnels its numbers through [`BenchArtifact`]: a
//! schema-versioned, machine-readable record of one benchmark topic —
//! machine metadata, seed, config knobs, a flat metric list, and the
//! profiler's per-stage self-time breakdown. Artifacts are written
//! pretty-printed (humans read the diffs of committed baselines) and
//! parsed back by `bench --check`, which compares a fresh run against a
//! baseline and exits non-zero on regression.
//!
//! ## Metric classes
//!
//! * [`MetricValue::Exact`] — modeled values on the simulated clock or
//!   deterministic counts (makespans, fingerprints, instruction counts).
//!   Same seed + same config ⇒ bit-identical; the gate compares them
//!   with `==`, no tolerance.
//! * [`MetricValue::Host`] — wall-clock measurements. The gate compares
//!   the **min** over repetitions (the stablest location statistic for
//!   timing: noise is one-sided) within a relative tolerance plus an
//!   absolute floor that keeps microsecond-scale jitter from gating.
//! * [`MetricValue::Info`] — derived context (MIPS, speedups over host
//!   time). Never gated; differences are reported as notes.
//!
//! ## Versioning
//!
//! `schema` is `jitise-bench/<major>.<minor>`. [`BenchArtifact::parse`]
//! rejects a different major outright (the layout changed), and accepts
//! any minor (fields only ever get added).

use jitise_base::json::{Json, ObjBuilder};
use jitise_telemetry::Profiler;

/// Current schema tag written into every artifact.
pub const SCHEMA_VERSION: &str = "jitise-bench/1.0";
/// Major version this code can read.
pub const SCHEMA_MAJOR: u64 = 1;

/// Where the artifact was produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineInfo {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Available parallelism at measurement time.
    pub cpus: u64,
}

impl MachineInfo {
    /// Probes the current machine.
    pub fn current() -> MachineInfo {
        MachineInfo {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
        }
    }
}

/// One measured value (see the module docs for class semantics).
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Deterministic modeled value; gated bit-for-bit.
    Exact(u64),
    /// Host wall-clock statistics over `reps` repetitions, nanoseconds;
    /// gated on `min_ns` within tolerance.
    Host {
        /// Repetitions measured.
        reps: u64,
        /// Fastest repetition, nanoseconds.
        min_ns: f64,
        /// Median repetition, nanoseconds.
        median_ns: f64,
        /// 90th-percentile repetition, nanoseconds.
        p90_ns: f64,
    },
    /// Informational derived value; never gated.
    Info(f64),
}

/// A named, unit-tagged metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, unique within one artifact.
    pub name: String,
    /// Unit label (`"ns"`, `"count"`, `"mips"`, …) — documentation only.
    pub unit: String,
    /// The value and its gating class.
    pub value: MetricValue,
}

/// One row of the profiler's per-stage breakdown (a flattened
/// [`jitise_telemetry::StageRollup`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileStage {
    /// Span name (stage).
    pub name: String,
    /// Spans folded in.
    pub count: u64,
    /// Summed host duration, ns.
    pub host_total_ns: u64,
    /// Host time not attributed to child spans, ns.
    pub host_self_ns: u64,
    /// Pow2-bucket upper bound on the median per-span host duration, ns.
    pub host_p50_ns: u64,
    /// Pow2-bucket upper bound on the p90 per-span host duration, ns.
    pub host_p90_ns: u64,
    /// Summed simulated duration, ns (exact).
    pub sim_total_ns: u64,
    /// Simulated self time, ns (exact).
    pub sim_self_ns: u64,
}

/// One complete `BENCH_<topic>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArtifact {
    /// Schema tag (see [`SCHEMA_VERSION`]).
    pub schema: String,
    /// Topic name (`search`, `cad`, `vm`, `store`, `pipeline`, …).
    pub topic: String,
    /// Workload seed.
    pub seed: u64,
    /// True when produced at CI smoke scale (smoke and full-scale
    /// artifacts are never comparable).
    pub smoke: bool,
    /// Producing machine.
    pub machine: MachineInfo,
    /// Workload-shape knobs, as ordered key → value strings. Two
    /// artifacts gate against each other only if these match.
    pub config: Vec<(String, String)>,
    /// The measurements.
    pub metrics: Vec<Metric>,
    /// Per-stage self-time breakdown from the instrumented pass.
    pub profile: Vec<ProfileStage>,
    /// Collapsed-stack text (`path weight` lines, simulated-clock
    /// weights — deterministic), ready for flamegraph tooling.
    pub collapsed: String,
}

impl BenchArtifact {
    /// An empty artifact for `topic`, stamped with the current schema and
    /// machine.
    pub fn new(topic: &str, seed: u64, smoke: bool) -> BenchArtifact {
        BenchArtifact {
            schema: SCHEMA_VERSION.to_string(),
            topic: topic.to_string(),
            seed,
            smoke,
            machine: MachineInfo::current(),
            config: Vec::new(),
            metrics: Vec::new(),
            profile: Vec::new(),
            collapsed: String::new(),
        }
    }

    /// Records one config knob (ordered; duplicate keys are a bug).
    pub fn config(&mut self, key: &str, value: impl ToString) {
        debug_assert!(self.config.iter().all(|(k, _)| k != key));
        self.config.push((key.to_string(), value.to_string()));
    }

    /// Adds an [`MetricValue::Exact`] metric.
    pub fn exact(&mut self, name: &str, unit: &str, value: u64) {
        self.push(name, unit, MetricValue::Exact(value));
    }

    /// Adds an [`MetricValue::Info`] metric.
    pub fn info(&mut self, name: &str, unit: &str, value: f64) {
        self.push(name, unit, MetricValue::Info(value));
    }

    /// Adds a metric of any class.
    pub fn push(&mut self, name: &str, unit: &str, value: MetricValue) {
        debug_assert!(self.metrics.iter().all(|m| m.name != name));
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        });
    }

    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Fills the profile section (rollups + sim-weighted collapsed
    /// stacks) from an instrumented pass.
    pub fn set_profile(&mut self, profiler: &Profiler) {
        self.profile = profiler
            .stages()
            .iter()
            .map(|s| ProfileStage {
                name: s.name.clone(),
                count: s.count,
                host_total_ns: s.host_total_ns,
                host_self_ns: s.host_self_ns,
                host_p50_ns: s.host_p50_ns,
                host_p90_ns: s.host_p90_ns,
                sim_total_ns: s.sim_total.as_nanos(),
                sim_self_ns: s.sim_self.as_nanos(),
            })
            .collect();
        let mut buf = Vec::new();
        profiler
            .write_collapsed(&mut buf, jitise_telemetry::StackWeight::SimNs)
            .expect("Vec<u8> write is infallible");
        self.collapsed = String::from_utf8(buf).expect("collapsed stacks are UTF-8");
    }

    /// Serializes to the JSON document model.
    pub fn to_json(&self) -> Json {
        let machine = ObjBuilder::new()
            .field("os", Json::Str(self.machine.os.clone()))
            .field("arch", Json::Str(self.machine.arch.clone()))
            .field("cpus", Json::U64(self.machine.cpus))
            .build();
        let config = Json::Obj(
            self.config
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect(),
        );
        let metrics = Json::Arr(self.metrics.iter().map(metric_to_json).collect());
        let profile = Json::Arr(
            self.profile
                .iter()
                .map(|s| {
                    ObjBuilder::new()
                        .field("name", Json::Str(s.name.clone()))
                        .field("count", Json::U64(s.count))
                        .field("host_total_ns", Json::U64(s.host_total_ns))
                        .field("host_self_ns", Json::U64(s.host_self_ns))
                        .field("host_p50_ns", Json::U64(s.host_p50_ns))
                        .field("host_p90_ns", Json::U64(s.host_p90_ns))
                        .field("sim_total_ns", Json::U64(s.sim_total_ns))
                        .field("sim_self_ns", Json::U64(s.sim_self_ns))
                        .build()
                })
                .collect(),
        );
        ObjBuilder::new()
            .field("schema", Json::Str(self.schema.clone()))
            .field("topic", Json::Str(self.topic.clone()))
            .field("seed", Json::U64(self.seed))
            .field("smoke", Json::Bool(self.smoke))
            .field("machine", machine)
            .field("config", config)
            .field("metrics", metrics)
            .field("profile", profile)
            .field("collapsed", Json::Str(self.collapsed.clone()))
            .build()
    }

    /// The pretty-printed document (what lands on disk).
    pub fn to_pretty_string(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Parses an artifact, rejecting documents whose schema major differs
    /// from [`SCHEMA_MAJOR`]. A newer minor is accepted (unknown fields
    /// are ignored).
    pub fn parse(text: &str) -> Result<BenchArtifact, String> {
        let doc = Json::parse(text)?;
        let schema = req_str(&doc, "schema")?;
        let version = schema
            .strip_prefix("jitise-bench/")
            .ok_or_else(|| format!("not a jitise-bench artifact: schema {schema:?}"))?;
        let major: u64 = version
            .split('.')
            .next()
            .and_then(|m| m.parse().ok())
            .ok_or_else(|| format!("malformed schema version {schema:?}"))?;
        if major != SCHEMA_MAJOR {
            return Err(format!(
                "unsupported schema major {major} (this tool reads {SCHEMA_MAJOR}.x): {schema}"
            ));
        }
        let machine_doc = doc.get("machine").ok_or("missing `machine`")?;
        let machine = MachineInfo {
            os: req_str(machine_doc, "os")?,
            arch: req_str(machine_doc, "arch")?,
            cpus: req_u64(machine_doc, "cpus")?,
        };
        let config = match doc.get("config") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("config `{k}` is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing `config` object".into()),
        };
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or("missing `metrics` array")?
            .iter()
            .map(metric_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let profile = doc
            .get("profile")
            .and_then(Json::as_arr)
            .ok_or("missing `profile` array")?
            .iter()
            .map(|s| {
                Ok(ProfileStage {
                    name: req_str(s, "name")?,
                    count: req_u64(s, "count")?,
                    host_total_ns: req_u64(s, "host_total_ns")?,
                    host_self_ns: req_u64(s, "host_self_ns")?,
                    host_p50_ns: req_u64(s, "host_p50_ns")?,
                    host_p90_ns: req_u64(s, "host_p90_ns")?,
                    sim_total_ns: req_u64(s, "sim_total_ns")?,
                    sim_self_ns: req_u64(s, "sim_self_ns")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchArtifact {
            schema,
            topic: req_str(&doc, "topic")?,
            seed: req_u64(&doc, "seed")?,
            smoke: doc
                .get("smoke")
                .and_then(Json::as_bool)
                .ok_or("missing `smoke`")?,
            machine,
            config,
            metrics,
            profile,
            collapsed: req_str(&doc, "collapsed")?,
        })
    }
}

fn metric_to_json(m: &Metric) -> Json {
    let b = ObjBuilder::new()
        .field("name", Json::Str(m.name.clone()))
        .field("unit", Json::Str(m.unit.clone()));
    match &m.value {
        MetricValue::Exact(v) => b
            .field("kind", Json::Str("exact".into()))
            .field("value", Json::U64(*v))
            .build(),
        MetricValue::Host {
            reps,
            min_ns,
            median_ns,
            p90_ns,
        } => b
            .field("kind", Json::Str("host".into()))
            .field("reps", Json::U64(*reps))
            .field("min_ns", Json::F64(*min_ns))
            .field("median_ns", Json::F64(*median_ns))
            .field("p90_ns", Json::F64(*p90_ns))
            .build(),
        MetricValue::Info(v) => b
            .field("kind", Json::Str("info".into()))
            .field("value", Json::F64(*v))
            .build(),
    }
}

fn metric_from_json(doc: &Json) -> Result<Metric, String> {
    let name = req_str(doc, "name")?;
    let kind = req_str(doc, "kind")?;
    let value = match kind.as_str() {
        "exact" => MetricValue::Exact(req_u64(doc, "value")?),
        "host" => MetricValue::Host {
            reps: req_u64(doc, "reps")?,
            min_ns: req_f64(doc, "min_ns")?,
            median_ns: req_f64(doc, "median_ns")?,
            p90_ns: req_f64(doc, "p90_ns")?,
        },
        "info" => MetricValue::Info(req_f64(doc, "value")?),
        other => return Err(format!("metric `{name}`: unknown kind {other:?}")),
    };
    Ok(Metric {
        name,
        unit: req_str(doc, "unit")?,
        value,
    })
}

fn req_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn req_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing u64 field `{key}`"))
}

fn req_f64(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number field `{key}`"))
}

/// Gating knobs for [`check`].
#[derive(Debug, Clone, Copy)]
pub struct CheckPolicy {
    /// Relative slack on host-time minima: current regresses when
    /// `min > baseline_min * (1 + tolerance) + floor_ns`.
    pub tolerance: f64,
    /// Absolute slack, nanoseconds — keeps microsecond-scale sections
    /// from gating on scheduler jitter.
    pub floor_ns: f64,
}

impl Default for CheckPolicy {
    /// 50% relative + 5 ms absolute: generous enough for shared CI
    /// runners, tight enough to catch a 2× regression anywhere that
    /// matters.
    fn default() -> CheckPolicy {
        CheckPolicy {
            tolerance: 0.5,
            floor_ns: 5.0e6,
        }
    }
}

/// Outcome of gating one artifact pair.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Hard failures: the gate must exit non-zero.
    pub regressions: Vec<String>,
    /// Context worth printing (machine changed, metric improved, …).
    pub notes: Vec<String>,
}

impl CheckReport {
    /// True when no regression was found.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Gates `current` against `baseline` (see the module docs for class
/// semantics). Artifacts must describe the same workload — topic, seed,
/// smoke flag, and config all have to match, otherwise the comparison
/// itself is reported as a regression. A changed machine is a note, not a
/// failure: host tolerances absorb hardware drift, exact metrics don't
/// depend on it.
pub fn check(
    baseline: &BenchArtifact,
    current: &BenchArtifact,
    policy: &CheckPolicy,
) -> CheckReport {
    let mut report = CheckReport::default();
    let fail = &mut report.regressions;
    if baseline.topic != current.topic {
        fail.push(format!(
            "topic mismatch: baseline {:?} vs current {:?}",
            baseline.topic, current.topic
        ));
        return report;
    }
    if baseline.seed != current.seed {
        fail.push(format!(
            "{}: seed mismatch ({} vs {}) — runs are not comparable",
            baseline.topic, baseline.seed, current.seed
        ));
    }
    if baseline.smoke != current.smoke {
        fail.push(format!(
            "{}: scale mismatch (baseline smoke={}, current smoke={})",
            baseline.topic, baseline.smoke, current.smoke
        ));
    }
    if baseline.config != current.config {
        fail.push(format!(
            "{}: config mismatch — baseline {:?} vs current {:?}",
            baseline.topic, baseline.config, current.config
        ));
    }
    if !fail.is_empty() {
        return report;
    }
    if baseline.machine != current.machine {
        report.notes.push(format!(
            "{}: machine changed ({}/{}/{} cpus -> {}/{}/{} cpus); host tolerances apply",
            baseline.topic,
            baseline.machine.os,
            baseline.machine.arch,
            baseline.machine.cpus,
            current.machine.os,
            current.machine.arch,
            current.machine.cpus,
        ));
    }

    for base in &baseline.metrics {
        let Some(cur) = current.metric(&base.name) else {
            report.regressions.push(format!(
                "{}: metric `{}` disappeared",
                baseline.topic, base.name
            ));
            continue;
        };
        match (&base.value, &cur.value) {
            (MetricValue::Exact(b), MetricValue::Exact(c)) => {
                if b != c {
                    report.regressions.push(format!(
                        "{}: exact metric `{}` changed: {b} -> {c} (must be bit-identical)",
                        baseline.topic, base.name
                    ));
                }
            }
            (
                MetricValue::Host { min_ns: b, .. },
                MetricValue::Host {
                    min_ns: c, reps, ..
                },
            ) => {
                let limit = b * (1.0 + policy.tolerance) + policy.floor_ns;
                if *c > limit {
                    report.regressions.push(format!(
                        "{}: host metric `{}` regressed: min {:.0} ns -> {:.0} ns \
                         (limit {:.0} ns over {} reps)",
                        baseline.topic, base.name, b, c, limit, reps
                    ));
                } else if *c < b / (1.0 + policy.tolerance) - policy.floor_ns {
                    report.notes.push(format!(
                        "{}: host metric `{}` improved: min {:.0} ns -> {:.0} ns",
                        baseline.topic, base.name, b, c
                    ));
                }
            }
            (MetricValue::Info(b), MetricValue::Info(c)) => {
                if b != c {
                    report.notes.push(format!(
                        "{}: info metric `{}`: {b} -> {c} (not gated)",
                        baseline.topic, base.name
                    ));
                }
            }
            (b, c) => {
                report.regressions.push(format!(
                    "{}: metric `{}` changed class: {b:?} -> {c:?}",
                    baseline.topic, base.name
                ));
            }
        }
    }
    for cur in &current.metrics {
        if baseline.metric(&cur.name).is_none() {
            report.notes.push(format!(
                "{}: new metric `{}` (absent from baseline)",
                baseline.topic, cur.name
            ));
        }
    }
    report
}
