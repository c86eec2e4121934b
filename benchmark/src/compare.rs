//! `benchmark compare A/ B/`: decides, per (metric, workload), whether
//! the runs in `B` improved, regressed, left unchanged, or cannot resolve
//! a metric against the runs in `A`.
//!
//! Runs pair up by workload and seed (sorted), so run the two sides with
//! the same seeds, alternating which side goes first. The rule:
//!
//! * host end-to-end metrics need at least 10 pairs. `improved` needs the
//!   change to win at least 9/10 of the pairs (ties count for neither)
//!   and the medians to differ by more than the spread of `A` (its
//!   interquartile range). `regressed` means `B`'s median is worse than
//!   `A`'s by more than the metric's bound. When `A`'s spread is wider
//!   than the bound the metric is `unresolved` rather than `unchanged`,
//!   unless every run of `B` beats every run of `A`;
//! * exact metrics (SimTime and counts) must be equal in every pair:
//!   equal is `unchanged`, better in every pair `improved`, worse in
//!   every pair `regressed`, anything else `unresolved`;
//! * `failed_frac` regresses when `B` fails more operations than `A`.

use crate::report::{Better, Kind, WorkloadResult};
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::fmt;

/// Fewest pairs a host-metric verdict may rest on.
pub const MIN_PAIRS: usize = 10;

/// End-to-end metrics with the share of the baseline median by which each
/// may worsen before it counts as a regression. On a shared two-CPU host
/// the run medians of wall and CPU time spread by up to 14% over ten runs
/// when neighbours are busy, so their bound is 20%; peak memory spreads
/// by about 3%. `setup_s` (millisecond set-ups on some workloads) gets the
/// widest bound.
pub const END_TO_END_BOUNDS: [(&str, f64); 4] = [
    ("wall_s", 0.20),
    ("cpu_s", 0.20),
    ("setup_s", 0.25),
    ("peak_rss_mb", 0.10),
];

/// The outcome for one (metric, workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better, by the rule above.
    Improved,
    /// The change is worse by more than the bound (or exactly worse).
    Regressed,
    /// No difference the rule can see.
    Unchanged,
    /// Too few pairs, mixed exact changes, or a spread wider than the
    /// bound.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Pairs compared.
    pub pairs: usize,
    /// Median over `A`.
    pub median_a: f64,
    /// Median over `B`.
    pub median_b: f64,
    /// Why, in a few words.
    pub note: String,
}

/// Is `b` better than `a` in direction `better`?
fn beats(better: Better, b: f64, a: f64) -> bool {
    match better {
        Better::Lower => b < a,
        Better::Higher => b > a,
    }
}

/// Verdict for one host metric over paired samples.
pub fn host_verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> (Verdict, String) {
    let n = a.len().min(b.len());
    if n < MIN_PAIRS {
        return (Verdict::Unresolved, format!("{n} pairs, need {MIN_PAIRS}"));
    }
    let (a, b) = (&a[..n], &b[..n]);
    let wins = a
        .iter()
        .zip(b)
        .filter(|&(&x, &y)| beats(better, y, x))
        .count();
    let (q1, med_a, q3) = quartiles(a);
    let med_b = quartiles(b).1;
    let spread = q3 - q1;
    let worse = match better {
        Better::Lower => (med_b - med_a) / med_a,
        Better::Higher => (med_a - med_b) / med_a,
    };
    let note = format!(
        "wins {wins}/{n}, change {:+.2}%, spread {:.2}%",
        -worse * 100.0,
        spread / med_a * 100.0
    );
    let all_better = b.iter().all(|&y| a.iter().all(|&x| beats(better, y, x)));
    let verdict =
        if wins * 10 >= n * 9 && beats(better, med_b, med_a) && (med_b - med_a).abs() > spread {
            Verdict::Improved
        } else if worse > bound {
            Verdict::Regressed
        } else if spread / med_a > bound && !all_better {
            Verdict::Unresolved
        } else {
            Verdict::Unchanged
        };
    (verdict, note)
}

/// Verdict for one exact metric over paired values.
pub fn exact_verdict(better: Better, a: &[f64], b: &[f64]) -> (Verdict, String) {
    let n = a.len().min(b.len());
    let pairs: Vec<(f64, f64)> = a.iter().copied().zip(b.iter().copied()).collect();
    let differ = pairs
        .iter()
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count();
    let verdict = if n == 0 {
        Verdict::Unresolved
    } else if differ == 0 {
        Verdict::Unchanged
    } else if pairs.iter().all(|&(x, y)| beats(better, y, x)) {
        Verdict::Improved
    } else if pairs.iter().all(|&(x, y)| beats(better, x, y)) {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    };
    (verdict, format!("{differ}/{n} pairs differ"))
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        quartiles(v).1
    }
}

/// Compares two sets of results.
pub fn compare(a: &[WorkloadResult], b: &[WorkloadResult]) -> Vec<Row> {
    let group = |set: &[WorkloadResult]| {
        let mut by: BTreeMap<String, Vec<WorkloadResult>> = BTreeMap::new();
        for r in set {
            by.entry(r.workload.clone()).or_default().push(r.clone());
        }
        for runs in by.values_mut() {
            runs.sort_by_key(|r| r.seed);
        }
        by
    };
    let (ga, gb) = (group(a), group(b));
    let mut rows = Vec::new();
    for (workload, ra) in &ga {
        let Some(rb) = gb.get(workload) else { continue };
        let n = ra.len().min(rb.len());
        let (ra, rb) = (&ra[..n], &rb[..n]);
        let seeds_match = ra.iter().zip(rb).all(|(x, y)| x.seed == y.seed);
        let mut row = |metric: &str, (verdict, note): (Verdict, String), va: &[f64], vb: &[f64]| {
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.to_string(),
                verdict: if seeds_match {
                    verdict
                } else {
                    Verdict::Unresolved
                },
                pairs: n,
                median_a: median(va),
                median_b: median(vb),
                note: if seeds_match {
                    note
                } else {
                    "seeds differ between the sides".into()
                },
            });
        };
        let values = |runs: &[WorkloadResult], name: &str| -> Vec<f64> {
            runs.iter()
                .filter_map(|r| r.metric(name))
                .map(|m| m.value)
                .collect()
        };
        for (name, bound) in END_TO_END_BOUNDS {
            let (va, vb) = (values(ra, name), values(rb, name));
            row(name, host_verdict(Better::Lower, bound, &va, &vb), &va, &vb);
        }
        let fa: Vec<f64> = ra.iter().map(WorkloadResult::failed_frac).collect();
        let fb: Vec<f64> = rb.iter().map(WorkloadResult::failed_frac).collect();
        let failed = if fb.iter().sum::<f64>() > fa.iter().sum::<f64>() {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        };
        row("failed_frac", (failed, String::new()), &fa, &fb);
        let Some(first) = ra.first() else { continue };
        for m in first.per_layer.iter().filter(|m| m.kind == Kind::Exact) {
            let (va, vb) = (values(ra, &m.name), values(rb, &m.name));
            row(&m.name, exact_verdict(m.better, &va, &vb), &va, &vb);
        }
    }
    rows
}
