//! Host-clock measurement for the `bench` topics.
//!
//! Repetition statistics, not single shots: every timed section runs
//! `reps` times and reports min/median/p90 nanoseconds. The regression
//! gate compares the *min* — for CPU-bound work the noise is one-sided
//! (preemption, cold caches only ever add time), so the minimum is the
//! stablest location statistic a handful of repetitions can give.

use crate::schema::MetricValue;
use std::time::Instant;

/// Wall-clock statistics over repeated runs of one section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSample {
    /// Repetitions measured.
    pub reps: u64,
    /// Fastest repetition, nanoseconds.
    pub min_ns: f64,
    /// Median repetition, nanoseconds.
    pub median_ns: f64,
    /// 90th-percentile repetition, nanoseconds.
    pub p90_ns: f64,
}

impl HostSample {
    /// The sample as a [`MetricValue::Host`].
    pub fn metric(&self) -> MetricValue {
        MetricValue::Host {
            reps: self.reps,
            min_ns: self.min_ns,
            median_ns: self.median_ns,
            p90_ns: self.p90_ns,
        }
    }
}

/// Runs `f` once untimed (warm-up: page-in, lazy statics, allocator
/// growth), then `reps` timed repetitions.
pub fn measure_host(reps: usize, mut f: impl FnMut()) -> HostSample {
    f();
    measure_host_cold(reps, f)
}

/// Like [`measure_host`] but without the warm-up run — for sections whose
/// cold cost *is* the measurement (e.g. store recovery).
pub fn measure_host_cold(reps: usize, mut f: impl FnMut()) -> HostSample {
    let reps = reps.max(1);
    let mut samples: Vec<f64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    samples.sort_by(f64::total_cmp);
    HostSample {
        reps: reps as u64,
        min_ns: samples[0],
        median_ns: percentile(&samples, 0.5),
        p90_ns: percentile(&samples, 0.9),
    }
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_ordered_and_counted() {
        let mut calls = 0u32;
        let s = measure_host(5, || calls += 1);
        assert_eq!(calls, 6, "warm-up + 5 timed reps");
        assert_eq!(s.reps, 5);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.p90_ns);
    }

    #[test]
    fn cold_variant_skips_warmup() {
        let mut calls = 0u32;
        let s = measure_host_cold(3, || calls += 1);
        assert_eq!(calls, 3);
        assert_eq!(s.reps, 3);
    }

    #[test]
    fn single_rep_degenerates_gracefully() {
        let s = measure_host_cold(1, || std::hint::black_box(()));
        assert_eq!(
            (s.min_ns, s.median_ns, s.p90_ns),
            (s.min_ns, s.min_ns, s.min_ns)
        );
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
    }
}
