//! Unit tests of the benchmark's own machinery: exact quantiles, the
//! `compare` verdicts, the result-JSON round trip, and agreement between
//! `BENCHMARK.json` and the metric tables in the code.

use jitise_base::json::Json;
use jitise_benchmark::compare::{exact_verdict, host_verdict, Verdict, END_TO_END_BOUNDS};
use jitise_benchmark::layers::LAYER_METRICS;
use jitise_benchmark::report::{Better, Env, Iterations, Kind, Metric, Spread, WorkloadResult};
use jitise_benchmark::stats::{geomean, nearest_rank, quartiles};

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
}

#[test]
fn medians_and_nearest_ranks_are_exact() {
    assert_eq!(quartiles(&[5.0, 1.0, 3.0]).1, 3.0);
    assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]).1, 2.5);
    let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
    assert_eq!(nearest_rank(&v, 0.50), 10.0);
    assert_eq!(nearest_rank(&v, 0.95), 19.0);
    assert_eq!(nearest_rank(&v, 1.0), 20.0);
    assert_eq!(nearest_rank(&[], 0.5), 0.0);
    assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
}

/// Ten samples around `base` with a ±1% wobble.
fn runs(base: f64) -> Vec<f64> {
    (0..10)
        .map(|i| base * (1.0 + 0.01 * ((i % 3) as f64 - 1.0)))
        .collect()
}

#[test]
fn host_verdicts_follow_the_pairing_rule() {
    let a = runs(1.0);
    let v = |b: &[f64]| host_verdict(Better::Lower, 0.10, &a, b).0;
    assert_eq!(v(&runs(0.8)), Verdict::Improved);
    assert_eq!(v(&runs(1.2)), Verdict::Regressed);
    assert_eq!(v(&runs(1.0)), Verdict::Unchanged);
    // Within the bound but worse: not a regression, not a gain.
    assert_eq!(v(&runs(1.05)), Verdict::Unchanged);
    assert_eq!(
        host_verdict(Better::Lower, 0.10, &a[..9], &runs(0.8)[..9]).0,
        Verdict::Unresolved,
        "fewer than ten pairs"
    );
    // A baseline spread wider than the bound cannot vouch for "unchanged".
    let wide: Vec<f64> = (0..10).map(|i| 1.0 + 0.1 * (i % 4) as f64).collect();
    let shifted: Vec<f64> = wide.iter().rev().copied().collect();
    assert_eq!(
        host_verdict(Better::Lower, 0.10, &wide, &shifted).0,
        Verdict::Unresolved
    );
    // Higher-is-better metrics flip the direction.
    assert_eq!(
        host_verdict(Better::Higher, 0.10, &a, &runs(1.3)).0,
        Verdict::Improved
    );
}

#[test]
fn exact_verdicts_demand_equality() {
    let a = [3.0, 5.0];
    assert_eq!(exact_verdict(Better::Lower, &a, &a).0, Verdict::Unchanged);
    assert_eq!(
        exact_verdict(Better::Lower, &a, &[2.0, 4.0]).0,
        Verdict::Improved
    );
    assert_eq!(
        exact_verdict(Better::Lower, &a, &[4.0, 6.0]).0,
        Verdict::Regressed
    );
    assert_eq!(
        exact_verdict(Better::Lower, &a, &[2.0, 6.0]).0,
        Verdict::Unresolved
    );
}

#[test]
fn result_json_round_trips() {
    let result = WorkloadResult {
        workload: "serve-fleet".into(),
        seed: 7,
        env: Env {
            nproc: 2,
            cpu: "Some \"quoted\" CPU".into(),
            kernel: "Linux 6.1".into(),
            store_fs: "ext4".into(),
        },
        iterations: Iterations {
            setup: 15,
            warmup: 1,
            timed: 17,
            traced: 1,
        },
        attempted: 3838,
        failed: 1,
        failures: vec!["tenant 3: wrong answer".into()],
        end_to_end: vec![Metric {
            spread: Some(Spread {
                n: 17,
                q1: 0.1 + 0.2,
                q3: 1e-9,
            }),
            ..Metric::host("wall_s", "s", Better::Lower, 0.876_197_648)
        }],
        per_layer: vec![
            Metric::exact(
                "sim_speedup",
                "ratio",
                Better::Higher,
                1.230_107_692_654_959,
            ),
            Metric::exact("store.bytes_written", "bytes", Better::Lower, 939_050.0),
            Metric::host("vm.busy_s", "s", Better::Lower, 0.0),
        ],
    };
    let text = result.to_json().to_pretty();
    let back = WorkloadResult::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, result);
    assert!(!back.correct());
    assert_eq!(back.metric("sim_speedup").unwrap().kind, Kind::Exact);
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let b = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = |k: &str| b.get(k).and_then(Json::as_arr).unwrap().to_vec();
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();

    let e2e = list("end_to_end");
    assert_eq!(e2e.len(), END_TO_END_BOUNDS.len());
    for (name, bound) in END_TO_END_BOUNDS {
        let m = e2e
            .iter()
            .find(|m| field(m, "name") == name)
            .unwrap_or_else(|| panic!("{name} missing from BENCHMARK.json"));
        assert_eq!(m.get("bound").and_then(Json::as_f64), Some(bound), "{name}");
        assert_eq!(field(m, "better"), "lower", "{name}");
    }

    let per_layer = list("per_layer");
    assert_eq!(per_layer.len(), LAYER_METRICS.len());
    for (m, &(name, unit, better, _)) in per_layer.iter().zip(LAYER_METRICS) {
        assert_eq!(field(m, "name"), name);
        assert_eq!(field(m, "unit"), unit, "{name}");
        let want = match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        assert_eq!(field(m, "better"), want, "{name}");
    }
}
