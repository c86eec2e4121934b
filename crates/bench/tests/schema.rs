//! Integration tests for the `BENCH_*` artifact schema and the
//! regression gate: JSON round-trips, schema-version rejection, and the
//! class-by-class gating semantics of [`jitise_bench::schema::check`].

use jitise_bench::schema::{
    check, BenchArtifact, CheckPolicy, MetricValue, ProfileStage, SCHEMA_MAJOR, SCHEMA_VERSION,
};

/// A representative artifact exercising every metric class plus the
/// profile and collapsed-stack sections.
fn sample() -> BenchArtifact {
    let mut a = BenchArtifact::new("search", 2011, false);
    a.config("loops", 24);
    a.config("iters", 2000);
    a.exact("identify.work", "units", 123_456_789);
    a.exact("fingerprint", "hash", u64::MAX); // > 2^53: must survive JSON
    a.push(
        "search.cold.w1",
        "ns",
        MetricValue::Host {
            reps: 5,
            min_ns: 1.25e6,
            median_ns: 1.5e6,
            p90_ns: 2.0e6,
        },
    );
    a.info("vm.sweep.mips", "mips", 312.5);
    a.profile.push(ProfileStage {
        name: "pipeline.specialize".into(),
        count: 1,
        host_total_ns: 9_000,
        host_self_ns: 4_000,
        host_p50_ns: 8_191,
        host_p90_ns: 8_191,
        sim_total_ns: 100_000_000_000,
        sim_self_ns: 35_000_000_000,
    });
    a.collapsed = "pipeline.specialize;cad.par 65000000000\n".into();
    a
}

#[test]
fn artifact_roundtrips_through_pretty_json() {
    let art = sample();
    let text = art.to_pretty_string();
    let back = BenchArtifact::parse(&text).expect("own output must parse");
    assert_eq!(back, art);
    // And the re-serialization is byte-stable (insertion-order keys).
    assert_eq!(back.to_pretty_string(), text);
}

#[test]
fn u64_metrics_survive_exactly() {
    // Values beyond 2^53 would be mangled by a float-based JSON layer;
    // the schema must carry them bit-for-bit.
    let mut a = BenchArtifact::new("t", 0, true);
    a.exact("big", "sim_ns", (1u64 << 63) + 12345);
    let back = BenchArtifact::parse(&a.to_pretty_string()).unwrap();
    assert_eq!(
        back.metric("big").unwrap().value,
        MetricValue::Exact((1u64 << 63) + 12345)
    );
}

#[test]
fn foreign_schema_majors_are_rejected() {
    let mut art = sample();
    art.schema = "jitise-bench/2.0".into();
    let err = BenchArtifact::parse(&art.to_pretty_string()).unwrap_err();
    assert!(
        err.contains("unsupported schema major 2"),
        "unexpected error: {err}"
    );

    art.schema = "someone-else/1.0".into();
    let err = BenchArtifact::parse(&art.to_pretty_string()).unwrap_err();
    assert!(err.contains("not a jitise-bench artifact"));

    // A newer minor of our major is fine: fields only ever get added.
    art.schema = format!("jitise-bench/{SCHEMA_MAJOR}.9");
    assert!(BenchArtifact::parse(&art.to_pretty_string()).is_ok());
    assert!(SCHEMA_VERSION.starts_with(&format!("jitise-bench/{SCHEMA_MAJOR}.")));
}

#[test]
fn check_accepts_identical_artifacts() {
    let art = sample();
    let report = check(&art, &art.clone(), &CheckPolicy::default());
    assert!(report.ok(), "regressions: {:?}", report.regressions);
    assert!(report.notes.is_empty(), "notes: {:?}", report.notes);
}

#[test]
fn check_flags_exact_drift_bit_for_bit() {
    let base = sample();
    let mut cur = base.clone();
    match &mut cur.metrics[0].value {
        MetricValue::Exact(v) => *v += 1,
        other => panic!("expected exact, got {other:?}"),
    }
    let report = check(&base, &cur, &CheckPolicy::default());
    assert!(!report.ok());
    assert!(report.regressions[0].contains("must be bit-identical"));
}

#[test]
fn check_bands_host_time_and_floors_jitter() {
    let base = sample();
    let policy = CheckPolicy {
        tolerance: 0.5,
        floor_ns: 0.0,
    };
    // Within tolerance: fine, no note either (not an improvement).
    let mut cur = base.clone();
    set_host_min(&mut cur, 1.25e6 * 1.4);
    assert!(check(&base, &cur, &policy).ok());
    // Beyond tolerance: regression.
    set_host_min(&mut cur, 1.25e6 * 1.6);
    let report = check(&base, &cur, &policy);
    assert!(!report.ok());
    assert!(report.regressions[0].contains("regressed"));
    // The same excursion under the default 5 ms floor is absorbed — a
    // millisecond-scale section cannot gate on microsecond jitter.
    assert!(check(&base, &cur, &CheckPolicy::default()).ok());
    // A large improvement is a note, never a failure.
    set_host_min(&mut cur, 1.25e6 / 10.0);
    let report = check(&base, &cur, &policy);
    assert!(report.ok());
    assert!(report.notes.iter().any(|n| n.contains("improved")));
}

#[test]
fn check_flags_missing_metrics_and_class_changes() {
    let base = sample();

    let mut cur = base.clone();
    cur.metrics.retain(|m| m.name != "identify.work");
    let report = check(&base, &cur, &CheckPolicy::default());
    assert!(!report.ok());
    assert!(report.regressions[0].contains("disappeared"));

    let mut cur = base.clone();
    cur.metrics[0].value = MetricValue::Info(123_456_789.0);
    let report = check(&base, &cur, &CheckPolicy::default());
    assert!(!report.ok());
    assert!(report.regressions[0].contains("changed class"));
}

#[test]
fn check_refuses_incomparable_workloads() {
    let base = sample();

    let mut cur = base.clone();
    cur.seed = 7;
    assert!(!check(&base, &cur, &CheckPolicy::default()).ok());

    let mut cur = base.clone();
    cur.smoke = true;
    assert!(!check(&base, &cur, &CheckPolicy::default()).ok());

    let mut cur = base.clone();
    cur.config[0].1 = "48".into();
    assert!(!check(&base, &cur, &CheckPolicy::default()).ok());

    // A machine change alone is a note, not a regression: host
    // tolerances absorb hardware drift.
    let mut cur = base.clone();
    cur.machine.cpus += 8;
    let report = check(&base, &cur, &CheckPolicy::default());
    assert!(report.ok());
    assert!(report.notes.iter().any(|n| n.contains("machine changed")));
}

#[test]
fn info_metrics_are_never_gated() {
    let base = sample();
    let mut cur = base.clone();
    match &mut cur.metrics[3].value {
        MetricValue::Info(v) => *v *= 100.0,
        other => panic!("expected info, got {other:?}"),
    }
    let report = check(&base, &cur, &CheckPolicy::default());
    assert!(report.ok());
    assert!(report.notes.iter().any(|n| n.contains("not gated")));
}

#[test]
fn new_metrics_are_notes_only() {
    let base = sample();
    let mut cur = base.clone();
    cur.exact("brand.new", "count", 1);
    let report = check(&base, &cur, &CheckPolicy::default());
    assert!(report.ok());
    assert!(report.notes.iter().any(|n| n.contains("new metric")));
}

#[test]
fn check_gates_the_profile_sim_columns_and_stacks_bit_for_bit() {
    let base = sample();

    // Host columns are context: any drift passes without a regression.
    let mut cur = base.clone();
    cur.profile[0].host_total_ns *= 3;
    cur.profile[0].host_self_ns += 1;
    assert!(check(&base, &cur, &CheckPolicy::default()).ok());

    for column in ["count", "sim_total_ns", "sim_self_ns"] {
        let mut cur = base.clone();
        let stage = &mut cur.profile[0];
        match column {
            "count" => stage.count += 1,
            "sim_total_ns" => stage.sim_total_ns += 1,
            _ => stage.sim_self_ns -= 1,
        }
        let report = check(&base, &cur, &CheckPolicy::default());
        assert!(!report.ok(), "{column} drift must fail");
        assert!(
            report.regressions[0].contains(column),
            "{:?}",
            report.regressions
        );
    }

    let mut cur = base.clone();
    cur.profile.clear();
    let report = check(&base, &cur, &CheckPolicy::default());
    assert!(report.regressions[0].contains("disappeared"));

    // A stage only the current run has is a note, like a new metric.
    let mut cur = base.clone();
    let mut extra = cur.profile[0].clone();
    extra.name = "store.append".into();
    cur.profile.push(extra);
    let report = check(&base, &cur, &CheckPolicy::default());
    assert!(report.ok());
    assert!(report.notes.iter().any(|n| n.contains("new profile stage")));

    // One edited stack weight fails, and the message names the line.
    let mut cur = base.clone();
    cur.collapsed = "pipeline.specialize;cad.par 65000000001\n".into();
    let report = check(&base, &cur, &CheckPolicy::default());
    assert!(!report.ok());
    assert!(
        report.regressions[0].contains("collapsed stacks changed")
            && report.regressions[0].contains("line 1"),
        "{:?}",
        report.regressions
    );
    // So does a stack line that only one side has.
    cur.collapsed = format!("{}extra;stage 1\n", base.collapsed);
    let report = check(&base, &cur, &CheckPolicy::default());
    assert!(report.regressions[0].contains("\"<end>\" -> \"extra;stage 1\""));
}

fn set_host_min(art: &mut BenchArtifact, v: f64) {
    match &mut art.metrics[2].value {
        MetricValue::Host { min_ns, .. } => *min_ns = v,
        other => panic!("expected host, got {other:?}"),
    }
}
