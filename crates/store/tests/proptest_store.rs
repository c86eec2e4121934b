//! Property tests for the store's committed-prefix recovery invariant:
//! for *any* record sequence and *any* truncation point, corruption, or
//! crash budget, reopening the directory restores exactly the fold of
//! the longest committed record prefix — never more, never less, never
//! an error.

use jitise_faults::{CrashSwitch, FaultInjector, FaultPlan, FaultSite, StoreCrash};
use jitise_store::tempdir::TempDir;
use jitise_store::testfix::sample_entry;
use jitise_store::{FaultTotals, Record, RecoveryReport, Store, StoreOptions, StoreState};
use jitise_telemetry::{names, Telemetry};
use proptest::prelude::*;

/// Maps a `(kind, sig)` draw onto one of the three record shapes.
fn mk_record(kind: u8, sig: u64) -> Record {
    match kind {
        0 => Record::CacheEntry(sample_entry(sig)),
        1 => Record::Quarantine {
            signature: sig,
            reason: format!("injected-{sig}"),
        },
        _ => Record::FaultTotals(FaultTotals {
            sessions: sig,
            retries: sig / 2,
            quarantined: sig % 3,
            fault_time_ns: sig.wrapping_mul(11),
        }),
    }
}

fn mk_records(draws: &[(u8, u64)]) -> Vec<Record> {
    draws.iter().map(|&(k, s)| mk_record(k, s)).collect()
}

/// Writes `records` through a default store at `dir` and returns the WAL
/// path (everything lands in the log: the default compaction threshold is
/// far above anything these sequences produce).
fn populate(dir: &TempDir, records: &[Record]) -> std::path::PathBuf {
    let store = Store::open(dir.path()).expect("open fresh store");
    for rec in records {
        store.append(rec.clone()).expect("append");
    }
    dir.path().join("wal.log")
}

/// Byte offsets of each commit boundary in the WAL: the header, then one
/// entry per record. Derived from observed file growth, not from private
/// framing internals.
fn commit_boundaries(records: &[Record]) -> Vec<usize> {
    let dir = TempDir::new("prop-bounds");
    let store = Store::open(dir.path()).expect("open");
    let wal = dir.path().join("wal.log");
    let mut bounds = vec![std::fs::metadata(&wal).expect("wal exists").len() as usize];
    for rec in records {
        store.append(rec.clone()).expect("append");
        bounds.push(std::fs::metadata(&wal).expect("wal exists").len() as usize);
    }
    bounds
}

/// Everything one session leaves behind that batching must not change.
#[derive(Debug, PartialEq)]
struct Twin {
    wal: Option<Vec<u8>>,
    snapshot: Option<Vec<u8>>,
    written: u64,
    live: String,
    appended: u64,
    failures: u64,
    recovery: RecoveryReport,
    recovered: String,
}

/// Runs `batches` through a store at `dir`, one `append_all` per batch or
/// one `append` per record, then reopens the directory. Returns what the
/// session left behind and its sync count.
fn twin_session(
    dir: &TempDir,
    opts: StoreOptions,
    batches: &[Vec<Record>],
    batched: bool,
) -> (Twin, u64) {
    let tel = Telemetry::enabled();
    let opts = StoreOptions {
        telemetry: tel.clone(),
        ..opts
    };
    let (live, written, syncs) = match Store::open_with(dir.path(), opts) {
        Ok(store) => {
            for batch in batches {
                if batched {
                    let _ = store.append_all(batch.clone());
                } else {
                    for rec in batch {
                        let _ = store.append(rec.clone());
                    }
                }
            }
            (store.fingerprint(), store.bytes_written(), store.syncs())
        }
        Err(_) => (StoreState::default().fingerprint(), 0, 0),
    };
    let file = |name: &str| std::fs::read(dir.path().join(name)).ok();
    let (wal, snapshot) = (file("wal.log"), file("snapshot.bin"));
    let recovered = Store::open(dir.path()).expect("recovery never fails");
    let snap = tel.snapshot();
    let twin = Twin {
        wal,
        snapshot,
        written,
        live,
        appended: snap.counter(names::STORE_RECORDS_APPENDED),
        failures: snap.counter(names::STORE_APPEND_FAILURES),
        recovery: recovered.recovery().clone(),
        recovered: recovered.fingerprint(),
    };
    (twin, syncs)
}

/// Fingerprints of every prefix fold of `records` (0..=n records).
fn prefix_fingerprints(records: &[Record]) -> Vec<String> {
    (0..=records.len())
        .map(|k| StoreState::from_records(records[..k].to_vec()).fingerprint())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_sequence_roundtrips_through_reopen(
        draws in prop::collection::vec((0u8..3, 1u64..64), 0..10),
    ) {
        let records = mk_records(&draws);
        let expected = StoreState::from_records(records.clone()).fingerprint();
        let dir = TempDir::new("prop-roundtrip");
        populate(&dir, &records);
        let store = Store::open(dir.path()).expect("reopen");
        prop_assert_eq!(store.fingerprint(), expected);
        prop_assert_eq!(store.recovery().records_recovered, records.len() as u64);
        prop_assert_eq!(
            store.recovery().torn_tails_dropped + store.recovery().crc_dropped,
            0
        );
    }

    #[test]
    fn any_truncation_recovers_exactly_the_longest_committed_prefix(
        draws in prop::collection::vec((0u8..3, 1u64..64), 1..10),
        cut_frac in 0.0f64..1.0,
    ) {
        let records = mk_records(&draws);
        let dir = TempDir::new("prop-torn");
        let wal = populate(&dir, &records);
        let full = std::fs::read(&wal).expect("read wal");
        let cut = (cut_frac * full.len() as f64) as usize;
        std::fs::write(&wal, &full[..cut]).expect("truncate wal");

        let bounds = commit_boundaries(&records);
        prop_assert_eq!(*bounds.last().unwrap(), full.len());
        // Number of commit boundaries at or below the cut; the first is
        // the header (0 records), so subtract one. A cut inside the
        // header drops the whole log → 0 records.
        let committed = bounds.iter().filter(|&&b| b <= cut).count().saturating_sub(1);
        let expected = StoreState::from_records(records[..committed].to_vec()).fingerprint();

        let store = Store::open(dir.path()).expect("recovery never fails");
        prop_assert_eq!(store.fingerprint(), expected, "cut {} of {}", cut, full.len());
    }

    #[test]
    fn any_bit_flip_recovers_some_committed_prefix(
        draws in prop::collection::vec((0u8..3, 1u64..64), 1..8),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let records = mk_records(&draws);
        let dir = TempDir::new("prop-flip");
        let wal = populate(&dir, &records);
        let mut bytes = std::fs::read(&wal).expect("read wal");
        let pos = ((pos_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        std::fs::write(&wal, &bytes).expect("write damaged wal");

        let store = Store::open(dir.path()).expect("recovery never fails");
        let folds = prefix_fingerprints(&records);
        let got = store.fingerprint();
        prop_assert!(
            folds.contains(&got),
            "flip at byte {} bit {}: recovered {} is not a committed prefix",
            pos, bit, got
        );
    }

    #[test]
    fn any_crash_budget_recovers_exactly_the_acked_records(
        draws in prop::collection::vec((0u8..3, 1u64..64), 1..8),
        budget_frac in 0.0f64..1.0,
    ) {
        let records = mk_records(&draws);
        // Probe the clean session's write volume to scale the budget.
        let total = {
            let dir = TempDir::new("prop-crash-probe");
            let store = Store::open(dir.path()).expect("open");
            for rec in &records {
                store.append(rec.clone()).expect("append");
            }
            store.bytes_written()
        };
        let budget = (budget_frac * total as f64) as u64;

        let dir = TempDir::new("prop-crash");
        let opts = StoreOptions {
            crash: CrashSwitch::armed(StoreCrash { after_bytes: budget }),
            ..StoreOptions::default()
        };
        let mut committed = Vec::new();
        if let Ok(store) = Store::open_with(dir.path(), opts) {
            for rec in &records {
                if store.append(rec.clone()).is_ok() {
                    committed.push(rec.clone());
                }
            }
        }
        let store = Store::open(dir.path()).expect("recovery never fails");
        prop_assert_eq!(
            store.fingerprint(),
            StoreState::from_records(committed).fingerprint(),
            "budget {} of {}", budget, total
        );
    }

    #[test]
    fn batches_write_what_per_record_appends_write(
        draws in prop::collection::vec((0u8..3, 1u64..64), 1..16),
        splits in prop::collection::vec(0u8..3, 16..17),
        threshold in 0u64..600,
        crash in (any::<bool>(), 0.0f64..1.0),
        wal_rate in prop::sample::select(vec![0.0, 0.3, 1.0]),
    ) {
        let records = mk_records(&draws);
        // Cut the sequence into batches wherever a split draw is 0.
        let mut batches = vec![Vec::new()];
        for (rec, split) in records.iter().zip(&splits) {
            batches.last_mut().expect("one batch").push(rec.clone());
            if *split == 0 {
                batches.push(Vec::new());
            }
        }
        let faults = || {
            FaultInjector::from_plan(
                FaultPlan::none(draws[0].1).with_rate(FaultSite::StoreWal, wal_rate),
            )
        };
        let opts = |crash: CrashSwitch| StoreOptions {
            compact_threshold: threshold,
            crash,
            faults: faults(),
            ..StoreOptions::default()
        };
        // Scale the crash budget to the clean session's write volume.
        let total = {
            let dir = TempDir::new("prop-twin-probe");
            let store = Store::open_with(dir.path(), opts(CrashSwitch::disabled())).expect("open");
            for rec in &records {
                let _ = store.append(rec.clone());
            }
            store.bytes_written()
        };
        let switch = || match crash {
            (true, frac) => CrashSwitch::armed(StoreCrash {
                after_bytes: (frac * total as f64) as u64,
            }),
            (false, _) => CrashSwitch::disabled(),
        };
        let (each_dir, batch_dir) = (TempDir::new("prop-twin-each"), TempDir::new("prop-twin-batch"));
        let (each, each_syncs) = twin_session(&each_dir, opts(switch()), &batches, false);
        let (batched, batch_syncs) = twin_session(&batch_dir, opts(switch()), &batches, true);
        let context = format!("threshold {threshold} crash {crash:?} of {total} rate {wal_rate}");
        if wal_rate == 0.0 {
            // Corruption is silent in-session, so only a clean log must
            // recover exactly what was acknowledged.
            prop_assert_eq!(&batched.recovered, &batched.live, "recovered != acknowledged: {}", context);
        }
        prop_assert_eq!(batched, each, "{}", context);
        prop_assert!(batch_syncs <= each_syncs, "{}", context);
    }
}
