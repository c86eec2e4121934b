//! # jitise-store — crash-consistent persistence for the ASIP-SP session
//!
//! The paper's break-even argument (§VI-A) charges every candidate the
//! full CAD-flow generation time the *first* time it is specialized; a
//! bitstream cache amortizes that cost within one run. This crate makes
//! the amortization survive process death: a versioned on-disk store
//! holding the bitstream cache, the quarantine set, and the fault-ledger
//! totals, so a *second session* of the same application starts warm and
//! reaches break-even sooner.
//!
//! ## Design
//!
//! Two files per store directory:
//!
//! * `wal.log` — an append-only write-ahead log. One header frame
//!   (magic + generation) followed by one CRC-framed [`Record`] per
//!   committed fact. Frames use [`jitise_base::codec::frame`]:
//!   `[len: u32 LE][crc32: u32 LE][payload]`.
//! * `snapshot.bin` — a single CRC-framed image of the folded
//!   [`StoreState`], replaced atomically (write-temp → fsync → rename)
//!   when the WAL grows past [`StoreOptions::compact_threshold`].
//!
//! Records are idempotent upserts, so recovery needs no sequence
//! numbers: load the snapshot (if readable), replay the WAL on top
//! (unless its generation is older than the snapshot's — then it was
//! already folded in), and stop at the first torn or corrupt frame.
//! Recovery never fails: any unreadable piece is dropped, and what
//! remains is exactly the longest committed prefix — never an
//! uncommitted suffix, never a half-applied record.
//!
//! Crash points are simulated, not real: every byte headed for disk is
//! metered through a [`jitise_faults::CrashSwitch`], and the `pipeline`
//! bench topic's crash section sweeps the crash budget across a whole app
//! session, asserting the committed-prefix invariant at every point.
//!
//! Appends are group commits: [`Store::append_all`] writes a batch of
//! records with one write and one sync, and the bytes on disk are those
//! of one [`Store::append`] per record, so every crash point is reachable
//! by budget alone.

pub mod record;
pub mod tempdir;
pub mod testfix;

mod wal;

pub use record::{CiRecord, FaultTotals, Record, StoreState};
pub use tempdir::TempDir;

use jitise_base::codec::{frame, read_frame, Decoder, Encoder, FrameRead};
use jitise_base::sync::Mutex;
use jitise_base::{Error, Result};
use jitise_faults::{CrashSwitch, FaultInjector, FaultSite};
use jitise_telemetry::{names, Telemetry, Value};
use std::path::{Path, PathBuf};
use wal::LogFile;

/// WAL file name inside the store directory.
const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside the store directory.
const SNAP_FILE: &str = "snapshot.bin";
/// WAL header magic (first frame of every log generation).
const WAL_MAGIC: &str = "JITISE-STORE-WAL-1";
/// Snapshot payload magic.
const SNAP_MAGIC: &str = "JITISE-STORE-SNAP-1";
/// Upper bound on a declared frame payload length; a flipped length bit
/// must not drive an enormous read.
const MAX_FRAME_LEN: u32 = 1 << 28;

/// Store construction knobs.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Compact (fold the WAL into a fresh snapshot) once the log exceeds
    /// this many bytes.
    pub compact_threshold: u64,
    /// Telemetry sink for store metrics and recovery events.
    pub telemetry: Telemetry,
    /// Simulated crash point (byte budget) for crash testing.
    pub crash: CrashSwitch,
    /// Fault injector; [`FaultSite::StoreWal`] corrupts framed record
    /// bytes between commit and platter (silent media corruption).
    pub faults: FaultInjector,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            compact_threshold: 256 * 1024,
            telemetry: Telemetry::disabled(),
            crash: CrashSwitch::disabled(),
            faults: FaultInjector::disabled(),
        }
    }
}

/// What [`Store::open`] found and salvaged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation of the snapshot that was loaded (0 if none).
    pub snapshot_generation: u64,
    /// The snapshot file existed but was unreadable and got dropped.
    pub snapshot_dropped: bool,
    /// The WAL predated the snapshot (a compaction crashed between the
    /// snapshot rename and the log reset) and was skipped — its records
    /// were already folded into the snapshot.
    pub wal_stale: bool,
    /// WAL records replayed on top of the snapshot.
    pub records_recovered: u64,
    /// Torn (incomplete) tail frames discarded.
    pub torn_tails_dropped: u64,
    /// Structurally complete frames discarded for a CRC/decode failure.
    pub crc_dropped: u64,
    /// Snapshot cache entries discarded for a bitstream CRC failure.
    pub entries_dropped: u64,
    /// Cache entries available after recovery.
    pub recovered_entries: usize,
    /// Quarantined signatures available after recovery.
    pub recovered_quarantine: usize,
}

#[derive(Debug)]
struct Inner {
    state: StoreState,
    wal: LogFile,
    generation: u64,
    /// Set when a compaction failed or crashed (a crash inside a WAL write
    /// kills `wal` itself); either way all further writes are refused,
    /// mirroring a dead process.
    dead: bool,
    /// Records appended this session (fault-injection scope key).
    appended: u64,
    /// Bytes this session pushed through the crash switch — the budget
    /// axis the `pipeline` topic's crash section walks.
    written: u64,
    /// File syncs this session issued (see [`Store::syncs`]).
    syncs: u64,
}

/// A crash-consistent, versioned on-disk store for committed session
/// facts (cache entries, quarantine signatures, fault totals).
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    opts: StoreOptions,
    recovery: RecoveryReport,
    inner: Mutex<Inner>,
}

fn header_frame(generation: u64) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_str(WAL_MAGIC).put_varu64(generation);
    frame(&enc.finish())
}

fn decode_wal_header(payload: &[u8]) -> Result<u64> {
    let mut dec = Decoder::new(payload);
    if dec.get_str()? != WAL_MAGIC {
        return Err(Error::Store("bad WAL magic".into()));
    }
    let generation = dec.get_varu64()?;
    if !dec.is_at_end() {
        return Err(Error::Store("trailing bytes after WAL header".into()));
    }
    Ok(generation)
}

fn decode_snapshot(payload: &[u8]) -> Result<(u64, StoreState, usize)> {
    let mut dec = Decoder::new(payload);
    if dec.get_str()? != SNAP_MAGIC {
        return Err(Error::Store("bad snapshot magic".into()));
    }
    let generation = dec.get_varu64()?;
    let body = dec.get_bytes()?;
    if !dec.is_at_end() {
        return Err(Error::Store("trailing bytes after snapshot".into()));
    }
    let (state, dropped) = StoreState::decode(body)?;
    Ok((generation, state, dropped))
}

impl Store {
    /// Opens (or creates) the store at `dir` with default options,
    /// recovering whatever committed state the directory holds.
    pub fn open(dir: impl AsRef<Path>) -> Result<Store> {
        Store::open_with(dir, StoreOptions::default())
    }

    /// [`Store::open`] with explicit options.
    pub fn open_with(dir: impl AsRef<Path>, opts: StoreOptions) -> Result<Store> {
        let mut recover_span = opts.telemetry.span("store.recover");
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::Store(format!("create {}: {e}", dir.display())))?;
        wal::sweep_tmp(&dir);

        let mut report = RecoveryReport::default();
        let mut state = StoreState::default();
        let mut snap_gen = 0u64;

        // 1. Snapshot: load if readable, drop wholesale otherwise.
        if let Ok(bytes) = std::fs::read(dir.join(SNAP_FILE)) {
            match read_frame(&bytes, MAX_FRAME_LEN) {
                FrameRead::Frame { payload, .. } => match decode_snapshot(payload) {
                    Ok((generation, snap_state, dropped)) => {
                        snap_gen = generation;
                        state = snap_state;
                        report.entries_dropped = dropped as u64;
                    }
                    Err(_) => report.snapshot_dropped = true,
                },
                FrameRead::End => {}
                FrameRead::TornTail | FrameRead::Corrupt => report.snapshot_dropped = true,
            }
        }
        report.snapshot_generation = snap_gen;

        // 2. WAL: replay committed frames on top, unless the log predates
        // the snapshot (then its records are already folded in). Scanning
        // stops at the first torn or corrupt frame — everything after an
        // unreadable frame is untrusted.
        let wal_path = dir.join(WAL_FILE);
        let wal_bytes = std::fs::read(&wal_path).unwrap_or_default();
        let mut committed = 0usize;
        let mut keep_wal = false;
        let mut generation = snap_gen;
        match read_frame(&wal_bytes, MAX_FRAME_LEN) {
            FrameRead::Frame { payload, consumed } => match decode_wal_header(payload) {
                Ok(wal_gen) if wal_gen < snap_gen => report.wal_stale = true,
                Ok(wal_gen) => {
                    generation = wal_gen;
                    keep_wal = true;
                    committed = consumed;
                    let mut offset = consumed;
                    loop {
                        match read_frame(&wal_bytes[offset..], MAX_FRAME_LEN) {
                            FrameRead::Frame { payload, consumed } => {
                                match Record::decode(payload) {
                                    Ok(rec) => {
                                        state.apply(rec);
                                        report.records_recovered += 1;
                                        offset += consumed;
                                        committed = offset;
                                    }
                                    Err(_) => {
                                        report.crc_dropped += 1;
                                        break;
                                    }
                                }
                            }
                            FrameRead::TornTail => {
                                report.torn_tails_dropped += 1;
                                break;
                            }
                            FrameRead::Corrupt => {
                                report.crc_dropped += 1;
                                break;
                            }
                            FrameRead::End => break,
                        }
                    }
                }
                Err(_) => report.crc_dropped += 1,
            },
            FrameRead::End => {}
            FrameRead::TornTail => report.torn_tails_dropped += 1,
            FrameRead::Corrupt => report.crc_dropped += 1,
        }

        // 3. Reopen the log: keep the committed prefix, or start a fresh
        // generation when the old log was stale/unreadable.
        let mut written = 0u64;
        let mut syncs = 0u64;
        let wal = if keep_wal {
            LogFile::open_at(&wal_path, committed as u64)?
        } else {
            let mut log = LogFile::open_at(&wal_path, 0)?;
            let header = header_frame(generation);
            log.append_whole(&header, &opts.crash, &mut syncs)?;
            written = header.len() as u64;
            log
        };

        report.recovered_entries = state.entries.len();
        report.recovered_quarantine = state.quarantine.len();

        let tel = &opts.telemetry;
        tel.add(names::STORE_RECOVERIES, 1);
        tel.add(names::STORE_SYNCS, syncs);
        tel.add(names::STORE_RECORDS_RECOVERED, report.records_recovered);
        tel.add(names::STORE_TORN_TAILS, report.torn_tails_dropped);
        tel.add(
            names::STORE_CRC_DROPS,
            report.crc_dropped + report.entries_dropped,
        );
        tel.event(
            "store.recovered",
            &[
                ("entries", Value::U64(report.recovered_entries as u64)),
                ("quarantine", Value::U64(report.recovered_quarantine as u64)),
                ("records", Value::U64(report.records_recovered)),
                ("torn", Value::U64(report.torn_tails_dropped)),
                ("crc_dropped", Value::U64(report.crc_dropped)),
                ("snapshot_generation", Value::U64(snap_gen)),
                ("wal_stale", Value::Bool(report.wal_stale)),
            ],
        );
        recover_span.field("records", Value::U64(report.records_recovered));
        recover_span.field("entries", Value::U64(report.recovered_entries as u64));
        recover_span.field("torn", Value::U64(report.torn_tails_dropped));
        recover_span.field("crc_dropped", Value::U64(report.crc_dropped));
        recover_span.end();

        Ok(Store {
            dir,
            opts,
            recovery: report,
            inner: Mutex::new(Inner {
                state,
                wal,
                generation,
                dead: false,
                appended: 0,
                written,
                syncs,
            }),
        })
    }

    /// Appends one record: [`Store::append_all`] of one.
    pub fn append(&self, rec: Record) -> Result<()> {
        self.append_all(vec![rec])
    }

    /// Appends `records` in order by group commit: one write and one sync
    /// per group, through the crash switch. A record is acknowledged when
    /// its group's sync returns, and the in-memory fold gains exactly the
    /// records whose every byte reached the log, so at every group
    /// boundary it equals the fold of the on-disk committed prefix.
    ///
    /// The bytes are those one [`Store::append`] per record writes: each
    /// record is framed and exposed to [`FaultSite::StoreWal`] under its
    /// own index, and a group ends right after the record that takes the
    /// WAL past the compaction threshold, where compaction runs. A write
    /// cut by a crash commits the records before the cut and kills the
    /// store: the cut record and every later one fail, even one that would
    /// have fit. A compaction crash does not un-commit the group before it.
    pub fn append_all(&self, records: Vec<Record>) -> Result<()> {
        let total = records.len() as u64;
        let mut inner = self.inner.lock();
        let (appended, syncs) = (inner.appended, inner.syncs);
        let result = self.commit_groups(&mut inner, records);
        let committed = inner.appended - appended;
        self.count(names::STORE_RECORDS_APPENDED, committed);
        self.count(names::STORE_APPEND_FAILURES, total - committed);
        self.count(names::STORE_SYNCS, inner.syncs - syncs);
        result
    }

    /// Adds `n` to the telemetry counter `name` when it moved.
    fn count(&self, name: &'static str, n: u64) {
        if n > 0 {
            self.opts.telemetry.add(name, n);
        }
    }

    fn commit_groups(&self, inner: &mut Inner, records: Vec<Record>) -> Result<()> {
        let mut records = records.into_iter();
        while records.len() > 0 {
            if inner.dead || inner.wal.is_dead() {
                return Err(Error::Store("store is dead after a crash".into()));
            }
            let mut group = Vec::new();
            let mut bytes = Vec::new();
            for rec in records.by_ref() {
                let mut framed = frame(&rec.encode());
                // Silent media corruption: the in-session write "succeeds",
                // the damage only surfaces as a CRC drop on recovery.
                self.opts
                    .faults
                    .scope(inner.appended + group.len() as u64, 1)
                    .corrupt(FaultSite::StoreWal, &mut framed);
                bytes.extend_from_slice(&framed);
                group.push((rec, framed.len()));
                if inner.wal.len() + bytes.len() as u64 > self.opts.compact_threshold {
                    break;
                }
            }
            let admitted = inner
                .wal
                .append(&bytes, &self.opts.crash, &mut inner.syncs)?;
            // Commit the records the switch admitted in full; the first one
            // it cut ends the commit.
            let mut left = admitted;
            for (rec, len) in group {
                if len > left {
                    break;
                }
                left -= len;
                inner.written += len as u64;
                inner.appended += 1;
                inner.state.apply(rec);
            }
            if admitted < bytes.len() {
                return Err(wal::crashed(admitted, bytes.len()));
            }
            if inner.wal.len() > self.opts.compact_threshold {
                // The group is committed either way; a compaction crash
                // just kills the store for later writes.
                let _ = self.compact_locked(inner);
            }
        }
        Ok(())
    }

    /// Folds the WAL into a fresh snapshot generation and resets the log.
    pub fn compact(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        let syncs = inner.syncs;
        let result = self.compact_locked(&mut inner);
        self.count(names::STORE_SYNCS, inner.syncs - syncs);
        result
    }

    fn compact_locked(&self, inner: &mut Inner) -> Result<()> {
        if inner.dead || inner.wal.is_dead() {
            return Err(Error::Store("store is dead after a crash".into()));
        }
        let mut compact_span = self.opts.telemetry.span("store.compact");
        let generation = inner.generation + 1;
        let mut enc = Encoder::new();
        enc.put_str(SNAP_MAGIC).put_varu64(generation);
        enc.put_bytes(&inner.state.encode());
        let framed = frame(&enc.finish());
        if let Err(e) = wal::write_atomic(
            &self.dir,
            SNAP_FILE,
            &framed,
            &self.opts.crash,
            &mut inner.syncs,
        ) {
            inner.dead = true;
            return Err(e);
        }
        // Commit point between the snapshot rename and the log reset: a
        // crash here leaves a *stale* WAL (generation < snapshot's) that
        // recovery must skip, since its records are already folded in.
        if self.opts.crash.admit(1) < 1 {
            inner.dead = true;
            return Err(Error::Store("simulated crash before WAL reset".into()));
        }
        inner.written += framed.len() as u64 + 2; // snapshot + rename + reset commits
        inner.wal = match LogFile::open_at(&self.dir.join(WAL_FILE), 0) {
            Ok(log) => log,
            Err(e) => {
                inner.dead = true;
                return Err(e);
            }
        };
        let header = header_frame(generation);
        if let Err(e) = inner
            .wal
            .append_whole(&header, &self.opts.crash, &mut inner.syncs)
        {
            inner.dead = true;
            return Err(e);
        }
        inner.written += header.len() as u64;
        inner.generation = generation;
        self.opts.telemetry.add(names::STORE_COMPACTIONS, 1);
        compact_span.field("generation", Value::U64(generation));
        compact_span.field("entries", Value::U64(inner.state.entries.len() as u64));
        compact_span.end();
        Ok(())
    }

    /// A copy of the current folded state.
    pub fn state(&self) -> StoreState {
        self.inner.lock().state.clone()
    }

    /// The latest committed fault-ledger totals.
    pub fn totals(&self) -> FaultTotals {
        self.inner.lock().state.totals
    }

    /// Deterministic digest of the current state (see
    /// [`StoreState::fingerprint`]).
    pub fn fingerprint(&self) -> String {
        self.inner.lock().state.fingerprint()
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Bytes this session pushed through the crash switch — the axis the
    /// `pipeline` bench topic's crash section walks.
    pub fn bytes_written(&self) -> u64 {
        self.inner.lock().written
    }

    /// File syncs this session issued: one per WAL group and WAL header,
    /// and per compaction one for the snapshot's temp file and one for the
    /// directory. The count depends only on the appends and their
    /// batches, so a change in how often the store syncs shows on any
    /// machine.
    pub fn syncs(&self) -> u64 {
        self.inner.lock().syncs
    }

    /// True once a crash killed this store (writes are refused).
    pub fn is_dead(&self) -> bool {
        let inner = self.inner.lock();
        inner.dead || inner.wal.is_dead()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use crate::testfix::sample_entry;
    use jitise_faults::{FaultPlan, StoreCrash};

    fn sample_records() -> Vec<Record> {
        vec![
            Record::CacheEntry(sample_entry(1)),
            Record::Quarantine {
                signature: 2,
                reason: "cad: injected route fault".into(),
            },
            Record::CacheEntry(sample_entry(3)),
            Record::FaultTotals(FaultTotals {
                sessions: 1,
                retries: 2,
                quarantined: 1,
                fault_time_ns: 55,
            }),
        ]
    }

    fn opts_with(crash: CrashSwitch, threshold: u64) -> StoreOptions {
        StoreOptions {
            compact_threshold: threshold,
            crash,
            ..StoreOptions::default()
        }
    }

    #[test]
    fn fresh_open_then_reopen_restores_everything() {
        let dir = TempDir::new("reopen");
        let records = sample_records();
        let expected = StoreState::from_records(records.clone()).fingerprint();
        {
            let store = Store::open(dir.path()).unwrap();
            assert!(store.state().is_empty());
            for rec in records {
                store.append(rec).unwrap();
            }
            assert_eq!(store.fingerprint(), expected);
        }
        let store = Store::open(dir.path()).unwrap();
        assert_eq!(store.fingerprint(), expected);
        assert_eq!(store.totals(), store.state().totals);
        assert_eq!(store.totals().fault_time_ns, 55);
        let rec = store.recovery();
        assert_eq!(rec.records_recovered, 4);
        assert_eq!(rec.recovered_entries, 2);
        assert_eq!(rec.recovered_quarantine, 1);
        assert_eq!(rec.torn_tails_dropped + rec.crc_dropped, 0);
        assert!(!rec.wal_stale && !rec.snapshot_dropped);
    }

    #[test]
    fn every_truncation_point_recovers_the_longest_committed_prefix() {
        let dir = TempDir::new("truncate");
        let records = sample_records();
        {
            let store = Store::open(dir.path()).unwrap();
            for rec in records.clone() {
                store.append(rec).unwrap();
            }
        }
        let wal_path = dir.path().join(WAL_FILE);
        let full = std::fs::read(&wal_path).unwrap();
        // Frame boundaries: header, then one frame per record.
        let mut boundaries = vec![header_frame(0).len()];
        for rec in &records {
            boundaries.push(boundaries.last().unwrap() + frame(&rec.encode()).len());
        }
        assert_eq!(*boundaries.last().unwrap(), full.len());
        for cut in 0..=full.len() {
            std::fs::write(&wal_path, &full[..cut]).unwrap();
            let committed = boundaries.iter().filter(|&&b| b <= cut).count();
            let expected = if committed == 0 {
                StoreState::default() // header torn: whole log dropped
            } else {
                StoreState::from_records(records[..committed - 1].to_vec())
            };
            let store = Store::open(dir.path()).unwrap();
            assert_eq!(
                store.fingerprint(),
                expected.fingerprint(),
                "cut at byte {cut}"
            );
        }
    }

    #[test]
    fn crash_sweep_always_recovers_exactly_the_committed_records() {
        // Probe a clean session for its total write volume, then sweep the
        // crash budget across every byte boundary — with compaction both
        // disabled (huge threshold) and aggressive (compact every append).
        for threshold in [u64::MAX, 1] {
            let total = {
                let dir = TempDir::new("probe");
                let store =
                    Store::open_with(dir.path(), opts_with(CrashSwitch::disabled(), threshold))
                        .unwrap();
                for rec in sample_records() {
                    store.append(rec).unwrap();
                }
                store.bytes_written()
            };
            for budget in 0..=total {
                let dir = TempDir::new("sweep");
                let crash = CrashSwitch::armed(StoreCrash {
                    after_bytes: budget,
                });
                let mut committed = Vec::new();
                if let Ok(store) = Store::open_with(dir.path(), opts_with(crash, threshold)) {
                    for rec in sample_records() {
                        if store.append(rec.clone()).is_ok() {
                            committed.push(rec);
                        }
                    }
                }
                let acked = StoreState::from_records(committed).fingerprint();
                let store = Store::open(dir.path()).unwrap();
                assert_eq!(
                    store.fingerprint(),
                    acked,
                    "threshold {threshold}, budget {budget} of {total}"
                );
                // One batch of the same records writes the same bytes, so
                // it commits the same prefix, and its live fold is what
                // recovery restores.
                let batch_dir = TempDir::new("sweep-batch");
                let crash = CrashSwitch::armed(StoreCrash {
                    after_bytes: budget,
                });
                let live = match Store::open_with(batch_dir.path(), opts_with(crash, threshold)) {
                    Ok(store) => {
                        let _ = store.append_all(sample_records());
                        store.fingerprint()
                    }
                    Err(_) => StoreState::default().fingerprint(),
                };
                assert_eq!(live, acked, "batch, threshold {threshold}, budget {budget}");
                let recovered = Store::open(batch_dir.path()).unwrap();
                assert_eq!(recovered.fingerprint(), live, "batch, budget {budget}");
            }
        }
    }

    #[test]
    fn a_record_torn_by_the_budget_fails_the_rest_of_its_batch() {
        let first = Record::CacheEntry(sample_entry(1));
        let second = Record::Quarantine {
            signature: 2,
            reason: "cad".into(),
        };
        let first_len = frame(&first.encode()).len();
        assert!(frame(&second.encode()).len() < first_len - 1);
        // The budget admits the header and all but the last byte of the
        // first record: room enough for the second, which still must not
        // commit past the torn one.
        let header = header_frame(0).len();
        let dir = TempDir::new("torn-batch");
        let crash = CrashSwitch::armed(StoreCrash {
            after_bytes: (header + first_len - 1) as u64,
        });
        let store = Store::open_with(dir.path(), opts_with(crash, u64::MAX)).unwrap();
        assert!(store.append_all(vec![first, second]).is_err());
        assert!(store.is_dead());
        assert!(store.state().is_empty(), "neither record commits");
        assert_eq!(store.bytes_written(), header as u64);
        drop(store);
        let store = Store::open(dir.path()).unwrap();
        assert!(store.state().is_empty());
        assert_eq!(store.recovery().torn_tails_dropped, 1);
    }

    #[test]
    fn a_batch_is_one_write_and_one_sync() {
        let dir = TempDir::new("batch-syncs");
        let tel = Telemetry::enabled();
        let store = Store::open_with(
            dir.path(),
            StoreOptions {
                telemetry: tel.clone(),
                ..StoreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(store.syncs(), 1, "the fresh WAL header");
        store.append_all(sample_records()).unwrap();
        assert_eq!(store.syncs(), 2);
        store.append(Record::CacheEntry(sample_entry(9))).unwrap();
        assert_eq!(store.syncs(), 3);
        store.append_all(Vec::new()).unwrap();
        assert_eq!(store.syncs(), 3, "an empty batch writes nothing");
        // Compaction: the snapshot's temp file, the directory, the header.
        store.compact().unwrap();
        assert_eq!(store.syncs(), 6);
        let snap = tel.snapshot();
        assert_eq!(snap.counter(names::STORE_SYNCS), 6);
        assert_eq!(snap.counter(names::STORE_RECORDS_APPENDED), 5);
        assert_eq!(snap.counter(names::STORE_APPEND_FAILURES), 0);
    }

    #[test]
    fn compaction_folds_the_wal_and_survives_reopen() {
        let dir = TempDir::new("compact");
        let expected = {
            let store =
                Store::open_with(dir.path(), opts_with(CrashSwitch::disabled(), 1)).unwrap();
            for rec in sample_records() {
                store.append(rec).unwrap();
            }
            store.fingerprint()
        };
        let store = Store::open(dir.path()).unwrap();
        assert_eq!(store.fingerprint(), expected);
        let rec = store.recovery();
        assert!(
            rec.snapshot_generation >= 1,
            "threshold 1 must have compacted: {rec:?}"
        );
        assert_eq!(
            rec.records_recovered, 0,
            "every record was folded into the snapshot"
        );
    }

    #[test]
    fn stale_wal_is_skipped_not_replayed() {
        // Probe the byte cost of the session up to (and including) the
        // snapshot rename, then crash exactly before the WAL reset.
        let records = sample_records();
        let expected = StoreState::from_records(records.clone()).fingerprint();
        let (before_compact, after_compact) = {
            let dir = TempDir::new("stale-probe");
            let store = Store::open(dir.path()).unwrap();
            for rec in records.clone() {
                store.append(rec).unwrap();
            }
            let before = store.bytes_written();
            store.compact().unwrap();
            (before, store.bytes_written())
        };
        let header_len = header_frame(1).len() as u64;
        // compact = snapshot frame + rename commit + reset commit + header.
        let budget = after_compact - header_len - 1;
        assert!(budget > before_compact);

        let dir = TempDir::new("stale");
        {
            let store = Store::open_with(
                dir.path(),
                opts_with(
                    CrashSwitch::armed(StoreCrash {
                        after_bytes: budget,
                    }),
                    u64::MAX,
                ),
            )
            .unwrap();
            for rec in records {
                store.append(rec).unwrap();
            }
            assert!(store.compact().is_err(), "crash before the WAL reset");
            assert!(store.is_dead());
            assert!(
                store
                    .append(Record::FaultTotals(FaultTotals::default()))
                    .is_err(),
                "dead store refuses writes"
            );
        }
        let store = Store::open(dir.path()).unwrap();
        assert!(store.recovery().wal_stale, "{:?}", store.recovery());
        assert_eq!(store.recovery().snapshot_generation, 1);
        assert_eq!(store.fingerprint(), expected);
    }

    #[test]
    fn wal_fault_corruption_is_crc_dropped_on_recovery() {
        let dir = TempDir::new("media");
        {
            let store = Store::open_with(
                dir.path(),
                StoreOptions {
                    faults: FaultInjector::from_plan(
                        FaultPlan::none(9).with_rate(FaultSite::StoreWal, 1.0),
                    ),
                    ..StoreOptions::default()
                },
            )
            .unwrap();
            // In-session the writes look fine (silent corruption).
            for rec in sample_records() {
                store.append(rec).unwrap();
            }
        }
        let store = Store::open(dir.path()).unwrap();
        let rec = store.recovery();
        assert!(
            rec.crc_dropped + rec.torn_tails_dropped >= 1,
            "corruption must be detected: {rec:?}"
        );
        assert!(
            rec.records_recovered < 4,
            "corrupted records must not be trusted"
        );
    }

    #[test]
    fn trailing_garbage_after_the_log_is_dropped() {
        let dir = TempDir::new("garbage");
        let records = sample_records();
        let expected = StoreState::from_records(records.clone()).fingerprint();
        {
            let store = Store::open(dir.path()).unwrap();
            for rec in records {
                store.append(rec).unwrap();
            }
        }
        let wal_path = dir.path().join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        bytes.extend_from_slice(&[0xAB; 13]);
        std::fs::write(&wal_path, &bytes).unwrap();
        let store = Store::open(dir.path()).unwrap();
        assert_eq!(store.fingerprint(), expected);
        assert_eq!(store.recovery().records_recovered, 4);
    }

    #[test]
    fn corrupt_snapshot_is_dropped_but_wal_still_replays() {
        let dir = TempDir::new("badsnap");
        let records = sample_records();
        {
            let store =
                Store::open_with(dir.path(), opts_with(CrashSwitch::disabled(), u64::MAX)).unwrap();
            for rec in records.clone() {
                store.append(rec).unwrap();
            }
            store.compact().unwrap();
            // Two more records land in the fresh generation-1 WAL.
            store.append(Record::CacheEntry(sample_entry(77))).unwrap();
        }
        let snap_path = dir.path().join(SNAP_FILE);
        let mut snap = std::fs::read(&snap_path).unwrap();
        let mid = snap.len() / 2;
        snap[mid] ^= 0x40;
        std::fs::write(&snap_path, &snap).unwrap();
        let store = Store::open(dir.path()).unwrap();
        let rec = store.recovery();
        assert!(rec.snapshot_dropped);
        // Only the post-compaction record survives — the WAL is the sole
        // readable source, and recovered ⊆ committed still holds.
        assert_eq!(rec.records_recovered, 1);
        assert!(store.state().entries.contains_key(&77));
    }
}
