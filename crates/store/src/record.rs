//! The store's record vocabulary and its fold into a canonical state.
//!
//! A [`Record`] is the unit of durability: one committed fact about the
//! ASIP-SP session — a finished bitstream-cache entry, a quarantined
//! candidate signature, or the cumulative fault-ledger totals. Records
//! are *idempotent upserts*: applying the same record twice (or replaying
//! a stale WAL over a snapshot that already folded it in) leaves the
//! [`StoreState`] unchanged, which is what makes the snapshot/WAL
//! recovery protocol crash-consistent without any sequencing metadata.

use jitise_base::codec::{Decoder, Encoder};
use jitise_base::hash::hash_bytes;
use jitise_base::{Error, Result, SimTime};
use jitise_cad::{Bitstream, InstallTier, TimingReport};
use std::collections::BTreeMap;

/// A bitstream-cache entry, in memory and persisted: everything a warm
/// restart needs to serve the candidate without re-running phases 2–3.
/// `jitise_core::BitstreamCache` holds these, keyed by signature.
#[derive(Debug, Clone, PartialEq)]
pub struct CiRecord {
    /// Candidate signature (the cache key).
    pub signature: u64,
    /// The partial bitstream.
    pub bitstream: Bitstream,
    /// Implemented timing.
    pub timing: TimingReport,
    /// Total generation time a cache hit on this entry saves.
    pub generation_time: SimTime,
    /// Which backend produced the bitstream. An `Overlay` record is
    /// journaled the moment the fast path installs; the `Full` record
    /// that follows a successful background upgrade upserts over it, so
    /// WAL replay order rehydrates exactly the tier the crash left
    /// installed.
    pub tier: InstallTier,
}

/// Cumulative fault-ledger totals across every session that wrote to this
/// store. Latest-wins on replay: each session appends one updated total,
/// so recovery keeps the newest committed value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// Specialization sessions journaled.
    pub sessions: u64,
    /// Candidate implementation retries across all sessions.
    pub retries: u64,
    /// Candidates quarantined across all sessions.
    pub quarantined: u64,
    /// Simulated time lost to faults across all sessions (ns).
    pub fault_time_ns: u64,
}

/// One committed record in the write-ahead log.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A finalized bitstream-cache entry (upsert by signature).
    CacheEntry(CiRecord),
    /// A quarantined candidate signature (upsert by signature; the first
    /// recorded reason wins, matching `Quarantine::insert`).
    Quarantine {
        /// The candidate signature.
        signature: u64,
        /// Why it was quarantined.
        reason: String,
    },
    /// The cumulative fault-ledger totals (latest committed value wins).
    FaultTotals(FaultTotals),
    /// An eviction tombstone: the runtime's phase-storm policy dropped
    /// this cache entry, so a warm restart must rehydrate the
    /// *post-eviction* state, not resurrect a CI the workload stopped
    /// earning. A later `CacheEntry` for the same signature re-installs
    /// it (WAL replay order is the fold order), and evicting an absent
    /// signature is a no-op — the idempotent-upsert contract holds.
    Evict {
        /// The evicted candidate signature.
        signature: u64,
    },
}

const TAG_CACHE_ENTRY: u64 = 1;
const TAG_QUARANTINE: u64 = 2;
const TAG_FAULT_TOTALS: u64 = 3;
const TAG_EVICT: u64 = 4;

fn encode_ci(enc: &mut Encoder, e: &CiRecord) {
    enc.put_u64(e.signature);
    enc.put_bytes(&e.bitstream.bytes);
    enc.put_varu32(e.bitstream.frames);
    enc.put_u64(e.bitstream.crc as u64);
    enc.put_varu32(e.bitstream.partial as u32);
    enc.put_u64(e.timing.critical_path_ns.to_bits());
    enc.put_u64(e.timing.fmax_mhz.to_bits());
    enc.put_varu32(e.timing.critical_cells);
    enc.put_varu32(e.timing.meets_300mhz as u32);
    enc.put_u64(e.generation_time.as_nanos());
    enc.put_varu32(e.tier.encode());
}

fn decode_ci(dec: &mut Decoder<'_>) -> Result<CiRecord> {
    let signature = dec.get_u64()?;
    let bytes = dec.get_bytes()?.to_vec();
    let frames = dec.get_varu32()?;
    let crc = dec.get_u64()? as u32;
    let partial = dec.get_varu32()? != 0;
    let critical_path_ns = f64::from_bits(dec.get_u64()?);
    let fmax_mhz = f64::from_bits(dec.get_u64()?);
    let critical_cells = dec.get_varu32()?;
    let meets_300mhz = dec.get_varu32()? != 0;
    let generation_time = SimTime::from_nanos(dec.get_u64()?);
    let tier = InstallTier::decode(dec.get_varu32()?)?;
    Ok(CiRecord {
        signature,
        bitstream: Bitstream {
            bytes,
            frames,
            crc,
            partial,
        },
        timing: TimingReport {
            critical_path_ns,
            fmax_mhz,
            critical_cells,
            meets_300mhz,
        },
        generation_time,
        tier,
    })
}

fn encode_totals(enc: &mut Encoder, t: &FaultTotals) {
    enc.put_varu64(t.sessions);
    enc.put_varu64(t.retries);
    enc.put_varu64(t.quarantined);
    enc.put_u64(t.fault_time_ns);
}

fn decode_totals(dec: &mut Decoder<'_>) -> Result<FaultTotals> {
    Ok(FaultTotals {
        sessions: dec.get_varu64()?,
        retries: dec.get_varu64()?,
        quarantined: dec.get_varu64()?,
        fault_time_ns: dec.get_u64()?,
    })
}

impl Record {
    /// Serializes the record (the WAL frame payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            Record::CacheEntry(e) => {
                enc.put_varu64(TAG_CACHE_ENTRY);
                encode_ci(&mut enc, e);
            }
            Record::Quarantine { signature, reason } => {
                enc.put_varu64(TAG_QUARANTINE);
                enc.put_u64(*signature);
                enc.put_str(reason);
            }
            Record::FaultTotals(t) => {
                enc.put_varu64(TAG_FAULT_TOTALS);
                encode_totals(&mut enc, t);
            }
            Record::Evict { signature } => {
                enc.put_varu64(TAG_EVICT);
                enc.put_u64(*signature);
            }
        }
        enc.finish()
    }

    /// Decodes one record produced by [`Self::encode`].
    pub fn decode(data: &[u8]) -> Result<Record> {
        let mut dec = Decoder::new(data);
        let rec = match dec.get_varu64()? {
            TAG_CACHE_ENTRY => Record::CacheEntry(decode_ci(&mut dec)?),
            TAG_QUARANTINE => Record::Quarantine {
                signature: dec.get_u64()?,
                reason: dec.get_str()?.to_string(),
            },
            TAG_FAULT_TOTALS => Record::FaultTotals(decode_totals(&mut dec)?),
            TAG_EVICT => Record::Evict {
                signature: dec.get_u64()?,
            },
            tag => return Err(Error::Codec(format!("unknown store record tag {tag}"))),
        };
        if !dec.is_at_end() {
            return Err(Error::Codec(format!(
                "{} trailing bytes after store record",
                dec.remaining()
            )));
        }
        Ok(rec)
    }
}

/// The fold of a committed record sequence: the canonical materialized
/// state a recovery restores. `BTreeMap` keys make every traversal —
/// encoding, fingerprinting, hydration — deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreState {
    /// Cache entries by signature.
    pub entries: BTreeMap<u64, CiRecord>,
    /// Quarantined signatures with their first recorded reason.
    pub quarantine: BTreeMap<u64, String>,
    /// Latest committed fault-ledger totals.
    pub totals: FaultTotals,
}

impl StoreState {
    /// Applies one record (idempotent upsert semantics).
    pub fn apply(&mut self, rec: Record) {
        match rec {
            Record::CacheEntry(e) => {
                self.entries.insert(e.signature, e);
            }
            Record::Quarantine { signature, reason } => {
                self.quarantine.entry(signature).or_insert(reason);
            }
            Record::FaultTotals(t) => self.totals = t,
            Record::Evict { signature } => {
                self.entries.remove(&signature);
            }
        }
    }

    /// Folds a record sequence into a state (what recovery must equal).
    pub fn from_records<I: IntoIterator<Item = Record>>(records: I) -> StoreState {
        let mut state = StoreState::default();
        for rec in records {
            state.apply(rec);
        }
        state
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
            && self.quarantine.is_empty()
            && self.totals == FaultTotals::default()
    }

    /// Serializes the whole state (the snapshot body).
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_varu64(self.entries.len() as u64);
        for e in self.entries.values() {
            encode_ci(&mut enc, e);
        }
        enc.put_varu64(self.quarantine.len() as u64);
        for (sig, reason) in &self.quarantine {
            enc.put_u64(*sig);
            enc.put_str(reason);
        }
        encode_totals(&mut enc, &self.totals);
        enc.finish()
    }

    /// Restores a state image produced by [`Self::encode`]. Entries whose
    /// bitstream fails its CRC are dropped (returned as the second tuple
    /// element) rather than trusted — the snapshot frame CRC protects the
    /// framing, but an entry poisoned *before* it was written is only
    /// caught here.
    pub fn decode(data: &[u8]) -> Result<(StoreState, usize)> {
        let mut dec = Decoder::new(data);
        let mut state = StoreState::default();
        let mut dropped = 0usize;
        let n = dec.get_varu64()?;
        for _ in 0..n {
            let e = decode_ci(&mut dec)?;
            if e.bitstream.verify() {
                state.entries.insert(e.signature, e);
            } else {
                dropped += 1;
            }
        }
        let q = dec.get_varu64()?;
        for _ in 0..q {
            let sig = dec.get_u64()?;
            let reason = dec.get_str()?.to_string();
            state.quarantine.insert(sig, reason);
        }
        state.totals = decode_totals(&mut dec)?;
        if !dec.is_at_end() {
            return Err(Error::Codec(format!(
                "{} trailing bytes after store snapshot",
                dec.remaining()
            )));
        }
        Ok((state, dropped))
    }

    /// Deterministic digest of the full state. Two states are identical
    /// iff their fingerprints match — the store's crash tests and the
    /// `pipeline` bench topic's crash section compare the recovered state
    /// against the fold of the committed prefix with it.
    pub fn fingerprint(&self) -> String {
        format!(
            "entries={} quarantine={} totals={:?} digest={:016x}",
            self.entries.len(),
            self.quarantine.len(),
            self.totals,
            hash_bytes(&self.encode()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::testfix::sample_entry;

    #[test]
    fn record_roundtrip() {
        let records = [
            Record::CacheEntry(sample_entry(7)),
            Record::Quarantine {
                signature: 9,
                reason: "cad: injected map fault".into(),
            },
            Record::FaultTotals(FaultTotals {
                sessions: 3,
                retries: 5,
                quarantined: 1,
                fault_time_ns: 123_456,
            }),
        ];
        for rec in &records {
            let bytes = rec.encode();
            assert_eq!(&Record::decode(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn evict_roundtrip_and_fold_order() {
        let rec = Record::Evict { signature: 77 };
        assert_eq!(Record::decode(&rec.encode()).unwrap(), rec);

        // Install → evict removes the entry.
        let gone = StoreState::from_records(vec![
            Record::CacheEntry(sample_entry(77)),
            Record::Evict { signature: 77 },
        ]);
        assert!(gone.entries.is_empty(), "eviction must remove the entry");

        // Evict → re-install resurrects it (replay order is fold order).
        let back = StoreState::from_records(vec![
            Record::CacheEntry(sample_entry(77)),
            Record::Evict { signature: 77 },
            Record::CacheEntry(sample_entry(77)),
        ]);
        assert!(back.entries.contains_key(&77), "re-install must win");

        // Evicting an absent signature is a no-op.
        let noop = StoreState::from_records(vec![Record::Evict { signature: 5 }]);
        assert!(noop.entries.is_empty());
        assert_eq!(noop, StoreState::default());
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut enc = Encoder::new();
        enc.put_varu64(99);
        assert!(Record::decode(&enc.finish()).is_err());
    }

    #[test]
    fn state_fold_is_idempotent_and_latest_wins() {
        let e = sample_entry(1);
        let records = vec![
            Record::CacheEntry(e.clone()),
            Record::Quarantine {
                signature: 2,
                reason: "first".into(),
            },
            Record::FaultTotals(FaultTotals {
                sessions: 1,
                ..FaultTotals::default()
            }),
            // Replays and updates:
            Record::CacheEntry(e.clone()),
            Record::Quarantine {
                signature: 2,
                reason: "second".into(),
            },
            Record::FaultTotals(FaultTotals {
                sessions: 2,
                ..FaultTotals::default()
            }),
        ];
        let state = StoreState::from_records(records);
        assert_eq!(state.entries.len(), 1);
        assert_eq!(state.quarantine[&2], "first", "first reason wins");
        assert_eq!(state.totals.sessions, 2, "latest totals win");
    }

    #[test]
    fn state_roundtrip_and_fingerprint() {
        let state = StoreState::from_records(vec![
            Record::CacheEntry(sample_entry(1)),
            Record::CacheEntry(sample_entry(2)),
            Record::Quarantine {
                signature: 3,
                reason: "x".into(),
            },
        ]);
        let (back, dropped) = StoreState::decode(&state.encode()).unwrap();
        assert_eq!(back, state);
        assert_eq!(dropped, 0);
        assert_eq!(back.fingerprint(), state.fingerprint());
        assert_ne!(StoreState::default().fingerprint(), state.fingerprint());
    }

    #[test]
    fn poisoned_entry_dropped_on_decode() {
        let mut poisoned = sample_entry(4);
        let len = poisoned.bitstream.bytes.len();
        poisoned.bitstream.bytes[len / 2] ^= 0x10;
        assert!(!poisoned.bitstream.verify());
        let state = StoreState::from_records(vec![
            Record::CacheEntry(sample_entry(1)),
            Record::CacheEntry(poisoned),
        ]);
        let (back, dropped) = StoreState::decode(&state.encode()).unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(back.entries.len(), 1);
        assert!(back.entries.contains_key(&1));
    }
}
