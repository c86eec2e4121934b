//! The partial-reconfiguration bitstream cache (§VI-A).
//!
//! "Much like virtual machines cache the binary code that was generated
//! on-the-fly for further use, we can cache the generated partial
//! bitstreams for each custom instruction. To this end, each candidate
//! needs to have a unique identifier that is used as a key for reading and
//! writing the cache. We can, for example, compute a signature of the LLVM
//! bitcode that describes the candidate."
//!
//! The key is [`jitise_ise::Candidate::signature`]; the value is the
//! store's [`CiRecord`]: the bitstream plus the implementation results
//! needed to reuse it (timing, stage costs), so a hit skips the *entire*
//! generation pipeline. Warm restarts recover entries through
//! `jitise-store` ([`BitstreamCache::absorb_store`]).

use jitise_base::codec::Encoder;
use jitise_base::sync::RwLock;
use jitise_store::{CiRecord, StoreState};
use std::collections::HashMap;

/// Thread-safe signature-keyed bitstream cache.
#[derive(Debug, Default)]
pub struct BitstreamCache {
    map: RwLock<HashMap<u64, CiRecord>>,
}

impl BitstreamCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a signature.
    pub fn get(&self, signature: u64) -> Option<CiRecord> {
        self.map.read().get(&signature).cloned()
    }

    /// Inserts an implementation.
    pub fn put(&self, entry: CiRecord) {
        self.map.write().insert(entry.signature, entry);
    }

    /// Drops an entry (poisoned-bitstream eviction). Returns `true` if the
    /// signature was present.
    pub fn remove(&self, signature: u64) -> bool {
        self.map.write().remove(&signature).is_some()
    }

    /// Number of cached bitstreams.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// The whole cache's content as bytes, entries in signature order:
    /// the image determinism checks compare and hash.
    pub fn to_bytes(&self) -> Vec<u8> {
        let map = self.map.read();
        let mut enc = Encoder::new();
        enc.put_str("JITISE-BSCACHE-2");
        enc.put_varu64(map.len() as u64);
        let mut keys: Vec<u64> = map.keys().copied().collect();
        keys.sort_unstable();
        for k in keys {
            let e = &map[&k];
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
        enc.finish()
    }

    /// Hydrates this cache from a recovered [`StoreState`] (warm
    /// restart). Existing entries win over recovered ones — the store is
    /// a snapshot of a *previous* session, so anything already cached in
    /// this one is at least as fresh. Returns the number of entries
    /// absorbed.
    pub fn absorb_store(&self, state: &StoreState) -> usize {
        let mut map = self.map.write();
        let mut absorbed = 0usize;
        for (sig, rec) in &state.entries {
            if !map.contains_key(sig) {
                map.insert(*sig, rec.clone());
                absorbed += 1;
            }
        }
        absorbed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_base::SimTime;
    use jitise_store::testfix::sample_entry;

    #[test]
    fn get_and_put() {
        let c = BitstreamCache::new();
        assert!(c.get(42).is_none());
        c.put(sample_entry(42));
        let hit = c.get(42).unwrap();
        assert_eq!(hit.signature, 42);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_evicts_entry() {
        let c = BitstreamCache::new();
        c.put(sample_entry(8));
        assert!(c.remove(8));
        assert!(!c.remove(8));
        assert!(c.get(8).is_none());
    }

    #[test]
    fn absorb_store_hydrates_without_clobbering_fresh_entries() {
        let fresh = sample_entry(1);
        let mut stale = sample_entry(1);
        stale.generation_time = SimTime::from_secs(999);
        let state = StoreState::from_records(vec![
            jitise_store::Record::CacheEntry(stale),
            jitise_store::Record::CacheEntry(sample_entry(2)),
        ]);
        let c = BitstreamCache::new();
        c.put(fresh.clone());
        assert_eq!(c.absorb_store(&state), 1, "only the new signature lands");
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.get(1).unwrap().generation_time,
            fresh.generation_time,
            "the in-session entry wins over the recovered one"
        );
        assert!(c.get(2).is_some());
    }
}
