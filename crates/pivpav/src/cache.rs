//! The netlist cache.
//!
//! "PivPav extracts the netlist for the IP cores from its circuit database
//! … that is, PivPav is used as a netlist cache" (§III). Extraction of a
//! core's netlist is expensive the first time (database I/O in the real
//! tool); afterwards the `Arc` is shared. The cache is thread-safe because
//! the JIT runtime implements multiple concurrent specialization workers
//! (§VI-B suggests running "the FPGA tool concurrently").

use crate::db::CoreRecord;
use crate::netlist::Netlist;
use jitise_base::sync::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Thread-safe cache of extracted core netlists keyed by core name.
#[derive(Debug, Default)]
pub struct NetlistCache {
    map: RwLock<HashMap<String, Arc<Netlist>>>,
}

impl NetlistCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetches the netlist of `core`, extracting it from its database
    /// record on a miss. Returns the netlist and whether this was a miss.
    pub fn fetch(&self, core: &Arc<CoreRecord>) -> (Arc<Netlist>, bool) {
        if let Some(nl) = self.map.read().get(&core.name) {
            return (nl.clone(), false);
        }
        let mut map = self.map.write();
        // Double-checked: another thread may have inserted meanwhile.
        if let Some(nl) = map.get(&core.name) {
            return (nl.clone(), false);
        }
        let nl = core.netlist.clone();
        map.insert(core.name.clone(), nl.clone());
        (nl, true)
    }

    /// Number of cached netlists.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Drops all cached entries (for experiment isolation).
    pub fn clear(&self) {
        self.map.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::CircuitDb;
    use jitise_ir::{BinOp, Opcode, Type};

    #[test]
    fn miss_then_hit() {
        let db = CircuitDb::build();
        let cache = NetlistCache::new();
        let core = db.lookup(Opcode::Bin(BinOp::Add), Type::I32).unwrap();
        let (nl1, miss1) = cache.fetch(&core);
        assert!(miss1);
        let (nl2, miss2) = cache.fetch(&core);
        assert!(!miss2);
        assert!(Arc::ptr_eq(&nl1, &nl2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_cores_distinct_entries() {
        let db = CircuitDb::build();
        let cache = NetlistCache::new();
        let add = db.lookup(Opcode::Bin(BinOp::Add), Type::I32).unwrap();
        let mul = db.lookup(Opcode::Bin(BinOp::Mul), Type::I32).unwrap();
        cache.fetch(&add);
        cache.fetch(&mul);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clear_resets() {
        let db = CircuitDb::build();
        let cache = NetlistCache::new();
        let core = db.lookup(Opcode::Bin(BinOp::Xor), Type::I16).unwrap();
        cache.fetch(&core);
        cache.clear();
        assert!(cache.is_empty());
        let (_, miss) = cache.fetch(&core);
        assert!(miss);
    }

    #[test]
    fn concurrent_fetches_are_safe() {
        let db = CircuitDb::build();
        let cache = Arc::new(NetlistCache::new());
        let core = db.lookup(Opcode::Bin(BinOp::Mul), Type::I64).unwrap();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = cache.clone();
                let core = core.clone();
                std::thread::spawn(move || {
                    let mut misses = 0;
                    for _ in 0..100 {
                        let (nl, miss) = cache.fetch(&core);
                        assert_eq!(nl.validate(), Ok(()));
                        misses += miss as u32;
                    }
                    misses
                })
            })
            .collect();
        let misses: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(misses, 1, "exactly one thread loads the core");
    }
}
