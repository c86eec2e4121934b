//! Incremental candidate search: the identification memo.
//!
//! The adaptive runtime re-runs candidate search as profiles evolve, and
//! identification is the phase the paper singles out as the scaling
//! bottleneck ("ranging from seconds to days", §II) — yet between two
//! searches most blocks have not changed at all. [`SearchMemo`] caches the
//! built [`Dfg`] and the per-algorithm identification result of each block,
//! keyed by a **content signature** of the block's owning function, so a
//! repeated search pays only for blocks whose instruction stream actually
//! changed.
//!
//! # Keying and invalidation
//!
//! The cache key is the [`BlockKey`]; each entry carries the content
//! signature it was computed from. A lookup whose signature differs (the
//! block — or any block of its function — was edited, e.g. by candidate
//! patching) *invalidates* the whole entry and recomputes. The signature
//! deliberately covers the **entire function**, not just the block: escape
//! facts ([`jitise_ir::Escapes`]) are function-wide, so an edit elsewhere in
//! the function can change this block's DFG without touching its own
//! instructions. Identification results are additionally
//! keyed by an algorithm-configuration signature (algorithm, policy, ports,
//! minimum size), so differently-configured searches share one memo — and
//! one `Dfg` — without colliding.
//!
//! The memo is in-process only (it caches `Arc`s, not serialized bytes) and
//! safe to share across worker lanes: entries are pure functions of
//! (content, config), so concurrent recomputation is wasteful but never
//! wrong, and last-writer-wins insertion keeps results deterministic.

use crate::candidate::Candidate;
use crate::forbidden::ForbiddenPolicy;
use crate::search::Algorithm;
use crate::singlecut::PortConstraints;
use jitise_base::hash::SigHasher;
use jitise_base::sync::Mutex;
use jitise_ir::{BlockId, Dfg, Function};
use jitise_vm::BlockKey;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What one identification run of one block produced, in algorithm-neutral
/// form (the search driver folds every algorithm's result into this).
#[derive(Debug, Clone)]
pub struct IdentOutcome {
    /// Identified candidates, in the algorithm's deterministic order.
    pub candidates: Vec<Candidate>,
    /// Work measure: subsets explored (SingleCut), nodes examined
    /// (MaxMISO), or merges performed (UnionMISO).
    pub explored: u64,
    /// True if an exploration cap truncated the result.
    pub cap_hit: bool,
}

struct MemoEntry {
    content_sig: u64,
    dfg: Arc<Dfg>,
    /// Algorithm-configuration signature → identification result.
    ident: HashMap<u64, Arc<IdentOutcome>>,
}

/// Cross-search cache of built DFGs and identification results.
#[derive(Default)]
pub struct SearchMemo {
    entries: Mutex<HashMap<BlockKey, MemoEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl std::fmt::Debug for SearchMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchMemo")
            .field("blocks", &self.entries.lock().len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("invalidations", &self.invalidations())
            .finish()
    }
}

impl SearchMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Identification lookups answered from cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Identification lookups that had to compute.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries discarded because the block's content signature changed.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Number of blocks currently cached.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the block's DFG and identification result, from cache when
    /// `content_sig` and `cfg_sig` both match, computing (outside the lock)
    /// and inserting otherwise. The bool is true on a full cache hit.
    pub fn lookup_or_compute(
        &self,
        key: BlockKey,
        content_sig: u64,
        cfg_sig: u64,
        build_dfg: impl FnOnce() -> Dfg,
        identify: impl FnOnce(&Dfg) -> IdentOutcome,
    ) -> (Arc<Dfg>, Arc<IdentOutcome>, bool) {
        // Probe. A stale entry (content changed) is treated as absent; a
        // content match without this config's result still reuses the DFG.
        let cached_dfg = {
            let entries = self.entries.lock();
            match entries.get(&key) {
                Some(e) if e.content_sig == content_sig => {
                    if let Some(ident) = e.ident.get(&cfg_sig) {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return (Arc::clone(&e.dfg), Arc::clone(ident), true);
                    }
                    Some(Arc::clone(&e.dfg))
                }
                Some(_) => {
                    self.invalidations.fetch_add(1, Ordering::Relaxed);
                    None
                }
                None => None,
            }
        };
        self.misses.fetch_add(1, Ordering::Relaxed);

        // Compute without holding the lock so parallel lanes don't
        // serialize on each other's identification runs.
        let dfg = cached_dfg.unwrap_or_else(|| Arc::new(build_dfg()));
        let ident = Arc::new(identify(&dfg));

        let mut entries = self.entries.lock();
        let entry = entries.entry(key).or_insert_with(|| MemoEntry {
            content_sig,
            dfg: Arc::clone(&dfg),
            ident: HashMap::new(),
        });
        if entry.content_sig != content_sig {
            // Another (stale) signature raced in or predates us: replace.
            *entry = MemoEntry {
                content_sig,
                dfg: Arc::clone(&dfg),
                ident: HashMap::new(),
            };
        }
        entry.ident.insert(cfg_sig, Arc::clone(&ident));
        (dfg, ident, false)
    }
}

/// Content signature of one function. Covers every block and terminator
/// because a block's DFG depends on the whole function (escape analysis);
/// hash once per function, then derive per-block signatures with
/// [`block_signature`].
pub fn function_signature(f: &Function) -> u64 {
    let mut h = SigHasher::new();
    h.write_str("search-memo.fn");
    h.write_str(&format!("{f:?}"));
    h.finish()
}

/// Content signature of one block given its function's signature.
pub fn block_signature(func_sig: u64, block: BlockId) -> u64 {
    let mut h = SigHasher::new();
    h.write_str("search-memo.block");
    h.write_u64(func_sig);
    h.write_u32(block.0);
    h.finish()
}

/// Signature of everything the identification result depends on besides
/// the block content: algorithm, feasibility policy, ports, minimum size.
pub fn config_signature(
    algorithm: Algorithm,
    policy: &ForbiddenPolicy,
    ports: PortConstraints,
    min_size: usize,
) -> u64 {
    let mut h = SigHasher::new();
    h.write_str("search-memo.cfg");
    h.write_str(&algorithm.to_string());
    h.write_str(&format!("{policy:?}"));
    h.write_str(&format!("{ports:?}"));
    h.write_usize(min_size);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_ir::{FuncId, FunctionBuilder, Operand as Op, Type};

    fn func(c: i32) -> Function {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let x = b.mul(Op::Arg(0), Op::ci32(c));
        let y = b.add(x, Op::Arg(0));
        b.ret(y);
        b.finish()
    }

    fn outcome(n: u64) -> IdentOutcome {
        IdentOutcome {
            candidates: Vec::new(),
            explored: n,
            cap_hit: false,
        }
    }

    #[test]
    fn second_lookup_hits() {
        let memo = SearchMemo::new();
        let f = func(3);
        let key = BlockKey::new(FuncId(0), BlockId(0));
        let sig = block_signature(function_signature(&f), BlockId(0));
        let cfg = 42;
        let (_, first, hit) =
            memo.lookup_or_compute(key, sig, cfg, || Dfg::build(&f, BlockId(0)), |_| outcome(7));
        assert!(!hit);
        let (_, second, hit) = memo.lookup_or_compute(
            key,
            sig,
            cfg,
            || panic!("dfg must come from cache"),
            |_| panic!("ident must come from cache"),
        );
        assert!(hit);
        assert_eq!(first.explored, second.explored);
        assert_eq!(
            (memo.hits(), memo.misses(), memo.invalidations()),
            (1, 1, 0)
        );
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn content_change_invalidates() {
        let memo = SearchMemo::new();
        let key = BlockKey::new(FuncId(0), BlockId(0));
        let (fa, fb) = (func(3), func(4));
        let sig_a = block_signature(function_signature(&fa), BlockId(0));
        let sig_b = block_signature(function_signature(&fb), BlockId(0));
        assert_ne!(sig_a, sig_b, "different constants, different content");
        memo.lookup_or_compute(
            key,
            sig_a,
            1,
            || Dfg::build(&fa, BlockId(0)),
            |_| outcome(1),
        );
        let (_, out, hit) = memo.lookup_or_compute(
            key,
            sig_b,
            1,
            || Dfg::build(&fb, BlockId(0)),
            |_| outcome(2),
        );
        assert!(!hit, "changed content must not hit");
        assert_eq!(out.explored, 2);
        assert_eq!(memo.invalidations(), 1);
        // The stale config result died with the entry.
        let (_, _, hit) = memo.lookup_or_compute(
            key,
            sig_a,
            1,
            || Dfg::build(&fa, BlockId(0)),
            |_| outcome(3),
        );
        assert!(!hit);
    }

    #[test]
    fn configs_share_the_dfg_but_not_results() {
        let memo = SearchMemo::new();
        let f = func(3);
        let key = BlockKey::new(FuncId(0), BlockId(0));
        let sig = block_signature(function_signature(&f), BlockId(0));
        let (dfg1, _, _) =
            memo.lookup_or_compute(key, sig, 1, || Dfg::build(&f, BlockId(0)), |_| outcome(1));
        let (dfg2, out, hit) = memo.lookup_or_compute(
            key,
            sig,
            2,
            || panic!("dfg is shared across configs"),
            |_| outcome(2),
        );
        assert!(!hit, "different config, different ident result");
        assert_eq!(out.explored, 2);
        assert!(Arc::ptr_eq(&dfg1, &dfg2));
    }

    #[test]
    fn config_signature_separates_algorithms_and_ports() {
        let policy = ForbiddenPolicy::default();
        let ports = PortConstraints::default();
        let a = config_signature(Algorithm::MaxMiso, &policy, ports, 2);
        let b = config_signature(Algorithm::SingleCut, &policy, ports, 2);
        let c = config_signature(
            Algorithm::SingleCut,
            &policy,
            PortConstraints {
                max_inputs: 3,
                max_outputs: 1,
            },
            2,
        );
        let d = config_signature(Algorithm::SingleCut, &policy, ports, 3);
        assert!(a != b && b != c && c != d && a != c);
        assert_eq!(a, config_signature(Algorithm::MaxMiso, &policy, ports, 2));
    }

    #[test]
    fn function_signature_sees_other_blocks() {
        // Same first block, different second block: the first block's DFG
        // (escape analysis) can differ, so the signature must too.
        let build = |use_it: bool| {
            let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
            let x = b.mul(Op::Arg(0), Op::ci32(3));
            let next = b.new_block("next");
            b.br(next);
            b.switch_to(next);
            if use_it {
                let y = b.add(x, Op::Arg(0));
                b.ret(y);
            } else {
                b.ret(Op::Arg(0));
            }
            b.finish()
        };
        assert_ne!(
            function_signature(&build(true)),
            function_signature(&build(false))
        );
    }
}
