//! The Candidate Search phase (Fig. 2, first box).
//!
//! Drives pruning → identification → estimation → selection over one
//! profiled module and reports the same quantities the paper's Table II
//! does for this phase: real wall-clock milliseconds, surviving
//! blocks/instructions, candidate count, and the post-selection ASIP
//! speedup.
//!
//! # Parallel, deterministic, incremental
//!
//! Identification (per block) and estimation (per candidate) are
//! independent, so both fan out across [`SearchConfig::workers`] OS
//! threads via [`parallel_map_indexed`] and merge **in pruned-block
//! order** — the same contract as the CAD scheduler: every observable of
//! the [`SearchOutcome`] (checked by [`SearchOutcome::fingerprint`], which
//! covers everything except `real_time`) is bit-identical at any lane
//! count. Telemetry is emitted only from the merging thread, so the
//! canonical journal is schedule-oblivious too. With a
//! [`SearchConfig::memo`] attached, per-block DFGs and identification
//! results are reused across the repeated searches the adaptive runtime
//! performs — see [`crate::memo`] for the keying/invalidation rule.

use crate::estimate::{CandidateEstimate, Estimator};
use crate::forbidden::ForbiddenPolicy;
use crate::maxmiso::maxmiso;
use crate::memo::{self, IdentOutcome, SearchMemo};
use crate::prune::{prune, PruneFilter, PruneResult};
use crate::select::{select, speedup, AreaBudget, SelectionResult};
use crate::singlecut::{single_cut, PortConstraints};
use crate::union::union_miso;
use jitise_base::hash::SigHasher;
use jitise_base::par::parallel_map_indexed;
use jitise_ir::{Dfg, Escapes, FuncId, Module};
use jitise_telemetry::{names, Telemetry, Value as TelValue};
use jitise_vm::{BlockKey, Profile};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which identification algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Linear-time maximal MISO identification (the paper's choice).
    MaxMiso,
    /// Exponential exact enumeration (baseline).
    SingleCut,
    /// MaxMISO + greedy input-sharing merges (baseline).
    UnionMiso,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Algorithm::MaxMiso => "MAXMISO",
            Algorithm::SingleCut => "SINGLECUT",
            Algorithm::UnionMiso => "UNIONMISO",
        })
    }
}

/// Configuration of one candidate search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Pruning filter (use [`PruneFilter::none`] to disable).
    pub filter: PruneFilter,
    /// Identification algorithm.
    pub algorithm: Algorithm,
    /// Feasibility policy.
    pub policy: ForbiddenPolicy,
    /// Port constraints (SingleCut / UnionMiso only).
    pub ports: PortConstraints,
    /// Minimum candidate size in instructions.
    pub min_size: usize,
    /// Area budget for selection.
    pub budget: AreaBudget,
    /// Observability handle (disabled by default; zero overhead).
    pub telemetry: Telemetry,
    /// Worker lanes for identification and estimation. `1` (the default)
    /// runs fully sequentially on the caller; higher counts change only
    /// `real_time`, never the outcome.
    pub workers: usize,
    /// Identification memo shared across searches (`None` = no caching).
    pub memo: Option<Arc<SearchMemo>>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            filter: PruneFilter::paper_default(),
            algorithm: Algorithm::MaxMiso,
            policy: ForbiddenPolicy::default(),
            ports: PortConstraints::default(),
            min_size: 2,
            budget: AreaBudget::default(),
            telemetry: Telemetry::disabled(),
            workers: 1,
            memo: None,
        }
    }
}

/// Everything the Candidate Search phase produced.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Pruning statistics (Table II `blk`, `ins` columns).
    pub prune: PruneResult,
    /// Selected candidates with estimates (Table II `can` column).
    pub selection: SelectionResult,
    /// Candidates identified before selection.
    pub identified: usize,
    /// True if any block's identification was truncated by its exploration
    /// cap — the candidate set is then a lower bound, not the full answer.
    pub cap_hit: bool,
    /// Per-block identification work, in pruned-block order: the
    /// algorithm's deterministic work measure (subsets explored / nodes
    /// examined / merges) plus the block's DFG size. Schedule- and
    /// memo-invariant; the bench's makespan model consumes it.
    pub identify_work: Vec<(BlockKey, u64)>,
    /// Real wall-clock time of the whole search (Table II `real [ms]`).
    pub real_time: Duration,
    /// Application speedup with the selected candidates (Table II `ASIP
    /// ratio` column).
    pub asip_ratio: f64,
    /// Average block size passing pruning (paper §V-D: 155.65 / 29.71).
    pub avg_pruned_block_size: f64,
    /// Average candidate size in instructions (paper: 7.31 / 6.5).
    pub avg_candidate_size: f64,
}

impl SearchOutcome {
    /// Structural fingerprint of every field except `real_time` (the one
    /// quantity that legitimately varies run to run). The determinism
    /// suite and the `search` sweep assert this is bit-identical across
    /// worker counts and memo warm/cold.
    pub fn fingerprint(&self) -> u64 {
        let mut h = SigHasher::new();
        h.write_usize(self.prune.blocks.len());
        for k in &self.prune.blocks {
            h.write_str(&format!("{k:?}"));
        }
        h.write_usize(self.prune.blocks_before)
            .write_usize(self.prune.insts_before)
            .write_usize(self.prune.insts_after)
            .write_u64(self.prune.time_covered.to_bits())
            .write_usize(self.identified)
            .write_u32(self.cap_hit as u32);
        for (k, w) in &self.identify_work {
            h.write_str(&format!("{k:?}"));
            h.write_u64(*w);
        }
        h.write_usize(self.selection.selected.len());
        for s in &self.selection.selected {
            h.write_str(&format!("{:?}", s.candidate.key));
            h.write_usize(s.candidate.nodes.len());
            for &n in &s.candidate.nodes {
                h.write_u32(n);
            }
            h.write_u32(s.candidate.inputs)
                .write_u32(s.candidate.outputs)
                .write_u32(s.candidate.const_inputs)
                .write_u64(s.estimate.sw_cycles)
                .write_u64(s.estimate.hw_cycles)
                .write_u64(s.estimate.exec_count)
                .write_u32(s.estimate.luts)
                .write_u32(s.estimate.ffs)
                .write_u32(s.estimate.dsps);
        }
        h.write_usize(self.selection.rejected)
            .write_u64(self.selection.total_saved_cycles)
            .write_u32(self.selection.luts_used)
            .write_u32(self.selection.ffs_used)
            .write_u32(self.selection.dsps_used)
            .write_u64(self.asip_ratio.to_bits())
            .write_u64(self.avg_pruned_block_size.to_bits())
            .write_u64(self.avg_candidate_size.to_bits());
        h.finish()
    }
}

/// Greedy least-loaded-lane makespan of the identification stage, in work
/// units (same schedule model as the CAD scheduler's `lane_makespan`).
/// Deterministic in the input order; the `search` sweep uses it to report
/// machine-independent speedup alongside measured wall-clock.
pub fn identify_makespan(work: &[(BlockKey, u64)], lanes: usize) -> u64 {
    let mut load = vec![0u64; lanes.max(1)];
    for &(_, w) in work {
        if let Some(min) = load.iter_mut().min_by_key(|l| **l) {
            *min += w;
        }
    }
    load.into_iter().max().unwrap_or(0)
}

/// One block's identification result, as merged in pruned-block order.
struct BlockIdent {
    dfg: Arc<Dfg>,
    exec_count: u64,
    ident: Arc<IdentOutcome>,
    memo_hit: bool,
}

/// Runs the full Candidate Search phase.
pub fn candidate_search(
    module: &Module,
    profile: &Profile,
    estimator: &dyn Estimator,
    config: &SearchConfig,
) -> SearchOutcome {
    let start = Instant::now();
    let tel = &config.telemetry;
    let search_span = tel.span("ise.search");
    let tel = tel.under(&search_span);
    let workers = config.workers.max(1);

    // 1. Prune: restrict identification to the most promising blocks.
    let pruned = {
        let mut span = search_span.child("ise.prune");
        let pruned = prune(module, profile, config.filter);
        span.field("blocks_after", TelValue::U64(pruned.blocks.len() as u64));
        span.field("insts_after", TelValue::U64(pruned.insts_after as u64));
        pruned
    };

    // 2. Identify candidates in every surviving block, fanned out across
    //    the worker lanes. Escape facts and memo content signatures both
    //    cover whole functions, so compute each function's once, serially,
    //    before the fan-out.
    let mut identify_span = search_span.child("ise.identify");
    let mut escapes: HashMap<FuncId, Escapes> = HashMap::new();
    let mut func_sigs: HashMap<FuncId, u64> = HashMap::new();
    for &key in &pruned.blocks {
        let f = module.func(key.func);
        escapes.entry(key.func).or_insert_with(|| Escapes::of(f));
        if config.memo.is_some() {
            func_sigs
                .entry(key.func)
                .or_insert_with(|| memo::function_signature(f));
        }
    }
    let build_dfg =
        |key: BlockKey| Dfg::build_with(module.func(key.func), key.block, &escapes[&key.func]);
    let cfg_sig = memo::config_signature(
        config.algorithm,
        &config.policy,
        config.ports,
        config.min_size,
    );
    let identify = |key: BlockKey, dfg: &Dfg| -> IdentOutcome {
        let f = module.func(key.func);
        match config.algorithm {
            Algorithm::MaxMiso => {
                let r = maxmiso(f, dfg, key, &config.policy, config.min_size);
                IdentOutcome {
                    candidates: r.candidates,
                    explored: r.nodes_examined as u64,
                    cap_hit: false,
                }
            }
            Algorithm::SingleCut => {
                let r = single_cut(f, dfg, key, &config.policy, config.ports, config.min_size);
                IdentOutcome {
                    candidates: r.candidates,
                    explored: r.explored,
                    cap_hit: r.cap_hit,
                }
            }
            Algorithm::UnionMiso => {
                let r = union_miso(f, dfg, key, &config.policy, config.ports, config.min_size);
                IdentOutcome {
                    candidates: r.candidates,
                    explored: r.merges as u64,
                    cap_hit: false,
                }
            }
        }
    };
    let per_block: Vec<BlockIdent> = parallel_map_indexed(workers, &pruned.blocks, |_, &key| {
        let exec_count = profile.count(key);
        match &config.memo {
            Some(memo) => {
                let content = memo::block_signature(func_sigs[&key.func], key.block);
                let (dfg, ident, memo_hit) = memo.lookup_or_compute(
                    key,
                    content,
                    cfg_sig,
                    || build_dfg(key),
                    |dfg| identify(key, dfg),
                );
                BlockIdent {
                    dfg,
                    exec_count,
                    ident,
                    memo_hit,
                }
            }
            None => {
                let dfg = build_dfg(key);
                let ident = identify(key, &dfg);
                BlockIdent {
                    dfg: Arc::new(dfg),
                    exec_count,
                    ident: Arc::new(ident),
                    memo_hit: false,
                }
            }
        }
    });

    // Merge serially, in pruned-block order — telemetry must never observe
    // the scheduling interleaving.
    let mut identified = 0usize;
    let mut cap_hit = false;
    let mut explored_total = 0u64;
    let (mut memo_hits, mut memo_misses) = (0u64, 0u64);
    let mut identify_work: Vec<(BlockKey, u64)> = Vec::with_capacity(per_block.len());
    for (&key, b) in pruned.blocks.iter().zip(&per_block) {
        identified += b.ident.candidates.len();
        explored_total += b.ident.explored;
        if b.ident.cap_hit {
            cap_hit = true;
            tel.add(names::SINGLECUT_CAP_HIT, 1);
        }
        if b.memo_hit {
            memo_hits += 1;
        } else if config.memo.is_some() {
            memo_misses += 1;
        }
        identify_work.push((key, b.ident.explored.max(1) + b.dfg.len() as u64));
    }
    tel.add(names::CANDIDATES_IDENTIFIED, identified as u64);
    if config.memo.is_some() {
        tel.add(names::SEARCH_MEMO_HITS, memo_hits);
        tel.add(names::SEARCH_MEMO_MISSES, memo_misses);
    }
    identify_span.field("workers", TelValue::U64(workers as u64));
    identify_span.field("blocks", TelValue::U64(pruned.blocks.len() as u64));
    identify_span.field("explored", TelValue::U64(explored_total));
    identify_span.field("cap_hit", TelValue::Bool(cap_hit));
    if config.memo.is_some() {
        identify_span.field("memo_hits", TelValue::U64(memo_hits));
        identify_span.field("memo_misses", TelValue::U64(memo_misses));
    }
    identify_span.end();

    // 3. Estimate each candidate's hardware merit, fanned out per
    //    candidate; the pool is assembled in (block, candidate) order.
    let mut estimate_span = tel.span("ise.estimate");
    let jobs: Vec<(usize, usize)> = per_block
        .iter()
        .enumerate()
        .flat_map(|(bi, b)| (0..b.ident.candidates.len()).map(move |ci| (bi, ci)))
        .collect();
    let estimates: Vec<CandidateEstimate> = parallel_map_indexed(workers, &jobs, |_, &(bi, ci)| {
        let b = &per_block[bi];
        let f = module.func(b.ident.candidates[ci].key.func);
        estimator.estimate(f, &b.dfg, &b.ident.candidates[ci], b.exec_count)
    });
    let mut pool: Vec<(crate::candidate::Candidate, CandidateEstimate)> =
        Vec::with_capacity(jobs.len());
    for (&(bi, ci), est) in jobs.iter().zip(estimates) {
        let cand = per_block[bi].ident.candidates[ci].clone();
        tel.observe("ise.candidate_size", cand.len() as u64);
        pool.push((cand, est));
    }
    estimate_span.field("candidates", TelValue::U64(jobs.len() as u64));
    estimate_span.end();

    // 4. Select under the area budget.
    let selection = {
        let _span = tel.span("ise.select");
        select(pool, config.budget)
    };
    tel.add(names::CANDIDATES_PRUNED, selection.rejected as u64);
    tel.add(names::CANDIDATES_SELECTED, selection.selected.len() as u64);
    let marginal = selection
        .selected
        .iter()
        .filter(|s| s.estimate.merit() == 0)
        .count();
    tel.add(names::CANDIDATES_MARGINAL, marginal as u64);
    drop(search_span);
    let real_time = start.elapsed();

    let asip_ratio = speedup(profile.total_cycles(), &selection);
    let avg_pruned_block_size = if pruned.blocks.is_empty() {
        0.0
    } else {
        pruned.insts_after as f64 / pruned.blocks.len() as f64
    };
    let avg_candidate_size = if selection.selected.is_empty() {
        0.0
    } else {
        selection
            .selected
            .iter()
            .map(|s| s.candidate.len())
            .sum::<usize>() as f64
            / selection.selected.len() as f64
    };

    SearchOutcome {
        prune: pruned,
        selection,
        identified,
        cap_hit,
        identify_work,
        real_time,
        asip_ratio,
        avg_pruned_block_size,
        avg_candidate_size,
    }
}

/// Pruning efficiency (Table II, 3rd column): the gain in the
/// speedup-to-identification-time ratio that pruning buys.
///
/// `eff = (S_pruned / T_pruned) / (S_full / T_full)` where `S` is the ASIP
/// speedup and `T` the identification runtime.
pub fn pruning_efficiency(pruned: (f64, Duration), full: (f64, Duration)) -> f64 {
    let (s_p, t_p) = pruned;
    let (s_f, t_f) = full;
    let denom = s_f / t_f.as_secs_f64().max(1e-9);
    let num = s_p / t_p.as_secs_f64().max(1e-9);
    if denom == 0.0 {
        return 0.0;
    }
    num / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::DepthEstimator;
    use jitise_ir::{FunctionBuilder, Operand as Op, Type};
    use jitise_vm::{Interpreter, Value};

    /// A module with one hot multiply-heavy loop and one cold block.
    fn hot_loop_module() -> Module {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let cell = b.alloca(4);
        b.store(Op::ci32(1), cell);
        b.counted_loop("i", Op::ci32(0), Op::Arg(0), |b, i| {
            let acc = b.load(Type::I32, cell);
            let x = b.mul(acc, i);
            let y = b.mul(x, Op::ci32(3));
            let z = b.add(y, i);
            let w = b.xor(z, Op::ci32(0x5a));
            b.store(w, cell);
        });
        let out = b.load(Type::I32, cell);
        b.ret(out);
        let mut m = Module::new("hot");
        m.add_func(b.finish());
        m
    }

    fn profile_of(m: &Module, n: i64) -> Profile {
        let mut vm = Interpreter::new(m);
        vm.run("main", &[Value::I(n)]).unwrap();
        vm.take_profile()
    }

    #[test]
    fn end_to_end_search_finds_profitable_candidates() {
        let m = hot_loop_module();
        let p = profile_of(&m, 10_000);
        let out = candidate_search(&m, &p, &DepthEstimator::default(), &SearchConfig::default());
        assert!(!out.selection.selected.is_empty(), "must select something");
        assert!(
            out.asip_ratio > 1.0,
            "speedup {} must exceed 1",
            out.asip_ratio
        );
        assert!(out.prune.blocks.len() <= 3, "@50pS3L caps at 3 blocks");
        assert!(out.avg_candidate_size >= 2.0);
        assert!(out.real_time.as_millis() < 5_000);
        assert!(!out.cap_hit);
        assert_eq!(out.identify_work.len(), out.prune.blocks.len());
    }

    #[test]
    fn pruning_reduces_work_but_keeps_most_speedup() {
        let m = hot_loop_module();
        let p = profile_of(&m, 10_000);
        let est = DepthEstimator::default();
        let pruned_cfg = SearchConfig::default();
        let full_cfg = SearchConfig {
            filter: PruneFilter::none(),
            ..SearchConfig::default()
        };
        let pruned = candidate_search(&m, &p, &est, &pruned_cfg);
        let full = candidate_search(&m, &p, &est, &full_cfg);
        assert!(pruned.prune.insts_after <= full.prune.insts_after);
        // The hot loop dominates; pruning should retain >= 90 % of speedup
        // here (the paper's filter sacrifices ~25 % on real apps).
        assert!(pruned.asip_ratio >= 1.0);
        assert!(full.asip_ratio >= pruned.asip_ratio * 0.99);
    }

    #[test]
    fn algorithms_agree_on_simple_loop() {
        let m = hot_loop_module();
        let p = profile_of(&m, 1000);
        let est = DepthEstimator::default();
        for alg in [
            Algorithm::MaxMiso,
            Algorithm::SingleCut,
            Algorithm::UnionMiso,
        ] {
            let cfg = SearchConfig {
                algorithm: alg,
                ..Default::default()
            };
            let out = candidate_search(&m, &p, &est, &cfg);
            assert!(
                out.asip_ratio >= 1.0,
                "{alg} found nothing on an obviously good loop"
            );
        }
    }

    #[test]
    fn worker_lanes_change_nothing_but_real_time() {
        let m = hot_loop_module();
        let p = profile_of(&m, 5_000);
        let est = DepthEstimator::default();
        let run = |workers: usize| {
            candidate_search(
                &m,
                &p,
                &est,
                &SearchConfig {
                    filter: PruneFilter::none(),
                    workers,
                    ..SearchConfig::default()
                },
            )
            .fingerprint()
        };
        let reference = run(1);
        for workers in [2, 8] {
            assert_eq!(run(workers), reference, "workers={workers}");
        }
    }

    #[test]
    fn memo_warm_search_is_identical_and_hits() {
        let m = hot_loop_module();
        let p = profile_of(&m, 5_000);
        let est = DepthEstimator::default();
        let memo = Arc::new(SearchMemo::new());
        let cfg = SearchConfig {
            filter: PruneFilter::none(),
            memo: Some(Arc::clone(&memo)),
            ..SearchConfig::default()
        };
        let cold = candidate_search(&m, &p, &est, &cfg);
        assert_eq!(memo.hits(), 0);
        assert!(memo.misses() > 0);
        let warm = candidate_search(&m, &p, &est, &cfg);
        assert_eq!(cold.fingerprint(), warm.fingerprint());
        assert_eq!(memo.hits(), cold.prune.blocks.len() as u64);
        let bare = candidate_search(
            &m,
            &p,
            &est,
            &SearchConfig {
                filter: PruneFilter::none(),
                ..SearchConfig::default()
            },
        );
        assert_eq!(bare.fingerprint(), warm.fingerprint());
    }

    #[test]
    fn makespan_model_is_greedy_and_monotone() {
        let k = |i: u32| BlockKey::new(jitise_ir::FuncId(i), jitise_ir::BlockId(0));
        let work = [(k(0), 4u64), (k(1), 3), (k(2), 2), (k(3), 1)];
        assert_eq!(identify_makespan(&work, 1), 10);
        assert_eq!(identify_makespan(&work, 2), 5);
        assert_eq!(identify_makespan(&work, 4), 4);
        assert_eq!(identify_makespan(&work, 8), 4, "idle lanes are free");
        assert_eq!(identify_makespan(&work, 0), 10, "clamped to one lane");
        assert_eq!(identify_makespan(&[], 3), 0);
    }

    #[test]
    fn efficiency_metric() {
        use std::time::Duration;
        // Pruned: speedup 3 in 1 ms. Full: speedup 4 in 100 ms.
        let eff = pruning_efficiency(
            (3.0, Duration::from_millis(1)),
            (4.0, Duration::from_millis(100)),
        );
        assert!((eff - 75.0).abs() < 1.0, "eff {eff}");
        assert!(
            pruning_efficiency(
                (0.0, Duration::from_millis(1)),
                (1.0, Duration::from_millis(1))
            ) == 0.0
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(Algorithm::MaxMiso.to_string(), "MAXMISO");
        assert_eq!(Algorithm::SingleCut.to_string(), "SINGLECUT");
        assert_eq!(Algorithm::UnionMiso.to_string(), "UNIONMISO");
    }
}
