//! Candidate selection.
//!
//! "the selection process selects only the best of them with the help of
//! the performance estimation data" (§III). Selection is a knapsack over
//! the reconfigurable fabric's resources; we use the standard greedy
//! merit-density heuristic, which is near-optimal for the small candidate
//! counts per application and — crucially for JIT use — linear-time after
//! the sort.

use crate::candidate::Candidate;
use crate::estimate::CandidateEstimate;

/// Resource budget of the partial-reconfiguration region.
///
/// Defaults approximate the PR region Woolcano reserves in a Virtex-4
/// FX100 (a fraction of the device's 42k slices / 160 DSP48s).
#[derive(Debug, Clone, Copy)]
pub struct AreaBudget {
    /// Available LUTs.
    pub luts: u32,
    /// Available flip-flops.
    pub ffs: u32,
    /// Available DSP slices.
    pub dsps: u32,
    /// Maximum number of custom instructions (CI slot count).
    pub max_instructions: usize,
    /// Also implement *marginal* candidates — hardware no faster than
    /// software (within `marginal_slack` cycles) but not slower. The
    /// paper's flow implements every candidate its estimator picks, which
    /// is why its scientific rows show many candidates at ≈1.00 speedup;
    /// disable to keep only strictly profitable ones.
    pub keep_marginal: bool,
    /// Tolerated `hw - sw` cycles for a marginal candidate.
    pub marginal_slack: u64,
}

impl Default for AreaBudget {
    fn default() -> Self {
        AreaBudget {
            luts: 20_000,
            ffs: 20_000,
            dsps: 64,
            max_instructions: 256,
            keep_marginal: true,
            marginal_slack: 2,
        }
    }
}

/// A candidate chosen for hardware implementation.
#[derive(Debug, Clone)]
pub struct Selected {
    /// The candidate.
    pub candidate: Candidate,
    /// Its estimate.
    pub estimate: CandidateEstimate,
}

/// Selection outcome.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// Chosen candidates, highest merit first.
    pub selected: Vec<Selected>,
    /// Candidates rejected for zero merit, budget exhaustion, or sharing
    /// an instruction with a candidate selected before them (an
    /// instruction can be replaced by one custom instruction only).
    pub rejected: usize,
    /// Total cycles the selection saves over the profiled run.
    pub total_saved_cycles: u64,
    /// LUTs consumed.
    pub luts_used: u32,
    /// Flip-flops consumed.
    pub ffs_used: u32,
    /// DSPs consumed.
    pub dsps_used: u32,
}

/// Greedy selection by total merit under an area budget. A candidate
/// that overlaps an already selected one is skipped, so the selection's
/// savings never count an instruction twice (SINGLECUT enumerates
/// overlapping cuts; MAXMISO's are disjoint).
pub fn select(
    mut pool: Vec<(Candidate, CandidateEstimate)>,
    budget: AreaBudget,
) -> SelectionResult {
    // Highest merit first; ties toward smaller area, then structural order
    // for determinism.
    pool.sort_by(|a, b| {
        b.1.merit()
            .cmp(&a.1.merit())
            .then(a.1.luts.cmp(&b.1.luts))
            .then(a.0.key.cmp(&b.0.key))
            .then(a.0.nodes.cmp(&b.0.nodes))
    });

    let mut selected = Vec::new();
    let mut rejected = 0usize;
    let (mut luts, mut ffs, mut dsps) = (0u32, 0u32, 0u32);
    let mut saved = 0u64;
    // Instructions covered by the selection: `taken[func][inst]`.
    let mut taken: Vec<Vec<bool>> = Vec::new();

    for (candidate, estimate) in pool {
        // The budget is *per candidate*: every custom instruction is
        // implemented as its own partial bitstream targeting the PR
        // region, and CIs are swapped through the slot file at runtime —
        // they are not resident simultaneously. (This is why the paper can
        // implement 179 candidates for 470.lbm on one Virtex-4.) The
        // cumulative `luts_used`/`dsps_used` tallies below are reported
        // for area accounting, not enforced.
        let fits = selected.len() < budget.max_instructions
            && estimate.luts <= budget.luts
            && estimate.ffs <= budget.ffs
            && estimate.dsps <= budget.dsps;
        let acceptable = estimate.merit() > 0
            || (budget.keep_marginal
                && estimate.hw_cycles <= estimate.sw_cycles + budget.marginal_slack);
        let func = candidate.key.func.idx();
        let overlaps = || {
            let covered = taken.get(func).map_or(&[][..], Vec::as_slice);
            candidate
                .insts
                .iter()
                .any(|i| covered.get(i.idx()) == Some(&true))
        };
        if !acceptable || !fits || overlaps() {
            rejected += 1;
            continue;
        }
        if taken.len() <= func {
            taken.resize_with(func + 1, Vec::new);
        }
        let covered = &mut taken[func];
        for i in &candidate.insts {
            if covered.len() <= i.idx() {
                covered.resize(i.idx() + 1, false);
            }
            covered[i.idx()] = true;
        }
        luts += estimate.luts;
        ffs += estimate.ffs;
        dsps += estimate.dsps;
        saved += estimate.merit();
        selected.push(Selected {
            candidate,
            estimate,
        });
    }

    SelectionResult {
        selected,
        rejected,
        total_saved_cycles: saved,
        luts_used: luts,
        ffs_used: ffs,
        dsps_used: dsps,
    }
}

/// Application speedup if the given selection is implemented: the ASIP
/// ratio columns of Tables I and II.
///
/// `total_cycles` is the profiled whole-application cycle count; each
/// selected candidate removes `merit()` cycles from it.
pub fn speedup(total_cycles: u64, selection: &SelectionResult) -> f64 {
    if total_cycles == 0 {
        return 1.0;
    }
    let saved = selection.total_saved_cycles.min(total_cycles - 1);
    total_cycles as f64 / (total_cycles - saved) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_ir::{BlockId, FuncId};
    use jitise_vm::BlockKey;

    /// A candidate of function 0; instruction ids are unique per block,
    /// as they are in a real function.
    fn cand(block: u32, nodes: Vec<u32>) -> Candidate {
        Candidate {
            key: BlockKey::new(FuncId(0), BlockId(block)),
            insts: nodes
                .iter()
                .map(|&n| jitise_ir::InstId(block * 100 + n))
                .collect(),
            nodes,
            inputs: 2,
            outputs: 1,
            const_inputs: 0,
        }
    }

    fn est(sw: u64, hw: u64, count: u64, luts: u32) -> CandidateEstimate {
        CandidateEstimate {
            sw_cycles: sw,
            hw_cycles: hw,
            exec_count: count,
            luts,
            ffs: 0,
            dsps: 0,
        }
    }

    #[test]
    fn picks_highest_merit_first() {
        let pool = vec![
            (cand(0, vec![0]), est(10, 5, 100, 10)), // merit 500
            (cand(1, vec![0]), est(20, 5, 100, 10)), // merit 1500
            (cand(2, vec![0]), est(10, 9, 100, 10)), // merit 100
        ];
        let r = select(pool, AreaBudget::default());
        assert_eq!(r.selected.len(), 3);
        assert_eq!(r.selected[0].candidate.key.block, BlockId(1));
        assert_eq!(r.total_saved_cycles, 2100);
    }

    #[test]
    fn overlapping_candidates_keep_only_the_higher_merit_one() {
        let pool = vec![
            (cand(0, vec![1, 2]), est(20, 5, 100, 10)), // merit 1500
            (cand(0, vec![0, 1]), est(30, 5, 100, 10)), // merit 2500
            (cand(1, vec![1, 2]), est(20, 5, 100, 10)), // another block
        ];
        let r = select(pool, AreaBudget::default());
        let kept: Vec<_> = r.selected.iter().map(|s| &s.candidate.nodes).collect();
        assert_eq!(kept, [&vec![0, 1], &vec![1, 2]]);
        assert_eq!(r.selected[1].candidate.key.block, BlockId(1));
        assert_eq!(r.rejected, 1, "the overlapping cut of block 0 is rejected");
        assert_eq!(r.total_saved_cycles, 2500 + 1500);
    }

    #[test]
    fn oversized_candidate_rejected_region_budget_is_per_candidate() {
        let pool = vec![
            (cand(0, vec![0]), est(20, 5, 100, 900)),  // fits the region
            (cand(1, vec![0]), est(10, 5, 100, 1200)), // exceeds the region
            (cand(2, vec![0]), est(10, 5, 100, 900)),  // fits again
        ];
        let r = select(
            pool,
            AreaBudget {
                luts: 1000,
                ..Default::default()
            },
        );
        // Per-candidate feasibility: both 900-LUT candidates are kept even
        // though their sum exceeds the region (they are time-multiplexed
        // through the slot file); only the 1200-LUT one is rejected.
        assert_eq!(r.selected.len(), 2);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.luts_used, 1800);
    }

    #[test]
    fn marginal_policy() {
        let mk = || {
            vec![
                (cand(0, vec![0]), est(5, 10, 100, 10)), // hw clearly slower
                (cand(1, vec![0]), est(5, 5, 100, 10)),  // break even
            ]
        };
        // Default (paper behaviour): break-even candidates implemented,
        // clearly-slower ones rejected.
        let r = select(mk(), AreaBudget::default());
        assert_eq!(r.selected.len(), 1);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.total_saved_cycles, 0);
        // Strict mode: only strictly profitable candidates.
        let r = select(
            mk(),
            AreaBudget {
                keep_marginal: false,
                ..Default::default()
            },
        );
        assert!(r.selected.is_empty());
        assert_eq!(r.rejected, 2);
    }

    #[test]
    fn slot_cap_applies() {
        let pool: Vec<_> = (0..10)
            .map(|i| (cand(i, vec![0]), est(10, 5, 100, 1)))
            .collect();
        let r = select(
            pool,
            AreaBudget {
                max_instructions: 4,
                ..Default::default()
            },
        );
        assert_eq!(r.selected.len(), 4);
        assert_eq!(r.rejected, 6);
    }

    #[test]
    fn speedup_formula() {
        let pool = vec![(cand(0, vec![0]), est(10, 5, 100, 10))]; // saves 500
        let r = select(pool, AreaBudget::default());
        // 1000 cycles total, 500 saved -> 2x.
        assert!((speedup(1000, &r) - 2.0).abs() < 1e-9);
        // Saved capped below total.
        assert!(speedup(400, &r).is_finite());
        assert_eq!(speedup(0, &r), 1.0);
    }

    #[test]
    fn deterministic_on_ties() {
        let mk = || {
            vec![
                (cand(1, vec![0]), est(10, 5, 100, 10)),
                (cand(0, vec![0]), est(10, 5, 100, 10)),
            ]
        };
        let a = select(mk(), AreaBudget::default());
        let b = select(mk(), AreaBudget::default());
        assert_eq!(
            a.selected[0].candidate.key, b.selected[0].candidate.key,
            "tie-break must be stable"
        );
        assert_eq!(a.selected[0].candidate.key.block, BlockId(0));
    }
}
