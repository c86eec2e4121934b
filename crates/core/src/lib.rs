//! # jitise-core — the just-in-time ASIP specialization process
//!
//! The paper's primary contribution: the tool flow that moves instruction
//! set customization to runtime (Figs. 1 and 2).
//!
//! * [`pipeline`] — the three-phase ASIP-SP (Candidate Search → Netlist
//!   Generation → Instruction Implementation) plus the adaptation phase
//!   (reconfigure + binary patch).
//! * [`cache`] — the partial-reconfiguration bitstream cache of §VI-A.
//! * [`breakeven`] — both break-even models of §V-D.
//! * [`extrapolate`] — the Table IV cache/tool-speedup extrapolation.
//! * [`evaluation`] — the per-application measurement protocol driving
//!   the table reproductions.
//! * [`runtime`] — the concurrent JIT runtime: the application executes
//!   while a background worker specializes, then hot-swaps.

pub mod breakeven;
pub mod cache;
pub mod evaluation;
pub mod extrapolate;
pub mod pipeline;
pub mod runtime;
#[cfg(test)]
pub(crate) mod testfix;

pub use breakeven::{
    break_even_scaled, break_even_simplistic, break_even_two_tier, BreakEvenInputs, TwoTierInputs,
};
pub use cache::BitstreamCache;
pub use evaluation::{break_even_basis, evaluate_app, AppEvaluation, BreakEvenBasis, EvalContext};
pub use extrapolate::{
    average_break_even, average_break_even_detailed, table_iv, BreakEvenAverage, CACHE_RATES,
    NEVER_AMORTIZE_CAP_NS, TOOL_SPEEDUPS,
};
pub use pipeline::{
    specialize, CadJob, CadJobResult, CandidateOutcome, FailedCandidate, SpecializeConfig,
    SpecializeReport, SpecializeSession,
};
pub use runtime::{
    evict, hydrate, run_adaptive, run_adaptive_with, run_storm, worker_fault, AdaptiveOptions,
    AdaptiveOutcome, DegradedReason, PhasePolicy, PhaseSegment, StormOptions, StormOutcome,
    WorkloadSession,
};
