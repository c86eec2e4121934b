//! # jitise-ise — instruction-set-extension algorithms
//!
//! The *Candidate Search* phase of the ASIP specialization process (paper
//! Fig. 2): find, estimate, and select custom-instruction candidates in an
//! application's data-flow graphs.
//!
//! * [`forbidden`] — the hardware-feasibility policy (memory, globals,
//!   calls and control flow stay on the CPU; §V-D).
//! * [`candidate`] — candidate model: node sets with convexity and
//!   input/output port accounting, plus the structural signature used as
//!   the bitstream-cache key.
//! * [`maxmiso`] — the linear-time MAXMISO identification algorithm the
//!   paper uses for JIT operation.
//! * [`singlecut`] — exact exponential enumeration (the state-of-the-art
//!   baseline whose cost motivates pruning).
//! * [`union`] — UnionMISO clustering baseline (multi-output candidates).
//! * [`prune`] — the `@{p}pS{k}L` pruning-filter family, including the
//!   paper's `@50pS3L`.
//! * [`estimate`] — HW/SW performance estimation interface +
//!   database-free default implementation.
//! * [`select`] — greedy merit/area selection and the ASIP-speedup
//!   computation.
//! * [`memo`] — the cross-search identification memo (cached DFGs and
//!   identification results, content-signature invalidation).
//! * [`search`] — the end-to-end Candidate Search driver (parallel,
//!   deterministic, optionally memoized) with real-time measurement
//!   (Table II `real [ms]`).

pub mod candidate;
pub mod estimate;
pub mod forbidden;
pub mod maxmiso;
pub mod memo;
pub mod prune;
pub mod search;
pub mod select;
pub mod singlecut;
pub mod union;

pub use candidate::Candidate;
pub use estimate::{CandidateEstimate, DepthEstimator, Estimator};
pub use maxmiso::{maxmiso, maxmiso_function};
pub use memo::{IdentOutcome, SearchMemo};
pub use prune::{prune, PruneFilter, PruneResult};
pub use search::{
    candidate_search, identify_makespan, pruning_efficiency, Algorithm, SearchConfig, SearchOutcome,
};
pub use select::{select, speedup, AreaBudget, Selected, SelectionResult};
pub use singlecut::{single_cut, single_cut_with, PortConstraints};
pub use union::union_miso;
