//! # jitise-cad — FPGA CAD tool-flow simulator
//!
//! The *Instruction Implementation* phase of the ASIP specialization
//! process (paper Fig. 2): turning a prepared CAD project into a partial
//! reconfiguration bitstream. The paper uses Xilinx ISE 12.2 with the
//! Early-Access Partial Reconfiguration (EAPR) flow on a Virtex-4 FX100;
//! this crate implements a faithful scaled-down equivalent (see DESIGN.md
//! §1 for the substitution rationale):
//!
//! * [`fabric`] — the tile-grid fabric model with DSP columns, site
//!   capacities, and routing channels (the PR region).
//! * [`techmap`] — top-level synthesis: flattening the datapath VHDL and
//!   the pre-synthesized component netlists into one primitive netlist
//!   (the Xst stage that "has to generate a netlist just for the top
//!   level module").
//! * [`place`] — simulated-annealing placement (HPWL objective).
//! * [`route`] — negotiated-congestion maze routing (PathFinder-style).
//! * [`timing`] — static timing analysis of the implemented instruction.
//! * [`bitgen`] — column-frame bitstream serialization with CRC, partial
//!   (EAPR) and full-device variants.
//! * [`flow`] — the stage driver with the runtime cost model calibrated
//!   to Table III (Syn 4.22 s, Xst 10.60 s, Tra 8.99 s, Bitgen 151 s,
//!   map 40–456 s, PAR 56–728 s).
//! * [`sched`] — deficit-round-robin fair dispatch of CAD jobs across
//!   tenants sharing one bounded worker pool (serve runtime timing
//!   model; DESIGN.md §16).

//! * [`overlay`] — the millisecond fast path: covers a candidate datapath
//!   with pre-implemented coarse-grained cells instead of running the full
//!   flow, trading clock rate for install latency (DESIGN.md §17).

pub mod bitgen;
pub mod fabric;
pub mod flow;
pub mod overlay;
mod packed;
pub mod place;
pub mod route;
pub mod sched;
pub mod techmap;
pub mod timing;

pub use bitgen::{bitgen, crc32, Bitstream};
pub use fabric::{Fabric, SiteKind};
pub use flow::{run_flow, run_flow_accounted, FlowCost, FlowError, FlowOptions, FlowReport};
pub use overlay::{map_overlay, InstallTier, OverlayCell, OverlayLibrary, OverlayMap};
pub use place::{check_legal, place, PlaceEffort, Placement};
pub use route::{check_connected, route, RouteEffort, RoutedDesign};
pub use sched::{drr_dispatch, round_bound, DispatchOutcome, DispatchedJob, DrrConfig, PoolJob};
pub use techmap::{netlist_complexity, synthesize_top};
pub use timing::{analyze, cell_delay_ns, TimingReport};
