//! # jitise-vm — virtual machine, profiler, and program analyses
//!
//! The paper's applications "execute on a virtual machine" (LLVM's JIT);
//! the VM supplies the runtime information — block execution frequencies,
//! hot-spot structure — that makes *just-in-time* ISE possible at all
//! (Fig. 1). This crate provides:
//!
//! * [`interp::Interpreter`] — a direct interpreter for `jitise-ir` modules
//!   with a linear memory, call stack, and external math functions;
//! * [`cost`] — the PowerPC-405 cycle-cost model (the Woolcano base CPU)
//!   and its FCB custom-instruction interface; every executed instruction
//!   is charged cycles, and reported runtimes are *simulated seconds* at
//!   the core clock;
//! * [`profile::Profile`] — per-block execution counts and cycle totals
//!   (the data behind Tables I and II);
//! * [`coverage`] — the live/dead/const classification of §IV-C, computed
//!   by comparing block frequencies across input datasets;
//! * [`kernel`] — the 90 %-execution-time kernel analysis of §IV-C;
//! * [`exec_model`] — the VM-vs-native execution-time model behind Table
//!   I's `VM`, `Native` and `Ratio` columns.
//!
//! Custom instructions: the interpreter executes
//! [`jitise_ir::InstKind::Custom`] opcodes through a
//! [`interp::CustomHandler`], which the Woolcano architecture model
//! implements. This is how specialized binaries run after the adaptation
//! phase. On the fast tier, a handler can instead [`CustomHandler::bind`]
//! its loaded CIs once per run as pre-lowered [`ci::CiProgram`]s.

pub mod ci;
pub mod cost;
pub mod coverage;
pub mod exec_model;
pub mod interp;
pub mod kernel;
pub mod mem;
pub mod predecode;
pub mod profile;
pub mod value;

pub use ci::{CiBinding, CiProgram, CiProgramBuilder, CiRef};
pub use interp::{CustomHandler, ExecOutcome, Interpreter, DEFAULT_MAX_STEPS};
pub use predecode::{PredecodedModule, VmTier};
pub use profile::{BlockKey, HotnessWindow, Profile};
pub use value::Value;
