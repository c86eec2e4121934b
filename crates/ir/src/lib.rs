//! # jitise-ir — the "bitcode" intermediate representation
//!
//! A small SSA intermediate representation standing in for LLVM bitcode in
//! the paper's tool flow (Fig. 1: *source code → bitcode (IR) → VM*). The
//! ISE algorithms, the PivPav datapath generator and the Woolcano binary
//! patcher all operate on this IR, exactly as the paper's pipeline operates
//! on LLVM IR.
//!
//! Feature inventory:
//!
//! * **Types** — integer widths 1/8/16/32/64, f32/f64, pointers
//!   ([`Type`]).
//! * **Instructions** — ~50 operations covering the LLVM subset relevant to
//!   ISE: integer/float arithmetic, bitwise logic, shifts, comparisons,
//!   select, casts, loads/stores, address arithmetic (GEP), alloca, global
//!   addresses, calls, external math functions, phi nodes, and the
//!   [`InstKind::Custom`] opcode through which the Woolcano patcher invokes
//!   loaded custom instructions ([`inst`]).
//! * **Functions & modules** — block-structured CFG with explicit
//!   terminators ([`function`], [`module`]).
//! * **Builder** — ergonomic construction API used by the benchmark
//!   applications ([`builder::FunctionBuilder`]).
//! * **Verifier** — SSA dominance checking, type checking, CFG sanity
//!   ([`verify`]).
//! * **Dominators / CFG utilities** — ([`dom`]).
//! * **Optimization passes** — an `-O3`-like pipeline (constant folding,
//!   local CSE, instcombine, DCE, CFG simplification), modeling the paper's
//!   "compilation to bitcode … covers also the runtime of the standard
//!   (-O3) optimizations" ([`passes`]).
//! * **Data-flow graphs** — per-basic-block DFGs, the input to the ISE
//!   algorithms ([`dfg`]).
//! * **Printer** — human-readable textual form ([`printer`]).
//! * **Statistics** — block/instruction counts and size distributions used
//!   throughout Tables I and II ([`stats`]).

pub mod builder;
pub mod dfg;
pub mod dom;
pub mod function;
pub mod inst;
pub mod module;
pub mod passes;
pub mod printer;
pub mod stats;
pub mod types;
pub mod verify;

pub use builder::FunctionBuilder;
pub use dfg::{Dfg, DfgNode, Escapes};
pub use function::{Block, BlockId, Function, InstId};
pub use inst::{BinOp, CmpOp, ExtFunc, Imm, Inst, InstKind, Opcode, Operand, Terminator, UnOp};
pub use module::{FuncId, Global, GlobalId, Module};
pub use types::Type;
