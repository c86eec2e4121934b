//! Pre-decoded fast dispatch tier.
//!
//! The interpreter in [`crate::interp`] is the *reference semantics*: it
//! walks `InstKind` values, resolves `Operand`s through `Vec<Option<Value>>`
//! probing, re-derives operand types, scans for phis at every block entry,
//! and prices every instruction through a cost-model `match`. All of that
//! work is invariant across executions of the same block, so a long-lived
//! runtime (the adaptive loop runs the same module thousands of times) pays
//! it over and over.
//!
//! This module builds a [`PredecodedModule`] once per module — operands
//! resolved to dense register/arg/const slots ([`Src`]), phi parallel
//! copies compiled to per-incoming-edge move lists ([`Edge`]), per-block
//! cycle constants pre-summed for every cost that is not data-dependent —
//! and executes it with a flat dispatch loop.
//!
//! **Contract:** the fast tier is bit-identical to the interpreter in
//! results, `cycles`, `steps`, per-block [`crate::profile::Profile`]
//! contents, and error strings, including on trap paths (division by zero,
//! fuel exhaustion, out-of-bounds memory, undefined reads, missing phi
//! edges). The differential suites in `tests/equivalence.rs` and the
//! 14-app identity test enforce this; DESIGN.md §15 documents why the
//! accounting is tier-invariant.

use crate::cost::CostModel;
use crate::interp::{eval_ext, value_to_imm, Interpreter};
use crate::profile::BlockKey;
use crate::value::Value;
use jitise_base::{Error, Result};
use jitise_ir::passes::constfold::{fold_cmp, fold_float_bin, fold_int_bin, fold_un};
use jitise_ir::{
    BinOp, BlockId, CmpOp, ExtFunc, FuncId, Function, InstId, InstKind, Module, Operand,
    Terminator, Type, UnOp,
};

/// Execution tier of the [`Interpreter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VmTier {
    /// The reference `InstKind`-walking interpreter (default).
    #[default]
    Interp,
    /// Pre-decoded threaded dispatch over flat arrays. Bit-identical to
    /// [`VmTier::Interp`] in every observable; several times faster.
    Fast,
}

impl VmTier {
    /// Parses a tier name as used by CLI flags (`interp` / `fast`).
    pub fn parse(s: &str) -> Option<VmTier> {
        match s {
            "interp" => Some(VmTier::Interp),
            "fast" => Some(VmTier::Fast),
            _ => None,
        }
    }

    /// The CLI-facing name.
    pub fn name(self) -> &'static str {
        match self {
            VmTier::Interp => "interp",
            VmTier::Fast => "fast",
        }
    }
}

/// A pre-resolved operand: an index into the frame's unified slot array,
/// laid out as `[instruction results | arguments | constants]`. Arguments
/// and constants are materialized into the array at frame entry, so a read
/// is a single indexed load with **no** operand-kind dispatch (a per-read
/// `match` compiles to a data-dependent indirect branch that dominates the
/// dispatch loop's cost).
///
/// [`SRC_CHECKED`] marks the one exception: a register read whose
/// definedness could not be discharged at decode time (def neither earlier
/// in the same block nor in a strictly dominating block). Its payload is
/// the instruction's arena index, so the undefined-read diagnostic prints
/// the same `%id` as the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Src(u32);

/// High bit of [`Src`]: keep the interpreter's runtime definedness check.
const SRC_CHECKED: u32 = 1 << 31;

/// Slot for an argument operand out of the function's declared range: far
/// past any real slot array, so reading it panics on the bounds check just
/// like the interpreter's `args[i]` does (the verifier rejects such IR).
/// Checked-payload base marking an out-of-range `Arg` operand; the low
/// bits carry the original argument index so the runtime can reproduce the
/// interpreter's exact slice-index panic (`args[i]` on a short slice).
const SRC_OOB_ARG_BASE: u32 = 1 << 30;

/// [`Value::normalize`] compiled to data: integers shift left-then-right by
/// `sh` (arithmetic), floats round through f32 precision iff `f32r`. Built
/// once per decoded use of a `Type` so the dispatch loop never matches on
/// `Type` (each such match is another jump table).
#[derive(Debug, Clone, Copy)]
struct Norm {
    sh: u32,
    f32r: bool,
}

impl Norm {
    /// Float-only normalization (the `sh` half only applies to ints).
    #[inline(always)]
    fn apply_f(self, x: f64) -> f64 {
        if self.f32r {
            x as f32 as f64
        } else {
            x
        }
    }

    fn of(ty: Type) -> Norm {
        Norm {
            sh: wrap_shift(ty),
            f32r: ty == Type::F32,
        }
    }

    /// Exactly `v.normalize(ty)` for the `ty` this was built from.
    #[inline(always)]
    fn apply(self, v: Value) -> Value {
        match v {
            Value::I(x) => Value::I((x << self.sh) >> self.sh),
            Value::F(x) => Value::F(if self.f32r { x as f32 as f64 } else { x }),
        }
    }
}

/// The shift pair equivalent of `ty.sext(ty.trunc(v))`: shifting an i64
/// left by `64 - bits` then arithmetically right reproduces
/// truncate-then-sign-extend in two ALU ops. Zero (identity) for 64-bit and
/// width-0 types, matching [`Type::sext`]/[`Type::trunc`].
pub(crate) fn wrap_shift(ty: Type) -> u32 {
    let b = ty.bits();
    if b == 0 || b >= 64 {
        0
    } else {
        64 - b
    }
}

/// Integer ALU ops with a specialized kernel, here (`AddI` … `AShrI`) and
/// in lowered custom instructions ([`crate::ci`]). All but `LShr` also take
/// part in pair fusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AluK {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
}

/// The specialized decode of integer binop `op` at result type `ty`: its
/// kind, the wrap shift ([`wrap_shift`]) and the shift-amount mask
/// (`bits - 1`, as `fold_int_bin` masks it). `None` for division and
/// remainder, which keep the constant folder's zero-divisor trap, and for
/// float ops.
pub(crate) fn int_alu(op: BinOp, ty: Type) -> Option<(AluK, u32, u32)> {
    let k = match op {
        BinOp::Add => AluK::Add,
        BinOp::Sub => AluK::Sub,
        BinOp::Mul => AluK::Mul,
        BinOp::And => AluK::And,
        BinOp::Or => AluK::Or,
        BinOp::Xor => AluK::Xor,
        BinOp::Shl => AluK::Shl,
        BinOp::LShr => AluK::LShr,
        BinOp::AShr => AluK::AShr,
        _ => return None,
    };
    Some((k, wrap_shift(ty), ty.bits().max(1) - 1))
}

/// The specialized decode of integer predicate `op`: whether it orders
/// the operands unsigned, and its result bit per ordering (bit 0 = Less,
/// 1 = Equal, 2 = Greater). `None` for float predicates, which go through
/// `fold_cmp`.
pub(crate) fn int_cmp(op: CmpOp) -> Option<(bool, u32)> {
    Some(match op {
        CmpOp::Eq => (false, 0b010),
        CmpOp::Ne => (false, 0b101),
        CmpOp::Slt => (false, 0b001),
        CmpOp::Sle => (false, 0b011),
        CmpOp::Sgt => (false, 0b100),
        CmpOp::Sge => (false, 0b110),
        CmpOp::Ult => (true, 0b001),
        CmpOp::Ule => (true, 0b011),
        CmpOp::Ugt => (true, 0b100),
        CmpOp::Uge => (true, 0b110),
        _ => return None,
    })
}

/// One compiled phi parallel-copy move: `reg[dst] = norm(read(src))`.
#[derive(Debug, Clone, Copy)]
struct PhiMove {
    dst: u32,
    norm: Norm,
    src: Src,
}

/// The compiled parallel copy for one incoming CFG edge.
#[derive(Debug, Clone)]
struct Edge {
    moves: Box<[PhiMove]>,
    /// Pre-formatted "phi has no incoming edge" error, hit at phi position
    /// `moves.len()` (phis before it still execute and charge steps, phis
    /// after it are never reached — exactly the interpreter's order).
    missing: Option<Box<str>>,
    /// Cycles the moves charge when the copy completes.
    cycles: u64,
}

/// A branch target: the destination block plus the index of the matching
/// parallel-copy edge in that block (`u32::MAX` when the destination has no
/// leading phis).
#[derive(Debug, Clone, Copy)]
struct Target {
    block: u32,
    edge: u32,
}

const NO_EDGE: u32 = u32::MAX;
/// `dst` sentinel for instructions without a result (stores).
const NO_DST: u32 = u32::MAX;

/// A decoded straight-line instruction.
#[derive(Debug, Clone)]
struct FastInst {
    /// Destination register slot, or [`NO_DST`].
    dst: u32,
    op: FastOp,
}

/// Decoded instruction payloads. Operand types that the interpreter
/// re-derives per execution (`verify::operand_ty`) are resolved here once.
#[derive(Debug, Clone)]
enum FastOp {
    /// Wrap-only integer binop (`add`/`sub`/`mul`/`and`/`or`/`xor`),
    /// specialized per op at decode time so the only run-time dispatch is
    /// the single `FastOp` discriminant jump: `fold_int_bin`'s inner
    /// `BinOp` and `Type` matches each cost an indirect branch per
    /// executed instruction, and integer binops are 30–90% of the dynamic
    /// mix on the bench apps.
    AddI {
        sh: u32,
        a: Src,
        b: Src,
    },
    SubI {
        sh: u32,
        a: Src,
        b: Src,
    },
    MulI {
        sh: u32,
        a: Src,
        b: Src,
    },
    AndI {
        sh: u32,
        a: Src,
        b: Src,
    },
    OrI {
        sh: u32,
        a: Src,
        b: Src,
    },
    XorI {
        sh: u32,
        a: Src,
        b: Src,
    },
    /// Shifts with the decode-time amount mask (`bits - 1`).
    ShlI {
        sh: u32,
        mask: u32,
        a: Src,
        b: Src,
    },
    LShrI {
        sh: u32,
        mask: u32,
        a: Src,
        b: Src,
    },
    AShrI {
        sh: u32,
        mask: u32,
        a: Src,
        b: Src,
    },
    /// Remaining integer binops (div/rem families, which trap on zero):
    /// generic [`fold_int_bin`] fallback keeps the exact trap semantics.
    BinI {
        op: BinOp,
        ty: Type,
        a: Src,
        b: Src,
    },
    /// Float binop specialized per op (`fold_float_bin`'s `BinOp` match is
    /// an indirect branch; whetstone's dynamic mix is >50% float binops).
    FAdd {
        norm: Norm,
        a: Src,
        b: Src,
    },
    FSub {
        norm: Norm,
        a: Src,
        b: Src,
    },
    FMul {
        norm: Norm,
        a: Src,
        b: Src,
    },
    FDiv {
        norm: Norm,
        a: Src,
        b: Src,
    },
    /// Any other float binop: generic fallback (panics in
    /// `fold_float_bin`'s `expect`, exactly like the interpreter).
    BinF {
        op: BinOp,
        norm: Norm,
        a: Src,
        b: Src,
    },
    Un {
        op: UnOp,
        ty: Type,
        src_ty: Type,
        a: Src,
    },
    /// Signed/equality integer compare, branchless: `enc` holds the
    /// boolean result for each [`std::cmp::Ordering`] of the sign-extended
    /// operands (bit 0 = Less, bit 1 = Equal, bit 2 = Greater), so one
    /// variant covers eq/ne/slt/sle/sgt/sge with no per-op dispatch. The
    /// original `op`/`src_ty` are kept for the non-integer-operand
    /// fallback, which defers to the interpreter's exact
    /// `value_to_imm` + `fold_cmp` path.
    CmpSI {
        enc: u32,
        sh: u32,
        op: CmpOp,
        src_ty: Type,
        a: Src,
        b: Src,
    },
    /// Unsigned integer compare; like [`FastOp::CmpSI`] but ordering the
    /// truncated unsigned operands (`s_sh` sign-extends first, `u_sh` then
    /// truncates, reproducing `fold_cmp`'s `ty.trunc(imm.as_i64())`).
    CmpUI {
        enc: u32,
        s_sh: u32,
        u_sh: u32,
        op: CmpOp,
        src_ty: Type,
        a: Src,
        b: Src,
    },
    /// Float compares and any future compare kinds: generic fallback.
    Cmp {
        op: CmpOp,
        src_ty: Type,
        a: Src,
        b: Src,
    },
    Select {
        norm: Norm,
        c: Src,
        a: Src,
        b: Src,
    },
    /// Integer load specialized to its byte width `N` (const-generic raw
    /// access in [`crate::mem::Memory::load_bytes`] lowers to one machine
    /// load; the generic path's `Type` match and variable-length copy both
    /// cost dispatch). `sh` sign-extends the raw bits like `Type::sext`.
    LoadI1 {
        sh: u32,
        p: Src,
    },
    LoadI2 {
        sh: u32,
        p: Src,
    },
    LoadI4 {
        sh: u32,
        p: Src,
    },
    LoadI8 {
        p: Src,
    },
    LoadF4 {
        p: Src,
    },
    LoadF8 {
        p: Src,
    },
    /// Width-less (`Void`-typed) loads: generic fallback.
    Load {
        ty: Type,
        p: Src,
    },
    /// Integer store at byte width `N`; `sh` truncates like `Type::trunc`
    /// (observable only for `i1`, whose single stored byte keeps one bit).
    /// A float value under an integer-typed store falls back to the
    /// generic path for the exact mismatch diagnostic.
    StoreI1 {
        sh: u32,
        val_ty: Type,
        v: Src,
        p: Src,
    },
    StoreI2 {
        sh: u32,
        val_ty: Type,
        v: Src,
        p: Src,
    },
    StoreI4 {
        sh: u32,
        val_ty: Type,
        v: Src,
        p: Src,
    },
    StoreI8 {
        val_ty: Type,
        v: Src,
        p: Src,
    },
    StoreF4 {
        val_ty: Type,
        v: Src,
        p: Src,
    },
    StoreF8 {
        val_ty: Type,
        v: Src,
        p: Src,
    },
    Store {
        val_ty: Type,
        v: Src,
        p: Src,
    },
    Gep {
        base: Src,
        index: Src,
        elem_bytes: i64,
    },
    Alloca {
        bytes: u32,
    },
    GlobalAddr {
        idx: usize,
    },
    Call {
        callee: u32,
        args: Box<[Src]>,
    },
    CallExt {
        f: ExtFunc,
        args: Box<[Src]>,
    },
    Custom {
        slot: u32,
        args: Box<[Src]>,
    },
    /// A phi below a non-phi instruction: traps when reached (the verifier
    /// rejects such functions, but the interpreter tolerates them until
    /// execution and so must this tier).
    PhiTrap,
    // ---- fused superinstructions (built by `try_fuse`) ----
    // Each fused variant executes two source instructions in one dispatch:
    // the producer's result is single-use, consumed by the very next
    // instruction in the same block through an unchecked slot read, so the
    // intermediate register write is elided entirely. Accounting stays per
    // source instruction: every arm bumps `steps` and re-checks the fuel
    // budget between the two halves, exactly where the interpreter would.
    // The table holds only the pairs the benchmark workloads execute
    // (DESIGN.md §15 (e)); any other pair runs as its two plain ops.
    FAddAdd {
        sh1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FAddMul {
        sh1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FAddAnd {
        sh1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FAddXor {
        sh1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FMulAdd {
        sh1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FMulMul {
        sh1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FMulAnd {
        sh1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FMulXor {
        sh1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FMulSub1 {
        sh1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FMulAShr1 {
        sh1: u32,
        sh2: u32,
        mask2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FAndAdd {
        sh1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FAndMul {
        sh1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FAndAnd {
        sh1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FAndXor {
        sh1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FXorAdd {
        sh1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FXorMul {
        sh1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FXorAnd {
        sh1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FXorXor {
        sh1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FShlOr {
        sh1: u32,
        mask1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FShlSub1 {
        sh1: u32,
        mask1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FAShrAdd {
        sh1: u32,
        mask1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FAShrMul {
        sh1: u32,
        mask1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FAShrAnd {
        sh1: u32,
        mask1: u32,
        sh2: u32,
        a: Src,
        b: Src,
        c: Src,
    },
    FFAddFAdd1 {
        n1: Norm,
        n2: Norm,
        a: Src,
        b: Src,
        c: Src,
    },
    FFAddFAdd2 {
        n1: Norm,
        n2: Norm,
        a: Src,
        b: Src,
        c: Src,
    },
    FFAddFMul1 {
        n1: Norm,
        n2: Norm,
        a: Src,
        b: Src,
        c: Src,
    },
    FFAddFMul2 {
        n1: Norm,
        n2: Norm,
        a: Src,
        b: Src,
        c: Src,
    },
    FFMulFAdd1 {
        n1: Norm,
        n2: Norm,
        a: Src,
        b: Src,
        c: Src,
    },
    FFMulFAdd2 {
        n1: Norm,
        n2: Norm,
        a: Src,
        b: Src,
        c: Src,
    },
    FFMulFMul1 {
        n1: Norm,
        n2: Norm,
        a: Src,
        b: Src,
        c: Src,
    },
    FFAddStoreF8 {
        n1: Norm,
        a: Src,
        b: Src,
        p: Src,
    },
    FGepLoadI4 {
        sh2: u32,
        base: Src,
        index: Src,
        elem_bytes: i64,
    },
    FGepLoadF8 {
        base: Src,
        index: Src,
        elem_bytes: i64,
    },
    FGepStoreI4 {
        sh2: u32,
        val_ty: Type,
        v: Src,
        base: Src,
        index: Src,
        elem_bytes: i64,
    },
    FGepStoreF8 {
        val_ty: Type,
        v: Src,
        base: Src,
        index: Src,
        elem_bytes: i64,
    },
    FCmpSISelect {
        enc: u32,
        sh1: u32,
        cop: CmpOp,
        src_ty: Type,
        n2: Norm,
        a: Src,
        b: Src,
        x: Src,
        y: Src,
    },
}

/// Decoded terminators, with pre-resolved targets/edges.
#[derive(Debug, Clone)]
enum FastTerm {
    Br(Target),
    CondBr {
        c: Src,
        t: Target,
        f: Target,
    },
    Switch {
        v: Src,
        /// Case table sorted by key for binary search, deduplicated keeping
        /// the first occurrence of each key (the interpreter's linear scan
        /// takes the first match). The scan-cost cycle charge still uses
        /// the original case count (pre-summed into `static_cycles`).
        cases: Box<[(i64, Target)]>,
        default: Target,
    },
    Ret(Option<Src>),
    /// Unterminated block (transient construction state); panics like
    /// [`jitise_ir::Block::terminator`] if ever executed.
    NoTerm,
}

/// One decoded basic block.
#[derive(Debug, Clone)]
struct FastBlock {
    /// Straight-line instructions (leading phis excluded — those live in
    /// [`Edge`] move lists).
    body: Box<[FastInst]>,
    /// Source body instruction count (fusion makes `body.len()` smaller
    /// than the number of dynamic instructions the block accounts for).
    body_insts: u32,
    /// Cycles with no data dependence, pre-summed: every body instruction's
    /// base cost plus the terminator's branch cost (including the switch
    /// case-scan penalty, which depends only on the case count). Only
    /// custom-instruction hardware cycles are added at run time.
    static_cycles: u64,
    term: FastTerm,
    /// Parallel-copy programs, one per (deduplicated) CFG predecessor.
    edges: Box<[Edge]>,
}

/// One decoded function.
#[derive(Debug, Clone)]
struct FastFunc {
    fid: FuncId,
    name: String,
    params_len: usize,
    /// Instruction-result slot count after liveness compaction (dedicated
    /// slots, then the shared block-local range). The frame's slot array is
    /// `num_regs` result slots, then `params_len` argument slots, then the
    /// materialized `consts` pool.
    num_regs: usize,
    /// Source instruction arena length (shape check for [`PredecodedModule::matches`]).
    insts_len: usize,
    /// Arena index behind each dedicated slot, for undefined-read
    /// diagnostics (`%id` must match the interpreter's).
    slot_ids: Box<[u32]>,
    /// Deduplicated constant operands, copied into the frame's slot array
    /// at entry so constant reads are plain indexed loads.
    consts: Box<[Value]>,
    /// Distinct register slots consulted by at least one [`SRC_CHECKED`]
    /// read. Frame entry resets exactly these `defined` flags instead of
    /// memsetting all `num_regs` of them — call-heavy apps enter large
    /// functions far more often than they take checked reads.
    checked_regs: Box<[u32]>,
    blocks: Vec<FastBlock>,
}

/// A module compiled for the fast tier. Build once per module (and cost
/// model) with [`PredecodedModule::build`], share across VM instances via
/// [`Interpreter::set_predecoded`].
#[derive(Debug, Clone)]
pub struct PredecodedModule {
    funcs: Vec<FastFunc>,
    clock_hz: u64,
    dispatch_overhead: u64,
}

impl PredecodedModule {
    /// Decodes every function of `m` under `cost`.
    pub fn build(m: &Module, cost: &CostModel) -> PredecodedModule {
        PredecodedModule {
            funcs: m
                .func_ids()
                .map(|fid| decode_func(m.func(fid), fid, cost))
                .collect(),
            clock_hz: cost.clock_hz,
            dispatch_overhead: cost.dispatch_overhead,
        }
    }

    /// Cheap sanity check that this representation was built from a module
    /// with the same shape and the same cost model. Not a full structural
    /// comparison — callers must pass the module it was built from.
    pub(crate) fn matches(&self, m: &Module, cost: &CostModel) -> bool {
        self.clock_hz == cost.clock_hz
            && self.dispatch_overhead == cost.dispatch_overhead
            && self.funcs.len() == m.func_ids().count()
            && m.func_ids().zip(&self.funcs).all(|(fid, pf)| {
                let f = m.func(fid);
                pf.name == f.name
                    && pf.insts_len == f.insts.len()
                    && pf.blocks.len() == f.blocks.len()
            })
    }
}

/// Immediate dominators of the reachable CFG (Cooper–Harvey–Kennedy),
/// indexed by block; `u32::MAX` marks unreachable blocks, the entry is its
/// own idom. Used only at decode time to discharge definedness checks.
fn compute_idom(f: &Function) -> Vec<u32> {
    const UNDEF: u32 = u32::MAX;
    let n = f.blocks.len();
    let mut idom = vec![UNDEF; n];
    if n == 0 {
        return idom;
    }
    let succs: Vec<Vec<u32>> = f
        .blocks
        .iter()
        .map(|b| match &b.term {
            Some(Terminator::Br(t)) => vec![t.0],
            Some(Terminator::CondBr(_, t, e)) => vec![t.0, e.0],
            Some(Terminator::Switch(_, cases, d)) => {
                cases.iter().map(|(_, t)| t.0).chain([d.0]).collect()
            }
            Some(Terminator::Ret(_)) | None => vec![],
        })
        .collect();
    // Reverse postorder over blocks reachable from the entry.
    let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
    let mut post: Vec<u32> = Vec::with_capacity(n);
    let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
    state[0] = 1;
    while let Some(top) = stack.last_mut() {
        let b = top.0 as usize;
        if top.1 < succs[b].len() {
            let s = succs[b][top.1];
            top.1 += 1;
            if state[s as usize] == 0 {
                state[s as usize] = 1;
                stack.push((s, 0));
            }
        } else {
            post.push(top.0);
            state[b] = 2;
            stack.pop();
        }
    }
    let rpo: Vec<u32> = post.iter().rev().copied().collect();
    let mut rpo_idx = vec![UNDEF; n];
    for (i, &b) in rpo.iter().enumerate() {
        rpo_idx[b as usize] = i as u32;
    }
    fn intersect(idom: &[u32], rpo_idx: &[u32], mut a: u32, mut b: u32) -> u32 {
        while a != b {
            while rpo_idx[a as usize] > rpo_idx[b as usize] {
                a = idom[a as usize];
            }
            while rpo_idx[b as usize] > rpo_idx[a as usize] {
                b = idom[b as usize];
            }
        }
        a
    }
    let preds = f.predecessors();
    idom[0] = 0;
    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new_idom = UNDEF;
            for &p in &preds[b as usize] {
                if idom[p.idx()] == UNDEF {
                    continue;
                }
                new_idom = if new_idom == UNDEF {
                    p.0
                } else {
                    intersect(&idom, &rpo_idx, new_idom, p.0)
                };
            }
            if new_idom != UNDEF && idom[b as usize] != new_idom {
                idom[b as usize] = new_idom;
                changed = true;
            }
        }
    }
    idom
}

/// Decode-time operand resolver. Maps every operand to a flat slot index:
/// instruction results get liveness-compacted slots, arguments map past
/// them, constants are interned into a per-function pool mapped past the
/// arguments. A register read is emitted check-free when its defining
/// instruction provably executes before every occurrence of the read — def
/// earlier in the same block, or def block strictly dominating the reading
/// block (for phi-incoming reads, which execute on the CFG edge: def block
/// dominating the predecessor). Everything else keeps the interpreter's
/// runtime undefined-read check ([`SRC_CHECKED`]).
///
/// **Slot compaction.** A value whose every read is provably in its own
/// block after the def (including reads by the terminator and by phi
/// parallel copies on edges leaving the block) is *block-local*: its slot
/// can be recycled as soon as its last read passes, and whole blocks can
/// share one local slot range because only one block executes at a time.
/// Everything else — cross-block values, checked-read targets (their
/// `defined` flag is observable), dead-arena reads — gets a dedicated slot
/// in `[0, dedicated)`. This keeps the frame's working set near the live
/// width of the function instead of its instruction count: a 10k-inst
/// function would otherwise drag a >150 KiB register file through the
/// cache on every call.
struct Resolver {
    idom: Vec<u32>,
    /// Block index holding each instruction (`u32::MAX` for dead arena
    /// slots never attached to a block).
    def_block: Vec<u32>,
    /// Whether executing the def's block guarantees the register is
    /// assigned. False for `Call` (the callee may return no value), for
    /// entry-block phis (unassigned on the initial, edge-less entry), and
    /// for phis below the lead span (they trap).
    surely: Vec<bool>,
    /// Frame slot for each instruction result (`u32::MAX` for slot-less
    /// arena entries that are neither written nor read).
    slot_of: Vec<u32>,
    /// Arena index displayed for each dedicated slot (undefined-read
    /// diagnostics print the interpreter's `%id`).
    slot_ids: Vec<u32>,
    /// Total result slots: dedicated ones, then the shared local range.
    num_slots: usize,
    /// Static read count per instruction result (body operands, terminator
    /// operands, reachable phi-incoming edge reads). Fusion requires
    /// exactly one.
    use_count: Vec<u32>,
    /// First argument slot (== `num_slots`).
    arg_base: u32,
    /// First constant slot (== `num_slots + params_len`).
    const_base: u32,
    /// Interned constant pool, keyed by payload bits for exact dedup.
    consts: Vec<Value>,
    const_ix: std::collections::HashMap<(bool, u64), u32>,
    /// Distinct registers emitted with [`SRC_CHECKED`], in first-use order.
    checked: Vec<u32>,
    checked_seen: Vec<bool>,
}

impl Resolver {
    fn build(f: &Function, leads: &[usize]) -> Resolver {
        let n = f.insts.len();
        let mut def_block = vec![u32::MAX; n];
        let mut def_pos = vec![usize::MAX; n];
        let mut surely = vec![false; n];
        for (bi, b) in f.blocks.iter().enumerate() {
            for (pos, &iid) in b.insts.iter().enumerate() {
                def_block[iid.0 as usize] = bi as u32;
                def_pos[iid.0 as usize] = pos;
                surely[iid.0 as usize] = match &f.inst(iid).kind {
                    InstKind::Call(..) | InstKind::Store(..) => false,
                    InstKind::Phi(_) => pos < leads[bi] && bi != 0,
                    _ => true,
                };
            }
        }
        let idom = compute_idom(f);
        let dominates = |a: u32, mut b: u32| loop {
            if a == b {
                return true;
            }
            let up = idom[b as usize];
            if up == b || up == u32::MAX {
                return false;
            }
            b = up;
        };

        // ---- use analysis (mirrors the decode walk exactly) ----
        // A value is block-local when every read is in its def block at a
        // position after the def; reads by the terminator sit at position
        // `len`, reads by parallel copies on leaving edges at `len + 1`.
        let mut used = vec![false; n];
        let mut use_count = vec![0u32; n];
        let mut dedicated = vec![false; n];
        let mut last_use = vec![-1i64; n];
        let mut local = vec![false; n];
        let preds = f.predecessors();
        {
            let mut record = |r: usize, bi: u32, pos: i64, proven: bool| {
                used[r] = true;
                use_count[r] += 1;
                if !proven || def_block[r] != bi {
                    dedicated[r] = true;
                } else if pos > last_use[r] {
                    last_use[r] = pos;
                }
            };
            for (bi, b) in f.blocks.iter().enumerate() {
                local.iter_mut().for_each(|d| *d = false);
                if bi != 0 {
                    for &iid in &b.insts[..leads[bi]] {
                        local[iid.0 as usize] = true;
                    }
                }
                for pos in leads[bi]..b.insts.len() {
                    let iid = b.insts[pos];
                    for op in f.inst(iid).operands() {
                        if let Operand::Inst(id) = op {
                            let r = id.0 as usize;
                            let db = def_block[r];
                            let proven = local[r]
                                || (surely[r]
                                    && db != u32::MAX
                                    && db != bi as u32
                                    && dominates(db, bi as u32));
                            record(r, bi as u32, pos as i64, proven);
                        }
                    }
                    if surely[iid.0 as usize] {
                        local[iid.0 as usize] = true;
                    }
                }
                if let Some(term) = &b.term {
                    for op in term.operands() {
                        if let Operand::Inst(id) = op {
                            let r = id.0 as usize;
                            let db = def_block[r];
                            let proven = local[r]
                                || (surely[r]
                                    && db != u32::MAX
                                    && db != bi as u32
                                    && dominates(db, bi as u32));
                            record(r, bi as u32, b.insts.len() as i64, proven);
                        }
                    }
                }
            }
            // Phi-incoming reads, walked per deduplicated real edge like
            // `decode_edge` (a missing incoming stops that edge's reads).
            for bid in f.block_ids() {
                if leads[bid.idx()] == 0 {
                    continue;
                }
                let mut seen: Vec<BlockId> = Vec::new();
                for &p in &preds[bid.idx()] {
                    if seen.contains(&p) {
                        continue;
                    }
                    seen.push(p);
                    let plen = f.block(p).insts.len();
                    for &iid in &f.block(bid).insts[..leads[bid.idx()]] {
                        let InstKind::Phi(incoming) = &f.inst(iid).kind else {
                            unreachable!("lead span contains only phis");
                        };
                        let Some((_, op)) = incoming.iter().find(|(bb, _)| *bb == p) else {
                            break;
                        };
                        if let Operand::Inst(id) = op {
                            let r = id.0 as usize;
                            let db = def_block[r];
                            let proven = surely[r] && db != u32::MAX && dominates(db, p.0);
                            record(r, p.0, plen as i64 + 1, proven);
                        }
                    }
                }
            }
        }

        // ---- slot assignment ----
        let mut slot_of = vec![u32::MAX; n];
        let mut slot_ids: Vec<u32> = Vec::new();
        for r in 0..n {
            if used[r] && dedicated[r] {
                slot_of[r] = slot_ids.len() as u32;
                slot_ids.push(r as u32);
            }
        }
        let d = slot_ids.len() as u32;
        let mut max_local = 0u32;
        let mut free: Vec<u32> = Vec::new();
        let mut freed = vec![false; n];
        for (bi, b) in f.blocks.iter().enumerate() {
            free.clear();
            let mut next = 0u32;
            // Lead phis are written by the edge copy on block entry, so
            // their slots live from position -1.
            for &iid in &b.insts[..leads[bi]] {
                let r = iid.0 as usize;
                if slot_of[r] == u32::MAX {
                    let k = free.pop().unwrap_or_else(|| {
                        next += 1;
                        next - 1
                    });
                    slot_of[r] = d + k;
                    if last_use[r] < 0 {
                        freed[r] = true;
                        free.push(k);
                    }
                }
            }
            for pos in leads[bi]..b.insts.len() {
                let iid = b.insts[pos];
                for op in f.inst(iid).operands() {
                    if let Operand::Inst(id) = op {
                        let r = id.0 as usize;
                        if slot_of[r] >= d
                            && slot_of[r] != u32::MAX
                            && last_use[r] == pos as i64
                            && !freed[r]
                        {
                            freed[r] = true;
                            free.push(slot_of[r] - d);
                        }
                    }
                }
                let has_result =
                    !matches!(f.inst(iid).kind, InstKind::Store(..) | InstKind::Phi(_));
                let r = iid.0 as usize;
                if has_result && slot_of[r] == u32::MAX {
                    let k = free.pop().unwrap_or_else(|| {
                        next += 1;
                        next - 1
                    });
                    slot_of[r] = d + k;
                    if last_use[r] <= pos as i64 {
                        freed[r] = true;
                        free.push(k);
                    }
                }
            }
            max_local = max_local.max(next);
        }
        let num_slots = (d + max_local) as usize;

        Resolver {
            idom,
            def_block,
            surely,
            slot_of,
            slot_ids,
            num_slots,
            use_count,
            arg_base: num_slots as u32,
            const_base: (num_slots + f.params.len()) as u32,
            consts: Vec::new(),
            const_ix: std::collections::HashMap::new(),
            checked: Vec::new(),
            checked_seen: vec![false; num_slots],
        }
    }

    /// Non-strict dominance over reachable blocks.
    fn dominates(&self, a: u32, mut b: u32) -> bool {
        loop {
            if a == b {
                return true;
            }
            let up = self.idom[b as usize];
            if up == b || up == u32::MAX {
                return false;
            }
            b = up;
        }
    }

    /// Interns a constant and returns its slot.
    fn const_slot(&mut self, v: Value) -> Src {
        let key = match v {
            Value::I(x) => (false, x as u64),
            Value::F(x) => (true, x.to_bits()),
        };
        let next = self.const_base + self.consts.len() as u32;
        let ix = *self.const_ix.entry(key).or_insert(next);
        if ix == next {
            self.consts.push(v);
        }
        Src(ix)
    }

    /// Emits a checked register read, recording the slot for frame-entry
    /// definedness reset. Checked targets always hold dedicated slots (the
    /// use analysis pins them), so their `defined` flag is never shared.
    fn checked(&mut self, r: u32) -> Src {
        debug_assert!(
            (r as usize) < self.slot_ids.len(),
            "checked read of shared slot"
        );
        if !self.checked_seen[r as usize] {
            self.checked_seen[r as usize] = true;
            self.checked.push(r);
        }
        Src(r | SRC_CHECKED)
    }

    /// Resolves an operand read from the body or terminator of block `at`;
    /// `local` marks registers assigned earlier within `at`.
    fn src(&mut self, op: Operand, at: u32, local: &[bool]) -> Src {
        match op {
            Operand::Const(imm) => self.const_slot(Value::from_imm(imm)),
            Operand::Arg(i) => {
                if self.arg_base + i < self.const_base {
                    Src(self.arg_base + i)
                } else {
                    Src(SRC_CHECKED | (SRC_OOB_ARG_BASE + i))
                }
            }
            Operand::Inst(id) => {
                let r = id.0 as usize;
                let proven = local[r]
                    || (self.surely[r] && {
                        let db = self.def_block[r];
                        db != u32::MAX && db != at && self.dominates(db, at)
                    });
                let slot = self.slot_of[r];
                debug_assert_ne!(slot, u32::MAX, "read of slot-less value");
                if proven {
                    Src(slot)
                } else {
                    self.checked(slot)
                }
            }
        }
    }

    /// Resolves a phi-incoming read, which executes on the edge from
    /// `pred` (after `pred`'s whole body, before the destination block).
    fn src_at_edge(&mut self, op: Operand, pred: u32) -> Src {
        match op {
            Operand::Const(imm) => self.const_slot(Value::from_imm(imm)),
            Operand::Arg(i) => {
                if self.arg_base + i < self.const_base {
                    Src(self.arg_base + i)
                } else {
                    Src(SRC_CHECKED | (SRC_OOB_ARG_BASE + i))
                }
            }
            Operand::Inst(id) => {
                let r = id.0 as usize;
                let db = self.def_block[r];
                let slot = self.slot_of[r];
                debug_assert_ne!(slot, u32::MAX, "read of slot-less value");
                if self.surely[r] && db != u32::MAX && self.dominates(db, pred) {
                    Src(slot)
                } else {
                    self.checked(slot)
                }
            }
        }
    }
}

fn decode_edge(
    f: &Function,
    res: &mut Resolver,
    bid: BlockId,
    lead: usize,
    from: BlockId,
    phi_cost: u64,
) -> Edge {
    let b = f.block(bid);
    let mut moves = Vec::with_capacity(lead);
    for &iid in &b.insts[..lead] {
        let InstKind::Phi(incoming) = &f.inst(iid).kind else {
            unreachable!("lead span contains only phis");
        };
        match incoming.iter().find(|(bb, _)| *bb == from) {
            Some((_, op)) => moves.push(PhiMove {
                dst: res.slot_of[iid.0 as usize],
                norm: Norm::of(f.inst(iid).ty),
                src: res.src_at_edge(*op, from.0),
            }),
            None => {
                let msg = format!(
                    "{}: phi in {} has no incoming edge from {}",
                    f.name,
                    b.name,
                    f.block(from).name
                );
                return Edge {
                    cycles: moves.len() as u64 * phi_cost,
                    moves: moves.into_boxed_slice(),
                    missing: Some(msg.into()),
                };
            }
        }
    }
    Edge {
        cycles: moves.len() as u64 * phi_cost,
        moves: moves.into_boxed_slice(),
        missing: None,
    }
}

/// (kind, sh, mask, a, b) if `op` is a fusible int ALU instruction.
fn alu_parts(op: &FastOp) -> Option<(AluK, u32, u32, Src, Src)> {
    Some(match *op {
        FastOp::AddI { sh, a, b } => (AluK::Add, sh, 0, a, b),
        FastOp::SubI { sh, a, b } => (AluK::Sub, sh, 0, a, b),
        FastOp::MulI { sh, a, b } => (AluK::Mul, sh, 0, a, b),
        FastOp::AndI { sh, a, b } => (AluK::And, sh, 0, a, b),
        FastOp::OrI { sh, a, b } => (AluK::Or, sh, 0, a, b),
        FastOp::XorI { sh, a, b } => (AluK::Xor, sh, 0, a, b),
        FastOp::ShlI { sh, mask, a, b } => (AluK::Shl, sh, mask, a, b),
        FastOp::AShrI { sh, mask, a, b } => (AluK::AShr, sh, mask, a, b),
        _ => return None,
    })
}

/// Which operand is the fused temporary: `(other, 1)` if `x`, `(other, 2)`
/// if `y`, `None` if both or neither (both would be two uses, never
/// fusible).
fn other_operand(x: Src, y: Src, t: Src) -> Option<(Src, u8)> {
    match (x == t, y == t) {
        (true, false) => Some((y, 1)),
        (false, true) => Some((x, 2)),
        _ => None,
    }
}

/// Builds the int-pair superinstruction for a (producer, consumer) pair,
/// or `None` if the pair is not in the table. The caller has checked that
/// a non-commutative consumer takes the temporary as its left operand.
#[allow(clippy::too_many_arguments)]
fn int_fused(
    k1: AluK,
    k2: AluK,
    sh1: u32,
    mask1: u32,
    sh2: u32,
    mask2: u32,
    a: Src,
    b: Src,
    c: Src,
) -> Option<FastOp> {
    Some(match (k1, k2) {
        (AluK::Add, AluK::Add) => FastOp::FAddAdd { sh1, sh2, a, b, c },
        (AluK::Add, AluK::Mul) => FastOp::FAddMul { sh1, sh2, a, b, c },
        (AluK::Add, AluK::And) => FastOp::FAddAnd { sh1, sh2, a, b, c },
        (AluK::Add, AluK::Xor) => FastOp::FAddXor { sh1, sh2, a, b, c },
        (AluK::Mul, AluK::Add) => FastOp::FMulAdd { sh1, sh2, a, b, c },
        (AluK::Mul, AluK::Mul) => FastOp::FMulMul { sh1, sh2, a, b, c },
        (AluK::Mul, AluK::And) => FastOp::FMulAnd { sh1, sh2, a, b, c },
        (AluK::Mul, AluK::Xor) => FastOp::FMulXor { sh1, sh2, a, b, c },
        (AluK::Mul, AluK::Sub) => FastOp::FMulSub1 { sh1, sh2, a, b, c },
        (AluK::Mul, AluK::AShr) => FastOp::FMulAShr1 {
            sh1,
            sh2,
            mask2,
            a,
            b,
            c,
        },
        (AluK::And, AluK::Add) => FastOp::FAndAdd { sh1, sh2, a, b, c },
        (AluK::And, AluK::Mul) => FastOp::FAndMul { sh1, sh2, a, b, c },
        (AluK::And, AluK::And) => FastOp::FAndAnd { sh1, sh2, a, b, c },
        (AluK::And, AluK::Xor) => FastOp::FAndXor { sh1, sh2, a, b, c },
        (AluK::Xor, AluK::Add) => FastOp::FXorAdd { sh1, sh2, a, b, c },
        (AluK::Xor, AluK::Mul) => FastOp::FXorMul { sh1, sh2, a, b, c },
        (AluK::Xor, AluK::And) => FastOp::FXorAnd { sh1, sh2, a, b, c },
        (AluK::Xor, AluK::Xor) => FastOp::FXorXor { sh1, sh2, a, b, c },
        (AluK::Shl, AluK::Or) => FastOp::FShlOr {
            sh1,
            mask1,
            sh2,
            a,
            b,
            c,
        },
        (AluK::Shl, AluK::Sub) => FastOp::FShlSub1 {
            sh1,
            mask1,
            sh2,
            a,
            b,
            c,
        },
        (AluK::AShr, AluK::Add) => FastOp::FAShrAdd {
            sh1,
            mask1,
            sh2,
            a,
            b,
            c,
        },
        (AluK::AShr, AluK::Mul) => FastOp::FAShrMul {
            sh1,
            mask1,
            sh2,
            a,
            b,
            c,
        },
        (AluK::AShr, AluK::And) => FastOp::FAShrAnd {
            sh1,
            mask1,
            sh2,
            a,
            b,
            c,
        },
        _ => return None,
    })
}

/// Fuses `cur` into `prev` when `cur` is the sole consumer of `prev`'s
/// result (the caller has already verified `use_count == 1`, which also
/// guarantees the consuming operand is an unchecked same-block read).
/// Returns the superinstruction replacing both, or `None` if the pair is
/// not in the fusion table.
fn try_fuse(prev: &FastInst, cur: &FastInst) -> Option<FastOp> {
    if prev.dst == NO_DST {
        return None;
    }
    let t = Src(prev.dst);
    // Int ALU pairs.
    if let Some((k1, sh1, mask1, a, b)) = alu_parts(&prev.op) {
        if let Some((k2, sh2, mask2, x, y)) = alu_parts(&cur.op) {
            let (c, pos) = other_operand(x, y, t)?;
            let commutative =
                matches!(k2, AluK::Add | AluK::Mul | AluK::And | AluK::Or | AluK::Xor);
            if !commutative && pos != 1 {
                return None;
            }
            return int_fused(k1, k2, sh1, mask1, sh2, mask2, a, b, c);
        }
    }
    // Address computation into the memory access using it.
    if let FastOp::Gep {
        base,
        index,
        elem_bytes,
    } = prev.op
    {
        match cur.op {
            FastOp::LoadI4 { sh, p } if p == t => {
                return Some(FastOp::FGepLoadI4 {
                    sh2: sh,
                    base,
                    index,
                    elem_bytes,
                })
            }
            FastOp::LoadF8 { p } if p == t => {
                return Some(FastOp::FGepLoadF8 {
                    base,
                    index,
                    elem_bytes,
                })
            }
            FastOp::StoreI4 { sh, val_ty, v, p } if p == t => {
                return Some(FastOp::FGepStoreI4 {
                    sh2: sh,
                    val_ty,
                    v,
                    base,
                    index,
                    elem_bytes,
                })
            }
            FastOp::StoreF8 { val_ty, v, p } if p == t => {
                return Some(FastOp::FGepStoreF8 {
                    val_ty,
                    v,
                    base,
                    index,
                    elem_bytes,
                })
            }
            _ => {}
        }
    }
    // Signed compare into the select it steers.
    if let (
        FastOp::CmpSI {
            enc,
            sh,
            op,
            src_ty,
            a,
            b,
        },
        FastOp::Select {
            norm,
            c,
            a: x,
            b: y,
        },
    ) = (&prev.op, &cur.op)
    {
        if *c == t {
            return Some(FastOp::FCmpSISelect {
                enc: *enc,
                sh1: *sh,
                cop: *op,
                src_ty: *src_ty,
                n2: *norm,
                a: *a,
                b: *b,
                x: *x,
                y: *y,
            });
        }
    }
    // Float pairs: operand order is preserved exactly (float add/mul are
    // only commutative up to NaN payload propagation).
    let fprod = match prev.op {
        FastOp::FAdd { norm, a, b } => Some((0u8, norm, a, b)),
        FastOp::FMul { norm, a, b } => Some((1u8, norm, a, b)),
        _ => None,
    };
    if let Some((k1, n1, a, b)) = fprod {
        if let FastOp::StoreF8 { val_ty: _, v, p } = cur.op {
            if k1 == 0 && v == t && p != t {
                return Some(FastOp::FFAddStoreF8 { n1, a, b, p });
            }
        }
        let fcons = match cur.op {
            FastOp::FAdd { norm, a: x, b: y } => Some((0u8, norm, x, y)),
            FastOp::FMul { norm, a: x, b: y } => Some((1u8, norm, x, y)),
            _ => None,
        };
        if let Some((k2, n2, x, y)) = fcons {
            let (c, pos) = other_operand(x, y, t)?;
            return Some(match (k1, k2, pos) {
                (0, 0, 1) => FastOp::FFAddFAdd1 { n1, n2, a, b, c },
                (0, 0, 2) => FastOp::FFAddFAdd2 { n1, n2, a, b, c },
                (0, 1, 1) => FastOp::FFAddFMul1 { n1, n2, a, b, c },
                (0, 1, 2) => FastOp::FFAddFMul2 { n1, n2, a, b, c },
                (1, 0, 1) => FastOp::FFMulFAdd1 { n1, n2, a, b, c },
                (1, 0, 2) => FastOp::FFMulFAdd2 { n1, n2, a, b, c },
                (1, 1, 1) => FastOp::FFMulFMul1 { n1, n2, a, b, c },
                _ => return None,
            });
        }
    }
    None
}

fn decode_inst(f: &Function, iid: InstId, res: &mut Resolver, at: u32, local: &[bool]) -> FastInst {
    use jitise_ir::verify::operand_ty;
    let inst = f.inst(iid);
    let mut s = |op: Operand| res.src(op, at, local);
    let (dst, op) = match &inst.kind {
        InstKind::Bin(op, a, b) => {
            if op.is_float() {
                let norm = Norm::of(inst.ty);
                let (a, b) = (s(*a), s(*b));
                let fast = match op {
                    BinOp::FAdd => FastOp::FAdd { norm, a, b },
                    BinOp::FSub => FastOp::FSub { norm, a, b },
                    BinOp::FMul => FastOp::FMul { norm, a, b },
                    BinOp::FDiv => FastOp::FDiv { norm, a, b },
                    _ => FastOp::BinF {
                        op: *op,
                        norm,
                        a,
                        b,
                    },
                };
                (iid.0, fast)
            } else {
                let (a, b) = (s(*a), s(*b));
                let fast = match int_alu(*op, inst.ty) {
                    Some((k, sh, mask)) => match k {
                        AluK::Add => FastOp::AddI { sh, a, b },
                        AluK::Sub => FastOp::SubI { sh, a, b },
                        AluK::Mul => FastOp::MulI { sh, a, b },
                        AluK::And => FastOp::AndI { sh, a, b },
                        AluK::Or => FastOp::OrI { sh, a, b },
                        AluK::Xor => FastOp::XorI { sh, a, b },
                        AluK::Shl => FastOp::ShlI { sh, mask, a, b },
                        AluK::LShr => FastOp::LShrI { sh, mask, a, b },
                        AluK::AShr => FastOp::AShrI { sh, mask, a, b },
                    },
                    None => FastOp::BinI {
                        op: *op,
                        ty: inst.ty,
                        a,
                        b,
                    },
                };
                (iid.0, fast)
            }
        }
        InstKind::Un(op, a) => (
            iid.0,
            FastOp::Un {
                op: *op,
                ty: inst.ty,
                src_ty: operand_ty(f, *a),
                a: s(*a),
            },
        ),
        InstKind::Cmp(op, a, b) => {
            let src_ty = operand_ty(f, *a);
            // `value_to_imm` maps an integer value under a non-int type to
            // an I64 immediate, so the signed view is width-64 there while
            // the unsigned view still truncates at `src_ty`'s width.
            let s_sh = if src_ty.is_int() {
                wrap_shift(src_ty)
            } else {
                0
            };
            let u_sh = wrap_shift(src_ty);
            let (a, b) = (s(*a), s(*b));
            let fast = match int_cmp(*op) {
                Some((false, enc)) => FastOp::CmpSI {
                    enc,
                    sh: s_sh,
                    op: *op,
                    src_ty,
                    a,
                    b,
                },
                Some((true, enc)) => FastOp::CmpUI {
                    enc,
                    s_sh,
                    u_sh,
                    op: *op,
                    src_ty,
                    a,
                    b,
                },
                None => FastOp::Cmp {
                    op: *op,
                    src_ty,
                    a,
                    b,
                },
            };
            (iid.0, fast)
        }
        InstKind::Select(c, a, b) => (
            iid.0,
            FastOp::Select {
                norm: Norm::of(inst.ty),
                c: s(*c),
                a: s(*a),
                b: s(*b),
            },
        ),
        InstKind::Load(p) => {
            let sh = wrap_shift(inst.ty);
            let p = s(*p);
            let fast = match inst.ty {
                Type::I1 | Type::I8 => FastOp::LoadI1 { sh, p },
                Type::I16 => FastOp::LoadI2 { sh, p },
                Type::I32 | Type::Ptr => FastOp::LoadI4 { sh, p },
                Type::I64 => FastOp::LoadI8 { p },
                Type::F32 => FastOp::LoadF4 { p },
                Type::F64 => FastOp::LoadF8 { p },
                Type::Void => FastOp::Load { ty: inst.ty, p },
            };
            (iid.0, fast)
        }
        InstKind::Store(v, p) => {
            let val_ty = operand_ty(f, *v);
            let sh = wrap_shift(val_ty);
            let (v, p) = (s(*v), s(*p));
            let fast = match val_ty {
                Type::I1 | Type::I8 => FastOp::StoreI1 { sh, val_ty, v, p },
                Type::I16 => FastOp::StoreI2 { sh, val_ty, v, p },
                Type::I32 | Type::Ptr => FastOp::StoreI4 { sh, val_ty, v, p },
                Type::I64 => FastOp::StoreI8 { val_ty, v, p },
                Type::F32 => FastOp::StoreF4 { val_ty, v, p },
                Type::F64 => FastOp::StoreF8 { val_ty, v, p },
                Type::Void => FastOp::Store { val_ty, v, p },
            };
            (NO_DST, fast)
        }
        InstKind::Gep {
            base,
            index,
            elem_bytes,
        } => (
            iid.0,
            FastOp::Gep {
                base: s(*base),
                index: s(*index),
                elem_bytes: *elem_bytes as i64,
            },
        ),
        InstKind::Alloca(bytes) => (iid.0, FastOp::Alloca { bytes: *bytes }),
        InstKind::GlobalAddr(g) => (iid.0, FastOp::GlobalAddr { idx: g.idx() }),
        InstKind::Call(callee, args) => (
            iid.0,
            FastOp::Call {
                callee: callee.0,
                args: args.iter().map(|a| s(*a)).collect(),
            },
        ),
        InstKind::CallExt(ef, args) => (
            iid.0,
            FastOp::CallExt {
                f: *ef,
                args: args.iter().map(|a| s(*a)).collect(),
            },
        ),
        InstKind::Custom(slot, args) => (
            iid.0,
            FastOp::Custom {
                slot: *slot,
                args: args.iter().map(|a| s(*a)).collect(),
            },
        ),
        InstKind::Phi(_) => (NO_DST, FastOp::PhiTrap),
    };
    let dst = if dst == NO_DST {
        NO_DST
    } else {
        res.slot_of[dst as usize]
    };
    FastInst { dst, op }
}

fn decode_func(f: &Function, fid: FuncId, cost: &CostModel) -> FastFunc {
    let phi_cost = cost.inst_cycles(&InstKind::Phi(vec![]));
    // Leading-phi span of every block (phis below the span trap at run
    // time, exactly like the interpreter).
    let leads: Vec<usize> = f
        .blocks
        .iter()
        .map(|b| {
            b.insts
                .iter()
                .take_while(|&&iid| matches!(f.inst(iid).kind, InstKind::Phi(_)))
                .count()
        })
        .collect();
    let mut res = Resolver::build(f, &leads);
    // Per-block parallel-copy edges, one per deduplicated CFG predecessor.
    let preds = f.predecessors();
    let mut edge_from: Vec<Vec<BlockId>> = vec![Vec::new(); f.blocks.len()];
    let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); f.blocks.len()];
    for bid in f.block_ids() {
        if leads[bid.idx()] == 0 {
            continue;
        }
        for &p in &preds[bid.idx()] {
            if edge_from[bid.idx()].contains(&p) {
                continue;
            }
            edge_from[bid.idx()].push(p);
            edges[bid.idx()].push(decode_edge(f, &mut res, bid, leads[bid.idx()], p, phi_cost));
        }
    }
    let target = |from: BlockId, to: BlockId| -> Target {
        let edge = edge_from[to.idx()]
            .iter()
            .position(|&p| p == from)
            .map(|i| i as u32)
            .unwrap_or(NO_EDGE);
        Target { block: to.0, edge }
    };

    let mut blocks = Vec::with_capacity(f.blocks.len());
    let mut local = vec![false; f.insts.len()];
    for (bi, b) in f.blocks.iter().enumerate() {
        let bid = BlockId(bi as u32);
        // Registers assigned earlier within this block: lead phis are
        // assigned by the edge parallel copy on entry (except in the entry
        // block, whose initial entry traverses no edge), then each decoded
        // body instruction that surely defines its result.
        local.iter_mut().for_each(|d| *d = false);
        if bi != 0 {
            for &iid in &b.insts[..leads[bi]] {
                local[iid.0 as usize] = true;
            }
        }
        let mut static_cycles = 0u64;
        let mut body: Vec<FastInst> = Vec::with_capacity(b.insts.len() - leads[bi]);
        // Arena id behind `body.last()` when it is an unfused fusion
        // candidate (fused results do not chain into further fusions).
        let mut prev_arena: Option<InstId> = None;
        for &iid in &b.insts[leads[bi]..] {
            static_cycles += cost.inst_cycles(&f.inst(iid).kind);
            let fi = decode_inst(f, iid, &mut res, bi as u32, &local);
            let mut fused = false;
            if let Some(pid) = prev_arena {
                if res.use_count[pid.0 as usize] == 1 {
                    if let Some(op) = try_fuse(body.last().expect("candidate exists"), &fi) {
                        let dst = fi.dst;
                        body.pop();
                        body.push(FastInst { dst, op });
                        fused = true;
                    }
                }
            }
            if !fused {
                body.push(fi);
            }
            prev_arena = if fused { None } else { Some(iid) };
            if res.surely[iid.0 as usize] {
                local[iid.0 as usize] = true;
            }
        }
        let term = match &b.term {
            Some(Terminator::Br(t)) => {
                static_cycles += cost.branch_cycles();
                FastTerm::Br(target(bid, *t))
            }
            Some(Terminator::CondBr(c, t, e)) => {
                static_cycles += cost.branch_cycles();
                FastTerm::CondBr {
                    c: res.src(*c, bi as u32, &local),
                    t: target(bid, *t),
                    f: target(bid, *e),
                }
            }
            Some(Terminator::Switch(v, cases, default)) => {
                static_cycles += cost.branch_cycles() + cases.len() as u64 / 2;
                let mut sorted: Vec<(i64, Target)> = Vec::with_capacity(cases.len());
                for (k, t) in cases {
                    // First occurrence of a key wins, like the linear scan.
                    if !sorted.iter().any(|(sk, _)| sk == k) {
                        sorted.push((*k, target(bid, *t)));
                    }
                }
                sorted.sort_unstable_by_key(|(k, _)| *k);
                FastTerm::Switch {
                    v: res.src(*v, bi as u32, &local),
                    cases: sorted.into_boxed_slice(),
                    default: target(bid, *default),
                }
            }
            Some(Terminator::Ret(v)) => FastTerm::Ret(v.map(|v| res.src(v, bi as u32, &local))),
            None => FastTerm::NoTerm,
        };
        blocks.push(FastBlock {
            body_insts: (b.insts.len() - leads[bi]) as u32,
            body: body.into_boxed_slice(),
            static_cycles,
            term,
            edges: std::mem::take(&mut edges[bi]).into_boxed_slice(),
        });
    }
    FastFunc {
        fid,
        name: f.name.clone(),
        params_len: f.params.len(),
        num_regs: res.num_slots,
        insts_len: f.insts.len(),
        slot_ids: res.slot_ids.into_boxed_slice(),
        consts: res.consts.into_boxed_slice(),
        checked_regs: res.checked.into_boxed_slice(),
        blocks,
    }
}

/// Per-frame dense profile row (merged into the VM's `Profile` on frame
/// exit — both the Ok and the Err path, since the interpreter records each
/// completed block incrementally).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BlockStat {
    pub(crate) count: u64,
    pub(crate) cycles: u64,
    pub(crate) insts: u64,
}

/// Reads one slot. The unchecked path skips the bounds check: decode only
/// emits slot indices below the frame total (compacted result slots, then
/// `params_len` argument slots guarded by the entry arity check, then the
/// interned constant pool), so the index is always in range.
#[inline(always)]
fn read(regs: &[Value], defined: &[bool], f: &FastFunc, src: Src) -> Result<Value> {
    let i = src.0;
    if i & SRC_CHECKED == 0 {
        debug_assert!((i as usize) < regs.len());
        Ok(unsafe { *regs.get_unchecked(i as usize) })
    } else {
        let r = (i & !SRC_CHECKED) as usize;
        if r >= SRC_OOB_ARG_BASE as usize {
            // Malformed IR read `Arg(i)` past the parameter list; the
            // interpreter indexes `args[i]` and dies with the std panic.
            panic!(
                "index out of bounds: the len is {} but the index is {}",
                f.params_len,
                r - SRC_OOB_ARG_BASE as usize
            );
        }
        if defined[r] {
            Ok(regs[r])
        } else {
            Err(Error::Vm(format!(
                "{}: read of undefined value %{} (unreachable-path artifact)",
                f.name, f.slot_ids[r]
            )))
        }
    }
}

/// Writes one result slot and marks it defined. Unchecked for the same
/// reason as [`read`]: every decoded `dst` is a compacted result slot below
/// `num_regs`, and both frame buffers are grown to at least that at entry.
#[inline(always)]
fn write(regs: &mut [Value], defined: &mut [bool], dst: u32, v: Value) {
    debug_assert!((dst as usize) < regs.len() && (dst as usize) < defined.len());
    unsafe {
        *regs.get_unchecked_mut(dst as usize) = v;
        *defined.get_unchecked_mut(dst as usize) = true;
    }
}

#[inline(always)]
fn fuel_err(max_steps: u64, fname: &str) -> Error {
    Error::Vm(format!("step budget {max_steps} exhausted in {fname}"))
}

/// Executes one `Custom` op: a slot bound for this run runs its lowered
/// program, reading the arguments straight into its window; anything else
/// (no binding, unbound slot) gathers them and asks the handler. Out of
/// line so the dispatch loop, which base modules never send here, stays
/// small.
#[inline(never)]
fn exec_custom_op(
    vm: &mut Interpreter<'_>,
    regs: &[Value],
    defined: &[bool],
    f: &FastFunc,
    slot: u32,
    args: &[Src],
    call_vals: &mut Vec<Value>,
) -> Result<(Value, u64)> {
    let handler = vm
        .custom
        .ok_or_else(|| Error::Vm("custom instruction without handler".into()))?;
    if let Some(binding) = vm.ci_binding.as_mut() {
        if let Some(r) = binding.call(slot, args.len(), |i| read(regs, defined, f, args[i])) {
            return r;
        }
    }
    call_vals.clear();
    for a in args {
        call_vals.push(read(regs, defined, f, *a)?);
    }
    handler.exec_custom(slot, call_vals)
}

/// Pooled per-call execution state (register file, definedness map, dense
/// profile rows, gather buffers). Recycled through
/// [`Interpreter::fast_frames`] so steady-state calls allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct Frame {
    /// Unified slot array `[inst results | args | consts]`. Result slots
    /// are NOT cleared between calls: an unchecked [`Src`] is only emitted
    /// when its def provably executes first within the frame, and checked
    /// reads gate on `defined`, so stale values are unreachable.
    regs: Vec<Value>,
    defined: Vec<bool>,
    /// Dense per-block stat rows. Invariant: all rows are zero between
    /// frames (the exit merge resets exactly the `touched` rows), so entry
    /// costs O(touched) instead of O(blocks) — calls into large functions
    /// that execute a few blocks dominate call-heavy apps otherwise.
    prof: Vec<BlockStat>,
    /// Indices of `prof` rows with nonzero counts, in first-touch order.
    touched: Vec<u32>,
    /// Phi parallel-copy gather buffer.
    scratch: Vec<Value>,
    /// Call-argument gather buffer.
    call_vals: Vec<Value>,
}

/// Executes `fid` on the fast tier. Entry point used by
/// [`Interpreter::run_func`]; recursion for calls stays on this tier.
pub(crate) fn exec_fast(
    vm: &mut Interpreter<'_>,
    pd: &PredecodedModule,
    fid: FuncId,
    args: &[Value],
    depth: u32,
) -> Result<Option<Value>> {
    if depth >= vm.cfg.max_call_depth {
        return Err(Error::Vm(format!(
            "call depth limit {} exceeded",
            vm.cfg.max_call_depth
        )));
    }
    let f = &pd.funcs[fid.idx()];
    if args.len() != f.params_len {
        return Err(Error::Vm(format!(
            "{}: expected {} args, got {}",
            f.name,
            f.params_len,
            args.len()
        )));
    }
    let stack_mark = vm.mem.stack_mark();
    let mut fr = vm.fast_frames.pop().unwrap_or_default();
    // Grow-only buffers: shrinking for a small callee then re-growing for
    // its caller would re-zero the difference on every call.
    let total = f.num_regs + args.len() + f.consts.len();
    if fr.regs.len() < total {
        fr.regs.resize(total, Value::I(0));
    }
    fr.regs[f.num_regs..f.num_regs + args.len()].copy_from_slice(args);
    fr.regs[f.num_regs + args.len()..total].copy_from_slice(&f.consts);
    if fr.defined.len() < f.num_regs {
        fr.defined.resize(f.num_regs, false);
    }
    // Only the slots a checked read can consult need fresh flags; every
    // other slot is written before any read (decode proved it) or never
    // read at all, so stale flags are unobservable.
    for &r in &f.checked_regs {
        fr.defined[r as usize] = false;
    }
    if fr.prof.len() < f.blocks.len() {
        fr.prof.resize(f.blocks.len(), BlockStat::default());
    }
    // The step counter lives in a dedicated local for the whole frame (a
    // noalias `&mut` the dispatch loop can keep in a register instead of
    // round-tripping through `vm.steps` per instruction); it is synced back
    // on every exit path and around call recursion, so `vm.steps` is
    // bit-identical to the interpreter's at every observable point.
    let mut steps = vm.steps;
    let ret = run_blocks(vm, pd, f, depth, &mut fr, &mut steps);
    vm.steps = steps;
    // Merge this frame's rows into the dense per-module accumulator: a
    // `Profile` hash insert per touched block per call dominates call-heavy
    // apps, so the hash map is only touched once per outermost run below.
    if vm.fast_prof.len() <= f.fid.idx() {
        vm.fast_prof.resize_with(f.fid.idx() + 1, Vec::new);
    }
    let rows = &mut vm.fast_prof[f.fid.idx()];
    if rows.len() < f.blocks.len() {
        rows.resize(f.blocks.len(), BlockStat::default());
    }
    for &bi in &fr.touched {
        let st = std::mem::take(&mut fr.prof[bi as usize]);
        let row = &mut rows[bi as usize];
        if row.count == 0 {
            vm.fast_prof_touched.push((f.fid.0, bi));
        }
        row.count += st.count;
        row.cycles += st.cycles;
        row.insts += st.insts;
    }
    fr.touched.clear();
    vm.fast_frames.push(fr);
    if depth == 0 {
        // Outermost frame done (success or trap): flush the dense rows so
        // `Interpreter::profile` is exact at every observation point.
        while let Some((fid, bi)) = vm.fast_prof_touched.pop() {
            let st = std::mem::take(&mut vm.fast_prof[fid as usize][bi as usize]);
            vm.profile.record_many(
                BlockKey::new(FuncId(fid), BlockId(bi)),
                st.count,
                st.cycles,
                st.insts,
            );
        }
    }
    let ret = ret?;
    // Like the interpreter: the stack frame is released only on success
    // (errors abort the whole run).
    vm.mem.stack_release(stack_mark);
    Ok(ret)
}

fn run_blocks(
    vm: &mut Interpreter<'_>,
    pd: &PredecodedModule,
    f: &FastFunc,
    depth: u32,
    fr: &mut Frame,
    steps: &mut u64,
) -> Result<Option<Value>> {
    let max_steps = vm.cfg.max_steps;
    let Frame {
        regs,
        defined,
        prof,
        touched,
        scratch,
        call_vals,
    } = fr;
    let mut cur = 0usize;
    let mut pending_edge = NO_EDGE;
    loop {
        let blk = &f.blocks[cur];
        let mut block_cycles = blk.static_cycles;
        let mut block_insts = blk.body_insts as u64;

        // ---- phi parallel copy for the traversed edge ----
        if pending_edge != NO_EDGE {
            let edge = &blk.edges[pending_edge as usize];
            scratch.clear();
            for mv in edge.moves.iter() {
                *steps += 1;
                if *steps > max_steps {
                    return Err(fuel_err(max_steps, &f.name));
                }
                let v = read(regs, defined, f, mv.src)?;
                scratch.push(mv.norm.apply(v));
            }
            if let Some(msg) = &edge.missing {
                // The phi at this position still counts as a dynamic
                // instruction before the missing-edge check fires.
                *steps += 1;
                if *steps > max_steps {
                    return Err(fuel_err(max_steps, &f.name));
                }
                return Err(Error::Vm(msg.to_string()));
            }
            for (mv, v) in edge.moves.iter().zip(scratch.drain(..)) {
                write(regs, defined, mv.dst, v);
            }
            block_insts += edge.moves.len() as u64;
            block_cycles += edge.cycles;
        }

        // ---- straight-line body ----
        for fi in blk.body.iter() {
            *steps += 1;
            if *steps > max_steps {
                return Err(fuel_err(max_steps, &f.name));
            }
            match &fi.op {
                FastOp::AddI { sh, a, b } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I((va.wrapping_add(vb) << sh) >> sh),
                    );
                }
                FastOp::SubI { sh, a, b } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I((va.wrapping_sub(vb) << sh) >> sh),
                    );
                }
                FastOp::MulI { sh, a, b } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I((va.wrapping_mul(vb) << sh) >> sh),
                    );
                }
                FastOp::AndI { sh, a, b } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    write(regs, defined, fi.dst, Value::I(((va & vb) << sh) >> sh));
                }
                FastOp::OrI { sh, a, b } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    write(regs, defined, fi.dst, Value::I(((va | vb) << sh) >> sh));
                }
                FastOp::XorI { sh, a, b } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    write(regs, defined, fi.dst, Value::I(((va ^ vb) << sh) >> sh));
                }
                FastOp::ShlI { sh, mask, a, b } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let r = va.wrapping_shl(vb as u32 & mask);
                    write(regs, defined, fi.dst, Value::I((r << sh) >> sh));
                }
                FastOp::LShrI { sh, mask, a, b } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let ua = ((va as u64) << sh) >> sh;
                    let r = (ua >> (vb as u32 & mask)) as i64;
                    write(regs, defined, fi.dst, Value::I((r << sh) >> sh));
                }
                FastOp::AShrI { sh, mask, a, b } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let r = ((va << sh) >> sh) >> (vb as u32 & mask);
                    write(regs, defined, fi.dst, Value::I((r << sh) >> sh));
                }
                FastOp::BinI { op, ty, a, b } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let r = fold_int_bin(*op, *ty, va, vb)
                        .ok_or_else(|| Error::Vm(format!("{}: division by zero", f.name)))?;
                    write(regs, defined, fi.dst, Value::I(r));
                }
                FastOp::FAdd { norm, a, b } => {
                    let va = read(regs, defined, f, *a)?.as_f();
                    let vb = read(regs, defined, f, *b)?.as_f();
                    write(regs, defined, fi.dst, norm.apply(Value::F(va + vb)));
                }
                FastOp::FSub { norm, a, b } => {
                    let va = read(regs, defined, f, *a)?.as_f();
                    let vb = read(regs, defined, f, *b)?.as_f();
                    write(regs, defined, fi.dst, norm.apply(Value::F(va - vb)));
                }
                FastOp::FMul { norm, a, b } => {
                    let va = read(regs, defined, f, *a)?.as_f();
                    let vb = read(regs, defined, f, *b)?.as_f();
                    write(regs, defined, fi.dst, norm.apply(Value::F(va * vb)));
                }
                FastOp::FDiv { norm, a, b } => {
                    let va = read(regs, defined, f, *a)?.as_f();
                    let vb = read(regs, defined, f, *b)?.as_f();
                    write(regs, defined, fi.dst, norm.apply(Value::F(va / vb)));
                }
                FastOp::BinF { op, norm, a, b } => {
                    let va = read(regs, defined, f, *a)?.as_f();
                    let vb = read(regs, defined, f, *b)?.as_f();
                    let r = fold_float_bin(*op, va, vb).expect("float binop");
                    write(regs, defined, fi.dst, norm.apply(Value::F(r)));
                }
                FastOp::Un { op, ty, src_ty, a } => {
                    let va = read(regs, defined, f, *a)?;
                    let imm = value_to_imm(va, *src_ty);
                    let out = fold_un(*op, *ty, &imm)
                        .ok_or_else(|| Error::Vm(format!("{}: invalid cast of {va:?}", f.name)))?;
                    write(regs, defined, fi.dst, Value::from_imm(out));
                }
                FastOp::CmpSI {
                    enc,
                    sh,
                    op,
                    src_ty,
                    a,
                    b,
                } => {
                    let va = read(regs, defined, f, *a)?;
                    let vb = read(regs, defined, f, *b)?;
                    let r = if let (Value::I(x), Value::I(y)) = (va, vb) {
                        let (sx, sy) = ((x << sh) >> sh, (y << sh) >> sh);
                        (enc >> (sx.cmp(&sy) as i8 + 1)) & 1 != 0
                    } else {
                        let (ia, ib) = (value_to_imm(va, *src_ty), value_to_imm(vb, *src_ty));
                        fold_cmp(*op, *src_ty, &ia, &ib)
                    };
                    write(regs, defined, fi.dst, Value::I(r as i64));
                }
                FastOp::CmpUI {
                    enc,
                    s_sh,
                    u_sh,
                    op,
                    src_ty,
                    a,
                    b,
                } => {
                    let va = read(regs, defined, f, *a)?;
                    let vb = read(regs, defined, f, *b)?;
                    let r = if let (Value::I(x), Value::I(y)) = (va, vb) {
                        let (sx, sy) = ((x << s_sh) >> s_sh, (y << s_sh) >> s_sh);
                        let ux = ((sx as u64) << u_sh) >> u_sh;
                        let uy = ((sy as u64) << u_sh) >> u_sh;
                        (enc >> (ux.cmp(&uy) as i8 + 1)) & 1 != 0
                    } else {
                        let (ia, ib) = (value_to_imm(va, *src_ty), value_to_imm(vb, *src_ty));
                        fold_cmp(*op, *src_ty, &ia, &ib)
                    };
                    write(regs, defined, fi.dst, Value::I(r as i64));
                }
                FastOp::Cmp { op, src_ty, a, b } => {
                    let va = read(regs, defined, f, *a)?;
                    let vb = read(regs, defined, f, *b)?;
                    let (ia, ib) = (value_to_imm(va, *src_ty), value_to_imm(vb, *src_ty));
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I(fold_cmp(*op, *src_ty, &ia, &ib) as i64),
                    );
                }
                FastOp::Select { norm, c, a, b } => {
                    let vc = read(regs, defined, f, *c)?;
                    let chosen = if vc.as_bool() { a } else { b };
                    let v = norm.apply(read(regs, defined, f, *chosen)?);
                    write(regs, defined, fi.dst, v);
                }
                FastOp::LoadI1 { sh, p } => {
                    let addr = read(regs, defined, f, *p)?.as_ptr();
                    let raw = vm.mem.load_bytes::<1>(addr)?;
                    write(regs, defined, fi.dst, Value::I(((raw << sh) as i64) >> sh));
                }
                FastOp::LoadI2 { sh, p } => {
                    let addr = read(regs, defined, f, *p)?.as_ptr();
                    let raw = vm.mem.load_bytes::<2>(addr)?;
                    write(regs, defined, fi.dst, Value::I(((raw << sh) as i64) >> sh));
                }
                FastOp::LoadI4 { sh, p } => {
                    let addr = read(regs, defined, f, *p)?.as_ptr();
                    let raw = vm.mem.load_bytes::<4>(addr)?;
                    write(regs, defined, fi.dst, Value::I(((raw << sh) as i64) >> sh));
                }
                FastOp::LoadI8 { p } => {
                    let addr = read(regs, defined, f, *p)?.as_ptr();
                    let raw = vm.mem.load_bytes::<8>(addr)?;
                    write(regs, defined, fi.dst, Value::I(raw as i64));
                }
                FastOp::LoadF4 { p } => {
                    let addr = read(regs, defined, f, *p)?.as_ptr();
                    let raw = vm.mem.load_bytes::<4>(addr)?;
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::F(f32::from_bits(raw as u32) as f64),
                    );
                }
                FastOp::LoadF8 { p } => {
                    let addr = read(regs, defined, f, *p)?.as_ptr();
                    let raw = vm.mem.load_bytes::<8>(addr)?;
                    write(regs, defined, fi.dst, Value::F(f64::from_bits(raw)));
                }
                FastOp::Load { ty, p } => {
                    let addr = read(regs, defined, f, *p)?.as_ptr();
                    write(regs, defined, fi.dst, vm.mem.load(*ty, addr)?);
                }
                FastOp::StoreI1 { sh, val_ty, v, p } => {
                    let val = read(regs, defined, f, *v)?;
                    let addr = read(regs, defined, f, *p)?.as_ptr();
                    match val {
                        Value::I(x) => {
                            vm.mem.store_bytes::<1>(addr, ((x as u64) << sh) >> sh)?;
                        }
                        _ => vm.mem.store(*val_ty, addr, val)?,
                    }
                }
                FastOp::StoreI2 { sh, val_ty, v, p } => {
                    let val = read(regs, defined, f, *v)?;
                    let addr = read(regs, defined, f, *p)?.as_ptr();
                    match val {
                        Value::I(x) => {
                            vm.mem.store_bytes::<2>(addr, ((x as u64) << sh) >> sh)?;
                        }
                        _ => vm.mem.store(*val_ty, addr, val)?,
                    }
                }
                FastOp::StoreI4 { sh, val_ty, v, p } => {
                    let val = read(regs, defined, f, *v)?;
                    let addr = read(regs, defined, f, *p)?.as_ptr();
                    match val {
                        Value::I(x) => {
                            vm.mem.store_bytes::<4>(addr, ((x as u64) << sh) >> sh)?;
                        }
                        _ => vm.mem.store(*val_ty, addr, val)?,
                    }
                }
                FastOp::StoreI8 { val_ty, v, p } => {
                    let val = read(regs, defined, f, *v)?;
                    let addr = read(regs, defined, f, *p)?.as_ptr();
                    match val {
                        Value::I(x) => vm.mem.store_bytes::<8>(addr, x as u64)?,
                        _ => vm.mem.store(*val_ty, addr, val)?,
                    }
                }
                FastOp::StoreF4 { val_ty, v, p } => {
                    let val = read(regs, defined, f, *v)?;
                    let addr = read(regs, defined, f, *p)?.as_ptr();
                    match val {
                        Value::F(x) => {
                            vm.mem.store_bytes::<4>(addr, (x as f32).to_bits() as u64)?;
                        }
                        _ => vm.mem.store(*val_ty, addr, val)?,
                    }
                }
                FastOp::StoreF8 { val_ty, v, p } => {
                    let val = read(regs, defined, f, *v)?;
                    let addr = read(regs, defined, f, *p)?.as_ptr();
                    match val {
                        Value::F(x) => vm.mem.store_bytes::<8>(addr, x.to_bits())?,
                        _ => vm.mem.store(*val_ty, addr, val)?,
                    }
                }
                FastOp::Store { val_ty, v, p } => {
                    let val = read(regs, defined, f, *v)?;
                    let addr = read(regs, defined, f, *p)?.as_ptr();
                    vm.mem.store(*val_ty, addr, val)?;
                }
                FastOp::Gep {
                    base,
                    index,
                    elem_bytes,
                } => {
                    let b = read(regs, defined, f, *base)?.as_ptr();
                    let i = read(regs, defined, f, *index)?.as_i();
                    let addr = (b as i64).wrapping_add(i.wrapping_mul(*elem_bytes));
                    write(regs, defined, fi.dst, Value::I(addr as u32 as i64));
                }
                FastOp::Alloca { bytes } => {
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I(vm.mem.alloca(*bytes)? as i64),
                    );
                }
                FastOp::GlobalAddr { idx } => {
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I(vm.mem.global_addr(*idx) as i64),
                    );
                }
                FastOp::Call {
                    callee,
                    args: call_args,
                } => {
                    call_vals.clear();
                    for a in call_args.iter() {
                        let v = read(regs, defined, f, *a)?;
                        call_vals.push(v);
                    }
                    // The callee reads and advances the shared fuel budget
                    // through `vm.steps`: sync out, recurse, sync back.
                    vm.steps = *steps;
                    let callee_ret = exec_fast(vm, pd, FuncId(*callee), call_vals, depth + 1);
                    *steps = vm.steps;
                    if let Some(v) = callee_ret? {
                        write(regs, defined, fi.dst, v);
                    }
                }
                FastOp::CallExt {
                    f: ef,
                    args: call_args,
                } => {
                    call_vals.clear();
                    for a in call_args.iter() {
                        let v = read(regs, defined, f, *a)?;
                        call_vals.push(v);
                    }
                    write(regs, defined, fi.dst, Value::F(eval_ext(*ef, call_vals)?));
                }
                FastOp::Custom {
                    slot,
                    args: call_args,
                } => {
                    let (v, hw_cycles) =
                        exec_custom_op(vm, regs, defined, f, *slot, call_args, call_vals)?;
                    vm.ci_calls += 1;
                    block_cycles += hw_cycles;
                    write(regs, defined, fi.dst, v);
                }
                FastOp::PhiTrap => {
                    return Err(Error::Vm(format!(
                        "{}: phi after non-phi instruction",
                        f.name
                    )));
                }
                FastOp::FAddAdd { sh1, sh2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = (va.wrapping_add(vb) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I((t.wrapping_add(vc) << sh2) >> sh2),
                    );
                }
                FastOp::FAddMul { sh1, sh2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = (va.wrapping_add(vb) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I((t.wrapping_mul(vc) << sh2) >> sh2),
                    );
                }
                FastOp::FAddAnd { sh1, sh2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = (va.wrapping_add(vb) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(regs, defined, fi.dst, Value::I(((t & vc) << sh2) >> sh2));
                }
                FastOp::FAddXor { sh1, sh2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = (va.wrapping_add(vb) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(regs, defined, fi.dst, Value::I(((t ^ vc) << sh2) >> sh2));
                }
                FastOp::FMulAdd { sh1, sh2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = (va.wrapping_mul(vb) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I((t.wrapping_add(vc) << sh2) >> sh2),
                    );
                }
                FastOp::FMulMul { sh1, sh2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = (va.wrapping_mul(vb) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I((t.wrapping_mul(vc) << sh2) >> sh2),
                    );
                }
                FastOp::FMulAnd { sh1, sh2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = (va.wrapping_mul(vb) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(regs, defined, fi.dst, Value::I(((t & vc) << sh2) >> sh2));
                }
                FastOp::FMulXor { sh1, sh2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = (va.wrapping_mul(vb) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(regs, defined, fi.dst, Value::I(((t ^ vc) << sh2) >> sh2));
                }
                FastOp::FMulSub1 { sh1, sh2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = (va.wrapping_mul(vb) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I((t.wrapping_sub(vc) << sh2) >> sh2),
                    );
                }
                FastOp::FMulAShr1 {
                    sh1,
                    sh2,
                    mask2,
                    a,
                    b,
                    c,
                } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = (va.wrapping_mul(vb) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I(((((t << sh2) >> sh2) >> (vc as u32 & mask2)) << sh2) >> sh2),
                    );
                }
                FastOp::FAndAdd { sh1, sh2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = ((va & vb) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I((t.wrapping_add(vc) << sh2) >> sh2),
                    );
                }
                FastOp::FAndMul { sh1, sh2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = ((va & vb) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I((t.wrapping_mul(vc) << sh2) >> sh2),
                    );
                }
                FastOp::FAndAnd { sh1, sh2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = ((va & vb) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(regs, defined, fi.dst, Value::I(((t & vc) << sh2) >> sh2));
                }
                FastOp::FAndXor { sh1, sh2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = ((va & vb) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(regs, defined, fi.dst, Value::I(((t ^ vc) << sh2) >> sh2));
                }
                FastOp::FXorAdd { sh1, sh2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = ((va ^ vb) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I((t.wrapping_add(vc) << sh2) >> sh2),
                    );
                }
                FastOp::FXorMul { sh1, sh2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = ((va ^ vb) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I((t.wrapping_mul(vc) << sh2) >> sh2),
                    );
                }
                FastOp::FXorAnd { sh1, sh2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = ((va ^ vb) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(regs, defined, fi.dst, Value::I(((t & vc) << sh2) >> sh2));
                }
                FastOp::FXorXor { sh1, sh2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = ((va ^ vb) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(regs, defined, fi.dst, Value::I(((t ^ vc) << sh2) >> sh2));
                }
                FastOp::FShlOr {
                    sh1,
                    mask1,
                    sh2,
                    a,
                    b,
                    c,
                } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = (va.wrapping_shl(vb as u32 & mask1) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(regs, defined, fi.dst, Value::I(((t | vc) << sh2) >> sh2));
                }
                FastOp::FShlSub1 {
                    sh1,
                    mask1,
                    sh2,
                    a,
                    b,
                    c,
                } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = (va.wrapping_shl(vb as u32 & mask1) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I((t.wrapping_sub(vc) << sh2) >> sh2),
                    );
                }
                FastOp::FAShrAdd {
                    sh1,
                    mask1,
                    sh2,
                    a,
                    b,
                    c,
                } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = ((((va << sh1) >> sh1) >> (vb as u32 & mask1)) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I((t.wrapping_add(vc) << sh2) >> sh2),
                    );
                }
                FastOp::FAShrMul {
                    sh1,
                    mask1,
                    sh2,
                    a,
                    b,
                    c,
                } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = ((((va << sh1) >> sh1) >> (vb as u32 & mask1)) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I((t.wrapping_mul(vc) << sh2) >> sh2),
                    );
                }
                FastOp::FAShrAnd {
                    sh1,
                    mask1,
                    sh2,
                    a,
                    b,
                    c,
                } => {
                    let va = read(regs, defined, f, *a)?.as_i();
                    let vb = read(regs, defined, f, *b)?.as_i();
                    let t = ((((va << sh1) >> sh1) >> (vb as u32 & mask1)) << sh1) >> sh1;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_i();
                    write(regs, defined, fi.dst, Value::I(((t & vc) << sh2) >> sh2));
                }
                FastOp::FFAddFAdd1 { n1, n2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_f();
                    let vb = read(regs, defined, f, *b)?.as_f();
                    let t = n1.apply_f(va + vb);
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_f();
                    write(regs, defined, fi.dst, n2.apply(Value::F(t + vc)));
                }
                FastOp::FFAddFAdd2 { n1, n2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_f();
                    let vb = read(regs, defined, f, *b)?.as_f();
                    let t = n1.apply_f(va + vb);
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_f();
                    write(regs, defined, fi.dst, n2.apply(Value::F(vc + t)));
                }
                FastOp::FFAddFMul1 { n1, n2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_f();
                    let vb = read(regs, defined, f, *b)?.as_f();
                    let t = n1.apply_f(va + vb);
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_f();
                    write(regs, defined, fi.dst, n2.apply(Value::F(t * vc)));
                }
                FastOp::FFAddFMul2 { n1, n2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_f();
                    let vb = read(regs, defined, f, *b)?.as_f();
                    let t = n1.apply_f(va + vb);
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_f();
                    write(regs, defined, fi.dst, n2.apply(Value::F(vc * t)));
                }
                FastOp::FFMulFAdd1 { n1, n2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_f();
                    let vb = read(regs, defined, f, *b)?.as_f();
                    let t = n1.apply_f(va * vb);
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_f();
                    write(regs, defined, fi.dst, n2.apply(Value::F(t + vc)));
                }
                FastOp::FFMulFAdd2 { n1, n2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_f();
                    let vb = read(regs, defined, f, *b)?.as_f();
                    let t = n1.apply_f(va * vb);
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_f();
                    write(regs, defined, fi.dst, n2.apply(Value::F(vc + t)));
                }
                FastOp::FFMulFMul1 { n1, n2, a, b, c } => {
                    let va = read(regs, defined, f, *a)?.as_f();
                    let vb = read(regs, defined, f, *b)?.as_f();
                    let t = n1.apply_f(va * vb);
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let vc = read(regs, defined, f, *c)?.as_f();
                    write(regs, defined, fi.dst, n2.apply(Value::F(t * vc)));
                }
                FastOp::FFAddStoreF8 { n1, a, b, p } => {
                    let va = read(regs, defined, f, *a)?.as_f();
                    let vb = read(regs, defined, f, *b)?.as_f();
                    let t = n1.apply_f(va + vb);
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let addr = read(regs, defined, f, *p)?.as_ptr();
                    vm.mem.store_bytes::<8>(addr, t.to_bits())?;
                }
                FastOp::FGepLoadI4 {
                    sh2,
                    base,
                    index,
                    elem_bytes,
                } => {
                    let bb = read(regs, defined, f, *base)?.as_ptr();
                    let ii = read(regs, defined, f, *index)?.as_i();
                    let taddr = (bb as i64).wrapping_add(ii.wrapping_mul(*elem_bytes)) as u32;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let raw = vm.mem.load_bytes::<4>(taddr)?;
                    write(
                        regs,
                        defined,
                        fi.dst,
                        Value::I(((raw << sh2) as i64) >> sh2),
                    );
                }
                FastOp::FGepLoadF8 {
                    base,
                    index,
                    elem_bytes,
                } => {
                    let bb = read(regs, defined, f, *base)?.as_ptr();
                    let ii = read(regs, defined, f, *index)?.as_i();
                    let taddr = (bb as i64).wrapping_add(ii.wrapping_mul(*elem_bytes)) as u32;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let raw = vm.mem.load_bytes::<8>(taddr)?;
                    write(regs, defined, fi.dst, Value::F(f64::from_bits(raw)));
                }
                FastOp::FGepStoreI4 {
                    sh2,
                    val_ty,
                    v,
                    base,
                    index,
                    elem_bytes,
                } => {
                    let bb = read(regs, defined, f, *base)?.as_ptr();
                    let ii = read(regs, defined, f, *index)?.as_i();
                    let taddr = (bb as i64).wrapping_add(ii.wrapping_mul(*elem_bytes)) as u32;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let val = read(regs, defined, f, *v)?;
                    match val {
                        Value::I(x) => {
                            vm.mem.store_bytes::<4>(taddr, ((x as u64) << sh2) >> sh2)?;
                        }
                        _ => vm.mem.store(*val_ty, taddr, val)?,
                    }
                }
                FastOp::FGepStoreF8 {
                    val_ty,
                    v,
                    base,
                    index,
                    elem_bytes,
                } => {
                    let bb = read(regs, defined, f, *base)?.as_ptr();
                    let ii = read(regs, defined, f, *index)?.as_i();
                    let taddr = (bb as i64).wrapping_add(ii.wrapping_mul(*elem_bytes)) as u32;
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let val = read(regs, defined, f, *v)?;
                    match val {
                        Value::F(x) => vm.mem.store_bytes::<8>(taddr, x.to_bits())?,
                        _ => vm.mem.store(*val_ty, taddr, val)?,
                    }
                }
                FastOp::FCmpSISelect {
                    enc,
                    sh1,
                    cop,
                    src_ty,
                    n2,
                    a,
                    b,
                    x,
                    y,
                } => {
                    let va = read(regs, defined, f, *a)?;
                    let vb = read(regs, defined, f, *b)?;
                    let r = if let (Value::I(vx), Value::I(vy)) = (va, vb) {
                        let (sx, sy) = ((vx << sh1) >> sh1, (vy << sh1) >> sh1);
                        (enc >> (sx.cmp(&sy) as i8 + 1)) & 1 != 0
                    } else {
                        let (ia, ib) = (value_to_imm(va, *src_ty), value_to_imm(vb, *src_ty));
                        fold_cmp(*cop, *src_ty, &ia, &ib)
                    };
                    *steps += 1;
                    if *steps > max_steps {
                        return Err(fuel_err(max_steps, &f.name));
                    }
                    let chosen = if r { x } else { y };
                    let v = n2.apply(read(regs, defined, f, *chosen)?);
                    write(regs, defined, fi.dst, v);
                }
            }
        }

        // ---- terminator ----
        let next = match &blk.term {
            FastTerm::Br(t) => *t,
            FastTerm::CondBr { c, t, f: e } => {
                let vc = read(regs, defined, f, *c)?;
                if vc.as_bool() {
                    *t
                } else {
                    *e
                }
            }
            FastTerm::Switch { v, cases, default } => {
                let val = read(regs, defined, f, *v)?.as_i();
                match cases.binary_search_by_key(&val, |(k, _)| *k) {
                    Ok(i) => cases[i].1,
                    Err(_) => *default,
                }
            }
            FastTerm::Ret(src) => {
                let out = match src {
                    Some(s) => Some(read(regs, defined, f, *s)?),
                    None => None,
                };
                vm.cycles += block_cycles;
                vm.blocks += 1;
                let st = &mut prof[cur];
                if st.count == 0 {
                    touched.push(cur as u32);
                }
                st.count += 1;
                st.cycles += block_cycles;
                st.insts += block_insts;
                return Ok(out);
            }
            FastTerm::NoTerm => {
                panic!("block has no terminator (unfinished construction?)")
            }
        };
        vm.cycles += block_cycles;
        vm.blocks += 1;
        let st = &mut prof[cur];
        if st.count == 0 {
            touched.push(cur as u32);
        }
        st.count += 1;
        st.cycles += block_cycles;
        st.insts += block_insts;
        pending_edge = next.edge;
        cur = next.block as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::RunConfig;
    use jitise_ir::{FunctionBuilder, Imm, Operand as Op};

    fn module_of(f: Function) -> Module {
        let mut m = Module::new("t");
        m.add_func(f);
        m
    }

    /// Runs `main` on both tiers with identical configs; asserts every
    /// observable (result or error string, steps, cycles, profile) is
    /// bit-identical, and returns the interpreter-tier outcome.
    fn assert_tiers_identical(
        m: &Module,
        args: &[Value],
        cfg: RunConfig,
    ) -> std::result::Result<crate::interp::ExecOutcome, String> {
        let mut slow = Interpreter::with_config(m, CostModel::ppc405(), cfg.clone());
        let slow_out = slow.run("main", args);
        let mut fast = Interpreter::with_config(m, CostModel::ppc405(), cfg);
        fast.set_tier(VmTier::Fast);
        let fast_out = fast.run("main", args);
        match (&slow_out, &fast_out) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "outcomes must match"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "errors must match"),
            _ => panic!("tier divergence: interp={slow_out:?} fast={fast_out:?}"),
        }
        assert_eq!(slow.profile(), fast.profile(), "profiles must match");
        slow_out.map_err(|e| e.to_string())
    }

    fn swap_loop() -> Module {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let header = b.new_block("header");
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        let pre = b.current();
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I32);
        let a = b.phi(Type::I32);
        let bb = b.phi(Type::I32);
        b.add_incoming(i, pre, Op::ci32(0));
        b.add_incoming(a, pre, Op::ci32(1));
        b.add_incoming(bb, pre, Op::ci32(2));
        let c = b.cmp(jitise_ir::CmpOp::Slt, i, Op::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.add(i, Op::ci32(1));
        b.add_incoming(i, body, i2);
        b.add_incoming(a, body, bb);
        b.add_incoming(bb, body, a);
        b.br(header);
        b.switch_to(exit);
        let r = b.shl(a, Op::ci32(8));
        let r2 = b.or(r, bb);
        b.ret(r2);
        module_of(b.finish())
    }

    #[test]
    fn fast_tier_identical_on_phi_loop() {
        let m = swap_loop();
        for n in [0, 1, 2, 7, 100] {
            let out = assert_tiers_identical(&m, &[Value::I(n)], RunConfig::default()).unwrap();
            assert!(out.steps > 0);
        }
    }

    #[test]
    fn fast_tier_identical_on_fuel_trap() {
        let m = swap_loop();
        let cfg = RunConfig {
            max_steps: 37,
            ..Default::default()
        };
        let err = assert_tiers_identical(&m, &[Value::I(1_000_000)], cfg).unwrap_err();
        assert!(err.contains("step budget 37 exhausted in main"));
    }

    #[test]
    fn fast_tier_identical_on_div_by_zero() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let d = b.sdiv(Op::ci32(7), Op::Arg(0));
        b.ret(d);
        let m = module_of(b.finish());
        assert_tiers_identical(&m, &[Value::I(3)], RunConfig::default()).unwrap();
        let err = assert_tiers_identical(&m, &[Value::I(0)], RunConfig::default()).unwrap_err();
        assert!(err.contains("division by zero"));
    }

    #[test]
    fn fast_tier_identical_on_oob_and_memory() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let cell = b.alloca(8);
        b.store(Op::ci32(11), cell);
        let p = b.gep(cell, Op::Arg(0), 4);
        let v = b.load(Type::I32, p);
        b.ret(v);
        let m = module_of(b.finish());
        assert_tiers_identical(&m, &[Value::I(0)], RunConfig::default()).unwrap();
        // A wild index must produce the same out-of-bounds error string.
        let err =
            assert_tiers_identical(&m, &[Value::I(1 << 20)], RunConfig::default()).unwrap_err();
        assert!(err.contains("access"), "unexpected error: {err}");
    }

    #[test]
    fn fast_tier_identical_on_select_switch_call() {
        let mut m = Module::new("t");
        let mut leaf = FunctionBuilder::new("leaf", vec![Type::I32], Type::I32);
        let dbl = leaf.add(Op::Arg(0), Op::Arg(0));
        leaf.ret(dbl);
        let leaf_id = m.add_func(leaf.finish());
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::F32);
        let c1 = b.new_block("c1");
        let d = b.new_block("d");
        let j = b.new_block("join");
        let r = b.call(leaf_id, vec![Op::Arg(0)], Type::I32);
        // Duplicate case targets exercise edge deduplication.
        b.switch(r, vec![(2, c1), (4, c1)], d);
        b.switch_to(c1);
        b.br(j);
        b.switch_to(d);
        let s = Op::Inst(b.push(
            InstKind::Select(
                Op::Arg(0),
                Op::Const(Imm::f64(0.1)),
                Op::Const(Imm::f64(0.2)),
            ),
            Type::F32,
        ));
        b.br(j);
        b.switch_to(j);
        let out = b.phi(Type::F32);
        b.add_incoming(out, c1, Op::Const(Imm::f64(0.5)));
        b.add_incoming(out, d, s);
        b.ret(out);
        m.add_func(b.finish());
        for n in [0, 1, 2, 3] {
            assert_tiers_identical(&m, &[Value::I(n)], RunConfig::default()).unwrap();
        }
    }

    /// Variant name of a decoded op (`FAddAdd { .. }` -> `FAddAdd`).
    fn op_name(op: &FastOp) -> String {
        let dbg = format!("{op:?}");
        dbg.split(|c: char| !c.is_ascii_alphanumeric())
            .next()
            .unwrap_or_default()
            .to_string()
    }

    /// `main(a0, a1, a2) = op2(op1(a0, a1), a2)`, the temporary at operand
    /// position `pos` (1 or 2) of the consumer.
    fn bin_pair(ty: Type, op1: BinOp, op2: BinOp, pos: u8) -> Module {
        let mut b = FunctionBuilder::new("main", vec![ty; 3], ty);
        let t = b.bin(op1, Op::Arg(0), Op::Arg(1));
        let r = match pos {
            1 => b.bin(op2, t, Op::Arg(2)),
            _ => b.bin(op2, Op::Arg(2), t),
        };
        b.ret(r);
        module_of(b.finish())
    }

    /// Integer operands that wrap, flip signs and carry shift amounts past
    /// the width (the decode-time mask must apply).
    fn int_args() -> Vec<Vec<Value>> {
        [
            [0x7fff_fff3, 7, -3],
            [-123_456_789, 35, 0x5a5a_5a5a],
            [-1, 31, i32::MIN as i64],
            [0x0123_4567, -2, 99],
        ]
        .iter()
        .map(|t| t.iter().map(|&v| Value::I(v)).collect())
        .collect()
    }

    fn float_args() -> Vec<Vec<Value>> {
        [
            [1.5, -2.25, 0.1],
            [1e300, 1e300, -3.0],
            [-0.0, 7.0e-310, 2.5],
        ]
        .iter()
        .map(|t| t.iter().map(|&v| Value::F(v)).collect())
        .collect()
    }

    /// `main(i, v)`: a 16-byte cell, `v` stored or loaded through
    /// `gep(cell, i, elem)`; the access type is `v`'s.
    fn gep_pair(ty: Type, elem: u32, store: bool) -> Module {
        let mut b = FunctionBuilder::new("main", vec![Type::I32, ty], ty);
        let cell = b.alloca(16);
        if store {
            let g = b.gep(cell, Op::Arg(0), elem);
            b.store(Op::Arg(1), g);
            let r = b.load(ty, cell);
            b.ret(r);
        } else {
            b.store(Op::Arg(1), cell);
            let g = b.gep(cell, Op::Arg(0), elem);
            let r = b.load(ty, g);
            b.ret(r);
        }
        module_of(b.finish())
    }

    /// In-range, negative and wild indices; the wild one traps out of
    /// bounds.
    fn gep_args(v: Value) -> Vec<Vec<Value>> {
        [0, 1, -1, 1 << 20]
            .iter()
            .map(|&i| vec![Value::I(i), v])
            .collect()
    }

    /// Asserts that `main`'s entry block fuses exactly one pair, into
    /// `variant`, and that both tiers agree on every argument set at every
    /// fuel budget from 1 up to the whole run, so the fuel trap lands
    /// before, between and after the fused halves.
    fn assert_fuses_identically(variant: &str, m: &Module, arg_sets: &[Vec<Value>]) {
        let pd = PredecodedModule::build(m, &CostModel::ppc405());
        let entry = &pd.funcs[0].blocks[0];
        let names: Vec<String> = entry.body.iter().map(|fi| op_name(&fi.op)).collect();
        assert_eq!(
            entry.body.len() + 1,
            entry.body_insts as usize,
            "{variant}: exactly one pair must fuse, got {names:?}"
        );
        assert!(
            names.iter().any(|n| n == variant),
            "{variant} not emitted: {names:?}"
        );
        // Straight-line code executes each instruction at most once.
        let insts = m.funcs[0].insts.len() as u64;
        for args in arg_sets {
            if let Ok(out) = assert_tiers_identical(m, args, RunConfig::default()) {
                assert!(out.steps <= insts, "{variant}: {} steps", out.steps);
            }
            for max_steps in 1..=insts {
                let cfg = RunConfig {
                    max_steps,
                    ..Default::default()
                };
                assert_tiers_identical(m, args, cfg).ok();
            }
        }
    }

    #[test]
    fn every_superinstruction_is_tier_identical_at_every_fuel_cut() {
        use BinOp::{AShr, Add, And, FAdd, FMul, Mul, Or, Shl, Sub, Xor};
        let mut cases: Vec<(String, Module, Vec<Vec<Value>>)> = Vec::new();
        let (ints, f) = (int_args(), float_args());
        // The 16 pairs within {add, mul, and, xor}; the temporary sits on
        // the left for even consumers and on the right for odd ones.
        let commutative = [(Add, "Add"), (Mul, "Mul"), (And, "And"), (Xor, "Xor")];
        for (p, (op1, n1)) in commutative.iter().enumerate() {
            for (q, (op2, n2)) in commutative.iter().enumerate() {
                let ty = [Type::I32, Type::I64, Type::I8, Type::I16][(p + q) % 4];
                let m = bin_pair(ty, *op1, *op2, 1 + (q % 2) as u8);
                cases.push((format!("F{n1}{n2}"), m, ints.clone()));
            }
        }
        for (name, op1, op2, pos, ty) in [
            ("FMulSub1", Mul, Sub, 1, Type::I32),
            ("FMulAShr1", Mul, AShr, 1, Type::I32),
            ("FShlSub1", Shl, Sub, 1, Type::I32),
            ("FShlOr", Shl, Or, 2, Type::I64),
            ("FAShrAdd", AShr, Add, 1, Type::I32),
            ("FAShrMul", AShr, Mul, 2, Type::I16),
            ("FAShrAnd", AShr, And, 1, Type::I32),
            ("FFAddFAdd1", FAdd, FAdd, 1, Type::F64),
            ("FFAddFAdd2", FAdd, FAdd, 2, Type::F32),
            ("FFAddFMul1", FAdd, FMul, 1, Type::F64),
            ("FFAddFMul2", FAdd, FMul, 2, Type::F64),
            ("FFMulFAdd1", FMul, FAdd, 1, Type::F32),
            ("FFMulFAdd2", FMul, FAdd, 2, Type::F64),
            ("FFMulFMul1", FMul, FMul, 1, Type::F64),
        ] {
            let args = if ty.is_float() { &f } else { &ints };
            cases.push((name.into(), bin_pair(ty, op1, op2, pos), args.clone()));
        }
        let mut b = FunctionBuilder::new("main", vec![Type::F64; 2], Type::F64);
        let cell = b.alloca(8);
        let t = b.fadd(Op::Arg(0), Op::Arg(1));
        b.store(t, cell);
        let r = b.load(Type::F64, cell);
        b.ret(r);
        let f2 = f.iter().map(|a| a[..2].to_vec()).collect();
        cases.push(("FFAddStoreF8".into(), module_of(b.finish()), f2));
        let (vi, vf) = (Value::I(-0x0bad_cafe), Value::F(-6.5));
        for (name, ty, elem, store, v) in [
            ("FGepLoadI4", Type::I32, 4, false, vi),
            ("FGepLoadF8", Type::F64, 8, false, vf),
            ("FGepStoreI4", Type::I32, 4, true, vi),
            ("FGepStoreF8", Type::F64, 8, true, vf),
        ] {
            cases.push((name.into(), gep_pair(ty, elem, store), gep_args(v)));
        }
        let mut b = FunctionBuilder::new("main", vec![Type::I32; 4], Type::I32);
        let c = b.cmp(jitise_ir::CmpOp::Sle, Op::Arg(0), Op::Arg(1));
        let r = b.select(c, Op::Arg(2), Op::Arg(3));
        b.ret(r);
        let sel = [[1, 2, 10, 20], [2, 1, 10, 20], [-5, -5, 3, 4]]
            .iter()
            .map(|t| t.iter().map(|&v| Value::I(v)).collect())
            .collect();
        cases.push(("FCmpSISelect".into(), module_of(b.finish()), sel));

        let distinct: std::collections::BTreeSet<&str> = cases.iter().map(|c| &*c.0).collect();
        assert_eq!(distinct.len(), 36, "one case per fused variant");
        assert_eq!(cases.len(), 36);
        for (variant, m, args) in &cases {
            assert_fuses_identically(variant, m, args);
        }
    }

    #[test]
    fn predecoded_module_is_shareable() {
        let m = swap_loop();
        let pd = std::sync::Arc::new(PredecodedModule::build(&m, &CostModel::ppc405()));
        let mut a = Interpreter::new(&m);
        a.set_predecoded(std::sync::Arc::clone(&pd));
        let mut b = Interpreter::new(&m);
        b.set_predecoded(pd);
        let oa = a.run("main", &[Value::I(9)]).unwrap();
        let ob = b.run("main", &[Value::I(9)]).unwrap();
        assert_eq!(oa, ob);
        assert_eq!(a.tier(), VmTier::Fast);
    }

    #[test]
    fn tier_parse_round_trips() {
        for t in [VmTier::Interp, VmTier::Fast] {
            assert_eq!(VmTier::parse(t.name()), Some(t));
        }
        assert_eq!(VmTier::parse("jit"), None);
        assert_eq!(VmTier::default(), VmTier::Interp);
    }
}
