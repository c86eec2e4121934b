//! Custom instructions lowered for the fast tier.
//!
//! The interpreter tier runs a custom instruction (CI) by calling
//! [`CustomHandler::exec_custom`]; the Woolcano model answers by walking
//! the frozen datapath over [`Value`]s (`CiSemantics::eval`), which is the
//! reference semantics. A [`CiProgram`] is the same datapath decoded once,
//! when the CI is installed. Its values live in a typed `u64` window laid
//! out as `[inputs | consts | nodes]`: an integer slot holds its `i64`
//! bits, a float slot its `f64` bits, and which is which is fixed at build
//! time. Integer and float arithmetic, integer compares and integer
//! negation are kernels specialized per op and width, like the fast tier's
//! own `AddI`, `CmpSI` and `FAdd`, and decoded by the same helpers
//! (`int_alu`, `int_cmp`). The rest go through the constant folder, as
//! they do on the fast tier: casts, `Not` and `FNeg` through [`fold_un`],
//! division/remainder through [`fold_int_bin`] (which keeps the trap rules
//! in one place), and float compares through [`fold_cmp`]. A program
//! returns bit-identical values and the same error strings as `eval`.
//!
//! A [`CiBinding`] is one run's copy of the loaded programs. The fast tier
//! takes it from [`CustomHandler::bind`] before a run and hands it back to
//! [`CustomHandler::retire`] when the run ends; in between it runs CIs from
//! the binding, with no lock and no handler call, and records which slots
//! ran so the handler can apply the run's LRU touches at once.
//!
//! [`CustomHandler::exec_custom`]: crate::CustomHandler::exec_custom
//! [`CustomHandler::bind`]: crate::CustomHandler::bind
//! [`CustomHandler::retire`]: crate::CustomHandler::retire

use crate::interp::value_to_imm;
use crate::predecode::{int_alu, int_cmp, wrap_shift, AluK};
use crate::value::Value;
use jitise_base::{Error, Result};
use jitise_ir::passes::constfold::{fold_cmp, fold_int_bin, fold_un};
use jitise_ir::{BinOp, CmpOp, Imm, Type, UnOp};
use std::sync::Arc;

/// What a window slot holds: the payload of a [`Value::I`] or of a
/// [`Value::F`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Int,
    Float,
}

impl Kind {
    fn of(ty: Type) -> Kind {
        if ty.is_float() {
            Kind::Float
        } else {
            Kind::Int
        }
    }
}

/// Operand tags used while building; [`CiProgramBuilder::finish`] resolves
/// them to window slots once the number of constants is known.
const CONST_TAG: u32 = 1 << 30;
const NODE_TAG: u32 = 1 << 31;

/// A value inside a [`CiProgramBuilder`]: an input port, a constant, or
/// the result of an earlier operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CiRef {
    slot: u32,
    kind: Kind,
}

/// One lowered operation; it writes the window slot that follows the
/// previous operation's.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    Add {
        sh: u32,
        a: u32,
        b: u32,
    },
    Sub {
        sh: u32,
        a: u32,
        b: u32,
    },
    Mul {
        sh: u32,
        a: u32,
        b: u32,
    },
    And {
        sh: u32,
        a: u32,
        b: u32,
    },
    Or {
        sh: u32,
        a: u32,
        b: u32,
    },
    Xor {
        sh: u32,
        a: u32,
        b: u32,
    },
    /// Shifts mask the amount to `bits - 1`, like `fold_int_bin`.
    Shl {
        sh: u32,
        mask: u32,
        a: u32,
        b: u32,
    },
    LShr {
        sh: u32,
        mask: u32,
        a: u32,
        b: u32,
    },
    AShr {
        sh: u32,
        mask: u32,
        a: u32,
        b: u32,
    },
    /// Division and remainder: `fold_int_bin` keeps the zero-divisor trap.
    DivRem {
        op: BinOp,
        ty: Type,
        a: u32,
        b: u32,
    },
    /// Float binops; `f32r` rounds the result through `f32`.
    FAdd {
        f32r: bool,
        a: u32,
        b: u32,
    },
    FSub {
        f32r: bool,
        a: u32,
        b: u32,
    },
    FMul {
        f32r: bool,
        a: u32,
        b: u32,
    },
    FDiv {
        f32r: bool,
        a: u32,
        b: u32,
    },
    /// Signed/equality compare of the sign-extended operands; `enc` holds
    /// the result per ordering, as [`int_cmp`] encodes it.
    CmpS {
        enc: u32,
        sh: u32,
        a: u32,
        b: u32,
    },
    /// Unsigned compare of the truncated operands; `enc` as for `CmpS`.
    CmpU {
        enc: u32,
        sh: u32,
        a: u32,
        b: u32,
    },
    /// Float compare: `fold_cmp` on the operands rebuilt as the
    /// immediates the reference sees.
    Cmp {
        op: CmpOp,
        ty: Type,
        a: u32,
        b: u32,
    },
    Select {
        c: u32,
        a: u32,
        b: u32,
    },
    /// Integer negate: `src_sh` sign-extends the operand at its type, `sh`
    /// wraps the result.
    Neg {
        src_sh: u32,
        sh: u32,
        a: u32,
    },
    /// Casts and every other unary op: `fold_un` on the operand rebuilt as
    /// the `Value` the reference sees.
    Un {
        op: UnOp,
        ty: Type,
        src_ty: Type,
        src: Kind,
        a: u32,
    },
}

impl Kernel {
    /// Rewrites every operand slot through `f`.
    fn map_operands(&mut self, f: impl Fn(u32) -> u32) {
        use Kernel::*;
        match self {
            Add { a, b, .. }
            | Sub { a, b, .. }
            | Mul { a, b, .. }
            | And { a, b, .. }
            | Or { a, b, .. }
            | Xor { a, b, .. }
            | Shl { a, b, .. }
            | LShr { a, b, .. }
            | AShr { a, b, .. }
            | DivRem { a, b, .. }
            | FAdd { a, b, .. }
            | FSub { a, b, .. }
            | FMul { a, b, .. }
            | FDiv { a, b, .. }
            | CmpS { a, b, .. }
            | CmpU { a, b, .. }
            | Cmp { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            Select { c, a, b } => {
                *c = f(*c);
                *a = f(*a);
                *b = f(*b);
            }
            Neg { a, .. } | Un { a, .. } => *a = f(*a),
        }
    }
}

/// Builds a [`CiProgram`] one operation at a time, in topological order.
///
/// Each operation method returns `None` when its operand kinds are ones
/// the typed window cannot evaluate exactly like the reference (an integer
/// op on a float, select arms of different kinds, a compare whose
/// predicate does not match its operand type). Verified IR never produces
/// them; a CI that does keeps the per-call path.
#[derive(Debug)]
pub struct CiProgramBuilder {
    inputs: Vec<Kind>,
    consts: Vec<(Kind, u64)>,
    ops: Vec<Kernel>,
}

impl CiProgramBuilder {
    /// A builder for a CI whose input ports have types `inputs`.
    pub fn new(inputs: &[Type]) -> CiProgramBuilder {
        CiProgramBuilder {
            inputs: inputs.iter().map(|&t| Kind::of(t)).collect(),
            consts: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Input port `i`, or `None` past the last port.
    pub fn input(&self, i: u32) -> Option<CiRef> {
        let kind = *self.inputs.get(i as usize)?;
        Some(CiRef { slot: i, kind })
    }

    /// A baked-in constant, as `Value::from_imm` reads it.
    pub fn constant(&mut self, imm: Imm) -> CiRef {
        let c = match Value::from_imm(imm) {
            Value::I(v) => (Kind::Int, v as u64),
            Value::F(v) => (Kind::Float, v.to_bits()),
        };
        let j = match self.consts.iter().position(|&k| k == c) {
            Some(j) => j,
            None => {
                self.consts.push(c);
                self.consts.len() - 1
            }
        };
        CiRef {
            slot: CONST_TAG | j as u32,
            kind: c.0,
        }
    }

    fn push(&mut self, op: Kernel, kind: Kind) -> CiRef {
        self.ops.push(op);
        CiRef {
            slot: NODE_TAG | (self.ops.len() - 1) as u32,
            kind,
        }
    }

    /// A binary op at result type `ty`.
    pub fn bin(&mut self, op: BinOp, ty: Type, x: CiRef, y: CiRef) -> Option<CiRef> {
        let (a, b) = (x.slot, y.slot);
        if op.is_float() {
            if x.kind != Kind::Float || y.kind != Kind::Float {
                return None;
            }
            let f32r = ty == Type::F32;
            let k = match op {
                BinOp::FAdd => Kernel::FAdd { f32r, a, b },
                BinOp::FSub => Kernel::FSub { f32r, a, b },
                BinOp::FMul => Kernel::FMul { f32r, a, b },
                _ => Kernel::FDiv { f32r, a, b },
            };
            return Some(self.push(k, Kind::Float));
        }
        if x.kind != Kind::Int || y.kind != Kind::Int {
            return None;
        }
        let k = match int_alu(op, ty) {
            Some((k, sh, mask)) => match k {
                AluK::Add => Kernel::Add { sh, a, b },
                AluK::Sub => Kernel::Sub { sh, a, b },
                AluK::Mul => Kernel::Mul { sh, a, b },
                AluK::And => Kernel::And { sh, a, b },
                AluK::Or => Kernel::Or { sh, a, b },
                AluK::Xor => Kernel::Xor { sh, a, b },
                AluK::Shl => Kernel::Shl { sh, mask, a, b },
                AluK::LShr => Kernel::LShr { sh, mask, a, b },
                AluK::AShr => Kernel::AShr { sh, mask, a, b },
            },
            None => Kernel::DivRem { op, ty, a, b },
        };
        Some(self.push(k, Kind::Int))
    }

    /// A unary op or cast with result type `ty` and source type `src_ty`.
    pub fn un(&mut self, op: UnOp, ty: Type, src_ty: Type, x: CiRef) -> CiRef {
        let a = x.slot;
        let k = match (op, x.kind) {
            (UnOp::Neg, Kind::Int) if ty.is_int() => {
                let src_int = if src_ty.is_int() { src_ty } else { Type::I64 };
                Kernel::Neg {
                    src_sh: wrap_shift(src_int),
                    sh: wrap_shift(ty),
                    a,
                }
            }
            _ => Kernel::Un {
                op,
                ty,
                src_ty,
                src: x.kind,
                a,
            },
        };
        // `fold_un` builds float results for these ops and `Imm::int(ty, _)`
        // for the rest, which `Value::from_imm` reads by `ty`.
        let kind = match op {
            UnOp::FNeg | UnOp::SiToFp | UnOp::FpExt | UnOp::FpTrunc => Kind::Float,
            _ => Kind::of(ty),
        };
        self.push(k, kind)
    }

    /// A compare whose operands have type `ty`.
    pub fn cmp(&mut self, op: CmpOp, ty: Type, x: CiRef, y: CiRef) -> Option<CiRef> {
        let (a, b) = (x.slot, y.slot);
        let kinds = (x.kind, y.kind);
        let k = match int_cmp(op) {
            Some((unsigned, enc)) => {
                if !ty.is_int() || kinds != (Kind::Int, Kind::Int) {
                    return None;
                }
                let sh = wrap_shift(ty);
                if unsigned {
                    Kernel::CmpU { enc, sh, a, b }
                } else {
                    Kernel::CmpS { enc, sh, a, b }
                }
            }
            None => {
                if !ty.is_float() || kinds != (Kind::Float, Kind::Float) {
                    return None;
                }
                Kernel::Cmp { op, ty, a, b }
            }
        };
        Some(self.push(k, Kind::Int))
    }

    /// A 2:1 mux. Like the reference, the chosen arm is not normalized.
    pub fn select(&mut self, c: CiRef, x: CiRef, y: CiRef) -> Option<CiRef> {
        if c.kind != Kind::Int || x.kind != y.kind {
            return None;
        }
        let k = Kernel::Select {
            c: c.slot,
            a: x.slot,
            b: y.slot,
        };
        Some(self.push(k, x.kind))
    }

    /// Finishes the program with `output` as its result, laying the window
    /// out as `[inputs | consts | nodes]`.
    pub fn finish(self, output: CiRef) -> CiProgram {
        let n_in = self.inputs.len() as u32;
        let base = n_in + self.consts.len() as u32;
        let resolve = move |s: u32| {
            if s & NODE_TAG != 0 {
                base + (s & !NODE_TAG)
            } else if s & CONST_TAG != 0 {
                n_in + (s & !CONST_TAG)
            } else {
                s
            }
        };
        let mut ops = self.ops;
        for op in &mut ops {
            op.map_operands(resolve);
        }
        CiProgram {
            inputs: self.inputs.into(),
            consts: self.consts.iter().map(|&(_, bits)| bits).collect(),
            ops: ops.into(),
            output: resolve(output.slot),
            output_kind: output.kind,
        }
    }
}

/// A custom instruction lowered for the fast tier (see the module docs).
/// Built with [`CiProgramBuilder`]; its format is private to this crate.
#[derive(Debug)]
pub struct CiProgram {
    inputs: Box<[Kind]>,
    consts: Box<[u64]>,
    ops: Box<[Kernel]>,
    output: u32,
    output_kind: Kind,
}

#[inline(always)]
fn get(w: &[u64], i: u32) -> u64 {
    w[i as usize]
}

#[inline(always)]
fn getf(w: &[u64], i: u32) -> f64 {
    f64::from_bits(get(w, i))
}

#[inline(always)]
fn wrap(v: i64, sh: u32) -> u64 {
    ((v << sh) >> sh) as u64
}

#[inline(always)]
fn float_bits(v: f64, f32r: bool) -> u64 {
    if f32r {
        (v as f32 as f64).to_bits()
    } else {
        v.to_bits()
    }
}

impl CiProgram {
    /// A fresh window for this program, constants in place.
    fn window(&self) -> Box<[u64]> {
        let n_in = self.inputs.len();
        let mut w = vec![0u64; n_in + self.consts.len() + self.ops.len()];
        w[n_in..n_in + self.consts.len()].copy_from_slice(&self.consts);
        w.into()
    }

    /// Evaluates the CI on `args`: the same value, bit for bit, and the
    /// same errors as the reference `CiSemantics::eval`.
    ///
    /// # Panics
    /// If an argument's variant differs from its port type (a VM type
    /// error; the verifier rejects such IR).
    pub fn eval(&self, args: &[Value]) -> Result<Value> {
        self.run(&mut self.window(), args.len(), |i| Ok(args[i]))
    }

    /// [`Self::eval`] in a window made by [`Self::window`], on the `n`
    /// arguments `arg(0..n)`. Every argument is read first, in order, so a
    /// failing read wins over the arity error, as when the caller gathers
    /// them before calling the reference.
    #[inline]
    fn run(
        &self,
        w: &mut [u64],
        n: usize,
        mut arg: impl FnMut(usize) -> Result<Value>,
    ) -> Result<Value> {
        let n_in = self.inputs.len();
        debug_assert_eq!(w.len(), n_in + self.consts.len() + self.ops.len());
        for i in 0..n {
            let v = arg(i)?;
            if let (Some(&kind), Some(slot)) = (self.inputs.get(i), w.get_mut(i)) {
                *slot = match (kind, v) {
                    (Kind::Int, Value::I(x)) => x as u64,
                    (Kind::Float, Value::F(x)) => x.to_bits(),
                    (_, v) => panic!("CI input {i} does not match its port type: {v:?}"),
                };
            }
        }
        if n != n_in {
            return Err(Error::Arch(format!("CI expects {n_in} inputs, got {n}")));
        }
        let base = n_in + self.consts.len();
        for (k, op) in self.ops.iter().enumerate() {
            let r = match *op {
                Kernel::Add { sh, a, b } => {
                    wrap((get(w, a) as i64).wrapping_add(get(w, b) as i64), sh)
                }
                Kernel::Sub { sh, a, b } => {
                    wrap((get(w, a) as i64).wrapping_sub(get(w, b) as i64), sh)
                }
                Kernel::Mul { sh, a, b } => {
                    wrap((get(w, a) as i64).wrapping_mul(get(w, b) as i64), sh)
                }
                Kernel::And { sh, a, b } => wrap((get(w, a) & get(w, b)) as i64, sh),
                Kernel::Or { sh, a, b } => wrap((get(w, a) | get(w, b)) as i64, sh),
                Kernel::Xor { sh, a, b } => wrap((get(w, a) ^ get(w, b)) as i64, sh),
                Kernel::Shl { sh, mask, a, b } => {
                    let r = (get(w, a) as i64).wrapping_shl(get(w, b) as u32 & mask);
                    wrap(r, sh)
                }
                Kernel::LShr { sh, mask, a, b } => {
                    let ua = (get(w, a) << sh) >> sh;
                    wrap((ua >> (get(w, b) as u32 & mask)) as i64, sh)
                }
                Kernel::AShr { sh, mask, a, b } => {
                    let sa = ((get(w, a) as i64) << sh) >> sh;
                    wrap(sa >> (get(w, b) as u32 & mask), sh)
                }
                Kernel::DivRem { op, ty, a, b } => {
                    fold_int_bin(op, ty, get(w, a) as i64, get(w, b) as i64).ok_or_else(|| {
                        Error::Arch("division by zero in custom instruction".into())
                    })? as u64
                }
                Kernel::FAdd { f32r, a, b } => float_bits(getf(w, a) + getf(w, b), f32r),
                Kernel::FSub { f32r, a, b } => float_bits(getf(w, a) - getf(w, b), f32r),
                Kernel::FMul { f32r, a, b } => float_bits(getf(w, a) * getf(w, b), f32r),
                Kernel::FDiv { f32r, a, b } => float_bits(getf(w, a) / getf(w, b), f32r),
                Kernel::CmpS { enc, sh, a, b } => {
                    let x = ((get(w, a) as i64) << sh) >> sh;
                    let y = ((get(w, b) as i64) << sh) >> sh;
                    ((enc >> (x.cmp(&y) as i8 + 1)) & 1) as u64
                }
                Kernel::CmpU { enc, sh, a, b } => {
                    let x = (get(w, a) << sh) >> sh;
                    let y = (get(w, b) << sh) >> sh;
                    ((enc >> (x.cmp(&y) as i8 + 1)) & 1) as u64
                }
                Kernel::Cmp { op, ty, a, b } => {
                    let x = value_to_imm(Value::F(getf(w, a)), ty);
                    let y = value_to_imm(Value::F(getf(w, b)), ty);
                    fold_cmp(op, ty, &x, &y) as u64
                }
                Kernel::Select { c, a, b } => {
                    if get(w, c) & 1 != 0 {
                        get(w, a)
                    } else {
                        get(w, b)
                    }
                }
                Kernel::Neg { src_sh, sh, a } => {
                    let x = ((get(w, a) as i64) << src_sh) >> src_sh;
                    wrap(x.wrapping_neg(), sh)
                }
                Kernel::Un {
                    op,
                    ty,
                    src_ty,
                    src,
                    a,
                } => {
                    let bits = get(w, a);
                    let x = match src {
                        Kind::Int => Value::I(bits as i64),
                        Kind::Float => Value::F(f64::from_bits(bits)),
                    };
                    let out = fold_un(op, ty, &value_to_imm(x, src_ty))
                        .ok_or_else(|| Error::Arch("invalid cast in CI".into()))?;
                    match Value::from_imm(out) {
                        Value::I(v) => v as u64,
                        Value::F(v) => v.to_bits(),
                    }
                }
            };
            w[base + k] = r;
        }
        let bits = w[self.output as usize];
        Ok(match self.output_kind {
            Kind::Int => Value::I(bits as i64),
            Kind::Float => Value::F(f64::from_bits(bits)),
        })
    }
}

/// One bound slot: the program, its hardware latency, its window, and the
/// 1-based index of the run's last call into it (0 = not called).
#[derive(Debug)]
struct BoundCi {
    program: Arc<CiProgram>,
    hw_cycles: u64,
    window: Box<[u64]>,
    last_call: u64,
}

/// One run's copy of the loaded custom instructions (see the module
/// docs). A handler builds it in [`CustomHandler::bind`] and reads it
/// back in [`CustomHandler::retire`].
///
/// [`CustomHandler::bind`]: crate::CustomHandler::bind
/// [`CustomHandler::retire`]: crate::CustomHandler::retire
#[derive(Debug)]
pub struct CiBinding {
    token: u64,
    slots: Vec<Option<BoundCi>>,
    calls: u64,
}

impl CiBinding {
    /// An empty binding; `token` is the handler's own mark, returned by
    /// [`Self::token`].
    pub fn new(token: u64) -> CiBinding {
        CiBinding {
            token,
            slots: Vec::new(),
            calls: 0,
        }
    }

    /// Binds `program` with latency `hw_cycles` to `slot`.
    pub fn insert(&mut self, slot: u32, program: Arc<CiProgram>, hw_cycles: u64) {
        let i = slot as usize;
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        let window = program.window();
        self.slots[i] = Some(BoundCi {
            program,
            hw_cycles,
            window,
            last_call: 0,
        });
    }

    /// The handler's mark passed to [`Self::new`].
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Calls that completed through this binding.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// `(slot, n)` for every slot called at least once, where `n` is the
    /// 1-based index, among [`Self::calls`], of its last call.
    pub fn last_calls(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.as_ref()
                .filter(|ci| ci.last_call > 0)
                .map(|ci| (i as u32, ci.last_call))
        })
    }

    /// Runs the CI bound to `slot` on the `n` arguments `arg(0..n)`, read
    /// straight into its window: `None` when nothing is bound there (the
    /// caller then asks the handler, before reading any argument), else
    /// the result and the cycles to charge. Only a call that returns `Ok`
    /// counts as a call.
    #[inline]
    pub(crate) fn call(
        &mut self,
        slot: u32,
        n: usize,
        arg: impl FnMut(usize) -> Result<Value>,
    ) -> Option<Result<(Value, u64)>> {
        let ci = self.slots.get_mut(slot as usize)?.as_mut()?;
        Some(match ci.program.run(&mut ci.window, n, arg) {
            Ok(v) => {
                self.calls += 1;
                ci.last_call = self.calls;
                Ok((v, ci.hw_cycles))
            }
            Err(e) => Err(e),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_layout_is_inputs_consts_nodes() {
        let mut b = CiProgramBuilder::new(&[Type::I32, Type::I32]);
        let (x, y) = (b.input(0).unwrap(), b.input(1).unwrap());
        let s = b.bin(BinOp::Add, Type::I32, x, y).unwrap();
        let k = b.constant(Imm::i32(3));
        let m = b.bin(BinOp::Mul, Type::I32, s, k).unwrap();
        // A repeated constant shares its slot.
        assert_eq!(b.constant(Imm::i32(3)), k);
        let p = b.finish(m);
        assert_eq!(p.window().as_ref(), &[0, 0, 3, 0, 0]);
        assert_eq!(p.output, 4);
        assert_eq!(p.eval(&[Value::I(5), Value::I(7)]).unwrap(), Value::I(36));
    }

    #[test]
    fn ill_kinded_operations_are_not_lowered() {
        let mut b = CiProgramBuilder::new(&[Type::I32, Type::F64]);
        let (i, f) = (b.input(0).unwrap(), b.input(1).unwrap());
        assert!(b.bin(BinOp::Add, Type::I32, i, f).is_none());
        assert!(b.bin(BinOp::FAdd, Type::F64, i, f).is_none());
        assert!(b.select(i, i, f).is_none());
        assert!(b.select(f, i, i).is_none());
        assert!(b.cmp(CmpOp::Eq, Type::F64, f, f).is_none());
        assert!(b.cmp(CmpOp::FOlt, Type::I32, i, i).is_none());
        assert!(b.input(2).is_none());
    }

    #[test]
    fn traps_and_arity_match_the_reference_strings() {
        let mut b = CiProgramBuilder::new(&[Type::I32, Type::I32]);
        let (x, y) = (b.input(0).unwrap(), b.input(1).unwrap());
        let q = b.bin(BinOp::SDiv, Type::I32, x, y).unwrap();
        let p = b.finish(q);
        let err = p.eval(&[Value::I(1), Value::I(0)]).unwrap_err();
        assert!(err
            .to_string()
            .contains("division by zero in custom instruction"));
        let err = p.eval(&[Value::I(1)]).unwrap_err();
        assert!(err.to_string().contains("CI expects 2 inputs, got 1"));

        let mut b = CiProgramBuilder::new(&[Type::F64]);
        let x = b.input(0).unwrap();
        let c = b.un(UnOp::FpToSi, Type::I32, Type::F64, x);
        let p = b.finish(c);
        let err = p.eval(&[Value::F(f64::NAN)]).unwrap_err();
        assert!(err.to_string().contains("invalid cast in CI"));
        assert_eq!(p.eval(&[Value::F(-2.75)]).unwrap(), Value::I(-2));
    }

    #[test]
    fn binding_counts_calls_and_last_touches() {
        let mut b = CiProgramBuilder::new(&[Type::I64]);
        let x = b.input(0).unwrap();
        let one = b.constant(Imm::i64(1));
        let r = b.bin(BinOp::Add, Type::I64, x, one).unwrap();
        let p = Arc::new(b.finish(r));
        let mut bind = CiBinding::new(7);
        bind.insert(0, Arc::clone(&p), 4);
        bind.insert(2, p, 9);
        let mut exec = |slot: u32, args: &[Value]| bind.call(slot, args.len(), |i| Ok(args[i]));
        assert!(exec(1, &[Value::I(0)]).is_none(), "unbound slot");
        assert!(exec(5, &[Value::I(0)]).is_none(), "past the table");
        assert_eq!(exec(0, &[Value::I(1)]).unwrap().unwrap(), (Value::I(2), 4));
        assert_eq!(exec(2, &[Value::I(1)]).unwrap().unwrap(), (Value::I(2), 9));
        assert!(exec(2, &[]).unwrap().is_err(), "a trap is not a call");
        assert_eq!(exec(0, &[Value::I(5)]).unwrap().unwrap(), (Value::I(6), 4));
        // A failing argument read wins over the arity error and is no call.
        let read_err = bind.call(0, 2, |_| Err(Error::Vm("undefined".into())));
        assert_eq!(read_err.unwrap().unwrap_err().to_string(), "vm: undefined");
        assert_eq!(bind.token(), 7);
        assert_eq!(bind.calls(), 3);
        assert_eq!(bind.last_calls().collect::<Vec<_>>(), vec![(0, 3), (2, 2)]);
    }
}
