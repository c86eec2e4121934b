//! Differential proptest: a CI lowered for the fast tier
//! ([`CiSemantics::lower`]) against the reference [`CiSemantics::eval`].
//!
//! Random datapaths cover every `BinOp`, `UnOp` and `CmpOp` plus `Select`
//! at i1, i8, i16, i32, i64, f32 and f64, over input ports and baked-in
//! constants, with the trap cases drawn often: division and remainder by
//! zero, `FpToSi` of NaN and ±inf, and shift amounts at or above the
//! width. `Ok` values must agree bit for bit (f64 bits included) and `Err`
//! strings must be equal.

use jitise_base::rng::SplitMix64;
use jitise_ir::{BinOp, CmpOp, Imm, Type, UnOp};
use jitise_vm::Value;
use jitise_woolcano::{CiArg, CiOp, CiSemantics};
use proptest::prelude::*;
use std::collections::BTreeSet;

const INT_TYS: [Type; 5] = [Type::I1, Type::I8, Type::I16, Type::I32, Type::I64];
const FLOAT_TYS: [Type; 2] = [Type::F32, Type::F64];
const INT_BINS: [BinOp; 13] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::SDiv,
    BinOp::UDiv,
    BinOp::SRem,
    BinOp::URem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::LShr,
    BinOp::AShr,
];
const FLOAT_BINS: [BinOp; 4] = [BinOp::FAdd, BinOp::FSub, BinOp::FMul, BinOp::FDiv];
const INT_CMPS: [CmpOp; 10] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Slt,
    CmpOp::Sle,
    CmpOp::Sgt,
    CmpOp::Sge,
    CmpOp::Ult,
    CmpOp::Ule,
    CmpOp::Ugt,
    CmpOp::Uge,
];
const FLOAT_CMPS: [CmpOp; 6] = [
    CmpOp::FOeq,
    CmpOp::FOne,
    CmpOp::FOlt,
    CmpOp::FOle,
    CmpOp::FOgt,
    CmpOp::FOge,
];

fn pick<T: Copy>(rng: &mut SplitMix64, xs: &[T]) -> T {
    xs[rng.next_index(xs.len())]
}

/// An integer payload of type `ty`: mostly normalized boundary values
/// (zero divisors and shift amounts at or past the width included),
/// sometimes a raw 64-bit value, which the kernels must wrap exactly as
/// the reference does.
fn int_value(rng: &mut SplitMix64, ty: Type) -> i64 {
    let bits = ty.bits() as i64;
    let v = match rng.next_below(12) {
        0 | 1 => 0,
        2 => 1,
        3 => -1,
        4 => bits,
        5 => bits + 1 + rng.next_below(70) as i64,
        6 => bits - 1,
        7 => i64::MIN,
        8 => i64::MAX,
        9 => return rng.next_u64() as i64,
        _ => rng.next_u64() as i64 >> rng.next_below(64),
    };
    ty.sext(ty.trunc(v))
}

/// A float payload of type `ty` (rounded through f32 for `F32`, like every
/// f32 value the VM produces): NaN and ±inf drawn often.
fn float_value(rng: &mut SplitMix64, ty: Type) -> f64 {
    let v = match rng.next_below(12) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => 1e300,
        6 => -3.0e-310,
        7 => (rng.next_u64() >> 40) as f64,
        _ => (rng.next_f64() - 0.5) * 2.0f64.powi(rng.next_below(80) as i32 - 20),
    };
    if ty == Type::F32 {
        v as f32 as f64
    } else {
        v
    }
}

fn imm(rng: &mut SplitMix64, ty: Type) -> Imm {
    match ty {
        Type::F32 => Imm::f32(float_value(rng, ty) as f32),
        Type::F64 => Imm::f64(float_value(rng, ty)),
        _ => Imm::int(ty, int_value(rng, ty)),
    }
}

/// A random well-typed CI and one argument vector for it.
#[derive(Debug, Clone)]
struct Case {
    sem: CiSemantics,
    args: Vec<Value>,
}

fn gen_case(seed: u64) -> Case {
    let mut rng = SplitMix64::new(seed);
    let all_tys: Vec<Type> = INT_TYS.iter().chain(&FLOAT_TYS).copied().collect();
    let num_inputs = 1 + rng.next_below(4);
    let input_tys: Vec<Type> = (0..num_inputs).map(|_| pick(&mut rng, &all_tys)).collect();
    // Every value so far with its type: ports first, then op results.
    let mut vals: Vec<(CiArg, Type)> = input_tys
        .iter()
        .enumerate()
        .map(|(i, &t)| (CiArg::Input(i as u32), t))
        .collect();
    let mut ops = Vec::new();
    let n_ops = 1 + rng.next_below(8);
    for _ in 0..n_ops {
        // An operand of the wanted kind: an existing value (usually of the
        // exact type) or a fresh constant of type `ty`.
        let operand = |rng: &mut SplitMix64, ty: Type| -> CiArg {
            let same_kind: Vec<CiArg> = vals
                .iter()
                .filter(|(_, t)| t.is_float() == ty.is_float())
                .filter(|(_, t)| *t == ty || rng.chance(0.2))
                .map(|&(a, _)| a)
                .collect();
            if same_kind.is_empty() || rng.chance(0.3) {
                CiArg::Const(imm(rng, ty))
            } else {
                pick(rng, &same_kind)
            }
        };
        let (op, ty) = match rng.next_below(9) {
            0..=2 => {
                let ty = pick(&mut rng, &INT_TYS);
                let op = pick(&mut rng, &INT_BINS);
                let (a, b) = (operand(&mut rng, ty), operand(&mut rng, ty));
                (CiOp::Bin(op, ty, a, b), ty)
            }
            3 => {
                let ty = pick(&mut rng, &FLOAT_TYS);
                let op = pick(&mut rng, &FLOAT_BINS);
                let (a, b) = (operand(&mut rng, ty), operand(&mut rng, ty));
                (CiOp::Bin(op, ty, a, b), ty)
            }
            4 | 5 => {
                let (op, src, ty) = match rng.next_below(10) {
                    0 => (UnOp::Neg, pick(&mut rng, &INT_TYS), None),
                    1 => (UnOp::Not, pick(&mut rng, &INT_TYS), None),
                    2 => (UnOp::FNeg, pick(&mut rng, &FLOAT_TYS), None),
                    3 => (UnOp::Trunc, pick(&mut rng, &INT_TYS), Some(&INT_TYS[..])),
                    4 => (UnOp::ZExt, pick(&mut rng, &INT_TYS), Some(&INT_TYS[..])),
                    5 => (UnOp::SExt, pick(&mut rng, &INT_TYS), Some(&INT_TYS[..])),
                    6 => (UnOp::FpToSi, pick(&mut rng, &FLOAT_TYS), Some(&INT_TYS[..])),
                    7 => (UnOp::SiToFp, pick(&mut rng, &INT_TYS), Some(&FLOAT_TYS[..])),
                    8 => (UnOp::FpExt, Type::F32, Some(&[Type::F64][..])),
                    _ => (UnOp::FpTrunc, Type::F64, Some(&[Type::F32][..])),
                };
                let ty = ty.map_or(src, |tys| pick(&mut rng, tys));
                let a = operand(&mut rng, src);
                // `freeze` records the operand's own type as the source.
                let src_ty = type_of(&vals, a).unwrap_or(src);
                (CiOp::Un(op, ty, src_ty, a), ty)
            }
            6 | 7 => {
                let float = rng.chance(0.35);
                let (ty, op) = if float {
                    (pick(&mut rng, &FLOAT_TYS), pick(&mut rng, &FLOAT_CMPS))
                } else {
                    (pick(&mut rng, &INT_TYS), pick(&mut rng, &INT_CMPS))
                };
                let a = operand(&mut rng, ty);
                let b = operand(&mut rng, ty);
                let ty = type_of(&vals, a).unwrap_or(ty);
                (CiOp::Cmp(op, ty, a, b), Type::I1)
            }
            _ => {
                let ty = pick(&mut rng, &all_tys);
                let c = operand(&mut rng, Type::I1);
                let (a, b) = (operand(&mut rng, ty), operand(&mut rng, ty));
                (CiOp::Select(c, a, b), ty)
            }
        };
        vals.push((CiArg::Node(ops.len() as u32), ty));
        ops.push(op);
    }
    let output_op = if rng.chance(0.7) {
        ops.len() as u32 - 1
    } else {
        rng.next_below(ops.len() as u64) as u32
    };
    let args = input_tys
        .iter()
        .map(|&t| {
            if t.is_float() {
                Value::F(float_value(&mut rng, t))
            } else {
                Value::I(int_value(&mut rng, t))
            }
        })
        .collect();
    Case {
        sem: CiSemantics {
            ops,
            input_tys,
            output_op,
        },
        args,
    }
}

fn type_of(vals: &[(CiArg, Type)], a: CiArg) -> Option<Type> {
    match a {
        CiArg::Const(imm) => Some(imm.ty),
        other => vals.iter().find(|(v, _)| *v == other).map(|&(_, t)| t),
    }
}

/// `Ok` values by variant and bits, errors by their string.
fn observe(r: jitise_base::Result<Value>) -> Result<(bool, u64), String> {
    match r {
        Ok(Value::I(v)) => Ok((false, v as u64)),
        Ok(Value::F(v)) => Ok((true, v.to_bits())),
        Err(e) => Err(e.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn lowered_program_matches_eval(seed in any::<u64>()) {
        let case = gen_case(seed);
        let program = case.sem.lower();
        prop_assert!(program.is_some(), "a well-typed CI must lower: {:?}", case.sem);
        let program = program.unwrap();
        prop_assert_eq!(
            observe(program.eval(&case.args)),
            observe(case.sem.eval(&case.args)),
            "seed {:#x}: {:?} on {:?}", seed, case.sem, case.args
        );
        // A wrong argument count fails with the reference's message too.
        let short = &case.args[..case.args.len() - 1];
        prop_assert_eq!(observe(program.eval(short)), observe(case.sem.eval(short)));
    }
}

/// The generator reaches every op, every type and every trap the
/// proptest claims to cover.
#[test]
fn generator_covers_every_op_type_and_trap() {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for seed in 0..4096u64 {
        let case = gen_case(seed);
        for op in &case.sem.ops {
            let (name, ty) = match op {
                CiOp::Bin(o, t, _, _) => (format!("{o:?}"), *t),
                CiOp::Un(o, t, _, _) => (format!("{o:?}"), *t),
                CiOp::Cmp(o, t, _, _) => (format!("{o:?}"), *t),
                CiOp::Select(..) => ("Select".to_string(), Type::I1),
            };
            seen.insert(name);
            seen.insert(format!("{ty:?}"));
        }
        if let Err(e) = case.sem.eval(&case.args) {
            seen.insert(e.to_string());
        }
        for op in &case.sem.ops {
            if let CiOp::Bin(BinOp::Shl | BinOp::LShr | BinOp::AShr, ty, _, CiArg::Const(k)) = op {
                if k.as_i64() >= ty.bits() as i64 {
                    seen.insert("wide shift".into());
                }
            }
        }
    }
    let mut want: Vec<String> = INT_BINS
        .iter()
        .chain(&FLOAT_BINS)
        .map(|o| format!("{o:?}"))
        .collect();
    want.extend(INT_CMPS.iter().chain(&FLOAT_CMPS).map(|o| format!("{o:?}")));
    want.extend(
        [
            UnOp::Neg,
            UnOp::Not,
            UnOp::FNeg,
            UnOp::Trunc,
            UnOp::ZExt,
            UnOp::SExt,
            UnOp::FpToSi,
            UnOp::SiToFp,
            UnOp::FpExt,
            UnOp::FpTrunc,
        ]
        .iter()
        .map(|o| format!("{o:?}")),
    );
    want.extend(INT_TYS.iter().chain(&FLOAT_TYS).map(|t| format!("{t:?}")));
    want.extend(
        [
            "Select",
            "wide shift",
            "arch: division by zero in custom instruction",
            "arch: invalid cast in CI",
        ]
        .map(String::from),
    );
    for w in &want {
        assert!(
            seen.contains(w),
            "generator never produced `{w}`; saw {seen:?}"
        );
    }
}
