//! The datapath generator (candidate → structural VHDL).
//!
//! "The Generate VHDL task is performed with PivPav's data path generator.
//! This generator iterates over the candidate's data path and translates
//! every instruction to a matching hardware IP core, wires these cores, and
//! generates structural VHDL code for the custom instruction" (§III).
//!
//! The output is a real structural-VHDL text (entity + component
//! declarations + port maps) plus a wiring model the CAD flow consumes.

use crate::db::{CircuitDb, CoreRecord};
use jitise_base::{Error, Result};
use jitise_ir::{Dfg, Function, Operand};
use jitise_ise::Candidate;
use std::fmt::Write as _;
use std::sync::Arc;

/// One instantiated component in the datapath.
#[derive(Debug, Clone)]
pub struct DatapathInstance {
    /// Instance label (`u0`, `u1`, …).
    pub label: String,
    /// The IP core instantiated.
    pub core: Arc<CoreRecord>,
    /// Signal ids driving each input port.
    pub input_signals: Vec<u32>,
    /// Signal id of the output port.
    pub output_signal: u32,
    /// Local candidate node index this instance implements.
    pub node: u32,
}

/// A generated datapath: the wiring model + rendered VHDL.
#[derive(Debug, Clone)]
pub struct VhdlModule {
    /// Entity name.
    pub name: String,
    /// Input signal ids (one per external value input).
    pub inputs: Vec<u32>,
    /// Constant-driver signal ids with their values.
    pub constants: Vec<(u32, u64)>,
    /// Output signal ids (one per candidate output).
    pub outputs: Vec<u32>,
    /// Component instances in topological order.
    pub instances: Vec<DatapathInstance>,
    /// Total signal count.
    pub num_signals: u32,
}

impl VhdlModule {
    /// Renders structural VHDL text.
    pub fn to_vhdl(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "library ieee;");
        let _ = writeln!(s, "use ieee.std_logic_1164.all;");
        let _ = writeln!(s, "use ieee.numeric_std.all;");
        let _ = writeln!(s);
        let _ = writeln!(s, "entity {} is", self.name);
        let _ = writeln!(s, "  port (");
        for (i, _) in self.inputs.iter().enumerate() {
            let _ = writeln!(s, "    in{i}  : in  std_logic_vector;");
        }
        for (i, _) in self.outputs.iter().enumerate() {
            let comma = if i + 1 == self.outputs.len() { "" } else { ";" };
            let _ = writeln!(s, "    out{i} : out std_logic_vector{comma}");
        }
        let _ = writeln!(s, "  );");
        let _ = writeln!(s, "end entity {};", self.name);
        let _ = writeln!(s);
        let _ = writeln!(s, "architecture structural of {} is", self.name);
        // Component declarations (unique cores).
        let mut declared: Vec<&str> = Vec::new();
        for inst in &self.instances {
            if !declared.contains(&inst.core.name.as_str()) {
                declared.push(&inst.core.name);
                let _ = writeln!(s, "  component {}", inst.core.name);
                let _ = writeln!(
                    s,
                    "    port (a, b : in std_logic_vector; y : out std_logic_vector);"
                );
                let _ = writeln!(s, "  end component;");
            }
        }
        for sig in 0..self.num_signals {
            let _ = writeln!(s, "  signal s{sig} : std_logic_vector;");
        }
        for (sig, value) in &self.constants {
            let _ = writeln!(s, "  constant c{sig} : natural := {value};");
        }
        let _ = writeln!(s, "begin");
        for inst in &self.instances {
            let args: Vec<String> = inst
                .input_signals
                .iter()
                .enumerate()
                .map(|(i, sig)| format!("{} => s{sig}", port_name(i)))
                .chain(std::iter::once(format!("y => s{}", inst.output_signal)))
                .collect();
            let _ = writeln!(
                s,
                "  {} : {} port map ({});",
                inst.label,
                inst.core.name,
                args.join(", ")
            );
        }
        let _ = writeln!(s, "end architecture structural;");
        s
    }

    /// Total LUT estimate over all instances (metrics, not netlists).
    pub fn total_luts(&self) -> u32 {
        self.instances.iter().map(|i| i.core.metrics.luts).sum()
    }

    /// Total DSP estimate.
    pub fn total_dsps(&self) -> u32 {
        self.instances.iter().map(|i| i.core.metrics.dsps).sum()
    }

    /// Critical path in ns through the instance graph (combinational).
    pub fn critical_path_ns(&self) -> f64 {
        // arrival[signal] = worst arrival time at that signal.
        let mut arrival = vec![0.0f64; self.num_signals as usize];
        let mut worst: f64 = 0.0;
        for inst in &self.instances {
            let at = inst
                .input_signals
                .iter()
                .map(|&s| arrival[s as usize])
                .fold(0.0, f64::max)
                + inst.core.metrics.delay_ns;
            arrival[inst.output_signal as usize] = at;
            worst = worst.max(at);
        }
        worst
    }
}

fn port_name(i: usize) -> &'static str {
    ["a", "b", "c", "d", "e", "f", "g", "h"][i.min(7)]
}

/// Generates the datapath for a candidate.
///
/// Fails with [`Error::Pivpav`] if a member opcode has no core in the
/// database (cannot happen for candidates that pass
/// [`jitise_ise::forbidden::is_forbidden`]).
pub fn generate_datapath(
    db: &CircuitDb,
    f: &Function,
    dfg: &Dfg,
    cand: &Candidate,
) -> Result<VhdlModule> {
    let mut num_signals = 0u32;
    let mut fresh = || {
        let s = num_signals;
        num_signals += 1;
        s
    };

    // External inputs and constants get dedicated signals.
    let mut ext_signals: Vec<(ExtKey, u32)> = Vec::new();
    let mut constants: Vec<(u32, u64)> = Vec::new();
    let mut inputs = Vec::new();
    // Output signal per member node.
    let mut node_signal: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();

    let member_set: std::collections::HashSet<u32> = cand.nodes.iter().copied().collect();
    let mut instances = Vec::new();

    for (k, &n) in cand.nodes.iter().enumerate() {
        let node = &dfg.nodes[n as usize];
        let inst = f.inst(node.inst);
        let core = db.lookup(node.opcode, inst.ty).ok_or_else(|| {
            Error::Pivpav(format!(
                "no IP core for {:?} at width {}",
                node.opcode,
                inst.ty.bits()
            ))
        })?;

        let mut input_signals = Vec::new();
        for op in inst.operands() {
            let sig = match op {
                Operand::Const(imm) => {
                    let s = fresh();
                    constants.push((s, imm.bits));
                    s
                }
                Operand::Inst(def) => {
                    // Member-internal edge?
                    let local = dfg.nodes.iter().position(|dn| dn.inst == def);
                    match local {
                        Some(idx) if member_set.contains(&(idx as u32)) => {
                            *node_signal.get(&(idx as u32)).ok_or_else(|| {
                                Error::Pivpav(
                                    "member operand not yet generated (non-topological)".into(),
                                )
                            })?
                        }
                        _ => ext_signal(
                            &mut ext_signals,
                            ExtKey::Inst(def.0),
                            &mut fresh,
                            &mut inputs,
                        ),
                    }
                }
                Operand::Arg(i) => {
                    ext_signal(&mut ext_signals, ExtKey::Arg(i), &mut fresh, &mut inputs)
                }
            };
            input_signals.push(sig);
        }

        let out = fresh();
        node_signal.insert(n, out);
        instances.push(DatapathInstance {
            label: format!("u{k}"),
            core,
            input_signals,
            output_signal: out,
            node: n,
        });
    }

    // Outputs: nodes whose value leaves the candidate.
    let mut outputs = Vec::new();
    for &n in &cand.nodes {
        let node = &dfg.nodes[n as usize];
        let feeds_outside = node.succs.iter().any(|&s| !member_set.contains(&s));
        if node.escapes || feeds_outside {
            outputs.push(node_signal[&n]);
        }
    }

    Ok(VhdlModule {
        name: format!("ci_{:016x}", cand.signature(f, dfg)),
        inputs,
        constants,
        outputs,
        instances,
        num_signals,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExtKey {
    Inst(u32),
    Arg(u32),
}

fn ext_signal(
    table: &mut Vec<(ExtKey, u32)>,
    key: ExtKey,
    fresh: &mut impl FnMut() -> u32,
    inputs: &mut Vec<u32>,
) -> u32 {
    if let Some(&(_, sig)) = table.iter().find(|(k, _)| *k == key) {
        return sig;
    }
    let sig = fresh();
    table.push((key, sig));
    inputs.push(sig);
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_ir::{BlockId, FuncId, FunctionBuilder, Operand as Op, Type};
    use jitise_vm::BlockKey;

    fn candidate_and_ctx() -> (Function, Dfg, Candidate) {
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        let x = b.add(Op::Arg(0), Op::Arg(1));
        let y = b.mul(x, Op::ci32(3));
        let z = b.xor(x, y);
        b.ret(z);
        let f = b.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let cands =
            jitise_ise::maxmiso(&f, &dfg, BlockKey::new(FuncId(0), BlockId(0)), 2).candidates;
        let cand = cands.into_iter().next().expect("one candidate");
        (f, dfg, cand)
    }

    #[test]
    fn generates_wired_datapath() {
        let db = CircuitDb::build();
        let (f, dfg, cand) = candidate_and_ctx();
        let m = generate_datapath(&db, &f, &dfg, &cand).unwrap();
        assert_eq!(m.instances.len(), 3);
        // Two distinct external inputs (arg0, arg1), one constant, one out.
        assert_eq!(m.inputs.len(), 2);
        assert_eq!(m.constants.len(), 1);
        assert_eq!(m.outputs.len(), 1);
        // Critical path must be positive and at least the slowest core.
        assert!(m.critical_path_ns() >= 2.8);
        assert!(m.total_luts() > 0);
    }

    #[test]
    fn vhdl_text_is_structural() {
        let db = CircuitDb::build();
        let (f, dfg, cand) = candidate_and_ctx();
        let m = generate_datapath(&db, &f, &dfg, &cand).unwrap();
        let text = m.to_vhdl();
        assert!(text.contains("entity ci_"));
        assert!(text.contains("architecture structural"));
        assert!(text.contains("component add_i32"));
        assert!(text.contains("component mul_i32"));
        assert!(text.contains("port map"));
        assert!(text.contains("end architecture"));
        // One instance line per member.
        assert_eq!(text.matches("port map").count(), 3);
    }

    #[test]
    fn shared_input_gets_one_signal() {
        // y = (a+a) * a : 'a' must appear as ONE input signal.
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let s = b.add(Op::Arg(0), Op::Arg(0));
        let m = b.mul(s, Op::Arg(0));
        b.ret(m);
        let f = b.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let cand =
            Candidate::from_nodes(&f, &dfg, BlockKey::new(FuncId(0), BlockId(0)), vec![0, 1]);
        let db = CircuitDb::build();
        let vhdl = generate_datapath(&db, &f, &dfg, &cand).unwrap();
        assert_eq!(vhdl.inputs.len(), 1);
    }

    #[test]
    fn deterministic_entity_names_from_signature() {
        let db = CircuitDb::build();
        let (f, dfg, cand) = candidate_and_ctx();
        let a = generate_datapath(&db, &f, &dfg, &cand).unwrap();
        let b = generate_datapath(&db, &f, &dfg, &cand).unwrap();
        assert_eq!(a.name, b.name);
    }
}
