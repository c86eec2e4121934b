//! Top-level synthesis (the Xst stage).
//!
//! "Since all the netlists for all hardware components are retrieved from a
//! database there is no need to re-synthesize them. The synthesis process
//! thus has to generate a netlist just for the top level module" (§V-C).
//!
//! This module does that real work: it flattens the structural VHDL (the
//! datapath's component instances) and the pre-synthesized component
//! netlists into one primitive netlist, aliasing the nets that the port
//! maps connect. Aliasing uses a union–find over net ids followed by a
//! compaction pass, so the result satisfies the single-driver invariant by
//! construction.

use jitise_base::{Error, Result};
use jitise_pivpav::{CadProject, Cell, CellKind, Netlist, PortDir};

/// Union–find over net ids.
struct NetUnion {
    parent: Vec<u32>,
}

impl NetUnion {
    fn new(n: u32) -> Self {
        NetUnion {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb as usize] = ra;
        }
    }
}

/// Flattens a CAD project into one top-level netlist.
///
/// Top-level signals become nets; each component instance contributes its
/// pre-synthesized cells with input/output ports aliased onto the signals
/// of the datapath wiring.
pub fn synthesize_top(project: &CadProject) -> Result<Netlist> {
    let vhdl = &project.vhdl;
    let mut top = Netlist::new(format!("{}_flat", project.name));

    // One net per top-level signal.
    for _ in 0..vhdl.num_signals {
        top.new_net();
    }

    // Absorb instance netlists; remember (offset, netlist) per instance.
    let mut offsets = Vec::with_capacity(vhdl.instances.len());
    for (inst, nl) in vhdl.instances.iter().zip(&project.netlists) {
        let off = top.absorb(nl);
        offsets.push((inst, nl, off));
    }

    // Build the alias relation.
    let mut uf = NetUnion::new(top.num_nets);
    for (inst, nl, off) in &offsets {
        // Map the component's input ports (in declaration order) onto the
        // instance's input signals, bit 0 of each port to the signal (the
        // datapath model is word-level: one signal per port).
        let in_ports: Vec<_> = nl.ports.iter().filter(|p| p.dir == PortDir::In).collect();
        if in_ports.len() < inst.input_signals.len().min(2) && !inst.input_signals.is_empty() {
            return Err(Error::Cad(format!(
                "core {} has {} input ports but instance {} drives {}",
                nl.name,
                in_ports.len(),
                inst.label,
                inst.input_signals.len()
            )));
        }
        for (port, &sig) in in_ports.iter().zip(&inst.input_signals) {
            for &bit_net in &port.nets {
                uf.union(sig, bit_net + off);
            }
        }
        // Extra input signals (3rd+ operand of select etc.) alias onto the
        // last port — a word-level simplification.
        if inst.input_signals.len() > in_ports.len() {
            if let Some(last) = in_ports.last() {
                for &sig in &inst.input_signals[in_ports.len()..] {
                    for &bit_net in &last.nets {
                        uf.union(sig, bit_net + off);
                    }
                }
            }
        }
        // Output port aliases onto the instance's output signal.
        if let Some(out_port) = nl.ports.iter().find(|p| p.dir == PortDir::Out) {
            for &bit_net in &out_port.nets {
                uf.union(inst.output_signal, bit_net + off);
            }
        }
    }

    // Compact: renumber alias classes densely and rebuild the cell list,
    // keeping only one driver per class (component-internal drivers win
    // over the aliased port wiring).
    let mut class_of = vec![u32::MAX; top.num_nets as usize];
    let mut next = 0u32;
    fn resolve(uf: &mut NetUnion, class_of: &mut [u32], next: &mut u32, n: u32) -> u32 {
        let root = uf.find(n);
        if class_of[root as usize] == u32::MAX {
            class_of[root as usize] = *next;
            *next += 1;
        }
        class_of[root as usize]
    }

    let mut cells = Vec::with_capacity(top.cells.len());
    let mut driver_seen = std::collections::HashSet::new();
    for c in &top.cells {
        let out = resolve(&mut uf, &mut class_of, &mut next, c.output);
        // Single-driver: if two absorbed cells drive aliased nets (possible
        // when a port net is internally driven), insert no duplicate —
        // first driver wins, later ones become buffers driving fresh nets.
        let output = if driver_seen.insert(out) {
            out
        } else {
            let fresh = next;
            next += 1;
            fresh
        };
        cells.push(Cell {
            kind: c.kind,
            inputs: c
                .inputs
                .iter()
                .map(|&n| resolve(&mut uf, &mut class_of, &mut next, n))
                .collect(),
            output,
        });
    }

    // Top-level ports: module inputs and outputs.
    let mut flat = Netlist::new(top.name.clone());
    flat.cells = cells;
    // Port-net classes are deduplicated: the word-level port maps can
    // alias two datapath signals onto one component port (a select's third
    // operand shares the `b` port), and a class must appear at most once
    // across the top-level ports to preserve the single-driver invariant.
    // A class that is already driven by an absorbed cell must not appear
    // as a top-level *input* either: the word-level port maps can alias an
    // input signal onto an internally-driven wire (select's shared port),
    // making the external pin redundant.
    let cell_driven: std::collections::HashSet<u32> = flat.cells.iter().map(|c| c.output).collect();
    let mut seen_port_classes = std::collections::HashSet::new();
    seen_port_classes.extend(cell_driven.iter().copied());
    let dedup = |nets: Vec<u32>, seen: &mut std::collections::HashSet<u32>| -> Vec<u32> {
        nets.into_iter().filter(|n| seen.insert(*n)).collect()
    };
    let in_nets: Vec<u32> = dedup(
        vhdl.inputs
            .iter()
            .map(|&s| resolve(&mut uf, &mut class_of, &mut next, s))
            .collect(),
        &mut seen_port_classes,
    );
    // Constants: model as IBuf-driven nets (tied off in hardware).
    let const_nets: Vec<u32> = dedup(
        vhdl.constants
            .iter()
            .map(|&(s, _)| resolve(&mut uf, &mut class_of, &mut next, s))
            .collect(),
        &mut seen_port_classes,
    );
    let mut seen_out = std::collections::HashSet::new();
    let out_nets: Vec<u32> = dedup(
        vhdl.outputs
            .iter()
            .map(|&s| resolve(&mut uf, &mut class_of, &mut next, s))
            .collect(),
        &mut seen_out,
    );
    flat.num_nets = flat.num_nets.max(next);
    flat.ports.push(jitise_pivpav::Port {
        name: "in".into(),
        dir: PortDir::In,
        nets: in_nets,
    });
    if !const_nets.is_empty() {
        flat.ports.push(jitise_pivpav::Port {
            name: "const".into(),
            dir: PortDir::In,
            nets: const_nets,
        });
    }
    flat.ports.push(jitise_pivpav::Port {
        name: "out".into(),
        dir: PortDir::Out,
        nets: out_nets,
    });

    // The flattened netlist must be structurally valid.
    flat.validate().map_err(Error::Cad)?;
    Ok(flat)
}

/// Complexity measure of a flat netlist used by the map/PAR runtime model:
/// DSP blocks weigh more than LUTs (the paper: "their duration depends on
/// the number of hardware components and the type of operation they
/// perform. For instance, the implementation of the shift operator is
/// trivial in contrast to a division").
pub fn netlist_complexity(nl: &Netlist) -> f64 {
    let luts = nl.lut_count() as f64;
    let carries = nl
        .cells
        .iter()
        .filter(|c| c.kind == CellKind::Carry)
        .count() as f64;
    let ffs = nl.ff_count() as f64;
    let dsps = nl.dsp_count() as f64;
    luts + 0.5 * carries + 0.3 * ffs + 12.0 * dsps
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_ir::{BlockId, Dfg, FuncId, FunctionBuilder, Operand as Op, Type};
    use jitise_pivpav::{create_project, CircuitDb, NetlistCache};
    use jitise_vm::BlockKey;

    fn project_for_chain() -> CadProject {
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        let x = b.add(Op::Arg(0), Op::Arg(1));
        let y = b.mul(x, Op::ci32(3));
        let z = b.xor(y, x);
        b.ret(z);
        let f = b.finish();
        let dfg = Dfg::build(&f, BlockId(0));
        let cand = jitise_ise::maxmiso(&f, &dfg, BlockKey::new(FuncId(0), BlockId(0)), 2)
            .candidates
            .remove(0);
        let db = CircuitDb::build();
        let cache = NetlistCache::new();
        create_project(&db, &cache, &f, &dfg, &cand).unwrap().0
    }

    #[test]
    fn flattens_to_valid_netlist() {
        let project = project_for_chain();
        let flat = synthesize_top(&project).unwrap();
        assert_eq!(flat.validate(), Ok(()));
        // All component cells arrive in the flat netlist.
        let expected: usize = project.netlists.iter().map(|n| n.cells.len()).sum();
        assert_eq!(flat.cells.len(), expected);
        assert!(flat.lut_count() > 0);
        // Ports: in, const, out.
        assert_eq!(flat.ports.len(), 3);
    }

    #[test]
    fn complexity_weights_dsp() {
        let project = project_for_chain();
        let flat = synthesize_top(&project).unwrap();
        let c = netlist_complexity(&flat);
        assert!(c > flat.lut_count() as f64, "DSPs and FFs add weight");
    }

    #[test]
    fn deterministic() {
        let a = synthesize_top(&project_for_chain()).unwrap();
        let b = synthesize_top(&project_for_chain()).unwrap();
        assert_eq!(a, b);
    }
}
