//! The placer before incremental bounding boxes: every move rescans every
//! pin of every net on the moved cell, before and after the move. A
//! verbatim copy kept as the oracle for `jitise_cad::place`; it is
//! test-only and must not be "fixed".

use jitise_base::rng::XorShift128Plus;
use jitise_base::{Error, Result};
use jitise_cad::{Fabric, PlaceEffort, Placement, SiteKind};
use jitise_pivpav::{CellKind, Netlist, PortDir};

fn required_site(kind: CellKind) -> SiteKind {
    match kind {
        CellKind::Dsp48 => SiteKind::Dsp,
        _ => SiteKind::Logic,
    }
}

/// Net → cells map plus the port-to-tile pins (module ports pinned to the
/// fabric edge, where the bus macros sit in a real PR design).
struct NetPins {
    /// For each net: cell indices touching it.
    net_cells: Vec<Vec<u32>>,
    /// For each net: fixed pin tiles (from module ports).
    net_fixed: Vec<Vec<u32>>,
}

/// The fixed pin tile of every module-port bit, as `(net, tile)` in port
/// order: inputs pin to the west fabric edge and outputs to the east edge,
/// each spread over the rows.
fn port_pins<'a>(fabric: &'a Fabric, nl: &'a Netlist) -> impl Iterator<Item = (u32, u32)> + 'a {
    let mut in_row = 0u32;
    let mut out_row = 0u32;
    nl.ports
        .iter()
        .flat_map(|p| p.nets.iter().map(move |&net| (p.dir, net)))
        .map(move |(dir, net)| {
            let (x, row) = match dir {
                PortDir::In => (0, &mut in_row),
                PortDir::Out => (fabric.width - 1, &mut out_row),
            };
            let tile = fabric.tile_at(x, *row % fabric.height);
            *row += 1;
            (net, tile)
        })
}

fn build_pins(fabric: &Fabric, nl: &Netlist) -> NetPins {
    let n = nl.num_nets as usize;
    let mut net_cells = vec![Vec::new(); n];
    let mut net_fixed = vec![Vec::new(); n];
    for (i, c) in nl.cells.iter().enumerate() {
        net_cells[c.output as usize].push(i as u32);
        for &inp in &c.inputs {
            net_cells[inp as usize].push(i as u32);
        }
    }
    for (net, tile) in port_pins(fabric, nl) {
        net_fixed[net as usize].push(tile);
    }
    for cells in net_cells.iter_mut() {
        cells.dedup();
    }
    NetPins {
        net_cells,
        net_fixed,
    }
}

fn net_hpwl(fabric: &Fabric, pins: &NetPins, placement: &[u32], net: usize) -> u64 {
    let mut min_x = u32::MAX;
    let mut max_x = 0;
    let mut min_y = u32::MAX;
    let mut max_y = 0;
    let mut any = false;
    let mut consider = |tile: u32| {
        let (x, y) = fabric.xy(tile);
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
        any = true;
    };
    for &c in &pins.net_cells[net] {
        consider(placement[c as usize]);
    }
    for &t in &pins.net_fixed[net] {
        consider(t);
    }
    if !any {
        return 0;
    }
    ((max_x - min_x) + (max_y - min_y)) as u64
}

fn total_hpwl(fabric: &Fabric, pins: &NetPins, placement: &[u32]) -> u64 {
    (0..pins.net_cells.len())
        .map(|n| net_hpwl(fabric, pins, placement, n))
        .sum()
}

/// Places `nl` on `fabric` with simulated annealing.
///
/// Fails with [`Error::Cad`] if the design does not fit (cell counts exceed
/// site capacities).
pub fn place(fabric: &Fabric, nl: &Netlist, effort: PlaceEffort, seed: u64) -> Result<Placement> {
    // Capacity feasibility.
    let logic_cells = nl
        .cells
        .iter()
        .filter(|c| c.kind != CellKind::Dsp48)
        .count() as u32;
    let dsp_cells = nl.dsp_count() as u32;
    if logic_cells > fabric.total_logic_sites() {
        return Err(Error::Cad(format!(
            "design does not fit: {logic_cells} logic cells > {} sites",
            fabric.total_logic_sites()
        )));
    }
    if dsp_cells > fabric.total_dsp_sites() {
        return Err(Error::Cad(format!(
            "design does not fit: {dsp_cells} DSP cells > {} sites",
            fabric.total_dsp_sites()
        )));
    }

    let mut rng = XorShift128Plus::new(seed);
    let pins = build_pins(fabric, nl);

    // Initial placement: round-robin over matching tiles.
    let mut occupancy = vec![0u32; fabric.num_tiles() as usize];
    let logic_tiles: Vec<u32> = (0..fabric.num_tiles())
        .filter(|&t| fabric.site_kind(t) == SiteKind::Logic)
        .collect();
    let dsp_tiles: Vec<u32> = (0..fabric.num_tiles())
        .filter(|&t| fabric.site_kind(t) == SiteKind::Dsp)
        .collect();
    let mut placement = vec![0u32; nl.cells.len()];
    let mut li = 0usize;
    let mut di = 0usize;
    for (i, c) in nl.cells.iter().enumerate() {
        let pool = if required_site(c.kind) == SiteKind::Dsp {
            &dsp_tiles
        } else {
            &logic_tiles
        };
        let start = if required_site(c.kind) == SiteKind::Dsp {
            &mut di
        } else {
            &mut li
        };
        // Find the next tile with free capacity.
        let mut placed = false;
        for _ in 0..pool.len() {
            let t = pool[*start % pool.len()];
            *start += 1;
            if occupancy[t as usize] < fabric.capacity(t) {
                occupancy[t as usize] += 1;
                placement[i] = t;
                placed = true;
                break;
            }
        }
        if !placed {
            return Err(Error::Cad("initial placement failed (no free site)".into()));
        }
    }

    // Annealing.
    let mut cost = total_hpwl(fabric, &pins, &placement);
    let mut temp = (cost as f64 / pins.net_cells.len().max(1) as f64).max(1.0);
    let mut moves = 0u64;
    let mut accepted = 0u64;

    // Nets touched by a cell, for incremental cost evaluation.
    let mut cell_nets: Vec<Vec<u32>> = vec![Vec::new(); nl.cells.len()];
    for (net, cells) in pins.net_cells.iter().enumerate() {
        for &c in cells {
            cell_nets[c as usize].push(net as u32);
        }
    }

    for _ in 0..effort.temp_steps {
        for _ in 0..effort.moves_per_temp {
            if nl.cells.is_empty() {
                break;
            }
            moves += 1;
            let cell = rng.next_index(nl.cells.len());
            let kind = required_site(nl.cells[cell].kind);
            let pool = if kind == SiteKind::Dsp {
                &dsp_tiles
            } else {
                &logic_tiles
            };
            let target = pool[rng.next_index(pool.len())];
            let from = placement[cell];
            if target == from {
                continue;
            }
            if occupancy[target as usize] >= fabric.capacity(target) {
                continue; // site full (cell swaps omitted for simplicity)
            }
            // Incremental delta over the cell's nets.
            let before: u64 = cell_nets[cell]
                .iter()
                .map(|&n| net_hpwl(fabric, &pins, &placement, n as usize))
                .sum();
            placement[cell] = target;
            let after: u64 = cell_nets[cell]
                .iter()
                .map(|&n| net_hpwl(fabric, &pins, &placement, n as usize))
                .sum();
            let delta = after as i64 - before as i64;
            let accept = delta <= 0 || rng.next_f64() < (-(delta as f64) / temp).exp();
            if accept {
                occupancy[from as usize] -= 1;
                occupancy[target as usize] += 1;
                cost = (cost as i64 + delta) as u64;
                accepted += 1;
            } else {
                placement[cell] = from;
            }
        }
        temp *= 0.82;
    }

    Ok(Placement {
        cell_tile: placement,
        hpwl: cost,
        moves,
        accepted,
    })
}
