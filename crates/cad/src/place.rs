//! Placement (the Map/PAR stage's first half).
//!
//! Simulated-annealing placement of the flat netlist onto the fabric's PR
//! region: every cell is assigned a tile whose site kind matches, tile
//! capacities are respected, and the cost is the half-perimeter wirelength
//! (HPWL) over all nets — the classic VPR formulation.
//!
//! Host path (DESIGN.md §3, "Placer host path"): each net keeps its
//! bounding box with the number of pins on each edge, so a move updates
//! the box in O(1) and rescans the net's pins only when the only pin on
//! an edge moves inward. The boxes are exact, so every delta, RNG draw
//! and accept decision equals a from-scratch HPWL per move
//! (`crates/cad/tests/place_oracle.rs`).

use crate::fabric::{Fabric, SiteKind};
use crate::packed::Rows;
use jitise_base::rng::XorShift128Plus;
use jitise_base::{Error, Result};
use jitise_pivpav::{CellKind, Netlist, PortDir};

/// A legal placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Tile of each cell (index parallel to `netlist.cells`).
    pub cell_tile: Vec<u32>,
    /// Final HPWL.
    pub hpwl: u64,
    /// Moves attempted by the annealer.
    pub moves: u64,
    /// Moves accepted.
    pub accepted: u64,
}

/// Annealing effort.
#[derive(Debug, Clone, Copy)]
pub struct PlaceEffort {
    /// Moves per temperature step.
    pub moves_per_temp: u32,
    /// Temperature steps.
    pub temp_steps: u32,
}

impl PlaceEffort {
    /// Default effort for the tool flow.
    pub fn normal() -> Self {
        PlaceEffort {
            moves_per_temp: 600,
            temp_steps: 24,
        }
    }

    /// Reduced effort for bulk experiments.
    pub fn fast() -> Self {
        PlaceEffort {
            moves_per_temp: 150,
            temp_steps: 10,
        }
    }
}

fn required_site(kind: CellKind) -> SiteKind {
    match kind {
        CellKind::Dsp48 => SiteKind::Dsp,
        _ => SiteKind::Logic,
    }
}

/// The fixed pin tile of every module-port bit, as `(net, tile)` in port
/// order: inputs pin to the west fabric edge and outputs to the east edge,
/// each spread over the rows.
pub(crate) fn port_pins<'a>(
    fabric: &'a Fabric,
    nl: &'a Netlist,
) -> impl Iterator<Item = (u32, u32)> + 'a {
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

/// One axis of a net's bounding box: its extreme coordinates and how many
/// pins sit on each.
#[derive(Clone, Copy, Default)]
struct Span {
    lo: u32,
    hi: u32,
    at_lo: u32,
    at_hi: u32,
}

impl Span {
    fn of(v: u32) -> Span {
        Span {
            lo: v,
            hi: v,
            at_lo: 1,
            at_hi: 1,
        }
    }

    fn add(&mut self, v: u32) {
        if v < self.lo {
            (self.lo, self.at_lo) = (v, 1);
        } else if v == self.lo {
            self.at_lo += 1;
        }
        if v > self.hi {
            (self.hi, self.at_hi) = (v, 1);
        } else if v == self.hi {
            self.at_hi += 1;
        }
    }

    /// Moves one pin from `from` to `to`. Returns `false`, leaving the
    /// span stale, when that pin was the only one on the edge it leaves
    /// inward: only a rescan finds the new edge.
    fn shift(&mut self, from: u32, to: u32) -> bool {
        if to < from {
            if from == self.hi {
                if self.at_hi == 1 {
                    return false;
                }
                self.at_hi -= 1;
            }
            if to < self.lo {
                (self.lo, self.at_lo) = (to, 1);
            } else if to == self.lo {
                self.at_lo += 1;
            }
        } else if to > from {
            if from == self.lo {
                if self.at_lo == 1 {
                    return false;
                }
                self.at_lo -= 1;
            }
            if to > self.hi {
                (self.hi, self.at_hi) = (to, 1);
            } else if to == self.hi {
                self.at_hi += 1;
            }
        }
        true
    }
}

/// A net's bounding box, `[x, y]`; all zero for a net without pins.
type NetBox = [Span; 2];

fn box_hpwl(b: &NetBox) -> u64 {
    ((b[0].hi - b[0].lo) + (b[1].hi - b[1].lo)) as u64
}

/// Every net's pins: the cells touching it and the fixed tiles of its
/// module-port bits (pinned to the fabric edge, where the bus macros sit
/// in a real PR design).
struct Nets {
    /// Row `net`: the cell indices touching it, each once.
    cells: Rows,
    /// Row `net`: its fixed pin tiles (from module ports).
    fixed: Rows,
    /// `[x, y]` of every tile.
    xy: Vec<[u32; 2]>,
}

impl Nets {
    fn new(fabric: &Fabric, nl: &Netlist) -> Nets {
        let n = nl.num_nets as usize;
        let mut cells = Rows::build(n, || {
            nl.cells.iter().zip(0u32..).flat_map(|(c, i)| {
                std::iter::once(c.output)
                    .chain(c.inputs.iter().copied())
                    .map(move |net| (net, i))
            })
        });
        cells.dedup();
        let fixed = Rows::build(n, || port_pins(fabric, nl));
        let xy = (0..fabric.num_tiles())
            .map(|t| {
                let (x, y) = fabric.xy(t);
                [x, y]
            })
            .collect();
        Nets { cells, fixed, xy }
    }

    /// The bounding box of `net`, scanning every pin.
    fn scan(&self, placement: &[u32], net: usize) -> NetBox {
        let mut tiles = self
            .cells
            .row(net)
            .iter()
            .map(|&c| placement[c as usize])
            .chain(self.fixed.row(net).iter().copied());
        let Some(first) = tiles.next() else {
            return NetBox::default();
        };
        let [x, y] = self.xy[first as usize];
        let mut b = [Span::of(x), Span::of(y)];
        for t in tiles {
            let [x, y] = self.xy[t as usize];
            b[0].add(x);
            b[1].add(y);
        }
        b
    }

    fn scan_all(&self, placement: &[u32]) -> Vec<NetBox> {
        (0..self.cells.len())
            .map(|n| self.scan(placement, n))
            .collect()
    }
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
    let nets = Nets::new(fabric, nl);

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
    let mut boxes = nets.scan_all(&placement);
    let mut cost: u64 = boxes.iter().map(box_hpwl).sum();
    let mut temp = (cost as f64 / nets.cells.len().max(1) as f64).max(1.0);
    let mut moves = 0u64;
    let mut accepted = 0u64;

    // Row `cell`: the nets touching it, for incremental cost evaluation.
    let cell_nets = Rows::build(nl.cells.len(), || {
        nets.cells
            .iter()
            .zip(0u32..)
            .flat_map(|(cells, net)| cells.iter().map(move |&c| (c, net)))
    });
    // The moved cell's net boxes after the move, parallel to its nets.
    let mut moved: Vec<NetBox> = Vec::new();

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
            placement[cell] = target;
            let [fx, fy] = nets.xy[from as usize];
            let [tx, ty] = nets.xy[target as usize];
            let mut before = 0u64;
            let mut after = 0u64;
            moved.clear();
            for &n in cell_nets.row(cell) {
                let old = &boxes[n as usize];
                let mut b = *old;
                if !(b[0].shift(fx, tx) && b[1].shift(fy, ty)) {
                    b = nets.scan(&placement, n as usize);
                }
                before += box_hpwl(old);
                after += box_hpwl(&b);
                moved.push(b);
            }
            let delta = after as i64 - before as i64;
            let accept = delta <= 0 || rng.next_f64() < (-(delta as f64) / temp).exp();
            if accept {
                occupancy[from as usize] -= 1;
                occupancy[target as usize] += 1;
                cost = (cost as i64 + delta) as u64;
                accepted += 1;
                for (&n, b) in cell_nets.row(cell).iter().zip(&moved) {
                    boxes[n as usize] = *b;
                }
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

/// Checks a placement for legality: site kinds match and no tile exceeds
/// its capacity.
pub fn check_legal(fabric: &Fabric, nl: &Netlist, p: &Placement) -> Result<()> {
    if p.cell_tile.len() != nl.cells.len() {
        return Err(Error::Cad("placement arity mismatch".into()));
    }
    let mut occupancy = vec![0u32; fabric.num_tiles() as usize];
    for (i, c) in nl.cells.iter().enumerate() {
        let t = p.cell_tile[i];
        if fabric.site_kind(t) != required_site(c.kind) {
            return Err(Error::Cad(format!(
                "cell {i} ({:?}) on wrong site kind at tile {t}",
                c.kind
            )));
        }
        occupancy[t as usize] += 1;
        if occupancy[t as usize] > fabric.capacity(t) {
            return Err(Error::Cad(format!("tile {t} over capacity")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_pivpav::netlist::synthesize_core;

    #[test]
    fn places_legally_and_improves() {
        let fabric = Fabric::pr_region();
        let nl = synthesize_core("t", 16, 120, 16, 4, 11);
        let p = place(&fabric, &nl, PlaceEffort::normal(), 1).unwrap();
        check_legal(&fabric, &nl, &p).unwrap();
        assert!(p.moves > 0);
        assert!(p.accepted > 0);
        // Annealed cost should beat a fresh low-effort run almost always.
        let lazy = place(
            &fabric,
            &nl,
            PlaceEffort {
                moves_per_temp: 1,
                temp_steps: 1,
            },
            1,
        )
        .unwrap();
        assert!(p.hpwl <= lazy.hpwl, "annealing must not worsen cost");
    }

    #[test]
    fn rejects_designs_that_do_not_fit() {
        let fabric = Fabric::tiny(); // 48 logic sites
        let nl = synthesize_core("big", 16, 200, 0, 0, 3);
        let err = place(&fabric, &nl, PlaceEffort::fast(), 1).unwrap_err();
        assert!(err.to_string().contains("does not fit"));
    }

    #[test]
    fn rejects_too_many_dsps() {
        let fabric = Fabric::tiny(); // 4 dsp sites
        let nl = synthesize_core("dspy", 8, 4, 0, 6, 3);
        assert!(place(&fabric, &nl, PlaceEffort::fast(), 1).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let fabric = Fabric::pr_region();
        let nl = synthesize_core("t", 8, 40, 4, 1, 5);
        let a = place(&fabric, &nl, PlaceEffort::fast(), 9).unwrap();
        let b = place(&fabric, &nl, PlaceEffort::fast(), 9).unwrap();
        assert_eq!(a.cell_tile, b.cell_tile);
        assert_eq!(a.hpwl, b.hpwl);
    }

    #[test]
    fn hpwl_consistency() {
        // Reported incremental cost must equal recomputed-from-scratch.
        let fabric = Fabric::pr_region();
        let nl = synthesize_core("t", 8, 60, 8, 2, 5);
        let p = place(&fabric, &nl, PlaceEffort::fast(), 5).unwrap();
        let boxes = Nets::new(&fabric, &nl).scan_all(&p.cell_tile);
        assert_eq!(p.hpwl, boxes.iter().map(box_hpwl).sum::<u64>());
    }

    #[test]
    fn empty_netlist_places_trivially() {
        let fabric = Fabric::tiny();
        let nl = Netlist::new("empty");
        let p = place(&fabric, &nl, PlaceEffort::fast(), 1).unwrap();
        assert_eq!(p.hpwl, 0);
        check_legal(&fabric, &nl, &p).unwrap();
    }
}
