//! Routing (the PAR stage's second half).
//!
//! A negotiated-congestion maze router in the PathFinder tradition: each
//! net is routed as a BFS tree over the tile grid; edges (routing channels)
//! have a capacity, and overuse raises an edge's cost on the next
//! iteration until every channel is legal or the iteration budget runs
//! out.
//!
//! Host path (DESIGN.md §3, "Router host path"): edge costs are computed
//! at relaxation time, per-tile search state lives in stamped scratch
//! reused by every search of one [`route`] call, and while every edge
//! costs exactly 1.0 the search expands breadth-first layers instead of
//! running the heap. Each of these reproduces the heap search's
//! `(key, tile)` pop order, so routes are identical to a plain Dijkstra
//! over a materialized cost vector (`crates/cad/tests/route_oracle.rs`).

use crate::fabric::Fabric;
use crate::place::{port_pins, Placement};
use jitise_base::{Error, Result};
use jitise_pivpav::Netlist;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One routed net: the set of edges its tree occupies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoutedNet {
    /// Edge ids of the routing tree.
    pub edges: Vec<u32>,
    /// Tiles spanned (terminals + Steiner points).
    pub tiles: Vec<u32>,
}

/// The routing result.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedDesign {
    /// One route per net (index = net id; unused nets empty).
    pub nets: Vec<RoutedNet>,
    /// Total wirelength in edges.
    pub wirelength: u64,
    /// Channels still over capacity after the final iteration (0 = legal).
    pub overflow: u32,
    /// Negotiation iterations used.
    pub iterations: u32,
    /// Peak channel occupancy.
    pub max_occupancy: u32,
}

/// Router effort.
#[derive(Debug, Clone, Copy)]
pub struct RouteEffort {
    /// Maximum negotiation iterations.
    pub max_iterations: u32,
}

impl RouteEffort {
    /// Default effort.
    pub fn normal() -> Self {
        RouteEffort { max_iterations: 8 }
    }

    /// Bulk-experiment effort.
    pub fn fast() -> Self {
        RouteEffort { max_iterations: 3 }
    }
}

/// Terminal tiles of every net (driver + sinks + fixed port pins).
fn net_terminals(fabric: &Fabric, nl: &Netlist, placement: &Placement) -> Vec<Vec<u32>> {
    let mut terminals = vec![Vec::new(); nl.num_nets as usize];
    for (i, c) in nl.cells.iter().enumerate() {
        let t = placement.cell_tile[i];
        terminals[c.output as usize].push(t);
        for &inp in &c.inputs {
            terminals[inp as usize].push(t);
        }
    }
    for (net, tile) in port_pins(fabric, nl) {
        terminals[net as usize].push(tile);
    }
    for t in terminals.iter_mut() {
        t.sort_unstable();
        t.dedup();
    }
    terminals
}

/// `(neighbor, edge id)` pairs of every tile in [`Fabric::neighbors`]
/// order, packed tile after tile.
struct Adjacency {
    /// `links[start[t]..start[t + 1]]` are tile `t`'s pairs.
    start: Vec<u32>,
    links: Vec<(u32, u32)>,
}

impl Adjacency {
    fn new(fabric: &Fabric) -> Adjacency {
        let mut start = Vec::with_capacity(fabric.num_tiles() as usize + 1);
        let mut links = Vec::with_capacity(2 * fabric.num_edges() as usize);
        for t in 0..fabric.num_tiles() {
            start.push(links.len() as u32);
            links.extend(
                fabric
                    .neighbors(t)
                    .into_iter()
                    .map(|nb| (nb, fabric.edge_id(t, nb))),
            );
        }
        start.push(links.len() as u32);
        Adjacency { start, links }
    }

    fn of(&self, tile: u32) -> &[(u32, u32)] {
        let t = tile as usize;
        &self.links[self.start[t] as usize..self.start[t + 1] as usize]
    }
}

/// Negotiated edge cost: base 1 + congestion history + current-use
/// pressure. Occupancy only changes between nets, so evaluating it at
/// relaxation time equals evaluating it once per net.
struct EdgeCost<'a> {
    history: &'a [f64],
    occupancy: &'a [u32],
    channel_width: u32,
}

impl EdgeCost<'_> {
    fn of(&self, e: u32) -> f64 {
        let over = self.occupancy[e as usize].saturating_sub(self.channel_width) as f64;
        1.0 + self.history[e as usize] + 4.0 * over
    }
}

/// Fixed-point heap key of a path cost (1/1024 resolution). The search
/// pops entries in ascending `(key, tile)` order.
fn key(d: f64) -> u64 {
    (d * 1024.0) as u64
}

/// Per-tile search state shared by every search of one [`route`] call.
/// An entry is valid only where its stamp equals the current generation,
/// so nothing is cleared between searches or nets. Generations start at 1
/// and the stamps at 0.
struct Scratch {
    /// Path cost from the tree; valid where `reached == search`.
    dist: Vec<f64>,
    /// Predecessor tile and the edge to it; valid where `reached == search`.
    prev: Vec<(u32, u32)>,
    reached: Vec<u32>,
    search: u32,
    /// `== net` where the tile is in the current net's tree.
    in_tree: Vec<u32>,
    /// `== net` where the tile is a terminal still to be connected.
    pending: Vec<u32>,
    net: u32,
    heap: BinaryHeap<Reverse<u128>>,
    layer: Vec<u32>,
    next: Vec<u32>,
}

impl Scratch {
    fn new(num_tiles: usize) -> Scratch {
        Scratch {
            dist: vec![f64::INFINITY; num_tiles],
            prev: vec![(u32::MAX, u32::MAX); num_tiles],
            reached: vec![0; num_tiles],
            search: 0,
            in_tree: vec![0; num_tiles],
            pending: vec![0; num_tiles],
            net: 0,
            heap: BinaryHeap::new(),
            layer: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Uniform-cost search from every tree tile to the first pending
    /// terminal it pops: Dijkstra keyed by [`key`] with ties broken by
    /// tile id, one `u128` heap entry `key << 32 | tile` per push.
    fn dijkstra(&mut self, adj: &Adjacency, tree: &[u32], cost: &EdgeCost) -> Option<u32> {
        self.heap.clear();
        for &t in tree {
            self.reached[t as usize] = self.search;
            self.dist[t as usize] = 0.0;
            self.heap.push(Reverse(t as u128));
        }
        while let Some(Reverse(entry)) = self.heap.pop() {
            let tile = entry as u32;
            let d = self.dist[tile as usize];
            if (entry >> 32) as u64 > key(d) {
                continue; // stale: the tile was re-pushed with a lower key
            }
            if self.pending[tile as usize] == self.net {
                return Some(tile);
            }
            for &(nb, e) in adj.of(tile) {
                let nd = d + cost.of(e);
                let n = nb as usize;
                if self.reached[n] != self.search || nd < self.dist[n] {
                    self.reached[n] = self.search;
                    self.dist[n] = nd;
                    self.prev[n] = (tile, e);
                    self.heap
                        .push(Reverse((key(nd) as u128) << 32 | nb as u128));
                }
            }
        }
        None
    }

    /// [`Scratch::dijkstra`] when every edge costs exactly 1.0: a tile's
    /// key is 1024 × its hop count, so the heap pops whole hop layers in
    /// ascending tile order and never holds a stale entry. Expanding
    /// sorted layers reproduces that order, the first pending terminal
    /// popped, and every predecessor.
    fn breadth_first(&mut self, adj: &Adjacency, tree: &[u32]) -> Option<u32> {
        self.layer.clear();
        self.layer.extend_from_slice(tree);
        self.layer.sort_unstable();
        for &t in tree {
            self.reached[t as usize] = self.search;
        }
        while !self.layer.is_empty() {
            self.next.clear();
            for &tile in &self.layer {
                if self.pending[tile as usize] == self.net {
                    return Some(tile);
                }
                for &(nb, e) in adj.of(tile) {
                    if self.reached[nb as usize] != self.search {
                        self.reached[nb as usize] = self.search;
                        self.prev[nb as usize] = (tile, e);
                        self.next.push(nb);
                    }
                }
            }
            self.next.sort_unstable();
            std::mem::swap(&mut self.layer, &mut self.next);
        }
        None
    }
}

/// Routes one net as a BFS-grown Steiner tree. `cost` is `None` when every
/// edge costs exactly 1.0.
fn route_net(
    adj: &Adjacency,
    terminals: &[u32],
    cost: Option<&EdgeCost>,
    s: &mut Scratch,
) -> RoutedNet {
    let mut out = RoutedNet::default();
    if terminals.len() < 2 {
        out.tiles = terminals.to_vec();
        return out;
    }
    // Grow a tree: start from the first terminal; repeatedly search from
    // the current tree to the nearest unconnected terminal.
    s.net += 1;
    s.in_tree[terminals[0] as usize] = s.net;
    out.tiles.push(terminals[0]);
    for &t in &terminals[1..] {
        s.pending[t as usize] = s.net;
    }
    for _ in 1..terminals.len() {
        s.search += 1;
        let reached = match cost {
            None => s.breadth_first(adj, &out.tiles),
            Some(cost) => s.dijkstra(adj, &out.tiles, cost),
        };
        let target = match reached {
            Some(t) => t,
            None => break, // disconnected (cannot happen on a grid)
        };
        // Trace back into the tree. Every tile off the tree was reached
        // in this search, so its predecessor is valid.
        let mut cur = target;
        while s.in_tree[cur as usize] != s.net {
            s.in_tree[cur as usize] = s.net;
            out.tiles.push(cur);
            let (p, e) = s.prev[cur as usize];
            out.edges.push(e);
            cur = p;
        }
        s.pending[target as usize] = 0;
    }
    out
}

/// Routes every net of a placed design.
pub fn route(
    fabric: &Fabric,
    nl: &Netlist,
    placement: &Placement,
    effort: RouteEffort,
) -> Result<RoutedDesign> {
    if placement.cell_tile.len() != nl.cells.len() {
        return Err(Error::Cad("placement does not match netlist".into()));
    }
    let terminals = net_terminals(fabric, nl, placement);
    let adj = Adjacency::new(fabric);
    let mut scratch = Scratch::new(fabric.num_tiles() as usize);
    let num_edges = fabric.num_edges() as usize;
    let channel_width = fabric.channel_width;
    let mut history = vec![0.0f64; num_edges];
    let mut result_nets: Vec<RoutedNet> = vec![RoutedNet::default(); nl.num_nets as usize];
    let mut iterations = 0;
    let mut overflow = 0;
    let mut max_occ = 0;

    for iter in 0..effort.max_iterations {
        iterations = iter + 1;
        let mut occupancy = vec![0u32; num_edges];
        // Edges currently over capacity. History is all zero in the first
        // iteration, so there every edge costs exactly 1.0 until one
        // overflows.
        let mut over_edges = 0u32;
        for (net, terms) in terminals.iter().enumerate() {
            if terms.len() < 2 {
                result_nets[net] = RoutedNet {
                    edges: vec![],
                    tiles: terms.clone(),
                };
                continue;
            }
            let cost = EdgeCost {
                history: &history,
                occupancy: &occupancy,
                channel_width,
            };
            let uniform = iter == 0 && over_edges == 0;
            let routed = route_net(&adj, terms, (!uniform).then_some(&cost), &mut scratch);
            for &e in &routed.edges {
                occupancy[e as usize] += 1;
                if occupancy[e as usize] == channel_width + 1 {
                    over_edges += 1;
                }
            }
            result_nets[net] = routed;
        }
        overflow = occupancy.iter().filter(|&&o| o > channel_width).count() as u32;
        max_occ = occupancy.iter().copied().max().unwrap_or(0);
        if overflow == 0 {
            break;
        }
        // Penalize congested edges for the next iteration.
        for (e, &o) in occupancy.iter().enumerate() {
            if o > channel_width {
                history[e] += (o - channel_width) as f64 * 0.8;
            }
        }
    }

    let wirelength = result_nets.iter().map(|n| n.edges.len() as u64).sum();
    Ok(RoutedDesign {
        nets: result_nets,
        wirelength,
        overflow,
        iterations,
        max_occupancy: max_occ,
    })
}

/// Verifies that every multi-terminal net's tree actually connects all its
/// terminals through its own edges. Linear in the routed design: per-net
/// stamps mark the tree's tiles and edges and the tiles reached from the
/// tree's first tile.
pub fn check_connected(
    fabric: &Fabric,
    nl: &Netlist,
    placement: &Placement,
    routed: &RoutedDesign,
) -> Result<()> {
    let terminals = net_terminals(fabric, nl, placement);
    let adj = Adjacency::new(fabric);
    let num_tiles = fabric.num_tiles();
    let num_edges = fabric.num_edges();
    let mut in_tree = vec![0u32; num_tiles as usize];
    let mut on_tree = vec![0u32; num_edges as usize];
    let mut seen = vec![0u32; num_tiles as usize];
    let mut stack = Vec::new();
    for (net, terms) in terminals.iter().enumerate() {
        if terms.len() < 2 {
            continue;
        }
        let stamp = net as u32 + 1;
        let tree = routed
            .nets
            .get(net)
            .ok_or_else(|| Error::Cad(format!("net {net}: no route")))?;
        if let Some(t) = tree.tiles.iter().find(|&&t| t >= num_tiles) {
            return Err(Error::Cad(format!("net {net}: tile {t} off the fabric")));
        }
        if let Some(e) = tree.edges.iter().find(|&&e| e >= num_edges) {
            return Err(Error::Cad(format!("net {net}: edge {e} off the fabric")));
        }
        for &t in &tree.tiles {
            in_tree[t as usize] = stamp;
        }
        for t in terms {
            if in_tree[*t as usize] != stamp {
                return Err(Error::Cad(format!(
                    "net {net}: terminal tile {t} not in routing tree"
                )));
            }
        }
        for &e in &tree.edges {
            on_tree[e as usize] = stamp;
        }
        // Terminals are in the tree, so it has a first tile.
        let root = tree.tiles[0];
        seen[root as usize] = stamp;
        stack.push(root);
        while let Some(t) = stack.pop() {
            for &(nb, e) in adj.of(t) {
                let n = nb as usize;
                if in_tree[n] == stamp && on_tree[e as usize] == stamp && seen[n] != stamp {
                    seen[n] = stamp;
                    stack.push(nb);
                }
            }
        }
        for t in terms {
            if seen[*t as usize] != stamp {
                return Err(Error::Cad(format!(
                    "net {net}: terminal {t} disconnected from tree root"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{place, PlaceEffort};
    use jitise_pivpav::netlist::synthesize_core;

    fn routed_fixture(luts: u32) -> (Fabric, Netlist, Placement, RoutedDesign) {
        let fabric = Fabric::pr_region();
        let nl = synthesize_core("r", 8, luts, 8, 2, 17);
        let p = place(&fabric, &nl, PlaceEffort::fast(), 3).unwrap();
        let r = route(&fabric, &nl, &p, RouteEffort::normal()).unwrap();
        (fabric, nl, p, r)
    }

    #[test]
    fn routes_connect_all_terminals() {
        let (fabric, nl, p, r) = routed_fixture(60);
        check_connected(&fabric, &nl, &p, &r).unwrap();
        assert!(r.wirelength > 0);
        assert!(r.iterations >= 1);
    }

    #[test]
    fn no_overflow_on_comfortable_design() {
        let (_, _, _, r) = routed_fixture(40);
        assert_eq!(r.overflow, 0, "small design must route legally");
    }

    #[test]
    fn wirelength_grows_with_design_size() {
        let (_, _, _, small) = routed_fixture(30);
        let (_, _, _, big) = routed_fixture(200);
        assert!(
            big.wirelength > small.wirelength,
            "bigger design, more wire: {} vs {}",
            big.wirelength,
            small.wirelength
        );
    }

    #[test]
    fn deterministic() {
        let (fabric, nl, p, r1) = routed_fixture(50);
        let r2 = route(&fabric, &nl, &p, RouteEffort::normal()).unwrap();
        assert_eq!(r1.wirelength, r2.wirelength);
        assert_eq!(r1.overflow, r2.overflow);
    }

    #[test]
    fn check_connected_rejects_broken_trees() {
        let (fabric, nl, p, r) = routed_fixture(60);
        let terminals = net_terminals(&fabric, &nl, &p);
        let net = (0..r.nets.len())
            .find(|&n| terminals[n].len() >= 2 && !r.nets[n].edges.is_empty())
            .expect("some net needs wire");

        let mut cut = r.clone();
        cut.nets[net].edges.pop();
        let err = check_connected(&fabric, &nl, &p, &cut).unwrap_err();
        assert!(err.to_string().contains("disconnected"), "{err}");

        let mut dropped = r.clone();
        dropped.nets[net].tiles.retain(|t| *t != terminals[net][1]);
        let err = check_connected(&fabric, &nl, &p, &dropped).unwrap_err();
        assert!(err.to_string().contains("not in routing tree"), "{err}");

        let mut off = r;
        off.nets[net].edges.push(fabric.num_edges());
        assert!(check_connected(&fabric, &nl, &p, &off).is_err());
    }

    #[test]
    fn adjacency_matches_fabric_neighbors() {
        let fabric = Fabric::tiny();
        let adj = Adjacency::new(&fabric);
        for t in 0..fabric.num_tiles() {
            let want: Vec<(u32, u32)> = fabric
                .neighbors(t)
                .into_iter()
                .map(|nb| (nb, fabric.edge_id(t, nb)))
                .collect();
            assert_eq!(adj.of(t), want.as_slice());
        }
    }

    #[test]
    fn single_terminal_nets_trivial() {
        let fabric = Fabric::tiny();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1);
        // One cell consuming a; its output goes nowhere.
        nl.add_cell(jitise_pivpav::CellKind::Lut4 { mask: 3 }, vec![a[0]]);
        let p = place(&fabric, &nl, PlaceEffort::fast(), 1).unwrap();
        let r = route(&fabric, &nl, &p, RouteEffort::fast()).unwrap();
        check_connected(&fabric, &nl, &p, &r).unwrap();
        // Output net has a single terminal -> no edges.
        assert!(r.nets[1].edges.is_empty());
    }
}
