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
//! costs exactly 1.0 the search grows a bit-parallel wavefront of hop
//! layers over tile bitsets instead of running the heap. Each of these
//! reproduces the heap search's `(key, tile)` pop order, so routes are
//! identical to a plain Dijkstra over a materialized cost vector
//! (`crates/cad/tests/route_oracle.rs`).

use crate::fabric::Fabric;
use crate::packed::Rows;
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

/// Terminal tiles of every net (driver + sinks + fixed port pins), row
/// `net` sorted and without repeats.
fn net_terminals(fabric: &Fabric, nl: &Netlist, placement: &Placement) -> Rows {
    let mut terminals = Rows::build(nl.num_nets as usize, || {
        nl.cells
            .iter()
            .enumerate()
            .flat_map(|(i, c)| {
                let t = placement.cell_tile[i];
                std::iter::once(c.output)
                    .chain(c.inputs.iter().copied())
                    .map(move |net| (net, t))
            })
            .chain(port_pins(fabric, nl))
    });
    terminals.sort_rows();
    terminals.dedup();
    terminals
}

/// `(neighbor, edge id)` pairs of every tile in [`Fabric::neighbors`]
/// order (west, east, south, north), packed tile after tile.
struct Adjacency {
    /// `links[start[t]..start[t + 1]]` are tile `t`'s pairs.
    start: Vec<u32>,
    links: Vec<(u32, u32)>,
}

impl Adjacency {
    /// Computes every tile's neighbours and edge ids from its coordinates,
    /// with the numbering of [`Fabric::tile_at`] and [`Fabric::edge_id`]:
    /// horizontal edge `(x, y)`–`(x + 1, y)` is `y * (width - 1) + x`, and
    /// vertical edge `(x, y)`–`(x, y + 1)` follows every horizontal one at
    /// `y * width + x`.
    fn new(fabric: &Fabric) -> Adjacency {
        let (w, h) = (fabric.width, fabric.height);
        let vertical = h * (w - 1);
        let mut start = Vec::with_capacity(fabric.num_tiles() as usize + 1);
        let mut links = Vec::with_capacity(2 * fabric.num_edges() as usize);
        for y in 0..h {
            for x in 0..w {
                let t = fabric.tile_at(x, y);
                start.push(links.len() as u32);
                if x > 0 {
                    links.push((t - 1, y * (w - 1) + x - 1));
                }
                if x + 1 < w {
                    links.push((t + 1, y * (w - 1) + x));
                }
                if y > 0 {
                    links.push((t - w, vertical + (y - 1) * w + x));
                }
                if y + 1 < h {
                    links.push((t + w, vertical + y * w + x));
                }
            }
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

fn contains(set: &[u64], tile: u32) -> bool {
    set[tile as usize / 64] >> (tile % 64) & 1 != 0
}

fn insert(set: &mut [u64], tile: u32) {
    set[tile as usize / 64] |= 1 << (tile % 64);
}

/// Word `i` of `set` with every tile `t` moved to `t - k`.
fn down(set: &[u64], i: usize, k: usize) -> u64 {
    let (q, r) = (k / 64, k % 64);
    let at = |j: usize| set.get(j).copied().unwrap_or(0);
    if r == 0 {
        at(i + q)
    } else {
        at(i + q) >> r | at(i + q + 1) << (64 - r)
    }
}

/// Word `i` of `set` with every tile `t` moved to `t + k`.
fn up(set: &[u64], i: usize, k: usize) -> u64 {
    let (q, r) = (k / 64, k % 64);
    let at = |j: Option<usize>| j.and_then(|j| set.get(j)).copied().unwrap_or(0);
    if r == 0 {
        at(i.checked_sub(q))
    } else {
        at(i.checked_sub(q)) << r | at(i.checked_sub(q + 1)) >> (64 - r)
    }
}

/// Uniform-cost search as a bit-parallel wavefront over tile bitsets
/// (bit `t % 64` of word `t / 64` is tile `t`).
struct Wavefront {
    words: usize,
    width: usize,
    /// Tiles with a west neighbour (`x > 0`) and with an east neighbour
    /// (`x + 1 < width`).
    has_west: Vec<u64>,
    has_east: Vec<u64>,
    /// Every tile of the fabric.
    valid: Vec<u64>,
    reached: Vec<u64>,
    /// Hop layer `h` of the current search is
    /// `layers[h * words..(h + 1) * words]`; layer 0 is the tree.
    layers: Vec<u64>,
}

impl Wavefront {
    fn new(fabric: &Fabric) -> Wavefront {
        let words = (fabric.num_tiles() as usize).div_ceil(64);
        let mut w = Wavefront {
            words,
            width: fabric.width as usize,
            has_west: vec![0; words],
            has_east: vec![0; words],
            valid: vec![0; words],
            reached: vec![0; words],
            layers: Vec::new(),
        };
        for t in 0..fabric.num_tiles() {
            let (x, _) = fabric.xy(t);
            insert(&mut w.valid, t);
            if x > 0 {
                insert(&mut w.has_west, t);
            }
            if x + 1 < fabric.width {
                insert(&mut w.has_east, t);
            }
        }
        w
    }

    /// [`Scratch::dijkstra`] when every edge costs exactly 1.0: a tile's
    /// key is 1024 × its hop count, so the heap pops whole hop layers in
    /// ascending tile order, and a tile's predecessor is the first tile of
    /// the previous layer to reach it. Each layer is the previous one
    /// shifted one tile west, east, south and north, minus every tile
    /// reached before; the target is the lowest pending tile of the first
    /// layer holding one. Sets `prev` along the path from the target back
    /// into the tree, taking at each hop the lowest-numbered neighbour in
    /// the previous layer.
    fn search(
        &mut self,
        adj: &Adjacency,
        tree: &[u64],
        pending: &[u64],
        prev: &mut [(u32, u32)],
    ) -> Option<u32> {
        let n = self.words;
        self.layers.clear();
        self.layers.extend_from_slice(tree);
        self.reached.copy_from_slice(tree);
        let mut hops = 0;
        let target = 'grow: loop {
            self.layers.resize((hops + 2) * n, 0);
            let (done, next) = self.layers.split_at_mut((hops + 1) * n);
            let layer = &done[hops * n..];
            let mut any = 0;
            for (i, out) in next.iter_mut().enumerate() {
                let grown = down(layer, i, 1) & self.has_east[i]
                    | up(layer, i, 1) & self.has_west[i]
                    | down(layer, i, self.width)
                    | up(layer, i, self.width);
                let fresh = grown & self.valid[i] & !self.reached[i];
                let hit = fresh & pending[i];
                if hit != 0 {
                    break 'grow i as u32 * 64 + hit.trailing_zeros();
                }
                *out = fresh;
                self.reached[i] |= fresh;
                any |= fresh;
            }
            if any == 0 {
                return None;
            }
            hops += 1;
        };
        let mut cur = target;
        for h in (0..=hops).rev() {
            let layer = &self.layers[h * n..(h + 1) * n];
            let &(p, e) = adj
                .of(cur)
                .iter()
                .filter(|&&(nb, _)| contains(layer, nb))
                .min_by_key(|&&(nb, _)| nb)
                .expect("a wavefront tile has a neighbour in the previous layer");
            prev[cur as usize] = (p, e);
            cur = p;
        }
        Some(target)
    }
}

/// Search state shared by every search of one [`route`] call. A per-tile
/// heap entry is valid only where its stamp equals the current
/// generation, so nothing is cleared between searches. Generations start
/// at 1 and the stamps at 0.
struct Scratch {
    /// Path cost from the tree; valid where `reached == search`.
    dist: Vec<f64>,
    /// Predecessor tile and the edge to it; valid where `reached == search`
    /// and, after a wavefront search, along the path it found.
    prev: Vec<(u32, u32)>,
    reached: Vec<u32>,
    search: u32,
    /// The current net's tree tiles and the terminals still to connect.
    tree: Vec<u64>,
    pending: Vec<u64>,
    heap: BinaryHeap<Reverse<u128>>,
    wave: Wavefront,
    /// The current net's route, grown here and copied out at its final
    /// length.
    net: RoutedNet,
}

impl Scratch {
    fn new(fabric: &Fabric) -> Scratch {
        let wave = Wavefront::new(fabric);
        let num_tiles = fabric.num_tiles() as usize;
        Scratch {
            dist: vec![f64::INFINITY; num_tiles],
            prev: vec![(u32::MAX, u32::MAX); num_tiles],
            reached: vec![0; num_tiles],
            search: 0,
            tree: vec![0; wave.words],
            pending: vec![0; wave.words],
            heap: BinaryHeap::new(),
            wave,
            net: RoutedNet::default(),
        }
    }

    /// Uniform-cost search from every tile of the current net's tree to
    /// the first pending terminal it pops: Dijkstra keyed by [`key`] with
    /// ties broken by tile id, one `u128` heap entry `key << 32 | tile` per
    /// push.
    fn dijkstra(&mut self, adj: &Adjacency, cost: &EdgeCost) -> Option<u32> {
        self.search += 1;
        self.heap.clear();
        for &t in &self.net.tiles {
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
            if contains(&self.pending, tile) {
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
}

/// Routes one net as a BFS-grown Steiner tree into `s.net`. `cost` is
/// `None` when every edge costs exactly 1.0.
fn route_net(adj: &Adjacency, terminals: &[u32], cost: Option<&EdgeCost>, s: &mut Scratch) {
    s.net.edges.clear();
    s.net.tiles.clear();
    if terminals.len() < 2 {
        s.net.tiles.extend_from_slice(terminals);
        return;
    }
    // Grow a tree: start from the first terminal; repeatedly search from
    // the current tree to the nearest unconnected terminal.
    s.tree.fill(0);
    s.pending.fill(0);
    insert(&mut s.tree, terminals[0]);
    s.net.tiles.push(terminals[0]);
    for &t in &terminals[1..] {
        insert(&mut s.pending, t);
    }
    for _ in 1..terminals.len() {
        let reached = match cost {
            None => s.wave.search(adj, &s.tree, &s.pending, &mut s.prev),
            Some(cost) => s.dijkstra(adj, cost),
        };
        let target = match reached {
            Some(t) => t,
            None => break, // disconnected (cannot happen on a grid)
        };
        // Trace back into the tree. Every tile off the tree on the path
        // has a valid predecessor.
        let mut cur = target;
        while !contains(&s.tree, cur) {
            insert(&mut s.tree, cur);
            s.net.tiles.push(cur);
            let (p, e) = s.prev[cur as usize];
            s.net.edges.push(e);
            cur = p;
        }
        s.pending[target as usize / 64] &= !(1 << (target % 64));
    }
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
    let mut scratch = Scratch::new(fabric);
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
        for (terms, routed) in terminals.iter().zip(result_nets.iter_mut()) {
            let cost = EdgeCost {
                history: &history,
                occupancy: &occupancy,
                channel_width,
            };
            let uniform = iter == 0 && over_edges == 0;
            route_net(&adj, terms, (!uniform).then_some(&cost), &mut scratch);
            // Copied at its final length; later iterations reuse the copy's
            // buffers.
            routed.edges.clone_from(&scratch.net.edges);
            routed.tiles.clone_from(&scratch.net.tiles);
            for &e in &routed.edges {
                occupancy[e as usize] += 1;
                if occupancy[e as usize] == channel_width + 1 {
                    over_edges += 1;
                }
            }
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
            .find(|&n| terminals.row(n).len() >= 2 && !r.nets[n].edges.is_empty())
            .expect("some net needs wire");

        let mut cut = r.clone();
        cut.nets[net].edges.pop();
        let err = check_connected(&fabric, &nl, &p, &cut).unwrap_err();
        assert!(err.to_string().contains("disconnected"), "{err}");

        let mut dropped = r.clone();
        dropped.nets[net]
            .tiles
            .retain(|t| *t != terminals.row(net)[1]);
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
