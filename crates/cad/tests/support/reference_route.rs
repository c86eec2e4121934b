//! The router before the host-path work: a full per-edge cost vector per
//! net and full-fabric Dijkstra arrays per sink. A verbatim copy kept as
//! the oracle for `jitise_cad::route`; it is test-only and must not be
//! "fixed".

use jitise_base::{Error, Result};
use jitise_cad::route::RoutedNet;
use jitise_cad::{Fabric, Placement, RouteEffort, RoutedDesign};
use jitise_pivpav::Netlist;

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
    let mut in_row = 0u32;
    let mut out_row = 0u32;
    for p in &nl.ports {
        for &net in &p.nets {
            match p.dir {
                jitise_pivpav::PortDir::In => {
                    terminals[net as usize].push(fabric.tile_at(0, in_row % fabric.height));
                    in_row += 1;
                }
                jitise_pivpav::PortDir::Out => {
                    terminals[net as usize]
                        .push(fabric.tile_at(fabric.width - 1, out_row % fabric.height));
                    out_row += 1;
                }
            }
        }
    }
    for t in terminals.iter_mut() {
        t.sort_unstable();
        t.dedup();
    }
    terminals
}

/// Routes one net as a BFS-grown Steiner tree under the given edge costs.
fn route_net(fabric: &Fabric, terminals: &[u32], cost: &[f64]) -> RoutedNet {
    let mut out = RoutedNet::default();
    if terminals.len() < 2 {
        out.tiles = terminals.to_vec();
        return out;
    }
    // Grow a tree: start from the first terminal; repeatedly run a BFS
    // (uniform-cost search) from the current tree to the nearest
    // unconnected terminal.
    let mut in_tree = vec![false; fabric.num_tiles() as usize];
    in_tree[terminals[0] as usize] = true;
    out.tiles.push(terminals[0]);
    let mut remaining: Vec<u32> = terminals[1..].to_vec();

    while !remaining.is_empty() {
        // Dijkstra from all tree tiles simultaneously.
        let n = fabric.num_tiles() as usize;
        let mut dist = vec![f64::INFINITY; n];
        let mut prev = vec![u32::MAX; n];
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>> =
            Default::default();
        for t in 0..n {
            if in_tree[t] {
                dist[t] = 0.0;
                heap.push(std::cmp::Reverse((0, t as u32)));
            }
        }
        let key = |d: f64| (d * 1024.0) as u64;
        let mut reached: Option<u32> = None;
        while let Some(std::cmp::Reverse((dk, tile))) = heap.pop() {
            if dk > key(dist[tile as usize]) {
                continue;
            }
            if remaining.contains(&tile) {
                reached = Some(tile);
                break;
            }
            for nb in fabric.neighbors(tile) {
                let e = fabric.edge_id(tile, nb);
                let nd = dist[tile as usize] + cost[e as usize];
                if nd < dist[nb as usize] {
                    dist[nb as usize] = nd;
                    prev[nb as usize] = tile;
                    heap.push(std::cmp::Reverse((key(nd), nb)));
                }
            }
        }
        let target = match reached {
            Some(t) => t,
            None => break, // disconnected (cannot happen on a grid)
        };
        // Trace back into the tree.
        let mut cur = target;
        while !in_tree[cur as usize] {
            in_tree[cur as usize] = true;
            out.tiles.push(cur);
            let p = prev[cur as usize];
            if p == u32::MAX {
                break;
            }
            out.edges.push(fabric.edge_id(cur, p));
            cur = p;
        }
        remaining.retain(|&t| t != target);
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
    let num_edges = fabric.num_edges() as usize;
    let mut history = vec![0.0f64; num_edges];
    let mut result_nets: Vec<RoutedNet> = vec![RoutedNet::default(); nl.num_nets as usize];
    let mut iterations = 0;
    let mut overflow = 0;
    let mut max_occ = 0;

    for iter in 0..effort.max_iterations {
        iterations = iter + 1;
        let mut occupancy = vec![0u32; num_edges];
        // Edge cost: base 1 + congestion history + current-use pressure.
        for (net, terms) in terminals.iter().enumerate() {
            if terms.len() < 2 {
                result_nets[net] = RoutedNet {
                    edges: vec![],
                    tiles: terms.clone(),
                };
                continue;
            }
            let cost: Vec<f64> = (0..num_edges)
                .map(|e| {
                    let over = occupancy[e].saturating_sub(fabric.channel_width) as f64;
                    1.0 + history[e] + 4.0 * over
                })
                .collect();
            let routed = route_net(fabric, terms, &cost);
            for &e in &routed.edges {
                occupancy[e as usize] += 1;
            }
            result_nets[net] = routed;
        }
        overflow = occupancy
            .iter()
            .filter(|&&o| o > fabric.channel_width)
            .count() as u32;
        max_occ = occupancy.iter().copied().max().unwrap_or(0);
        if overflow == 0 {
            break;
        }
        // Penalize congested edges for the next iteration.
        for (e, &o) in occupancy.iter().enumerate() {
            if o > fabric.channel_width {
                history[e] += (o - fabric.channel_width) as f64 * 0.8;
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
