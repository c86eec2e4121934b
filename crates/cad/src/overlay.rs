//! Overlay fast-path backend: millisecond cell-assembly installation.
//!
//! The full tool flow (techmap → place → route → bitgen) models minutes of
//! CAD time per candidate — the paper's §V-D limitation. The overlay
//! literature (arXiv 1603.01187, "LUTstructions") escapes it by covering a
//! candidate datapath with *pre-implemented* coarse-grained cells whose
//! partial bitstreams were built offline: installation is then a table walk
//! plus a small ICAP transfer, at the cost of a deliberately worse clock
//! (coarse cells are generic, overlay interconnect is muxed, nothing is
//! placed for this particular datapath).
//!
//! [`OverlayLibrary::from_db`] characterizes one overlay cell per
//! `jitise-pivpav` core; [`map_overlay`] covers a [`CadProject`]'s datapath
//! with library cells and emits an [`OverlayMap`]: a CRC-framed descriptor
//! [`Bitstream`] (same byte format the ICAP controller verifies), a
//! degraded [`TimingReport`], and a millisecond-scale assembly time. The
//! pipeline installs this immediately (`InstallTier::Overlay`) and swaps in
//! the fully routed artifact (`InstallTier::Full`) when background CAD
//! completes.

use std::collections::HashMap;

use jitise_base::codec::{crc32, Encoder};
use jitise_base::{Error, Result, SimTime};
use jitise_pivpav::{CadProject, CircuitDb};

use crate::bitgen::{Bitstream, SYNC_WORD};
use crate::timing::TimingReport;

/// Which artifact backs an installed / cached CI.
///
/// Ordered so that `Full` is the "better" tier: a `Full` entry is never
/// downgraded to `Overlay`, while an `Overlay` slot is upgraded in place
/// once the background CAD flow finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InstallTier {
    /// Assembled from pre-implemented overlay cells: milliseconds to
    /// install, degraded clock (more CI cycles per execution).
    Overlay,
    /// The fully techmapped/placed/routed/bitgenned artifact.
    #[default]
    Full,
}

impl InstallTier {
    /// Stable wire encoding (cache/WAL codecs).
    pub fn encode(self) -> u32 {
        match self {
            InstallTier::Full => 0,
            InstallTier::Overlay => 1,
        }
    }

    /// Inverse of [`Self::encode`].
    pub fn decode(v: u32) -> Result<InstallTier> {
        match v {
            0 => Ok(InstallTier::Full),
            1 => Ok(InstallTier::Overlay),
            other => Err(Error::Codec(format!("unknown install tier {other}"))),
        }
    }

    /// Human-readable name (telemetry, bench artifacts).
    pub fn name(self) -> &'static str {
        match self {
            InstallTier::Overlay => "overlay",
            InstallTier::Full => "full",
        }
    }
}

/// Per-cell delay degradation versus the core's synthesized delay: overlay
/// cells are generic (widest-operand mux trees, no carry-chain packing).
const OVERLAY_DELAY_FACTOR: f64 = 2.5;
/// Extra mux delay through a cell's input selection network, ns.
const OVERLAY_CELL_MUX_NS: f64 = 0.9;
/// Per-hop delay of the overlay's muxed interconnect, ns (the routed
/// fabric's `HOP_DELAY_NS` is 0.30 — overlay channels are ~6× slower).
const OVERLAY_HOP_NS: f64 = 1.8;

/// Fixed cost of an overlay install: descriptor setup + ICAP handshake.
const ASSEMBLE_BASE_US: u64 = 900;
/// Per-cell cost: look up the cell, patch its configuration frame.
const ASSEMBLE_PER_CELL_US: u64 = 140;
/// Per-signal cost: program one overlay interconnect route.
const ASSEMBLE_PER_SIGNAL_US: u64 = 35;

/// One pre-implemented overlay cell, characterized offline.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayCell {
    /// Core name this cell implements (`add32`, `fmul64`, …).
    pub name: String,
    /// Input-to-output delay through the overlay cell, ns (degraded
    /// versus the core's synthesized `delay_ns`).
    pub delay_ns: f64,
    /// Configuration word selecting this cell function (library index).
    pub config: u32,
    /// LUT footprint of the pre-implemented cell site.
    pub luts: u32,
}

/// The overlay cell library: one cell per `jitise-pivpav` core.
#[derive(Debug, Clone, Default)]
pub struct OverlayLibrary {
    cells: HashMap<String, OverlayCell>,
}

impl OverlayLibrary {
    /// An empty library (every mapping attempt fails — useful for
    /// exercising the full-only fallback path).
    pub fn empty() -> Self {
        OverlayLibrary::default()
    }

    /// Characterizes one overlay cell per core in `db`.
    ///
    /// Deterministic: cells are numbered in `CircuitDb::all()` order
    /// (sorted by core name), so the same database always yields the
    /// same configuration words and therefore the same descriptors.
    pub fn from_db(db: &CircuitDb) -> Self {
        let mut cells = HashMap::new();
        for (idx, core) in db.all().into_iter().enumerate() {
            let m = &core.metrics;
            cells.insert(
                core.name.clone(),
                OverlayCell {
                    name: core.name.clone(),
                    delay_ns: m.delay_ns * OVERLAY_DELAY_FACTOR + OVERLAY_CELL_MUX_NS,
                    config: idx as u32,
                    luts: m.luts,
                },
            );
        }
        OverlayLibrary { cells }
    }

    /// Looks up the overlay cell for a core name.
    pub fn cell(&self, name: &str) -> Option<&OverlayCell> {
        self.cells.get(name)
    }

    /// Number of cells in the library.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the library has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Result of covering a candidate datapath with overlay cells.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayMap {
    /// Overlay descriptor in the standard bitstream byte format (sync
    /// word, frame count, CRC-checked payload) — `Bitstream::verify()`
    /// and the ICAP controller treat it exactly like a routed partial.
    pub bitstream: Bitstream,
    /// Timing through the overlay: same arrival-time model as the full
    /// flow but with degraded cell delays and muxed-interconnect hops.
    pub timing: TimingReport,
    /// Modeled assembly latency (descriptor build + route programming);
    /// milliseconds where the full flow takes minutes.
    pub assembly_time: SimTime,
    /// Overlay cells used.
    pub cells: u32,
}

/// Covers `project`'s datapath with cells from `lib`.
///
/// Fails with `Error::Cad` if any instantiated core has no overlay cell;
/// the caller then falls back to the full-flow-only path for that
/// candidate.
pub fn map_overlay(lib: &OverlayLibrary, project: &CadProject) -> Result<OverlayMap> {
    let vhdl = &project.vhdl;

    // Cover every datapath instance; collect per-instance delays.
    let mut picked = Vec::with_capacity(vhdl.instances.len());
    for inst in &vhdl.instances {
        let cell = lib.cell(&inst.core.name).ok_or_else(|| {
            Error::Cad(format!(
                "overlay: no cell for core '{}' (instance {})",
                inst.core.name, inst.label
            ))
        })?;
        picked.push(cell);
    }

    // Arrival-time walk over the signal graph — the same relaxation as
    // `VhdlModule::critical_path_ns`, with overlay delays: every input
    // hop crosses the muxed overlay interconnect, every cell adds its
    // degraded delay.
    let mut arrival = vec![0.0f64; vhdl.num_signals as usize];
    let mut depth = vec![0u32; vhdl.num_signals as usize];
    let mut critical_path_ns: f64 = 0.0;
    let mut critical_cells = 0u32;
    for (inst, cell) in vhdl.instances.iter().zip(&picked) {
        let mut at = 0.0f64;
        let mut d = 0u32;
        for &sig in &inst.input_signals {
            let a = arrival[sig as usize] + OVERLAY_HOP_NS;
            if a > at {
                at = a;
                d = depth[sig as usize];
            }
        }
        at += cell.delay_ns;
        d += 1;
        arrival[inst.output_signal as usize] = at;
        depth[inst.output_signal as usize] = d;
        if at > critical_path_ns {
            critical_path_ns = at;
            critical_cells = d;
        }
    }
    // Output signals pay one more hop to reach the FCB register.
    for &out in &vhdl.outputs {
        let a = arrival[out as usize] + OVERLAY_HOP_NS;
        if a > critical_path_ns {
            critical_path_ns = a;
            critical_cells = depth[out as usize];
        }
    }

    let fmax_mhz = if critical_path_ns > 0.0 {
        1000.0 / critical_path_ns
    } else {
        f64::INFINITY
    };
    let timing = TimingReport {
        critical_path_ns,
        fmax_mhz,
        critical_cells,
        meets_300mhz: fmax_mhz >= 300.0,
    };

    // Descriptor payload: header, then one record per instance (config
    // word + input/output signal routes), then the output signal list.
    let mut payload = Encoder::new();
    payload.put_varu32(vhdl.num_signals);
    payload.put_varu32(vhdl.instances.len() as u32);
    for (inst, cell) in vhdl.instances.iter().zip(&picked) {
        payload.put_varu32(cell.config);
        payload.put_varu32(inst.input_signals.len() as u32);
        for &sig in &inst.input_signals {
            payload.put_varu32(sig);
        }
        payload.put_varu32(inst.output_signal);
    }
    payload.put_varu32(vhdl.outputs.len() as u32);
    for &out in &vhdl.outputs {
        payload.put_varu32(out);
    }
    for &(sig, value) in &vhdl.constants {
        payload.put_varu32(sig);
        payload.put_u64(value);
    }
    let payload = payload.finish();
    let crc = crc32(&payload);

    // One configuration frame per overlay cell (a frame carries one
    // cell's config word + route table); at least the header frame.
    let frames = (vhdl.instances.len() as u32).max(1);
    let mut out = Encoder::new();
    out.put_u64(SYNC_WORD as u64);
    out.put_varu32(frames);
    out.put_varu32(payload.len() as u32);
    out.put_bytes(&payload);
    out.put_u64(crc as u64);
    let bitstream = Bitstream {
        bytes: out.finish(),
        frames,
        crc,
        partial: true,
    };

    let cells = vhdl.instances.len() as u32;
    let signals: u64 = vhdl
        .instances
        .iter()
        .map(|i| i.input_signals.len() as u64 + 1)
        .sum();
    let micros =
        ASSEMBLE_BASE_US + ASSEMBLE_PER_CELL_US * cells as u64 + ASSEMBLE_PER_SIGNAL_US * signals;
    let assembly_time = SimTime::from_nanos(micros * 1_000);

    Ok(OverlayMap {
        bitstream,
        timing,
        assembly_time,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitise_ir::{BlockId, Dfg, FuncId, FunctionBuilder, Operand as Op, Type};
    use jitise_pivpav::{create_project, NetlistCache};
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
    fn library_covers_every_db_core() {
        let db = CircuitDb::build();
        let lib = OverlayLibrary::from_db(&db);
        assert_eq!(lib.len(), db.len());
        for core in db.all() {
            let cell = lib.cell(&core.name).expect("cell for every core");
            assert!(cell.delay_ns > core.metrics.delay_ns, "{}", core.name);
        }
    }

    #[test]
    fn maps_chain_and_descriptor_verifies() {
        let lib = OverlayLibrary::from_db(&CircuitDb::build());
        let project = project_for_chain();
        let map = map_overlay(&lib, &project).unwrap();
        assert_eq!(map.cells, project.vhdl.instances.len() as u32);
        assert!(
            map.bitstream.verify(),
            "descriptor must pass ICAP CRC check"
        );
        assert!(map.bitstream.partial);
        assert!(map.bitstream.frames >= 1);
    }

    #[test]
    fn overlay_timing_is_worse_than_routed_estimate() {
        let lib = OverlayLibrary::from_db(&CircuitDb::build());
        let project = project_for_chain();
        let map = map_overlay(&lib, &project).unwrap();
        // The arrival-time walk with degraded delays must be strictly
        // slower than the same walk with synthesized core delays.
        assert!(map.timing.critical_path_ns > project.vhdl.critical_path_ns());
        assert!(map.timing.fmax_mhz < 1000.0);
        assert!(map.timing.critical_cells >= 1);
    }

    #[test]
    fn assembly_is_millisecond_scale() {
        let lib = OverlayLibrary::from_db(&CircuitDb::build());
        let project = project_for_chain();
        let map = map_overlay(&lib, &project).unwrap();
        assert!(map.assembly_time > SimTime::ZERO);
        assert!(
            map.assembly_time < SimTime::from_secs_f64(0.1),
            "assembly took {:?} — overlay must stay well under full-CAD scale",
            map.assembly_time
        );
    }

    #[test]
    fn deterministic_descriptor() {
        let lib = OverlayLibrary::from_db(&CircuitDb::build());
        let project = project_for_chain();
        let a = map_overlay(&lib, &project).unwrap();
        let b = map_overlay(&lib, &project).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn missing_cell_fails_cleanly() {
        let lib = OverlayLibrary::empty();
        let project = project_for_chain();
        let err = map_overlay(&lib, &project).unwrap_err();
        assert!(matches!(err, Error::Cad(_)), "{err}");
    }

    #[test]
    fn tier_codec_roundtrip() {
        for tier in [InstallTier::Overlay, InstallTier::Full] {
            assert_eq!(InstallTier::decode(tier.encode()).unwrap(), tier);
        }
        assert!(InstallTier::decode(7).is_err());
        assert_eq!(InstallTier::default(), InstallTier::Full);
        assert_eq!(InstallTier::Overlay.name(), "overlay");
    }
}
