//! Bitstream generation.
//!
//! Serializes a placed-and-routed design into a partial-reconfiguration
//! bitstream: one configuration frame per fabric column (Virtex-4 frames
//! address column-wise), each carrying the LUT truth tables, FF/DSP flags,
//! and routing-switch bits of its tiles, preceded by a small header and
//! followed by a CRC32. This is the artifact the bitstream cache stores
//! and the ICAP controller loads.

use crate::fabric::Fabric;
use crate::packed::Rows;
use crate::place::Placement;
use crate::route::RoutedDesign;
use jitise_base::codec::Encoder;
use jitise_base::hash::hash_bytes;
use jitise_pivpav::{CellKind, Netlist};

/// A generated (partial) bitstream.
#[derive(Debug, Clone, PartialEq)]
pub struct Bitstream {
    /// Raw bytes (header + frames + CRC).
    pub bytes: Vec<u8>,
    /// Number of configuration frames.
    pub frames: u32,
    /// CRC over the frame payload.
    pub crc: u32,
    /// True if this is a partial (EAPR) bitstream; false = full-device.
    pub partial: bool,
}

/// Sync word opening every bitstream (Xilinx-style). Shared with the
/// overlay assembler so overlay descriptors parse as valid bitstreams.
pub(crate) const SYNC_WORD: u32 = 0xAA99_5566;

/// CRC32 over bitstream frame payloads (the shared IEEE implementation
/// from `jitise-base`, re-exported so cad callers keep their import path).
pub use jitise_base::codec::crc32;

/// Generates the partial bitstream for a routed design.
pub fn bitgen(
    fabric: &Fabric,
    nl: &Netlist,
    placement: &Placement,
    routed: &RoutedDesign,
    partial: bool,
) -> Bitstream {
    let column = |tile: u32| fabric.xy(tile).0;
    // Group cells by column.
    let col_cells = Rows::build(fabric.width as usize, || {
        (0..nl.cells.len() as u32).map(|i| (column(placement.cell_tile[i as usize]), i))
    });
    // Group routed tiles by column.
    let col_tiles = Rows::build(fabric.width as usize, || {
        routed
            .nets
            .iter()
            .flat_map(|net| net.tiles.iter().map(|&t| (column(t), t)))
    });

    let mut payload = Encoder::new();
    let mut frames = 0u32;
    for x in 0..fabric.width as usize {
        frames += 1;
        payload.put_varu32(x as u32);
        let cells = col_cells.row(x);
        payload.put_varu32(cells.len() as u32);
        for &ci in cells {
            let c = &nl.cells[ci as usize];
            let (_, y) = fabric.xy(placement.cell_tile[ci as usize]);
            payload.put_varu32(y);
            match c.kind {
                CellKind::Lut4 { mask } => {
                    payload.put_varu32(0);
                    payload.put_varu32(mask as u32);
                }
                CellKind::Ff => {
                    payload.put_varu32(1);
                }
                CellKind::Carry => {
                    payload.put_varu32(2);
                }
                CellKind::Dsp48 => {
                    payload.put_varu32(3);
                }
                CellKind::IBuf => {
                    payload.put_varu32(4);
                }
                CellKind::OBuf => {
                    payload.put_varu32(5);
                }
            }
        }
        let tiles = col_tiles.row(x);
        payload.put_varu32(tiles.len() as u32);
        for &t in tiles {
            payload.put_varu32(t);
        }
    }

    // For a full-device bitstream, append the static-region frames (the
    // whole rest of the device, modeled as zero-fill frames). This is why
    // full bitgen moves much more data than EAPR partials.
    if !partial {
        let static_frames = fabric.width * 6; // static region ≈ 6x PR region
        for i in 0..static_frames {
            frames += 1;
            payload.put_varu32(1_000 + i);
            payload.put_varu32(0);
            payload.put_varu32(0);
        }
    }

    let payload = payload.finish();
    let crc = crc32(&payload);

    let mut out = Encoder::new();
    out.put_u64(SYNC_WORD as u64);
    out.put_varu32(frames);
    out.put_varu32(payload.len() as u32);
    out.put_bytes(&payload);
    out.put_u64(crc as u64);

    Bitstream {
        bytes: out.finish(),
        frames,
        crc,
        partial,
    }
}

impl Bitstream {
    /// Verifies the embedded CRC.
    pub fn verify(&self) -> bool {
        let mut dec = jitise_base::codec::Decoder::new(&self.bytes);
        let Ok(sync) = dec.get_u64() else {
            return false;
        };
        if sync != SYNC_WORD as u64 {
            return false;
        }
        let Ok(_frames) = dec.get_varu32() else {
            return false;
        };
        let Ok(_len) = dec.get_varu32() else {
            return false;
        };
        let Ok(payload) = dec.get_bytes() else {
            return false;
        };
        let Ok(crc) = dec.get_u64() else {
            return false;
        };
        crc32(payload) as u64 == crc
    }

    /// Stable content identity (for cache sanity checks).
    pub fn content_hash(&self) -> u64 {
        hash_bytes(&self.bytes)
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Always false (a bitstream has at least its header).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{place, PlaceEffort};
    use crate::route::{route, RouteEffort};
    use jitise_pivpav::netlist::synthesize_core;

    fn fixture() -> (Fabric, Netlist, Placement, RoutedDesign) {
        let fabric = Fabric::pr_region();
        let nl = synthesize_core("b", 8, 50, 6, 1, 31);
        let p = place(&fabric, &nl, PlaceEffort::fast(), 7).unwrap();
        let r = route(&fabric, &nl, &p, RouteEffort::fast()).unwrap();
        (fabric, nl, p, r)
    }

    #[test]
    fn partial_bitstream_valid_and_verifies() {
        let (fabric, nl, p, r) = fixture();
        let bs = bitgen(&fabric, &nl, &p, &r, true);
        assert!(bs.partial);
        assert_eq!(bs.frames, fabric.width);
        assert!(bs.verify());
        assert!(bs.len() > 64);
    }

    #[test]
    fn full_bitstream_much_larger() {
        let (fabric, nl, p, r) = fixture();
        let partial = bitgen(&fabric, &nl, &p, &r, true);
        let full = bitgen(&fabric, &nl, &p, &r, false);
        assert!(full.frames > partial.frames * 4);
        assert!(full.len() > partial.len());
    }

    #[test]
    fn corruption_detected() {
        let (fabric, nl, p, r) = fixture();
        let mut bs = bitgen(&fabric, &nl, &p, &r, true);
        assert!(bs.verify());
        let mid = bs.bytes.len() / 2;
        bs.bytes[mid] ^= 0xFF;
        assert!(!bs.verify(), "bit flip must break the CRC");
    }

    #[test]
    fn deterministic_and_content_sensitive() {
        let (fabric, nl, p, r) = fixture();
        let a = bitgen(&fabric, &nl, &p, &r, true);
        let b = bitgen(&fabric, &nl, &p, &r, true);
        assert_eq!(a, b);
        // A different placement changes the bitstream.
        let p2 = place(&fabric, &nl, PlaceEffort::fast(), 99).unwrap();
        let c = bitgen(&fabric, &nl, &p2, &r, true);
        assert_ne!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn crc32_known_vector() {
        // Standard IEEE CRC32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
