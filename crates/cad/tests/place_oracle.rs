//! Placer oracle: the placer with incremental bounding boxes must return
//! exactly the placement of the one that rescanned every pin of every net
//! on the moved cell — same tiles, final HPWL, move and accept counts, so
//! the same RNG draws and accept decisions. The reference is a verbatim
//! copy of that placer, shared with `jitise-core`'s sweep-level oracle.

#[path = "support/reference_place.rs"]
mod reference_place;

use jitise_cad::{check_legal, place, Fabric, PlaceEffort};
use jitise_pivpav::netlist::synthesize_core;
use jitise_pivpav::Netlist;
use proptest::prelude::*;

/// Places `nl` with both placers and asserts the two results are equal.
fn placed_both(fabric: &Fabric, nl: &Netlist, effort: PlaceEffort, seed: u64) {
    let got = place(fabric, nl, effort, seed);
    let want = reference_place::place(fabric, nl, effort, seed);
    match (got, want) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.hpwl, want.hpwl, "hpwl");
            assert_eq!(got.accepted, want.accepted, "accepted moves");
            assert!(got == want, "placement differs from the reference placer");
            check_legal(fabric, nl, &got).expect("legal placement");
        }
        (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
        (got, want) => panic!("placers disagree: {got:?} vs {want:?}"),
    }
}

fn effort(normal: bool) -> PlaceEffort {
    if normal {
        PlaceEffort::normal()
    } else {
        PlaceEffort::fast()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cores of the paper sweep's sizes on the PR region, from few cells
    /// to ones whose high-fanout nets touch hundreds of cells.
    #[test]
    fn matches_reference_on_pr_region(
        luts in 4u32..600,
        width in 1u32..33,
        ffs in 0u32..64,
        dsps in 0u32..8,
        seed in 0u64..1_000_000,
        normal in any::<bool>(),
    ) {
        let nl = synthesize_core("p", width, luts, ffs, dsps, seed);
        placed_both(&Fabric::pr_region(), &nl, effort(normal), seed);
    }

    /// DSP-heavy cores: most moves draw from the two DSP columns, whose
    /// one-site tiles fill up and reject moves.
    #[test]
    fn matches_reference_on_dsp_heavy_cores(
        luts in 2u32..40,
        dsps in 8u32..41,
        seed in 0u64..1_000_000,
        normal in any::<bool>(),
    ) {
        let nl = synthesize_core("d", 8, luts, 2, dsps, seed);
        placed_both(&Fabric::pr_region(), &nl, effort(normal), seed);
    }

    /// The tiny fabric: 4×4 tiles, so most pins share edges and rows, and
    /// designs that do not fit must fail identically.
    #[test]
    fn matches_reference_on_tiny_fabric(
        luts in 1u32..52,
        width in 1u32..8,
        ffs in 0u32..8,
        dsps in 0u32..6,
        seed in 0u64..1_000_000,
        normal in any::<bool>(),
    ) {
        let nl = synthesize_core("t", width, luts, ffs, dsps, seed);
        placed_both(&Fabric::tiny(), &nl, effort(normal), seed);
    }
}

#[test]
fn empty_netlist_matches_reference() {
    placed_both(
        &Fabric::tiny(),
        &Netlist::new("empty"),
        PlaceEffort::fast(),
        1,
    );
}
