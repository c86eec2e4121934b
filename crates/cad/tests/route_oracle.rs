//! Router oracle: the optimized router (lazy edge costs, stamped scratch,
//! a bit-parallel wavefront while every edge costs 1.0) must produce
//! exactly the routes of the straightforward implementation it replaced —
//! same edges and tiles per net in the same order, same wirelength,
//! overflow, iteration count and peak occupancy. The reference is a
//! verbatim copy of that implementation, shared with `jitise-core`'s
//! sweep-level oracle.

#[path = "support/reference_route.rs"]
mod reference;

use jitise_cad::{
    check_connected, place, route, Fabric, PlaceEffort, Placement, RouteEffort, RoutedDesign,
};
use jitise_pivpav::netlist::synthesize_core;
use jitise_pivpav::Netlist;
use proptest::prelude::*;
use proptest::sample::select;

/// Places `nl` and routes it with both routers; returns the new result
/// after asserting the two are identical.
fn routed_both(
    fabric: &Fabric,
    nl: &Netlist,
    effort: RouteEffort,
    seed: u64,
) -> (Placement, RoutedDesign) {
    let p = place(fabric, nl, PlaceEffort::fast(), seed).expect("design fits");
    let got = route(fabric, nl, &p, effort).expect("placement matches");
    let want = reference::route(fabric, nl, &p, effort).expect("placement matches");
    assert_eq!(got.iterations, want.iterations, "iterations");
    assert_eq!(got.overflow, want.overflow, "overflow");
    assert_eq!(got.wirelength, want.wirelength, "wirelength");
    assert_eq!(got.max_occupancy, want.max_occupancy, "peak occupancy");
    assert!(got == want, "routes differ from the reference router");
    (p, got)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Uncongested cores: every job of the paper sweep legalizes in the
    /// first iteration, on the wavefront path.
    #[test]
    fn matches_reference_on_random_cores(
        luts in 4u32..400,
        width in 2u32..16,
        ffs in 0u32..32,
        dsps in 0u32..6,
        seed in 0u64..5000,
        fast in 0u32..2,
    ) {
        let fabric = Fabric::pr_region();
        let nl = synthesize_core("o", width, luts, ffs, dsps, seed);
        let effort = if fast == 1 { RouteEffort::fast() } else { RouteEffort::normal() };
        let (p, r) = routed_both(&fabric, &nl, effort, seed);
        if r.overflow == 0 {
            check_connected(&fabric, &nl, &p, &r).expect("legal routes connect");
        }
    }

    /// Narrowed channels force negotiation cheaply: overflow in the first
    /// iteration switches it to the heap, and later iterations add
    /// congestion history.
    #[test]
    fn matches_reference_on_narrow_channels(
        luts in 40u32..200,
        channel_width in 2u32..12,
        seed in 0u64..5000,
    ) {
        let fabric = Fabric { channel_width, ..Fabric::pr_region() };
        let nl = synthesize_core("n", 8, luts, luts / 8, 1, seed);
        let (p, r) = routed_both(&fabric, &nl, RouteEffort::normal(), seed);
        check_connected(&fabric, &nl, &p, &r).expect("every tree connects, legal or not");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Congested cores on the real PR region: 1,500–2,500 LUTs overflow
    /// the 72-wire channels and negotiate over several iterations.
    #[test]
    fn matches_reference_under_congestion(
        luts in 1500u32..2500,
        seed in 0u64..5000,
    ) {
        let fabric = Fabric::pr_region();
        let nl = synthesize_core("c", 16, luts, luts / 8, 2, seed);
        let (_, r) = routed_both(&fabric, &nl, RouteEffort::normal(), seed);
        prop_assert!(r.iterations > 1, "congested core must negotiate");
    }
}

/// A fabric of `width` × `height` tiles with a DSP column every 9th
/// column from x = 4, and `channel_width` wires per edge.
fn shaped(width: u32, height: u32, channel_width: u32) -> Fabric {
    Fabric {
        width,
        height,
        dsp_columns: (0..width).filter(|x| x % 9 == 4).collect(),
        channel_width,
        ..Fabric::pr_region()
    }
}

/// A core that fills about `fill_pct` % of `fabric`'s logic sites (at
/// most 240 LUTs) and up to `dsps` of its DSP sites.
fn fitting_core(fabric: &Fabric, bits: u32, fill_pct: u32, dsps: u32, seed: u64) -> Netlist {
    let sites = fabric.total_logic_sites();
    let luts = (sites * fill_pct / 100).clamp(1, 240);
    let ffs = (sites - luts).min(luts / 8);
    let dsps = dsps.min(fabric.total_dsp_sites());
    synthesize_core("s", bits, luts, ffs, dsps, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The wavefront's word shifts depend on the fabric's width and tile
    /// count: widths 1–3 (no or one inner column), 28 (the PR region),
    /// 63, 64 (one row is exactly one word) and 65–70 (a row spans
    /// words), at heights 1–20. Narrow channels send some of them through
    /// negotiation too.
    #[test]
    fn matches_reference_on_fabric_shapes(
        width in select(vec![1u32, 2, 3, 28, 63, 64, 65, 66, 67, 68, 69, 70]),
        height in 1u32..21,
        channel_width in select(vec![1u32, 2, 4, 72]),
        bits in 1u32..9,
        fill_pct in 1u32..60,
        dsps in 0u32..4,
        seed in 0u64..5000,
    ) {
        let fabric = shaped(width, height, channel_width);
        let nl = fitting_core(&fabric, bits, fill_pct, dsps, seed);
        let (p, r) = routed_both(&fabric, &nl, RouteEffort::normal(), seed);
        check_connected(&fabric, &nl, &p, &r).expect("every tree connects, legal or not");
    }

    /// `Fabric::tiny()`: 4×4 tiles with 8-wire channels.
    #[test]
    fn matches_reference_on_tiny_fabric(
        bits in 1u32..5,
        fill_pct in 1u32..90,
        dsps in 0u32..5,
        seed in 0u64..5000,
    ) {
        let fabric = Fabric::tiny();
        let nl = fitting_core(&fabric, bits, fill_pct, dsps, seed);
        let (p, r) = routed_both(&fabric, &nl, RouteEffort::normal(), seed);
        check_connected(&fabric, &nl, &p, &r).expect("every tree connects, legal or not");
    }
}
