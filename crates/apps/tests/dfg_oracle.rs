//! DFG builder oracle over real code: every block of the 14 paper apps and
//! of phased modules (rotation and near-duplicate populations) must build
//! exactly the graph of the original per-block builder, whichever entry
//! point builds it. The reference is shared with `jitise-ir`'s proptest.

#[path = "../../ir/tests/support/reference_dfg.rs"]
mod reference;

use jitise_apps::{build_phased, App, PhasedSpec};
use jitise_ir::{Dfg, Escapes, Module};

/// Checks every block of every function of `m`; returns the block count.
fn check_module(name: &str, m: &Module) -> usize {
    let mut blocks = 0;
    for fid in m.func_ids() {
        let f = m.func(fid);
        let escapes = Escapes::of(f);
        let all = Dfg::build_all(f);
        assert_eq!(all.len(), f.num_blocks());
        for (b, from_all) in f.block_ids().zip(&all) {
            let want = reference::build(f, b);
            let with = Dfg::build_with(f, b, &escapes);
            let at = || format!("{name}: {} block {}", f.name, b.0);
            assert_eq!(from_all, &want, "build_all, {}", at());
            assert_eq!(with, want, "build_with, {}", at());
            blocks += 1;
        }
    }
    blocks
}

#[test]
fn paper_apps_match_reference() {
    let blocks: usize = App::all()
        .iter()
        .map(|app| check_module(app.name, &app.module))
        .sum();
    assert!(blocks > 10_000, "only {blocks} blocks checked");
}

#[test]
fn phased_modules_match_reference() {
    for seed in 0..50 {
        for near_duplicate in [false, true] {
            let spec = PhasedSpec {
                seed,
                kernels: 4,
                near_duplicate,
                ..PhasedSpec::default()
            };
            check_module(&format!("phased seed {seed}"), &build_phased(&spec));
        }
    }
}
