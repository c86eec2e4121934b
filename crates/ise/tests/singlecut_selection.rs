//! SINGLECUT enumerates overlapping cuts of a block. Selection must keep
//! at most one custom instruction over any instruction, so its savings
//! never exceed the run they come from.

use jitise_apps::App;
use jitise_ise::{candidate_search, Algorithm, DepthEstimator, SearchConfig};
use std::collections::HashSet;

#[test]
fn singlecut_on_whetstone_selects_each_instruction_once() {
    let app = App::build("whetstone").expect("paper app");
    let profile = app.scaled_profile();
    let config = SearchConfig {
        algorithm: Algorithm::SingleCut,
        ..SearchConfig::default()
    };
    let out = candidate_search(&app.module, &profile, &DepthEstimator::default(), &config);
    let selected = &out.selection.selected;
    assert!(selected.len() > 1, "whetstone must select several cuts");
    let mut covered = HashSet::new();
    for s in selected {
        for &iid in &s.candidate.insts {
            assert!(
                covered.insert((s.candidate.key.func, iid)),
                "instruction {iid:?} of {:?} selected twice",
                s.candidate.key.func
            );
        }
    }
    assert!(
        out.selection.total_saved_cycles < profile.total_cycles(),
        "saved {} of a {}-cycle run",
        out.selection.total_saved_cycles,
        profile.total_cycles()
    );
}
