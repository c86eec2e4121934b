//! Whole-application differential test: every paper app, every dataset,
//! interpreter vs. pre-decoded fast tier. The tiers must agree on the
//! return value, `cycles`, `steps`, and the full per-block profile — and
//! on the corrected accounting, `ExecOutcome::steps` must equal
//! `Profile::total_insts` (terminators excluded from both; see DESIGN.md
//! §15).

use jitise_apps::App;
use jitise_vm::{Interpreter, VmTier};

#[test]
fn all_apps_identical_across_tiers() {
    for app in App::all() {
        for (idx, ds) in app.datasets.iter().enumerate() {
            let run = |tier: VmTier| {
                let mut vm = Interpreter::new(&app.module);
                vm.set_tier(tier);
                let out = vm.run(app.entry, &ds.args).unwrap_or_else(|e| {
                    panic!("{}/{}: {tier:?} run failed: {e}", app.name, ds.name)
                });
                (out, vm.take_profile())
            };
            let (oi, pi) = run(VmTier::Interp);
            let (of, pf) = run(VmTier::Fast);
            assert_eq!(oi, of, "{}/{}: outcome diverged", app.name, ds.name);
            assert_eq!(pi, pf, "{}/{}: profile diverged", app.name, ds.name);
            assert_eq!(
                oi.steps,
                pi.total_insts(),
                "{}/{} (dataset {idx}): steps must equal the profile's \
                 dynamic instruction total",
                app.name,
                ds.name
            );
        }
    }
}
