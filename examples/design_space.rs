//! Design-space exploration: the ablations DESIGN.md §7 calls out.
//!
//! 1. Pruning-filter sweep — coverage p and block cap k of the `@{p}pS{k}L`
//!    family vs achieved speedup and analyzed bitcode (the trade the paper
//!    quantifies as "two orders of magnitude for 1/4 of the speedup").
//! 2. Identification-algorithm comparison on the same profile.
//! 3. CI interface-latency sensitivity — how the FCB invocation overhead
//!    erodes candidate profitability (the reason small candidates dominate
//!    the break-even discussion in §V-D).
//!
//! Run with: `cargo run --release --example design_space`

use jitise::apps::App;
use jitise::base::table::{fnum, TextTable};
use jitise::ise::{candidate_search, Algorithm, DepthEstimator, PruneFilter, SearchConfig};
use jitise::pivpav::PivPavEstimator;

fn main() {
    let app = App::build("whetstone").expect("whetstone builds");
    let profile = app.run_dataset(0);
    let estimator = PivPavEstimator::new();

    // --- 1. pruning-filter sweep ---
    println!("=== pruning-filter sweep on {} ===", app.name);
    let mut t = TextTable::new(vec![
        "filter",
        "blocks",
        "ins",
        "candidates",
        "speedup",
        "search[us]",
    ]);
    let mut filters = vec![PruneFilter::none()];
    for (p, k) in [(0.25, 1), (0.5, 3), (0.75, 5), (0.9, 8)] {
        filters.push(PruneFilter {
            coverage: p,
            max_blocks: k,
        });
    }
    for filter in filters {
        let cfg = SearchConfig {
            filter,
            ..SearchConfig::default()
        };
        let out = candidate_search(&app.module, &profile, &estimator, &cfg);
        t.row(vec![
            filter.to_string(),
            out.prune.blocks.len().to_string(),
            out.prune.insts_after.to_string(),
            out.selection.selected.len().to_string(),
            fnum(out.asip_ratio, 2),
            format!("{}", out.real_time.as_micros()),
        ]);
    }
    println!("{}\n", t.render());

    // --- 2. identification algorithms ---
    println!("=== identification algorithms (pruned blocks) ===");
    let mut t = TextTable::new(vec!["algorithm", "candidates", "speedup", "search[us]"]);
    for alg in [
        Algorithm::MaxMiso,
        Algorithm::SingleCut,
        Algorithm::UnionMiso,
    ] {
        let cfg = SearchConfig {
            algorithm: alg,
            ..SearchConfig::default()
        };
        let out = candidate_search(&app.module, &profile, &estimator, &cfg);
        t.row(vec![
            alg.to_string(),
            out.selection.selected.len().to_string(),
            fnum(out.asip_ratio, 2),
            format!("{}", out.real_time.as_micros()),
        ]);
    }
    println!("{}\n", t.render());

    // --- 3. CI invocation-overhead sensitivity ---
    println!("=== FCB invocation-overhead sensitivity ===");
    let mut t = TextTable::new(vec!["overhead[cycles]", "candidates", "speedup"]);
    for overhead in [0u64, 1, 3, 6, 12, 24] {
        let est = DepthEstimator {
            invoke_overhead: overhead,
        };
        let out = candidate_search(&app.module, &profile, &est, &SearchConfig::default());
        t.row(vec![
            overhead.to_string(),
            out.selection.selected.len().to_string(),
            fnum(out.asip_ratio, 2),
        ]);
    }
    println!("{}", t.render());
    println!(
        "\nhigher interface latency -> fewer profitable candidates and lower speedup,\n\
         which is why Woolcano's tightly-coupled FCB beats bus-attached designs (paper §II)."
    );
}
