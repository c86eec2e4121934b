//! Adaptive VM scenario (paper Fig. 1): an embedded workload executes run
//! after run while the ASIP specialization process works **concurrently**
//! in a background thread; once the custom instructions are implemented,
//! the runtime hot-swaps to the specialized binary. A second session of
//! the same application is served from the bitstream cache with zero
//! generation overhead (§VI-A).
//!
//! Run with: `cargo run --release --example adaptive_vm`

use jitise::apps::App;
use jitise::core::{run_adaptive, BitstreamCache, EvalContext};
use jitise::vm::Value;

fn main() {
    let ctx = EvalContext::new();
    let cache = BitstreamCache::new();
    let app = App::build("sor").expect("sor is in the registry");
    println!(
        "application: {} ({} blocks, {} instructions)",
        app.name,
        app.module.num_blocks(),
        app.module.num_insts()
    );

    // Session 1: cold cache — the specialization pipeline runs in full.
    println!("\n=== session 1 (cold bitstream cache) ===");
    let out = run_adaptive(&ctx, &cache, &app.module, "main", &[Value::I(8)], 8, 2)
        .expect("adaptive run");
    println!(
        "runs before adaptation: {} @ {} cycles | runs after: {} @ {} cycles",
        out.runs_before, out.cycles_before, out.runs_after, out.cycles_after
    );
    println!(
        "observed speedup {:.2}x, specialization overhead {} ({} candidates, {} cache hits)",
        out.observed_speedup,
        out.overhead,
        out.report.as_ref().map_or(0, |r| r.candidates.len()),
        out.report.as_ref().map_or(0, |r| r.cache_hits)
    );

    // Session 2: every candidate's bitstream is already cached.
    println!("\n=== session 2 (warm bitstream cache) ===");
    let out2 = run_adaptive(&ctx, &cache, &app.module, "main", &[Value::I(8)], 8, 2)
        .expect("adaptive run");
    println!(
        "observed speedup {:.2}x, specialization overhead {} ({} of {} candidates from cache)",
        out2.observed_speedup,
        out2.overhead,
        out2.report.as_ref().map_or(0, |r| r.cache_hits),
        out2.report.as_ref().map_or(0, |r| r.candidates.len())
    );
    println!("bitstream cache: {} entries", cache.len());

    println!(
        "\nbreak-even intuition: session 1 paid {} of tool flow; session 2 paid {}.",
        out.overhead, out2.overhead
    );
}
