//! Reproduces **Table II**: candidate-search runtime, pruning efficiency,
//! post-pruning blocks/instructions, candidate counts, the pruned ASIP
//! ratio, the per-phase CAD overheads, and the break-even time for every
//! application.
//!
//! Everything the host clock measures (`real[ms]`, `effic` and the
//! candidate-search range) is printed last, under
//! `--- host-measured (varies run to run) ---`; everything above that
//! heading is deterministic and diffs against `results/table2.txt`.
//!
//! Usage: `cargo run --release -p jitise-bench --bin table2`

use jitise_apps::Domain;
use jitise_base::table::{fnum, TextTable};
use jitise_base::SimTime;
use jitise_bench::{evaluate_domain, mean_of};
use jitise_core::{AppEvaluation, EvalContext};
use jitise_ise::{candidate_search, pruning_efficiency, PruneFilter, SearchConfig};

struct Row {
    name: String,
    real_ms: f64,
    effic: f64,
    blk: f64,
    ins: f64,
    can: f64,
    ratio: f64,
    const_s: f64,
    map_s: f64,
    par_s: f64,
    sum_s: f64,
    break_even: Option<SimTime>,
}

fn row_of(ctx: &EvalContext, app: &jitise_apps::App, ev: &AppEvaluation) -> Row {
    // Pruning efficiency needs the unpruned identification timing.
    let full_cfg = SearchConfig {
        filter: PruneFilter::none(),
        ..SearchConfig::default()
    };
    let full = candidate_search(&app.module, &ev.profile, &ctx.estimator, &full_cfg);
    let effic = pruning_efficiency(
        (ev.report.search.asip_ratio, ev.report.search.real_time),
        (full.asip_ratio, full.real_time),
    );
    Row {
        name: app.name.to_string(),
        real_ms: ev.report.search.real_time.as_secs_f64() * 1e3,
        effic,
        blk: ev.report.search.prune.blocks.len() as f64,
        ins: ev.report.search.prune.insts_after as f64,
        can: ev.report.candidates.len() as f64,
        ratio: ev.asip_ratio_pruned,
        const_s: ev.report.const_time.as_secs_f64(),
        map_s: ev.report.map_time.as_secs_f64(),
        par_s: ev.report.par_time.as_secs_f64(),
        sum_s: ev.report.sum_time.as_secs_f64(),
        break_even: ev.break_even,
    }
}

fn avg(label: &str, rows: &[Row]) -> Row {
    let be: Vec<f64> = rows
        .iter()
        .filter_map(|r| r.break_even.map(|t| t.as_secs_f64()))
        .collect();
    Row {
        name: label.to_string(),
        real_ms: mean_of(rows, |r| r.real_ms),
        effic: mean_of(rows, |r| r.effic),
        blk: mean_of(rows, |r| r.blk),
        ins: mean_of(rows, |r| r.ins),
        can: mean_of(rows, |r| r.can),
        ratio: mean_of(rows, |r| r.ratio),
        const_s: mean_of(rows, |r| r.const_s),
        map_s: mean_of(rows, |r| r.map_s),
        par_s: mean_of(rows, |r| r.par_s),
        sum_s: mean_of(rows, |r| r.sum_s),
        break_even: if be.is_empty() {
            None
        } else {
            Some(SimTime::from_secs_f64(
                be.iter().sum::<f64>() / be.len() as f64,
            ))
        },
    }
}

fn simulated(r: &Row) -> Vec<String> {
    vec![
        r.name.clone(),
        fnum(r.blk, 0),
        fnum(r.ins, 0),
        fnum(r.can, 0),
        fnum(r.ratio, 2),
        SimTime::from_secs_f64(r.const_s).fmt_min_sec(),
        SimTime::from_secs_f64(r.map_s).fmt_min_sec(),
        SimTime::from_secs_f64(r.par_s).fmt_min_sec(),
        SimTime::from_secs_f64(r.sum_s).fmt_min_sec(),
        r.break_even
            .map(|t| t.fmt_dhms())
            .unwrap_or_else(|| "never".into()),
    ]
}

fn host_measured(r: &Row) -> Vec<String> {
    vec![r.name.clone(), fnum(r.real_ms, 2), fnum(r.effic, 2)]
}

fn main() {
    println!("=== Table II: runtime overheads of the ASIP-SP process ===\n");
    let ctx = EvalContext::new();
    let sci = evaluate_domain(&ctx, Some(Domain::Scientific));
    let emb = evaluate_domain(&ctx, Some(Domain::Embedded));

    let sci_rows: Vec<Row> = sci.iter().map(|(a, e)| row_of(&ctx, a, e)).collect();
    let emb_rows: Vec<Row> = emb.iter().map(|(a, e)| row_of(&ctx, a, e)).collect();
    let avg_s = avg("AVG-S", &sci_rows);
    let avg_e = avg("AVG-E", &emb_rows);

    let table = |headers: Vec<&str>, cells: fn(&Row) -> Vec<String>| {
        let mut t = TextTable::new(headers);
        for r in &sci_rows {
            t.row(cells(r));
        }
        t.rule().row(cells(&avg_s)).rule();
        for r in &emb_rows {
            t.row(cells(r));
        }
        t.rule().row(cells(&avg_e));
        t.render()
    };
    let columns = vec![
        "App",
        "blk",
        "ins",
        "can",
        "ratio",
        "const",
        "map",
        "par",
        "sum",
        "break-even[d:h:m:s]",
    ];
    println!("{}", table(columns, simulated));

    println!("\n--- paper vs measured (headline claims) ---");
    let mut pt = TextTable::new(vec!["claim", "paper", "measured"]);
    pt.row(vec![
        "embedded avg overhead".to_string(),
        "49:53 (<50 min)".to_string(),
        SimTime::from_secs_f64(avg_e.sum_s).fmt_min_sec(),
    ]);
    pt.row(vec![
        "embedded avg break-even".to_string(),
        "0:01:59:55 (~2 h)".to_string(),
        avg_e
            .break_even
            .map(|t| t.fmt_dhms())
            .unwrap_or_else(|| "never".into()),
    ]);
    pt.row(vec![
        "embedded avg pruned speedup".to_string(),
        "4.98".to_string(),
        fnum(avg_e.ratio, 2),
    ]);
    pt.row(vec![
        "scientific avg pruned speedup".to_string(),
        "1.20".to_string(),
        fnum(avg_s.ratio, 2),
    ]);
    pt.row(vec![
        "scientific break-even >> embedded".to_string(),
        "5 orders of magnitude".to_string(),
        {
            let s = avg_s
                .break_even
                .map(|t| t.as_secs_f64())
                .unwrap_or(f64::INFINITY);
            let e = avg_e.break_even.map(|t| t.as_secs_f64()).unwrap_or(1.0);
            format!("{:.0}x", s / e)
        },
    ]);
    println!("{}", pt.render());

    // §V-D in-text quantities.
    println!("\n--- §V-D in-text quantities ---");
    let sci_cand_size = mean_of(&sci, |(_, e)| e.report.search.avg_candidate_size);
    let emb_cand_size = mean_of(&emb, |(_, e)| e.report.search.avg_candidate_size);
    let sci_blk_size = mean_of(&sci, |(_, e)| e.report.search.avg_pruned_block_size);
    let emb_blk_size = mean_of(&emb, |(_, e)| e.report.search.avg_pruned_block_size);
    let sci_red = mean_of(&sci, |(_, e)| e.report.search.prune.reduction_factor());
    let emb_red = mean_of(&emb, |(_, e)| e.report.search.prune.reduction_factor());
    let mut it = TextTable::new(vec!["quantity", "paper", "measured"]);
    it.row(vec![
        "avg candidate size sci [ins]".to_string(),
        "7.31".into(),
        fnum(sci_cand_size, 2),
    ]);
    it.row(vec![
        "avg candidate size emb [ins]".to_string(),
        "6.5".into(),
        fnum(emb_cand_size, 2),
    ]);
    it.row(vec![
        "avg pruned block size sci".to_string(),
        "155.65".into(),
        fnum(sci_blk_size, 2),
    ]);
    it.row(vec![
        "avg pruned block size emb".to_string(),
        "29.71".into(),
        fnum(emb_blk_size, 2),
    ]);
    it.row(vec![
        "bitcode reduction sci".to_string(),
        "36.49x".into(),
        fnum(sci_red, 2),
    ]);
    it.row(vec![
        "bitcode reduction emb".to_string(),
        "4.9x".into(),
        fnum(emb_red, 2),
    ]);
    println!("{}", it.render());

    println!("\n--- host-measured (varies run to run) ---");
    println!("{}", table(vec!["App", "real[ms]", "effic"], host_measured));
    let real_ms = || sci_rows.iter().chain(&emb_rows).map(|r| r.real_ms);
    let mut ht = TextTable::new(vec!["claim", "paper", "measured"]);
    ht.row(vec![
        "candidate search (ms-scale)".to_string(),
        "0.24 - 10.62 ms".to_string(),
        format!(
            "{:.2} - {:.2} ms",
            real_ms().fold(f64::MAX, f64::min),
            real_ms().fold(0.0, f64::max)
        ),
    ]);
    println!("\n{}", ht.render());
}
