//! Regenerates **Figure 5** of the paper: database size (live + unreclaimed
//! garbage) over time for every policy, as CSV series.
//!
//! Plot `resident_kb` against `events` to reproduce the figure. The run is
//! identical to Figure 4's (the paper draws both from one simulation).
//!
//! ```text
//! cargo run --release -p pgc-bench --bin fig5_dbsize_over_time [--scale PCT] [--out fig5.csv]
//! ```

use pgc_bench::{emit, labelled_series, CommonArgs};
use pgc_core::PolicyKind;
use pgc_sim::{paper, Experiment};
use std::fmt::Write as _;

fn main() {
    let args = CommonArgs::parse();
    let seed = 1u64;
    let jobs = args
        .policy_list(&PolicyKind::PAPER)
        .into_iter()
        .map(|policy| {
            let mut cfg = paper::time_series(policy, seed);
            cfg.workload.target_allocated = args.scale_bytes(cfg.workload.target_allocated);
            (policy, cfg)
        })
        .collect();
    let results = Experiment::new().run_jobs(jobs).expect("runs complete");
    // Terminal rendering of the figure, then the precise CSV.
    let labelled = labelled_series(&results);
    let chart = pgc_sim::render_chart(&labelled, pgc_sim::ChartMetric::ResidentKb, 96, 24);
    let mut body = String::new();
    body.push_str(&chart);
    body.push('\n');
    for (policy, outcome) in &results {
        let _ = writeln!(body, "# policy = {policy}");
        body.push_str(&outcome.series.to_csv());
    }
    emit(
        &args,
        "Figure 5: Database Size Over Time (CSV; plot resident_kb vs events)",
        &body,
    );
}
