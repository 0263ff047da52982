//! Regenerates **Figure 6** of the paper: storage required as a function
//! of selection policy and maximum allocated storage (4–40 MB, with the
//! partition size scaled 24–100 pages alongside).
//!
//! ```text
//! cargo run --release -p pgc-bench --bin fig6_scalability [--seeds N] [--scale PCT]
//! ```
//!
//! Note: `--scale` shrinks every sweep point proportionally (useful for a
//! quick shape check); the paper's axis labels correspond to `--scale 100`.

use pgc_bench::{emit, emit_telemetry, CommonArgs};
use pgc_core::PolicyKind;
use pgc_sim::{paper, report, Comparison, Experiment};

fn main() {
    let mut args = CommonArgs::parse();
    // The paper's 20/40 MB points were single-run values; default to fewer
    // seeds than the tables to keep the sweep affordable, unless the user
    // asked explicitly.
    if args.seeds == 10 {
        args.seeds = 3;
    }
    let mut results: Vec<(u64, Comparison)> = Vec::new();
    for mib in paper::FIG6_SIZES_MIB {
        let cmp = Experiment::new()
            .with_telemetry(args.telemetry_level())
            .compare(
                &args.policy_list(&PolicyKind::PAPER),
                &args.seed_list(),
                |policy, seed| {
                    let cfg = paper::scaled(policy, seed, mib);
                    let target = args.scale_bytes(cfg.workload.target_allocated);
                    cfg.with_heap_growth(target)
                },
            )
            .expect("experiment runs");
        results.push((mib, cmp));
    }
    emit(
        &args,
        "Figure 6: Storage Required vs Maximum Allocated Storage",
        &report::format_figure6(&results),
    );
    if let Some((_, largest)) = results.last() {
        emit_telemetry(&args, largest);
    }
}
