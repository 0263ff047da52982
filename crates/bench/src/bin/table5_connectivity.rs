//! Regenerates **Table 5** of the paper: database connectivity effects on
//! garbage collection performance — % of garbage reclaimed per policy at
//! connectivities C ∈ {1.167, 1.083, 1.040, 1.005}.
//!
//! ```text
//! cargo run --release -p pgc-bench --bin table5_connectivity [--seeds N] [--scale PCT]
//! ```

use pgc_bench::{emit, emit_telemetry, CommonArgs};
use pgc_core::PolicyKind;
use pgc_sim::{paper, report, Comparison, Experiment};

fn main() {
    let args = CommonArgs::parse();
    let mut results: Vec<(f64, Comparison)> = Vec::new();
    for (connectivity, dense) in paper::TABLE5_CONNECTIVITY {
        let cmp = Experiment::new()
            .with_telemetry(args.telemetry_level())
            .compare(
                &args.policy_list(&PolicyKind::PAPER),
                &args.seed_list(),
                |policy, seed| {
                    let cfg = paper::connectivity(policy, seed, dense);
                    let target = args.scale_bytes(cfg.workload.target_allocated);
                    cfg.with_heap_growth(target)
                },
            )
            .expect("experiment runs");
        results.push((connectivity, cmp));
    }
    emit(
        &args,
        "Table 5: Database Connectivity Effects (% of garbage reclaimed)",
        &report::format_table5(&results),
    );
    if let Some((_, densest)) = results.first() {
        emit_telemetry(&args, densest);
    }
}
