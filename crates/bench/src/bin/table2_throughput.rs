//! Regenerates **Table 2** of the paper: throughput as number of page I/O
//! operations per policy (application, collector, total, and total relative
//! to `MostGarbage`).
//!
//! ```text
//! cargo run --release -p pgc-bench --bin table2_throughput [--seeds N] [--scale PCT]
//! ```

use pgc_bench::{emit, emit_telemetry, CommonArgs};
use pgc_core::PolicyKind;
use pgc_sim::{paper, report, Experiment};

fn main() {
    let args = CommonArgs::parse();
    let cmp = Experiment::new()
        .with_telemetry(args.telemetry_level())
        .compare(
            &args.policy_list(&PolicyKind::PAPER),
            &args.seed_list(),
            |policy, seed| {
                let cfg = paper::headline(policy, seed);
                let target = args.scale_bytes(cfg.workload.target_allocated);
                cfg.with_heap_growth(target)
            },
        )
        .expect("experiment runs");
    emit(
        &args,
        "Table 2: Throughput as Number of Page I/O Operations (Relative: MostGarbage = 1)",
        &report::format_table2(&cmp),
    );
    emit_telemetry(&args, &cmp);
}
