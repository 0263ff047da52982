//! Regenerates **Table 3** of the paper: maximum storage space usage per
//! policy (KB and partition count; Relative is MostGarbage = 1).
//!
//! ```text
//! cargo run --release -p pgc-bench --bin table3_space [--seeds N] [--scale PCT]
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
        "Table 3: Maximum Storage Space Usage (Relative: MostGarbage = 1)",
        &report::format_table3(&cmp),
    );
    emit_telemetry(&args, &cmp);
}
