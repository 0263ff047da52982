//! Runs the entire evaluation: Tables 2–5 and Figures 4–6, in one pass.
//!
//! ```text
//! cargo run --release -p pgc-bench --bin all_experiments [--seeds N] [--scale PCT] [--out report.txt]
//! ```
//!
//! With default flags this is the paper's full experimental grid (≈ 310
//! simulation runs); on a laptop-class machine it completes in a few
//! minutes. Use `--scale 25 --seeds 3` for a quick shape check.

use pgc_bench::{emit, emit_telemetry, CommonArgs};
use pgc_core::PolicyKind;
use pgc_sim::{paper, report, Comparison, Experiment};
use pgc_workload::TraceCache;
use std::fmt::Write as _;

fn main() {
    let args = CommonArgs::parse();
    let mut full = String::new();
    // One trace cache for the whole evaluation: sections whose workload
    // parameters coincide (the tables share the headline workload; the
    // figures reuse it at other scales) replay the same recorded trace
    // instead of regenerating it.
    let cache = TraceCache::new();
    let experiment = Experiment::new().with_cache(&cache);

    // Tables 2-4 share one experiment; telemetry (if requested via
    // --telemetry-out) taps the headline grid.
    let headline = experiment
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
        .expect("headline experiment runs");
    let _ = writeln!(full, "== Table 2: Throughput (page I/Os) ==");
    full.push_str(&report::format_table2(&headline));
    let _ = writeln!(full, "\n== Table 3: Maximum Storage ==");
    full.push_str(&report::format_table3(&headline));
    let _ = writeln!(full, "\n== Table 4: Effectiveness and Efficiency ==");
    full.push_str(&report::format_table4(&headline));

    // Table 5: connectivity sweep.
    let mut t5: Vec<(f64, Comparison)> = Vec::new();
    for (connectivity, dense) in paper::TABLE5_CONNECTIVITY {
        let cmp = experiment
            .compare(
                &args.policy_list(&PolicyKind::PAPER),
                &args.seed_list(),
                |policy, seed| {
                    let cfg = paper::connectivity(policy, seed, dense);
                    let target = args.scale_bytes(cfg.workload.target_allocated);
                    cfg.with_heap_growth(target)
                },
            )
            .expect("connectivity experiment runs");
        t5.push((connectivity, cmp));
    }
    let _ = writeln!(full, "\n== Table 5: Connectivity Effects (% reclaimed) ==");
    full.push_str(&report::format_table5(&t5));

    // Figures 4/5: time series (single seed).
    let jobs = args
        .policy_list(&PolicyKind::PAPER)
        .into_iter()
        .map(|policy| {
            let mut cfg = paper::time_series(policy, 1);
            cfg.workload.target_allocated = args.scale_bytes(cfg.workload.target_allocated);
            (policy, cfg)
        })
        .collect();
    let series = experiment.run_jobs(jobs).expect("time series runs");
    let _ = writeln!(
        full,
        "\n== Figures 4 & 5: time series (final samples; full CSV via fig4/fig5 binaries) =="
    );
    let _ = writeln!(
        full,
        "{:<18} {:>14} {:>14} {:>14}",
        "Policy", "final garb KB", "final size KB", "collections"
    );
    for (policy, outcome) in &series {
        if let Some(last) = outcome.series.points().last() {
            let _ = writeln!(
                full,
                "{:<18} {:>14.0} {:>14.0} {:>14}",
                policy.name(),
                last.garbage_bytes.as_kib_f64(),
                last.resident_bytes.as_kib_f64(),
                last.collections
            );
        }
    }

    // Figure 6: size sweep (3 seeds keeps it affordable).
    let sweep_seeds: Vec<u64> = (1..=args.seeds.min(3)).collect();
    let mut f6: Vec<(u64, Comparison)> = Vec::new();
    for mib in paper::FIG6_SIZES_MIB {
        let cmp = experiment
            .compare(
                &args.policy_list(&PolicyKind::PAPER),
                &sweep_seeds,
                |policy, seed| {
                    let cfg = paper::scaled(policy, seed, mib);
                    let target = args.scale_bytes(cfg.workload.target_allocated);
                    cfg.with_heap_growth(target)
                },
            )
            .expect("scalability experiment runs");
        f6.push((mib, cmp));
    }
    let _ = writeln!(full, "\n== Figure 6: Storage vs Maximum Allocated ==");
    full.push_str(&report::format_figure6(&f6));

    emit(&args, "Full evaluation (Tables 2-5, Figures 4-6)", &full);
    emit_telemetry(&args, &headline);
}
