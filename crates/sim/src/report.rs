//! Plain-text rendering of the paper's tables and figures.
//!
//! Each `format_*` function turns experiment results into a table matching
//! the corresponding artifact of the paper (same rows, same columns, same
//! "Relative" normalization against `MostGarbage`), so a run of the bench
//! binaries can be eyeballed against the original side by side.

use crate::experiment::Comparison;
use crate::summary::Summary;
use std::fmt::Write as _;

fn rel(row: &Summary, baseline: Option<&Summary>) -> f64 {
    match baseline {
        Some(b) => row.relative_to(b),
        None => 0.0,
    }
}

/// Table 2: Throughput as number of page I/O operations (Relative is
/// MostGarbage = 1).
pub fn format_table2(cmp: &Comparison) -> String {
    let base_total = cmp.baseline().map(|b| b.total_ios);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>9} {:>12} {:>9} {:>12} {:>9}",
        "Selection Policy", "App I/Os", "(sd)", "GC I/Os", "(sd)", "Total I/Os", "Relative"
    );
    for r in &cmp.rows {
        let _ = writeln!(
            out,
            "{:<18} {:>12.0} {:>9.0} {:>12.0} {:>9.0} {:>12.0} {:>9.3}",
            r.policy.name(),
            r.app_ios.mean,
            r.app_ios.std_dev,
            r.gc_ios.mean,
            r.gc_ios.std_dev,
            r.total_ios.mean,
            rel(&r.total_ios, base_total.as_ref()),
        );
    }
    out
}

/// Table 3: Maximum storage space usage (Relative is MostGarbage = 1).
pub fn format_table3(cmp: &Comparison) -> String {
    let base = cmp.baseline().map(|b| b.max_storage_kb);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>14} {:>9} {:>9} {:>13} {:>9}",
        "Selection Policy", "Max Stor (KB)", "(sd)", "Relative", "# Partitions", "(sd)"
    );
    for r in &cmp.rows {
        let _ = writeln!(
            out,
            "{:<18} {:>14.0} {:>9.0} {:>9.3} {:>13.1} {:>9.2}",
            r.policy.name(),
            r.max_storage_kb.mean,
            r.max_storage_kb.std_dev,
            rel(&r.max_storage_kb, base.as_ref()),
            r.partitions.mean,
            r.partitions.std_dev,
        );
    }
    out
}

/// Table 4: Collector effectiveness and efficiency (Relative is
/// MostGarbage = 1). Includes the "Actual Garbage" line the paper prints
/// below the policy rows.
pub fn format_table4(cmp: &Comparison) -> String {
    let base_eff = cmp.baseline().map(|b| b.efficiency_kb_per_io);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>13} {:>8} {:>11} {:>8} {:>11} {:>9}",
        "Selection Policy", "Reclaimed KB", "(sd)", "Frac (%)", "(sd)", "Eff KB/IO", "Relative"
    );
    for r in &cmp.rows {
        let _ = writeln!(
            out,
            "{:<18} {:>13.0} {:>8.0} {:>11.2} {:>8.2} {:>11.2} {:>9.2}",
            r.policy.name(),
            r.reclaimed_kb.mean,
            r.reclaimed_kb.std_dev,
            r.fraction_pct.mean,
            r.fraction_pct.std_dev,
            r.efficiency_kb_per_io.mean,
            rel(&r.efficiency_kb_per_io, base_eff.as_ref()),
        );
    }
    // "Actual Garbage" is policy-independent in expectation; report the
    // value observed under the baseline (or the first row if absent).
    if let Some(row) = cmp.baseline().or(cmp.rows.first()) {
        let _ = writeln!(
            out,
            "{:<18} {:>13.0} {:>8.0}",
            "Actual Garbage", row.actual_garbage_kb.mean, row.actual_garbage_kb.std_dev
        );
    }
    out
}

/// Table 5: % of garbage reclaimed for each database connectivity. Takes
/// `(connectivity, comparison)` pairs, highest connectivity first (the
/// paper's column order).
pub fn format_table5(results: &[(f64, Comparison)]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<18}", "Selection Policy");
    for (c, _) in results {
        let _ = write!(out, " {:>12}", format!("C = {c:.3}"));
    }
    let _ = writeln!(out);
    if let Some((_, first)) = results.first() {
        for r in &first.rows {
            let _ = write!(out, "{:<18}", r.policy.name());
            for (_, cmp) in results {
                let pct = cmp
                    .row(r.policy)
                    .map(|row| row.fraction_pct.mean)
                    .unwrap_or(0.0);
                let _ = write!(out, " {pct:>12.2}");
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Figure 6: storage required (MB) as a function of maximum allocated
/// storage, one column per sweep point.
pub fn format_figure6(results: &[(u64, Comparison)]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<18}", "Selection Policy");
    for (mib, _) in results {
        let _ = write!(out, " {:>10}", format!("{mib} MB"));
    }
    let _ = writeln!(out, "   (storage required, MB)");
    if let Some((_, first)) = results.first() {
        for r in &first.rows {
            let _ = write!(out, "{:<18}", r.policy.name());
            for (_, cmp) in results {
                let mb = cmp
                    .row(r.policy)
                    .map(|row| row.max_storage_kb.mean / 1024.0)
                    .unwrap_or(0.0);
                let _ = write!(out, " {mb:>10.1}");
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Renders a per-partition occupancy table from
/// [`pgc_odb::Database::partition_profile`] output, with garbage
/// attribution from an oracle report when one is supplied — a diagnostic
/// view of where live data, unreclaimed garbage, and remembered pointers
/// sit.
pub fn format_partition_profile(
    profile: &[pgc_odb::PartitionProfile],
    oracle: Option<&pgc_odb::OracleReport>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>10} {:>11} {:>8} {:>10} {:>9}",
        "part", "used KB", "free KB", "garbage KB", "objects", "remset in", "out objs"
    );
    for p in profile {
        let garbage = oracle
            .map(|r| format!("{:.0}", r.garbage_in(p.partition).as_kib_f64()))
            .unwrap_or_else(|| "-".into());
        let free = p.capacity.saturating_sub(p.used);
        let _ = writeln!(
            out,
            "{:>6} {:>10.0} {:>10.0} {:>11} {:>8} {:>10} {:>9}{}",
            p.partition.to_string(),
            p.used.as_kib_f64(),
            free.as_kib_f64(),
            garbage,
            p.objects,
            p.remembered_pointers,
            p.out_of_partition_objects,
            if p.is_empty_designated {
                "  (empty)"
            } else {
                ""
            },
        );
    }
    out
}

/// Renders the per-policy telemetry aggregates of a tapped comparison as a
/// human-readable table: activations per run, mean bytes reclaimed per
/// activation, the p50/p90 of collector page I/O per activation, and the
/// mean bus-event gap between consecutive activations. Policies whose rows
/// carry no telemetry (the comparison ran with telemetry off) are skipped;
/// an entirely untapped comparison renders to an empty string.
pub fn format_telemetry(cmp: &Comparison) -> String {
    let mut out = String::new();
    if cmp.rows.iter().all(|r| r.telemetry.is_none()) {
        return out;
    }
    let _ = writeln!(
        out,
        "{:<18} {:>10} {:>14} {:>11} {:>11} {:>12}",
        "Selection Policy", "Activ/run", "Reclaim KB/act", "GC IO p50", "GC IO p90", "Gap (events)"
    );
    for r in &cmp.rows {
        let Some(t) = &r.telemetry else { continue };
        let _ = writeln!(
            out,
            "{:<18} {:>10.1} {:>14.1} {:>11} {:>11} {:>12.0}",
            r.policy.name(),
            t.activations_per_run(),
            t.reclaimed_per_activation.mean() / 1024.0,
            t.gc_io_per_activation.quantile(0.5),
            t.gc_io_per_activation.quantile(0.9),
            t.activation_gap_events.mean(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::run::RunConfig;
    use pgc_odb::PolicyKind;

    fn tiny_comparison() -> Comparison {
        Experiment::new()
            .compare(
                &[
                    PolicyKind::NoCollection,
                    PolicyKind::UpdatedPointer,
                    PolicyKind::MostGarbage,
                ],
                &[1],
                |p, s| RunConfig::small().with_policy(p).with_seed(s),
            )
            .unwrap()
    }

    #[test]
    fn table2_lists_every_policy_and_normalizes_baseline() {
        let cmp = tiny_comparison();
        let t = format_table2(&cmp);
        assert!(t.contains("NoCollection"));
        assert!(t.contains("UpdatedPointer"));
        assert!(t.contains("MostGarbage"));
        // The baseline's Relative column is exactly 1.000.
        let baseline_line = t
            .lines()
            .find(|l| l.starts_with("MostGarbage"))
            .expect("baseline row present");
        assert!(
            baseline_line.trim_end().ends_with("1.000"),
            "{baseline_line}"
        );
    }

    #[test]
    fn table3_and_4_render() {
        let cmp = tiny_comparison();
        let t3 = format_table3(&cmp);
        assert!(t3.contains("# Partitions"));
        let t4 = format_table4(&cmp);
        assert!(t4.contains("Actual Garbage"));
        assert!(t4.contains("Eff KB/IO"));
    }

    #[test]
    fn table5_grid_has_connectivity_columns() {
        let cmp = tiny_comparison();
        let t = format_table5(&[(1.167, cmp.clone()), (1.005, cmp)]);
        assert!(t.contains("C = 1.167"));
        assert!(t.contains("C = 1.005"));
        assert!(t.contains("UpdatedPointer"));
    }

    #[test]
    fn partition_profile_renders() {
        use pgc_odb::Database;
        use pgc_types::{Bytes, DbConfig, SlotId};
        let mut db = Database::new(
            DbConfig::default()
                .with_page_size(1024)
                .with_partition_pages(8),
        )
        .unwrap();
        let r = db.create_root(Bytes(100), 2).unwrap();
        db.create_object(Bytes(100), 2, r, SlotId(0)).unwrap();
        let txt = format_partition_profile(&db.partition_profile(), None);
        assert!(txt.contains("(empty)"));
        assert!(txt.contains("P1"));
        assert!(txt.contains("objects"));
        // With an oracle report, garbage is attributed per partition.
        db.write_slot(r, SlotId(0), None).unwrap();
        let mut scratch = pgc_odb::oracle::OracleScratch::new();
        let report = pgc_odb::oracle::analyze_with(&db, &mut scratch);
        let txt = format_partition_profile(&db.partition_profile(), Some(&report));
        assert!(!txt.contains(" -"), "oracle column filled in: {txt}");
    }

    #[test]
    fn telemetry_table_renders_only_when_tapped() {
        let plain = tiny_comparison();
        assert!(format_telemetry(&plain).is_empty(), "untapped is empty");
        let tapped = Experiment::new()
            .with_telemetry(crate::telemetry::TelemetryLevel::Metrics)
            .compare(
                &[PolicyKind::UpdatedPointer, PolicyKind::MostGarbage],
                &[1, 2],
                |p, s| RunConfig::small().with_policy(p).with_seed(s),
            )
            .unwrap();
        let t = format_telemetry(&tapped);
        assert!(t.contains("Activ/run"));
        assert!(t.contains("UpdatedPointer"));
        assert!(t.contains("MostGarbage"));
    }

    #[test]
    fn figure6_grid_has_size_columns() {
        let cmp = tiny_comparison();
        let t = format_figure6(&[(4, cmp.clone()), (40, cmp)]);
        assert!(t.contains("4 MB"));
        assert!(t.contains("40 MB"));
    }
}
