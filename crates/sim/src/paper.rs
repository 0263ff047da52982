//! The paper's experiment configurations (Sec. 6).
//!
//! Each function reproduces one experimental setup:
//!
//! * [`headline`] — Tables 2, 3, 4: 48 × 8 KB-page partitions, equal-size
//!   buffer, ~11 MB allocated (≈5 MB live), 10 seeds.
//! * [`time_series`] — Figures 4, 5: one seed, a database that grows to
//!   ~20 MB under `NoCollection`, sampled periodically.
//! * [`scaled`] — Figure 6: maximum allocation swept 4→40 MB with the
//!   partition size scaled 24→100 pages ("partition size was scaled up
//!   with the size of the database").
//! * [`connectivity`] — Table 5: dense-edge fraction swept so database
//!   connectivity covers 1.005–1.167 pointers per object.

use crate::run::RunConfig;
use pgc_odb::PolicyKind;
use pgc_types::{Bytes, DbConfig};
use pgc_workload::WorkloadParams;

/// The seed set for a paper-style experiment ("10 sets of simulation runs
/// ... with a different random seed").
pub fn seeds(n: u64) -> Vec<u64> {
    (1..=n).collect()
}

/// Tables 2–4 configuration.
pub fn headline(policy: PolicyKind, seed: u64) -> RunConfig {
    RunConfig::paper(policy, seed)
}

/// Figures 4–5 configuration: a larger run (~20 MB allocated) with
/// time-series sampling. The paper's figure is "a simulation of a database
/// whose storage grew to about 20 megabytes with no garbage collection".
pub fn time_series(policy: PolicyKind, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::paper(policy, seed);
    cfg.workload = cfg
        .workload
        .with_target_allocated(Bytes::from_mib(20))
        .with_seed(seed);
    cfg.db = cfg.db.with_partition_pages(64);
    cfg.sample_every = Some(25_000);
    cfg
}

/// Figure 6 partition scaling: 24 pages at 4 MB allocated up to 100 pages
/// at 40 MB, linear in between (clamped outside the range).
pub fn scaled_partition_pages(alloc_mib: u64) -> u64 {
    const LO_MIB: f64 = 4.0;
    const HI_MIB: f64 = 40.0;
    const LO_PAGES: f64 = 24.0;
    const HI_PAGES: f64 = 100.0;
    let t = ((alloc_mib as f64 - LO_MIB) / (HI_MIB - LO_MIB)).clamp(0.0, 1.0);
    (LO_PAGES + t * (HI_PAGES - LO_PAGES)).round() as u64
}

/// Figure 6 configuration: `alloc_mib` megabytes of maximum allocation with
/// the partition (and buffer) size scaled to match.
pub fn scaled(policy: PolicyKind, seed: u64, alloc_mib: u64) -> RunConfig {
    RunConfig {
        policy,
        db: DbConfig::default().with_partition_pages(scaled_partition_pages(alloc_mib)),
        workload: WorkloadParams::default()
            .with_seed(seed)
            .with_target_allocated(Bytes::from_mib(alloc_mib)),
        sample_every: None,
        trigger: None,
        durability: crate::durable::DurabilityConfig::off(),
    }
}

/// Table 5's connectivity points: `(connectivity label, dense-edge
/// fraction)` pairs. Connectivity ≈ 1 + dense fraction (each n-node tree
/// already carries n−1 tree edges).
pub const TABLE5_CONNECTIVITY: [(f64, f64); 4] = [
    (1.167, 0.167),
    (1.083, 0.083),
    (1.040, 0.040),
    (1.005, 0.005),
];

/// Table 5 configuration: headline geometry with the dense-edge fraction
/// set for the requested connectivity point.
pub fn connectivity(policy: PolicyKind, seed: u64, dense_fraction: f64) -> RunConfig {
    let mut cfg = RunConfig::paper(policy, seed);
    cfg.workload = cfg.workload.with_dense_edge_fraction(dense_fraction);
    cfg
}

/// Figure 6's sweep points (the paper's 4–40 MB range).
pub const FIG6_SIZES_MIB: [u64; 5] = [4, 10, 20, 30, 40];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_matches_paper_geometry() {
        let cfg = headline(PolicyKind::UpdatedPointer, 1);
        assert_eq!(cfg.db.partition_pages, 48);
        assert_eq!(cfg.db.buffer_pages, 48);
        assert_eq!(cfg.db.page_size, 8192);
        assert!(cfg.db.gc_overwrite_threshold >= 150 && cfg.db.gc_overwrite_threshold <= 300);
    }

    #[test]
    fn partition_scaling_hits_paper_endpoints() {
        assert_eq!(scaled_partition_pages(4), 24);
        assert_eq!(scaled_partition_pages(40), 100);
        assert_eq!(scaled_partition_pages(2), 24, "clamped below");
        assert_eq!(scaled_partition_pages(80), 100, "clamped above");
        let mid = scaled_partition_pages(22);
        assert!((24..=100).contains(&mid));
    }

    #[test]
    fn scaled_config_sets_both_axes() {
        let cfg = scaled(PolicyKind::Random, 3, 40);
        assert_eq!(cfg.db.partition_pages, 100);
        assert_eq!(cfg.workload.target_allocated, Bytes::from_mib(40));
        assert_eq!(cfg.workload.seed, 3);
    }

    #[test]
    fn connectivity_points_match_table5() {
        for (c, dense) in TABLE5_CONNECTIVITY {
            assert!((c - (1.0 + dense)).abs() < 1e-9);
            let cfg = connectivity(PolicyKind::UpdatedPointer, 1, dense);
            let expected = cfg.workload.expected_connectivity();
            assert!((expected - c).abs() < 0.01, "expected {expected} vs {c}");
        }
    }

    #[test]
    fn seeds_are_one_based_and_dense() {
        assert_eq!(seeds(3), vec![1, 2, 3]);
        assert_eq!(seeds(10).len(), 10);
    }

    #[test]
    fn time_series_samples() {
        let cfg = time_series(PolicyKind::MostGarbage, 7);
        assert!(cfg.sample_every.is_some());
        assert_eq!(cfg.workload.target_allocated, Bytes::from_mib(20));
    }
}
