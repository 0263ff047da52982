//! Scaled-down checks of the paper's qualitative claims.
//!
//! These run the real experiment pipeline at reduced scale (so `cargo test`
//! stays fast) and assert the *orderings* the paper reports, aggregated
//! over a few seeds. The full-scale numbers live in EXPERIMENTS.md and are
//! regenerated by the `pgc-bench` binaries.

use pgc::odb::PolicyKind;
use pgc::sim::{Comparison, Experiment, RunConfig};
use pgc::types::Bytes;

/// Quarter-ish-scale headline comparison, 3 seeds. Debug builds run this
/// in a handful of seconds.
fn small_headline() -> Comparison {
    Experiment::new()
        .compare(&PolicyKind::PAPER, &[1, 2, 3], |policy, seed| {
            let mut cfg = RunConfig::small().with_policy(policy).with_seed(seed);
            cfg.workload.target_allocated = Bytes::from_mib(1);
            cfg
        })
        .expect("comparison runs")
}

#[test]
fn paper_orderings_hold_at_small_scale() {
    let cmp = small_headline();
    let frac = |k: PolicyKind| cmp.row(k).unwrap().fraction_pct.mean;
    let storage = |k: PolicyKind| cmp.row(k).unwrap().max_storage_kb.mean;
    let eff = |k: PolicyKind| cmp.row(k).unwrap().efficiency_kb_per_io.mean;

    // Table 4 ordering: MostGarbage >= UpdatedPointer >> MutatedPartition.
    // MostGarbage is greedy per activation, not globally optimal, and at
    // this tiny geometry (1 MB, 16 KB partitions) it can trail the best
    // heuristic by several points — the paper itself observes UpdatedPointer
    // "actually dropping below MostGarbage for a time" (Sec. 6.3); the gap
    // closes at paper scale (see EXPERIMENTS.md Table 4).
    assert!(
        frac(PolicyKind::MostGarbage) + 10.0 >= frac(PolicyKind::UpdatedPointer),
        "oracle should reclaim at least as much as the best heuristic: {} vs {}",
        frac(PolicyKind::MostGarbage),
        frac(PolicyKind::UpdatedPointer)
    );
    assert!(
        frac(PolicyKind::UpdatedPointer) > frac(PolicyKind::MutatedPartition),
        "the paper's central claim: {} vs {}",
        frac(PolicyKind::UpdatedPointer),
        frac(PolicyKind::MutatedPartition)
    );

    // Table 3 ordering: NoCollection uses the most storage; UpdatedPointer
    // stays close to MostGarbage.
    for k in [
        PolicyKind::MutatedPartition,
        PolicyKind::Random,
        PolicyKind::WeightedPointer,
        PolicyKind::UpdatedPointer,
        PolicyKind::MostGarbage,
    ] {
        assert!(
            storage(PolicyKind::NoCollection) >= storage(k),
            "NoCollection must bound storage from above ({k})"
        );
    }
    assert!(
        storage(PolicyKind::UpdatedPointer) <= 1.25 * storage(PolicyKind::MostGarbage),
        "UpdatedPointer must track the oracle's storage: {} vs {}",
        storage(PolicyKind::UpdatedPointer),
        storage(PolicyKind::MostGarbage)
    );

    // Table 4 efficiency: UpdatedPointer clearly more efficient than
    // MutatedPartition (paper: ~2x).
    assert!(
        eff(PolicyKind::UpdatedPointer) > 1.15 * eff(PolicyKind::MutatedPartition),
        "efficiency gap: {} vs {}",
        eff(PolicyKind::UpdatedPointer),
        eff(PolicyKind::MutatedPartition)
    );
}

#[test]
fn collection_count_is_policy_independent() {
    // Sec. 4.1: the trigger is independent of the partition choice, so
    // "every algorithm performs the same number of collections".
    let cmp = small_headline();
    let reference = cmp.row(PolicyKind::MostGarbage).unwrap().collections.mean;
    for k in [
        PolicyKind::MutatedPartition,
        PolicyKind::Random,
        PolicyKind::WeightedPointer,
        PolicyKind::UpdatedPointer,
    ] {
        let c = cmp.row(k).unwrap().collections.mean;
        assert!(
            (c - reference).abs() <= 1.0,
            "{k}: {c} collections vs reference {reference}"
        );
    }
}

#[test]
fn connectivity_degrades_collection() {
    // Table 5's headline trend: at high connectivity the policies reclaim
    // a smaller fraction of the generated garbage than at (near-)tree
    // connectivity. This needs the paper's partition geometry — with tiny
    // partitions, per-collection capacity dominates and the trend is
    // swamped — so run the real headline setup at 4 MB.
    let run = |dense: f64| {
        Experiment::new()
            .compare(
                &[PolicyKind::UpdatedPointer, PolicyKind::MostGarbage],
                &[1, 2, 3, 4],
                |policy, seed| {
                    let mut cfg = RunConfig::paper(policy, seed);
                    cfg.workload.target_allocated = Bytes::from_mib(4);
                    cfg.workload.dense_edge_fraction = dense;
                    cfg
                },
            )
            .expect("comparison runs")
    };
    let sparse = run(0.005);
    let dense = run(0.30); // exaggerated connectivity to beat seed noise
    for k in [PolicyKind::UpdatedPointer, PolicyKind::MostGarbage] {
        let s = sparse.row(k).unwrap().fraction_pct.mean;
        let d = dense.row(k).unwrap().fraction_pct.mean;
        assert!(
            d < s,
            "{k}: fraction reclaimed should drop with connectivity ({d:.1} !< {s:.1})"
        );
    }
}

#[test]
fn nepotism_rises_with_connectivity() {
    // Sec. 6.5: "even small increases in the connectivity of the database
    // can produce significant amounts of distributed garbage due to
    // nepotism". Needs the paper geometry (see above), and enough allocated
    // data (8 MB) for the trend to clear per-seed noise in the few hundred
    // KB of leftover nepotism bytes.
    let run = |dense: f64, seed: u64| {
        let mut cfg = RunConfig::paper(PolicyKind::MostGarbage, seed);
        cfg.workload.target_allocated = Bytes::from_mib(8);
        cfg.workload.dense_edge_fraction = dense;
        pgc::sim::Simulation::builder(&cfg)
            .run()
            .expect("run")
            .totals
    };
    let mut sparse = 0.0;
    let mut dense = 0.0;
    for seed in [1, 2, 3, 4] {
        sparse += run(0.005, seed).final_nepotism_bytes.as_kib_f64();
        dense += run(0.30, seed).final_nepotism_bytes.as_kib_f64();
    }
    assert!(
        dense > sparse,
        "nepotism bytes should grow with connectivity: {dense:.0} !> {sparse:.0}"
    );
}

#[test]
fn figure6_shape_updated_pointer_tracks_oracle_across_sizes() {
    // Figure 6: "as the database size increases, the relative performance
    // of the most important policies remains the same" — UpdatedPointer
    // close to MostGarbage, NoCollection bounding from above, at every
    // size. Checked at two sweep points, reduced seed count.
    for alloc_mib in [4u64, 8] {
        let cmp = Experiment::new()
            .compare(
                &[
                    PolicyKind::NoCollection,
                    PolicyKind::UpdatedPointer,
                    PolicyKind::MostGarbage,
                ],
                &[1, 2],
                |policy, seed| pgc::sim::paper::scaled(policy, seed, alloc_mib),
            )
            .expect("runs");
        let stor = |k: PolicyKind| cmp.row(k).unwrap().max_storage_kb.mean;
        assert!(
            stor(PolicyKind::NoCollection) > stor(PolicyKind::UpdatedPointer),
            "{alloc_mib} MB"
        );
        assert!(
            stor(PolicyKind::UpdatedPointer) <= 1.2 * stor(PolicyKind::MostGarbage),
            "{alloc_mib} MB: {} vs {}",
            stor(PolicyKind::UpdatedPointer),
            stor(PolicyKind::MostGarbage)
        );
    }
}

#[test]
fn figures_4_and_5_separate_the_policies() {
    // The time-varying runs end with UpdatedPointer near the oracle and
    // MutatedPartition far above (Figures 4/5's grouping), and the curves
    // are sampled densely enough to see it.
    let run = |policy| {
        let mut cfg = pgc::sim::paper::time_series(policy, 1);
        cfg.workload.target_allocated = Bytes::from_mib(4);
        cfg.sample_every = Some(20_000);
        pgc::sim::Simulation::builder(&cfg).run().expect("run")
    };
    let updated = run(PolicyKind::UpdatedPointer);
    let mutated = run(PolicyKind::MutatedPartition);
    let none = run(PolicyKind::NoCollection);
    assert!(updated.series.points().len() >= 3);
    let final_garbage = |o: &pgc::sim::RunOutcome| o.series.points().last().unwrap().garbage_bytes;
    assert!(final_garbage(&updated) < final_garbage(&mutated));
    assert!(final_garbage(&mutated) <= final_garbage(&none));
    // Figure 5's metric (database size) orders the same way.
    let final_size = |o: &pgc::sim::RunOutcome| o.series.points().last().unwrap().resident_bytes;
    assert!(final_size(&updated) < final_size(&none));
}
