//! Cross-crate integration tests: full simulations through the `pgc`
//! facade, checking system-level invariants for every policy.

use pgc::core::PolicyKind;
use pgc::odb::oracle;
use pgc::sim::{RunConfig, Shard, Simulation};
use pgc::types::Bytes;

fn run(policy: PolicyKind, seed: u64) -> pgc::sim::RunOutcome {
    Simulation::builder(&RunConfig::small().with_policy(policy).with_seed(seed))
        .run()
        .expect("run")
}

#[test]
fn every_policy_completes_and_accounts_consistently() {
    for policy in PolicyKind::ALL {
        let out = run(policy, 11);
        let t = &out.totals;
        // I/O accounting: totals decompose.
        assert_eq!(t.total_ios(), t.app_ios + t.gc_ios, "{policy}");
        // Space accounting: footprint covers resident data.
        assert!(
            t.max_footprint >= t.final_live_bytes + t.final_garbage_bytes,
            "{policy}: footprint must cover live + unreclaimed garbage"
        );
        // Conservation: allocated = live + reclaimed + unreclaimed.
        let allocated = out.gen_stats.bytes_allocated;
        assert_eq!(
            allocated,
            t.final_live_bytes + t.reclaimed_bytes + t.final_garbage_bytes,
            "{policy}: byte conservation"
        );
        // Nepotism garbage is a subset of unreclaimed garbage.
        assert!(t.final_nepotism_bytes <= t.final_garbage_bytes, "{policy}");
    }
}

#[test]
fn collecting_policies_never_lose_to_themselves_without_gc_on_space() {
    // Any policy that actually collects must end with footprint <= the
    // NoCollection footprint for the same trace.
    let baseline = run(PolicyKind::NoCollection, 3).totals.max_footprint;
    for policy in [
        PolicyKind::Random,
        PolicyKind::MutatedPartition,
        PolicyKind::UpdatedPointer,
        PolicyKind::WeightedPointer,
        PolicyKind::MostGarbage,
        PolicyKind::RoundRobin,
        PolicyKind::Occupancy,
    ] {
        let out = run(policy, 3);
        assert!(out.totals.collections > 0, "{policy} must collect");
        assert!(
            out.totals.max_footprint <= baseline,
            "{policy}: {} > NoCollection {}",
            out.totals.max_footprint,
            baseline
        );
    }
}

#[test]
fn most_garbage_is_best_or_near_best_at_reclamation() {
    // Aggregate over a few seeds: the oracle policy must reclaim at least
    // as much as the weakest heuristic and be within noise of the best.
    let mut oracle_total = 0.0;
    let mut best_heuristic = 0.0f64;
    for seed in [1, 2, 3, 4] {
        oracle_total += run(PolicyKind::MostGarbage, seed)
            .totals
            .fraction_reclaimed_pct();
        let mutated = run(PolicyKind::MutatedPartition, seed)
            .totals
            .fraction_reclaimed_pct();
        best_heuristic += mutated;
    }
    assert!(
        oracle_total >= best_heuristic,
        "MostGarbage ({oracle_total:.1}) reclaimed less than MutatedPartition ({best_heuristic:.1}) across seeds"
    );
}

#[test]
fn final_database_state_is_coherent_for_each_policy() {
    for policy in PolicyKind::PAPER {
        let cfg = RunConfig::small().with_policy(policy).with_seed(7);
        let events: Vec<pgc::workload::Event> =
            pgc::workload::SyntheticWorkload::new(cfg.workload.clone())
                .expect("params")
                .collect();
        let mut shard = Shard::new(&cfg).expect("shard");
        shard
            .step_block(&events.into_iter().collect())
            .expect("replay");
        shard.db().check_invariants();

        // Every reachable object accounted; no reachable object reclaimed.
        let report = oracle::analyze(shard.db());
        assert_eq!(
            report.live_bytes + report.garbage_bytes,
            shard.db().resident_bytes(),
            "{policy}"
        );
    }
}

#[test]
fn deeper_collection_thresholds_mean_fewer_collections() {
    let mut cfg = RunConfig::small().with_seed(5);
    cfg.db = cfg.db.with_gc_overwrite_threshold(25);
    let frequent = Simulation::builder(&cfg).run().expect("run");
    cfg.db = cfg.db.with_gc_overwrite_threshold(200);
    let rare = Simulation::builder(&cfg).run().expect("run");
    assert!(frequent.totals.collections > rare.totals.collections);
}

#[test]
fn buffer_size_matters_smaller_buffer_more_io() {
    let mut cfg = RunConfig::small().with_seed(6);
    let normal = Simulation::builder(&cfg).run().expect("run");
    cfg.db = cfg.db.with_buffer_pages(4); // starve the buffer
    let starved = Simulation::builder(&cfg).run().expect("run");
    assert!(
        starved.totals.total_ios() > normal.totals.total_ios(),
        "starved buffer: {} vs normal {}",
        starved.totals.total_ios(),
        normal.totals.total_ios()
    );
}

#[test]
fn extension_policies_behave_reasonably() {
    let rr = run(PolicyKind::RoundRobin, 8);
    let occ = run(PolicyKind::Occupancy, 8);
    for (name, out) in [("RoundRobin", &rr), ("Occupancy", &occ)] {
        assert!(out.totals.collections > 0, "{name}");
        assert!(out.totals.reclaimed_bytes > Bytes::ZERO, "{name}");
    }
}
