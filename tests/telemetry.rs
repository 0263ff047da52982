//! System-level guarantees of the telemetry layer.
//!
//! The tap rides the barrier bus as a bystander observer, so turning it on
//! must change *nothing* about the simulated world: same `RunTotals`, same
//! victim sequence, for every policy and seed. These tests pin that
//! invariant end to end through the `pgc` facade, hold the JSONL export
//! to one `record_line` per activation, and check that the builder's
//! three event sources (synthetic, recorded slice, shared encoded trace)
//! agree exactly.

use pgc::odb::PolicyKind;
use pgc::sim::{Experiment, RunConfig, Simulation};
use pgc::telemetry::{record_line, write_snapshot, TelemetryLevel};

const POLICIES: [PolicyKind; 3] = [
    PolicyKind::UpdatedPointer,
    PolicyKind::MostGarbage,
    PolicyKind::Random,
];

#[test]
fn telemetry_is_non_perturbing_across_seeds_and_policies() {
    // Seeds 0-9 x 3 policies: the run with the tap registered must be
    // bit-identical (totals + full victim sequence) to the run without.
    for seed in 0..10u64 {
        for policy in POLICIES {
            let cfg = RunConfig::small().with_policy(policy).with_seed(seed);
            let off = Simulation::builder(&cfg).run().expect("off run");
            let on = Simulation::builder(&cfg)
                .telemetry(TelemetryLevel::Full)
                .run()
                .expect("tapped run");
            assert_eq!(
                off.totals, on.totals,
                "{policy:?} seed {seed}: telemetry perturbed the totals"
            );
            assert_eq!(
                off.collections, on.collections,
                "{policy:?} seed {seed}: telemetry perturbed the victim sequence"
            );
            assert!(off.telemetry.is_none(), "off run must carry no snapshot");
            let snap = on.telemetry.expect("tapped run must carry a snapshot");
            assert_eq!(
                snap.counters.activations, on.totals.collections,
                "{policy:?} seed {seed}"
            );
            assert_eq!(
                snap.records.len() as u64,
                on.totals.collections,
                "{policy:?} seed {seed}: one record per activation"
            );
            // The record stream mirrors the authoritative victim sequence.
            for (rec, coll) in snap.records.iter().zip(&on.collections) {
                assert_eq!(rec.victim, Some(coll.victim), "{policy:?} seed {seed}");
            }
        }
    }
}

#[test]
fn metrics_level_is_also_non_perturbing_and_recordless() {
    let cfg = RunConfig::small().with_policy(PolicyKind::UpdatedPointer);
    let off = Simulation::builder(&cfg).run().expect("off run");
    let on = Simulation::builder(&cfg)
        .telemetry(TelemetryLevel::Metrics)
        .run()
        .expect("metrics run");
    assert_eq!(off.totals, on.totals);
    assert_eq!(off.collections, on.collections);
    let snap = on.telemetry.expect("metrics snapshot");
    assert_eq!(snap.counters.activations, on.totals.collections);
    assert!(
        snap.records.is_empty(),
        "Metrics level must not retain per-activation records"
    );
}

#[test]
fn jsonl_export_is_one_record_line_per_activation() {
    let cfg = RunConfig::small()
        .with_policy(PolicyKind::MostGarbage)
        .with_seed(5);
    let out = Simulation::builder(&cfg)
        .telemetry(TelemetryLevel::Full)
        .run()
        .expect("run");
    let snap = out.telemetry.expect("snapshot");
    assert!(!snap.records.is_empty(), "need records to export");

    let mut buf = Vec::new();
    write_snapshot(&mut buf, out.policy.name(), out.seed, &snap).expect("write");
    let text = String::from_utf8(buf).expect("utf-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), snap.records.len(), "one line per activation");

    for (line, rec) in lines.iter().zip(&snap.records) {
        assert_eq!(
            *line,
            record_line(out.policy.name(), out.seed, snap.trigger, rec),
            "activation {}",
            rec.activation
        );
    }
}

#[test]
fn experiment_tap_matches_untapped_rows() {
    // The experiment runner with a telemetry tap must produce the same
    // per-policy aggregates as without, plus one snapshot per (policy,
    // seed) job.
    let policies = [PolicyKind::UpdatedPointer, PolicyKind::Random];
    let seeds = [1u64, 2];
    let make = |policy, seed| RunConfig::small().with_policy(policy).with_seed(seed);
    let plain = Experiment::new()
        .compare(&policies, &seeds, make)
        .expect("plain comparison");
    let tapped = Experiment::new()
        .with_telemetry(TelemetryLevel::Full)
        .compare(&policies, &seeds, make)
        .expect("tapped comparison");
    assert!(plain.telemetry.is_empty());
    assert_eq!(tapped.telemetry.len(), policies.len() * seeds.len());
    for (a, b) in plain.rows.iter().zip(&tapped.rows) {
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.total_ios, b.total_ios, "{:?}", a.policy);
        assert_eq!(a.reclaimed_kb, b.reclaimed_kb, "{:?}", a.policy);
        assert_eq!(a.collections, b.collections, "{:?}", a.policy);
    }
    for run in &tapped.telemetry {
        assert!(run.snapshot.counters.activations > 0, "{:?}", run.policy);
    }
}

#[test]
fn builder_sources_are_exact_equivalents() {
    let cfg = RunConfig::small()
        .with_policy(PolicyKind::UpdatedPointer)
        .with_seed(3);

    // Synthetic source (the default).
    let synthetic = Simulation::builder(&cfg).run().expect("synthetic run");

    // Event-slice source, encoded.
    let events: Vec<pgc::workload::Event> =
        pgc::workload::SyntheticWorkload::new(cfg.workload.clone())
            .expect("params")
            .collect();
    let sliced = pgc::workload::EncodedTrace::from_events(cfg.workload.clone(), &events);
    let sliced = Simulation::builder(&cfg)
        .trace(&sliced)
        .run()
        .expect("event-slice run");
    assert_eq!(synthetic.totals, sliced.totals);
    assert_eq!(synthetic.collections, sliced.collections);

    // Shared encoded-trace source.
    let trace = pgc::workload::EncodedTrace::record(cfg.workload.clone()).expect("record");
    let encoded = Simulation::builder(&cfg)
        .trace(&trace)
        .run()
        .expect("encoded run");
    assert_eq!(synthetic.totals, encoded.totals);
    assert_eq!(synthetic.collections, encoded.collections);
}
