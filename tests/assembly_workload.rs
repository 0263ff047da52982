//! Integration tests for the OO7-flavored assembly workload: cyclic
//! composite garbage, policy behaviour under churn, and the complete
//! collection extension.

use pgc::core::{PolicyKind, Trigger};
use pgc::odb::oracle;
use pgc::sim::{RunConfig, Shard, Simulation};
use pgc::types::Bytes;
use pgc::workload::{AssemblyParams, AssemblyWorkload, EncodedTrace, Event, WorkloadParams};

fn small_events(seed: u64) -> Vec<Event> {
    AssemblyWorkload::new(AssemblyParams::small().with_seed(seed))
        .expect("valid params")
        .collect()
}

/// `events` as a trace the simulator replays.
fn trace(events: &[Event]) -> EncodedTrace {
    EncodedTrace::from_events(WorkloadParams::default(), events)
}

fn small_cfg(policy: PolicyKind) -> RunConfig {
    let mut cfg = RunConfig::small().with_policy(policy);
    // Composite churn is allocation-paced, not overwrite-paced.
    cfg.trigger = Some(Trigger::AllocationBytes(Bytes::from_kib(8)));
    cfg
}

#[test]
fn assembly_trace_replays_under_every_policy() {
    let events = small_events(1);
    for policy in PolicyKind::ALL {
        let out = Simulation::builder(&small_cfg(policy))
            .trace(&trace(&events))
            .run()
            .expect("replay");
        assert_eq!(out.totals.events, events.len() as u64, "{policy}");
        if policy != PolicyKind::NoCollection {
            assert!(out.totals.collections > 0, "{policy} must collect");
        }
    }
}

#[test]
fn replacements_generate_cyclic_garbage() {
    // Without any collection, the orphaned composites (rings + documents)
    // pile up as garbage the oracle can see.
    let events = small_events(2);
    let out = Simulation::builder(&small_cfg(PolicyKind::NoCollection))
        .trace(&trace(&events))
        .run()
        .expect("replay");
    let params = AssemblyParams::small();
    let composite_bytes =
        (params.atomics_per_composite as u64 + 1) * params.small_size + params.document_size;
    // 60 replacements orphan 60 composites (minus whatever the final state
    // retains; replacements always orphan the *old* occupant).
    assert!(
        out.totals.final_garbage_bytes >= Bytes(composite_bytes * 50),
        "expected ≥50 orphaned composites, got {} bytes",
        out.totals.final_garbage_bytes
    );
}

#[test]
fn updated_pointer_beats_the_greedy_oracle_on_cyclic_churn() {
    // The oo7_churn example's observation, pinned as a test: with heavy
    // cross-partition cyclic garbage, greedy MostGarbage keeps selecting
    // partitions whose garbage is nepotism-retained, while UpdatedPointer
    // follows the overwrite hints to reclaimable garbage. Checked at full
    // partition geometry where composites straddle partitions.
    let events: Vec<Event> = AssemblyWorkload::new(
        AssemblyParams::default()
            .with_seed(3)
            .with_replacements(300),
    )
    .expect("params")
    .collect();
    let run = |policy| {
        let cfg = RunConfig::paper(policy, 3)
            .with_trigger(Trigger::AllocationBytes(Bytes::from_kib(256)));
        Simulation::builder(&cfg)
            .trace(&trace(&events))
            .run()
            .expect("replay")
            .totals
    };
    let updated = run(PolicyKind::UpdatedPointer);
    let oracle_policy = run(PolicyKind::MostGarbage);
    assert!(
        updated.reclaimed_bytes > oracle_policy.reclaimed_bytes,
        "UpdatedPointer ({}) should out-reclaim greedy MostGarbage ({}) here",
        updated.reclaimed_bytes,
        oracle_policy.reclaimed_bytes
    );
}

#[test]
fn complete_collection_clears_all_assembly_garbage() {
    let events = small_events(4);
    // The paper's overwrite trigger (every 50 in `small()`), not
    // `small_cfg`'s allocation trigger.
    let mut shard = Shard::new(&RunConfig::small()).expect("shard");
    shard
        .step_block(&events.into_iter().collect())
        .expect("replay");
    let mut db = shard.db().clone();

    let before = oracle::analyze(&db);
    assert!(before.garbage_bytes > Bytes::ZERO, "churn left garbage");
    let full = db.collect_full().expect("full collection");
    assert_eq!(full.garbage_bytes, before.garbage_bytes);
    let after = oracle::analyze(&db);
    assert!(after.garbage_bytes.is_zero());
    assert_eq!(after.live_bytes, before.live_bytes, "no live loss");
    db.check_invariants();
}

#[test]
fn assembly_trace_round_trips_through_codec() {
    let events = small_events(5);
    let mut buf = Vec::new();
    trace(&events).write_to(&mut buf).expect("encode");
    let back = EncodedTrace::read_from(buf.as_slice()).expect("decode");
    assert_eq!(back.cursor().decode_all().expect("decode"), events);
    // And the replay of the trace read back matches the original.
    let a = Simulation::builder(&small_cfg(PolicyKind::Random))
        .trace(&trace(&events))
        .run()
        .expect("a");
    let b = Simulation::builder(&small_cfg(PolicyKind::Random))
        .trace(&back)
        .run()
        .expect("b");
    assert_eq!(a.totals, b.totals);
}
