//! The OO7-flavored assembly workload: cyclic composite parts under churn.
//!
//! Each composite part is a *ring* of atomic parts plus a large design
//! document; replacing a composite orphans a whole cycle. Partitioned
//! collection reclaims cycles that fit one partition but — as the paper's
//! Sec. 6.5 warns — cannot touch cycles that straddle partitions. The
//! complete collection extension (`Database::collect_full`) finishes the
//! job.
//!
//! ```text
//! cargo run --release --example oo7_churn
//! ```

use pgc::core::{PolicyKind, Trigger};
use pgc::odb::oracle;
use pgc::sim::{RunConfig, Shard, Simulation};
use pgc::types::Bytes;
use pgc::workload::{AssemblyParams, AssemblyWorkload, EncodedTrace, Event, WorkloadParams};

fn main() {
    let params = AssemblyParams::default()
        .with_seed(7)
        .with_replacements(800);
    let events: Vec<Event> = AssemblyWorkload::new(params.clone())
        .expect("valid params")
        .collect();
    println!(
        "assembly workload: {} modules, {} initial objects, {} replacements, {} events",
        params.modules,
        params.initial_objects(),
        params.replacements,
        events.len()
    );

    // Drive the paper's best policy and the oracle over the same trace.
    // This workload mutates pointers rarely but allocates constantly
    // (whole-composite replacement), so the paper's overwrite trigger
    // underfires; the allocation-paced trigger extension fits it.
    let trace = EncodedTrace::from_events(WorkloadParams::default(), &events);
    for policy in [PolicyKind::UpdatedPointer, PolicyKind::MostGarbage] {
        let cfg = RunConfig::paper(policy, 7)
            .with_trigger(Trigger::AllocationBytes(Bytes::from_kib(256)));
        let out = Simulation::builder(&cfg)
            .trace(&trace)
            .run()
            .expect("replay");
        println!(
            "{:<16} total I/Os {:>6}  collections {:>3}  reclaimed {:>6.0} KB  leftover {:>5.0} KB (nepotism {:.0} KB)",
            policy.name(),
            out.totals.total_ios(),
            out.totals.collections,
            out.totals.reclaimed_bytes.as_kib_f64(),
            out.totals.final_garbage_bytes.as_kib_f64(),
            out.totals.final_nepotism_bytes.as_kib_f64(),
        );
    }

    println!(
        "note: on this cyclic workload the \"near-optimal\" MostGarbage policy livelocks —\n\
         it keeps selecting the partition whose garbage is nepotism-retained (uncollectable\n\
         one partition at a time), while UpdatedPointer's overwrite hints find the freshly\n\
         orphaned composites. Greedy most-garbage is only near-optimal when garbage is local."
    );

    // Show the distributed-garbage finale: partitioned collection leaves
    // some cyclic garbage behind; one complete collection clears it.
    let cfg =
        RunConfig::paper(PolicyKind::UpdatedPointer, 7).with_trigger(Trigger::OverwriteCount(100));
    let mut shard = Shard::new(&cfg).expect("shard");
    shard
        .step_block(&events.into_iter().collect())
        .expect("replay");
    let mut db = shard.db().clone();

    let before = oracle::analyze(&db);
    let full = db.collect_full().expect("full collection");
    let after = oracle::analyze(&db);
    println!("---");
    println!(
        "before complete collection: {:>6.0} KB garbage ({:.0} KB nepotism-retained)",
        before.garbage_bytes.as_kib_f64(),
        before.nepotism_bytes.as_kib_f64()
    );
    println!(
        "complete collection reclaimed {:>6.0} KB across {} partitions ({} gc I/Os)",
        full.garbage_bytes.as_kib_f64(),
        full.partitions_collected,
        full.gc_reads + full.gc_writes
    );
    println!(
        "after: {:.0} KB garbage remains",
        after.garbage_bytes.as_kib_f64()
    );
    assert!(after.garbage_bytes.is_zero());
    db.check_invariants();
    println!("no garbage survives a complete collection ✓");
}
