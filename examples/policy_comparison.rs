//! Head-to-head policy comparison on one workload — a miniature of the
//! paper's Table 2/3/4, runnable in a few seconds.
//!
//! ```text
//! cargo run --release --example policy_comparison
//! ```

use pgc::odb::PolicyKind;
use pgc::sim::{report, Experiment, RunConfig};
use pgc::types::Bytes;

fn main() {
    // A quarter-scale headline run over 3 seeds.
    let seeds = [1, 2, 3];
    let cmp = Experiment::new()
        .compare(&PolicyKind::PAPER, &seeds, |policy, seed| {
            RunConfig::paper(policy, seed).with_heap_growth(Bytes::from_mib(3))
        })
        .expect("comparison runs");

    println!("--- throughput (Table 2 shape) ---");
    print!("{}", report::format_table2(&cmp));
    println!("\n--- storage (Table 3 shape) ---");
    print!("{}", report::format_table3(&cmp));
    println!("\n--- efficiency (Table 4 shape) ---");
    print!("{}", report::format_table4(&cmp));

    // The paper's headline claims, checked on this run:
    let total = |k: PolicyKind| cmp.row(k).unwrap().total_ios.mean;
    let storage = |k: PolicyKind| cmp.row(k).unwrap().max_storage_kb.mean;
    println!("\n--- headline claims ---");
    println!(
        "UpdatedPointer within {:.1}% of MostGarbage total I/O",
        100.0 * (total(PolicyKind::UpdatedPointer) / total(PolicyKind::MostGarbage) - 1.0).abs()
    );
    println!(
        "MutatedPartition {}x NoCollection total I/O (bad GC can lose to no GC)",
        total(PolicyKind::MutatedPartition) / total(PolicyKind::NoCollection)
    );
    println!(
        "NoCollection uses {:.2}x the storage of MostGarbage",
        storage(PolicyKind::NoCollection) / storage(PolicyKind::MostGarbage)
    );
}
