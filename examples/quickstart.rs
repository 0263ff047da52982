//! Quickstart: run one simulated object database under the paper's winning
//! partition selection policy and print what happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pgc::prelude::*;

fn main() {
    // A small, seconds-scale configuration. `RunConfig::paper(..)` gives
    // the full-size setup from the paper's evaluation instead.
    let cfg = RunConfig::small()
        .with_policy(PolicyKind::UpdatedPointer)
        .with_seed(42);

    let outcome = Simulation::builder(&cfg).run().expect("simulation runs");
    let t = &outcome.totals;

    println!("policy             : {}", outcome.policy);
    println!("application events : {}", t.events);
    println!(
        "page I/Os          : {} app + {} gc = {}",
        t.app_ios,
        t.gc_ios,
        t.total_ios()
    );
    println!("collections        : {}", t.collections);
    println!(
        "garbage reclaimed  : {:.0} KB of {:.0} KB generated ({:.1}%)",
        t.reclaimed_bytes.as_kib_f64(),
        t.actual_garbage_bytes().as_kib_f64(),
        t.fraction_reclaimed_pct()
    );
    println!(
        "collector efficiency: {:.2} KB reclaimed per collector I/O",
        t.efficiency_kb_per_io()
    );
    println!(
        "storage footprint  : {:.0} KB across {} partitions ({:.0} KB live at end)",
        t.max_footprint.as_kib_f64(),
        t.partitions,
        t.final_live_bytes.as_kib_f64()
    );
}
