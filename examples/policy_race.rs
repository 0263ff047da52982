//! Shadow-scoreboard policy race: every paper policy scored in one replay.
//!
//! The paper answers "which partition would each policy pick?" by running
//! the same workload once per policy. Shadow mode collapses that: one
//! driver policy (here the `MostGarbage` oracle) makes the actual
//! collection decisions, while the scoreboards of the other honest paper
//! policies ride the same barrier event bus and record, at every trigger,
//! the victim they *would* have chosen. The result is a per-collection
//! agreement matrix — how often each heuristic endorses the near-optimal
//! choice — from a single pass over the trace.
//!
//! ```text
//! cargo run --release --example policy_race
//! ```

use pgc::odb::PolicyKind;
use pgc::sim::report::format_policy_race;
use pgc::sim::shadow::{run_race, RaceOutcome};
use pgc::sim::RunConfig;

const SEEDS: std::ops::Range<u64> = 0..6;

const SHADOWS: [PolicyKind; 5] = [
    PolicyKind::MutatedPartition,
    PolicyKind::Random,
    PolicyKind::WeightedPointer,
    PolicyKind::UpdatedPointer,
    PolicyKind::MostGarbage, // the driver shadowing itself: 100% by construction
];

fn main() {
    let races: Vec<RaceOutcome> = SEEDS
        .map(|seed| {
            let cfg = RunConfig::small()
                .with_policy(PolicyKind::MostGarbage)
                .with_seed(seed);
            let race = run_race(&cfg, &SHADOWS).expect("race");
            println!(
                "seed {seed}: {} activations, driver reclaimed {:.0} KB",
                race.records.len(),
                race.outcome.totals.reclaimed_bytes.as_kib_f64()
            );
            race
        })
        .collect();

    // Per-activation detail for the first race: the full decision matrix.
    println!("\nseed 0, per-activation picks (driver = MostGarbage):");
    print!("{:>4} {:>8}", "act", "driver");
    for s in SHADOWS {
        print!(" {:>18}", s.name());
    }
    println!();
    for rec in &races[0].records {
        print!(
            "{:>4} {:>8}",
            rec.activation,
            rec.driver_victim.map(|v| v.to_string()).unwrap_or_default()
        );
        for pick in &rec.picks {
            let mark = if pick.victim == rec.driver_victim {
                ""
            } else {
                "*"
            };
            print!(
                " {:>17}{}",
                pick.victim.map(|v| v.to_string()).unwrap_or_default(),
                if mark.is_empty() { " " } else { mark }
            );
        }
        println!();
    }
    println!("(* = disagrees with the driver)");

    println!("\n{}", format_policy_race(&races));
}
