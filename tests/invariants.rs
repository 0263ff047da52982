//! The invariant sweep: `Database::check_invariants` — remembered-set
//! exactness against the real cross-partition edges, member lists against
//! the record slab, the LRU recency list against its page table — run at
//! every collector activation and once more on the finished state, for
//! every policy on both workloads.
//!
//! The digests pin *what* a run computes; this pins that the structures
//! under it agree with each other while it does, so a change to the slot or
//! page representation is checked against the model, not only against the
//! numbers it was tuned to reproduce.

use pgc::odb::{BarrierEvent, BarrierObserver, Database, PolicyKind, Trigger};
use pgc::sim::{RunConfig, Shard};
use pgc::types::Bytes;
use pgc::workload::{AssemblyParams, AssemblyWorkload, Event, SyntheticWorkload};
use std::cell::Cell;
use std::rc::Rc;

const SEEDS: [u64; 3] = [1, 2, 3];

/// Checks the whole database at each activation (the pre-collection state:
/// everything the mutator and the previous collection left behind).
struct InvariantSweep {
    activations: Rc<Cell<u64>>,
}

impl BarrierObserver for InvariantSweep {
    fn on_event(&mut self, _event: &BarrierEvent) {}

    fn on_trigger(&mut self, db: &Database) {
        db.check_invariants();
        self.activations.set(self.activations.get() + 1);
    }
}

fn sweep(cfg: &RunConfig, events: &[Event], label: &str) {
    let activations = Rc::new(Cell::new(0));
    let mut shard = Shard::new(cfg).expect("shard");
    shard.add_observer(Box::new(InvariantSweep {
        activations: Rc::clone(&activations),
    }));
    shard
        .step_block(&events.iter().copied().collect())
        .expect("replay");
    shard.db().check_invariants();
    assert!(activations.get() > 0, "{label}: the trigger never fired");
}

#[test]
fn tree_workload_keeps_invariants_under_every_policy() {
    for seed in SEEDS {
        let cfg = RunConfig::small().with_seed(seed);
        let events: Vec<Event> = SyntheticWorkload::new(cfg.workload.clone())
            .expect("valid params")
            .collect();
        for policy in PolicyKind::ALL {
            sweep(
                &cfg.clone().with_policy(policy),
                &events,
                &format!("tree, {policy}, seed {seed}"),
            );
        }
    }
}

#[test]
fn assembly_workload_keeps_invariants_under_every_policy() {
    for seed in SEEDS {
        let events: Vec<Event> = AssemblyWorkload::new(AssemblyParams::small().with_seed(seed))
            .expect("valid params")
            .collect();
        // Composite churn is allocation-paced, not overwrite-paced.
        let cfg = RunConfig::small()
            .with_seed(seed)
            .with_trigger(Trigger::AllocationBytes(Bytes::from_kib(8)));
        for policy in PolicyKind::ALL {
            sweep(
                &cfg.clone().with_policy(policy),
                &events,
                &format!("assembly, {policy}, seed {seed}"),
            );
        }
    }
}
