//! What more than one integration test shares.

use pgc::odb::{BarrierEvent, BarrierObserver, Database};
use std::cell::Cell;
use std::rc::Rc;

/// Checks the whole database at each of the first `checks` activations
/// (the pre-collection state: everything the mutator and the previous
/// collection left behind), and counts every activation.
pub struct InvariantSweep {
    pub activations: Rc<Cell<u64>>,
    pub checks: u64,
}

impl BarrierObserver for InvariantSweep {
    fn on_event(&mut self, _event: &BarrierEvent) {}

    fn on_trigger(&mut self, db: &Database) {
        if self.activations.get() < self.checks {
            db.check_invariants();
        }
        self.activations.set(self.activations.get() + 1);
    }
}
