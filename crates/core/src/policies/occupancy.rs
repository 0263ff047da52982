//! `Occupancy` (extension, not in the paper): collect the partition with
//! the most allocated bytes.
//!
//! A cheap structural heuristic needing no write barrier at all: the
//! fullest partition has the most *potential* garbage. The ablation benches
//! use it to separate "knowing where writes happen" from "knowing where
//! data is".

use crate::policy::{PolicyKind, SelectionPolicy};
use pgc_odb::{BarrierEvent, BarrierObserver, Database};
use pgc_types::PartitionId;

/// The fullest-partition policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct Occupancy;

impl Occupancy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl BarrierObserver for Occupancy {
    // Purely structural: everything it needs is in the `select`-time view.
    fn on_event(&mut self, _event: &BarrierEvent) {}
}

impl SelectionPolicy for Occupancy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Occupancy
    }

    fn select(&mut self, db: &Database) -> Option<PartitionId> {
        // fallback_victim is exactly "most used bytes, ties low".
        crate::policy::fallback_victim(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_types::{Bytes, DbConfig, SlotId};

    #[test]
    fn picks_fullest_partition() {
        let cfg = DbConfig::default()
            .with_page_size(1024)
            .with_partition_pages(4);
        let mut db = Database::new(cfg).unwrap();
        let r = db.create_root(Bytes(100), 2).unwrap();
        let (spill, _) = db.create_object(Bytes(4000), 2, r, SlotId(0)).unwrap();
        let spill_p = db.objects().get(spill).unwrap().addr.partition;
        let mut p = Occupancy::new();
        assert_eq!(p.select(&db), Some(spill_p));
    }
}
