//! `MostGarbage`: the oracle policy (Sec. 3.1).
//!
//! "Using an oracle (provided by our simulation system), this policy always
//! correctly selects the partition that contains the most garbage." It is
//! near-optimal but not implementable — and, as the paper notes, not even
//! globally optimal: it greedily takes the best partition *now*, unaware
//! that another partition is about to fill with garbage.
//!
//! The oracle traversal costs no simulated I/O.

use crate::policy::{fallback_victim, PolicyKind, SelectionPolicy};
use pgc_odb::oracle::OracleScratch;
use pgc_odb::{oracle, BarrierEvent, BarrierObserver, Database};
use pgc_types::PartitionId;

/// The oracle-backed near-optimal policy.
///
/// Owns its [`OracleScratch`] so that the per-trigger reachability pass —
/// the simulator's hottest loop under this policy — reuses the same working
/// memory for the entire run instead of allocating three hash sets each
/// time.
#[derive(Debug, Clone, Default)]
pub struct MostGarbage {
    scratch: OracleScratch,
}

impl MostGarbage {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl BarrierObserver for MostGarbage {
    // The oracle needs no barrier hints: its knowledge comes from the
    // `select`-time database view.
    fn on_event(&mut self, _event: &BarrierEvent) {}
}

impl SelectionPolicy for MostGarbage {
    fn kind(&self) -> PolicyKind {
        PolicyKind::MostGarbage
    }

    fn select(&mut self, db: &Database) -> Option<PartitionId> {
        let report = oracle::analyze_with(db, &mut self.scratch);
        report
            .most_garbage_partition(db.empty_partition())
            // With zero garbage anywhere, still collect something so every
            // policy performs the same number of collections (the paper's
            // fairness condition).
            .or_else(|| fallback_victim(db))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_types::{Bytes, DbConfig, SlotId};

    #[test]
    fn picks_the_partition_with_most_garbage() {
        let cfg = DbConfig::default()
            .with_page_size(1024)
            .with_partition_pages(8);
        let mut db = Database::new(cfg).unwrap();
        let r = db.create_root(Bytes(100), 3).unwrap();
        // A garbage-heavy spill partition.
        let (spill, _) = db.create_object(Bytes(8100), 2, r, SlotId(0)).unwrap();
        let spill_p = db.objects().get(spill).unwrap().addr.partition;
        db.write_slot(r, SlotId(0), None).unwrap(); // 8100 bytes die
                                                    // A small bit of garbage at home.
        let (tiny, _) = db.create_object(Bytes(100), 2, r, SlotId(1)).unwrap();
        let home = db.objects().get(tiny).unwrap().addr.partition;
        db.write_slot(r, SlotId(1), None).unwrap();
        assert_ne!(spill_p, home);
        let mut p = MostGarbage::new();
        assert_eq!(p.select(&db), Some(spill_p));
    }

    #[test]
    fn falls_back_when_no_garbage_exists() {
        let cfg = DbConfig::default()
            .with_page_size(1024)
            .with_partition_pages(8);
        let mut db = Database::new(cfg).unwrap();
        let r = db.create_root(Bytes(100), 2).unwrap();
        let home = db.objects().get(r).unwrap().addr.partition;
        let mut p = MostGarbage::new();
        assert_eq!(p.select(&db), Some(home));
    }

    #[test]
    fn empty_database_yields_none() {
        let db = Database::new(
            DbConfig::default()
                .with_page_size(1024)
                .with_partition_pages(8),
        )
        .unwrap();
        let mut p = MostGarbage::new();
        assert_eq!(p.select(&db), None);
    }
}
