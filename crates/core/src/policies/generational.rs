//! `Generational` (extension): the language-system heuristic transplanted.
//!
//! Programming-language collectors overwhelmingly segregate by age and
//! collect the *youngest* objects, because "objects of similar age usually
//! exhibit similar lifetimes" and most die young. The paper's background
//! section argues no such universal criterion has emerged for object
//! databases; this policy lets the benches test that argument directly:
//! collect the partition whose resident objects have the youngest mean
//! allocation time.
//!
//! Implementability note: a real system would keep a per-partition running
//! sum of allocation stamps (two counters per partition, maintained at
//! allocation and collection time). The simulation computes the mean from
//! the object table, which is equivalent in outcome; oids are handed out in
//! allocation order, so an object's oid is its allocation stamp.

use crate::policy::{PolicyKind, SelectionPolicy};
use pgc_odb::{BarrierEvent, BarrierObserver, Database};
use pgc_types::PartitionId;

/// The youngest-partition policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct Generational;

impl Generational {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl BarrierObserver for Generational {
    // Mean birth is recomputed from the object table at `select`; a real
    // system would instead maintain two counters per partition from
    // `Allocation`/`ObjectCopied`/`ObjectReclaimed` events.
    fn on_event(&mut self, _event: &BarrierEvent) {}
}

impl SelectionPolicy for Generational {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Generational
    }

    fn select(&mut self, db: &Database) -> Option<PartitionId> {
        let objects = db.objects();
        let mut best: Option<(PartitionId, f64)> = None;
        for id in db.collectable_partitions() {
            let mut count = 0u64;
            let mut sum = 0u128;
            for oid in objects.members(id) {
                sum += oid.index() as u128;
                count += 1;
            }
            if count == 0 {
                continue;
            }
            let mean_birth = sum as f64 / count as f64;
            match best {
                // Higher mean birth = younger partition.
                Some((_, b)) if b >= mean_birth => {}
                _ => best = Some((id, mean_birth)),
            }
        }
        best.map(|(p, _)| p)
            .or_else(|| crate::policy::fallback_victim(db))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_types::{Bytes, DbConfig, SlotId};

    #[test]
    fn picks_the_partition_with_youngest_mean_allocation() {
        let cfg = DbConfig::default()
            .with_page_size(1024)
            .with_partition_pages(4);
        let mut db = Database::new(cfg).unwrap();
        // Old objects fill P1 first...
        let r = db.create_root(Bytes(100), 3).unwrap();
        db.create_object(Bytes(1500), 2, r, SlotId(0)).unwrap();
        db.create_object(Bytes(1500), 2, r, SlotId(1)).unwrap();
        // ...then a young spill lands in P2.
        let (young, _) = db.create_object(Bytes(3000), 2, r, SlotId(2)).unwrap();
        let young_p = db.objects().get(young).unwrap().addr.partition;
        assert_ne!(young_p, PartitionId(1));
        let mut p = Generational::new();
        assert_eq!(p.select(&db), Some(young_p));
    }

    #[test]
    fn empty_database_yields_none() {
        let db = Database::new(
            DbConfig::default()
                .with_page_size(1024)
                .with_partition_pages(4),
        )
        .unwrap();
        let mut p = Generational::new();
        assert_eq!(p.select(&db), None);
    }
}
