//! `Random`: pick a uniformly random partition (Sec. 3.1).
//!
//! Included "to determine the extent to which clever heuristics improve or
//! degrade the performance of garbage collection". Selection is uniform
//! over collectable partitions that have ever been allocated into; picking
//! a fresh partition would be a guaranteed no-op collection.

use crate::{BarrierEvent, BarrierObserver, Database, PolicyKind, SelectionPolicy};
use pgc_types::{PartitionId, Result, SimRng, Words};

/// The random-selection baseline.
#[derive(Debug, Clone)]
pub(crate) struct Random {
    rng: SimRng,
}

impl Random {
    /// Creates the policy with its own seeded generator.
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            rng: SimRng::new(seed),
        }
    }
}

impl BarrierObserver for Random {
    // Random consumes no hints; its generator advances only at `select`.
    fn on_event(&mut self, _event: &BarrierEvent) {}
}

impl SelectionPolicy for Random {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Random
    }

    fn select(&mut self, db: &Database) -> Option<PartitionId> {
        let candidates: Vec<PartitionId> = db
            .collectable_partitions()
            .into_iter()
            .filter(|&id| {
                db.partitions()
                    .partition(id)
                    .map(|p| !p.is_fresh())
                    .unwrap_or(false)
            })
            .collect();
        if candidates.is_empty() {
            return None;
        }
        Some(*self.rng.pick(&candidates))
    }

    fn save(&self, out: &mut Vec<u64>) {
        self.rng.save(out);
    }

    fn load(&mut self, words: &mut Words<'_>) -> Result<()> {
        self.rng.load(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_types::{Bytes, DbConfig, SlotId};

    fn populated_db() -> Database {
        let cfg = DbConfig::default()
            .with_page_size(1024)
            .with_partition_pages(4);
        let mut db = Database::new(cfg).unwrap();
        let r = db.create_root(Bytes(100), 2).unwrap();
        db.create_object(Bytes(4000), 2, r, SlotId(0)).unwrap();
        db.create_object(Bytes(4000), 2, r, SlotId(1)).unwrap();
        db
    }

    #[test]
    fn empty_database_yields_none() {
        let db = Database::new(
            DbConfig::default()
                .with_page_size(1024)
                .with_partition_pages(4),
        )
        .unwrap();
        let mut p = Random::new(1);
        assert_eq!(p.select(&db), None);
    }

    #[test]
    fn never_picks_the_empty_partition_and_eventually_covers_all() {
        let db = populated_db();
        let mut p = Random::new(42);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let v = p.select(&db).unwrap();
            assert_ne!(v, db.empty_partition());
            seen.insert(v);
        }
        // Three used partitions exist; uniform sampling hits all of them.
        assert!(seen.len() >= 2, "saw {seen:?}");
    }

    #[test]
    fn same_seed_same_choices() {
        let db = populated_db();
        let mut a = Random::new(7);
        let mut b = Random::new(7);
        for _ in 0..20 {
            assert_eq!(a.select(&db), b.select(&db));
        }
    }
}
