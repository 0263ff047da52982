//! `RoundRobin` (extension, not in the paper): collect partitions in
//! cyclic order.
//!
//! A natural "fair" baseline between `Random` and the counter policies:
//! every partition is eventually collected, none twice before the others.
//! Used by the ablation benches to ask how much of `Random`'s performance
//! is just coverage.

use crate::{BarrierEvent, BarrierObserver, Database, PolicyKind, SelectionPolicy};
use pgc_types::{PartitionId, Result, Words};

/// The cyclic-order policy.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RoundRobin {
    next: u32,
}

impl RoundRobin {
    /// Creates the policy.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl BarrierObserver for RoundRobin {
    // Position advances only at `select`; barrier traffic is irrelevant.
    fn on_event(&mut self, _event: &BarrierEvent) {}
}

impl SelectionPolicy for RoundRobin {
    fn kind(&self) -> PolicyKind {
        PolicyKind::RoundRobin
    }

    fn select(&mut self, db: &Database) -> Option<PartitionId> {
        let n = db.partition_count() as u32;
        if n == 0 {
            return None;
        }
        // Scan at most one full cycle for a collectable, non-fresh victim.
        for _ in 0..n {
            // Reduced first: a loaded cursor is whatever a file said.
            let candidate = PartitionId(self.next % n);
            self.next = (candidate.0 + 1) % n;
            if candidate == db.empty_partition() {
                continue;
            }
            let fresh = db
                .partitions()
                .partition(candidate)
                .map(|p| p.is_fresh())
                .unwrap_or(true);
            if !fresh {
                return Some(candidate);
            }
        }
        None
    }

    fn save(&self, out: &mut Vec<u64>) {
        out.push(u64::from(self.next));
    }

    fn load(&mut self, words: &mut Words<'_>) -> Result<()> {
        self.next = words.word_u32()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_types::{Bytes, DbConfig, SlotId};

    #[test]
    fn cycles_through_used_partitions() {
        let cfg = DbConfig::default()
            .with_page_size(1024)
            .with_partition_pages(4);
        let mut db = Database::new(cfg).unwrap();
        let r = db.create_root(Bytes(100), 2).unwrap();
        db.create_object(Bytes(4000), 2, r, SlotId(0)).unwrap();
        db.create_object(Bytes(4000), 2, r, SlotId(1)).unwrap();
        // Partitions now: P0 empty, P1..P3 used.
        let mut p = RoundRobin::new();
        let picks: Vec<_> = (0..6).map(|_| p.select(&db).unwrap().index()).collect();
        assert_eq!(picks, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn empty_database_yields_none() {
        let db = Database::new(
            DbConfig::default()
                .with_page_size(1024)
                .with_partition_pages(4),
        )
        .unwrap();
        let mut p = RoundRobin::new();
        assert_eq!(p.select(&db), None);
    }
}
