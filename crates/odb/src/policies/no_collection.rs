//! `NoCollection`: never collect (Sec. 3.1).
//!
//! Establishes the space upper bound: when more room is needed the database
//! simply grows. The paper also uses it to measure how much garbage
//! collection improves locality — and to show that a *bad* selection policy
//! can cost more total I/O than collecting nothing at all.

use crate::{BarrierEvent, BarrierObserver, Database, PolicyKind, SelectionPolicy};
use pgc_types::PartitionId;

/// The never-collect policy.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NoCollection;

impl NoCollection {
    /// Creates the policy.
    pub(crate) fn new() -> Self {
        Self
    }
}

impl BarrierObserver for NoCollection {
    // Ignores everything — including `CollectionCompleted` events, which
    // it can legitimately receive as a *shadow* scoreboard riding a
    // collecting driver policy's event stream.
    fn on_event(&mut self, _event: &BarrierEvent) {}
}

impl SelectionPolicy for NoCollection {
    fn kind(&self) -> PolicyKind {
        PolicyKind::NoCollection
    }

    fn select(&mut self, _db: &Database) -> Option<PartitionId> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_types::DbConfig;

    #[test]
    fn never_selects() {
        let db = Database::new(
            DbConfig::default()
                .with_page_size(1024)
                .with_partition_pages(4),
        )
        .unwrap();
        let mut p = NoCollection::new();
        assert_eq!(p.select(&db), None);
        assert_eq!(p.kind(), PolicyKind::NoCollection);
    }
}
