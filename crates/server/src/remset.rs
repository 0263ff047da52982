//! The inter-shard remembered set: cross-shard references as barrier-bus
//! remset traffic.
//!
//! Within one database, inter-partition pointers live in per-partition
//! remembered sets maintained by the write barrier. The sharded runtime
//! reproduces that design one level up: a reference from one client
//! stream's object graph to another stream's object is recorded in the
//! *target* stream's [`Links`], keyed by the target oid, exactly like a
//! remset entry owned by the pointed-into partition.
//!
//! Each session owns its `Links`, and only its home worker touches them:
//! a `Link` is routed to the target's home shard, and a session's events
//! never leave it. Maintenance flows through the existing barrier event
//! bus rather than a new protocol: each session carries a
//! [`RemsetBridge`] bystander observer which applies the session's
//! [`BarrierEvent::ObjectReclaimed`] and [`BarrierEvent::ObjectCopied`]
//! events to its own `Links` — reclaims clean the entry, copies update its
//! recorded partition. The bridge is an ordinary bus bystander: it reads
//! the same stream every policy sees and touches nothing in the session,
//! so carrying it cannot perturb a run.
//!
//! Cross-shard links are deliberately *weak*: they account for the
//! reference but do not pin the target object's liveness. A strong link
//! would make one stream's collection decisions depend on another
//! stream's mutations — and with it, on shard placement and thread
//! timing. Weak links keep every session bit-identical to a dedicated
//! single-database run, which is the property the whole runtime is built
//! around (the paper's policies are only comparable under deterministic
//! replay).
//!
//! Every counter is a per-stream sum, so the fleet-wide [`RemsetStats`]
//! folded at shutdown is the same at any shard count.

use crate::router::StreamId;
use pgc_odb::{BarrierEvent, BarrierObserver};
use pgc_types::{Oid, PartitionId};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::AddAssign;
use std::rc::Rc;

/// One target object's cross-shard inbound references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkRecord {
    /// Streams holding a reference to the target object.
    pub sources: BTreeSet<StreamId>,
    /// The partition holding the target object, tracked across
    /// collection-driven relocations.
    pub partition: PartitionId,
}

/// Counters over the life of one stream's [`Links`], or summed over every
/// stream in [`crate::FleetOutcome::remset`]. All four are deterministic
/// for a given set of client streams and link calls, at any shard count:
/// they are driven only by the caller's link sequence and by per-session
/// event streams, never by placement or thread timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemsetStats {
    /// Distinct `(source, target, oid)` links accepted. Re-registering an
    /// existing link is idempotent and counted once.
    pub registered: u64,
    /// Links removed because the target object was reclaimed.
    pub cleaned: u64,
    /// Partition updates applied because a linked target was evacuated.
    pub relocated: u64,
    /// Link attempts rejected because the target object was unknown or
    /// already dead.
    pub dangling: u64,
}

impl AddAssign for RemsetStats {
    fn add_assign(&mut self, other: Self) {
        self.registered += other.registered;
        self.cleaned += other.cleaned;
        self.relocated += other.relocated;
        self.dangling += other.dangling;
    }
}

/// One stream's inbound cross-shard links and their counters: the part of
/// the remset its session owns.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Links {
    records: BTreeMap<Oid, LinkRecord>,
    stats: RemsetStats,
}

impl Links {
    /// Records that `source` holds a reference to `oid`, currently
    /// residing in `partition`. Returns `true` when the link is new;
    /// re-registration is idempotent.
    pub(crate) fn register(&mut self, source: StreamId, oid: Oid, partition: PartitionId) -> bool {
        let record = self.records.entry(oid).or_insert_with(|| LinkRecord {
            sources: BTreeSet::new(),
            partition,
        });
        let fresh = record.sources.insert(source);
        if fresh {
            self.stats.registered += 1;
        }
        fresh
    }

    /// Counts a link attempt whose target object could not be resolved.
    pub(crate) fn note_dangling(&mut self) {
        self.stats.dangling += 1;
    }

    /// Removes every link into `oid` — the object was reclaimed. Each
    /// removed source counts toward `cleaned`.
    fn clean(&mut self, oid: Oid) {
        if let Some(record) = self.records.remove(&oid) {
            self.stats.cleaned += record.sources.len() as u64;
        }
    }

    /// Re-points every link into `oid` at the partition the object was
    /// evacuated to.
    fn relocate(&mut self, oid: Oid, to: PartitionId) {
        if let Some(record) = self.records.get_mut(&oid) {
            record.partition = to;
            self.stats.relocated += 1;
        }
    }

    /// The counters so far.
    pub fn stats(&self) -> RemsetStats {
        self.stats
    }

    /// The live links, in ascending oid order.
    pub fn records(&self) -> Vec<(Oid, LinkRecord)> {
        self.records
            .iter()
            .map(|(&oid, record)| (oid, record.clone()))
            .collect()
    }
}

/// The bus bystander that keeps one session's [`Links`] honest.
///
/// Registered on the session's barrier bus at open, before any event
/// flows, it applies the session's reclaim and copy events to the links
/// it shares with the worker's link handler.
pub struct RemsetBridge {
    links: Rc<RefCell<Links>>,
}

impl RemsetBridge {
    /// A bridge applying its session's reclaims and relocations to `links`.
    pub fn new(links: Rc<RefCell<Links>>) -> Self {
        Self { links }
    }
}

impl BarrierObserver for RemsetBridge {
    fn on_event(&mut self, event: &BarrierEvent) {
        match *event {
            BarrierEvent::ObjectReclaimed { oid, .. } => self.links.borrow_mut().clean(oid),
            BarrierEvent::ObjectCopied { oid, to, .. } => self.links.borrow_mut().relocate(oid, to),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: PartitionId = PartitionId(0);
    const P1: PartitionId = PartitionId(1);

    #[test]
    fn registration_is_idempotent_per_source() {
        let mut links = Links::default();
        assert!(links.register(StreamId(1), Oid(7), P0));
        assert!(!links.register(StreamId(1), Oid(7), P0));
        assert!(links.register(StreamId(3), Oid(7), P0));
        assert_eq!(links.stats().registered, 2);
        let records = links.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].1.sources.len(), 2);
    }

    #[test]
    fn bridge_cleans_on_reclaim_and_tracks_copies() {
        let links = Rc::new(RefCell::new(Links::default()));
        links.borrow_mut().register(StreamId(1), Oid(7), P0);
        links.borrow_mut().register(StreamId(5), Oid(7), P0);
        let mut bridge = RemsetBridge::new(Rc::clone(&links));

        bridge.on_event(&BarrierEvent::ObjectCopied {
            oid: Oid(7),
            from: P0,
            to: P1,
            size: pgc_types::Bytes(64),
        });
        let records = links.borrow().records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].1.partition, P1);

        bridge.on_event(&BarrierEvent::ObjectReclaimed {
            oid: Oid(7),
            partition: P1,
            size: pgc_types::Bytes(64),
        });
        assert!(links.borrow().records().is_empty());
        let stats = links.borrow().stats();
        assert_eq!(stats.cleaned, 2, "both sources cleaned");
        assert_eq!(stats.relocated, 1);
    }

    #[test]
    fn events_for_unlinked_objects_are_ignored() {
        let links = Rc::new(RefCell::new(Links::default()));
        let mut bridge = RemsetBridge::new(Rc::clone(&links));
        bridge.on_event(&BarrierEvent::ObjectReclaimed {
            oid: Oid(9),
            partition: P0,
            size: pgc_types::Bytes(8),
        });
        assert_eq!(links.borrow().stats(), RemsetStats::default());
        // A registration through the worker's handle is seen by the same
        // bridge's very next event.
        links.borrow_mut().register(StreamId(1), Oid(9), P0);
        bridge.on_event(&BarrierEvent::ObjectReclaimed {
            oid: Oid(9),
            partition: P0,
            size: pgc_types::Bytes(8),
        });
        assert_eq!(links.borrow().stats().cleaned, 1);
        assert!(links.borrow().records().is_empty());
    }
}
