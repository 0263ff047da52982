//! The inter-shard remembered set: cross-shard references as barrier-bus
//! remset traffic.
//!
//! Within one database, inter-partition pointers live in per-partition
//! remembered sets maintained by the write barrier. The sharded runtime
//! reproduces that design one level up: a reference from one client
//! stream's object graph to another stream's object is recorded here,
//! keyed by the *target* side `(stream, oid)`, exactly like a remset entry
//! keyed by the pointed-into partition.
//!
//! Maintenance flows through the existing barrier event bus rather than a
//! new protocol: each session carries a [`RemsetBridge`] bystander
//! observer which forwards the session's
//! [`BarrierEvent::ObjectReclaimed`] and [`BarrierEvent::ObjectCopied`]
//! events into the shared table — reclaims clean the entry, copies update
//! its recorded partition. The bridge is an ordinary bus bystander: it
//! reads the same stream every policy sees and touches nothing in the
//! session, so carrying it cannot perturb a run.
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
//! The table is **striped**: entries spread over
//! [`REMSET_STRIPES`] independently locked shards of the map, selected by
//! [`pgc_types::fast_hash_u64`] of the *target* stream. Every operation a
//! [`RemsetBridge`] performs is keyed by its own session's stream, so
//! bridges riding different streams take different stripes and never
//! contend — the one global mutex this table used to be disappears from
//! the workers' hot paths. Counters accumulate per stripe and
//! [`InterShardRemset::stats`] folds them in ascending stripe order;
//! every field is a sum, so the fold is deterministic for a given set of
//! link calls and event streams at any shard count and any interleaving.
//!
//! Nearly every event a bridge forwards concerns an object nobody linked
//! to, and most stripes never hold a record at all. Each stripe therefore
//! carries a flag, set by the first registration into it, and a bridge
//! whose stripe's flag is still clear drops the event without taking the
//! lock.

use crate::router::StreamId;
use pgc_odb::{BarrierEvent, BarrierObserver};
use pgc_types::{fast_hash_u64, Oid, PartitionId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Lock stripes the table spreads over (a power of two so stripe selection
/// is a mask).
pub const REMSET_STRIPES: usize = 16;

/// One target object's cross-shard inbound references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkRecord {
    /// Streams holding a reference to the target object.
    pub sources: BTreeSet<StreamId>,
    /// The partition holding the target object, tracked across
    /// collection-driven relocations.
    pub partition: PartitionId,
}

/// Counters over the life of the table. All four are deterministic for a
/// given set of client streams and link calls, at any shard count: they
/// are driven only by the caller's link sequence and by per-session event
/// streams, never by placement or thread timing.
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

#[derive(Debug, Default)]
struct RemsetInner {
    links: BTreeMap<(StreamId, Oid), LinkRecord>,
    stats: RemsetStats,
}

/// One independently locked share of the table.
#[derive(Debug, Default)]
struct Stripe {
    /// Set, and never cleared, by the first [`InterShardRemset::register`]
    /// into this stripe: while it reads `false` the map is empty and
    /// [`InterShardRemset::clean`] / [`InterShardRemset::relocate`] have
    /// nothing to find.
    ///
    /// `register` stores it (`Release`) while holding `inner`'s lock; the
    /// bridge paths load it (`Acquire`). A `true` read is followed by
    /// taking the lock, which is what orders the map's contents. A `false`
    /// read is exact for the calling bridge's own stream: a target's
    /// records are inserted only by its home worker — the thread the
    /// bridge runs on — so none of its own registrations can be missed.
    /// Another target on the same stripe registering concurrently can only
    /// flip the flag early, which costs a lock and a miss, as before.
    ever_linked: AtomicBool,
    inner: Mutex<RemsetInner>,
}

/// The shared cross-shard reference table, striped by target stream.
///
/// One instance per server. Every operation is keyed by a target stream,
/// which hashes to one of [`REMSET_STRIPES`] independently locked map
/// shards — bystander bridges on different streams touch different
/// stripes, so they never serialize on each other. Lock scope stays a
/// single entry update.
#[derive(Debug)]
pub struct InterShardRemset {
    stripes: Vec<Stripe>,
}

impl Default for InterShardRemset {
    fn default() -> Self {
        Self::new()
    }
}

impl InterShardRemset {
    /// An empty table.
    pub fn new() -> Self {
        Self {
            stripes: (0..REMSET_STRIPES).map(|_| Stripe::default()).collect(),
        }
    }

    /// The stripe holding every entry for `target`'s graph.
    fn stripe(&self, target: StreamId) -> &Stripe {
        &self.stripes[fast_hash_u64(target.0) as usize & (REMSET_STRIPES - 1)]
    }

    /// Records that `source` holds a reference to `oid` in `target`'s
    /// graph, currently residing in `partition`. Returns `true` when the
    /// link is new; re-registration is idempotent.
    pub fn register(
        &self,
        source: StreamId,
        target: StreamId,
        oid: Oid,
        partition: PartitionId,
    ) -> bool {
        let stripe = self.stripe(target);
        let mut inner = stripe.inner.lock().expect("remset lock");
        stripe.ever_linked.store(true, Ordering::Release);
        let entry = inner
            .links
            .entry((target, oid))
            .or_insert_with(|| LinkRecord {
                sources: BTreeSet::new(),
                partition,
            });
        let fresh = entry.sources.insert(source);
        if fresh {
            inner.stats.registered += 1;
        }
        fresh
    }

    /// Counts a link attempt into `target`'s graph whose target object
    /// could not be resolved.
    pub fn note_dangling(&self, target: StreamId) {
        let mut inner = self.stripe(target).inner.lock().expect("remset lock");
        inner.stats.dangling += 1;
    }

    /// Removes every link into `(target, oid)` — the object was
    /// reclaimed. Each removed source counts toward `cleaned`.
    fn clean(&self, target: StreamId, oid: Oid) {
        let stripe = self.stripe(target);
        if !stripe.ever_linked.load(Ordering::Acquire) {
            return;
        }
        let mut inner = stripe.inner.lock().expect("remset lock");
        if let Some(record) = inner.links.remove(&(target, oid)) {
            inner.stats.cleaned += record.sources.len() as u64;
        }
    }

    /// Re-points every link into `(target, oid)` at the partition the
    /// object was evacuated to.
    fn relocate(&self, target: StreamId, oid: Oid, to: PartitionId) {
        let stripe = self.stripe(target);
        if !stripe.ever_linked.load(Ordering::Acquire) {
            return;
        }
        let mut inner = stripe.inner.lock().expect("remset lock");
        if let Some(record) = inner.links.get_mut(&(target, oid)) {
            record.partition = to;
            inner.stats.relocated += 1;
        }
    }

    /// Current counters: per-stripe stats folded in ascending stripe
    /// order. Each field is a sum, so the fold is independent of which
    /// stripe any entry landed on.
    pub fn stats(&self) -> RemsetStats {
        let mut out = RemsetStats::default();
        for stripe in &self.stripes {
            let inner = stripe.inner.lock().expect("remset lock");
            out.registered += inner.stats.registered;
            out.cleaned += inner.stats.cleaned;
            out.relocated += inner.stats.relocated;
            out.dangling += inner.stats.dangling;
        }
        out
    }

    /// Live links into `target`'s graph, in ascending oid order (all of a
    /// target's entries live on one stripe).
    pub fn links_into(&self, target: StreamId) -> Vec<(Oid, LinkRecord)> {
        let inner = self.stripe(target).inner.lock().expect("remset lock");
        inner
            .links
            .range((target, Oid(0))..=(target, Oid(u64::MAX)))
            .map(|(&(_, oid), record)| (oid, record.clone()))
            .collect()
    }

    /// Total live links across the table, folded in stripe order.
    pub fn live_links(&self) -> u64 {
        self.stripes
            .iter()
            .map(|stripe| {
                let inner = stripe.inner.lock().expect("remset lock");
                inner
                    .links
                    .values()
                    .map(|r| r.sources.len() as u64)
                    .sum::<u64>()
            })
            .sum()
    }
}

/// The bus bystander that keeps the shared table honest for one session.
///
/// Registered on the session's barrier bus at open, before any event
/// flows, it forwards the session's reclaim and copy events into the
/// shared [`InterShardRemset`] under the session's stream id.
pub struct RemsetBridge {
    stream: StreamId,
    remset: Arc<InterShardRemset>,
}

impl RemsetBridge {
    /// A bridge publishing `stream`'s reclaims and relocations.
    pub fn new(stream: StreamId, remset: Arc<InterShardRemset>) -> Self {
        Self { stream, remset }
    }
}

impl BarrierObserver for RemsetBridge {
    fn on_event(&mut self, event: &BarrierEvent) {
        match *event {
            BarrierEvent::ObjectReclaimed { oid, .. } => self.remset.clean(self.stream, oid),
            BarrierEvent::ObjectCopied { oid, to, .. } => {
                self.remset.relocate(self.stream, oid, to)
            }
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
        let remset = InterShardRemset::new();
        assert!(remset.register(StreamId(1), StreamId(2), Oid(7), P0));
        assert!(!remset.register(StreamId(1), StreamId(2), Oid(7), P0));
        assert!(remset.register(StreamId(3), StreamId(2), Oid(7), P0));
        assert_eq!(remset.stats().registered, 2);
        assert_eq!(remset.live_links(), 2);
    }

    #[test]
    fn bridge_cleans_on_reclaim_and_tracks_copies() {
        let remset = Arc::new(InterShardRemset::new());
        remset.register(StreamId(1), StreamId(2), Oid(7), P0);
        remset.register(StreamId(5), StreamId(2), Oid(7), P0);
        let mut bridge = RemsetBridge::new(StreamId(2), Arc::clone(&remset));

        bridge.on_event(&BarrierEvent::ObjectCopied {
            oid: Oid(7),
            from: P0,
            to: P1,
            size: pgc_types::Bytes(64),
        });
        let links = remset.links_into(StreamId(2));
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].1.partition, P1);

        bridge.on_event(&BarrierEvent::ObjectReclaimed {
            oid: Oid(7),
            partition: P1,
            size: pgc_types::Bytes(64),
        });
        assert!(remset.links_into(StreamId(2)).is_empty());
        let stats = remset.stats();
        assert_eq!(stats.cleaned, 2, "both sources cleaned");
        assert_eq!(stats.relocated, 1);
    }

    /// Parallel register/clean/relocate across every stripe: the striping
    /// must be invisible in the folded counters. Registrations from N
    /// threads race on shared entries (idempotency makes the fresh count
    /// exact anyway); cleans and relocations then partition the key space
    /// per thread so the expected totals are exact, not just bounded.
    #[test]
    fn striped_table_sums_exactly_under_parallel_mutation() {
        const THREADS: u64 = 8;
        const TARGETS: u64 = 2 * REMSET_STRIPES as u64; // every stripe hit
        const OIDS: u64 = 32;
        let remset = Arc::new(InterShardRemset::new());

        // Phase 1: every thread registers every (target, oid) under its
        // own source — twice, so half the attempts race on idempotency —
        // and notes a few dangling misses.
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let remset = Arc::clone(&remset);
                scope.spawn(move || {
                    for target in 0..TARGETS {
                        for oid in 0..OIDS {
                            for _ in 0..2 {
                                remset.register(StreamId(1000 + t), StreamId(target), Oid(oid), P0);
                            }
                        }
                        remset.note_dangling(StreamId(target));
                    }
                });
            }
        });
        let stats = remset.stats();
        assert_eq!(stats.registered, THREADS * TARGETS * OIDS);
        assert_eq!(stats.dangling, THREADS * TARGETS);
        assert_eq!(remset.live_links(), THREADS * TARGETS * OIDS);

        // Phase 2: threads partition the targets; each relocates its even
        // oids then cleans everything it owns — parallel across stripes,
        // deterministic within a partition.
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let remset = Arc::clone(&remset);
                scope.spawn(move || {
                    for target in (t..TARGETS).step_by(THREADS as usize) {
                        for oid in (0..OIDS).step_by(2) {
                            remset.relocate(StreamId(target), Oid(oid), P1);
                        }
                        for oid in 0..OIDS {
                            remset.clean(StreamId(target), Oid(oid));
                        }
                    }
                });
            }
        });
        let stats = remset.stats();
        assert_eq!(stats.relocated, TARGETS * OIDS / 2);
        assert_eq!(stats.cleaned, THREADS * TARGETS * OIDS);
        assert_eq!(remset.live_links(), 0);
        for target in 0..TARGETS {
            assert!(remset.links_into(StreamId(target)).is_empty());
        }
    }

    #[test]
    fn events_for_unlinked_objects_are_ignored() {
        let remset = Arc::new(InterShardRemset::new());
        let mut bridge = RemsetBridge::new(StreamId(2), Arc::clone(&remset));
        bridge.on_event(&BarrierEvent::ObjectReclaimed {
            oid: Oid(9),
            partition: P0,
            size: pgc_types::Bytes(8),
        });
        assert_eq!(remset.stats(), RemsetStats::default());
        // The stripe held nothing so far; the first registration into it
        // must be seen by the same bridge's very next event.
        remset.register(StreamId(1), StreamId(2), Oid(9), P0);
        bridge.on_event(&BarrierEvent::ObjectReclaimed {
            oid: Oid(9),
            partition: P0,
            size: pgc_types::Bytes(8),
        });
        assert_eq!(remset.stats().cleaned, 1);
        assert!(remset.links_into(StreamId(2)).is_empty());
    }
}
