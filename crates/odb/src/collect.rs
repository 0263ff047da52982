//! Breadth-first copying collection of one partition (Sec. 4.1).
//!
//! The mechanism, identical for every selection policy:
//!
//! 1. The *victim* partition's roots are gathered: database roots resident
//!    in the victim, then every target of a remembered inter-partition
//!    pointer into the victim. Remembered targets are treated as live even
//!    if their rememberers are garbage elsewhere — that conservatism is the
//!    *nepotism* the paper measures in Sec. 6.5.
//! 2. Iterating over the roots one at a time, live objects are copied
//!    breadth-first into the designated empty partition. Intra-partition
//!    edges are traversed; pointers leaving the victim are not. Copying
//!    compacts: internal fragmentation in the victim is eliminated.
//! 3. Remembered pointers to each evacuated object are *forwarded*: the
//!    remembered-set entries are re-keyed to the target partition and the
//!    pages holding the source pointers are dirtied (collector I/O).
//! 4. Whatever remains in the victim is garbage. For each dead object in
//!    the victim's out-of-partition set, the locations of its pointers are
//!    removed from the remembered sets they point into — the cleanup rule
//!    that stops dead pointers from unnecessarily preserving objects in
//!    later collections of other partitions.
//! 5. The victim's buffered pages are dropped without write-back (their
//!    contents are dead), the victim is reset, and it becomes the next
//!    designated empty partition.
//!
//! All page traffic in here is charged to [`IoContext::Collector`].

use crate::buffer::{Access, IoContext};
use crate::db::Database;
use crate::events::BarrierEvent;
use crate::storage::ObjAddr;
use pgc_types::{Bytes, Oid, PartitionId, PgcError, PointerLoc, Result, SlotId};
use std::collections::VecDeque;

/// What one partition collection accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectionOutcome {
    /// The partition that was collected (now the designated empty one).
    pub victim: PartitionId,
    /// The partition the survivors were copied into.
    pub target: PartitionId,
    /// Objects copied (survivors).
    pub live_objects: u64,
    /// Bytes copied.
    pub live_bytes: Bytes,
    /// Objects reclaimed.
    pub garbage_objects: u64,
    /// Bytes reclaimed.
    pub garbage_bytes: Bytes,
    /// Remembered inter-partition pointers forwarded to moved objects.
    pub forwarded_pointers: u64,
    /// Collector disk reads performed by this collection.
    pub gc_reads: u64,
    /// Collector disk writes performed by this collection.
    pub gc_writes: u64,
}

impl Database {
    /// Collects `victim`, copying its live objects into the designated
    /// empty partition. See the module docs for the full algorithm.
    pub fn collect_partition(&mut self, victim: PartitionId) -> Result<CollectionOutcome> {
        let target = self.partitions.empty_partition();
        if victim == target {
            return Err(PgcError::CollectEmptyPartition(victim));
        }
        // Fail early on unknown partitions.
        let _ = self.partitions.partition(victim)?;

        let io_before = self.buffer.stats();
        self.buffer.set_context(IoContext::Collector);

        // Handed back at the end: nothing is allocated per object.
        let mut scratch = std::mem::take(&mut self.scratch);
        let CollectScratch {
            queue,
            oids,
            forwarded,
        } = &mut scratch;

        // --- 1. Gather the victim's roots, deterministically ordered. ---
        // Database roots first (BTreeSet iteration is sorted), then
        // remembered targets (sorted explicitly: the remset is hash-based).
        oids.clear();
        for oid in self.roots.iter().copied() {
            if self.objects.get(oid)?.addr.partition == victim {
                oids.push(oid);
            }
        }
        let first_remembered = oids.len();
        oids.extend(self.remsets.remembered_targets(victim));
        oids[first_remembered..].sort_unstable();

        // --- 2. Breadth-first evacuation, one root at a time. ---
        let mut live_objects = 0u64;
        let mut live_bytes = Bytes::ZERO;
        let mut forwarded_pointers = 0u64;
        for &root in oids.iter() {
            queue.push_back(root);
            while let Some(oid) = queue.pop_front() {
                let rec = self.objects.get(oid)?;
                if rec.addr.partition != victim {
                    // Already evacuated via another path (or a root that a
                    // previous root's trace reached first).
                    continue;
                }
                let size = rec.size;

                // Read the object from the victim...
                let old_span = self.span_of(rec.addr, size);
                self.buffer.access_span(old_span, Access::Read);

                // ...copy it into the target...
                let offset = self
                    .partitions
                    .allocate_in(target, size)?
                    .expect("survivors of one partition always fit the empty partition");
                let new_addr = ObjAddr::new(target, offset);
                self.charge_new_extent(new_addr, size);

                self.partitions.partition_mut(victim)?.note_departure(size);
                self.objects.relocate(oid, new_addr)?;

                // ...and forward every remembered pointer at it.
                forwarded.clear();
                self.remsets.relocate_object(oid, victim, target, forwarded);
                for loc in forwarded.iter() {
                    // The source object's page holds the pointer; updating
                    // it is a read-modify-write of that page.
                    let src = self.objects.get(loc.owner)?;
                    let span = self.span_of(src.addr, src.size);
                    self.buffer.access_span(span, Access::Write);
                }
                forwarded_pointers += forwarded.len() as u64;

                live_objects += 1;
                live_bytes += size;
                self.events.push(BarrierEvent::ObjectCopied {
                    oid,
                    from: victim,
                    to: target,
                    size,
                });

                for child in self.objects.get(oid)?.slots.targets() {
                    if self.objects.get(child)?.addr.partition == victim {
                        queue.push_back(child);
                    }
                }
            }
        }

        debug_assert_eq!(
            self.remsets.remembered_target_count(victim),
            0,
            "all remembered targets must have been evacuated"
        );

        // --- 3. Reclaim the stragglers: everything left is garbage. ---
        oids.clear();
        oids.extend(self.objects.members(victim));
        oids.sort_unstable();
        let mut garbage_objects = 0u64;
        let mut garbage_bytes = Bytes::ZERO;
        for &oid in oids.iter() {
            // Out-of-partition set cleanup: drop this dead object's
            // pointers from the remembered sets they point into. The
            // auxiliary structures live in primary memory, so this costs no
            // page I/O (Sec. 4.1 keeps them "explicitly in auxiliary data
            // structures"). The slots are read off the removed record.
            let in_out_set = self.remsets.in_out_set(victim, oid);
            let rec = self.objects.remove(oid)?;
            if in_out_set {
                for (i, slot) in rec.slots.iter().enumerate() {
                    // A dangling target here can only be a fellow victim
                    // resident reclaimed earlier in this sweep (or `oid`
                    // itself): cross-partition targets of any recorded
                    // pointer are remset-protected (they get evacuated,
                    // never dropped), so only intra-partition edges can
                    // dangle.
                    let Some(t) = slot.get() else { continue };
                    let Ok(target_rec) = self.objects.get(t) else {
                        continue;
                    };
                    let tp = target_rec.addr.partition;
                    if tp != victim {
                        let loc = PointerLoc::new(oid, SlotId(i as u16));
                        self.remsets.remove_edge(loc, victim, t, tp);
                    }
                }
                self.remsets.purge_source(victim, oid);
            }
            self.partitions
                .partition_mut(victim)?
                .note_departure(rec.size);
            garbage_objects += 1;
            garbage_bytes += rec.size;
            self.events.push(BarrierEvent::ObjectReclaimed {
                oid,
                partition: victim,
                size: rec.size,
            });
        }
        self.scratch = scratch;

        // --- 4. Retire the victim: its pages hold only dead data. ---
        self.buffer
            .invalidate(self.partitions.partition_pages_span(victim));
        self.partitions.rotate_empty(victim)?;

        self.buffer.set_context(IoContext::Application);

        self.stats.collections += 1;
        self.stats.reclaimed_bytes += garbage_bytes;
        self.stats.reclaimed_objects += garbage_objects;

        let io_after = self.buffer.stats();
        let outcome = CollectionOutcome {
            victim,
            target,
            live_objects,
            live_bytes,
            garbage_objects,
            garbage_bytes,
            forwarded_pointers,
            gc_reads: io_after.gc_disk_reads - io_before.gc_disk_reads,
            gc_writes: io_after.gc_disk_writes - io_before.gc_disk_writes,
        };
        self.events.push(BarrierEvent::CollectionCompleted(outcome));
        Ok(outcome)
    }
}

/// Buffers [`Database::collect_partition`] reuses across activations.
#[derive(Debug, Clone, Default)]
pub(crate) struct CollectScratch {
    /// The breadth-first frontier.
    queue: VecDeque<Oid>,
    /// The victim's roots, then its dead residents.
    oids: Vec<Oid>,
    /// Remembered locations forwarded to the object just moved.
    forwarded: Vec<PointerLoc>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use pgc_types::DbConfig;

    fn db() -> Database {
        Database::new(
            DbConfig::default()
                .with_page_size(1024)
                .with_partition_pages(8),
        )
        .unwrap()
    }

    /// Builds a root with a chain of `n` children in the root's partition
    /// (sizes small enough to stay put).
    fn chain(d: &mut Database, n: usize) -> (Oid, Vec<Oid>) {
        let root = d.create_root(Bytes(100), 2).unwrap();
        let mut prev = root;
        let mut all = Vec::new();
        for _ in 0..n {
            let (c, _) = d.create_object(Bytes(100), 2, prev, SlotId(0)).unwrap();
            all.push(c);
            prev = c;
        }
        (root, all)
    }

    #[test]
    fn collecting_live_partition_preserves_everything() {
        let mut d = db();
        let (root, chain) = chain(&mut d, 5);
        let victim = d.objects().get(root).unwrap().addr.partition;
        let out = d.collect_partition(victim).unwrap();
        assert_eq!(out.live_objects, 6);
        assert_eq!(out.garbage_objects, 0);
        assert_eq!(out.live_bytes, Bytes(600));
        // Everything moved to the old empty partition, fully reachable.
        for oid in std::iter::once(root).chain(chain) {
            assert_eq!(d.objects().get(oid).unwrap().addr.partition, out.target);
        }
        assert_eq!(d.empty_partition(), victim);
        let rep = oracle::analyze(&d);
        assert_eq!(rep.live_objects, 6);
        d.check_invariants();
    }

    #[test]
    fn collecting_reclaims_unreachable_subtree() {
        let mut d = db();
        let (root, nodes) = chain(&mut d, 4);
        let victim = d.objects().get(root).unwrap().addr.partition;
        // Cut root -> first child: 4 objects die.
        d.write_slot(root, SlotId(0), None).unwrap();
        let out = d.collect_partition(victim).unwrap();
        assert_eq!(out.garbage_objects, 4);
        assert_eq!(out.garbage_bytes, Bytes(400));
        assert_eq!(out.live_objects, 1);
        for oid in nodes {
            assert!(!d.objects().contains(oid));
        }
        assert_eq!(d.stats().reclaimed_objects, 4);
        d.check_invariants();
    }

    #[test]
    fn remembered_targets_survive_even_from_dead_sources() {
        // Nepotism: a garbage object in another partition points into the
        // victim; the pointee survives the victim's collection.
        let mut d = db();
        let root = d.create_root(Bytes(100), 3).unwrap();
        let home = d.objects().get(root).unwrap().addr.partition;
        // Spill a big object into a second partition.
        let (spill, _) = d.create_object(Bytes(8100), 2, root, SlotId(0)).unwrap();
        let foreign = d.objects().get(spill).unwrap().addr.partition;
        assert_ne!(home, foreign);
        // A small object in the home partition, pointed at by `spill`.
        let (victim_obj, _) = d.create_object(Bytes(100), 2, root, SlotId(1)).unwrap();
        assert_eq!(d.objects().get(victim_obj).unwrap().addr.partition, home);
        d.write_slot(spill, SlotId(0), Some(victim_obj)).unwrap();
        // Kill both paths from the root; spill becomes garbage but its
        // pointer into `home` remains remembered.
        d.write_slot(root, SlotId(0), None).unwrap();
        d.write_slot(root, SlotId(1), None).unwrap();
        let out = d.collect_partition(home).unwrap();
        // victim_obj survives via nepotism.
        assert!(d.objects().contains(victim_obj));
        assert!(out.live_objects >= 1);
        let rep = oracle::analyze(&d);
        assert!(rep.garbage_objects >= 2, "spill and victim_obj are garbage");
        assert!(rep.nepotism_bytes >= Bytes(100));
        d.check_invariants();
        // Collecting the foreign partition reclaims `spill` and cleans its
        // remembered pointer, so a second collection of the survivor's
        // partition reclaims victim_obj.
        d.collect_partition(foreign).unwrap();
        assert!(!d.objects().contains(spill));
        let survivor_partition = d.objects().get(victim_obj).unwrap().addr.partition;
        d.collect_partition(survivor_partition).unwrap();
        assert!(!d.objects().contains(victim_obj));
        d.check_invariants();
    }

    #[test]
    fn forwarding_rewrites_remembered_entries() {
        let mut d = db();
        let root = d.create_root(Bytes(100), 3).unwrap();
        let home = d.objects().get(root).unwrap().addr.partition;
        let (spill, _) = d.create_object(Bytes(8100), 2, root, SlotId(0)).unwrap();
        let foreign = d.objects().get(spill).unwrap().addr.partition;
        let (small, _) = d.create_object(Bytes(100), 2, root, SlotId(1)).unwrap();
        d.write_slot(spill, SlotId(0), Some(small)).unwrap();
        // Collect home: `small` moves; spill's pointer must follow it.
        let out = d.collect_partition(home).unwrap();
        assert!(out.forwarded_pointers >= 1);
        let new_home = d.objects().get(small).unwrap().addr.partition;
        assert_ne!(new_home, home);
        assert!(d.remsets().remembered_targets(new_home).any(|t| t == small));
        assert_eq!(d.remsets().remembered_target_count(home), 0);
        assert!(d.remsets().in_out_set(foreign, spill));
        d.check_invariants();
    }

    #[test]
    fn dead_out_pointers_are_cleaned_from_remote_remsets() {
        let mut d = db();
        let root = d.create_root(Bytes(100), 3).unwrap();
        let home = d.objects().get(root).unwrap().addr.partition;
        let (spill, _) = d.create_object(Bytes(8100), 2, root, SlotId(0)).unwrap();
        let foreign = d.objects().get(spill).unwrap().addr.partition;
        // An object in home that points into foreign, then dies.
        let (pointer_holder, _) = d.create_object(Bytes(100), 2, root, SlotId(1)).unwrap();
        d.write_slot(pointer_holder, SlotId(0), Some(spill))
            .unwrap();
        assert!(d.remsets().remembered_targets(foreign).any(|t| t == spill));
        d.write_slot(root, SlotId(1), None).unwrap(); // pointer_holder dies
        d.collect_partition(home).unwrap();
        assert!(!d.objects().contains(pointer_holder));
        // The dead holder's pointer into foreign must be gone from
        // foreign's remset; the root's own (live) cross-partition pointer
        // to spill must remain.
        let locs: Vec<_> = d.remsets().locations_of(foreign, spill).collect();
        assert!(
            locs.iter().all(|l| l.owner != pointer_holder),
            "dead holder's entry lingers"
        );
        assert!(locs.iter().any(|l| l.owner == root));
        d.check_invariants();
    }

    #[test]
    fn collection_compacts_fragmentation() {
        let mut d = db();
        let (root, _) = chain(&mut d, 10);
        let victim = d.objects().get(root).unwrap().addr.partition;
        d.write_slot(root, SlotId(0), None).unwrap();
        let used_before = d.partitions().partition(victim).unwrap().used_bytes();
        let out = d.collect_partition(victim).unwrap();
        let target_used = d.partitions().partition(out.target).unwrap().used_bytes();
        assert_eq!(target_used, Bytes(100), "only the root survives, compacted");
        assert!(used_before > target_used);
        assert!(d.partitions().partition(victim).unwrap().is_fresh());
    }

    #[test]
    fn collecting_empty_designated_partition_is_an_error() {
        let mut d = db();
        let empty = d.empty_partition();
        assert!(matches!(
            d.collect_partition(empty),
            Err(PgcError::CollectEmptyPartition(_))
        ));
    }

    #[test]
    fn collecting_unknown_partition_is_an_error() {
        let mut d = db();
        assert!(matches!(
            d.collect_partition(PartitionId(42)),
            Err(PgcError::UnknownPartition(_))
        ));
    }

    #[test]
    fn collection_charges_collector_io() {
        let mut d = db();
        let (root, _) = chain(&mut d, 10);
        let victim = d.objects().get(root).unwrap().addr.partition;
        // Evict everything from the buffer by touching another partition.
        let (big, _) = d.create_object(Bytes(7000), 0, root, SlotId(1)).unwrap();
        for _ in 0..4 {
            d.visit(big).unwrap();
        }
        let out = d.collect_partition(victim).unwrap();
        assert!(out.gc_reads > 0, "cold victim pages require disk reads");
        let io = d.io_stats();
        assert_eq!(io.gc_disk_reads, out.gc_reads);
        assert_eq!(io.gc_disk_writes, out.gc_writes);
    }

    #[test]
    fn two_roots_in_one_partition_both_survive() {
        let mut d = db();
        let r1 = d.create_root(Bytes(100), 2).unwrap();
        let r2 = d.create_root(Bytes(100), 2).unwrap();
        let p1 = d.objects().get(r1).unwrap().addr.partition;
        assert_eq!(p1, d.objects().get(r2).unwrap().addr.partition);
        let out = d.collect_partition(p1).unwrap();
        assert_eq!(out.live_objects, 2);
        assert!(d.objects().contains(r1));
        assert!(d.objects().contains(r2));
    }

    #[test]
    fn collection_emits_copy_reclaim_and_completion_events() {
        let mut d = db();
        let (root, _) = chain(&mut d, 4);
        let victim = d.objects().get(root).unwrap().addr.partition;
        d.write_slot(root, SlotId(0), None).unwrap();
        d.clear_events();
        let out = d.collect_partition(victim).unwrap();
        let events = d.events().events();
        let copied = events
            .iter()
            .filter(|e| {
                matches!(e, BarrierEvent::ObjectCopied { from, to, .. }
                if *from == victim && *to == out.target)
            })
            .count() as u64;
        let reclaimed = events
            .iter()
            .filter(|e| {
                matches!(e, BarrierEvent::ObjectReclaimed { partition, .. }
                if *partition == victim)
            })
            .count() as u64;
        assert_eq!(copied, out.live_objects);
        assert_eq!(reclaimed, out.garbage_objects);
        assert_eq!(
            events.last(),
            Some(&BarrierEvent::CollectionCompleted(out)),
            "completion event is logged last"
        );
    }

    #[test]
    fn shared_child_is_copied_once() {
        let mut d = db();
        let root = d.create_root(Bytes(100), 2).unwrap();
        let (a, _) = d.create_object(Bytes(100), 2, root, SlotId(0)).unwrap();
        let (b, _) = d.create_object(Bytes(100), 2, root, SlotId(1)).unwrap();
        let (shared, _) = d.create_object(Bytes(100), 2, a, SlotId(0)).unwrap();
        d.write_slot(b, SlotId(0), Some(shared)).unwrap();
        let victim = d.objects().get(root).unwrap().addr.partition;
        let out = d.collect_partition(victim).unwrap();
        assert_eq!(out.live_objects, 4, "shared child copied exactly once");
        d.check_invariants();
    }
}
