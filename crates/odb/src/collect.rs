//! Breadth-first copying collection of one partition (Sec. 4.1), and the
//! complete collection built from it.
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
//!    pages holding the source pointers are dirtied (collector I/O).
//! 4. Whatever remains in the victim is garbage. Each dead object in the
//!    victim's out-of-partition set has the locations of its pointers
//!    removed from the remembered sets they point into — the cleanup rule
//!    that stops dead pointers from unnecessarily preserving objects in
//!    later collections of other partitions.
//! 5. The victim's remembered and out-of-partition sets become the
//!    target's, whole: every remembered target survived, and every out-set
//!    entry left is a survivor's, under the same oid. The victim's buffered
//!    pages are dropped without write-back (their contents are dead), the
//!    victim is reset, and it becomes the next designated empty partition.
//!
//! All page traffic in here is charged to [`IoContext::Collector`].
//!
//! # Complete collection
//!
//! Sec. 6.5 observes that single-partition collections can never reclaim
//! *distributed garbage*: dead structures whose cross-partition pointers
//! keep each fragment remembered from another dead fragment (mutual
//! nepotism, cross-partition cycles included), and leaves addressing it as
//! future work. [`Database::collect_full`] is the baseline such mechanisms
//! are judged against, and it adds no second copying loop:
//!
//! 1. **Mark** everything reachable from the root set, depth first, reading
//!    each live object's pages (a full traversal is secondary-storage work,
//!    unlike the free [`crate::oracle`], which shares the traversal).
//! 2. **Forget dead pointers**: every remembered pointer held by an
//!    unmarked object is dropped, by the cleanup rule of step 4 above.
//!    Each remaining remembered target is then reachable.
//! 3. **Collect** every non-fresh collectable partition with
//!    [`Database::collect_partition`], which now copies exactly the marked
//!    objects and reclaims everything else, on the barrier bus like any
//!    other collection.

use crate::buffer::{Access, IoContext};
use crate::db::Database;
use crate::events::BarrierEvent;
use crate::oracle;
use crate::remset::RemsetTable;
use crate::storage::{page_span, ObjAddr, ObjectRecord, ObjectTable};
use pgc_types::{Bytes, DenseBitSet, Oid, PartitionId, PgcError, PointerLoc, Result, SlotId};
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
            residents,
            forwarded,
        } = &mut scratch;
        // The victim's list, whole: survivors join the target's list as
        // they are copied, and whatever is still in the victim at the end
        // is garbage. The victim keeps an empty list.
        self.objects.take_members(victim, residents);

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
                self.remsets.forwarded(victim, oid, forwarded);
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

        // --- 3. Forget the pointers the dead out-set members hold. ---
        // Every member still in the victim is dead; survivors have moved.
        let objects = &self.objects;
        let in_victim = |&oid: &Oid| objects.get(oid).is_ok_and(|r| r.addr.partition == victim);
        oids.clear();
        oids.extend(self.remsets.out_set(victim).filter(in_victim));
        oids.sort_unstable();
        for &oid in oids.iter() {
            let rec = self.objects.get(oid)?;
            forget_pointers(&mut self.remsets, &self.objects, target, oid, rec);
        }

        // --- 4. Sweep: every resident not copied out is garbage. ---
        let mut garbage_objects = 0u64;
        let mut garbage_bytes = Bytes::ZERO;
        let departed = self.partitions.partition_mut(victim)?;
        for &oid in residents.iter() {
            let Some(rec) = self.objects.remove(oid, victim) else {
                continue;
            };
            departed.note_departure(rec.size);
            garbage_objects += 1;
            garbage_bytes += rec.size;
            self.events.push(BarrierEvent::ObjectReclaimed {
                oid,
                partition: victim,
                size: rec.size,
            });
        }
        // Step 5 of the module docs: the target's own sets are empty.
        self.remsets.hand_over(victim, target);
        self.scratch = scratch;

        // --- 5. Retire the victim: its pages hold only dead data. ---
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

    /// Performs a complete, whole-database collection: a global mark from
    /// the root set, then [`Database::collect_partition`] on every
    /// non-empty partition, keeping only marked objects (see the module
    /// docs). Reclaims the distributed cyclic garbage no sequence of
    /// single-partition collections can.
    pub fn collect_full(&mut self) -> Result<FullCollectionOutcome> {
        let io_before = self.buffer.stats();

        // --- 1. Global mark, reading every live object. ---
        self.buffer.set_context(IoContext::Collector);
        let mut marked = DenseBitSet::default();
        let (cfg, buffer) = (&self.cfg, &mut self.buffer);
        let roots = self.roots.iter().copied();
        oracle::mark::<1>(&self.objects, roots, &mut marked, &mut Vec::new(), |rec| {
            let span = page_span(rec.addr, rec.size, cfg.page_size, cfg.partition_pages);
            buffer.access_span(span, Access::Read);
        });
        self.buffer.set_context(IoContext::Application);

        // --- 2. Forget the remembered pointers unmarked objects hold. ---
        let marked_at = |pos: usize| marked.contains(pos as u64);
        let mut dead: Vec<Oid> = (0..self.partition_count() as u32)
            .flat_map(|p| self.remsets.out_set(PartitionId(p)))
            .filter(|&oid| !self.objects.position(oid).is_some_and(marked_at))
            .collect();
        dead.sort_unstable();
        let empty = self.partitions.empty_partition();
        for oid in dead {
            let rec = self.objects.get(oid)?;
            forget_pointers(&mut self.remsets, &self.objects, empty, oid, rec);
        }

        // --- 3. Collect every partition against the global mark. ---
        let mut full = FullCollectionOutcome {
            partitions_collected: 0,
            live_objects: 0,
            live_bytes: Bytes::ZERO,
            garbage_objects: 0,
            garbage_bytes: Bytes::ZERO,
            gc_reads: 0,
            gc_writes: 0,
        };
        let victims: Vec<PartitionId> = self.partitions.collectable_ids().collect();
        for victim in victims {
            if self.partitions.partition(victim)?.is_fresh() {
                continue;
            }
            let out = self.collect_partition(victim)?;
            full.partitions_collected += 1;
            full.live_objects += out.live_objects;
            full.live_bytes += out.live_bytes;
            full.garbage_objects += out.garbage_objects;
            full.garbage_bytes += out.garbage_bytes;
        }

        let io_after = self.buffer.stats();
        full.gc_reads = io_after.gc_disk_reads - io_before.gc_disk_reads;
        full.gc_writes = io_after.gc_disk_writes - io_before.gc_disk_writes;
        Ok(full)
    }
}

/// Out-of-partition set cleanup for dead object `oid` with record `rec`:
/// drops each pointer it holds from the remembered set it points into, so
/// no dead pointer preserves its target in a later collection. Targets in
/// its own partition or in `moved` (the designated empty partition,
/// holding only the victim's survivors) were never remembered. The
/// auxiliary structures live in primary memory, so this costs no page I/O
/// (Sec. 4.1 keeps them "explicitly in auxiliary data structures").
fn forget_pointers(
    remsets: &mut RemsetTable,
    objects: &ObjectTable,
    moved: PartitionId,
    oid: Oid,
    rec: &ObjectRecord,
) {
    let home = rec.addr.partition;
    for (i, slot) in rec.slots.iter().enumerate() {
        let Some(t) = slot.get() else { continue };
        let Ok(target) = objects.get(t) else { continue };
        let tp = target.addr.partition;
        if tp != home && tp != moved {
            remsets.remove_edge(PointerLoc::new(oid, SlotId(i as u16)), home, t, tp);
        }
    }
    remsets.purge_source(home, oid);
}

/// What one complete collection accomplished: the sum of its partition
/// collections, plus the mark's reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FullCollectionOutcome {
    /// Partitions evacuated.
    pub partitions_collected: u32,
    /// Objects that survived.
    pub live_objects: u64,
    /// Bytes that survived.
    pub live_bytes: Bytes,
    /// Objects reclaimed (including distributed/cyclic garbage).
    pub garbage_objects: u64,
    /// Bytes reclaimed.
    pub garbage_bytes: Bytes,
    /// Collector disk reads, the mark's included.
    pub gc_reads: u64,
    /// Collector disk writes.
    pub gc_writes: u64,
}

/// Buffers [`Database::collect_partition`] reuses across activations.
#[derive(Debug, Clone, Default)]
pub(crate) struct CollectScratch {
    /// The breadth-first frontier.
    queue: VecDeque<Oid>,
    /// The victim's roots; then its dead out-set members.
    oids: Vec<Oid>,
    /// The victim's member list, taken whole.
    residents: Vec<Oid>,
    /// Remembered locations forwarded to the object just moved.
    forwarded: Vec<PointerLoc>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BarrierObserver, Collector, PolicyKind};
    use pgc_types::DbConfig;
    use std::cell::RefCell;
    use std::rc::Rc;

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
        // Created root, a, a1, b; a first collection copies them breadth
        // first, so the new partition lists root, a, b, a1: not oid order.
        let root = d.create_root(Bytes(100), 2).unwrap();
        let (a, _) = d.create_object(Bytes(100), 1, root, SlotId(0)).unwrap();
        let (a1, _) = d.create_object(Bytes(100), 0, a, SlotId(0)).unwrap();
        let (b, _) = d.create_object(Bytes(100), 0, root, SlotId(1)).unwrap();
        let first = d.objects().get(root).unwrap().addr.partition;
        let victim = d.collect_partition(first).unwrap().target;
        assert_eq!(
            d.objects().members(victim).collect::<Vec<_>>(),
            [root, a, b, a1]
        );
        d.write_slot(root, SlotId(0), None).unwrap();
        d.write_slot(root, SlotId(1), None).unwrap();
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
        let mut reclaimed = Vec::new();
        for e in events {
            if let BarrierEvent::ObjectReclaimed { oid, partition, .. } = *e {
                reclaimed.push((oid, partition));
            }
        }
        assert_eq!(copied, out.live_objects);
        // The dead, in the victim's member-list order.
        assert_eq!(reclaimed, [a, b, a1].map(|oid| (oid, victim)));
        assert_eq!(reclaimed.len() as u64, out.garbage_objects);
        assert_eq!(
            events.last(),
            Some(&BarrierEvent::CollectionCompleted(out)),
            "completion event is logged last"
        );
    }

    #[test]
    fn the_victims_sets_are_handed_to_the_target_whole() {
        // In the victim: root r, whose trace reaches x (remembered from a) and
        // y (from a and b) before their own root turns, l (live, into b's
        // partition) and g (dead, into a's and b's, and at y).
        let mut d = db();
        let r = d.create_root(Bytes(100), 4).unwrap();
        let (a, _) = d.create_object(Bytes(8100), 2, r, SlotId(0)).unwrap();
        let (b, _) = d.create_object(Bytes(8100), 2, r, SlotId(1)).unwrap();
        let (x, _) = d.create_object(Bytes(100), 2, r, SlotId(2)).unwrap();
        let (y, _) = d.create_object(Bytes(100), 0, x, SlotId(0)).unwrap();
        let (l, _) = d.create_object(Bytes(100), 1, x, SlotId(1)).unwrap();
        let (g, _) = d.create_object(Bytes(100), 3, r, SlotId(3)).unwrap();
        let live = [(a, 0, x), (a, 1, y), (b, 0, y), (l, 0, b)];
        let dead = [(g, 0, a), (g, 1, b), (g, 2, y)];
        for (from, slot, to) in live.into_iter().chain(dead) {
            d.write_slot(from, SlotId(slot), Some(to)).unwrap();
        }
        d.write_slot(r, SlotId(3), None).unwrap();
        let part = |d: &Database, o| d.objects().get(o).unwrap().addr.partition;
        let (victim, p_a, p_b) = (part(&d, r), part(&d, a), part(&d, b));
        assert_eq!([x, y, l, g].map(|o| part(&d, o)), [victim; 4]);
        assert!(p_a != p_b && ![p_a, p_b].contains(&victim));

        let (empty, out) = (d.empty_partition(), d.collect_partition(victim).unwrap());
        assert_eq!((out.live_objects, out.garbage_objects), (4, 1));
        assert_eq!(out.target, empty);
        assert_eq!(out.forwarded_pointers, 3, "x's 1 and y's 2");
        fn sorted<T: Ord>(items: impl Iterator<Item = T>) -> Vec<T> {
            let mut items: Vec<T> = items.collect();
            items.sort();
            items
        }
        let sets = d.remsets();
        assert_eq!(sets.remembered_targets(victim).count(), 0);
        assert_eq!(sets.out_set(victim).count(), 0);
        assert_eq!(sorted(sets.remembered_targets(empty)), [x, y]);
        assert_eq!(sorted(sets.out_set(empty)), [r, l]);
        let at = |o, s| PointerLoc::new(o, SlotId(s));
        let mut forwarded = Vec::new();
        sets.forwarded(empty, x, &mut forwarded);
        assert_eq!(forwarded, [at(a, 0)]);
        sets.forwarded(empty, y, &mut forwarded);
        assert_eq!(forwarded, [at(a, 1), at(b, 0)]);
        // The dead holder's locations are gone from every partition.
        for p in (0..d.partition_count() as u32).map(PartitionId) {
            for t in sets.remembered_targets(p) {
                assert!(sets.locations_of(p, t).all(|loc| loc.owner != g));
            }
        }
        assert_eq!(sorted(sets.locations_of(p_b, b)), [at(r, 1), at(l, 0)]);
        d.check_invariants();
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

    /// Builds two mutually-referencing garbage objects in *different*
    /// partitions: the distributed cycle single-partition collection
    /// cannot reclaim.
    fn distributed_cycle(d: &mut Database) -> (Oid, Oid) {
        let root = d.create_root(Bytes(100), 2).unwrap();
        let (a, _) = d.create_object(Bytes(100), 2, root, SlotId(0)).unwrap();
        let (b, _) = d.create_object(Bytes(8100), 2, a, SlotId(0)).unwrap();
        let pa = d.objects().get(a).unwrap().addr.partition;
        let pb = d.objects().get(b).unwrap().addr.partition;
        assert_ne!(pa, pb, "b must spill to another partition");
        d.write_slot(b, SlotId(0), Some(a)).unwrap(); // close the cycle
        d.write_slot(root, SlotId(0), None).unwrap(); // orphan both
        (a, b)
    }

    #[test]
    fn single_partition_collections_cannot_reclaim_distributed_cycles() {
        let mut d = db();
        let (a, b) = distributed_cycle(&mut d);
        // Collect every collectable partition twice over.
        for _ in 0..2 {
            for p in d.collectable_partitions() {
                d.collect_partition(p).unwrap();
            }
        }
        assert!(
            d.objects().contains(a) && d.objects().contains(b),
            "distributed cyclic garbage survives partitioned collection"
        );
        let report = oracle::analyze(&d);
        assert!(report.garbage_bytes >= Bytes(8200));
        d.check_invariants();
    }

    #[test]
    fn full_collection_reclaims_distributed_cycles() {
        let mut d = db();
        let (a, b) = distributed_cycle(&mut d);
        let out = d.collect_full().unwrap();
        assert!(!d.objects().contains(a));
        assert!(!d.objects().contains(b));
        assert!(out.garbage_bytes >= Bytes(8200));
        assert_eq!(out.live_objects, 1, "only the root survives");
        let report = oracle::analyze(&d);
        assert_eq!(report.garbage_bytes, Bytes::ZERO);
        d.check_invariants();
    }

    #[test]
    fn full_collection_preserves_all_reachable_objects() {
        let mut d = db();
        let root = d.create_root(Bytes(100), 2).unwrap();
        let (x, _) = d.create_object(Bytes(100), 2, root, SlotId(0)).unwrap();
        let (y, _) = d.create_object(Bytes(8100), 2, x, SlotId(0)).unwrap();
        let (z, _) = d.create_object(Bytes(100), 2, x, SlotId(1)).unwrap();
        let out = d.collect_full().unwrap();
        assert_eq!(out.garbage_objects, 0);
        for oid in [root, x, y, z] {
            assert!(d.objects().contains(oid));
        }
        d.check_invariants();
    }

    #[test]
    fn full_collection_charges_collector_io() {
        let mut d = db();
        distributed_cycle(&mut d);
        let out = d.collect_full().unwrap();
        let io = d.io_stats();
        assert_eq!(io.gc_disk_reads, out.gc_reads);
        assert_eq!(io.gc_disk_writes, out.gc_writes);
        assert!(out.gc_reads + out.gc_writes > 0 || io.hits > 0);
    }

    #[test]
    fn full_collection_compacts_every_partition() {
        let mut d = db();
        let root = d.create_root(Bytes(100), 2).unwrap();
        // Two subtrees, one dies.
        let (a, _) = d.create_object(Bytes(100), 2, root, SlotId(0)).unwrap();
        d.create_object(Bytes(100), 2, a, SlotId(0)).unwrap();
        d.write_slot(root, SlotId(0), None).unwrap();
        d.collect_full().unwrap();
        // Exactly one partition holds data now; the rest are fresh.
        let used = d
            .partitions()
            .iter()
            .filter(|p| !p.is_fresh() && p.id() != d.empty_partition())
            .count();
        assert_eq!(used, 1);
        assert_eq!(d.resident_bytes(), Bytes(100));
        d.check_invariants();
    }

    #[test]
    fn full_collection_on_empty_database_is_a_noop() {
        let mut d = db();
        let out = d.collect_full().unwrap();
        assert_eq!(out.partitions_collected, 0);
        assert_eq!(out.live_objects, 0);
        assert_eq!(out.garbage_objects, 0);
    }

    /// A bystander counting copies, reclaims and completions.
    struct Tally(Rc<RefCell<[u64; 3]>>);

    impl BarrierObserver for Tally {
        fn on_event(&mut self, event: &BarrierEvent) {
            let i = match event {
                BarrierEvent::ObjectCopied { .. } => 0,
                BarrierEvent::ObjectReclaimed { .. } => 1,
                BarrierEvent::CollectionCompleted(_) => 2,
                _ => return,
            };
            self.0.borrow_mut()[i] += 1;
        }
    }

    #[test]
    fn a_complete_collection_is_on_the_bus() {
        let mut d = db();
        let (a, b) = distributed_cycle(&mut d);
        let tally = Rc::new(RefCell::new([0; 3]));
        let mut gc = Collector::with_kind(PolicyKind::UpdatedPointer, 100, 0, 16);
        gc.add_observer(Box::new(Tally(Rc::clone(&tally))));
        gc.sync(&mut d);
        let before = d.stats().collections;
        let out = d.collect_full().unwrap();
        gc.sync(&mut d);
        assert!(out.partitions_collected >= 2 && out.garbage_objects > 0);
        assert_eq!(
            *tally.borrow(),
            [
                out.live_objects,
                out.garbage_objects,
                u64::from(out.partitions_collected)
            ]
        );
        assert_eq!(
            d.stats().collections,
            before + u64::from(out.partitions_collected)
        );
        assert!(!d.objects().contains(a) && !d.objects().contains(b));
    }
}
