//! Complete (whole-database) collection — the paper's future work.
//!
//! Sec. 6.5 observes that single-partition collections can never reclaim
//! *distributed garbage*: dead structures whose cross-partition pointers
//! keep each fragment remembered-set-reachable from another dead fragment
//! (mutual nepotism, including cross-partition cycles), and closes with
//! *"ultimately, we feel that distributed garbage will need to be
//! addressed in a graceful and scalable manner"*. This module provides the
//! baseline such mechanisms are judged against: a stop-the-world global
//! mark-and-collect that traverses the whole database from the root set
//! and then copy-collects every partition against the *global* mark,
//! reclaiming everything unreachable — cycles and nepotism chains
//! included.
//!
//! Cost model: the marking phase reads every live object's pages (a full
//! reachability traversal is secondary-storage work, unlike the free
//! simulation oracle); the sweep phase then evacuates each partition
//! exactly like [`crate::collect`], except that remembered-set entries
//! sourced at globally-dead objects are ignored rather than treated as
//! roots. All traffic is charged to the collector context.

use crate::buffer::{Access, IoContext};
use crate::db::Database;
use crate::storage::ObjAddr;
use pgc_types::{Bytes, DenseBitSet, Oid, PartitionId, Result, SlotId};
use std::collections::VecDeque;

/// Result of one complete collection.
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
    /// Collector disk reads.
    pub gc_reads: u64,
    /// Collector disk writes.
    pub gc_writes: u64,
}

impl Database {
    /// Performs a complete, whole-database collection: global mark from
    /// the root set, then a copy-collection of every non-empty partition
    /// keeping only globally-marked objects. Reclaims distributed cyclic
    /// garbage that no sequence of single-partition collections can.
    pub fn collect_full(&mut self) -> Result<FullCollectionOutcome> {
        let io_before = self.buffer.stats();
        self.buffer.set_context(IoContext::Collector);

        // --- Phase 1: global mark (reads every live object). ---
        // Membership-only bit set over dense oids; mark order is never
        // observed (the sweep sorts residents), so this is behavior-neutral.
        let mut marked = DenseBitSet::with_capacity(self.objects.oid_bound() as usize);
        let mut stack: Vec<Oid> = self.roots.iter().copied().collect();
        while let Some(oid) = stack.pop() {
            if !marked.insert(oid.index()) {
                continue;
            }
            let rec = self.objects.get(oid)?;
            let span = self.span_of(rec.addr, rec.size);
            let children: Vec<Oid> = rec.slots.targets().collect();
            self.buffer.access_span(span, Access::Read);
            stack.extend(children);
        }

        // --- Phase 2: evacuate each partition against the global mark. ---
        // Collecting one partition at a time preserves the invariant that
        // survivors of a partition fit the designated empty partition.
        let mut live_objects = 0u64;
        let mut live_bytes = Bytes::ZERO;
        let mut garbage_objects = 0u64;
        let mut garbage_bytes = Bytes::ZERO;
        let mut partitions_collected = 0u32;

        let victims: Vec<PartitionId> = self.partitions.collectable_ids().collect();
        for victim in victims {
            if self.partitions.partition(victim)?.is_fresh() {
                continue;
            }
            let target = self.partitions.empty_partition();

            // Copy marked residents breadth-first (deterministic order).
            let mut residents: Vec<Oid> = self.objects.members(victim).collect();
            residents.sort_unstable();
            let mut queue: VecDeque<Oid> = residents
                .iter()
                .copied()
                .filter(|o| marked.contains(o.index()))
                .collect();
            while let Some(oid) = queue.pop_front() {
                let rec = self.objects.get(oid)?;
                if rec.addr.partition != victim {
                    continue;
                }
                let size = rec.size;
                let old_span = self.span_of(rec.addr, size);
                self.buffer.access_span(old_span, Access::Read);
                let offset = self
                    .partitions
                    .allocate_in(target, size)?
                    .expect("survivors fit the empty partition");
                let new_addr = ObjAddr::new(target, offset);
                self.charge_new_extent(new_addr, size);
                self.partitions.partition_mut(victim)?.note_departure(size);
                self.objects.relocate(oid, new_addr)?;
                // Forward remembered pointers (sources may be marked or
                // not; unmarked sources die this same pass, so their
                // entries are dropped rather than forwarded).
                let mut forwarded = Vec::new();
                self.remsets
                    .relocate_object(oid, victim, target, &mut forwarded);
                for loc in &forwarded {
                    if !marked.contains(loc.owner.index()) {
                        continue;
                    }
                    let src = self.objects.get(loc.owner)?;
                    let span = self.span_of(src.addr, src.size);
                    self.buffer.access_span(span, Access::Write);
                }
                live_objects += 1;
                live_bytes += size;
            }

            // Reclaim the unmarked remainder.
            let mut dead: Vec<Oid> = self.objects.members(victim).collect();
            dead.sort_unstable();
            for oid in dead {
                debug_assert!(!marked.contains(oid.index()), "marked object left behind");
                // Remove this dead object's cross-partition pointers from
                // the remembered sets they target.
                let slots: Vec<(SlotId, Oid)> = {
                    let rec = self.objects.get(oid)?;
                    rec.slots
                        .iter()
                        .enumerate()
                        .filter_map(|(i, s)| s.get().map(|t| (SlotId(i as u16), t)))
                        .collect()
                };
                for (slot, t) in slots {
                    let Ok(trec) = self.objects.get(t) else {
                        continue; // reclaimed earlier in this pass
                    };
                    if trec.addr.partition != victim {
                        self.remsets.remove_edge(
                            pgc_types::PointerLoc::new(oid, slot),
                            victim,
                            t,
                            trec.addr.partition,
                        );
                    }
                }
                self.remsets.purge_source(victim, oid);
                // The dead object may itself be a remembered target (its
                // rememberers are dead too — that is exactly distributed
                // garbage); drop those entries wholesale.
                self.remsets.purge_target(victim, oid);
                let rec = self.objects.remove(oid)?;
                self.partitions
                    .partition_mut(victim)?
                    .note_departure(rec.size);
                garbage_objects += 1;
                garbage_bytes += rec.size;
            }

            let victim_pages: Vec<_> = self.partitions.partition_pages_span(victim).collect();
            self.buffer.invalidate(victim_pages);
            self.partitions.rotate_empty(victim)?;
            partitions_collected += 1;
        }

        self.buffer.set_context(IoContext::Application);
        self.stats.collections += 1;
        self.stats.reclaimed_bytes += garbage_bytes;
        self.stats.reclaimed_objects += garbage_objects;

        let io_after = self.buffer.stats();
        Ok(FullCollectionOutcome {
            partitions_collected,
            live_objects,
            live_bytes,
            garbage_objects,
            garbage_bytes,
            gc_reads: io_after.gc_disk_reads - io_before.gc_disk_reads,
            gc_writes: io_after.gc_disk_writes - io_before.gc_disk_writes,
        })
    }
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
}
