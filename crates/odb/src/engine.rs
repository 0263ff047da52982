//! The **mutation engine**: every state-changing application operation,
//! with full I/O charging and barrier event emission.
//!
//! This is the layer below the [`Database`] facade in `db.rs` (which keeps
//! construction, read-only views, and invariant checks). Every operation
//! here both performs its storage-model side effects *and* logs the
//! corresponding [`crate::events::BarrierEvent`]s into the database's
//! event log, in mutation order:
//!
//! * [`Database::create_root`] / [`Database::create_object`] — allocate
//!   storage (near the parent when possible, growing the database when
//!   nothing fits), register the object
//!   ([`crate::events::BarrierEvent::Allocation`], plus
//!   [`crate::events::BarrierEvent::PartitionGrowth`] when the partition
//!   set grew), and — for non-roots — store the parent's pointer through
//!   the write barrier.
//! * [`Database::write_slot`] — the **write barrier** (Sec. 4.1): charges
//!   the page write, maintains remembered sets and out-of-partition sets
//!   for pointers crossing partition boundaries, maintains object weights,
//!   counts overwrites (the GC trigger), and emits a
//!   [`crate::events::BarrierEvent::PointerWrite`] carrying the
//!   [`PointerWriteInfo`] for the selection policies to observe. The info
//!   is also returned directly for callers that drive the database by
//!   hand.
//! * [`Database::visit`] / [`Database::data_write`] /
//!   [`Database::read_slot`] — reads and non-pointer mutations, charged at
//!   page granularity; only [`Database::data_write`] emits an event
//!   ([`crate::events::BarrierEvent::DataWrite`]).

use crate::buffer::Access;
use crate::db::Database;
use crate::events::BarrierEvent;
use crate::stats::{PointerTarget, PointerWriteInfo};
use crate::storage::{ObjAddr, ObjectRecord, Slot, Slots};
use crate::weights;
use pgc_types::{Bytes, Oid, PartitionId, PgcError, Result, SlotId};

impl Database {
    // ---------------------------------------------------------------
    // Creation
    // ---------------------------------------------------------------

    /// Creates a database root object (a tree root in the synthetic
    /// workload). Roots are the entree into the database: they are never
    /// garbage.
    pub fn create_root(&mut self, size: Bytes, slot_count: usize) -> Result<Oid> {
        let oid = self.create_unlinked(size, slot_count, None, weights::ROOT_WEIGHT)?;
        self.roots.insert(oid);
        Ok(oid)
    }

    /// Creates an object placed near `parent` and stores the pointer
    /// `parent.slot := new` through the write barrier. Returns the new oid
    /// and the barrier event (with `during_creation = true`).
    pub fn create_object(
        &mut self,
        size: Bytes,
        slot_count: usize,
        parent: Oid,
        parent_slot: SlotId,
    ) -> Result<(Oid, PointerWriteInfo)> {
        let parent_rec = self.objects.get(parent)?;
        let preferred = parent_rec.addr.partition;
        let weight = weights::child_weight(parent_rec.weight, self.cfg.max_weight);
        let oid = self.create_unlinked(size, slot_count, Some(preferred), weight)?;
        let info = self.store_pointer(parent, parent_slot, Some(oid), true)?;
        Ok((oid, info))
    }

    fn create_unlinked(
        &mut self,
        size: Bytes,
        slot_count: usize,
        preferred: Option<PartitionId>,
        weight: u8,
    ) -> Result<Oid> {
        let partitions_before = self.partitions.partition_count();
        let placement = self.partitions.allocate(size, preferred)?;
        let partitions_after = self.partitions.partition_count();
        let grew = partitions_after > partitions_before;
        let addr = ObjAddr::new(placement.partition, placement.offset);
        self.charge_new_extent(addr, size);
        let oid = self.objects.reserve_oid();
        self.objects.register(
            oid,
            ObjectRecord {
                addr,
                size,
                slots: Slots::nulls(slot_count),
                weight,
            },
        )?;
        self.stats.objects_created += 1;
        self.stats.bytes_allocated += size;
        self.events.push(BarrierEvent::Allocation {
            oid,
            partition: placement.partition,
            size,
            grew,
        });
        if grew {
            self.events.push(BarrierEvent::PartitionGrowth {
                partitions: partitions_after,
            });
        }
        Ok(oid)
    }

    /// Charges buffer traffic for materializing a freshly allocated extent
    /// (a new object, or a collector's copy target): the first page is a
    /// plain write when the extent begins mid-page (other objects already
    /// live there), and every page that *begins* inside the extent is
    /// brand new.
    pub(crate) fn charge_new_extent(&mut self, addr: ObjAddr, size: Bytes) {
        let mut first = !addr.offset.is_multiple_of(self.cfg.page_size as u64);
        let span = self.span_of(addr, size);
        for page in span {
            let kind = if first {
                Access::Write
            } else {
                Access::WriteNew
            };
            self.buffer.access(page, kind);
            first = false;
        }
    }

    // ---------------------------------------------------------------
    // The write barrier
    // ---------------------------------------------------------------

    /// Stores `new` into `owner.slot` through the write barrier.
    pub fn write_slot(
        &mut self,
        owner: Oid,
        slot: SlotId,
        new: Option<Oid>,
    ) -> Result<PointerWriteInfo> {
        self.store_pointer(owner, slot, new, false)
    }

    fn store_pointer(
        &mut self,
        owner: Oid,
        slot: SlotId,
        new: Option<Oid>,
        during_creation: bool,
    ) -> Result<PointerWriteInfo> {
        let (owner_addr, owner_size, old) = {
            let rec = self.objects.get(owner)?;
            (rec.addr, rec.size, rec.slot(owner, slot)?)
        };
        let owner_partition = owner_addr.partition;

        // The store dirties the owner's page(s). Reading the overwritten
        // value (UpdatedPointer's hint) touches the same pages, so it costs
        // nothing extra — the paper makes the same observation.
        let span = self.span_of(owner_addr, owner_size);
        self.buffer.access_span(span, Access::Write);

        let old_target = match old {
            Some(t) => {
                let rec = self.objects.get(t)?;
                Some(PointerTarget {
                    oid: t,
                    partition: rec.addr.partition,
                    weight: rec.weight,
                })
            }
            None => None,
        };
        let new_target = match new {
            Some(t) => {
                let rec = self.objects.get(t)?;
                Some(PointerTarget {
                    oid: t,
                    partition: rec.addr.partition,
                    weight: rec.weight,
                })
            }
            None => None,
        };

        let loc = pgc_types::PointerLoc::new(owner, slot);
        if let Some(t) = old_target {
            if t.partition != owner_partition {
                self.remsets
                    .remove_edge(loc, owner_partition, t.oid, t.partition);
            }
        }
        if let Some(t) = new_target {
            if t.partition != owner_partition {
                self.remsets
                    .add_edge(loc, owner_partition, t.oid, t.partition);
            }
        }

        self.objects.get_mut(owner)?.slots[slot.as_usize()] = new.into();

        if let Some(t) = new_target {
            weights::note_edge(&mut self.objects, owner, t.oid, self.cfg.max_weight)?;
        }

        self.stats.pointer_writes += 1;
        if old_target.is_some() {
            self.stats.pointer_overwrites += 1;
        }

        let info = PointerWriteInfo {
            owner,
            owner_partition,
            slot,
            old: old_target,
            new: new_target,
            during_creation,
        };
        self.events.push(BarrierEvent::PointerWrite(info));
        Ok(info)
    }

    /// Appends a new (initially null) pointer slot to an object — how the
    /// workload threads dense edges through existing tree nodes. Charges a
    /// page write (the object's header/slot area changes). Returns the new
    /// slot's id.
    pub fn add_slot(&mut self, owner: Oid) -> Result<SlotId> {
        let (addr, size, n) = {
            let rec = self.objects.get(owner)?;
            (rec.addr, rec.size, rec.slots.len())
        };
        // A `SlotId` is 16 bits: a 65,537th slot would be handed an id
        // that already names another slot of the same object.
        let Ok(id) = u16::try_from(n) else {
            return Err(PgcError::SlotOutOfRange {
                oid: owner,
                slot: u16::MAX,
                len: n,
            });
        };
        let span = self.span_of(addr, size);
        self.buffer.access_span(span, Access::Write);
        self.objects.get_mut(owner)?.slots.push(Slot::NULL);
        Ok(SlotId(id))
    }

    // ---------------------------------------------------------------
    // Reads and data writes
    // ---------------------------------------------------------------

    /// Visits (reads) an object: faults in its pages.
    pub fn visit(&mut self, oid: Oid) -> Result<()> {
        let rec = self.objects.get(oid)?;
        let span = self.span_of(rec.addr, rec.size);
        self.buffer.access_span(span, Access::Read);
        self.stats.reads += 1;
        Ok(())
    }

    /// Reads one pointer slot (faults in the object's pages).
    pub fn read_slot(&mut self, oid: Oid, slot: SlotId) -> Result<Option<Oid>> {
        let rec = self.objects.get(oid)?;
        let value = rec.slot(oid, slot)?;
        let span = self.span_of(rec.addr, rec.size);
        self.buffer.access_span(span, Access::Read);
        Ok(value)
    }

    /// Mutates an object's non-pointer data. Dirties its pages but does not
    /// go through the pointer write barrier — the enhancement the paper
    /// makes to `MutatedPartition` is precisely that such writes are *not*
    /// counted.
    pub fn data_write(&mut self, oid: Oid) -> Result<()> {
        let rec = self.objects.get(oid)?;
        let partition = rec.addr.partition;
        let span = self.span_of(rec.addr, rec.size);
        self.buffer.access_span(span, Access::Write);
        self.stats.data_writes += 1;
        self.events.push(BarrierEvent::DataWrite { oid, partition });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::db::Database;
    use crate::events::BarrierEvent;
    use pgc_types::{Bytes, DbConfig, PgcError, SlotId};

    fn db() -> Database {
        Database::new(
            DbConfig::default()
                .with_page_size(1024)
                .with_partition_pages(4),
        )
        .unwrap()
    }

    #[test]
    fn mutations_log_events_in_order() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        let (c, _) = d.create_object(Bytes(100), 2, r, SlotId(0)).unwrap();
        d.data_write(c).unwrap();
        let events = d.events().events().to_vec();
        assert_eq!(events.len(), 4, "alloc, alloc, pointer write, data write");
        assert!(matches!(events[0], BarrierEvent::Allocation { oid, .. } if oid == r));
        assert!(matches!(events[1], BarrierEvent::Allocation { oid, .. } if oid == c));
        assert!(matches!(
            events[2],
            BarrierEvent::PointerWrite(info) if info.during_creation && info.new.unwrap().oid == c
        ));
        assert!(matches!(events[3], BarrierEvent::DataWrite { oid, .. } if oid == c));
    }

    #[test]
    fn growth_is_reported_on_the_bus() {
        let mut d = db();
        let r = d.create_root(Bytes(2048), 2).unwrap();
        d.create_object(Bytes(2048), 2, r, SlotId(0)).unwrap();
        d.clear_events();
        // This allocation cannot fit in P1: the database grows.
        let before = d.partition_count();
        d.create_object(Bytes(2048), 2, r, SlotId(1)).unwrap();
        assert!(d.partition_count() > before);
        let events = d.events().events();
        assert!(events
            .iter()
            .any(|e| matches!(e, BarrierEvent::Allocation { grew, .. } if *grew)));
        assert!(events.iter().any(|e| matches!(
            e,
            BarrierEvent::PartitionGrowth { partitions } if *partitions == d.partition_count()
        )));
    }

    #[test]
    fn add_slot_stops_where_slot_ids_end() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        for expected in 2..=u16::MAX {
            assert_eq!(d.add_slot(r).unwrap(), SlotId(expected));
        }
        // 65,536 slots, ids 0..=65,535: one more would answer to `SlotId(0)`.
        let io = d.io_stats();
        assert!(matches!(
            d.add_slot(r),
            Err(PgcError::SlotOutOfRange { len: 65_536, .. })
        ));
        assert_eq!(d.io_stats(), io, "a refused slot charges no page write");
        assert_eq!(d.objects().get(r).unwrap().slots.len(), 65_536);
        d.check_invariants();
    }

    #[test]
    fn drained_events_match_returned_infos() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        let (_, info) = d.create_object(Bytes(100), 2, r, SlotId(0)).unwrap();
        let overwrite = d.write_slot(r, SlotId(0), None).unwrap();
        let mut sink = Vec::new();
        d.drain_events(|event| sink.push(*event));
        assert!(d.events().is_empty());
        let writes: Vec<_> = sink
            .iter()
            .filter_map(|e| match e {
                BarrierEvent::PointerWrite(i) => Some(*i),
                _ => None,
            })
            .collect();
        assert_eq!(writes, vec![info, overwrite]);
    }
}
