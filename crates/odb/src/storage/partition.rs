//! A single physical partition.
//!
//! Each partition is a fixed-capacity region (`partition_pages * page_size`
//! bytes) filled by bump allocation. Space freed by objects dying inside the
//! partition is *not* reusable in place: under the paper's copying design,
//! the only way a partition's dead space comes back is a copy collection
//! that evacuates the live objects and resets the whole partition. The
//! difference between the bump cursor and the live bytes is therefore the
//! partition's internal fragmentation plus unreclaimed garbage — the
//! quantity the selection policies are trying to maximize when they pick a
//! victim.

use pgc_types::{Bytes, PartitionId};

/// Bookkeeping for one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    id: PartitionId,
    capacity: Bytes,
    /// Bump cursor: all bytes below this offset have been handed out.
    cursor: u64,
    /// Bytes occupied by objects currently considered live-or-unreclaimed
    /// (decremented when an object is reclaimed or evacuated, not when it
    /// merely becomes unreachable — unreachability is invisible here).
    resident_bytes: Bytes,
    /// Number of resident objects (same caveat as `resident_bytes`).
    resident_objects: u64,
}

impl Partition {
    /// Creates an empty partition of the given byte capacity.
    pub(crate) fn new(id: PartitionId, capacity: Bytes) -> Self {
        Self {
            id,
            capacity,
            cursor: 0,
            resident_bytes: Bytes::ZERO,
            resident_objects: 0,
        }
    }

    /// A partition as a snapshot left it: bump cursor at `cursor`, holding
    /// residents of `resident_bytes` in all, `resident_objects` of them.
    pub(crate) fn restored(
        id: PartitionId,
        capacity: Bytes,
        cursor: u64,
        resident_bytes: Bytes,
        resident_objects: u64,
    ) -> Self {
        Self {
            id,
            capacity,
            cursor,
            resident_bytes,
            resident_objects,
        }
    }

    /// This partition's id.
    pub(crate) fn id(&self) -> PartitionId {
        self.id
    }

    /// Total byte capacity.
    pub(crate) fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Bytes still available to the bump allocator.
    pub(crate) fn free_bytes(&self) -> Bytes {
        Bytes(self.capacity.get() - self.cursor)
    }

    /// Bytes handed out so far (live + dead + fragmentation).
    pub fn used_bytes(&self) -> Bytes {
        Bytes(self.cursor)
    }

    /// Bytes belonging to resident (not yet reclaimed) objects.
    pub(crate) fn resident_bytes(&self) -> Bytes {
        self.resident_bytes
    }

    /// True if nothing has ever been allocated since the last reset.
    pub fn is_fresh(&self) -> bool {
        self.cursor == 0
    }

    /// Attempts to bump-allocate `size` bytes; returns the offset of the new
    /// extent, or `None` if the partition lacks contiguous space.
    pub(crate) fn try_alloc(&mut self, size: Bytes) -> Option<u64> {
        if size.get() > self.free_bytes().get() {
            return None;
        }
        let offset = self.cursor;
        self.cursor += size.get();
        self.resident_bytes += size;
        self.resident_objects += 1;
        Some(offset)
    }

    /// Records that a resident object of `size` bytes left the partition
    /// (reclaimed as garbage or evacuated by the collector). The space is
    /// *not* returned to the allocator.
    pub(crate) fn note_departure(&mut self, size: Bytes) {
        debug_assert!(self.resident_objects > 0, "departure from empty partition");
        self.resident_bytes -= size;
        self.resident_objects -= 1;
    }

    /// Resets the partition to completely empty (after the collector has
    /// evacuated its live objects).
    pub(crate) fn reset(&mut self) {
        self.cursor = 0;
        self.resident_bytes = Bytes::ZERO;
        self.resident_objects = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(cap: u64) -> Partition {
        Partition::new(PartitionId(0), Bytes(cap))
    }

    #[test]
    fn bump_allocation_is_sequential() {
        let mut p = part(1000);
        assert_eq!(p.try_alloc(Bytes(100)), Some(0));
        assert_eq!(p.try_alloc(Bytes(50)), Some(100));
        assert_eq!(p.try_alloc(Bytes(850)), Some(150));
        assert_eq!(p.free_bytes(), Bytes::ZERO);
        assert_eq!(p.try_alloc(Bytes(1)), None);
    }

    #[test]
    fn allocation_respects_capacity_exactly() {
        let mut p = part(100);
        assert_eq!(p.try_alloc(Bytes(100)), Some(0));
        let mut p = part(100);
        assert_eq!(p.try_alloc(Bytes(101)), None);
        assert!(p.is_fresh());
    }

    #[test]
    fn departure_does_not_free_allocator_space() {
        let mut p = part(100);
        p.try_alloc(Bytes(60)).unwrap();
        p.note_departure(Bytes(60));
        assert_eq!(p.resident_bytes(), Bytes::ZERO);
        assert_eq!(p.resident_objects, 0);
        // The hole is not reusable: only 40 bytes remain allocatable.
        assert_eq!(p.free_bytes(), Bytes(40));
        assert_eq!(p.try_alloc(Bytes(41)), None);
        assert_eq!(p.try_alloc(Bytes(40)), Some(60));
    }

    #[test]
    fn reset_restores_everything() {
        let mut p = part(100);
        p.try_alloc(Bytes(70)).unwrap();
        p.reset();
        assert!(p.is_fresh());
        assert_eq!(p.free_bytes(), Bytes(100));
        assert_eq!(p.resident_objects, 0);
        assert_eq!(p.try_alloc(Bytes(100)), Some(0));
    }

    #[test]
    fn accounting_tracks_residents() {
        let mut p = part(1000);
        p.try_alloc(Bytes(100)).unwrap();
        p.try_alloc(Bytes(200)).unwrap();
        assert_eq!(p.resident_bytes(), Bytes(300));
        assert_eq!(p.resident_objects, 2);
        assert_eq!(p.used_bytes(), Bytes(300));
        p.note_departure(Bytes(100));
        assert_eq!(p.resident_bytes(), Bytes(200));
        assert_eq!(p.used_bytes(), Bytes(300)); // cursor unmoved
    }
}
