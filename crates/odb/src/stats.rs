//! Database counters and the write-barrier event record.

use pgc_types::{Bytes, Oid, PartitionId, SlotId};

/// One side of a pointer as seen by the write barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointerTarget {
    /// The target object.
    pub oid: Oid,
    /// The partition the target resides in at barrier time.
    pub partition: PartitionId,
    /// The target's root-distance weight at barrier time (used by the
    /// `WeightedPointer` policy).
    pub weight: u8,
}

/// Everything a selection policy may observe about one pointer store.
///
/// This is the paper's write barrier viewed as an event: the owner and its
/// partition (what `MutatedPartition` counts), the overwritten target if any
/// (what `UpdatedPointer` counts), that target's weight (what
/// `WeightedPointer` weighs), and whether the store initialized a slot of a
/// brand-new object (the creation-time stores whose inclusion the paper
/// identifies as `MutatedPartition`'s weakness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointerWriteInfo {
    /// The object whose slot was written.
    pub owner: Oid,
    /// The partition containing the owner.
    pub owner_partition: PartitionId,
    /// The slot written.
    pub slot: SlotId,
    /// The pointer value that was overwritten, if the slot was non-null.
    pub old: Option<PointerTarget>,
    /// The pointer value stored, if non-null.
    pub new: Option<PointerTarget>,
    /// True when this store initializes a slot of an object being created.
    pub during_creation: bool,
}

impl PointerWriteInfo {
    /// True if the store overwrote an existing pointer (the paper's trigger
    /// event and `UpdatedPointer`'s hint).
    #[inline]
    pub fn is_overwrite(&self) -> bool {
        self.old.is_some()
    }
}

/// Cumulative semantic counters for one database.
///
/// These count *logical* events; the physical page I/O they induce is
/// accounted separately by the buffer pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DbStats {
    /// Objects created.
    pub objects_created: u64,
    /// Cumulative bytes ever allocated (the paper's "maximum allocated"
    /// axis in Figure 6 is driven by this).
    pub bytes_allocated: Bytes,
    /// Pointer stores through the write barrier (including creation-time
    /// slot initialization).
    pub pointer_writes: u64,
    /// Pointer stores that replaced a non-null pointer.
    pub pointer_overwrites: u64,
    /// Non-pointer (data) writes.
    pub data_writes: u64,
    /// Object visits (reads).
    pub reads: u64,
    /// Partition collections performed.
    pub collections: u64,
    /// Bytes reclaimed by collections.
    pub reclaimed_bytes: Bytes,
    /// Objects reclaimed by collections.
    pub reclaimed_objects: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_overwrite_tracks_old() {
        let base = PointerWriteInfo {
            owner: Oid(1),
            owner_partition: PartitionId(0),
            slot: SlotId(0),
            old: None,
            new: None,
            during_creation: false,
        };
        assert!(!base.is_overwrite());
        let over = PointerWriteInfo {
            old: Some(PointerTarget {
                oid: Oid(2),
                partition: PartitionId(1),
                weight: 3,
            }),
            ..base
        };
        assert!(over.is_overwrite());
    }
}
