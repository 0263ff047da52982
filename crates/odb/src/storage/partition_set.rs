//! The collection of all partitions: allocation policy, growth, and the
//! rotating empty partition.
//!
//! Three rules from Sec. 4.1 / Sec. 5 of the paper are implemented here:
//!
//! 1. **Near-parent placement** — "the database attempts to place a new
//!    object near its parent": allocation first tries the preferred
//!    (parent's) partition, then falls back to the first existing partition
//!    with room.
//! 2. **Growth** — "if an allocation occurs and there is insufficient free
//!    space anywhere in the database, a new partition is added. There is no
//!    limit on the number of partitions."
//! 3. **Empty partition** — "every algorithm measured maintains one empty
//!    partition at all times": one partition is reserved as the copy target;
//!    the application allocator never touches it, and after a collection the
//!    evacuated partition becomes the new empty one.

use super::partition::Partition;
use pgc_types::{Bytes, PageId, PartitionId, PgcError, PlacementPolicy, Result};

/// Outcome of an allocation: where the extent landed and whether satisfying
/// it forced the database to grow by a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Partition that received the extent.
    pub partition: PartitionId,
    /// Byte offset within that partition.
    pub offset: u64,
    /// True if a new partition had to be created for this allocation.
    pub grew: bool,
}

/// All partitions of the database plus the allocation/growth policy.
#[derive(Debug, Clone)]
pub struct PartitionSet {
    partitions: Vec<Partition>,
    empty: PartitionId,
    partition_capacity: Bytes,
    partition_pages: u64,
    placement: PlacementPolicy,
    /// Rotation cursor for [`PlacementPolicy::Spread`].
    spread_cursor: u32,
}

impl PartitionSet {
    /// Creates a database with one allocatable partition (`P1`) and one
    /// designated empty partition (`P0`).
    pub fn new(page_size: usize, partition_pages: u64) -> Self {
        let capacity = Bytes(partition_pages * page_size as u64);
        let partitions = vec![
            Partition::new(PartitionId(0), capacity),
            Partition::new(PartitionId(1), capacity),
        ];
        Self {
            partitions,
            empty: PartitionId(0),
            partition_capacity: capacity,
            partition_pages,
            placement: PlacementPolicy::NearParent,
            spread_cursor: 0,
        }
    }

    /// Sets the placement policy (default: the paper's near-parent).
    #[must_use]
    pub(crate) fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Appends what the object records do not say about the partitions:
    /// how many there are, the empty one, the spread cursor, and every bump
    /// cursor.
    pub(crate) fn save(&self, out: &mut Vec<u64>) {
        out.extend([
            self.partitions.len() as u64,
            u64::from(self.empty.index()),
            u64::from(self.spread_cursor),
        ]);
        out.extend(self.partitions.iter().map(|p| p.used_bytes().get()));
    }

    /// Becomes the set a snapshot described: `partitions` (ids `0..`), with
    /// `empty` designated and the spread cursor at `spread_cursor`.
    pub(crate) fn restore(
        &mut self,
        partitions: Vec<Partition>,
        empty: PartitionId,
        spread_cursor: u32,
    ) {
        self.partitions = partitions;
        self.empty = empty;
        self.spread_cursor = spread_cursor;
    }

    /// Number of partitions that exist (including the empty one).
    pub(crate) fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Total storage footprint: every existing partition at full width
    /// (this is the paper's "storage required" — fragmentation and garbage
    /// included, because partitions are units of disk allocation).
    pub fn total_footprint(&self) -> Bytes {
        Bytes(self.partition_capacity.get() * self.partitions.len() as u64)
    }

    /// The current designated empty partition.
    pub fn empty_partition(&self) -> PartitionId {
        self.empty
    }

    /// Shared view of a partition.
    pub fn partition(&self, id: PartitionId) -> Result<&Partition> {
        self.partitions
            .get(id.as_usize())
            .ok_or(PgcError::UnknownPartition(id))
    }

    /// Mutable view of a partition.
    pub(crate) fn partition_mut(&mut self, id: PartitionId) -> Result<&mut Partition> {
        self.partitions
            .get_mut(id.as_usize())
            .ok_or(PgcError::UnknownPartition(id))
    }

    /// Iterates over all partitions.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Partition> {
        self.partitions.iter()
    }

    /// Ids of all partitions that the application may allocate into or the
    /// collector may collect (everything except the designated empty one).
    pub(crate) fn collectable_ids(&self) -> impl Iterator<Item = PartitionId> + '_ {
        let empty = self.empty;
        self.partitions
            .iter()
            .map(|p| p.id())
            .filter(move |&id| id != empty)
    }

    /// Allocates `size` bytes for the application.
    ///
    /// Placement order: `preferred` (the parent's partition) first, then the
    /// first existing non-empty-designated partition with room, then a newly
    /// created partition. Fails only if `size` exceeds a whole partition.
    pub fn allocate(&mut self, size: Bytes, preferred: Option<PartitionId>) -> Result<Placement> {
        if size.get() > self.partition_capacity.get() {
            return Err(PgcError::ObjectTooLarge {
                size,
                partition_capacity: self.partition_capacity,
            });
        }
        // Near-parent placement honours the preferred partition; the
        // ablation policies deliberately ignore it.
        if self.placement == PlacementPolicy::NearParent {
            if let Some(pref) = preferred {
                if pref != self.empty {
                    if let Some(offset) = self.partition_mut(pref)?.try_alloc(size) {
                        return Ok(Placement {
                            partition: pref,
                            offset,
                            grew: false,
                        });
                    }
                }
            }
        }
        let empty = self.empty;
        let n = self.partitions.len();
        let start = match self.placement {
            PlacementPolicy::Spread => (self.spread_cursor as usize + 1) % n,
            _ => 0,
        };
        for k in 0..n {
            let i = (start + k) % n;
            let id = self.partitions[i].id();
            if id == empty {
                continue;
            }
            if self.placement == PlacementPolicy::NearParent && Some(id) == preferred {
                continue; // already tried above
            }
            if let Some(offset) = self.partitions[i].try_alloc(size) {
                if self.placement == PlacementPolicy::Spread {
                    self.spread_cursor = id.index();
                }
                return Ok(Placement {
                    partition: id,
                    offset,
                    grew: false,
                });
            }
        }
        let id = self.grow();
        let offset = self
            .partition_mut(id)
            .expect("freshly grown partition exists")
            .try_alloc(size)
            .expect("fresh partition has room for a <= capacity extent");
        Ok(Placement {
            partition: id,
            offset,
            grew: true,
        })
    }

    /// Allocates `size` bytes inside a specific partition, bypassing the
    /// empty-partition exclusion. Used by the copying collector to fill the
    /// designated empty partition. Returns `None` when the partition is out
    /// of contiguous space.
    pub(crate) fn allocate_in(&mut self, id: PartitionId, size: Bytes) -> Result<Option<u64>> {
        Ok(self.partition_mut(id)?.try_alloc(size))
    }

    /// Adds a brand-new partition and returns its id.
    pub(crate) fn grow(&mut self) -> PartitionId {
        let id = PartitionId(self.partitions.len() as u32);
        self.partitions
            .push(Partition::new(id, self.partition_capacity));
        id
    }

    /// Completes a collection: `collected` has been fully evacuated, so it
    /// is reset and becomes the new designated empty partition; the previous
    /// empty partition (which now holds the survivors) joins the allocatable
    /// pool.
    ///
    /// Returns an error if `collected` *is* the designated empty partition.
    pub(crate) fn rotate_empty(&mut self, collected: PartitionId) -> Result<()> {
        if collected == self.empty {
            return Err(PgcError::CollectEmptyPartition(collected));
        }
        self.partition_mut(collected)?.reset();
        self.empty = collected;
        Ok(())
    }

    /// The global pages spanned by one whole partition (used to invalidate
    /// buffered pages of a collected partition).
    pub(crate) fn partition_pages_span(&self, id: PartitionId) -> impl Iterator<Item = PageId> {
        let base = id.index() as u64 * self.partition_pages;
        (base..base + self.partition_pages).map(PageId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set() -> PartitionSet {
        // Tiny partitions (2 pages of 1024 bytes) keep tests readable.
        PartitionSet::new(1024, 2)
    }

    #[test]
    fn starts_with_one_allocatable_and_one_empty() {
        let s = set();
        assert_eq!(s.partition_count(), 2);
        assert_eq!(s.empty_partition(), PartitionId(0));
        assert_eq!(
            s.collectable_ids().collect::<Vec<_>>(),
            vec![PartitionId(1)]
        );
        assert_eq!(s.total_footprint(), Bytes(4096));
    }

    #[test]
    fn allocation_avoids_the_empty_partition() {
        let mut s = set();
        for _ in 0..10 {
            let pl = s.allocate(Bytes(100), None).unwrap();
            assert_ne!(pl.partition, s.empty_partition());
        }
    }

    #[test]
    fn preferred_partition_is_tried_first() {
        let mut s = set();
        s.grow(); // P2
        let pl = s.allocate(Bytes(100), Some(PartitionId(2))).unwrap();
        assert_eq!(pl.partition, PartitionId(2));
        assert!(!pl.grew);
    }

    #[test]
    fn preferred_equal_to_empty_is_ignored() {
        let mut s = set();
        let pl = s.allocate(Bytes(100), Some(PartitionId(0))).unwrap();
        assert_eq!(pl.partition, PartitionId(1));
    }

    #[test]
    fn growth_when_everything_is_full() {
        let mut s = set();
        // Fill P1 (capacity 2048).
        s.allocate(Bytes(2048), None).unwrap();
        let pl = s.allocate(Bytes(100), None).unwrap();
        assert!(pl.grew);
        assert_eq!(pl.partition, PartitionId(2));
        assert_eq!(s.partition_count(), 3);
    }

    #[test]
    fn fallback_scans_existing_partitions_before_growing() {
        let mut s = set();
        s.allocate(Bytes(2000), None).unwrap(); // P1 nearly full
        let pl = s.allocate(Bytes(100), Some(PartitionId(1))).unwrap();
        // P1 has 48 bytes left; a new partition is required.
        assert!(pl.grew);
        // Now P2 has room; preferring full P1 falls through to P2 without
        // growing again.
        let pl2 = s.allocate(Bytes(100), Some(PartitionId(1))).unwrap();
        assert_eq!(pl2.partition, PartitionId(2));
        assert!(!pl2.grew);
    }

    #[test]
    fn oversized_objects_are_rejected() {
        let mut s = set();
        let err = s.allocate(Bytes(4096), None).unwrap_err();
        assert!(matches!(err, PgcError::ObjectTooLarge { .. }));
    }

    #[test]
    fn rotate_empty_swaps_roles() {
        let mut s = set();
        s.allocate(Bytes(500), None).unwrap(); // into P1
                                               // Collector copies survivors into P0, then P1 is reset and becomes
                                               // the empty partition.
        assert!(s.allocate_in(PartitionId(0), Bytes(500)).unwrap().is_some());
        s.rotate_empty(PartitionId(1)).unwrap();
        assert_eq!(s.empty_partition(), PartitionId(1));
        assert!(s.partition(PartitionId(1)).unwrap().is_fresh());
        // P0 is now allocatable by the application.
        let pl = s.allocate(Bytes(100), None).unwrap();
        assert_eq!(pl.partition, PartitionId(0));
    }

    #[test]
    fn rotate_empty_rejects_the_empty_partition() {
        let mut s = set();
        let err = s.rotate_empty(PartitionId(0)).unwrap_err();
        assert_eq!(err, PgcError::CollectEmptyPartition(PartitionId(0)));
    }

    #[test]
    fn partition_pages_span_is_contiguous_and_partition_sized() {
        let s = set();
        let pages: Vec<u64> = s
            .partition_pages_span(PartitionId(2))
            .map(|p| p.index())
            .collect();
        assert_eq!(pages, vec![4, 5]);
    }

    #[test]
    fn first_fit_ignores_preferred_partition() {
        let mut s = PartitionSet::new(1024, 2).with_placement(PlacementPolicy::FirstFit);
        s.grow(); // P2
                  // Prefer P2, but FirstFit starts from the lowest-id partition.
        let pl = s.allocate(Bytes(100), Some(PartitionId(2))).unwrap();
        assert_eq!(pl.partition, PartitionId(1));
    }

    #[test]
    fn spread_rotates_between_partitions() {
        let mut s = PartitionSet::new(1024, 2).with_placement(PlacementPolicy::Spread);
        s.grow(); // P2
        s.grow(); // P3
        let picks: Vec<u32> = (0..6)
            .map(|_| s.allocate(Bytes(100), None).unwrap().partition.index())
            .collect();
        // Rotates over the collectable partitions (1, 2, 3), skipping the
        // empty one.
        assert_eq!(picks, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn spread_still_grows_when_everything_is_full() {
        let mut s = PartitionSet::new(1024, 2).with_placement(PlacementPolicy::Spread);
        s.allocate(Bytes(2048), None).unwrap(); // fill P1
        let pl = s.allocate(Bytes(2048), None).unwrap();
        assert!(pl.grew);
    }

    #[test]
    fn unknown_partition_errors() {
        let s = set();
        assert!(matches!(
            s.partition(PartitionId(99)),
            Err(PgcError::UnknownPartition(_))
        ));
    }
}
