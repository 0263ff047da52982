//! The object table: stable identity over movable storage.
//!
//! The copying collector relocates objects, so everything above the storage
//! layer names objects by [`Oid`] and resolves physical locations through
//! this table. Besides the per-object records, the table maintains dense
//! per-partition membership lists, which the collector uses to enumerate a
//! partition's residents (to find its garbage) and the oracle uses to
//! attribute garbage to partitions.
//!
//! # Dense-id representation
//!
//! `Oid`s are allocated sequentially and never reused, so the table is a
//! **slab** of entries indexed by `Oid::index()`. Every
//! lookup on the simulator's hottest paths (oracle traversal, write
//! barrier, collection) is one bounds check and one indexed load, with no
//! hashing. A record is 56 bytes with its pointer slots inside it
//! ([`super::slots::Slots`]: creating or reclaiming one of the tree's
//! two-slot objects never calls the allocator), and its slab entry adds
//! the object's position in its partition's member list: 64 bytes, one
//! cache line for everything a collection touches per object. (The width
//! also keeps the slab's growth stages at power-of-two byte sizes, which
//! glibc maps and returns whole; with 56-byte entries the slab's last
//! stage on `churn_durable` fell just under glibc's 32 MiB line, and once
//! freed pulled every later run's slab onto the untrimmed heap: 10 MiB of
//! peak RSS.) Reclaimed
//! entries stay `None` forever; for the workloads the simulator runs
//! (bounded live set, ~2x total allocation over peak live) the slab's tail
//! of tombstones is far cheaper than hashing every access. Iteration is in
//! ascending oid order — deterministic across processes and threads.
//!
//! Partition membership is a `Vec<Oid>` per partition, each entry knowing
//! its own position for O(1) swap-removal. Membership order is a deterministic
//! function of the operation history; callers that need a canonical order
//! (the collector's garbage sweep) sort, exactly as they did before.

use super::addr::ObjAddr;
use super::slots::Slots;
use pgc_types::{Bytes, Oid, PartitionId, PgcError, Result, SlotId};

/// Everything the database knows about one object.
#[derive(Debug, Clone)]
pub struct ObjectRecord {
    /// Current physical location.
    pub addr: ObjAddr,
    /// Object size in bytes (fixed at creation).
    pub size: Bytes,
    /// Pointer slots. Tree children occupy the first slots; dense edges
    /// appended by the workload extend the run.
    pub slots: Slots,
    /// Root-distance weight for the `WeightedPointer` policy (1 = root,
    /// capped at the configured maximum, 16 in the paper).
    pub weight: u8,
}

impl ObjectRecord {
    /// Reads slot `slot`, failing if the index is out of range.
    pub(crate) fn slot(&self, oid: Oid, slot: SlotId) -> Result<Option<Oid>> {
        self.slots
            .get(slot.as_usize())
            .map(|s| s.get())
            .ok_or(PgcError::SlotOutOfRange {
                oid,
                slot: slot.0,
                len: self.slots.len(),
            })
    }
}

/// A slab entry: a registered object's record, and where the object sits
/// in its partition's member list.
#[derive(Debug, Clone)]
struct Entry {
    record: ObjectRecord,
    member_pos: u32,
}

/// The Oid → record slab plus per-partition membership.
#[derive(Debug, Clone, Default)]
pub struct ObjectTable {
    /// Slab of entries, indexed by `Oid::index()`. `None` = reserved but
    /// unregistered, or reclaimed.
    slab: Vec<Option<Entry>>,
    /// Per-partition resident lists.
    members: Vec<Vec<Oid>>,
    /// Count of registered (live) objects.
    live: usize,
    /// Oids are handed out in creation order, so an oid is also the
    /// object's logical birth time.
    next_oid: u64,
    total_bytes: Bytes,
}

impl ObjectTable {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// An empty table that hands out `next_oid` next: what a restore
    /// registers a snapshot's survivors into, in no particular oid order.
    /// The slab gets the capacity the live table's doubling reached, not
    /// whatever the order of those survivors would grow it to.
    pub(crate) fn with_oid_bound(next_oid: u64) -> Self {
        Self {
            slab: Vec::with_capacity((next_oid as usize).next_power_of_two()),
            next_oid,
            ..Self::default()
        }
    }

    /// Total bytes of all registered objects.
    pub(crate) fn total_bytes(&self) -> Bytes {
        self.total_bytes
    }

    /// One past the highest oid ever reserved — the exclusive upper bound
    /// of valid `Oid::index()` values, i.e. the capacity a dense per-object
    /// structure (bit set, scratch slab) must cover. Every create event
    /// reserves the next one, so workload node `n` is `Oid(n)` below it.
    pub fn oid_bound(&self) -> u64 {
        self.next_oid
    }

    /// Reserves and returns the next object id without registering a record
    /// (the database allocates storage first, then registers).
    pub(crate) fn reserve_oid(&mut self) -> Oid {
        let oid = Oid(self.next_oid);
        self.next_oid += 1;
        oid
    }

    /// Registers a record under `oid` (previously handed out by
    /// [`ObjectTable::reserve_oid`]), at the end of its partition's member
    /// list.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `oid` is not already registered.
    pub(crate) fn register(&mut self, oid: Oid, record: ObjectRecord) {
        let idx = oid.index() as usize;
        if self.slab.len() <= idx {
            self.slab.resize_with(idx + 1, || None);
        }
        debug_assert!(self.slab[idx].is_none(), "duplicate oid {oid}");
        self.ensure_partition(record.addr.partition);
        let list = &mut self.members[record.addr.partition.as_usize()];
        let member_pos = list.len() as u32;
        list.push(oid);
        self.total_bytes += record.size;
        self.live += 1;
        self.slab[idx] = Some(Entry { record, member_pos });
    }

    fn entry(&self, oid: Oid) -> Result<&Entry> {
        self.slab
            .get(oid.index() as usize)
            .and_then(Option::as_ref)
            .ok_or(PgcError::UnknownObject(oid))
    }

    fn entry_mut(&mut self, oid: Oid) -> Result<&mut Entry> {
        self.slab
            .get_mut(oid.index() as usize)
            .and_then(Option::as_mut)
            .ok_or(PgcError::UnknownObject(oid))
    }

    /// Looks up an object, failing with [`PgcError::UnknownObject`] if it
    /// does not exist (any more).
    pub fn get(&self, oid: Oid) -> Result<&ObjectRecord> {
        self.entry(oid).map(|e| &e.record)
    }

    /// Mutable lookup.
    pub(crate) fn get_mut(&mut self, oid: Oid) -> Result<&mut ObjectRecord> {
        self.entry_mut(oid).map(|e| &mut e.record)
    }

    /// True if `oid` is currently registered.
    pub fn contains(&self, oid: Oid) -> bool {
        self.entry(oid).is_ok()
    }

    /// Removes an object (it has been reclaimed), returning its record.
    pub(crate) fn remove(&mut self, oid: Oid) -> Result<ObjectRecord> {
        let Entry { record, member_pos } = self
            .slab
            .get_mut(oid.index() as usize)
            .and_then(Option::take)
            .ok_or(PgcError::UnknownObject(oid))?;
        self.unlink_member(oid, record.addr.partition, member_pos);
        self.total_bytes -= record.size;
        self.live -= 1;
        Ok(record)
    }

    /// Moves an object to a new physical address (collector evacuation),
    /// updating partition membership.
    pub(crate) fn relocate(&mut self, oid: Oid, new_addr: ObjAddr) -> Result<()> {
        let entry = self.entry(oid)?;
        let (old_partition, pos) = (entry.record.addr.partition, entry.member_pos);
        let mut member_pos = pos;
        if old_partition != new_addr.partition {
            self.ensure_partition(new_addr.partition);
            self.unlink_member(oid, old_partition, pos);
            let list = &mut self.members[new_addr.partition.as_usize()];
            member_pos = list.len() as u32;
            list.push(oid);
        }
        let entry = self.entry_mut(oid)?;
        entry.record.addr = new_addr;
        entry.member_pos = member_pos;
        Ok(())
    }

    /// The objects currently resident in `partition`.
    pub fn members(&self, partition: PartitionId) -> impl Iterator<Item = Oid> + '_ {
        self.members
            .get(partition.as_usize())
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Number of objects resident in `partition`.
    pub fn member_count(&self, partition: PartitionId) -> usize {
        self.members
            .get(partition.as_usize())
            .map_or(0, |s| s.len())
    }

    /// Iterates over every `(oid, record)` pair in ascending oid order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Oid, &ObjectRecord)> {
        self.slab
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (Oid(i as u64), &e.record)))
    }

    /// Swap-removes `oid`, at `pos`, from `partition`'s member list, fixing
    /// up the displaced element's recorded position.
    fn unlink_member(&mut self, oid: Oid, partition: PartitionId, pos: u32) {
        let pos = pos as usize;
        let list = &mut self.members[partition.as_usize()];
        debug_assert_eq!(list[pos], oid, "member position out of sync");
        list.swap_remove(pos);
        if let Some(&moved) = list.get(pos) {
            if let Some(entry) = self.slab[moved.index() as usize].as_mut() {
                entry.member_pos = pos as u32;
            }
        }
    }

    fn ensure_partition(&mut self, partition: PartitionId) {
        let need = partition.as_usize() + 1;
        if self.members.len() < need {
            self.members.resize_with(need, Vec::new);
        }
    }

    /// Debug invariant check: membership lists partition the record slab.
    pub(crate) fn check_invariants(&self) {
        let mut seen = 0usize;
        for (idx, list) in self.members.iter().enumerate() {
            for (pos, &oid) in list.iter().enumerate() {
                let entry = self.entry(oid).expect("member without record");
                assert_eq!(
                    entry.record.addr.partition.as_usize(),
                    idx,
                    "object {oid} in wrong member list"
                );
                assert_eq!(
                    entry.member_pos as usize, pos,
                    "object {oid} has stale member position"
                );
                seen += 1;
            }
        }
        assert_eq!(seen, self.live, "membership does not cover table");
        assert_eq!(self.iter().count(), self.live, "live count drifted");
        let bytes: Bytes = self.iter().map(|(_, r)| r.size).sum();
        assert_eq!(bytes, self.total_bytes, "byte accounting drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(partition: u32, offset: u64, size: u64, nslots: usize) -> ObjectRecord {
        ObjectRecord {
            addr: ObjAddr::new(PartitionId(partition), offset),
            size: Bytes(size),
            slots: Slots::nulls(nslots),
            weight: 1,
        }
    }

    #[test]
    fn reserve_register_lookup() {
        let mut t = ObjectTable::new();
        let a = t.reserve_oid();
        let b = t.reserve_oid();
        assert_ne!(a, b);
        t.register(a, rec(1, 0, 100, 2));
        assert!(t.contains(a));
        assert!(!t.contains(b));
        assert_eq!(t.get(a).unwrap().size, Bytes(100));
        assert!(matches!(t.get(b), Err(PgcError::UnknownObject(_))));
        assert_eq!(t.live, 1);
        assert_eq!(t.total_bytes(), Bytes(100));
        assert_eq!(t.oid_bound(), 2);
        t.check_invariants();
    }

    #[test]
    fn oids_are_never_reused() {
        let mut t = ObjectTable::new();
        let a = t.reserve_oid();
        t.register(a, rec(1, 0, 10, 0));
        t.remove(a).unwrap();
        let b = t.reserve_oid();
        assert_ne!(a, b);
    }

    #[test]
    fn remove_updates_membership_and_bytes() {
        let mut t = ObjectTable::new();
        let a = t.reserve_oid();
        t.register(a, rec(2, 0, 64, 1));
        assert_eq!(t.member_count(PartitionId(2)), 1);
        let removed = t.remove(a).unwrap();
        assert_eq!(removed.size, Bytes(64));
        assert_eq!(t.member_count(PartitionId(2)), 0);
        assert_eq!(t.total_bytes(), Bytes::ZERO);
        assert!(t.remove(a).is_err());
        t.check_invariants();
    }

    #[test]
    fn relocate_moves_membership() {
        let mut t = ObjectTable::new();
        let a = t.reserve_oid();
        t.register(a, rec(1, 0, 100, 2));
        t.relocate(a, ObjAddr::new(PartitionId(3), 500)).unwrap();
        assert_eq!(t.member_count(PartitionId(1)), 0);
        assert_eq!(t.member_count(PartitionId(3)), 1);
        assert_eq!(t.get(a).unwrap().addr.offset, 500);
        t.check_invariants();
    }

    #[test]
    fn relocate_within_partition_keeps_membership() {
        let mut t = ObjectTable::new();
        let a = t.reserve_oid();
        let b = t.reserve_oid();
        t.register(a, rec(1, 0, 100, 0));
        t.register(b, rec(1, 100, 100, 0));
        t.relocate(a, ObjAddr::new(PartitionId(1), 700)).unwrap();
        assert_eq!(t.member_count(PartitionId(1)), 2);
        assert_eq!(t.get(a).unwrap().addr.offset, 700);
        t.check_invariants();
    }

    #[test]
    fn members_lists_only_that_partition() {
        let mut t = ObjectTable::new();
        let a = t.reserve_oid();
        let b = t.reserve_oid();
        let c = t.reserve_oid();
        t.register(a, rec(1, 0, 10, 0));
        t.register(b, rec(1, 10, 10, 0));
        t.register(c, rec(2, 0, 10, 0));
        let mut in_p1: Vec<Oid> = t.members(PartitionId(1)).collect();
        in_p1.sort();
        assert_eq!(in_p1, vec![a, b]);
        assert_eq!(t.members(PartitionId(9)).count(), 0);
    }

    #[test]
    fn swap_removal_keeps_positions_consistent() {
        // Remove from the middle of a member list repeatedly; the position
        // slab must track every displaced element.
        let mut t = ObjectTable::new();
        let oids: Vec<Oid> = (0..10)
            .map(|i| {
                let o = t.reserve_oid();
                t.register(o, rec(1, i * 10, 10, 0));
                o
            })
            .collect();
        for &o in &[oids[4], oids[0], oids[9], oids[5]] {
            t.remove(o).unwrap();
            t.check_invariants();
        }
        assert_eq!(t.member_count(PartitionId(1)), 6);
    }

    #[test]
    fn slot_bounds_are_checked() {
        let mut t = ObjectTable::new();
        let a = t.reserve_oid();
        t.register(a, rec(1, 0, 100, 2));
        let r = t.get(a).unwrap();
        assert_eq!(r.slot(a, SlotId(0)).unwrap(), None);
        assert_eq!(r.slot(a, SlotId(1)).unwrap(), None);
        assert!(matches!(
            r.slot(a, SlotId(2)),
            Err(PgcError::SlotOutOfRange { .. })
        ));
    }

    #[test]
    fn iter_visits_everything_in_oid_order() {
        let mut t = ObjectTable::new();
        let mut oids = Vec::new();
        for i in 0..5 {
            let o = t.reserve_oid();
            t.register(o, rec(1, i * 10, 10, 0));
            oids.push(o);
        }
        t.remove(oids[2]).unwrap();
        let visited: Vec<Oid> = t.iter().map(|(o, _)| o).collect();
        assert_eq!(visited, vec![oids[0], oids[1], oids[3], oids[4]]);
    }
}
