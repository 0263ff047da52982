//! The object table: stable identity over movable storage.
//!
//! The copying collector relocates objects, so everything above the storage
//! layer names objects by [`Oid`] and resolves physical locations through
//! this table. Besides the per-object records, the table maintains dense
//! per-partition membership lists, which the collector uses to enumerate a
//! partition's residents (to find its garbage), and the set of free record
//! positions, which the oracle's sweep reads a word at a time.
//!
//! # Dense-id representation
//!
//! `Oid`s are allocated sequentially and never reused, so the table is an
//! **index** by `Oid::index()` over a dense store of records. The index
//! holds one `u32` per oid ever handed out: the position of the object's
//! record plus one, or 0 while the oid is unregistered or reclaimed. The
//! records sit in a `Vec` sized by the live set: reclaiming an object
//! frees its record's position, and the next `register` takes the lowest
//! free one (a bitset, searched from a floor below which none is free).
//! Lowest first keeps objects created together in ascending
//! positions, the order a traversal of their tree reads them; handing out
//! the most recently freed position instead scattered them: against the
//! oid-indexed slab this table replaced, `fleet_roundtrip`'s bare replay
//! read 8.2% slower that way and 1.8% slower lowest first (medians of ten
//! benchmark pairs each). Every
//! lookup on the simulator's hottest paths (oracle traversal, write
//! barrier, collection) is two indexed loads, with no hashing. A record is
//! 56 bytes with its pointer slots inside it ([`super::slots::Slots`]:
//! creating or reclaiming one of the tree's two-slot objects never calls
//! the allocator). An object that died keeps only its 4-byte index word,
//! so a table restored from a snapshot costs its live records plus one
//! word per oid, however many objects the run reclaimed. At most
//! `u32::MAX` objects are live at once: `register` refuses the next one.
//! Record positions are internal. Iteration walks the index, in ascending
//! oid order — deterministic across processes and threads.
//!
//! Partition membership is a `Vec<Oid>` per partition, in the order the
//! objects joined it. Only the collector takes objects out of a partition,
//! and it empties the partition whole: it takes the victim's list with
//! [`ObjectTable::take_members`] first, so relocating or removing an
//! object leaves its old list alone. Membership order is a deterministic
//! function of the operation history.

use super::addr::ObjAddr;
use super::slots::Slots;
use crate::restore::bad;
use pgc_types::{Bytes, DenseBitSet, Oid, PartitionId, PgcError, PointerLoc, Result, SlotId};

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

/// The Oid → record index, the records, and per-partition membership.
#[derive(Debug, Clone, Default)]
pub struct ObjectTable {
    /// Indexed by `Oid::index()`: the position of the object's record in
    /// `records` plus one, 0 = reserved but unregistered, or reclaimed.
    index: Vec<u32>,
    /// The registered objects' records, in no particular order. `None` is
    /// a free position.
    records: Vec<Option<ObjectRecord>>,
    /// The free positions of `records`; `register` takes the lowest.
    free: DenseBitSet,
    /// No position below this one is free: where that search starts.
    free_floor: u64,
    /// Per-partition resident lists.
    members: Vec<Vec<Oid>>,
    /// Oids are handed out in creation order, so an oid is also the
    /// object's logical birth time.
    next_oid: u64,
    total_bytes: Bytes,
}

/// The index word of the record at `pos`: its position plus one, which a
/// `u32` holds for positions below `u32::MAX`.
fn index_word(pos: usize) -> Result<u32> {
    u32::try_from(pos + 1).map_err(|_| PgcError::TooManyObjects)
}

impl ObjectTable {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The table a restore loads: `records` (`counts[p]` in partition `p`,
    /// partition by partition in member order, each passing `admit`) move
    /// into storage sized once, so the member lists, read in order, are the
    /// record store front to back. One walk of them then gives `edge` each
    /// cross-partition pointer (location, partition, target, its partition):
    /// a target outside its owner's run of positions. An oid past
    /// `next_oid` or twice, partitions out of order and a slot naming an
    /// absent object are each an `Err`, as is one from `records`.
    pub(crate) fn load(
        next_oid: u64,
        counts: &[usize],
        records: impl IntoIterator<Item = Result<(Oid, ObjectRecord)>>,
        mut admit: impl FnMut(&ObjectRecord) -> Result<()>,
        mut edge: impl FnMut(PointerLoc, PartitionId, Oid, PartitionId),
    ) -> Result<Self> {
        let mut table = Self {
            index: vec![0; next_oid as usize],
            records: Vec::with_capacity(counts.iter().sum()),
            members: counts.iter().map(|&n| Vec::with_capacity(n)).collect(),
            next_oid,
            ..Self::default()
        };
        let mut last = 0;
        for item in records {
            let (oid, record) = item?;
            admit(&record)?;
            let word = index_word(table.records.len())?;
            let p = record.addr.partition.as_usize();
            let members = table.members.get_mut(p).filter(|_| p >= last);
            let members = members.ok_or_else(|| bad("records out of partition order"))?;
            let entry = table
                .index
                .get_mut(oid.index() as usize)
                .filter(|e| **e == 0);
            *entry.ok_or_else(|| bad("an oid past the bound, or twice"))? = word;
            members.push(oid);
            table.total_bytes += record.size;
            table.records.push(Some(record));
            last = p;
        }
        let mut start = 0;
        for (from, members) in (0..).map(PartitionId).zip(&table.members) {
            let here = start..start + members.len();
            let records = table.records.get(here.clone()).unwrap_or_default();
            for (&oid, record) in members.iter().zip(records.iter().flatten()) {
                for (i, target) in record.slots.iter().enumerate() {
                    let Some(target) = target.get() else { continue };
                    let at = table.position(target);
                    let at = at.ok_or_else(|| bad("a slot names an absent object"))?;
                    if !here.contains(&at) {
                        let to = table.get(target)?.addr.partition;
                        edge(PointerLoc::new(oid, SlotId(i as u16)), from, target, to);
                    }
                }
            }
            start = here.end;
        }
        Ok(table)
    }

    /// Total bytes of all registered objects.
    pub(crate) fn total_bytes(&self) -> Bytes {
        self.total_bytes
    }

    /// Count of registered (live) objects.
    fn live(&self) -> usize {
        self.records.len() - self.free.len()
    }

    /// Length of the record store, whose positions are occupied or free.
    pub(crate) fn store_len(&self) -> usize {
        self.records.len()
    }

    /// The occupied positions among `64 * w .. 64 * w + 64`, as the bits of
    /// one word: below the store's length and not free.
    #[inline]
    pub(crate) fn occupied_word(&self, w: usize) -> u64 {
        let tail = self.records.len().saturating_sub(w * 64).min(64) as u32;
        let past_end = u64::MAX.checked_shl(tail).unwrap_or(0);
        !self.free.word(w) & !past_end
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
    /// list. Fails with [`PgcError::TooManyObjects`] when `u32::MAX`
    /// objects are already registered.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `oid` is not already registered.
    pub(crate) fn register(&mut self, oid: Oid, record: ObjectRecord) -> Result<()> {
        let idx = oid.index() as usize;
        if self.index.len() <= idx {
            self.index.resize(idx + 1, 0);
        }
        debug_assert!(self.index[idx] == 0, "duplicate oid {oid}");
        let word = match self.free.first_from(self.free_floor) {
            Some(pos) => {
                self.free.remove(pos);
                self.free_floor = pos + 1;
                index_word(pos as usize)?
            }
            None => {
                let word = index_word(self.records.len())?;
                self.records.push(None);
                word
            }
        };
        self.index[idx] = word;
        self.ensure_partition(record.addr.partition);
        self.members[record.addr.partition.as_usize()].push(oid);
        self.total_bytes += record.size;
        self.records[word as usize - 1] = Some(record);
        Ok(())
    }

    /// The position of `oid`'s record, if it is registered.
    #[inline]
    pub(crate) fn position(&self, oid: Oid) -> Option<usize> {
        let word = *self.index.get(oid.index() as usize)?;
        Some(word.checked_sub(1)? as usize)
    }

    /// The record at position `pos`, if it is occupied.
    #[inline]
    pub(crate) fn at(&self, pos: usize) -> Option<&ObjectRecord> {
        self.records.get(pos)?.as_ref()
    }

    /// Looks up an object, failing with [`PgcError::UnknownObject`] if it
    /// does not exist (any more).
    pub fn get(&self, oid: Oid) -> Result<&ObjectRecord> {
        self.position(oid)
            .and_then(|pos| self.records.get(pos)?.as_ref())
            .ok_or(PgcError::UnknownObject(oid))
    }

    /// Mutable lookup.
    pub(crate) fn get_mut(&mut self, oid: Oid) -> Result<&mut ObjectRecord> {
        self.position(oid)
            .and_then(|pos| self.records.get_mut(pos)?.as_mut())
            .ok_or(PgcError::UnknownObject(oid))
    }

    /// True if `oid` is currently registered.
    pub fn contains(&self, oid: Oid) -> bool {
        self.get(oid).is_ok()
    }

    /// Removes `oid` if it still resides in `partition` (it has been
    /// reclaimed), returning its record and freeing its position; `None`
    /// if it is not registered or lives elsewhere (it was copied out). Its
    /// partition's member list is left alone: the collector, the one
    /// caller, has taken it with [`ObjectTable::take_members`].
    pub(crate) fn remove(&mut self, oid: Oid, partition: PartitionId) -> Option<ObjectRecord> {
        let pos = self.position(oid)?;
        let slot = self.records.get_mut(pos)?;
        let record = slot.take_if(|r| r.addr.partition == partition)?;
        self.index[oid.index() as usize] = 0;
        self.free.insert(pos as u64);
        self.free_floor = self.free_floor.min(pos as u64);
        self.total_bytes -= record.size;
        Some(record)
    }

    /// Moves an object to a new physical address (collector evacuation).
    /// An object moved to another partition joins the end of that
    /// partition's member list; its old list is left alone, as for
    /// [`ObjectTable::remove`].
    pub(crate) fn relocate(&mut self, oid: Oid, new_addr: ObjAddr) -> Result<()> {
        let record = self.get_mut(oid)?;
        let old_partition = std::mem::replace(&mut record.addr, new_addr).partition;
        if old_partition != new_addr.partition {
            self.ensure_partition(new_addr.partition);
            self.members[new_addr.partition.as_usize()].push(oid);
        }
        Ok(())
    }

    /// Swaps `partition`'s member list into `into` (whose old contents are
    /// dropped), leaving the partition an empty list with `into`'s
    /// capacity. Until every object taken is relocated out or removed,
    /// the table's membership does not cover them.
    pub(crate) fn take_members(&mut self, partition: PartitionId, into: &mut Vec<Oid>) {
        into.clear();
        if let Some(list) = self.members.get_mut(partition.as_usize()) {
            std::mem::swap(list, into);
        }
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
        self.index.iter().enumerate().filter_map(|(i, &word)| {
            let record = self.records.get(word.checked_sub(1)? as usize)?.as_ref()?;
            Some((Oid(i as u64), record))
        })
    }

    fn ensure_partition(&mut self, partition: PartitionId) {
        let need = partition.as_usize() + 1;
        if self.members.len() < need {
            self.members.resize_with(need, Vec::new);
        }
    }

    /// Debug invariant check: the index and the free set name each position
    /// of the records exactly once (the index the occupied ones, the free
    /// set the rest, none of them below the floor), and the member lists
    /// partition the registered objects.
    pub(crate) fn check_invariants(&self) {
        if let Some(broken) = self.first_violation() {
            panic!("object table: {broken}");
        }
    }

    /// The first invariant of [`ObjectTable::check_invariants`] the table
    /// breaks, described, or `None`.
    fn first_violation(&self) -> Option<String> {
        // Each position is named once: by an oid's index word if occupied,
        // by the free set if not.
        let mut named = vec![false; self.records.len()];
        let indexed =
            self.index.iter().enumerate().filter_map(|(i, &word)| {
                Some((Some(Oid(i as u64)), word.checked_sub(1)? as usize))
            });
        let freed = self.free.iter().map(|pos| (None, pos as usize));
        for (oid, pos) in indexed.chain(freed) {
            let occupied = self.records.get(pos).map(Option::is_some);
            if occupied != Some(oid.is_some()) || std::mem::replace(&mut named[pos], true) {
                let who = oid.map_or("the free set".to_string(), |oid| format!("{oid}"));
                return Some(format!("{who} names record position {pos} wrongly"));
            }
        }
        if let Some(pos) = named.iter().position(|&n| !n) {
            return Some(format!("record position {pos} is neither indexed nor free"));
        }
        if let Some(pos) = self.free.first_from(0).filter(|&pos| pos < self.free_floor) {
            return Some(format!("free position {pos} lies below the floor"));
        }
        // Each registered object is listed once, under its own partition.
        let mut listed = vec![false; self.index.len()];
        for (p, list) in self.members.iter().enumerate() {
            for &oid in list {
                let home = self.get(oid).map(|r| r.addr.partition.as_usize());
                if home != Ok(p) || std::mem::replace(&mut listed[oid.index() as usize], true) {
                    return Some(format!("{oid} is misfiled in the member list of P{p}"));
                }
            }
        }
        let listed = listed.iter().filter(|&&l| l).count();
        if listed != self.live() {
            return Some(format!("{listed} members of {} records", self.live()));
        }
        let bytes: Bytes = self.iter().map(|(_, r)| r.size).sum();
        (bytes != self.total_bytes)
            .then(|| format!("records of {bytes}, {} counted", self.total_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_types::SimRng;
    use std::collections::{BTreeMap, BTreeSet};

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
        t.register(a, rec(1, 0, 100, 2)).unwrap();
        assert!(t.contains(a));
        assert!(!t.contains(b));
        assert_eq!(t.get(a).unwrap().size, Bytes(100));
        assert!(matches!(t.get(b), Err(PgcError::UnknownObject(_))));
        assert_eq!(t.live(), 1);
        assert_eq!(t.total_bytes(), Bytes(100));
        assert_eq!(t.oid_bound(), 2);
        t.check_invariants();
    }

    #[test]
    fn oids_are_never_reused() {
        let mut t = ObjectTable::new();
        let a = t.reserve_oid();
        t.register(a, rec(1, 0, 10, 0)).unwrap();
        t.remove(a, PartitionId(1)).unwrap();
        let b = t.reserve_oid();
        assert_ne!(a, b);
    }

    #[test]
    fn remove_updates_membership_and_bytes() {
        let mut t = ObjectTable::new();
        let a = t.reserve_oid();
        t.register(a, rec(2, 0, 64, 1)).unwrap();
        assert_eq!(t.member_count(PartitionId(2)), 1);
        let mut taken = Vec::new();
        t.take_members(PartitionId(2), &mut taken);
        assert_eq!(taken, vec![a]);
        // Under another partition (copied out of the victim) it stays.
        assert!(t.remove(a, PartitionId(3)).is_none());
        let removed = t.remove(a, PartitionId(2)).unwrap();
        assert_eq!(removed.size, Bytes(64));
        assert_eq!(t.member_count(PartitionId(2)), 0);
        assert_eq!(t.total_bytes(), Bytes::ZERO);
        assert!(t.remove(a, PartitionId(2)).is_none());
        t.check_invariants();
    }

    #[test]
    fn relocate_moves_membership() {
        let mut t = ObjectTable::new();
        let a = t.reserve_oid();
        t.register(a, rec(1, 0, 100, 2)).unwrap();
        t.take_members(PartitionId(1), &mut Vec::new());
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
        t.register(a, rec(1, 0, 100, 0)).unwrap();
        t.register(b, rec(1, 100, 100, 0)).unwrap();
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
        t.register(a, rec(1, 0, 10, 0)).unwrap();
        t.register(b, rec(1, 10, 10, 0)).unwrap();
        t.register(c, rec(2, 0, 10, 0)).unwrap();
        let mut in_p1: Vec<Oid> = t.members(PartitionId(1)).collect();
        in_p1.sort();
        assert_eq!(in_p1, vec![a, b]);
        assert_eq!(t.members(PartitionId(9)).count(), 0);
    }

    #[test]
    fn slot_bounds_are_checked() {
        let mut t = ObjectTable::new();
        let a = t.reserve_oid();
        t.register(a, rec(1, 0, 100, 2)).unwrap();
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
            t.register(o, rec(1, i * 10, 10, 0)).unwrap();
            oids.push(o);
        }
        t.remove(oids[2], PartitionId(1)).unwrap();
        let visited: Vec<Oid> = t.iter().map(|(o, _)| o).collect();
        assert_eq!(visited, vec![oids[0], oids[1], oids[3], oids[4]]);
    }

    #[test]
    fn the_lowest_free_position_is_taken_first() {
        let mut t = ObjectTable::new();
        for i in 0..4 {
            let o = t.reserve_oid();
            t.register(o, rec(1, i * 10, 10, 0)).unwrap();
        }
        t.take_members(PartitionId(1), &mut Vec::new());
        for oid in [Oid(0), Oid(3), Oid(1)] {
            t.remove(oid, PartitionId(1)).unwrap();
        }
        let positions: Vec<u32> = (0..3)
            .map(|_| {
                let o = t.reserve_oid();
                t.register(o, rec(2, 0, 10, 0)).unwrap();
                t.index[o.index() as usize] - 1
            })
            .collect();
        assert_eq!(positions, vec![0, 1, 3]);
        assert_eq!(t.records.len(), 4);
    }

    #[test]
    fn positions_past_a_u32_index_word_are_refused() {
        assert_eq!(index_word(0), Ok(1));
        assert_eq!(index_word(u32::MAX as usize - 1), Ok(u32::MAX));
        assert_eq!(index_word(u32::MAX as usize), Err(PgcError::TooManyObjects));
    }

    #[test]
    fn a_broken_index_or_free_list_is_a_violation() {
        let table = || {
            let mut t = ObjectTable::new();
            for i in 0..3 {
                let o = t.reserve_oid();
                t.register(o, rec(1, i * 10, 10, 0)).unwrap();
            }
            t.take_members(PartitionId(1), &mut Vec::new());
            t.remove(Oid(1), PartitionId(1)).unwrap();
            t.members[1] = vec![Oid(0), Oid(2)];
            assert_eq!(t.first_violation(), None);
            t
        };
        let broken = |edit: &dyn Fn(&mut ObjectTable)| {
            let mut t = table();
            edit(&mut t);
            t.first_violation().expect("a violation")
        };
        broken(&|t| t.index[2] = t.index[0]);
        broken(&|t| t.index[1] = 2);
        broken(&|t| t.index[2] = 9);
        // A position both indexed and free: Oid(1) back at its old position
        // while the free set still holds it.
        broken(&|t| {
            t.records[1] = t.records[0].clone();
            t.index[1] = 2;
        });
        // An occupied position marked free.
        broken(&|t| {
            t.free.insert(0);
        });
        // A free position lost.
        broken(&|t| {
            t.free.remove(1);
        });
        broken(&|t| t.free_floor = 2);
        broken(&|t| t.members[1].push(Oid(0)));
        broken(&|t| {
            t.members[1].pop();
        });
        broken(&|t| t.total_bytes += Bytes(1));
    }

    /// What a [`ObjectTable`] should hold: each object's partition, offset
    /// and size, each partition's members in order, the most objects ever
    /// live at once, and the record store's length and free positions.
    #[derive(Default)]
    struct Model {
        objects: BTreeMap<Oid, (u32, u64, u64)>,
        lists: BTreeMap<u32, Vec<Oid>>,
        peak: usize,
        store: usize,
        free: BTreeSet<usize>,
    }

    impl Model {
        /// Registers a new object in a random partition below 5, or (one
        /// time in ten) reserves an oid and leaves it unregistered. The
        /// record takes the lowest free position, or extends the store.
        fn register(&mut self, t: &mut ObjectTable, rng: &mut SimRng) {
            let oid = t.reserve_oid();
            if rng.chance(0.1) {
                return;
            }
            let (p, off, size) = (rng.below(5) as u32, rng.below(1000), 1 + rng.below(100));
            t.register(oid, rec(p, off, size, 2)).unwrap();
            let lowest = self.free.pop_first().unwrap_or_else(|| {
                self.store += 1;
                self.store - 1
            });
            assert_eq!(t.position(oid), Some(lowest), "{oid}");
            self.objects.insert(oid, (p, off, size));
            self.lists.entry(p).or_default().push(oid);
            self.peak = self.peak.max(self.objects.len());
        }

        fn relocate(&mut self, t: &mut ObjectTable, oid: Oid, to: u32, off: u64) {
            t.relocate(oid, ObjAddr::new(PartitionId(to), off)).unwrap();
            let (p, offset, _) = self.objects.get_mut(&oid).unwrap();
            (*p, *offset) = (to, off);
            self.lists.entry(to).or_default().push(oid);
        }

        /// Takes `partition`'s member list from both.
        fn take(&mut self, t: &mut ObjectTable, partition: u32) -> Vec<Oid> {
            let mut taken = Vec::new();
            t.take_members(PartitionId(partition), &mut taken);
            assert_eq!(taken, self.lists.remove(&partition).unwrap_or_default());
            taken
        }

        /// Collects a random partition the way the collector does: takes
        /// its list, then relocates into partition 5 or removes each taken
        /// object in shuffled order, registering new objects in between;
        /// removing any of them again under the victim is then `None`.
        /// Partition 5's residents then move back under the victim's id,
        /// so the next collection finds it empty again.
        fn collect(&mut self, t: &mut ObjectTable, rng: &mut SimRng) {
            let victim = rng.below(5) as u32;
            let mut taken = self.take(t, victim);
            shuffle(&mut taken, rng);
            for &oid in &taken {
                if rng.chance(0.2) {
                    self.register(t, rng);
                }
                if rng.chance(0.5) {
                    let (_, _, size) = self.objects.remove(&oid).unwrap();
                    self.free.insert(t.position(oid).unwrap());
                    assert_eq!(
                        t.remove(oid, PartitionId(victim)).unwrap().size,
                        Bytes(size)
                    );
                } else {
                    self.relocate(t, oid, 5, rng.below(1000));
                }
            }
            assert!(taken
                .iter()
                .all(|&oid| t.remove(oid, PartitionId(victim)).is_none()));
            for oid in self.take(t, 5) {
                let off = self.objects[&oid].1;
                self.relocate(t, oid, victim, off);
            }
        }

        /// `t` against the model: lookups of every oid below the bound,
        /// iteration, membership, record storage and the table's own
        /// invariants.
        fn agree(&self, t: &ObjectTable) {
            t.check_invariants();
            for oid in (0..t.oid_bound()).map(Oid) {
                let got = t.get(oid).ok();
                let got = got.map(|r| (r.addr.partition.0, r.addr.offset, r.size.get()));
                assert_eq!(got, self.objects.get(&oid).copied(), "{oid}");
            }
            let iterated: Vec<(Oid, u64)> = t.iter().map(|(o, r)| (o, r.addr.offset)).collect();
            let modelled: Vec<(Oid, u64)> = self
                .objects
                .iter()
                .map(|(&o, &(_, off, _))| (o, off))
                .collect();
            assert_eq!(iterated, modelled);
            for p in 0..6 {
                let listed: Vec<Oid> = t.members(PartitionId(p)).collect();
                assert_eq!(
                    listed,
                    self.lists.get(&p).cloned().unwrap_or_default(),
                    "P{p}"
                );
            }
            assert!(t.records.len() <= self.peak);
            assert_eq!(t.records.len(), self.store);
            let free: Vec<usize> = t.free.iter().map(|pos| pos as usize).collect();
            assert_eq!(free, self.free.iter().copied().collect::<Vec<_>>());
        }
    }

    fn shuffle<T>(items: &mut [T], rng: &mut SimRng) {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.pick_index(i + 1));
        }
    }

    #[test]
    fn matches_a_btreemap_model_through_churn_and_restore() {
        for seed in 0..8 {
            let mut rng = SimRng::new(seed);
            let mut t = ObjectTable::new();
            let mut model = Model::default();
            for round in 0..6 {
                for _ in 0..200 {
                    if rng.chance(0.8) {
                        model.register(&mut t, &mut rng);
                    } else {
                        model.collect(&mut t, &mut rng);
                    }
                }
                model.agree(&t);
                if round % 2 == 1 {
                    // A restore: the survivors, partition by partition in
                    // member order, loaded into a table that covers the
                    // oid bound, which churn then goes on in.
                    let ids = (0..6).map(PartitionId);
                    let counts: Vec<usize> = ids.clone().map(|p| t.member_count(p)).collect();
                    let survivors: Vec<_> = ids
                        .flat_map(|p| t.members(p))
                        .map(|o| Ok((o, t.get(o)?.clone())))
                        .collect();
                    t = ObjectTable::load(
                        t.oid_bound(),
                        &counts,
                        survivors,
                        |_| Ok(()),
                        |_, _, _, _| (),
                    )
                    .unwrap();
                    model.peak = model.objects.len();
                    (model.store, model.free) = (model.objects.len(), BTreeSet::new());
                    model.agree(&t);
                }
            }
        }
    }

    #[test]
    fn record_storage_follows_the_live_set_not_the_oid_bound() {
        // Ten generations of 100 objects, each reclaimed before the next is
        // created: 1,000 oids, never more than 100 records.
        let mut t = ObjectTable::new();
        for generation in 0..10 {
            for i in 0..100 {
                let oid = t.reserve_oid();
                t.register(oid, rec(1, i * 10, 10, 2)).unwrap();
            }
            let mut dead = Vec::new();
            t.take_members(PartitionId(1), &mut dead);
            if generation < 9 {
                for oid in dead {
                    t.remove(oid, PartitionId(1)).unwrap();
                }
            } else {
                t.members[1] = dead;
            }
        }
        t.check_invariants();
        assert_eq!(t.records.len(), 100);
        assert!(t.records.capacity() <= 128);
        assert_eq!(t.index.len(), 1_000);

        // A restored table holding k survivors of 2^20 oids keeps k records
        // and one index word per oid.
        let k = 1_000;
        let survivors = (0..k)
            .rev()
            .map(|i| Ok((Oid(i * 1_000), rec(1, i * 10, 10, 2))));
        let r = ObjectTable::load(
            1 << 20,
            &[0, k as usize],
            survivors,
            |_| Ok(()),
            |_, _, _, _| (),
        );
        let r = r.unwrap();
        r.check_invariants();
        assert_eq!(
            (r.records.len(), r.records.capacity()),
            (k as usize, k as usize)
        );
        assert!(r.free.is_empty());
        assert_eq!((r.index.len(), r.index.capacity()), (1 << 20, 1 << 20));
    }
}
