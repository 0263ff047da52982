//! Saving a database at a safepoint, and rebuilding it from a snapshot.
//!
//! A snapshot generation carries every resident object as a record of its
//! partition's image — oid, address, size, weight and slots, each partition's
//! members in member-list order — and, inside the run image, the words
//! [`Database::save_state`] appends: what the records do not say. Everything
//! else is derived on the way back in, in one pass over the records, each
//! decoded once into an object table sized from the images' record counts,
//! and one walk of the member lists (`ObjectTable::load`). The remembered
//! and out-of-partition sets are rebuilt from the slots (`check_invariants`
//! proves they are exactly the cross-partition edges, and no consumer
//! depends on the order a hash set hands them out in, which the walk's
//! member order sets), and each partition's resident bytes and count are
//! summed from its members.
//!
//! [`Database::restore`] trusts nothing it is handed: the records and words
//! come from a file, and a checksum only says the file is the one that was
//! written, not that whoever wrote it was right. Every check that keeps a
//! later operation from panicking — a slot naming an absent object, an
//! extent past its partition's cursor, an oid twice, a buffered page outside
//! the database — is made here and fails as an `Err`.

use crate::db::Database;
use crate::stats::DbStats;
use crate::storage::{ObjectRecord, ObjectTable, Partition};
use pgc_types::{Bytes, DbConfig, Oid, PartitionId, PgcError, Result, Words};

pub(crate) fn bad(what: &str) -> PgcError {
    PgcError::TraceFormat(format!("snapshot: {what}"))
}

impl Database {
    /// Appends the state a snapshot's object records do not carry: the oid
    /// bound, the roots, the counters, the partition layout (count, empty
    /// partition, spread cursor, bump cursors) and the page buffer (its
    /// counters, then every resident page, least recently used first, with
    /// its dirty bit). Called between operations, when no barrier event is
    /// pending.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        debug_assert!(self.events.is_empty(), "saved between operations");
        out.push(self.objects.oid_bound());
        out.push(self.roots.len() as u64);
        out.extend(self.roots.iter().map(|oid| oid.index()));
        let s = &self.stats;
        out.extend([
            s.objects_created,
            s.bytes_allocated.get(),
            s.pointer_writes,
            s.pointer_overwrites,
            s.data_writes,
            s.reads,
            s.collections,
            s.reclaimed_bytes.get(),
            s.reclaimed_objects,
        ]);
        self.partitions.save(out);
        self.buffer.save(out);
    }

    /// Rebuilds the database a snapshot describes: a partition per entry of
    /// `counts`, the resident `records` (`counts[p]` in partition `p`,
    /// partition by partition in member-list order), and the words
    /// [`Database::save_state`] wrote, after a run of `events` events.
    /// Those bound the oids ever handed out (each one was created by an
    /// event), and with them the object table's size, and every counter one
    /// event adds at most one to: the caller vouches for them and `counts`.
    /// The result is the saved database, down to member order and buffer
    /// recency, or an `Err` naming the first thing that could not have been
    /// saved (or the first of `records`).
    pub fn restore(
        cfg: DbConfig,
        counts: &[usize],
        events: u64,
        records: impl IntoIterator<Item = Result<(Oid, ObjectRecord)>>,
        words: &mut Words<'_>,
    ) -> Result<Self> {
        let partitions = counts.len();
        let mut db = Database::new(cfg)?;
        let next_oid = words.word()?;
        if next_oid > events {
            return Err(bad("more oids than events created"));
        }
        let root_count = words.count()?;
        let roots = words.take(root_count)?;
        // Every counter within what the run could reach: one event adds at
        // most one to a count, no object outgrows a partition, and only
        // what was allocated is reclaimed.
        let capacity = db.partitions.partition(PartitionId(0))?.capacity();
        let created = words.at_most(events)?;
        let allocated = words.at_most(created.saturating_mul(capacity.get()))?;
        db.stats = DbStats {
            objects_created: created,
            bytes_allocated: Bytes(allocated),
            pointer_writes: words.at_most(events)?,
            pointer_overwrites: words.at_most(events)?,
            data_writes: words.at_most(events)?,
            reads: words.at_most(events)?,
            collections: words.at_most(events)?,
            reclaimed_bytes: Bytes(words.at_most(allocated)?),
            reclaimed_objects: words.at_most(created)?,
        };

        // The layout `PartitionSet::save` wrote.
        if words.word()? != partitions as u64 || partitions < 2 {
            return Err(bad("partition count disagrees with the images"));
        }
        let empty = words.word_u32()? as usize;
        if empty >= partitions {
            return Err(bad("empty partition out of range"));
        }
        let spread_cursor = words.word_u32()?;
        let cursors = words.take(partitions)?;
        if cursors[empty] != 0 || cursors.iter().any(|&c| c > capacity.get()) {
            return Err(bad("a partition cursor out of range"));
        }

        let mut resident = vec![(Bytes::ZERO, 0u64); partitions];
        let admit = |rec: &ObjectRecord| {
            let p = rec.addr.partition.as_usize();
            if p >= partitions || p == empty {
                return Err(bad("an object outside the allocatable partitions"));
            }
            let end = rec.addr.offset.checked_add(rec.size.get());
            if end.is_none_or(|end| end > cursors[p]) {
                return Err(bad("an object past its partition's cursor"));
            }
            if rec.slots.len() > usize::from(u16::MAX) + 1 {
                return Err(bad("more slots than slot ids"));
            }
            let (bytes, count) = &mut resident[p];
            *bytes += rec.size;
            *count += 1;
            if bytes.get() > cursors[p] {
                return Err(bad("residents overfill their partition"));
            }
            Ok(())
        };
        let remsets = &mut db.remsets;
        let edge = |loc, from, target, to| remsets.add_edge(loc, from, target, to);
        let table = ObjectTable::load(next_oid, counts, records, admit, edge)?;
        for &root in roots {
            if !table.contains(Oid(root)) {
                return Err(bad("a root names an absent object"));
            }
            db.roots.insert(Oid(root));
        }
        db.objects = table;

        let partition_list = cursors
            .iter()
            .zip(resident)
            .enumerate()
            .map(|(p, (&cursor, (bytes, count)))| {
                Partition::restored(PartitionId(p as u32), capacity, cursor, bytes, count)
            })
            .collect();
        db.partitions
            .restore(partition_list, PartitionId(empty as u32), spread_cursor);
        db.buffer
            .load(words, partitions as u64 * db.cfg.partition_pages)?;
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::Slot;
    use pgc_types::{PointerLoc, SimRng, SlotId};

    /// What a snapshot carries of the objects: `(oid, record)`, partition
    /// by partition in member order.
    type Records = Vec<(Oid, ObjectRecord)>;

    /// A database with a cross-partition edge, a collection behind it and a
    /// warm buffer.
    fn lived_in() -> Database {
        let mut db = Database::new(
            DbConfig::default()
                .with_page_size(1024)
                .with_partition_pages(8)
                .with_buffer_pages(6),
        )
        .unwrap();
        let root = db.create_root(Bytes(100), 3).unwrap();
        let (spill, _) = db.create_object(Bytes(8000), 2, root, SlotId(0)).unwrap();
        let (small, _) = db.create_object(Bytes(100), 2, root, SlotId(1)).unwrap();
        db.write_slot(spill, SlotId(0), Some(small)).unwrap();
        let (doomed, _) = db.create_object(Bytes(300), 2, root, SlotId(2)).unwrap();
        db.write_slot(root, SlotId(2), None).unwrap();
        let _ = doomed;
        let home = db.objects().get(root).unwrap().addr.partition;
        db.collect_partition(home).unwrap();
        db.visit(spill).unwrap();
        db.clear_events();
        db
    }

    /// What a snapshot of `db` carries: its records, partition by partition
    /// in member order, and its saved state.
    fn image(db: &Database) -> (Records, Vec<u64>) {
        let records = (0..db.partition_count() as u32)
            .flat_map(|p| db.objects().members(PartitionId(p)))
            .map(|oid| (oid, db.objects().get(oid).unwrap().clone()))
            .collect();
        let mut state = Vec::new();
        db.save_state(&mut state);
        (records, state)
    }

    /// `records` and `state` restored as a snapshot of `db` restores, each
    /// partition's record count its member count in `db`.
    fn restore(db: &Database, records: Records, state: &[u64]) -> Result<Database> {
        let counts: Vec<usize> = (0..db.partition_count() as u32)
            .map(|p| db.objects().member_count(PartitionId(p)))
            .collect();
        let mut words = Words::new(state);
        let records = records.into_iter().map(Ok);
        let restored = Database::restore(db.cfg.clone(), &counts, 1_000, records, &mut words)?;
        words.finish()?;
        Ok(restored)
    }

    /// A database grown by `seed`'s random creations, pointer writes and
    /// collections.
    fn random(seed: u64) -> Database {
        let mut rng = SimRng::new(seed);
        let mut db = lived_in();
        let mut live: Vec<Oid> = db.roots().collect();
        for _ in 0..150 {
            let slots = |db: &Database, o: Oid| db.objects().get(o).unwrap().slots.len() as u64;
            let owner = live[rng.pick_index(live.len())];
            let slot = SlotId(rng.below(slots(&db, owner)) as u16);
            match rng.below(8) {
                0..=3 => {
                    let (size, width) = (Bytes(1 + rng.below(700)), 1 + rng.below(3) as usize);
                    live.push(db.create_object(size, width, owner, slot).unwrap().0);
                }
                4..=6 => {
                    let target = live[rng.pick_index(live.len())];
                    db.write_slot(owner, slot, Some(target)).unwrap();
                }
                _ => {
                    let victims = db.collectable_partitions();
                    db.collect_partition(victims[rng.pick_index(victims.len())])
                        .unwrap();
                    live.retain(|&o| db.objects().contains(o));
                }
            }
            db.clear_events();
        }
        db
    }

    /// Per partition, its remembered targets with their pointers' locations
    /// and its out-of-partition set.
    type Sets = Vec<(Vec<(Oid, Vec<PointerLoc>)>, Vec<Oid>)>;

    /// The remembered and out-of-partition sets of `db`'s first
    /// `partitions` partitions, each sorted.
    fn remsets(db: &Database, partitions: u32) -> Sets {
        fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
            v.sort();
            v
        }
        let sets = db.remsets();
        (0..partitions)
            .map(PartitionId)
            .map(|p| {
                let into = sets
                    .remembered_targets(p)
                    .map(|t| (t, sorted(sets.locations_of(p, t).collect())));
                (sorted(into.collect()), sorted(sets.out_set(p).collect()))
            })
            .collect()
    }

    #[test]
    fn a_load_is_a_register_and_add_edge_build() {
        for (seed, live) in [(None, lived_in())]
            .into_iter()
            .chain((0..12).map(|s| (Some(s), random(s))))
        {
            let (records, state) = image(&live);
            let loaded = restore(&live, records.clone(), &state).expect("restores");
            // The build a restore replaced: one `register` per record into
            // an empty table covering the oid bound and the partitions, then
            // the slots walked in oid order.
            let mut reference = Database::new(live.cfg.clone()).unwrap();
            let (bound, partitions) = (live.objects().oid_bound(), live.partition_count());
            let empty =
                ObjectTable::load(bound, &vec![0; partitions], [], |_| Ok(()), |_, _, _, _| ());
            reference.objects = empty.unwrap();
            for (oid, rec) in records {
                reference.objects.register(oid, rec).unwrap();
            }
            for (oid, rec) in reference.objects.iter() {
                let from = rec.addr.partition;
                for (i, target) in rec.slots.iter().enumerate() {
                    let Some(target) = target.get() else { continue };
                    let to = reference.objects.get(target).unwrap().addr.partition;
                    if to != from {
                        let loc = PointerLoc::new(oid, SlotId(i as u16));
                        reference.remsets.add_edge(loc, from, target, to);
                    }
                }
            }
            let table = |db: &Database| format!("{:?}", db.objects());
            assert_eq!(table(&loaded), table(&reference), "seed {seed:?}");
            let sets = |db: &Database| remsets(db, partitions as u32);
            assert_eq!(sets(&loaded), sets(&reference), "seed {seed:?}");
            assert_eq!(sets(&loaded), sets(&live), "seed {seed:?}");
            loaded.check_invariants();
        }
    }

    #[test]
    fn a_restored_database_is_the_saved_one() {
        let mut live = lived_in();
        let (records, state) = image(&live);
        let mut restored = restore(&live, records, &state).expect("restores");
        restored.check_invariants();
        let (again, resaved) = image(&restored);
        assert_eq!(resaved, state, "the same state saves back");
        assert_eq!(again.len(), image(&live).0.len());
        // And it goes on exactly as the live one does.
        for db in [&mut live, &mut restored] {
            let root = db.roots().next().unwrap();
            db.create_object(Bytes(2000), 2, root, SlotId(2)).unwrap();
            for victim in db.collectable_partitions() {
                if db.objects().member_count(victim) > 0 {
                    db.collect_partition(victim).unwrap();
                }
            }
            db.clear_events();
        }
        assert_eq!(restored.io_stats(), live.io_stats());
        assert_eq!(restored.stats(), live.stats());
        assert_eq!(image(&restored).1, image(&live).1);
        restored.check_invariants();
    }

    #[test]
    fn records_that_could_not_have_been_saved_are_refused() {
        let live = lived_in();
        let (records, state) = image(&live);
        let refused = |edit: &dyn Fn(&mut Records)| {
            let mut records = records.clone();
            edit(&mut records);
            restore(&live, records, &state).expect_err("hostile records")
        };
        refused(&|r| r[0].1.slots[0] = Slot::from(Some(Oid(999))));
        refused(&|r| r[0].1.addr.offset = 8 * 1024);
        refused(&|r| r.insert(1, r[0].clone()));
        refused(&|r| r[0].0 = Oid(5_000));
        refused(&|r| r[0].1.addr.partition = live.empty_partition());
    }

    #[test]
    fn state_that_could_not_have_been_saved_is_refused() {
        let live = lived_in();
        let (records, state) = image(&live);
        let roots_at = 1;
        let counters_at = 2 + live.roots().count();
        let layout_at = counters_at + 9;
        let lru_last = state.len() - 1;
        for (at, value, what) in [
            (0, 5_000, "an oid bound past the events"),
            (roots_at, u64::MAX, "a root count past the words"),
            (counters_at, 5_000, "more objects created than events"),
            (counters_at + 1, u64::MAX, "bytes no partition holds"),
            (layout_at, 7, "a partition count not the images'"),
            (layout_at + 1, 99, "an empty partition out of range"),
            (layout_at + 3, u64::MAX, "a cursor past the partition"),
            (lru_last, u64::MAX, "a buffered page out of range"),
        ] {
            let mut hostile = state.clone();
            hostile[at] = value;
            assert!(restore(&live, records.clone(), &hostile).is_err(), "{what}");
        }
        assert!(restore(&live, records, &state[..state.len() - 1]).is_err());
    }
}
