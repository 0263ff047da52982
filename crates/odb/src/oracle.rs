//! Exact reachability analysis — the simulation's omniscient oracle.
//!
//! The paper's `MostGarbage` policy "always correctly selects the partition
//! that contains the most garbage" using "an oracle (provided by our
//! simulation system)". This module is that oracle: a full transitive
//! traversal from the root set, attributing every unreachable resident
//! object to its partition. It is also how the evaluation computes the
//! "Actual Garbage" row of Table 4 and the unreclaimed-garbage time series
//! of Figure 4.
//!
//! The oracle performs **no** simulated I/O: it inspects simulator state
//! directly, modeling information an implementable system cannot have.
//!
//! # Record-position space
//!
//! `MostGarbage` runs this analysis at **every** collection trigger, which
//! makes it the simulator's single hottest code path. Its sets are
//! [`DenseBitSet`]s over the object table's record positions (one per
//! resident; oids count every object ever made), kept in an
//! [`OracleScratch`] reused across passes, so a pass allocates nothing once
//! grown. The mark resolves eight popped oids' positions before reading any
//! of their records, so those loads overlap; the garbage, `occupied &
//! !live` a word at a time, is found without reading a live record. The
//! original hash-set implementation is retained verbatim in
//! [`mod@reference`] as the correctness baseline for the equivalence tests.

use crate::db::Database;
use crate::storage::{ObjectRecord, ObjectTable};
use pgc_types::{Bytes, DenseBitSet, Oid, PartitionId};

/// The oracle's view of the database at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleReport {
    /// Bytes of objects reachable from the root set.
    pub live_bytes: Bytes,
    /// Count of reachable objects.
    pub live_objects: u64,
    /// Bytes of unreachable (garbage) resident objects.
    pub garbage_bytes: Bytes,
    /// Count of unreachable resident objects.
    pub garbage_objects: u64,
    /// Per-partition garbage bytes, indexed by partition id.
    pub garbage_bytes_by_partition: Vec<Bytes>,
    /// Per-partition garbage object counts, indexed by partition id.
    pub garbage_objects_by_partition: Vec<u64>,
    /// Bytes of garbage that a *single-partition* collection could not
    /// reclaim anyway because the garbage is retained by remembered
    /// pointers from garbage in other partitions (nepotism / distributed
    /// garbage, Sec. 6.5).
    pub nepotism_bytes: Bytes,
}

impl OracleReport {
    /// Garbage bytes in one partition (0 for unknown partitions).
    pub fn garbage_in(&self, p: PartitionId) -> Bytes {
        self.garbage_bytes_by_partition
            .get(p.as_usize())
            .copied()
            .unwrap_or(Bytes::ZERO)
    }

    /// The partition with the most garbage bytes, excluding `exclude` (the
    /// designated empty partition). Ties break toward the lowest id so the
    /// policy is deterministic. Returns `None` if every eligible partition
    /// has zero garbage.
    pub fn most_garbage_partition(&self, exclude: PartitionId) -> Option<PartitionId> {
        let mut best: Option<(PartitionId, Bytes)> = None;
        for (idx, &bytes) in self.garbage_bytes_by_partition.iter().enumerate() {
            let p = PartitionId(idx as u32);
            if p == exclude || bytes.is_zero() {
                continue;
            }
            match best {
                Some((_, b)) if b >= bytes => {}
                _ => best = Some((p, bytes)),
            }
        }
        best.map(|(p, _)| p)
    }
}

/// Reusable working memory for oracle passes.
///
/// All sets are cleared (allocation kept) at the start of each pass, so one
/// scratch amortizes every traversal a policy or sampler performs over the
/// life of a run.
#[derive(Debug, Default, Clone)]
pub struct OracleScratch {
    /// Objects reachable from the roots, by record position.
    live: DenseBitSet,
    /// Visited markers for the nepotism traversal, by record position.
    seen: DenseBitSet,
    /// Shared DFS stack.
    stack: Vec<Oid>,
}

impl OracleScratch {
    /// Creates empty scratch; it grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes the oracle report for the current database state.
///
/// Convenience wrapper that allocates fresh scratch; callers on a hot path
/// (policies, the sampler) should hold an [`OracleScratch`] and call
/// [`analyze_with`] instead.
pub fn analyze(db: &Database) -> OracleReport {
    analyze_with(db, &mut OracleScratch::new())
}

/// Computes the oracle report using caller-owned scratch memory.
///
/// Equivalent to [`analyze`] (and bit-identical to
/// [`reference::analyze`]) but performs no allocation once `scratch` has
/// grown to the database's record store.
pub fn analyze_with(db: &Database, scratch: &mut OracleScratch) -> OracleReport {
    let objects = db.objects();
    let OracleScratch { live, seen, stack } = scratch;

    // Phase 1: mark every position reachable from the roots.
    mark::<8>(objects, db.roots(), live, stack, |_| {});
    let garbage = |w: usize| objects.occupied_word(w) & !live.word(w);

    // Phase 2: every occupied position left unmarked is garbage.
    let partition_count = db.partition_count();
    let mut garbage_bytes_by_partition = vec![Bytes::ZERO; partition_count];
    let mut garbage_objects_by_partition = vec![0u64; partition_count];
    for w in 0..objects.store_len().div_ceil(64) {
        let mut bits = garbage(w);
        while bits != 0 {
            let pos = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let Some(rec) = objects.at(pos) else { continue };
            let p = rec.addr.partition.as_usize();
            garbage_bytes_by_partition[p] += rec.size;
            garbage_objects_by_partition[p] += 1;
        }
    }
    let garbage_bytes: Bytes = garbage_bytes_by_partition.iter().copied().sum();
    let garbage_objects = garbage_objects_by_partition.iter().sum();

    // Phase 3 — nepotism: garbage reachable from a remembered pointer whose
    // source is itself garbage in another partition. A per-partition
    // collection seeds its trace with remembered targets, so such garbage
    // survives any sequence of single-partition collections until the
    // garbage source is reclaimed first.
    let garbage_at = |oid| {
        let pos = objects.position(oid)?;
        (garbage(pos / 64) >> (pos % 64) & 1 == 1).then_some(pos)
    };
    let remembered = (0..partition_count as u32)
        .flat_map(|p| db.remsets().remembered_targets(PartitionId(p)))
        .filter(|&target| garbage_at(target).is_some());
    stack.extend(remembered);
    seen.clear();
    seen.reserve(objects.store_len());
    let mut nepotism_bytes = Bytes::ZERO;
    while let Some(oid) = stack.pop() {
        let unseen = garbage_at(oid).filter(|&pos| seen.insert(pos as u64));
        let Some(rec) = unseen.and_then(|pos| objects.at(pos)) else {
            continue;
        };
        nepotism_bytes += rec.size;
        stack.extend(rec.slots.targets());
    }

    OracleReport {
        live_bytes: objects.total_bytes() - garbage_bytes,
        live_objects: live.len() as u64,
        garbage_bytes,
        garbage_objects,
        garbage_bytes_by_partition,
        garbage_objects_by_partition,
        nepotism_bytes,
    }
}

/// Marks in `live`, by record position, every object reachable from
/// `roots`, depth first, and hands each record to `visit` as it is marked:
/// the one traversal behind [`analyze_with`] (which visits nothing) and
/// [`Database::collect_full`] (whose page reads follow the order of
/// `BATCH` = 1, one oid popped at a time). `live` and `stack` are cleared
/// first.
pub(crate) fn mark<const BATCH: usize>(
    objects: &ObjectTable,
    roots: impl IntoIterator<Item = Oid>,
    live: &mut DenseBitSet,
    stack: &mut Vec<Oid>,
    mut visit: impl FnMut(&ObjectRecord),
) {
    live.clear();
    live.reserve(objects.store_len());
    stack.clear();
    stack.extend(roots);
    let mut batch = [0; BATCH];
    while !stack.is_empty() {
        let from = stack.len().saturating_sub(BATCH);
        let taken = stack.len() - from;
        for (pos, oid) in batch.iter_mut().zip(stack.drain(from..).rev()) {
            *pos = objects
                .position(oid)
                .expect("reachable object missing from table");
        }
        let unmarked = batch[..taken]
            .iter()
            .filter(|&&pos| live.insert(pos as u64));
        for rec in unmarked.filter_map(|&pos| objects.at(pos)) {
            visit(rec);
            stack.extend(rec.slots.targets());
        }
    }
}

/// The original hash-set oracle, kept as a correctness baseline.
///
/// This is the pre-dense implementation, byte for byte: three `HashSet`s
/// allocated per pass. The equivalence test below and the seeded-loop
/// property test in `tests/` hold [`analyze`] to producing
/// identical [`OracleReport`]s — and, over whole runs, identical victim
/// sequences.
pub mod reference {
    use super::{Database, OracleReport};
    use pgc_types::{Bytes, Oid, PartitionId};
    use std::collections::HashSet;

    /// Computes the oracle report with hash-set working memory.
    pub fn analyze(db: &Database) -> OracleReport {
        let objects = db.objects();
        let live = reachable_set(db);

        let partition_count = db.partition_count();
        let mut garbage_bytes_by_partition = vec![Bytes::ZERO; partition_count];
        let mut garbage_objects_by_partition = vec![0u64; partition_count];
        let mut live_bytes = Bytes::ZERO;
        let mut garbage_bytes = Bytes::ZERO;
        let mut garbage_objects = 0u64;
        let mut garbage_set: HashSet<Oid> = HashSet::new();

        for (oid, rec) in objects.iter() {
            if live.contains(&oid) {
                live_bytes += rec.size;
            } else {
                let p = rec.addr.partition.as_usize();
                garbage_bytes_by_partition[p] += rec.size;
                garbage_objects_by_partition[p] += 1;
                garbage_bytes += rec.size;
                garbage_objects += 1;
                garbage_set.insert(oid);
            }
        }

        let mut retained_roots: Vec<Oid> = Vec::new();
        for p in 0..partition_count as u32 {
            let pid = PartitionId(p);
            for target in db.remsets().remembered_targets(pid) {
                if garbage_set.contains(&target) {
                    retained_roots.push(target);
                }
            }
        }
        let mut nepotism_bytes = Bytes::ZERO;
        let mut seen: HashSet<Oid> = HashSet::new();
        let mut stack = retained_roots;
        while let Some(oid) = stack.pop() {
            if !seen.insert(oid) {
                continue;
            }
            let Ok(rec) = objects.get(oid) else { continue };
            if !garbage_set.contains(&oid) {
                continue;
            }
            nepotism_bytes += rec.size;
            stack.extend(rec.slots.targets());
        }

        OracleReport {
            live_bytes,
            live_objects: live.len() as u64,
            garbage_bytes,
            garbage_objects,
            garbage_bytes_by_partition,
            garbage_objects_by_partition,
            nepotism_bytes,
        }
    }

    /// Hash-set reachability, as originally implemented.
    pub fn reachable_set(db: &Database) -> HashSet<Oid> {
        let objects = db.objects();
        let mut live: HashSet<Oid> = HashSet::new();
        let mut stack: Vec<Oid> = db.roots().collect();
        while let Some(oid) = stack.pop() {
            if !live.insert(oid) {
                continue;
            }
            let rec = objects
                .get(oid)
                .expect("reachable object missing from table");
            stack.extend(rec.slots.targets());
        }
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_types::{Bytes, DbConfig, SimRng, SlotId};

    fn db() -> Database {
        Database::new(
            DbConfig::default()
                .with_page_size(1024)
                .with_partition_pages(8),
        )
        .unwrap()
    }

    #[test]
    fn empty_database_has_no_garbage() {
        let d = db();
        let r = analyze(&d);
        assert_eq!(r.live_objects, 0);
        assert_eq!(r.garbage_objects, 0);
        assert_eq!(r.most_garbage_partition(d.empty_partition()), None);
    }

    #[test]
    fn fully_live_database() {
        let mut d = db();
        let root = d.create_root(Bytes(100), 2).unwrap();
        let (a, _) = d.create_object(Bytes(100), 2, root, SlotId(0)).unwrap();
        d.create_object(Bytes(100), 2, a, SlotId(0)).unwrap();
        let r = analyze(&d);
        assert_eq!(r.live_objects, 3);
        assert_eq!(r.live_bytes, Bytes(300));
        assert_eq!(r.garbage_objects, 0);
    }

    #[test]
    fn cut_edge_creates_garbage_subtree() {
        let mut d = db();
        let root = d.create_root(Bytes(100), 2).unwrap();
        let (a, _) = d.create_object(Bytes(100), 2, root, SlotId(0)).unwrap();
        let (b, _) = d.create_object(Bytes(100), 2, a, SlotId(0)).unwrap();
        d.create_object(Bytes(100), 2, b, SlotId(0)).unwrap();
        // Cut root -> a: a, b, c all die.
        d.write_slot(root, SlotId(0), None).unwrap();
        let r = analyze(&d);
        assert_eq!(r.live_objects, 1);
        assert_eq!(r.garbage_objects, 3);
        assert_eq!(r.garbage_bytes, Bytes(300));
        let p = d.objects().get(a).unwrap().addr.partition;
        assert_eq!(r.garbage_in(p), Bytes(300));
        assert_eq!(r.most_garbage_partition(d.empty_partition()), Some(p));
    }

    #[test]
    fn dense_edge_keeps_subtree_alive() {
        let mut d = db();
        let root = d.create_root(Bytes(100), 3).unwrap();
        let (a, _) = d.create_object(Bytes(100), 2, root, SlotId(0)).unwrap();
        let (b, _) = d.create_object(Bytes(100), 2, a, SlotId(0)).unwrap();
        // Dense edge root -> b.
        d.write_slot(root, SlotId(2), Some(b)).unwrap();
        // Cut root -> a: only a dies; b survives via the dense edge.
        d.write_slot(root, SlotId(0), None).unwrap();
        let r = analyze(&d);
        assert_eq!(r.live_objects, 2);
        assert_eq!(r.garbage_objects, 1);
    }

    #[test]
    fn cycles_do_not_hang_and_die_together() {
        let mut d = db();
        let root = d.create_root(Bytes(100), 2).unwrap();
        let (a, _) = d.create_object(Bytes(100), 2, root, SlotId(0)).unwrap();
        let (b, _) = d.create_object(Bytes(100), 2, a, SlotId(0)).unwrap();
        // b -> a closes a cycle.
        d.write_slot(b, SlotId(0), Some(a)).unwrap();
        d.write_slot(root, SlotId(0), None).unwrap();
        let r = analyze(&d);
        assert_eq!(r.garbage_objects, 2, "cyclic garbage is still garbage");
        assert_eq!(r.live_objects, 1);
    }

    #[test]
    fn most_garbage_excludes_empty_partition_and_breaks_ties_low() {
        let report = OracleReport {
            live_bytes: Bytes::ZERO,
            live_objects: 0,
            garbage_bytes: Bytes(300),
            garbage_objects: 3,
            garbage_bytes_by_partition: vec![Bytes(100), Bytes(100), Bytes(100)],
            garbage_objects_by_partition: vec![1, 1, 1],
            nepotism_bytes: Bytes::ZERO,
        };
        assert_eq!(
            report.most_garbage_partition(PartitionId(0)),
            Some(PartitionId(1))
        );
        assert_eq!(
            report.most_garbage_partition(PartitionId(1)),
            Some(PartitionId(0))
        );
    }

    #[test]
    fn garbage_in_unknown_partition_is_zero() {
        let d = db();
        let r = analyze(&d);
        assert_eq!(r.garbage_in(PartitionId(99)), Bytes::ZERO);
    }

    #[test]
    fn scratch_is_reusable_across_passes() {
        let mut d = db();
        let mut scratch = OracleScratch::new();
        let root = d.create_root(Bytes(100), 2).unwrap();
        let first = analyze_with(&d, &mut scratch);
        assert_eq!(first.live_objects, 1);
        let (a, _) = d.create_object(Bytes(100), 2, root, SlotId(0)).unwrap();
        d.create_object(Bytes(100), 2, a, SlotId(0)).unwrap();
        d.write_slot(root, SlotId(0), None).unwrap();
        let second = analyze_with(&d, &mut scratch);
        assert_eq!(second.live_objects, 1);
        assert_eq!(second.garbage_objects, 2);
        assert_eq!(second, analyze(&d), "stale scratch state leaked");
    }

    /// A small random object graph grown by `seed`: allocations, rewired
    /// edges (which may orphan a subtree) and cut edges, making garbage and
    /// cross-partition pointers that exercise the nepotism pass. With
    /// `collections` > 0, one step in eight also collects a random
    /// partition, freeing record positions that later allocations reuse,
    /// and the growth goes on until that many collections ran; `each` sees
    /// the database after every collection.
    fn grown(seed: u64, collections: u64, mut each: impl FnMut(&Database)) -> Database {
        let mut rng = SimRng::new(seed);
        let mut d = db();
        let mut oids = Vec::new();
        for _ in 0..rng.range_inclusive(1, 4) {
            oids.push(
                d.create_root(Bytes(rng.range_inclusive(40, 200)), 3)
                    .unwrap(),
            );
        }
        let steps = rng.range_inclusive(20, 120);
        let mut step = 0;
        while step < steps || d.stats().collections < collections {
            step += 1;
            let parent = *rng.pick(&oids);
            let slot = SlotId(rng.below(3) as u16);
            if collections > 0 && rng.below(8) == 0 {
                let victims = d.collectable_partitions();
                d.collect_partition(*rng.pick(&victims)).unwrap();
                oids.retain(|&o| d.objects().contains(o));
                each(&d);
                continue;
            }
            match rng.below(10) {
                // Mostly allocate.
                0..=6 => {
                    if let Ok((o, _)) =
                        d.create_object(Bytes(rng.range_inclusive(40, 200)), 3, parent, slot)
                    {
                        oids.push(o);
                    }
                }
                // Rewire an existing edge (may orphan a subtree).
                7..=8 => {
                    let target = *rng.pick(&oids);
                    let _ = d.write_slot(parent, slot, Some(target));
                }
                // Cut an edge.
                _ => {
                    let _ = d.write_slot(parent, slot, None);
                }
            }
        }
        d.clear_events();
        d
    }

    #[test]
    fn dense_matches_reference_on_randomized_databases() {
        // Seeded-loop equivalence: build small random object graphs and
        // require the dense analysis to reproduce the reference report
        // exactly.
        let mut scratch = OracleScratch::new();
        for seed in 0..20u64 {
            let d = grown(seed, 0, |_| {});
            let expected = reference::analyze(&d);
            let got = analyze_with(&d, &mut scratch);
            assert_eq!(got, expected, "seed {seed} diverged");
            assert_eq!(analyze(&d), expected, "convenience wrapper diverged");
        }
    }

    #[test]
    fn dense_matches_reference_after_collections_and_a_restore() {
        // Twenty collections and more free positions that allocations then
        // reuse, checked after each; then the same database rebuilt by a
        // restore, whose record positions follow member order.
        let mut scratch = OracleScratch::new();
        for seed in 0..12u64 {
            let d = grown(seed, 20, |d| {
                assert_eq!(analyze_with(d, &mut scratch), reference::analyze(d));
            });
            let created = d.stats().objects_created as usize;
            assert!(d.objects().store_len() < created, "no position reused");
            let expected = reference::analyze(&d);
            assert_eq!(analyze_with(&d, &mut scratch), expected, "seed {seed}");

            let ids = (0..d.partition_count() as u32).map(PartitionId);
            let counts: Vec<usize> = ids.clone().map(|p| d.objects().member_count(p)).collect();
            let records: Vec<_> = ids
                .flat_map(|p| d.objects().members(p))
                .map(|o| Ok((o, d.objects().get(o)?.clone())))
                .collect();
            let mut state = Vec::new();
            d.save_state(&mut state);
            let mut words = pgc_types::Words::new(&state);
            let restored =
                Database::restore(d.cfg.clone(), &counts, 1 << 20, records, &mut words).unwrap();
            let got = analyze_with(&restored, &mut scratch);
            assert_eq!(got, reference::analyze(&restored), "seed {seed} restored");
            assert_eq!(got, expected, "seed {seed}: the restore changed the report");
        }
    }

    #[test]
    fn the_sweep_masks_the_tail_of_the_record_store() {
        // Stores of 0 to 128 positions: a root at position 0 holding object
        // `i` at position `i`, every fifth of them cut loose, and the last
        // position free, garbage or live in turn.
        for n in [0usize, 1, 63, 64, 65, 127, 128] {
            for last in ["free", "garbage", "live"] {
                let cut = |i: usize| {
                    if i + 1 == n {
                        last != "live"
                    } else {
                        i % 5 == 2
                    }
                };
                let mut d = db();
                if n > 0 {
                    let root = d.create_root(Bytes(100), n).unwrap();
                    for i in 1..n {
                        let slot = SlotId(i as u16 - 1);
                        d.create_object(Bytes(16), 1, root, slot).unwrap();
                        if cut(i) {
                            d.write_slot(root, slot, None).unwrap();
                        }
                    }
                    if cut(0) {
                        d.roots.clear();
                    }
                    if last == "free" {
                        let home = d.objects().get(root).unwrap().addr.partition;
                        d.collect_partition(home).unwrap();
                    }
                    let occupied = d.objects().at(n - 1).is_some();
                    assert_eq!(occupied, last != "free", "{n} positions, last {last}");
                }
                assert_eq!(d.objects().store_len(), n);
                let words = (0..=n / 64).map(|w| d.objects().occupied_word(w));
                let occupied = words.map(u64::count_ones).sum::<u32>() as usize;
                assert_eq!(
                    occupied,
                    d.objects().iter().count(),
                    "{n} positions, last {last}"
                );
                let got = analyze(&d);
                assert_eq!(got, reference::analyze(&d), "{n} positions, last {last}");
                let live = (0..n).filter(|&i| !cut(i)).count();
                assert_eq!(
                    got.live_objects as usize, live,
                    "{n} positions, last {last}"
                );
            }
        }
    }
}
