//! Remembered sets and out-of-partition sets (Sec. 4.1 of the paper).
//!
//! For each partition `T` the **remembered set** `into[T]` records the
//! locations of every pointer stored in some *other* partition whose target
//! lies in `T`. Collecting `T` treats the targets of those pointers as
//! roots, so `T` can be collected without scanning the rest of the database.
//!
//! For each partition `F` the **out-of-partition set** `out[F]` records
//! which objects in `F` currently hold pointers that leave `F`. When a
//! collection of `F` finds such an object to be garbage, the locations of
//! its pointers are removed from the remembered sets they point into —
//! otherwise later collections of those partitions would "unnecessarily
//! preserve objects pointed to by garbage" (the paper's words).
//!
//! Both structures live in primary memory (the paper keeps them "explicitly
//! in auxiliary data structures"), so maintaining them costs no page I/O in
//! the simulation; the write barrier that drives them piggybacks on page
//! writes the application performs anyway.
//!
//! The remembered set is keyed by *target object* within each partition:
//! `into[T] : Oid -> {PointerLoc}`. The extra level (compared to a flat set
//! of locations) is what lets the collector (a) seed its trace with the
//! remembered targets and (b) find the pointers to forward at each one,
//! both in O(entries touched).

use pgc_types::{FastHashMap, FastHashSet, Oid, PartitionId, PointerLoc};

/// Remembered sets (`into`) and out-of-partition pointer counts (`out`) for
/// every partition.
#[derive(Debug, Clone, Default)]
pub(crate) struct RemsetTable {
    /// `into[t]`: for each target partition, target object → locations of
    /// cross-partition pointers at it. These maps are genuinely sparse
    /// (most objects are never remembered), so they stay hash maps — but
    /// with the unkeyed [`pgc_types::FxHasher`], which is much cheaper than
    /// SipHash on `u64`-shaped keys and gives iteration order that is
    /// stable across processes.
    into: Vec<FastHashMap<Oid, FastHashSet<PointerLoc>>>,
    /// `out[f]`: for each source partition, object → number of its slots
    /// currently holding cross-partition pointers.
    out: Vec<FastHashMap<Oid, u32>>,
}

impl RemsetTable {
    /// Creates empty tables.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, p: PartitionId) {
        let need = p.as_usize() + 1;
        if self.into.len() < need {
            self.into.resize_with(need, FastHashMap::default);
        }
        if self.out.len() < need {
            self.out.resize_with(need, FastHashMap::default);
        }
    }

    /// Records creation of a cross-partition pointer at `loc` (an object in
    /// `from`) targeting `target` (an object in `to`).
    pub(crate) fn add_edge(
        &mut self,
        loc: PointerLoc,
        from: PartitionId,
        target: Oid,
        to: PartitionId,
    ) {
        debug_assert_ne!(from, to, "intra-partition edge recorded in remset");
        self.ensure(from);
        self.ensure(to);
        self.into[to.as_usize()]
            .entry(target)
            .or_default()
            .insert(loc);
        *self.out[from.as_usize()].entry(loc.owner).or_insert(0) += 1;
    }

    /// Records destruction of the cross-partition pointer at `loc` that
    /// targeted `target` in partition `to`.
    pub(crate) fn remove_edge(
        &mut self,
        loc: PointerLoc,
        from: PartitionId,
        target: Oid,
        to: PartitionId,
    ) {
        self.ensure(from);
        self.ensure(to);
        if let Some(locs) = self.into[to.as_usize()].get_mut(&target) {
            locs.remove(&loc);
            if locs.is_empty() {
                self.into[to.as_usize()].remove(&target);
            }
        }
        if let Some(count) = self.out[from.as_usize()].get_mut(&loc.owner) {
            *count -= 1;
            if *count == 0 {
                self.out[from.as_usize()].remove(&loc.owner);
            }
        }
    }

    /// The remembered targets in partition `t`: objects that some other
    /// partition points at, i.e. the remset roots for a collection of `t`.
    pub(crate) fn remembered_targets(&self, t: PartitionId) -> impl Iterator<Item = Oid> + '_ {
        self.into
            .get(t.as_usize())
            .into_iter()
            .flat_map(|m| m.keys().copied())
    }

    /// The recorded locations of cross-partition pointers at `target`
    /// (which resides in partition `t`).
    pub(crate) fn locations_of(
        &self,
        t: PartitionId,
        target: Oid,
    ) -> impl Iterator<Item = PointerLoc> + '_ {
        self.into
            .get(t.as_usize())
            .and_then(|m| m.get(&target))
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Total number of remembered pointer locations into partition `t`.
    pub(crate) fn remembered_pointer_count(&self, t: PartitionId) -> usize {
        self.into
            .get(t.as_usize())
            .map_or(0, |m| m.values().map(|s| s.len()).sum())
    }

    /// The out-of-partition set of `f`.
    pub(crate) fn out_set(&self, f: PartitionId) -> impl Iterator<Item = Oid> + '_ {
        self.out
            .get(f.as_usize())
            .into_iter()
            .flat_map(|m| m.keys().copied())
    }

    /// Replaces `out` with the locations of the remembered pointers at
    /// `target` (in partition `t`), sorted by owner and slot, so the
    /// collector charges pointer-forwarding I/O in an order that does not
    /// depend on the hash set's history.
    pub(crate) fn forwarded(&self, t: PartitionId, target: Oid, out: &mut Vec<PointerLoc>) {
        out.clear();
        out.extend(self.locations_of(t, target));
        out.sort_unstable();
    }

    /// Hands partition `from`'s remembered and out-of-partition sets to
    /// `to`, whose sets must be empty, in one swap: the collector moves a
    /// victim's survivors into the designated empty partition under their
    /// own oids, so every entry is already keyed right.
    pub(crate) fn hand_over(&mut self, from: PartitionId, to: PartitionId) {
        self.ensure(from);
        self.ensure(to);
        self.into.swap(from.as_usize(), to.as_usize());
        self.out.swap(from.as_usize(), to.as_usize());
    }

    /// Forgets the out-count of dead object `oid` in partition `f`.
    /// The per-target `into` entries sourced at `oid` must be removed via
    /// [`RemsetTable::remove_edge`] by the caller, which knows the dead
    /// object's slots.
    pub(crate) fn purge_source(&mut self, f: PartitionId, oid: Oid) {
        if let Some(m) = self.out.get_mut(f.as_usize()) {
            m.remove(&oid);
        }
    }

    /// Debug invariant check: every out-count equals the number of `into`
    /// locations owned by that object, and no empty inner sets linger.
    pub(crate) fn check_invariants(&self) {
        let mut counted: FastHashMap<Oid, u32> = FastHashMap::default();
        for per_target in &self.into {
            for (target, locs) in per_target {
                assert!(!locs.is_empty(), "empty location set for {target}");
                for loc in locs {
                    *counted.entry(loc.owner).or_insert(0) += 1;
                }
            }
        }
        let mut from_out: FastHashMap<Oid, u32> = FastHashMap::default();
        for per_source in &self.out {
            for (&oid, &count) in per_source {
                assert!(count > 0, "zero out-count for {oid}");
                *from_out.entry(oid).or_insert(0) += count;
            }
        }
        assert_eq!(counted, from_out, "out-counts disagree with into-locations");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_types::SlotId;

    fn loc(owner: u64, slot: u16) -> PointerLoc {
        PointerLoc::new(Oid(owner), SlotId(slot))
    }

    const P0: PartitionId = PartitionId(0);
    const P1: PartitionId = PartitionId(1);
    const P2: PartitionId = PartitionId(2);
    const P3: PartitionId = PartitionId(3);

    #[test]
    fn add_then_query() {
        let mut r = RemsetTable::new();
        r.add_edge(loc(1, 0), P0, Oid(10), P1);
        r.add_edge(loc(1, 1), P0, Oid(11), P1);
        r.add_edge(loc(2, 0), P2, Oid(10), P1);
        assert_eq!(r.remembered_targets(P1).count(), 2);
        assert_eq!(r.remembered_pointer_count(P1), 3);
        let mut targets: Vec<Oid> = r.remembered_targets(P1).collect();
        targets.sort();
        assert_eq!(targets, vec![Oid(10), Oid(11)]);
        assert!(r.out_set(P0).any(|o| o == Oid(1)));
        assert!(r.out_set(P2).any(|o| o == Oid(2)));
        assert!(!r.out_set(P1).any(|o| o == Oid(10)));
        r.check_invariants();
    }

    #[test]
    fn remove_edge_cleans_up_fully() {
        let mut r = RemsetTable::new();
        r.add_edge(loc(1, 0), P0, Oid(10), P1);
        r.remove_edge(loc(1, 0), P0, Oid(10), P1);
        assert_eq!(r.remembered_targets(P1).count(), 0);
        assert!(!r.out_set(P0).any(|o| o == Oid(1)));
        r.check_invariants();
    }

    #[test]
    fn out_count_tracks_multiple_pointers_per_object() {
        let mut r = RemsetTable::new();
        r.add_edge(loc(1, 0), P0, Oid(10), P1);
        r.add_edge(loc(1, 1), P0, Oid(20), P2);
        assert!(r.out_set(P0).any(|o| o == Oid(1)));
        r.remove_edge(loc(1, 0), P0, Oid(10), P1);
        assert!(r.out_set(P0).any(|o| o == Oid(1)), "one pointer still out");
        r.remove_edge(loc(1, 1), P0, Oid(20), P2);
        assert!(!r.out_set(P0).any(|o| o == Oid(1)));
        r.check_invariants();
    }

    #[test]
    fn hand_over_moves_both_sets_whole() {
        let mut r = RemsetTable::new();
        // Oid(10) lives in P1, pointed at from P0 twice; it also points out
        // to P2. P3 is the empty partition it moves into.
        r.add_edge(loc(1, 0), P0, Oid(10), P1);
        r.add_edge(loc(2, 0), P0, Oid(10), P1);
        r.add_edge(loc(10, 0), P1, Oid(30), P2);
        r.hand_over(P1, P3);
        assert_eq!(r.remembered_targets(P1).chain(r.out_set(P1)).count(), 0);
        assert_eq!(r.remembered_pointer_count(P3), 2);
        let moved: Vec<Oid> = r.out_set(P3).collect();
        assert_eq!(moved, [Oid(10)], "out-count moved with the object");
        assert_eq!(r.remembered_pointer_count(P2), 1, "P2's set is untouched");
        r.check_invariants();
    }

    #[test]
    fn forwarding_order_does_not_depend_on_the_sets_history() {
        // The same eight locations of one target, inserted in opposite
        // orders; the second set also grew to 200 entries and shrank back,
        // so its buckets are laid out for a table ten times the size.
        let locs: Vec<PointerLoc> = (0..8).map(|i| loc(100 - 7 * i, (i % 3) as u16)).collect();
        let forwarded = |r: &RemsetTable| {
            let mut out = vec![loc(1, 1)]; // what an earlier object forwarded
            r.forwarded(P1, Oid(10), &mut out);
            out
        };
        let mut straight = RemsetTable::new();
        for &l in &locs {
            straight.add_edge(l, P0, Oid(10), P1);
        }
        let mut churned = RemsetTable::new();
        for i in 0..200 {
            churned.add_edge(loc(1_000 + i, 0), P0, Oid(10), P1);
        }
        for &l in locs.iter().rev() {
            churned.add_edge(l, P0, Oid(10), P1);
        }
        for i in 0..200 {
            churned.remove_edge(loc(1_000 + i, 0), P0, Oid(10), P1);
        }
        let mut expected = locs.clone();
        expected.sort();
        assert_eq!(forwarded(&straight), expected);
        assert_eq!(forwarded(&churned), expected);
        churned.check_invariants();
    }

    #[test]
    fn purge_source_and_target() {
        let mut r = RemsetTable::new();
        r.add_edge(loc(1, 0), P0, Oid(10), P1);
        r.add_edge(loc(1, 1), P0, Oid(20), P2);
        // A dead source's pointers leave their targets' sets one by one...
        r.remove_edge(loc(1, 0), P0, Oid(10), P1);
        assert_eq!(r.remembered_targets(P1).count(), 0);
        assert!(r.out_set(P0).any(|o| o == Oid(1)), "one pointer still out");
        // ...and purging the source forgets whatever out-count is left.
        r.purge_source(P0, Oid(1));
        assert!(!r.out_set(P0).any(|o| o == Oid(1)));
        assert_eq!(r.remembered_targets(P2).count(), 1);
    }

    #[test]
    fn locations_of_returns_sources() {
        let mut r = RemsetTable::new();
        r.add_edge(loc(1, 0), P0, Oid(10), P1);
        r.add_edge(loc(2, 3), P2, Oid(10), P1);
        let mut locs: Vec<PointerLoc> = r.locations_of(P1, Oid(10)).collect();
        locs.sort();
        assert_eq!(locs, vec![loc(1, 0), loc(2, 3)]);
        assert_eq!(r.locations_of(P1, Oid(99)).count(), 0);
    }

    #[test]
    fn idempotent_double_remove_is_harmless() {
        let mut r = RemsetTable::new();
        r.add_edge(loc(1, 0), P0, Oid(10), P1);
        r.remove_edge(loc(1, 0), P0, Oid(10), P1);
        // A second remove of the same edge must not underflow or panic.
        r.remove_edge(loc(9, 9), P0, Oid(10), P1);
        r.check_invariants();
    }
}
