//! The counter policies: one score per partition, bumped at the write
//! barrier and ranked when the trigger fires.
//!
//! The paper's implementable policies (Sec. 3.1) keep "a counter
//! associated with each partition" and collect the partition whose
//! counter is highest, then zero it. [`Scoreboard`] is that and nothing
//! more: one [`Signal`]'s plain `Vec<u64>` indexed by partition, folded
//! from [`BarrierEvent`]s, and a selection that is one pass over the
//! collectable partitions. `MutatedPartition`, `UpdatedPointer`,
//! `WeightedPointer`, `YNY-Mutated` and `UpdatedDecay` differ only in
//! their signal.
//!
//! Ranking rule, for every kind: partitions scoring zero are skipped, ties
//! break toward the lowest partition id, and a board with no positive
//! score falls back to [`fallback_victim`] (the fullest partition).

use crate::policy::fallback_victim;
use crate::{BarrierEvent, BarrierObserver, Database, PolicyKind, SelectionPolicy};
use pgc_types::{PartitionId, Result, Words};

/// What the score table counts. Every signal zeroes the victim's entry
/// when a collection completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Signal {
    /// +1 to the *old target's* partition per pointer overwrite —
    /// `UpdatedPointer`, the paper's winning policy, "based on the
    /// observation that when a pointer is overwritten, the object it
    /// pointed to is more likely to become garbage". Creation-time stores
    /// overwrite nothing and do not count. Cost is essentially that of
    /// `MutatedPartition`: the overwritten value is on the very page being
    /// written, so reading it is free.
    Overwrites,
    /// +1 to the owner's partition per pointer store: "increment the
    /// counter associated with the partition being written into" —
    /// `MutatedPartition`, the paper's *enhancement* of the
    /// Yong/Naughton/Yu policy, under which "pure data mutations, which do
    /// not affect object connectivity and, hence, cannot create garbage,
    /// are not considered". Creation-time initialization counts too, and
    /// deliberately so: the paper names it as the policy's key weakness
    /// ("it is influenced by the creation of new objects, which is not
    /// correlated to the creation of garbage").
    PointerWrites,
    /// +1 per pointer store *and* per data write — `YNY-Mutated`, the
    /// original Yong/Naughton/Yu policy, which "selects the partition that
    /// had been mutated the most, without regard to whether the mutations
    /// were to the partition's pointers or to its data". Kept so the
    /// ablations can quantify what the paper's enhancement buys.
    Mutations,
    /// `2^(max_weight − w)` to the old target's partition per overwrite of
    /// a pointer to a weight-`w` object — `WeightedPointer`, "based on the
    /// observation that not all pointers are equal": losing a pointer near
    /// the roots of a tree-like database tends to kill a whole subtree,
    /// losing a leaf pointer kills little. `w` is the old target's
    /// approximate distance from the roots (4 bits, cap 16, in the paper,
    /// whose example is a weight-2 object scoring `2^(16−2) = 16384`). The
    /// paper finds the heuristic fragile: it "assumes a tree-like
    /// database" and degrades quickly as dense edges are added (Table 5).
    WeightedOverwrites {
        /// The database's weight cap ([`pgc_types::DbConfig::max_weight`],
        /// validated to 1..=32 so the sum fits the table's `u64`).
        max_weight: u8,
    },
    /// +2 to the old target's partition per overwrite, and every entry
    /// halved at each collection (after the victim is zeroed) —
    /// `UpdatedDecay`, an extension. The paper's policies zero only the
    /// *collected* partition, so hints accumulated long ago keep steering
    /// selection after the garbage they pointed at was reclaimed elsewhere
    /// or the objects moved (evacuation relocates survivors without
    /// touching the counters); halving makes old hints fade geometrically.
    /// The bump is doubled so one round of decay keeps integer resolution.
    DecayedOverwrites,
}

/// A counter policy: its kind, its signal, and that signal's
/// per-partition scores, grown on demand (a partition beyond the end of
/// `scores` scores zero).
#[derive(Debug)]
pub(super) struct Scoreboard {
    kind: PolicyKind,
    signal: Signal,
    scores: Vec<u64>,
}

impl Scoreboard {
    /// A scoreboard reporting itself as `kind` and ranking by `signal`.
    pub(super) fn new(kind: PolicyKind, signal: Signal) -> Self {
        Self {
            kind,
            signal,
            scores: Vec::new(),
        }
    }

    fn score(&self, p: PartitionId) -> u64 {
        self.scores.get(p.as_usize()).copied().unwrap_or(0)
    }

    fn add(&mut self, p: PartitionId, amount: u64) {
        let idx = p.as_usize();
        if self.scores.len() <= idx {
            self.scores.resize(idx + 1, 0);
        }
        // Saturating: a loaded score is whatever a file said.
        self.scores[idx] = self.scores[idx].saturating_add(amount);
    }
}

impl BarrierObserver for Scoreboard {
    fn on_event(&mut self, event: &BarrierEvent) {
        match (self.signal, event) {
            (Signal::Overwrites, BarrierEvent::PointerWrite(info)) => {
                if let Some(old) = info.old {
                    self.add(old.partition, 1);
                }
            }
            (Signal::PointerWrites | Signal::Mutations, BarrierEvent::PointerWrite(info)) => {
                self.add(info.owner_partition, 1);
            }
            (Signal::Mutations, BarrierEvent::DataWrite { partition, .. }) => {
                self.add(*partition, 1);
            }
            (Signal::WeightedOverwrites { max_weight }, BarrierEvent::PointerWrite(info)) => {
                if let Some(old) = info.old {
                    let exp = max_weight - old.weight.min(max_weight);
                    self.add(old.partition, 1u64 << exp);
                }
            }
            (Signal::DecayedOverwrites, BarrierEvent::PointerWrite(info)) => {
                if let Some(old) = info.old {
                    self.add(old.partition, 2);
                }
            }
            (signal, BarrierEvent::CollectionCompleted(outcome)) => {
                if let Some(v) = self.scores.get_mut(outcome.victim.as_usize()) {
                    *v = 0;
                }
                if signal == Signal::DecayedOverwrites {
                    for v in &mut self.scores {
                        *v /= 2;
                    }
                }
            }
            _ => {}
        }
    }
}

impl SelectionPolicy for Scoreboard {
    fn kind(&self) -> PolicyKind {
        self.kind
    }

    fn select(&mut self, db: &Database) -> Option<PartitionId> {
        let mut best: Option<(PartitionId, u64)> = None;
        for p in db.collectable_partitions() {
            let s = self.score(p);
            if s == 0 {
                continue;
            }
            match best {
                Some((_, b)) if b >= s => {}
                _ => best = Some((p, s)),
            }
        }
        best.map(|(p, _)| p).or_else(|| fallback_victim(db))
    }

    fn victim_score(&self, partition: PartitionId) -> Option<f64> {
        Some(self.score(partition) as f64)
    }

    /// The scores behind their count.
    fn save(&self, out: &mut Vec<u64>) {
        out.push(self.scores.len() as u64);
        out.extend(&self.scores);
    }

    fn load(&mut self, words: &mut Words<'_>) -> Result<()> {
        let len = words.count()?;
        self.scores = words.take(len)?.to_vec();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        build_policy, BarrierEvent, CollectionOutcome, Database, PointerTarget, PointerWriteInfo,
        PolicyKind, SelectionPolicy,
    };
    use pgc_types::{Bytes, DbConfig, Oid, PartitionId, SlotId};

    const SCORED: [PolicyKind; 5] = [
        PolicyKind::MutatedPartition,
        PolicyKind::UpdatedPointer,
        PolicyKind::WeightedPointer,
        PolicyKind::YnyMutated,
        PolicyKind::UpdatedDecay,
    ];

    fn policy(kind: PolicyKind) -> Box<dyn SelectionPolicy> {
        build_policy(kind, 0, 16)
    }

    fn score(p: &dyn SelectionPolicy, partition: u32) -> u64 {
        p.victim_score(PartitionId(partition))
            .expect("a scoreboard") as u64
    }

    /// A pointer store by an object in `owner` that replaces a pointer to
    /// a weight-`weight` object in `old` (`None` = the slot was empty).
    fn store(owner: u32, old: Option<(u32, u8)>, during_creation: bool) -> BarrierEvent {
        BarrierEvent::PointerWrite(PointerWriteInfo {
            owner: Oid(1),
            owner_partition: PartitionId(owner),
            slot: SlotId(0),
            old: old.map(|(partition, weight)| PointerTarget {
                oid: Oid(2),
                partition: PartitionId(partition),
                weight,
            }),
            new: None,
            during_creation,
        })
    }

    /// An overwrite, by an owner in partition 3, of a pointer to a
    /// weight-3 object in `old`.
    fn overwrite(old: u32) -> BarrierEvent {
        store(3, Some((old, 3)), false)
    }

    fn data_write(partition: u32) -> BarrierEvent {
        BarrierEvent::DataWrite {
            oid: Oid(1),
            partition: PartitionId(partition),
        }
    }

    fn alloc(partition: u32, size: u64) -> BarrierEvent {
        BarrierEvent::Allocation {
            oid: Oid(7),
            partition: PartitionId(partition),
            size: Bytes(size),
            grew: false,
        }
    }

    fn collected(victim: u32) -> BarrierEvent {
        BarrierEvent::CollectionCompleted(CollectionOutcome {
            victim: PartitionId(victim),
            target: PartitionId(0),
            live_objects: 0,
            live_bytes: Bytes::ZERO,
            garbage_objects: 0,
            garbage_bytes: Bytes::ZERO,
            forwarded_pointers: 0,
            gc_reads: 0,
            gc_writes: 0,
        })
    }

    /// Partitions 1 and 2 in use (2 the fuller, holding a 4000-byte
    /// spill), partition 0 the designated empty one.
    fn db() -> Database {
        let cfg = DbConfig::default()
            .with_page_size(1024)
            .with_partition_pages(4);
        let mut db = Database::new(cfg).unwrap();
        let r = db.create_root(Bytes(100), 2).unwrap();
        db.create_object(Bytes(4000), 2, r, SlotId(0)).unwrap();
        assert_eq!(db.empty_partition(), PartitionId(0));
        db
    }

    /// One event that scores a point (or more) for `partition` under
    /// every counter kind.
    fn bump(p: &mut dyn SelectionPolicy, partition: u32) {
        p.on_event(&store(partition, Some((partition, 3)), false));
    }

    // ---- what each signal counts ----

    #[test]
    fn updated_pointer_credits_the_old_target_not_the_owner() {
        let mut p = policy(PolicyKind::UpdatedPointer);
        p.on_event(&store(1, Some((2, 3)), false));
        assert_eq!(score(&*p, 1), 0);
        assert_eq!(score(&*p, 2), 1);
    }

    #[test]
    fn mutated_partition_counts_stores_by_owner() {
        let mut p = policy(PolicyKind::MutatedPartition);
        p.on_event(&store(1, None, false));
        p.on_event(&store(1, Some((2, 3)), false));
        p.on_event(&store(2, None, false));
        assert_eq!(score(&*p, 1), 2);
        assert_eq!(score(&*p, 2), 1);
    }

    #[test]
    fn creation_stores_count_for_mutated_partition_only() {
        // The documented weakness of `MutatedPartition`, and the very
        // property that lets `UpdatedPointer` beat it.
        let mut mutated = policy(PolicyKind::MutatedPartition);
        let mut updated = policy(PolicyKind::UpdatedPointer);
        let mut weighted = policy(PolicyKind::WeightedPointer);
        for p in [&mut mutated, &mut updated, &mut weighted] {
            p.on_event(&store(1, None, true));
            p.on_event(&store(1, None, true));
        }
        assert_eq!(score(&*mutated, 1), 2);
        assert_eq!(score(&*updated, 1), 0);
        assert_eq!(score(&*weighted, 1), 0);
    }

    #[test]
    fn allocations_alone_score_nothing_for_the_single_signal_kinds() {
        for kind in SCORED {
            let mut p = policy(kind);
            p.on_event(&alloc(1, 100));
            assert_eq!(score(&*p, 1), 0, "{kind}");
        }
    }

    #[test]
    fn data_writes_count_only_for_yny_mutated() {
        for kind in SCORED {
            let mut p = policy(kind);
            p.on_event(&data_write(1));
            let want = u64::from(kind == PolicyKind::YnyMutated);
            assert_eq!(score(&*p, 1), want, "{kind}");
        }
        // Pointer stores count for the unenhanced policy as well.
        let mut yny = policy(PolicyKind::YnyMutated);
        yny.on_event(&store(2, None, false));
        assert_eq!(score(&*yny, 2), 1);
    }

    #[test]
    fn data_heavy_partition_wins_under_yny_mutated() {
        let d = db();
        let mut p = policy(PolicyKind::YnyMutated);
        p.on_event(&store(2, None, false));
        for _ in 0..5 {
            p.on_event(&data_write(1));
        }
        // Data-mutation-heavy P1 outranks pointer-mutated P2 — exactly the
        // mistake the paper's enhancement avoids.
        assert_eq!(p.select(&d), Some(PartitionId(1)));
    }

    #[test]
    fn weighted_pointer_scores_the_papers_example() {
        let weighted = |w: u8| {
            let mut p = policy(PolicyKind::WeightedPointer);
            p.on_event(&store(0, Some((1, w)), false));
            score(&*p, 1)
        };
        assert_eq!(weighted(2), 16384, "the paper's 2^(16-2)");
        assert_eq!(weighted(1), 32768);
        assert_eq!(weighted(16), 1);
        assert_eq!(weighted(200), 1, "an out-of-range weight clamps");
    }

    #[test]
    fn near_root_overwrites_dominate_weighted_pointer() {
        let d = db();
        let mut p = policy(PolicyKind::WeightedPointer);
        // 1000 leaf overwrites into partition 1...
        for _ in 0..1000 {
            p.on_event(&store(0, Some((1, 16)), false));
        }
        // ...lose to a single depth-2 overwrite into partition 2.
        p.on_event(&store(0, Some((2, 2)), false));
        assert!(score(&*p, 2) > score(&*p, 1));
        assert_eq!(p.select(&d), Some(PartitionId(2)));
        // And the weights do not decay across collections.
        p.on_event(&collected(9));
        assert_eq!(score(&*p, 1), 1000);
    }

    #[test]
    fn weighted_pointer_selects_by_the_weighted_sum() {
        let d = db();
        let mut p = policy(PolicyKind::WeightedPointer);
        p.on_event(&store(0, Some((1, 10)), false));
        p.on_event(&store(0, Some((2, 3)), false));
        assert_eq!(p.select(&d), Some(PartitionId(2)));
    }

    #[test]
    fn updated_decay_halves_every_score_at_each_collection() {
        let mut p = policy(PolicyKind::UpdatedDecay);
        for _ in 0..8 {
            p.on_event(&overwrite(1));
        }
        assert_eq!(score(&*p, 1), 16, "bumps are doubled");
        p.on_event(&collected(9));
        assert_eq!(score(&*p, 1), 8, "halved");
        p.on_event(&collected(9));
        assert_eq!(score(&*p, 1), 4);
    }

    #[test]
    fn updated_decay_zeroes_the_victim_before_halving() {
        let mut p = policy(PolicyKind::UpdatedDecay);
        p.on_event(&overwrite(1));
        p.on_event(&overwrite(2));
        p.on_event(&collected(1));
        assert_eq!(score(&*p, 1), 0);
        assert_eq!(score(&*p, 2), 1);
    }

    #[test]
    fn fresh_hints_dominate_stale_ones_under_decay() {
        let mut p = policy(PolicyKind::UpdatedDecay);
        // Old burst into partition 1.
        for _ in 0..10 {
            p.on_event(&overwrite(1));
        }
        // Several collections of other partitions pass...
        for _ in 0..4 {
            p.on_event(&collected(9));
        }
        // ...then a modest fresh burst into partition 2 wins.
        for _ in 0..3 {
            p.on_event(&overwrite(2));
        }
        assert!(score(&*p, 2) > score(&*p, 1));
    }

    // ---- the ranking rule, identical for every kind ----

    #[test]
    fn the_highest_score_wins_and_the_victim_is_zeroed() {
        let d = db();
        for kind in SCORED {
            let mut p = policy(kind);
            for _ in 0..5 {
                bump(&mut *p, 1);
            }
            for _ in 0..3 {
                bump(&mut *p, 2);
            }
            assert_eq!(p.select(&d), Some(PartitionId(1)), "{kind}");
            assert_eq!(p.select(&d), Some(PartitionId(1)), "{kind}: reselection");
            p.on_event(&collected(1));
            assert_eq!(score(&*p, 1), 0, "{kind}: victim zeroed");
            assert_eq!(p.select(&d), Some(PartitionId(2)), "{kind}");
        }
    }

    #[test]
    fn a_trailing_partition_takes_over_once_it_scores_higher() {
        let d = db();
        let mut p = policy(PolicyKind::UpdatedPointer);
        for _ in 0..5 {
            p.on_event(&overwrite(1));
        }
        assert_eq!(p.select(&d), Some(PartitionId(1)));
        p.on_event(&overwrite(2));
        assert_eq!(p.select(&d), Some(PartitionId(1)), "P2 still behind");
        for _ in 0..10 {
            p.on_event(&overwrite(2));
        }
        assert_eq!(p.select(&d), Some(PartitionId(2)));
    }

    #[test]
    fn collecting_or_growing_elsewhere_leaves_the_leader_in_place() {
        let d = db();
        let mut p = policy(PolicyKind::UpdatedPointer);
        p.on_event(&overwrite(1));
        p.on_event(&overwrite(1));
        p.on_event(&overwrite(2));
        assert_eq!(p.select(&d), Some(PartitionId(1)));
        p.on_event(&collected(2));
        assert_eq!(score(&*p, 2), 0, "victim zeroed");
        assert_eq!(p.select(&d), Some(PartitionId(1)));
        p.on_event(&BarrierEvent::PartitionGrowth { partitions: 5 });
        assert_eq!(p.select(&d), Some(PartitionId(1)));
    }

    #[test]
    fn ties_break_toward_the_lowest_partition() {
        let d = db();
        for kind in SCORED {
            let mut p = policy(kind);
            bump(&mut *p, 2);
            bump(&mut *p, 1);
            assert_eq!(p.select(&d), Some(PartitionId(1)), "{kind}");
        }
    }

    #[test]
    fn the_empty_partition_is_never_picked() {
        let d = db();
        let empty = d.empty_partition().0;
        for kind in SCORED {
            let mut p = policy(kind);
            for _ in 0..3 {
                bump(&mut *p, empty);
            }
            bump(&mut *p, 1);
            assert_eq!(p.select(&d), Some(PartitionId(1)), "{kind}");
        }
    }

    #[test]
    fn an_all_zero_board_falls_back_to_the_fullest_partition() {
        let d = db();
        for kind in SCORED {
            let mut p = policy(kind);
            assert_eq!(p.select(&d), Some(PartitionId(2)), "{kind}");
        }
    }
}
