//! The selection-policy abstraction.
//!
//! A policy observes the barrier event bus (that is *all* an implementable
//! policy can see — the paper's policies are deliberately restricted to
//! per-partition counters fed by the barrier), so [`SelectionPolicy`] is a
//! [`BarrierObserver`] first: scoreboard maintenance is
//! [`BarrierObserver::on_event`] handling. When the scheduler fires, the
//! policy names the partition to collect. The near-optimal `MostGarbage`
//! policy additionally consults the simulation oracle, which is why the
//! trait hands `select` a full view of the database; honest policies only
//! use its cheap structural accessors.

use crate::{BarrierObserver, Database};
use pgc_types::{PartitionId, Words};
use std::fmt;
use std::str::FromStr;

/// Every implemented partition selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Never collect; grow the database instead (space upper bound).
    NoCollection,
    /// Pick a uniformly random collectable partition.
    Random,
    /// Pick the partition with the most pointer writes into it since its
    /// last collection (the enhanced Yong/Naughton/Yu policy: data writes
    /// excluded).
    MutatedPartition,
    /// Pick the partition the most *overwritten* pointers pointed into —
    /// the paper's winning policy.
    UpdatedPointer,
    /// Like `UpdatedPointer` but each overwritten pointer scores
    /// `2^(max_weight - w)` where `w` is the old target's root-distance
    /// weight.
    WeightedPointer,
    /// Oracle policy: the partition that actually holds the most garbage.
    /// Near-optimal and not implementable.
    MostGarbage,
    /// Extension (not in the paper): cycle through partitions in order.
    RoundRobin,
    /// Extension (not in the paper): pick the partition with the most
    /// allocated (used) bytes.
    Occupancy,
    /// The *unenhanced* Yong/Naughton/Yu policy the paper improves on:
    /// counts every mutation into a partition, data writes included.
    YnyMutated,
    /// Extension (not in the paper): the programming-language generational
    /// heuristic transplanted to partitions — collect the partition with
    /// the youngest average allocation.
    Generational,
    /// Extension (not in the paper): `UpdatedPointer` with geometric score
    /// decay at each collection, so stale hints fade.
    UpdatedDecay,
    /// Extension (not in the paper): a weighted blend of overwrite count,
    /// partition occupancy, and allocation recency.
    Composite,
    /// Extension (not in the paper): an adaptive meta-policy that races a
    /// slate of candidate policies as shadow scoreboards and switches the
    /// driving policy mid-run when a challenger's retrospective garbage
    /// credit beats the incumbent's by a configurable margin.
    AdaptiveMeta,
}

impl PolicyKind {
    /// The six policies evaluated in the paper, in the row order of its
    /// tables (worst space behaviour first).
    pub const PAPER: [PolicyKind; 6] = [
        PolicyKind::NoCollection,
        PolicyKind::MutatedPartition,
        PolicyKind::Random,
        PolicyKind::WeightedPointer,
        PolicyKind::UpdatedPointer,
        PolicyKind::MostGarbage,
    ];

    /// Every implemented policy, paper policies first.
    pub const ALL: [PolicyKind; 13] = [
        PolicyKind::NoCollection,
        PolicyKind::MutatedPartition,
        PolicyKind::Random,
        PolicyKind::WeightedPointer,
        PolicyKind::UpdatedPointer,
        PolicyKind::MostGarbage,
        PolicyKind::RoundRobin,
        PolicyKind::Occupancy,
        PolicyKind::YnyMutated,
        PolicyKind::Generational,
        PolicyKind::UpdatedDecay,
        PolicyKind::Composite,
        PolicyKind::AdaptiveMeta,
    ];

    /// Stable display name, matching the paper's table rows.
    pub const fn name(self) -> &'static str {
        match self {
            PolicyKind::NoCollection => "NoCollection",
            PolicyKind::Random => "Random",
            PolicyKind::MutatedPartition => "MutatedPartition",
            PolicyKind::UpdatedPointer => "UpdatedPointer",
            PolicyKind::WeightedPointer => "WeightedPointer",
            PolicyKind::MostGarbage => "MostGarbage",
            PolicyKind::RoundRobin => "RoundRobin",
            PolicyKind::Occupancy => "Occupancy",
            PolicyKind::YnyMutated => "YNY-Mutated",
            PolicyKind::Generational => "Generational",
            PolicyKind::UpdatedDecay => "UpdatedDecay",
            PolicyKind::Composite => "Composite",
            PolicyKind::AdaptiveMeta => "AdaptiveMeta",
        }
    }

    /// True for policies a real ODBMS could implement (everything but the
    /// oracle-backed `MostGarbage`).
    pub const fn is_implementable(self) -> bool {
        !matches!(self, PolicyKind::MostGarbage)
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PolicyKind {
    type Err = String;

    /// Parses either the CamelCase table name or a kebab-case CLI form
    /// (`updated-pointer`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .map(|c| c.to_ascii_lowercase())
            .collect();
        match norm.as_str() {
            "nocollection" | "none" => Ok(PolicyKind::NoCollection),
            "random" => Ok(PolicyKind::Random),
            "mutatedpartition" | "mutated" => Ok(PolicyKind::MutatedPartition),
            "updatedpointer" | "updated" => Ok(PolicyKind::UpdatedPointer),
            "weightedpointer" | "weighted" => Ok(PolicyKind::WeightedPointer),
            "mostgarbage" | "oracle" => Ok(PolicyKind::MostGarbage),
            "roundrobin" => Ok(PolicyKind::RoundRobin),
            "occupancy" => Ok(PolicyKind::Occupancy),
            "ynymutated" | "yny" => Ok(PolicyKind::YnyMutated),
            "generational" => Ok(PolicyKind::Generational),
            "updateddecay" | "decay" => Ok(PolicyKind::UpdatedDecay),
            "composite" => Ok(PolicyKind::Composite),
            "adaptivemeta" | "adaptive" | "meta" => Ok(PolicyKind::AdaptiveMeta),
            _ => Err(format!("unknown policy '{s}'")),
        }
    }
}

/// A partition selection policy.
///
/// Lifecycle per simulation: the policy observes the barrier event stream
/// through its [`BarrierObserver::on_event`] implementation —
/// [`crate::BarrierEvent::PointerWrite`] feeds the scoreboards,
/// [`crate::BarrierEvent::DataWrite`] is counted only by the unenhanced
/// Yong/Naughton/Yu policy (ignoring it *is* the paper's enhancement), and
/// [`crate::BarrierEvent::CollectionCompleted`] resets the victim's
/// per-partition state. When the scheduler triggers a collection,
/// [`SelectionPolicy::select`] names the victim.
///
/// A policy must tolerate `CollectionCompleted` events for collections it
/// did not request: in shadow-scoreboard mode (see `pgc_sim`), shadow
/// policies ride a driver policy's event stream and observe the driver's
/// collections.
pub trait SelectionPolicy: BarrierObserver {
    /// Which policy this is.
    fn kind(&self) -> PolicyKind;

    /// Chooses the partition to collect, or `None` to skip collection
    /// (only `NoCollection` does that, and a policy with an entirely empty
    /// database may). Must never return the designated empty partition.
    fn select(&mut self, db: &Database) -> Option<PartitionId>;

    /// The policy's current numeric score for `partition`, if it keeps
    /// one. Scoreboard policies report their counter; policies with no
    /// per-partition score (`Random`, the oracle, `NoCollection`) report
    /// `None`. Purely diagnostic: the collector broadcasts it on the bus
    /// as [`crate::BarrierEvent::VictimSelected`], and it must never
    /// influence selection.
    fn victim_score(&self, partition: PartitionId) -> Option<f64> {
        let _ = partition;
        None
    }

    /// The policy's display name.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Drains any driving-policy switches the policy decided since the
    /// last drain. Only meta-policies ever return entries; the collector
    /// broadcasts each as [`crate::BarrierEvent::PolicySwitched`].
    fn take_switches(&mut self) -> Vec<PolicySwitch> {
        Vec::new()
    }

    /// Appends whatever the policy has learned from the run so far (score
    /// tables, a generator's position) for a snapshot's run image. Policies
    /// that read everything off the database at `select` save nothing.
    /// Called between activations, when no switch is pending.
    fn save(&self, out: &mut Vec<u64>) {
        let _ = out;
    }

    /// Resumes from what [`SelectionPolicy::save`] wrote, on a policy built
    /// for the same configuration, after a run of `events` events. Anything
    /// a policy of this configuration could not have saved is an `Err`, a
    /// counter that one event adds at most one to above `events` included.
    fn load(&mut self, words: &mut Words<'_>, events: u64) -> pgc_types::Result<()> {
        let _ = (words, events);
        Ok(())
    }
}

/// One driving-policy switch decided by a meta-policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicySwitch {
    /// The activation whose collection outcome triggered the switch (the
    /// new policy drives selection from the *next* activation).
    pub activation: u64,
    /// The policy that was driving.
    pub from: PolicyKind,
    /// The policy now driving.
    pub to: PolicyKind,
}

/// Deterministic fallback victim used by counter-based policies whose
/// scores are all zero (possible immediately after a collection or in a
/// freshly created database): the collectable partition with the most used
/// bytes, ties toward the lowest id, `None` if every collectable partition
/// is fresh.
pub fn fallback_victim(db: &Database) -> Option<PartitionId> {
    let mut best: Option<(PartitionId, u64)> = None;
    for id in db.collectable_partitions() {
        let used = db
            .partitions()
            .partition(id)
            .map(|p| p.used_bytes().get())
            .unwrap_or(0);
        if used == 0 {
            continue;
        }
        match best {
            Some((_, b)) if b >= used => {}
            _ => best = Some((id, used)),
        }
    }
    best.map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_types::{Bytes, DbConfig};

    #[test]
    fn names_match_paper_rows() {
        assert_eq!(PolicyKind::UpdatedPointer.to_string(), "UpdatedPointer");
        assert_eq!(PolicyKind::PAPER.len(), 6);
        assert_eq!(PolicyKind::PAPER[0], PolicyKind::NoCollection);
        assert_eq!(PolicyKind::PAPER[5], PolicyKind::MostGarbage);
    }

    #[test]
    fn parsing_accepts_table_and_cli_forms() {
        assert_eq!(
            "UpdatedPointer".parse::<PolicyKind>().unwrap(),
            PolicyKind::UpdatedPointer
        );
        assert_eq!(
            "updated-pointer".parse::<PolicyKind>().unwrap(),
            PolicyKind::UpdatedPointer
        );
        assert_eq!(
            "most_garbage".parse::<PolicyKind>().unwrap(),
            PolicyKind::MostGarbage
        );
        assert_eq!(
            "oracle".parse::<PolicyKind>().unwrap(),
            PolicyKind::MostGarbage
        );
        assert!("bogus".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn every_kind_round_trips_through_its_name() {
        assert_eq!(PolicyKind::ALL.len(), 13);
        for kind in PolicyKind::ALL {
            assert_eq!(
                kind.name().parse::<PolicyKind>().unwrap(),
                kind,
                "{kind}: display name must parse back to the same variant"
            );
        }
        // The CLI aliases of `Composite` and the meta-policy.
        assert_eq!(
            "composite".parse::<PolicyKind>().unwrap(),
            PolicyKind::Composite
        );
        for alias in ["adaptive-meta", "adaptive", "meta"] {
            assert_eq!(
                alias.parse::<PolicyKind>().unwrap(),
                PolicyKind::AdaptiveMeta,
                "{alias}"
            );
        }
    }

    #[test]
    fn implementability() {
        assert!(!PolicyKind::MostGarbage.is_implementable());
        for k in PolicyKind::PAPER {
            if k != PolicyKind::MostGarbage {
                assert!(k.is_implementable(), "{k}");
            }
        }
    }

    #[test]
    fn fallback_prefers_fullest_partition() {
        let cfg = DbConfig::default()
            .with_page_size(1024)
            .with_partition_pages(4);
        let mut db = Database::new(cfg).unwrap();
        assert_eq!(fallback_victim(&db), None, "fresh database");
        let r = db.create_root(Bytes(100), 2).unwrap();
        let home = db.objects().get(r).unwrap().addr.partition;
        assert_eq!(fallback_victim(&db), Some(home));
    }
}
