//! The concrete selection policies.
//!
//! Paper policies (Sec. 3.1): `NoCollection`, `Random`,
//! `MutatedPartition`, `UpdatedPointer`, `WeightedPointer`,
//! `MostGarbage`. Baseline from related work: `YNY-Mutated` (the
//! unenhanced Yong/Naughton/Yu policy). Extensions for ablation studies:
//! `RoundRobin`, `Occupancy`, `Generational`, `UpdatedDecay`.
//!
//! The five counter policies (`MutatedPartition`, `UpdatedPointer`,
//! `WeightedPointer`, `YNY-Mutated`, `UpdatedDecay`) are one type, the
//! `scoreboard` module's score table: a `Vec<u64>` indexed by partition,
//! bumped from barrier events and ranked by one pass at selection time.
//! They differ only in which events they count; [`build_policy`] is their
//! constructor.

mod generational;
mod most_garbage;
mod no_collection;
mod occupancy;
mod random;
mod round_robin;
mod scoreboard;

pub(crate) use generational::Generational;
pub(crate) use most_garbage::MostGarbage;
pub(crate) use no_collection::NoCollection;
pub(crate) use occupancy::Occupancy;
pub(crate) use random::Random;
pub(crate) use round_robin::RoundRobin;

use crate::policy::{PolicyKind, SelectionPolicy};
use scoreboard::{Scoreboard, Signal};

/// Constructs a boxed policy of the given kind.
///
/// `seed` feeds the `Random` policy's generator (other policies are
/// deterministic and ignore it); `max_weight` parameterizes
/// `WeightedPointer`'s exponential scoring and must be the database's
/// validated [`pgc_types::DbConfig::max_weight`] (1..=32).
pub fn build_policy(kind: PolicyKind, seed: u64, max_weight: u8) -> Box<dyn SelectionPolicy> {
    let scored = |signal| -> Box<dyn SelectionPolicy> { Box::new(Scoreboard::new(kind, signal)) };
    match kind {
        PolicyKind::NoCollection => Box::new(NoCollection::new()),
        PolicyKind::Random => Box::new(Random::new(seed)),
        PolicyKind::MutatedPartition => scored(Signal::PointerWrites),
        PolicyKind::UpdatedPointer => scored(Signal::Overwrites),
        PolicyKind::WeightedPointer => scored(Signal::WeightedOverwrites { max_weight }),
        PolicyKind::MostGarbage => Box::new(MostGarbage::new()),
        PolicyKind::RoundRobin => Box::new(RoundRobin::new()),
        PolicyKind::Occupancy => Box::new(Occupancy::new()),
        PolicyKind::YnyMutated => scored(Signal::Mutations),
        PolicyKind::Generational => Box::new(Generational::new()),
        PolicyKind::UpdatedDecay => scored(Signal::DecayedOverwrites),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_matching_kinds() {
        for kind in PolicyKind::ALL {
            let p = build_policy(kind, 7, 16);
            assert_eq!(p.kind(), kind);
            assert_eq!(p.name(), kind.name());
        }
    }
}
