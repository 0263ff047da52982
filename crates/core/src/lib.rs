//! # pgc-core
//!
//! The paper's contribution: **partition selection policies** for
//! partitioned garbage collection of object databases, plus the trigger
//! machinery that decides *when* to collect.
//!
//! * [`policy`] — the [`SelectionPolicy`] trait: every honest policy is a
//!   [`pgc_odb::BarrierObserver`] over the typed [`pgc_odb::BarrierEvent`]
//!   stream (what a policy may observe) that must produce a victim
//!   partition on demand; plus [`PolicyKind`], the enumeration of every
//!   implemented policy.
//! * [`policies`] — the six policies evaluated in the paper
//!   (`NoCollection`, `Random`, `MutatedPartition`, `UpdatedPointer`,
//!   `WeightedPointer`, `MostGarbage`), extensions used for ablations
//!   (`RoundRobin`, `Occupancy`, `YnyMutated`, `Generational`,
//!   `UpdatedDecay`, `Composite`), and the `AdaptiveMeta` meta-policy
//!   that races them. The six counter policies share one representation:
//!   a per-partition score table bumped from bus events and ranked by one
//!   pass when the trigger fires.
//! * [`scheduler`] — the paper's trigger: collect after a fixed number of
//!   pointer overwrites, independent of the selection policy so that every
//!   policy performs the same number of collections.
//! * [`collector`] — [`collector::Collector`], the pump that drains the
//!   database's event log to the policy, the scheduler, and any registered
//!   bystander observers (shadow scoreboards), and drives
//!   [`pgc_odb::Database::collect_partition`] when the trigger fires.
//!
//! The copying *mechanism* itself lives in `pgc-odb` (it is shared, fixed
//! machinery); this crate decides **which** partition it runs on and
//! **when**.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
pub mod policies;
pub mod policy;
pub mod scheduler;

pub use collector::Collector;
pub use policies::build_policy;
pub use policy::{PolicyKind, PolicySwitch, SelectionPolicy};
pub use scheduler::{GcScheduler, Trigger};
