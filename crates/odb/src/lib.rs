//! # pgc-odb
//!
//! The simulated object database and the collectors that run against it:
//! one crate, as the paper's simulator is one program in which partitions,
//! the object table, the I/O buffer, the collector and its selection policy
//! are parts of one database (Sec. 4.1-4.2).
//!
//! * [`storage`] — the physical model: pages, contiguous partitions, bump
//!   allocation with near-parent placement, and the object table.
//! * [`buffer`] — the I/O cost model: the LRU write-back page buffer every
//!   object access is charged through, counting application and collector
//!   disk operations apart.
//! * [`db`] — the [`Database`] facade: state ownership, read-only views,
//!   and access to the barrier event log.
//! * [`engine`] — the mutation engine behind the facade: object creation
//!   with near-parent placement, pointer stores through the **write
//!   barrier**, visits and data writes, all charged page I/O through the
//!   buffer pool and all reported on the event bus.
//! * [`events`] — the typed **barrier event bus**: the [`BarrierEvent`]
//!   enum (every signal an implementable policy may observe), the
//!   [`BarrierObserver`] trait, and the `ObserverRegistry` that
//!   delivers drained events to any number of taps.
//! * [`remset`] — remembered sets (locations of inter-partition pointers
//!   *into* each partition) and out-of-partition sets (objects *with*
//!   pointers out of each partition), maintained exactly at the write
//!   barrier and cleaned when garbage sources are reclaimed.
//! * [`weights`] — per-object 4-bit root-distance weights for the
//!   `WeightedPointer` policy (1 at a root, `min+1` along edges, capped,
//!   propagated transitively on decrease).
//! * [`collect`] — the breadth-first **copying collection** of one
//!   partition into the designated empty partition, with remembered-set
//!   forwarding and cleanup; this is the fixed mechanism every selection
//!   policy shares. Its **extension** (the paper's future work) is the
//!   complete collection: a global mark, then the same mechanism on every
//!   partition, reclaiming the distributed cyclic garbage single-partition
//!   collections cannot.
//! * [`policy`] — the paper's contribution: the [`SelectionPolicy`] trait,
//!   every honest policy a [`BarrierObserver`] over the typed
//!   [`BarrierEvent`] stream that must produce a victim partition on
//!   demand, and [`PolicyKind`], the enumeration of every implemented
//!   policy.
//! * [`policies`] — the six policies evaluated in the paper
//!   (`NoCollection`, `Random`, `MutatedPartition`, `UpdatedPointer`,
//!   `WeightedPointer`, `MostGarbage`), extensions used for ablations
//!   (`RoundRobin`, `Occupancy`, `YnyMutated`, `Generational`,
//!   `UpdatedDecay`). The five counter policies share one representation:
//!   a per-partition score table bumped from bus events and ranked by one
//!   pass when the trigger fires.
//! * [`scheduler`] — the paper's trigger: collect after a fixed number of
//!   pointer overwrites, independent of the selection policy so that every
//!   policy performs the same number of collections.
//! * [`collector`] — [`Collector`], the pump that drains the event log to
//!   the policy, the scheduler, and any registered bystander observers
//!   (the telemetry tap), and drives [`Database::collect_partition`] when
//!   the trigger fires: the policy decides **which** partition the copying
//!   mechanism of [`collect`] runs on, the scheduler **when**.
//! * [`oracle`] — exact reachability analysis over the whole database,
//!   backing the `MostGarbage` policy and the "actual garbage" rows of the
//!   evaluation; its mark is also the complete collection's. The oracle is
//!   free (no I/O): it models the simulator's omniscience, not an
//!   implementable system.
//! * [`stats`] — database counters and the [`PointerWriteInfo`] record the
//!   write barrier emits for the selection policies to observe.
//! * [`restore`] — what a snapshot generation needs beyond the object
//!   records ([`Database::save_state`]), and the database rebuilt from
//!   both ([`Database::restore`]), remembered sets derived from the slots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod collect;
pub mod collector;
pub mod db;
pub mod engine;
pub mod events;
pub mod oracle;
pub mod policies;
pub mod policy;
pub mod remset;
pub mod restore;
pub mod scheduler;
pub mod stats;
pub mod storage;
pub mod weights;

pub use collect::{CollectionOutcome, FullCollectionOutcome};
pub use collector::Collector;
pub use db::{Database, PartitionProfile};
pub use events::{BarrierEvent, BarrierObserver};
pub use oracle::OracleReport;
pub use policies::build_policy;
pub use policy::{PolicyKind, SelectionPolicy};
pub use scheduler::Trigger;
pub use stats::{DbStats, PointerTarget, PointerWriteInfo};
