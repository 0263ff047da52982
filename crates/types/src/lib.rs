//! # pgc-types
//!
//! Foundation types shared by every crate in the `pgc` workspace: strongly
//! typed identifiers ([`Oid`], [`PartitionId`], [`PageId`], [`SlotId`]),
//! byte/page unit arithmetic ([`units`]), the simulation configuration
//! ([`DbConfig`]), error types, and a deterministic seeded random number
//! generator used everywhere randomness is needed so that experiments are
//! reproducible run-to-run.
//!
//! Nothing in this crate knows about objects, partitions-as-data-structures,
//! or garbage collection; it only provides the vocabulary the rest of the
//! system is written in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod config;
pub mod error;
pub mod fast_hash;
pub mod ids;
pub mod rng;
pub mod units;
pub mod words;

pub use bitset::DenseBitSet;
pub use config::{DbConfig, PlacementPolicy};
pub use error::{PgcError, Result};
pub use fast_hash::{fast_hash_u64, FastHashMap, FastHashSet, FxBuildHasher, FxHasher};
pub use ids::{Oid, PageId, PartitionId, PointerLoc, SlotId};
pub use rng::SimRng;
pub use units::{Bytes, PageCount, DEFAULT_PAGE_SIZE};
pub use words::{put_opt, Words};
