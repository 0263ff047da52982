//! The physical storage model of the simulated object database, following
//! Sec. 4.1 of the paper: *"we chose to partition objects physically,
//! segmenting the address space into contiguous partitions"* of 8 KB pages.
//!
//! * `addr` — physical addresses `(partition, byte offset)` and the
//!   arithmetic mapping an object's byte extent to the global pages it
//!   occupies (what the buffer pool gets charged for).
//! * `partition` — one partition: a bump-allocated region of
//!   `partition_pages` pages with live-byte accounting. Holes left by dead
//!   objects are never reused in place; only copying collection compacts a
//!   partition, exactly as in the paper's copying design.
//! * `partition_set` — the set of all partitions, the near-parent
//!   allocation policy, database growth ("if there is insufficient free
//!   space anywhere, a new partition is added"), and the rotating designated
//!   empty partition the copying collector targets.
//! * `object_table` — the mapping from stable [`pgc_types::Oid`]s to
//!   [`ObjectRecord`]s (location, size, pointer slots, weight) plus dense
//!   per-partition membership sets.
//! * `slots` — an object's pointer slots, stored inside its record.

mod addr;
mod object_table;
mod partition;
mod partition_set;
mod slots;

pub use addr::{page_span, ObjAddr, PageSpan};
pub use object_table::{ObjectRecord, ObjectTable};
pub use partition::Partition;
pub use partition_set::{PartitionSet, Placement};
pub use slots::{Slot, Slots};
