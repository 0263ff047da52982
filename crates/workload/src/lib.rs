//! # pgc-workload
//!
//! The synthetic application of Sec. 5 of the paper and the trace
//! machinery that makes the evaluation *trace-driven*.
//!
//! * [`event`] — the application event vocabulary: create a tree root,
//!   create a child near its parent, store/overwrite/delete a pointer, add
//!   a dense-edge slot, visit an object, mutate its data. Events name
//!   objects by dense workload-level [`event::NodeId`]s; the simulator maps
//!   them to database `Oid`s at replay time.
//! * [`params`] — [`params::WorkloadParams`]: every knob of the paper's
//!   test database (object sizes U(50,150) plus 64 KB large leaves at ~20%
//!   of bytes, dense-edge fraction ≈ connectivity − 1, the 30/20/50
//!   traversal mix with 5% subtree pruning and 1% modify-on-visit, edge
//!   deletion pacing, allocation target).
//! * [`mirror`] — the generator's private model of the forest it has built
//!   (tree shape, attachment checks); the generator never queries the
//!   simulated database, so a recorded trace replays identically.
//! * [`generator`] — [`generator::SyntheticWorkload`], an
//!   `Iterator<Item = Event>` producing the interleaved
//!   build/traverse/mutate stream.
//! * [`codec`] — the one byte form of an event (narrow `u32` ids and
//!   sizes, a wide-tag `u64` fallback), shared by everything below and by
//!   the durable change log.
//! * [`encoded`] — the generate-once / replay-many engine:
//!   [`encoded::EncodedTrace`] (one workload's stream as a compact shared
//!   byte buffer plus header, and on disk the versioned PGCT trace file:
//!   `write_to` / `read_from`), [`encoded::TraceCursor`] (zero-allocation
//!   replay), and [`encoded::TraceCache`] (`Arc`-sharing cache keyed by
//!   [`params::WorkloadParams::digest`]) — what lets a multi-policy
//!   experiment pay the generator cost once per seed instead of once per
//!   `(policy, seed)` job.
//! * [`block`] — [`block::EventBlock`], a reusable struct-of-arrays batch
//!   that [`encoded::TraceCursor::next_block`] fills a run of events at a
//!   time, separating the decode pass from the apply pass in hot replay
//!   loops (zero allocation after warmup).
//! * [`assembly`] — a second application model, shaped like the OO7 design
//!   library the paper cites: assembly hierarchies over cyclic composite
//!   parts with large documents, churned by whole-composite replacement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assembly;
pub mod block;
pub mod codec;
pub mod encoded;
pub mod event;
pub mod generator;
pub mod mirror;
pub mod params;

pub use assembly::{AssemblyParams, AssemblyWorkload};
pub use block::{EventBlock, BLOCK_EVENTS};
pub use codec::encode_event;
pub use encoded::{EncodedTrace, TraceCache, TraceCursor, TraceSegment};
pub use event::{Event, NodeId};
pub use generator::SyntheticWorkload;
pub use params::WorkloadParams;
