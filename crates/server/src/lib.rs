//! # pgc-server
//!
//! The sharded multi-tenant runtime: many client streams, each with its
//! own partitioned database and selection policy, hosted behind a
//! deterministic router on a fixed fleet of shard worker threads.
//!
//! * [`router`] — [`router::StreamId`] and the stateless [`router::Router`]
//!   hashing streams onto shards.
//! * [`session`] — the session layer: each shard worker owns a table of
//!   sessions (one [`pgc_sim::Shard`] per stream) fed by a bounded
//!   `sync_channel` (a slow shard blocks its producer instead of buffering
//!   the world), serves each batch of up to `inbox_capacity` messages
//!   stream by stream (every stream's messages in arrival order), and
//!   steps each submitted segment block-at-a-time through one reusable
//!   decode scratch.
//! * [`remset`] — cross-shard references as remset traffic over the
//!   existing barrier event bus: each session owns the [`remset::Links`]
//!   into its stream, so workers share nothing but their inboxes, and links
//!   are weak by design so they cannot perturb any session's collection
//!   decisions.
//! * [`server`] — [`server::Server`]: start, open streams, submit events
//!   as zero-copy [`pgc_workload::TraceSegment`]s, link across streams, and fold the
//!   fleet into a [`server::FleetOutcome`] at shutdown.
//! * [`ring`] — [`ring::RingInbox`], a stand-in FIFO the benchmark times;
//!   no shard uses it.
//!
//! # Determinism
//!
//! Per-stream results are **bit-identical at any shard count** and to a
//! dedicated single-`Simulation` run: a session is a self-contained
//! [`pgc_sim::Shard`] (the same unit `Simulation` drives), one server
//! handle feeds each stream its events in submission order and the worker
//! never reorders within a stream, and nothing a session observes depends
//! on placement. The router only decides *where*
//! a session executes; cross-shard links are weak accounting entries that
//! never feed back into collection. `tests/shard_equivalence.rs` at the
//! workspace root pins all of this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod remset;
pub mod ring;
pub mod router;
pub mod server;
pub mod session;

pub use remset::{LinkRecord, Links, RemsetBridge, RemsetStats};
pub use ring::RingInbox;
pub use router::{Router, StreamId};
pub use server::{FleetOutcome, Server, ServerConfig, StreamHandle, DEFAULT_INBOX_CAPACITY};
pub use session::ShardReport;
