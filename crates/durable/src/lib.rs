//! # pgc-durable
//!
//! The durable storage backend: what turns a purely in-memory shard into a
//! database that survives its process. Everything is hand-rolled and
//! dependency-free, following the checksummed/versioned per-partition file
//! layout of the pippin format.
//!
//! * [`config`] — [`config::DurabilityConfig`] /
//!   [`config::DurabilityMode`]: `Off` / `LogOnly` / `SnapshotAndLog`,
//!   plus snapshot cadence and log-segment sizing knobs.
//! * [`log`] — the append-only change log: segmented `log-*.pgcl` files of
//!   CRC-framed records. Event frames carry the workload's input events in
//!   the one event byte form (`pgc_workload::codec`, the layout of trace
//!   files and encoded traces too), so the log is a replayable trace and
//!   is read back as one; safepoint frames mark collection boundaries and
//!   snapshot generations. The reader
//!   tolerates a torn tail: a truncated or corrupted final frame is
//!   detected by length/checksum and dropped, never a crash — and reads
//!   from a restore point on ([`log::read_log_from`]) when that is all
//!   recovery replays.
//! * [`snapshot`] — one `snap-*.pgcs` file per generation taken at a
//!   collection safepoint: every partition's image back to back (versioned
//!   header, object records in member-list order: oid, offset, size,
//!   weight, pointer slots; CRC-32 footer per image), then a run image of
//!   the owner's state words. The owning thread serialises a generation in
//!   one pass; the store's background thread fsyncs the log, writes the
//!   file to a temp name, fsyncs it and renames it into place. One reader
//!   ([`snapshot::read_generation`]) takes a file in whole and decodes its
//!   records straight into the database's own form.
//! * [`manifest`] — a checksummed key=value `MANIFEST.pgc` recording how
//!   the run was configured, so recovery can rebuild the exact
//!   configuration without out-of-band knowledge.
//! * [`store`] — [`store::DurableStore`], the run-side handle: buffers
//!   events into block-sized frames (write-ahead, before they are
//!   applied), takes snapshot generations and writes safepoint frames at
//!   collection boundaries, rotates segments (the only fsync it waits for
//!   before shutdown), surfaces the background thread's errors, and
//!   reports [`store::StorageStats`].
//! * [`tempdir`] — [`tempdir::ScratchDir`], a self-cleaning temp
//!   directory for tests and benches (no external tempfile dependency).
//!
//! Recovery itself lives in `pgc-sim` (it needs `RunConfig`, the run
//! image's words and the `Replayer` pump); this crate supplies the file
//! formats and readers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub(crate) mod crc;
pub mod log;
pub mod manifest;
pub mod snapshot;
pub mod store;
pub mod tempdir;

pub use config::{DurabilityConfig, DurabilityMode};
pub use log::{read_log, read_log_from, LogContents, SafepointNote, TornTail};
pub use manifest::Manifest;
pub use snapshot::{capture_generation, read_generation, scan_snapshots, GenerationImage};
pub use store::{DurableStore, StorageStats};
pub use tempdir::ScratchDir;
