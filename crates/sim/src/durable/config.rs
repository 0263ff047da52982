//! Durability knobs: what to persist, where, and how often to snapshot
//! and rotate.

use std::path::PathBuf;

/// What the durable store persists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityMode {
    /// Nothing touches disk (the historical in-memory behavior).
    Off,
    /// Append-only change log only: every input event is written ahead of
    /// being applied, so recovery replays the whole run from the log.
    LogOnly,
    /// Change log plus per-partition snapshot files at collection
    /// safepoints.
    SnapshotAndLog,
}

/// Configuration of the durable storage backend for one run (one data
/// directory per shard/stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// What to persist.
    pub(crate) mode: DurabilityMode,
    /// The data directory (created on first use; must not already hold a
    /// manifest from a previous run).
    pub(crate) dir: PathBuf,
    /// Write a snapshot generation every this many safepoints
    /// (`SnapshotAndLog` only; a final generation is always written at
    /// clean shutdown).
    pub(crate) snapshot_every: u64,
    /// Rotate to a new log segment once the current one reaches this many
    /// bytes (checked at safepoints).
    pub(crate) segment_bytes: u64,
}

impl DurabilityConfig {
    /// Durability disabled (the default): no directory is touched.
    pub fn off() -> Self {
        Self {
            mode: DurabilityMode::Off,
            dir: PathBuf::new(),
            snapshot_every: 16,
            segment_bytes: 4 << 20,
        }
    }

    /// Change log only, rooted at `dir`.
    pub fn log_only(dir: impl Into<PathBuf>) -> Self {
        Self {
            mode: DurabilityMode::LogOnly,
            dir: dir.into(),
            ..Self::off()
        }
    }

    /// Change log plus per-partition snapshots, rooted at `dir`.
    pub fn snapshot_and_log(dir: impl Into<PathBuf>) -> Self {
        Self {
            mode: DurabilityMode::SnapshotAndLog,
            dir: dir.into(),
            ..Self::off()
        }
    }

    /// Sets the snapshot cadence in safepoints (clamped ≥ 1).
    #[must_use]
    pub fn with_snapshot_every(mut self, safepoints: u64) -> Self {
        self.snapshot_every = safepoints.max(1);
        self
    }

    /// Sets the log segment rotation threshold in bytes (clamped ≥ 4 KiB).
    #[must_use]
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(4 << 10);
        self
    }

    /// True unless the mode is [`DurabilityMode::Off`].
    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        self.mode != DurabilityMode::Off
    }

    /// True when per-partition snapshots are written.
    #[inline]
    pub(crate) fn snapshots_enabled(&self) -> bool {
        self.mode == DurabilityMode::SnapshotAndLog
    }
}
