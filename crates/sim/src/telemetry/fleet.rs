//! Fleet-wide telemetry: per-shard snapshots plus a deterministic merge.
//!
//! A sharded runtime hosts many sessions (each with its own database,
//! collector, and telemetry tap) spread over several shard workers. Each
//! worker folds its sessions' [`TelemetrySnapshot`]s into one per-shard
//! snapshot; the [`FleetSnapshot`] collects those and exposes the
//! fleet-wide merge. Shards are kept in ascending shard-id order and the
//! merge folds them in that order, so the aggregate is independent of the
//! wall-clock order workers finished in — the fleet numbers for the same
//! sessions are bit-identical at any shard count.

use super::snapshot::TelemetrySnapshot;

/// One shard's telemetry contribution to a fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTelemetry {
    /// The shard's index in the server's shard array.
    pub shard: usize,
    /// Client streams whose sessions the shard hosted.
    pub streams: u32,
    /// The largest batch the shard's worker drained from its inbox, in
    /// messages: at most the inbox capacity, which it reaches when the
    /// producer ran a full inbox ahead of the worker.
    pub ring_high_water: u64,
    /// The shard's snapshot: every hosted session folded together (so
    /// `snapshot.runs` counts sessions, and per-activation records are
    /// already dropped by [`TelemetrySnapshot::merge`]).
    pub snapshot: TelemetrySnapshot,
}

/// Per-shard telemetry snapshots and their fleet-wide merge.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetSnapshot {
    shards: Vec<ShardTelemetry>,
}

impl FleetSnapshot {
    /// An empty fleet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one shard's merged snapshot, keeping the fleet ordered by
    /// ascending shard id regardless of insertion order.
    pub fn add_shard(
        &mut self,
        shard: usize,
        streams: u32,
        ring_high_water: u64,
        snapshot: TelemetrySnapshot,
    ) {
        let entry = ShardTelemetry {
            shard,
            streams,
            ring_high_water,
            snapshot,
        };
        let at = self.shards.partition_point(|s| s.shard < shard);
        self.shards.insert(at, entry);
    }

    /// The per-shard snapshots, in ascending shard-id order.
    pub fn shards(&self) -> &[ShardTelemetry] {
        &self.shards
    }

    /// Total client streams across the fleet.
    pub fn streams(&self) -> u32 {
        self.shards.iter().map(|s| s.streams).sum()
    }

    /// The fleet-wide aggregate: every shard's snapshot folded together in
    /// ascending shard-id order (`None` for an empty fleet). Counters add,
    /// histograms merge bucket-wise, and `runs` counts sessions across the
    /// whole fleet.
    pub fn merged(&self) -> Option<TelemetrySnapshot> {
        let mut iter = self.shards.iter();
        let mut out = iter.next()?.snapshot.clone();
        for s in iter {
            out.merge(&s.snapshot);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::record::TriggerReason;
    use crate::telemetry::TelemetryLevel;

    fn shard_snapshot(activations: u64) -> TelemetrySnapshot {
        let mut s =
            TelemetrySnapshot::empty(TelemetryLevel::Metrics, TriggerReason::OverwriteCount(50));
        s.runs = 1;
        s.counters.activations = activations;
        s.counters.events = 10 * activations;
        s
    }

    #[test]
    fn merge_is_insertion_order_independent() {
        let mut a = FleetSnapshot::new();
        a.add_shard(0, 2, 7, shard_snapshot(3));
        a.add_shard(1, 1, 4, shard_snapshot(5));

        let mut b = FleetSnapshot::new();
        b.add_shard(1, 1, 4, shard_snapshot(5));
        b.add_shard(0, 2, 7, shard_snapshot(3));

        assert_eq!(a, b, "shards sort by id regardless of arrival order");
        assert_eq!(a.streams(), 3);
        assert_eq!(a.shards()[0].ring_high_water, 7);
        assert_eq!(a.shards()[1].ring_high_water, 4);
        let merged = a.merged().expect("non-empty fleet");
        assert_eq!(merged, b.merged().unwrap());
        assert_eq!(merged.runs, 2);
        assert_eq!(merged.counters.activations, 8);
        assert_eq!(merged.counters.events, 80);
    }

    #[test]
    fn empty_fleet_has_no_merge() {
        let fleet = FleetSnapshot::new();
        assert!(fleet.shards.is_empty());
        assert_eq!(fleet.streams(), 0);
        assert!(fleet.merged().is_none());
    }
}
