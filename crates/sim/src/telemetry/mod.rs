//! Sampling-gated observability for the barrier event bus: the layer that
//! turns a run's event stream into per-activation evidence (which
//! partition was picked, what it reclaimed, what it cost in page I/O)
//! without perturbing the run.
//!
//! * [`histogram`] — [`Histogram`]: a plain fixed-bucket log2 histogram,
//!   the one metric type with structure (counters are `u64` fields of the
//!   snapshot).
//! * [`record`] — [`ActivationRecord`]: one structured record per
//!   collector activation, plus the trigger-reason vocabulary.
//! * `observer` — the [`pgc_odb::BarrierObserver`] bystander that records
//!   straight into the snapshot it will hand back, and the handle a
//!   [`crate::Shard`] keeps to extract it after the run.
//! * [`snapshot`] — [`TelemetrySnapshot`]: the in-memory sink (counters,
//!   run-level histograms, records), mergeable across seeds.
//! * [`fleet`] — [`FleetSnapshot`]: per-shard snapshots from a sharded
//!   runtime plus the deterministic fleet-wide merge.
//! * [`jsonl`] — the schema-versioned JSONL writer.
//!
//! The recorder is a pure bystander on the barrier event bus: it reads
//! the same stream every selection policy sees and touches nothing else,
//! so totals and victim sequences are bit-identical with telemetry off or
//! on — the simulator's test suite pins this, and the benchmark's
//! `telemetry.full_over_off` is what the enabled path costs.

pub mod fleet;
pub mod histogram;
pub mod jsonl;
mod observer;
pub mod record;
pub mod snapshot;

pub use fleet::{FleetSnapshot, ShardTelemetry};
pub use histogram::Histogram;
pub use jsonl::{record_line, write_snapshot, SCHEMA};
pub(crate) use observer::{TelemetryHandle, TelemetryObserver};
pub use record::{ActivationRecord, TriggerReason};
pub use snapshot::{CounterSnapshot, TelemetrySnapshot};

/// How much the telemetry layer records.
///
/// `Off` registers nothing on the bus — the disabled path is the exact
/// code path of a run without telemetry. `Metrics` maintains counters and
/// run-level histograms. `Full` additionally keeps one
/// [`ActivationRecord`] per collector activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TelemetryLevel {
    /// Record nothing; no observer rides the bus.
    #[default]
    Off,
    /// Counters and run-level histograms only.
    Metrics,
    /// Counters, histograms, and per-activation records.
    Full,
}

impl TelemetryLevel {
    /// True unless the level is [`TelemetryLevel::Off`].
    pub(crate) fn is_enabled(self) -> bool {
        self != TelemetryLevel::Off
    }
}
