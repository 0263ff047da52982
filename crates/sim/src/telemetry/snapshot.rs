//! The in-memory sink: everything one run's telemetry tap observed,
//! condensed to plain data that can ride on a `RunOutcome`, merge across
//! seeds, or serialize to JSONL.

use super::histogram::Histogram;
use super::record::{ActivationRecord, TriggerReason};
use super::TelemetryLevel;
use pgc_types::{Result, Words};

/// Plain-data totals of every bus-event counter the tap maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Bus events observed (the telemetry event clock at end of run).
    pub events: u64,
    /// Pointer stores through the write barrier.
    pub pointer_writes: u64,
    /// Pointer stores that overwrote an existing pointer (the paper's
    /// trigger signal).
    pub overwrites: u64,
    /// Non-pointer mutations.
    pub data_writes: u64,
    /// Object allocations.
    pub allocations: u64,
    /// Bytes allocated.
    pub allocated_bytes: u64,
    /// Times the partition set grew.
    pub partition_growths: u64,
    /// Live objects evacuated by collections.
    pub objects_copied: u64,
    /// Bytes evacuated.
    pub copied_bytes: u64,
    /// Dead objects reclaimed.
    pub objects_reclaimed: u64,
    /// Bytes reclaimed.
    pub reclaimed_bytes: u64,
    /// Partition collections completed.
    pub collections: u64,
    /// Trigger activations.
    pub activations: u64,
    /// Largest partition count observed at any activation.
    pub max_partitions: u64,
}

impl CounterSnapshot {
    /// The counters in declaration order — what `save` writes and `load`
    /// reads — each with whether one event adds at most one to it. The bus
    /// clock, the byte sums, copies and reclaims have no such bound and
    /// saturate as they are counted.
    fn fields(&mut self) -> [(&mut u64, bool); 14] {
        [
            (&mut self.events, false),
            (&mut self.pointer_writes, true),
            (&mut self.overwrites, true),
            (&mut self.data_writes, true),
            (&mut self.allocations, true),
            (&mut self.allocated_bytes, false),
            (&mut self.partition_growths, true),
            (&mut self.objects_copied, false),
            (&mut self.copied_bytes, false),
            (&mut self.objects_reclaimed, false),
            (&mut self.reclaimed_bytes, false),
            (&mut self.collections, true),
            (&mut self.activations, true),
            (&mut self.max_partitions, false),
        ]
    }

    /// Appends every counter.
    pub(crate) fn save(&self, out: &mut Vec<u64>) {
        let mut copy = *self;
        out.extend(copy.fields().map(|(v, _)| *v));
    }

    /// What [`CounterSnapshot::save`] wrote after a run of `events`
    /// events, which bound every count an event adds at most one to.
    pub(crate) fn load(words: &mut Words<'_>, events: u64) -> Result<Self> {
        let mut counters = Self::default();
        for (field, per_event) in counters.fields() {
            *field = if per_event {
                words.at_most(events)?
            } else {
                words.word()?
            };
        }
        Ok(counters)
    }

    /// Adds another run's counters into this one.
    pub(crate) fn merge(&mut self, other: &CounterSnapshot) {
        self.events += other.events;
        self.pointer_writes += other.pointer_writes;
        self.overwrites += other.overwrites;
        self.data_writes += other.data_writes;
        self.allocations += other.allocations;
        self.allocated_bytes += other.allocated_bytes;
        self.partition_growths += other.partition_growths;
        self.objects_copied += other.objects_copied;
        self.copied_bytes += other.copied_bytes;
        self.objects_reclaimed += other.objects_reclaimed;
        self.reclaimed_bytes += other.reclaimed_bytes;
        self.collections += other.collections;
        self.activations += other.activations;
        self.max_partitions = self.max_partitions.max(other.max_partitions);
    }
}

/// Everything telemetry captured for one run (or, after [`merge`], for a
/// set of same-configuration runs).
///
/// [`merge`]: TelemetrySnapshot::merge
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// The level the run recorded at.
    pub level: TelemetryLevel,
    /// The trigger configuration the run collected under.
    pub trigger: TriggerReason,
    /// Number of runs folded into this snapshot (1 until merged).
    pub runs: u32,
    /// Whole-run bus-event counters.
    pub counters: CounterSnapshot,
    /// Bytes reclaimed per activation.
    pub reclaimed_per_activation: Histogram,
    /// Collector page I/O per activation.
    pub gc_io_per_activation: Histogram,
    /// Bus events between consecutive activations.
    pub activation_gap_events: Histogram,
    /// One record per activation, in order ([`TelemetryLevel::Full`] only;
    /// empty at `Metrics` level and after a merge).
    pub records: Vec<ActivationRecord>,
}

impl TelemetrySnapshot {
    /// An empty snapshot (useful as a merge accumulator).
    pub(crate) fn empty(level: TelemetryLevel, trigger: TriggerReason) -> Self {
        Self {
            level,
            trigger,
            runs: 0,
            counters: CounterSnapshot::default(),
            reclaimed_per_activation: Histogram::default(),
            gc_io_per_activation: Histogram::default(),
            activation_gap_events: Histogram::default(),
            records: Vec::new(),
        }
    }

    /// Folds another run's snapshot into this aggregate: counters add,
    /// histograms merge bucket-wise, `runs` accumulates. Per-activation
    /// records do not concatenate meaningfully across runs, so the merged
    /// snapshot drops them.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.runs += other.runs;
        self.counters.merge(&other.counters);
        self.reclaimed_per_activation
            .merge(&other.reclaimed_per_activation);
        self.gc_io_per_activation.merge(&other.gc_io_per_activation);
        self.activation_gap_events
            .merge(&other.activation_gap_events);
        self.records.clear();
    }

    /// Mean activations per merged run.
    pub(crate) fn activations_per_run(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.counters.activations as f64 / self.runs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(activations: u64) -> TelemetrySnapshot {
        let mut s =
            TelemetrySnapshot::empty(TelemetryLevel::Metrics, TriggerReason::OverwriteCount(200));
        s.runs = 1;
        s.counters.activations = activations;
        s.counters.events = 100 * activations;
        for i in 0..activations {
            s.reclaimed_per_activation.record(1024 * (i + 1));
        }
        s
    }

    #[test]
    fn merge_accumulates_counters_and_drops_records() {
        let mut a = sample(3);
        a.records
            .push(crate::telemetry::record::ActivationRecord::open(1, 10, 10));
        let b = sample(5);
        a.merge(&b);
        assert_eq!(a.runs, 2);
        assert_eq!(a.counters.activations, 8);
        assert_eq!(a.counters.events, 800);
        assert_eq!(a.reclaimed_per_activation.count, 8);
        assert!(a.records.is_empty(), "records drop on merge");
        assert!((a.activations_per_run() - 4.0).abs() < 1e-12);
    }
}
