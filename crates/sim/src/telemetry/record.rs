//! Per-activation structured records: the evidence trail behind the
//! paper's tables. One [`ActivationRecord`] is produced per collector
//! activation (trigger firing), capturing what was picked, why the
//! trigger fired, what the collection accomplished, and what it cost in
//! page I/O — attributed to that activation.

use pgc_types::{put_opt, Bytes, PartitionId, PgcError, Result, Words};

/// Why the GC trigger fires for a run — the telemetry-side mirror of the
/// scheduler's trigger configuration, carried so every JSONL line is
/// self-describing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerReason {
    /// Collection every N pointer overwrites (the paper's trigger).
    OverwriteCount(u64),
    /// Collection every N allocated bytes.
    AllocationBytes(u64),
    /// Collection whenever the partition set grows.
    PartitionGrowth,
}

impl TriggerReason {
    /// Compact token used in the JSONL schema (`overwrites:200`,
    /// `alloc-bytes:393216`, `partition-growth`).
    pub(crate) fn token(&self) -> String {
        match self {
            TriggerReason::OverwriteCount(n) => format!("overwrites:{n}"),
            TriggerReason::AllocationBytes(n) => format!("alloc-bytes:{n}"),
            TriggerReason::PartitionGrowth => "partition-growth".to_string(),
        }
    }
}

/// Everything telemetry knows about one collector activation.
///
/// Event-clock fields count *bus events observed by the telemetry tap*,
/// which is a deterministic logical clock: two runs of the same
/// configuration produce identical clocks.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationRecord {
    /// 1-based activation number (the scheduler's trigger count).
    pub activation: u64,
    /// Bus-event clock when the trigger ticked.
    pub event_clock: u64,
    /// Bus events since the previous activation's tick (inter-collection
    /// gap; for the first activation, since the start of the run).
    pub gap_events: u64,
    /// The partition the driving policy selected (`None` = it
    /// declined, e.g. `NoCollection`).
    pub victim: Option<PartitionId>,
    /// The driver's numeric score for that victim, if the policy exposes
    /// one (scoreboard policies do; `Random` and the oracle do not).
    pub victim_score: Option<f64>,
    /// Partition collections performed this activation (1, or 0 when the
    /// policy declined).
    pub collections: u32,
    /// Live objects copied out of the victim.
    pub live_objects: u64,
    /// Bytes copied.
    pub live_bytes: Bytes,
    /// Dead objects reclaimed.
    pub garbage_objects: u64,
    /// Bytes reclaimed.
    pub garbage_bytes: Bytes,
    /// Remembered inter-partition pointers forwarded.
    pub forwarded_pointers: u64,
    /// Collector page reads performed by this activation's collections.
    pub gc_reads: u64,
    /// Collector page writes performed by this activation's collections.
    pub gc_writes: u64,
    /// Cumulative application page I/O at the moment the trigger fired.
    pub app_ios_before: u64,
    /// Application page I/O in the mutator window leading up to this
    /// activation (since the previous trigger).
    pub app_ios_delta: u64,
}

impl ActivationRecord {
    /// A zeroed record opened at trigger time; the recorder fills it in as
    /// the activation's events stream past.
    pub(crate) fn open(activation: u64, event_clock: u64, gap_events: u64) -> Self {
        Self {
            activation,
            event_clock,
            gap_events,
            victim: None,
            victim_score: None,
            collections: 0,
            live_objects: 0,
            live_bytes: Bytes::ZERO,
            garbage_objects: 0,
            garbage_bytes: Bytes::ZERO,
            forwarded_pointers: 0,
            gc_reads: 0,
            gc_writes: 0,
            app_ios_before: 0,
            app_ios_delta: 0,
        }
    }

    /// Total collector page I/O attributed to this activation.
    pub(crate) fn gc_ios(&self) -> u64 {
        self.gc_reads + self.gc_writes
    }

    /// Appends every field, the score by its bit pattern.
    pub(crate) fn save(&self, out: &mut Vec<u64>) {
        out.extend([self.activation, self.event_clock, self.gap_events]);
        put_opt(out, self.victim.map(|p| u64::from(p.index())));
        put_opt(out, self.victim_score.map(f64::to_bits));
        out.extend([
            u64::from(self.collections),
            self.live_objects,
            self.live_bytes.get(),
            self.garbage_objects,
            self.garbage_bytes.get(),
            self.forwarded_pointers,
            self.gc_reads,
            self.gc_writes,
            self.app_ios_before,
            self.app_ios_delta,
        ]);
    }

    /// What [`ActivationRecord::save`] wrote.
    pub(crate) fn load(words: &mut Words<'_>) -> Result<Self> {
        let partition = |p: Option<u64>| {
            p.map(|p| u32::try_from(p).map(PartitionId))
                .transpose()
                .map_err(|_| PgcError::TraceFormat("run image: a partition out of range".into()))
        };
        let mut rec = Self::open(words.word()?, words.word()?, words.word()?);
        rec.victim = partition(words.opt()?)?;
        rec.victim_score = words.opt()?.map(f64::from_bits);
        rec.collections = words.word_u32()?;
        rec.live_objects = words.word()?;
        rec.live_bytes = Bytes(words.word()?);
        rec.garbage_objects = words.word()?;
        rec.garbage_bytes = Bytes(words.word()?);
        rec.forwarded_pointers = words.word()?;
        rec.gc_reads = words.word()?;
        rec.gc_writes = words.word()?;
        rec.app_ios_before = words.word()?;
        rec.app_ios_delta = words.word()?;
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_tokens_are_the_schema_vocabulary() {
        assert_eq!(TriggerReason::OverwriteCount(200).token(), "overwrites:200");
        assert_eq!(
            TriggerReason::AllocationBytes(393_216).token(),
            "alloc-bytes:393216"
        );
        assert_eq!(TriggerReason::PartitionGrowth.token(), "partition-growth");
    }

    #[test]
    fn open_record_is_zeroed() {
        let r = ActivationRecord::open(3, 1000, 400);
        assert_eq!(r.activation, 3);
        assert_eq!(r.event_clock, 1000);
        assert_eq!(r.gap_events, 400);
        assert_eq!(r.victim, None);
        assert_eq!(r.gc_ios(), 0);
    }
}
