//! The recorder: a [`BarrierObserver`] bystander that turns the barrier
//! event stream into counters, histograms, and per-activation records.
//!
//! Construction hands back an observer/handle pair sharing one state cell:
//! the observer is registered on the collector's bus (which consumes it),
//! and the handle survives the run to extract the finished
//! [`TelemetrySnapshot`]. The observer only *reads* the stream every
//! registered policy already sees — it never mutates the database, selects
//! a victim, or charges I/O, which is what makes it non-perturbing (the
//! simulator's test suite pins totals and victim sequences bit-identical
//! with telemetry off and on).

use super::histogram::Histogram;
use super::record::{ActivationRecord, PolicySwitchNote, TriggerReason};
use super::snapshot::{CounterSnapshot, TelemetrySnapshot};
use super::TelemetryLevel;
use pgc_odb::{BarrierEvent, BarrierObserver, Database};
use pgc_types::{PgcError, Result, Words};
use std::cell::RefCell;
use std::rc::Rc;

struct TelemetryState {
    /// What [`TelemetryHandle::finish`] hands back, filled in place as
    /// the run goes. `counters.events` doubles as the deterministic
    /// logical clock: bus events observed so far.
    snapshot: TelemetrySnapshot,
    /// The record being built for the current activation (opened at
    /// `TriggerTick`, closed at the next tick or at end of run).
    open: Option<ActivationRecord>,
    last_tick_clock: u64,
    last_app_ios: u64,
}

impl TelemetryState {
    fn close_open(&mut self) {
        let Some(rec) = self.open.take() else {
            return;
        };
        let snap = &mut self.snapshot;
        snap.reclaimed_per_activation
            .record(rec.garbage_bytes.get());
        snap.gc_io_per_activation.record(rec.gc_ios());
        snap.activation_gap_events.record(rec.gap_events);
        if snap.level == TelemetryLevel::Full {
            snap.records.push(rec);
        }
    }
}

/// The bus-riding recorder half of a telemetry pair.
pub(crate) struct TelemetryObserver {
    state: Rc<RefCell<TelemetryState>>,
}

/// The surviving half: extracts the snapshot after the run.
pub(crate) struct TelemetryHandle {
    state: Rc<RefCell<TelemetryState>>,
}

impl TelemetryObserver {
    /// Creates an observer/handle pair recording at `level` under the
    /// given trigger configuration. Register the observer on the
    /// collector's bus; call [`TelemetryHandle::finish`] when the run
    /// ends.
    pub(crate) fn new(level: TelemetryLevel, trigger: TriggerReason) -> (Self, TelemetryHandle) {
        let mut snapshot = TelemetrySnapshot::empty(level, trigger);
        snapshot.runs = 1;
        let state = Rc::new(RefCell::new(TelemetryState {
            snapshot,
            open: None,
            last_tick_clock: 0,
            last_app_ios: 0,
        }));
        (
            Self {
                state: Rc::clone(&state),
            },
            TelemetryHandle { state },
        )
    }
}

impl BarrierObserver for TelemetryObserver {
    fn on_event(&mut self, event: &BarrierEvent) {
        let s = &mut *self.state.borrow_mut();
        let c = &mut s.snapshot.counters;
        // Saturating where a loaded run image has no bound to be held to
        // (see `CounterSnapshot::load`).
        c.events = c.events.saturating_add(1);
        match *event {
            BarrierEvent::PointerWrite(info) => {
                c.pointer_writes += 1;
                if info.is_overwrite() {
                    c.overwrites += 1;
                }
            }
            BarrierEvent::DataWrite { .. } => c.data_writes += 1,
            BarrierEvent::Allocation { size, .. } => {
                c.allocations += 1;
                c.allocated_bytes = c.allocated_bytes.saturating_add(size.get());
            }
            BarrierEvent::PartitionGrowth { partitions } => {
                c.partition_growths += 1;
                c.max_partitions = c.max_partitions.max(partitions as u64);
            }
            BarrierEvent::ObjectCopied { size, .. } => {
                c.objects_copied = c.objects_copied.saturating_add(1);
                c.copied_bytes = c.copied_bytes.saturating_add(size.get());
            }
            BarrierEvent::ObjectReclaimed { size, .. } => {
                c.objects_reclaimed = c.objects_reclaimed.saturating_add(1);
                c.reclaimed_bytes = c.reclaimed_bytes.saturating_add(size.get());
            }
            BarrierEvent::VictimSelected { victim, score_bits } => {
                if let Some(open) = s.open.as_mut() {
                    open.victim = Some(victim);
                    open.victim_score = score_bits.map(f64::from_bits);
                }
            }
            BarrierEvent::CollectionCompleted(outcome) => {
                c.collections += 1;
                if let Some(open) = s.open.as_mut() {
                    open.collections += 1;
                    for (sum, add) in [
                        (&mut open.live_objects, outcome.live_objects),
                        (&mut open.garbage_objects, outcome.garbage_objects),
                        (&mut open.forwarded_pointers, outcome.forwarded_pointers),
                        (&mut open.gc_reads, outcome.gc_reads),
                        (&mut open.gc_writes, outcome.gc_writes),
                    ] {
                        *sum = sum.saturating_add(add);
                    }
                    open.live_bytes = open.live_bytes.saturating_add(outcome.live_bytes);
                    open.garbage_bytes = open.garbage_bytes.saturating_add(outcome.garbage_bytes);
                }
            }
            BarrierEvent::TriggerTick { activation } => {
                c.activations += 1;
                let clock = c.events;
                s.close_open();
                s.open = Some(ActivationRecord::open(
                    activation,
                    clock,
                    clock - s.last_tick_clock,
                ));
                s.last_tick_clock = clock;
            }
            BarrierEvent::PolicySwitched {
                activation,
                from,
                to,
            } => {
                c.policy_switches += 1;
                let note = PolicySwitchNote {
                    activation,
                    from: from.to_string(),
                    to: to.to_string(),
                };
                if let Some(open) = s.open.as_mut() {
                    open.policy_switches.push(note.clone());
                }
                s.snapshot.switches.push(note);
            }
        }
    }

    fn on_trigger(&mut self, db: &Database) {
        let s = &mut *self.state.borrow_mut();
        let app = db.io_stats().app_ios();
        let delta = app - s.last_app_ios;
        s.last_app_ios = app;
        let c = &mut s.snapshot.counters;
        c.max_partitions = c.max_partitions.max(db.partition_count() as u64);
        if let Some(open) = s.open.as_mut() {
            open.app_ios_before = app;
            open.app_ios_delta = delta;
        }
    }
}

impl TelemetryHandle {
    /// Appends what the recorder has accumulated — counters, histograms,
    /// closed records and switches, the open record, and the two clocks —
    /// for a snapshot's run image. Level and trigger are configuration.
    pub(crate) fn save(&self, out: &mut Vec<u64>) {
        let s = self.state.borrow();
        let snap = &s.snapshot;
        snap.counters.save(out);
        for h in [
            &snap.reclaimed_per_activation,
            &snap.gc_io_per_activation,
            &snap.activation_gap_events,
        ] {
            h.save(out);
        }
        out.push(snap.records.len() as u64);
        for rec in &snap.records {
            rec.save(out);
        }
        out.push(snap.switches.len() as u64);
        for note in &snap.switches {
            note.save(out);
        }
        out.push(u64::from(s.open.is_some()));
        if let Some(open) = &s.open {
            open.save(out);
        }
        out.extend([s.last_tick_clock, s.last_app_ios]);
    }

    /// Resumes the recorder at what [`TelemetryHandle::save`] wrote, riding
    /// `db` after a run of `events` events. A count one event adds at most
    /// one to may not exceed `events`, and neither clock may run ahead of
    /// what it trails: the bus clock, the database's application I/O.
    pub(crate) fn load(&self, words: &mut Words<'_>, db: &Database, events: u64) -> Result<()> {
        let s = &mut *self.state.borrow_mut();
        let snap = &mut s.snapshot;
        snap.counters = CounterSnapshot::load(words, events)?;
        snap.reclaimed_per_activation = Histogram::load(words, events)?;
        snap.gc_io_per_activation = Histogram::load(words, events)?;
        snap.activation_gap_events = Histogram::load(words, events)?;
        snap.records = (0..words.count()?)
            .map(|_| ActivationRecord::load(words))
            .collect::<Result<_>>()?;
        snap.switches = (0..words.count()?)
            .map(|_| PolicySwitchNote::load(words))
            .collect::<Result<_>>()?;
        s.open = if words.flag()? {
            Some(ActivationRecord::load(words)?)
        } else {
            None
        };
        s.last_tick_clock = words.at_most(s.snapshot.counters.events)?;
        s.last_app_ios = words.at_most(db.io_stats().app_ios())?;
        if s.open
            .as_ref()
            .is_some_and(|o| u64::from(o.collections) > events)
        {
            return Err(PgcError::TraceFormat(
                "run image: an open record past the events".into(),
            ));
        }
        Ok(())
    }

    /// Closes any in-flight activation record and returns the finished
    /// snapshot. Call after the run, once the observer has been dropped
    /// with the collector. If the observer is somehow still alive (a
    /// mid-run peek), the snapshot is taken as-is with the in-flight
    /// activation still open and excluded.
    pub(crate) fn finish(self) -> TelemetrySnapshot {
        match Rc::try_unwrap(self.state) {
            Ok(cell) => {
                let mut state = cell.into_inner();
                state.close_open();
                state.snapshot
            }
            Err(rc) => rc.borrow().snapshot.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_odb::CollectionOutcome;
    use pgc_types::{Bytes, Oid, PartitionId};

    fn tick(n: u64) -> BarrierEvent {
        BarrierEvent::TriggerTick { activation: n }
    }

    fn completed(garbage: u64) -> BarrierEvent {
        BarrierEvent::CollectionCompleted(CollectionOutcome {
            victim: PartitionId(1),
            target: PartitionId(0),
            live_objects: 2,
            live_bytes: Bytes(200),
            garbage_objects: 3,
            garbage_bytes: Bytes(garbage),
            forwarded_pointers: 1,
            gc_reads: 4,
            gc_writes: 5,
        })
    }

    #[test]
    fn records_one_activation_per_tick() {
        let (mut obs, handle) =
            TelemetryObserver::new(TelemetryLevel::Full, TriggerReason::OverwriteCount(50));
        obs.on_event(&BarrierEvent::Allocation {
            oid: Oid(1),
            partition: PartitionId(1),
            size: Bytes(100),
            grew: false,
        });
        obs.on_event(&tick(1));
        obs.on_event(&BarrierEvent::VictimSelected {
            victim: PartitionId(1),
            score_bits: Some(7.0f64.to_bits()),
        });
        obs.on_event(&completed(500));
        obs.on_event(&tick(2));
        obs.on_event(&BarrierEvent::VictimSelected {
            victim: PartitionId(2),
            score_bits: None,
        });
        obs.on_event(&completed(900));
        drop(obs);
        let snap = handle.finish();
        assert_eq!(snap.counters.activations, 2);
        assert_eq!(snap.counters.collections, 2);
        assert_eq!(snap.counters.allocations, 1);
        assert_eq!(snap.records.len(), 2, "finish closes the open record");
        let first = &snap.records[0];
        assert_eq!(first.activation, 1);
        assert_eq!(first.victim, Some(PartitionId(1)));
        assert_eq!(first.victim_score, Some(7.0));
        assert_eq!(first.garbage_bytes, Bytes(500));
        assert_eq!(first.gc_ios(), 9);
        let second = &snap.records[1];
        assert_eq!(second.victim, Some(PartitionId(2)));
        assert_eq!(second.victim_score, None);
        assert_eq!(snap.reclaimed_per_activation.count, 2);
        assert_eq!(snap.reclaimed_per_activation.sum, 1400);
    }

    #[test]
    fn a_loaded_recorder_finishes_as_the_saved_one_would() {
        let first = [
            tick(1),
            completed(500),
            BarrierEvent::PolicySwitched {
                activation: 1,
                from: "UpdatedPointer",
                to: "Occupancy",
            },
            tick(2),
            BarrierEvent::VictimSelected {
                victim: PartitionId(3),
                score_bits: Some(2.5f64.to_bits()),
            },
        ];
        let rest = [completed(900), tick(3), completed(0)];
        let pair =
            || TelemetryObserver::new(TelemetryLevel::Full, TriggerReason::OverwriteCount(5));
        let (mut live, live_handle) = pair();
        first.iter().for_each(|e| live.on_event(e));
        let mut saved = Vec::new();
        live_handle.save(&mut saved);
        rest.iter().for_each(|e| live.on_event(e));
        drop(live);

        let (mut resumed, resumed_handle) = pair();
        let mut words = Words::new(&saved);
        resumed_handle.load(&mut words, &db(), 100).unwrap();
        words.finish().unwrap();
        rest.iter().for_each(|e| resumed.on_event(e));
        drop(resumed);
        let (live, resumed) = (live_handle.finish(), resumed_handle.finish());
        assert_eq!(resumed, live);
        assert_eq!(resumed.records[1].victim_score, Some(2.5));
        assert!(resumed_handle_is_refused(&saved[..saved.len() - 1]));
    }

    fn resumed_handle_is_refused(words: &[u64]) -> bool {
        let (_, handle) =
            TelemetryObserver::new(TelemetryLevel::Full, TriggerReason::PartitionGrowth);
        let mut words = Words::new(words);
        handle
            .load(&mut words, &db(), 100)
            .and_then(|()| words.finish())
            .is_err()
    }

    /// A database with no I/O behind it, which the recorder rides in the
    /// load tests (no record here saw any).
    fn db() -> Database {
        Database::new(pgc_types::DbConfig::default()).unwrap()
    }

    #[test]
    fn metrics_level_keeps_histograms_but_no_records() {
        let (mut obs, handle) =
            TelemetryObserver::new(TelemetryLevel::Metrics, TriggerReason::PartitionGrowth);
        obs.on_event(&tick(1));
        obs.on_event(&completed(100));
        drop(obs);
        let snap = handle.finish();
        assert_eq!(snap.counters.activations, 1);
        assert!(snap.records.is_empty());
        assert_eq!(snap.reclaimed_per_activation.count, 1);
    }

    #[test]
    fn policy_switches_land_on_the_open_record_and_the_run_trace() {
        let (mut obs, handle) =
            TelemetryObserver::new(TelemetryLevel::Full, TriggerReason::OverwriteCount(50));
        obs.on_event(&tick(1));
        obs.on_event(&completed(100));
        obs.on_event(&BarrierEvent::PolicySwitched {
            activation: 1,
            from: "UpdatedPointer",
            to: "Occupancy",
        });
        obs.on_event(&tick(2));
        obs.on_event(&completed(200));
        drop(obs);
        let snap = handle.finish();
        assert_eq!(snap.counters.policy_switches, 1);
        assert_eq!(snap.switches.len(), 1);
        assert_eq!(snap.switches[0].activation, 1);
        assert_eq!(snap.switches[0].from, "UpdatedPointer");
        assert_eq!(snap.switches[0].to, "Occupancy");
        assert_eq!(snap.records[0].policy_switches.len(), 1);
        assert!(snap.records[1].policy_switches.is_empty());
    }
}
