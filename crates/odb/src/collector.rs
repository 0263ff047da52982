//! The policy + scheduler bundle that pumps the barrier event bus.
//!
//! [`Collector`] is what a simulation (or an embedding application) holds:
//! it drains the [`Database`]'s event log and broadcasts every
//! [`BarrierEvent`] to the selection policy, to any registered bystander
//! observers, and to the trigger scheduler. When the trigger fires it asks
//! the policy for a victim, runs the copying collection, and pumps the
//! resulting collection events back through the same bus so every listener
//! sees one consistent stream.

use crate::events::ObserverRegistry;
use crate::scheduler::GcScheduler;
use crate::{
    build_policy, BarrierEvent, BarrierObserver, CollectionOutcome, Database, PolicyKind,
    SelectionPolicy, Trigger,
};
use pgc_types::{Result, Words};

/// A complete partitioned garbage collector: selection policy + trigger.
///
/// ```
/// use pgc_odb::{Collector, Database, PolicyKind};
/// use pgc_types::{Bytes, DbConfig, SlotId};
///
/// let mut db = Database::new(DbConfig::default()).unwrap();
/// let mut gc = Collector::with_kind(PolicyKind::UpdatedPointer, 1, 0, 16);
///
/// let root = db.create_root(Bytes(100), 1).unwrap();
/// db.create_object(Bytes(100), 1, root, SlotId(0)).unwrap();
/// assert!(!gc.sync(&mut db), "creation stores are no overwrites");
///
/// db.write_slot(root, SlotId(0), None).unwrap(); // the overwrite
/// assert!(gc.sync(&mut db), "threshold 1: due immediately");
/// let outcome = gc.maybe_collect(&mut db).unwrap().unwrap();
/// assert_eq!(outcome.garbage_objects, 1);
/// ```
pub struct Collector {
    policy: Box<dyn SelectionPolicy>,
    scheduler: GcScheduler,
    /// Bystanders on the bus: the telemetry tap, tracers, invariant checks.
    /// They see the same stream as the policy but never pick the victim.
    observers: ObserverRegistry,
}

impl Collector {
    /// Creates a collector with the given policy instance and the paper's
    /// overwrite-count trigger.
    pub(crate) fn new(policy: Box<dyn SelectionPolicy>, overwrite_threshold: u64) -> Self {
        Self {
            policy,
            scheduler: GcScheduler::new(overwrite_threshold),
            observers: ObserverRegistry::new(),
        }
    }

    /// Creates a collector with an explicit trigger.
    pub fn with_trigger(policy: Box<dyn SelectionPolicy>, trigger: Trigger) -> Self {
        Self {
            policy,
            scheduler: GcScheduler::with_trigger(trigger),
            observers: ObserverRegistry::new(),
        }
    }

    /// Convenience constructor from a [`PolicyKind`]; `seed` feeds the
    /// `Random` policy, `max_weight` parameterizes `WeightedPointer`.
    pub fn with_kind(
        kind: PolicyKind,
        overwrite_threshold: u64,
        seed: u64,
        max_weight: u8,
    ) -> Self {
        Self::new(build_policy(kind, seed, max_weight), overwrite_threshold)
    }

    /// Registers a bystander observer on the bus. It receives every event
    /// the driving policy receives — including the driver's own
    /// `CollectionCompleted` records — plus the [`BarrierObserver::on_trigger`]
    /// callback at each activation, but it never influences victim
    /// selection or trigger timing.
    pub fn add_observer(&mut self, observer: Box<dyn BarrierObserver>) {
        self.observers.register(observer);
    }

    /// Appends the driving policy's state, then the trigger's counters,
    /// for a snapshot's run image. Bystanders save their own.
    pub fn save(&self, out: &mut Vec<u64>) {
        self.policy.save(out);
        self.scheduler.save(out);
    }

    /// Resumes what [`Collector::save`] wrote, on a collector built for
    /// the same configuration, after a run of `events` events.
    pub fn load(&mut self, words: &mut Words<'_>, events: u64) -> Result<()> {
        self.policy.load(words)?;
        self.scheduler.load(words, events)
    }

    /// Delivers one event to the policy, the observers, and the trigger.
    /// Returns `true` if a collection is now due.
    ///
    /// Normally events arrive via [`Collector::sync`]; tests call this
    /// directly to fabricate a stream.
    pub(crate) fn observe_event(&mut self, event: &BarrierEvent) -> bool {
        self.policy.on_event(event);
        self.observers.broadcast(event);
        match event {
            BarrierEvent::PointerWrite(info) if info.is_overwrite() => {
                self.scheduler.note_overwrite()
            }
            BarrierEvent::Allocation { size, grew, .. } => {
                // `PartitionGrowth` carries no trigger weight of its own:
                // the allocation that caused it already reports `grew`.
                self.scheduler.note_allocation(*size, *grew)
            }
            _ => self.scheduler.is_due(),
        }
    }

    /// Drains the database's pending barrier events through the bus.
    /// Returns `true` if a collection is now due.
    pub fn sync(&mut self, db: &mut Database) -> bool {
        // Fast path: reads (`visit`) and slot growth log nothing, and in a
        // traversal-heavy trace they dominate — skip the drain entirely.
        if db.events().is_empty() {
            return self.scheduler.is_due();
        }
        // Listeners read each event where the database logged it: nothing
        // is copied on the way, and the pump owns no buffer.
        db.drain_events(|event| {
            self.observe_event(event);
        });
        self.scheduler.is_due()
    }

    /// If the trigger is due (after draining any pending events), selects a
    /// victim and collects it. Returns the outcome, or `None` when no
    /// collection happened (trigger not due, the policy declined, or there
    /// is nothing to collect).
    pub fn maybe_collect(&mut self, db: &mut Database) -> Result<Option<CollectionOutcome>> {
        if !self.sync(db) {
            return Ok(None);
        }
        self.force_collect(db)
    }

    /// Runs one activation immediately (resets the trigger window whether
    /// or not the policy declined, so `NoCollection` pays no compounding
    /// bookkeeping): select one victim and collect it — "each collector
    /// activation copies the live objects of exactly one partition".
    ///
    /// Activation order on the bus: any pending events are drained first;
    /// then a [`BarrierEvent::TriggerTick`] marks the activation; then
    /// every observer's `on_trigger` sees the *pre-collection* database,
    /// and only then does the driving policy select and collect.
    pub fn force_collect(&mut self, db: &mut Database) -> Result<Option<CollectionOutcome>> {
        self.sync(db);
        self.scheduler.collection_done();
        let tick = BarrierEvent::TriggerTick {
            activation: self.scheduler.triggers(),
        };
        self.policy.on_event(&tick);
        self.observers.broadcast(&tick);
        self.observers.notify_trigger(db);

        let Some(victim) = self.policy.select(db) else {
            return Ok(None);
        };
        // Announce the pick (with the policy's score for it) before
        // collecting, so bus taps can attribute the collection that
        // follows. Selection is already made; observers cannot influence
        // it.
        let selected = BarrierEvent::VictimSelected {
            victim,
            score_bits: self.policy.victim_score(victim).map(f64::to_bits),
        };
        self.policy.on_event(&selected);
        self.observers.broadcast(&selected);
        let outcome = db.collect_partition(victim)?;
        // Pump the collection's own events (copies, reclaims, the
        // completion record) so scoreboards reset before the next
        // activation.
        self.sync(db);
        Ok(Some(outcome))
    }
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("policy", &self.policy.name())
            .field("scheduler", &self.scheduler)
            .field("observers", &self.observers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_types::{Bytes, DbConfig, Oid, PartitionId, SlotId};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn db() -> Database {
        Database::new(
            DbConfig::default()
                .with_page_size(1024)
                .with_partition_pages(8),
        )
        .unwrap()
    }

    #[test]
    fn collects_when_due_and_resets() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        d.create_object(Bytes(100), 2, r, SlotId(0)).unwrap();
        let mut c = Collector::with_kind(PolicyKind::UpdatedPointer, 1, 0, 16);
        assert!(!c.sync(&mut d), "creation stores are no overwrites");
        d.write_slot(r, SlotId(0), None).unwrap();
        assert!(c.sync(&mut d), "one overwrite hits threshold 1");
        let out = c.maybe_collect(&mut d).unwrap();
        let out = out.expect("collection happened");
        assert_eq!(out.garbage_objects, 1);
        assert_eq!(c.scheduler.triggers(), 1);
        // Not due any more.
        assert!(c.maybe_collect(&mut d).unwrap().is_none());
    }

    #[test]
    fn no_collection_policy_never_collects_but_resets_trigger() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        d.create_object(Bytes(100), 2, r, SlotId(0)).unwrap();
        let mut c = Collector::with_kind(PolicyKind::NoCollection, 1, 0, 16);
        d.write_slot(r, SlotId(0), None).unwrap();
        assert!(c.sync(&mut d));
        assert!(c.maybe_collect(&mut d).unwrap().is_none());
        assert_eq!(d.stats().collections, 0);
        assert!(!c.scheduler.is_due(), "window reset even when declining");
    }

    #[test]
    fn updated_pointer_collector_reclaims_targeted_garbage() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        // A subtree that will die.
        let (a, _) = d.create_object(Bytes(100), 2, r, SlotId(0)).unwrap();
        d.create_object(Bytes(100), 2, a, SlotId(0)).unwrap();
        let mut c = Collector::with_kind(PolicyKind::UpdatedPointer, 1, 0, 16);
        d.write_slot(r, SlotId(0), None).unwrap();
        c.sync(&mut d);
        let out = c.maybe_collect(&mut d).unwrap().unwrap();
        assert_eq!(out.garbage_objects, 2, "a and b reclaimed");
        assert!(d.objects().contains(r));
    }

    #[test]
    fn allocation_trigger_fires_without_overwrites() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        d.clear_events();
        let mut c = Collector::with_trigger(
            build_policy(PolicyKind::Occupancy, 0, 16),
            Trigger::AllocationBytes(Bytes(1000)),
        );
        let alloc = |size| BarrierEvent::Allocation {
            oid: Oid(9),
            partition: PartitionId(1),
            size,
            grew: false,
        };
        assert!(!c.observe_event(&alloc(Bytes(500))));
        assert!(c.observe_event(&alloc(Bytes(600))));
        let out = c.maybe_collect(&mut d).unwrap();
        assert!(out.is_some());
        assert!(d.objects().contains(r), "live root survives");
    }

    #[test]
    fn growth_trigger_fires_on_partition_growth() {
        let mut d = db();
        d.create_root(Bytes(100), 2).unwrap();
        d.clear_events();
        let mut c = Collector::with_trigger(
            build_policy(PolicyKind::Occupancy, 0, 16),
            Trigger::PartitionGrowth,
        );
        let alloc = |size, grew| BarrierEvent::Allocation {
            oid: Oid(9),
            partition: PartitionId(1),
            size,
            grew,
        };
        assert!(!c.observe_event(&alloc(Bytes(100), false)));
        assert!(c.observe_event(&alloc(Bytes(8100), true)));
        assert!(c.maybe_collect(&mut d).unwrap().is_some());
    }

    #[test]
    fn data_writes_reach_only_the_yny_policy() {
        let mut d = db();
        d.create_root(Bytes(100), 2).unwrap();
        d.clear_events();
        let mut yny = Collector::with_kind(PolicyKind::YnyMutated, 100, 0, 16);
        let mut enhanced = Collector::with_kind(PolicyKind::MutatedPartition, 100, 0, 16);
        let dw = BarrierEvent::DataWrite {
            oid: Oid(1),
            partition: PartitionId(1),
        };
        for _ in 0..3 {
            yny.observe_event(&dw);
            enhanced.observe_event(&dw);
        }
        // YNY has a score for P1, enhanced does not (it falls back to the
        // fullest); P1 is also the only used partition, so both pick it.
        assert!(yny.force_collect(&mut d).unwrap().is_some());
    }

    /// A bystander that tallies what it sees on the bus.
    #[derive(Default)]
    struct Tap {
        state: Rc<RefCell<TapState>>,
    }

    #[derive(Default)]
    struct TapState {
        events: usize,
        ticks: u64,
        completions: usize,
        trigger_views: usize,
    }

    impl BarrierObserver for Tap {
        fn on_event(&mut self, event: &BarrierEvent) {
            let mut s = self.state.borrow_mut();
            s.events += 1;
            match event {
                BarrierEvent::TriggerTick { .. } => s.ticks += 1,
                BarrierEvent::CollectionCompleted(_) => s.completions += 1,
                _ => {}
            }
        }

        fn on_trigger(&mut self, db: &Database) {
            assert!(db.partition_count() > 0);
            self.state.borrow_mut().trigger_views += 1;
        }
    }

    #[test]
    fn observers_see_the_full_driver_stream() {
        let mut d = db();
        let tap = Tap::default();
        let state = Rc::clone(&tap.state);
        let mut c = Collector::with_kind(PolicyKind::UpdatedPointer, 1, 0, 16);
        c.add_observer(Box::new(tap));

        let r = d.create_root(Bytes(100), 2).unwrap();
        d.create_object(Bytes(100), 2, r, SlotId(0)).unwrap();
        d.write_slot(r, SlotId(0), None).unwrap();
        let out = c.maybe_collect(&mut d).unwrap();
        assert!(out.is_some());

        let s = state.borrow();
        assert_eq!(s.ticks, 1, "one activation, one tick");
        assert_eq!(s.trigger_views, 1, "on_trigger ran at the activation");
        assert_eq!(
            s.completions, 1,
            "the driver's collection record reached the bystander"
        );
        assert!(s.events > 3, "mutation events were broadcast too");
    }

    #[test]
    fn debug_format_names_policy() {
        let c = Collector::with_kind(PolicyKind::Random, 10, 1, 16);
        let s = format!("{c:?}");
        assert!(s.contains("Random"));
    }
}
