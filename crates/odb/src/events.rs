//! The typed **barrier event bus**: every mutator- and collector-side
//! signal a selection policy (or any future subsystem) is allowed to see,
//! as one small `Copy` enum delivered to a registry of observers.
//!
//! The paper's central constraint is that an *implementable* policy
//! observes nothing but the write barrier (Sec. 4.1). This module makes
//! that constraint a type: the mutation engine ([`crate::engine`]) and the
//! collector ([`crate::collect`]) log [`BarrierEvent`]s into the database's
//! internal `EventLog`; the pump ([`crate::Collector`], which a
//! `pgc_sim` shard drives) drains the log and broadcasts each event to
//! every registered [`BarrierObserver`]. Comparing N policies no longer
//! requires N replays — N scoreboards can ride one event stream — and
//! metrics, tracing, or clustering subsystems can tap the same bus without
//! touching the engine.
//!
//! Ordering guarantees: events are logged in mutation order. An object
//! creation that also stores a parent pointer logs its
//! [`BarrierEvent::Allocation`] before the [`BarrierEvent::PointerWrite`]
//! (allocation happens first); a collection logs one
//! [`BarrierEvent::ObjectCopied`]/[`BarrierEvent::ObjectReclaimed`] per
//! object, then exactly one [`BarrierEvent::CollectionCompleted`].

use crate::collect::CollectionOutcome;
use crate::db::Database;
use crate::stats::PointerWriteInfo;
use pgc_types::{Bytes, Oid, PartitionId};
use std::fmt;

/// One event on the barrier bus.
///
/// All payloads are `Copy`: buffering events in the database's log keeps
/// `Database: Clone`, and observers receive them by shared reference with
/// no lifetime entanglement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierEvent {
    /// A pointer store went through the write barrier. Subsumes
    /// overwrites: `info.is_overwrite()` distinguishes the paper's GC
    /// trigger signal from first-time stores.
    PointerWrite(PointerWriteInfo),
    /// A non-pointer mutation dirtied an object's pages. *Not* a pointer
    /// barrier event — only the (rejected) naive `YnyMutated` policy
    /// counts these.
    DataWrite {
        /// The mutated object.
        oid: Oid,
        /// Its resident partition.
        partition: PartitionId,
    },
    /// An object was allocated and registered.
    Allocation {
        /// The new object.
        oid: Oid,
        /// The partition it was placed in.
        partition: PartitionId,
        /// Its size.
        size: Bytes,
        /// True if satisfying this allocation grew the partition set.
        grew: bool,
    },
    /// The partition set grew while satisfying an allocation.
    PartitionGrowth {
        /// Partition count after growth (including the designated empty
        /// partition).
        partitions: usize,
    },
    /// A collection copied one live object out of the victim.
    ObjectCopied {
        /// The surviving object.
        oid: Oid,
        /// The victim partition it was evacuated from.
        from: PartitionId,
        /// The target partition it now lives in.
        to: PartitionId,
        /// Its size.
        size: Bytes,
    },
    /// A collection reclaimed one dead object.
    ObjectReclaimed {
        /// The reclaimed object (its id is dead after this event).
        oid: Oid,
        /// The victim partition it died in.
        partition: PartitionId,
        /// Its size.
        size: Bytes,
    },
    /// The driving policy chose a victim for the activation in progress.
    /// Emitted by the collector wrapper between selection and collection,
    /// so taps can pair the pick (and the policy's score for it) with the
    /// [`BarrierEvent::CollectionCompleted`] record that follows.
    VictimSelected {
        /// The partition about to be collected.
        victim: PartitionId,
        /// The driving policy's numeric score for the victim as
        /// `f64::to_bits` (`None` when the policy exposes no score —
        /// bit form keeps this enum `Eq`).
        score_bits: Option<u64>,
    },
    /// One partition collection finished.
    CollectionCompleted(CollectionOutcome),
    /// The GC trigger fired: a collection decision is about to be made.
    /// Emitted by the collector wrapper, not the database engine.
    TriggerTick {
        /// 1-based count of trigger activations so far in this run.
        activation: u64,
    },
    /// A meta-policy handed the driver's seat to a different policy.
    /// Emitted by the collector wrapper after the activation whose
    /// collection outcome triggered the switch; the new policy drives
    /// selection from the next activation on. Names are the policies'
    /// stable display names (static strings keep this enum `Copy`).
    PolicySwitched {
        /// The activation whose outcome triggered the switch.
        activation: u64,
        /// Display name of the policy that was driving.
        from: &'static str,
        /// Display name of the policy now driving.
        to: &'static str,
    },
}

/// An observer of the barrier event stream.
///
/// Implemented by every honest selection policy (scoreboard maintenance is
/// event handling) and by diagnostic taps such as the shadow scoreboards
/// in `pgc_sim`.
pub trait BarrierObserver {
    /// Receives one event, in stream order.
    fn on_event(&mut self, event: &BarrierEvent);

    /// Called when the GC trigger fires, after all pending events have
    /// been delivered and *before* the driving policy selects a victim.
    /// The database reference is the pre-collection state — this is where
    /// a shadow scoreboard records the partition it *would* have picked.
    fn on_trigger(&mut self, db: &Database) {
        let _ = db;
    }
}

/// An ordered registry of boxed [`BarrierObserver`]s.
///
/// Observers are notified in registration order. The registry is the
/// delivery mechanism of the bus: the pump drains the database's
/// [`EventLog`] and broadcasts each event here.
#[derive(Default)]
pub(crate) struct ObserverRegistry {
    observers: Vec<Box<dyn BarrierObserver>>,
}

impl ObserverRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends an observer; it receives every subsequent broadcast.
    pub(crate) fn register(&mut self, observer: Box<dyn BarrierObserver>) {
        self.observers.push(observer);
    }

    /// Delivers one event to every observer, in registration order.
    #[inline]
    pub(crate) fn broadcast(&mut self, event: &BarrierEvent) {
        for obs in &mut self.observers {
            obs.on_event(event);
        }
    }

    /// Notifies every observer that the trigger fired (see
    /// [`BarrierObserver::on_trigger`]).
    pub(crate) fn notify_trigger(&mut self, db: &Database) {
        for obs in &mut self.observers {
            obs.on_trigger(db);
        }
    }

    /// Number of registered observers.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.observers.len()
    }
}

impl fmt::Debug for ObserverRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObserverRegistry")
            .field("observers", &self.observers.len())
            .finish()
    }
}

/// The database's internal event buffer.
///
/// The mutation engine and collector push into it; a pump periodically
/// drains it via [`Database::drain_events`]. Standalone `Database`
/// users that never drain can ignore or [`EventLog::clear`] it — events
/// are plain `Copy` values with no side effects of their own.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventLog {
    events: Vec<BarrierEvent>,
}

impl EventLog {
    /// An empty log.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn push(&mut self, event: BarrierEvent) {
        self.events.push(event);
    }

    /// True if nothing is buffered.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Shared view of the buffered events, oldest first.
    #[cfg(test)]
    pub(crate) fn events(&self) -> &[BarrierEvent] {
        &self.events
    }

    /// Hands every buffered event to `deliver`, oldest first, and leaves
    /// the log empty (capacity kept): listeners read the events where they
    /// were logged, so the pump needs no buffer of its own.
    #[inline]
    pub(crate) fn drain(&mut self, mut deliver: impl FnMut(&BarrierEvent)) {
        for event in &self.events {
            deliver(event);
        }
        self.events.clear();
    }

    /// Discards all buffered events.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        events: usize,
        triggers: usize,
    }

    impl BarrierObserver for Counter {
        fn on_event(&mut self, _event: &BarrierEvent) {
            self.events += 1;
        }
        fn on_trigger(&mut self, _db: &Database) {
            self.triggers += 1;
        }
    }

    struct Tap(std::rc::Rc<std::cell::RefCell<Counter>>);
    impl BarrierObserver for Tap {
        fn on_event(&mut self, event: &BarrierEvent) {
            self.0.borrow_mut().on_event(event);
        }
        fn on_trigger(&mut self, db: &Database) {
            self.0.borrow_mut().on_trigger(db);
        }
    }

    #[test]
    fn registry_broadcasts_in_order_to_all() {
        let a = std::rc::Rc::new(std::cell::RefCell::new(Counter::default()));
        let b = std::rc::Rc::new(std::cell::RefCell::new(Counter::default()));
        let mut reg = ObserverRegistry::new();
        assert_eq!(reg.len(), 0);
        reg.register(Box::new(Tap(a.clone())));
        reg.register(Box::new(Tap(b.clone())));
        assert_eq!(reg.len(), 2);
        reg.broadcast(&BarrierEvent::PartitionGrowth { partitions: 3 });
        reg.broadcast(&BarrierEvent::TriggerTick { activation: 1 });
        assert_eq!(a.borrow().events, 2);
        assert_eq!(b.borrow().events, 2);
        let db = Database::new(pgc_types::DbConfig::default()).unwrap();
        reg.notify_trigger(&db);
        assert_eq!(a.borrow().triggers, 1);
        assert_eq!(b.borrow().triggers, 1);
    }

    #[test]
    fn event_log_drains_preserving_order() {
        let mut log = EventLog::new();
        assert!(log.is_empty());
        log.push(BarrierEvent::PartitionGrowth { partitions: 2 });
        log.push(BarrierEvent::TriggerTick { activation: 7 });
        assert_eq!(log.events.len(), 2);
        let mut sink = Vec::new();
        log.drain(|event| sink.push(*event));
        assert!(log.is_empty());
        assert_eq!(
            sink,
            vec![
                BarrierEvent::PartitionGrowth { partitions: 2 },
                BarrierEvent::TriggerTick { activation: 7 },
            ]
        );
    }
}
