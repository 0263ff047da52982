//! When to collect: the paper's overwrite-count trigger, plus alternative
//! triggers from its Table 1 design-space ("when more space is needed",
//! "when garbage is created", "opportunistically").
//!
//! The paper's evaluation uses [`Trigger::OverwriteCount`]: *"garbage
//! collection is triggered after a fixed number of pointer overwrites"*
//! (150–300 in its runs). Two properties make this the right trigger for a
//! policy comparison: overwrites correlate with garbage creation, and the
//! trigger is independent of the selection policy, so every policy
//! performs the same number of collections. The other variants exist for
//! the ablation studies.

use pgc_types::{Bytes, Result, Words};

/// What causes a collection to become due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// After this many pointer overwrites (the paper's trigger; "when
    /// garbage is created").
    OverwriteCount(u64),
    /// After this many bytes of new allocation ("opportunistically", paced
    /// by allocation rather than mutation).
    AllocationBytes(Bytes),
    /// Whenever an allocation had to grow the database by a partition
    /// ("when more space is needed").
    PartitionGrowth,
}

/// Tracks application activity and fires collections per its [`Trigger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GcScheduler {
    trigger: Trigger,
    overwrites_since: u64,
    bytes_since: Bytes,
    grew_since: bool,
    total_overwrites: u64,
    triggers: u64,
}

impl GcScheduler {
    /// Creates the paper's scheduler: fire every `threshold` overwrites
    /// (must be positive; the configuration validates this).
    pub(crate) fn new(threshold: u64) -> Self {
        Self::with_trigger(Trigger::OverwriteCount(threshold))
    }

    /// Creates a scheduler with an explicit trigger.
    pub(crate) fn with_trigger(trigger: Trigger) -> Self {
        if let Trigger::OverwriteCount(t) = trigger {
            debug_assert!(t > 0);
        }
        if let Trigger::AllocationBytes(b) = trigger {
            debug_assert!(!b.is_zero());
        }
        Self {
            trigger,
            overwrites_since: 0,
            bytes_since: Bytes::ZERO,
            grew_since: false,
            total_overwrites: 0,
            triggers: 0,
        }
    }

    /// Records one pointer overwrite; returns `true` when a collection is
    /// now due. The caller must invoke [`GcScheduler::collection_done`]
    /// after actually collecting (or deciding not to, for `NoCollection`),
    /// otherwise the trigger keeps reporting due.
    pub(crate) fn note_overwrite(&mut self) -> bool {
        self.overwrites_since += 1;
        self.total_overwrites += 1;
        self.is_due()
    }

    /// Records an allocation of `bytes` (and whether it grew the database
    /// by a partition); returns `true` when a collection is now due.
    pub(crate) fn note_allocation(&mut self, bytes: Bytes, grew: bool) -> bool {
        // Saturating: no event count bounds a loaded byte window.
        self.bytes_since = self.bytes_since.saturating_add(bytes);
        self.grew_since |= grew;
        self.is_due()
    }

    /// True when the trigger condition has been met since the last reset.
    pub(crate) fn is_due(&self) -> bool {
        match self.trigger {
            Trigger::OverwriteCount(t) => self.overwrites_since >= t,
            Trigger::AllocationBytes(b) => self.bytes_since >= b,
            Trigger::PartitionGrowth => self.grew_since,
        }
    }

    /// Resets the window after a collection attempt.
    pub(crate) fn collection_done(&mut self) {
        self.overwrites_since = 0;
        self.bytes_since = Bytes::ZERO;
        self.grew_since = false;
        self.triggers += 1;
    }

    /// Number of times the trigger fired (collections attempted).
    #[inline]
    pub(crate) fn triggers(&self) -> u64 {
        self.triggers
    }

    /// Appends the window and lifetime counters (the trigger itself is
    /// configuration).
    pub(crate) fn save(&self, out: &mut Vec<u64>) {
        out.extend([
            self.overwrites_since,
            self.bytes_since.get(),
            u64::from(self.grew_since),
            self.total_overwrites,
            self.triggers,
        ]);
    }

    /// Resumes the counters [`GcScheduler::save`] wrote after a run of
    /// `events` events, which bound every count an event adds one to.
    pub(crate) fn load(&mut self, words: &mut Words<'_>, events: u64) -> Result<()> {
        self.overwrites_since = words.at_most(events)?;
        self.bytes_since = Bytes(words.word()?);
        self.grew_since = words.flag()?;
        self.total_overwrites = words.at_most(events)?;
        self.triggers = words.at_most(events)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_at_threshold() {
        let mut s = GcScheduler::new(3);
        assert!(!s.note_overwrite());
        assert!(!s.note_overwrite());
        assert!(s.note_overwrite());
        assert!(s.is_due());
        s.collection_done();
        assert!(!s.is_due());
        assert_eq!(s.triggers(), 1);
        assert_eq!(s.trigger, Trigger::OverwriteCount(3));
    }

    #[test]
    fn stays_due_until_reset() {
        let mut s = GcScheduler::new(2);
        s.note_overwrite();
        assert!(s.note_overwrite());
        assert!(s.note_overwrite(), "still due while not collected");
        s.collection_done();
        assert!(!s.is_due());
    }

    #[test]
    fn counts_accumulate() {
        let mut s = GcScheduler::new(2);
        for _ in 0..10 {
            if s.note_overwrite() {
                s.collection_done();
            }
        }
        assert_eq!(s.total_overwrites, 10);
        assert_eq!(s.triggers(), 5);
    }

    #[test]
    fn allocation_trigger_fires_on_bytes() {
        let mut s = GcScheduler::with_trigger(Trigger::AllocationBytes(Bytes(1000)));
        assert!(!s.note_allocation(Bytes(400), false));
        assert!(!s.note_allocation(Bytes(400), false));
        assert!(s.note_allocation(Bytes(400), false));
        // Overwrites don't matter for this trigger.
        s.collection_done();
        assert!(!s.note_overwrite());
        assert_eq!(s.trigger, Trigger::AllocationBytes(Bytes(1000)));
    }

    #[test]
    fn growth_trigger_fires_on_growth() {
        let mut s = GcScheduler::with_trigger(Trigger::PartitionGrowth);
        assert!(!s.note_allocation(Bytes(10_000), false));
        assert!(s.note_allocation(Bytes(100), true));
        s.collection_done();
        assert!(!s.is_due());
    }

    #[test]
    fn overwrite_trigger_ignores_allocation() {
        let mut s = GcScheduler::new(1);
        assert!(!s.note_allocation(Bytes(1 << 30), true));
        assert!(s.note_overwrite());
    }
}
