//! `AdaptiveMeta` (extension): switch the driving policy mid-run.
//!
//! The 1994 paper compares fixed policies; its own shadow-scoreboard idea
//! (every policy can score the same barrier stream) begs the online
//! question: *which policy is earning its picks right now?* This
//! meta-policy runs a slate of candidate policies in-process — all observe
//! every bus event, all select at every activation — and keeps a
//! retrospective **garbage credit** per candidate: when partition `p` is
//! collected yielding `g` garbage bytes, every candidate with an
//! outstanding pick of `p` is credited (once; its pending picks of `p`
//! are cleared, and picks expire after `2·window` activations so stale
//! nominations cannot ride forever). Credit is split by timeliness — the
//! **early-bird rule**: the candidate(s) whose outstanding pick of `p` is
//! oldest earn the full `g`, later nominators earn `g/2`. The incumbent's
//! pick is always realized the moment it is made (age zero), so a
//! challenger that keeps identifying garbage-rich partitions *before* the
//! incumbent gets to them out-earns it roughly two-to-one — exactly the
//! evidence that switching would have held space lower. A challenger that
//! merely agrees with the incumbent ties on age, earns the same credit,
//! and never displaces it.
//!
//! Every `window` activations the slate is re-scored: if the best
//! challenger's credit beats the incumbent's by `margin_pct` (default
//! 150%), the challenger becomes the driver from the next activation on,
//! all credits are halved (old evidence fades), and a
//! [`PolicySwitch`] is recorded for the collector to broadcast as
//! [`crate::BarrierEvent::PolicySwitched`].

use crate::{
    build_policy, BarrierEvent, BarrierObserver, Database, PolicyKind, PolicySwitch,
    SelectionPolicy,
};
use pgc_types::{PartitionId, PgcError, Result, Words};
use std::fmt;

/// Default candidate slate: the paper's implementable counter policies
/// plus the structural baseline. Deliberately excludes `Random` (a shadow
/// of it would not replay its independent run) and the oracle.
pub const DEFAULT_CANDIDATES: [PolicyKind; 5] = [
    PolicyKind::UpdatedPointer,
    PolicyKind::MutatedPartition,
    PolicyKind::WeightedPointer,
    PolicyKind::UpdatedDecay,
    PolicyKind::Occupancy,
];

/// Default re-scoring window, in activations.
pub(crate) const DEFAULT_WINDOW: u64 = 8;

/// Default switch margin: a challenger needs `150%` of the incumbent's
/// credit to take over.
pub(crate) const DEFAULT_MARGIN_PCT: u64 = 150;

/// The adaptive meta-policy.
pub struct AdaptiveMeta {
    candidates: Vec<Box<dyn SelectionPolicy>>,
    /// Retrospective garbage credit per candidate, in bytes.
    credit: Vec<u64>,
    /// Outstanding picks per candidate: `(partition, activation picked)`.
    pending: Vec<Vec<(PartitionId, u64)>>,
    incumbent: usize,
    activation: u64,
    last_switch_at: u64,
    window: u64,
    margin_pct: u64,
    switches: Vec<PolicySwitch>,
}

impl AdaptiveMeta {
    /// Creates the meta-policy over [`DEFAULT_CANDIDATES`] with the
    /// default window and margin. `max_weight` parameterizes the
    /// `WeightedPointer` candidate.
    pub(crate) fn new(max_weight: u8) -> Self {
        Self::with_config(
            &DEFAULT_CANDIDATES,
            DEFAULT_WINDOW,
            DEFAULT_MARGIN_PCT,
            max_weight,
        )
    }

    /// Creates the meta-policy over an explicit candidate slate. The first
    /// candidate starts as incumbent. Candidates must be deterministic
    /// (no `Random`) and must not be `AdaptiveMeta` itself.
    pub fn with_config(
        candidates: &[PolicyKind],
        window: u64,
        margin_pct: u64,
        max_weight: u8,
    ) -> Self {
        assert!(!candidates.is_empty(), "meta-policy needs candidates");
        assert!(window >= 1, "window must be at least one activation");
        assert!(
            !candidates.contains(&PolicyKind::AdaptiveMeta),
            "meta-policy cannot nest itself"
        );
        let candidates: Vec<_> = candidates
            .iter()
            .map(|&k| build_policy(k, 0, max_weight))
            .collect();
        let n = candidates.len();
        Self {
            candidates,
            credit: vec![0; n],
            pending: vec![Vec::new(); n],
            incumbent: 0,
            activation: 0,
            last_switch_at: 0,
            window,
            margin_pct,
            switches: Vec::new(),
        }
    }

    /// The currently driving candidate.
    pub(crate) fn incumbent(&self) -> PolicyKind {
        self.candidates[self.incumbent].kind()
    }

    /// Garbage credit (bytes) accumulated by each candidate since the last
    /// credit halving.
    pub(crate) fn credits(&self) -> Vec<(PolicyKind, u64)> {
        self.candidates
            .iter()
            .zip(&self.credit)
            .map(|(c, &g)| (c.kind(), g))
            .collect()
    }

    fn settle_collection(&mut self, victim: PartitionId, garbage: u64) {
        let horizon = self.activation.saturating_sub(2 * self.window);
        // Early-bird credit: the candidate(s) whose outstanding pick of
        // the victim is oldest called it first and earn the full garbage;
        // later nominators — typically the incumbent, whose pick is always
        // realized at age zero — earn half. Without the timeliness split a
        // challenger's credit could never strictly exceed the incumbent's
        // (the incumbent nominates every realized victim), and the switch
        // rule would be unreachable in driver mode.
        let earliest = (0..self.candidates.len())
            .filter_map(|i| {
                self.pending[i]
                    .iter()
                    .filter(|&&(p, _)| p == victim)
                    .map(|&(_, a)| a)
                    .min()
            })
            .min();
        for i in 0..self.candidates.len() {
            let first_pick = self.pending[i]
                .iter()
                .filter(|&&(p, _)| p == victim)
                .map(|&(_, a)| a)
                .min();
            self.pending[i].retain(|&(p, a)| p != victim && a >= horizon);
            if let Some(a) = first_pick {
                // Saturating: a loaded credit is whatever a file said.
                self.credit[i] = self.credit[i].saturating_add(if Some(a) == earliest {
                    garbage
                } else {
                    garbage / 2
                });
            }
        }
        self.maybe_switch();
    }

    fn maybe_switch(&mut self) {
        if self.activation.saturating_sub(self.last_switch_at) < self.window {
            return;
        }
        // Best challenger, ties toward the lowest slate index.
        let best = (0..self.candidates.len())
            .max_by_key(|&i| (self.credit[i], std::cmp::Reverse(i)))
            .expect("non-empty slate");
        if best == self.incumbent || self.credit[best] == 0 {
            return;
        }
        let credit = |i: usize| u128::from(self.credit[i]);
        if credit(best) * 100 < credit(self.incumbent) * u128::from(self.margin_pct) {
            return;
        }
        self.switches.push(PolicySwitch {
            activation: self.activation,
            from: self.candidates[self.incumbent].kind(),
            to: self.candidates[best].kind(),
        });
        self.incumbent = best;
        self.last_switch_at = self.activation;
        // Old evidence fades; the new incumbent must keep earning.
        for c in &mut self.credit {
            *c /= 2;
        }
    }
}

impl fmt::Debug for AdaptiveMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdaptiveMeta")
            .field("incumbent", &self.incumbent())
            .field("activation", &self.activation)
            .field("credits", &self.credits())
            .field("window", &self.window)
            .field("margin_pct", &self.margin_pct)
            .finish()
    }
}

impl BarrierObserver for AdaptiveMeta {
    fn on_event(&mut self, event: &BarrierEvent) {
        for c in &mut self.candidates {
            c.on_event(event);
        }
        match *event {
            BarrierEvent::TriggerTick { activation } => self.activation = activation,
            BarrierEvent::CollectionCompleted(outcome) => {
                self.settle_collection(outcome.victim, outcome.garbage_bytes.get());
            }
            _ => {}
        }
    }
}

impl SelectionPolicy for AdaptiveMeta {
    fn kind(&self) -> PolicyKind {
        PolicyKind::AdaptiveMeta
    }

    fn select(&mut self, db: &Database) -> Option<PartitionId> {
        // Every candidate nominates; the incumbent's pick is realized.
        let activation = self.activation;
        let mut chosen = None;
        for (i, c) in self.candidates.iter_mut().enumerate() {
            let pick = c.select(db);
            if let Some(p) = pick {
                self.pending[i].push((p, activation));
            }
            if i == self.incumbent {
                chosen = pick;
            }
        }
        chosen
    }

    fn victim_score(&self, partition: PartitionId) -> Option<f64> {
        self.candidates[self.incumbent].victim_score(partition)
    }

    fn take_switches(&mut self) -> Vec<PolicySwitch> {
        std::mem::take(&mut self.switches)
    }

    /// The incumbent, the activation clock and last switch, every
    /// candidate's credit and outstanding picks, then every candidate's own
    /// state. The slate, window and margin are configuration.
    fn save(&self, out: &mut Vec<u64>) {
        debug_assert!(self.switches.is_empty(), "saved with a switch pending");
        out.extend([self.incumbent as u64, self.activation, self.last_switch_at]);
        out.extend(&self.credit);
        for picks in &self.pending {
            out.push(picks.len() as u64);
            for &(p, a) in picks {
                out.extend([u64::from(p.index()), a]);
            }
        }
        for c in &self.candidates {
            c.save(out);
        }
    }

    fn load(&mut self, words: &mut Words<'_>, events: u64) -> Result<()> {
        let incumbent = words.word()?;
        if incumbent >= self.candidates.len() as u64 {
            return Err(PgcError::TraceFormat(format!(
                "run image: incumbent {incumbent} of a {}-policy slate",
                self.candidates.len()
            )));
        }
        self.incumbent = incumbent as usize;
        self.activation = words.word()?;
        self.last_switch_at = words.word()?;
        self.credit = words.take(self.candidates.len())?.to_vec();
        for picks in &mut self.pending {
            let n = words.count()?;
            *picks = Vec::with_capacity(n);
            for _ in 0..n {
                picks.push((PartitionId(words.word_u32()?), words.word()?));
            }
        }
        for c in &mut self.candidates {
            c.load(words, events)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollectionOutcome;
    use pgc_types::{Bytes, DbConfig, Oid, SlotId};

    fn tick(activation: u64) -> BarrierEvent {
        BarrierEvent::TriggerTick { activation }
    }

    fn collected(victim: u32, garbage: u64) -> BarrierEvent {
        BarrierEvent::CollectionCompleted(CollectionOutcome {
            victim: PartitionId(victim),
            target: PartitionId(0),
            live_objects: 0,
            live_bytes: Bytes::ZERO,
            garbage_objects: 1,
            garbage_bytes: Bytes(garbage),
            forwarded_pointers: 0,
            gc_reads: 0,
            gc_writes: 0,
        })
    }

    fn overwrite(old_partition: u32) -> BarrierEvent {
        BarrierEvent::PointerWrite(crate::PointerWriteInfo {
            owner: Oid(1),
            owner_partition: PartitionId(3),
            slot: SlotId(0),
            old: Some(crate::PointerTarget {
                oid: Oid(2),
                partition: PartitionId(old_partition),
                weight: 3,
            }),
            new: None,
            during_creation: false,
        })
    }

    fn db() -> Database {
        let cfg = DbConfig::default()
            .with_page_size(1024)
            .with_partition_pages(4);
        let mut db = Database::new(cfg).unwrap();
        let r = db.create_root(Bytes(100), 2).unwrap();
        db.create_object(Bytes(4000), 2, r, SlotId(0)).unwrap();
        db
    }

    #[test]
    fn starts_on_the_first_candidate() {
        let p = AdaptiveMeta::new(16);
        assert_eq!(p.incumbent(), PolicyKind::UpdatedPointer);
        assert_eq!(p.credits().len(), DEFAULT_CANDIDATES.len());
    }

    #[test]
    fn realized_picks_earn_credit() {
        let d = db();
        let mut p = AdaptiveMeta::new(16);
        p.on_event(&overwrite(2));
        p.on_event(&tick(1));
        assert_eq!(p.select(&d), Some(PartitionId(2)));
        p.on_event(&collected(2, 1000));
        let credits = p.credits();
        // Every candidate that nominated P2 (they all do here: overwrite
        // hints or fallback-to-fullest) is credited the same 1000 bytes.
        assert!(credits
            .iter()
            .any(|&(k, g)| k == PolicyKind::UpdatedPointer && g == 1000));
    }

    #[test]
    fn switches_when_a_challenger_outearns_the_incumbent() {
        let d = db();
        let mut p = AdaptiveMeta::with_config(
            &[PolicyKind::UpdatedPointer, PolicyKind::Occupancy],
            2,
            150,
            16,
        );
        // The incumbent (UpdatedPointer) keeps nominating P1 (overwrite
        // hints), but the realized collections of P1 yield nothing, while
        // Occupancy's nominations of P2 pay off when P2 is collected.
        for a in 1..=4u64 {
            p.on_event(&overwrite(1));
            p.on_event(&tick(a));
            let _ = p.select(&d);
            // Driver collects P1 (incumbent's pick): zero garbage.
            p.on_event(&collected(1, 0));
            // A later collection reaches P2 with real garbage.
            p.on_event(&collected(2, 5000));
        }
        assert_eq!(p.incumbent(), PolicyKind::Occupancy);
        let switches = p.take_switches();
        assert_eq!(switches.len(), 1, "{switches:?}");
        assert_eq!(switches[0].from, PolicyKind::UpdatedPointer);
        assert_eq!(switches[0].to, PolicyKind::Occupancy);
        assert!(p.take_switches().is_empty(), "drain empties the log");
    }

    fn write_owned_by(owner_partition: u32, old_partition: Option<u32>) -> BarrierEvent {
        BarrierEvent::PointerWrite(crate::PointerWriteInfo {
            owner: Oid(1),
            owner_partition: PartitionId(owner_partition),
            slot: SlotId(0),
            old: old_partition.map(|p| crate::PointerTarget {
                oid: Oid(2),
                partition: PartitionId(p),
                weight: 3,
            }),
            new: None,
            during_creation: false,
        })
    }

    #[test]
    fn early_bird_earns_full_credit_late_nominators_half() {
        let d = db();
        // Window 100: no switch can interfere with the credit arithmetic.
        let mut p = AdaptiveMeta::with_config(
            &[PolicyKind::MutatedPartition, PolicyKind::UpdatedPointer],
            100,
            150,
            16,
        );
        // Activation 1: the overwrite's old target is in P2 (UpdatedPointer
        // nominates P2) but its owner sits in P1 (MutatedPartition
        // nominates P1).
        p.on_event(&write_owned_by(1, Some(2)));
        p.on_event(&tick(1));
        let _ = p.select(&d);
        // Activation 2: two writes owned by P2 flip MutatedPartition's
        // argmax (P2:2 over P1:1) — it now nominates P2 too, one
        // activation after UpdatedPointer called it.
        p.on_event(&write_owned_by(2, None));
        p.on_event(&write_owned_by(2, None));
        p.on_event(&tick(2));
        let _ = p.select(&d);
        p.on_event(&collected(2, 4000));
        let credits = p.credits();
        assert!(
            credits.contains(&(PolicyKind::UpdatedPointer, 4000)),
            "earliest nominator earns the full garbage: {credits:?}"
        );
        assert!(
            credits.contains(&(PolicyKind::MutatedPartition, 2000)),
            "late nominator earns half: {credits:?}"
        );
    }

    #[test]
    fn early_bird_outearns_the_incumbent_and_takes_over() {
        let d = db();
        let mut p = AdaptiveMeta::with_config(
            &[PolicyKind::Occupancy, PolicyKind::UpdatedPointer],
            2,
            150,
            16,
        );
        // The incumbent (Occupancy) keeps realizing its fullest-partition
        // pick of P2 for trickle garbage, while UpdatedPointer's overwrite
        // hints flag P1 — and P1's collections pay 8x more. The challenger
        // out-earns the incumbent past the 150% margin and takes over.
        for a in 1..=4u64 {
            p.on_event(&overwrite(1));
            p.on_event(&tick(a));
            let _ = p.select(&d);
            p.on_event(&collected(2, 500));
            p.on_event(&collected(1, 4000));
        }
        assert_eq!(p.incumbent(), PolicyKind::UpdatedPointer, "{p:?}");
        let switches = p.take_switches();
        assert!(!switches.is_empty());
        assert_eq!(switches[0].from, PolicyKind::Occupancy);
        assert_eq!(switches[0].to, PolicyKind::UpdatedPointer);
    }

    #[test]
    fn a_loaded_slate_resumes_and_a_stray_incumbent_is_refused() {
        let d = db();
        let mut live = AdaptiveMeta::with_config(
            &[PolicyKind::Occupancy, PolicyKind::UpdatedPointer],
            2,
            150,
            16,
        );
        let mut saved = Vec::new();
        for a in 1..=6u64 {
            live.on_event(&overwrite(1));
            live.on_event(&tick(a));
            let _ = live.select(&d);
            live.on_event(&collected(2, 500));
            live.on_event(&collected(1, 4000));
            let _ = live.take_switches();
            if a == 2 {
                live.save(&mut saved);
            }
        }
        let mut resumed = AdaptiveMeta::with_config(
            &[PolicyKind::Occupancy, PolicyKind::UpdatedPointer],
            2,
            150,
            16,
        );
        let mut words = Words::new(&saved);
        resumed.load(&mut words, 1_000).unwrap();
        words.finish().unwrap();
        for a in 3..=6u64 {
            resumed.on_event(&overwrite(1));
            resumed.on_event(&tick(a));
            let _ = resumed.select(&d);
            resumed.on_event(&collected(2, 500));
            resumed.on_event(&collected(1, 4000));
            let _ = resumed.take_switches();
        }
        assert_eq!(format!("{resumed:?}"), format!("{live:?}"));

        let mut stray = saved.clone();
        stray[0] = 2;
        let err = resumed.load(&mut Words::new(&stray), 1_000).unwrap_err();
        assert!(err.to_string().contains("incumbent 2"), "{err}");

        // Credits a file says are near the top of `u64` neither overflow
        // the switch test nor the next credit.
        let mut rich = saved.clone();
        rich[3..5].copy_from_slice(&[u64::MAX - 1, u64::MAX / 3]);
        resumed.load(&mut Words::new(&rich), 1_000).unwrap();
        for a in 3..=6u64 {
            resumed.on_event(&tick(a));
            let _ = resumed.select(&d);
            resumed.on_event(&collected(1, 4000));
            resumed.on_event(&collected(2, 4000));
        }
    }

    #[test]
    fn no_switch_inside_the_window_or_below_margin() {
        let d = db();
        let mut p = AdaptiveMeta::with_config(
            &[PolicyKind::UpdatedPointer, PolicyKind::Occupancy],
            100,
            150,
            16,
        );
        for a in 1..=5u64 {
            p.on_event(&tick(a));
            let _ = p.select(&d);
            p.on_event(&collected(2, 5000));
        }
        assert_eq!(
            p.incumbent(),
            PolicyKind::UpdatedPointer,
            "window not reached"
        );
        assert!(p.take_switches().is_empty());
    }
}
