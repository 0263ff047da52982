//! Shadow-scoreboard policy races: many policies scored in one replay.
//!
//! The paper compares selection policies by running the same trace once per
//! policy. Because the collection trigger is "independent of the partition
//! choice", every such run fires at identical points in the event stream —
//! only the chosen victims differ. Shadow mode exploits that: one *driver*
//! policy actually makes the collection decisions, while the scoreboard of
//! every other honest policy rides the same [`pgc_odb::BarrierEvent`] bus
//! as a bystander and, at each trigger, records the partition it *would*
//! have picked.
//!
//! Up to the run's first divergence (the first activation where a shadow's
//! pick differs from the driver's victim), the shadow's picks are exactly
//! the picks its own independent run would make, because the two runs share
//! the entire event history. Past that point the shadow keeps scoring the
//! driver's timeline — a counterfactual its independent run never sees —
//! which is precisely what the per-collection agreement matrix measures:
//! how often would policy *B* have endorsed the decisions policy *A*
//! actually made?

use crate::run::{RunConfig, RunOutcome, Simulation};
use crate::summary::Summary;
use crate::telemetry::{ShadowPickNote, TelemetryLevel};
use pgc_odb::{build_policy, BarrierEvent, BarrierObserver, Database, PolicyKind, SelectionPolicy};
use pgc_types::{Bytes, PartitionId, Result};
use std::cell::RefCell;
use std::rc::Rc;

/// One shadow policy's pick at one trigger activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowPick {
    /// The shadow policy.
    pub policy: PolicyKind,
    /// The partition it would have collected (`None` = it declined).
    pub victim: Option<PartitionId>,
}

/// Everything recorded at one trigger activation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceRecord {
    /// Activation number (1-based, the scheduler's trigger count).
    pub activation: u64,
    /// The partition the driver actually collected at this activation
    /// (`None` = the driver declined, e.g. `NoCollection`).
    pub driver_victim: Option<PartitionId>,
    /// Garbage bytes that collection reclaimed (zero when the driver
    /// declined) — the realized outcome that regret accounting scores
    /// picks against.
    pub driver_reclaimed: Bytes,
    /// Each shadow's counterfactual pick, in registration order.
    pub picks: Vec<ShadowPick>,
}

impl RaceRecord {
    /// The pick recorded for `policy`, if that shadow ran.
    pub fn pick_for(&self, policy: PolicyKind) -> Option<&ShadowPick> {
        self.picks.iter().find(|p| p.policy == policy)
    }
}

/// A shadow scoreboard: one honest policy observing the driver's stream.
///
/// Its `on_event` feeds the wrapped policy exactly what the driver's policy
/// sees (including the driver's `CollectionCompleted` records, so its
/// scoreboard resets track the driver's collections, not its own). Its
/// `on_trigger` runs the policy's `select` against the pre-collection
/// database and appends the pick to the shared race log. It never mutates
/// the database and never influences the driver.
struct ShadowObserver {
    policy: Box<dyn SelectionPolicy>,
    /// One record per activation, shared by every shadow of the race.
    log: Rc<RefCell<Vec<RaceRecord>>>,
}

impl BarrierObserver for ShadowObserver {
    fn on_event(&mut self, event: &BarrierEvent) {
        self.policy.on_event(event);
        let mut log = self.log.borrow_mut();
        match *event {
            // The first shadow to see the tick opens the record; the
            // rest find it already open.
            BarrierEvent::TriggerTick { activation }
                if log.last().map(|r| r.activation) != Some(activation) =>
            {
                log.push(RaceRecord {
                    activation,
                    driver_victim: None,
                    driver_reclaimed: Bytes::ZERO,
                    picks: Vec::new(),
                });
            }
            // An activation completes at most one collection, and every
            // shadow sees it: they all write the same two values.
            BarrierEvent::CollectionCompleted(outcome) => {
                if let Some(rec) = log.last_mut() {
                    rec.driver_victim = Some(outcome.victim);
                    rec.driver_reclaimed = outcome.garbage_bytes;
                }
            }
            _ => {}
        }
    }

    fn on_trigger(&mut self, db: &Database) {
        let victim = self.policy.select(db);
        let mut log = self.log.borrow_mut();
        if let Some(rec) = log.last_mut() {
            if rec.pick_for(self.policy.kind()).is_none() {
                rec.picks.push(ShadowPick {
                    policy: self.policy.kind(),
                    victim,
                });
            }
        }
    }
}

/// The result of one shadow-scoreboard race.
#[derive(Debug, Clone)]
pub struct RaceOutcome {
    /// The policy that made the actual collection decisions.
    pub driver: PolicyKind,
    /// Workload seed.
    pub seed: u64,
    /// The shadow policies, in registration order.
    pub shadows: Vec<PolicyKind>,
    /// One record per trigger activation.
    pub records: Vec<RaceRecord>,
    /// The driver run's ordinary outcome (identical to what
    /// `Simulation::builder(cfg).run()` would report without any shadows).
    pub outcome: RunOutcome,
}

impl RaceOutcome {
    /// `(agreements, decided)` for one shadow: over activations where the
    /// driver collected, how often did the shadow pick the same victim?
    pub fn agreement(&self, shadow: PolicyKind) -> (u64, u64) {
        let mut agreed = 0;
        let mut decided = 0;
        for rec in &self.records {
            let Some(driver_victim) = rec.driver_victim else {
                continue;
            };
            let Some(pick) = rec.pick_for(shadow) else {
                continue;
            };
            decided += 1;
            if pick.victim == Some(driver_victim) {
                agreed += 1;
            }
        }
        (agreed, decided)
    }

    /// Agreement as a fraction in `[0, 1]` (0 when nothing was decided).
    pub fn agreement_fraction(&self, shadow: PolicyKind) -> f64 {
        let (agreed, decided) = self.agreement(shadow);
        if decided == 0 {
            0.0
        } else {
            agreed as f64 / decided as f64
        }
    }

    /// Index into [`RaceOutcome::records`] of the first activation where
    /// the shadow's pick differs from the driver's victim (`None` = they
    /// agree on the entire run).
    pub fn first_divergence(&self, shadow: PolicyKind) -> Option<usize> {
        self.records.iter().position(|rec| {
            rec.pick_for(shadow)
                .map(|p| p.victim != rec.driver_victim)
                .unwrap_or(false)
        })
    }

    /// Garbage bytes the driver actually reclaimed over the run. Every
    /// collection realizes one of the driver's own picks, so this is the
    /// driver's cumulative credit under the same credit-once rule
    /// [`RaceOutcome::shadow_credit`] applies to shadows.
    pub fn driver_credit(&self) -> u64 {
        self.records.iter().map(|r| r.driver_reclaimed.get()).sum()
    }

    /// Cumulative credit a shadow's would-be picks earned against the
    /// driver's realized collections.
    ///
    /// Each activation the shadow's pick (recorded at trigger time, before
    /// any collection settles) joins its pending set; whenever the driver
    /// collects a partition with a pending pick, the shadow is credited
    /// that collection's garbage bytes once and all pending picks of that
    /// partition clear. Nominating a partition every activation earns no
    /// more than nominating it once.
    ///
    /// This is not the rule `AdaptiveMeta` scores its candidates with. The
    /// race credits every pending nominator the full garbage bytes, where
    /// `AdaptiveMeta` gives a nominator whose pick is not the oldest half;
    /// and a pick here stays pending until its partition is collected,
    /// where `AdaptiveMeta` drops picks older than `2·window` activations.
    pub fn shadow_credit(&self, shadow: PolicyKind) -> u64 {
        let mut pending: Vec<PartitionId> = Vec::new();
        let mut credit = 0;
        for rec in &self.records {
            if let Some(victim) = rec.pick_for(shadow).and_then(|p| p.victim) {
                pending.push(victim);
            }
            if let Some(partition) = rec.driver_victim {
                if pending.contains(&partition) {
                    credit += rec.driver_reclaimed.get();
                    pending.retain(|&p| p != partition);
                }
            }
        }
        credit
    }

    /// The driver's credit minus the shadow's: positive when the driver's
    /// realized picks out-earned the shadow's counterfactual ones,
    /// negative when the shadow kept nominating the partitions that turned
    /// out to hold the garbage before the driver got to them.
    pub fn regret(&self, shadow: PolicyKind) -> i64 {
        self.driver_credit() as i64 - self.shadow_credit(shadow) as i64
    }
}

/// Aggregates agreement across several races (typically one per seed):
/// `(shadow, agreement-% summary, mean records to first divergence)`.
///
/// Shadow order follows the first race; races missing a shadow simply
/// contribute no sample for it. A race with no divergence for a shadow
/// contributes its full record count to the divergence column.
pub fn agreement_table(races: &[RaceOutcome]) -> Vec<(PolicyKind, Summary, Summary)> {
    let Some(first) = races.first() else {
        return Vec::new();
    };
    first
        .shadows
        .iter()
        .map(|&shadow| {
            let pct: Vec<f64> = races
                .iter()
                .map(|r| 100.0 * r.agreement_fraction(shadow))
                .collect();
            let div: Vec<f64> = races
                .iter()
                .map(|r| r.first_divergence(shadow).unwrap_or(r.records.len()) as f64)
                .collect();
            (shadow, Summary::of(&pct), Summary::of(&div))
        })
        .collect()
}

/// Aggregates regret accounting across several races (typically one per
/// seed): `(shadow, credit-KiB summary, regret-KiB summary)`. Shadow order
/// follows the first race. The driver's own credit rides along as the
/// baseline the regret column is measured against.
pub fn regret_table(races: &[RaceOutcome]) -> Vec<(PolicyKind, Summary, Summary)> {
    let Some(first) = races.first() else {
        return Vec::new();
    };
    first
        .shadows
        .iter()
        .map(|&shadow| {
            let credit: Vec<f64> = races
                .iter()
                .map(|r| r.shadow_credit(shadow) as f64 / 1024.0)
                .collect();
            let regret: Vec<f64> = races
                .iter()
                .map(|r| r.regret(shadow) as f64 / 1024.0)
                .collect();
            (shadow, Summary::of(&credit), Summary::of(&regret))
        })
        .collect()
}

/// Runs the synthetic workload described by `cfg` once, with `cfg.policy`
/// driving collections and every policy in `shadows` racing as a shadow
/// scoreboard on the same event stream.
///
/// Shadows are bystanders: the driver's trigger points, victim choices,
/// I/O charges, and final [`RunOutcome`] are bit-identical with or without
/// them. Shadow `Random` instances use the run's derived
/// [`RunConfig::policy_seed`], so each replays exactly the stream its
/// independent run would draw.
pub fn run_race(cfg: &RunConfig, shadows: &[PolicyKind]) -> Result<RaceOutcome> {
    run_race_with_telemetry(cfg, shadows, TelemetryLevel::Off)
}

/// [`run_race`] with a telemetry tap on the same bus. Beyond the ordinary
/// [`RunOutcome::telemetry`] capture, each per-activation telemetry record
/// is annotated with every shadow's counterfactual pick
/// ([`crate::telemetry::ActivationRecord::shadow_picks`]), so a JSONL export
/// carries the full race, not just the driver's decisions.
pub fn run_race_with_telemetry(
    cfg: &RunConfig,
    shadows: &[PolicyKind],
    level: TelemetryLevel,
) -> Result<RaceOutcome> {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut builder = Simulation::builder(cfg).telemetry(level);
    for &kind in shadows {
        builder = builder.observer(Box::new(ShadowObserver {
            policy: build_policy(kind, cfg.policy_seed(), cfg.db.max_weight),
            log: Rc::clone(&log),
        }));
    }
    let mut outcome = builder.run()?;
    // The run consumed the replayer (and with it the collector + shadow
    // observers), so the log has exactly one strong reference left.
    let records = Rc::try_unwrap(log)
        .map(RefCell::into_inner)
        .unwrap_or_else(|rc| rc.borrow().clone());
    if let Some(snap) = outcome.telemetry.as_mut() {
        for rec in &mut snap.records {
            let Some(race_rec) = records.iter().find(|r| r.activation == rec.activation) else {
                continue;
            };
            rec.shadow_picks = race_rec
                .picks
                .iter()
                .map(|p| ShadowPickNote {
                    policy: p.policy.name().to_string(),
                    victim: p.victim,
                })
                .collect();
        }
    }
    Ok(RaceOutcome {
        driver: cfg.policy,
        seed: cfg.workload.seed,
        shadows: shadows.to_vec(),
        records,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_SHADOWS: [PolicyKind; 5] = [
        PolicyKind::MutatedPartition,
        PolicyKind::Random,
        PolicyKind::WeightedPointer,
        PolicyKind::UpdatedPointer,
        PolicyKind::MostGarbage,
    ];

    #[test]
    fn shadows_never_perturb_the_driver() {
        let cfg = RunConfig::small()
            .with_policy(PolicyKind::UpdatedPointer)
            .with_seed(11);
        let plain = Simulation::builder(&cfg).run().unwrap();
        let race = run_race(&cfg, &PAPER_SHADOWS).unwrap();
        assert_eq!(plain.totals, race.outcome.totals, "totals bit-identical");
        assert_eq!(
            plain.collections, race.outcome.collections,
            "victim sequence bit-identical"
        );
    }

    #[test]
    fn one_record_per_activation_with_all_picks() {
        let cfg = RunConfig::small().with_seed(12);
        let race = run_race(&cfg, &PAPER_SHADOWS).unwrap();
        assert!(!race.records.is_empty(), "trigger fired");
        assert_eq!(race.records.len() as u64, race.outcome.totals.collections);
        for (i, rec) in race.records.iter().enumerate() {
            assert_eq!(rec.activation, i as u64 + 1, "activations are dense");
            assert_eq!(rec.picks.len(), PAPER_SHADOWS.len());
            assert!(rec.driver_victim.is_some(), "honest driver always picks");
        }
    }

    #[test]
    fn driver_shadowing_itself_always_agrees() {
        // A deterministic policy racing against itself sees the same
        // events and the same database, so it must agree at every single
        // activation.
        for driver in [PolicyKind::UpdatedPointer, PolicyKind::MostGarbage] {
            let cfg = RunConfig::small().with_policy(driver).with_seed(13);
            let race = run_race(&cfg, &[driver]).unwrap();
            let (agreed, decided) = race.agreement(driver);
            assert!(decided > 0);
            assert_eq!(agreed, decided, "{driver:?} disagreed with itself");
            assert_eq!(race.first_divergence(driver), None);
        }
    }

    #[test]
    fn shadow_matches_independent_run_until_first_divergence() {
        // The headline equivalence: up to (and including) the first
        // activation where a shadow's pick differs from the driver's
        // victim, the shadow picks exactly what its own independent run
        // picks — because the trigger points are policy-independent and
        // the event history is shared until the victims differ.
        let cfg = RunConfig::small()
            .with_policy(PolicyKind::MostGarbage)
            .with_seed(14);
        let race = run_race(&cfg, &PAPER_SHADOWS).unwrap();
        for &shadow in &PAPER_SHADOWS {
            let independent = Simulation::builder(&cfg.clone().with_policy(shadow))
                .run()
                .unwrap();
            let limit = race
                .first_divergence(shadow)
                .map(|i| i + 1)
                .unwrap_or(race.records.len())
                .min(independent.collections.len());
            assert!(limit > 0, "{shadow:?} never raced");
            for i in 0..limit {
                let pick = race.records[i].pick_for(shadow).unwrap().victim;
                assert_eq!(
                    pick,
                    Some(independent.collections[i].victim),
                    "{shadow:?} diverged from its independent run at activation {i} \
                     before diverging from the driver"
                );
            }
        }
    }

    #[test]
    fn self_shadow_has_zero_regret() {
        // Every collection realizes the driver's pick, and a deterministic
        // policy shadowing itself picks the same victims — so its credit
        // equals the driver's exactly.
        let cfg = RunConfig::small()
            .with_policy(PolicyKind::UpdatedPointer)
            .with_seed(18);
        let race = run_race(&cfg, &[PolicyKind::UpdatedPointer]).unwrap();
        assert!(race.driver_credit() > 0, "driver reclaimed something");
        assert_eq!(
            race.shadow_credit(PolicyKind::UpdatedPointer),
            race.driver_credit()
        );
        assert_eq!(race.regret(PolicyKind::UpdatedPointer), 0);
    }

    #[test]
    fn driver_collections_sum_to_run_totals() {
        let cfg = RunConfig::small().with_seed(19);
        let race = run_race(&cfg, &PAPER_SHADOWS).unwrap();
        assert_eq!(
            race.driver_credit(),
            race.outcome.totals.reclaimed_bytes.get(),
            "five shadows writing each record still count it once"
        );
    }

    #[test]
    fn shadow_credit_is_bounded_by_driver_credit() {
        let cfg = RunConfig::small()
            .with_policy(PolicyKind::MostGarbage)
            .with_seed(20);
        let race = run_race(&cfg, &PAPER_SHADOWS).unwrap();
        for &shadow in &PAPER_SHADOWS {
            assert!(
                race.shadow_credit(shadow) <= race.driver_credit(),
                "{shadow:?} cannot out-earn the realized total"
            );
        }
        let table = regret_table(std::slice::from_ref(&race));
        assert_eq!(table.len(), PAPER_SHADOWS.len());
        assert!(regret_table(&[]).is_empty());
    }

    #[test]
    fn shadow_credit_is_full_for_late_nominators_and_never_expires() {
        // Hand-built: shadow A nominates partition 1 at activation 1 and
        // partition 2 at activation 2; shadow B nominates partition 1 only
        // at activation 3, where the driver collects it. The driver then
        // collects partition 3 at activations 4..=103 and partition 2 at
        // activation 104.
        let (a, b) = (PolicyKind::UpdatedPointer, PolicyKind::MutatedPartition);
        let record = |activation, victim, picks: &[(PolicyKind, u32)]| RaceRecord {
            activation,
            driver_victim: Some(PartitionId(victim)),
            driver_reclaimed: Bytes(1000 * u64::from(victim)),
            picks: picks
                .iter()
                .map(|&(policy, p)| ShadowPick {
                    policy,
                    victim: Some(PartitionId(p)),
                })
                .collect(),
        };
        let mut records = vec![
            record(1, 3, &[(a, 1)]),
            record(2, 3, &[(a, 2)]),
            record(3, 1, &[(b, 1)]),
        ];
        records.extend((4..=103).map(|act| record(act, 3, &[])));
        records.push(record(104, 2, &[]));
        let race = RaceOutcome {
            driver: PolicyKind::Occupancy,
            seed: 0,
            shadows: vec![a, b],
            records,
            outcome: RunOutcome {
                policy: PolicyKind::Occupancy,
                seed: 0,
                totals: Default::default(),
                series: Default::default(),
                db_stats: Default::default(),
                gen_stats: Default::default(),
                collections: Vec::new(),
                telemetry: None,
                derive: None,
                storage: None,
            },
        };
        // B nominated partition 1 two activations after A did, and still
        // earns its full 1000 bytes: `AdaptiveMeta` would give it 500.
        assert_eq!(race.shadow_credit(b), 1000);
        // A's pick of partition 2 is 102 activations old when the driver
        // collects it, far past `AdaptiveMeta`'s 2·window horizon (16 at
        // the default window), and still earns 2000 bytes.
        assert_eq!(race.shadow_credit(a), 1000 + 2000);
    }

    #[test]
    fn agreement_table_aggregates_across_seeds() {
        let races: Vec<RaceOutcome> = (15..17)
            .map(|seed| {
                run_race(
                    &RunConfig::small()
                        .with_policy(PolicyKind::MostGarbage)
                        .with_seed(seed),
                    &[PolicyKind::MostGarbage, PolicyKind::Random],
                )
                .unwrap()
            })
            .collect();
        let table = agreement_table(&races);
        assert_eq!(table.len(), 2);
        let (kind, pct, _div) = &table[0];
        assert_eq!(*kind, PolicyKind::MostGarbage);
        assert!((pct.mean - 100.0).abs() < 1e-9, "self-agreement is total");
        assert_eq!(pct.n, 2);
        assert!(agreement_table(&[]).is_empty());
    }
}
