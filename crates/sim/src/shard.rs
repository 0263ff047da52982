//! A self-contained simulation shard: one database plus everything that
//! drives it.
//!
//! [`Shard`] bundles what [`crate::run::Simulation`] used to wire inline —
//! a [`pgc_odb::Database`], the driving policy and trigger scheduler
//! inside a [`pgc_core::Collector`], the barrier event bus with its
//! bystander observers, an optional telemetry tap, and time-series
//! sampling state — behind a stepping API: feed it events one at a time
//! ([`Shard::step`]), as recorded batches ([`Shard::step_batch`]), or as
//! decoded SoA blocks ([`Shard::step_block`]), then [`Shard::finish`] it
//! into a [`RunOutcome`].
//!
//! `Simulation::builder(cfg).run()` is now exactly a 1-shard special case:
//! it builds one `Shard`, streams the configured event source into it, and
//! finishes it. A sharded runtime (the `pgc-server` crate) instead hosts
//! one `Shard` per client session across N worker threads — each shard
//! owns its partitions, policy, scheduler, and telemetry, so sessions
//! never share mutable state and per-stream results are bit-identical to
//! a dedicated single-`Simulation` run at any shard count. Server workers
//! lean on [`Shard::step_block`]'s invisibility guarantee: segments
//! arriving over the ring inboxes decode into SoA blocks wherever the
//! client happened to cut them, without changing any result, because
//! block boundaries — including sample boundaries split mid-block —
//! replay exactly like per-event stepping.

use crate::durable::{DurableStore, GenerationImage};
use crate::metrics::{RunTotals, SamplePoint, TimeSeries};
use crate::replay::Replayer;
use crate::run::{RunConfig, RunOutcome};
use pgc_odb::oracle::{self, OracleScratch};
use pgc_odb::BarrierObserver;
use pgc_telemetry::{TelemetryHandle, TelemetryLevel, TelemetryObserver};
use pgc_types::{Bytes, Oid, PgcError, Result, Words};
use pgc_workload::generator::GenStats;
use pgc_workload::{Event, EventBlock, NodeId};

/// The persistence half of a shard: the write side of a data directory
/// plus how far its safepoint frames have got (the store stays off the
/// bus — it needs `&Database` and file handles, which bystander observers
/// must not hold — so the shard compares counts after each step instead).
struct DurableState {
    store: DurableStore,
    /// `db.stats().collections` as of the last safepoint frame.
    safepointed: u64,
    manifest_written: bool,
}

/// One database + policy + scheduler + barrier bus + telemetry handle,
/// stepped by event batches.
pub struct Shard {
    cfg: RunConfig,
    replayer: Replayer,
    telemetry: Option<TelemetryHandle>,
    telemetry_level: TelemetryLevel,
    durable: Option<DurableState>,
    series: TimeSeries,
    scratch: OracleScratch,
    sample_every: u64,
    next_sample: u64,
}

impl Shard {
    /// Builds a shard for `cfg`: fresh database, the configured policy and
    /// trigger wired into a collector, no telemetry. Register bus
    /// observers with [`Shard::add_observer`] and a telemetry tap with
    /// [`Shard::enable_telemetry`] *before* stepping the first event.
    pub fn new(cfg: &RunConfig) -> Result<Self> {
        if cfg.sample_every == Some(0) {
            return Err(PgcError::InvalidConfig(
                "sample_every must be at least 1 event",
            ));
        }
        let replayer = cfg.build_replayer()?;
        let sample_every = cfg.sample_every.unwrap_or(u64::MAX);
        let durable = if cfg.durability.is_enabled() {
            Some(DurableState {
                store: DurableStore::create(&cfg.durability)?,
                safepointed: 0,
                manifest_written: false,
            })
        } else {
            None
        };
        Ok(Self {
            cfg: cfg.clone(),
            replayer,
            telemetry: None,
            telemetry_level: TelemetryLevel::Off,
            durable,
            series: TimeSeries::new(),
            scratch: OracleScratch::new(),
            sample_every,
            next_sample: sample_every,
        })
    }

    /// Resumes the shard snapshot generation `image` describes, built for
    /// `cfg` (durability off: a restored shard replays, it does not
    /// re-persist) with telemetry at `level` — the configuration the
    /// generation's run was written under. Stepping the events after the
    /// generation and finishing gives the outcome the uninterrupted run
    /// gives; an image this configuration could not have written is an
    /// `Err`. The image's `events_applied` bounds the oids the object table
    /// is sized by, so the caller holds it against the log first, as
    /// [`crate::durable::restore`] does.
    pub(crate) fn restore(
        cfg: &RunConfig,
        level: TelemetryLevel,
        image: &GenerationImage,
    ) -> Result<Self> {
        if cfg.durability.is_enabled() {
            return Err(PgcError::InvalidConfig("a restored shard does not persist"));
        }
        let mut shard = Shard::new(cfg)?;
        shard.enable_telemetry(level);
        let bad = |what: &str| PgcError::TraceFormat(format!("run image: {what}"));
        let mut words = Words::new(&image.run);
        shard.replayer.load(image, &mut words)?;
        if words.flag()? != shard.telemetry.is_some() {
            return Err(bad("telemetry disagrees with the manifest"));
        }
        if let Some(telemetry) = &shard.telemetry {
            telemetry.load(&mut words, shard.replayer.db(), image.events_applied)?;
        }
        shard.next_sample = words.word()?;
        if shard.next_sample <= image.events_applied {
            return Err(bad("the next sample is already behind"));
        }
        for _ in 0..words.count()? {
            let point = SamplePoint {
                events: words.word()?,
                resident_bytes: Bytes(words.word()?),
                garbage_bytes: Bytes(words.word()?),
                footprint: Bytes(words.word()?),
                collections: words.word()?,
            };
            let last = shard.series.points().last().map_or(0, |p| p.events);
            if point.events < last || point.events > image.events_applied {
                return Err(bad("samples out of order"));
            }
            shard.series.push(point);
        }
        words.finish()?;
        Ok(shard)
    }

    /// Appends what a snapshot generation's run image holds for this shard
    /// beyond the partition images: the replayer's state (events applied,
    /// collection log, database bookkeeping, policy and trigger), the
    /// telemetry recorder's, and sampling's (next sample, series so far).
    /// [`Shard::restore`] reads it back.
    pub(crate) fn save_state(&self, out: &mut Vec<u64>) {
        save_run(
            &self.replayer,
            self.telemetry.as_ref(),
            &self.series,
            self.next_sample,
            out,
        );
    }

    /// Registers a bystander observer on the shard's barrier bus.
    pub fn add_observer(&mut self, observer: Box<dyn BarrierObserver>) {
        self.replayer.collector_mut().add_observer(observer);
    }

    /// Registers a telemetry tap at `level` (a no-op at
    /// [`TelemetryLevel::Off`] or when a tap is already riding the bus).
    /// The captured snapshot surfaces on [`RunOutcome::telemetry`] after
    /// [`Shard::finish`].
    pub fn enable_telemetry(&mut self, level: TelemetryLevel) {
        if level.is_enabled() && self.telemetry.is_none() {
            let (obs, handle) = TelemetryObserver::new(level, self.cfg.trigger_reason());
            self.replayer.collector_mut().add_observer(Box::new(obs));
            self.telemetry = Some(handle);
            self.telemetry_level = level;
        }
    }

    /// The telemetry level the shard records at.
    pub(crate) fn telemetry_level(&self) -> TelemetryLevel {
        self.telemetry_level
    }

    /// The store a durable shard persists through, for tests that watch it
    /// between steps.
    #[cfg(test)]
    pub(crate) fn store(&mut self) -> &mut DurableStore {
        &mut self.durable.as_mut().expect("a durable shard").store
    }

    /// The configuration the shard was built from.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// The shard's database.
    pub fn db(&self) -> &pgc_odb::Database {
        self.replayer.db()
    }

    /// The shard's collector (policy + scheduler + bus).
    pub fn collector(&self) -> &pgc_core::Collector {
        self.replayer.collector()
    }

    /// Events stepped so far.
    pub fn events_applied(&self) -> u64 {
        self.replayer.events_applied()
    }

    /// Resolves a workload node id to the shard-local database oid (the
    /// hook a sharded runtime uses to key cross-shard references).
    pub fn oid_of(&self, node: NodeId) -> Option<Oid> {
        self.replayer.oid_of(node)
    }

    /// Steps one event: write-ahead logs it (when durability is on),
    /// charges its I/O, pumps the barrier bus, collects when the trigger
    /// fires, takes a time-series sample at each configured boundary, and
    /// drives a durability safepoint when a collection completed.
    pub fn step(&mut self, event: &Event) -> Result<()> {
        if let Some(store) = self.log_ahead()? {
            store.append_event(event)?;
        }
        self.replayer.apply(event)?;
        self.maybe_sample();
        self.maybe_safepoint()
    }

    /// Steps a batch of events (a session inbox message, a recorded
    /// slice). Semantics are exactly [`Shard::step`] in order.
    pub fn step_batch(&mut self, events: &[Event]) -> Result<()> {
        for event in events {
            self.step(event)?;
        }
        Ok(())
    }

    /// Steps one decoded SoA block, stopping at each sample boundary
    /// inside it. Bit-identical to stepping the block's events one by one.
    /// Durability safepoints land at block granularity here (the whole
    /// block is logged ahead, then one safepoint check follows it) — the
    /// log stays a faithful write-ahead record either way.
    pub fn step_block(&mut self, block: &EventBlock) -> Result<()> {
        if let Some(store) = self.log_ahead()? {
            store.append_block(block)?;
        }
        if self.sample_every == u64::MAX {
            self.replayer.apply_block(block, 0, block.len())?;
            return self.maybe_safepoint();
        }
        let mut at = 0usize;
        while at < block.len() {
            let room = self
                .next_sample
                .saturating_sub(self.replayer.events_applied())
                .min((block.len() - at) as u64) as usize;
            self.replayer.apply_block(block, at, at + room)?;
            at += room;
            self.maybe_sample();
        }
        self.maybe_safepoint()
    }

    /// Write-ahead: events reach the change log before they are applied,
    /// and the manifest reaches disk before the first of them (written
    /// lazily so [`Shard::enable_telemetry`] can still run after
    /// [`Shard::new`]). Returns the store to log into, when durability is
    /// on.
    fn log_ahead(&mut self) -> Result<Option<&mut DurableStore>> {
        let Some(durable) = self.durable.as_mut() else {
            return Ok(None);
        };
        if !durable.manifest_written {
            let manifest = crate::durable::manifest_for(&self.cfg, self.telemetry_level);
            durable.store.write_manifest(&manifest)?;
            durable.manifest_written = true;
        }
        Ok(Some(&mut durable.store))
    }

    /// Persists a safepoint when collections completed since the last one.
    fn maybe_safepoint(&mut self) -> Result<()> {
        let Some(durable) = self.durable.as_mut() else {
            return Ok(());
        };
        let completed = self.replayer.db().stats().collections;
        if completed > durable.safepointed {
            let (replayer, telemetry) = (&self.replayer, self.telemetry.as_ref());
            let (series, next_sample) = (&self.series, self.next_sample);
            durable.store.safepoint(
                replayer.db(),
                replayer.events_applied(),
                completed,
                false,
                |out| save_run(replayer, telemetry, series, next_sample, out),
            )?;
            durable.safepointed = completed;
        }
        Ok(())
    }

    fn maybe_sample(&mut self) {
        if self.replayer.events_applied() >= self.next_sample {
            take_sample(&mut self.series, &self.replayer, &mut self.scratch);
            self.next_sample += self.sample_every;
        }
    }

    /// Condenses the shard into a [`RunOutcome`]: one final time-series
    /// sample (when sampling is on), a last oracle pass for the
    /// live/garbage split, the aggregate totals, the collection log, and
    /// the telemetry snapshot. When durability is on, the store is closed
    /// first — a forced final snapshot generation, the closing safepoint
    /// frame, and a last fsync — which is the only way this can fail. The
    /// closing generation is the shard as it stands before this, so a
    /// shard restored from it and finished gives this outcome.
    ///
    /// `gen_stats` labels the outcome with the workload generator's
    /// counters (zeroed for replays of unlabelled event slices).
    pub fn finish(mut self, gen_stats: GenStats) -> Result<RunOutcome> {
        let events = self.replayer.events_applied();
        let mut storage = None;
        if let Some(durable) = self.durable.as_mut() {
            let (replayer, telemetry) = (&self.replayer, self.telemetry.as_ref());
            let (series, next_sample) = (&self.series, self.next_sample);
            let db = replayer.db();
            durable
                .store
                .finish_with(db, events, db.stats().collections, |out| {
                    save_run(replayer, telemetry, series, next_sample, out)
                })?;
            storage = Some(durable.store.stats());
        }
        if self.cfg.sample_every.is_some() {
            take_sample(&mut self.series, &self.replayer, &mut self.scratch);
        }
        let db = self.replayer.db();
        let final_report = oracle::analyze_with(db, &mut self.scratch);
        let io = db.io_stats();
        let db_stats = db.stats();
        let totals = RunTotals {
            app_ios: io.app_ios(),
            gc_ios: io.gc_ios(),
            max_footprint: db.total_footprint(),
            partitions: db.partition_count(),
            collections: db_stats.collections,
            reclaimed_bytes: db_stats.reclaimed_bytes,
            reclaimed_objects: db_stats.reclaimed_objects,
            final_live_bytes: final_report.live_bytes,
            final_garbage_bytes: final_report.garbage_bytes,
            final_nepotism_bytes: final_report.nepotism_bytes,
            events,
        };
        let (_db, collector, collections) = self.replayer.into_parts();
        // The telemetry observer closes its in-flight activation record
        // when the collector drops it; finish the handle only after.
        drop(collector);
        let telemetry = self.telemetry.map(TelemetryHandle::finish);
        Ok(RunOutcome {
            policy: self.cfg.policy,
            seed: self.cfg.workload.seed,
            totals,
            series: self.series,
            db_stats,
            gen_stats,
            collections,
            telemetry,
            derive: None,
            storage,
        })
    }
}

/// [`Shard::save_state`] on the parts a safepoint can borrow while the
/// store is borrowed mutably.
fn save_run(
    replayer: &Replayer,
    telemetry: Option<&TelemetryHandle>,
    series: &TimeSeries,
    next_sample: u64,
    out: &mut Vec<u64>,
) {
    replayer.save(out);
    out.push(u64::from(telemetry.is_some()));
    if let Some(telemetry) = telemetry {
        telemetry.save(out);
    }
    out.push(next_sample);
    out.push(series.points().len() as u64);
    for p in series.points() {
        out.extend([
            p.events,
            p.resident_bytes.get(),
            p.garbage_bytes.get(),
            p.footprint.get(),
            p.collections,
        ]);
    }
}

fn take_sample(series: &mut TimeSeries, replayer: &Replayer, scratch: &mut OracleScratch) {
    let db = replayer.db();
    let report = oracle::analyze_with(db, scratch);
    series.push(SamplePoint {
        events: replayer.events_applied(),
        resident_bytes: db.resident_bytes(),
        garbage_bytes: report.garbage_bytes,
        footprint: db.total_footprint(),
        collections: db.stats().collections,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Simulation;
    use pgc_workload::SyntheticWorkload;

    #[test]
    fn stepping_a_shard_matches_a_simulation_run() {
        let cfg = RunConfig::small().with_seed(31).with_sampling(5_000);
        let via_sim = Simulation::builder(&cfg).run().unwrap();

        let mut generator = SyntheticWorkload::new(cfg.workload.clone()).unwrap();
        let mut shard = Shard::new(&cfg).unwrap();
        for event in generator.by_ref() {
            shard.step(&event).unwrap();
        }
        let via_shard = shard.finish(generator.stats()).unwrap();

        assert_eq!(via_sim.totals, via_shard.totals);
        assert_eq!(via_sim.collections, via_shard.collections);
        assert_eq!(via_sim.db_stats, via_shard.db_stats);
        assert_eq!(via_sim.gen_stats, via_shard.gen_stats);
        assert_eq!(via_sim.series.points(), via_shard.series.points());
    }

    #[test]
    fn a_zero_sampling_interval_is_rejected_not_spun_on() {
        // `with_sampling` clamps to 1; the public field does not. A zero
        // interval would leave `next_sample` at 0 forever: `step` would
        // sample at every event and `step_block` never advance past it.
        let mut cfg = RunConfig::small();
        cfg.sample_every = Some(0);
        let trace = pgc_workload::EncodedTrace::record(cfg.workload.clone()).unwrap();
        for builder in [
            Simulation::builder(&cfg),
            Simulation::builder(&cfg).trace(&trace),
        ] {
            let err = builder.run().unwrap_err();
            assert!(matches!(err, PgcError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn batch_boundaries_do_not_perturb_a_shard() {
        let cfg = RunConfig::small().with_seed(32);
        let events: Vec<Event> = SyntheticWorkload::new(cfg.workload.clone())
            .unwrap()
            .collect();

        let mut whole = Shard::new(&cfg).unwrap();
        whole.step_batch(&events).unwrap();
        let whole = whole.finish(GenStats::default()).unwrap();

        let mut chunked = Shard::new(&cfg).unwrap();
        // Ragged batch sizes: the session layer never sees tidy chunks.
        for chunk in events.chunks(97) {
            chunked.step_batch(chunk).unwrap();
        }
        let chunked = chunked.finish(GenStats::default()).unwrap();

        assert_eq!(whole.totals, chunked.totals);
        assert_eq!(whole.collections, chunked.collections);
    }

    #[test]
    fn telemetry_taps_the_shard_bus() {
        let cfg = RunConfig::small().with_seed(33);
        let events: Vec<Event> = SyntheticWorkload::new(cfg.workload.clone())
            .unwrap()
            .collect();
        let mut shard = Shard::new(&cfg).unwrap();
        shard.enable_telemetry(pgc_telemetry::TelemetryLevel::Full);
        shard.step_batch(&events).unwrap();
        let out = shard.finish(GenStats::default()).unwrap();
        let snap = out.telemetry.expect("telemetry requested");
        assert_eq!(snap.counters.activations, out.totals.collections);
        assert_eq!(snap.records.len() as u64, out.totals.collections);
    }
}
