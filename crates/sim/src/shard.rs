//! A self-contained simulation shard: one database plus everything that
//! drives it.
//!
//! [`Shard`] is the junction of the whole system and the one thing that
//! applies workload events. It holds a [`pgc_odb::Database`], the driving
//! policy and trigger scheduler inside a [`pgc_odb::Collector`], the
//! barrier event bus with its bystander observers, an optional telemetry
//! tap, an optional durable store, and time-series sampling state. Every
//! event charges its page I/O through the database, which logs typed
//! [`pgc_odb::BarrierEvent`]s; after each operation the shard pumps the log
//! through [`pgc_odb::Collector::sync`], which broadcasts the events to the
//! selection policy (and any bystanders) and reports whether the trigger
//! fired. Collections run the moment it does — matching the paper's setup,
//! in which collector invocation is "independent of the partition choice"
//! so every policy sees the same trigger points.
//!
//! Events enter one way, as SoA blocks cut anywhere ([`Shard::step_block`]),
//! and [`Shard::finish`] turns the shard into a [`RunOutcome`]. A durable
//! shard safepoints at each [`BLOCK_EVENTS`] boundary of the events applied
//! after which a collection completed, and at `finish`.
//!
//! Workload events name objects by dense [`NodeId`]s, and every create
//! event reserves the database's next oid, so node `n` *is* `Oid(n)`: the
//! same trace (recorded or generated) drives any number of databases and
//! policies with no map between the two id spaces.
//!
//! `Simulation::builder(cfg).run()` is exactly a 1-shard special case: it
//! builds one `Shard`, streams the configured event source into it, and
//! finishes it. A sharded runtime (the `pgc-server` crate) instead hosts
//! one `Shard` per client session across N worker threads — each shard
//! owns its partitions, policy, scheduler, and telemetry, so sessions
//! never share mutable state and per-stream results are bit-identical to
//! a dedicated single-`Simulation` run at any shard count. Server workers
//! lean on [`Shard::step_block`]'s invisibility guarantee: segments
//! arriving over the shard inboxes decode into SoA blocks wherever the
//! client happened to cut them, without changing any result or any byte
//! of the data directory, because the shard itself stops at every sample
//! and safepoint boundary inside a block.

use crate::durable::{DurableStore, GenerationImage};
use crate::metrics::{RunTotals, SamplePoint, TimeSeries};
use crate::run::{RunConfig, RunOutcome};
use crate::telemetry::{TelemetryHandle, TelemetryLevel, TelemetryObserver};
use pgc_odb::oracle::{self, OracleScratch};
use pgc_odb::{
    build_policy, BarrierObserver, CollectionOutcome, Collector, Database, SelectionPolicy, Trigger,
};
use pgc_types::{Bytes, Oid, PartitionId, PgcError, Result, SlotId, Words};
use pgc_workload::generator::GenStats;
use pgc_workload::{Event, EventBlock, NodeId, BLOCK_EVENTS};

/// The persistence half of a shard: the write side of a data directory
/// plus how far its safepoint frames have got (the store stays off the
/// bus — it needs `&Database` and file handles, which bystander observers
/// must not hold — so the shard compares counts at frame boundaries).
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
    db: Database,
    collector: Collector,
    events_applied: u64,
    collections: Vec<CollectionOutcome>,
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
        let policy = build_policy(cfg.policy, cfg.policy_seed(), cfg.db.max_weight);
        Self::build(cfg, policy)
    }

    /// [`Shard::new`] driven by a hand-built `policy` instead of the one
    /// `cfg.policy` names (a custom candidate slate, a reference
    /// implementation under test). A durable `cfg` is refused: a manifest
    /// can name only a [`pgc_odb::PolicyKind`], so recovery could not
    /// rebuild the run.
    pub fn with_policy(cfg: &RunConfig, policy: Box<dyn SelectionPolicy>) -> Result<Self> {
        if cfg.durability.is_enabled() {
            return Err(PgcError::InvalidConfig(
                "a hand-built policy cannot persist: a manifest names only a policy kind",
            ));
        }
        Self::build(cfg, policy)
    }

    fn build(cfg: &RunConfig, policy: Box<dyn SelectionPolicy>) -> Result<Self> {
        if cfg.sample_every == Some(0) {
            return Err(PgcError::InvalidConfig(
                "sample_every must be at least 1 event",
            ));
        }
        let trigger = cfg.effective_trigger();
        if matches!(
            trigger,
            Trigger::OverwriteCount(0) | Trigger::AllocationBytes(Bytes(0))
        ) {
            return Err(PgcError::InvalidConfig(
                "a trigger must count at least 1 overwrite or byte",
            ));
        }
        let db = Database::new(cfg.db.clone())?;
        let collector = Collector::with_trigger(policy, trigger);
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
            db,
            collector,
            events_applied: 0,
            collections: Vec::new(),
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
        shard.events_applied = words.word()?;
        if shard.events_applied != image.events_applied {
            return Err(bad("events applied disagree with the header"));
        }
        let n = words.count()?;
        shard.collections = Vec::with_capacity(n);
        for _ in 0..n {
            shard.collections.push(CollectionOutcome {
                victim: PartitionId(words.word_u32()?),
                target: PartitionId(words.word_u32()?),
                live_objects: words.word()?,
                live_bytes: Bytes(words.word()?),
                garbage_objects: words.word()?,
                garbage_bytes: Bytes(words.word()?),
                forwarded_pointers: words.word()?,
                gc_reads: words.word()?,
                gc_writes: words.word()?,
            });
        }
        shard.db = Database::restore(
            cfg.db.clone(),
            image.partitions(),
            image.events_applied,
            image.records(),
            &mut words,
        )?;
        let collections = shard.db.stats().collections;
        if collections != image.collections || collections != n as u64 {
            return Err(bad("collection counts disagree"));
        }
        shard.collector.load(&mut words, image.events_applied)?;
        if words.flag()? != shard.telemetry.is_some() {
            return Err(bad("telemetry disagrees with the manifest"));
        }
        if let Some(telemetry) = &shard.telemetry {
            telemetry.load(&mut words, &shard.db, image.events_applied)?;
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
    /// beyond the partition images: events applied, the collection log, the
    /// database's bookkeeping, the collector's (policy, then trigger), the
    /// telemetry recorder's, and sampling's (next sample, series so far).
    /// [`Shard::restore`] reads it back.
    pub(crate) fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.events_applied);
        out.push(self.collections.len() as u64);
        for c in &self.collections {
            out.extend([
                u64::from(c.victim.index()),
                u64::from(c.target.index()),
                c.live_objects,
                c.live_bytes.get(),
                c.garbage_objects,
                c.garbage_bytes.get(),
                c.forwarded_pointers,
                c.gc_reads,
                c.gc_writes,
            ]);
        }
        self.db.save_state(out);
        self.collector.save(out);
        out.push(u64::from(self.telemetry.is_some()));
        if let Some(telemetry) = &self.telemetry {
            telemetry.save(out);
        }
        out.push(self.next_sample);
        out.push(self.series.points().len() as u64);
        for p in self.series.points() {
            out.extend([
                p.events,
                p.resident_bytes.get(),
                p.garbage_bytes.get(),
                p.footprint.get(),
                p.collections,
            ]);
        }
    }

    /// Registers a bystander observer on the shard's barrier bus.
    pub fn add_observer(&mut self, observer: Box<dyn BarrierObserver>) {
        self.collector.add_observer(observer);
    }

    /// Registers a telemetry tap at `level` (a no-op at
    /// [`TelemetryLevel::Off`] or when a tap is already riding the bus).
    /// The captured snapshot surfaces on [`RunOutcome::telemetry`] after
    /// [`Shard::finish`].
    pub fn enable_telemetry(&mut self, level: TelemetryLevel) {
        if level.is_enabled() && self.telemetry.is_none() {
            let (obs, handle) = TelemetryObserver::new(level, self.cfg.trigger_reason());
            self.collector.add_observer(Box::new(obs));
            self.telemetry = Some(handle);
            self.telemetry_level = level;
        }
    }

    /// The telemetry level the shard records at.
    pub(crate) fn telemetry_level(&self) -> TelemetryLevel {
        self.telemetry_level
    }

    /// The store a durable shard persists through (`None` for one that
    /// does not persist), for tests that watch it between steps.
    #[cfg(test)]
    pub(crate) fn store(&mut self) -> Option<&mut DurableStore> {
        self.durable.as_mut().map(|durable| &mut durable.store)
    }

    /// The configuration the shard was built from.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// The shard's database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The shard's collector (policy + scheduler + bus).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Events stepped so far.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Resolves a workload node id to the shard-local database oid:
    /// `Oid(n)` for every node created so far, reclaimed or not (the hook a
    /// sharded runtime uses to key cross-shard references).
    pub fn oid_of(&self, node: NodeId) -> Option<Oid> {
        (node.index() < self.db.objects().oid_bound()).then_some(Oid(node.index()))
    }

    fn oid(&self, node: NodeId) -> Result<Oid> {
        self.oid_of(node).ok_or(PgcError::UnknownNode(node.index()))
    }

    /// A create event must name the next dense id. A checksum-valid trace
    /// or change log with a frame spliced in twice repeats ids; accepting
    /// one would map every later node onto the wrong object.
    fn expect_next_node(&self, node: NodeId) -> Result<()> {
        let expected = self.db.objects().oid_bound();
        if node.index() == expected {
            return Ok(());
        }
        Err(PgcError::TraceFormat(format!(
            "create event names node {}, expected the next dense id {expected}",
            node.index()
        )))
    }

    /// Steps one SoA block, cut at every [`BLOCK_EVENTS`] boundary of the
    /// events applied: each piece is logged ahead (when durability is on),
    /// applied with a sample at each configured boundary inside it, and,
    /// if it ends on a boundary after which a collection completed,
    /// followed by a safepoint. So neither results nor data directory
    /// depend on the cut; a feed of whole `BLOCK_EVENTS` blocks splits none.
    pub fn step_block(&mut self, block: &EventBlock) -> Result<()> {
        const FRAME: u64 = BLOCK_EVENTS as u64;
        let mut at = 0usize;
        while at < block.len() {
            let to_boundary = FRAME - self.events_applied % FRAME;
            let end = block.len().min(at + to_boundary as usize);
            if let Some(store) = self.log_ahead()? {
                store.append_block(block, at..end)?;
            }
            self.apply_sampled(block, at, end)?;
            if self.events_applied.is_multiple_of(FRAME) {
                self.maybe_safepoint()?;
            }
            at = end;
        }
        Ok(())
    }

    /// Applies events `start..end` of `block`, stopping at each sample
    /// boundary inside them.
    fn apply_sampled(&mut self, block: &EventBlock, start: usize, end: usize) -> Result<()> {
        if self.sample_every == u64::MAX {
            return self.apply_range(block, start, end);
        }
        let mut at = start;
        while at < end {
            let room = self
                .next_sample
                .saturating_sub(self.events_applied)
                .min((end - at) as u64) as usize;
            self.apply_range(block, at, at + room)?;
            at += room;
            self.maybe_sample();
        }
        Ok(())
    }

    /// Applies events `start..end` of `block`. The loop stays a function of
    /// its own: written inline in `step_block`, with or without the
    /// unsampled shortcut, it replayed `fleet_roundtrip` 1–2% slower.
    fn apply_range(&mut self, block: &EventBlock, start: usize, end: usize) -> Result<()> {
        for i in start..end {
            self.apply(&block.get(i))?;
        }
        Ok(())
    }

    /// Applies one event (charging I/O, pumping the barrier bus, collecting
    /// when due).
    ///
    /// The pump is uniform: whatever the operation logged — allocations,
    /// growth, pointer or data writes — is drained through the collector
    /// after the operation completes, and the due-check covers the whole
    /// batch. Operations that log nothing (`AddSlot`, `Visit`) drain an
    /// empty log, and the sticky trigger can never be due there because any
    /// due state is consumed at the operation that caused it.
    fn apply(&mut self, event: &Event) -> Result<()> {
        match *event {
            Event::CreateRoot { node, size, slots } => {
                self.expect_next_node(node)?;
                self.db.create_root(size, slots as usize)?;
            }
            Event::CreateChild {
                node,
                parent,
                parent_slot,
                size,
                slots,
            } => {
                self.expect_next_node(node)?;
                let parent_oid = self.oid(parent)?;
                self.db
                    .create_object(size, slots as usize, parent_oid, SlotId(parent_slot))?;
            }
            Event::WritePointer { owner, slot, new } => {
                let owner_oid = self.oid(owner)?;
                let new_oid = new.map(|n| self.oid(n)).transpose()?;
                self.db.write_slot(owner_oid, SlotId(slot), new_oid)?;
            }
            Event::AddSlot { owner } => {
                let owner_oid = self.oid(owner)?;
                self.db.add_slot(owner_oid)?;
            }
            Event::Visit { node } => {
                self.db.visit(self.oid(node)?)?;
            }
            Event::DataWrite { node } => {
                let oid = self.oid(node)?;
                self.db.data_write(oid)?;
            }
        }
        if self.collector.sync(&mut self.db) {
            if let Some(outcome) = self.collector.maybe_collect(&mut self.db)? {
                self.collections.push(outcome);
            }
        }
        self.events_applied += 1;
        Ok(())
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
        let completed = self.db.stats().collections;
        // The store is lifted out while it writes the run image the rest
        // of the shard describes, and put back whatever the outcome.
        let Some(mut durable) = self.durable.take_if(|d| completed > d.safepointed) else {
            return Ok(());
        };
        let landed =
            durable
                .store
                .safepoint(&self.db, self.events_applied, completed, false, |out| {
                    self.save_state(out)
                });
        if landed.is_ok() {
            durable.safepointed = completed;
        }
        self.durable = Some(durable);
        landed
    }

    fn maybe_sample(&mut self) {
        if self.events_applied >= self.next_sample {
            self.take_sample();
            self.next_sample += self.sample_every;
        }
    }

    fn take_sample(&mut self) {
        let report = oracle::analyze_with(&self.db, &mut self.scratch);
        self.series.push(SamplePoint {
            events: self.events_applied,
            resident_bytes: self.db.resident_bytes(),
            garbage_bytes: report.garbage_bytes,
            footprint: self.db.total_footprint(),
            collections: self.db.stats().collections,
        });
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
        let events = self.events_applied;
        let mut storage = None;
        if let Some(mut durable) = self.durable.take() {
            let collections = self.db.stats().collections;
            durable
                .store
                .finish_with(&self.db, events, collections, |out| self.save_state(out))?;
            storage = Some(durable.store.stats());
        }
        if self.cfg.sample_every.is_some() {
            self.take_sample();
        }
        let db = &self.db;
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
        // The telemetry observer closes its in-flight activation record
        // when the collector drops it; finish the handle only after.
        drop(self.collector);
        let telemetry = self.telemetry.map(TelemetryHandle::finish);
        Ok(RunOutcome {
            policy: self.cfg.policy,
            seed: self.cfg.workload.seed,
            totals,
            series: self.series,
            db_stats,
            gen_stats,
            collections: self.collections,
            telemetry,
            derive: None,
            storage,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{DurabilityConfig, ScratchDir};
    use crate::run::Simulation;
    use pgc_odb::PolicyKind;
    use pgc_workload::{AssemblyParams, AssemblyWorkload, SyntheticWorkload};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn a_zero_sampling_interval_is_rejected_not_spun_on() {
        // `with_sampling` clamps to 1; the public field does not. A zero
        // interval would leave `next_sample` at 0 forever, and `step_block`
        // would never advance past it.
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
    fn a_hand_built_policy_does_not_persist() {
        let dir = ScratchDir::new("hand-built");
        let data = dir.join("run");
        let cfg = RunConfig::small().with_durability(DurabilityConfig::log_only(&data));
        let policy = build_policy(cfg.policy, cfg.policy_seed(), cfg.db.max_weight);
        let err = Shard::with_policy(&cfg, policy).err().expect("refused");
        assert!(matches!(err, PgcError::InvalidConfig(_)), "{err}");
        assert!(!data.exists(), "no data directory is created");
    }

    #[test]
    fn batch_boundaries_do_not_perturb_a_shard() {
        let cfg = RunConfig::small().with_seed(32);
        let events: Vec<Event> = SyntheticWorkload::new(cfg.workload.clone())
            .unwrap()
            .collect();

        let mut whole = Shard::new(&cfg).unwrap();
        whole.step_block(&events.iter().copied().collect()).unwrap();
        let whole = whole.finish(GenStats::default()).unwrap();

        let mut chunked = Shard::new(&cfg).unwrap();
        // Ragged batch sizes: the session layer never sees tidy chunks.
        for chunk in events.chunks(97) {
            chunked
                .step_block(&chunk.iter().copied().collect())
                .unwrap();
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
        shard.enable_telemetry(crate::telemetry::TelemetryLevel::Full);
        shard.step_block(&events.iter().copied().collect()).unwrap();
        let out = shard.finish(GenStats::default()).unwrap();
        let snap = out.telemetry.expect("telemetry requested");
        assert_eq!(snap.counters.activations, out.totals.collections);
        assert_eq!(snap.records.len() as u64, out.totals.collections);
    }

    #[test]
    fn reachable_objects_survive_the_whole_run() {
        // Every node the mirror still considers attached must exist in the
        // database at the end of a collected run.
        let cfg = RunConfig::small()
            .with_policy(PolicyKind::MostGarbage)
            .with_seed(5);
        let mut gen = SyntheticWorkload::new(cfg.workload.clone()).unwrap();
        let mut shard = Shard::new(&cfg).unwrap();
        let mut block = EventBlock::new();
        while gen.next_block(&mut block) > 0 {
            shard.step_block(&block).unwrap();
        }
        let mirror = gen.mirror();
        for t in 0..mirror.tree_count() as u32 {
            for n in mirror.members_of(t).map(|i| NodeId(i.into())) {
                if mirror.is_attached(n) {
                    let oid = shard.oid_of(n).unwrap();
                    assert!(
                        shard.db().objects().contains(oid),
                        "attached node {n} was reclaimed"
                    );
                }
            }
        }
    }

    /// Taps the oid of every allocation on the bus.
    struct Allocations(Rc<RefCell<Vec<u64>>>);

    impl BarrierObserver for Allocations {
        fn on_event(&mut self, event: &pgc_odb::BarrierEvent) {
            if let pgc_odb::BarrierEvent::Allocation { oid, .. } = event {
                self.0.borrow_mut().push(oid.index());
            }
        }
    }

    #[test]
    fn node_n_is_oid_n_under_every_policy() {
        let tree: Vec<Event> = SyntheticWorkload::new(RunConfig::small().with_seed(7).workload)
            .unwrap()
            .collect();
        let assembly: Vec<Event> = AssemblyWorkload::new(AssemblyParams::small().with_seed(7))
            .unwrap()
            .collect();
        for events in [&tree, &assembly] {
            let created: Vec<u64> = events
                .iter()
                .filter_map(|e| match *e {
                    Event::CreateRoot { node, .. } | Event::CreateChild { node, .. } => {
                        Some(node.index())
                    }
                    _ => None,
                })
                .collect();
            for policy in PolicyKind::ALL {
                let allocated = Rc::new(RefCell::new(Vec::new()));
                let mut shard = Shard::new(&RunConfig::small().with_policy(policy)).unwrap();
                shard.add_observer(Box::new(Allocations(Rc::clone(&allocated))));
                shard.step_block(&events.iter().copied().collect()).unwrap();
                assert_eq!(*allocated.borrow(), created, "{policy}: node n is oid n");
                for &n in &created {
                    assert_eq!(shard.oid_of(NodeId(n)), Some(Oid(n)), "{policy}");
                }
                assert_eq!(shard.oid_of(NodeId(created.len() as u64)), None, "{policy}");
            }
        }
    }

    #[test]
    fn unknown_node_reference_errors() {
        let mut shard = Shard::new(&RunConfig::small().with_policy(PolicyKind::Random)).unwrap();
        let visit = Event::Visit { node: NodeId(99) };
        let err = shard
            .step_block(&[visit].into_iter().collect())
            .unwrap_err();
        // The error names the workload node, not a fabricated object id —
        // the two id spaces are unrelated.
        assert!(matches!(err, PgcError::UnknownNode(99)), "{err:?}");
    }
}
