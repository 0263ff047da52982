//! [`DurableStore`]: the run-side persistence handle.
//!
//! One store per shard (one data directory per stream). The owning shard
//! feeds it every input event *before* applying it (write-ahead), framed
//! every [`pgc_workload::BLOCK_EVENTS`] events, and drives
//! [`DurableStore::safepoint`] at each frame boundary after which a
//! collection completed ([`DurableStore::finish_with`] adds the closing
//! one). So every frame but the last is whole, every generation sits on a
//! frame boundary, and the directory depends on the run alone, not on how
//! its events were cut. The owning thread waits for the disk at segment
//! rotation and shutdown only: a snapshot generation costs it one
//! serialising pass over the object table plus the owner's run-image
//! words, and the generation's two fsyncs — the log up to its safepoint
//! frame, then the one file it lands as — happen on the store's background
//! thread, in that order. That order is what makes a landed generation a
//! restore point: recovery loads the newest one whose safepoint frame the
//! log holds and replays only the events after it.

use super::config::DurabilityConfig;
use super::io_err;
use super::log::LogWriter;
use super::manifest::{Manifest, MANIFEST_FILE};
use pgc_odb::Database;
use pgc_types::{PgcError, Result};
use pgc_workload::{encode_event, Event, EventBlock, BLOCK_EVENTS};
use std::fs;
use std::ops::Range;

/// Byte and operation counters for one store's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Bytes appended to the change log (headers + frames).
    pub log_bytes: u64,
    /// Frames appended to the change log.
    pub log_frames: u64,
    /// Log segment files written.
    pub log_segments: u64,
    /// `fsync` calls issued on the change log (snapshot files are counted
    /// in `snapshot_fsyncs`): the synchronous ones at rotation and
    /// shutdown, plus one per generation the background writer has
    /// reported landed — so mid-run it trails by the generations still in
    /// flight.
    pub fsyncs: u64,
    /// Partition images handed to the background writer (all of them on
    /// disk once [`DurableStore::finish`] has returned); a generation's
    /// run image is not counted.
    pub snapshots: u64,
    /// Bytes in the generation files: those images and the run images.
    pub snapshot_bytes: u64,
    /// `fsync` calls the background writer has reported for generation
    /// files: one per generation landed so far.
    pub snapshot_fsyncs: u64,
    /// Safepoints driven (collection boundaries persisted).
    pub safepoints: u64,
}

/// The write side of a data directory: change log + snapshots + manifest.
pub struct DurableStore {
    cfg: DurabilityConfig,
    writer: LogWriter,
    /// Encoded-but-unframed events (flushed at block granularity).
    scratch: Vec<u8>,
    pending: u32,
    /// Next snapshot generation (1-based).
    generation: u64,
    /// Safepoints since the last snapshot generation.
    since_snapshot: u64,
    snapshots: u64,
    snapshot_bytes: u64,
    safepoints: u64,
}

impl DurableStore {
    /// Creates the data directory and opens the first log segment. Fails
    /// if the directory already holds a previous run's manifest (refusing
    /// to silently shadow recoverable data).
    pub fn create(cfg: &DurabilityConfig) -> Result<Self> {
        debug_assert!(cfg.is_enabled());
        fs::create_dir_all(&cfg.dir).map_err(io_err)?;
        if cfg.dir.join(MANIFEST_FILE).exists() {
            return Err(PgcError::TraceIo(format!(
                "data dir {} already holds a run (remove it first)",
                cfg.dir.display()
            )));
        }
        let writer = LogWriter::create(&cfg.dir, cfg.segment_bytes)?;
        Ok(Self {
            cfg: cfg.clone(),
            writer,
            scratch: Vec::with_capacity(BLOCK_EVENTS * 16),
            pending: 0,
            generation: 1,
            since_snapshot: 0,
            snapshots: 0,
            snapshot_bytes: 0,
            safepoints: 0,
        })
    }

    /// Writes the run manifest (called once by the owner before the first
    /// event lands).
    pub fn write_manifest(&self, manifest: &Manifest) -> Result<()> {
        manifest.write_to(&self.cfg.dir)
    }

    /// Buffers a batch of input events.
    pub fn append_events(&mut self, events: &[Event]) -> Result<()> {
        self.append_run(events.len(), |i| events[i])
    }

    /// Buffers events `range` of a decoded block, cutting frames every
    /// [`BLOCK_EVENTS`] events whatever the cut of the blocks.
    ///
    /// A whole block that still holds the bytes it was decoded from
    /// ([`EventBlock::encoded`]) and fits in the frame being filled is
    /// logged as those bytes; anything else — a block built from pushes,
    /// part of a block, or a block that straddles a frame boundary, whose
    /// cut falls at a byte offset only a decode can find — is re-encoded.
    /// Either way the frame decodes to the block's events, and for bytes
    /// our encoder wrote the two are the same bytes.
    pub fn append_block(&mut self, block: &EventBlock, range: Range<usize>) -> Result<()> {
        let room = BLOCK_EVENTS - self.pending as usize;
        match block.encoded() {
            Some(bytes) if range == (0..block.len()) && block.len() <= room => {
                self.scratch.extend_from_slice(bytes);
                self.pending += block.len() as u32;
                if self.pending as usize == BLOCK_EVENTS {
                    self.flush_pending()?;
                }
                Ok(())
            }
            _ => self.append_run(range.len(), |i| block.get(range.start + i)),
        }
    }

    /// Encodes events `0..len` in whole frame-sized runs, one tight loop
    /// between flushes.
    fn append_run(&mut self, len: usize, event_at: impl Fn(usize) -> Event) -> Result<()> {
        let mut at = 0;
        while at < len {
            let end = len.min(at + BLOCK_EVENTS - self.pending as usize);
            for i in at..end {
                encode_event(&mut self.scratch, &event_at(i));
            }
            self.pending += (end - at) as u32;
            if self.pending as usize >= BLOCK_EVENTS {
                self.flush_pending()?;
            }
            at = end;
        }
        Ok(())
    }

    fn flush_pending(&mut self) -> Result<()> {
        if self.pending > 0 {
            self.writer.append_events(self.pending, &self.scratch)?;
            self.scratch.clear();
            self.pending = 0;
        }
        Ok(())
    }

    /// Drives one safepoint: flushes buffered events, takes a snapshot
    /// generation when the cadence (or `force_snapshot`) says so, and
    /// appends the safepoint frame. The log is flushed to the OS at every
    /// safepoint; none waits for the disk.
    ///
    /// Taking a generation serialises every partition here, then `run`
    /// appends the owner's state for the run image (it is called only
    /// then), and hands the bytes to the background writer, which fsyncs
    /// the log and then lands the file after this returns (see
    /// [`DurableStore::finish_with`]). At most one generation waits behind
    /// the one being written: a further one blocks here until the writer
    /// has caught up. An error the writer met since the previous call is
    /// returned from this one.
    pub(crate) fn safepoint(
        &mut self,
        db: &Database,
        events_applied: u64,
        collections: u64,
        force_snapshot: bool,
        run: impl FnOnce(&mut Vec<u64>),
    ) -> Result<()> {
        self.flush_pending()?;
        let mut generation = None;
        if self.cfg.snapshots_enabled() {
            self.writer.flusher.poll()?;
            self.since_snapshot += 1;
            if force_snapshot || self.since_snapshot >= self.cfg.snapshot_every {
                let mut file = self.writer.flusher.next_generation()?;
                file.capture(db, [self.generation, events_applied, collections], run)?;
                self.snapshots += u64::from(file.images());
                self.snapshot_bytes += file.total_bytes();
                generation = Some(file);
                self.generation += 1;
                self.since_snapshot = 0;
            }
        }
        self.writer
            .safepoint(events_applied, collections, generation)?;
        self.safepoints += 1;
        Ok(())
    }

    /// Clean shutdown: final safepoint (with a final snapshot generation
    /// when snapshots are enabled, whose run image `run` writes), then
    /// waits for every generation to land behind its log fsync, then a last
    /// fsync of the log.
    pub(crate) fn finish_with(
        &mut self,
        db: &Database,
        events_applied: u64,
        collections: u64,
        run: impl FnOnce(&mut Vec<u64>),
    ) -> Result<()> {
        self.safepoint(db, events_applied, collections, true, run)?;
        self.writer.flusher.drain()?;
        self.writer.finish()
    }

    /// The clean shutdown of an owner that keeps no run state:
    /// a closing generation's run image is empty, which no restore
    /// accepts, so only a log-only store should close this way.
    pub fn finish(&mut self, db: &Database, events_applied: u64, collections: u64) -> Result<()> {
        self.finish_with(db, events_applied, collections, |_| {})
    }

    /// Counters so far.
    pub fn stats(&self) -> StorageStats {
        StorageStats {
            log_bytes: self.writer.bytes_written,
            log_frames: self.writer.frames,
            log_segments: self.writer.segments,
            fsyncs: self.writer.fsyncs + self.writer.flusher.generations_landed,
            snapshots: self.snapshots,
            snapshot_bytes: self.snapshot_bytes,
            snapshot_fsyncs: self.writer.flusher.generations_landed,
            safepoints: self.safepoints,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::durable::log::{read_log_from, segment_name, MAX_IN_FLIGHT};
    use crate::durable::snapshot::snapshot_name;
    use crate::durable::{capture_generation, read_log, restore, scan_snapshots, ScratchDir};
    use crate::run::{RunConfig, RunOutcome};
    use crate::shard::Shard;
    use crate::telemetry::TelemetryLevel;
    use pgc_types::Bytes;
    use pgc_workload::generator::GenStats;
    use pgc_workload::{EncodedTrace, NodeId, SyntheticWorkload};
    use std::sync::mpsc;
    use std::time::Duration;

    fn events(n: u64) -> Vec<Event> {
        (0..n)
            .map(|i| Event::CreateRoot {
                node: NodeId(i),
                size: Bytes(64),
                slots: 2,
            })
            .collect()
    }

    #[test]
    fn log_round_trips_events_and_safepoints() {
        let dir = ScratchDir::new("store");
        let cfg = DurabilityConfig::log_only(dir.path());
        let mut store = DurableStore::create(&cfg).unwrap();
        let evs = events(10_000);
        store.append_events(&evs[..6_000]).unwrap();
        // A mid-run safepoint needs a database; LogOnly never touches it,
        // so a minimal one suffices.
        let db = Database::new(pgc_types::DbConfig::default()).unwrap();
        store.safepoint(&db, 6_000, 1, false, |_| {}).unwrap();
        store.append_events(&evs[6_000..]).unwrap();
        store.finish(&db, 10_000, 2).unwrap();

        let log = read_log(dir.path()).unwrap();
        assert_eq!(log.trace.cursor().decode_all().unwrap(), evs);
        assert!(log.torn.is_none());
        assert_eq!(log.safepoints.len(), 2);
        assert_eq!(log.safepoints[0].events_applied, 6_000);
        assert_eq!(log.safepoints[1].collections, 2);
        let stats = store.stats();
        assert!(stats.log_bytes > 0);
        assert!(stats.fsyncs >= 1, "shutdown always fsyncs");
        assert_eq!(stats.safepoints, 2);
    }

    #[test]
    fn a_torn_tail_is_dropped_cleanly_at_every_truncation_point() {
        let dir = ScratchDir::new("torn");
        let cfg = DurabilityConfig::log_only(dir.path());
        let mut store = DurableStore::create(&cfg).unwrap();
        let evs = events(1_000);
        store.append_events(&evs).unwrap();
        let db = Database::new(pgc_types::DbConfig::default()).unwrap();
        store.finish(&db, 1_000, 0).unwrap();
        let path = dir.join(segment_name(0));
        let full = fs::read(&path).unwrap();
        let whole = read_log(dir.path()).unwrap();
        assert_eq!(whole.trace.cursor().decode_all().unwrap(), evs);

        // Chop the file at a sweep of lengths: every prefix must parse to
        // a clean event prefix (or nothing), never crash or misdecode.
        for cut in (24..full.len()).step_by(97) {
            fs::write(&path, &full[..cut]).unwrap();
            let prefix = read_log(dir.path())
                .unwrap()
                .trace
                .cursor()
                .decode_all()
                .unwrap();
            assert!(prefix.len() <= evs.len());
            assert_eq!(prefix[..], evs[..prefix.len()]);
        }

        // Corrupt (rather than truncate) the tail: checksum must catch it.
        // Flip a byte inside the events frame so its whole frame drops.
        let mut corrupt = full.clone();
        corrupt[40] ^= 0xFF;
        fs::write(&path, &corrupt).unwrap();
        let log = read_log(dir.path()).unwrap();
        assert!(log.torn.is_some());
        assert!(log.trace.events() < evs.len() as u64);
    }

    #[test]
    fn refuses_to_reuse_a_populated_data_dir() {
        let dir = ScratchDir::new("reuse");
        let cfg = DurabilityConfig::log_only(dir.path());
        let store = DurableStore::create(&cfg).unwrap();
        store.write_manifest(&Manifest::default()).unwrap();
        assert!(DurableStore::create(&cfg).is_err());
    }

    #[test]
    fn segments_rotate_at_the_configured_size() {
        let dir = ScratchDir::new("rotate");
        let cfg = DurabilityConfig::log_only(dir.path()).with_segment_bytes(4 << 10);
        let mut store = DurableStore::create(&cfg).unwrap();
        let db = Database::new(pgc_types::DbConfig::default()).unwrap();
        let evs = events(4_000);
        for chunk in evs.chunks(500) {
            store.append_events(chunk).unwrap();
            let applied = store.stats().safepoints;
            store
                .safepoint(&db, 500 * (applied + 1), applied + 1, false, |_| {})
                .unwrap();
        }
        store.finish(&db, 4_000, 9).unwrap();
        let log = read_log(dir.path()).unwrap();
        assert!(log.segments > 1, "expected rotation, got {}", log.segments);
        assert_eq!(log.trace.cursor().decode_all().unwrap(), evs);
    }

    #[test]
    fn generation_safepoints_that_rotate_keep_every_fsync_and_every_frame() {
        // Every safepoint carries a generation and overflows the 4 KiB
        // segment. The handle handed over is duplicated before the
        // rotation, so it is the segment the frame went to (which rotation
        // then seals with its own synchronous sync), not the fresh one
        // behind it; what can be heard of that is every count and where
        // each frame sits.
        let dir = ScratchDir::new("rotate-gen");
        let cfg = DurabilityConfig::snapshot_and_log(dir.path()).with_segment_bytes(4 << 10);
        let mut store = DurableStore::create(&cfg).unwrap();
        let db = Database::new(pgc_types::DbConfig::default()).unwrap();
        let evs = events(4_000);
        for (i, chunk) in evs.chunks(500).enumerate() {
            store.append_events(chunk).unwrap();
            let done = i as u64 + 1;
            store
                .safepoint(&db, 500 * done, done, true, |_| {})
                .unwrap();
            assert_eq!(store.stats().log_segments, done + 1, "rotated at {done}");
        }
        store.finish(&db, 4_000, 9).unwrap();
        let stats = store.stats();
        assert_eq!(stats.snapshot_fsyncs, 9, "eight mid-run generations + 1");
        assert_eq!(
            stats.fsyncs,
            8 + 9 + 1,
            "one per rotation, one per generation, one at shutdown"
        );
        let log = read_log(dir.path()).unwrap();
        assert_eq!(log.segments, 9);
        assert_eq!(log.trace.cursor().decode_all().unwrap(), evs);
        let generations: Vec<u64> = log.safepoints.iter().map(|s| s.generation).collect();
        assert_eq!(generations, (1..=9).collect::<Vec<u64>>());
        // Each mid-run frame is the last thing in its segment: the next
        // segment starts at the event count the frame recorded, which
        // `read_log` has checked segment by segment.
        for (seq, frame) in log.safepoints[..8].iter().enumerate() {
            let segment = fs::read(dir.join(segment_name(seq as u64))).unwrap();
            let tail = &segment[segment.len() - 4 - 24..segment.len() - 4];
            assert_eq!(
                tail[..8],
                frame.events_applied.to_le_bytes(),
                "segment {seq}"
            );
            assert_eq!(tail[16..], frame.generation.to_le_bytes(), "segment {seq}");
        }
    }

    #[test]
    fn a_log_read_from_a_restore_point_checks_only_headers_before_it() {
        // A safepoint after every 500 events, each overflowing the 4 KiB
        // segment: segment k starts at event 500 k, and the frame of the
        // safepoint at 500 k closes segment k - 1.
        let dir = ScratchDir::new("from");
        let cfg = DurabilityConfig::log_only(dir.path()).with_segment_bytes(4 << 10);
        let mut store = DurableStore::create(&cfg).unwrap();
        let db = Database::new(pgc_types::DbConfig::default()).unwrap();
        let evs = events(4_000);
        for (i, chunk) in evs.chunks(500).enumerate() {
            store.append_events(chunk).unwrap();
            let done = i as u64 + 1;
            store
                .safepoint(&db, 500 * done, done, false, |_| {})
                .unwrap();
        }
        store.finish(&db, 4_000, 9).unwrap();
        let segment = |seq: u64| dir.join(segment_name(seq));
        let from = read_log_from(dir.path(), 2_500).unwrap();
        assert_eq!(from.start_event, 2_500);
        assert_eq!(from.trace.cursor().decode_all().unwrap(), evs[2_500..]);
        let first = from.safepoints[0];
        assert_eq!((first.events_applied, first.collections), (2_500, 5));
        assert_eq!(from.segments, 9);

        // A damaged frame in segment 0 fails the whole read, not the read
        // from event 2,500 on.
        let clean = fs::read(segment(0)).unwrap();
        let mut damaged = clean.clone();
        damaged[40] ^= 0xFF;
        fs::write(segment(0), &damaged).unwrap();
        assert!(read_log(dir.path()).is_err());
        let past = read_log_from(dir.path(), 2_500).unwrap();
        assert_eq!(past.trace.cursor().decode_all().unwrap(), evs[2_500..]);
        // A header that lies is caught wherever it is.
        let mut lying = clean.clone();
        lying[16] = 7;
        fs::write(segment(0), &lying).unwrap();
        assert!(read_log_from(dir.path(), 2_500).is_err());
        fs::write(segment(0), &clean).unwrap();

        // The newest segment cut inside its header is a torn tail, and the
        // log ends where the one before it does.
        let newest = segment(8);
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..10]).unwrap();
        let log = read_log(dir.path()).unwrap();
        assert_eq!(log.trace.cursor().decode_all().unwrap(), evs);
        let torn = log.torn.expect("a torn header");
        assert_eq!((torn.segment, torn.offset), (8, 0));
    }

    /// `cfg`'s run, telemetry recorded at `Full`, stepped through a `Shard`
    /// in `stops` blocks, stopping after each; the shard persists the run
    /// when `cfg` says so.
    pub(crate) fn churn(
        cfg: &RunConfig,
        stops: usize,
        mut at_stop: impl FnMut(usize, &mut Shard),
    ) -> RunOutcome {
        let events: Vec<Event> = SyntheticWorkload::new(cfg.workload.clone())
            .unwrap()
            .collect();
        let mut shard = Shard::new(cfg).unwrap();
        shard.enable_telemetry(TelemetryLevel::Full);
        for (stop, chunk) in events.chunks(events.len().div_ceil(stops)).enumerate() {
            shard.step_block(&chunk.iter().copied().collect()).unwrap();
            at_stop(stop, &mut shard);
        }
        shard.finish(GenStats::default()).unwrap()
    }

    /// The delete-heavy run the tests below persist.
    fn deletions() -> RunConfig {
        RunConfig::small().with_seed(9).with_deletions_per_round(12)
    }

    #[test]
    fn the_fsync_that_left_the_run_thread_is_still_issued_counted_and_heard() {
        // Stepped by blocks, a generation every second safepoint.
        let dir = ScratchDir::new("fsyncs");
        let run = deletions().with_durability(
            DurabilityConfig::snapshot_and_log(dir.path())
                .with_snapshot_every(2)
                .with_segment_bytes(64 << 10),
        );
        let mut taken = 0;
        let out = churn(&run, 40, |stop, shard| {
            // What a store that fsynced the log inside `safepoint` would
            // have counted by now: the synchronous ones plus one per
            // generation taken.
            let store = shard.store();
            taken = store.generation - 1;
            let stats = store.stats();
            let behind = store.writer.fsyncs + taken - stats.fsyncs;
            assert!(
                behind <= MAX_IN_FLIGHT as u64,
                "stop {stop}: {behind} behind"
            );
            assert_eq!(
                taken - stats.snapshot_fsyncs,
                behind,
                "one report, two fsyncs"
            );
        });
        let stats = out.storage.expect("a persisted run");
        assert!(stats.log_segments > 1, "the run must rotate");
        assert_eq!(
            stats.snapshot_fsyncs,
            taken + 1,
            "all landed, the closing one too"
        );
        // Safepoints at events 4,096 and 8,192 (the second taking a
        // generation) and the closing one: 2 generations + 1 rotation +
        // shutdown, 46 images.
        assert_eq!(
            (stats.fsyncs, stats.snapshot_fsyncs, stats.snapshots),
            (4, 2, 46)
        );
    }

    #[test]
    fn a_landed_file_is_the_capture_of_the_run_it_restores() {
        // A generation at every safepoint. At each stop, the newest file
        // restores to a shard whose capture is that file, byte for byte.
        let dir = ScratchDir::new("bytes");
        let run = deletions()
            .with_durability(DurabilityConfig::snapshot_and_log(dir.path()).with_snapshot_every(1));
        let (mut checked, mut written) = (0, 0);
        let mut check = |generation: u64, stats: StorageStats| {
            if generation == checked {
                return;
            }
            assert_eq!(generation, checked + 1, "one at a time");
            checked = generation;
            let landed = fs::read(dir.join(snapshot_name(generation))).unwrap();
            let (shard, tail) = restore(dir.path()).unwrap();
            assert_eq!(tail.restored_from, Some(generation));
            let stamp = [
                generation,
                shard.events_applied(),
                shard.db().stats().collections,
            ];
            let again = capture_generation(shard.db(), stamp, |out| shard.save_state(out));
            assert!(again.unwrap() == landed, "generation {generation}");
            assert_eq!(
                stats.snapshot_fsyncs, generation,
                "one fsync per generation"
            );
            written += landed.len() as u64;
            assert_eq!(
                stats.snapshot_bytes, written,
                "nothing added between images"
            );
        };
        let out = churn(&run, 5, |_, shard| {
            let store = shard.store();
            store.writer.flusher.drain().unwrap();
            check(store.generation - 1, store.stats());
        });
        let closing = scan_snapshots(dir.path())
            .unwrap()
            .last()
            .unwrap()
            .generation;
        check(closing, out.storage.unwrap());
        assert!(checked > 2, "the run must take several generations");

        // Pruning by remembered names leaves exactly the newest two
        // generations and no temp file: nothing else beside the log and the
        // manifest.
        let mut left: Vec<String> = fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| !name.starts_with("log-") && name != MANIFEST_FILE)
            .collect();
        left.sort();
        assert_eq!(left, [snapshot_name(checked - 1), snapshot_name(checked)]);
    }

    /// How a test feeds one run of events to the store.
    #[derive(Debug, Clone, Copy)]
    enum Feed {
        /// `append_events`, the whole run at once: the reference bytes.
        Slice,
        /// A block built from pushes, which holds no bytes to reuse.
        Pushed,
        /// A block decoded by `next_block_of` at this cut, which does.
        Decoded(usize),
    }

    #[test]
    fn append_block_writes_the_bytes_of_a_slice_append() {
        let events: Vec<Event> = SyntheticWorkload::new(RunConfig::small().workload)
            .unwrap()
            .collect();
        let trace = EncodedTrace::from_events(RunConfig::small().workload, &events);
        let db = Database::new(pgc_types::DbConfig::default()).unwrap();
        let log_bytes = |feed: Feed| {
            let dir = ScratchDir::new("block");
            let mut store = DurableStore::create(&DurabilityConfig::log_only(dir.path())).unwrap();
            let mut block = EventBlock::new();
            match feed {
                Feed::Slice => store.append_events(&events).unwrap(),
                // Ragged blocks, so frames straddle block boundaries.
                Feed::Pushed => {
                    for chunk in events.chunks(BLOCK_EVENTS - 7) {
                        block.clear();
                        chunk.iter().for_each(|e| block.push(e));
                        assert!(block.encoded().is_none());
                        store.append_block(&block, 0..block.len()).unwrap();
                    }
                }
                Feed::Decoded(cut) => {
                    let mut cursor = trace.cursor();
                    while cursor.next_block_of(&mut block, cut).unwrap() > 0 {
                        assert!(block.encoded().is_some());
                        store.append_block(&block, 0..block.len()).unwrap();
                    }
                }
            }
            store.finish(&db, events.len() as u64, 0).unwrap();
            let stats = store.stats();
            let expect_frames = events.len().div_ceil(BLOCK_EVENTS) as u64 + 1;
            assert_eq!(stats.log_frames, expect_frames, "{feed:?}: frame cuts");
            fs::read(dir.join(segment_name(0))).unwrap()
        };
        assert!(events.len() > 2 * BLOCK_EVENTS);
        let reference = log_bytes(Feed::Slice);
        // One event at a time (bytes copied into a frame being filled), a
        // cut that drifts against the frame size (copied when the block
        // fits, re-encoded when it straddles a frame boundary), and whole
        // frames.
        for feed in [
            Feed::Pushed,
            Feed::Decoded(1),
            Feed::Decoded(BLOCK_EVENTS - 7),
            Feed::Decoded(BLOCK_EVENTS),
        ] {
            assert!(log_bytes(feed) == reference, "{feed:?}: log bytes differ");
        }
    }

    #[test]
    fn a_refilled_block_never_logs_the_bytes_of_its_last_decode() {
        let db = Database::new(pgc_types::DbConfig::default()).unwrap();
        let first = events(100);
        let second: Vec<Event> = (0..100).map(|i| Event::Visit { node: NodeId(i) }).collect();
        let dir = ScratchDir::new("stale");
        let mut store = DurableStore::create(&DurabilityConfig::log_only(dir.path())).unwrap();
        let mut block = EventBlock::new();
        let trace = EncodedTrace::from_events(RunConfig::small().workload, &first);
        trace.cursor().next_block(&mut block).unwrap();
        store.append_block(&block, 0..block.len()).unwrap();
        // Cleared and refilled by hand: the bytes of `first` are gone.
        block.clear();
        second.iter().for_each(|e| block.push(e));
        assert!(block.encoded().is_none());
        store.append_block(&block, 0..block.len()).unwrap();
        // Decoded again, then grown by one push: the decoded bytes no
        // longer cover the block, so they must not be used either.
        trace.cursor().next_block(&mut block).unwrap();
        block.push(&second[0]);
        assert!(block.encoded().is_none());
        store.append_block(&block, 0..block.len()).unwrap();
        store.finish(&db, 301, 0).unwrap();

        let mut want = first.clone();
        want.extend(&second);
        want.extend(&first);
        want.push(second[0]);
        let log = read_log(dir.path()).unwrap();
        assert_eq!(log.trace.cursor().decode_all().unwrap(), want);
    }

    #[test]
    fn a_failing_background_write_surfaces_and_nothing_hangs() {
        // The scenario runs on its own thread so that a hang fails the
        // test instead of stalling the suite.
        let (tell, told) = mpsc::channel();
        let scenario = std::thread::spawn(move || {
            let dir = ScratchDir::new("gone");
            let mut store =
                DurableStore::create(&DurabilityConfig::snapshot_and_log(dir.path())).unwrap();
            let mut failed_at = None;
            churn(&deletions(), 4, |stop, shard| {
                if failed_at.is_some() {
                    return;
                }
                if stop == 1 {
                    // The first generation has landed; now the disk "fails".
                    store.writer.flusher.drain().unwrap();
                    fs::remove_dir_all(dir.path()).unwrap();
                }
                let (db, applied) = (shard.db(), shard.events_applied());
                let result = if stop < 3 {
                    store.safepoint(db, applied, stop as u64, true, |_| {})
                } else {
                    store.finish(db, applied, stop as u64)
                };
                match result {
                    Ok(()) => assert!(stop < 3, "finish() cannot succeed"),
                    Err(_) => failed_at = Some(stop),
                }
            });
            // Dropping the store closes the channel and joins the writer.
            drop(store);
            tell.send(failed_at).unwrap();
        });
        let failed_at = told
            .recv_timeout(Duration::from_secs(60))
            .expect("the store must fail, not hang");
        scenario.join().unwrap();
        // Generation 2 is handed over at stop 1 and cannot land. The next
        // safepoint() returns its error if the writer has reported by
        // then; finish() waits for the report, so it returns it if not.
        assert!(matches!(failed_at, Some(2 | 3)), "failed at {failed_at:?}");
    }
}
