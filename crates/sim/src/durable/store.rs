//! [`DurableStore`]: the run-side persistence handle, and the whole write
//! order of a data directory.
//!
//! One store per shard (one data directory per stream). The owning shard
//! feeds it every input event *before* applying it (write-ahead), framed
//! every [`pgc_workload::BLOCK_EVENTS`] events, and drives
//! [`DurableStore::safepoint`] at each frame boundary after which a
//! collection completed ([`DurableStore::finish_with`] adds the closing
//! one). So every frame but the last is whole, every generation sits on a
//! frame boundary, and the directory depends on the run alone, not on how
//! its events were cut.
//!
//! Every byte goes through the `fs` seam. The run thread lands the
//! manifest before the first frame (temp file, sync, rename), flushes the
//! log to the OS at every safepoint, and waits for the disk only to sync a
//! full segment before it creates the next (so only the newest can hold a
//! torn tail) and the last one at shutdown. The `pgc-durable-io` thread
//! takes jobs in order: sync the segment that holds a generation's
//! safepoint frame, land the generation (temp file, sync, rename), remove
//! the one beyond the newest `KEEP_GENERATIONS`. A job without a
//! generation (a kick, every `KICK_BYTES` of frames) only syncs, best
//! effort, so that the synchronous syncs pay for a short dirty tail.
//!
//! The ordering contract: **a generation file in place implies the log up
//! to its safepoint frame is on disk; [`DurableStore::finish`] returns
//! only after both.** Recovery leans on exactly that: it loads the newest
//! generation whose safepoint frame the log holds and replays the events
//! after it. Neither thread syncs the directory, so the contract covers a
//! process kill, not a power loss.

use super::config::DurabilityConfig;
use super::fs::{self, Appender};
use super::log::{self, open_segment, SafepointNote, HEADER_BYTES};
use super::manifest::{Manifest, MANIFEST_FILE};
use super::snapshot::{snapshot_name, Generation};
use pgc_odb::Database;
use pgc_types::{PgcError, Result};
use pgc_workload::{encode_event, Event, EventBlock, BLOCK_EVENTS};
use std::collections::VecDeque;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;

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
    /// in `snapshot_fsyncs`, and the manifest's one sync is not counted):
    /// the synchronous ones at rotation and shutdown, plus one per
    /// generation the background writer has reported landed — so mid-run
    /// it trails by the generations still in flight.
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

/// Dirty bytes that accumulate before a safepoint kicks the background
/// thread. Kicking on every safepoint would sync near-clean files over
/// and over; kicking by volume keeps the dirty-page debt bounded while
/// staying off the hot path between kicks.
const KICK_BYTES: u64 = 1 << 20;

/// Most snapshot generations the background thread holds at once: the one
/// it is writing and one queued behind it.
const MAX_IN_FLIGHT: usize = 2;

/// How many snapshot generations stay on disk (current + fallback).
const KEEP_GENERATIONS: usize = 2;

/// The write side of a data directory: change log + snapshots + manifest.
pub struct DurableStore {
    cfg: DurabilityConfig,
    /// The log segment being appended to.
    segment: Appender,
    /// Bytes in `segment` so far.
    segment_bytes: u64,
    /// Frame bytes since the background thread last synced the log.
    bytes_since_kick: u64,
    flusher: Flusher,
    /// Encoded-but-unframed events (flushed at block granularity).
    scratch: Vec<u8>,
    pending: u32,
    /// Next snapshot generation (1-based).
    generation: u64,
    /// Safepoints since the last snapshot generation.
    since_snapshot: u64,
    /// The counters kept on the run thread: `fsyncs` counts its own syncs
    /// and `snapshot_fsyncs` stays 0 (see [`DurableStore::stats`]).
    counts: StorageStats,
}

impl DurableStore {
    /// Creates the data directory and opens the first log segment. Fails
    /// on an `Off` config, and if the directory already holds a previous
    /// run's manifest (refusing to silently shadow recoverable data).
    pub fn create(cfg: &DurabilityConfig) -> Result<Self> {
        if !cfg.is_enabled() {
            return Err(PgcError::InvalidConfig(
                "a durable store needs a log-only or snapshot-and-log config",
            ));
        }
        fs::create_dir_all(&cfg.dir)?;
        if cfg.dir.join(MANIFEST_FILE).exists() {
            return Err(PgcError::TraceIo(format!(
                "data dir {} already holds a run (remove it first)",
                cfg.dir.display()
            )));
        }
        Ok(Self {
            cfg: cfg.clone(),
            segment: open_segment(&cfg.dir, 0, 0)?,
            segment_bytes: HEADER_BYTES,
            bytes_since_kick: 0,
            flusher: Flusher::spawn(cfg.dir.clone()),
            scratch: Vec::with_capacity(BLOCK_EVENTS * 16),
            pending: 0,
            generation: 1,
            since_snapshot: 0,
            counts: StorageStats {
                log_bytes: HEADER_BYTES,
                log_segments: 1,
                ..StorageStats::default()
            },
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
            let bytes = log::write_events(&mut self.segment, self.pending, &self.scratch)?;
            self.framed(bytes);
            self.scratch.clear();
            self.pending = 0;
        }
        Ok(())
    }

    /// Counts a frame of `bytes` just written to the segment.
    fn framed(&mut self, bytes: u64) {
        self.segment_bytes += bytes;
        self.bytes_since_kick += bytes;
        self.counts.log_bytes += bytes;
        self.counts.log_frames += 1;
    }

    /// Drives one safepoint: flushes buffered events, takes a snapshot
    /// generation when the cadence (or `force_snapshot`) says so, appends
    /// the safepoint frame and flushes it to the OS, then rotates the
    /// segment if it outgrew the configured limit. None waits for the disk:
    /// a synchronous sync per collection would cost milliseconds against a
    /// microsecond-scale interval, for a guarantee recovery does not need.
    ///
    /// A generation serialises every partition here, then `run` appends the
    /// owner's state for the run image (it is called only then); the bytes
    /// go to the background thread with the segment the frame went to,
    /// named before any rotation. At most one generation waits behind the
    /// one being written: a further one blocks here until the thread has
    /// caught up. An error the thread met since the previous call is
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
            self.flusher.settle(MAX_IN_FLIGHT)?;
            self.since_snapshot += 1;
            if force_snapshot || self.since_snapshot >= self.cfg.snapshot_every {
                let mut file = self.flusher.next_generation()?;
                file.capture(db, [self.generation, events_applied, collections], run)?;
                self.counts.snapshots += u64::from(file.images());
                self.counts.snapshot_bytes += file.total_bytes();
                generation = Some(file);
                self.generation += 1;
                self.since_snapshot = 0;
            }
        }
        let note = SafepointNote {
            events_applied,
            collections,
            generation: generation.as_ref().map_or(0, Generation::number),
        };
        let bytes = log::write_safepoint(&mut self.segment, note)?;
        self.framed(bytes);
        self.segment.flush()?;
        if generation.is_some() || self.bytes_since_kick >= KICK_BYTES {
            let log = self.segment.path().to_path_buf();
            self.flusher.send(Job { log, generation })?;
            self.bytes_since_kick = 0;
        }
        if self.segment_bytes >= self.cfg.segment_bytes {
            self.sync()?;
            let seq = self.counts.log_segments;
            self.segment = open_segment(&self.cfg.dir, seq, events_applied)?;
            self.segment_bytes = HEADER_BYTES;
            self.counts.log_bytes += HEADER_BYTES;
            self.counts.log_segments += 1;
        }
        self.counts.safepoints += 1;
        Ok(())
    }

    /// Flushes the segment and syncs it on this thread.
    fn sync(&mut self) -> Result<()> {
        self.segment.sync()?;
        self.counts.fsyncs += 1;
        self.bytes_since_kick = 0;
        Ok(())
    }

    /// Clean shutdown: final safepoint (with a final snapshot generation
    /// when snapshots are enabled, whose run image `run` writes), then
    /// waits for every generation to land behind its log sync, then a last
    /// sync of the log.
    pub(crate) fn finish_with(
        &mut self,
        db: &Database,
        events_applied: u64,
        collections: u64,
        run: impl FnOnce(&mut Vec<u64>),
    ) -> Result<()> {
        self.safepoint(db, events_applied, collections, true, run)?;
        self.flusher.drain()?;
        self.sync()
    }

    /// The clean shutdown of an owner that keeps no run state:
    /// a closing generation's run image is empty, which no restore
    /// accepts, so only a log-only store should close this way.
    pub fn finish(&mut self, db: &Database, events_applied: u64, collections: u64) -> Result<()> {
        self.finish_with(db, events_applied, collections, |_| {})
    }

    /// Counters so far.
    pub fn stats(&self) -> StorageStats {
        let landed = self.flusher.generations_landed;
        StorageStats {
            fsyncs: self.counts.fsyncs + landed,
            snapshot_fsyncs: landed,
            ..self.counts
        }
    }
}

/// Work for the store's background thread: sync the log segment `log`,
/// then land `generation` if there is one. A job without one is a kick.
struct Job {
    log: PathBuf,
    generation: Option<Generation>,
}

/// The background thread's report on one generation; the buffer comes
/// back with it for the next capture.
struct Landed {
    generation: Generation,
    /// `Ok` once both syncs — the log's, then the file's — were issued
    /// and the file is in place; otherwise what went wrong.
    outcome: Result<()>,
}

/// The run thread's end of the `pgc-durable-io` thread (the module docs
/// say what the thread does). Every generation's outcome comes back, and
/// [`Flusher::settle`] returns the first error reported — a failed log
/// sync like a failed landing — or fails rather than wait if the thread is
/// gone. A kick promises nothing: the next synchronous sync retries it.
struct Flusher {
    jobs: Option<mpsc::SyncSender<Job>>,
    landed: mpsc::Receiver<Landed>,
    handle: Option<thread::JoinHandle<()>>,
    /// Generations handed over and not yet reported back.
    in_flight: usize,
    /// Buffers of landed generations, kept for reuse.
    spare: Vec<Generation>,
    /// Generations reported landed so far: each stands for one log sync
    /// and one snapshot-file sync issued on the thread.
    generations_landed: u64,
}

impl Flusher {
    fn spawn(dir: PathBuf) -> Self {
        let (jobs, rx) = mpsc::sync_channel::<Job>(2);
        let (reports, landed) = mpsc::channel::<Landed>();
        let handle = thread::Builder::new()
            .name("pgc-durable-io".into())
            .spawn(move || {
                // The generations landed and not yet removed, oldest first.
                // This thread made those files, so it prunes them by name
                // without reading the directory.
                let mut retained = VecDeque::with_capacity(KEEP_GENERATIONS + 1);
                for Job { log, generation } in rx {
                    let synced = fs::sync(&log);
                    // A kick's outcome is dropped: it promised nothing.
                    let Some(mut generation) = generation else {
                        continue;
                    };
                    let number = generation.number();
                    let outcome = synced.and_then(|()| {
                        fs::replace(&dir, &snapshot_name(number), generation.seal())?;
                        retained.push_back(number);
                        if retained.len() > KEEP_GENERATIONS {
                            if let Some(old) = retained.pop_front() {
                                fs::remove(&dir.join(snapshot_name(old)))?;
                            }
                        }
                        Ok(())
                    });
                    // The store may already be gone (dropped after an
                    // error): nobody is left to tell.
                    let _ = reports.send(Landed {
                        generation,
                        outcome,
                    });
                }
            })
            .ok();
        Self {
            jobs: Some(jobs),
            landed,
            handle,
            in_flight: 0,
            spare: Vec::with_capacity(MAX_IN_FLIGHT),
            generations_landed: 0,
        }
    }

    fn gone() -> PgcError {
        PgcError::TraceIo("snapshot writer thread is gone".into())
    }

    /// Hands `job` over. A kick is dropped if the thread is still busy with
    /// earlier work; a generation waits for room.
    fn send(&mut self, job: Job) -> Result<()> {
        let jobs = self.jobs.as_ref().ok_or_else(Self::gone)?;
        if job.generation.is_none() {
            let _ = jobs.try_send(job);
            return Ok(());
        }
        jobs.send(job).map_err(|_| Self::gone())?;
        self.in_flight += 1;
        Ok(())
    }

    /// Takes in every report that is ready, then waits until at most
    /// `allow` generations are still with the thread; `MAX_IN_FLIGHT`
    /// never waits.
    fn settle(&mut self, allow: usize) -> Result<()> {
        loop {
            let report = if self.in_flight > allow {
                self.landed.recv().map_err(|_| Self::gone())?
            } else {
                match self.landed.try_recv() {
                    Ok(report) => report,
                    Err(mpsc::TryRecvError::Empty) => return Ok(()),
                    Err(mpsc::TryRecvError::Disconnected) => return Err(Self::gone()),
                }
            };
            self.in_flight -= 1;
            self.spare.push(report.generation);
            report.outcome?;
            self.generations_landed += 1;
        }
    }

    /// A buffer to capture the next generation into. Blocks while a
    /// generation is queued behind the one being written, so buffers
    /// never pile up behind a slow disk.
    fn next_generation(&mut self) -> Result<Generation> {
        self.settle(MAX_IN_FLIGHT - 1)?;
        Ok(self.spare.pop().unwrap_or_default())
    }

    /// Waits until every generation handed over has landed.
    fn drain(&mut self) -> Result<()> {
        self.settle(0)
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        self.jobs = None; // close the channel so the thread exits
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    // These tests plant truncated and damaged files.
    #![allow(clippy::disallowed_methods)]

    use super::*;
    use crate::durable::fs::tests::{ops, state_at, Op};
    use crate::durable::log::{read_log_from, segment_name};
    use crate::durable::snapshot::snapshot_name;
    use crate::durable::{
        outcome_digest, read_generation, read_log, recover, restore, round_trip, scan_snapshots,
        verify, ScratchDir,
    };
    use crate::run::{RunConfig, RunOutcome};
    use crate::shard::Shard;
    use crate::telemetry::TelemetryLevel;
    use pgc_odb::PolicyKind;
    use pgc_types::Bytes;
    use pgc_workload::generator::GenStats;
    use pgc_workload::{EncodedTrace, NodeId, SyntheticWorkload};
    use std::collections::HashMap;
    use std::fs;
    use std::path::Path;
    use std::sync::{mpsc, Mutex};
    use std::thread;
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
    fn an_off_config_is_refused_and_writes_nothing() {
        let refused = DurableStore::create(&DurabilityConfig::off());
        assert!(matches!(refused, Err(PgcError::InvalidConfig(_))));
        assert!(ops(Path::new("")).is_empty(), "nothing under the cwd");
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
        // segment, so segment k ends in generation k + 1's safepoint frame
        // (the closing generation's frame is all segment 8 holds) and the
        // background sync of that segment races its rotation. What can be
        // heard of that is every count, where each frame sits and the op
        // log's order.
        let dir = ScratchDir::new("rotate-gen");
        let cfg = DurabilityConfig::snapshot_and_log(dir.path()).with_segment_bytes(4 << 10);
        let mut store = DurableStore::create(&cfg).unwrap();
        store.write_manifest(&Manifest::default()).unwrap();
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
        write_order_holds(dir.path(), stats);
    }

    /// The op log of `dir`, written as the test above writes it, keeps the
    /// write order the module docs state: `(a)` to `(e)` below.
    fn write_order_holds(dir: &Path, stats: StorageStats) {
        let (ops, generations) = (ops(dir), stats.snapshot_fsyncs);
        let name = |op: &Op| op.path.file_name().unwrap().to_string_lossy().into_owned();
        let at = |io: bool, kind: &str, file: &str| -> Vec<usize> {
            let hit = |op: &Op| op.io == io && op.kind == kind && name(op) == file;
            (0..ops.len()).filter(|&i| hit(&ops[i])).collect()
        };
        let (seg, snap) = (segment_name, snapshot_name);
        // (a) Every rename's `.tmp` was written and synced on the renaming
        // thread, its sync after its last write.
        for (r, rename) in ops.iter().enumerate().filter(|(_, op)| op.kind == "rename") {
            let tmp = format!("{}.tmp", name(rename));
            let on_tmp = |op: &&Op| name(op) == tmp;
            let before: Vec<&Op> = ops[..r].iter().filter(on_tmp).collect();
            assert!(
                before.iter().all(|op| op.io == rename.io),
                "{tmp}: one thread"
            );
            let last_write = before.iter().rposition(|op| op.kind == "write");
            let sync = before.iter().rposition(|op| op.kind == "sync");
            assert!(
                matches!((last_write, sync), (Some(w), Some(s)) if s > w),
                "{tmp}: renamed without a sync after its last write"
            );
        }
        for g in 1..=generations {
            // (b) `snap-G` is renamed in after an I/O-thread sync of the
            // segment that holds its safepoint frame, issued after the
            // run thread flushed that frame (its segment's last write).
            let k = g - 1;
            let last_write = *at(false, "write", &seg(k)).last().unwrap();
            let flushed = at(false, "flush", &seg(k))
                .into_iter()
                .find(|&f| f > last_write);
            let [renamed] = at(true, "rename", &snap(g))[..] else {
                panic!("{}: renamed once", snap(g));
            };
            assert!(
                at(true, "sync", &seg(k))
                    .iter()
                    .any(|&s| s > flushed.unwrap() && s < renamed),
                "{} renamed before the log under its frame was synced",
                snap(g)
            );
            // (e) `snap-G` is removed only after `snap-(G+2)` is in place.
            match at(true, "remove", &snap(g))[..] {
                [] => assert!(g + 2 > generations, "{} kept", snap(g)),
                [removed] => assert!(removed > at(true, "rename", &snap(g + 2))[0]),
                _ => panic!("{} removed twice", snap(g)),
            }
        }
        // (c) Segment k + 1 is created only after segment k's run-thread
        // sync.
        for k in 0..generations - 1 {
            let created = at(false, "create", &seg(k + 1))[0];
            assert!(at(false, "sync", &seg(k)).iter().any(|&s| s < created));
        }
        // (d) The run thread syncs once per rotation, once at shutdown and
        // once for the manifest, the I/O thread twice per generation (no
        // kick: every safepoint hands over a generation); `fsyncs` is the
        // run thread's log syncs plus one per generation landed.
        let io_syncs = ops.iter().filter(|op| op.io && op.kind == "sync");
        assert_eq!(io_syncs.count() as u64, 2 * generations);
        let run_syncs: Vec<String> = ops
            .iter()
            .filter(|op| !op.io && op.kind == "sync")
            .map(name)
            .collect();
        let mut want = vec![format!("{MANIFEST_FILE}.tmp")];
        want.extend((0..generations).map(seg));
        assert_eq!(run_syncs, want);
        let log_syncs = run_syncs.len() as u64 - 1;
        assert_eq!(stats.fsyncs, log_syncs + stats.snapshot_fsyncs);
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
            let store = shard.store().unwrap();
            taken = store.generation - 1;
            let stats = store.stats();
            let behind = store.counts.fsyncs + taken - stats.fsyncs;
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

    /// Every file directly under `dir`, by name, with its bytes.
    fn files_of(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .map(|path| (name_of(&path), fs::read(&path).unwrap()))
            .collect();
        files.sort();
        files
    }

    fn name_of(path: &Path) -> String {
        path.file_name().unwrap().to_string_lossy().into_owned()
    }

    #[test]
    fn every_directory_state_a_kill_can_leave_recovers_a_prefix_of_the_run() {
        // A generation at every safepoint and 64 KiB segments: the run
        // rotates its log, lands a generation at each `BLOCK_EVENTS`
        // boundary that completed a collection, and prunes all but two.
        // Sampling puts a series in every run image.
        let dir = ScratchDir::new("matrix");
        let cfg = RunConfig::small()
            .with_policy(PolicyKind::UpdatedPointer)
            .with_seed(7)
            .with_heap_growth(Bytes::from_kib(1024))
            .with_sampling(1_500);
        let run = cfg.clone().with_durability(
            DurabilityConfig::snapshot_and_log(dir.path())
                .with_snapshot_every(1)
                .with_segment_bytes(64 << 10),
        );
        let stats = churn(&run, 1, |_, _| {}).storage.unwrap();
        let generations = stats.snapshot_fsyncs;
        assert!(stats.log_segments >= 3 && generations >= 5, "{stats:?}");
        let ops = ops(dir.path());
        let events: Vec<Event> = SyntheticWorkload::new(cfg.workload.clone())
            .unwrap()
            .collect();
        // What a fresh shard makes of the first n events, once per n.
        let fresh = Mutex::new(HashMap::new());
        let reference = |n: u64| {
            *fresh.lock().unwrap().entry(n).or_insert_with(|| {
                let mut shard = Shard::new(&cfg).unwrap();
                shard.enable_telemetry(TelemetryLevel::Full);
                shard
                    .step_block(&events[..n as usize].iter().copied().collect())
                    .unwrap();
                outcome_digest(&shard.finish(GenStats::default()).unwrap())
            })
        };
        let is_snap = |op: &Op| name_of(&op.path).starts_with("snap-");
        let landing = |op: &&Op| op.kind == "rename" && is_snap(op);
        let manifest = ops
            .iter()
            .position(|op| name_of(&op.path) == MANIFEST_FILE)
            .unwrap();

        // The directory a kill at cut k leaves recovers; the generation it
        // restores from, or `None` before the manifest lands.
        let check = |&(k, tear): &(usize, bool)| -> Option<Option<u64>> {
            let last = k.checked_sub(1).map(|i| &ops[i]);
            let state = state_at(&ops, k, tear, k as u64);
            let what = format!(
                "cut {k}, torn {tear}: {:?}",
                last.map(|op| (op.kind, &op.path))
            );
            if k <= manifest {
                let err = recover(state.path()).expect_err(&what).to_string();
                assert!(err.contains(MANIFEST_FILE), "{what}: {err}");
                return None;
            }
            let recovered = recover(state.path()).unwrap_or_else(|e| panic!("{what}: {e}"));
            let digest = outcome_digest(&recovered.outcome);
            assert_eq!(digest, reference(recovered.events_replayed), "{what}");
            let verified = verify(state.path()).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(outcome_digest(&verified.outcome), digest, "{what}");
            // Restored from the newest generation in place, which needs its
            // safepoint frame in the log: no file in place outruns the log.
            let files = scan_snapshots(state.path()).unwrap();
            let in_place: Vec<u64> = files.iter().map(|file| file.generation).collect();
            assert_eq!(recovered.restored_from, in_place.last().copied(), "{what}");
            assert_eq!(recovered.snapshot_files_skipped, 0, "{what}");
            // The writer holds at most two generations and keeps two
            // landed: a log that reaches generation n's frame (n >= 3) finds
            // n - 2 or a newer one in place and nothing older than n - 3,
            // and once two have landed a fallback stays.
            let log = read_log(state.path()).unwrap();
            if let Some(n @ 3..) = log.safepoints.iter().map(|f| f.generation).max() {
                assert!(in_place.iter().any(|&g| g + 2 >= n), "{what}: {in_place:?}");
                assert!(in_place.iter().all(|&g| g + 3 >= n), "{what}: {in_place:?}");
            }
            let landed = ops[..k].iter().filter(landing).count();
            assert!(in_place.len() >= landed.min(KEEP_GENERATIONS), "{what}");
            // A generation just renamed in is what its restore captures.
            if let (Some(_), Some(file)) = (last.filter(landing), files.last()) {
                let (shard, _) = restore(state.path()).unwrap();
                let image = read_generation(&file.path).unwrap();
                round_trip(&shard, &image, &format!("its restore, {what}")).unwrap();
            }
            Some(recovered.restored_from)
        };

        // Every cut after an op that changes what a kill leaves (a write
        // only through a tear), untorn and torn, shared out over two
        // threads: `verify` replays from event 0 at each.
        let cuts: Vec<(usize, bool)> = (0..=ops.len())
            .flat_map(|k| [(k, false), (k, true)])
            .filter(|&(k, tear)| match k.checked_sub(1).map(|i| ops[i].kind) {
                Some("sync") => false,
                Some("write") => tear,
                _ => true,
            })
            .collect();
        let every_other =
            |first: usize| -> Vec<_> { cuts[first..].iter().step_by(2).map(&check).collect() };
        let halves = thread::scope(|s| {
            let odd = s.spawn(|| every_other(1));
            [every_other(0), odd.join().unwrap()]
        });
        let restored: Vec<Option<u64>> = (0..cuts.len())
            .filter_map(|i| halves[i % 2][i / 2])
            .collect();
        assert!(restored.windows(2).all(|w| w[0] <= w[1]), "{restored:?}");
        let mut seen = restored.clone();
        seen.dedup();
        // Fresh, then each generation once it lands.
        assert_eq!(seen.len() as u64, generations + 1, "{seen:?}");

        // The last cut is the finished directory: the generation bytes
        // written are the ones counted, and pruning by remembered names
        // leaves exactly the newest two generations and no temp file.
        let (end, files) = (state_at(&ops, ops.len(), false, 0), files_of(dir.path()));
        assert!(files_of(end.path()) == files, "the last cut");
        let snap_writes = ops.iter().filter(|op| op.kind == "write" && is_snap(op));
        let written: usize = snap_writes.map(|op| op.bytes.len()).sum();
        assert_eq!(written as u64, stats.snapshot_bytes);
        let names = files.iter().map(|(name, _)| name.as_str());
        let others: Vec<&str> = names
            .filter(|name| !name.starts_with("log-") && *name != MANIFEST_FILE)
            .collect();
        assert_eq!(others, [generations - 1, generations].map(snapshot_name));
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
                    store.flusher.drain().unwrap();
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
