//! Persistence: a run's data directory, and recovery from it.
//!
//! What turns a purely in-memory shard into a run that survives its
//! process. Everything is hand-rolled and dependency-free, following the
//! checksummed, versioned file layout of the pippin format. A data
//! directory is self-describing:
//!
//! * `MANIFEST.pgc` ([`Manifest`], `manifest.rs`) — checksummed key=value
//!   lines recording the full [`RunConfig`] (floats by bit pattern) plus
//!   the telemetry level ([`manifest_for`]), so recovery rebuilds the exact
//!   configuration without out-of-band knowledge.
//! * `log-*.pgcl` (`log.rs`) — the append-only change log: segments of
//!   CRC-framed records. Event frames carry every input event write-ahead
//!   in the one event byte form (`pgc_workload::codec`, the layout of trace
//!   files and encoded traces too), so the log is a replayable trace and is
//!   read back as one ([`read_log`]); safepoint frames mark the frame
//!   boundaries after which a collection completed, the end of the run,
//!   and snapshot generations. A truncated or corrupted final
//!   frame is a torn tail, found by length and checksum and dropped, never
//!   a crash.
//! * `snap-*.pgcs` (`snapshot.rs`) — one file per **generation**: the whole
//!   run at a safepoint, every partition's object records
//!   (versioned header, records in member-list order, CRC-32 footer per
//!   image), then a run image of everything else the run had learned (the
//!   database's bookkeeping and buffer, the policy's tables, the trigger,
//!   telemetry, sampling). One reader, [`read_generation`], takes a file in
//!   whole and decodes its records straight into the database's own form.
//!
//! [`DurableStore`] (`store.rs`) is the write side a durable [`Shard`]
//! owns, configured by [`DurabilityConfig`] (`LogOnly` /
//! `SnapshotAndLog`, snapshot cadence, segment size). It buffers events
//! into `BLOCK_EVENTS` frames ahead of their application, takes generations
//! and writes safepoint frames at the frame boundaries after which a
//! collection completed, rotates segments (the only fsync the run thread
//! waits for before shutdown, beside the manifest's) and reports
//! [`StorageStats`]; it holds the whole write order. The run thread
//! serialises a generation in one pass; the store's background thread
//! fsyncs the log up to its safepoint frame, then lands the file. Every
//! write goes through `fs.rs`, the one module that touches the disk: one
//! temp-sync-rename lands the manifest and every generation alike.
//! [`ScratchDir`] is a self-cleaning temp directory for tests and benches.
//!
//! [`recover`] rebuilds the run from the directory alone:
//!
//! 1. read and checksum-verify the manifest, rebuild the exact
//!    [`RunConfig`] (durability forced off — recovery does not re-persist);
//! 2. [`restore`]: load the newest **usable** generation into a [`Shard`]
//!    — every image checksums and agrees, the log holds the generation's
//!    safepoint frame at its event (read only from that point on, and
//!    checked before anything is restored: only the log bounds what the
//!    header claims), and the restored state passes validation
//!    (`Shard::restore`). A generation that fails any of that is passed
//!    over whole for the older one, and with none left the shard starts
//!    fresh and the log is read from event 0 (a log-only directory, one
//!    written by an older build, or one whose generations are all damaged);
//! 3. replay the log's tail — the events after the restore point, a torn
//!    final frame dropped at the checksum boundary — through the loop
//!    every live run uses, `TraceCursor::next_block` →
//!    [`Shard::step_block`];
//! 4. finish the shard into a [`RunOutcome`].
//!
//! Because the simulator is deterministic, the log records inputs ahead of
//! application and a generation carries every bit of state the run goes on
//! from, the recovered outcome is *bit-identical* to an uninterrupted run
//! over the same event prefix: totals, victim sequence, series and
//! telemetry (`tests/recovery.rs` pins this across policies and seeds and
//! from every generation a run lands). A clean shutdown's newest generation
//! sits at the last event, so its recovery replays nothing.
//!
//! [`verify`] holds the restore path to the run byte for byte. One shard
//! replays the whole log from event 0, and at each usable generation's
//! event its capture — what the store would land there, partition images
//! and run image alike — must be that generation's file. The older of each
//! two usable generations, restored as [`restore`] restores it and replayed
//! to the newer one's event, must capture to the newer file. And the
//! replay's digest must equal [`recover`]'s.

mod config;
mod crc;
mod fs;
mod log;
mod manifest;
mod snapshot;
mod store;
mod tempdir;

pub use config::{DurabilityConfig, DurabilityMode};
pub use log::{read_log, LogContents, SafepointNote, TornTail};
pub use manifest::{manifest_for, Manifest};
pub use snapshot::{
    capture_generation, read_generation, scan_snapshots, GenerationImage, SnapshotFile,
};
pub use store::{DurableStore, StorageStats};
pub use tempdir::ScratchDir;

use crate::run::{RunConfig, RunOutcome};
use crate::shard::Shard;
use crate::telemetry::TelemetryLevel;
use log::read_log_from;
use manifest::config_from_manifest;
use pgc_types::{fast_hash_u64, PgcError, Result};
use pgc_workload::generator::GenStats;
use pgc_workload::{EventBlock, TraceCursor, BLOCK_EVENTS};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn bad(msg: String) -> PgcError {
    PgcError::TraceFormat(msg)
}

/// An I/O error on `path`, naming it.
fn io_err(path: &Path) -> impl FnOnce(std::io::Error) -> PgcError + '_ {
    move |e| PgcError::TraceIo(format!("{}: {e}", path.display()))
}

/// The `N` bytes at `at`. Every reader of the durable formats checks the
/// lengths first, so its reads stay inside them and cannot fail.
fn array_at<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut word = [0; N];
    word.copy_from_slice(&bytes[at..at + N]);
    word
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(array_at(bytes, at))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(array_at(bytes, at))
}

/// The files under `dir` named `prefix` + a number + `suffix`, as
/// `(number, path)` in ascending order. A `.tmp` left by an interrupted
/// write is not one, and neither is any other name.
fn numbered_files(dir: &Path, prefix: &str, suffix: &str) -> Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(io_err(dir))? {
        let entry = entry.map_err(io_err(dir))?;
        let number = entry
            .file_name()
            .to_string_lossy()
            .strip_prefix(prefix)
            .and_then(|s| s.strip_suffix(suffix))
            .and_then(|s| s.parse().ok());
        if let Some(number) = number {
            found.push((number, entry.path()));
        }
    }
    found.sort_unstable();
    Ok(found)
}

/// What [`recover`] (or [`verify`]) brings back from a data directory.
#[derive(Debug)]
pub struct RecoveredRun {
    /// The recovered run, bit-identical to an uninterrupted run over the
    /// log's surviving event prefix.
    pub outcome: RunOutcome,
    /// The configuration rebuilt from the manifest.
    pub cfg: RunConfig,
    /// The telemetry level the original run recorded at (and the recovery
    /// re-recorded at).
    pub telemetry_level: TelemetryLevel,
    /// Events the recovered run has applied, restored plus replayed: the
    /// log's surviving prefix, `outcome.totals.events`.
    pub events_replayed: u64,
    /// Events replayed from the log after the restore point (all of them
    /// for a fresh start and for [`verify`]).
    pub tail_events: u64,
    /// The generation the run was restored from; `None` when it started
    /// fresh (and always for [`verify`]).
    pub restored_from: Option<u64>,
    /// The torn tail that was detected and dropped, if any.
    pub torn_tail: Option<TornTail>,
    /// Safepoint markers found in the log segments read.
    pub safepoints: usize,
    /// [`recover`]: partition images in the restored generation. [`verify`]:
    /// generations whose files the round trip captured byte for byte.
    pub snapshots_verified: usize,
    /// Generation files passed over. [`recover`]: unusable for a restore.
    /// [`verify`]: unreadable whole, or beyond the log's end (a
    /// checksum-valid file that no run wrote fails `verify` instead).
    pub snapshot_files_skipped: usize,
}

/// What [`restore`] hands back beside the shard: the log from the restore
/// point on, and how that point was found.
#[derive(Debug)]
pub struct Tail {
    /// The change log from the restore point on: its trace's first event
    /// is the restored shard's next.
    pub log: LogContents,
    /// The generation the shard was restored from; `None` for a fresh
    /// start.
    pub restored_from: Option<u64>,
    /// Partition images in that generation.
    images: usize,
    /// Generation files passed over as unusable, newest first, each with
    /// why.
    pub passed_over: Vec<(u64, PgcError)>,
    /// Wall time spent reading the log; the rest of [`restore`] is reading
    /// and loading generations.
    pub log_wall: Duration,
}

impl Tail {
    /// Steps `shard` through every event of the tail.
    pub fn replay(&self, shard: &mut Shard) -> Result<()> {
        replay(shard, &mut self.log.trace.cursor(), u64::MAX)
    }

    /// Finishes the replayed `shard` into the recovered run.
    pub fn finish(self, shard: Shard) -> Result<RecoveredRun> {
        let cfg = shard.config().clone();
        let telemetry_level = shard.telemetry_level();
        let events_replayed = shard.events_applied();
        let outcome = shard.finish(GenStats::default())?;
        Ok(RecoveredRun {
            outcome,
            cfg,
            telemetry_level,
            events_replayed,
            tail_events: self.log.trace.events(),
            restored_from: self.restored_from,
            torn_tail: self.log.torn,
            safepoints: self.log.safepoints.len(),
            snapshots_verified: self.images,
            snapshot_files_skipped: self.passed_over.len(),
        })
    }
}

/// Recovers a durable run from its data directory: [`restore`], replay the
/// tail, finish. See the module docs for the protocol.
pub fn recover(dir: &Path) -> Result<RecoveredRun> {
    let (mut shard, tail) = restore(dir)?;
    tail.replay(&mut shard)?;
    tail.finish(shard)
}

/// Loads the newest usable generation under `dir` into a shard, or a
/// fresh shard when there is none, and reads the log from that point on.
/// A log that cannot be read is an `Err`; an unusable generation is not —
/// it is passed over (see the module docs).
pub fn restore(dir: &Path) -> Result<(Shard, Tail)> {
    let (cfg, level) = config_from_manifest(&Manifest::read_from(dir)?)?;
    let mut log_wall = Duration::ZERO;
    let mut passed_over = Vec::new();
    for file in scan_snapshots(dir)?.iter().rev() {
        match attempt(dir, &cfg, level, file, &mut log_wall)? {
            Ok((shard, log, images)) => {
                let tail = Tail {
                    log,
                    restored_from: Some(file.generation),
                    images,
                    passed_over,
                    log_wall,
                };
                return Ok((shard, tail));
            }
            Err(why) => passed_over.push((file.generation, why)),
        }
    }
    let reading = Instant::now();
    let log = read_log(dir)?;
    log_wall += reading.elapsed();
    let mut shard = Shard::new(&cfg)?;
    shard.enable_telemetry(level);
    let tail = Tail {
        log,
        restored_from: None,
        images: 0,
        passed_over,
        log_wall,
    };
    Ok((shard, tail))
}

/// What one generation restores: the shard, the log from its restore point
/// on and its partition image count — or why the generation is unusable.
type Attempt = Result<(Shard, LogContents, usize)>;

/// Tries to restore from `file`. The outer `Err` is a log that cannot be
/// read, which no other generation would get past either.
///
/// The log is read, and the generation's safepoint frame found in it,
/// before anything is restored: a header's `events_applied` is only
/// checksum-valid, and it bounds every oid the restore sizes the object
/// table by. The log holds that many events only if a run applied them.
fn attempt(
    dir: &Path,
    cfg: &RunConfig,
    level: TelemetryLevel,
    file: &SnapshotFile,
    log_wall: &mut Duration,
) -> Result<Attempt> {
    let image = match read_generation(&file.path) {
        Ok(image) if image.generation == file.generation => image,
        Ok(_) => return Ok(Err(bad("generation file holds another generation".into()))),
        Err(e) => return Ok(Err(e)),
    };
    let reading = Instant::now();
    let log = read_log_from(dir, image.events_applied)?;
    *log_wall += reading.elapsed();
    if log.start_event != image.events_applied || !log.safepoints.contains(&frame(&image)) {
        return Ok(Err(bad(format!(
            "the log does not reach generation {}'s safepoint at event {}",
            image.generation, image.events_applied
        ))));
    }
    Ok(Shard::restore(cfg, level, &image).map(|shard| (shard, log, image.partitions())))
}

/// The safepoint frame a generation was taken at.
fn frame(image: &GenerationImage) -> SafepointNote {
    SafepointNote {
        events_applied: image.events_applied,
        collections: image.collections,
        generation: image.generation,
    }
}

/// Recovery held to the run byte for byte (see the module docs): replay
/// from event 0 captures every usable generation's file where it was taken,
/// the older of each two usable generations restores and replays to the
/// newer one's file, and the replay's digest is [`recover`]'s. A file that
/// does not read whole, or whose safepoint frame the log does not hold (a
/// generation beyond a torn tail), is passed over, as [`restore`] passes it
/// over.
pub fn verify(dir: &Path) -> Result<RecoveredRun> {
    let recovered = outcome_digest(&recover(dir)?.outcome);
    let (cfg, level) = config_from_manifest(&Manifest::read_from(dir)?)?;
    let log = read_log(dir)?;
    let (mut usable, mut skipped) = (Vec::new(), 0);
    for file in scan_snapshots(dir)? {
        match read_generation(&file.path) {
            Ok(image)
                if image.generation == file.generation
                    && log.safepoints.contains(&frame(&image)) =>
            {
                usable.push((file, image))
            }
            _ => skipped += 1,
        }
    }
    let mut shard = Shard::new(&cfg)?;
    shard.enable_telemetry(level);
    let mut cursor = log.trace.cursor();
    for (_, image) in &usable {
        replay(&mut shard, &mut cursor, image.events_applied)?;
        round_trip(&shard, image, "the replay from event 0")?;
    }
    for ((older, _), (_, newer)) in usable.iter().zip(usable.iter().skip(1)) {
        let (mut restored, after, _) = attempt(dir, &cfg, level, older, &mut Duration::default())??;
        replay(
            &mut restored,
            &mut after.trace.cursor(),
            newer.events_applied,
        )?;
        round_trip(&restored, newer, "its predecessor restored")?;
    }
    replay(&mut shard, &mut cursor, u64::MAX)?;
    let tail = Tail {
        log,
        restored_from: None,
        images: 0,
        passed_over: Vec::new(),
        log_wall: Duration::ZERO,
    };
    let verified = tail.finish(shard)?;
    let replayed = outcome_digest(&verified.outcome);
    if replayed != recovered {
        return Err(bad(format!(
            "verify: replay from event 0 reaches digest {replayed:016x}, recovery {recovered:016x}"
        )));
    }
    Ok(RecoveredRun {
        snapshots_verified: usable.len(),
        snapshot_files_skipped: skipped,
        ..verified
    })
}

/// Requires `shard`'s capture, stamped as generation `image` was, to be
/// the file that landed. `from` says how the shard got there.
fn round_trip(shard: &Shard, image: &GenerationImage, from: &str) -> Result<()> {
    let db = shard.db();
    let stamp = [
        image.generation,
        shard.events_applied(),
        db.stats().collections,
    ];
    if capture_generation(db, stamp, |out| shard.save_state(out))? != image.bytes() {
        return Err(bad(format!(
            "verify: generation {} is not what {from} captures at event {}",
            image.generation, image.events_applied
        )));
    }
    Ok(())
}

/// The one recovery loop: steps `shard` through `cursor`'s events, a block
/// at a time, until it has applied `until` of them or the trace ends.
fn replay(shard: &mut Shard, cursor: &mut TraceCursor<'_>, until: u64) -> Result<()> {
    let mut block = EventBlock::with_capacity(BLOCK_EVENTS);
    loop {
        let room = until
            .saturating_sub(shard.events_applied())
            .min(BLOCK_EVENTS as u64);
        if room == 0 || cursor.next_block_of(&mut block, room as usize)? == 0 {
            return Ok(());
        }
        shard.step_block(&block)?;
    }
}

/// A stable digest of a run's observable results — totals, victim
/// sequence, and telemetry counters — for crash-recovery smoke checks
/// (`recover_tool --expect`).
pub fn outcome_digest(out: &RunOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= fast_hash_u64(v.wrapping_add(0x9E37_79B9_7F4A_7C15));
        h = h.rotate_left(17).wrapping_mul(0x100_0000_01B3);
    };
    let t = &out.totals;
    for v in [
        t.app_ios,
        t.gc_ios,
        t.max_footprint.get(),
        t.partitions as u64,
        t.collections,
        t.reclaimed_bytes.get(),
        t.reclaimed_objects,
        t.final_live_bytes.get(),
        t.final_garbage_bytes.get(),
        t.final_nepotism_bytes.get(),
        t.events,
        // Where the two network-op totals were (always zero in any pinned
        // run): every `outcome_digest` golden in `tests/` and
        // `benchmark/golden/*.txt` pins this word sequence.
        0,
        0,
    ] {
        mix(v);
    }
    for c in &out.collections {
        mix(c.victim.index() as u64);
        mix(c.target.index() as u64);
        mix(c.live_bytes.get());
        mix(c.garbage_bytes.get());
    }
    if let Some(snap) = &out.telemetry {
        mix(snap.counters.events);
        mix(snap.counters.overwrites);
        mix(snap.counters.collections);
        mix(snap.counters.reclaimed_bytes);
        mix(snap.records.len() as u64);
    }
    h
}
