//! Snapshot generation files: `snap-GGGGGGGG.pgcs`.
//!
//! A generation is the whole run at a safepoint, and its file is
//! what recovery starts from: every partition's image, partition 0 first,
//! then one **run image**, back to back with nothing between them. All
//! integers little-endian:
//!
//! ```text
//! partition image (one per partition):
//!   header:  magic "PGCS" | version u32 | generation u64 | partition u32
//!            | events_applied u64 | collections u64
//!            | record_count u32 | live_bytes u64
//!   record*: oid u64 | offset u64 | size u64 | weight u8
//!            | slot_count u32 | slot*: u64 (oid + 1; 0 encodes None)
//!   footer:  crc32 u32 over every preceding byte of the image
//! run image (last):
//!   header:  magic "PGCR" | version u32 | generation u64
//!            | events_applied u64 | collections u64 | word_count u32
//!   word*:   u64
//!   footer:  crc32 u32
//! ```
//!
//! Records are in member-list order, so a restored partition's member list
//! is the live one. The run image's words belong to the run's owner (the
//! shard writes them: the database's bookkeeping, the policy, the trigger,
//! telemetry, sampling); this module frames and checksums them.
//! Each image keeps its own checksum, and the header and record counts are
//! all the reader needs to find where one ends and the next begins.
//!
//! One walker finds the images and one reader takes them in.
//! [`parse_generation`] reads a file usable whole or not at all: every
//! image checksums, the images cover partitions `0..n` in order, the run
//! image comes last, all of them name the same generation, event and
//! collection count, and each partition image's `live_bytes` sums its
//! records' sizes.
//! It keeps the checked bytes and decodes the records from them straight
//! into the database's own form ([`GenerationImage::records`]), the inverse
//! of the capture in this module. Whether the words and records make sense
//! otherwise is the restorer's to check.
//!
//! This is version 2. Version 1 images (records sorted by oid, each behind
//! a length prefix and carrying a birth stamp; no run image) are refused,
//! as are the one-file-per-image names of the builds before them: a
//! directory of either recovers by replay from event 0.
//!
//! A generation is produced in two halves. The run thread serialises every
//! partition straight from the object table, and the owner's words after
//! them, into one recycled buffer (`Generation::capture`); the store's
//! background thread then fills in each checksum (`Generation::seal`) and
//! lands the file through `fs::replace`, the temp-sync-rename the manifest
//! lands by too, so a torn snapshot write never shadows an older valid
//! generation. This module writes no file itself. [`capture_generation`]
//! is both halves in one call, for a reader that holds a landed file to
//! the state it restores to.

use super::crc::crc32;
use super::{io_err, numbered_files, u32_at, u64_at};
use pgc_odb::storage::{ObjAddr, ObjectRecord, Slot};
use pgc_odb::Database;
use pgc_types::{Bytes, Oid, PartitionId, PgcError, Result};
use std::fs;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"PGCS";
const RUN_MAGIC: &[u8; 4] = b"PGCR";
const VERSION: u32 = 2;
const HEADER_BYTES: usize = 4 + 4 + 8 + 4 + 8 + 8 + 4 + 8;
/// Fixed part of a record: oid, offset, size, weight and slot count.
const RECORD_FIXED_BYTES: usize = 8 + 8 + 8 + 1 + 4;
const RUN_HEADER_BYTES: usize = 4 + 4 + 8 + 8 + 8 + 4;
const FOOTER_BYTES: usize = 4;

/// File name of snapshot generation `generation`.
pub(crate) fn snapshot_name(generation: u64) -> String {
    format!("snap-{generation:08}.pgcs")
}

fn bad(reason: &str) -> PgcError {
    PgcError::TraceFormat(format!("snapshot: {reason}"))
}

/// Appends a partition image's header.
fn put_partition_header(
    buf: &mut Vec<u8>,
    [generation, events_applied, collections]: [u64; 3],
    partition: u32,
    record_count: u32,
    live_bytes: u64,
) {
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&generation.to_le_bytes());
    buf.extend_from_slice(&partition.to_le_bytes());
    buf.extend_from_slice(&events_applied.to_le_bytes());
    buf.extend_from_slice(&collections.to_le_bytes());
    buf.extend_from_slice(&record_count.to_le_bytes());
    buf.extend_from_slice(&live_bytes.to_le_bytes());
}

/// Appends one record.
fn put_record(
    buf: &mut Vec<u8>,
    [oid, offset, size]: [u64; 3],
    weight: u8,
    slots: impl ExactSizeIterator<Item = Option<u64>>,
) {
    let mut fixed = [0u8; RECORD_FIXED_BYTES];
    fixed[..8].copy_from_slice(&oid.to_le_bytes());
    fixed[8..16].copy_from_slice(&offset.to_le_bytes());
    fixed[16..24].copy_from_slice(&size.to_le_bytes());
    fixed[24] = weight;
    fixed[25..].copy_from_slice(&(slots.len() as u32).to_le_bytes());
    buf.reserve(RECORD_FIXED_BYTES + slots.len() * 8);
    buf.extend_from_slice(&fixed);
    for slot in slots {
        buf.extend_from_slice(&slot.map_or(0, |o| o + 1).to_le_bytes());
    }
}

/// Appends a run image of `words`, its footer zeroed for [`seal`].
fn put_run_image(
    buf: &mut Vec<u8>,
    [generation, events_applied, collections]: [u64; 3],
    words: &[u64],
) {
    buf.reserve(RUN_HEADER_BYTES + words.len() * 8 + FOOTER_BYTES);
    buf.extend_from_slice(RUN_MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&generation.to_le_bytes());
    buf.extend_from_slice(&events_applied.to_le_bytes());
    buf.extend_from_slice(&collections.to_le_bytes());
    buf.extend_from_slice(&(words.len() as u32).to_le_bytes());
    for w in words {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf.extend_from_slice(&[0; FOOTER_BYTES]);
}

/// Fills in the checksum footer of one image.
fn seal(image: &mut [u8]) {
    let (body, footer) = image.split_at_mut(image.len() - FOOTER_BYTES);
    footer.copy_from_slice(&crc32(body).to_le_bytes());
}

/// The image's body (everything but the footer), once its checksum holds.
fn checked_body(image: &[u8]) -> Result<&[u8]> {
    match image.split_last_chunk::<FOOTER_BYTES>() {
        Some((body, footer)) if crc32(body) == u32::from_le_bytes(*footer) => Ok(body),
        _ => Err(bad("checksum mismatch")),
    }
}

/// Length of the image at the front of `bytes`, found from its header and
/// counts alone (nothing else is looked at, the checksum included). Every
/// length is checked against the bytes present, and so is every count
/// before anything is sized by it; a version other than this one is
/// refused before anything is walked.
fn image_len(bytes: &[u8]) -> Result<usize> {
    if bytes.len() < 8 || !(&bytes[..4] == MAGIC || &bytes[..4] == RUN_MAGIC) {
        return Err(bad("bad or missing header"));
    }
    let version = u32_at(bytes, 4);
    if version != VERSION {
        return Err(bad(&format!("unsupported version {version}")));
    }
    if &bytes[..4] == RUN_MAGIC {
        if bytes.len() < RUN_HEADER_BYTES + FOOTER_BYTES {
            return Err(bad("truncated run image header"));
        }
        let words = u32_at(bytes, 32) as usize;
        if words > (bytes.len() - RUN_HEADER_BYTES - FOOTER_BYTES) / 8 {
            return Err(bad("word count exceeds the bytes present"));
        }
        return Ok(RUN_HEADER_BYTES + words * 8 + FOOTER_BYTES);
    }
    if bytes.len() < HEADER_BYTES + FOOTER_BYTES {
        return Err(bad("truncated header"));
    }
    let record_count = u32_at(bytes, 36) as usize;
    if record_count > (bytes.len() - HEADER_BYTES - FOOTER_BYTES) / RECORD_FIXED_BYTES {
        return Err(bad("record count exceeds the bytes present"));
    }
    let mut pos = HEADER_BYTES;
    for _ in 0..record_count {
        if bytes.len() - pos < RECORD_FIXED_BYTES {
            return Err(bad("truncated record"));
        }
        let slots = u32_at(bytes, pos + 25) as usize;
        let len = RECORD_FIXED_BYTES + slots * 8;
        if bytes.len() - pos < len {
            return Err(bad("truncated record"));
        }
        pos += len;
    }
    if bytes.len() - pos < FOOTER_BYTES {
        return Err(bad("truncated footer"));
    }
    Ok(pos + FOOTER_BYTES)
}

/// The images at the front of `bytes`, one walk step at a time; the first
/// whose end cannot be found is an `Err` and the last entry.
fn walk(mut bytes: &[u8]) -> impl Iterator<Item = Result<&[u8]>> {
    std::iter::from_fn(move || {
        if bytes.is_empty() {
            return None;
        }
        Some(match image_len(bytes) {
            Ok(len) => {
                let (image, rest) = bytes.split_at(len);
                bytes = rest;
                Ok(image)
            }
            Err(lost) => {
                bytes = &[];
                Err(lost)
            }
        })
    })
}

/// A generation file read back whole: its checked bytes, where each
/// partition's image starts in them, and the run image's words. What a
/// restore starts from.
#[derive(Debug)]
pub struct GenerationImage {
    /// Snapshot generation (1-based, monotone per run).
    pub generation: u64,
    /// Events applied when the generation was taken.
    pub events_applied: u64,
    /// Collections completed when the generation was taken.
    pub collections: u64,
    /// The run image's words, as the run's owner wrote them.
    pub run: Vec<u64>,
    bytes: Vec<u8>,
    /// `starts[p]` is where partition `p`'s image starts in `bytes`.
    starts: Vec<usize>,
}

impl GenerationImage {
    /// The file as it was read.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Partition images in the file (the run image is not one).
    pub fn partitions(&self) -> usize {
        self.starts.len()
    }

    /// Every object record as the database holds it, partition 0's first,
    /// each partition's in member-list order: the inverse of what
    /// `Generation::capture` writes.
    pub fn records(&self) -> impl Iterator<Item = (Oid, ObjectRecord)> + '_ {
        let b = &self.bytes[..];
        self.record_starts().map(move |(partition, at)| {
            let slots = (0..u32_at(b, at + 25) as usize).map(|i| {
                let word = u64_at(b, at + RECORD_FIXED_BYTES + 8 * i);
                Slot::from(word.checked_sub(1).map(Oid))
            });
            let record = ObjectRecord {
                addr: ObjAddr::new(PartitionId(partition), u64_at(b, at + 8)),
                size: Bytes(u64_at(b, at + 16)),
                slots: slots.collect(),
                weight: b[at + 24],
            };
            (Oid(u64_at(b, at)), record)
        })
    }

    /// Where each record starts in `bytes`, with its partition.
    fn record_starts(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        let b = &self.bytes[..];
        self.starts
            .iter()
            .zip(0..)
            .flat_map(move |(&start, partition)| {
                let mut at = start + HEADER_BYTES;
                (0..u32_at(b, start + 36)).map(move |_| {
                    let record = at;
                    at += RECORD_FIXED_BYTES + 8 * u32_at(b, at + 25) as usize;
                    (partition, record)
                })
            })
    }
}

/// [`read_generation`] on bytes already read: see the module docs.
fn parse_generation(bytes: Vec<u8>) -> Result<GenerationImage> {
    let mut images = walk(&bytes);
    let (mut starts, mut at) = (Vec::new(), 0);
    let run = loop {
        let image = images.next().ok_or_else(|| bad("no run image"))??;
        let body = checked_body(image)?;
        if image.starts_with(RUN_MAGIC) {
            break body;
        }
        if u32_at(body, 16) as usize != starts.len() {
            return Err(bad("partition images out of order"));
        }
        starts.push(at);
        at += image.len();
    };
    if images.next().is_some() {
        return Err(bad("bytes after the run image"));
    }
    drop(images);
    // Generation, then events applied and collections, in every header.
    let stamp = |s: usize| [&bytes[s + 8..s + 16], &bytes[s + 20..s + 36]];
    if starts
        .iter()
        .any(|&s| stamp(s) != [&run[8..16], &run[16..32]])
    {
        return Err(bad("images of different generations"));
    }
    let image = GenerationImage {
        generation: u64_at(run, 8),
        events_applied: u64_at(run, 16),
        collections: u64_at(run, 24),
        run: run[RUN_HEADER_BYTES..]
            .chunks_exact(8)
            .map(|w| u64_at(w, 0))
            .collect(),
        bytes,
        starts,
    };
    let mut live = vec![0u128; image.partitions()];
    for (partition, at) in image.record_starts() {
        live[partition as usize] += u128::from(u64_at(&image.bytes, at + 16));
    }
    let stated = image.starts.iter().map(|&s| u64_at(&image.bytes, s + 40));
    if !live.into_iter().eq(stated.map(u128::from)) {
        return Err(bad("live_bytes disagrees with the records"));
    }
    Ok(image)
}

/// Reads one generation file whole: any image that does not walk,
/// checksum or agree with the others is an `Err` for the file.
pub fn read_generation(path: &Path) -> Result<GenerationImage> {
    parse_generation(fs::read(path).map_err(io_err(path))?)
}

/// The file the store lands for `db` at `stamp` (generation, events
/// applied, collections), the words `run` appends making its run image:
/// the capture a landing serialises, sealed here instead of on the
/// store's background thread. `verify` holds landed files to it.
pub fn capture_generation(
    db: &Database,
    stamp: [u64; 3],
    run: impl FnOnce(&mut Vec<u64>),
) -> Result<Vec<u8>> {
    let mut generation = Generation::default();
    generation.capture(db, stamp, run)?;
    generation.seal();
    Ok(generation.bytes)
}

/// A generation file found in a data directory (not yet validated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFile {
    /// Generation parsed from the file name.
    pub generation: u64,
    /// Full path.
    pub path: PathBuf,
}

/// Lists the generation files under `dir`, oldest first. A stray `.tmp`
/// from an interrupted write is not one, and neither is anything else
/// whose name is not `snap-` + a number + `.pgcs`.
pub fn scan_snapshots(dir: &Path) -> Result<Vec<SnapshotFile>> {
    Ok(numbered_files(dir, "snap-", ".pgcs")?
        .into_iter()
        .map(|(generation, path)| SnapshotFile { generation, path })
        .collect())
}

/// One snapshot generation on its way from the run thread to disk: every
/// partition's image and the run image, back to back in one buffer that is
/// recycled between generations — the file, but for its checksums.
#[derive(Debug, Default)]
pub(crate) struct Generation {
    generation: u64,
    /// The images, partition 0 first, the run image last. Each ends in a
    /// zeroed footer slot until [`Generation::seal`] fills the checksum
    /// in.
    bytes: Vec<u8>,
    /// `ends[i]` is where image `i` ends in `bytes`.
    ends: Vec<usize>,
    /// The owner's words for the run image.
    words: Vec<u64>,
}

impl Generation {
    /// The generation's 1-based number.
    pub(crate) fn number(&self) -> u64 {
        self.generation
    }

    /// Partition images in this generation (the run image is not one).
    pub(crate) fn images(&self) -> u32 {
        self.ends.len().saturating_sub(1) as u32
    }

    /// Size of the file.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Run-thread half: replaces the contents with every partition of `db`
    /// as it stands, serialised in one pass over the object table, then
    /// the words `run` appends.
    pub(crate) fn capture(
        &mut self,
        db: &Database,
        [generation, events_applied, collections]: [u64; 3],
        run: impl FnOnce(&mut Vec<u64>),
    ) -> Result<()> {
        self.generation = generation;
        self.bytes.clear();
        self.ends.clear();
        let objects = db.objects();
        let stamp = [generation, events_applied, collections];
        for partition in 0..db.partition_count() as u32 {
            let id = PartitionId(partition);
            let buf = &mut self.bytes;
            let start = buf.len();
            put_partition_header(buf, stamp, partition, objects.member_count(id) as u32, 0);
            let mut live_bytes = 0u64;
            for oid in objects.members(id) {
                let rec = objects.get(oid)?;
                live_bytes += rec.size.get();
                put_record(
                    buf,
                    [oid.index(), rec.addr.offset, rec.size.get()],
                    rec.weight,
                    rec.slots.iter().map(|s| s.get().map(|o| o.index())),
                );
            }
            buf[start + 40..start + 48].copy_from_slice(&live_bytes.to_le_bytes());
            buf.extend_from_slice(&[0; FOOTER_BYTES]);
            self.ends.push(buf.len());
        }
        self.words.clear();
        run(&mut self.words);
        put_run_image(&mut self.bytes, stamp, &self.words);
        self.ends.push(self.bytes.len());
        Ok(())
    }

    /// Fills in every image's checksum footer and returns the finished
    /// file.
    pub(crate) fn seal(&mut self) -> &[u8] {
        let mut start = 0;
        for &end in &self.ends {
            seal(&mut self.bytes[start..end]);
            start = end;
        }
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    // These tests plant damaged generation files.
    #![allow(clippy::disallowed_methods)]

    use super::*;
    use crate::durable::store::tests::churn;
    use crate::durable::{outcome_digest, recover, restore, verify, DurabilityConfig, ScratchDir};
    use crate::run::RunConfig;

    /// A small run's data directory, its digest, and its newest generation
    /// file: the generation, the path, the bytes, and where each image (the
    /// run image last) starts in them.
    struct RealRun {
        dir: ScratchDir,
        digest: u64,
        generation: u64,
        older: u64,
        path: PathBuf,
        bytes: Vec<u8>,
        starts: Vec<usize>,
    }

    fn real_run(policy: &str) -> RealRun {
        let dir = ScratchDir::new("hostile-pgcs");
        // 4,736 events: a generation at the `BLOCK_EVENTS` boundary, the
        // closing one at the end, and collections in the tail between.
        let mut cfg = RunConfig::small()
            .with_seed(5)
            .with_heap_growth(Bytes::from_kib(192))
            .with_gc_overwrite_threshold(25)
            .with_durability(DurabilityConfig::snapshot_and_log(dir.path()).with_snapshot_every(1));
        cfg.policy = policy.parse().expect("a policy");
        let digest = outcome_digest(&churn(&cfg, 40, |_, _| {}));
        let files = scan_snapshots(dir.path()).expect("scan");
        let [older, newest] = &files[..] else {
            panic!("two generations are kept, found {files:?}");
        };
        let bytes = fs::read(&newest.path).expect("read the newest generation");
        let starts: Vec<usize> = walk(&bytes)
            .scan(0, |at, image| {
                let start = *at;
                *at += image.expect("a landed file walks").len();
                Some(start)
            })
            .collect();
        assert!(starts.len() >= 4, "the run must spread over partitions");
        let recovered = recover(dir.path()).expect("recover the clean directory");
        assert_eq!(outcome_digest(&recovered.outcome), digest);
        assert_eq!(recovered.restored_from, Some(newest.generation));
        assert_eq!(
            recovered.tail_events, 0,
            "the closing generation is the end"
        );
        RealRun {
            digest,
            generation: newest.generation,
            older: older.generation,
            path: newest.path.clone(),
            bytes,
            starts,
            dir,
        }
    }

    impl RealRun {
        /// Plants `hostile` as the newest generation file. The reader must
        /// refuse it unless it is the landed bytes; restoring from the
        /// planted generation must fail unless it is the landed bytes; and
        /// recovery over the directory must reach the undamaged digest,
        /// from the older generation if need be.
        fn survives(&self, hostile: &[u8], what: &str) {
            if let Ok(image) = parse_generation(hostile.to_vec()) {
                assert!(image.bytes() == self.bytes, "{what}: read as a file");
            }
            self.recovers_past(hostile, what);
        }

        /// The part of [`RealRun::survives`] that holds for any bytes.
        /// Returns why the planted generation was passed over (empty when
        /// it was restored).
        fn recovers_past(&self, hostile: &[u8], what: &str) -> String {
            fs::write(&self.path, hostile).expect("plant");
            let intact = hostile == self.bytes;
            let (mut shard, tail) =
                restore(self.dir.path()).unwrap_or_else(|e| panic!("{what}: {e}"));
            let refusal = match &tail.passed_over[..] {
                [] => String::new(),
                [(generation, why)] if *generation == self.generation => why.to_string(),
                other => panic!("{what}: passed over {other:?}"),
            };
            assert_eq!(
                refusal.is_empty(),
                intact,
                "{what}: restored from {hostile:?}"
            );
            tail.replay(&mut shard)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let recovered = tail.finish(shard).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(outcome_digest(&recovered.outcome), self.digest, "{what}");
            let from = if intact { self.generation } else { self.older };
            assert_eq!(recovered.restored_from, Some(from), "{what}");
            fs::write(&self.path, &self.bytes).expect("put the landed file back");
            refusal
        }

        /// Plants the newest generation edited in place and resealed:
        /// checksum-valid bytes that say something no run wrote. The
        /// restore must refuse it for the reason `why` names.
        fn edited(&self, what: &str, why: &str, edit: impl FnOnce(&mut Vec<u8>)) {
            let mut hostile = self.bytes.clone();
            edit(&mut hostile);
            reseal_all(&mut hostile);
            assert!(
                parse_generation(hostile.clone()).is_ok(),
                "{what}: checksum-valid"
            );
            let refusal = self.recovers_past(&hostile, what);
            assert!(refusal.contains(why), "{what}: refused with `{refusal}`");
        }

        /// Where run word `i` of the newest generation lies in its bytes.
        fn run_word(&self, i: usize) -> usize {
            self.starts[self.starts.len() - 1] + RUN_HEADER_BYTES + 8 * i
        }

        /// Which run word of the newest generation `saved` starts at.
        fn run_words_at(&self, saved: &[u64]) -> usize {
            word_at(&parse_generation(self.bytes.clone()).unwrap().run, saved)
        }

        /// The first record of the newest generation that holds a pointer:
        /// where its image starts, where it starts, and where its first
        /// non-empty slot lies.
        fn first_pointer(&self) -> [usize; 3] {
            let b = &self.bytes;
            for &image in &self.starts[..self.starts.len() - 1] {
                let mut at = image + HEADER_BYTES;
                for _ in 0..u32_at(b, image + 36) {
                    let slots_at = at + RECORD_FIXED_BYTES;
                    let end = slots_at + 8 * u32_at(b, at + 25) as usize;
                    if let Some(slot) = (slots_at..end).step_by(8).find(|&s| u64_at(b, s) != 0) {
                        return [image, at, slot];
                    }
                    at = end;
                }
            }
            panic!("a pointer somewhere")
        }
    }

    /// Which of `words` the state `saved` starts at.
    fn word_at(words: &[u64], saved: &[u64]) -> usize {
        let at = words.windows(saved.len()).position(|w| w == saved);
        at.expect("the saved state is in the run image")
    }

    /// Recomputes the checksum of the image at `start` where the reader
    /// will look for it, so that damage to a count is reached and not
    /// merely caught by the CRC. An image whose end the walk cannot find
    /// has no such place.
    fn reseal(bytes: &mut [u8], start: usize) {
        if let Ok(len) = image_len(&bytes[start..]) {
            seal(&mut bytes[start..start + len]);
        }
    }

    /// [`reseal`] for every image the walk finds, front to back.
    fn reseal_all(bytes: &mut [u8]) {
        let mut at = 0;
        while let Ok(len) = image_len(&bytes[at..]) {
            seal(&mut bytes[at..at + len]);
            at += len;
        }
    }

    fn put_u64(bytes: &mut [u8], at: usize, value: u64) {
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// 60 bytes, checksum-valid: the first header of `landed` stating
    /// `record_count = u32::MAX` over 8 bytes that are no record. Sizing
    /// anything by that count asks for 240 GB and aborts the process.
    fn four_billion_records(landed: &[u8]) -> Vec<u8> {
        let mut file = landed[..HEADER_BYTES].to_vec();
        file[36..40].copy_from_slice(&u32::MAX.to_le_bytes());
        file.extend_from_slice(&[0; 8 + FOOTER_BYTES]);
        seal(&mut file);
        assert_eq!(file.len(), 60);
        file
    }

    #[test]
    fn a_header_stating_four_billion_records_is_an_error_not_an_allocation() {
        let run = real_run("UpdatedPointer");
        let file = four_billion_records(&run.bytes);
        assert!(parse_generation(file.clone()).is_err());

        // Planted beside the run's files under a name newer than any of
        // them, it costs recovery one skip and nothing else.
        let bogus = 99_999_999;
        fs::write(run.dir.join(snapshot_name(bogus)), &file).expect("plant");
        let (mut shard, tail) = restore(run.dir.path()).expect("restore");
        let passed: Vec<u64> = tail.passed_over.iter().map(|(g, _)| *g).collect();
        assert_eq!(passed, [bogus]);
        assert_eq!(tail.restored_from, Some(run.generation));
        assert_eq!(tail.log.trace.events(), 0);
        tail.replay(&mut shard).expect("replay");
        let recovered = tail.finish(shard).expect("finish");
        assert_eq!(outcome_digest(&recovered.outcome), run.digest);
        assert_eq!(recovered.tail_events, 0);

        let verified = verify(run.dir.path()).expect("verify");
        assert_eq!(outcome_digest(&verified.outcome), run.digest);
        assert_eq!(verified.snapshot_files_skipped, 1);
        assert_eq!(verified.snapshots_verified, 2);
    }

    #[test]
    fn hostile_generation_files_come_back_as_errors_never_a_panic() {
        let run = real_run("UpdatedPointer");
        run.survives(&run.bytes, "undamaged");
        run.survives(
            &four_billion_records(&run.bytes),
            "a lone header stating four billion records",
        );
        for cut in (0..run.bytes.len()).step_by(97) {
            run.survives(&run.bytes[..cut], &format!("truncated at {cut}"));
        }
        for at in (0..run.bytes.len()).step_by(89) {
            let mut flipped = run.bytes.clone();
            flipped[at] ^= 0x5A;
            run.survives(&flipped, &format!("byte {at} flipped"));
        }
        // The counts the walk and the parse trust, in every image: a
        // partition image's record count and first record's slot count, the
        // run image's word count.
        let run_image = run.starts[run.starts.len() - 1];
        for (i, &start) in run.starts.iter().enumerate() {
            let fields = if start == run_image {
                vec![("word_count", start + 32)]
            } else {
                vec![
                    ("record_count", start + 36),
                    ("first record slot_count", start + HEADER_BYTES + 25),
                ]
            };
            for (field, at) in fields {
                let stated = u32_at(&run.bytes, at);
                for value in [0, u32::MAX, stated.wrapping_sub(1), stated.wrapping_add(1)] {
                    let mut hostile = run.bytes.clone();
                    hostile[at..at + 4].copy_from_slice(&value.to_le_bytes());
                    reseal(&mut hostile, start);
                    run.survives(&hostile, &format!("image {i}: {field} = {value}"));
                }
            }
        }
    }

    #[test]
    fn checksum_valid_generations_that_no_run_wrote_are_refused() {
        let run = real_run("UpdatedPointer");
        let [image, record, slot] = run.first_pointer();
        run.edited("a slot naming an absent oid", "absent object", |b| {
            put_u64(b, slot, u64::MAX - 6);
        });
        run.edited(
            "an offset past the partition's capacity",
            "past its partition",
            |b| put_u64(b, record + 8, 16 * 1024),
        );
        run.edited("an oid twice", "or twice", |b| {
            let end = record + RECORD_FIXED_BYTES + 8 * u32_at(b, record + 25) as usize;
            let twin = b[record..end].to_vec();
            b.splice(end..end, twin);
            let count = u32_at(b, image + 36) + 1;
            b[image + 36..image + 40].copy_from_slice(&count.to_le_bytes());
            let live = u64_at(b, image + 40) + u64_at(b, record + 16);
            put_u64(b, image + 40, live);
        });

        // The database's state opens with the oid bound; the buffer's pages
        // are its last words.
        let (shard, _) = restore(run.dir.path()).expect("clean");
        let mut db = Vec::new();
        shard.db().save_state(&mut db);
        let oid_bound = run.run_words_at(&db);
        let last_page = oid_bound + db.len() - 1;
        run.edited("a buffered page out of range", "page out of range", |b| {
            put_u64(b, run.run_word(last_page), u64::MAX)
        });
        // A trillion events and as many oids: sizing the object table by
        // that aborts the process. Only the log can say no run got there.
        let far = 1u64 << 40;
        run.edited(
            "events and oids no log reaches",
            "the log does not reach",
            |b| {
                let (partitions, run_image) = run.starts.split_at(run.starts.len() - 1);
                for &start in partitions {
                    put_u64(b, start + 20, far);
                }
                put_u64(b, run_image[0] + 16, far);
                put_u64(b, run.run_word(0), far);
                put_u64(b, run.run_word(oid_bound), far);
            },
        );
        run.edited("an oid far past the events", "oid past the bound", |b| {
            put_u64(b, record, far)
        });

        // The meta-policy's state opens with its incumbent.
        let meta = real_run("AdaptiveMeta");
        let (shard, _) = restore(meta.dir.path()).expect("clean");
        let mut collector = Vec::new();
        shard.collector().save(&mut collector);
        let incumbent = meta.run_words_at(&collector);
        meta.edited("an incumbent outside the slate", "incumbent 99", |b| {
            put_u64(b, meta.run_word(incumbent), 99);
        });

        // Counters a tail replay adds to, near the top of `u64`, in the
        // older generation alone, as a kill between the two landings leaves
        // the directory: the database's, the buffer's I/O counts, the
        // policy's allocation clock, the trigger's, and the telemetry
        // recorder's counters, histogram tallies and clocks. Each is
        // refused, and replay from event 0 reaches the undamaged digest, or
        // restored, and the tail behind it replays to a finish.
        fs::remove_file(&run.path).expect("remove the newest generation");
        let (shard, tail) = restore(run.dir.path()).expect("the older generation");
        assert_eq!(tail.restored_from, Some(run.older));
        let closing = tail.log.safepoints.last().expect("the closing frame");
        assert!(
            closing.collections > shard.db().stats().collections,
            "a collection in the tail to replay"
        );
        let older = run.dir.join(snapshot_name(run.older));
        let landed = fs::read(&older).expect("read");
        let words = parse_generation(landed.clone()).expect("landed").run;
        let run_words = landed.len() - FOOTER_BYTES - 8 * words.len();
        let (mut db, mut collector) = (Vec::new(), Vec::new());
        shard.db().save_state(&mut db);
        shard.collector().save(&mut collector);
        let stats = word_at(&words, &db) + 2 + shard.db().roots().count();
        let io = shard.db().io_stats();
        let io = [
            io.app_disk_reads,
            io.app_disk_writes,
            io.gc_disk_reads,
            io.gc_disk_writes,
            io.hits,
            io.misses,
        ];
        let buffer = word_at(&words, &io);
        let policy = word_at(&words, &collector);
        let trigger = policy + collector.len() - 5;
        let telemetry = policy + collector.len() + 1;
        // Sampling is off: the run image ends in the next sample (never)
        // and an empty series, behind the telemetry's two clocks.
        assert!(words.ends_with(&[u64::MAX, 0]));
        let histograms = (0..3).flat_map(|h| [65, 66].map(|w| telemetry + 15 + 68 * h + w));
        let counters = (stats..stats + 9)
            .chain(buffer..buffer + io.len())
            .chain([policy])
            .chain(trigger..trigger + 5)
            .chain(telemetry..telemetry + 15)
            .chain(histograms)
            .chain([words.len() - 4, words.len() - 3]);
        for word in counters {
            for value in [u64::MAX, u64::MAX - 1] {
                let what = format!("run word {word} = {value}");
                let mut hostile = landed.clone();
                put_u64(&mut hostile, run_words + 8 * word, value);
                reseal(&mut hostile, run_words - RUN_HEADER_BYTES);
                fs::write(&older, &hostile).expect("plant");
                let (mut shard, tail) = restore(run.dir.path()).expect(&what);
                tail.replay(&mut shard).expect(&what);
                let recovered = tail.finish(shard).expect(&what);
                if recovered.restored_from.is_none() {
                    assert_eq!(outcome_digest(&recovered.outcome), run.digest, "{what}");
                }
            }
        }
    }
}
