//! Snapshot generation files: `snap-GGGGGGGG.pgcs`.
//!
//! A generation is the whole run at a safepoint, and its file is
//! what recovery starts from: every partition's image, partition 0 first,
//! then one **run image**, back to back with nothing between them. All
//! fixed-width integers little-endian:
//!
//! ```text
//! partition image (one per partition):
//!   header:  magic "PGCS" | version u32 | generation u64 | partition u32
//!            | events_applied u64 | collections u64
//!            | record_count u32 | live_bytes u64 | body_bytes u64
//!   body:    record*, each against the one before (prev_oid, prev_end:
//!            its oid and offset + size; 0 before the first), varints LEB128:
//!            zigzag(oid - prev_oid) | zigzag(offset - prev_end) | size
//!            | weight u8 | slot_count
//!            | slot*: 0 for None, else zigzag(target - oid) + 1
//!   footer:  crc32 u32 over every preceding byte of the image
//! run image (last):
//!   header:  magic "PGCR" | version u32 | generation u64
//!            | events_applied u64 | collections u64 | word_count u32
//!   word*:   u64
//!   footer:  crc32 u32
//! ```
//!
//! Records are in member-list order, so a restored partition's member list
//! is the live one. That order is mostly allocation order, so the deltas
//! are small: a two-slot record takes about 8 bytes. The run image's words
//! belong to the run's owner (the shard writes them: the database's
//! bookkeeping, the policy, the trigger, telemetry, sampling); this module
//! frames and checksums them. Each image keeps its own checksum, and its
//! header alone says where it ends and the next begins.
//!
//! One walker finds the images and one reader takes them in.
//! [`parse_generation`] checks the framing of a file usable whole or not at
//! all: every image checksums, the images cover partitions `0..n` in order,
//! the run image comes last, all of them name the same generation, event
//! and collection count, and no image states more records than its body
//! holds. It keeps the checked bytes. The restore decodes each record from
//! them once, straight into the database's own form, the inverse of the
//! capture in this module ([`GenerationImage::records`]; `record.rs` owns
//! the codec), and that pass checks that each body is its records and
//! nothing else, their sizes summing to its `live_bytes`. Whether the words
//! and records make sense otherwise is the restorer's to check.
//!
//! This is version 4. Version 3 (the same framing, with a run image that
//! also held the scoreboard's allocation clock and telemetry's
//! policy-switch words), version 2 (fixed-width records, 29 bytes plus 8
//! per slot) and version 1 (records sorted by oid, each behind a length
//! prefix and carrying a birth stamp; no run image) are refused on the
//! version word, as are the one-file-per-image names of the
//! builds before them: a directory of any of these recovers by replay from
//! event 0.
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
use pgc_odb::storage::ObjectRecord;
use pgc_odb::Database;
use pgc_types::{Oid, PartitionId, PgcError, Result};
use std::fs;
use std::path::{Path, PathBuf};

mod record;

const MAGIC: &[u8; 4] = b"PGCS";
const RUN_MAGIC: &[u8; 4] = b"PGCR";
const VERSION: u32 = 4;
const HEADER_BYTES: usize = 4 + 4 + 8 + 4 + 8 + 8 + 4 + 8 + 8;
const RUN_HEADER_BYTES: usize = 4 + 4 + 8 + 8 + 8 + 4;
const FOOTER_BYTES: usize = 4;

/// File name of snapshot generation `generation`.
pub(crate) fn snapshot_name(generation: u64) -> String {
    format!("snap-{generation:08}.pgcs")
}

fn bad(reason: &str) -> PgcError {
    PgcError::TraceFormat(format!("snapshot: {reason}"))
}

/// Appends partition `partition`'s image of its `count` members, `records`
/// in member-list order, its footer zeroed for [`seal`].
fn put_partition<'a>(
    buf: &mut Vec<u8>,
    [generation, events_applied, collections]: [u64; 3],
    partition: u32,
    count: u32,
    records: impl Iterator<Item = Result<(Oid, &'a ObjectRecord)>>,
) -> Result<()> {
    let start = buf.len();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&generation.to_le_bytes());
    buf.extend_from_slice(&partition.to_le_bytes());
    buf.extend_from_slice(&events_applied.to_le_bytes());
    buf.extend_from_slice(&collections.to_le_bytes());
    buf.extend_from_slice(&count.to_le_bytes());
    buf.extend_from_slice(&[0; 16]);
    let (mut live_bytes, mut prev) = (0u64, [0; 2]);
    for rec in records {
        let (oid, rec) = rec?;
        live_bytes += rec.size.get();
        record::put_record(
            buf,
            &mut prev,
            [oid.index(), rec.addr.offset, rec.size.get()],
            rec.weight,
            rec.slots.iter().map(|s| s.get().map(|o| o.index())),
        )?;
    }
    let body_bytes = (buf.len() - start - HEADER_BYTES) as u64;
    buf[start + 40..start + 48].copy_from_slice(&live_bytes.to_le_bytes());
    buf[start + 48..start + 56].copy_from_slice(&body_bytes.to_le_bytes());
    buf.extend_from_slice(&[0; FOOTER_BYTES]);
    Ok(())
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

/// Length of the image at the front of `bytes`, found from its header
/// alone (nothing else is looked at, the checksum included). Its stated
/// length is checked against the bytes present; a version other than this
/// one is refused before anything is walked.
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
    let body = u64_at(bytes, 48);
    if body > (bytes.len() - HEADER_BYTES - FOOTER_BYTES) as u64 {
        return Err(bad("body length exceeds the bytes present"));
    }
    Ok(HEADER_BYTES + body as usize + FOOTER_BYTES)
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

/// A partition image's header and body (its records), from a checked image
/// without its footer.
fn split_partition(image: &[u8]) -> (&[u8], &[u8]) {
    image[..HEADER_BYTES + u64_at(image, 48) as usize].split_at(HEADER_BYTES)
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

    /// Bytes the object records take: every partition image's body,
    /// headers and footers left out.
    pub fn record_bytes(&self) -> u64 {
        self.starts
            .iter()
            .map(|&s| u64_at(&self.bytes, s + 48))
            .sum()
    }

    /// Each partition image's record count, as its header states it.
    pub fn record_counts(&self) -> impl Iterator<Item = usize> + '_ {
        self.starts
            .iter()
            .map(|&s| u32_at(&self.bytes, s + 36) as usize)
    }

    /// Every object record as the database holds it, partition 0's first,
    /// each partition's in member-list order: the inverse of what
    /// `Generation::capture` writes, decoded and checked in one pass.
    pub fn records(&self) -> impl Iterator<Item = Result<(Oid, ObjectRecord)>> + '_ {
        self.starts
            .iter()
            .zip(0..)
            .flat_map(move |(&start, partition)| {
                let (header, body) = split_partition(&self.bytes[start..]);
                let (count, live) = (u32_at(header, 36), u64_at(header, 40));
                record::records(body, count, live, PartitionId(partition))
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
        let (header, records) = split_partition(body);
        if u32_at(header, 16) as usize != starts.len() {
            return Err(bad("partition images out of order"));
        }
        if u32_at(header, 36) as usize > records.len() / record::MIN_RECORD_BYTES {
            return Err(bad("record count exceeds the bytes present"));
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
    Ok(GenerationImage {
        generation: u64_at(run, 8),
        events_applied: u64_at(run, 16),
        collections: u64_at(run, 24),
        run: run[RUN_HEADER_BYTES..]
            .chunks_exact(8)
            .map(|w| u64_at(w, 0))
            .collect(),
        bytes,
        starts,
    })
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
        stamp: [u64; 3],
        run: impl FnOnce(&mut Vec<u64>),
    ) -> Result<()> {
        let objects = db.objects();
        let partitions = (0..db.partition_count() as u32).map(|p| {
            let id = PartitionId(p);
            let records = objects.members(id).map(|oid| Ok((oid, objects.get(oid)?)));
            (objects.member_count(id) as u32, records)
        });
        self.capture_records(stamp, partitions, run)
    }

    /// [`Generation::capture`] of the partitions `partitions` lists, each
    /// as its record count and records.
    fn capture_records<'a, R>(
        &mut self,
        stamp: [u64; 3],
        partitions: impl Iterator<Item = (u32, R)>,
        run: impl FnOnce(&mut Vec<u64>),
    ) -> Result<()>
    where
        R: Iterator<Item = Result<(Oid, &'a ObjectRecord)>>,
    {
        self.generation = stamp[0];
        self.bytes.clear();
        self.ends.clear();
        for (partition, (count, records)) in (0..).zip(partitions) {
            put_partition(&mut self.bytes, stamp, partition, count, records)?;
            self.ends.push(self.bytes.len());
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
    use pgc_odb::storage::Slot;
    use pgc_types::Bytes;

    /// A small run's data directory, its digest, and its newest generation
    /// file: the generation, the path, and the file read.
    struct RealRun {
        dir: ScratchDir,
        digest: u64,
        generation: u64,
        older: u64,
        path: PathBuf,
        image: GenerationImage,
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
        let image = parse_generation(bytes).expect("a landed file reads");
        assert!(image.partitions() >= 3, "spread over partitions");
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
            image,
            dir,
        }
    }

    impl RealRun {
        /// Plants `hostile` as the newest generation file. Reading and
        /// restoring the planted generation must fail unless it is the
        /// landed bytes, and recovery over the directory must reach the
        /// undamaged digest, from the older generation if need be. Returns
        /// why the planted generation was passed over (empty when it was
        /// restored).
        fn recovers_past(&self, hostile: &[u8], what: &str) -> String {
            fs::write(&self.path, hostile).expect("plant");
            let intact = hostile == self.image.bytes();
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
            fs::write(&self.path, self.image.bytes()).expect("put the landed file back");
            refusal
        }

        /// Plants the newest generation edited in place and resealed:
        /// checksum-valid bytes that say something no run wrote. The
        /// restore must refuse it for the reason `why` names.
        fn edited(&self, what: &str, why: &str, edit: impl FnOnce(&mut Vec<u8>)) {
            let mut hostile = self.image.bytes().to_vec();
            edit(&mut hostile);
            reseal(&mut hostile, 0);
            assert!(
                parse_generation(hostile.clone()).is_ok(),
                "{what}: checksum-valid"
            );
            let refusal = self.recovers_past(&hostile, what);
            assert!(refusal.contains(why), "{what}: refused with `{refusal}`");
        }

        /// [`RealRun::edited`] with the edit made to the records (in
        /// [`GenerationImage::records`] order), and the file captured again
        /// from them with the module's own writer.
        fn recoded(&self, what: &str, why: &str, edit: impl FnOnce(&mut Vec<(Oid, ObjectRecord)>)) {
            let (image, mut records) = (&self.image, self.records());
            edit(&mut records);
            let mut parts = vec![Vec::new(); image.partitions()];
            for (oid, rec) in records {
                parts[rec.addr.partition.as_usize()].push((oid, rec));
            }
            let partitions = parts
                .iter()
                .map(|p| (p.len() as u32, p.iter().map(|(o, r)| Ok((*o, r)))));
            let stamp = [image.generation, image.events_applied, image.collections];
            let mut generation = Generation::default();
            let run = |out: &mut Vec<u64>| out.extend(&image.run);
            generation
                .capture_records(stamp, partitions, run)
                .expect("encodes");
            self.edited(what, why, |b| *b = generation.seal().to_vec());
        }

        /// The newest generation's records, decoded.
        fn records(&self) -> Vec<(Oid, ObjectRecord)> {
            let records = self.image.records().collect::<Result<_>>();
            records.expect("a landed file decodes")
        }

        /// The newest generation with partition `p`'s body replaced by
        /// `body`, its header stating `count` records of `live` bytes, and
        /// every image resealed.
        fn spliced(&self, p: usize, body: &[u8], count: u32, live: u64) -> Vec<u8> {
            let (bytes, start) = (self.image.bytes(), self.image.starts[p]);
            let end = start + image_len(&bytes[start..]).expect("a landed image");
            let mut header = bytes[start..start + HEADER_BYTES].to_vec();
            header[36..40].copy_from_slice(&count.to_le_bytes());
            put_u64(&mut header, 40, live);
            put_u64(&mut header, 48, body.len() as u64);
            let footer = [0; FOOTER_BYTES];
            let mut file = [&bytes[..start], &header, body, &footer, &bytes[end..]].concat();
            reseal(&mut file, 0);
            file
        }

        /// Where each image of the newest generation starts, the run image
        /// last.
        fn starts(&self) -> impl Iterator<Item = usize> + '_ {
            let run_image = self.run_word(0) - RUN_HEADER_BYTES;
            self.image.starts.iter().copied().chain([run_image])
        }

        /// Where run word `i` of the newest generation lies in its bytes.
        fn run_word(&self, i: usize) -> usize {
            self.image.bytes().len() - FOOTER_BYTES - 8 * (self.image.run.len() - i)
        }

        /// Where the first record of partition `p` states its slot count
        /// (one byte, below 128), found by re-encoding its head with none;
        /// `None` for a partition without records.
        fn slot_count_at(&self, p: usize) -> Option<usize> {
            let records = self.records();
            let (oid, rec) = records
                .into_iter()
                .find(|(_, r)| r.addr.partition.as_usize() == p)?;
            assert!(rec.slots.len() < 128, "a one-byte slot count");
            let (fields, mut head) = ([oid.index(), rec.addr.offset, rec.size.get()], vec![]);
            record::put_record(&mut head, &mut [0; 2], fields, rec.weight, [].into_iter()).ok()?;
            Some(self.image.starts[p] + HEADER_BYTES + head.len() - 1)
        }
    }

    /// Which of `words` the state `saved` starts at.
    fn word_at(words: &[u64], saved: &[u64]) -> usize {
        let at = words.windows(saved.len()).position(|w| w == saved);
        at.expect("the saved state is in the run image")
    }

    /// Recomputes the checksum of each image the walk finds from `start`
    /// on, where the reader will look for it, so that damage to a count is
    /// reached and not merely caught by the CRC. An image whose end the
    /// walk cannot find has no such place, and ends the walk.
    fn reseal(bytes: &mut [u8], mut start: usize) {
        while let Ok(len) = image_len(&bytes[start..]) {
            seal(&mut bytes[start..start + len]);
            start += len;
        }
    }

    fn put_u64(bytes: &mut [u8], at: usize, value: u64) {
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// 60 bytes, checksum-valid: partition 0's image at `image`'s stamp
    /// stating `record_count = u32::MAX` over a body of none. Sizing
    /// anything by that count asks for 240 GB and aborts the process.
    fn four_billion_records(image: &GenerationImage) -> Vec<u8> {
        let stamp = [image.generation, image.events_applied, image.collections];
        let mut file = Vec::new();
        put_partition(&mut file, stamp, 0, u32::MAX, std::iter::empty()).expect("a header");
        seal(&mut file);
        assert_eq!(file.len(), 60);
        file
    }

    #[test]
    fn a_header_stating_four_billion_records_is_an_error_not_an_allocation() {
        let run = real_run("UpdatedPointer");
        let file = four_billion_records(&run.image);
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
        run.recovers_past(run.image.bytes(), "undamaged");
        run.recovers_past(
            &four_billion_records(&run.image),
            "a lone header stating four billion records",
        );
        for cut in (0..run.image.bytes().len()).step_by(97) {
            run.recovers_past(&run.image.bytes()[..cut], &format!("truncated at {cut}"));
        }
        for at in (0..run.image.bytes().len()).step_by(89) {
            let mut flipped = run.image.bytes().to_vec();
            flipped[at] ^= 0x5A;
            run.recovers_past(&flipped, &format!("byte {at} flipped"));
        }
        // The counts the walk and the parse trust, in every image: a
        // partition image's record count, body length and first record's
        // slot count, the run image's word count.
        for (i, start) in run.starts().enumerate() {
            let mut fields = vec![("word_count", start + 32, 4)];
            if i < run.image.partitions() {
                let (records, body) = (start + 36, start + 48);
                fields = vec![("record_count", records, 4), ("body_bytes", body, 8)];
                fields.extend(run.slot_count_at(i).map(|at| ("first slot_count", at, 1)));
            }
            for (field, at, width) in fields {
                let mut stated = [0; 8];
                stated[..width].copy_from_slice(&run.image.bytes()[at..at + width]);
                let (stated, max) = (u64::from_le_bytes(stated), u64::MAX >> (64 - 8 * width));
                for value in [0, max, stated.wrapping_sub(1) & max, stated + 1] {
                    let mut hostile = run.image.bytes().to_vec();
                    hostile[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
                    reseal(&mut hostile, start);
                    run.recovers_past(&hostile, &format!("image {i}: {field} = {value}"));
                }
            }
        }
    }

    #[test]
    fn hostile_record_bodies_are_passed_over_for_the_older_generation() {
        let run = real_run("UpdatedPointer");
        for (what, body, count, live, why) in record::tests::hostile_bodies() {
            let refusal = run.recovers_past(&run.spliced(0, &body, count, live), what);
            assert!(refusal.contains(why), "{what}: refused with `{refusal}`");
        }
    }

    #[test]
    fn checksum_valid_generations_that_no_run_wrote_are_refused() {
        let run = real_run("UpdatedPointer");
        // The first record with a pointer, and its first.
        let slot = |r: ObjectRecord| r.slots.iter().position(|s| s.get().is_some());
        let mut records = run.records().into_iter().enumerate();
        let pointer = records.find_map(|(i, (_, r))| Some((i, slot(r)?)));
        let (record, slot) = pointer.expect("a pointer");
        run.recoded("a slot naming an absent oid", "absent object", |r| {
            r[record].1.slots[slot] = Slot::from(Some(Oid(u64::MAX - 7)));
        });
        let what = "an offset past the partition's capacity";
        run.recoded(what, "past its partition", |r| {
            r[record].1.addr.offset = 16 * 1024
        });
        run.recoded("an oid twice", "or twice", |r| {
            r.insert(record + 1, r[record].clone())
        });

        // The database's state opens with the oid bound; the buffer's pages
        // are its last words.
        let (shard, _) = restore(run.dir.path()).expect("clean");
        let mut db = Vec::new();
        shard.db().save_state(&mut db);
        let oid_bound = word_at(&run.image.run, &db);
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
                for (i, start) in run.starts().enumerate() {
                    let events = if i < run.image.partitions() { 20 } else { 16 };
                    put_u64(b, start + events, far);
                }
                put_u64(b, run.run_word(0), far);
                put_u64(b, run.run_word(oid_bound), far);
            },
        );
        run.recoded("an oid far past the events", "oid past the bound", |r| {
            r[record].0 = Oid(far);
        });

        // Counters a tail replay adds to, near the top of `u64`, in the
        // older generation alone, as a kill between the two landings leaves
        // the directory: the database's, the buffer's I/O counts, the
        // trigger's, and the telemetry
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
        let histograms = (0..3).flat_map(|h| [65, 66].map(|w| telemetry + 14 + 68 * h + w));
        let counters = (stats..stats + 9)
            .chain(buffer..buffer + io.len())
            .chain(trigger..trigger + 5)
            .chain(telemetry..telemetry + 14)
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
