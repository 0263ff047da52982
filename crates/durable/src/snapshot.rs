//! Snapshot generation files: `snap-GGGGGGGG.pgcs`.
//!
//! A generation is the whole run at a collection safepoint, and its file is
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
//! is the live one. The run image's words belong to the run's owner
//! (`pgc-sim` writes them: the database's bookkeeping, the policy, the
//! trigger, telemetry, sampling); this crate frames and checksums them.
//! Each image keeps its own checksum, and the header and record counts are
//! all the reader needs to find where one ends and the next begins.
//!
//! Two readers share that walk. [`parse_generation`] is the restore path:
//! a file is usable whole or not at all — every image checksums, the images
//! cover partitions `0..n` in order, the run image comes last, and all of
//! them name the same generation, event and collection count. Whether the
//! words and records make sense is the restorer's to check.
//! [`parse_images`] is the cross-check path: the partition images one by
//! one, an image that fails its checksum an `Err` in its place.
//!
//! This is version 2. Version 1 images (records sorted by oid, each behind
//! a length prefix and carrying a birth stamp; no run image) are refused,
//! as are the one-file-per-image names of the builds before them: a
//! directory of either recovers by replay from event 0.
//!
//! A generation is produced in two halves. The run thread serialises every
//! partition straight from the object table, and the owner's words after
//! them, into one recycled buffer (`Generation::capture`); the store's
//! background thread then fills in each checksum and lands the file
//! (`SnapshotDir::land`): one write to a `.tmp` sibling, one fsync, one
//! rename into place, so a torn snapshot write never shadows an older
//! valid generation. [`PartitionSnapshot`] and [`GenerationImage`] are the
//! read side's (and the tests') owned forms.

use crate::crc::crc32;
use pgc_odb::Database;
use pgc_types::{PartitionId, PgcError, Result};
use std::collections::VecDeque;
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

pub(crate) const MAGIC: &[u8; 4] = b"PGCS";
const RUN_MAGIC: &[u8; 4] = b"PGCR";
pub(crate) const VERSION: u32 = 2;
const HEADER_BYTES: usize = 4 + 4 + 8 + 4 + 8 + 8 + 4 + 8;
/// Fixed part of a record: oid, offset, size, weight and slot count.
const RECORD_FIXED_BYTES: usize = 8 + 8 + 8 + 1 + 4;
const RUN_HEADER_BYTES: usize = 4 + 4 + 8 + 8 + 8 + 4;
const FOOTER_BYTES: usize = 4;

fn io_err(e: std::io::Error) -> PgcError {
    PgcError::TraceIo(e.to_string())
}

/// File name of snapshot generation `generation`.
pub fn snapshot_name(generation: u64) -> String {
    format!("snap-{generation:08}.pgcs")
}

fn bad(reason: &str) -> PgcError {
    PgcError::TraceFormat(format!("snapshot: {reason}"))
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
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
    let (body, footer) = image.split_at(image.len() - FOOTER_BYTES);
    if crc32(body) != u32_at(footer, 0) {
        return Err(bad("checksum mismatch"));
    }
    Ok(body)
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

/// One live object as captured in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotRecord {
    /// The object id.
    pub oid: u64,
    /// Byte offset of the object within its partition.
    pub offset: u64,
    /// Object size in bytes.
    pub size: u64,
    /// Root-distance weight.
    pub weight: u8,
    /// Pointer slots (`None` = empty slot).
    pub slots: Vec<Option<u64>>,
}

/// One partition's state at a collection safepoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSnapshot {
    /// Snapshot generation (1-based, monotone per run).
    pub generation: u64,
    /// The partition this image covers.
    pub partition: u32,
    /// Events applied when the snapshot was taken.
    pub events_applied: u64,
    /// Collections completed when the snapshot was taken.
    pub collections: u64,
    /// Sum of member sizes (redundant with the records; cross-checked on
    /// read).
    pub live_bytes: u64,
    /// The partition's members, in member-list order.
    pub records: Vec<SnapshotRecord>,
}

impl PartitionSnapshot {
    /// Captures `partition`'s current members from `db`.
    pub fn capture(
        db: &Database,
        partition: PartitionId,
        generation: u64,
        events_applied: u64,
        collections: u64,
    ) -> Result<Self> {
        let mut records = Vec::with_capacity(db.objects().member_count(partition));
        let mut live_bytes = 0u64;
        for oid in db.objects().members(partition) {
            let rec = db.objects().get(oid)?;
            live_bytes += rec.size.get();
            records.push(SnapshotRecord {
                oid: oid.index(),
                offset: rec.addr.offset,
                size: rec.size.get(),
                weight: rec.weight,
                slots: rec
                    .slots
                    .iter()
                    .map(|s| s.get().map(|o| o.index()))
                    .collect(),
            });
        }
        Ok(Self {
            generation,
            partition: partition.as_usize() as u32,
            events_applied,
            collections,
            live_bytes,
            records,
        })
    }

    /// Serializes to the checksummed image form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_BYTES + self.records.len() * 48);
        put_partition_header(
            &mut buf,
            [self.generation, self.events_applied, self.collections],
            self.partition,
            self.records.len() as u32,
            self.live_bytes,
        );
        for rec in &self.records {
            put_record(
                &mut buf,
                [rec.oid, rec.offset, rec.size],
                rec.weight,
                rec.slots.iter().copied(),
            );
        }
        buf.extend_from_slice(&[0; FOOTER_BYTES]);
        seal(&mut buf);
        buf
    }

    /// Parses and verifies one checksummed image.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if !bytes.starts_with(MAGIC) || image_len(bytes)? != bytes.len() {
            return Err(bad("not exactly one partition image"));
        }
        Self::from_walked(bytes)
    }

    /// [`PartitionSnapshot::from_bytes`] for a partition `image` that
    /// `image_len` has walked to exactly its end.
    fn from_walked(image: &[u8]) -> Result<Self> {
        let body = checked_body(image)?;
        let record_count = u32_at(body, 36) as usize;
        let live_bytes = u64_at(body, 40);
        // `image_len` has held the count and every record's slot count
        // against the bytes present.
        let mut records = Vec::with_capacity(record_count);
        let mut pos = HEADER_BYTES;
        let mut summed = 0u64;
        for _ in 0..record_count {
            let size = u64_at(body, pos + 16);
            let slots_at = pos + RECORD_FIXED_BYTES;
            let slots_end = slots_at + u32_at(body, pos + 25) as usize * 8;
            summed = summed
                .checked_add(size)
                .ok_or_else(|| bad("record sizes overflow"))?;
            records.push(SnapshotRecord {
                oid: u64_at(body, pos),
                offset: u64_at(body, pos + 8),
                size,
                weight: body[pos + 24],
                slots: body[slots_at..slots_end]
                    .chunks_exact(8)
                    .map(|c| {
                        let raw = u64::from_le_bytes(c.try_into().unwrap());
                        (raw != 0).then(|| raw - 1)
                    })
                    .collect(),
            });
            pos = slots_end;
        }
        if summed != live_bytes {
            return Err(bad("live_bytes disagrees with records"));
        }
        Ok(Self {
            generation: u64_at(body, 8),
            partition: u32_at(body, 16),
            events_applied: u64_at(body, 20),
            collections: u64_at(body, 28),
            live_bytes,
            records,
        })
    }

    /// Compares the snapshot against `partition`'s live state in `db`,
    /// member for member in list order. Returns a description of the first
    /// mismatch, if any.
    pub fn verify_against(&self, db: &Database) -> std::result::Result<(), String> {
        let partition = PartitionId(self.partition);
        let members = db.objects().member_count(partition);
        if members != self.records.len() {
            return Err(format!(
                "partition {partition}: snapshot has {} members, database has {members}",
                self.records.len(),
            ));
        }
        for (rec, oid) in self.records.iter().zip(db.objects().members(partition)) {
            if rec.oid != oid.index() {
                return Err(format!(
                    "partition {partition}: snapshot member o#{} vs database {oid}",
                    rec.oid
                ));
            }
            let live = match db.objects().get(oid) {
                Ok(live) => live,
                Err(e) => return Err(format!("{oid}: {e}")),
            };
            let slots_match = live.slots.len() == rec.slots.len()
                && live
                    .slots
                    .iter()
                    .zip(&rec.slots)
                    .all(|(a, b)| a.get().map(|o| o.index()) == *b);
            if live.addr.offset != rec.offset
                || live.size.get() != rec.size
                || live.weight != rec.weight
                || !slots_match
            {
                return Err(format!("{oid}: snapshot record diverges from database"));
            }
        }
        Ok(())
    }
}

/// A generation file read back whole: every partition's image and the run
/// image's words, all of one generation. What a restore starts from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationImage {
    /// Snapshot generation (1-based, monotone per run).
    pub generation: u64,
    /// Events applied when the generation was taken.
    pub events_applied: u64,
    /// Collections completed when the generation was taken.
    pub collections: u64,
    /// One image per partition, partition `p` at index `p`.
    pub partitions: Vec<PartitionSnapshot>,
    /// The run image's words, as the run's owner wrote them.
    pub run: Vec<u64>,
}

impl GenerationImage {
    /// Serializes to the file form, byte for byte what a landing writes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes: Vec<u8> = self
            .partitions
            .iter()
            .flat_map(PartitionSnapshot::to_bytes)
            .collect();
        let run_at = bytes.len();
        put_run_image(
            &mut bytes,
            [self.generation, self.events_applied, self.collections],
            &self.run,
        );
        seal(&mut bytes[run_at..]);
        bytes
    }
}

/// Parses a generation file whole: see the module docs. Any image that
/// does not walk, checksum or agree with the others is an `Err` for the
/// file.
pub fn parse_generation(bytes: &[u8]) -> Result<GenerationImage> {
    let mut images = walk(bytes);
    let mut partitions = Vec::new();
    let run = loop {
        let image = images.next().ok_or_else(|| bad("no run image"))??;
        if image.starts_with(RUN_MAGIC) {
            break image;
        }
        let snap = PartitionSnapshot::from_walked(image)?;
        if snap.partition as usize != partitions.len() {
            return Err(bad("partition images out of order"));
        }
        partitions.push(snap);
    };
    if images.next().is_some() {
        return Err(bad("bytes after the run image"));
    }
    let body = checked_body(run)?;
    let (generation, events_applied, collections) =
        (u64_at(body, 8), u64_at(body, 16), u64_at(body, 24));
    let agree = |p: &PartitionSnapshot| {
        (p.generation, p.events_applied, p.collections) == (generation, events_applied, collections)
    };
    if !partitions.iter().all(agree) {
        return Err(bad("images of different generations"));
    }
    Ok(GenerationImage {
        generation,
        events_applied,
        collections,
        partitions,
        run: body[RUN_HEADER_BYTES..]
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect(),
    })
}

/// Reads one generation file whole: see [`parse_generation`].
pub fn read_generation(path: &Path) -> Result<GenerationImage> {
    parse_generation(&fs::read(path).map_err(io_err)?)
}

/// The partition images of a generation file's bytes, in file order
/// (partition 0 first), up to the run image. An image that fails its
/// checksum or does not parse is an `Err` in its place and the walk goes on
/// behind it; one whose end cannot be found is the last entry.
pub fn parse_images(bytes: &[u8]) -> Vec<Result<PartitionSnapshot>> {
    walk(bytes)
        .take_while(|image| !matches!(image, Ok(image) if image.starts_with(RUN_MAGIC)))
        .map(|image| image.and_then(PartitionSnapshot::from_walked))
        .collect()
}

/// Reads one generation file's partition images: see [`parse_images`]. A
/// file that cannot be read is one `Err`.
pub fn read_snapshot(path: &Path) -> Vec<Result<PartitionSnapshot>> {
    match fs::read(path) {
        Ok(bytes) => parse_images(&bytes),
        Err(unread) => vec![Err(io_err(unread))],
    }
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
    let mut found = Vec::new();
    for entry in fs::read_dir(dir).map_err(io_err)? {
        let entry = entry.map_err(io_err)?;
        let name = entry.file_name();
        let generation = name
            .to_string_lossy()
            .strip_prefix("snap-")
            .and_then(|s| s.strip_suffix(".pgcs"))
            .and_then(|s| s.parse().ok());
        if let Some(generation) = generation {
            found.push(SnapshotFile {
                generation,
                path: entry.path(),
            });
        }
    }
    found.sort_by_key(|f| f.generation);
    Ok(found)
}

/// One snapshot generation on its way from the run thread to disk: every
/// partition's image and the run image, back to back in one buffer that is
/// recycled between generations — the file, but for its checksums.
#[derive(Debug, Default)]
pub(crate) struct Generation {
    generation: u64,
    /// The images, partition 0 first, the run image last. Each ends in a
    /// zeroed footer slot until [`SnapshotDir::land`] fills the checksum
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
    fn seal(&mut self) -> &[u8] {
        let mut start = 0;
        for &end in &self.ends {
            seal(&mut self.bytes[start..end]);
            start = end;
        }
        &self.bytes
    }
}

/// How many snapshot generations stay on disk (current + fallback).
const KEEP_GENERATIONS: usize = 2;

/// Writer half: the data directory as the snapshot writer sees it, with
/// the generations it has landed there and not yet removed. The writer
/// made those files, so it prunes them by name without reading the
/// directory.
#[derive(Debug)]
pub(crate) struct SnapshotDir {
    dir: PathBuf,
    /// The retained generations, oldest first.
    retained: VecDeque<u64>,
}

impl SnapshotDir {
    pub(crate) fn new(dir: PathBuf) -> Self {
        Self {
            dir,
            retained: VecDeque::with_capacity(KEEP_GENERATIONS + 1),
        }
    }

    /// Lands `generation`: sealed, then one write to a temp file, one
    /// fsync and one rename; once it is in place, removes the generation
    /// beyond [`KEEP_GENERATIONS`].
    pub(crate) fn land(&mut self, generation: &mut Generation) -> Result<()> {
        let name = snapshot_name(generation.generation);
        let tmp = self.dir.join(format!("{name}.tmp"));
        let mut file = File::create(&tmp).map_err(io_err)?;
        file.write_all(generation.seal()).map_err(io_err)?;
        file.sync_data().map_err(io_err)?;
        drop(file);
        fs::rename(&tmp, self.dir.join(name)).map_err(io_err)?;
        self.retained.push_back(generation.generation);
        if self.retained.len() > KEEP_GENERATIONS {
            if let Some(old) = self.retained.pop_front() {
                fs::remove_file(self.dir.join(snapshot_name(old))).map_err(io_err)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DurabilityConfig;
    use crate::store::tests::persist;
    use crate::store::DurableStore;
    use crate::tempdir::ScratchDir;
    use pgc_sim::durable::{manifest_for, restore};
    use pgc_sim::{outcome_digest, recover, RunConfig, TelemetryLevel};
    use pgc_types::Bytes;

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
        let mut cfg = RunConfig::small()
            .with_seed(5)
            .with_heap_growth(Bytes::from_kib(96));
        cfg.policy = policy.parse().expect("a policy");
        let durability = DurabilityConfig::snapshot_and_log(dir.path()).with_snapshot_every(2);
        let mut store = DurableStore::create(&durability).expect("store");
        // Only the manifest goes through `pgc-sim`'s build of this crate.
        manifest_for(&cfg, TelemetryLevel::Off)
            .write_to(dir.path())
            .expect("manifest");
        let digest = outcome_digest(&persist(&cfg, &mut store, 40, |_, _| {}));
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
        /// Plants `hostile` as the newest generation file. The image reader
        /// must hand back, per image, an error or exactly what was landed;
        /// restoring from the planted generation must fail unless it is the
        /// landed bytes; and recovery over the directory must reach the
        /// undamaged digest, from the older generation if need be.
        fn survives(&self, hostile: &[u8], what: &str) {
            let clean = parse_images(&self.bytes);
            for (i, image) in parse_images(hostile).into_iter().enumerate() {
                if let Ok(image) = image {
                    let landed = clean.get(i).and_then(|c| c.as_ref().ok());
                    assert_eq!(
                        Some(&image),
                        landed,
                        "{what}: image {i} parsed to something else"
                    );
                }
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

        /// Plants the newest generation as parsed, edited and serialised
        /// again: checksum-valid bytes that say something no run wrote.
        /// The restore must refuse it for the reason `why` names.
        fn edited(&self, what: &str, why: &str, edit: impl FnOnce(&mut GenerationImage)) {
            let mut image = parse_generation(&self.bytes).expect("a landed file parses");
            edit(&mut image);
            let hostile = image.to_bytes();
            assert!(parse_generation(&hostile).is_ok(), "{what}: checksum-valid");
            let refusal = self.recovers_past(&hostile, what);
            assert!(refusal.contains(why), "{what}: refused with `{refusal}`");
        }

        /// Where `words` sit in the newest generation's run image.
        fn run_words_at(&self, words: &[u64]) -> usize {
            let image = parse_generation(&self.bytes).expect("a landed file parses");
            image
                .run
                .windows(words.len())
                .position(|w| w == words)
                .expect("the saved state is in the run image")
        }
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

    #[test]
    fn a_header_stating_four_billion_records_is_an_error_not_an_allocation() {
        // 60 bytes, checksum-valid: a header, `record_count = u32::MAX`,
        // 8 bytes that are no record. Sizing a `Vec` by that count asks
        // for 240 GB and aborts the process.
        let mut file = Vec::new();
        file.extend_from_slice(MAGIC);
        file.extend_from_slice(&VERSION.to_le_bytes());
        file.extend_from_slice(&99u64.to_le_bytes());
        file.extend_from_slice(&0u32.to_le_bytes());
        file.extend_from_slice(&[0; 16]);
        file.extend_from_slice(&u32::MAX.to_le_bytes());
        file.extend_from_slice(&[0; 16]);
        file.extend_from_slice(&crc32(&file).to_le_bytes());
        assert_eq!(file.len(), 60);
        assert!(PartitionSnapshot::from_bytes(&file).is_err());
        assert!(parse_generation(&file).is_err());
        let images = parse_images(&file);
        assert!(matches!(images[..], [Err(_)]), "{images:?}");

        // Planted beside a real run's files under a name newer than any of
        // them, it costs recovery one skip and nothing else.
        let run = real_run("UpdatedPointer");
        fs::write(run.dir.join(snapshot_name(99_999_999)), &file).expect("plant");
        let clean = parse_images(&run.bytes).len();
        let recovered = recover(run.dir.path()).expect("recover");
        assert_eq!(outcome_digest(&recovered.outcome), run.digest);
        assert_eq!(recovered.snapshot_files_skipped, 1);
        assert_eq!(recovered.snapshots_verified, clean);
        assert_eq!(recovered.restored_from, Some(run.generation));
        assert_eq!(recovered.tail_events, 0);
    }

    #[test]
    fn hostile_generation_files_come_back_as_errors_never_a_panic() {
        let run = real_run("UpdatedPointer");
        run.survives(&run.bytes, "undamaged");
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
        let with_slots = |image: &mut GenerationImage| -> (usize, usize) {
            image
                .partitions
                .iter()
                .enumerate()
                .find_map(|(p, part)| {
                    let r = part
                        .records
                        .iter()
                        .position(|r| r.slots.iter().any(Option::is_some));
                    r.map(|r| (p, r))
                })
                .expect("a pointer somewhere")
        };
        run.edited("a slot naming an absent oid", "absent object", |image| {
            let (p, r) = with_slots(image);
            let slots = &mut image.partitions[p].records[r].slots;
            let slot = slots.iter().position(Option::is_some).expect("a pointer");
            slots[slot] = Some(u64::MAX - 7);
        });
        run.edited(
            "an offset past the partition's capacity",
            "past its partition",
            |image| {
                let (p, r) = with_slots(image);
                image.partitions[p].records[r].offset = 16 * 1024;
            },
        );
        run.edited("an oid twice", "or twice", |image| {
            let (p, r) = with_slots(image);
            let part = &mut image.partitions[p];
            let twin = part.records[r].clone();
            part.live_bytes += twin.size;
            part.records.push(twin);
        });

        // The database's state opens with the oid bound; the buffer's pages
        // are its last words.
        let (shard, _) = restore(run.dir.path()).expect("clean");
        let mut db = Vec::new();
        shard.db().save_state(&mut db);
        let oid_bound = run.run_words_at(&db);
        let last_page = oid_bound + db.len() - 1;
        run.edited(
            "a buffered page out of range",
            "page out of range",
            |image| {
                image.run[last_page] = u64::MAX;
            },
        );
        // A trillion events and as many oids: sizing the object table by
        // that aborts the process. Only the log can say no run got there.
        let far = 1u64 << 40;
        run.edited(
            "events and oids no log reaches",
            "the log does not reach",
            |image| {
                image.events_applied = far;
                for part in &mut image.partitions {
                    part.events_applied = far;
                }
                image.run[0] = far;
                image.run[oid_bound] = far;
            },
        );
        run.edited(
            "an oid far past the events",
            "oid past the bound",
            |image| {
                let (p, r) = with_slots(image);
                image.partitions[p].records[r].oid = far;
            },
        );

        // The meta-policy's state opens with its incumbent.
        let meta = real_run("AdaptiveMeta");
        let (shard, _) = restore(meta.dir.path()).expect("clean");
        let mut collector = Vec::new();
        shard.collector().save(&mut collector);
        let incumbent = meta.run_words_at(&collector);
        meta.edited("an incumbent outside the slate", "incumbent 99", |image| {
            image.run[incumbent] = 99;
        });
    }
}
