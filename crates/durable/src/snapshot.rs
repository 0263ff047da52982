//! Snapshot generation files: `snap-GGGGGGGG.pgcs`.
//!
//! A generation file is the images of every partition, partition 0 first,
//! back to back with nothing between them. One image (all integers
//! little-endian):
//!
//! ```text
//! header:  magic "PGCS" | version u32 | generation u64 | partition u32
//!          | events_applied u64 | collections u64
//!          | record_count u32 | live_bytes u64
//! record*: len u32 | oid u64 | size u64 | weight u8 | birth u64
//!          | slot_count u32 | slot*: u64 (oid + 1; 0 encodes None)
//! footer:  crc32 u32 over every preceding byte of the image
//! ```
//!
//! Records are sorted by oid (canonical form — the in-memory member list
//! is swap-ordered), and each carries its own length prefix so future
//! versions can extend records without breaking old readers. The prefixes
//! are also how the reader finds where an image ends and the next begins
//! ([`parse_images`]): each image keeps its own checksum, so damage inside
//! one costs that partition only.
//!
//! A generation is produced in two halves. The run thread serialises every
//! partition straight from the object table into one recycled buffer
//! (`Generation::capture`); the store's background thread then fills in
//! each checksum and lands the file (`SnapshotDir::land`): one write to a
//! `.tmp` sibling, one fsync, one rename into place, so a torn snapshot
//! write never shadows an older valid generation. [`PartitionSnapshot`] is
//! the read side's (and the tests') owned form of one image.
//!
//! Builds before this layout wrote one file per image, named by generation
//! and partition. Those names are not read: such a directory recovers by
//! replay alone.

use crate::crc::crc32;
use pgc_odb::Database;
use pgc_types::{Oid, PartitionId, PgcError, Result};
use std::collections::VecDeque;
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

pub(crate) const MAGIC: &[u8; 4] = b"PGCS";
pub(crate) const VERSION: u32 = 1;
const HEADER_BYTES: usize = 4 + 4 + 8 + 4 + 8 + 8 + 4 + 8;
/// Fixed part of a record: its length prefix, oid, size, weight, birth and
/// slot count. No record is shorter.
const RECORD_FIXED_BYTES: usize = 4 + 8 + 8 + 1 + 8 + 4;
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

/// Length of the image at the front of `bytes`, found from its header's
/// record count and the records' length prefixes alone (nothing else is
/// looked at, the checksum included). Every length is checked against the
/// bytes present, and so is the count before anything is sized by it.
fn image_len(bytes: &[u8]) -> Result<usize> {
    if bytes.len() < HEADER_BYTES + FOOTER_BYTES || &bytes[..4] != MAGIC {
        return Err(bad("bad or missing header"));
    }
    let record_count = u32_at(bytes, 36) as usize;
    if record_count > (bytes.len() - HEADER_BYTES - FOOTER_BYTES) / RECORD_FIXED_BYTES {
        return Err(bad("record count exceeds the bytes present"));
    }
    let mut pos = HEADER_BYTES;
    for _ in 0..record_count {
        if bytes.len() - pos < 4 {
            return Err(bad("truncated record length"));
        }
        let len = u32_at(bytes, pos) as usize;
        pos += 4;
        if bytes.len() - pos < len || len < RECORD_FIXED_BYTES - 4 {
            return Err(bad("truncated record body"));
        }
        pos += len;
    }
    if bytes.len() - pos < FOOTER_BYTES {
        return Err(bad("truncated footer"));
    }
    Ok(pos + FOOTER_BYTES)
}

/// One live object as captured in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotRecord {
    /// The object id.
    pub oid: u64,
    /// Object size in bytes.
    pub size: u64,
    /// Root-distance weight.
    pub weight: u8,
    /// Logical creation time (allocation clock).
    pub birth: u64,
    /// Pointer slots (`None` = empty slot).
    pub slots: Vec<Option<u64>>,
}

/// One partition's state at a collection safepoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSnapshot {
    /// Snapshot generation (1-based, monotone per run).
    pub generation: u64,
    /// The partition this file covers.
    pub partition: u32,
    /// Events applied when the snapshot was taken.
    pub events_applied: u64,
    /// Collections completed when the snapshot was taken.
    pub collections: u64,
    /// Sum of member sizes (redundant with the records; cross-checked on
    /// read).
    pub live_bytes: u64,
    /// The partition's members, sorted by oid.
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
        let mut oids: Vec<_> = db.objects().members(partition).collect();
        oids.sort_unstable_by_key(|oid| oid.index());
        let mut records = Vec::with_capacity(oids.len());
        let mut live_bytes = 0u64;
        for oid in oids {
            let rec = db.objects().get(oid)?;
            live_bytes += rec.size.get();
            records.push(SnapshotRecord {
                oid: oid.index(),
                size: rec.size.get(),
                weight: rec.weight,
                birth: rec.birth,
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

    /// Serializes to the checksummed file form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.records.len() * 48);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&self.generation.to_le_bytes());
        buf.extend_from_slice(&self.partition.to_le_bytes());
        buf.extend_from_slice(&self.events_applied.to_le_bytes());
        buf.extend_from_slice(&self.collections.to_le_bytes());
        buf.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        buf.extend_from_slice(&self.live_bytes.to_le_bytes());
        for rec in &self.records {
            let body_len = 8 + 8 + 1 + 8 + 4 + rec.slots.len() * 8;
            buf.extend_from_slice(&(body_len as u32).to_le_bytes());
            buf.extend_from_slice(&rec.oid.to_le_bytes());
            buf.extend_from_slice(&rec.size.to_le_bytes());
            buf.push(rec.weight);
            buf.extend_from_slice(&rec.birth.to_le_bytes());
            buf.extend_from_slice(&(rec.slots.len() as u32).to_le_bytes());
            for slot in &rec.slots {
                buf.extend_from_slice(&slot.map_or(0, |o| o + 1).to_le_bytes());
            }
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Parses and verifies one checksummed image.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if image_len(bytes)? != bytes.len() {
            return Err(bad("trailing bytes after records"));
        }
        Self::from_walked(bytes)
    }

    /// [`PartitionSnapshot::from_bytes`] for an `image` that [`image_len`]
    /// has walked to exactly its end.
    fn from_walked(image: &[u8]) -> Result<Self> {
        let (body, footer) = image.split_at(image.len() - FOOTER_BYTES);
        if crc32(body) != u32_at(footer, 0) {
            return Err(bad("checksum mismatch"));
        }
        let version = u32_at(body, 4);
        if version != VERSION {
            return Err(bad(&format!("unsupported version {version}")));
        }
        let u64_at = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
        let record_count = u32_at(body, 36) as usize;
        let live_bytes = u64_at(40);
        // `image_len` has held the count and every record length against
        // the bytes present.
        let mut records = Vec::with_capacity(record_count);
        let mut pos = HEADER_BYTES;
        let mut summed = 0u64;
        for _ in 0..record_count {
            let len = u32_at(body, pos) as usize;
            let slot_count = u32_at(body, pos + 29) as usize;
            if Some(len) != slot_count.checked_mul(8).and_then(|s| s.checked_add(29)) {
                return Err(bad("record length disagrees with slot count"));
            }
            let size = u64_at(pos + 12);
            let slots = body[pos + 33..pos + 4 + len]
                .chunks_exact(8)
                .map(|c| {
                    let raw = u64::from_le_bytes(c.try_into().unwrap());
                    (raw != 0).then(|| raw - 1)
                })
                .collect();
            summed = summed
                .checked_add(size)
                .ok_or_else(|| bad("record sizes overflow"))?;
            records.push(SnapshotRecord {
                oid: u64_at(pos + 4),
                size,
                weight: body[pos + 20],
                birth: u64_at(pos + 21),
                slots,
            });
            pos += 4 + len;
        }
        if summed != live_bytes {
            return Err(bad("live_bytes disagrees with records"));
        }
        Ok(Self {
            generation: u64_at(8),
            partition: u32_at(body, 16),
            events_applied: u64_at(20),
            collections: u64_at(28),
            live_bytes,
            records,
        })
    }

    /// Compares the snapshot against `partition`'s live state in `db`.
    /// Returns a description of the first mismatch, if any.
    pub fn verify_against(&self, db: &Database) -> std::result::Result<(), String> {
        let partition = PartitionId(self.partition);
        let mut oids: Vec<_> = db.objects().members(partition).collect();
        oids.sort_unstable_by_key(|oid| oid.index());
        if oids.len() != self.records.len() {
            return Err(format!(
                "partition {partition}: snapshot has {} members, database has {}",
                self.records.len(),
                oids.len()
            ));
        }
        for (rec, oid) in self.records.iter().zip(oids) {
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
            if live.size.get() != rec.size
                || live.weight != rec.weight
                || live.birth != rec.birth
                || !slots_match
            {
                return Err(format!("{oid}: snapshot record diverges from database"));
            }
        }
        Ok(())
    }
}

/// The images of a generation file's bytes, in file order (partition 0
/// first). An image that fails its checksum or does not parse is an `Err`
/// in its place and the walk goes on behind it; one whose end cannot be
/// found (a length that runs past the bytes present) is the last entry.
pub fn parse_images(mut bytes: &[u8]) -> Vec<Result<PartitionSnapshot>> {
    let mut images = Vec::new();
    while !bytes.is_empty() {
        match image_len(bytes) {
            Ok(len) => {
                let (image, rest) = bytes.split_at(len);
                images.push(PartitionSnapshot::from_walked(image));
                bytes = rest;
            }
            Err(lost) => {
                images.push(Err(lost));
                break;
            }
        }
    }
    images
}

/// Reads one generation file: see [`parse_images`]. A file that cannot
/// be read is one `Err`.
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
/// partition's image, back to back in one buffer that is recycled between
/// generations — the file, but for its checksums.
#[derive(Debug, Default)]
pub(crate) struct Generation {
    generation: u64,
    /// The images, partition 0 first. Each ends in a zeroed footer slot
    /// until [`SnapshotDir::land`] fills the checksum in.
    bytes: Vec<u8>,
    /// `ends[p]` is where partition `p`'s image ends in `bytes`.
    ends: Vec<usize>,
    /// Sort scratch for one partition's members.
    oids: Vec<Oid>,
}

impl Generation {
    /// The generation's 1-based number.
    pub(crate) fn number(&self) -> u64 {
        self.generation
    }

    /// Images in this generation (one per partition).
    pub(crate) fn images(&self) -> u32 {
        self.ends.len() as u32
    }

    /// Size of the file.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Run-thread half: replaces the contents with every partition of `db`
    /// as it stands, serialised in one pass over the object table.
    pub(crate) fn capture(
        &mut self,
        db: &Database,
        generation: u64,
        events_applied: u64,
        collections: u64,
    ) -> Result<()> {
        self.generation = generation;
        self.bytes.clear();
        self.ends.clear();
        let objects = db.objects();
        for partition in 0..db.partition_count() as u32 {
            self.oids.clear();
            self.oids.extend(objects.members(PartitionId(partition)));
            self.oids.sort_unstable();
            let buf = &mut self.bytes;
            buf.extend_from_slice(MAGIC);
            buf.extend_from_slice(&VERSION.to_le_bytes());
            buf.extend_from_slice(&generation.to_le_bytes());
            buf.extend_from_slice(&partition.to_le_bytes());
            buf.extend_from_slice(&events_applied.to_le_bytes());
            buf.extend_from_slice(&collections.to_le_bytes());
            buf.extend_from_slice(&(self.oids.len() as u32).to_le_bytes());
            let live_bytes_at = buf.len();
            buf.extend_from_slice(&[0; 8]);
            let mut live_bytes = 0u64;
            for &oid in &self.oids {
                let rec = objects.get(oid)?;
                live_bytes += rec.size.get();
                let record_len = RECORD_FIXED_BYTES + rec.slots.len() * 8;
                let mut fixed = [0u8; RECORD_FIXED_BYTES];
                fixed[..4].copy_from_slice(&((record_len - 4) as u32).to_le_bytes());
                fixed[4..12].copy_from_slice(&oid.index().to_le_bytes());
                fixed[12..20].copy_from_slice(&rec.size.get().to_le_bytes());
                fixed[20] = rec.weight;
                fixed[21..29].copy_from_slice(&rec.birth.to_le_bytes());
                fixed[29..].copy_from_slice(&(rec.slots.len() as u32).to_le_bytes());
                buf.reserve(record_len);
                buf.extend_from_slice(&fixed);
                for slot in rec.slots.iter() {
                    buf.extend_from_slice(&slot.get().map_or(0, |o| o.index() + 1).to_le_bytes());
                }
            }
            buf[live_bytes_at..live_bytes_at + 8].copy_from_slice(&live_bytes.to_le_bytes());
            buf.extend_from_slice(&[0; FOOTER_BYTES]);
            self.ends.push(buf.len());
        }
        Ok(())
    }

    /// Fills in every image's checksum footer and returns the finished
    /// file.
    fn seal(&mut self) -> &[u8] {
        let mut start = 0;
        for &end in &self.ends {
            let (body, footer) = self.bytes[start..end].split_at_mut(end - start - FOOTER_BYTES);
            footer.copy_from_slice(&crc32(body).to_le_bytes());
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
    use pgc_sim::durable::manifest_for;
    use pgc_sim::{outcome_digest, recover, RunConfig, TelemetryLevel};
    use pgc_types::Bytes;

    /// A small run's data directory, its digest, and its newest generation
    /// file: the path, the bytes, and where each image starts in them.
    struct RealRun {
        dir: ScratchDir,
        digest: u64,
        path: PathBuf,
        bytes: Vec<u8>,
        starts: Vec<usize>,
    }

    fn real_run() -> RealRun {
        let dir = ScratchDir::new("hostile-pgcs");
        let cfg = RunConfig::small()
            .with_seed(5)
            .with_heap_growth(Bytes::from_kib(96));
        let durability = DurabilityConfig::snapshot_and_log(dir.path()).with_snapshot_every(2);
        let mut store = DurableStore::create(&durability).expect("store");
        // Only the manifest goes through `pgc-sim`'s build of this crate.
        manifest_for(&cfg, TelemetryLevel::Off)
            .write_to(dir.path())
            .expect("manifest");
        let digest = outcome_digest(&persist(&cfg, &mut store, 40, |_, _| {}));
        let files = scan_snapshots(dir.path()).expect("scan");
        assert_eq!(files.len(), 2, "two generations are kept");
        let path = files[1].path.clone();
        let bytes = fs::read(&path).expect("read the newest generation");
        let mut starts = vec![0];
        while starts[starts.len() - 1] < bytes.len() {
            let start = starts[starts.len() - 1];
            starts.push(start + image_len(&bytes[start..]).expect("a landed file walks"));
        }
        starts.pop();
        assert!(starts.len() >= 3, "the run must spread over partitions");
        RealRun {
            dir,
            digest,
            path,
            bytes,
            starts,
        }
    }

    impl RealRun {
        /// Plants `hostile` as the newest generation file. The reader must
        /// hand back, per image, an error or exactly what was landed, and
        /// recovery over the directory must reach the undamaged digest.
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
            fs::write(&self.path, hostile).expect("plant");
            let recovered = recover(self.dir.path()).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(outcome_digest(&recovered.outcome), self.digest, "{what}");
        }
    }

    /// Recomputes the checksum of the image at `start` where the reader
    /// will look for it, so that damage to a length is reached and not
    /// merely caught by the CRC. An image whose end the walk cannot find
    /// has no such place.
    fn reseal(bytes: &mut [u8], start: usize) {
        if let Ok(len) = image_len(&bytes[start..]) {
            let footer = start + len - FOOTER_BYTES;
            let crc = crc32(&bytes[start..footer]);
            bytes[footer..footer + FOOTER_BYTES].copy_from_slice(&crc.to_le_bytes());
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
        let images = parse_images(&file);
        assert!(matches!(images[..], [Err(_)]), "{images:?}");

        // Planted beside a real run's files under a name newer than any of
        // them, it costs recovery one skip and nothing else.
        let run = real_run();
        fs::write(run.dir.join(snapshot_name(99_999_999)), &file).expect("plant");
        let clean = parse_images(&run.bytes).len();
        let recovered = recover(run.dir.path()).expect("recover");
        assert_eq!(outcome_digest(&recovered.outcome), run.digest);
        assert_eq!(recovered.snapshot_files_skipped, 1);
        assert_eq!(recovered.snapshots_verified, clean);
    }

    #[test]
    fn hostile_generation_files_come_back_as_errors_never_a_panic() {
        let run = real_run();
        run.survives(&run.bytes, "undamaged");
        for cut in (0..run.bytes.len()).step_by(97) {
            run.survives(&run.bytes[..cut], &format!("truncated at {cut}"));
        }
        for at in (0..run.bytes.len()).step_by(89) {
            let mut flipped = run.bytes.clone();
            flipped[at] ^= 0x5A;
            run.survives(&flipped, &format!("byte {at} flipped"));
        }
        // The three lengths the walk and the parse trust, in every image:
        // the header's record count, the first record's length prefix and
        // its slot count.
        for (i, &start) in run.starts.iter().enumerate() {
            for (field, at) in [
                ("record_count", start + 36),
                ("first record len", start + HEADER_BYTES),
                ("first record slot_count", start + HEADER_BYTES + 29),
            ] {
                let stated = u32_at(&run.bytes, at);
                for value in [0, u32::MAX, stated.wrapping_sub(1), stated + 1] {
                    let mut hostile = run.bytes.clone();
                    hostile[at..at + 4].copy_from_slice(&value.to_le_bytes());
                    reseal(&mut hostile, start);
                    run.survives(&hostile, &format!("image {i}: {field} = {value}"));
                }
            }
        }
    }
}
