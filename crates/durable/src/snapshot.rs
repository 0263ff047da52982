//! Per-partition snapshot files: `snap-GGGGGGGG-pPPPPPP.pgcs`.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header:  magic "PGCS" | version u32 | generation u64 | partition u32
//!          | events_applied u64 | collections u64
//!          | record_count u32 | live_bytes u64
//! record*: len u32 | oid u64 | size u64 | weight u8 | birth u64
//!          | slot_count u32 | slot*: u64 (oid + 1; 0 encodes None)
//! footer:  crc32 u32 over every preceding byte
//! ```
//!
//! Records are sorted by oid (canonical form — the in-memory member list
//! is swap-ordered), and each carries its own length prefix so future
//! versions can extend records without breaking old readers.
//!
//! A generation is produced in two halves. The run thread serialises every
//! partition straight from the object table into one recycled buffer
//! (`Generation::capture`); the store's background thread then fills in
//! each checksum and lands the files (`SnapshotDir::land`): written to a
//! `.tmp` sibling, fsynced, then renamed into place, so a torn snapshot
//! write never shadows an older valid generation. [`PartitionSnapshot`] is
//! the read side's (and the tests') owned form of the same bytes.

use crate::crc::crc32;
use pgc_odb::Database;
use pgc_types::{Oid, PartitionId, PgcError, Result};
use std::collections::VecDeque;
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

pub(crate) const MAGIC: &[u8; 4] = b"PGCS";
pub(crate) const VERSION: u32 = 1;
/// Fixed part of a record: its length prefix, oid, size, weight, birth and
/// slot count.
const RECORD_FIXED_BYTES: usize = 4 + 8 + 8 + 1 + 8 + 4;
const FOOTER_BYTES: usize = 4;

fn io_err(e: std::io::Error) -> PgcError {
    PgcError::TraceIo(e.to_string())
}

/// File name of partition `partition`'s snapshot in `generation`.
pub fn snapshot_name(generation: u64, partition: u32) -> String {
    format!("snap-{generation:08}-p{partition:06}.pgcs")
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

    /// Parses and verifies the checksummed file form.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let bad = |reason: &str| PgcError::TraceFormat(format!("snapshot: {reason}"));
        if bytes.len() < 48 + 4 || &bytes[..4] != MAGIC {
            return Err(bad("bad or missing header"));
        }
        let (body, footer) = bytes.split_at(bytes.len() - 4);
        let stated = u32::from_le_bytes(footer.try_into().unwrap());
        if crc32(body) != stated {
            return Err(bad("checksum mismatch"));
        }
        let version = u32::from_le_bytes(body[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(bad(&format!("unsupported version {version}")));
        }
        let generation = u64::from_le_bytes(body[8..16].try_into().unwrap());
        let partition = u32::from_le_bytes(body[16..20].try_into().unwrap());
        let events_applied = u64::from_le_bytes(body[20..28].try_into().unwrap());
        let collections = u64::from_le_bytes(body[28..36].try_into().unwrap());
        let record_count = u32::from_le_bytes(body[36..40].try_into().unwrap()) as usize;
        let live_bytes = u64::from_le_bytes(body[40..48].try_into().unwrap());
        let mut pos = 48usize;
        let mut records = Vec::with_capacity(record_count);
        let mut summed = 0u64;
        for _ in 0..record_count {
            if body.len() - pos < 4 {
                return Err(bad("truncated record length"));
            }
            let len = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4;
            if body.len() - pos < len || len < 8 + 8 + 1 + 8 + 4 {
                return Err(bad("truncated record body"));
            }
            let rec = &body[pos..pos + len];
            let oid = u64::from_le_bytes(rec[..8].try_into().unwrap());
            let size = u64::from_le_bytes(rec[8..16].try_into().unwrap());
            let weight = rec[16];
            let birth = u64::from_le_bytes(rec[17..25].try_into().unwrap());
            let slot_count = u32::from_le_bytes(rec[25..29].try_into().unwrap()) as usize;
            if len != 29 + slot_count * 8 {
                return Err(bad("record length disagrees with slot count"));
            }
            let slots = rec[29..]
                .chunks_exact(8)
                .map(|c| {
                    let raw = u64::from_le_bytes(c.try_into().unwrap());
                    (raw != 0).then(|| raw - 1)
                })
                .collect();
            summed += size;
            records.push(SnapshotRecord {
                oid,
                size,
                weight,
                birth,
                slots,
            });
            pos += len;
        }
        if pos != body.len() {
            return Err(bad("trailing bytes after records"));
        }
        if summed != live_bytes {
            return Err(bad("live_bytes disagrees with records"));
        }
        Ok(Self {
            generation,
            partition,
            events_applied,
            collections,
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

/// Reads and verifies one snapshot file.
pub fn read_snapshot(path: &Path) -> Result<PartitionSnapshot> {
    PartitionSnapshot::from_bytes(&fs::read(path).map_err(io_err)?)
}

/// A snapshot file found in a data directory (not yet validated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFile {
    /// Generation parsed from the file name.
    pub generation: u64,
    /// Partition parsed from the file name.
    pub partition: u32,
    /// Full path.
    pub path: PathBuf,
}

/// Lists the snapshot files under `dir`, sorted by (generation,
/// partition). Stray `.tmp` files from an interrupted write are ignored.
pub fn scan_snapshots(dir: &Path) -> Result<Vec<SnapshotFile>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir).map_err(io_err)? {
        let entry = entry.map_err(io_err)?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(stem) = name
            .strip_prefix("snap-")
            .and_then(|s| s.strip_suffix(".pgcs"))
        else {
            continue;
        };
        let Some((gen_str, part_str)) = stem.split_once("-p") else {
            continue;
        };
        if let (Ok(generation), Ok(partition)) = (gen_str.parse(), part_str.parse()) {
            found.push(SnapshotFile {
                generation,
                partition,
                path: entry.path(),
            });
        }
    }
    found.sort_by_key(|f| (f.generation, f.partition));
    Ok(found)
}

/// One snapshot generation on its way from the run thread to disk: every
/// partition's file image, back to back in one buffer that is recycled
/// between generations.
#[derive(Debug, Default)]
pub(crate) struct Generation {
    generation: u64,
    /// The file images, partition 0 first. Each ends in a zeroed footer
    /// slot until [`SnapshotDir::land`] fills the checksum in.
    bytes: Vec<u8>,
    /// `ends[p]` is where partition `p`'s image ends in `bytes`.
    ends: Vec<usize>,
    /// Sort scratch for one partition's members.
    oids: Vec<Oid>,
}

impl Generation {
    /// Files in this generation (one per partition).
    pub(crate) fn files(&self) -> u32 {
        self.ends.len() as u32
    }

    /// Total size of the files.
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

    /// Fills in partition `partition`'s checksum footer and returns the
    /// finished file image.
    fn seal(&mut self, partition: usize) -> &[u8] {
        let start = partition.checked_sub(1).map_or(0, |p| self.ends[p]);
        let image = &mut self.bytes[start..self.ends[partition]];
        let (body, footer) = image.split_at_mut(image.len() - FOOTER_BYTES);
        footer.copy_from_slice(&crc32(body).to_le_bytes());
        image
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
    /// `(generation, files)` of each retained generation, oldest first.
    retained: VecDeque<(u64, u32)>,
}

impl SnapshotDir {
    pub(crate) fn new(dir: PathBuf) -> Self {
        Self {
            dir,
            retained: VecDeque::with_capacity(KEEP_GENERATIONS + 1),
        }
    }

    /// Lands every file of `generation`, partition 0 first, each sealed
    /// and then written as temp file + fsync + rename; once all are in
    /// place, removes the generations beyond [`KEEP_GENERATIONS`].
    /// Returns the number of fsyncs issued.
    pub(crate) fn land(&mut self, generation: &mut Generation) -> Result<u64> {
        let files = generation.files();
        for partition in 0..files {
            let name = snapshot_name(generation.generation, partition);
            let tmp = self.dir.join(format!("{name}.tmp"));
            let mut file = File::create(&tmp).map_err(io_err)?;
            file.write_all(generation.seal(partition as usize))
                .map_err(io_err)?;
            file.sync_data().map_err(io_err)?;
            drop(file);
            fs::rename(&tmp, self.dir.join(name)).map_err(io_err)?;
        }
        self.retained.push_back((generation.generation, files));
        if self.retained.len() > KEEP_GENERATIONS {
            if let Some((old, old_files)) = self.retained.pop_front() {
                for partition in 0..old_files {
                    fs::remove_file(self.dir.join(snapshot_name(old, partition)))
                        .map_err(io_err)?;
                }
            }
        }
        Ok(u64::from(files))
    }
}
