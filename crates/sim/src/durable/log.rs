//! The segmented append-only change log: `log-NNNNNNNN.pgcl`.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! segment header: magic "PGCL" | version u32 | seq u64 | start_event u64
//! frame:          len u32 | kind u8 | payload[len] | crc32 u32
//! ```
//!
//! The checksum covers `kind` and the payload. Two frame kinds exist:
//!
//! * **events** (`kind 1`): `count u32` followed by `count` workload
//!   events in the one event byte form ([`pgc_workload::codec`]). Events
//!   are logged *ahead* of being applied, so the concatenated event
//!   frames are a replayable prefix of the run's input stream —
//!   [`read_log`] hands them back as an [`EncodedTrace`].
//! * **safepoint** (`kind 2`): `events_applied u64 | collections u64 |
//!   generation u64` — a frame boundary after which a collection
//!   completed, or the end of the run; `generation` names the
//!   snapshot generation written at this safepoint (0 = none), and
//!   `events_applied` is the number of events framed before it (a frame
//!   that says otherwise is an error).
//!
//! The reader is torn-tail tolerant: a truncated or checksum-corrupt
//! frame at the end of the **newest** segment is reported as a
//! [`TornTail`] and dropped (frames end on event boundaries, so the
//! surviving prefix is always cleanly replayable). The same damage in an
//! older segment is a hard [`PgcError::TraceFormat`] error — that is real
//! corruption, not an interrupted write. Recovery reads the log from a
//! generation's restore point on ([`read_log_from`]): segments wholly
//! before it are checked by header only, so damage inside them is not
//! seen — nothing there is replayed.
//!
//! This module is the format alone: [`open_segment`] and the frame writers
//! put these bytes onto a segment through the `fs` seam, and when they are
//! flushed and synced is the store's to decide (`store.rs`).

use super::crc::{crc32, Crc32};
use super::fs::Appender;
use super::{io_err, numbered_files, u32_at, u64_at};
use pgc_types::{PgcError, Result};
use pgc_workload::{EncodedTrace, WorkloadParams};
use std::fs::{self, File};
use std::io::Read;
use std::path::Path;

const MAGIC: &[u8; 4] = b"PGCL";
const VERSION: u32 = 1;
pub(super) const HEADER_BYTES: u64 = 4 + 4 + 8 + 8;

const FRAME_EVENTS: u8 = 1;
const FRAME_SAFEPOINT: u8 = 2;

/// Write buffer in front of each segment file; sized so a whole block of
/// frames accumulates between safepoint flushes without write syscalls.
const WRITE_BUF_BYTES: usize = 512 << 10;

/// File name of log segment `seq`.
pub(crate) fn segment_name(seq: u64) -> String {
    format!("log-{seq:08}.pgcl")
}

/// Creates segment `seq` under `dir`, starting at event `start_event`, and
/// writes its header, flushed to the OS so that a kill never leaves a
/// segment file behind empty.
pub(super) fn open_segment(dir: &Path, seq: u64, start_event: u64) -> Result<Appender> {
    let mut out = Appender::create(dir.join(segment_name(seq)), WRITE_BUF_BYTES)?;
    let mut header = [0u8; HEADER_BYTES as usize];
    header[..4].copy_from_slice(MAGIC);
    header[4..8].copy_from_slice(&VERSION.to_le_bytes());
    header[8..16].copy_from_slice(&seq.to_le_bytes());
    header[16..].copy_from_slice(&start_event.to_le_bytes());
    out.write(&header)?;
    out.flush()?;
    Ok(out)
}

/// Writes one frame whose payload is the concatenation of `parts`,
/// checksumming as it goes (no intermediate assembly copy); returns the
/// frame's size in bytes.
fn write_frame(out: &mut Appender, kind: u8, parts: &[&[u8]]) -> Result<u64> {
    let payload_len: usize = parts.iter().map(|p| p.len()).sum();
    let mut crc = Crc32::new();
    crc.update(&[kind]);
    out.write(&(payload_len as u32).to_le_bytes())?;
    out.write(&[kind])?;
    for part in parts {
        crc.update(part);
        out.write(part)?;
    }
    out.write(&crc.finish().to_le_bytes())?;
    Ok(4 + 1 + payload_len as u64 + 4)
}

/// Writes an events frame: `count` events already encoded in `body`.
pub(super) fn write_events(out: &mut Appender, count: u32, body: &[u8]) -> Result<u64> {
    write_frame(out, FRAME_EVENTS, &[&count.to_le_bytes(), body])
}

/// Writes a safepoint frame.
pub(super) fn write_safepoint(out: &mut Appender, note: SafepointNote) -> Result<u64> {
    let mut payload = [0u8; 24];
    payload[..8].copy_from_slice(&note.events_applied.to_le_bytes());
    payload[8..16].copy_from_slice(&note.collections.to_le_bytes());
    payload[16..].copy_from_slice(&note.generation.to_le_bytes());
    write_frame(out, FRAME_SAFEPOINT, &[&payload])
}

/// A safepoint frame as read back from the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafepointNote {
    /// Events applied when the safepoint was written.
    pub events_applied: u64,
    /// Collections completed at that point.
    pub collections: u64,
    /// Snapshot generation written at this safepoint (0 = none).
    pub generation: u64,
}

/// An interrupted write detected (and dropped) at the end of the newest
/// log segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Segment sequence number the tear was found in.
    pub segment: u64,
    /// Byte offset of the first unusable frame.
    pub offset: u64,
    /// Human-readable cause (`truncated frame`, `checksum mismatch`, …).
    pub reason: String,
}

/// Everything read back from a data directory's change log.
#[derive(Debug, Clone)]
pub struct LogContents {
    /// Number of the log's event that is the trace's first: 0 for the
    /// whole log, the restore point for `read_log_from`.
    pub(crate) start_event: u64,
    /// The replayable input events from `start_event` on, in append
    /// order: the surviving event frames' payloads, checksummed, validated
    /// and concatenated — the log as the trace it is.
    pub trace: EncodedTrace,
    /// Safepoint markers in the segments read, in append order.
    pub safepoints: Vec<SafepointNote>,
    /// The torn tail, when the newest segment ended mid-frame.
    pub torn: Option<TornTail>,
    /// Number of segment files in the log.
    pub segments: usize,
}

impl LogContents {
    /// One past the log's last surviving event.
    fn end_event(&self) -> u64 {
        self.start_event + self.trace.events()
    }
}

/// Reads the whole change log under `dir`, tolerating a torn tail in the
/// newest segment.
pub fn read_log(dir: &Path) -> Result<LogContents> {
    read_log_from(dir, 0)
}

/// Reads the change log under `dir` from event `from` on — a snapshot
/// generation's restore point — tolerating a torn tail in the newest
/// segment.
///
/// Every segment's header is checked: contiguous sequence numbers, and
/// start events that never go back and never advance further than the
/// bytes before them could hold (an event is at least a byte). Only the
/// segments from the last one that starts before `from` on are read and
/// checksummed, and in those an events frame that ends at or before
/// `from` is counted, not decoded. A generation's safepoint frame follows
/// the last event it covers, so when `from` is one, the trace starts
/// exactly there ([`LogContents::start_event`]` == from`) and that frame
/// is among [`LogContents::safepoints`].
pub(crate) fn read_log_from(dir: &Path, from: u64) -> Result<LogContents> {
    let seqs: Vec<u64> = numbered_files(dir, "log-", ".pgcl")?
        .into_iter()
        .map(|(seq, _)| seq)
        .collect();
    if seqs.is_empty() {
        return Err(PgcError::TraceFormat(format!(
            "no log segments under {}",
            dir.display()
        )));
    }
    let mut starts = Vec::with_capacity(seqs.len());
    let mut reach = 0u64;
    let mut torn_header = None;
    for (i, &seq) in seqs.iter().enumerate() {
        if seq != i as u64 {
            return Err(PgcError::TraceFormat(format!(
                "log segments not contiguous: expected seq {i}, found {seq}"
            )));
        }
        let Some((start, len)) = read_header(dir, seq)? else {
            // The newest segment's header is its first write: shorter than
            // a header, the write was interrupted and the log ends before.
            if i + 1 == seqs.len() {
                torn_header = Some(TornTail {
                    segment: seq,
                    offset: 0,
                    reason: "truncated segment header".to_string(),
                });
                break;
            }
            return Err(PgcError::TraceFormat(format!(
                "log segment {seq}: bad or missing header"
            )));
        };
        let floor = starts.last().copied().unwrap_or(0);
        if start < floor || start > reach {
            return Err(PgcError::TraceFormat(format!(
                "log segment {seq}: starts at event {start}, outside {floor}..={reach}"
            )));
        }
        starts.push(start);
        reach = start.saturating_add(len);
    }
    let first = starts.iter().rposition(|&s| s < from).unwrap_or(0);
    let mut contents = LogContents {
        start_event: starts.get(first).copied().unwrap_or(0),
        trace: EncodedTrace::from_events(WorkloadParams::default(), &[]),
        safepoints: Vec::new(),
        torn: None,
        segments: seqs.len(),
    };
    for seq in first as u64..starts.len() as u64 {
        let last = seq + 1 == seqs.len() as u64;
        read_segment(dir, seq, last, from, &mut contents)?;
        if contents.torn.is_some() {
            return Ok(contents);
        }
    }
    contents.torn = torn_header;
    Ok(contents)
}

/// Checks segment `seq`'s header; returns its start event and file length,
/// or `None` for a file shorter than a header.
fn read_header(dir: &Path, seq: u64) -> Result<Option<(u64, u64)>> {
    let path = dir.join(segment_name(seq));
    let mut file = File::open(&path).map_err(io_err(&path))?;
    let len = file.metadata().map_err(io_err(&path))?.len();
    if len < HEADER_BYTES {
        return Ok(None);
    }
    let mut header = [0u8; HEADER_BYTES as usize];
    file.read_exact(&mut header).map_err(io_err(&path))?;
    check_header(&header, seq).map(|start| Some((start, len)))
}

/// Checks a segment header's magic, version and sequence number; returns
/// the start event it states.
fn check_header(bytes: &[u8], seq: u64) -> Result<u64> {
    if bytes.len() < HEADER_BYTES as usize || &bytes[..4] != MAGIC {
        return Err(PgcError::TraceFormat(format!(
            "log segment {seq}: bad or missing header"
        )));
    }
    let version = u32_at(bytes, 4);
    if version != VERSION {
        return Err(PgcError::TraceFormat(format!(
            "log segment {seq}: unsupported version {version}"
        )));
    }
    let stated_seq = u64_at(bytes, 8);
    if stated_seq != seq {
        return Err(PgcError::TraceFormat(format!(
            "log segment {seq}: header says seq {stated_seq}"
        )));
    }
    Ok(u64_at(bytes, 16))
}

fn read_segment(dir: &Path, seq: u64, last: bool, from: u64, out: &mut LogContents) -> Result<()> {
    let path = dir.join(segment_name(seq));
    let bytes = fs::read(&path).map_err(io_err(&path))?;
    let torn = |offset: usize, reason: &str| TornTail {
        segment: seq,
        offset: offset as u64,
        reason: reason.to_string(),
    };
    let hard = |reason: &str| {
        PgcError::TraceFormat(format!(
            "log segment {seq}: {reason} (not in newest segment)"
        ))
    };
    let start_event = check_header(&bytes, seq)?;
    if start_event != out.end_event() {
        return Err(PgcError::TraceFormat(format!(
            "log segment {seq}: starts at event {start_event}, but {} events precede it",
            out.end_event()
        )));
    }
    let mut pos = HEADER_BYTES as usize;
    while pos < bytes.len() {
        let frame_start = pos;
        if bytes.len() - pos < 4 + 1 + 4 {
            if last {
                out.torn = Some(torn(frame_start, "truncated frame header"));
                return Ok(());
            }
            return Err(hard("truncated frame header"));
        }
        let len = u32_at(&bytes, pos) as usize;
        pos += 4;
        if bytes.len() - pos < 1 + len + 4 {
            if last {
                out.torn = Some(torn(frame_start, "truncated frame body"));
                return Ok(());
            }
            return Err(hard("truncated frame body"));
        }
        let kind_and_payload = &bytes[pos..pos + 1 + len];
        let stated_crc = u32_at(&bytes, pos + 1 + len);
        if crc32(kind_and_payload) != stated_crc {
            if last {
                out.torn = Some(torn(frame_start, "frame checksum mismatch"));
                return Ok(());
            }
            return Err(hard("frame checksum mismatch"));
        }
        let kind = kind_and_payload[0];
        let payload = &kind_and_payload[1..];
        pos += 1 + len + 4;
        match kind {
            FRAME_EVENTS => {
                let Some((count, body)) = payload.split_first_chunk::<4>() else {
                    return Err(PgcError::TraceFormat(format!(
                        "log segment {seq}: events frame too short"
                    )));
                };
                let count = u64::from(u32::from_le_bytes(*count));
                if out.trace.events() == 0 && out.start_event + count <= from {
                    // Wholly before the restore point: counted, not decoded.
                    if count > body.len() as u64 {
                        return Err(PgcError::TraceFormat(format!(
                            "log segment {seq}: {count} events in {} bytes",
                            body.len()
                        )));
                    }
                    out.start_event += count;
                } else {
                    out.trace.extend_from_encoded(count, body)?;
                }
            }
            FRAME_SAFEPOINT => {
                if payload.len() != 24 {
                    return Err(PgcError::TraceFormat(format!(
                        "log segment {seq}: safepoint frame has {} bytes",
                        payload.len()
                    )));
                }
                let note = SafepointNote {
                    events_applied: u64_at(payload, 0),
                    collections: u64_at(payload, 8),
                    generation: u64_at(payload, 16),
                };
                // Every event is logged before it is applied and flushed
                // into a frame before the safepoint that follows it.
                if note.events_applied != out.end_event() {
                    return Err(PgcError::TraceFormat(format!(
                        "log segment {seq}: a safepoint at event {} says {}",
                        out.end_event(),
                        note.events_applied
                    )));
                }
                out.safepoints.push(note);
            }
            other => {
                return Err(PgcError::TraceFormat(format!(
                    "log segment {seq}: unknown frame kind {other}"
                )));
            }
        }
    }
    Ok(())
}
