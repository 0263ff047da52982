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

use super::crc::{crc32, Crc32};
use super::snapshot::{Generation, SnapshotDir};
use super::{io_err, numbered_files, u32_at, u64_at};
use pgc_types::{PgcError, Result};
use pgc_workload::{EncodedTrace, WorkloadParams};
use std::fs::{self, File};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;

const MAGIC: &[u8; 4] = b"PGCL";
const VERSION: u32 = 1;
const HEADER_BYTES: u64 = 4 + 4 + 8 + 8;

const FRAME_EVENTS: u8 = 1;
const FRAME_SAFEPOINT: u8 = 2;

/// File name of log segment `seq`.
pub(crate) fn segment_name(seq: u64) -> String {
    format!("log-{seq:08}.pgcl")
}

/// Write buffer in front of each segment file; sized so a whole block of
/// frames accumulates between safepoint flushes without write syscalls.
const WRITE_BUF_BYTES: usize = 512 << 10;

/// Dirty bytes that accumulate before a safepoint kicks the background
/// flusher. Kicking on every safepoint would sync near-clean files over
/// and over; kicking by volume keeps the dirty-page debt bounded while
/// staying off the hot path between kicks.
const KICK_BYTES: u64 = 1 << 20;

/// Most snapshot generations the background thread holds at once: the one
/// it is writing and one queued behind it.
pub(crate) const MAX_IN_FLIGHT: usize = 2;

/// Work for the store's one background thread.
enum Job {
    /// fsync a duplicated log-segment handle (best effort).
    SyncLog(File),
    /// fsync the log segment that holds a generation's safepoint frame,
    /// then land the generation, and report back.
    Land { log: File, generation: Generation },
}

/// The background thread's report on one generation; the buffer comes
/// back with it for the next capture.
struct Landed {
    generation: Generation,
    /// `Ok` once both fsyncs — the log's, then the file's — were issued
    /// and the file is in place; otherwise what went wrong.
    outcome: Result<()>,
}

/// The store's background I/O thread. It does two jobs, in the order they
/// were handed over.
///
/// *Log fsyncs between generations.* An `fsync` pays for every dirty page
/// still unwritten, so the log writer may hand over a duplicated file
/// handle at any safepoint, which is fsynced here while the run keeps
/// going. Dropped kicks are fine — this is an optimization, not a
/// guarantee: a safepoint that carries no generation promises "flushed to
/// the OS" and no more.
///
/// *Snapshot generations.* The run thread serialises a generation, appends
/// and flushes its safepoint frame, and hands both over
/// ([`Flusher::land`]): a duplicated handle of the segment that holds the
/// frame, and the generation. Here the log is fsynced first, then the
/// file is checksummed, written, fsynced and renamed, then the oldest
/// generation is pruned — two fsyncs and three directory operations per
/// generation, none of them on the run thread. The ordering contract:
/// **a generation file in place implies the log up to its safepoint frame
/// is on disk; `finish` returns only after both.** Recovery leans on
/// exactly that (it drops any snapshot taken beyond the log it read). The
/// outcome of every generation comes back to the run thread, which must
/// see it: [`Flusher::next_generation`] and [`Flusher::drain`] return the
/// first error reported — a failed log fsync like a failed landing — and
/// fail rather than wait if the thread is gone.
pub(crate) struct Flusher {
    jobs: Option<mpsc::SyncSender<Job>>,
    landed: mpsc::Receiver<Landed>,
    handle: Option<thread::JoinHandle<()>>,
    /// Generations handed over and not yet reported back.
    in_flight: usize,
    /// Buffers of landed generations, kept for reuse.
    spare: Vec<Generation>,
    /// Generations reported landed so far: each stands for one log fsync
    /// and one snapshot-file fsync issued on the thread.
    pub(crate) generations_landed: u64,
}

impl Flusher {
    fn spawn(dir: &Path) -> Self {
        let (jobs, rx) = mpsc::sync_channel::<Job>(2);
        let (reports, landed) = mpsc::channel::<Landed>();
        let mut snapshots = SnapshotDir::new(dir.to_path_buf());
        let handle = thread::Builder::new()
            .name("pgc-durable-io".into())
            .spawn(move || {
                for job in rx {
                    match job {
                        // Best-effort: a failed background sync is retried
                        // by the next synchronous durability point.
                        Job::SyncLog(file) => {
                            let _ = file.sync_data();
                        }
                        Job::Land {
                            log,
                            mut generation,
                        } => {
                            let outcome = log
                                .sync_data()
                                .map_err(io_err)
                                .and_then(|()| snapshots.land(&mut generation));
                            // The store may already be gone (dropped after
                            // an error): nobody is left to tell.
                            let _ = reports.send(Landed {
                                generation,
                                outcome,
                            });
                        }
                    }
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

    /// Asks for a background fsync of `file`; drops the request if the
    /// thread is still busy with earlier work.
    fn kick(&self, file: &File) {
        if let (Some(jobs), Ok(clone)) = (&self.jobs, file.try_clone()) {
            let _ = jobs.try_send(Job::SyncLog(clone));
        }
    }

    fn gone() -> PgcError {
        PgcError::TraceIo("snapshot writer thread is gone".into())
    }

    /// Takes in every report that is ready, then waits until at most
    /// `allow` generations are still with the thread.
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

    /// Surfaces any error reported since the last call, without waiting.
    pub(crate) fn poll(&mut self) -> Result<()> {
        self.settle(MAX_IN_FLIGHT)
    }

    /// A buffer to capture the next generation into. Blocks while a
    /// generation is queued behind the one being written, so buffers
    /// never pile up behind a slow disk.
    pub(crate) fn next_generation(&mut self) -> Result<Generation> {
        self.settle(MAX_IN_FLIGHT - 1)?;
        Ok(self.spare.pop().unwrap_or_default())
    }

    /// Hands a captured generation over for landing, behind an fsync of
    /// `log`.
    fn land(&mut self, log: File, generation: Generation) -> Result<()> {
        let jobs = self.jobs.as_ref().ok_or_else(Self::gone)?;
        jobs.send(Job::Land { log, generation })
            .map_err(|_| Self::gone())?;
        self.in_flight += 1;
        Ok(())
    }

    /// Waits until every generation handed over has landed.
    pub(crate) fn drain(&mut self) -> Result<()> {
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

/// The append side. Owned by [`super::DurableStore`].
pub(crate) struct LogWriter {
    dir: PathBuf,
    out: BufWriter<File>,
    seq: u64,
    seg_bytes: u64,
    segment_limit: u64,
    bytes_since_kick: u64,
    pub(crate) flusher: Flusher,
    // Counters surfaced through StorageStats.
    pub(crate) bytes_written: u64,
    pub(crate) frames: u64,
    pub(crate) fsyncs: u64,
    pub(crate) segments: u64,
}

impl LogWriter {
    pub(crate) fn create(dir: &Path, segment_limit: u64) -> Result<Self> {
        let mut writer = Self {
            dir: dir.to_path_buf(),
            out: BufWriter::with_capacity(WRITE_BUF_BYTES, open_segment(dir, 0)?),
            seq: 0,
            seg_bytes: HEADER_BYTES,
            segment_limit,
            bytes_since_kick: 0,
            flusher: Flusher::spawn(dir),
            bytes_written: HEADER_BYTES,
            frames: 0,
            fsyncs: 0,
            segments: 1,
        };
        writer.write_header(0)?;
        Ok(writer)
    }

    /// Writes a fresh segment's header and flushes it to the OS, so a
    /// segment file is never left behind empty by a kill before its first
    /// safepoint.
    fn write_header(&mut self, start_event: u64) -> Result<()> {
        self.out.write_all(MAGIC).map_err(io_err)?;
        self.out.write_all(&VERSION.to_le_bytes()).map_err(io_err)?;
        self.out
            .write_all(&self.seq.to_le_bytes())
            .map_err(io_err)?;
        self.out
            .write_all(&start_event.to_le_bytes())
            .map_err(io_err)?;
        self.out.flush().map_err(io_err)
    }

    /// Writes one frame whose payload is the concatenation of `parts`,
    /// checksumming as it goes — no intermediate assembly copy.
    fn write_frame(&mut self, kind: u8, parts: &[&[u8]]) -> Result<()> {
        let payload_len: usize = parts.iter().map(|p| p.len()).sum();
        let mut crc = Crc32::new();
        crc.update(&[kind]);
        self.out
            .write_all(&(payload_len as u32).to_le_bytes())
            .map_err(io_err)?;
        self.out.write_all(&[kind]).map_err(io_err)?;
        for part in parts {
            crc.update(part);
            self.out.write_all(part).map_err(io_err)?;
        }
        self.out
            .write_all(&crc.finish().to_le_bytes())
            .map_err(io_err)?;
        let frame_bytes = 4 + 1 + payload_len as u64 + 4;
        self.seg_bytes += frame_bytes;
        self.bytes_written += frame_bytes;
        self.bytes_since_kick += frame_bytes;
        self.frames += 1;
        Ok(())
    }

    /// Appends an events frame: `count` events already encoded in `body`.
    pub(crate) fn append_events(&mut self, count: u32, body: &[u8]) -> Result<()> {
        self.write_frame(FRAME_EVENTS, &[&count.to_le_bytes(), body])
    }

    /// Appends a safepoint frame — carrying `generation`'s number when a
    /// snapshot generation was captured at this safepoint — and rotates
    /// the segment if it outgrew the configured limit.
    ///
    /// Every safepoint *flushes* to the OS — buffered frames survive a
    /// process kill from here on — and never waits for the disk. A
    /// generation goes to the background [`Flusher`] together with a
    /// handle of the segment its frame was just written to (duplicated
    /// before any rotation below), which fsyncs that segment and then lands
    /// the file; otherwise, once [`KICK_BYTES`] of frames have accumulated,
    /// the flusher is kicked so dirty pages drain to disk while the run
    /// continues. The synchronous `fsync` is reserved for segment rotation
    /// and shutdown. Per-collection synchronous fsyncs would dominate the
    /// whole write path (milliseconds each against a microsecond-scale
    /// inter-collection interval) for a guarantee the torn-tail recovery
    /// does not need.
    pub(crate) fn safepoint(
        &mut self,
        events_applied: u64,
        collections: u64,
        generation: Option<Generation>,
    ) -> Result<()> {
        let number = generation.as_ref().map_or(0, Generation::number);
        let mut payload = [0u8; 24];
        payload[..8].copy_from_slice(&events_applied.to_le_bytes());
        payload[8..16].copy_from_slice(&collections.to_le_bytes());
        payload[16..].copy_from_slice(&number.to_le_bytes());
        self.write_frame(FRAME_SAFEPOINT, &[&payload])?;
        self.out.flush().map_err(io_err)?;
        if let Some(generation) = generation {
            let log = self.out.get_ref().try_clone().map_err(io_err)?;
            self.flusher.land(log, generation)?;
            self.bytes_since_kick = 0;
        } else if self.bytes_since_kick >= KICK_BYTES {
            self.flusher.kick(self.out.get_ref());
            self.bytes_since_kick = 0;
        }
        if self.seg_bytes >= self.segment_limit {
            self.rotate(events_applied)?;
        }
        Ok(())
    }

    fn rotate(&mut self, start_event: u64) -> Result<()> {
        // A sealed segment is made power-loss durable before the next one
        // opens, so only the newest segment can ever hold a torn tail.
        self.sync()?;
        self.seq += 1;
        self.out = BufWriter::with_capacity(WRITE_BUF_BYTES, open_segment(&self.dir, self.seq)?);
        self.seg_bytes = HEADER_BYTES;
        self.bytes_written += HEADER_BYTES;
        self.segments += 1;
        self.write_header(start_event)
    }

    fn sync(&mut self) -> Result<()> {
        self.out.flush().map_err(io_err)?;
        self.out.get_ref().sync_data().map_err(io_err)?;
        self.fsyncs += 1;
        self.bytes_since_kick = 0;
        Ok(())
    }

    /// Final flush + fsync at shutdown.
    pub(crate) fn finish(&mut self) -> Result<()> {
        self.sync()
    }
}

fn open_segment(dir: &Path, seq: u64) -> Result<File> {
    File::create(dir.join(segment_name(seq))).map_err(io_err)
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
    let mut file = File::open(dir.join(segment_name(seq))).map_err(io_err)?;
    let len = file.metadata().map_err(io_err)?.len();
    if len < HEADER_BYTES {
        return Ok(None);
    }
    let mut header = [0u8; HEADER_BYTES as usize];
    file.read_exact(&mut header).map_err(io_err)?;
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
    let bytes = fs::read(dir.join(segment_name(seq))).map_err(io_err)?;
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
